"""CSV and JSON wire formats for every file the package writes or reads.

One table maps each object type to its format and, for a CSV form, to the
finished lines of its rows, formatted a whole column at a time.  One JSON
writer and one CSV reader serve every row of it; the reader parses a body
with one ``np.loadtxt`` call (int64 count columns, a float64 ``p`` column).

  object                  CSV header                              JSON fields after "schema"
  JointDistribution       s,t,p (s-major row order)               params, tol, probs, tail_bound
  PhotoCountDistribution  s,p                                     probs, tail_bound, tol, mean
  ConditionalState        (JSON only)                             t, params, gamma_min, weights,
                                                                  tail_bound, M_t
  ShotRecord              s,t (one integer pair per row)          meta, shots
  sweep (list[SweepRow])  axis,value,delta,delta_R,S_state,S_ref  metadata {log_base, ...}, rows
  NonGaussReport          (JSON only)                             t, params, S_state, S_ref, delta,
                                                                  delta_R, nbar_per_mode, log_base, ...
  EstimationReport        (JSON only)                             M_hat, eta_hat, mu_hat, R_hat,
                                                                  fidelity, standard_errors,
                                                                  diagnostics, n_shots

``...`` marks the fields a caller adds through ``format_table``'s
``extra``.  CSV cells hold ints in decimal and floats as Python's shortest
round-trip repr, so files are locale-independent and re-read bit-exactly.
A record is formatted once per row of its (s, t) pair table when the table
has two shots per row or more.  Every JSON payload opens with
``"schema": 1``; every file ends with a newline.  Writers and readers alike
take a name ending in ``.json`` (any case, a bare ``.json`` too) as JSON,
any other as CSV.  One JSON number rule reads ``probs`` and ``shots``: a
rectangular array (1-D or 2-D for a table, 2-D for a record) of ints and
floats only, counts as exact int64 (``2.0`` as 2).  ``read_table`` and
``read_record`` raise ParameterError naming the path for a file they
cannot read back: missing, not text, a wrong header, no rows, a ragged row
or an empty line between rows, a bad cell (not a plain decimal of its
column's type: ``1_0``, ``2 # c``, a count beyond int64; named by its file
line), a negative count, invalid JSON, a missing field or a JSON array
that breaks the number rule.  An unwritable output path raises it too.
"""

from __future__ import annotations

import functools
import io
import json
import math
import operator
import os
import re
from dataclasses import asdict, astuple
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .conditional import ConditionalState
from .core import _MAX_CELLS_DEFAULT, JointDistribution, PhotoCountDistribution
from .errors import ParameterError, TableSizeError
from .estimation import EstimationReport
from .nongauss import NonGaussReport
from .sampling import ShotRecord, _pair_table

SCHEMA = 1


def format_json(fields: dict, indent: int | None = None) -> str:
    """``{"schema": 1, **fields}`` as JSON text ending in a newline."""
    return json.dumps({"schema": SCHEMA, **fields}, indent=indent) + "\n"


class _Kind(NamedTuple):
    header: str | None  # None: the kind has no CSV form
    lines: Callable | None  # object -> CSV lines under the header
    fields: Callable  # (object, extra) -> JSON fields after "schema"
    text: Callable = format_json  # JSON fields -> JSON text


def _cells(row) -> str:
    return ",".join(map(str, row))


def _pair_texts(record: ShotRecord, template: str) -> Iterable[str]:
    """``template.format(s, t)`` per shot, formatted once per row of the pair
    table when the table has two shots per row or more."""
    s, t, n = _pair_table(record)
    if 2 * n.size > len(record):
        return map(template.format, *record.shots.T.tolist())
    texts = np.empty((int(s.max()) + 1, int(t.max()) + 1), dtype=object)
    texts[s, t] = list(map(template.format, s.tolist(), t.tolist()))
    return texts[record.s, record.t].tolist()


def _record_json(fields: dict) -> str:
    """``format_json(fields)``, its last field, the record, by ``_pair_texts``."""
    head, _, tail = format_json({**fields, "shots": []}).rpartition("[]")
    return f"{head}[{', '.join(_pair_texts(fields['shots'], '[{}, {}]'))}]{tail}"


def _joint_lines(table: JointDistribution):
    n_s, n_t = table.probs.shape
    prefixes = [f"{s},{t}," for s in range(n_s) for t in range(n_t)]
    return map(str.__add__, prefixes, map(repr, table.probs.ravel().tolist()))


_KINDS = {
    JointDistribution: _Kind(
        "s,t,p", _joint_lines,
        lambda x, extra: {"params": None if x.params is None else x.params.to_dict(),
                          "tol": x.tol,
                          "probs": x.probs.tolist(), "tail_bound": x.tail_bound},
    ),
    PhotoCountDistribution: _Kind(
        "s,p", lambda x: map("{},{!r}".format, range(x.probs.size), x.probs.tolist()),
        lambda x, extra: {"probs": x.probs.tolist(), "tail_bound": x.tail_bound,
                          "tol": x.tol, "mean": x.mean},
    ),
    ConditionalState: _Kind(
        None, None,
        lambda x, extra: {"t": x.t, "params": x.params.to_dict(), "gamma_min": x.gamma_min,
                          "weights": x.weights.tolist(), "tail_bound": x.tail_bound,
                          "M_t": x.M_t},
    ),
    ShotRecord: _Kind("s,t", lambda x: _pair_texts(x, "{},{}"),
                      lambda x, extra: {"meta": x.meta, "shots": x}, _record_json),
    # a sweep is the list of SweepRow that nongauss.sweep returns
    list: _Kind(
        "axis,value,delta,delta_R,S_state,S_ref", lambda x: map(_cells, map(astuple, x)),
        lambda x, extra: {"metadata": {"log_base": "e", **extra}, "rows": list(map(asdict, x))},
    ),
    NonGaussReport: _Kind(None, None, lambda x, extra: {**asdict(x), "log_base": "e", **extra}),
    EstimationReport: _Kind(None, None, lambda x, extra: asdict(x)),
}


def _csv_text(header: str, lines) -> str:
    return "\n".join([header, *lines]) + "\n"


def format_csv(header: str, rows) -> str:
    """The header line plus one line per row, cells joined by commas."""
    return _csv_text(header, map(_cells, rows))


def format_table(obj, fmt: str = "json", extra: dict | None = None) -> str:
    """``obj`` as "csv" or "json" text; kinds without a CSV form are JSON
    whatever ``fmt`` says.  ``extra`` adds fields to a sweep's metadata or to
    a nonGaussianity report."""
    kind = _KINDS[type(obj)]
    if fmt == "csv" and kind.header is not None:
        return _csv_text(kind.header, kind.lines(obj))
    return kind.text(kind.fields(obj, extra or {}))


def _read_text(path) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParameterError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a text file") from exc


def _path_format(path) -> str | None:
    """The format a path's name holds for writers and readers: "csv", "json" or None."""
    name = str(path).lower()
    return next((ext for ext in ("csv", "json") if name.endswith(f".{ext}")), None)


def _read_json(path, key: str, noun: str, ndims: tuple[int, ...], exact: bool = False):
    """A JSON file's top-level object and its field ``key`` as an array of one
    of ``ndims`` dimensions by the JSON number rule: int64 where ``exact`` and
    every cell is whole, else float64.  ``noun`` names the cells in a refusal."""
    try:
        payload = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict) or key not in payload:
        raise ParameterError(f"{path}: no {key!r} field")
    cells, shape = [payload[key]], []
    while (kinds := set(map(type, cells))) == {list} and len(widths := set(map(len, cells))) == 1:
        shape += widths  # one level deeper, all of one width
        cells = functools.reduce(operator.iadd, cells, [])  # one new list, extended by each
    kind = "integers" if exact else "numbers"
    if kinds & {str, bool}:
        raise ParameterError(f"{path}: {noun} must be {kind}, not strings or booleans")
    if kinds - {int, float} or len(shape) not in ndims:
        dims = " or ".join(f"{n}-D" for n in ndims)
        raise ParameterError(f"{path}: {key!r} is not a {dims} array of numbers")
    if exact and float in kinds:  # a whole float counts as its integer
        cells = [int(v) if type(v) is float and v % 1 == 0 else v for v in cells]
        kinds = set(map(type, cells))
    try:
        dtype = np.int64 if exact and kinds <= {int} else np.float64
        return payload, np.fromiter(cells, dtype, len(cells)).reshape(shape)
    except OverflowError:  # an int beyond the dtype; a negative one is refused as negative
        negative = any(type(v) is int and v < 0 for v in cells)
        bound = f"{kind} {'below 2**63' if exact else 'within the float range'}"
        raise ParameterError(f"{path}: {noun} must be {'>= 0' if negative else bound}") from None


def _read_csv(path, headers: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """Integer count columns as an (n, k) array and the float column ``p``
    (None when the header has none) of a CSV file whose header is one of
    ``headers``.  The body is parsed column-wise by ``np.loadtxt``."""
    text = _read_text(path)
    header, _, body = text.strip().partition("\n")
    header = header.strip()
    if header not in headers:
        raise ParameterError(f"{path}: header {header[:40]!r} is not one of {headers}")
    if not body:
        raise ParameterError(f"{path}: no rows under the header {header!r}")
    names = header.split(",")
    n_counts = len(names) - (names[-1] == "p")
    dtype = [(name, np.int64 if i < n_counts else np.float64) for i, name in enumerate(names)]
    try:
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, dtype=dtype, ndmin=1)
        if rows.size != body.count("\n") + 1:  # loadtxt skips empty lines
            raise ValueError("an empty line")
    except ValueError as exc:  # the failure path alone scans the lines
        if any(len(line.split(",")) != len(names) for line in body.splitlines()):
            raise ParameterError(f"{path}: every row needs {len(names)} cells ({header})") from exc
        first = text[:len(text) - len(text.lstrip())].count("\n") + 2  # the file line of row 0
        where = re.sub(r"at row (\d+)", lambda row: f"on line {int(row[1]) + first}", str(exc))
        raise ParameterError(f"{path}: bad cell ({where})") from exc
    counts = np.column_stack([rows[name] for name in names[:n_counts]])
    if counts.min() < 0:
        raise ParameterError(f"{path}: counts must be >= 0")
    return counts, (rows["p"] if n_counts < len(names) else None)


def read_table(path) -> np.ndarray:
    """Load a probability table of either dimensionality from CSV or JSON."""
    if _path_format(path) == "json":
        return _read_json(path, "probs", "probabilities", (1, 2))[1]
    headers = (_KINDS[JointDistribution].header, _KINDS[PhotoCountDistribution].header)
    counts, values = _read_csv(path, headers)
    shape = tuple((counts.max(axis=0) + 1).tolist())
    if math.prod(shape) > _MAX_CELLS_DEFAULT:
        raise TableSizeError(
            f"{path}: a {shape} table exceeds the budget of {_MAX_CELLS_DEFAULT} cells"
        )
    table = np.zeros(shape)
    table[tuple(counts.T)] = values
    return table


def read_record(path) -> ShotRecord:
    """Load a shot record from CSV (``s,t`` rows) or JSON (shots and meta)."""
    if _path_format(path) == "json":
        payload, shots = _read_json(path, "shots", "shot counts", (2,), exact=True)
        meta = payload.get("meta", {})
    else:
        shots, _ = _read_csv(path, (_KINDS[ShotRecord].header,))
        meta = {"source": str(path)}
    try:
        return ShotRecord(shots=shots, meta=meta)
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def resolve_output(path):
    """Relative output paths land in $TWINBEAM_OUTDIR when it is set."""
    path = Path(path)
    base = os.environ.get("TWINBEAM_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    return path


def write_text(path, text: str) -> Path:
    path = resolve_output(path)
    try:
        path.write_text(text)
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    return path
