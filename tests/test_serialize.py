import contextlib
import hashlib
import io
import json
import re

import numpy as np
import pytest

from twinbeam import (
    ExperimentParams,
    ParameterError,
    SelectionRule,
    TableSizeError,
    build_conditional,
    histogram,
    marginal_dist,
    sample_run,
)
from twinbeam import cli, serialize


def _write(path, obj, fmt="json"):
    return serialize.write_text(path, serialize.format_table(obj, fmt))


def test_joint_csv_round_trip(tmp_path, table_b):
    path = _write(tmp_path / "joint.csv", table_b, "csv")
    back = serialize.read_table(path)
    assert np.array_equal(back, table_b.probs)


def test_joint_json_round_trip(tmp_path, table_b, params_b):
    path = _write(tmp_path / "joint.json", table_b)
    assert np.array_equal(serialize.read_table(path), table_b.probs)
    payload = json.loads(path.read_text())
    assert payload["tail_bound"] == table_b.tail_bound
    assert payload["tol"] == table_b.tol
    assert ExperimentParams.from_dict(payload["params"]) == params_b


def test_counts_csv_round_trip(tmp_path, params_b):
    dist = marginal_dist(params_b, tol=1e-10)
    path = _write(tmp_path / "counts.csv", dist, "csv")
    back = serialize.read_table(path)
    assert np.array_equal(back, dist.probs)


def test_counts_json_schema(tmp_path, params_b):
    dist = marginal_dist(params_b, tol=1e-10)
    path = _write(tmp_path / "counts.json", dist)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["mean"] == dist.mean
    assert payload["probs"] == dist.probs.tolist()
    assert np.array_equal(serialize.read_table(path), dist.probs)


def test_state_json_schema(tmp_path, params_b):
    state = build_conditional(params_b, SelectionRule.exact(4), tol=1e-10)
    # a state has no CSV form, so "csv" still gives its JSON
    assert serialize.format_table(state, "csv") == serialize.format_table(state)
    path = _write(tmp_path / "state.json", state)
    payload = json.loads(path.read_text())
    assert set(payload) == {"schema", "t", "params", "gamma_min", "weights",
                            "tail_bound", "M_t"}
    assert payload["t"] == 4
    assert payload["gamma_min"] == 4
    assert payload["M_t"] == state.M_t
    assert payload["weights"] == state.weights.tolist()


def test_shots_csv_round_trip(tmp_path):
    rec = sample_run(ExperimentParams(2.0, 0.4, 1.5), 500, seed=8)
    path = _write(tmp_path / "shots.csv", rec, "csv")
    back = serialize.read_record(path)
    assert np.array_equal(back.shots, rec.shots)
    assert back.meta == {"source": str(path)}
    assert path.read_text().splitlines()[0] == "s,t"


def test_shots_json_round_trip(tmp_path):
    rec = sample_run(ExperimentParams(2.0, 0.4, 1.5), 200, seed=8)
    path = _write(tmp_path / "shots.json", rec)
    back = serialize.read_record(path)
    assert np.array_equal(back.shots, rec.shots)
    assert back.meta == rec.meta
    # the record's params survive the round trip into its histogram
    assert histogram(back).params == ExperimentParams(2.0, 0.4, 1.5)


def test_read_table_dispatch(tmp_path, table_b, params_b):
    joint_path = _write(tmp_path / "a.csv", table_b, "csv")
    assert serialize.read_table(joint_path).ndim == 2
    counts_path = _write(tmp_path / "b.csv", marginal_dist(params_b, tol=1e-8), "csv")
    assert serialize.read_table(counts_path).ndim == 1
    bad = tmp_path / "c.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(ParameterError):
        serialize.read_table(bad)


def test_sweep_csv_header(tmp_path):
    from twinbeam import sweep

    rows = sweep("eta", [0.06, 0.1], {"M_t": 4.0, "t": 5, "mu": 25.0}, tol=1e-10)
    path = _write(tmp_path / "sweep.csv", rows, "csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "axis,value,delta,delta_R,S_state,S_ref"
    assert lines[1].startswith("eta,0.06,")
    # full-precision floats survive parsing
    value = float(lines[1].split(",")[3])
    assert value == rows[0].delta_R


def test_output_dir_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TWINBEAM_OUTDIR", str(tmp_path / "sub"))
    out = serialize.write_text("file.txt", "hello\n")
    assert out == tmp_path / "sub" / "file.txt"
    assert out.read_text() == "hello\n"


# SHA-256 of the stdout of each subcommand; the codec must keep every byte.
# The sample pins hold the records of the negative-binomial sampler.  The
# joint, conditional, marginal and sweep pins (and fig2a below) hold the
# recurrence kernel and the running-sum marginal.  Against the log-gamma
# series they moved by at most 4e-16 in probability (8e-13 in fig2a, where
# the series stopped at tol 1e-6; its cells are within 4e-15 of joint_prob)
# and 5e-13 in entropy.  The conditional and sweep pins hold the exact-t
# state as t + NB(t+mu, rr): the conditional support ends where that tail
# drops to tol (8 rows, not 48; every kept cell unchanged).  The sweep pins
# hold delta as the relative entropy of the photon-total laws: delta is
# within 1.3e-15 of a 40-digit sum (it moved by up to 7.8e-15) and S_ref
# within 6e-15 (S_state = S_ref - delta).
_SMALL = ["--mu", "1", "--eta", "0.5", "--mean", "0.5"]
_GOLDEN_ARGV = {
    "joint": ["joint", *_SMALL, "--tol", "1e-2"],
    "marginal": ["marginal", *_SMALL, "--tol", "1e-3"],
    "conditional": ["conditional", *_SMALL, "--t", "1", "--tol", "1e-3"],
    "sample": ["sample", *_SMALL, "--shots", "4", "--seed", "1"],
    "sweep": ["sweep", "--axis", "eta", "--values", "0.1,0.2", "--mt", "4", "--t", "5",
              "--mu", "25", "--tol", "1e-10"],
}
_GOLDEN_SHA256 = {
    ("joint", "csv"): "86aa2218b2a7876af4e51c238c1c5a7b822965bf81bfbc2035a6124f248e43f9",
    ("joint", "json"): "453baebfd18811561ca7dfa6676f2e21ef1bfff3fba3c5e076ce04ca581e0a2a",
    ("marginal", "csv"): "5cd680a786672a100685220217c54048c0f3a4ccd35158a57e21639353c8b8d1",
    ("marginal", "json"): "a9ad29ede1d0dd36c6431fbf65d84f1507fd25533ca69155553913a037e40125",
    ("conditional", "csv"): "db4bee571730ffc2082707ac44b48b0cdb6b40de12d68a9c930a9784c026c185",
    ("conditional", "json"): "6ee0eee98fc8a2a4c7f45c9cf980f87eadacb96810977d02caf4e59c08346537",
    ("sample", "csv"): "52f47ae859188e226dba3919675f94fe290a8ae212ea47b733512a68e2ab138a",
    ("sample", "json"): "1bebc9387457458753836ac6cc013ab8d5ca8ed6f5303ea3ad3833c1241d1287",
    ("sweep", "csv"): "0661fb74961372e8bfec5afc8a93c0df658326f010c33bdcb79a3483190ddffc",
    ("sweep", "json"): "e3b341d4798133f55b7d0c46d21c392734de663aabd188ba4d9f404f3cd5d3c4",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,fmt", sorted(_GOLDEN_SHA256))
def test_cli_output_bytes_are_pinned(command, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*_GOLDEN_ARGV[command], "--format", fmt]) == 0
    assert _sha256(out.getvalue()) == _GOLDEN_SHA256[(command, fmt)]


def test_reproduce_bytes_are_pinned(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reproduce", "fig2a", "--outdir", str(tmp_path), "--tol", "1e-6"]) == 0
    got = {p.name: _sha256(p.read_text()) for p in (tmp_path / "fig2a").iterdir()}
    assert got == {
        "joint.csv": "70c88859abe0ff628258d24be878468ba7889cf40ce24166bbae9ef3740b08fe",
        "manifest.json": "3517955b5ea20dbd92f20e5adbb15711e93ccb37f83eab2f53fe4e31426c6d68",
    }


MALFORMED = {
    "missing.csv": None,
    "header_only.csv": "s,t,p\n",
    "empty.csv": "",
    "non_integer.csv": "s,t\n1,2\n3,2.5\n",
    "short_row.csv": "s,t,p\n0,0,0.5\n1,0\n",
    "bad_value.csv": "s,p\n0,x\n",
    "negative.csv": "s,t,p\n-1,0,0.5\n",
    "broken.json": '{"probs": [[1, 2',
    "no_field.json": '{"schema": 1}\n',
    "not_object.json": "[1, 2]\n",
    "ragged.json": '{"probs": [[1], [1, 2]], "shots": [[1], [1, 2]]}\n',
    "fractional.json": '{"probs": "x", "shots": [[1, 2.5]]}\n',
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
@pytest.mark.parametrize("reader", ["read_table", "read_record"])
def test_malformed_files_name_their_path(tmp_path, name, reader):
    path = tmp_path / name
    if MALFORMED[name] is not None:
        path.write_text(MALFORMED[name])
    with pytest.raises(ParameterError, match=re.escape(str(path))):
        getattr(serialize, reader)(path)


def test_sparse_table_file_is_refused_before_allocating(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("s,t,p\n100000,100000,0.5\n")
    with pytest.raises(TableSizeError):
        serialize.read_table(path)
