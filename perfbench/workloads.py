"""Task lists of the three workloads, generated from a workload seed.

A task is one call into the package's public surface (``fn``), a check that
judges its output against ``oracles`` after the timed loop (``check``), and,
for the operations that hit a fault the package still has, the fault it
hits (``fault``).  The same seed gives the same task list; the seed moves
parameters inside ranges where every call's cost and outcome stay the same,
and the known-fault operations take fixed inputs, so the number of failures
per pass never depends on the seed.

Composition (counts per pass; README.md says why each group is there).
The tail percentile falls inside a block of calls of one kind and similar
cost, and so does the median, so neither jumps from one kind to another
between runs:

* prepare, 50 calls: 18 below 9 ms; 14 of 9-15 ms holding the median
  (exact-t at A, above-threshold mixture means at A); 3 of 20-70 ms; 11
  below-threshold selections at A and B (0.1-0.13 s) holding the tail
  percentile; 4 above-threshold selections on top (3 at A, one at B).
* calibrate, 40 cycles: 10 small-mu and 16 B records of 10**4 shots (the
  B ones hold the median), 11 at B with 2*10**4 shots holding the tail
  percentile, and 3 long ones (A at 3*10**4 shots, B at 10**5).
* cli, 60 invocations: 21 below 7 ms (malformed inputs, entropy reports,
  sweeps, marginals, small-mu tables and selections); 16 of 9-16 ms around
  the median, which 11 CSV tables at A hold (the JSON table at A, fig2a and
  the table fidelities lie among them); samples, selections and
  11 estimates (about 0.1 s) holding the tail percentile; reproduce fig3/fig5
  on top.

The lists are built grouped as above and then run in a seed-chosen order
(``_spread``), so the calls of a block are spread over the pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import twinbeam as tb
import twinbeam.cli as tb_cli

A = (197.0, 0.06, 13.4)
B = (25.0, 0.056, 17.1)

# Trigger thresholds above which the complement form 1 - sum(below) of the
# acceptance probability leaves a relative error beyond oracles.REL_TOL in the
# mixture mean at A (1.4e-9 at 31, 1.9e-8 at 34, 5.9e-6 at 40).
FAULT_ABOVE_A = (31, 34, 37, 40)
FAULT_CANCEL = "above-threshold acceptance probability formed as 1 - sum(p2(t <= t*))"
FAULT_LARGE_MU = "gamma-function log-binomials lose precision at large mu"
FAULT_CLI_INPUT = "malformed input surfaces as a raw exception instead of 'error:' and exit 1"


@dataclass
class Task:
    kind: str
    fn: Callable[[], Any]
    check: Callable[[Any, Any], Optional[str]]
    fault: Optional[str] = None
    seed: int = 0


def _rule(spec):
    kind, arg = spec
    if kind == "set":
        return tb.SelectionRule.from_set(arg)
    return getattr(tb.SelectionRule, kind)(arg)


def _params(p):
    return tb.ExperimentParams(*p)


def _small_point(rng: random.Random, integer_mu: bool = False):
    mu = float(rng.choice((1, 2, 3))) if integer_mu else round(rng.uniform(1.2, 3.8), 6)
    return (mu, round(rng.uniform(0.2, 0.5), 6), round(rng.uniform(1.5, 3.0), 6))


# --- prepare ----------------------------------------------------------------


def _joint(point, tol=1e-12, fault=None):
    def check(out, o):
        return o.check_joint(out.probs, out.tail_bound, out.tol, *point)
    return Task("joint_table", lambda: tb.joint_table(_params(point), tol=tol), check, fault)


def _marginal(point):
    def check(out, o):
        return o.check_marginal(out.probs, out.tail_bound, out.tol, point[0], point[2])
    return Task("marginal_dist", lambda: tb.marginal_dist(_params(point)), check)


def _counts(point, spec, verify=False, fault=None):
    def check(out, o):
        return o.check_counts(out.probs, out.tail_bound, out.tol, *point, spec)
    fn = lambda: tb.cond_count_dist(_params(point), _rule(spec), verify=verify)  # noqa: E731
    return Task(f"cond_count_dist.{spec[0]}", fn, check, fault)


def _mixture_mean(point, spec, fault=None):
    def fn():
        mix = tb.build_conditional(_params(point), _rule(spec))
        return mix.mean_counts(), mix.success_prob

    def check(out, o):
        return o.check_mixture(out[0], out[1], *point, spec)
    return Task(f"mixture_mean.{spec[0]}", fn, check, fault)


def _nongauss(point, t):
    def check(out, o):
        return o.check_entropy(out.S_state, out.S_ref, out.delta_R, *point, t)
    return Task("nongauss_report", lambda: tb.nongauss_report(_params(point), t), check)


def _check_sweep_rows(rows, axis, values, fixed, o) -> Optional[str]:
    """rows: (S_state, S_ref, delta_R) per grid value, beam mean solved from
    the conditional-mean relation as ``sweep`` does."""
    if len(rows) != len(values):
        return f"{len(rows)} sweep rows for {len(values)} values"
    for v, (s_state, s_ref, delta_r) in zip(values, rows):
        p = dict(fixed, **{axis: v})
        m = o.solve_mean(p["M_t"], p["t"], p["mu"], p["eta"])
        bad = o.check_entropy(s_state, s_ref, delta_r, p["mu"], p["eta"], m, int(p["t"]))
        if bad:
            return f"{axis}={v}: {bad}"
    return None


def _sweep(axis, values, fixed):
    def check(out, o):
        rows = [(r.S_state, r.S_ref, r.delta_R) for r in out]
        return _check_sweep_rows(rows, axis, values, fixed, o)
    return Task("sweep", lambda: tb.sweep(axis, values, fixed), check)


def _spread(rng: random.Random, tasks: list[Task], keep: int = 0) -> list[Task]:
    """The task list in a seed-chosen order, the first ``keep`` tasks (whose
    files later tasks read) left in front.  A block of similar calls that
    holds a percentile is then spread over the whole pass, so the
    percentile samples the host's speed over the pass and not over the
    fraction of a second a contiguous block would take."""
    rest = tasks[keep:]
    rng.shuffle(rest)
    return tasks[:keep] + rest


def _drawn(rng: random.Random, values) -> list:
    """The fixed multiset ``values`` in a seed-chosen order.  Costly calls take
    their thresholds this way, so a seed changes the request stream but not
    the work a pass holds."""
    values = list(values)
    rng.shuffle(values)
    return values


def prepare_tasks(seed: int, scratch: Path) -> list[Task]:
    rng = random.Random(f"prepare:{seed}")
    s1, s2 = _small_point(rng), _small_point(rng)
    tasks: list[Task] = []
    # 18 below 9 ms, the two large-mu calls among them (they fail fast)
    tasks.append(_joint((1e6, 0.3, 3.0), fault=FAULT_LARGE_MU))
    tasks.append(_counts((1e4, 0.5, 10.0), ("above", 1), fault=FAULT_LARGE_MU))
    tasks += [_marginal(p) for p in (A, B, s1, s2)]
    tasks += [_joint(A), _joint(s1), _joint(s2)]
    tasks += [_nongauss(A, rng.randint(1, 22)), _nongauss(B, rng.randint(1, 25)),
              _nongauss(s1, rng.randint(1, 6))]
    tasks.append(_sweep("eta", [0.06, round(rng.uniform(0.07, 0.15), 4), 0.2],
                        {"M_t": 4.0, "t": 5, "mu": 197.0}))
    tasks.append(_sweep("t", [2, 4, rng.choice((6, 8, 10))],
                        {"M_t": 4.0, "eta": 0.056, "mu": 25.0}))
    tasks.append(_mixture_mean(A, ("below", rng.choice((6, 8, 10)))))
    tasks.append(_mixture_mean(B, ("below", rng.choice((8, 10, 12)))))
    tasks += [_counts(p, ("exact", rng.randint(1, 6))) for p in (s1, s2)]
    # 14 of 9-15 ms that hold the median: exact-t at A and above-threshold
    # mixture means at A (the threshold-mean curve of fig3), thresholds on
    # both sides of M
    tasks += [_counts(A, ("exact", t), verify=(i == 0))
              for i, t in enumerate(_drawn(rng, (4, 9, 13, 17, 21, 24)))]
    tasks += [_mixture_mean(A, ("above", t)) for t in _drawn(rng, (2, 10, 14, 22))]
    tasks += [_mixture_mean(A, ("above", t), FAULT_CANCEL) for t in FAULT_ABOVE_A]
    # 3 of 20-70 ms
    tasks.append(_counts(B, ("exact", rng.choice((12, 17, 22))), verify=True))
    tasks.append(_counts(A, ("set", (4, 11, 19))))
    tasks.append(_joint(B))
    # 11 below-threshold selections of 0.1-0.13 s that hold the tail
    # percentile, then the above-threshold selections on top
    tasks += [_counts(A, ("below", t)) for t in _drawn(rng, (9, 9, 10, 10, 10, 10, 11, 11))]
    tasks += [_counts(B, ("below", t)) for t in _drawn(rng, (7, 8, 8))]
    tasks += [_counts(A, ("above", t)) for t in _drawn(rng, (6, 14, 22))]
    tasks.append(_counts(B, ("above", rng.choice((10, 11, 12)))))
    return _spread(rng, tasks)


# --- calibrate --------------------------------------------------------------


def _cycle(point, shots, seed, refine, workers=1):
    def fn():
        truth = _params(point)
        record = tb.sample_run(truth, shots, seed, workers=workers)
        hist = tb.histogram(record)
        r = tb.noise_reduction(record)
        report = tb.estimate_params(record, refine=refine, n_bootstrap=200,
                                    bootstrap_seed=seed)
        model = tb.joint_table(report.params(), tol=1e-8)
        true_table = tb.joint_table(truth, tol=1e-8)
        return record, hist, r, report, tb.fidelity(model, true_table)

    def check(out, o):
        return o.check_cycle(point, shots, *out)
    return Task(f"cycle.mu{point[0]:g}.n{shots}", fn, check, seed=seed)


def _twin(first: Task, point, shots, seed, refine) -> Task:
    """Repeat ``first``'s record with two sampler workers; checks run in task
    order, so ``first``'s output is on hand when the twin is judged."""
    seen: list = []
    inner_first = first.check

    def check_first(out, o):
        seen.append(out[0])
        return inner_first(out, o)
    first.check = check_first

    task = _cycle(point, shots, seed, refine, workers=2)
    inner = task.check

    def check(out, o):
        if not seen or out[0].shots.tobytes() != seen[0].shots.tobytes():
            return "workers=2 record differs from its workers=1 twin"
        return inner(out, o)
    task.check = check
    task.kind = "cycle.twin"
    return task


def calibrate_tasks(seed: int, scratch: Path) -> list[Task]:
    rng = random.Random(f"calibrate:{seed}")
    seeds = rng.sample(range(1, 10**6), 64)
    tasks: list[Task] = []
    # 26 records of 10**4 shots: 10 at small integer mu, refined by maximum
    # likelihood, then 16 at B (one repeated with two sampler workers) that
    # hold the median
    tasks += [_cycle(_small_point(rng, True), 10_000, seeds.pop(), True) for _ in range(10)]
    tasks += [_cycle(B, 10_000, seeds.pop(), False) for _ in range(15)]
    twin = _twin(tasks[10], B, 10_000, tasks[10].seed, False)
    # 11 at B with 2*10**4 shots: they hold the tail percentile
    tasks += [_cycle(B, 20_000, seeds.pop(), False) for _ in range(11)]
    # 3 long: the O(shots*mu) draw at A, and the 10**5-shot bootstrap at B
    tasks += [_cycle(A, 30_000, seeds.pop(), False) for _ in range(2)]
    tasks.append(_cycle(B, 100_000, seeds.pop(), False))
    # the twin goes last: its check compares with its first's checked output
    return _spread(rng, tasks) + [twin]


# --- cli --------------------------------------------------------------------


def _invoke(argv: list[str]):
    """One in-process CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tb_cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _pargs(point) -> list[str]:
    return ["--mu", repr(point[0]), "--eta", repr(point[1]), "--mean", repr(point[2])]


def _cli(kind, argv, check, fault=None) -> Task:
    argv = [str(a) for a in argv]

    def judged(out, o):
        code, stdout, stderr = out
        if fault is None and code != 0:
            return f"exit {code}: {stderr.strip().splitlines()[-1:]}"
        return check(out, o)
    return Task(f"cli.{kind}", lambda: _invoke(argv), judged, fault)


def _read_rows(path: Path, header: str) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path.name}: header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:] if line]


def _csv_joint(path: Path):
    rows = _read_rows(path, "s,t,p")
    size = (max(int(r[0]) for r in rows) + 1, max(int(r[1]) for r in rows) + 1)
    out = np.zeros(size)
    for s, t, p in rows:
        out[int(s), int(t)] = float(p)
    return out


def _csv_counts(path: Path):
    rows = _read_rows(path, "s,p")
    out = np.zeros(max(int(r[0]) for r in rows) + 1)
    for s, p in rows:
        out[int(s)] = float(p)
    return out


def _load_table(path: Path):
    """Probabilities of a written joint or count table, CSV or JSON."""
    if path.suffix == ".json":
        return np.asarray(json.loads(path.read_text())["probs"], dtype=float)
    header = path.read_text().split("\n", 1)[0]
    return _csv_joint(path) if header == "s,t,p" else _csv_counts(path)


def _load_record(path: Path):
    if path.suffix == ".json":
        return np.asarray(json.loads(path.read_text())["shots"], dtype=np.int64)
    return np.asarray([[int(a), int(b)] for a, b in _read_rows(path, "s,t")], dtype=np.int64)


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def _check_joint_file(path, point, tol):
    def check(out, o):
        probs = _load_table(path)
        ref = tb.joint_table(_params(point), tol=tol)
        if not _same(probs, ref.probs):
            return f"{path.name} does not re-read to the in-process table"
        return o.check_joint(probs, ref.tail_bound, tol, *point)
    return check


def _check_marginal_file(path, point):
    def check(out, o):
        probs = _load_table(path)
        ref = tb.marginal_dist(_params(point))
        if not _same(probs, ref.probs):
            return f"{path.name} does not re-read to the in-process distribution"
        return o.check_marginal(probs, ref.tail_bound, ref.tol, point[0], point[2])
    return check


def _check_counts_file(path, point, spec, state_path=None):
    def check(out, o):
        probs = _load_table(path)
        ref = tb.cond_count_dist(_params(point), _rule(spec))
        if not _same(probs, ref.probs):
            return f"{path.name} does not re-read to the in-process distribution"
        bad = o.check_counts(probs, ref.tail_bound, ref.tol, *point, spec)
        if bad or state_path is None:
            return bad
        payload = json.loads(state_path.read_text())
        state = tb.build_conditional(_params(point), _rule(spec))
        if not _same(np.asarray(payload["weights"], dtype=float), state.weights):
            return f"{state_path.name} weights differ from the in-process state"
        m_t = float(o.cond_mean(*point, spec[1]))
        if abs(payload["M_t"] - m_t) > o.REL_TOL * m_t:
            return f"{state_path.name} M_t {payload['M_t']!r} vs {m_t!r}"
        return None
    return check


def _check_nongauss(point, t):
    def check(out, o):
        payload = json.loads(out[1])
        return o.check_entropy(payload["S_state"], payload["S_ref"], payload["delta_R"],
                               *point, t)
    return check


def _check_sweep_file(path, axis, values, fixed):
    def check(out, o):
        if path.suffix == ".json":
            rows = json.loads(path.read_text())["rows"]
        else:
            keys = "axis,value,delta,delta_R,S_state,S_ref".split(",")
            rows = [dict(zip(keys, r)) for r in _read_rows(path, ",".join(keys))]
        rows = [(float(r["S_state"]), float(r["S_ref"]), float(r["delta_R"])) for r in rows]
        bad = _check_sweep_rows(rows, axis, values, fixed, o)
        return f"{path.name}: {bad}" if bad else None
    return check


def _check_record_file(path, point, shots, seed):
    def check(out, o):
        shots_arr = _load_record(path)
        ref = tb.sample_run(_params(point), shots, seed)
        if not _same(shots_arr, ref.shots):
            return f"{path.name} does not re-read to the in-process record"
        return o.check_arm_means(point, shots_arr)
    return check


def _check_estimate(path, point, refine, boot_seed, report_path=None):
    def check(out, o):
        shots_arr = _load_record(path)
        record = tb.ShotRecord(shots=shots_arr)
        ref = tb.estimate_params(record, refine=refine, n_bootstrap=200,
                                 bootstrap_seed=boot_seed)
        printed = {}
        for line in out[1].splitlines():
            key, _, value = line.partition(":")
            printed[key.strip()] = value.strip().split(" +- ")[0]
        if float(printed.get("mean counts", "nan")) != ref.M_hat:
            return f"printed M_hat {printed.get('mean counts')} vs in-process {ref.M_hat!r}"
        if float(printed.get("efficiency", "nan")) != ref.eta_hat:
            return f"printed eta_hat {printed.get('efficiency')} vs in-process {ref.eta_hat!r}"
        if report_path is not None:
            payload = json.loads(report_path.read_text())
            if payload["M_hat"] != ref.M_hat or payload["fidelity"] != ref.fidelity:
                return f"{report_path.name} differs from the in-process report"
        return o.check_estimate(point, len(shots_arr), ref.M_hat, ref.eta_hat,
                                ref.standard_errors, ref.fidelity, shots_arr)
    return check


def _check_fidelity(path_a, path_b):
    def check(out, o):
        value = float(out[1].strip())
        a, b = _load_table(path_a), _load_table(path_b)
        ref = o.bhattacharyya(a, b)
        if abs(value - ref) > 1e-12 or not 0.0 <= value <= 1.0:
            return f"fidelity {value!r} vs oracle {ref!r}"
        return None
    return check


def _check_reproduce(outdir: Path, figure: str):
    def check(out, o):
        listed = json.loads(out[1])["files"]
        manifest = json.loads((outdir / figure / "manifest.json").read_text())
        if [f["path"] for f in manifest["files"]] != listed:
            return "printed file list differs from manifest.json"
        point = manifest.get("params")
        point = (point["mu"], point["eta"], point["mean_counts"]) if point else None
        for name in listed:
            path = outdir / figure / name
            if not path.is_file():
                return f"{figure}/{name} is missing"
            bad = _check_figure_file(path, point, manifest["tol"], o)
            if bad:
                return f"{figure}/{name}: {bad}"
        return None
    return check


def _check_figure_file(path: Path, point, tol: float, o) -> Optional[str]:
    """Judge one file of a reproduce bundle by its name."""
    name = path.name
    if name == "joint.csv":
        probs = _load_table(path)
        mass = math.fsum(probs.ravel().tolist())
        return o.check_joint(probs, max(0.0, 1.0 - mass), tol, *point)
    if name == "shots.csv":
        return o.check_arm_means(point, _load_record(path))
    if name == "means_synthetic.csv":
        for kind, value, mean, n in _read_rows(path, "kind,value,mean,n_shots"):
            if int(n) < 20 or not math.isfinite(float(mean)):
                return f"{kind} {value}: mean {mean} over {n} shots"
        return None
    if name.endswith("_synthetic.csv"):
        probs = _load_table(path)
        total = math.fsum(probs.tolist())
        return None if abs(total - 1.0) < 1e-12 and probs.min() >= 0 else f"mass {total!r}"
    if name.endswith("_theory.csv") and name != "means_theory.csv":
        probs = _load_table(path)
        tail = max(0.0, 1.0 - math.fsum(probs.tolist()))
        stem = name[: -len("_theory.csv")]
        if stem == "unconditioned":
            return o.check_marginal(probs, tail, tol, point[0], point[2])
        kind, _, value = stem.partition("_")
        spec = ("exact", int(value[1:])) if kind == "exact" else (kind, int(value))
        return o.check_counts(probs, tail, tol, *point, spec)
    if name == "means_theory.csv":
        mu, eta, m = point
        for kind, value, mean in _read_rows(path, "kind,value,mean"):
            value, mean = int(value), float(mean)
            if kind in ("exact", "unconditioned"):
                ref = m if kind == "unconditioned" else float(o.cond_mean(mu, eta, m, value))
                bad = None if abs(mean - ref) <= o.REL_TOL * ref else f"{mean!r} vs {ref!r}"
            else:
                bad = o.check_mixture(mean, None, mu, eta, m, (kind, value))
            if bad:
                return f"{kind} {value}: {bad}"
        return None
    if name.endswith("_panel.csv"):
        header = "mu,eta,t,axis,value,delta,delta_R,S_state,S_ref"
        for mu, eta, t, axis, value, _, delta_r, s_state, s_ref in _read_rows(path, header):
            # every panel holds M_t at 4.0 except the one that sweeps it
            p = {"mu": float(mu), "eta": float(eta), "t": float(t), "M_t": 4.0}
            p[axis] = float(value)
            m = o.solve_mean(p["M_t"], p["t"], p["mu"], p["eta"])
            bad = o.check_entropy(float(s_state), float(s_ref), float(delta_r),
                                  p["mu"], p["eta"], m, int(p["t"]), tol)
            if bad:
                return f"{axis}={value} (mu={mu}, eta={eta}, t={t}): {bad}"
        return None
    return f"no oracle for {name}"


def _check_error_line(out, o):
    code, _, stderr = out
    lines = [line for line in stderr.splitlines() if line.strip()]
    if code != 1 or len(lines) != 1 or not lines[0].startswith("error:"):
        return f"exit {code} with stderr {lines[:2]}"
    return None


def cli_tasks(seed: int, scratch: Path) -> list[Task]:
    rng = random.Random(f"cli:{seed}")
    d = Path(scratch)
    s = _small_point(rng)
    # mu = 1 is left out: there the moment estimate falls below 1 in about
    # half the records and estimate_params then skips the fidelity
    si = (float(rng.choice((2, 3))),) + _small_point(rng)[1:]
    tasks: list[Task] = []

    def joint(point, name, fmt):
        path = d / name
        tasks.append(_cli(f"joint.{fmt}", ["joint", *_pargs(point), "--format", fmt,
                                           "--out", path],
                          _check_joint_file(path, point, 1e-12)))
        return path

    def marginal(point, name):
        path = d / name
        tasks.append(_cli("marginal", ["marginal", *_pargs(point), "--out", path],
                          _check_marginal_file(path, point)))
        return path

    def conditional(point, flag, value, name, verify=False):
        path = d / name
        spec = {"--t": ("exact", value), "--above": ("above", value),
                "--at-most": ("below", value + 1)}[flag]
        argv = ["conditional", *_pargs(point), flag, value, "--out", path]
        state = None
        if verify:
            state = d / f"state_{name}.json"
            argv += ["--verify", "--state-out", state]
        tasks.append(_cli(f"conditional{flag[1:]}", argv,
                          _check_counts_file(path, point, spec, state)))
        return path

    # First the ten calls whose files later calls read; the rest follow in a
    # seed-chosen order.
    a_csv = joint(A, "A_joint.csv", "csv")
    a_json = joint(A, "A_joint.json", "json")
    s_csv = joint(s, "s_joint.csv", "csv")
    b_marg = marginal(B, "B_marginal.csv")
    s_marg = marginal(s, "s_marginal.json")
    a_t = conditional(A, "--t", rng.randint(2, 25), "A_t.csv", verify=True)
    a_low = conditional(A, "--at-most", rng.randint(6, 9), "A_atmost.csv")
    records = []
    for point, name in ((B, "B_shots.csv"), (B, "B_shots.json"), (si, "si_shots.csv")):
        path, sample_seed = d / name, rng.randint(0, 10**6)
        tasks.append(_cli("sample", ["sample", *_pargs(point), "--shots", 10_000,
                                     "--seed", sample_seed, "--out", path],
                          _check_record_file(path, point, 10_000, sample_seed)))
        records.append((point, path))
    keep = len(tasks)
    # 10 more CSV tables at A form, with A_joint.csv, the block that holds
    # the median.  One format only: a JSON table at A costs about 2 ms less
    # than a CSV one, so a mixed block put the median where the two meet.
    for i in range(10):
        joint(A, f"A_joint{i}.csv", "csv")
    for point, name in ((A, "A_marginal.json"), (A, "A_marginal.csv"),
                        (B, "B_marginal.json"), (s, "s_marginal.csv")):
        marginal(point, name)
    conditional(s, "--t", rng.randint(1, 6), "s_t.json")
    conditional(s, "--t", rng.randint(1, 6), "s_t.csv")
    conditional(s, "--at-most", rng.randint(1, 4), "s_atmost.csv")
    conditional(B, "--t", rng.randint(2, 28), "B_t.csv", verify=True)
    conditional(A, "--above", rng.randint(6, 22), "A_above.csv")
    joint(B, "B_joint.csv", "csv")
    for point, hi in ((A, 22), (B, 25), (s, 6), (s, 6)):
        t = rng.randint(1, hi)
        tasks.append(_cli("nongauss", ["nongauss", *_pargs(point), "--t", t],
                          _check_nongauss(point, t)))
    for axis, values, fixed, name in (
        ("eta", [0.06, round(rng.uniform(0.07, 0.15), 4), 0.2],
         {"M_t": 4.0, "t": 5, "mu": 197.0}, "sweep_eta.csv"),
        ("mu", [2.0, round(rng.uniform(5.0, 20.0), 3), 50.0],
         {"M_t": 4.0, "t": 3, "eta": 0.1}, "sweep_mu.json"),
        ("t", [2.0, 4.0, float(rng.choice((6, 8, 10)))],
         {"M_t": 4.0, "eta": 0.056, "mu": 25.0}, "sweep_t.csv"),
    ):
        path = d / name
        flags = {"M_t": "--mt", "t": "--t", "eta": "--eta", "mu": "--mu"}
        argv = ["sweep", "--axis", {"M_t": "mt"}.get(axis, axis),
                "--values", ",".join(repr(v) for v in values), "--out", path]
        for key, value in fixed.items():
            argv += [flags[key], repr(value)]
        tasks.append(_cli("sweep", argv, _check_sweep_file(path, axis, values, fixed)))
    # 11 estimates (about 0.1 s) hold the tail percentile: 10 from the B
    # records, CSV and JSON, and one refined from the small-mu record
    for i in range(11):
        point, path = records[i % 2] if i < 10 else records[2]
        boot = rng.randint(0, 10**6)
        argv = ["estimate", "--input", path, "--bootstrap-seed", boot]
        report = None
        if i == 10:
            argv.append("--refine")
        if i < 3:
            report = d / f"report{i}.json"
            argv += ["--out", report]
        tasks.append(_cli("estimate", argv,
                          _check_estimate(path, point, i == 10, boot, report)))
    for pa, pb in ((a_csv, a_json), (s_csv, a_csv), (b_marg, s_marg), (a_t, a_low)):
        tasks.append(_cli("fidelity", ["fidelity", "--a", pa, "--b", pb],
                          _check_fidelity(pa, pb)))
    figs = d / "figures"
    for figure in ("fig2a", "fig2b", "fig3", "fig4", "fig5"):
        tasks.append(_cli(f"reproduce.{figure}",
                          ["reproduce", figure, "--outdir", figs, "--seed", 0],
                          _check_reproduce(figs, figure)))
    # Malformed inputs: each must end with one 'error:' line and exit code 1.
    header_only = d / "header_only.csv"
    header_only.write_text("s,t,p\n")
    bad_cell = d / "bad_cell.csv"
    bad_cell.write_text("s,t\n" + "".join(f"{i % 7},{i % 5}\n" for i in range(150)) + "3,2.5\n")
    for argv in (["fidelity", "--a", header_only, "--b", a_csv],
                 ["estimate", "--input", bad_cell],
                 ["estimate", "--input", d / "missing.csv"]):
        tasks.append(_cli(f"malformed.{argv[0]}", argv, _check_error_line, FAULT_CLI_INPUT))
    return _spread(rng, tasks, keep)


BUILDERS = {"prepare": prepare_tasks, "calibrate": calibrate_tasks, "cli": cli_tasks}
