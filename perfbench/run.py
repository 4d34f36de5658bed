#!/usr/bin/env python3
"""Benchmark of the twinbeam package: three closed-loop workloads.

    python3 perfbench/run.py --workload {prepare,calibrate,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` as the
test suite does.  One interpreter imports the package and forks one pass
after another (``worker.py``); each pass runs the whole task list once, one
call after another, from the state right after the import.  A run makes at
least two passes, and more while another fits in ``--seconds``; set-up
probes in fresh interpreters follow.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
workload's task list once untraced and once traced and prints the per-layer
metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("prepare", "calibrate", "cli")
MIN_PASSES = 2
SETUP_PROBES = 3
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up included
IMPORT_PROBE = "import twinbeam, time, sys; sys.stdout.write(repr(time.monotonic()))"
TRACED_IMPORTS = {"import.twinbeam_s": "twinbeam", "import.scipy_stats_s": "scipy.stats",
                  "import.scipy_optimize_s": "scipy.optimize",
                  "import.scipy_signal_s": "scipy.signal"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: the sampler's two workers are the only parallelism
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TWINBEAM_OUTDIR", None)
    return env


class Budget:
    def __init__(self) -> None:
        self.start = time.monotonic()

    def left(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise SystemExit("run.py: out of time before the run completed")
        return left


def run_child(argv, budget: Budget, **kwargs) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=budget.left(), **kwargs)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"run.py: {argv[1:3]} exited with {proc.returncode}")
    return proc


def setup_probe(workload: str, budget: Budget) -> float:
    """One fresh interpreter: process start until ``import twinbeam`` returns,
    or until ``twinbeam --help`` exits for the cli workload."""
    start = time.monotonic()
    if workload == "cli":
        run_child([sys.executable, "-m", "twinbeam", "--help"], budget)
        return time.monotonic() - start
    return float(run_child([sys.executable, "-c", IMPORT_PROBE], budget).stdout) - start


def import_times(budget: Budget) -> dict:
    """Import times from ``python -X importtime``, medians over interpreters.

    A module's time is the cumulative time of its own line, or, when it is
    loaded lazily and has no line of its own (``from scipy import stats``),
    the summed cumulative times of its outermost submodules' lines."""
    samples = {key: [] for key in TRACED_IMPORTS}
    for _ in range(IMPORTTIME_SAMPLES):
        err = run_child([sys.executable, "-X", "importtime", "-c", "import twinbeam"],
                        budget).stderr
        lines = []  # (depth, module, cumulative seconds); children precede parents
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                lines.append((len(name) - len(name.lstrip()), name.strip(),
                              int(parts[1]) * 1e-6))
        for key, module in TRACED_IMPORTS.items():
            samples[key].append(_module_time(lines, module))
    return {key: statistics.median(v) for key, v in samples.items()}


def _module_time(lines, module: str) -> float:
    def ours(name: str) -> bool:
        return name == module or name.startswith(module + ".")

    total = 0.0
    for i, (depth, name, cumulative) in enumerate(lines):
        if not ours(name):
            continue
        enclosed = False
        for later_depth, later_name, _ in lines[i + 1:]:
            if later_depth < depth:
                depth = later_depth
                if ours(later_name):
                    enclosed = True
                    break
        if not enclosed:
            total += cumulative
    return total


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_passes(workload: str, seed: int, mode: str, deadline: float, work: Path,
               budget: Budget) -> list[dict]:
    """Passes forked from one fresh interpreter (``worker.py``).  The worker and
    every pass it forks share one process group, which is killed and waited
    for on any way out."""
    out_dir = work / f"{workload}-{mode}"
    out_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
            str(work / workload), str(out_dir), mode, repr(deadline), str(MIN_PASSES)]
    proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=budget.left())
    except BaseException:
        kill_group(proc.pid)
        proc.communicate()
        raise
    if proc.returncode != 0:
        kill_group(proc.pid)
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"run.py: {workload} passes exited with {proc.returncode}")
    paths = sorted(out_dir.glob("pass-*.json"), key=lambda p: int(p.stem.split("-")[1]))
    return [json.loads(p.read_text()) for p in paths]


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, position q/100 * (n-1)."""
    ordered = sorted(values)
    pos = q / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten tasks beyond it."""
    q = int(100.0 * (1.0 - 10.0 / n))
    while n - 1 - int(q / 100.0 * (n - 1)) < 10:
        q -= 1
    return q


def counts(results: list[dict]) -> tuple[int, int]:
    """(attempted, failed) operations."""
    return sum(len(r["latencies"]) for r in results), sum(len(r["failures"]) for r in results)


def all_correct(results: list[dict]) -> bool:
    """True when every failure is one of the known faults; reports the rest."""
    unexpected = [f for r in results for f in r["failures"] if not f["known_fault"]]
    for f in unexpected:
        sys.stderr.write(f"unexpected failure: {f['kind']} #{f['index']}: {f['reason']}\n")
    return not unexpected


def end_to_end(workload: str, seed: int, seconds: float, work: Path, budget: Budget):
    """Passes for ``seconds`` (at least MIN_PASSES), then SETUP_PROBES set-up probes.

    On a shared 2-vCPU VM the speed of plain Python code drifts by up to
    1.5x, in spells of seconds to tens of seconds.  So every timing is a
    median over samples spread across the run: each task's latency is its
    median over the passes, wall_s is the sum of those medians over the
    task list, the percentiles are taken across tasks, and setup_s is the
    median over the probes."""
    passes = run_passes(workload, seed, "plain", budget.start + seconds, work, budget)
    probes = [setup_probe(workload, budget) for _ in range(SETUP_PROBES)]
    per_task = [statistics.median(v) for v in zip(*(r["latencies"] for r in passes))]
    q = tail_percentile(len(per_task))
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "wall_s": (math.fsum(per_task), "s"),
        "task_p50_s": (percentile(per_task, 50), "s"),
        "task_tail_s": (percentile(per_task, q), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in passes), "MiB"),
    }
    walls = ", ".join(f"{r['wall_s']:.3f}" for r in passes)
    print(f"{workload}: seed {seed}, {len(passes)} passes of {len(per_task)} tasks "
          f"(pass walls {walls} s), tail percentile p{q}")
    return passes, metrics


def traced(workload: str, seed: int, work: Path, budget: Budget):
    plain, layered = [], []
    for w in WORKLOADS:
        untraced, traced_pass = run_passes(w, seed, "trace", 0.0, work, budget)
        plain.append(untraced)
        layered.append(traced_pass)
    metrics = {key: (value, "s") for key, value in import_times(budget).items()}
    sums: dict[str, float] = {}
    for r in layered:
        for key, value in r["trace"].items():
            sums[key] = sums.get(key, 0.0) + value
    units = {"cells": "count", "members": "count", "bootstrap_resamples": "count",
             "files": "count", "bytes_written": "bytes", "bytes_read": "bytes"}
    skip = {"conditional.states_built", "conditional.means_requested", "sampling.shots",
            "sampling.sample_run_s", "trace.spans"}
    for key, value in sums.items():
        if key not in skip:
            metrics[key] = (value, units.get(key.rsplit(".", 1)[-1], "s"))
    means = sums["conditional.means_requested"]
    metrics["conditional.states_per_mean"] = (
        sums["conditional.states_built"] / means if means else 0.0, "ratio")
    run_s = sums["sampling.sample_run_s"]
    metrics["sampling.shots_per_s"] = (sums["sampling.shots"] / run_s if run_s else 0.0, "1/s")
    metrics["trace.overhead_s"] = (sums["trace.wall_s"] - sum(r["wall_s"] for r in plain), "s")
    print(f"traced run: {', '.join(WORKLOADS)}; {int(sums['trace.spans'])} spans; "
          f"attempted and failed are the traced {workload} pass's")
    # attempted/failed describe the named workload, so its failure share is
    # the same in traced and untraced runs
    named = layered[WORKLOADS.index(workload)]
    return plain + layered, named, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "twinbeam" / "__init__.py").is_file():
        print(f"run.py: no twinbeam package under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    budget = Budget()
    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            every, named, metrics = traced(args.workload, args.seed, work, budget)
            correct, (attempted, failed) = all_correct(every), counts([named])
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds, work, budget)
            correct, (attempted, failed) = all_correct(passes), counts(passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  attempted {attempted}, failed {failed}, correct {correct} "
          "(failures outside the known faults make correct false)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
