"""Passes of one workload, each forked from one interpreter that has just
imported the package.

Run by ``run.py``; writes one JSON result file per pass and prints nothing.
This process imports ``twinbeam`` and the benchmark's task builders, and
then forks one child per pass.  Every child starts from the same state, the
one right after ``import twinbeam``, so a cost the package moves from its
import into a first call lands in every pass's timed loop, while the
interpreter start and the import are paid once per run.  The oracles (and
scipy.stats through them) load in a child only after its loop, when the
checks run.

Outputs are deterministic for a seed, and every pass writes to the same
scratch path.  The first pass is checked in full; a later pass whose output
digests (the returned objects, the printed text and every file written) all
equal the first pass's takes over its verdicts, and any difference has that
pass checked in full too.

    python3 perfbench/worker.py WORKLOAD SEED SCRATCH_DIR OUT_DIR MODE DEADLINE MIN_PASSES

MODE ``plain`` makes at least MIN_PASSES passes, and more while another
fits before DEADLINE (a ``time.monotonic()`` value).  MODE ``trace`` makes
exactly two, one untraced and one traced.  Pass K's result goes to
OUT_DIR/pass-K.json.
"""

import sys
import time

import twinbeam  # noqa: F401  (the set-up every pass starts after)

import hashlib
import json
import os
import pickle
import resource
import shutil
import statistics
import traceback
from pathlib import Path

import workloads


def digests(outputs, scratch: Path) -> list[str]:
    files = hashlib.sha256()
    for path in sorted(p for p in scratch.rglob("*") if p.is_file()):
        files.update(str(path.relative_to(scratch)).encode() + b"\0" + path.read_bytes())
    out = []
    for value in outputs:
        if isinstance(value, Exception):
            blob = f"{type(value).__name__}: {value}".encode()
        else:
            blob = pickle.dumps(value, protocol=4)
        h = hashlib.sha256(blob)
        h.update(files.digest())
        out.append(h.hexdigest())
    return out


def judge(tasks, outputs) -> list[dict]:
    import oracles

    failures = []
    for i, (task, out) in enumerate(zip(tasks, outputs)):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {str(out)[:160]}"
        else:
            try:
                reason = task.check(out, oracles)
            except Exception as exc:  # an unreadable output fails its check
                reason = f"check raised {type(exc).__name__}: {str(exc)[:160]}"
        if reason is not None:
            failures.append({"index": i, "kind": task.kind, "reason": reason,
                             "known_fault": task.fault})
    return failures


def one_pass(workload: str, seed: int, scratch: Path, traced: bool,
             reference: dict | None) -> dict:
    """The body of a forked child: build the task list, run it, check it."""
    tasks = workloads.BUILDERS[workload](seed, scratch)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    outputs, latencies = [], []
    clock = time.perf_counter
    loop_start = clock()
    for task in tasks:
        start = clock()
        try:
            out = task.fn()
        except Exception as exc:  # a failed operation is a result to count
            out = exc
        latencies.append(clock() - start)
        outputs.append(out)
    wall = clock() - loop_start
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest = digests(outputs, scratch)
    if reference is not None and reference["digests"] == digest:
        failures = reference["failures"]
    else:
        failures = judge(tasks, outputs)
    result = {
        "workload": workload,
        "kinds": [t.kind for t in tasks],
        "latencies": latencies,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "digests": digest,
    }
    if tracer is not None:
        result["trace"] = tracer.summary(wall)
    return result


def fork_pass(workload: str, seed: int, scratch: Path, path: Path, traced: bool,
              reference: dict | None) -> dict:
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            result = one_pass(workload, seed, scratch, traced, reference)
            path.write_text(json.dumps(result))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"worker.py: {workload} pass {path.name} "
                         f"exited with {os.waitstatus_to_exitcode(status)}")
    return json.loads(path.read_text())


def main(argv: list[str]) -> None:
    workload, seed, scratch, out_dir, mode, deadline, min_passes = argv
    seed, deadline, min_passes = int(seed), float(deadline), int(min_passes)
    scratch, out_dir = Path(scratch), Path(out_dir)
    plan = [False, True] if mode == "trace" else None
    reference = None
    durations: list[float] = []
    k = 0
    while True:
        if plan is not None:
            if k == len(plan):
                break
            traced = plan[k]
        else:
            # start another pass only if one of the usual length still fits
            if k >= min_passes and time.monotonic() + statistics.median(durations) > deadline:
                break
            traced = False
        began = time.monotonic()
        result = fork_pass(workload, seed, scratch, out_dir / f"pass-{k}.json", traced,
                           reference)
        if k > 0 or plan is not None:  # the first pass's length includes its checks
            durations.append(time.monotonic() - began)
        reference = reference or result
        k += 1
    shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
