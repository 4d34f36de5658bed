#!/usr/bin/env python3
"""Run the benchmark over a range of seeds and keep each run's result line.

    python3 perfbench/series.py --workload prepare --seeds 1-10 \
        --out perfbench/results/prepare.jsonl [--seconds 25]

Each line of the output file is the JSON object ``run.py`` printed last,
plus the workload and seed.  Compare two such files with ``compare.py``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    args = parser.parse_args()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(workload=args.workload, seed=seed)
        with args.out.open("a") as fh:
            fh.write(json.dumps(result) + "\n")
        values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']}, {values}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
