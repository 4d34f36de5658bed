#!/usr/bin/env python3
"""Compare sets of benchmark results metric by metric against the bounds.

    python3 perfbench/compare.py SET.jsonl            # spread of one set
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl # NEW against BASE

Files hold one result object per line, as ``series.py`` writes them; lines
are grouped by workload.  For each end-to-end metric of BENCHMARK.json the
report gives the median and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median.  With two sets it adds the change of the median, and flags a metric
whose median got worse by more than its bound, a spread wider than the
bound (unresolved unless every NEW run beats every BASE run), and any
difference in the share of failed operations.  Exit code 1 when anything is
flagged.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict:
    groups = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            groups[result.get("workload", "?")].append(result)
    return groups


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summary(runs: list, name: str):
    values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    if len(values) < 2:
        return None
    return statistics.median(values), spread(values), values


def failed_share(runs: list) -> tuple:
    return sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)


def main(argv: list) -> int:
    sets = [load(p) for p in argv]
    flagged = False
    for workload in sorted(sets[-1]):
        print(f"== {workload}")
        shares = [failed_share(s.get(workload, [])) for s in sets]
        for (failed, attempted), label in zip(shares, ("base", "new")[-len(sets):]):
            print(f"  failed {failed}/{attempted} ({label})")
        if len(sets) == 2 and shares[0][0] * shares[1][1] != shares[1][0] * shares[0][1]:
            print("  FLAG failed share differs")
            flagged = True
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            new = summary(sets[-1][workload], name)
            if new is None:
                continue
            line = f"  {name:12s} median {new[0]:.5g} {metric['unit']:4s} spread {new[1]:.3f}"
            notes = []
            if name != "setup_s" and new[1] > bound:
                notes.append(f"spread above bound {bound}")
            if len(sets) == 2:
                base = summary(sets[0].get(workload, []), name)
                if base is not None:
                    sign = 1 if metric["better"] == "lower" else -1
                    change = (new[0] - base[0]) / base[0]
                    line += f" base {base[0]:.5g} change {change:+.3%}"
                    if sign * change > bound:
                        notes.append(f"worse by more than bound {bound}")
                    elif base[1] > bound and name != "setup_s":
                        wins = all(sign * (n - b) < 0 for n in new[2] for b in base[2])
                        notes.append("better in every pair" if wins else "unresolved")
            flagged |= any(n.startswith(("spread", "worse", "unresolved")) for n in notes)
            print(line + ("  FLAG " + "; ".join(notes) if notes else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
