"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 benchmarks/suite/compare.py A.jsonl B.jsonl

Each file holds the lines ``run.py --record FILE`` appended, one per
untraced run.  For every (end-to-end metric, workload) pair the comparator
takes each side's median over its runs and marks the pair

* ``unresolved`` when either side's run-to-run spread (interquartile range
  over median) is wider than the metric's bound, unless every run of B
  reads better than every run of A, or when a side has fewer than two runs;
* ``worse`` when B's median is worse than A's by more than the bound (a
  share of A's median);
* ``ok`` otherwise.

It prints one row per workload, then any failed check and any fingerprint
that differs between the sets for the same workload, seed and size.  Exit
status: 0 when every pair is ``ok`` and nothing failed, 1 otherwise, 2 on
bad input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path: Path) -> list[dict]:
    runs = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    return [r for r in runs if r.get("trace") == 0]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[str, float]:
    """(``ok``/``worse``/``unresolved``, B's change as a share of A's median,
    positive when worse)."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved", 0.0
    ma, mb = statistics.median(a), statistics.median(b)
    lower = metric["better"] == "lower"
    change = (mb - ma) / ma if lower else (ma - mb) / ma
    b_always_better = max(b) < min(a) if lower else min(b) > max(a)
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound and not b_always_better:
        return "unresolved", change
    if change > bound:
        return "worse", change
    return "ok", change


def compare(a_runs: list[dict], b_runs: list[dict], spec: dict) -> int:
    status = 0
    workloads = [w["name"] for w in spec["workloads"]
                 if any(r["workload"] == w["name"] for r in a_runs + b_runs)]
    for workload in workloads:
        a = [r for r in a_runs if r["workload"] == workload]
        b = [r for r in b_runs if r["workload"] == workload]
        cells = []
        for metric in spec["end_to_end"]:
            name = metric["name"]
            mark, change = verdict(
                metric, [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b])
            status |= mark != "ok"
            cells.append(f"{name} {mark} {change:+.1%}")
        print(f"{workload:<18} runs {len(a)}/{len(b)}  " + "  ".join(cells))
    for side, runs in (("A", a_runs), ("B", b_runs)):
        for r in runs:
            if r["failed"] or not r["correct"]:
                status = 1
                print(f"FAILED {side} {r['workload']} seed {r['seed']}: "
                      f"{r['failed']} of {r['attempted']} checks failed")
    first = {(r["workload"], r["seed"], r["size"]): r["fingerprints"]
             for r in a_runs}
    for r in b_runs:
        expected = first.get((r["workload"], r["seed"], r["size"]))
        if expected is not None and expected != r["fingerprints"]:
            status = 1
            cells = sorted(c for c in set(expected) | set(r["fingerprints"])
                           if expected.get(c) != r["fingerprints"].get(c))
            print(f"FINGERPRINT {r['workload']} seed {r['seed']}: "
                  f"{', '.join(cells)} differ")
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("error: usage: compare.py A.jsonl B.jsonl", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        a_runs, b_runs = (load(Path(p)) for p in argv)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return compare(a_runs, b_runs, spec)


if __name__ == "__main__":
    sys.exit(main())
