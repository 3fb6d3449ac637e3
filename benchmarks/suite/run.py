"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload closed-ycsb --seed 11 \\
        --seconds 30 --trace 0

Each repetition runs in its own child process (``child.py``), one after the
other, until ``--seconds`` have been spent (at least three untraced
repetitions).  With ``--trace 0`` the last line of standard output is one
JSON object holding every end-to-end metric of ``BENCHMARK.json`` as the
median over the repetitions; with ``--trace 1`` the first repetition runs
with every layer wrapped and the JSON holds every per-layer metric.  Lines
before it give the quartiles, the host speed and the timed phase not
rescaled, the per-cell fingerprints and any failed check.

Times from untraced repetitions are rescaled to a fixed host speed by the
probe in ``hostspeed.py``, so that a neighbour slowing the shared host down
does not read as the program slowing down.

Correctness: every repetition checks its own outputs; all repetitions, traced
or not, must produce identical fingerprints; at seed 11 the fingerprints must
match ``golden.json`` (rewritten only by ``--update-golden``).  Any failure
makes ``correct`` false and the exit status 1.  Usage errors exit 2 with one
line on standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
GOLDEN = SUITE / "golden.json"
GOLDEN_SEED = 11
MIN_REPS = 3  # untraced repetitions per run, whatever --seconds says
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, str(SUITE))
from workloads import (  # noqa: E402  (imports no program code)
    CELLS, SIZES, STORE_OPS, STORE_SYSTEMS, WORKLOADS)


class UsageError(Exception):
    """Bad command-line input: reported on one line, exit status 2."""


class OneLineParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    parser = OneLineParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="default")
    parser.add_argument("--update-golden", action="store_true",
                        help=f"rewrite this workload's seed-{GOLDEN_SEED} "
                             "fingerprints instead of checking them")
    parser.add_argument("--record", type=Path,
                        help="append this run's summary as one JSON line")
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        raise UsageError(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        raise UsageError(f"--seconds must be > 0, got {args.seconds:g}")
    if args.update_golden and args.seed != GOLDEN_SEED:
        raise UsageError(f"goldens are kept for --seed {GOLDEN_SEED} only")
    return args


def spawn(args, traced: bool) -> dict:
    """One repetition in a fresh process; returns its record."""
    command = [
        sys.executable, str(SUITE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--trace", "1" if traced else "0",
    ]
    spawned = time.monotonic()
    proc = subprocess.run(command + ["--spawned", repr(spawned)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"repetition exited with status {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed_s"] = time.monotonic() - spawned
    return record


def repetitions(args) -> list[dict]:
    """Untraced (and, with --trace 1, one traced first) until time is up."""
    start = time.monotonic()
    records = [spawn(args, traced=True)] if args.trace else []
    while True:
        untraced = [r for r in records if not r["traced"]]
        if len(untraced) >= MIN_REPS:
            spent = time.monotonic() - start
            expected = statistics.median(r["elapsed_s"] for r in untraced)
            if spent + expected > args.seconds:
                return records
        records.append(spawn(args, traced=False))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(untraced: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [r["setup_s"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "ops_per_wall_s": [r["ops"] / r["wall_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def pooled_latency(untraced: list[dict]) -> dict[str, list[float]]:
    """Per-call latencies of every untraced repetition, ascending."""
    pooled = {}
    for r in untraced:
        for op, samples in r["latency"].items():
            pooled.setdefault(op, []).extend(samples)
    return {op: sorted(samples) for op, samples in sorted(pooled.items())}


def per_layer(workload: str, traced: dict, untraced: list[dict]) -> dict:
    values = {name: [v] for name, v in traced["layers"].items()}
    latency = pooled_latency(untraced)
    for system in STORE_SYSTEMS:
        store = "sqlstore" if system == "sql-cs" else "docstore"
        for op in STORE_OPS:
            samples = latency.get(f"{system}.{op}")
            for pct in (50, 99):
                values[f"{store}.{system}.{op}_p{pct}_us"] = [
                    percentile(samples, pct) * 1e6 if samples else 0.0]
    for name, cells in CELLS.items():
        for cell in cells:
            values[f"cell.{cell}.wall_s"] = [
                r["cells"].get(cell, 0.0) if name == workload else 0.0
                for r in untraced]
    # The traced repetition runs no probe, so compare plain times.
    work = statistics.median(r["work_s"] for r in untraced)
    values["bench.trace_overhead"] = [traced["wall_s"] / work]
    values["bench.unattributed_frac"] = [traced["unattributed_frac"]]
    return values


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def check_fingerprints(args, records: list[dict]) -> tuple[int, int, list[str]]:
    """Compare every repetition with the first, and the first with the
    golden (at the golden seed, unless the golden is being rewritten)."""
    attempted, failed, errors = 0, 0, []
    first = records[0]["fingerprints"]
    for record in records[1:]:
        for cell, value in first.items():
            attempted += 1
            if record["fingerprints"].get(cell) != value:
                failed += 1
                kind = "traced" if record["traced"] else "untraced"
                errors.append(f"{cell}: {kind} repetition differs from the first")
    if args.seed != GOLDEN_SEED or args.update_golden:
        return attempted, failed, errors
    expected = load_golden().get(args.size, {}).get(args.workload, {})
    for cell in sorted(set(first) | set(expected)):
        attempted += 1
        if first.get(cell) != expected.get(cell):
            failed += 1
            errors.append(f"{cell}: fingerprint {first.get(cell)} != golden "
                          f"{expected.get(cell)}")
    return attempted, failed, errors


def update_golden(args, fingerprints: dict) -> None:
    golden = load_golden()
    golden.setdefault(args.size, {})[args.workload] = dict(sorted(fingerprints.items()))
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"golden updated: {GOLDEN.name} [{args.size}][{args.workload}]")


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 1
    records = repetitions(args)
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]

    attempted = sum(r["checks"] for r in records)
    failed = sum(r["failed"] for r in records)
    errors = [e for r in records for e in r["errors"]]
    more = check_fingerprints(args, records)
    attempted, failed = attempted + more[0], failed + more[1]
    errors += more[2]
    if args.update_golden and not failed:
        update_golden(args, records[0]["fingerprints"])

    if args.trace:
        values = per_layer(args.workload, traced[0], untraced)
        declared = spec["per_layer"]
    else:
        values = end_to_end(untraced)
        declared = spec["end_to_end"]
    metrics, rows = {}, []
    for entry in declared:
        name = entry["name"]
        q1, median, q3 = quartiles(values[name])
        metrics[name] = {"value": median, "unit": entry["unit"]}
        rows.append(f"  {name:<44} {median:>14.6g} {entry['unit']:<8} "
                    f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(values[name])}")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced  "
          f"ops per repetition {untraced[0]['ops']}")
    print("\n".join(rows))
    speed = quartiles([r["host_speed"] for r in untraced])
    work = quartiles([r["work_s"] for r in untraced])
    print(f"host speed {speed[1]:.4g} (q1 {speed[0]:.4g}  q3 {speed[2]:.4g}); "
          f"timed phase not rescaled {work[1]:.4g} s "
          f"(q1 {work[0]:.4g}  q3 {work[2]:.4g})")
    for cell, value in sorted(records[0]["fingerprints"].items()):
        print(f"fingerprint {cell} {value}")
    for op, samples in pooled_latency(untraced).items():
        print(f"latency samples {op} {len(samples)}")
    if traced:
        top = ", ".join(f"{k} {v:.3f}s" for k, v in traced[0]["top_self"])
        print(f"top self time: {top}")
        print(f"trace written: {traced[0]['trace_file']}")
    for error in errors:
        print(f"FAILED {error}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.record:
        summary = {"workload": args.workload, "seed": args.seed,
                   "size": args.size, "trace": args.trace, **result,
                   "fingerprints": records[0]["fingerprints"]}
        with args.record.open("a") as handle:
            handle.write(json.dumps(summary) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except (OSError, RuntimeError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
