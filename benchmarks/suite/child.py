"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition and reads the single JSON
line it prints.  Set-up time runs from the moment ``run.py`` spawned the
process (``--spawned``, a ``time.monotonic`` reading, which is system-wide on
Linux) to the start of the timed phase, so it includes interpreter start-up,
imports, study construction and input generation.  Peak RSS is read at the
end of the timed phase, before the checks build their shadow state.

An untraced repetition runs the host-speed probe (``hostspeed.py``) from its
first line to the end of the timed phase and reports set-up, timed-phase and
cell times rescaled to the probe's nominal host speed, with the probe's own
time taken out.  ``work_s`` is the timed phase with the probe's time taken
out but not rescaled, and ``host_speed`` is the probe's mean speed during
it.

With ``--trace 1`` the layers are wrapped (see ``layers.py``) after set-up,
no probe runs, the times are plain wall times, and the run writes
``out/trace-<workload>.json`` in Chrome trace-event form.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from hostspeed import HostSpeedProbe

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
OUT = SUITE / "out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args()

    probe = None if args.trace else HostSpeedProbe()
    if probe:
        probe.start()
    probed_from = time.perf_counter()
    clock = probe.work_clock if probe else time.perf_counter

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, clock)
    tracer = None
    if args.trace:
        from layers import LayerTracer, install

        tracer = LayerTracer()
        install(tracer)

    outputs, cells = {}, {}
    setup_s = time.monotonic() - args.spawned
    start = time.perf_counter()
    for cell, run_cell in workload.cells():
        with tracer.span(cell) if tracer else nullcontext():
            if tracer:
                # Per-system attribution of scan counters: a functional
                # cell is named "<system>.<phase>".
                tracer.context = cell.partition(".")[0]
            cell_start = clock()
            outputs[cell] = run_cell()
            cells[cell] = clock() - cell_start
    end = time.perf_counter()
    if probe:
        probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_s = work_s = end - start
    speed = None
    if probe:
        setup_s, _ = probe.rescale(probed_from, start, setup_s)
        wall_s, speed = probe.rescale(start, end, wall_s)
        work_s = wall_s / speed
        cells = {cell: s * speed for cell, s in cells.items()}

    checked = workload.check(outputs)
    record = {
        "traced": bool(tracer),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "work_s": work_s,
        "host_speed": speed,
        "peak_rss_mb": peak_rss_mb,
        "ops": checked.ops,
        "cells": cells,
        "checks": checked.checks,
        "failed": checked.failed,
        "errors": checked.errors,
        "fingerprints": checked.fingerprints,
        "latency": checked.latency,
    }
    if tracer:
        from layers import layer_metrics

        record["layers"] = layer_metrics(tracer, checked.user_bytes)
        record["unattributed_frac"] = 1.0 - tracer.attributed_s / wall_s
        record["top_self"] = tracer.top_self(3)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}.json"
        meta = {"workload": args.workload, "seed": args.seed,
                "size": args.size, "wall_s": wall_s}
        path.write_text(json.dumps(tracer.chrome_trace(meta)) + "\n")
        record["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
