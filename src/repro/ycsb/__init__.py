"""YCSB benchmark substrate: generators, workloads, functional client."""

from repro.ycsb.arrivals import PoissonArrivals
from repro.ycsb.client import OpStats, YcsbClient
from repro.ycsb.eventsim import (
    EventSimResult,
    OpenLoopResult,
    SimStation,
    simulate_closed_loop,
    simulate_open_loop,
)
from repro.ycsb.frontier import (
    KneeResult,
    find_knee,
    frontier_report,
    render_frontier_report,
    validate_frontier_report,
)
from repro.ycsb.trace import TraceOp, generate_trace, read_trace, replay, write_trace
from repro.ycsb.generators import (
    CounterGenerator,
    HotspotGenerator,
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
)
from repro.ycsb.workloads import (
    FIELD_COUNT,
    FIELD_LENGTH,
    KEY_LENGTH,
    MAX_SCAN_LENGTH,
    RECORD_BYTES,
    WORKLOADS,
    WorkloadSpec,
    make_field_value,
    make_key,
    make_record,
)

__all__ = [
    "OpStats",
    "YcsbClient",
    "EventSimResult",
    "OpenLoopResult",
    "PoissonArrivals",
    "SimStation",
    "simulate_closed_loop",
    "simulate_open_loop",
    "KneeResult",
    "find_knee",
    "frontier_report",
    "render_frontier_report",
    "validate_frontier_report",
    "TraceOp",
    "generate_trace",
    "read_trace",
    "replay",
    "write_trace",
    "CounterGenerator",
    "HotspotGenerator",
    "LatestGenerator",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "ZipfianGenerator",
    "FIELD_COUNT",
    "FIELD_LENGTH",
    "KEY_LENGTH",
    "MAX_SCAN_LENGTH",
    "RECORD_BYTES",
    "WORKLOADS",
    "WorkloadSpec",
    "make_field_value",
    "make_key",
    "make_record",
]
