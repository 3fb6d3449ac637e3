"""``repro.obs`` — tracing and metrics for every simulated mechanism.

The paper's argument is mechanism attribution: *which* part of each system
(map-task waves, DMS shuffles, global-lock waits, buffer-pool misses) moved
a number.  This package makes the reproduction's simulators show their
work: a :class:`Tracer` records spans in simulated time, a
:class:`MetricsRegistry` records mechanism counters, and the exporters
render Chrome trace-event JSON (``chrome://tracing`` / Perfetto) and ASCII
timelines.

Everything is opt-in and zero-overhead when off: hooks default to ``None``
and an untraced run executes the pre-instrumentation code path unchanged.
"""

from repro.obs.bottleneck import (
    Attribution,
    attribute_phases,
    attribute_window,
    lock_band_note,
    render_report,
)
from repro.obs.critpath import (
    CriticalPath,
    PathSegment,
    critical_path,
    pick_root,
    render_critical_path,
)
from repro.obs.decompose import (
    DecompositionReport,
    QueryDecomposition,
    decompose_query,
    fit_fixed_variable,
    render_decomposition,
)
from repro.obs.digest import QuantileDigest, WindowedDigest
from repro.obs.export import (
    ascii_timeline,
    chrome_counter_events,
    chrome_trace,
    chrome_trace_events,
    dumps_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.invariants import (
    link_violations,
    nesting_violations,
    overlap_violations,
    reconcile,
)
from repro.obs.live import (
    LiveTelemetry,
    build_live_report,
    render_live_report,
    validate_live_report,
)
from repro.obs.compare import (
    compare_files,
    compare_runs,
    host_delta,
    render_compare_report,
    validate_compare_report,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.prof import (
    ProfiledRun,
    build_prof_report,
    folded_stacks,
    host_meta,
    profiled_live,
    profiled_tracer,
    render_prof_report,
    speedscope_document,
    validate_prof_report,
    write_folded,
    write_speedscope,
)
from repro.obs.sampling import SamplingTracer, SpanSamplePolicy
from repro.obs.slo import Alert, SloMonitor, SloRule, parse_slo_rules
from repro.obs.timeseries import (
    NULL_SAMPLER,
    NullSampler,
    Series,
    UtilizationSampler,
    dumps_series,
    series_from_tracer,
    series_to_csv,
    sparkline_heatmap,
    write_series_csv,
    write_series_json,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer
from repro.obs.whatif import (
    MECHANISMS,
    WhatIfReport,
    dss_whatif_report,
    oltp_whatif_report,
    parse_whatif,
    render_whatif_report,
    replay_hive,
    replay_oltp,
    replay_pdw,
)

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "UtilizationSampler",
    "NullSampler",
    "NULL_SAMPLER",
    "Series",
    "series_from_tracer",
    "series_to_csv",
    "write_series_csv",
    "dumps_series",
    "write_series_json",
    "sparkline_heatmap",
    "Attribution",
    "attribute_window",
    "attribute_phases",
    "lock_band_note",
    "render_report",
    "chrome_trace",
    "chrome_trace_events",
    "chrome_counter_events",
    "dumps_chrome_trace",
    "write_chrome_trace",
    "write_metrics",
    "ascii_timeline",
    "nesting_violations",
    "overlap_violations",
    "link_violations",
    "reconcile",
    "CriticalPath",
    "PathSegment",
    "critical_path",
    "pick_root",
    "render_critical_path",
    "MECHANISMS",
    "WhatIfReport",
    "parse_whatif",
    "replay_hive",
    "replay_pdw",
    "replay_oltp",
    "dss_whatif_report",
    "oltp_whatif_report",
    "render_whatif_report",
    "QueryDecomposition",
    "DecompositionReport",
    "fit_fixed_variable",
    "decompose_query",
    "render_decomposition",
    "QuantileDigest",
    "WindowedDigest",
    "SamplingTracer",
    "SpanSamplePolicy",
    "SloRule",
    "SloMonitor",
    "Alert",
    "parse_slo_rules",
    "LiveTelemetry",
    "build_live_report",
    "validate_live_report",
    "render_live_report",
    "ProfiledRun",
    "host_meta",
    "profiled_live",
    "profiled_tracer",
    "build_prof_report",
    "validate_prof_report",
    "render_prof_report",
    "folded_stacks",
    "write_folded",
    "speedscope_document",
    "write_speedscope",
    "compare_runs",
    "compare_files",
    "host_delta",
    "validate_compare_report",
    "render_compare_report",
]
