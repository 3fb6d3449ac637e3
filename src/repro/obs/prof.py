"""``repro-prof/1``: host-side self-profiling — where does *wall* time go?

Every other report in this repository attributes *simulated* time; this
module turns the same lens on the simulator itself.  The paper's
discipline (per-mechanism attribution, not a single opaque number) applied
to the host: a benchmark regression should arrive with "71% digest
updates, 22% dispatch waits", not just a slower wall clock.

Two instruments, one :class:`ProfiledRun` object:

* a **statistical wall-clock sampler** — a daemon thread snapshots the
  profiled thread's stack every ``sample_interval`` seconds via
  :func:`sys._current_frames`, folding the frames into flamegraph-ready
  stacks.  Low overhead (no per-call hooks, unlike ``cProfile``), and it
  sees *everything*, including code that took no explicit counter.
* **exact per-subsystem counters** — producers bracket their hot
  sections (``eventsim.loop``, ``span.construct``, ``digest.update``,
  ``routing``, ``report.render``, ``hive.query``, ``pdw.query``) with
  :meth:`ProfiledRun.enter`/:meth:`~ProfiledRun.exit` or
  :meth:`~ProfiledRun.section`.  Nested sections are accounted
  self-vs-total like a real profiler: a digest update inside the event
  loop is charged to ``digest.update`` and subtracted from
  ``eventsim.loop``'s self time.

Zero-cost-off contract (the ``live=`` contract of the telemetry layer):
every producer hook takes ``prof=None`` and guards with one truthiness
check.  A run without ``--profile`` constructs nothing from this module
and executes the pre-instrumentation code path unchanged — and because
the instruments only *read* wall clocks, a profiled run's simulation
outputs (results, traces, live reports) are byte-identical to an
unprofiled run's.

The report is the house shape (``build``/``validate``/``render``, written
through :mod:`repro.common.envelope`) plus two flamegraph exporters:
collapsed ("folded") stacks for ``flamegraph.pl`` and speedscope JSON for
https://www.speedscope.app.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading
import time

from repro.common.envelope import check_envelope, check_fields, write_text
from repro.common.errors import ConfigurationError

SCHEMA = "repro-prof/1"

#: Default sampling period: 2 ms keeps sampler overhead well under the 10%
#: budget while a ~1 s section still collects hundreds of samples.
DEFAULT_SAMPLE_INTERVAL = 0.002

#: Stack frames deeper than this are truncated (recursion guard).
MAX_STACK_DEPTH = 128

#: The leaf proxies (`span.construct`, `digest.update`) sit on >100k-call
#: paths where even two clock reads per call cost ~20% wall.  They count
#: every call exactly but *time* a systematic 1-in-`_TIMING_STRIDE` sample,
#: scaling the measured elapsed back up.  Section-level counters
#: (`eventsim.loop`, `hive.query`, ...) fire once per run/query and stay
#: fully timed.
_TIMING_STRIDE = 64
_TIMING_MASK = _TIMING_STRIDE - 1


def host_meta() -> dict:
    """The host fingerprint attached to prof reports.

    Wall-clock numbers are only comparable between identical fingerprints;
    the compare layer annotates (rather than fails) cross-host diffs.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


def _short_path(path: str) -> str:
    """Trim a source path to its repository-relevant tail."""
    parts = path.replace("\\", "/").split("/")
    for anchor in ("repro", "benchmarks", "tests"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return "/".join(parts[-2:]) if len(parts) > 1 else path


class _StackSampler(threading.Thread):
    """Daemon thread that snapshots one thread's stack at a fixed period."""

    def __init__(self, prof: "ProfiledRun", target_ident: int,
                 interval: float):
        super().__init__(name="repro-prof-sampler", daemon=True)
        self._prof = prof
        self._target = target_ident
        self._interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        samples = self._prof.samples
        while not self._halt.wait(self._interval):
            frame = sys._current_frames().get(self._target)
            if frame is None:
                continue
            stack = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                code = frame.f_code
                stack.append((code.co_name, code.co_filename,
                              code.co_firstlineno))
                frame = frame.f_back
                depth += 1
            frame = None  # drop the reference promptly
            key = tuple(reversed(stack))  # root first, leaf last
            samples[key] = samples.get(key, 0) + 1
            self._prof.sample_count += 1

    def halt(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class ProfiledRun:
    """The self-profiler: stack sampler + exact subsystem counters.

    Usage::

        with ProfiledRun() as prof:
            simulate_closed_loop(stations, mix, clients=8, prof=prof)
        report = build_prof_report(prof, {"kind": "demo"})

    ``start()``/``stop()`` may be called explicitly instead (they return
    ``self``); wall time accumulates across start/stop pairs.  Counters
    keep working after ``stop()`` — only the sampler and the wall clock
    are bounded by the start/stop window.
    """

    def __init__(self, sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
                 sample: bool = True, clock=time.perf_counter):
        if sample_interval <= 0.0:
            raise ConfigurationError(
                f"sample interval must be > 0, got {sample_interval}")
        self.sample_interval = sample_interval
        self._sample_enabled = sample
        self._clock = clock
        # name -> [calls, total_s, self_s]
        self.counters: dict[str, list] = {}
        # folded stack (root-first frame tuples) -> sample count
        self.samples: dict[tuple, int] = {}
        self.sample_count = 0
        self.events = 0
        self.ops = 0
        self.virtual_s = 0.0
        self.wall_s = 0.0
        self._stack: list = []  # [name, start, child_time]
        self._sampler: _StackSampler | None = None
        self._t0: float | None = None

    def __bool__(self) -> bool:
        return True

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ProfiledRun":
        if self._t0 is not None:
            raise ConfigurationError("profiler already started")
        self._t0 = self._clock()
        if self._sample_enabled:
            self._sampler = _StackSampler(
                self, threading.get_ident(), self.sample_interval)
            self._sampler.start()
        return self

    def stop(self) -> "ProfiledRun":
        if self._sampler is not None:
            self._sampler.halt()
            self._sampler = None
        if self._t0 is not None:
            self.wall_s += self._clock() - self._t0
            self._t0 = None
        return self

    def __enter__(self) -> "ProfiledRun":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- exact counters (hot path) -------------------------------------------------

    def enter(self, name: str) -> None:
        """Open a subsystem section; must be paired with :meth:`exit`."""
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        """Close the innermost section, charging self-vs-total time."""
        name, start, child = self._stack.pop()
        elapsed = self._clock() - start
        entry = self.counters.get(name)
        if entry is None:
            entry = self.counters[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += elapsed
        entry[2] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def section(self, name: str):
        """Context-manager form of :meth:`enter`/:meth:`exit`."""
        return _Section(self, name)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Account pre-measured flat time (no nesting arithmetic)."""
        entry = self.counters.get(name)
        if entry is None:
            entry = self.counters[name] = [0, 0.0, 0.0]
        entry[0] += calls
        entry[1] += seconds
        entry[2] += seconds

    def count_events(self, n: int) -> None:
        """Record ``n`` dispatched simulator events (throughput numerator)."""
        self.events += n

    def note_ops(self, n: int) -> None:
        """Record ``n`` completed workload operations."""
        self.ops += n

    def note_virtual_time(self, t: float) -> None:
        """Record the furthest virtual-clock time the profiled run reached."""
        if t > self.virtual_s:
            self.virtual_s = t

    # -- aggregation ---------------------------------------------------------------

    def hot_functions(self, top: int = 10) -> list[dict]:
        """Top functions by *self* samples (leaf frame of each stack)."""
        self_counts: dict[tuple, int] = {}
        total_counts: dict[tuple, int] = {}
        total = 0
        for stack, n in self.samples.items():
            if not stack:
                continue
            total += n
            leaf = stack[-1]
            self_counts[leaf] = self_counts.get(leaf, 0) + n
            for frame in set(stack):
                total_counts[frame] = total_counts.get(frame, 0) + n
        rows = []
        for frame, n in sorted(self_counts.items(),
                               key=lambda kv: (-kv[1], kv[0])):
            name, path, line = frame
            rows.append({
                "func": name,
                "file": _short_path(path),
                "line": line,
                "self_samples": n,
                "total_samples": total_counts.get(frame, n),
                "self_pct": round(100.0 * n / total, 1) if total else 0.0,
            })
        return rows[:top]

    def subsystem_table(self) -> dict:
        """``{name: {calls, total_s, self_s}}`` for every counted section.

        Entries with zero calls are dropped: the flat-path proxies create
        their counter eagerly, so an unused tracer would otherwise leave an
        all-zero row behind.
        """
        return {
            name: {"calls": calls, "total_s": round(total, 6),
                   "self_s": round(self_s, 6)}
            for name, (calls, total, self_s) in sorted(self.counters.items())
            if calls
        }


class _Section:
    """Tiny reusable context manager for :meth:`ProfiledRun.section`."""

    __slots__ = ("_prof", "_name")

    def __init__(self, prof: ProfiledRun, name: str):
        self._prof = prof
        self._name = name

    def __enter__(self):
        self._prof.enter(self._name)

    def __exit__(self, *exc):
        self._prof.exit()


def prof_section(prof, name: str):
    """``prof.section(name)`` or a no-op context when ``prof`` is None."""
    if prof is not None:
        return prof.section(name)
    from contextlib import nullcontext

    return nullcontext()


# -- producer proxies --------------------------------------------------------------


class _ProfiledLive:
    """Times every digest update on a wrapped LiveTelemetry collector.

    Pure pass-through: the wrapped collector sees the identical calls, so
    live reports built from it are byte-identical to an unprofiled run's.
    These wrappers sit on million-call paths, so they skip the generic
    :meth:`ProfiledRun.enter`/``exit`` stack machinery and charge a cached
    counter entry directly — the calls are leaves, so self == total, and
    the enclosing section's child time is still credited via ``_stack``.
    """

    __slots__ = ("_live", "_prof", "_clock", "_entry", "_stack")

    def __init__(self, live, prof: ProfiledRun):
        self._live = live
        self._prof = prof
        self._clock = prof._clock
        self._entry = prof.counters.setdefault(
            "digest.update", [0, 0.0, 0.0])
        self._stack = prof._stack

    def __bool__(self) -> bool:
        return bool(self._live)

    def __getattr__(self, name):
        return getattr(self._live, name)

    def record_op(self, *args, **kwargs):
        entry = self._entry
        entry[0] += 1
        if entry[0] & _TIMING_MASK:
            return self._live.record_op(*args, **kwargs)
        clock = self._clock
        start = clock()
        result = self._live.record_op(*args, **kwargs)
        elapsed = (clock() - start) * _TIMING_STRIDE
        entry[1] += elapsed
        entry[2] += elapsed
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        return result

    def record_censored(self, *args, **kwargs):
        entry = self._entry
        entry[0] += 1
        if entry[0] & _TIMING_MASK:
            return self._live.record_censored(*args, **kwargs)
        clock = self._clock
        start = clock()
        result = self._live.record_censored(*args, **kwargs)
        elapsed = (clock() - start) * _TIMING_STRIDE
        entry[1] += elapsed
        entry[2] += elapsed
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        return result

    def finish(self, *args, **kwargs):
        entry = self._entry
        entry[0] += 1
        if entry[0] & _TIMING_MASK:
            return self._live.finish(*args, **kwargs)
        clock = self._clock
        start = clock()
        result = self._live.finish(*args, **kwargs)
        elapsed = (clock() - start) * _TIMING_STRIDE
        entry[1] += elapsed
        entry[2] += elapsed
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        return result


class _ProfiledTracer:
    """Times span construction on a wrapped Tracer/SamplingTracer.

    Same flat fast path as :class:`_ProfiledLive`: ``add``/``link`` are
    leaf calls, so the cached counter entry is charged directly instead of
    going through the section stack.
    """

    __slots__ = ("_tracer", "_prof", "_clock", "_entry", "_stack")

    def __init__(self, tracer, prof: ProfiledRun):
        self._tracer = tracer
        self._prof = prof
        self._clock = prof._clock
        self._entry = prof.counters.setdefault(
            "span.construct", [0, 0.0, 0.0])
        self._stack = prof._stack

    def __bool__(self) -> bool:
        return bool(self._tracer)

    def __getattr__(self, name):
        return getattr(self._tracer, name)

    def add(self, *args, **kwargs):
        entry = self._entry
        entry[0] += 1
        if entry[0] & _TIMING_MASK:
            return self._tracer.add(*args, **kwargs)
        clock = self._clock
        start = clock()
        result = self._tracer.add(*args, **kwargs)
        elapsed = (clock() - start) * _TIMING_STRIDE
        entry[1] += elapsed
        entry[2] += elapsed
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        return result

    def link(self, *args, **kwargs):
        entry = self._entry
        entry[0] += 1
        if entry[0] & _TIMING_MASK:
            return self._tracer.link(*args, **kwargs)
        clock = self._clock
        start = clock()
        result = self._tracer.link(*args, **kwargs)
        elapsed = (clock() - start) * _TIMING_STRIDE
        entry[1] += elapsed
        entry[2] += elapsed
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        return result


def profiled_live(live, prof):
    """Wrap a LiveTelemetry sink so its updates are charged to a counter."""
    return _ProfiledLive(live, prof) if live is not None else None


def profiled_tracer(tracer, prof):
    """Wrap a tracer so span construction is charged to a counter."""
    return _ProfiledTracer(tracer, prof) if tracer is not None else None


# -- the repro-prof/1 report -------------------------------------------------------


def build_prof_report(prof: ProfiledRun, scenario: dict,
                      top: int = 15) -> dict:
    """Assemble the ``repro-prof/1`` document from a stopped profiler."""
    if prof._t0 is not None:
        raise ConfigurationError(
            "profiler must be stop()ed before reporting")
    wall = prof.wall_s
    throughput = {
        "events": prof.events,
        "events_per_wall_s": round(prof.events / wall, 1) if wall else 0.0,
        "virtual_s": round(prof.virtual_s, 6),
        "events_per_virtual_s": (
            round(prof.events / prof.virtual_s, 1) if prof.virtual_s else 0.0
        ),
    }
    if prof.ops:
        throughput["ops"] = prof.ops
        throughput["ops_per_wall_s"] = (
            round(prof.ops / wall, 1) if wall else 0.0)
        throughput["ops_per_virtual_s"] = (
            round(prof.ops / prof.virtual_s, 1) if prof.virtual_s else 0.0)
    return {
        "schema": SCHEMA,
        "scenario": dict(scenario),
        "host": host_meta(),
        "wall_s": round(wall, 6),
        "sampler": {
            "interval_s": prof.sample_interval,
            "samples": prof.sample_count,
            "distinct_stacks": len(prof.samples),
        },
        "subsystems": prof.subsystem_table(),
        "hot": prof.hot_functions(top),
        "throughput": throughput,
    }


_REPORT_REQUIRED = {
    "scenario": dict, "host": dict, "wall_s": float, "sampler": dict,
    "subsystems": dict, "hot": list, "throughput": dict,
}

_HOST_REQUIRED = dict.fromkeys(("python", "platform", "cpu_count"), object)

_SUBSYSTEM_REQUIRED = dict.fromkeys(("calls", "total_s", "self_s"), float)

_HOT_REQUIRED = dict.fromkeys(
    ("func", "file", "self_samples", "total_samples"), object)

_THROUGHPUT_REQUIRED = dict.fromkeys(
    ("events", "events_per_wall_s", "virtual_s", "events_per_virtual_s"),
    float)


def validate_prof_report(data: dict) -> None:
    """Schema check; raises :class:`ConfigurationError` on any mismatch."""
    check_envelope(data, SCHEMA, "prof report")
    check_fields(data, _REPORT_REQUIRED, "prof report")
    check_fields(data["host"], _HOST_REQUIRED, "prof host")
    if data["wall_s"] < 0:
        raise ConfigurationError("prof report needs wall_s >= 0")
    sampler = data["sampler"]
    check_fields(sampler, {"samples": int, "interval_s": float}, "sampler")
    if sampler["samples"] < 0:
        raise ConfigurationError("sampler needs a non-negative sample count")
    if sampler["interval_s"] <= 0:
        raise ConfigurationError("sampler needs a positive interval_s")
    for name, entry in data["subsystems"].items():
        check_fields(entry, _SUBSYSTEM_REQUIRED, f"subsystem {name!r}")
    for index, row in enumerate(data["hot"]):
        check_fields(row, _HOT_REQUIRED, f"hot row {index}")
    check_fields(data["throughput"], _THROUGHPUT_REQUIRED, "throughput")


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000.0:.1f}ms"


def render_prof_report(data: dict) -> str:
    """ASCII hot-function table + subsystem self/total breakdown."""
    scenario = data["scenario"]
    context = "  ".join(f"{key} {scenario[key]}" for key in sorted(scenario))
    lines = [f"self-profile  {context}".rstrip()]
    tp = data["throughput"]
    line = (f"  wall {_fmt_s(data['wall_s'])}  events {tp['events']} "
            f"({tp['events_per_wall_s']:g}/wall-s, "
            f"{tp['events_per_virtual_s']:g}/virtual-s over "
            f"{tp['virtual_s']:g} virtual-s)")
    if "ops" in tp:
        line += (f"  ops {tp['ops']} ({tp['ops_per_wall_s']:g}/wall-s, "
                 f"{tp['ops_per_virtual_s']:g}/virtual-s)")
    lines.append(line)
    sampler = data["sampler"]
    lines.append(
        f"  sampler: {sampler['samples']} samples @ "
        f"{sampler['interval_s'] * 1000.0:g}ms "
        f"({sampler['distinct_stacks']} distinct stacks)"
    )
    if data["subsystems"]:
        wall = data["wall_s"] or 1.0
        lines.append(f"  {'subsystem':<24} {'calls':>10} {'total':>9} "
                     f"{'self':>9} {'self%':>6}")
        ordered = sorted(data["subsystems"].items(),
                         key=lambda kv: -kv[1]["self_s"])
        for name, entry in ordered:
            lines.append(
                f"  {name:<24} {entry['calls']:>10} "
                f"{_fmt_s(entry['total_s']):>9} {_fmt_s(entry['self_s']):>9} "
                f"{100.0 * entry['self_s'] / wall:>5.1f}%"
            )
        accounted = sum(e["self_s"] for e in data["subsystems"].values())
        other = data["wall_s"] - accounted
        if other > 0:
            lines.append(
                f"  {'(uncounted)':<24} {'':>10} {'':>9} "
                f"{_fmt_s(other):>9} {100.0 * other / wall:>5.1f}%"
            )
    if data["hot"]:
        lines.append("  hot functions (self samples):")
        for row in data["hot"]:
            lines.append(
                f"  {row.get('self_pct', 0.0):>6.1f}%  {row['func']:<28} "
                f"{row['file']}:{row.get('line', 0)}"
            )
    else:
        lines.append("  hot functions: no samples (run too short "
                     "for the sampling interval)")
    return "\n".join(lines)


# -- flamegraph exporters ----------------------------------------------------------


def _frame_label(frame: tuple) -> str:
    name, path, line = frame
    return f"{name} ({_short_path(path)}:{line})"


def folded_stacks(prof: ProfiledRun) -> str:
    """Collapsed-stack lines (``a;b;c count``) for ``flamegraph.pl``."""
    lines = []
    for stack, count in sorted(prof.samples.items()):
        if not stack:
            continue
        lines.append(
            ";".join(_frame_label(frame) for frame in stack) + f" {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_folded(prof: ProfiledRun, path: str) -> int:
    """Write folded stacks; returns the number of distinct stacks."""
    text = folded_stacks(prof)
    write_text(text, path)
    return len(text.splitlines())


def speedscope_document(prof: ProfiledRun,
                        name: str = "repro self-profile") -> dict:
    """A sampled-format speedscope file (https://www.speedscope.app)."""
    frames: list[dict] = []
    index: dict[tuple, int] = {}
    samples = []
    weights = []
    for stack, count in sorted(prof.samples.items()):
        ids = []
        for frame in stack:
            frame_id = index.get(frame)
            if frame_id is None:
                frame_id = index[frame] = len(frames)
                fn, path, line = frame
                frames.append({"name": fn, "file": _short_path(path),
                               "line": line})
            ids.append(frame_id)
        samples.append(ids)
        weights.append(count * prof.sample_interval)
    total = sum(weights)
    return {
        "$schema": "https://www.speedscope.app/file-format-schema.json",
        "shared": {"frames": frames},
        "profiles": [{
            "type": "sampled",
            "name": name,
            "unit": "seconds",
            "startValue": 0,
            "endValue": round(total, 6),
            "samples": samples,
            "weights": [round(w, 6) for w in weights],
        }],
        "exporter": "repro-prof/1",
        "name": name,
    }


def write_speedscope(prof: ProfiledRun, path: str,
                     name: str = "repro self-profile") -> None:
    write_text(json.dumps(speedscope_document(prof, name)) + "\n", path)
