"""Fault plans: deterministic, seed-driven schedules of injected faults.

A :class:`FaultSpec` is one fault — *what* happens (``kind``), *where*
(``target``), *when* on the simulated clock (``at``), for *how long*
(``duration``), and *how hard* (``magnitude``).  A :class:`FaultPlan` is an
ordered tuple of specs plus the seed that any stochastic consumer (the
transient-op-error path) must derive its randomness from, so the same plan
and seed always produce the same faulted schedule.

Specs parse from a compact CLI string, entries separated by ``;``::

    kind:target@at[+duration][xmagnitude]

    crash:n3@0.5            # node 3 crashes at 50% query progress
    straggler:n1@0x4        # node 1 runs 4x slow from the start
    disk-stall:disk@20+10x8 # disk service 8x slower over [20s, 30s)
    op-error:cpu@30+20x0.2  # 20% transient op errors over [30s, 50s)
    net-spike:log@5+5x3     # log/network latency 3x over [5s, 10s)
    kill-shard:0@0.25       # shard 0 dies 25% into the op stream
    restart-shard:0@0.75    # ... and comes back at 75%

Time semantics are consumer-documented: the DSS engines read ``at <= 1`` as
a fraction of the healthy runtime (else absolute seconds); the functional
YCSB runner reads ``at <= 1`` as a fraction of the operation count (else an
absolute op index); the event simulator reads ``at`` as simulated seconds.

Malformed specs raise :class:`~repro.common.errors.FaultPlanError` (a
:class:`~repro.common.errors.ConfigurationError`), which the CLI turns into
a one-line nonzero exit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import FaultPlanError

# The five mechanism families of the tentpole plus the shard-level pair the
# Mongo-AS availability scenario uses.
FAULT_KINDS = frozenset({
    "crash",          # node crash: lost tasks / full query restart / capacity
    "straggler",      # slow node: speculative re-execution (MapReduce only)
    "disk-stall",     # disk service-time inflation over a window
    "op-error",       # transient op errors at a station over a window
    "net-spike",      # network/log latency inflation over a window
    "kill-shard",     # one shard process dies (no replica sets, §3.4.1)
    "restart-shard",  # ... and is manually restarted
    # Replica-set member faults (PR 5): target is "shard.member", e.g.
    # ``kill-member:2.0@0.5`` kills member 0 of shard 2's replica set.
    "kill-member",       # one replica-set member process dies
    "restart-member",    # ... and is restarted (journal-durable state back)
    "partition-member",  # member unreachable (state intact, no traffic)
    "heal-member",       # the partition heals
    "lag-spike",         # replication lag x magnitude over the duration
    # Topology events (PR 8): live elastic resharding.  ``scale:shards=6@0.3``
    # grows the cluster to six shards 30% into the op stream (chunks / hash-
    # ring ranges migrate on the virtual clock); ``drain:shard=2@0.5`` moves
    # everything off shard 2 and retires it.
    "scale",          # grow the cluster to target="shards=N" total shards
    "drain",          # evacuate and retire target="shard=K"
    # Overload trigger (PR 10): ``arrival-spike:clients@20+10x2.5`` multiplies
    # the open-loop arrival rate by 2.5 over [20s, 30s).  Consumed by the
    # overload-aware open-loop simulator (the closed loop and the plain open
    # loop reject it); the target is conventionally ``clients`` (it names
    # the arrival process, not a station).
    "arrival-spike",
})

# Kinds that operate on one member of a replica-set shard.
MEMBER_KINDS = frozenset({
    "kill-member", "restart-member", "partition-member", "heal-member",
    "lag-spike",
})

# Kinds that inflate service times / error ops at an event-sim station.
# ``arrival-spike`` rides along so :class:`StationFaults` can expose its
# windows to the overload-aware open-loop simulator.
STATION_KINDS = frozenset({
    "disk-stall", "net-spike", "op-error", "crash", "arrival-spike",
})

# Kinds that change cluster topology mid-run (elastic resharding).
TOPOLOGY_KINDS = frozenset({"scale", "drain"})

_SPEC_RE = re.compile(
    r"^(?P<kind>[a-z-]+):(?P<target>[A-Za-z0-9_.=-]+)@(?P<at>\d+(?:\.\d+)?)"
    r"(?:\+(?P<duration>\d+(?:\.\d+)?))?"
    r"(?:x(?P<magnitude>\d+(?:\.\d+)?))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault."""

    kind: str
    target: str
    at: float
    duration: float = 0.0
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {', '.join(sorted(FAULT_KINDS))}"
            )
        if self.at < 0:
            raise FaultPlanError(f"fault time must be >= 0, got {self.at}")
        if self.duration < 0:
            raise FaultPlanError(f"fault duration must be >= 0, got {self.duration}")
        if self.magnitude <= 0:
            raise FaultPlanError(f"fault magnitude must be > 0, got {self.magnitude}")
        # Topology targets are validated eagerly so a malformed spec string
        # fails at parse time (CLI exit 2), not mid-run.
        if self.kind == "scale":
            self.scale_target()
        elif self.kind == "drain":
            self.drain_target()

    @property
    def end(self) -> float:
        return self.at + self.duration

    def target_index(self) -> int:
        """The target parsed as an index (``n3`` -> 3, ``3`` -> 3)."""
        digits = re.sub(r"^[A-Za-z_.-]+", "", self.target)
        if not digits.isdigit():
            raise FaultPlanError(
                f"fault target {self.target!r} does not name an index"
            )
        return int(digits)

    def scale_target(self) -> int:
        """The target parsed as ``shards=N`` -> N (total shard count)."""
        match = re.fullmatch(r"shards=(\d+)", self.target)
        if match is None:
            raise FaultPlanError(
                f"scale target {self.target!r} must look like shards=N"
            )
        count = int(match.group(1))
        if count < 1:
            raise FaultPlanError(
                f"scale target must name at least one shard, got {count}"
            )
        return count

    def drain_target(self) -> int:
        """The target parsed as ``shard=K`` -> K (shard index to retire)."""
        match = re.fullmatch(r"shard=(\d+)", self.target)
        if match is None:
            raise FaultPlanError(
                f"drain target {self.target!r} must look like shard=K"
            )
        return int(match.group(1))

    def member_target(self) -> tuple[int, int]:
        """The target parsed as ``shard.member`` (``2.0`` -> (2, 0))."""
        parts = self.target.split(".")
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise FaultPlanError(
                f"fault target {self.target!r} does not name shard.member"
            )
        return int(parts[0]), int(parts[1])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "at": self.at,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }

    def spec_string(self) -> str:
        out = f"{self.kind}:{self.target}@{self.at:g}"
        if self.duration:
            out += f"+{self.duration:g}"
        if self.magnitude != 1.0:
            out += f"x{self.magnitude:g}"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered schedule of faults plus the seed consumers derive RNG from."""

    faults: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, FaultSpec):
                raise FaultPlanError(f"not a FaultSpec: {fault!r}")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def of_kind(self, *kinds: str) -> list[FaultSpec]:
        return [f for f in self.faults if f.kind in kinds]

    def first(self, kind: str) -> Optional[FaultSpec]:
        for fault in self.faults:
            if fault.kind == kind:
                return fault
        return None

    @property
    def station_faults(self) -> list[FaultSpec]:
        return self.of_kind(*STATION_KINDS)

    @property
    def shard_faults(self) -> list[FaultSpec]:
        return self.of_kind("kill-shard", "restart-shard")

    @property
    def member_faults(self) -> list[FaultSpec]:
        return self.of_kind(*MEMBER_KINDS)

    @property
    def topology_faults(self) -> list[FaultSpec]:
        return self.of_kind(*TOPOLOGY_KINDS)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse the CLI spec DSL; raises :class:`FaultPlanError` on bad input."""
        if not isinstance(text, str) or not text.strip():
            raise FaultPlanError("empty fault plan")
        specs = []
        for entry in re.split(r"[;,]", text):
            entry = entry.strip()
            if not entry:
                continue
            match = _SPEC_RE.match(entry)
            if match is None:
                raise FaultPlanError(
                    f"bad fault spec {entry!r}; expected "
                    f"kind:target@at[+duration][xmagnitude]"
                )
            specs.append(FaultSpec(
                kind=match.group("kind"),
                target=match.group("target"),
                at=float(match.group("at")),
                duration=float(match.group("duration") or 0.0),
                magnitude=float(match.group("magnitude") or 1.0),
            ))
        if not specs:
            raise FaultPlanError("fault plan contains no specs")
        return cls(faults=tuple(specs), seed=seed)

    def to_dicts(self) -> list[dict]:
        return [f.to_dict() for f in self.faults]

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": self.to_dicts()},
            sort_keys=True, separators=(",", ":"),
        )

    def spec_string(self) -> str:
        return ";".join(f.spec_string() for f in self.faults)


class StationFaults:
    """Adapter from a plan to per-station fault queries for the event sim.

    ``slowdown(station, now)`` multiplies service times (disk stalls and
    network latency spikes); ``error_probability(station, now)`` drives the
    transient-op-error retry path; ``capacity_factor(station)`` returns the
    crash windows as ``(at, end, surviving_fraction)`` tuples so the
    simulation can shrink and restore station capacity on the simulated
    clock.  Only faults whose ``target`` matches the station name apply.
    """

    def __init__(self, faults: Iterable[FaultSpec]):
        self._slow: list[FaultSpec] = []
        self._error: list[FaultSpec] = []
        self._crash: list[FaultSpec] = []
        self._spike: list[FaultSpec] = []
        for fault in faults:
            if fault.kind in ("disk-stall", "net-spike"):
                self._slow.append(fault)
            elif fault.kind == "op-error":
                if fault.magnitude > 1.0:
                    raise FaultPlanError(
                        "op-error magnitude is a probability; must be <= 1"
                    )
                self._error.append(fault)
            elif fault.kind == "crash":
                if fault.magnitude > 1.0:
                    raise FaultPlanError(
                        "event-sim crash magnitude is the lost capacity "
                        "fraction; must be <= 1"
                    )
                self._crash.append(fault)
            elif fault.kind == "arrival-spike":
                if fault.magnitude < 1.0:
                    raise FaultPlanError(
                        "arrival-spike magnitude is a rate multiplier; "
                        "must be >= 1"
                    )
                self._spike.append(fault)

    def __bool__(self) -> bool:
        return bool(self._slow or self._error or self._crash or self._spike)

    def slowdown(self, station: str, now: float) -> float:
        factor = 1.0
        for fault in self._slow:
            if fault.target == station and fault.at <= now < fault.end:
                factor *= fault.magnitude
        return factor

    def error_probability(self, station: str, now: float) -> float:
        prob = 0.0
        for fault in self._error:
            if fault.target == station and fault.at <= now < fault.end:
                prob = max(prob, fault.magnitude)
        return prob

    def crash_windows(self, station: str) -> list[tuple[float, float, float]]:
        """``(at, end, lost_fraction)`` crash windows for one station."""
        return [
            (fault.at, fault.end, fault.magnitude)
            for fault in self._crash
            if fault.target == station
        ]

    def arrival_windows(self) -> list[tuple[float, float, float]]:
        """``(at, end, rate_factor)`` arrival-spike windows, in time order."""
        return sorted(
            (fault.at, fault.end, fault.magnitude) for fault in self._spike
        )

    @property
    def windows(self) -> list[FaultSpec]:
        """Every windowed fault, for trace/series annotation."""
        return sorted(
            self._slow + self._error + self._crash + self._spike,
            key=lambda f: (f.at, f.kind, f.target),
        )
