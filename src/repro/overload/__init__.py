"""Graceful degradation under overload (PR 10).

Admission control with bounded, policy-managed station queues
(:mod:`repro.overload.admission`), end-to-end deadline propagation, retry
budgets and per-shard circuit breakers (:mod:`repro.overload.policy`), an
overload-aware open-loop simulator (:mod:`repro.overload.sim`), breaker
cells on the functional clusters (:mod:`repro.overload.functional`), and
the chaos-verified metastable-failure demonstration with its
``repro-overload/1`` report (:mod:`repro.overload.report`).
"""

from repro.overload.admission import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    AdmissionResource,
)
from repro.overload.functional import functional_overload_cell
from repro.overload.policy import (
    ADMISSION_POLICIES,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    DEFAULT_SPEC,
    BreakerBoard,
    CircuitBreaker,
    OverloadPolicy,
    RetryBudget,
    class_priority,
)
from repro.overload.report import (
    SCHEMA,
    build_overload_report,
    overload_report,
    render_overload_report,
    validate_overload_report,
)
from repro.overload.sim import SHED_FAULT, overload_open_loop

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionResource",
    "BREAKER_CLOSED",
    "BREAKER_HALF_OPEN",
    "BREAKER_OPEN",
    "BreakerBoard",
    "CircuitBreaker",
    "DEFAULT_SPEC",
    "OverloadPolicy",
    "RetryBudget",
    "SCHEMA",
    "SHED_DEADLINE",
    "SHED_FAULT",
    "SHED_QUEUE_FULL",
    "build_overload_report",
    "class_priority",
    "functional_overload_cell",
    "overload_open_loop",
    "overload_report",
    "render_overload_report",
    "validate_overload_report",
]
