"""Statistics helpers used by the benchmark harness and report tables.

The paper's Table 3 reports arithmetic and geometric means of query times
(including the AM-9/GM-9 variants that exclude Q9), and the YCSB figures
report averages with standard errors over sixty 10-second windows.  These
helpers implement exactly those aggregations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache, reduce
from operator import add


def fold_sum(values: Iterable[float]) -> float:
    """Left-to-right sum from int 0, rounding after every addition.

    This is what the builtin ``sum`` computes up to Python 3.11.  From 3.12
    it sums floats with compensation, which changes the last bits of some
    totals, and the benchmark's golden fingerprints hold the uncompensated
    bytes; every float sum that reaches an output goes through here.
    """
    return reduce(add, values, 0)


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain average; raises ``ValueError`` on an empty input."""
    items = list(values)
    if not items:
        raise ValueError("arithmetic_mean of empty sequence")
    return fold_sum(items) / len(items)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean via log-space accumulation (stable for large ratios)."""
    items = list(values)
    if not items:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in items):
        raise ValueError("geometric_mean requires strictly positive values")
    return math.exp(fold_sum(math.log(v) for v in items) / len(items))


def std_deviation(values: Iterable[float]) -> float:
    """Sample standard deviation (n - 1 denominator)."""
    items = list(values)
    if len(items) < 2:
        return 0.0
    mean = arithmetic_mean(items)
    variance = fold_sum((v - mean) ** 2 for v in items) / (len(items) - 1)
    return math.sqrt(variance)


def std_error(values: Iterable[float]) -> float:
    """Standard error of the mean, as plotted in the paper's YCSB figures."""
    items = list(values)
    if len(items) < 2:
        return 0.0
    return std_deviation(items) / math.sqrt(len(items))


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile, ``p`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (p / 100.0) * (len(ordered) - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if lower == upper:
        return ordered[lower]
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


def scaling_factors(times_by_sf: Sequence[float]) -> list[float]:
    """Growth factor between consecutive scale factors (Table 3, right side).

    Given times at SFs that each grow 4x, returns ``t[i+1] / t[i]``; the paper
    calls a query "scaling well" when these stay at or below 4.
    """
    if len(times_by_sf) < 2:
        return []
    factors = []
    for earlier, later in zip(times_by_sf, times_by_sf[1:]):
        if earlier <= 0:
            raise ValueError("scaling factor requires positive times")
        factors.append(later / earlier)
    return factors


@lru_cache(maxsize=16, typed=True)
def _harmonic_head(s: float) -> float:
    """The first 10,000 terms of H_{n,s}, summed once per exponent."""
    return fold_sum(1.0 / i**s for i in range(1, 10_001))


def harmonic_number(n: int, s: float = 1.0) -> float:
    """Generalized harmonic number H_{n,s} = sum_{i=1..n} 1/i^s.

    Used by the zipfian request generator and the analytic cache-hit model.
    Up to ``n = 10,000`` the terms are summed.  Past that the 10,000-term
    head (cached per exponent, since every large ``n`` shares it) is
    followed by an Euler-Maclaurin tail, so YCSB-scale populations
    (hundreds of millions of keys) stay cheap.
    """
    if n <= 0:
        raise ValueError("harmonic_number requires n >= 1")
    if n <= 10_000:
        return fold_sum(1.0 / i**s for i in range(1, n + 1))
    head = _harmonic_head(s)
    # Integral approximation of the tail plus second-order correction.
    if abs(s - 1.0) < 1e-12:
        tail = math.log(n) - math.log(10_000)
    else:
        tail = (n ** (1.0 - s) - 10_000 ** (1.0 - s)) / (1.0 - s)
    correction = 0.5 * (1.0 / n**s - 1.0 / 10_000**s)
    return head + tail + correction
