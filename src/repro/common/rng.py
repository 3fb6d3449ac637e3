"""Deterministic random number generation for the whole reproduction.

Two generator families matter for the paper:

* :class:`TpchRandom` — a port of dbgen's Lehmer (minimal standard) generator
  with **32-bit C integer semantics** in its ``random_int`` helper.  Section
  3.3.1 of the paper reports that at the 16 TB scale factor the ``RANDOM``
  macro overflows and produces *negative* partkey/custkey values inside
  ``mk_order``; emulating 32-bit wraparound lets us reproduce (and test) that
  exact failure.
* :class:`TpchRandom64` — the authors' fix: the same interface over 64-bit
  arithmetic (a splitmix64 core), which stays correct at every scale factor.

splitmix64 is counter-based: draw ``n`` of a stream is
``mix((seed + n * gamma) mod 2**64)``, so a block of draws can be computed
at once.  :func:`raw_draws` and :func:`float_draws` iterate the exact
``next_raw`` and ``random_float`` streams of ``TpchRandom64(seed)`` that
way, for the long-lived streams that make most draws (dbgen's tables, the
closed-loop clients, the open loop's Poisson arrivals).  Starting a block
costs far more than one scalar draw, so streams that make a handful of
draws (the per-op substreams of the open loop and the overload simulator)
keep the class.

Everything else (YCSB key choice, simulator jitter) derives seeds from
:class:`SeedStream` so runs are reproducible end to end.  A per-op stream
is a keyed counter: :meth:`SeedStream.counter` hashes the path prefix (the
key) once, and each op's seed then hashes only its integer counters on top
of it — the same seed :meth:`SeedStream.seed_for` gives for the whole path.
"""

from __future__ import annotations

import hashlib
import sys
from functools import cache
from itertools import chain
from typing import Callable, Iterator

_INT32_MASK = 0xFFFFFFFF
_INT64_MASK = 0xFFFFFFFFFFFFFFFF

_LEHMER_MULTIPLIER = 16807
_LEHMER_MODULUS = 2**31 - 1


def to_int32(value: int) -> int:
    """Reinterpret an arbitrary integer as a C ``int32_t`` (two's complement)."""
    value &= _INT32_MASK
    if value >= 2**31:
        value -= 2**32
    return value


def to_int64(value: int) -> int:
    """Reinterpret an arbitrary integer as a C ``int64_t`` (two's complement)."""
    value &= _INT64_MASK
    if value >= 2**63:
        value -= 2**64
    return value


class TpchRandom:
    """dbgen-style Lehmer generator with 32-bit ``RANDOM(low, high)`` semantics.

    ``random_int`` follows the C expression
    ``low + (int32_t)(rand() % (int32_t)(high - low + 1))``: when the span
    exceeds ``INT32_MAX`` (which happens for partkey at SF >= 16000, where
    ``high = SF * 200000 = 3.2e9``) the cast wraps and the result can be
    negative — the bug the paper hit and fixed with RANDOM64.
    """

    def __init__(self, seed: int = 19620718):
        if seed <= 0:
            seed = 1
        self._state = seed % _LEHMER_MODULUS or 1

    def next_raw(self) -> int:
        """Advance the Lehmer state and return it (uniform on [1, 2^31 - 2])."""
        self._state = (self._state * _LEHMER_MULTIPLIER) % _LEHMER_MODULUS
        return self._state

    def random_int(self, low: int, high: int) -> int:
        """32-bit RANDOM(low, high): overflows for spans > INT32_MAX.

        The span ``high - low + 1`` is first truncated to ``int32`` the way
        dbgen's ``long`` arithmetic truncates it on an LP32/Windows build; a
        span above ``INT32_MAX`` therefore wraps negative and the modulo
        yields negative offsets — exactly the negative partkey/custkey
        symptom the paper reports for ``mk_order`` at SF 16000.
        """
        span = to_int32(high - low + 1)
        raw = self.next_raw()
        if span == 0:
            return to_int32(low)
        remainder = raw % span  # floor mod: takes the sign of the span
        return to_int32(low + remainder)

    def skip(self, count: int) -> None:
        """Discard ``count`` values (dbgen's per-row stream advancement)."""
        for _ in range(count):
            self.next_raw()


class TpchRandom64:
    """The RANDOM64 fix: 64-bit generator that never overflows at 16 TB.

    Uses a splitmix64 core, which is deterministic, fast, and has no shared
    state with Python's global ``random`` module.  Every draw is one
    :meth:`next_raw` step: ``random_int``, ``choice`` and ``random_float``
    advance the state inline, so each costs one Python frame and yields the
    value ``next_raw`` would have given.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int = 19620718):
        self._state = seed & _INT64_MASK

    def next_raw(self) -> int:
        """Advance splitmix64 and return a uniform value on [0, 2^64)."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _INT64_MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _INT64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _INT64_MASK
        return z ^ (z >> 31)

    def random_int(self, low: int, high: int) -> int:
        """Uniform integer on [low, high]: ``low + next_raw() % span``, exact
        for any 64-bit span, with the step inlined."""
        if high < low:
            raise ValueError(f"empty range [{low}, {high}]")
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _INT64_MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _INT64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _INT64_MASK
        return low + (z ^ (z >> 31)) % (high - low + 1)

    def random_float(self) -> float:
        """Uniform float on [0, 1): ``next_raw() / 2**64``, step inlined."""
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _INT64_MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _INT64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _INT64_MASK
        return (z ^ (z >> 31)) / 2.0**64

    def uniform(self, low: float, high: float) -> float:
        """Uniform float on [low, high)."""
        return low + (high - low) * self.random_float()

    def choice(self, items):
        """Pick one element of a non-empty sequence: the element
        ``random_int(0, len(items) - 1)`` indexes, with the step inlined."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        z = self._state = (self._state + 0x9E3779B97F4A7C15) & _INT64_MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _INT64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _INT64_MASK
        return items[(z ^ (z >> 31)) % len(items)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.random_int(0, i)
            items[i], items[j] = items[j], items[i]

    def skip(self, count: int) -> None:
        """Discard ``count`` values."""
        for _ in range(count):
            self.next_raw()


# The splitmix64 constants: the state increment and the two mix multipliers.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Draws per block.  Starting a block costs about 20 scalar draws; a block
# also holds 2 KB per live stream, which the closed loop has 240 of.
_BLOCK_LANES = 128


@cache
def _lane_constants(lanes: int) -> tuple[int, int, int, int]:
    """Constants for a block of ``lanes`` 128-bit lanes packed in one int.

    Returns ``spread`` (copies a 64-bit value into every lane), ``mask``
    (every lane's low 64 bits), ``offsets`` (lane ``i`` holds
    ``(i + 1) * gamma mod 2**64``) and ``stride`` (``lanes * gamma mod
    2**64``, the state advance from one block to the next).
    """
    spread = ((1 << (128 * lanes)) - 1) // ((1 << 128) - 1)
    offsets = 0
    for lane in range(lanes):
        offsets |= (((lane + 1) * _GAMMA) & _INT64_MASK) << (128 * lane)
    return spread, _INT64_MASK * spread, offsets, (lanes * _GAMMA) & _INT64_MASK


def _splitmix64_blocks(seed: int, lanes: int) -> Iterator[memoryview]:
    """The splitmix64 stream of ``seed`` as consecutive blocks of ``lanes``
    draws, each a memoryview of ``lanes`` 64-bit ints.

    A block packs its states into one int, one per 128-bit lane, and runs
    each xor-shift-multiply step once for all of them.  A lane holds at most
    64 significant bits, so a shift is masked back to its lane and a product
    with a 64-bit constant never reaches the next lane; masking every
    product keeps each lane mod ``2**64``.
    """
    spread, mask, offsets, stride = _lane_constants(lanes)
    size = 16 * lanes
    order = sys.byteorder
    # Lane i's low word: word 2i of a little-endian layout, or counted from
    # the end of a big-endian one.
    step = 2 if order == "little" else -2
    base = seed & _INT64_MASK
    while True:
        z = (base * spread + offsets) & mask
        z = ((z ^ ((z >> 30) & mask)) * _MIX1) & mask
        z = ((z ^ ((z >> 27) & mask)) * _MIX2) & mask
        z ^= (z >> 31) & mask
        yield memoryview(z.to_bytes(size, order)).cast("Q")[::step]
        base = (base + stride) & _INT64_MASK


def raw_draws(seed: int) -> Iterator[int]:
    """The endless ``TpchRandom64(seed).next_raw()`` stream, computed a
    block at a time: each draw is one C-level ``__next__``.  Seeds are
    masked to 64 bits as the class masks them."""
    return chain.from_iterable(_splitmix64_blocks(seed, _BLOCK_LANES))


def float_draws(seed: int) -> Iterator[float]:
    """The endless ``TpchRandom64(seed).random_float()`` stream: each raw
    draw scaled by ``2**-64``, which rounds as ``next_raw() / 2**64``."""
    return map((2.0**-64).__mul__, raw_draws(seed))


class SeedStream:
    """Derives independent, named 64-bit seeds from one master seed.

    ``SeedStream(42).seed_for("ycsb", "workload-a", 3)`` is stable across
    processes and Python versions (it hashes the textual path with SHA-256),
    so every component of a study can get its own reproducible generator.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed

    def seed_for(self, *path) -> int:
        """Return the 64-bit seed associated with a component path."""
        text = f"{self.master_seed}:" + "/".join(str(part) for part in path)
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def rng_for(self, *path) -> TpchRandom64:
        """Return a fresh :class:`TpchRandom64` for a component path."""
        return TpchRandom64(self.seed_for(*path))

    def counter(self, first, *rest) -> Callable[..., int]:
        """The seeds of a path prefix followed by integer counters.

        ``counter(*prefix)(*ints) == seed_for(*prefix, *ints)`` bit for bit
        (``ints`` are plain ints, formatted as ``%d``).  The prefix is hashed
        once; each call copies that SHA-256 state and hashes only the
        counters, which is what makes a per-op substream cheap.
        """
        prefix = "/".join(str(part) for part in (first, *rest))
        copy = hashlib.sha256(
            f"{self.master_seed}:{prefix}".encode("utf-8")).copy

        def seed(*ints) -> int:
            state = copy()
            state.update((b"/%d" * len(ints)) % ints)
            return int.from_bytes(state.digest()[:8], "big")

        return seed
