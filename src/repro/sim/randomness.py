"""Reproducible named random streams.

Every stochastic decision in the system (background-load placement, random
selection strategies, optimizer restarts, failure schedules) draws from a
stream derived from ``(master seed, *names)``.  Streams are independent of
each other and of creation order, so adding a new consumer never perturbs
existing experiments.

A stream is a :class:`RandomStream`: NumPy's PCG64 bit generator and the
``Generator`` draws the tree makes, written out here and equal bit for bit
to ``np.random.default_rng(np.random.SeedSequence(entropy=seed & (2**64 - 1),
spawn_key=<one CRC-32 word per name>))``.  Owning the stream keeps
``numpy.random`` (nine compiled modules, and OpenSSL through ``secrets``)
out of the process, and a NumPy upgrade can no longer move a seeded result:
NumPy keeps a bit generator's raw stream fixed across releases, but not what
each ``Generator`` method draws from it.  ``tests/sim/test_stream_parity.py``
holds every draw form against NumPy.

Each scalar draw steps the 128-bit LCG in line rather than through a
helper, because a draw is on the hot path of open-loop arrivals and a
Python call costs as much as the step itself.  The vector forms of
``random`` and ``uniform`` jump ahead instead: every state of the vector
comes out of two products of packed integers, and the XSL-RR output
permutation runs in NumPy.
"""

from __future__ import annotations

import zlib
from math import copysign, exp, log1p
from typing import TYPE_CHECKING

import numpy as np

from repro.sim.ziggurat import FE, KE, WE

if TYPE_CHECKING:
    from numpy.typing import NDArray

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1

#: PCG64's LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_MULT = 0x2360ED051FC65DA44385DF649FCCF645

#: a double from the top 53 bits of a 64-bit output.
_TO_DOUBLE = 1.0 / 9007199254740992.0

#: start of the exponential ziggurat's tail (layer 0).
_ZIGGURAT_R = 7.69711747013104972

_INF = float("inf")

#: SeedSequence's hash constants (pool of four 32-bit words).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

_U11 = np.uint64(11)
_U58 = np.uint64(58)
_U63 = np.uint64(63)
_U64 = np.uint64(64)


def stable_hash(text: str) -> int:
    """A process-independent 32-bit hash of ``text``.

    Python's builtin ``hash`` is salted per process; CRC-32 is stable across
    runs and platforms, which is what reproducible seeding needs.
    """
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


def rng_stream(seed: int, *names: str) -> RandomStream:
    """Create an independent stream for ``(seed, *names)``.

    NumPy's ``SeedSequence`` hashing, with the names' CRC-32 words as the
    spawn key, so distinct name tuples give statistically independent
    streams; its first 256 bits seed PCG64 as ``numpy.random.PCG64`` does.
    """
    # the run entropy (seed & (2**64 - 1), two words) padded to the pool
    # size, then the spawn key; a pool word past the entropy hashes a 0
    # either way, so the padding is the same with and without names
    words = [seed & _MASK32, (seed >> 32) & _MASK32, 0, 0]
    for name in names:
        words.append(stable_hash(name))
    hash_const = _INIT_A
    for i in range(4):
        value = words[i] ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        words[i] = value ^ (value >> 16)
    # every pool word mixes in every other, then each spawn-key word mixes
    # into every pool word: words[4:] are the spawn key, never a pool word
    for src in range(len(words)):
        for dst in range(4):
            if src != dst:
                value = words[src] ^ hash_const
                hash_const = hash_const * _MULT_A & _MASK32
                value = value * hash_const & _MASK32
                mixed = (
                    _MIX_MULT_L * words[dst] - _MIX_MULT_R * (value ^ (value >> 16))
                ) & _MASK32
                words[dst] = mixed ^ (mixed >> 16)
    # generate_state(4, uint64): eight words cycling the pool, read as four
    # little-endian 64-bit words: seed high, seed low, increment high and low
    hash_const = _INIT_B
    state = 0
    for i in range(8):
        value = words[i & 3] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state |= (value ^ (value >> 16)) << (32 * (i ^ 6))
    # pcg_setseq_128_srandom_r
    inc = ((state & _MASK128) << 1 | 1) & _MASK128
    start = ((inc + (state >> 128)) * _MULT + inc) & _MASK128
    return RandomStream(start, inc)


class RandomStream:
    """A PCG64 stream with the ``numpy.random.Generator`` draws the tree
    makes, each bit-identical to NumPy's, with NumPy's ``ValueError`` for an
    out-of-range argument.

    :param state: the 128-bit LCG state.
    :param inc: the LCG increment (odd).
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, state: int, inc: int) -> None:
        self._state = state
        self._inc = inc
        #: the upper half of the last 64-bit output a 32-bit draw split,
        #: until the next 32-bit draw takes it (NumPy's ``has_uint32``)
        self._half: int | None = None

    def random(self, size: int | None = None) -> float | NDArray[np.float64]:
        """A double in ``[0, 1)``, or an array of ``size`` of them."""
        if size is not None:
            return self._doubles(size)
        s = (self._state * _MULT + self._inc) & _MASK128
        self._state = s
        x = ((s >> 64) ^ s) & _MASK64
        r = s >> 122
        return ((((x >> r) | (x << (64 - r))) & _MASK64) >> 11) * _TO_DOUBLE

    def uniform(
        self, low: float, high: float, size: int | None = None
    ) -> float | NDArray[np.float64]:
        """A double in ``[low, high)``, or an array of ``size`` of them."""
        low = float(low)
        span = float(high) - low
        if not 0.0 < span < _INF:
            if span - span != 0.0:
                raise OverflowError("high - low range exceeds valid bounds")
            if span < 0.0 or copysign(1.0, span) < 0.0:
                raise ValueError("high - low < 0")
        if size is not None:
            return low + span * self._doubles(size)
        s = (self._state * _MULT + self._inc) & _MASK128
        self._state = s
        x = ((s >> 64) ^ s) & _MASK64
        r = s >> 122
        return low + span * (
            ((((x >> r) | (x << (64 - r))) & _MASK64) >> 11) * _TO_DOUBLE
        )

    def integers(
        self, low: int, high: int | None = None, size: int | None = None
    ) -> int | NDArray[np.int64]:
        """An int in ``[low, high)`` (``[0, low)`` without ``high``), or an
        array of ``size`` of them: NumPy's 32-bit Lemire draw, which takes
        the buffered upper half of a 64-bit output before stepping again.
        A range wider than ``2**32`` is refused."""
        if high is None:
            low, high = 0, low
        span = high - low
        if span < 1:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        if span > 0x100000000:
            raise ValueError(f"a range of {span} needs more than 32 random bits")
        count = 1 if size is None else size
        drawn = [low] * count
        if span > 1:
            threshold = (0x100000000 - span) % span
            s = self._state
            inc = self._inc
            half = self._half
            for i in range(count):
                while True:
                    if half is None:
                        s = (s * _MULT + inc) & _MASK128
                        x = ((s >> 64) ^ s) & _MASK64
                        r = s >> 122
                        x = ((x >> r) | (x << (64 - r))) & _MASK64
                        half = x >> 32
                        scaled = (x & _MASK32) * span
                    else:
                        scaled = half * span
                        half = None
                    if scaled & _MASK32 >= threshold:
                        break
                drawn[i] = low + (scaled >> 32)
            self._state = s
            self._half = half
        if size is None:
            return drawn[0]
        return np.array(drawn, dtype=np.int64)

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential variate of mean ``scale``: NumPy's 256-layer
        ziggurat, with its ``r - log1p(-u)`` tail and its wedge test."""
        if scale <= 0.0 and (scale < 0.0 or copysign(1.0, scale) < 0.0):
            raise ValueError("scale < 0")
        s = self._state
        inc = self._inc
        while True:
            s = (s * _MULT + inc) & _MASK128
            x = ((s >> 64) ^ s) & _MASK64
            r = s >> 122
            x = ((x >> r) | (x << (64 - r))) & _MASK64
            layer = (x >> 3) & 0xFF
            bits = x >> 11
            value = bits * WE[layer]
            if bits < KE[layer]:
                break
            s = (s * _MULT + inc) & _MASK128
            x = ((s >> 64) ^ s) & _MASK64
            r = s >> 122
            u = ((((x >> r) | (x << (64 - r))) & _MASK64) >> 11) * _TO_DOUBLE
            if layer == 0:
                value = _ZIGGURAT_R - log1p(-u)
                break
            if (FE[layer - 1] - FE[layer]) * u + FE[layer] < exp(-value):
                break
        self._state = s
        return scale * value

    def _doubles(self, size: int) -> NDArray[np.float64]:
        """``size`` doubles.  The ``k``-th next state is ``A_k * state +
        G_k * inc`` (mod ``2**128``), so all of them come from two products
        of packed integers (:func:`_jump_tables`), one slot per state; the
        XSL-RR output permutation then runs vectorised over the slots."""
        jumps = _JUMPS.get(size)
        if jumps is None:
            jumps = _JUMPS[size] = _jump_tables(size)
        packed = (jumps[0] * self._state + jumps[1] * self._inc).to_bytes(
            size * _SLOT, "little"
        )
        if size:
            self._state = int.from_bytes(packed[-_SLOT : 16 - _SLOT], "little")
        words = np.frombuffer(packed, dtype="<u8").reshape(size, _SLOT // 8)
        upper = words[:, 1]
        x = upper ^ words[:, 0]
        r = upper >> _U58
        return (((x >> r) | (x << ((_U64 - r) & _U63))) >> _U11) * _TO_DOUBLE


#: bytes per packed state: ``A_k * state + G_k * inc`` is below ``2**257``,
#: so slots never carry into each other.
_SLOT = 40

#: ``size -> (sum of A_k << slot k, sum of G_k << slot k)``, k = 1..size.
_JUMPS: dict[int, tuple[int, int]] = {}


def _jump_tables(size: int) -> tuple[int, int]:
    """The packed jump-ahead multipliers of ``size`` LCG steps: ``A_k =
    MULT**k`` and ``G_k = 1 + MULT + ... + MULT**(k-1)``, mod ``2**128``."""
    a, g = 1, 0
    powers: list[bytes] = []
    sums: list[bytes] = []
    for _ in range(size):
        a = a * _MULT & _MASK128
        g = (g * _MULT + 1) & _MASK128
        powers.append(a.to_bytes(_SLOT, "little"))
        sums.append(g.to_bytes(_SLOT, "little"))
    return (
        int.from_bytes(b"".join(powers), "little"),
        int.from_bytes(b"".join(sums), "little"),
    )
