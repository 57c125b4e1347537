"""Seed derivation and the PCG64 random stream, in pure Python.

All randomness flows through PCG64 (O'Neill 2014,
https://www.pcg-random.org/paper.html): a 128-bit linear congruential state
with the XSL-RR output, seeded from an integer through the SeedSequence
entropy hash. The draw methods follow published algorithms, and
``tests/test_rng.py`` holds every one of them, draw for draw, to the
reference PCG64 generator of the scientific Python stack. Owning the
methods as well as the bit stream keeps grids and plans byte-identical
whatever library versions are installed:

- ``random`` scales the top 53 bits of one 64-bit output to [0, 1);
  ``uniform(low, high)`` is ``low + (high - low) * random()``;
- ``integers`` uses Lemire's bounded method (arXiv:1805.10941) on one
  32-bit half per try when the range fits 32 bits, else on 64-bit outputs.
  A 64-bit output yields its low half first and buffers the high half for
  the next 32-bit draw; ``random`` leaves that buffer alone;
- ``permutation(n)`` is a Fisher-Yates shuffle from the last index down,
  drawing each swap index from 32-bit halves by masked rejection.

Sub-seeds are derived with SplitMix64, chained over integer parts:

    h = 0
    for part in parts:
        h = splitmix64(h ^ part)

All of these algorithms are published and small enough to port anywhere.
"""

from __future__ import annotations

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TO_UNIT = 1.0 / (1 << 53)

# SeedSequence. Its hash multiplier advances by a fixed factor on every use,
# so the (xor, multiply) constant pair of each use is a table entry: the
# four words of the entropy pool are hashed in, then each word is mixed into
# every other; the read-out has a sequence of its own.
_POOL_SIZE = 4
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MIX_ORDER = [(src, dst) for src in range(_POOL_SIZE) for dst in range(_POOL_SIZE) if src != dst]


def _hash_consts(init: int, mult: int, uses: int) -> list[tuple[int, int]]:
    consts = [init]
    for _ in range(uses):
        consts.append((consts[-1] * mult) & _MASK32)
    return list(zip(consts, consts[1:]))


_HASH_IN = _hash_consts(0x43B0D7E5, 0x931E8875, _POOL_SIZE + len(_MIX_ORDER))
_HASH_OUT = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def splitmix64(x: int) -> int:
    """One SplitMix64 output step for a 64-bit input."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(*parts: int) -> int:
    """Mix integer parts into one 64-bit seed, order-sensitive."""
    h = 0
    for part in parts:
        h = splitmix64((h ^ part) & _MASK64)
    return h


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(8, uint32)``: the seed's 32-bit
    words, least significant first and zero-padded, hashed into a four-word
    pool and read back out as eight words."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, not {seed}")
    pool = []
    for k, (xor, mult) in enumerate(_HASH_IN[:_POOL_SIZE]):
        value = ((((seed >> (32 * k)) & _MASK32) ^ xor) * mult) & _MASK32
        pool.append(value ^ (value >> 16))
    for (src, dst), (xor, mult) in zip(_MIX_ORDER, _HASH_IN[_POOL_SIZE:]):
        value = ((pool[src] ^ xor) * mult) & _MASK32
        mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
        pool[dst] = mixed ^ (mixed >> 16)
    words = []
    for k, (xor, mult) in enumerate(_HASH_OUT):
        value = ((pool[k % _POOL_SIZE] ^ xor) * mult) & _MASK32
        words.append(value ^ (value >> 16))
    return words


class Generator:
    """A PCG64 stream with the draw methods grasp uses."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w = _seed_words(seed)
        # Four 64-bit words, little-endian pairs: state seed (high, low), then
        # increment seed (high, low). PCG's seeding steps from state 0 (which
        # gives the increment), adds the state seed and steps again.
        initstate = (w[1] << 96) | (w[0] << 64) | (w[3] << 32) | w[2]
        initseq = (w[5] << 96) | (w[4] << 64) | (w[7] << 32) | w[6]
        self._inc = ((initseq << 1) | 1) & _MASK128
        state = (self._inc + initstate) & _MASK128
        self._state = (state * _PCG_MULT + self._inc) & _MASK128
        self._half: int | None = None  # the buffered high half of a 64-bit output

    def _next64(self) -> int:
        # One LCG step, then XSL-RR: xor the halves, rotate by the top 6 bits.
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        x = ((state >> 64) ^ state) & _MASK64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def random(self, size: tuple[int, int] | None = None):
        """A float in [0, 1), or a rows x cols list of them, row by row."""
        if size is None:
            return (self._next64() >> 11) * _TO_UNIT
        rows, cols = size
        draw = self._next64
        return [[(draw() >> 11) * _TO_UNIT for _ in range(cols)] for _ in range(rows)]

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high)."""
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), by Lemire's method with rejection."""
        span = high - low
        if not 0 < span <= 1 << 64:
            raise ValueError(f"cannot draw from [{low}, {high})")
        if span == 1:
            return low
        bits, draw = (32, self._next32) if span <= 1 << 32 else (64, self._next64)
        low_mask = (1 << bits) - 1
        m = draw() * span
        if m & low_mask < span:
            threshold = ((1 << bits) - span) % span
            while m & low_mask < threshold:
                m = draw() * span
        return low + (m >> bits)

    def permutation(self, n: int) -> list[int]:
        """0 .. n-1 shuffled: Fisher-Yates from the last index down, each
        index drawn from a 32-bit half masked to its bit length, redrawn
        while above the index."""
        items = list(range(n))
        draw = self._next32
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := draw() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]
        return items


def generator(seed: int) -> Generator:
    """A fresh PCG64 generator for the given 64-bit seed."""
    return Generator(seed)
