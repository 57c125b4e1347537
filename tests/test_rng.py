"""The pure-Python PCG64 stream against the reference generator, draw for draw.

The reference is ``numpy.random.Generator(numpy.random.PCG64(seed))``, a
test-only dependency: these tests skip where numpy is not installed, except
the pinned draws, which hold the stream without it.
"""

import random

import pytest

from grasp.rng import Generator, generator

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
SEEDS = EDGE_SEEDS + [random.Random(n).getrandbits(64) for n in range(300)]
# (low, high) pairs: grasp's own calls, then ranges that reject often in the
# 32-bit and 64-bit paths, and the widest of each path.
RANGES = [(3, 6), (0, 11), (0, 4), (0, 8), (0, 25), (0, 96), (0, 2**63),
          (0, 2**31 + 1), (0, 2**32), (-5, 7), (0, 2**32 + 1), (0, 3 * 2**62), (0, 2**64)]


@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


def _pair(np, seed):
    return Generator(seed), np.random.Generator(np.random.PCG64(seed))


def _reference_int(np, ref, low, high):
    # The reference draws int64 by default; ranges past 2**63 need uint64,
    # which runs the same bounded-integer routine.
    dtype = np.int64 if high <= 2**63 else np.uint64
    return int(ref.integers(low, high, dtype=dtype))


def test_random_and_uniform_match(np):
    for seed in SEEDS:
        ours, ref = _pair(np, seed)
        assert [ours.random() for _ in range(5)] == [ref.random() for _ in range(5)]
        assert ours.uniform(0.3, 0.7) == ref.uniform(0.3, 0.7)
        assert ours.uniform(-0.2, 0.2) == ref.uniform(-0.2, 0.2)


def test_random_field_matches(np):
    for seed in SEEDS:
        ours, ref = _pair(np, seed)
        field = ours.random((11, 11))
        assert field == ref.random((11, 11)).tolist()
        assert len(field) == 11 and all(len(row) == 11 for row in field)
        assert ours.random() == ref.random()


def test_integers_match_over_every_range(np):
    for seed in SEEDS:
        ours, ref = _pair(np, seed)
        for low, high in RANGES:
            for _ in range(3):
                assert ours.integers(low, high) == _reference_int(np, ref, low, high), (
                    seed, low, high)


def test_permutation_matches(np):
    for seed in SEEDS:
        ours, ref = _pair(np, seed)
        for n in (0, 1, 2, 4, 8, 17):
            assert ours.permutation(n) == ref.permutation(n).tolist(), (seed, n)


def test_interleaved_draws_keep_the_buffered_half(np):
    # A 32-bit draw buffers the high half of its 64-bit output; random() and
    # the 64-bit paths must leave it pending for the next 32-bit draw.
    for seed in SEEDS:
        ours, ref = _pair(np, seed)
        for round_ in range(4):
            assert ours.integers(0, 8) == ref.integers(0, 8)
            assert ours.random() == ref.random()
            assert ours.integers(0, 2**63) == ref.integers(0, 2**63)
            assert ours.uniform(0.6, 0.7) == ref.uniform(0.6, 0.7)
            assert ours.integers(0, 11) == ref.integers(0, 11)
            assert ours.permutation(4 + round_) == ref.permutation(4 + round_).tolist()
            assert ours.random((2, 3)) == ref.random((2, 3)).tolist()


class CountingGenerator(Generator):
    """Counts the 32-bit halves and the 64-bit outputs drawn, each apart."""

    def __init__(self, seed):
        super().__init__(seed)
        self.drawn = {32: 0, 64: 0}

    def _next32(self):
        self.drawn[32] += 1
        return super()._next32()

    def _next64(self):
        self.drawn[64] += 1
        return super()._next64()


def test_rejection_paths_are_taken(np):
    # Lemire rejects about half the halves for 2**31 + 1 and a quarter of the
    # outputs for 3 * 2**62; permutation(8) masks 4, 5 and 6 with 7 and 2
    # with 3. The retry loops must run, and the streams agree after them.
    cases = [
        ("2**31 + 1", 32, 4, lambda rng, ints: [ints(rng, 0, 2**31 + 1) for _ in range(4)]),
        ("3 * 2**62", 64, 4, lambda rng, ints: [ints(rng, 0, 3 * 2**62) for _ in range(4)]),
        ("permutation(8)", 32, 7, lambda rng, ints: [int(i) for i in rng.permutation(8)]),
    ]

    def our_int(rng, low, high):
        return rng.integers(low, high)

    def ref_int(rng, low, high):
        return _reference_int(np, rng, low, high)

    for name, bits, minimum, draw in cases:
        drawn = 0
        for seed in SEEDS:
            ours, ref = CountingGenerator(seed), np.random.Generator(np.random.PCG64(seed))
            assert draw(ours, our_int) == draw(ref, ref_int), (name, seed)
            drawn += ours.drawn[bits]
            assert ours.integers(0, 11) == ref.integers(0, 11)
            assert ours.random() == ref.random()
        assert drawn > 1.1 * minimum * len(SEEDS), (name, drawn)


def test_pinned_draws_seed_0():
    rng = generator(0)
    assert rng.random() == 0.6369616873214543
    assert rng.integers(0, 2**63) == 2488343231644625808
    assert rng.permutation(8) == [4, 6, 2, 7, 3, 5, 1, 0]
    assert rng.integers(3, 6) == 4


def test_rejects_out_of_range_seeds_and_empty_ranges():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            Generator(seed)
    rng = generator(0)
    for low, high in ((5, 5), (5, 4), (0, 2**64 + 1)):
        with pytest.raises(ValueError):
            rng.integers(low, high)
    assert rng.integers(7, 8) == 7
