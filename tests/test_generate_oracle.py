"""Every seed-0 grid rebuilt by a second implementation of the generator.

The rebuild below is written from the ``generate.py`` and ``rng.py``
docstrings alone and shares no code with grasp: it has its own SplitMix64
seed chain, and its stream is ``numpy.random.Generator(numpy.random.PCG64(seed))``,
a test-only dependency, so the test skips where numpy is not installed.
"""

import math

import pytest

from grasp.generate import build_benchmark

MASK64 = (1 << 64) - 1
KINDS = ["random", "vertical-skew", "horizontal-skew", "cluster", "spiral"]
INNER = [(row, col) for row in range(3, 8) for col in range(3, 8)]
OUTER = [(row, col) for row in range(11) for col in range(11) if (row, col) not in INNER]


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def chain(*parts):
    h = 0
    for part in parts:
        h = splitmix64(h ^ part)
    return h


def rebuild(np, kind, has_obstacles, inner, seed):
    """(energy, obstacles, start) of one grid, as numpy arrays and a tuple."""
    rng = np.random.Generator(np.random.PCG64(seed))
    energy = np.zeros((11, 11), dtype=int)
    if kind == "cluster":
        count = int(rng.integers(3, 6))
        centers = [(int(rng.integers(0, 11)), int(rng.integers(0, 11))) for _ in range(count)]
        for row, col in centers:
            energy[max(0, row - 1):row + 2, max(0, col - 1):col + 2] = 1
    elif kind == "spiral":
        walk = np.random.Generator(np.random.PCG64(int(rng.integers(0, 2**63))))
        for i in range(111):
            theta = i / 10 + walk.uniform(-0.2, 0.2)
            r = i / (110 / (2 * math.pi)) + walk.uniform(-0.2, 0.2)
            row, col = math.floor(5 + r * math.cos(theta)), math.floor(5 + r * math.sin(theta))
            if 0 <= row < 11 and 0 <= col < 11:
                energy[row, col] = 1
    else:
        if kind == "random":
            prob = rng.uniform(0.3, 0.7)
        else:
            p = rng.uniform(0.3, 0.4) if rng.random() < 0.5 else rng.uniform(0.6, 0.7)
            half = np.where(np.arange(11) <= 5, p, 1.0 - p)
            prob = half[:, None] if kind == "vertical-skew" else half[None, :]
        energy[rng.random((11, 11)) < prob] = 1
    obstacles = np.zeros((11, 11), dtype=bool)
    if has_obstacles:
        obstacles = rng.random((11, 11)) < 0.1
        energy[obstacles] = 0
    candidates = INNER if inner else OUTER
    start = candidates[int(rng.integers(0, len(candidates)))]
    energy[start] = 0
    obstacles[start] = False
    return energy, obstacles, start


def test_every_seed_zero_grid_rebuilds_from_the_docstrings():
    np = pytest.importorskip("numpy")
    built = {
        (grid.spec.distribution.value, grid.spec.has_obstacles,
         grid.spec.start_mode.value, grid.spec.grid_index): grid
        for grid in build_benchmark(0)
    }
    mismatched = []
    for kind_index, kind in enumerate(KINDS):
        for obstacles in (0, 1):
            for start_mode in (0, 1):
                for index in range(100):
                    seed = chain(1, 0, kind_index, obstacles, start_mode, index)
                    energy, blocked, start = rebuild(np, kind, obstacles, start_mode == 0, seed)
                    grid = built[(kind, bool(obstacles), ("inner", "outer")[start_mode], index)]
                    if (grid.spec.seed, grid.energy, grid.obstacles, grid.start) != (
                        seed, energy.tolist(), blocked.tolist(), start
                    ):
                        mismatched.append(grid.spec.grid_id)
    assert len(built) == 2000
    assert mismatched == []
