"""Procedural generation of 11x11 benchmark grids.

A grid is instantiated from (distribution, has_obstacles, start_mode,
grid_index, seed). Within one grid the PCG64 stream is consumed in a fixed,
documented order so other implementations can replicate it exactly:

1. distribution parameters (see ``sample_params`` for per-kind draws),
2. the energy field (one 11x11 uniform block for the Bernoulli kinds; the
   spiral walk uses its own generator seeded from ``spiral_noise_seed``),
3. the obstacle field (one 11x11 uniform block, only when obstacles are on),
4. the start cell (one integer draw over the candidate list, row-major).

Obstacles are sampled after energy and override it; the start cell clears
whatever it lands on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

from .rng import Generator, derive_seed, generator

GRID_SIZE = 11
INNER_LO, INNER_HI = 3, 7
OBSTACLE_PROB = 0.1
SPIRAL_STEPS = 110  # noise-free radius reaches 2*pi at i = 110

_GRID_DOMAIN = 1


class DistributionKind(str, Enum):
    RANDOM = "random"
    VERTICAL_SKEW = "vertical-skew"
    HORIZONTAL_SKEW = "horizontal-skew"
    CLUSTER = "cluster"
    SPIRAL = "spiral"


class StartMode(str, Enum):
    INNER = "inner"
    OUTER = "outer"


_KINDS = list(DistributionKind)

# A grid's identity: distribution, obstacles on, start mode, grid index.
GridKey = tuple[DistributionKind, bool, StartMode, int]


@dataclass(frozen=True)
class DistributionParams:
    """Sampled generative parameters; only the fields for one kind are set.

    Skew kinds store only the top/left probability; the opposite half is
    always its complement and is never stored.
    """

    p: float | None = None
    p_top: float | None = None
    p_left: float | None = None
    n_clusters: int | None = None
    centers: tuple[tuple[int, int], ...] | None = None
    spiral_noise_seed: int | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionParams":
        centers = data.get("centers")
        return cls(**{**data, "centers": tuple(map(tuple, centers)) if centers else None})


@dataclass(frozen=True)
class GridSpec:
    """Full instantiation record: template controls plus sampled parameters."""

    distribution: DistributionKind
    params: DistributionParams
    has_obstacles: bool
    start_mode: StartMode
    grid_index: int
    seed: int

    @property
    def grid_id(self) -> str:
        return grid_id((self.distribution, self.has_obstacles, self.start_mode, self.grid_index))


@dataclass
class Grid:
    """An 11x11 environment instance: energy counts, obstacles, start cell."""

    energy: list[list[int]]
    obstacles: list[list[bool]]
    start: tuple[int, int]
    spec: GridSpec | None = None

    def symbol(self, row: int, col: int) -> str:
        """The cell's glyph: "A" for the start, else "O" for an obstacle,
        else "E" for any energy, else a blank."""
        if (row, col) == self.start:
            return "A"
        if self.obstacles[row][col]:
            return "O"
        if self.energy[row][col] > 0:
            return "E"
        return " "

    def obstacle_count(self) -> int:
        return sum(sum(row) for row in self.obstacles)

    def copy_energy(self) -> list[list[int]]:
        return [row[:] for row in self.energy]


def sample_params(kind: DistributionKind, rng: Generator) -> DistributionParams:
    """Draw the per-instance parameters for one distribution kind.

    Draw order per kind: random -> one uniform(0.3, 0.7); skew kinds -> one
    uniform band pick then one uniform within the band; cluster -> one integer
    in {3,4,5} then (row, col) integer pairs per cluster; spiral -> one 63-bit
    integer used to seed the spiral walk.
    """
    if kind is DistributionKind.RANDOM:
        return DistributionParams(p=float(rng.uniform(0.3, 0.7)))
    if kind in (DistributionKind.VERTICAL_SKEW, DistributionKind.HORIZONTAL_SKEW):
        low_band = rng.random() < 0.5
        value = float(rng.uniform(0.3, 0.4) if low_band else rng.uniform(0.6, 0.7))
        if kind is DistributionKind.VERTICAL_SKEW:
            return DistributionParams(p_top=value)
        return DistributionParams(p_left=value)
    if kind is DistributionKind.CLUSTER:
        n = int(rng.integers(3, 6))
        centers = tuple(
            (int(rng.integers(0, GRID_SIZE)), int(rng.integers(0, GRID_SIZE)))
            for _ in range(n)
        )
        return DistributionParams(n_clusters=n, centers=centers)
    if kind is DistributionKind.SPIRAL:
        return DistributionParams(spiral_noise_seed=int(rng.integers(0, 2**63)))
    raise ValueError(f"unknown distribution kind: {kind!r}")


def spiral_point(i: int, eps_theta: float = 0.0, eps_r: float = 0.0) -> tuple[int, int] | None:
    """Cell hit by spiral step i, or None when it falls outside the grid.

    theta = i/10 + eps_theta, r = i / (110 / 2*pi) + eps_r, centered on (5, 5).
    """
    theta = i / 10 + eps_theta
    r = i / (GRID_SIZE * 10 / (2 * math.pi)) + eps_r
    row = math.floor(GRID_SIZE // 2 + r * math.cos(theta))
    col = math.floor(GRID_SIZE // 2 + r * math.sin(theta))
    if 0 <= row < GRID_SIZE and 0 <= col < GRID_SIZE:
        return (row, col)
    return None


def spiral_cells(rng: Generator) -> list[tuple[int, int]]:
    """In-bounds cells of one noisy spiral walk, in step order, repeats kept."""
    cells = []
    for i in range(SPIRAL_STEPS + 1):
        eps_theta = float(rng.uniform(-0.2, 0.2))
        eps_r = float(rng.uniform(-0.2, 0.2))
        point = spiral_point(i, eps_theta, eps_r)
        if point is not None:
            cells.append(point)
    return cells


def place_energy(
    kind: DistributionKind, params: DistributionParams, rng: Generator
) -> list[list[int]]:
    """Build the 11x11 energy mask for the sampled parameters."""
    energy = [[0] * GRID_SIZE for _ in range(GRID_SIZE)]
    if kind in (DistributionKind.RANDOM, DistributionKind.VERTICAL_SKEW,
                DistributionKind.HORIZONTAL_SKEW):
        draws = rng.random((GRID_SIZE, GRID_SIZE))
        for i in range(GRID_SIZE):
            for j in range(GRID_SIZE):
                if kind is DistributionKind.RANDOM:
                    prob = params.p
                elif kind is DistributionKind.VERTICAL_SKEW:
                    prob = params.p_top if i <= 5 else 1.0 - params.p_top
                else:
                    prob = params.p_left if j <= 5 else 1.0 - params.p_left
                if draws[i][j] < prob:
                    energy[i][j] = 1
    elif kind is DistributionKind.CLUSTER:
        for a, b in params.centers:
            for i in range(max(0, a - 1), min(GRID_SIZE, a + 2)):
                for j in range(max(0, b - 1), min(GRID_SIZE, b + 2)):
                    energy[i][j] = 1
    elif kind is DistributionKind.SPIRAL:
        walk_rng = generator(params.spiral_noise_seed)
        for row, col in spiral_cells(walk_rng):
            energy[row][col] = 1
    else:
        raise ValueError(f"unknown distribution kind: {kind!r}")
    return energy


def place_obstacles(
    energy: list[list[int]], rng: Generator
) -> list[list[bool]]:
    """Sample the Bernoulli(0.1) obstacle field, clearing energy underneath."""
    draws = rng.random((GRID_SIZE, GRID_SIZE))
    obstacles = [[False] * GRID_SIZE for _ in range(GRID_SIZE)]
    for i in range(GRID_SIZE):
        for j in range(GRID_SIZE):
            if draws[i][j] < OBSTACLE_PROB:
                obstacles[i][j] = True
                energy[i][j] = 0
    return obstacles


def inner_cells() -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(INNER_LO, INNER_HI + 1)
        for j in range(INNER_LO, INNER_HI + 1)
    ]


def outer_cells() -> list[tuple[int, int]]:
    inner = set(inner_cells())
    return [
        (i, j)
        for i in range(GRID_SIZE)
        for j in range(GRID_SIZE)
        if (i, j) not in inner
    ]


def place_start(
    energy: list[list[int]],
    obstacles: list[list[bool]],
    mode: StartMode,
    rng: Generator,
) -> tuple[int, int]:
    """Pick the start uniformly in the mode's region and clear that cell."""
    candidates = inner_cells() if mode is StartMode.INNER else outer_cells()
    row, col = candidates[int(rng.integers(0, len(candidates)))]
    energy[row][col] = 0
    obstacles[row][col] = False
    return (row, col)


def generate_grid(
    kind: DistributionKind,
    has_obstacles: bool,
    start_mode: StartMode,
    grid_index: int,
    seed: int,
) -> Grid:
    """Instantiate one grid; a pure function of its arguments."""
    rng = generator(seed)
    params = sample_params(kind, rng)
    energy = place_energy(kind, params, rng)
    if has_obstacles:
        obstacles = place_obstacles(energy, rng)
    else:
        obstacles = [[False] * GRID_SIZE for _ in range(GRID_SIZE)]
    start = place_start(energy, obstacles, start_mode, rng)
    spec = GridSpec(
        distribution=kind,
        params=params,
        has_obstacles=has_obstacles,
        start_mode=start_mode,
        grid_index=grid_index,
        seed=seed,
    )
    return Grid(energy=energy, obstacles=obstacles, start=start, spec=spec)


def grid_parts(key: GridKey) -> tuple[int, int, int, int]:
    """A grid's identity as the integers its seeds are derived from: kind
    index, obstacles 0/1, start 0 (inner) or 1 (outer), grid index."""
    kind, has_obstacles, start_mode, grid_index = key
    return (
        _KINDS.index(kind),
        1 if has_obstacles else 0,
        0 if start_mode is StartMode.INNER else 1,
        grid_index,
    )


def grid_id(key: GridKey) -> str:
    """A grid's identity as text: ``dist=<kind>/obs=<0|1>/start=<in|out>/g=<index>``."""
    _, obstacles, start, index = grid_parts(key)
    return f"dist={key[0].value}/obs={obstacles}/start={('in', 'out')[start]}/g={index}"


def grid_seed(
    master_seed: int,
    kind: DistributionKind,
    has_obstacles: bool,
    start_mode: StartMode,
    grid_index: int,
) -> int:
    """Per-grid seed, stable regardless of generation order."""
    key = (kind, has_obstacles, start_mode, grid_index)
    return derive_seed(_GRID_DOMAIN, master_seed, *grid_parts(key))


def grid_keys(indexes: range) -> list[GridKey]:
    """Every grid identity over the given indexes, in benchmark order:
    kinds x obstacles x start modes x indexes."""
    return list(itertools.product(DistributionKind, (False, True), StartMode, indexes))


def build_benchmark(master_seed: int, per_combo: int = 100) -> list[Grid]:
    """All grids for the benchmark, in ``grid_keys`` order."""
    return [
        generate_grid(*key, grid_seed(master_seed, *key)) for key in grid_keys(range(per_combo))
    ]


def grid_to_dict(grid: Grid) -> dict:
    """JSON-ready form of a generated grid (symbols, not counts)."""
    if grid.spec is None:
        raise ValueError("grid has no generation record to serialize")
    spec = grid.spec
    return {
        "id": spec.grid_id,
        "distribution": spec.distribution.value,
        "params": spec.params.to_dict(),
        "has_obstacles": spec.has_obstacles,
        "start_mode": spec.start_mode.value,
        "grid_index": spec.grid_index,
        "seed": spec.seed,
        "start": list(grid.start),
        "cells": [
            [grid.symbol(i, j) for j in range(GRID_SIZE)]
            for i in range(GRID_SIZE)
        ],
    }


def grid_from_dict(data: dict) -> Grid:
    cells = data["cells"]
    if len(cells) != GRID_SIZE or any(len(row) != GRID_SIZE for row in cells):
        raise ValueError("cells must be an 11x11 array")
    energy = [[1 if sym == "E" else 0 for sym in row] for row in cells]
    obstacles = [[sym == "O" for sym in row] for row in cells]
    start = (int(data["start"][0]), int(data["start"][1]))
    spec = GridSpec(
        distribution=DistributionKind(data["distribution"]),
        params=DistributionParams.from_dict(data["params"]),
        has_obstacles=bool(data["has_obstacles"]),
        start_mode=StartMode(data["start_mode"]),
        grid_index=int(data["grid_index"]),
        seed=int(data["seed"]),
    )
    return Grid(energy=energy, obstacles=obstacles, start=start, spec=spec)
