import math

import pytest

from conftest import make_grid
from grasp.generate import (
    GRID_SIZE,
    DistributionKind,
    DistributionParams,
    StartMode,
    build_benchmark,
    generate_grid,
    grid_from_dict,
    grid_id,
    grid_parts,
    grid_seed,
    grid_to_dict,
    inner_cells,
    outer_cells,
    place_energy,
    sample_params,
    spiral_cells,
    spiral_point,
)
from grasp.rng import derive_seed, generator
from grasp.textgrid import render


def test_sample_params_random_range():
    for seed in range(200):
        params = sample_params(DistributionKind.RANDOM, generator(seed))
        assert 0.3 <= params.p <= 0.7


def test_sample_params_skew_bands():
    low = high = 0
    for seed in range(400):
        params = sample_params(DistributionKind.VERTICAL_SKEW, generator(seed))
        p = params.p_top
        assert (0.3 <= p <= 0.4) or (0.6 <= p <= 0.7)
        if p <= 0.4:
            low += 1
        else:
            high += 1
    # both bands must come up, roughly evenly
    assert low > 120 and high > 120


def test_sample_params_skew_stores_one_side_only():
    params = sample_params(DistributionKind.HORIZONTAL_SKEW, generator(7))
    assert params.p_left is not None
    assert params.p_top is None and params.p is None
    assert "p_right" not in params.to_dict()


def test_sample_params_cluster():
    seen = set()
    for seed in range(300):
        params = sample_params(DistributionKind.CLUSTER, generator(seed))
        assert params.n_clusters in (3, 4, 5)
        assert len(params.centers) == params.n_clusters
        assert all(0 <= a <= 10 and 0 <= b <= 10 for a, b in params.centers)
        seen.add(params.n_clusters)
    assert seen == {3, 4, 5}


def test_sample_params_deterministic():
    first = sample_params(DistributionKind.CLUSTER, generator(42))
    second = sample_params(DistributionKind.CLUSTER, generator(42))
    assert first == second


def test_vertical_skew_degenerate_top():
    # p_top = 1.0 forces rows 0..5 full and rows 6..10 empty
    params = DistributionParams(p_top=1.0)
    energy = place_energy(DistributionKind.VERTICAL_SKEW, params, generator(0))
    for i in range(GRID_SIZE):
        for j in range(GRID_SIZE):
            assert energy[i][j] == (1 if i <= 5 else 0)


def test_horizontal_skew_degenerate_left():
    params = DistributionParams(p_left=1.0)
    energy = place_energy(DistributionKind.HORIZONTAL_SKEW, params, generator(0))
    for i in range(GRID_SIZE):
        for j in range(GRID_SIZE):
            assert energy[i][j] == (1 if j <= 5 else 0)


def test_cluster_corner_clipped():
    params = DistributionParams(n_clusters=1, centers=((0, 0),))
    energy = place_energy(DistributionKind.CLUSTER, params, generator(0))
    filled = {(i, j) for i in range(GRID_SIZE) for j in range(GRID_SIZE) if energy[i][j]}
    assert filled == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_cluster_energy_only_in_neighborhoods():
    for seed in range(50):
        grid = generate_grid(DistributionKind.CLUSTER, False, StartMode.INNER, 0, seed)
        allowed = set()
        for a, b in grid.spec.params.centers:
            for i in range(max(0, a - 1), min(GRID_SIZE, a + 2)):
                for j in range(max(0, b - 1), min(GRID_SIZE, b + 2)):
                    allowed.add((i, j))
        for i in range(GRID_SIZE):
            for j in range(GRID_SIZE):
                if grid.energy[i][j]:
                    assert (i, j) in allowed
                # outside clusters there is never energy; inside it may only
                # be missing where the start landed
                if (i, j) in allowed and not grid.energy[i][j]:
                    assert (i, j) == grid.start


def test_spiral_point_center():
    assert spiral_point(0) == (5, 5)


def test_spiral_point_i55():
    # theta = 5.5, r = pi: floor(5 + pi*cos 5.5), floor(5 + pi*sin 5.5)
    assert spiral_point(55) == (7, 2)
    assert spiral_point(55) == (
        math.floor(5 + math.pi * math.cos(5.5)),
        math.floor(5 + math.pi * math.sin(5.5)),
    )


def test_spiral_cells_deterministic():
    assert spiral_cells(generator(9)) == spiral_cells(generator(9))


def test_spiral_cells_in_bounds_near_center_start():
    # with noise the first step can floor one cell off center, never more
    cells = spiral_cells(generator(3))
    assert cells
    assert cells[0][0] in (4, 5) and cells[0][1] in (4, 5)
    assert all(0 <= r < GRID_SIZE and 0 <= c < GRID_SIZE for r, c in cells)


def test_spiral_energy_matches_recorded_walk():
    for seed in range(30):
        grid = generate_grid(DistributionKind.SPIRAL, False, StartMode.OUTER, 0, seed)
        walk = spiral_cells(generator(grid.spec.params.spiral_noise_seed))
        expected = set(walk)
        actual = {
            (i, j)
            for i in range(GRID_SIZE)
            for j in range(GRID_SIZE)
            if grid.energy[i][j]
        }
        assert actual == expected - {grid.start}


def test_obstacle_fraction_near_one_tenth():
    total = cells = 0
    for seed in range(3000):
        grid = generate_grid(DistributionKind.RANDOM, True, StartMode.INNER, 0, seed)
        total += grid.obstacle_count()
        cells += GRID_SIZE * GRID_SIZE
    assert abs(total / cells - 0.1) < 0.01


def test_no_obstacles_when_disabled():
    for seed in range(50):
        grid = generate_grid(DistributionKind.RANDOM, False, StartMode.INNER, 0, seed)
        assert grid.obstacle_count() == 0


def test_start_regions():
    inner = set(inner_cells())
    assert len(inner) == 25
    assert len(outer_cells()) == 96
    for seed in range(300):
        g_in = generate_grid(DistributionKind.RANDOM, True, StartMode.INNER, 0, seed)
        g_out = generate_grid(DistributionKind.RANDOM, True, StartMode.OUTER, 0, seed)
        assert g_in.start in inner
        assert g_out.start not in inner


def test_start_cell_cleared():
    for seed in range(200):
        grid = generate_grid(DistributionKind.RANDOM, True, StartMode.OUTER, 0, seed)
        r, c = grid.start
        assert grid.energy[r][c] == 0
        assert not grid.obstacles[r][c]


def test_cell_symbol_precedence():
    # start over obstacle over energy over blank, whatever the cell holds
    grid = make_grid(
        start=(0, 0),
        energy=[(0, 0), (1, 1), (2, 2, 2)],
        obstacles=[(0, 0), (1, 1)],
    )
    assert grid.symbol(1, 1) == "O"
    assert grid.symbol(0, 0) == "A"
    assert grid.symbol(2, 2) == "E"
    assert grid.symbol(3, 3) == " "


def test_structural_invariants():
    for kind in DistributionKind:
        for seed in (1, 2):
            grid = generate_grid(kind, True, StartMode.INNER, 0, seed)
            symbols = [grid.symbol(i, j) for i in range(GRID_SIZE) for j in range(GRID_SIZE)]
            assert len(symbols) == 121
            assert symbols.count("A") == 1
            for i in range(GRID_SIZE):
                for j in range(GRID_SIZE):
                    assert grid.energy[i][j] in (0, 1)
                    assert not (grid.obstacles[i][j] and grid.energy[i][j])


def test_skew_densities_within_three_sigma():
    count = expected = variance = 0.0
    for seed in range(1000):
        grid = generate_grid(DistributionKind.VERTICAL_SKEW, False, StartMode.OUTER, 0, seed)
        p = grid.spec.params.p_top
        count += sum(grid.energy[i][j] for i in range(6) for j in range(GRID_SIZE))
        # the start clears one top cell whenever it lands in rows 0..5
        top_cells = 66 - (1 if grid.start[0] <= 5 else 0)
        expected += p * top_cells
        variance += top_cells * p * (1 - p)
    sigma = variance**0.5
    assert abs(count - expected) <= 3 * sigma


def test_build_benchmark_counts():
    grids = build_benchmark(0, per_combo=1)
    assert len(grids) == 20
    ids = {g.spec.grid_id for g in grids}
    assert len(ids) == 20


def test_build_benchmark_deterministic():
    first = build_benchmark(7, per_combo=1)
    second = build_benchmark(7, per_combo=1)
    assert [render(g) for g in first] == [render(g) for g in second]


def test_grid_seed_stable_across_order():
    direct = grid_seed(5, DistributionKind.SPIRAL, True, StartMode.OUTER, 42)
    again = grid_seed(5, DistributionKind.SPIRAL, True, StartMode.OUTER, 42)
    assert direct == again
    assert direct != grid_seed(5, DistributionKind.SPIRAL, True, StartMode.OUTER, 43)
    assert direct != grid_seed(6, DistributionKind.SPIRAL, True, StartMode.OUTER, 42)


def test_grid_identity_encoding():
    key = (DistributionKind.CLUSTER, True, StartMode.OUTER, 42)
    assert grid_parts(key) == (3, 1, 1, 42)
    assert grid_parts((DistributionKind.RANDOM, False, StartMode.INNER, 0)) == (0, 0, 0, 0)
    assert grid_id(key) == "dist=cluster/obs=1/start=out/g=42"
    assert grid_seed(7, *key) == derive_seed(1, 7, 3, 1, 1, 42)
    grid = generate_grid(*key, grid_seed(7, *key))
    assert grid.spec.grid_id == grid_id(key)


def test_derive_seed_order_sensitive():
    assert derive_seed(1, 2) != derive_seed(2, 1)


def test_grid_json_roundtrip():
    for kind in DistributionKind:
        grid = generate_grid(kind, True, StartMode.INNER, 3, 99)
        back = grid_from_dict(grid_to_dict(grid))
        assert back.energy == grid.energy
        assert back.obstacles == grid.obstacles
        assert back.start == grid.start
        assert back.spec == grid.spec


def test_grid_json_rejects_wrong_shape():
    grid = generate_grid(DistributionKind.RANDOM, False, StartMode.INNER, 0, 1)
    data = grid_to_dict(grid)
    data["cells"] = data["cells"][:10]
    with pytest.raises(ValueError):
        grid_from_dict(data)


def test_parsed_grid_has_no_spec_to_serialize():
    with pytest.raises(ValueError):
        grid_to_dict(make_grid())
