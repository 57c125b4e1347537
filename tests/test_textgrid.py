import pytest

from conftest import fixture_text, grid_from_text, make_grid
from grasp.generate import DistributionKind, StartMode, generate_grid
from grasp.textgrid import HEADER, SEPARATOR, render

GOLDEN_GRIDS = ["figure_path", "random_p052", "vskew_p038", "prompt_example"]


@pytest.mark.parametrize("name", GOLDEN_GRIDS)
def test_golden_round_trip_bytes(name):
    text = fixture_text("grids", f"{name}.txt")
    assert render(grid_from_text(text)) == text


def test_golden_figure_grid_content():
    grid = grid_from_text(fixture_text("grids", "figure_path.txt"))
    assert grid.start == (7, 4)
    assert grid.energy[0][2] == 1
    assert grid.obstacles[4][0]
    assert sum(map(sum, grid.energy)) == 34
    assert grid.obstacle_count() == 7


def test_empty_grid_exact_bytes():
    expected_lines = [HEADER]
    for i in range(11):
        expected_lines.append(SEPARATOR)
        cells = " A |" + "   |" * 10 if i == 0 else "   |" * 11
        expected_lines.append(f"{i:>2}|{cells}")
    expected_lines.append(SEPARATOR)
    expected = "\n".join(expected_lines) + "\n"
    assert render(make_grid(start=(0, 0))) == expected


def test_header_and_separator_literals():
    assert HEADER == "    0   1   2   3   4   5   6   7   8   9   10 "
    assert SEPARATOR == "  +---+---+---+---+---+---+---+---+---+---+---+"


def test_all_lines_same_length():
    grid = generate_grid(DistributionKind.SPIRAL, True, StartMode.OUTER, 0, 5)
    lines = render(grid).split("\n")[:-1]
    assert len(lines) == 24
    assert {len(line) for line in lines} == {47}


def test_round_trip_generated_grids():
    for kind in DistributionKind:
        for seed in range(10):
            grid = generate_grid(kind, seed % 2 == 0, StartMode.INNER, 0, seed)
            back = grid_from_text(render(grid))
            assert back.energy == grid.energy
            assert back.obstacles == grid.obstacles
            assert back.start == grid.start


def test_multi_unit_cell_still_renders_E():
    grid = make_grid(start=(5, 5), energy=[(2, 3, 4)])
    assert render(grid).split("\n")[6] == " 2|   |   |   | E |   |   |   |   |   |   |   |"


def test_start_renders_A_even_over_cleared_cell():
    text = render(make_grid(start=(10, 10)))
    assert text.split("\n")[22].endswith("| A |")
