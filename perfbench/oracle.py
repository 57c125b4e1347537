"""Independent reference for grasp's outputs, written from the README rules.

Nothing here imports grasp. The grid text parser, the instance-id parser, the
episode scorer and the SplitMix64 seed chain are re-derived from the
documented behaviour, so the checks in ``checks.py`` compare the program
against a second implementation rather than against itself.

Rules the scorer follows (README, "The task"): an 11x11 grid, a 20-action
budget, every submitted action consumes one step and pays the step cost
whether or not it changes anything; a blocked move, a move outside the
instance's action set, a TAKE on an empty cell or at the carry limit, a DROP
with empty hands and an unknown token are no-ops. The score is the energy in
the start cell at the end, in tenths, minus 3 tenths per executed step when
the step cost is on.
"""

from __future__ import annotations

SIZE = 11
MAX_STEPS = 20
INNER = range(3, 8)  # the inner 5x5 start square, rows and columns 3..7

KINDS = ("random", "vertical-skew", "horizontal-skew", "cluster", "spiral")
MOVES = {
    "UP": (-1, 0),
    "DOWN": (1, 0),
    "LEFT": (0, -1),
    "RIGHT": (0, 1),
    "UPLEFT": (-1, -1),
    "UPRIGHT": (-1, 1),
    "DOWNLEFT": (1, -1),
    "DOWNRIGHT": (1, 1),
}
MU1_MOVES = ("UP", "DOWN", "LEFT", "RIGHT")
MU2_MOVES = tuple(MOVES)
REVERSE = {
    "UP": "DOWN", "DOWN": "UP", "LEFT": "RIGHT", "RIGHT": "LEFT",
    "UPLEFT": "DOWNRIGHT", "DOWNRIGHT": "UPLEFT",
    "UPRIGHT": "DOWNLEFT", "DOWNLEFT": "UPRIGHT",
}

_MASK64 = (1 << 64) - 1


class OracleError(ValueError):
    """An output the reference cannot read."""


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix(*parts: int) -> int:
    """The README's seed chain: h = splitmix64(h ^ part) over the parts."""
    h = 0
    for part in parts:
        h = _splitmix64((h ^ part) & _MASK64)
    return h


class Instance:
    """One parsed instance id, e.g. dist=cluster/obs=1/start=in/g=7/mu=2/lim=2/cost=0.3."""

    __slots__ = ("text", "dist", "obs", "start", "index", "mu", "limit", "cost_tenths")

    def __init__(self, text: str):
        try:
            fields = dict(part.split("=", 1) for part in text.split("/"))
            self.dist = fields["dist"]
            self.obs = {"0": False, "1": True}[fields["obs"]]
            self.start = {"in": "inner", "out": "outer"}[fields["start"]]
            self.index = int(fields["g"])
            self.mu = {"1": 1, "2": 2}[fields["mu"]]
            self.limit = {"0": None, "2": 2}[fields["lim"]]
            self.cost_tenths = {"0": 0, "0.3": 3}[fields["cost"]]
        except (KeyError, ValueError) as exc:
            raise OracleError(f"unreadable instance id {text!r}") from exc
        if self.dist not in KINDS or len(fields) != 7:
            raise OracleError(f"unreadable instance id {text!r}")
        self.text = text

    @property
    def grid_id(self) -> str:
        return self.text.rsplit("/", 3)[0]

    @property
    def arm(self) -> tuple:
        """Everything the agents see: the grid and the action set."""
        return (self.grid_id, self.mu)


def instance_ids(index_lo: int = 0, index_hi: int = 99) -> list[str]:
    """Every instance id in the README's enumeration order."""
    out = []
    for grid_id in grid_ids(index_lo, index_hi):
        for mu in (1, 2):
            for lim in ("0", "2"):
                for cost in ("0", "0.3"):
                    out.append(f"{grid_id}/mu={mu}/lim={lim}/cost={cost}")
    return out


def grid_ids(index_lo: int = 0, index_hi: int = 99) -> list[str]:
    return [
        f"dist={kind}/obs={obs}/start={start}/g={index}"
        for kind in KINDS
        for obs in (0, 1)
        for start in ("in", "out")
        for index in range(index_lo, index_hi + 1)
    ]


def grid_seed(master_seed: int, grid_id: str) -> int:
    """README: per-grid seed = mix(1, master_seed, distribution, obstacles, start_mode, index)."""
    inst = Instance(grid_id + "/mu=1/lim=0/cost=0")
    return mix(1, master_seed, KINDS.index(inst.dist), int(inst.obs),
               0 if inst.start == "inner" else 1, inst.index)


def record_seed(suite_seed: int, inst: Instance, replicate: int) -> int:
    """README: per-record agent seed = mix(3, suite_seed, grid identity, action_set, replicate)."""
    return mix(3, suite_seed, KINDS.index(inst.dist), int(inst.obs),
               0 if inst.start == "inner" else 1, inst.index, inst.mu, replicate)


class RefGrid:
    """Cell symbols of one grid: energy cells, obstacle cells and the start."""

    __slots__ = ("energy", "obstacles", "start")

    def __init__(self, energy: frozenset, obstacles: frozenset, start: tuple[int, int]):
        self.energy = energy
        self.obstacles = obstacles
        self.start = start


def parse_grid_text(text: str) -> RefGrid:
    """Read the 24-line text form: a header, then separator and row lines.

    A row line is the row number right-aligned in two columns, a bar, then
    eleven cells shaped ' c |' with c one of ' ', 'E', 'O', 'A'.
    """
    lines = text.split("\n")
    rows = lines[2:2 + 2 * SIZE:2]
    separators = lines[1:2 + 2 * SIZE + 1:2]
    if len(rows) != SIZE or any(not line.startswith("  +---") for line in separators):
        raise OracleError("grid text does not have 11 rows between separators")
    energy, obstacles, starts = set(), set(), []
    for i, row in enumerate(rows):
        if not row.startswith(f"{i:>2}|") or len(row) != 3 + 4 * SIZE:
            raise OracleError(f"malformed grid row {i}: {row!r}")
        for j in range(SIZE):
            symbol = row[4 + 4 * j]
            if symbol == "E":
                energy.add((i, j))
            elif symbol == "O":
                obstacles.add((i, j))
            elif symbol == "A":
                starts.append((i, j))
            elif symbol != " ":
                raise OracleError(f"unknown cell symbol {symbol!r} in row {i}")
    if len(starts) != 1:
        raise OracleError(f"grid has {len(starts)} start cells")
    return RefGrid(frozenset(energy), frozenset(obstacles), starts[0])


def grid_from_prompt(user_message: str) -> RefGrid:
    """The grid embedded in a user prompt, located by its header line."""
    lines = user_message.split("\n")
    for k, line in enumerate(lines):
        if line.split() == [str(j) for j in range(SIZE)]:
            return parse_grid_text("\n".join(lines[k:k + 2 + 2 * SIZE + 1]))
    raise OracleError("no grid in prompt")


class Episode:
    __slots__ = ("length", "score_tenths", "energy_at_start", "final_pos", "effects")

    def __init__(self, length, score_tenths, energy_at_start, final_pos, effects):
        self.length = length
        self.score_tenths = score_tenths
        self.energy_at_start = energy_at_start
        self.final_pos = final_pos
        self.effects = effects


def play(grid: RefGrid, inst: Instance, actions: list[str]) -> Episode:
    """Score an action list under the instance's constraints."""
    allowed = MU1_MOVES if inst.mu == 1 else MU2_MOVES
    cells = {cell: 1 for cell in grid.energy}
    pos = grid.start
    carried = 0
    effects = []
    for action in actions[:MAX_STEPS]:
        applied = False
        if action in MOVES:
            if action in allowed:
                row, col = pos[0] + MOVES[action][0], pos[1] + MOVES[action][1]
                if 0 <= row < SIZE and 0 <= col < SIZE and (row, col) not in grid.obstacles:
                    pos = (row, col)
                    applied = True
        elif action == "TAKE":
            if cells.get(pos, 0) >= 1 and (inst.limit is None or carried < inst.limit):
                cells[pos] -= 1
                carried += 1
                applied = True
        elif action == "DROP":
            if carried:
                cells[pos] = cells.get(pos, 0) + carried
                carried = 0
                applied = True
        effects.append("applied" if applied else "noop")
    length = len(effects)
    at_start = cells.get(grid.start, 0)
    return Episode(length, 10 * at_start - inst.cost_tenths * length, at_start, pos, effects)
