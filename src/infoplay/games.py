"""Finite two-player placement games: board specs and the win rule.

Cells are numbered row-major.  A always moves first, so the stone counts
of any reachable position satisfy #A - #B in {0, 1}, and A is to move iff
both counts are equal.  Capacity enumeration, self-play and the agents'
tables key a position as one integer, A's cell mask | (B's mask << cells),
and read the win rule from one table, ``line_masks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ValidationError, require_ints

PLAYER_A = "A"
PLAYER_B = "B"

ONGOING = "ongoing"
A_WINS = "A_wins"
B_WINS = "B_wins"
DRAW = "draw"

# A placeholder, not a position class: the benchmark's tracer resolves its
# target ``GameState.key`` through this name and fails if the name is
# absent.  Delete it once the benchmark drops that target.
GameState = None


@dataclass(frozen=True)
class GameSpec:
    """A rows x cols placement game.

    A player who aligns ``k`` stones wins, and a full board is a draw.
    With ``k`` None no line wins: when the board fills the player with
    more stones wins (A, on odd boards) and equal counts draw.
    """

    rows: int
    cols: int
    k: int | None = 3

    def __post_init__(self):
        require_ints(rows=self.rows, cols=self.cols)
        if self.rows < 1 or self.cols < 1:
            raise ValidationError("board must have at least one cell")
        if self.k is not None:
            require_ints(k=self.k)
            if not 1 <= self.k <= max(self.rows, self.cols):
                raise ValidationError(
                    f"k must lie in [1, max(rows, cols)], got {self.k!r}"
                )

    @property
    def cells(self) -> int:
        return self.rows * self.cols

    @property
    def game_id(self) -> str:
        if self.k is not None:
            return f"{self.rows}x{self.cols}-k{self.k}"
        return f"{self.rows}x{self.cols}-full"


def tic_tac_toe() -> GameSpec:
    return GameSpec(rows=3, cols=3, k=3)


@lru_cache(maxsize=None)
def line_masks(game: GameSpec) -> tuple:
    """For each cell, the masks (bit i for cell i) of the k-in-a-row lines
    through it: a move at ``m`` wins iff the mover's cell mask covers one of
    the masks at ``m``.  Every entry is empty when ``k`` is None."""
    if game.k is None:
        return ((),) * game.cells
    k, rows, cols = game.k, game.rows, game.cols
    # a single cell is a line in every direction: count it once
    directions = ((0, 1), (1, 0), (1, 1), (1, -1)) if k > 1 else ((0, 1),)
    lines: list[list] = [[] for _ in range(game.cells)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in directions:
                r_end, c_end = r + (k - 1) * dr, c + (k - 1) * dc
                if r_end < rows and 0 <= c_end < cols:
                    through = range(r * cols + c, r_end * cols + c_end + 1, dr * cols + dc)
                    mask = sum(1 << i for i in through)
                    for i in through:
                        lines[i].append(mask)
    return tuple(tuple(masks) for masks in lines)

