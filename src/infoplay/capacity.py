"""Capacity bounds for placement games: log-factorial move-ordering bounds,
exhaustive reachable-state enumeration, and the information-dominance test.

Enumeration is one layer pass, ``_layers``: it yields each ply's sorted
position keys and won mask, built from the previous ply's ongoing keys in
chunks of bounded size.

The move-ordering bound log2(cells!) and the labeling bound
cells*log2(3) (each cell empty, A or B) are two distinct readings of "possible states of the
board"; both are reported side by side rather than conflated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import MutualInfo
from .errors import ResourceCapError, ValidationError
from .games import GameSpec, K_IN_A_ROW, line_masks

DEFAULT_STATE_CAP = 100_000_000
# children built, canonicalised and sorted at once by _layers
_CHUNK_CHILDREN = 1 << 20

A_DOMINATES = "A_dominates"
B_DOMINATES = "B_dominates"
BALANCED = "balanced"


@dataclass(frozen=True)
class EnumerationResult:
    count: int
    log2_count: float


@dataclass(frozen=True)
class CapacityBound:
    """Bounds in bits on the information extractable from one game.

    ``exact_log2_states`` is present only when exhaustive enumeration
    succeeded under the state cap.
    """

    game_id: str
    upper_move_orderings: float
    upper_cell_labelings: float
    exact_log2_states: float | None = None
    exact_states: int | None = None


@dataclass(frozen=True)
class Dominance:
    verdict: str
    i_ba: MutualInfo
    i_ab: MutualInfo
    tolerance: float


def log2_factorial(n: int) -> float:
    """log2(n!) from the log-gamma function, in constant memory and to
    within a few ulp."""
    if n < 0 or int(n) != n:
        raise ValidationError(f"n must be a non-negative integer, got {n!r}")
    return math.lgamma(int(n) + 1) / math.log(2)


def _symmetry_maps(game: GameSpec) -> list[tuple]:
    """Index permutations of the board symmetry group (rectangle: 4,
    square: 8)."""
    idx = np.arange(game.cells).reshape(game.rows, game.cols)
    grids = [idx, idx[::-1, :], idx[:, ::-1], idx[::-1, ::-1]]
    if game.rows == game.cols:
        t = idx.T
        grids += [t, t[::-1, :], t[:, ::-1], t[::-1, ::-1]]
    return [tuple(g.ravel()) for g in grids]


def _symmetry_tables(game: GameSpec, dtype) -> list[list[np.ndarray]]:
    """For each board symmetry, one 256-entry table per byte of a position
    key: OR-ing ``per_byte[c // 8][(key >> c) & 255]`` over the byte
    offsets c gives the key of the image.  Image cell i holds the stone of
    cell ``perm[i]``, in both halves of the key."""
    n = game.cells
    tables = []
    for perm in _symmetry_maps(game):
        dst = np.argsort(perm).tolist()  # cell j moves to cell dst[j]
        dst += [n + i for i in dst]
        per_byte = []
        for c in range(0, 2 * n, 8):
            table = [0]
            for b in range(c, c + 8):
                bit = 1 << dst[b] if b < 2 * n else 0
                table += [t | bit for t in table]
            per_byte.append(np.array(table, dtype=dtype))
        tables.append(per_byte)
    return tables


def enumerate_reachable_states(
    game: GameSpec,
    max_states: int = DEFAULT_STATE_CAP,
    symmetry_reduction: bool = False,
) -> EnumerationResult:
    """Count the distinct positions (terminal ones included) reachable from
    the empty board under legal play: the empty board plus the layers of
    ``_layers``.

    Symmetry reduction quotients by the board symmetry group and is off by
    default.  ``max_states`` bounds memory as well as the count, and
    ``ResourceCapError`` is raised exactly when the full count exceeds it
    (see ``_layers``).
    """
    layers = _layers(game, max_states, symmetry_reduction)
    count = 1 + sum(layer.size for layer, _ in layers)
    return EnumerationResult(count=count, log2_count=math.log2(count))


def _layers(game: GameSpec, max_states: int, symmetry_reduction: bool):
    """Yield, for plies 1, 2, ..., the sorted distinct keys of the positions
    after that ply and the mask of those won by its mover.

    Every move adds one stone, so the positions after ply p come only from
    the ongoing positions after ply p - 1, and A places on the even plies.
    A position is one key, A's cell mask OR B's mask shifted up by the cell
    count: a ``uint64`` when both masks fit in 64 bits, else a Python int
    in an ``object`` array.  A key with s stones has n - s empty cells, so
    n - s passes of ``low = -empty & empty`` (its lowest empty cell; uint64
    wraps) give all its children.  The frontier is cut into chunks of at
    most ``_CHUNK_CHILDREN`` children.  Each chunk is canonicalised (under
    symmetry reduction, the least key among a child's images), sorted,
    deduplicated and stripped of the keys already in the layer so far,
    which is a stack of disjoint sorted runs: a run is merged into the one
    below while that is under twice its size, and all after the last
    chunk, so a key is copied O(log chunks) times.  Only the new stone can
    complete a line, so a position is won when the mover's mask covers
    one of the line masks of ``games.line_masks`` (the rules' table); the
    other positions with an empty cell are the next frontier.

    The cap bounds memory to a few layer-sized arrays and one chunk.
    Before ply 0 the closed-form ``_reachable_lower_bound`` refuses a board
    certain to exceed it (under symmetry reduction an orbit holds at most
    one position per group element).  A child has at most one parent per stone of the
    mover (times the group order under symmetry reduction), which bounds a
    layer's distinct children from below: a layer certain to push the count
    past the cap is refused before it is built.  Otherwise the count so far
    is checked after every chunk.
    """
    n = game.cells
    group = (8 if game.rows == game.cols else 4) if symmetry_reduction else 1
    exceeded = f"reachable-state enumeration exceeded the cap of {max_states} states"
    if _reachable_lower_bound(game, max_states * group) > max_states * group:
        raise ResourceCapError(exceeded)
    dtype = np.uint64 if 2 * n <= 64 else object
    tables = _symmetry_tables(game, dtype) if symmetry_reduction else []
    lines = {line for through in line_masks(game) for line in through}
    frontier = np.zeros(1, dtype=dtype)
    count = 1
    for ply in range(n):
        if not frontier.size:
            break
        free = n - ply
        # the mover holds (ply + 2) // 2 stones in each child
        least_children = -(-frontier.size * free // ((ply + 2) // 2 * group))
        if count + least_children > max_states:
            raise ResourceCapError(exceeded)
        shift = n * (ply % 2)  # A on the even plies, in the low half
        step = max(1, _CHUNK_CHILDREN // free)
        runs = []  # the layer so far
        for start in range(0, frontier.size, step):
            keys = frontier[start:start + step]
            empty = ~(keys | keys >> n) & (1 << n) - 1
            children = np.empty((free, keys.size), dtype=dtype)
            for row in children:
                low = -empty & empty
                np.bitwise_or(keys, low << shift, out=row)
                empty ^= low
            children = children.ravel()
            if tables:
                key_bytes = [(children >> c & 255).astype(np.uint8) for c in range(0, 2 * n, 8)]
                for per_byte in tables:
                    image = per_byte[0][key_bytes[0]]
                    for table, byte in zip(per_byte[1:], key_bytes[1:]):
                        image |= table[byte]
                    np.minimum(children, image, out=children)
            children.sort()
            children = children[np.concatenate(([True], children[1:] != children[:-1]))]
            for run in runs:
                at = np.searchsorted(run, children)
                children = children[run[np.minimum(at, run.size - 1)] != children]
            count += children.size
            if count > max_states:
                raise ResourceCapError(exceeded)
            if children.size:
                runs.append(children)
            last = start + step >= frontier.size
            while len(runs) > 1 and (last or runs[-2].size < 2 * runs[-1].size):
                runs[-2:] = [np.concatenate(runs[-2:])]
                runs[-1].sort(kind="stable")  # timsort: one merge of two runs
        layer = runs[0]
        won = np.zeros(layer.size, dtype=bool)
        for line in lines:
            mask = line << shift
            won |= (layer & mask) == mask
        yield layer, won
        frontier = layer[~won]


def _reachable_lower_bound(game: GameSpec, cap: int) -> int:
    """A cheap provable lower bound on the reachable-state count, used to
    refuse enumeration that is certain to blow the cap; the sum stops as
    soon as it exceeds ``cap``.

    No game can terminate before ply 2k-1 (k_in_a_row) or before the board
    fills (board_full_scoring), so every balanced placement of p stones is
    reachable for p below that horizon.
    """
    if game.win_condition == K_IN_A_ROW:
        horizon = min(2 * game.k - 2, game.cells)
    else:
        horizon = game.cells
    total = 0
    for p in range(horizon + 1):
        total += math.comb(game.cells, p) * math.comb(p, (p + 1) // 2)
        if total > cap:
            return total
    return total


def capacity_bounds(game: GameSpec, max_states: int = DEFAULT_STATE_CAP) -> CapacityBound:
    """Move-ordering and labeling upper bounds, plus the exact reachable
    state count whenever enumeration fits under ``max_states``."""
    orderings = log2_factorial(game.cells)
    labelings = game.cells * math.log2(3)
    exact_bits = None
    exact_states = None
    try:
        res = enumerate_reachable_states(game, max_states=max_states)
    except ResourceCapError:
        pass
    else:
        exact_bits = res.log2_count
        exact_states = res.count
    return CapacityBound(
        game_id=game.game_id,
        upper_move_orderings=orderings,
        upper_cell_labelings=labelings,
        exact_log2_states=exact_bits,
        exact_states=exact_states,
    )


def dominance_check(i_ba: MutualInfo, i_ab: MutualInfo, tolerance: float = 1e-3) -> Dominance:
    """Which agent decodes more of its opponent: A dominates iff
    I_{B-A} - I_{A-B} exceeds the tolerance, symmetrically for B."""
    if i_ba.unit != i_ab.unit:
        raise ValidationError(
            f"MI unit mismatch: {i_ba.unit!r} vs {i_ab.unit!r}"
        )
    if tolerance < 0:
        raise ValidationError("tolerance must be >= 0")
    diff = i_ba.value - i_ab.value
    if diff > tolerance:
        verdict = A_DOMINATES
    elif diff < -tolerance:
        verdict = B_DOMINATES
    else:
        verdict = BALANCED
    return Dominance(verdict=verdict, i_ba=i_ba, i_ab=i_ab, tolerance=tolerance)


def capacity_csv(entries, seed: int | None = None) -> str:
    """CSV report over (CapacityBound) entries with the standard columns."""
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append("game_id,states,log2_states,bound_orderings_bits,bound_labelings_bits")
    for bound in entries:
        states = "" if bound.exact_states is None else str(bound.exact_states)
        log2s = "" if bound.exact_log2_states is None else f"{bound.exact_log2_states:.10g}"
        lines.append(
            f"{bound.game_id},{states},{log2s},"
            f"{bound.upper_move_orderings:.10g},{bound.upper_cell_labelings:.10g}"
        )
    return "\n".join(lines) + "\n"
