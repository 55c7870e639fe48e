"""Capacity bounds for placement games: log-factorial move-ordering bounds
and exhaustive reachable-state enumeration.

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

from ._table import csv_text
from .errors import ResourceCapError, ValidationError, require_ints
from .games import GameSpec, line_masks

DEFAULT_STATE_CAP = 100_000_000
# children built, deduplicated and canonicalised at once by _layers (a
# chunk of 32-bit keys takes 4 MiB)
_CHUNK_CHILDREN = 1 << 20


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


def log2_factorial(n: int) -> float:
    """log2(n!) from the log-gamma function, in constant memory and to
    within a few ulp."""
    require_ints(n=n)
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    return math.lgamma(n + 1) / math.log(2)


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
    default.  ``max_states``, an int of at least 1, bounds memory as well
    as the count, and ``ResourceCapError`` is raised exactly when the full
    count exceeds it (see ``_layers``).
    """
    require_ints(max_states=max_states)
    if max_states < 1:  # the empty board alone is one state
        raise ValidationError(f"max_states must be at least 1, got {max_states}")
    layers = _layers(game, max_states, symmetry_reduction)
    count = 1 + sum(layer.size for layer, _ in layers)
    return EnumerationResult(count=count, log2_count=math.log2(count))


def _layers(game: GameSpec, max_states: int, symmetry_reduction: bool):
    """Yield, for plies 1, 2, ..., the sorted distinct keys of the positions
    after that ply and the mask of those won by its mover.

    Every move adds one stone, so the positions after ply p come only from
    the ongoing positions after ply p - 1, and A places on the even plies.
    A position is one key, A's cell mask OR B's mask shifted up by the cell
    count: a ``uint32`` when both masks fit in 32 bits (up to 16 cells), a
    ``uint64`` when they fit in 64, else a Python int in an ``object``
    array; every constant fits the key width, so numpy keeps the arithmetic
    in it.  A key with s stones has n - s empty cells, so n - s passes of
    ``low = -empty & empty`` (its lowest empty cell; unsigned negation
    wraps) give all its children.  The frontier is cut into chunks of at
    most ``_CHUNK_CHILDREN`` children.  Each chunk is sorted and
    deduplicated; under symmetry reduction its distinct children are then
    canonicalised (each to the least key among its images; equal keys have
    equal images) and sorted and deduplicated again.  The chunk is then
    stripped of the keys already in the layer so far, which is a stack of
    disjoint sorted runs: a run is merged into the one below while that is
    under twice its size, and all after the last chunk, so a key is copied
    O(log chunks) times.  Only the new stone can complete a line, so a
    position is won when the mover's mask covers one of the line masks of
    ``games.line_masks`` (the rules' table); the other positions with an
    empty cell are the next frontier.

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
    dtype = np.uint32 if 2 * n <= 32 else np.uint64 if 2 * n <= 64 else object
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
            children = _distinct(children.ravel())
            if tables:
                key_bytes = [(children >> c & 255).astype(np.uint8) for c in range(0, 2 * n, 8)]
                for per_byte in tables:
                    image = per_byte[0][key_bytes[0]]
                    for table, byte in zip(per_byte[1:], key_bytes[1:]):
                        image |= table[byte]
                    np.minimum(children, image, out=children)
                children = _distinct(children)
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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return a copy without repeats."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))]


def _reachable_lower_bound(game: GameSpec, cap: int) -> int:
    """A cheap provable lower bound on the reachable-state count, used to
    refuse enumeration that is certain to blow the cap; the sum stops as
    soon as it exceeds ``cap``.

    No game can terminate before ply 2k-1, or before the board fills when
    ``k`` is None, so every balanced placement of p stones is reachable for
    p below that horizon.
    """
    if game.k is not None:
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


def capacity_csv(entries, seed: int | None = None) -> str:
    """CSV report over (CapacityBound) entries with the standard columns."""
    header = ("game_id", "states", "log2_states", "bound_orderings_bits", "bound_labelings_bits")
    rows = ((b.game_id, b.exact_states, b.exact_log2_states, b.upper_move_orderings,
             b.upper_cell_labelings) for b in entries)
    return csv_text(header, rows, seed)
