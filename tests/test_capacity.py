"""Capacity bounds and state enumeration."""

import math
import time
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ref_count_positions

from infoplay import capacity
from infoplay.capacity import (
    CapacityBound,
    capacity_bounds,
    capacity_csv,
    enumerate_reachable_states,
    log2_factorial,
)
from infoplay.errors import ResourceCapError, ValidationError
from infoplay.games import GameSpec, tic_tac_toe


class TestLog2Factorial:
    def test_361_matches_2552(self):
        assert 2551.0 <= log2_factorial(361) <= 2553.0

    def test_small_values(self):
        assert log2_factorial(0) == 0.0
        assert log2_factorial(1) == 0.0
        # oracle: direct summation with math.log2
        expected = sum(math.log2(k) for k in range(1, 10))
        assert log2_factorial(9) == pytest.approx(expected, abs=1e-12)
        assert log2_factorial(9) == pytest.approx(18.47, abs=0.01)

    def test_strictly_increasing(self):
        vals = [log2_factorial(n) for n in range(1, 60)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_stirling_bounds(self):
        for n in range(2, 400, 7):
            low = n * math.log2(n / math.e)
            high = low + math.log2(n) + 2
            assert low <= log2_factorial(n) <= high

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            log2_factorial(-1)

    @pytest.mark.parametrize("n", [float("nan"), True, 3.0])
    def test_non_int_rejected(self, n):
        with pytest.raises(ValidationError, match="n must be an int"):
            log2_factorial(n)


@st.composite
def _small_games(draw):
    """(rows, cols, k) of a board of up to 3x4; k None is board-full scoring."""
    rows, cols = draw(st.sampled_from([(r, c) for r in (1, 2, 3) for c in (1, 2, 3)]
                                      + [(1, 4), (2, 4), (3, 4)]))
    return rows, cols, draw(st.one_of(st.none(), st.integers(1, max(rows, cols))))


def _game(rows, cols, k):
    if k is None:
        return GameSpec(rows=rows, cols=cols, k=None)
    return GameSpec(rows=rows, cols=cols, k=k)


@lru_cache(maxsize=None)
def _reference_count(rows, cols, k, symmetry):
    return ref_count_positions(rows, cols, k, symmetry)


def _has_line(mask, rows, cols, k):
    """Whether the cells of ``mask`` hold k in a row, by walking the board."""
    cells = {divmod(i, cols) for i in range(rows * cols) if mask >> i & 1}
    return any(all((r + j * dr, c + j * dc) in cells for j in range(k))
               for r, c in cells for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)))


@lru_cache(maxsize=None)
def _holds_line(rows, cols, k):
    """For every cell mask of the board, whether it holds k in a row
    (never, with k None)."""
    return np.array([k is not None and _has_line(mask, rows, cols, k)
                     for mask in range(1 << rows * cols)])


def _check_layers(rows, cols, k, layers):
    """Check each (layer, won) of ``_layers``: the keys strictly increase,
    each holds the stones of its ply, and won is exactly the keys whose
    mover holds a line.  Returns the layer sizes."""
    n = rows * cols
    holds_line = _holds_line(rows, cols, k)
    sizes = []
    for ply, (layer, won) in enumerate(layers, start=1):
        assert (layer[1:] > layer[:-1]).all()
        a, b = layer & (1 << n) - 1, layer >> n
        assert (np.bitwise_count(a) == (ply + 1) // 2).all()
        assert (np.bitwise_count(b) == ply // 2).all()
        assert np.array_equal(won, holds_line[a if ply % 2 else b])
        sizes.append(layer.size)
    return sizes


class TestEnumeration:
    def test_tic_tac_toe_count(self):
        res = enumerate_reachable_states(tic_tac_toe())
        assert res.count == 5478
        assert res.log2_count == pytest.approx(math.log2(5478), abs=1e-12)

    def test_degenerate_one_cell_game(self):
        game = GameSpec(rows=1, cols=1, k=None)
        assert enumerate_reachable_states(game).count == 2

    def test_pure_placement_3x3_closed_form(self):
        # oracle: every balanced placement is reachable when nothing terminates
        # early, so the count is sum_p C(9,p) * C(p, ceil(p/2))
        expected = sum(math.comb(9, p) * math.comb(p, (p + 1) // 2) for p in range(10))
        game = GameSpec(rows=3, cols=3, k=None)
        res = enumerate_reachable_states(game)
        assert res.count == expected
        assert res.count <= 3**9

    def test_symmetry_reduction_tic_tac_toe(self):
        game = tic_tac_toe()
        res = enumerate_reachable_states(game, symmetry_reduction=True)
        assert res.count == 765

    def test_cap_exceeded_names_cap(self):
        with pytest.raises(ResourceCapError, match="100 states"):
            enumerate_reachable_states(tic_tac_toe(), max_states=100)

    @settings(max_examples=60, deadline=None)
    @given(spec=_small_games(), symmetry=st.booleans())
    @example(spec=(3, 4, 1), symmetry=False)  # any first move wins
    @example(spec=(1, 1, 1), symmetry=True)
    @example(spec=(1, 1, None), symmetry=False)
    @example(spec=(2, 3, 2), symmetry=False)
    @example(spec=(2, 2, None), symmetry=False)
    @example(spec=(1, 4, 3), symmetry=False)
    def test_count_matches_reference(self, spec, symmetry):
        count = enumerate_reachable_states(_game(*spec), symmetry_reduction=symmetry).count
        assert count == _reference_count(*spec, symmetry)

    @pytest.mark.parametrize("spec,symmetry,count", [
        ((4, 4, 3), False, 6_036_001),
        ((4, 4, 4), True, 1_217_977),
    ])
    def test_four_by_four_counts(self, spec, symmetry, count):
        rows, cols, k = spec
        game = GameSpec(rows=rows, cols=cols, k=k)
        assert enumerate_reachable_states(game, symmetry_reduction=symmetry).count == count

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("side", [6, 10])
    def test_wide_keys_match_reference(self, side, symmetry):
        # 2 * cells > 64: the keys are Python ints in an object array
        game = GameSpec(rows=side, cols=side, k=1)
        count = enumerate_reachable_states(game, symmetry_reduction=symmetry).count
        assert count == _reference_count(side, side, 1, symmetry)

    @settings(max_examples=40, deadline=None)
    @given(spec=_small_games(), symmetry=st.booleans(), data=st.data())
    def test_cap_raises_iff_count_exceeds_it(self, spec, symmetry, data):
        rows, cols, k = spec
        if k is None:
            game = GameSpec(rows=rows, cols=cols, k=None)
        else:
            game = GameSpec(rows=rows, cols=cols, k=k)
        count = _reference_count(rows, cols, k, symmetry)
        cap = data.draw(st.integers(1, 2 * count))
        if cap < count:
            with pytest.raises(ResourceCapError, match=f"cap of {cap} states"):
                enumerate_reachable_states(game, max_states=cap, symmetry_reduction=symmetry)
        else:
            res = enumerate_reachable_states(game, max_states=cap, symmetry_reduction=symmetry)
            assert res.count == count

    def test_cap_stops_a_go_sized_board_early(self):
        start = time.perf_counter()
        with pytest.raises(ResourceCapError, match="cap of 10000 states"):
            enumerate_reachable_states(GameSpec(rows=19, cols=19, k=5), max_states=10_000)
        assert time.perf_counter() - start < 1.0

    def test_cap_bounds_memory_as_well_as_the_count(self):
        # 5x5-k5 holds 614,726 positions up to ply 5 and 4,156,726 up to
        # ply 6; building the 10,626,000 children of ply 6 takes 42.5 MB.
        # Under symmetry reduction the 20,981,226 positions of plies 0 to 7
        # are more than a million orbits of at most 8 positions can hold
        tracemalloc.start()
        try:
            for symmetry in (False, True):
                with pytest.raises(ResourceCapError, match="cap of 1000000 states"):
                    enumerate_reachable_states(GameSpec(rows=5, cols=5, k=5),
                                               max_states=1_000_000,
                                               symmetry_reduction=symmetry)
            peak = tracemalloc.get_traced_memory()[1]
            # 4x4-k3 passes the closed-form bound (12,857 positions), and its
            # 6,036,001 positions cross the cap inside a layer; building that
            # layer in one piece peaks at 41.3 MiB traced, in chunks at 27.4
            tracemalloc.reset_peak()
            with pytest.raises(ResourceCapError, match="cap of 3000000 states"):
                enumerate_reachable_states(GameSpec(rows=4, cols=4, k=3), max_states=3_000_000)
            layer_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert layer_peak < 40 * 2**20

    @settings(max_examples=20, deadline=None)
    @given(spec=_small_games(), symmetry=st.booleans(), data=st.data())
    @example(spec=(3, 4, 3), symmetry=False, data=None)
    @example(spec=(3, 4, None), symmetry=True, data=None)
    def test_many_chunks_match_reference(self, spec, symmetry, data):
        # a few children per chunk: every ply with more than one frontier
        # key merges many chunks, and the cap is checked after each of them
        game = _game(*spec)
        count = _reference_count(*spec, symmetry)
        cap = count - 1 if data is None else data.draw(st.integers(1, 2 * count))
        with mock.patch.object(capacity, "_CHUNK_CHILDREN", 64):
            assert enumerate_reachable_states(game, symmetry_reduction=symmetry).count == count
            if cap < count:
                with pytest.raises(ResourceCapError, match=f"cap of {cap} states"):
                    enumerate_reachable_states(game, max_states=cap,
                                               symmetry_reduction=symmetry)
            else:
                assert enumerate_reachable_states(game, max_states=cap,
                                                  symmetry_reduction=symmetry).count == count

    def test_many_chunks_of_wide_keys(self):
        # 2 * cells > 64: the keys are Python ints in an object array
        with mock.patch.object(capacity, "_CHUNK_CHILDREN", 64):
            counts = [enumerate_reachable_states(GameSpec(rows=6, cols=6, k=1),
                                                 symmetry_reduction=symmetry).count
                      for symmetry in (False, True)]
            # 6x6-k2: nobody can win before ply 3, so plies 1 to 3 hold every
            # balanced placement, and plies 2 and 3 merge one chunk per key
            layers = capacity._layers(GameSpec(rows=6, cols=6, k=2), 10**6, False)
            sizes = [next(layers)[0].size for _ in range(3)]
        assert counts == [_reference_count(6, 6, 1, symmetry) for symmetry in (False, True)]
        assert sizes == [36, 36 * 35, math.comb(36, 2) * 34]

    @pytest.mark.parametrize("chunk", [capacity._CHUNK_CHILDREN, 64])
    @pytest.mark.parametrize("spec,dtype", [((4, 4, 4), np.uint32), ((3, 6, 3), np.uint64)])
    def test_key_width_bands(self, spec, dtype, chunk):
        # nobody can win before ply 5, so plies 1 to 4 hold every balanced
        # placement; with small chunks the run merge and the searchsorted
        # work in the key dtype too
        game = _game(*spec)
        n = game.cells
        with mock.patch.object(capacity, "_CHUNK_CHILDREN", chunk):
            layers = capacity._layers(game, 10**7, False)
            plies = [next(layers) for _ in range(4)]
        c = math.comb
        assert [layer.size for layer, _ in plies] == [n, n * (n - 1), c(n, 2) * (n - 2),
                                                      c(n, 2) * c(n - 2, 2)]
        for layer, won in plies:
            assert layer.dtype == dtype
            assert (layer[1:] > layer[:-1]).all()
            assert not won.any()
        # a B stone on the last cell sets the key's top bit (bit 31 of a
        # 4x4 key): the n - 1 such positions after ply 2 sort last
        top = plies[1][0] >= 1 << 2 * n - 1
        assert top.sum() == n - 1 and top[-(n - 1):].all()

    @settings(max_examples=30, deadline=None)
    @given(spec=_small_games())
    def test_reduced_layers_are_least_images(self, spec):
        # each reduced layer is the sorted distinct least images of the
        # unreduced layer of its ply, and an orbit is won as a whole
        game = _game(*spec)
        n = game.cells
        maps = capacity._symmetry_maps(game)
        full = list(capacity._layers(game, 10**7, False))
        reduced = list(capacity._layers(game, 10**7, True))
        assert len(reduced) == len(full)
        for (keys, won), (orbits, orbit_won) in zip(full, reduced):
            least = None
            for perm in maps:  # image cell i holds the stone of cell perm[i]
                image = np.zeros_like(keys)
                for i, j in enumerate(perm):
                    for half in (0, n):
                        image |= (keys >> int(j) + half & 1) << i + half
                least = image if least is None else np.minimum(least, image)
            assert np.array_equal(orbits, np.unique(least))
            assert np.array_equal(orbit_won[np.searchsorted(orbits, least)], won)

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("spec", [(3, 3, 3), (2, 4, 3), (2, 3, None)])
    def test_layers(self, spec, symmetry):
        game = _game(*spec)
        sizes = _check_layers(*spec, capacity._layers(game, 10**6, symmetry))
        assert 1 + sum(sizes) == enumerate_reachable_states(
            game, symmetry_reduction=symmetry).count

    @pytest.mark.parametrize("chunk", [capacity._CHUNK_CHILDREN, 64])
    @settings(max_examples=25, deadline=None)
    @given(spec=_small_games())
    @example(spec=(3, 4, 1))  # the line test from ply 1
    @example(spec=(3, 4, 2))  # from ply 3, the first with two stones of one player
    @example(spec=(3, 4, None))  # no line test
    def test_layers_on_random_boards(self, spec, chunk):
        # with 64 children per chunk, every ply past the first few
        # deduplicates and merges many chunks
        with mock.patch.object(capacity, "_CHUNK_CHILDREN", chunk):
            sizes = _check_layers(*spec, capacity._layers(_game(*spec), 10**7, False))
        assert 1 + sum(sizes) == _reference_count(*spec, False)

    @pytest.mark.parametrize("symmetry", [False, True])
    def test_cap_boundary(self, symmetry):
        game = tic_tac_toe()
        count = enumerate_reachable_states(game, symmetry_reduction=symmetry).count
        at_cap = enumerate_reachable_states(game, max_states=count,
                                            symmetry_reduction=symmetry)
        assert at_cap.count == count
        with pytest.raises(ResourceCapError, match=f"cap of {count - 1} states"):
            enumerate_reachable_states(game, max_states=count - 1,
                                       symmetry_reduction=symmetry)

    @pytest.mark.parametrize("cap", [-1, 0, 2.5, math.nan, True])
    def test_malformed_cap_rejected(self, cap):
        # a cap below 1 fits not even the empty board; NaN compares false
        # everywhere, so it would disable the cap
        with pytest.raises(ValidationError, match="max_states"):
            enumerate_reachable_states(tic_tac_toe(), max_states=cap)


class TestCapacityBounds:
    def test_go_like_board_has_no_exact_count(self):
        game = GameSpec(rows=19, cols=19, k=5)
        bound = capacity_bounds(game)
        assert bound.exact_log2_states is None
        assert bound.upper_move_orderings == pytest.approx(2552.0, abs=1.0)

    def test_tic_tac_toe_exact(self):
        bound = capacity_bounds(tic_tac_toe())
        assert bound.exact_log2_states == pytest.approx(12.42, abs=0.01)
        assert bound.exact_states == 5478

    def test_one_cell_game(self):
        game = GameSpec(rows=1, cols=1, k=None)
        assert capacity_bounds(game).exact_log2_states == pytest.approx(1.0, abs=1e-12)

    def test_huge_board_bounds_in_constant_memory(self):
        # log2(cells!) for 1e10 cells, which an array of its terms could not hold
        t0 = time.perf_counter()
        bound = capacity_bounds(GameSpec(rows=100_000, cols=100_000))
        assert time.perf_counter() - t0 < 0.5
        assert bound.exact_states is None and bound.exact_log2_states is None
        n = 100_000 ** 2
        low = n * math.log2(n / math.e)
        assert low <= bound.upper_move_orderings <= low + math.log2(n) + 2

    def test_exact_below_labeling_bound(self):
        for game in (tic_tac_toe(), GameSpec(rows=2, cols=3, k=2),
                     GameSpec(rows=3, cols=3, k=None)):
            bound = capacity_bounds(game)
            assert bound.exact_log2_states <= bound.upper_cell_labelings + 1e-9


class TestCsv:
    def test_columns_and_seed_header(self):
        bound = capacity_bounds(tic_tac_toe())
        text = capacity_csv([bound], seed=7)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=7"
        assert lines[1] == "game_id,states,log2_states,bound_orderings_bits,bound_labelings_bits"
        assert lines[2].startswith("3x3-k3,5478,")

    def test_absent_exact_fields_are_empty(self):
        bound = CapacityBound(game_id="g", upper_move_orderings=1.0, upper_cell_labelings=2.0)
        row = capacity_csv([bound]).strip().split("\n")[-1]
        assert row == "g,,,1,2"
