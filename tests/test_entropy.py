"""Entropy, plug-in MI, LLR information, and the J-function pair."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, optimize

from infoplay.entropy import (
    LLR_CLAMP,
    LlrBlock,
    _llr_information,
    _seed_sequence,
    binary_entropy,
    j_function,
    j_inverse,
    mutual_information_plugin,
    sample_consistent_gaussian_apriori,
)
from infoplay.errors import ValidationError
from infoplay.exit_chart import measure_exit_curve
from infoplay.games import tic_tac_toe
from infoplay.selfplay import AgentModel, LearnConfig, agent_to_text, agent_exit_curve, learn
from infoplay.turbo import ChannelModel, RscCode, simulate_turbo


def j_quadrature_oracle(sigma):
    """Independent J(sigma) via adaptive quadrature over +-10 sigma."""
    if sigma == 0:
        return 0.0
    mu = sigma**2 / 2

    def integrand(l):
        pdf = math.exp(-((l - mu) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
        return pdf * math.log2(1 + math.exp(-l)) if l > -500 else 0.0

    val, _ = integrate.quad(integrand, mu - 10 * sigma, mu + 10 * sigma, limit=200)
    return 1.0 - val


# any numeric dtype, plus complex and text, which are never valid input
_DTYPES = st.one_of(hnp.boolean_dtypes(), hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(),
                    hnp.floating_dtypes(), hnp.complex_number_dtypes(),
                    st.just(np.dtype("U2")))
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)


def _valid_counts(arr):
    """A count table, stated without numpy: 2-D, non-empty, real entries
    that are non-negative integers, each below 2**63 and in total from 1
    to below 2**63."""
    if arr.ndim != 2 or arr.size == 0 or arr.dtype.kind not in "biuf":
        return False
    values = arr.ravel().tolist()
    if not all(math.isfinite(v) and v == int(v) and v >= 0 for v in values):
        return False
    return max(map(int, values)) < 2**63 and 1 <= sum(map(int, values)) < 2**63


def _valid_llr_block(llrs, truth):
    """An LLR block, stated without numpy: 1-D real LLRs without NaN and
    as many 0/1 truth bits."""
    return (llrs.ndim == 1 and truth.ndim == 1 and llrs.size == truth.size
            and llrs.dtype.kind in "biuf" and truth.dtype.kind in "biuf"
            and not any(math.isnan(v) for v in llrs.tolist())
            and all(v in (0, 1) for v in truth.tolist()))


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_point_one(self):
        expected = -(0.1 * math.log2(0.1) + 0.9 * math.log2(0.9))
        assert binary_entropy(0.1) == pytest.approx(expected, abs=1e-12)
        assert binary_entropy(0.1) == pytest.approx(0.469, abs=1e-3)

    def test_symmetry(self):
        for p in np.linspace(0, 1, 21):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.1)
        with pytest.raises(ValidationError):
            binary_entropy(-0.1)


class TestPluginMI:
    def test_independence_product_counts(self):
        rows = np.array([6, 3, 1])
        cols = np.array([2, 5, 2, 1])
        joint = np.outer(rows, cols)
        assert mutual_information_plugin(joint) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_noiseless_diagonal(self, k):
        joint = np.eye(k, dtype=int) * 7
        assert mutual_information_plugin(joint) == pytest.approx(math.log2(k), abs=1e-12)

    def test_bsc_closed_form(self):
        # oracle: I(X;Y) of BSC(p) with uniform input is 1 - H_b(p)
        rng = np.random.default_rng(20240809)
        n = 10**6
        x = rng.integers(0, 2, n)
        y = x ^ (rng.random(n) < 0.1)
        counts = np.bincount(2 * x + y, minlength=4).reshape(2, 2)
        got = mutual_information_plugin(counts)
        assert got == pytest.approx(1.0 - binary_entropy(0.1), abs=0.01)
        assert got == pytest.approx(0.531, abs=0.01)

    def test_symmetry_under_transpose(self):
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 50, size=(5, 7))
        a = mutual_information_plugin(counts)
        b = mutual_information_plugin(counts.T)
        assert a == pytest.approx(b, abs=1e-12)

    def test_bounded_by_marginal_entropies(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            counts = rng.integers(0, 20, size=rng.integers(2, 6, size=2))
            if counts.sum() == 0:
                continue
            mi = mutual_information_plugin(counts)
            p = counts / counts.sum()
            hx = -sum(q * math.log2(q) for q in p.sum(axis=1) if q > 0)
            hy = -sum(q * math.log2(q) for q in p.sum(axis=0) if q > 0)
            assert 0.0 <= mi <= min(hx, hy) + 1e-9

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            mutual_information_plugin(np.zeros((2, 2), dtype=int))

    @pytest.mark.parametrize("counts", [
        np.array([[2**63]], dtype=np.uint64),
        np.array([[1e19]]),
        np.array([[2.0**63]]),
        np.array([[2**62, 2**62], [2**62, 2**62]], dtype=np.int64),  # total wraps to 0
    ])
    def test_counts_beyond_int64_rejected(self, counts):
        with pytest.raises(ValidationError, match="2\\*\\*63"):
            mutual_information_plugin(counts)

    @settings(max_examples=300, deadline=None)
    @given(counts=hnp.arrays(_DTYPES, _SHAPES))
    @example(counts=np.array([[2**63 - 1]], dtype=np.uint64))
    @example(counts=np.array([[2.0**63 - 1024, 0.0]]))
    @example(counts=np.array([[2**62, 2**62 - 1]], dtype=np.int64))
    @example(counts=np.array([[2**62, 2**62]], dtype=np.int64))
    @example(counts=np.array([[1.5]]))
    @example(counts=np.array([[True, False]]))
    def test_validation_property(self, counts):
        if _valid_counts(counts):
            exact = np.array([[int(v) for v in row] for row in counts.tolist()], dtype=np.int64)
            mi = mutual_information_plugin(counts)
            assert type(mi) is float
            assert mi == mutual_information_plugin(exact)
        else:
            with pytest.raises(ValidationError):
                mutual_information_plugin(counts)


class TestMiFromLlrs:
    """The ergodic estimator turbo and EXIT measure LLR information with."""

    def test_zero_llrs_no_information(self):
        block = LlrBlock(np.zeros(100), np.zeros(100, dtype=int))
        assert _llr_information(block.llrs, block.truth) == 0.0

    def test_saturated_llrs(self):
        truth = np.array([0, 1] * 50)
        llrs = np.where(truth == 0, 50.0, -50.0)
        block = LlrBlock(llrs, truth)
        assert _llr_information(block.llrs, block.truth) >= 0.999

    def test_clamping_on_construction(self):
        block = LlrBlock(np.array([1e9, -1e9]), np.array([0, 1]))
        assert block.llrs.max() == 50.0 and block.llrs.min() == -50.0

    def test_half_information_consistent_gaussian(self):
        n = 10**5
        rng = np.random.default_rng(11)
        truth = rng.integers(0, 2, n)
        block = sample_consistent_gaussian_apriori(truth, 0.5, seed=12)
        assert _llr_information(block.llrs, block.truth) == pytest.approx(0.5, abs=0.02)

    @settings(max_examples=300, deadline=None)
    @given(llrs=hnp.arrays(_DTYPES, _SHAPES), data=st.data())
    @example(llrs=np.array([np.inf, -np.inf, 1e300]), data=None)
    @example(llrs=np.array([np.nan, 0.0, 1.0]), data=None)
    @example(llrs=np.array([1 + 2j, 0, 0]), data=None)
    def test_llr_block_validation_property(self, llrs, data):
        n = llrs.shape[0] if llrs.ndim else 1
        bits = st.builds(np.array, st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         st.sampled_from([bool, np.int8, np.uint64, np.float32]))
        truth = (np.array([0, 1, 0]) if data is None
                 else data.draw(st.one_of(bits, hnp.arrays(_DTYPES, _SHAPES))))
        if _valid_llr_block(llrs, truth):
            block = LlrBlock(llrs, truth)
            assert block.llrs.dtype == np.float64
            assert np.isfinite(block.llrs).all()
            assert block.llrs.tolist() == [min(max(float(v), -LLR_CLAMP), LLR_CLAMP)
                                           for v in llrs.tolist()]
            assert block.truth.tolist() == [int(v) for v in truth.tolist()]
        else:
            with pytest.raises(ValidationError):
                LlrBlock(llrs, truth)


class TestJFunction:
    def test_zero(self):
        assert j_function(0.0) == 0.0

    def test_large_sigma(self):
        assert j_function(10.0) >= 0.99
        assert j_function(10.0) == pytest.approx(j_quadrature_oracle(10.0), abs=1e-9)

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 1.0, 2.0, 4.0, 8.0])
    def test_matches_quadrature_oracle(self, sigma):
        assert j_function(sigma) == pytest.approx(j_quadrature_oracle(sigma), abs=1e-9)

    def test_monotone_on_grid(self):
        grid = np.linspace(0, 8, 100)
        vals = [j_function(s) for s in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            j_function(-0.5)

    # sigma squared overflows from about 1.34e154
    @pytest.mark.parametrize("sigma", [float("nan"), math.inf, 1.4e154, 1e300])
    def test_sigma_without_a_finite_square_rejected(self, sigma):
        with pytest.raises(ValidationError, match="sigma"):
            j_function(sigma)

    def test_largest_sigma_with_a_finite_square(self):
        assert j_function(1.3e154) == 1.0


class TestJInverse:
    @pytest.mark.parametrize("i", [0.0, 0.25, 0.5, 0.9])
    def test_round_trip_from_information(self, i):
        # the root search promises |J(sigma) - i| <= 1e-8
        assert j_function(j_inverse(i)) == pytest.approx(i, abs=1e-8)

    def test_round_trip_from_sigma_grid(self):
        for sigma in np.linspace(0.01, 6, 25):
            assert j_inverse(j_function(sigma)) == pytest.approx(sigma, abs=1e-6)

    def test_one_rejected(self):
        with pytest.raises(ValidationError):
            j_inverse(1.0)

    def test_matches_scipy_brentq_bit_for_bit(self):
        # every a-priori grid of the demos and configs (np.arange gives
        # 0.30000000000000004 and friends), plus a dense sweep of (0, 1)
        demo_grids = [np.arange(0.0, 0.91, 0.1), np.linspace(0.0, 1.0, 6)[:-1],
                      [x / 10 for x in range(10)], [0.2 * x for x in range(5)]]
        values = {float(i) for grid in demo_grids for i in grid if i > 0}
        values |= set(np.linspace(0.001, 0.999, 120).tolist()) | {1e-9, 0.999999}
        for i in sorted(values):
            hi = 1.0
            while j_function(hi) < i:
                hi *= 2.0
            expected = optimize.brentq(lambda s: j_function(s) - i, 0.0, hi, xtol=1e-13)
            assert j_inverse(i) == expected, i


class TestConsistentGaussianApriori:
    def test_zero_information(self):
        truth = np.random.default_rng(0).integers(0, 2, 10**5)
        block = sample_consistent_gaussian_apriori(truth, 0.0, seed=5)
        assert np.all(block.llrs == 0.0)
        assert _llr_information(block.llrs, block.truth) <= 0.02

    @pytest.mark.parametrize("ia", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_measured_mi_matches_target(self, ia):
        truth = np.random.default_rng(100).integers(0, 2, 10**5)
        block = sample_consistent_gaussian_apriori(truth, ia, seed=101)
        assert _llr_information(block.llrs, block.truth) == pytest.approx(ia, abs=0.02)

    def test_deterministic_given_seed(self):
        truth = np.arange(64) % 2
        a = sample_consistent_gaussian_apriori(truth, 0.6, seed=42)
        b = sample_consistent_gaussian_apriori(truth, 0.6, seed=42)
        np.testing.assert_array_equal(a.llrs, b.llrs)


class TestLlrInformation:
    def test_a_batch_gives_each_block_its_own_value(self):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 2, (3, 200))
        llrs = rng.normal(2.0, 2.0, (3, 200)) * (1 - 2 * truth)
        batch = _llr_information(llrs, truth)
        assert batch.shape == (3,) and batch.dtype == np.float64
        for row, value in zip(zip(llrs, truth), batch):
            assert _llr_information(*row) == value


def _learn_result(seed):
    game = tic_tac_toe()
    config = LearnConfig(generations=2, episodes_per_generation=20, eval_episodes=100)
    records, agent_a, agent_b = learn(game, config, seed)
    return records, agent_to_text(agent_a, game), agent_to_text(agent_b, game)


# each seeded routine at a small size, mapped to a value that compares with ==
SEEDED_ROUTINES = {
    "simulate_turbo": lambda seed: np.stack(simulate_turbo(64, 1.0, 2, 2, seed)).tolist(),
    "measure_exit_curve": lambda seed: measure_exit_curve(
        RscCode(), ChannelModel(0.8, rate=0.5), [0.0, 0.5], 1000, seed).points,
    "learn": _learn_result,
    "agent_exit_curve": lambda seed: agent_exit_curve(
        AgentModel(role="A"), AgentModel(role="B"), tic_tac_toe(), [0.0, 1.0], 100,
        seed).points,
}


def test_a_seed_root_spawns_what_its_seed_would():
    ss = np.random.SeedSequence(5, pool_size=8).spawn(1)[0]
    ss.spawn(2)
    root = _seed_sequence(ss)
    assert root is not ss
    assert ([child.generate_state(4).tolist() for child in root.spawn(2)]
            == [child.generate_state(4).tolist() for child in ss.spawn(2)])


@pytest.mark.parametrize("routine", SEEDED_ROUTINES.values(), ids=SEEDED_ROUTINES)
class TestSeedSequenceSeeds:
    """A routine spawns from its own copy of a ``SeedSequence`` seed, so the
    caller's object is never advanced and one seed gives one result."""

    def test_repeated_calls_match_the_int_seed(self, routine):
        ss = np.random.SeedSequence(5)
        first = routine(ss)
        assert routine(ss) == first == routine(5)
        assert ss.n_children_spawned == 0

    def test_a_spawned_child_keeps_its_state(self, routine):
        ss = np.random.SeedSequence(5, pool_size=8).spawn(1)[0]
        ss.spawn(2)
        same_state = np.random.SeedSequence(5, spawn_key=(0,), pool_size=8,
                                            n_children_spawned=2)
        assert routine(ss) == routine(same_state)
        assert ss.n_children_spawned == 2
