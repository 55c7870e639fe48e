"""RSC encoding, channels, BCJR vs brute-force MAP, and the turbo loop."""

import errno
import hashlib
import math
import mmap
import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infoplay.entropy import LLR_CLAMP, LlrBlock
from infoplay import entropy, exit_chart, turbo
from infoplay.errors import NumericalContractError, ValidationError
from infoplay.turbo import (
    ChannelModel,
    Interleaver,
    RscCode,
    bcjr_decode,
    random_interleaver,
    rsc_encode,
    s_random_interleaver,
    simulate_turbo,
    trace_csv,
    transmit,
    turbo_encode,
)

from oracles import (
    _ref_trellis,
    brute_force_map,
    ref_bcjr_batch,
    ref_encode_75,
    ref_s_random_permutation,
)

CODE75 = RscCode(feedback_poly=0o7, feedforward_poly=0o5, memory=2)
CODE_MEMORY3 = RscCode(0o13, 0o15, memory=3)


class TestRscEncode:
    def test_all_zero_input(self):
        sys_bits, par_bits = rsc_encode(np.zeros(16, dtype=int), CODE75)
        assert not sys_bits.any() and not par_bits.any()

    def test_impulse_response_matches_reference(self):
        u = np.zeros(12, dtype=int)
        u[0] = 1
        sys_bits, par_bits = rsc_encode(u, CODE75, terminate=False)
        ref_sys, ref_par = ref_encode_75(list(u), terminate=False)
        np.testing.assert_array_equal(sys_bits, ref_sys)
        np.testing.assert_array_equal(par_bits, ref_par)
        # recursive code: the impulse parity response is periodic, not finite
        np.testing.assert_array_equal(par_bits[:6], [1, 1, 1, 0, 1, 1])

    def test_random_inputs_match_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.integers(0, 2, rng.integers(1, 40))
            got = rsc_encode(u, CODE75)
            ref = ref_encode_75(list(u))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])

    @pytest.mark.parametrize("terminate", [True, False])
    def test_batch_rows_match_reference(self, terminate):
        u = np.random.default_rng(6).integers(0, 2, (7, 33))
        sys_bits, par_bits = rsc_encode(u, CODE75, terminate=terminate)
        assert sys_bits.shape == par_bits.shape == (7, 33 + (2 if terminate else 0))
        for row, got_sys, got_par in zip(u, sys_bits, par_bits):
            ref_sys, ref_par = ref_encode_75(list(row), terminate=terminate)
            np.testing.assert_array_equal(got_sys, ref_sys)
            np.testing.assert_array_equal(got_par, ref_par)

    def test_terminated_lengths(self):
        sys_bits, par_bits = rsc_encode(np.ones(10, dtype=int), CODE75)
        assert len(sys_bits) == 12 and len(par_bits) == 12

    def test_unterminated_trellis_raises_contract_error(self, monkeypatch):
        # a tail that never reaches state 0 must fail even under python -O
        broken = turbo._Trellis(CODE75)
        broken.term_bit = np.zeros_like(broken.term_bit)
        monkeypatch.setattr(turbo, "_trellis", lambda code: broken)
        with pytest.raises(NumericalContractError):
            rsc_encode(np.ones(1, dtype=int), CODE75)
        # in a batch, one row ending off state 0 is enough
        with pytest.raises(NumericalContractError):
            rsc_encode(np.array([[0, 0, 0], [1, 1, 1], [0, 0, 1]]), CODE75)
        rsc_encode(np.array([[0, 0, 0], [1, 1, 1]]), CODE75)  # these two rows do end at 0

    def test_bad_code_rejected(self):
        with pytest.raises(ValidationError):
            RscCode(feedback_poly=0o3, feedforward_poly=0o5, memory=2)  # no constant term
        with pytest.raises(ValidationError):
            RscCode(feedback_poly=0o17, feedforward_poly=0o5, memory=2)  # degree > memory

    @pytest.mark.parametrize("field", ["feedback_poly", "feedforward_poly", "memory"])
    @pytest.mark.parametrize("value", [7.0, True])
    def test_polynomials_and_memory_must_be_ints(self, field, value):
        # a float fails later in the trellis, and True would read as 1
        fields = {"feedback_poly": 0o7, "feedforward_poly": 0o5, "memory": 2, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an int"):
            RscCode(**fields)

    @pytest.mark.parametrize("memory", [17, 26])
    def test_memory_beyond_cap_rejected(self, memory):
        # only validation runs here: RscCode builds no trellis
        assert turbo.MAX_MEMORY == 16
        RscCode(feedback_poly=(1 << 16) | 1, feedforward_poly=1, memory=16)
        with pytest.raises(ValidationError, match="memory"):
            RscCode(feedback_poly=(1 << memory) | 1, feedforward_poly=1, memory=memory)


class TestInterleaver:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        il = random_interleaver(64, seed=1)
        for _ in range(5):
            x = rng.normal(size=64)
            np.testing.assert_array_equal(il.deinterleave(il.interleave(x)), x)

    def test_s_random_spread(self):
        il = s_random_interleaver(128, seed=2)
        s = int(np.sqrt(128 / 2))
        perm = il.permutation
        for i in range(len(perm)):
            for j in range(max(0, i - s + 1), i):
                assert abs(int(perm[i]) - int(perm[j])) >= s

    @pytest.mark.parametrize("n, seed", [(4096, 42), (1024, 7), (2000, 11), (256, 3), (64, 5), (2, 0)])
    def test_s_random_matches_direct_scan(self, n, seed):
        got = s_random_interleaver(n, seed).permutation
        assert got.tolist() == ref_s_random_permutation(n, seed)

    # (200, 2, 11), (100, 1, 7) and (50, 3, 5) get stuck and reshuffle
    # before they succeed
    @pytest.mark.parametrize("n, seed, s", [(200, 1, 3), (200, 2, 11), (100, 1, 7), (50, 3, 5),
                                            (30, 4, 1)])
    def test_s_random_explicit_spread_matches_direct_scan(self, n, seed, s):
        got = s_random_interleaver(n, seed, s=s).permutation
        assert got.tolist() == ref_s_random_permutation(n, seed, s=s)

    def test_s_random_single_position(self):
        # n = 1 gives the default spread s = 0, which blocks nothing
        assert s_random_interleaver(1, 9).permutation.tolist() == [0]
        assert ref_s_random_permutation(1, 9) == [0]

    def test_s_random_gives_up_after_max_tries(self):
        # no order of 0..3 keeps every neighbour pair 3 apart
        assert ref_s_random_permutation(4, 6, s=3, max_tries=5) is None
        with pytest.raises(ValidationError, match="could not build an S-random interleaver "
                           "with s=3 for n=4"):
            s_random_interleaver(4, 6, s=3)

    @pytest.mark.parametrize("n", [2.5, -1, True])
    def test_length_that_is_no_count_rejected(self, n):
        for build in (random_interleaver, s_random_interleaver):
            with pytest.raises(ValidationError, match="n must be"):
                build(n, 1)

    @pytest.mark.parametrize("s", [2.5, -1, True])
    def test_spread_that_is_no_count_rejected(self, s):
        with pytest.raises(ValidationError, match="s must be"):
            s_random_interleaver(10, 1, s=s)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValidationError):
            Interleaver(np.array([0, 0, 2]))

    @pytest.mark.parametrize("perm", [np.array([0.5, 1.7]), np.array([1.0, 0.0]),
                                      np.array([True, False]), [1.0, 0.0]])
    def test_non_integer_permutation_rejected(self, perm):
        with pytest.raises(ValidationError, match="integers"):
            Interleaver(perm)

    def test_integer_permutation_of_any_width_accepted(self):
        for dtype in (np.int8, np.uint16, np.int64):
            il = Interleaver(np.array([2, 0, 1], dtype=dtype))
            assert il.permutation.dtype == np.intp
            assert il.interleave(np.arange(3)).tolist() == [2, 0, 1]


class TestTransmit:
    def test_high_snr_signs(self):
        bits = np.random.default_rng(3).integers(0, 2, 500)
        block = transmit(bits, ChannelModel(40.0), seed=4)
        np.testing.assert_array_equal(np.sign(block.llrs), 1.0 - 2.0 * bits)

    def test_deterministic(self):
        bits = np.ones(64, dtype=int)
        a = transmit(bits, ChannelModel(1.0, rate=0.5), seed=9)
        b = transmit(bits, ChannelModel(1.0, rate=0.5), seed=9)
        np.testing.assert_array_equal(a.llrs, b.llrs)

    def test_invalid_channels(self):
        for ebn0_db in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="must be finite"):
                ChannelModel(ebn0_db)
        for ebn0_db in (4000.0, -4000.0):  # Eb/N0 overflows or underflows a float
            with pytest.raises(ValidationError, match="noise variance"):
                ChannelModel(ebn0_db, rate=1.0 / 3.0)


_BIT_CANDIDATES = st.one_of(
    hnp.arrays(hnp.integer_dtypes(), st.integers(1, 8), elements=st.integers(-1, 2)),
    hnp.arrays(hnp.unsigned_integer_dtypes(), st.integers(1, 8), elements=st.integers(0, 2)),
    hnp.arrays(np.bool_, st.integers(1, 8)),
    hnp.arrays(hnp.floating_dtypes(), st.integers(1, 8),
               elements=st.sampled_from([0.0, -0.0, 1.0, 0.5, -1.0, 2.0, math.nan, math.inf,
                                         -math.inf])),
)


@settings(max_examples=300, deadline=None)
@given(x=_BIT_CANDIDATES)
def test_bit_checks_accept_exactly_zeros_and_ones(x):
    accepted = bool(np.isin(x, (0, 1)).all())
    checks = {"input bits must be 0/1": lambda: rsc_encode(x, CODE75),
              "symbols must be 0/1": lambda: transmit(x, ChannelModel(1.0), seed=0),
              "entries must be 0 or 1": lambda: entropy._as_bits(x)}
    for message, check in checks.items():
        if accepted:
            check()
        else:
            with pytest.raises(ValidationError, match=message):
                check()


def noisy_component_block(n_info, seed, ebn0_db=1.0):
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, n_info)
    sys_bits, par_bits = rsc_encode(bits, CODE75)
    channel = ChannelModel(ebn0_db, rate=0.5)
    rx_sys = transmit(sys_bits, channel, seed=rng.integers(2**32))
    rx_par = transmit(par_bits, channel, seed=rng.integers(2**32))
    apriori = LlrBlock(np.zeros(n_info), bits)
    return bits, rx_sys, rx_par, apriori


class TestBcjr:
    def test_near_noiseless_recovery(self):
        bits, rx_sys, rx_par, apriori = noisy_component_block(32, seed=1, ebn0_db=15.0)
        app, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75)
        np.testing.assert_array_equal((app.llrs < 0).astype(int), bits)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_map(self, seed):
        _, rx_sys, rx_par, apriori = noisy_component_block(8, seed=seed, ebn0_db=0.0)
        la = np.random.default_rng(seed + 100).normal(0, 1, 8)
        apriori = LlrBlock(la, apriori.truth)
        app, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75)
        expected = brute_force_map(rx_sys.llrs, rx_par.llrs, apriori.llrs, 8)
        np.testing.assert_allclose(app.llrs, expected, atol=1e-6)

    @pytest.mark.parametrize("n_info", [2, 5, 10])
    def test_brute_force_property_various_lengths(self, n_info):
        for seed in range(3):
            _, rx_sys, rx_par, apriori = noisy_component_block(n_info, seed=37 + seed, ebn0_db=-1.0)
            app, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75)
            expected = brute_force_map(rx_sys.llrs, rx_par.llrs, apriori.llrs, n_info)
            np.testing.assert_allclose(app.llrs, expected, atol=1e-6)

    def test_apriori_saturation_forces_zero_decisions(self):
        for seed in range(5):
            bits, rx_sys, rx_par, _ = noisy_component_block(16, seed=seed, ebn0_db=-3.0)
            apriori = LlrBlock(np.full(16, 50.0), bits)
            app, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75)
            assert (app.llrs > 0).all()

    def test_llr_decomposition_identity(self):
        bits, rx_sys, rx_par, apriori = noisy_component_block(24, seed=11, ebn0_db=0.5)
        la = np.random.default_rng(12).normal(0, 2, 24)
        apriori = LlrBlock(la, bits)
        app, ext = bcjr_decode(rx_sys, rx_par, apriori, CODE75)
        recomposed = rx_sys.llrs[:24] + apriori.llrs + ext.llrs
        np.testing.assert_allclose(app.llrs, recomposed, atol=1e-9)

    def test_extrinsic_independent_of_own_apriori(self):
        bits, rx_sys, rx_par, apriori = noisy_component_block(16, seed=13, ebn0_db=0.5)
        la = np.random.default_rng(14).normal(0, 1, 16)
        _, ext_base = bcjr_decode(rx_sys, rx_par, LlrBlock(la, bits), CODE75)
        for n in (0, 7, 15):
            la_mod = la.copy()
            la_mod[n] += 3.0
            _, ext_mod = bcjr_decode(rx_sys, rx_par, LlrBlock(la_mod, bits), CODE75)
            assert abs(ext_mod.llrs[n] - ext_base.llrs[n]) <= 1e-9

    @pytest.mark.parametrize("code", [CODE75, CODE_MEMORY3, RscCode(0o23, 0o35, memory=4)],
                             ids=repr)
    @pytest.mark.parametrize("exact", [True, False])
    def test_extrinsic_is_app_minus_inputs_clipped(self, code, exact):
        # L_e = L_app - L_a - L_ch of the unclipped a-posteriori LLRs, then
        # clipped, to the bit; inputs reach the clamp, and so do the outputs
        rng = np.random.default_rng(code.memory + 10 * exact)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            scale = rng.uniform(0.5, LLR_CLAMP)
            ls, lp = rng.normal(0, scale, (2, n + code.memory))
            la = rng.normal(0, scale, n)
            bits = rng.integers(0, 2, n + code.memory)
            _, ext = bcjr_decode(LlrBlock(ls, bits), LlrBlock(lp, bits), LlrBlock(la, bits[:n]),
                                 code, exact=exact)
            sys_in, par_in, la_in = (np.clip(x, -LLR_CLAMP, LLR_CLAMP)[None] for x in (ls, lp, la))
            app = turbo._bcjr_batch(sys_in, par_in, la_in, code, terminated=True, exact=exact)[0]
            expected = np.clip(app - la_in[0] - sys_in[0, :n], -LLR_CLAMP, LLR_CLAMP)
            np.testing.assert_array_equal(ext.llrs, expected)

    def test_length_mismatch_rejected(self):
        bits, rx_sys, rx_par, apriori = noisy_component_block(8, seed=15)
        bad = LlrBlock(np.zeros(5), np.zeros(5, dtype=int))
        with pytest.raises(ValidationError):
            bcjr_decode(rx_sys, rx_par, bad, CODE75)

    def test_max_log_approximation(self):
        # the pure-max variant decodes cleanly at high SNR but is not the
        # exact posterior
        bits, rx_sys, rx_par, apriori = noisy_component_block(32, seed=16, ebn0_db=12.0)
        app, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75, exact=False)
        np.testing.assert_array_equal((app.llrs < 0).astype(int), bits)
        _, rx_sys, rx_par, apriori = noisy_component_block(8, seed=17, ebn0_db=-1.0)
        approx, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75, exact=False)
        exact, _ = bcjr_decode(rx_sys, rx_par, apriori, CODE75, exact=True)
        assert np.abs(approx.llrs - exact.llrs).max() > 1e-6


@st.composite
def _component_codes(draw, max_memory=3):
    memory = draw(st.integers(1, max_memory))
    feedback = draw(st.integers(1 << memory, (1 << (memory + 1)) - 1))
    feedforward = draw(st.integers(1, (1 << (memory + 1)) - 1))
    return RscCode(feedback_poly=feedback, feedforward_poly=feedforward, memory=memory)


class TestTrellis:
    @settings(max_examples=10, deadline=None)
    @given(code=_component_codes(turbo.MAX_MEMORY))
    @example(code=RscCode(feedback_poly=(1 << 16) | 0o23, feedforward_poly=0o377, memory=16))
    def test_closed_form_matches_reference(self, code):
        # the library derives the tables in closed form from the feedback's
        # constant term; the oracle scans every (state, input) pair
        tr = turbo._Trellis(code)
        next_state, parity_sym, term_bit, in_u, in_s = _ref_trellis(code)
        np.testing.assert_array_equal(tr.next_state, next_state)
        np.testing.assert_array_equal(1.0 - 2.0 * tr.parity_bit, parity_sym)
        np.testing.assert_array_equal(tr.term_bit, term_bit)
        # the oracle's edges are (state, edge), the library's (edge, state)
        np.testing.assert_array_equal(tr.stacked_src[:, 0], in_s.T)
        parity_in = parity_sym[in_u, in_s].T
        np.testing.assert_array_equal(tr.metric_in, in_u.T != (parity_in < 0))
        np.testing.assert_array_equal(tr.sign_in[:, :, 0], parity_in)


_LLRS = st.one_of(
    st.floats(-LLR_CLAMP, LLR_CLAMP, allow_nan=False),
    st.sampled_from([-LLR_CLAMP, LLR_CLAMP, 0.0]),
)


@st.composite
def _bcjr_inputs(draw):
    code = draw(_component_codes())
    terminated = draw(st.booleans())
    batch = draw(st.integers(1, 8))
    n_info = draw(st.integers(1, 12))
    k_total = n_info + (code.memory if terminated else 0)
    ls = draw(hnp.arrays(float, (batch, k_total), elements=_LLRS))
    lp = draw(hnp.arrays(float, (batch, k_total), elements=_LLRS))
    la = draw(hnp.arrays(float, (batch, n_info), elements=_LLRS))
    return ls, lp, la, code, terminated


def _long_block_cases():
    """(batch, n_info, code, terminated) cases that each span several runs
    of steps after the middle row, the last one partial.  n_info 4095
    gives an odd K when open, so the middle row pairs with itself.  At
    batch 200 a memory-3 code runs 4 steps at a time, so its open case
    takes 1001 bits: 1000 would leave 500 steps after the middle row, an
    exact number of runs."""
    for batch, n_info in [(1, 4096), (1, 4095), (126, 1000), (200, 1000)]:
        for code_id, code in [("memory2", CODE75), ("memory3", CODE_MEMORY3)]:
            for terminated in (True, False):
                n = n_info + 1 if (batch, code.memory, terminated) == (200, 3, False) else n_info
                yield pytest.param(batch, n, code, terminated,
                                   id=f"{batch}-{n}-{code_id}-{terminated}")


class TestBcjrKernel:
    @settings(max_examples=150, deadline=None)
    @given(inputs=_bcjr_inputs(), exact=st.booleans())
    def test_matches_frozen_reference_bit_for_bit(self, inputs, exact):
        ls, lp, la, code, terminated = inputs
        got = turbo._bcjr_batch(ls, lp, la, code, terminated, exact)
        assert np.array_equal(got, ref_bcjr_batch(ls, lp, la, code, terminated, exact))

    @settings(max_examples=100, deadline=None)
    @given(inputs=_bcjr_inputs(), exact=st.booleans())
    def test_batch_equals_one_block_at_a_time(self, inputs, exact):
        ls, lp, la, code, terminated = inputs
        got = turbo._bcjr_batch(ls, lp, la, code, terminated, exact)
        for b in range(ls.shape[0]):
            one = turbo._bcjr_batch(ls[b:b + 1], lp[b:b + 1], la[b:b + 1], code, terminated, exact)
            assert np.array_equal(got[b:b + 1], one)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("batch, n_info, code, terminated", _long_block_cases())
    def test_long_blocks_match_frozen_reference(self, batch, n_info, code, terminated, exact):
        k_total = n_info + (code.memory if terminated else 0)
        run = turbo._run_steps(batch, code.n_states)
        after_middle = k_total - k_total // 2
        assert after_middle > run and after_middle % run
        rng = np.random.default_rng(batch + code.memory)
        ls = rng.normal(2.0, 4.0, (batch, k_total))
        lp = rng.normal(2.0, 4.0, (batch, k_total))
        la = np.clip(rng.normal(0.0, 8.0, (batch, n_info)), -LLR_CLAMP, LLR_CLAMP)
        got = turbo._bcjr_batch(ls, lp, la, code, terminated, exact)
        assert np.array_equal(got, ref_bcjr_batch(ls, lp, la, code, terminated, exact))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_traced_peak_of_a_large_batch(self, cpus, monkeypatch):
        # 200 x 1000 (1002 steps): the result (1.5 MiB), two metric rows per
        # step (3.1 MiB), half the recursion history (6.1 MiB) and the run
        # buffers; a full history and four metric rows per step took 21.2 MiB.
        # The kernel decodes every row in one pass whatever the CPU count.
        monkeypatch.setattr(turbo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        rng = np.random.default_rng(3)
        ls, lp = rng.normal(2.0, 4.0, (2, 200, 1002))
        la = rng.normal(0.0, 8.0, (200, 1000))
        tracemalloc.start()
        try:
            turbo._bcjr_batch(ls, lp, la, CODE75, terminated=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13 * 2**20

    def test_traced_peak_of_one_long_block(self):
        # one terminated 4096-bit block (4098 steps) takes 0.91 MiB; keeping
        # all 4099 recursion rows in place of the first half took 1.04 MiB
        rng = np.random.default_rng(4)
        ls, lp = rng.normal(2.0, 4.0, (2, 1, 4098))
        la = rng.normal(0.0, 8.0, (1, 4096))
        tracemalloc.start()
        try:
            turbo._bcjr_batch(ls, lp, la, CODE75, terminated=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20


def transmit_turbo_blocks(n_info, ebn0_db, n_blocks, seed):
    root = np.random.SeedSequence(seed)
    ss_perm, ss_data = root.spawn(2)
    interleaver = random_interleaver(n_info, ss_perm)
    channel = ChannelModel(ebn0_db, rate=1.0 / 3.0)
    rng = np.random.default_rng(ss_data)
    out = []
    for _ in range(n_blocks):
        bits = rng.integers(0, 2, n_info)
        cw = turbo_encode(bits, CODE75, interleaver)
        rx = transmit(cw, channel, seed=rng.integers(2**32))
        out.append(rx)
    return interleaver, out


def decode_blocks(blocks, interleaver, max_iters):
    """``_turbo_iterations`` on received rate-1/3 blocks, decoded as one batch."""
    k = len(interleaver) + CODE75.memory
    llrs = np.stack([rx.llrs for rx in blocks])
    truth = np.stack([rx.truth[:len(interleaver)] for rx in blocks])
    return turbo._turbo_iterations(llrs[:, :k], llrs[:, k:2 * k], llrs[:, 2 * k:], truth,
                                   interleaver, CODE75, max_iters)


class TestTurboDecode:
    @pytest.mark.parametrize("field", ["n_info", "n_blocks", "max_iters"])
    @pytest.mark.parametrize("value", [8.0, True])
    def test_counts_must_be_ints(self, field, value):
        counts = {"n_info": 8, "n_blocks": 1, "max_iters": 1, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be an int"):
            simulate_turbo(ebn0_db=1.0, seed=1, **counts)

    def test_noiseless_zero_ber_every_iteration(self):
        interleaver, blocks = transmit_turbo_blocks(128, 40.0, 1, seed=21)
        trace = decode_blocks(blocks, interleaver, max_iters=2)
        assert trace.ber.shape == (1, 2)
        assert (trace.ber == 0.0).all()

    def test_iterations_reduce_ber_at_2db(self):
        trace = simulate_turbo(1024, 2.0, 20, max_iters=8, seed=22)
        first = np.mean(trace.ber[:, 0])
        last = np.mean(trace.ber[:, 7])
        assert last <= first
        assert last <= 1e-3

    def test_monotone_extrinsic_growth_in_waterfall(self):
        trace = simulate_turbo(1024, 2.0, 10, max_iters=8, seed=23)
        ie1 = trace.i_e_dec1.mean(axis=0)
        assert all(b >= a - 0.01 for a, b in zip(ie1, ie1[1:]))

    def test_pinched_regime_at_minus_5db(self):
        trace = simulate_turbo(1024, -5.0, 10, max_iters=8, seed=24)
        ie1 = trace.i_e_dec1.mean(axis=0)
        ber = np.mean(trace.ber[:, 7])
        assert ie1.max() < 0.5
        assert ber > 0.1

    def test_batch_matches_single_block_decode(self):
        trace = simulate_turbo(64, 1.0, 3, max_iters=4, seed=25)
        assert trace.ber.shape == (3, 4)
        # re-derive the exact same blocks and decode them together and one
        # at a time
        root = np.random.SeedSequence(25)
        ss_perm, ss_bits, ss_noise = root.spawn(3)
        interleaver = random_interleaver(64, ss_perm)
        channel = ChannelModel(1.0, rate=1.0 / 3.0)
        bit_rng = np.random.default_rng(ss_bits)
        blocks = []
        for ss in ss_noise.spawn(3):
            bits = bit_rng.integers(0, 2, 64)
            cw = turbo_encode(bits, CODE75, interleaver)
            blocks.append(transmit(cw, channel, ss))
        for got, ref in zip(trace, decode_blocks(blocks, interleaver, max_iters=4)):
            assert np.array_equal(got, ref)
        for b, rx in enumerate(blocks):
            alone = decode_blocks([rx], interleaver, max_iters=4)
            for got, ref in zip(trace, alone):
                assert np.array_equal(got[b], ref[0])

    def test_trace_csv_format(self):
        trace = simulate_turbo(32, 3.0, 2, max_iters=2, seed=26)
        text = trace_csv(trace, seed=26)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=26"
        assert lines[1] == "block,iteration,i_e_dec1,i_e_dec2,ber"
        assert len(lines) == 2 + 2 * 2
        assert lines[2].startswith("0,1,")

    def test_batch_encode_matches_single_block_encode(self):
        interleaver = random_interleaver(40, seed=3)
        bits = np.random.default_rng(4).integers(0, 2, (5, 40))
        batch = turbo_encode(bits, CODE75, interleaver)
        for b in range(5):
            one = turbo_encode(bits[b], CODE75, interleaver)
            np.testing.assert_array_equal(batch[b], one)

    def test_s_random_trace_matches_pinned_digest(self):
        # digest recorded before the encoder and interleaver were vectorized
        traces = simulate_turbo(1024, 1.0, 3, max_iters=4, seed=11, interleaver_kind="s_random")
        text = trace_csv(traces, seed=11)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e2f8a44816bffa125b883590f2c043e353e59a86258a03747833e5a96224ae43"
        )

    def test_trace_matches_committed_digest(self):
        import json
        from pathlib import Path

        fixture = json.loads(
            (Path(__file__).parent / "fixtures" / "turbo_trace.json").read_text()
        )
        expected = fixture.pop("sha256")
        traces = simulate_turbo(**fixture)
        text = trace_csv(traces, seed=fixture["seed"])
        assert hashlib.sha256(text.encode()).hexdigest() == expected


def _split_forced(mp, forks):
    """Split every decode of two or more rows, as on two CPUs, and record
    each ``os.fork`` the caller makes in ``forks``."""
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    mp.setattr(turbo.os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(turbo, "_FORK_BREAK_EVEN", 1)
    mp.setattr(turbo.os, "fork", counting_fork)


def _in_one_process(mp):
    mp.setattr(turbo.os, "sched_getaffinity", lambda pid: {0})


_EXIT_GRID = st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4, 0.5, 0.7, 0.85, 0.95]),
                      min_size=2, max_size=5, unique=True).map(sorted)


class TestForkedHalves:
    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from([CODE75, CODE_MEMORY3]), n_info=st.integers(1, 24),
           n_blocks=st.integers(1, 7), iters=st.integers(1, 3),
           ebn0_db=st.sampled_from([-2.0, 1.0, 4.0]),
           kind=st.sampled_from(["uniform", "s_random"]), seed=st.integers(0, 2**32 - 1))
    def test_turbo_split_equals_one_process(self, code, n_info, n_blocks, iters, ebn0_db, kind,
                                            seed):
        forks = []
        args = (n_info, ebn0_db, n_blocks, iters, seed, code, kind)
        with pytest.MonkeyPatch.context() as mp:
            _in_one_process(mp)
            expected = simulate_turbo(*args)
        with pytest.MonkeyPatch.context() as mp:
            _split_forced(mp, forks)
            got = simulate_turbo(*args)
        assert len(forks) == (n_blocks >= 2)
        for got_field, expected_field in zip(got, expected):
            assert got_field.shape == (n_blocks, iters)
            assert np.array_equal(got_field, expected_field)

    @settings(max_examples=20, deadline=None)
    @given(code=st.sampled_from([CODE75, CODE_MEMORY3]), grid=_EXIT_GRID,
           samples=st.integers(1000, 2500), ebn0_db=st.sampled_from([-2.0, 0.5, 3.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_exit_split_equals_one_process(self, code, grid, samples, ebn0_db, seed):
        forks = []
        args = (code, ChannelModel(ebn0_db, rate=0.5), grid, samples, seed)
        with pytest.MonkeyPatch.context() as mp:
            _in_one_process(mp)
            expected = exit_chart.measure_exit_curve(*args)
        with pytest.MonkeyPatch.context() as mp:
            _split_forced(mp, forks)
            got = exit_chart.measure_exit_curve(*args)
        assert len(forks) == 1
        assert got == expected

    @pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing", ["child", "caller"])
    @pytest.mark.parametrize("kind", ["turbo", "exit"])
    def test_error_in_either_half_is_raised(self, kind, failing, exc_type, monkeypatch):
        # five blocks or grid points of one block: the child decodes 2 rows,
        # the caller 3; the child's half fails again when the caller redoes it
        failing_rows = 2 if failing == "child" else 3
        module, name = (turbo, "_turbo_iterations") if kind == "turbo" else (exit_chart,
                                                                             "_bcjr_batch")
        real = getattr(module, name)

        def failing_decode(ls, *args, **kwargs):
            if ls.shape[0] == failing_rows:
                raise exc_type(f"{failing} half failed")
            return real(ls, *args, **kwargs)

        forks = []
        _split_forced(monkeypatch, forks)
        monkeypatch.setattr(module, name, failing_decode)
        with pytest.raises(exc_type, match=f"^{failing} half failed$"):
            if kind == "turbo":
                simulate_turbo(16, 1.0, 5, 2, seed=4)
            else:
                exit_chart.measure_exit_curve(CODE75, ChannelModel(1.0, rate=0.5),
                                              [0.0, 0.2, 0.4, 0.6, 0.8], 1000, seed=4)
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_child_is_replaced_by_the_caller(self, monkeypatch):
        expected = simulate_turbo(16, 1.0, 5, 2, seed=5)
        caller = os.getpid()
        real = turbo._turbo_iterations

        def dying_child(*args):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(*args)

        forks = []
        _split_forced(monkeypatch, forks)
        monkeypatch.setattr(turbo, "_turbo_iterations", dying_child)
        got = simulate_turbo(16, 1.0, 5, 2, seed=5)
        assert len(forks) == 1
        for got_field, expected_field in zip(got, expected):
            assert np.array_equal(got_field, expected_field)

    @pytest.mark.parametrize("condition", ["no-fork", "fork-fails", "mmap-refused",
                                           "no-affinity", "one-cpu", "second-thread",
                                           "below-break-even"])
    def test_in_process_fallback(self, condition, monkeypatch):
        # 4 blocks of 16 bits with 2 iterations stay below the break-even
        expected = simulate_turbo(16, 1.0, 4, 2, seed=6)

        def no_fork():
            raise AssertionError("forked")

        def failing_fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        def refused_mmap(*args):
            raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

        _split_forced(monkeypatch, [])
        monkeypatch.setattr(turbo.os, "fork", no_fork)
        if condition == "no-fork":
            monkeypatch.delattr(turbo.os, "fork")
        elif condition == "fork-fails":
            monkeypatch.setattr(turbo.os, "fork", failing_fork)
        elif condition == "mmap-refused":
            monkeypatch.setattr(mmap, "mmap", refused_mmap)
        elif condition == "no-affinity":
            monkeypatch.delattr(turbo.os, "sched_getaffinity")
        elif condition == "one-cpu":
            _in_one_process(monkeypatch)
        elif condition == "below-break-even":
            # each half: 2 blocks x 2 decoders x 2 iterations x 18 steps x 4 states
            monkeypatch.setattr(turbo, "_FORK_BREAK_EVEN", 2 * 2 * 2 * 18 * 4 + 1)
        release = threading.Event()
        helper = threading.Thread(target=release.wait)
        if condition == "second-thread":
            helper.start()
        try:
            got = simulate_turbo(16, 1.0, 4, 2, seed=6)
        finally:
            release.set()
            if helper.is_alive():
                helper.join(timeout=10)
        assert not helper.is_alive()
        for got_field, expected_field in zip(got, expected):
            assert np.array_equal(got_field, expected_field)


class TestCallerHalf:
    @pytest.mark.parametrize("n_blocks", [2, 5, 8])
    def test_caller_transmits_only_its_blocks(self, n_blocks, monkeypatch):
        expected = simulate_turbo(16, 1.0, n_blocks, 2, seed=7)
        caller = os.getpid()
        senders = []  # the child's calls land in its own copy of this list
        real = turbo.transmit

        def recording_transmit(*args):
            senders.append(os.getpid())
            return real(*args)

        forks = []
        _split_forced(monkeypatch, forks)
        monkeypatch.setattr(turbo, "transmit", recording_transmit)
        got = simulate_turbo(16, 1.0, n_blocks, 2, seed=7)
        assert forks == [caller]
        assert senders == [caller] * (n_blocks - n_blocks // 2)
        for got_field, expected_field in zip(got, expected):
            assert np.array_equal(got_field, expected_field)

    def test_traced_peak_of_the_caller(self, monkeypatch):
        # 40 blocks of 1024 bits, one iteration: the caller's peak is its
        # own 20 blocks' decoder pass and their channel LLRs (0.47 MiB);
        # holding the child's 20 blocks' LLRs as well took 3.12 MiB
        forks = []
        _split_forced(monkeypatch, forks)
        tracemalloc.start()
        try:
            simulate_turbo(1024, 1.0, 40, 1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(forks) == 1
        assert peak <= 2.9 * 2**20
