"""RSC encoding, channels, BCJR vs brute-force MAP, and the turbo loop."""

import hashlib
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infoplay.entropy import LLR_CLAMP, LlrBlock
from infoplay import turbo
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

from oracles import brute_force_map, ref_bcjr_batch, ref_encode_75, ref_s_random_permutation

CODE75 = RscCode(feedback_poly=0o7, feedforward_poly=0o5, memory=2)


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
            s_random_interleaver(4, 6, s=3, max_tries=5)

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
def _component_codes(draw):
    memory = draw(st.integers(1, 3))
    feedback = draw(st.integers(1 << memory, (1 << (memory + 1)) - 1))
    feedforward = draw(st.integers(1, (1 << (memory + 1)) - 1))
    return RscCode(feedback_poly=feedback, feedforward_poly=feedforward, memory=memory)


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

    # every case spans several runs of steps after the middle row, the last
    # one partial: batch 1 in one set of rows, batches 126 (just above the
    # memory-2 split threshold) and 200 as two row halves; n_info 4095
    # gives an odd K when open, so the middle row pairs with itself
    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("terminated", [True, False])
    @pytest.mark.parametrize("code", [CODE75, RscCode(0o13, 0o15, memory=3)],
                             ids=["memory2", "memory3"])
    @pytest.mark.parametrize("batch, n_info", [(1, 4096), (1, 4095), (126, 1000), (200, 1000)])
    def test_long_blocks_match_frozen_reference(self, batch, n_info, code, terminated, exact,
                                                monkeypatch):
        monkeypatch.setattr(turbo.os, "sched_getaffinity", lambda pid: {0, 1})
        k_total = n_info + (code.memory if terminated else 0)
        rows = batch // 2 if batch >= _SPLIT_FROM[code.memory] else batch
        run = turbo._run_steps(rows, code.n_states)
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
        # buffers; a full history and four metric rows per step took 21.2 MiB
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


# the smallest batch decoded as two row halves, by code memory: each half's
# per-step logaddexp must exceed numpy's 500-element GIL release
_SPLIT_FROM = {2: 126, 3: 64}


@st.composite
def _batches_around_split(draw):
    code = draw(_component_codes().filter(lambda c: c.memory >= 2))
    terminated = draw(st.booleans())
    split_from = _SPLIT_FROM[code.memory]
    batch = draw(st.sampled_from([split_from - 1, split_from]) | st.integers(1, 2 * split_from))
    n_info = draw(st.integers(1, 6))
    k_total = n_info + (code.memory if terminated else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    streams = []
    for width in (k_total, k_total, n_info):
        llrs = np.clip(rng.normal(0.0, 8.0, (batch, width)), -LLR_CLAMP, LLR_CLAMP)
        saturated = rng.random(llrs.shape) < 0.1
        llrs[saturated] = np.copysign(LLR_CLAMP, llrs[saturated])
        streams.append(llrs)
    return (*streams, code, terminated)


def _single_thread_rows(ls, lp, la, code, terminated, exact):
    batch, k_total = ls.shape
    app = np.empty(la.shape)
    buf = np.empty(turbo._scratch_elements(batch, k_total, code.n_states))
    turbo._bcjr_rows(ls, lp, la, code, terminated, exact, app, buf)
    return app


class TestBcjrSplit:
    @settings(max_examples=120, deadline=None)
    @given(inputs=_batches_around_split(), exact=st.booleans(), cpus=st.sampled_from([1, 2]))
    def test_split_equals_one_thread(self, inputs, exact, cpus):
        ls, lp, la, code, terminated = inputs
        expected = _single_thread_rows(ls, lp, la, code, terminated, exact)
        threads = []
        real_rows = turbo._bcjr_rows

        def recording_rows(*args):
            threads.append(threading.current_thread())
            real_rows(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(turbo.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            mp.setattr(turbo, "_bcjr_rows", recording_rows)
            got = turbo._bcjr_batch(ls, lp, la, code, terminated, exact)
        assert np.array_equal(got, expected)
        split = cpus == 2 and ls.shape[0] >= _SPLIT_FROM[code.memory]
        if split:
            assert len(threads) == 2 and threads[0] is not threads[1]
            assert threading.current_thread() in threads
        else:
            assert threads == [threading.current_thread()]

    @pytest.mark.parametrize("failing_half", ["worker", "caller"])
    def test_error_in_either_half_is_raised(self, failing_half, monkeypatch):
        caller = threading.current_thread()
        real_rows = turbo._bcjr_rows

        def failing_rows(*args):
            on_worker = threading.current_thread() is not caller
            if on_worker == (failing_half == "worker"):
                raise RuntimeError(f"{failing_half} half failed")
            real_rows(*args)

        monkeypatch.setattr(turbo.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(turbo, "_bcjr_rows", failing_rows)
        ls = np.zeros((200, 12))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing_half} half failed"):
            turbo._bcjr_batch(ls, ls, np.zeros((200, 10)), CODE75, terminated=True)
        assert threading.active_count() == before


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
