"""Reference iterative decoder: recursive systematic convolutional coding,
memoryless channels, exact log-MAP (BCJR) component decoding, and the
parallel-concatenated turbo loop with explicit extrinsic exchange.

Polynomials use the standard octal convention: bit ``memory - d`` of the
integer is the coefficient of D^d, so (7, 5) with memory 2 is the
canonical feedback 1+D+D^2 / feedforward 1+D^2 component code.

The component decoder keeps four branch metrics per trellis step, one
per (input bit, parity bit) pair, and advances the forward and backward
recursions together in one loop over the steps, as one stacked state.
Both recursions operate on a batch axis so independent blocks decode
together; results are identical to decoding each block alone because
blocks never mix.  For the same reason a large batch is decoded as two
row halves at once, one on a short-lived worker thread, when the process
may run on two or more CPUs; the result is bit-identical to one pass.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .entropy import LLR_CLAMP, LlrBlock, _llr_information, _seed_sequence
from .errors import NumericalContractError, ValidationError

AWGN_BPSK = "awgn_bpsk"

_NEG_INF = -np.inf
# float64 elements per run of steps in the a-posteriori pass (192 KiB)
_APP_RUN_ELEMENTS = 24_576
# numpy releases the GIL inside a ufunc loop only above this many
# elements, so the two row halves of _bcjr_batch run at once only when
# each half's per-step logaddexp, (B // 2) * 2 * states elements, exceeds
# it: from 126 rows for a memory-2 code.  Smaller batches stay on one
# thread, where a split is slower.
_GIL_RELEASE_ELEMENTS = 500


def _parity(x: int) -> int:
    return bin(x).count("1") & 1


@dataclass(frozen=True)
class RscCode:
    """A rate-1/2 recursive systematic convolutional component code."""

    feedback_poly: int = 0o7
    feedforward_poly: int = 0o5
    memory: int = 2

    def __post_init__(self):
        m = self.memory
        if m < 1:
            raise ValidationError("memory must be >= 1")
        if not (1 << m) <= self.feedback_poly < (1 << (m + 1)):
            raise ValidationError(
                "feedback polynomial must have degree <= memory and a nonzero constant term"
            )
        if not 1 <= self.feedforward_poly < (1 << (m + 1)):
            raise ValidationError("feedforward polynomial degree must be <= memory")

    @property
    def n_states(self) -> int:
        return 1 << self.memory


class _Trellis:
    """Precomputed transition tables for one RSC code.

    State bits live below the input bit in the tap register, newest first,
    so state s with input u forms the register (u << m) | s and the next
    state is (a << (m-1)) | (s >> 1) where a is the feedback-filtered bit
    that actually enters the shift register.
    """

    def __init__(self, code: RscCode):
        m = code.memory
        n = code.n_states
        self.code = code
        self.next_state = np.zeros((2, n), dtype=np.intp)
        self.parity_bit = np.zeros((2, n), dtype=np.int8)
        self.term_bit = np.zeros(n, dtype=np.intp)  # input forcing a zero into the register
        for s in range(n):
            for u in (0, 1):
                a = _parity(code.feedback_poly & ((u << m) | s))
                self.next_state[u, s] = (a << (m - 1)) | (s >> 1)
                self.parity_bit[u, s] = _parity(code.feedforward_poly & ((a << m) | s))
                if a == 0:
                    self.term_bit[s] = u
        # exactly two incoming edges per state for a binary trellis: edge j
        # into state t leaves state in_s[j, t] on input in_u[j, t]
        self.in_u = np.zeros((2, n), dtype=np.intp)
        self.in_s = np.zeros((2, n), dtype=np.intp)
        fill = np.zeros(n, dtype=np.intp)
        for s in range(n):
            for u in (0, 1):
                t = self.next_state[u, s]
                j = fill[t]
                self.in_u[j, t] = u
                self.in_s[j, t] = s
                fill[t] += 1
        if not (fill == 2).all():
            raise ValidationError("degenerate trellis: states must have two incoming edges")
        # branch-metric row 2u + p of each edge: incoming edge j into t, and
        # the edge leaving s on input u
        self.row_in = 2 * self.in_u + self.parity_bit[self.in_u, self.in_s]
        self.row_out = 2 * np.arange(2)[:, None] + self.parity_bit
        # sources of both recursions in a stacked (alpha | beta) state of 2S
        # rows: [e, 0] is incoming edge e's origin, [e, 1] the end of the
        # edge leaving each state on input e
        self.stacked_src = np.stack([self.in_s, n + self.next_state], axis=1)


@lru_cache(maxsize=None)
def _trellis(code: RscCode) -> _Trellis:
    return _Trellis(code)


def rsc_encode(bits, code: RscCode, terminate: bool = True):
    """Encode ``bits``, returning (systematic, parity) arrays.

    ``bits`` is one (N,) block or a (B, N) batch of blocks, encoded
    together; the outputs have the same leading shape.  With termination
    the trellis is driven back to the zero state, which appends
    ``memory`` tail bits to both outputs.
    """
    u = np.asarray(bits)
    if u.ndim not in (1, 2) or u.size == 0:
        raise ValidationError("input bits must be a non-empty 1-D vector or 2-D batch")
    if not np.isin(u, (0, 1)).all():
        raise ValidationError("input bits must be 0/1")
    tr = _trellis(code)
    n_states = code.n_states
    steps = u.T.reshape(u.shape[-1], -1)  # time-major (N, B)
    n_info, batch = steps.shape
    n_out = n_info + (code.memory if terminate else 0)
    sys_out = np.empty((n_out, batch), dtype=np.int8)
    par_out = np.empty((n_out, batch), dtype=np.int8)
    sys_out[:n_info] = steps
    # flat (u, s) transition index per step: u * S + s
    edge = steps.astype(np.intp) * n_states
    next_flat = tr.next_state.ravel()
    parity_flat = tr.parity_bit.ravel()
    s = np.zeros(batch, dtype=np.intp)
    for k in range(n_out):
        if k < n_info:
            idx = edge[k] + s
        else:
            tail = tr.term_bit[s]
            sys_out[k] = tail
            idx = tail * n_states + s
        par_out[k] = parity_flat[idx]
        s = next_flat[idx]
    if terminate and s.any():
        raise NumericalContractError(
            f"termination left the encoder in state {int(s[s != 0][0])}, not 0"
        )
    if u.ndim == 1:
        return sys_out[:, 0], par_out[:, 0]
    return np.ascontiguousarray(sys_out.T), np.ascontiguousarray(par_out.T)


@dataclass(frozen=True, eq=False)
class Interleaver:
    """A bijective permutation of block positions."""

    permutation: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.permutation)
        if perm.dtype.kind not in "iu":
            raise ValidationError(f"permutation must hold integers, got dtype {perm.dtype}")
        perm = perm.astype(np.intp)
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValidationError("permutation must be a bijection on [0, N)")
        object.__setattr__(self, "permutation", perm)
        object.__setattr__(self, "_inverse", np.argsort(perm))

    def __len__(self) -> int:
        return self.permutation.size

    def interleave(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., self.permutation]

    def deinterleave(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., self._inverse]


def random_interleaver(n: int, seed) -> Interleaver:
    return Interleaver(np.random.default_rng(seed).permutation(n))


def s_random_interleaver(n: int, seed, s: int | None = None, max_tries: int = 1000) -> Interleaver:
    """Spread interleaver: positions within distance s map at least s apart.

    Default spread is floor(sqrt(n/2)).  Seeded greedy placement: each
    step places the first candidate at distance >= s from the last s
    values placed.  When it gets stuck, the unplaced values are
    reshuffled to the front of the next attempt so the hard cases are
    placed first.  Deterministic for a fixed seed.
    """
    if s is None:
        s = int(np.sqrt(n / 2))
    rng = np.random.default_rng(seed)
    vector = list(rng.permutation(n))
    for _ in range(max_tries):
        order = np.array(vector, dtype=np.intp)
        position = np.empty(n, dtype=np.intp)  # of each value in the candidate order
        position[order] = np.arange(n)
        # per candidate: how many of the last s values placed lie closer
        # than s to it, or above n once it is placed itself
        busy = np.zeros(n, dtype=np.intp)
        perm: list[int] = []
        while len(perm) < n:
            idx = int(busy.argmin())  # the first free unblocked candidate
            if busy[idx]:
                break
            busy[idx] = n + 1
            c = int(order[idx])
            perm.append(c)
            if s > 0:
                busy[position[max(c - s + 1, 0):c + s]] += 1
                if len(perm) > s:  # perm[-s - 1] leaves the window
                    r = perm[-s - 1]
                    busy[position[max(r - s + 1, 0):r + s]] -= 1
        if len(perm) == n:
            return Interleaver(np.array(perm))
        candidates = list(order[busy <= n])
        rng.shuffle(candidates)
        vector = candidates + perm
    raise ValidationError(f"could not build an S-random interleaver with s={s} for n={n}")


@dataclass(frozen=True)
class ChannelModel:
    """A memoryless binary-input channel.

    The one kind is ``awgn_bpsk``: parameter is Eb/N0 in dB; the noise
    variance also depends on the code rate of the transmitted stream, so
    ``rate`` must be set to the overall code rate (1.0 for uncoded).
    """

    kind: str
    parameter: float
    rate: float = 1.0

    def __post_init__(self):
        if self.kind != AWGN_BPSK:
            raise ValidationError(f"unknown channel kind {self.kind!r}")
        if not np.isfinite(self.parameter):
            raise ValidationError("channel parameter must be finite")
        if not (0.0 < self.rate <= 1.0):
            raise ValidationError("code rate must lie in (0, 1]")
        # beyond about +-3000 dB the variance, or the LLR scale 2 / var,
        # leaves the normal float range
        try:
            variance = self.noise_variance()
        except (OverflowError, ZeroDivisionError):
            variance = np.inf
        if not np.finfo(float).tiny <= variance < np.inf:
            raise ValidationError(
                f"Eb/N0 of {self.parameter!r} dB gives no usable noise variance")

    def noise_variance(self) -> float:
        ebn0 = 10.0 ** (self.parameter / 10.0)
        return 1.0 / (2.0 * self.rate * ebn0)


def transmit(symbols, channel: ChannelModel, seed) -> LlrBlock:
    """Send bits over the channel; returns received LLRs with the truth
    attached.  BPSK maps 0 -> +1, 1 -> -1; deterministic given the seed."""
    bits = np.asarray(symbols)
    if bits.ndim != 1 or bits.size == 0:
        raise ValidationError("symbols must be a non-empty 1-D bit vector")
    if not np.isin(bits, (0, 1)).all():
        raise ValidationError("symbols must be 0/1")
    rng = np.random.default_rng(seed)
    x = 1.0 - 2.0 * bits
    var = channel.noise_variance()
    y = x + rng.normal(0.0, np.sqrt(var), size=bits.size)
    return LlrBlock(2.0 * y / var, bits)


def _bcjr_batch(ls, lp, la, code: RscCode, terminated: bool, exact: bool = True):
    """Log-MAP forward/backward over a batch of blocks.

    ls, lp: (B, K) channel LLRs for systematic and parity streams, K
    counting tail steps when terminated; la: (B, N) a-priori LLRs on the
    information bits.  Returns (B, N) a-posteriori LLRs.  ``exact=False``
    switches max* to a plain max (max-log approximation).

    A batch whose row halves each give every step more than
    ``_GIL_RELEASE_ELEMENTS`` elements is decoded as two halves at once
    when the process may run on two or more CPUs: the lower half on a
    short-lived worker thread, the upper half on the calling thread.  The
    result is bit-identical to one pass over all rows, because rows never
    mix: every operation of ``_bcjr_rows`` is elementwise along the batch
    axis or reduces over states within one row.  The caller allocates
    ``app`` and the whole metric/recursion slab, and each half gets a
    contiguous slice of both; a buffer allocated on the worker would come
    from a second malloc arena and raise peak RSS.  An error in either
    half is raised here, after the worker has ended.
    """
    batch, k_total = ls.shape
    n_info = la.shape[1]
    n_states = code.n_states
    # the result is allocated first and written in place: peak RSS depends
    # on the order of the large allocations
    app = np.empty((batch, n_info))
    # per row: the 4 metric rows of each step, then (alpha, beta) per step
    per_row = 4 * k_total + (k_total + 1) * 2 * n_states
    buf = np.empty(per_row * batch)
    half = batch // 2
    if (half * 2 * n_states <= _GIL_RELEASE_ELEMENTS
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2):
        _bcjr_rows(ls, lp, la, code, terminated, exact, app, buf)
        return app

    errors = []

    def lower_half():
        try:
            _bcjr_rows(ls[:half], lp[:half], la[:half], code, terminated, exact,
                       app[:half], buf[:per_row * half])
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    worker = threading.Thread(target=lower_half)
    worker.start()
    try:
        _bcjr_rows(ls[half:], lp[half:], la[half:], code, terminated, exact,
                   app[half:], buf[per_row * half:])
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return app


def _bcjr_rows(ls, lp, la, code: RscCode, terminated: bool, exact: bool, app, buf):
    """The BCJR pass of ``_bcjr_batch`` on one set of rows, written into
    ``app`` (B, N); ``buf`` holds (4K + 2S(K + 1)) B float64 elements of
    scratch.

    An edge's branch metric depends only on its input bit u and parity
    bit p, so step k has four: row 4k + 2u + p of one (4K, B) table holds
    0.5 ls (1 - 2u) + 0.5 lp (1 - 2p), a-priori included.  One loop
    advances alpha(k) and beta(K - k) together: ``hist[k]`` stacks them as
    (2, S, B), one ``take`` gathers the forward edges into each state and
    the backward edges out of each state, and ``midx[k]`` names the metric
    rows of both.  The a-posteriori LLRs are then formed from the stored
    alpha and beta over runs of steps.  The batch is the last axis, so
    every step works on contiguous rows of B values.

    A terminated tail needs no edge mask: the register then holds exactly
    the bits fed in during the tail, so a path over any other tail edge
    ends off state 0, where beta(K) is -inf; alpha is read on the
    information steps only.
    """
    tr = _trellis(code)
    n_states = code.n_states
    batch, k_total = ls.shape
    n_info = la.shape[1]
    acc = np.logaddexp if exact else np.maximum

    # one buffer: the metric table, then hist[k] = (alpha(k), beta(K - k))
    n_rows = 4 * k_total
    gam = buf[:n_rows * batch].reshape(n_rows, batch)
    hist = buf[n_rows * batch:].reshape(k_total + 1, 2, n_states, batch)
    rows = gam.reshape(k_total, 4, batch)
    g00, g01, g10, g11 = rows.transpose(1, 0, 2)  # gamma by (u, p)
    g00[:] = ls.T
    g00[:n_info] += la.T
    g00 *= 0.5  # half the systematic LLR
    np.multiply(lp.T, 0.5, out=g01)  # half the parity LLR
    # the +-1 factors only flip signs, so these are exact
    np.subtract(g01, g00, out=g10)
    np.add(g00, g01, out=g11)
    np.negative(g10, out=g01)
    g00[:] = g11
    np.negative(g11, out=g11)

    # midx[k, e, 0]: rows of the edges e into each state at step k;
    # midx[k, e, 1]: rows of the edges leaving each state on input e at step K-1-k
    first_row = 4 * np.arange(k_total)[:, None, None]
    midx = np.stack([first_row + tr.row_in, first_row[::-1] + tr.row_out], axis=2)

    hist[0] = _NEG_INF
    hist[0, 0, 0] = 0.0
    hist[0, 1, 0 if terminated else slice(None)] = 0.0
    flat = hist.reshape(k_total + 1, 2 * n_states, batch)
    for k in range(k_total):
        x = flat[k].take(tr.stacked_src, axis=0)
        x += gam.take(midx[k], axis=0)
        y = acc(x[0], x[1], out=hist[k + 1])
        y -= y.max(axis=1, keepdims=True)

    # edge (u, s) at step k: (beta(k + 1) at its end + gamma) + alpha(k) at s
    run = max(1, _APP_RUN_ELEMENTS // (2 * n_states * batch))
    for a in range(0, n_info, run):
        b = min(a + run, n_info)
        metric = hist[k_total - b:k_total - a, 1][::-1].take(tr.next_state, axis=1)
        metric += rows[a:b].take(tr.row_out, axis=1)
        metric += hist[a:b, 0, None]
        per_input = acc(metric[:, :, 0], metric[:, :, 1])
        for s in range(2, n_states):
            acc(per_input, metric[:, :, s], out=per_input)
        np.subtract(per_input[:, 0], per_input[:, 1], out=app[:, a:b].T)


def bcjr_decode(
    channel_sys: LlrBlock,
    channel_par: LlrBlock,
    apriori: LlrBlock,
    code: RscCode,
    terminated: bool = True,
    exact: bool = True,
):
    """One soft-in/soft-out component decoding pass.

    Returns (aposteriori, extrinsic) LlrBlocks over the information bits.
    The decomposition L_app = L_ch_sys + L_apriori + L_extrinsic holds per
    bit, which also makes extrinsic[n] independent of apriori[n].
    """
    n_info = len(apriori)
    expected = n_info + (code.memory if terminated else 0)
    if len(channel_sys) != expected or len(channel_par) != expected:
        raise ValidationError(
            f"channel streams must have length {expected} "
            f"(got {len(channel_sys)} systematic, {len(channel_par)} parity)"
        )
    app = _bcjr_batch(
        channel_sys.llrs[None, :],
        channel_par.llrs[None, :],
        apriori.llrs[None, :],
        code,
        terminated,
        exact,
    )[0]
    truth = channel_sys.truth[:n_info]
    extrinsic = app - apriori.llrs - channel_sys.llrs[:n_info]
    return LlrBlock(app, truth), LlrBlock(extrinsic, truth)


class TurboTrace(NamedTuple):
    """Per block and iteration, as (blocks, iterations) arrays: the
    information of each component decoder's extrinsic LLRs about the bits
    it decodes, and the bit error rate after the iteration."""

    i_e_dec1: np.ndarray
    i_e_dec2: np.ndarray
    ber: np.ndarray


def turbo_encode(bits, code: RscCode, interleaver: Interleaver) -> np.ndarray:
    """Encode one (N,) block or a (B, N) batch into the rate-1/3 parallel
    concatenation [systematic | parity1 | parity2] along the last axis.
    Systematic and first parity are terminated (length N + memory), the
    interleaved encoder is left open (length N)."""
    u = np.asarray(bits)
    if u.shape[-1:] != (len(interleaver),):
        raise ValidationError("interleaver length must equal the information length")
    sys1, par1 = rsc_encode(u, code, terminate=True)
    _, par2 = rsc_encode(interleaver.interleave(u), code, terminate=False)
    return np.concatenate([sys1, par1, par2], axis=-1)


def _turbo_iterations(ls, lp1, lp2, truth, interleaver, code, max_iters) -> TurboTrace:
    """The turbo loop over a batch of blocks: (B, ·) channel LLRs of the
    three streams and the (B, N) information bits they carry."""
    batch, _ = ls.shape
    n = len(interleaver)
    ls_inner = interleaver.interleave(ls[:, :n])
    truth_inner = interleaver.interleave(truth)
    ext2_outer = np.zeros((batch, n))
    trace = TurboTrace(*np.empty((3, batch, max_iters)))
    for it in range(max_iters):
        app1 = _bcjr_batch(ls, lp1, ext2_outer, code, terminated=True)
        ext1 = np.clip(app1 - ext2_outer - ls[:, :n], -LLR_CLAMP, LLR_CLAMP)
        la2 = interleaver.interleave(ext1)
        app2 = _bcjr_batch(ls_inner, lp2, la2, code, terminated=False)
        ext2 = np.clip(app2 - la2 - ls_inner, -LLR_CLAMP, LLR_CLAMP)
        ext2_outer = interleaver.deinterleave(ext2)
        trace.i_e_dec1[:, it] = _llr_information(ext1, truth)
        trace.i_e_dec2[:, it] = _llr_information(ext2, truth_inner)
        # decisions on the second decoder's a-posteriori LLRs, in its order
        trace.ber[:, it] = ((app2 < 0) != truth_inner).mean(axis=1)
    return trace


def simulate_turbo(
    n_info: int,
    ebn0_db: float,
    n_blocks: int,
    max_iters: int,
    seed,
    code: RscCode = RscCode(),
    interleaver_kind: str = "uniform",
) -> TurboTrace:
    """Encode, transmit, and decode ``n_blocks`` independent blocks over an
    AWGN channel at the given Eb/N0, decoding all blocks in one batch.

    Row b of the trace is block b; each row is identical to decoding that
    block alone, because blocks never mix.
    """
    if min(n_info, n_blocks, max_iters) < 1:
        raise ValidationError("n_info, n_blocks and max_iters must each be >= 1")
    root = _seed_sequence(seed)
    ss_perm, ss_bits, ss_noise = root.spawn(3)
    if interleaver_kind == "uniform":
        interleaver = random_interleaver(n_info, ss_perm)
    elif interleaver_kind == "s_random":
        interleaver = s_random_interleaver(n_info, ss_perm)
    else:
        raise ValidationError(f"unknown interleaver kind {interleaver_kind!r}")
    channel = ChannelModel(kind=AWGN_BPSK, parameter=ebn0_db, rate=1.0 / 3.0)

    bit_rng = np.random.default_rng(ss_bits)
    truth = np.empty((n_blocks, n_info), dtype=np.int8)
    for b in range(n_blocks):
        truth[b] = bit_rng.integers(0, 2, n_info)
    words = turbo_encode(truth, code, interleaver)
    llrs = np.empty(words.shape)
    for b, ss in enumerate(ss_noise.spawn(n_blocks)):
        llrs[b] = transmit(words[b], channel, ss).llrs
    # [systematic | parity1 | parity2]: the first two carry the tail
    k = n_info + code.memory
    ls, lp1, lp2 = np.split(llrs, [k, 2 * k], axis=1)
    return _turbo_iterations(ls, lp1, lp2, truth, interleaver, code, max_iters)


def trace_csv(trace: TurboTrace, seed: int | None = None) -> str:
    lines = []
    if seed is not None:
        lines.append(f"# seed={seed}")
    lines.append("block,iteration,i_e_dec1,i_e_dec2,ber")
    i_e_dec1, i_e_dec2, ber = (values.tolist() for values in trace)
    for b, row in enumerate(ber):
        for it in range(len(row)):
            lines.append(
                f"{b},{it + 1},{i_e_dec1[b][it]:.10g},{i_e_dec2[b][it]:.10g},{row[it]:.10g}"
            )
    return "\n".join(lines) + "\n"
