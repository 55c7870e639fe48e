"""Reference iterative decoder: recursive systematic convolutional coding,
memoryless channels, exact log-MAP (BCJR) component decoding, and the
parallel-concatenated turbo loop with explicit extrinsic exchange.

Polynomials use the standard octal convention: bit ``memory - d`` of the
integer is the coefficient of D^d, so (7, 5) with memory 2 is the
canonical feedback 1+D+D^2 / feedforward 1+D^2 component code.

The component decoder keeps two signed branch-metric rows per trellis
step and advances the forward and backward recursions together in one
loop over the steps, as one stacked state.  It keeps only the first half
of that history: the a-posteriori LLR at step t reads row t and row
K - 1 - t, so each later row is paired with its partner as it is made.
Each call allocates its own arrays: the result, the metric rows, the
kept half of the history and buffers one run of steps long.
Both recursions operate on a batch axis so independent blocks decode
together; results are identical to decoding each block alone because
blocks never mix.  For the same reason a large turbo simulation or EXIT
measurement runs its lower half of blocks or grid points, the whole
computation, in a forked child process while the caller runs the upper
half, when the process may run on two or more CPUs (see
``_decode_in_halves``); the result is bit-identical to one pass.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._table import csv_text
from .entropy import LLR_CLAMP, LlrBlock, _llr_information, _seed_sequence
from .errors import NumericalContractError, ValidationError, require_addressable, require_ints

_NEG_INF = -np.inf
# float64 elements of the run buffers of one _bcjr_batch call (512 KiB)
_RUN_ELEMENTS = 65_536
# (row, trellis step, state) elements of BCJR work each half of
# _decode_in_halves must reach before its lower half is forked (see there)
_FORK_BREAK_EVEN = 100_000
# largest RscCode.memory: BCJR work grows with the 2**memory states, about
# 4x per two more bits.  A 2-point EXIT curve of 1000 samples at 0.8 dB
# takes about 5, 18 and 65 s at memory 12, 14 and 16 on a 2-CPU x86-64
# host; building the trellis takes 0.13 s of that at 16.
MAX_MEMORY = 16
# greedy placement attempts before s_random_interleaver gives up
_S_RANDOM_TRIES = 1000


@dataclass(frozen=True)
class RscCode:
    """A rate-1/2 recursive systematic convolutional component code of
    ``memory`` 1 to ``MAX_MEMORY``."""

    feedback_poly: int = 0o7
    feedforward_poly: int = 0o5
    memory: int = 2

    def __post_init__(self):
        require_ints(feedback_poly=self.feedback_poly,
                     feedforward_poly=self.feedforward_poly, memory=self.memory)
        m = self.memory
        if not 1 <= m <= MAX_MEMORY:
            raise ValidationError(f"memory must lie in 1 .. {MAX_MEMORY}, got {m}")
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
    """Precomputed transition tables for one RSC code, in closed form.

    State bits live below the input bit in the tap register, newest first,
    so state s with input u forms the register (u << m) | s and the next
    state is (a << (m-1)) | (s >> 1) where a is the feedback-filtered bit
    that actually enters the shift register.

    ``RscCode`` requires the feedback's constant term, bit m, so
    a = u ^ parity(feedback & s) and u -> a is one to one: the tail input
    that enters a zero is parity(feedback & s), and every state t has
    exactly two incoming edges.  Edge 0 leaves state 2t mod S and edge 1
    state 2t mod S + 1, each on the input whose a is t's top bit.  That is
    the order in which a scan over (state, input) meets them, the order in
    which ``_bcjr_batch`` combines them.
    """

    def __init__(self, code: RscCode):
        m = code.memory
        n = code.n_states
        fed_back = [(code.feedback_poly & s).bit_count() & 1 for s in range(n)]
        enters = [[u ^ f for f in fed_back] for u in (0, 1)]  # a[u][s]
        self.next_state = np.array(
            [[(a << (m - 1)) | (s >> 1) for s, a in enumerate(row)] for row in enters],
            dtype=np.intp)
        self.parity_bit = np.array(
            [[(code.feedforward_poly & ((a << m) | s)).bit_count() & 1
              for s, a in enumerate(row)] for row in enters], dtype=np.int8)
        self.term_bit = np.array(fed_back, dtype=np.intp)  # input forcing a zero into the register
        # edge j into state t leaves state in_s[j, t] on input in_u[j, t]
        in_s = np.array([[2 * t % n + j for t in range(n)] for j in (0, 1)], dtype=np.intp)
        in_u = np.array([[(t >> (m - 1)) ^ fed_back[s] for t, s in enumerate(row)]
                         for row in in_s.tolist()], dtype=np.intp)
        # an edge with input u and parity p has metric (-1)^p gam[k, u != p]
        # (see _bcjr_batch): the row and sign of the edges e into each state,
        # and of the edges leaving each state on input e
        parity_in = self.parity_bit[in_u, in_s]
        self.metric_in = (in_u != parity_in).astype(np.intp)
        self.sign_in = (1.0 - 2.0 * parity_in)[:, :, None]
        self.metric_out = (np.arange(2)[:, None] != self.parity_bit).astype(np.intp)
        self.sign_out = (1.0 - 2.0 * self.parity_bit)[:, :, None]
        # sources of both recursions in a stacked (alpha | beta) row of 2S
        # values: [e, 0] is the origin of each state's incoming edge e,
        # [e, 1] the end of the edge leaving each state on input e
        self.beta_next = n + self.next_state
        self.stacked_src = np.stack([in_s, self.beta_next], axis=1)


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
    if not ((u == 0) | (u == 1)).all():
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


def _require_counts(**counts) -> None:
    """``require_ints``, and refuse a count below 0."""
    require_ints(**counts)
    for name, count in counts.items():
        if count < 0:
            raise ValidationError(f"{name} must be >= 0, got {count}")


def random_interleaver(n: int, seed) -> Interleaver:
    _require_counts(n=n)
    return Interleaver(np.random.default_rng(seed).permutation(n))


def s_random_interleaver(n: int, seed, s: int | None = None) -> Interleaver:
    """Spread interleaver: positions within distance s map at least s apart.

    Default spread is floor(sqrt(n/2)).  Seeded greedy placement: each
    step places the first candidate at distance >= s from the last s
    values placed.  When it gets stuck, the unplaced values are
    reshuffled to the front of the next attempt so the hard cases are
    placed first.  Deterministic for a fixed seed.
    """
    _require_counts(n=n)
    if s is None:
        s = int(np.sqrt(n / 2))
    _require_counts(s=s)
    rng = np.random.default_rng(seed)
    vector = list(rng.permutation(n))
    for _ in range(_S_RANDOM_TRIES):
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
    """A BPSK-modulated AWGN channel at ``ebn0_db`` (Eb/N0 in dB).  The
    noise variance also depends on the code rate of the transmitted stream,
    so ``rate`` must be set to the overall code rate (1.0 for uncoded).
    """

    ebn0_db: float
    rate: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.ebn0_db):
            raise ValidationError("Eb/N0 must be finite")
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
                f"Eb/N0 of {self.ebn0_db!r} dB gives no usable noise variance")

    def noise_variance(self) -> float:
        ebn0 = 10.0 ** (self.ebn0_db / 10.0)
        return 1.0 / (2.0 * self.rate * ebn0)


def transmit(symbols, channel: ChannelModel, seed) -> LlrBlock:
    """Send bits over the channel; returns received LLRs with the truth
    attached.  BPSK maps 0 -> +1, 1 -> -1; deterministic given the seed."""
    bits = np.asarray(symbols)
    if bits.ndim != 1 or bits.size == 0:
        raise ValidationError("symbols must be a non-empty 1-D bit vector")
    if not ((bits == 0) | (bits == 1)).all():
        raise ValidationError("symbols must be 0/1")
    rng = np.random.default_rng(seed)
    x = 1.0 - 2.0 * bits
    var = channel.noise_variance()
    y = x + rng.normal(0.0, np.sqrt(var), size=bits.size)
    return LlrBlock(2.0 * y / var, bits)


def _run_steps(batch: int, n_states: int) -> int:
    """Trellis steps per run of ``_bcjr_batch`` on ``batch`` rows."""
    return max(1, _RUN_ELEMENTS // (10 * n_states * batch))


def _bcjr_batch(ls, lp, la, code: RscCode, terminated: bool, exact: bool = True):
    """Log-MAP forward/backward over a batch of blocks.

    ls, lp: (B, K) channel LLRs for systematic and parity streams, K
    counting tail steps when terminated; la: (B, N) a-priori LLRs on the
    information bits.  Returns (B, N) a-posteriori LLRs.  ``exact=False``
    switches max* to a plain max (max-log approximation).  Rows never
    mix: every operation is elementwise along the batch axis or reduces
    over states within one row, so each row's result does not depend on
    the rest of the batch.

    Metrics: with A = 0.5 (ls + la) (a-priori on the information steps
    only) and P = 0.5 lp, the edge with input bit u and parity bit p has
    branch metric (-1)^p (A + P if u == p else P - A), so step k stores
    the two rows ``gam[k] = (A + P, P - A)``.  Negation is exact, so each
    metric has the bits of A (1 - 2u) + P (1 - 2p).  Each run of steps
    gathers its edge metrics at once, one ``take`` per direction and one
    sign multiply each, the backward ones reversed into loop order.

    Recursions: one loop advances alpha(k) and beta(K - k) together as
    row k, a stacked (2, S, B) state; one ``take`` per step gathers the
    forward edges into each state and the backward edges out of each
    state.  Only rows 0 .. K // 2 are kept (``hist``); later rows pass
    through ``ring``, one run long.

    A-posteriori LLRs: the LLR at step t needs alpha(t), in row t, and
    beta(t + 1), in row K - 1 - t, so rows j and i = K - 1 - j serve each
    other.  After each run of rows j >= K // 2, the LLRs at steps j and i
    are formed from the ring and the partner rows in ``hist`` (the middle
    row of an odd K pairs with itself).  Every LLR comes from the same
    elementwise operations in the same order as from a full history,
    (beta(t + 1) at the edge's end + gamma) + alpha(t), then max* over
    the states in order, so the result is bit-identical.  The batch is
    the last axis, so every step works on contiguous rows of B values.

    A terminated tail needs no edge mask: the register then holds exactly
    the bits fed in during the tail, so a path over any other tail edge
    ends off state 0, where beta(K) is -inf; LLRs are written for the
    information steps only.
    """
    tr = _trellis(code)
    n_states = code.n_states
    batch, k_total = ls.shape
    n_info = la.shape[1]
    acc = np.logaddexp if exact else np.maximum
    max_reduce = np.maximum.reduce
    run = _run_steps(batch, n_states)
    mid = k_total // 2
    # the result is allocated first and written in place: peak RSS depends
    # on the order of the large allocations.  The run buffers (ring to
    # peak) do not grow with K.
    app = np.empty((batch, n_info))
    gam = np.empty((k_total, 2, batch))
    hist = np.empty((mid + 1, 2, n_states, batch))
    ring = np.empty((run + 1, 2, n_states, batch))
    edges = np.empty((run, 2, 2, n_states, batch))
    metric = np.empty((2, run, 2, n_states, batch))
    step = np.empty((2, 2, n_states, batch))
    peak = np.empty((2, 1, batch))

    # gam[k] = (A + P, P - A), a chunk of steps at a time, A in the
    # metric buffer
    chunk = metric.size // batch
    for a in range(0, k_total, chunk):
        b = min(a + chunk, k_total)
        n = min(max(n_info, a), b)  # the information steps end here
        half_sys = metric.reshape(-1)[:(b - a) * batch].reshape(b - a, batch)
        np.add(ls[:, a:n].T, la[:, a:n].T, out=half_sys[:n - a])
        half_sys[n - a:] = ls[:, n:b].T
        half_sys *= 0.5
        half_par = gam[a:b, 1]
        np.multiply(lp[:, a:b].T, 0.5, out=half_par)
        np.add(half_sys, half_par, out=gam[a:b, 0])
        half_par -= half_sys

    def advance(rows, k0, steps):
        """Rows k0 + 1 .. k0 + steps into rows[1:], from row k0 in rows[0]."""
        # edges[q] = (e, direction, S, B): the forward edges at step k0 + q
        # and the backward edges at step K - 1 - k0 - q
        fwd, bwd = metric[:, :steps]
        gam[k0:k0 + steps].take(tr.metric_in, axis=1, out=fwd, mode="clip")
        gam[k_total - k0 - steps:k_total - k0].take(tr.metric_out, axis=1, out=bwd,
                                                    mode="clip")
        np.multiply(fwd, tr.sign_in, out=edges[:steps, :, 0])
        np.multiply(bwd[::-1], tr.sign_out, out=edges[:steps, :, 1])
        flat = rows.reshape(steps + 1, 2 * n_states, batch)
        src, x = tr.stacked_src, step  # x += rebinds x to itself
        x_e0, x_e1 = x
        for q in range(steps):
            flat[q].take(src, 0, x, "clip")
            x += edges[q]
            y = acc(x_e0, x_e1, out=rows[q + 1])
            max_reduce(y, axis=1, keepdims=True, out=peak)
            y -= peak

    hist[0] = _NEG_INF
    hist[0, 0, 0] = 0.0
    hist[0, 1, 0 if terminated else slice(None)] = 0.0
    for k0 in range(0, mid, run):
        steps = min(run, mid - k0)
        advance(hist[k0:k0 + steps + 1], k0, steps)

    # ring[q] holds row k0 + q; after a run, rows k0 .. k0 + steps - 1
    # pair with partners[p] = row K - k0 - steps + p, the partner of
    # ring[steps - 1 - p].  The last run also makes row K, which nothing
    # reads.
    ring[0] = hist[mid]
    for k0 in range(mid, k_total, run):
        steps = min(run, k_total - k0)
        advance(ring[:steps + 1], k0, steps)
        rows = ring[:steps]
        partners = hist[k_total - k0 - steps:k_total - k0]
        # edge (u, s) at step t: (beta(t + 1) at its end + gamma) + alpha(t)
        # at s; at_i in ring order for steps i, at_j in partner order for
        # steps j.  The backward metrics of advance are those at steps i.
        at_i, at_j = metric[:, :steps]
        gamma = edges[:steps].transpose(2, 0, 1, 3, 4)  # (steps j | steps i)
        gam[k0:k0 + steps].take(tr.metric_out, axis=1, out=at_j, mode="clip")
        np.multiply(at_j[::-1], tr.sign_out, out=gamma[0])
        rows.reshape(steps, 2 * n_states, batch).take(tr.beta_next, axis=1, out=at_i,
                                                      mode="clip")
        partners.reshape(steps, 2 * n_states, batch).take(tr.beta_next, axis=1, out=at_j,
                                                          mode="clip")
        metric[:, :steps] += gamma[::-1]
        at_i += partners[::-1, 0, None]
        at_j += rows[::-1, 0, None]
        per_input = metric[:, :steps, :, 0]
        for s in range(1, n_states):
            acc(per_input, metric[:, :steps, :, s], out=per_input)
        # no LLR at steps i >= N (short terminated blocks) or j >= N (the tail)
        skip = min(steps, max(0, k_total - k0 - n_info))
        np.subtract(at_i[skip:, 0, 0], at_i[skip:, 1, 0],
                    out=app[:, k_total - k0 - steps:k_total - k0 - skip][:, ::-1].T)
        skip = min(steps, max(0, k0 + steps - n_info))
        np.subtract(at_j[skip:, 0, 0], at_j[skip:, 1, 0],
                    out=app[:, k0:k0 + steps - skip][:, ::-1].T)
        ring[0] = ring[steps]
    return app


def bcjr_decode(
    channel_sys: LlrBlock,
    channel_par: LlrBlock,
    apriori: LlrBlock,
    code: RscCode,
    exact: bool = True,
):
    """One soft-in/soft-out component decoding pass over a terminated
    block: both channel streams carry the ``code.memory`` tail steps.

    Returns (aposteriori, extrinsic) LlrBlocks over the information bits.
    The decomposition L_app = L_ch_sys + L_apriori + L_extrinsic holds per
    bit, which also makes extrinsic[n] independent of apriori[n].
    """
    n_info = len(apriori)
    expected = n_info + code.memory
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
        terminated=True,
        exact=exact,
    )
    truth = channel_sys.truth[:n_info]
    extrinsic = _extrinsic(app.copy(), apriori.llrs[None, :], channel_sys.llrs[None, :])
    return LlrBlock(app[0], truth), LlrBlock(extrinsic[0], truth)


def _decode_in_halves(decode, shape: tuple, axis: int, row_work: int) -> np.ndarray:
    """The float64 array of ``shape`` that ``decode`` gives for all rows.

    ``decode(rows)`` computes the result of the rows in the slice
    ``rows`` of ``shape[axis]`` independent rows (turbo blocks or EXIT
    grid points), with those rows on ``axis``, from start to finish: its
    inputs, every decoder pass and its summary.  Each row needs about
    ``row_work`` (row, trellis step, state) elements of BCJR work.

    The lower half of the rows runs in a child made by ``os.fork`` and the
    upper half in the caller, when ``os.fork`` and ``os.sched_getaffinity``
    exist, the process may use two or more CPUs, it runs a single Python
    thread (a lock held by another thread would stay held in the child)
    and each half's work, ``shape[axis] // 2 * row_work``, reaches
    ``_FORK_BREAK_EVEN`` elements.  Otherwise every row is decoded here.
    The child writes its rows' float64 result into an anonymous shared
    mapping and leaves with ``os._exit``; the caller reaps it on every
    path, killing it first when the caller's half raises or is
    interrupted.  If the mapping or the child cannot be made, every row
    is decoded here; if the child fails, the caller decodes the lower half
    itself.  Either way the same exception comes out as from an unsplit
    decode.  Rows never mix, so the result is bit-identical to
    ``decode(slice(None))``.

    The break-even was measured with ``simulate_turbo`` and the (7,5) code
    on a 2-vCPU VM (Python 3.11, numpy 2.4), in 31 alternating pairs of
    one process against two per size.  The split took 1.81 and 1.54 times
    the one-process time (median) at 21,000 and 42,000 elements per half,
    1.00 to 1.02 times at 62,000 to 85,000, and 0.80 to 0.96 times from
    124,000 on.  A fork, the child's exit and the wait take about 2.4 ms
    with nothing to decode; the copy-on-write faults of both processes
    come on top.  For the (7,5) code with 8 iterations of 1024-bit blocks
    the split starts at 4 blocks; a 10-point EXIT curve of 20,000 samples
    per point is split, one 1000-bit block per point is not.
    """
    half = shape[axis] // 2
    if (half * row_work < _FORK_BREAK_EVEN or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
            or len(sys._current_frames()) > 1):
        return decode(slice(None))
    # imported only for a split: together they add about 1 ms to a start
    import mmap
    import signal

    lower_shape = shape[:axis] + (half,) + shape[axis + 1:]
    try:
        shared = mmap.mmap(-1, 8 * math.prod(lower_shape))
    except OSError:  # no memory to share
        return decode(slice(None))
    with shared:
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            return decode(slice(None))
        if pid == 0:
            status = 1
            try:
                np.frombuffer(shared).reshape(lower_shape)[...] = decode(slice(0, half))
                status = 0
            finally:
                os._exit(status)
        status = None
        try:
            upper = decode(slice(half, None))
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if status:  # the child did not exit with 0 after writing its rows
            return np.concatenate([decode(slice(0, half)), upper], axis)
        return np.concatenate([np.frombuffer(shared).reshape(lower_shape), upper], axis)


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


def _extrinsic(app, la, ls):
    """A component decoder's extrinsic LLRs, formed in place in its (B, N)
    a-posteriori result ``app``: minus the a-priori ``la`` and the
    systematic channel LLRs (the first N columns of ``ls``), clipped to
    +-LLR_CLAMP."""
    app -= la
    app -= ls[:, :app.shape[1]]
    return np.clip(app, -LLR_CLAMP, LLR_CLAMP, out=app)


def _turbo_iterations(ls, lp1, lp2, truth, interleaver, code, max_iters) -> TurboTrace:
    """The turbo loop over a batch of blocks: (B, ·) channel LLRs of the
    three streams and the (B, N) information bits they carry.

    Each extrinsic is formed in place in its decoder's result, and every
    (B, N) array is dropped once its last reader has run, so a decoder
    call holds no dead arrays of an earlier step."""
    batch, _ = ls.shape
    n = len(interleaver)
    ls_inner = interleaver.interleave(ls[:, :n])
    truth_inner = interleaver.interleave(truth)
    la1 = np.zeros((batch, n))
    trace = TurboTrace(*np.empty((3, batch, max_iters)))
    for it in range(max_iters):
        ext1 = _extrinsic(_bcjr_batch(ls, lp1, la1, code, terminated=True), la1, ls)
        del la1
        trace.i_e_dec1[:, it] = _llr_information(ext1, truth)
        la2 = interleaver.interleave(ext1)
        del ext1
        ext2 = _bcjr_batch(ls_inner, lp2, la2, code, terminated=False)
        # decisions on the second decoder's a-posteriori LLRs, in its order
        trace.ber[:, it] = ((ext2 < 0) != truth_inner).mean(axis=1)
        _extrinsic(ext2, la2, ls_inner)
        del la2
        trace.i_e_dec2[:, it] = _llr_information(ext2, truth_inner)
        la1 = interleaver.deinterleave(ext2)
        del ext2
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
    AWGN channel at the given Eb/N0: all blocks in one batch, or each half
    encoded, transmitted and decoded in its own process
    (``_decode_in_halves``) from the bits and noise seeds drawn here.  Row
    b of the trace is block b, identical to decoding that block alone.
    """
    require_ints(n_info=n_info, n_blocks=n_blocks, max_iters=max_iters)
    if min(n_info, n_blocks, max_iters) < 1:
        raise ValidationError("n_info, n_blocks and max_iters must each be >= 1")
    require_addressable(trellis=n_blocks * (n_info + code.memory) * code.n_states,
                        trace=3 * n_blocks * max_iters)
    root = _seed_sequence(seed)
    ss_perm, ss_bits, ss_noise = root.spawn(3)
    if interleaver_kind == "uniform":
        interleaver = random_interleaver(n_info, ss_perm)
    elif interleaver_kind == "s_random":
        interleaver = s_random_interleaver(n_info, ss_perm)
    else:
        raise ValidationError(f"unknown interleaver kind {interleaver_kind!r}")
    channel = ChannelModel(ebn0_db, rate=1.0 / 3.0)

    bit_rng = np.random.default_rng(ss_bits)
    truth = np.empty((n_blocks, n_info), dtype=np.int8)
    for b in range(n_blocks):
        truth[b] = bit_rng.integers(0, 2, n_info)
    noise = ss_noise.spawn(n_blocks)
    # [systematic | parity1 | parity2]: the first two carry the tail
    k = n_info + code.memory

    def decode(rows):
        words = turbo_encode(truth[rows], code, interleaver)
        llrs = np.empty(words.shape)
        for b, ss in enumerate(noise[rows]):
            llrs[b] = transmit(words[b], channel, ss).llrs
        del words  # not needed by the decoder
        ls, lp1, lp2 = np.split(llrs, [k, 2 * k], axis=1)
        return np.stack(_turbo_iterations(ls, lp1, lp2, truth[rows], interleaver, code,
                                          max_iters))

    # two component decoders of about k steps per iteration
    return TurboTrace(*_decode_in_halves(decode, (3, n_blocks, max_iters), 1,
                                         2 * max_iters * k * code.n_states))


def trace_csv(trace: TurboTrace, seed: int | None = None) -> str:
    # per block, the three series' rows; per iteration, their three values
    blocks = zip(*(values.tolist() for values in trace))
    rows = ((b, it, *values) for b, block in enumerate(blocks)
            for it, values in enumerate(zip(*block), start=1))
    return csv_text(("block", "iteration", "i_e_dec1", "i_e_dec2", "ber"), rows, seed)
