"""EXIT-chart machinery: measure a component decoder's extrinsic transfer
curve, test tunnel openness between two curves, and iterate the staircase
decoding trajectory.

Curves are always stored untransposed as (I_A -> I_E) samples; the second
decoder's curve is transposed only at analysis and plot time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import csv_text
from .entropy import _llr_information, _seed_sequence, sample_consistent_gaussian_apriori
from .errors import (NumericalContractError, ValidationError, require_addressable,
                     require_ints)
from .turbo import (
    ChannelModel,
    RscCode,
    _bcjr_batch,
    _decode_in_halves,
    _extrinsic,
    rsc_encode,
    transmit,
)

MONOTONE_DIP_TOLERANCE = 0.02
TUNNEL_EPSILON = 1e-3
TRAJECTORY_EPSILON = 1e-2
TRAJECTORY_MAX_STEPS = 64
EXIT_BLOCK_LEN = 1000  # bits per BCJR block in a curve measurement
SVG_SIZE = 480
SVG_MARGIN = 48

# a label is written bare into CSV rows and SVG text, so it may hold none of these
_LABEL_BREAKERS = frozenset(',"<>&\n\r')

OPEN = "open"
PINCHED = "pinched"


def _isotonic(values: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators fit to a non-decreasing sequence (uniform
    weights): each value opens a pool, and while the pool before it lies
    higher the two merge into their weighted mean."""
    pools = []  # (level, weight)
    for level in np.asarray(values, dtype=float).tolist():
        weight = 1
        while pools and pools[-1][0] > level + 1e-15:
            l0, w0 = pools.pop()
            level, weight = (l0 * w0 + level * weight) / (w0 + weight), w0 + weight
        pools.append((level, weight))
    return np.repeat(*zip(*pools))


def _check_label(label: str) -> None:
    if not _LABEL_BREAKERS.isdisjoint(label):
        raise ValidationError(f"curve label {label!r} must hold none of "
                              "the CSV and XML specials , \" < > & or a line break")


def _check_ia_grid(ia_grid) -> np.ndarray:
    """``ia_grid`` as a float array: at least two a-priori information
    values, strictly increasing within [0, 1]."""
    grid = np.asarray(ia_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValidationError("ia_grid must hold at least two points")
    if not ((0.0 <= grid).all() and (grid <= 1.0).all() and (np.diff(grid) > 0).all()):
        raise ValidationError("ia_grid must be sorted and within [0, 1]")
    return grid


@dataclass(frozen=True)
class ExitCurve:
    """Sampled (I_A, I_E) transfer function of a component decoder or of an
    agent.  Construction keeps the grid ``ia``, the samples ``ie`` and their
    isotonic fit as read-only float arrays, so no read recomputes them."""

    points: tuple
    label: str = ""
    mc_samples: int = 0

    def __post_init__(self):
        _check_label(self.label)
        pts = tuple((float(a), float(e)) for a, e in self.points)
        if len(pts) < 2:
            raise ValidationError("an EXIT curve needs at least two points")
        ia, ie = np.array(pts).T.copy()
        if not ((0.0 <= ia).all() and (ia <= 1.0).all() and (0.0 <= ie).all() and (ie <= 1.0).all()):
            raise ValidationError("curve coordinates must lie in the unit square")
        if not (np.diff(ia) > 0).all():
            raise ValidationError("I_A grid must be strictly increasing")
        fit = _isotonic(ie)
        for array in (ia, ie, fit):
            array.flags.writeable = False
        # the repair is checked where the fit is read, so a noisy curve can still be written
        kept = dict(points=pts, ia=ia, ie=ie, _fit=fit, _repair=float(np.max(np.abs(fit - ie))))
        for name, value in kept.items():
            object.__setattr__(self, name, value)

    def monotone_ie(self) -> np.ndarray:
        """I_E values after isotonic repair of Monte Carlo dips.

        Dips beyond MONOTONE_DIP_TOLERANCE are a numerical-contract
        violation, not estimation noise.
        """
        if self._repair > MONOTONE_DIP_TOLERANCE:
            raise NumericalContractError(
                f"curve {self.label!r} is non-monotone beyond tolerance "
                f"({self._repair:.4f} > {MONOTONE_DIP_TOLERANCE})"
            )
        return self._fit

    def evaluate(self, x) -> np.ndarray:
        """Monotone piecewise-linear interpolation of I_E at I_A = x,
        clamped to the sampled range at the ends."""
        return np.interp(np.asarray(x, dtype=float), self.ia, self.monotone_ie())

    def inverse(self, y) -> np.ndarray:
        """Generalized inverse: the largest I_A with I_E <= y, so a flat
        stretch of the curve maps to its right end.

        Values below the curve's minimum output map to -inf; values above
        its maximum output are unreachable and map to +inf.
        """
        ia, ie = self.ia, self.monotone_ie()
        y = np.atleast_1d(np.asarray(y, dtype=float))
        idx = np.searchsorted(ie, y, side="right")
        safe = np.clip(idx, 1, len(ie) - 1)
        lo, hi = ie[safe - 1], ie[safe]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            frac = (y - lo) / (hi - lo)
        x = ia[safe - 1] + frac * (ia[safe] - ia[safe - 1])
        x = np.where(idx == len(ie), ia[-1], x)
        return np.where(y > ie[-1], np.inf, np.where(idx == 0, -np.inf, x))


@dataclass(frozen=True)
class TunnelReport:
    status: str
    min_gap: float
    pinch_point: tuple | None

    def __post_init__(self):
        if self.status not in (OPEN, PINCHED):
            raise ValidationError(f"bad tunnel status {self.status!r}")
        if (self.status == PINCHED) != (self.pinch_point is not None):
            raise ValidationError("pinch_point must be present exactly when pinched")


@dataclass(frozen=True)
class Trajectory:
    steps: tuple
    converged: bool


def measure_exit_curve(
    code: RscCode,
    channel: ChannelModel,
    ia_grid,
    samples_per_point: int,
    seed,
    label: str = "decoder",
) -> ExitCurve:
    """Monte Carlo EXIT transfer curve of one BCJR component decoder.

    For each a-priori information value in ``ia_grid``: draw random
    information bits, encode with a terminated trellis, transmit over the
    channel, synthesize consistent-Gaussian a-priori LLRs at that I_A,
    and measure the extrinsic output information over all
    ``samples_per_point`` bits.  One batched BCJR pass decodes the blocks
    of every grid point together, or of each half of the grid in its own
    process (see ``turbo._decode_in_halves``).  Grid points use
    independently derived seeds, so the curve is reproducible bit for bit.
    """
    _check_label(label)
    grid = _check_ia_grid(ia_grid)
    # a Gaussian a-priori channel never reaches I_A = 1: j_inverse(1) is unbounded
    if grid[-1] >= 1.0:
        raise ValidationError("ia_grid must lie below 1 for a Gaussian a-priori channel")
    require_ints(samples_per_point=samples_per_point)
    n_blocks = (samples_per_point + EXIT_BLOCK_LEN - 1) // EXIT_BLOCK_LEN
    k = EXIT_BLOCK_LEN + code.memory
    require_addressable(trellis=len(grid) * n_blocks * k * code.n_states)
    if samples_per_point < 1000:
        raise ValidationError("samples_per_point must be >= 1000")
    # each point's bits, channel and a-priori streams, spawned once so that
    # every decode of a point draws the same numbers
    point_streams = [ss.spawn(3) for ss in _seed_sequence(seed).spawn(len(grid))]

    def decode(points):
        """I_E at the grid points in the slice ``points``: one decoder pass
        over the blocks of those points, each point filling its rows;
        blocks never mix."""
        streams = point_streams[points]
        bits = np.empty((len(streams), n_blocks * EXIT_BLOCK_LEN), dtype=np.int8)
        for point_bits, (ss_bits, _, _) in zip(bits, streams):
            point_bits[:] = np.random.default_rng(ss_bits).integers(0, 2, point_bits.size)
        sys_bits, par_bits = rsc_encode(bits.reshape(-1, EXIT_BLOCK_LEN), code)
        ls, lp = np.empty((2, len(streams) * n_blocks, k))
        la = np.empty((len(streams) * n_blocks, EXIT_BLOCK_LEN))
        for point, ((_, ss_chan, ss_apriori), ia) in enumerate(zip(streams, grid[points])):
            rows = slice(point * n_blocks, (point + 1) * n_blocks)
            word = np.concatenate([sys_bits[rows], par_bits[rows]]).ravel()
            ls[rows], lp[rows] = transmit(word, channel, ss_chan).llrs.reshape(2, n_blocks, k)
            la[rows] = sample_consistent_gaussian_apriori(
                bits[point], float(ia), ss_apriori).llrs.reshape(n_blocks, EXIT_BLOCK_LEN)
        del sys_bits, par_bits  # not needed by the decoder
        ext = _extrinsic(_bcjr_batch(ls, lp, la, code, terminated=True), la, ls)
        ext = ext.reshape(bits.shape)[:, :samples_per_point]
        return _llr_information(ext, bits[:, :samples_per_point])

    i_e = _decode_in_halves(decode, grid.shape, 0, n_blocks * k * code.n_states)
    points = zip(grid.tolist(), i_e.tolist())
    return ExitCurve(points=tuple(points), label=label, mc_samples=samples_per_point)


def tunnel_analysis(curve_a: ExitCurve, curve_b: ExitCurve) -> TunnelReport:
    """Gap between decoder A's curve and decoder B's transposed curve.

    The gap g(x) = curve_a(x) - curve_b^{-1}(x) is piecewise linear, and
    with the largest-input inverse it takes its lowest values on the
    breakpoints, so it is evaluated exactly: at the origin, on every
    interior breakpoint of either curve and at the zero crossings of any
    segment whose ends straddle zero.  The tunnel is pinched when the gap
    falls to ``TUNNEL_EPSILON`` or below before x = 1, or below zero at
    x = 1 (the curves may meet in the corner (1, 1), not below it); the
    pinch point is the first x where that happens, which is where the
    staircase trajectory stalls.  Swapping two curves measured on all of
    [0, 1] transposes the chart, so their exact verdict
    (``TUNNEL_EPSILON`` = 0) does not depend on which decoder is called A.

    Verdicts hold on the jointly measured domain: when a Monte Carlo
    curve stops short of I_A = 1, nothing is asserted beyond its own top
    sample or the highest output the partner was observed to produce
    (sample close to 1 for conclusions near the corner).
    """
    x_hi = float(curve_a.ia[-1])
    if curve_b.ia[-1] < 1.0:
        # beyond its top observed output, curve_b's inverse is unknown
        # rather than unreachable
        x_hi = min(x_hi, float(curve_b.monotone_ie()[-1]))
    interior = sorted(
        {float(x) for x in curve_a.ia if 0.0 < x < 1.0}
        | {float(y) for y in curve_b.monotone_ie() if 0.0 < y < 1.0}
        | ({0.5} if x_hi >= 0.5 else set())
    )
    interior = [x for x in interior if x <= x_hi]
    xs = np.unique(np.array([0.0] + interior + [x_hi]))

    def gap_at(x):
        # outputs decoder B can never produce get inverse 1.0, the largest
        # possible input, so the gap stays a finite deficit; outputs below
        # its least get -1.0, which every output of decoder A clears
        return curve_a.evaluate(x) - np.clip(curve_b.inverse(x), -1.0, 1.0)

    gap = gap_at(xs)
    # refine: a sign change strictly inside a segment is a crossing the
    # breakpoints themselves miss
    extra = []
    for i in range(len(xs) - 1):
        g0, g1 = gap[i], gap[i + 1]
        if g0 > 0.0 and g1 < 0.0:
            x = xs[i] + (xs[i + 1] - xs[i]) * g0 / (g0 - g1)
            if 0.0 < x < 1.0:
                extra.append(float(x))
    if extra:
        xs = np.sort(np.concatenate([xs, extra]))
        gap = gap_at(xs)
    if x_hi <= 0.0:
        # partner curve never produces a usable output: shut at the origin
        return TunnelReport(
            status=PINCHED,
            min_gap=float(gap[0]),
            pinch_point=(0.0, float(curve_a.evaluate(0.0))),
        )
    # the curves may meet in the corner (1, 1), but not below it
    inner = (xs < 1.0) | (gap < 0.0)
    min_gap = float(np.min(gap[inner]))
    hits = np.nonzero(inner & (gap <= TUNNEL_EPSILON))[0]
    if hits.size:
        x = float(xs[hits[0]])
        return TunnelReport(
            status=PINCHED,
            min_gap=min_gap,
            pinch_point=(x, float(curve_a.evaluate(x))),
        )
    return TunnelReport(status=OPEN, min_gap=min_gap, pinch_point=None)


def decoding_trajectory(curve_a: ExitCurve, curve_b: ExitCurve) -> Trajectory:
    """Staircase iteration i_e1 <- curve_a(i_e2); i_e2 <- curve_b(i_e1),
    started from (0, 0).

    Stops at a fixed point (componentwise change below TRAJECTORY_EPSILON),
    in the TRAJECTORY_EPSILON-neighborhood of (1, 1), or after
    TRAJECTORY_MAX_STEPS; ``converged`` says whether the endpoint is the
    (1, 1) corner.
    """
    epsilon = TRAJECTORY_EPSILON
    steps = []
    ie1 = ie2 = 0.0
    for _ in range(TRAJECTORY_MAX_STEPS):
        new_ie1 = float(curve_a.evaluate(ie2))
        new_ie2 = float(curve_b.evaluate(new_ie1))
        steps.append((new_ie1, new_ie2))
        stalled = abs(new_ie1 - ie1) < epsilon and abs(new_ie2 - ie2) < epsilon
        ie1, ie2 = new_ie1, new_ie2
        if stalled or (1.0 - ie1 < epsilon and 1.0 - ie2 < epsilon):
            break
    converged = 1.0 - ie1 < epsilon and 1.0 - ie2 < epsilon
    return Trajectory(steps=tuple(steps), converged=converged)


def exit_curve_csv(curves, seed: int | None = None) -> str:
    rows = ((curve.label, ia, ie, curve.mc_samples, seed)
            for curve in curves for ia, ie in curve.points)
    return csv_text(("label", "i_a", "i_e", "mc_samples", "seed"), rows, seed)


def _svg_xy(ia: float, ie: float) -> tuple:
    span = SVG_SIZE - 2 * SVG_MARGIN
    return SVG_MARGIN + ia * span, SVG_SIZE - SVG_MARGIN - ie * span


def _polyline(pairs, stroke, dasharray=None) -> str:
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (_svg_xy(a, e) for a, e in pairs))
    dash = f' stroke-dasharray="{dasharray}"' if dasharray else ""
    return f'<polyline fill="none" stroke="{stroke}" stroke-width="1.5"{dash} points="{pts}" />'


def render_exit_chart(
    curve_a: ExitCurve,
    curve_b: ExitCurve,
    trajectory: Trajectory | None = None,
) -> str:
    """Plain-text SVG of the unit square with curve A, curve B transposed,
    and an optional staircase overlay.  Element order and float formatting
    are fixed so identical inputs give byte-identical output."""
    size, margin = SVG_SIZE, SVG_MARGIN
    span = size - 2 * margin
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        'fill="white" stroke="black" stroke-width="1" />',
    ]
    for frac in (0.25, 0.5, 0.75):
        x = margin + frac * span
        parts.append(
            f'<line x1="{x:.2f}" y1="{margin}" x2="{x:.2f}" y2="{size - margin}" '
            'stroke="#dddddd" stroke-width="0.5" />'
        )
        y = size - margin - frac * span
        parts.append(
            f'<line x1="{margin}" y1="{y:.2f}" x2="{size - margin}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="0.5" />'
        )
    if trajectory is not None and trajectory.steps:
        path = [(0.0, 0.0)]
        prev_ie2 = 0.0
        for ie1, ie2 in trajectory.steps:
            path.append((prev_ie2, ie1))  # vertical rise on decoder 1's curve
            path.append((ie2, ie1))  # horizontal step to decoder 2's curve
            prev_ie2 = ie2
        parts.append(_polyline(path, "#888888", dasharray="3,2"))
    parts.append(_polyline(curve_a.points, "#1f6fb2"))
    transposed = [(ie, ia) for ia, ie in curve_b.points]
    parts.append(_polyline(transposed, "#b23a1f"))
    label_y = size - margin + 28
    parts.append(
        f'<text x="{size // 2}" y="{label_y}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">I_A({curve_a.label})</text>'
    )
    parts.append(
        f'<text x="14" y="{size // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 14 {size // 2})">I_E({curve_a.label})</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
