"""EXIT curves, tunnel analysis, and the staircase decoding trajectory."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoplay import exit_chart
from infoplay.entropy import _llr_information, sample_consistent_gaussian_apriori
from infoplay.errors import NumericalContractError, ValidationError
from infoplay.exit_chart import (
    OPEN,
    PINCHED,
    ExitCurve,
    decoding_trajectory,
    exit_curve_csv,
    measure_exit_curve,
    render_exit_chart,
    tunnel_analysis,
)
from infoplay.turbo import (ChannelModel, RscCode, _bcjr_batch, _extrinsic, rsc_encode,
                            transmit)
from oracles import ref_isotonic

CODE75 = RscCode()


def curve_from(fn, grid, label=""):
    return ExitCurve(points=tuple((x, fn(x)) for x in grid), label=label)


def open_pair():
    grid = np.linspace(0, 1, 6)  # step 0.2 keeps every interior gap at exactly 0.2
    a = curve_from(lambda x: min(1.0, x + 0.2), grid, "a")
    b = curve_from(lambda x: x, grid, "b")
    return a, b


def identity_pair():
    grid = np.linspace(0, 1, 11)
    return curve_from(lambda x: x, grid, "a"), curve_from(lambda x: x, grid, "b")


def crossing_pair():
    grid = np.linspace(0, 1, 65)  # multiples of 1/64: contains the crossing at 0.625
    a = curve_from(lambda x: 0.5 + 0.2 * x, grid, "a")
    b = curve_from(lambda x: x, grid, "b")
    return a, b


class TestExitCurveType:
    def test_requires_increasing_grid(self):
        with pytest.raises(ValidationError):
            ExitCurve(points=((0.0, 0.1), (0.0, 0.2)))

    @pytest.mark.parametrize("points", [(), ((0.5, 0.5),)])
    def test_requires_two_points(self, points):
        with pytest.raises(ValidationError, match="at least two points"):
            ExitCurve(points=points)

    @pytest.mark.parametrize("points", [((0.0, 0.1), (0.5, np.nan)),
                                        ((np.nan, 0.1), (0.5, 0.2))])
    def test_nan_coordinate_rejected(self, points):
        with pytest.raises(ValidationError):
            ExitCurve(points=points)

    def test_requires_unit_square(self):
        with pytest.raises(ValidationError):
            ExitCurve(points=((0.0, 0.1), (0.5, 1.2)))

    @pytest.mark.parametrize("label", ["a,b", 'a"b', "a<b", "a>b", "a&b", "a\nb", "a\rb"])
    def test_label_that_breaks_the_output_files_rejected(self, label):
        with pytest.raises(ValidationError):
            ExitCurve(points=((0.0, 0.1), (1.0, 0.9)), label=label)

    def test_small_dips_are_repaired(self):
        curve = ExitCurve(points=((0.0, 0.30), (0.5, 0.29), (1.0, 0.60)))
        ie = curve.monotone_ie()
        assert (np.diff(ie) >= 0).all()

    def test_large_dips_rejected(self):
        curve = ExitCurve(points=((0.0, 0.50), (0.5, 0.40), (1.0, 0.60)))
        with pytest.raises(NumericalContractError):
            curve.monotone_ie()

    def test_arrays_and_fit_are_read_only(self):
        curve = ExitCurve(points=((0.0, 0.30), (0.5, 0.29), (1.0, 0.60)))
        for array in (curve.ia, curve.ie, curve.monotone_ie()):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.5
        for name in ("ia", "ie"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(curve, name, np.zeros(3))
        np.testing.assert_array_equal(curve.monotone_ie(), [0.295, 0.295, 0.60])

    def test_noisy_curve_is_still_written_and_plotted(self):
        # the dip is refused where the fit is read, not at construction
        curve = ExitCurve(points=((0.0, 0.50), (0.5, 0.40), (1.0, 0.60)), label="noisy")
        assert "noisy,0.5,0.4,0," in exit_curve_csv([curve], seed=1)
        assert render_exit_chart(curve, curve).count("<polyline") == 2

    def test_interpolation_and_inverse(self):
        a, _ = open_pair()
        assert a.evaluate(0.1) == pytest.approx(0.3, abs=1e-12)
        ident = curve_from(lambda x: x, np.linspace(0, 1, 5))
        assert ident.inverse(0.37) == pytest.approx(0.37, abs=1e-9)
        capped = curve_from(lambda x: min(0.8, x), np.linspace(0, 1, 5))
        assert np.isinf(capped.inverse(0.9))
        # a flat stretch maps to its right end; below the least output
        # no input qualifies
        assert capped.inverse(0.8) == 1.0
        raised = curve_from(lambda x: 0.2 + 0.8 * x, np.linspace(0, 1, 5))
        assert raised.inverse(0.1) == -np.inf


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]),
                          st.floats(0.0, 1.0).map(lambda v: round(v, 2)),
                          st.floats(0.0, 1.0)),
                min_size=2, max_size=20))
def test_isotonic_matches_the_reference_fit(values):
    # ties and two-decimal values make the 1e-15 margin and equal pools decide
    values = np.array(values)
    assert np.array_equal(exit_chart._isotonic(values), ref_isotonic(values))


def test_analysis_runs_no_fit_on_built_curves(monkeypatch):
    calls = []
    real = exit_chart._isotonic
    curves = (*open_pair(), *crossing_pair(),
              ExitCurve(points=((0.0, 0.30), (0.5, 0.29), (1.0, 0.60))))

    def counting(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(exit_chart, "_isotonic", counting)
    for a in curves:
        for b in curves:
            tunnel_analysis(a, b)
            decoding_trajectory(a, b)
    assert calls == []


class TestTunnelAnalysis:
    def test_open_pair(self):
        report = tunnel_analysis(*open_pair())
        assert report.status == OPEN
        assert report.pinch_point is None
        assert report.min_gap == pytest.approx(0.2, abs=1e-12)

    def test_identity_pair_is_pinched_with_zero_gap(self):
        report = tunnel_analysis(*identity_pair())
        assert report.status == PINCHED
        assert report.min_gap == pytest.approx(0.0, abs=1e-12)

    def test_crossing_pair_pinch_location(self):
        report = tunnel_analysis(*crossing_pair())
        assert report.status == PINCHED
        # analytic crossing of 0.5 + 0.2 x with the identity is x = 0.625
        assert report.pinch_point[0] == pytest.approx(0.625, abs=1 / 64)
        assert report.pinch_point[1] == pytest.approx(0.625, abs=1 / 64)

    def test_crossing_inside_a_segment_is_found(self):
        # coarse sampling: breakpoints straddle the crossing at 0.625
        grid = np.linspace(0, 1, 5)
        a = curve_from(lambda x: 0.5 + 0.2 * x, grid)
        b = curve_from(lambda x: x, grid)
        report = tunnel_analysis(a, b)
        assert report.status == PINCHED
        assert report.pinch_point[0] == pytest.approx(0.625, abs=1e-9)


@st.composite
def full_domain_curves(draw):
    """Monotone curves sampled on a grid that holds 0 and 1."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=8, unique=True))
    grid = [0.0, *sorted(inner), 1.0]
    ie = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(grid), max_size=len(grid))))
    return ExitCurve(points=tuple(zip(grid, ie)))


def pair(a_points, b_points):
    return {"a": ExitCurve(points=a_points), "b": ExitCurve(points=b_points)}


@settings(max_examples=300, deadline=None)
@given(a=full_domain_curves(), b=full_domain_curves())
# a ends below the corner (1, 1) where b is flat at 1
@example(**pair(((0.0, 0.0), (1.0, 0.5)), ((0.0, 1.0), (1.0, 1.0))))
# b is flat at 0 up to 0.25: the staircase cannot leave the origin
@example(**pair(((0.0, 0.0), (1.0, 1.0)), ((0.0, 0.0), (0.25, 0.0), (0.5, 1.0), (1.0, 1.0))))
@example(**pair(((0.0, 0.25), (1.0, 1.0)), ((0.0, 0.0), (0.25, 0.0), (0.5, 0.5), (1.0, 1.0))))
# b starts above 0, so small outputs of a need no input of b
@example(**pair(((0.0, 0.0), (1.0, 1.0)), ((0.0, 0.25), (1.0, 1.0))))
def test_tunnel_verdict_does_not_depend_on_which_curve_is_a(a, b):
    # swapping the curves transposes the chart.  The tolerance is a
    # vertical distance in either orientation, so the property is stated
    # for the exact verdict
    with mock.patch.object(exit_chart, "TUNNEL_EPSILON", 0.0):
        assert tunnel_analysis(a, b).status == tunnel_analysis(b, a).status


class TestDecodingTrajectory:
    def test_open_pair_converges(self):
        traj = decoding_trajectory(*open_pair())
        assert traj.converged
        i1, i2 = traj.steps[-1]
        assert 1.0 - i1 < 1e-2 and 1.0 - i2 < 1e-2

    def test_identity_pair_fixed_at_origin(self):
        traj = decoding_trajectory(*identity_pair())
        assert not traj.converged
        assert traj.steps[-1] == (0.0, 0.0)

    def test_crossing_pair_stalls_at_pinch(self):
        a, b = crossing_pair()
        traj = decoding_trajectory(a, b)
        report = tunnel_analysis(a, b)
        assert not traj.converged
        stall = traj.steps[-1]
        assert stall[0] == pytest.approx(report.pinch_point[0], abs=1 / 64)

    def test_steps_componentwise_non_decreasing(self):
        for pair in (open_pair(), identity_pair(), crossing_pair()):
            steps = decoding_trajectory(*pair).steps
            for (a1, b1), (a2, b2) in zip(steps, steps[1:]):
                assert a2 >= a1 - 1e-12 and b2 >= b1 - 1e-12

    def test_duality_with_tunnel_analysis(self):
        for pair in (open_pair(), identity_pair(), crossing_pair()):
            open_tunnel = tunnel_analysis(*pair).status == OPEN
            assert decoding_trajectory(*pair).converged == open_tunnel


class TestMeasuredCurves:
    def test_noiseless_limit(self):
        curve = measure_exit_curve(
            CODE75,
            ChannelModel(30.0, rate=0.5),
            ia_grid=[0.0, 0.5, 0.9],
            samples_per_point=2000,
            seed=1,
        )
        assert (curve.ie >= 0.99).all()

    def test_deterministic_given_seed(self):
        kwargs = dict(
            code=CODE75,
            channel=ChannelModel(0.8, rate=0.5),
            ia_grid=[0.0, 0.3, 0.6],
            samples_per_point=1000,
            seed=77,
        )
        a = measure_exit_curve(**kwargs)
        b = measure_exit_curve(**kwargs)
        assert a.points == b.points

    def test_decode_is_repeatable(self, monkeypatch):
        # a second decode of the same points, as the fallback after a failed
        # fork child makes, must draw the same streams as the first
        results = []

        def decode_twice(decode, shape, axis, row_work):
            results.extend(decode(slice(None)) for _ in range(2))
            return results[0]

        monkeypatch.setattr(exit_chart, "_decode_in_halves", decode_twice)
        measure_exit_curve(CODE75, ChannelModel(0.8, rate=0.5), [0.0, 0.5], 1000, seed=3)
        np.testing.assert_array_equal(results[0], results[1])

    def test_waterfall_curve_monotone_within_tolerance(self):
        curve = measure_exit_curve(
            CODE75,
            ChannelModel(0.8, rate=1.0 / 3.0),
            ia_grid=np.arange(0.0, 0.91, 0.1),
            samples_per_point=20000,
            seed=5,
        )
        ie = curve.ie
        assert (np.diff(ie) > -0.02).all()
        # information cannot hurt: the top of the grid beats the bottom
        assert ie[-1] >= ie[0]

    def test_exit_config_curve_matches_pinned_digest(self):
        # the demos/configs/exit.ini run (0.8 dB, seed 42, default grid and
        # rate); digest recorded before the grid points were decoded in one
        # batch
        curve = measure_exit_curve(
            CODE75,
            ChannelModel(0.8, rate=1.0 / 3.0),
            ia_grid=[0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            samples_per_point=20000,
            seed=42,
            label="bcjr@0.8dB",
        )
        text = exit_curve_csv([curve], seed=42)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f0ffd4baba14e5282501ca7cfb94691c112a1d5c3eacedf912f454806a90bc1e"
        )

    def test_curve_lives_in_unit_square(self):
        curve = measure_exit_curve(
            CODE75,
            ChannelModel(-3.0, rate=0.5),
            ia_grid=[0.0, 0.4, 0.8],
            samples_per_point=1000,
            seed=9,
        )
        assert ((0 <= curve.ia) & (curve.ia <= 1)).all()
        assert ((0 <= curve.ie) & (curve.ie <= 1)).all()

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            measure_exit_curve(
                CODE75, ChannelModel(1.0), [0.5, 0.2], 1000, seed=1
            )
        with pytest.raises(ValidationError):
            measure_exit_curve(
                CODE75, ChannelModel(1.0), [0.0, 0.5], 10, seed=1
            )
        # a Gaussian a-priori channel cannot reach I_A = 1
        with pytest.raises(ValidationError, match="below 1"):
            measure_exit_curve(CODE75, ChannelModel(1.0), [0.0, 1.0], 1000, seed=1)

    def test_bad_label_rejected_before_any_decode(self, monkeypatch):
        def no_decode(*args, **kwargs):
            raise AssertionError("decoded before the label was checked")

        monkeypatch.setattr(exit_chart, "_bcjr_batch", no_decode)
        with pytest.raises(ValidationError, match="curve label"):
            measure_exit_curve(CODE75, ChannelModel(1.0), [0.0, 0.5], 1000, seed=1, label="a,b")

    def test_samples_per_point_must_be_an_int(self):
        with pytest.raises(ValidationError, match="samples_per_point must be an int"):
            measure_exit_curve(CODE75, ChannelModel(1.0), [0.0, 0.5], 2000.0, seed=1)


def _exit_extrinsic(ia, exact):
    """``measure_exit_curve``'s decode of one grid point: 20 blocks of
    ``EXIT_BLOCK_LEN`` bits through the (7,5) code at 0.8 dB and rate 1/3,
    consistent-Gaussian a-priori LLRs at information ``ia``, fixed seeds.
    Returns the extrinsic LLRs and the bits."""
    ss_bits, ss_chan, ss_apriori = np.random.SeedSequence(0).spawn(3)
    bits = np.random.default_rng(ss_bits).integers(0, 2, (20, exit_chart.EXIT_BLOCK_LEN),
                                                   dtype=np.int8)
    sys_bits, par_bits = rsc_encode(bits, CODE75)
    word = np.concatenate([sys_bits, par_bits]).ravel()
    ls, lp = transmit(word, ChannelModel(0.8, rate=1.0 / 3.0), ss_chan).llrs.reshape(2, 20, -1)
    la = sample_consistent_gaussian_apriori(bits.ravel(), ia, ss_apriori).llrs.reshape(bits.shape)
    app = _bcjr_batch(ls, lp, la, CODE75, terminated=True, exact=exact)
    return _extrinsic(app, la, ls), bits


def _consistency_gap(llrs, bits):
    """Per block, the I_E reading ``_llr_information`` (a cross-entropy
    against the bits) minus 1 - mean h2(sigma(L)) (the LLRs' own entropy,
    read without the bits); returns the mean and its standard error."""
    minus_ln_p0 = np.logaddexp(0.0, -llrs)  # -ln sigma(L), bit 0's probability
    minus_ln_p1 = np.logaddexp(0.0, llrs)
    h2 = (np.exp(-minus_ln_p0) * minus_ln_p0 + np.exp(-minus_ln_p1) * minus_ln_p1) / np.log(2)
    gaps = _llr_information(llrs, bits) - (1.0 - h2.mean(axis=1))
    return gaps.mean(), gaps.std(ddof=1) / np.sqrt(gaps.size)


class TestExtrinsicConsistency:
    # For LLRs that are true posteriors, E[log2(1 + e^(-xL))] equals
    # E[h2(sigma(L))], so the I_E reading is an information, not only a
    # cross-entropy.  A log-MAP decoder's extrinsic LLRs are posteriors
    # given the other observations; max-log ones are not.

    @pytest.mark.parametrize("ia", [0.0, 0.4, 0.8])
    def test_log_map_readings_agree(self, ia):
        gap, se = _consistency_gap(*_exit_extrinsic(ia, exact=True))
        assert abs(gap) <= 4 * se

    def test_max_log_readings_disagree(self):
        # about -0.18 bits, 13 standard errors, at these seeds
        gap, se = _consistency_gap(*_exit_extrinsic(0.0, exact=False))
        assert abs(gap) > 10 * se


class TestExports:
    def test_csv_format(self):
        a, _ = open_pair()
        text = exit_curve_csv([a], seed=3)
        lines = text.strip().split("\n")
        assert lines[0] == "# seed=3"
        assert lines[1] == "label,i_a,i_e,mc_samples,seed"
        assert lines[2] == "a,0,0.2,0,3"

    def test_svg_is_stable_and_complete(self):
        a, b = crossing_pair()
        traj = decoding_trajectory(a, b)
        svg1 = render_exit_chart(a, b, traj)
        svg2 = render_exit_chart(a, b, traj)
        assert svg1 == svg2
        assert svg1.startswith("<svg ") and svg1.rstrip().endswith("</svg>")
        assert svg1.count("<polyline") == 3  # trajectory + curve A + curve B
