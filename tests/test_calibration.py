import hashlib
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spdc_werner import calibration
from spdc_werner.calibration import (
    CalibrationPoint,
    count_rate_model,
    fit_gain,
    read_calibration_csv,
    synthetic_calibration_points,
    write_calibration_csv,
)
from spdc_werner.errors import FitError
from spdc_werner.source import GainChannelParams, transmitted_photons_per_mode

REPETITION_RATE = 250_000.0
TRUE_GAIN_SCALE = 1.313  # g_max = 1.313 at unit power
TRUE_ETAS = {1: 0.016, 2: 0.014}
POWERS = np.linspace(0.05, 1.0, 12)
# the powers of the benchmark's fits (bench/workloads.py's FIT_POWERS)
BENCHMARK_POWERS = [0.05 + 0.95 * i / 11 for i in range(12)]
DEMO_CSV = Path(__file__).resolve().parents[1] / "data" / "calibration_demo.csv"
# numpy's vector loops for tanh and exp may round an element differently from
# a one-element call; a few ulp through the rate's arithmetic stay below this
# (the largest seen over gains 1e-8 to 400 and efficiencies down to 1e-300 is
# 2.8e-16)
ARRAY_REL = 1e-15

# The edge domain of the fit's inputs: gains from far below to far above
# saturation, efficiencies down to the 1e-12 bound and up to 1, powers over
# twelve decades, dark rows, noise, and repetition rates up to 1e300.
EDGE_DOMAIN = dict(
    gain_scale=st.floats(min_value=1e-3, max_value=30.0),
    etas=st.lists(st.one_of(st.floats(min_value=1e-12, max_value=1e-11),
                            st.floats(min_value=1e-11, max_value=1.0),
                            st.floats(min_value=1.0 - 1e-9, max_value=1.0)),
                  min_size=1, max_size=2),
    powers=st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=5,
                    max_size=12, unique=True),
    dark_rows=st.integers(min_value=0, max_value=2),
    noise=st.sampled_from([0.0, 0.01, 0.3]),
    rate_headroom=st.floats(min_value=0.0, max_value=1.0),
)


class TestCountRateModel:
    def test_zero_gain_gives_zero_rate(self):
        assert count_rate_model(0.0, 0.016, REPETITION_RATE) == 0.0

    def test_reference_point(self):
        # R*eta*tanh(g)^2 / (1 - (1-eta) tanh(g)^2) at g=1.313, eta=0.016
        rate = count_rate_model(1.313, 0.016, REPETITION_RATE)
        assert rate == pytest.approx(11350.871385572098, rel=1e-9)
        assert rate == pytest.approx(1.136e4, rel=1e-3)

    def test_unit_efficiency_limit(self):
        g = 0.9
        assert count_rate_model(g, 1.0, REPETITION_RATE) == pytest.approx(
            REPETITION_RATE * math.tanh(g) ** 2
        )

    def test_monotone_in_gain_and_efficiency(self):
        gains = np.linspace(0.05, 2.5, 30)
        rates = [count_rate_model(g, 0.016, REPETITION_RATE) for g in gains]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        etas = np.linspace(0.005, 1.0, 30)
        rates = [count_rate_model(1.0, e, REPETITION_RATE) for e in etas]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    @pytest.mark.parametrize("g", [0.01, 0.1, 0.5, 1.0, 1.313, 2.0, 3.0])
    @pytest.mark.parametrize("eta", [1e-6, 0.016, 0.3, 0.9, 1.0])
    def test_matches_the_textbook_formula(self, g, eta):
        # away from saturation 1 - (1 - eta) tanh(g)^2 loses at most a few
        # digits, so the two forms agree far below the fit's noise
        g2 = math.tanh(g) ** 2
        textbook = REPETITION_RATE * eta * g2 / (1.0 - (1.0 - eta) * g2)
        assert count_rate_model(g, eta, REPETITION_RATE) == pytest.approx(
            textbook, rel=1e-13
        )

    def test_saturating_gain_at_tiny_efficiency(self):
        # tanh(20)^2 and 1 - 1e-17 both round to 1, so the textbook
        # denominator is exactly 0; the rate is R * eta s / (1 + eta s)
        # with s = sinh(g)^2
        s = math.sinh(20.0) ** 2
        rate = count_rate_model(20.0, 1e-17, REPETITION_RATE)
        assert rate == pytest.approx(
            REPETITION_RATE * 1e-17 * s / (1.0 + 1e-17 * s), rel=1e-12
        )

    @pytest.mark.parametrize("eta", [1e-17, 0.016, 0.5, 1.0])
    def test_gain_past_sinh_overflow(self, eta):
        # sinh(400)^2 overflows a double; the rate saturates at R
        rate = count_rate_model(400.0, eta, REPETITION_RATE)
        assert math.isfinite(rate)
        assert rate == pytest.approx(REPETITION_RATE, rel=1e-12)

    @pytest.mark.parametrize("eta", [
        5e-324, sys.float_info.min / 2, math.nextafter(sys.float_info.min, 0.0)])
    def test_subnormal_efficiency_rejected(self, eta):
        # exp(-2g) underflows where eta * sinh(g)^2 is still of order 1 (near
        # g = 372.6 at eta = 5e-324), which would saturate the rate at R
        # instead of R * eta s / (1 + eta s), about R/3 there
        with pytest.raises(ValueError, match="smallest normal double"):
            count_rate_model(372.6, eta, REPETITION_RATE)

    def test_smallest_normal_efficiency_at_half_saturation(self):
        # eta * sinh(g)^2 = 1: the rate is R/2, and exp(-2g) is still nonzero
        eta = sys.float_info.min
        g = math.asinh(math.sqrt(1.0 / eta))
        eta_s = eta * math.sinh(g) ** 2
        assert eta_s == pytest.approx(1.0, rel=1e-12)
        rate = count_rate_model(g, eta, REPETITION_RATE)
        assert rate == pytest.approx(REPETITION_RATE * eta_s / (1.0 + eta_s), rel=1e-12)

    def test_domain_errors(self):
        for g in (-1.0, math.nan):
            with pytest.raises(ValueError, match="gain"):
                count_rate_model(g, 0.5, REPETITION_RATE)
        with pytest.raises(ValueError):
            count_rate_model(1.0, 0.0, REPETITION_RATE)
        with pytest.raises(ValueError):
            count_rate_model(1.0, 0.5, 0.0)


    def test_scalar_input_gives_a_float(self):
        assert type(count_rate_model(1.313, 0.016, REPETITION_RATE)) is float
        assert type(count_rate_model(np.float64(1.313), 1, REPETITION_RATE)) is float

    def test_gain_array_matches_scalar_calls(self):
        gains = np.concatenate([[0.0], np.geomspace(1e-8, 400.0, 300)])
        rates = count_rate_model(gains, 0.016, REPETITION_RATE)
        assert rates.shape == gains.shape
        expected = [count_rate_model(g, 0.016, REPETITION_RATE) for g in gains]
        np.testing.assert_allclose(rates, expected, rtol=ARRAY_REL, atol=0.0)

    def test_per_point_efficiency_array_matches_scalar_calls(self):
        rng = np.random.default_rng(3)
        gains = rng.uniform(0.0, 5.0, 300)
        etas = np.geomspace(sys.float_info.min, 1.0, 300)
        rates = count_rate_model(gains, etas, REPETITION_RATE)
        expected = [count_rate_model(g, e, REPETITION_RATE) for g, e in zip(gains, etas)]
        np.testing.assert_allclose(rates, expected, rtol=ARRAY_REL, atol=0.0)
        # a stack of efficiency rows against one gain row
        stacked = count_rate_model(gains, np.stack([etas, etas[::-1]]), REPETITION_RATE)
        np.testing.assert_array_equal(
            stacked[1], count_rate_model(gains, etas[::-1], REPETITION_RATE))

    @pytest.mark.parametrize("g, eta, scalar", [
        ([0.5, -1.0, 2.0, -3.0], 0.5, (-1.0, 0.5)),
        ([0.5, math.nan, 2.0], 0.5, (math.nan, 0.5)),
        ([0.5, 1.0, 2.0], [0.5, 0.0, 1.5], (1.0, 0.0)),
        (1.0, [0.5, 5e-324], (1.0, 5e-324)),
    ], ids=["negative-gain", "nan-gain", "zero-efficiency", "subnormal-efficiency"])
    def test_one_bad_element_raises_the_scalar_error(self, g, eta, scalar):
        with pytest.raises(ValueError) as expected:
            count_rate_model(*scalar, REPETITION_RATE)
        with pytest.raises(ValueError) as raised:
            count_rate_model(np.array(g), np.array(eta), REPETITION_RATE)
        assert str(raised.value) == str(expected.value)


class TestSyntheticCalibrationPoints:
    def test_noise_drawn_per_point_in_detector_then_power_order(self):
        noisy = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
            noise_fraction=0.01, seed=7,
        )
        clean = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS
        )
        assert [(pt.detector, pt.pump_power) for pt in noisy] == [
            (det, power) for det in sorted(TRUE_ETAS) for power in POWERS]
        rng = np.random.default_rng(7)
        for pt, ref in zip(noisy, clean):
            assert pt.rate == ref.rate * (1.0 + 0.01 * rng.standard_normal())

    def test_a_draw_below_zero_raises_the_point_error(self):
        # the noise is not clipped at 0, so at 40% noise a draw can take a
        # rate below 0; it used to be written as a rate of 0, which fit_gain
        # rejects at a positive power (26 of seeds 0-199 here)
        with pytest.raises(ValueError, match="rate must be finite and non-negative, got -"):
            synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE,
                                         BENCHMARK_POWERS, noise_fraction=0.4, seed=3)

    def test_one_percent_noise_is_the_clipped_generator(self):
        # the clip at 0 never acted at the tests' and the benchmark's 1%: the
        # points of criterion 7's 50 sets and of 200 benchmark-style sets equal
        # those of the generator with the clip
        def clipped(powers, seed):
            rng = np.random.default_rng(seed)
            gains = TRUE_GAIN_SCALE * np.sqrt(powers)
            points = []
            for det, eta in sorted(TRUE_ETAS.items()):
                rates = count_rate_model(gains, eta, REPETITION_RATE)
                rates = rates * (1.0 + 0.01 * rng.standard_normal(len(powers)))
                points += [(power, max(float(r), 0.0), det) for power, r in zip(powers, rates)]
            return points

        for powers, seeds in ((POWERS, range(50)), (BENCHMARK_POWERS, range(1000, 1200))):
            for seed in seeds:
                points = synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS,
                                                      REPETITION_RATE, powers,
                                                      noise_fraction=0.01, seed=seed)
                assert [(pt.pump_power, pt.rate, pt.detector)
                        for pt in points] == clipped(powers, seed)

    @pytest.mark.parametrize("power", [-0.5, math.nan, math.inf])
    def test_bad_power_rejected_by_name(self, power):
        # a negative power used to raise numpy's invalid-value warning in
        # sqrt, or a ValueError that blamed the gain
        with pytest.raises(ValueError,
                           match=f"pump power must be finite and non-negative, got {power}"):
            synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE,
                                         [0.2, power, 1.0])

    @pytest.mark.parametrize("scale", [-1.0, math.nan, math.inf])
    def test_bad_gain_scale_rejected(self, scale):
        # an infinite gain scale used to give every rate equal to R
        with pytest.raises(ValueError,
                           match=f"gain scale must be finite and non-negative, got {scale}"):
            synthetic_calibration_points(scale, TRUE_ETAS, REPETITION_RATE, POWERS)

    @pytest.mark.parametrize("noise", [-0.5, math.nan, math.inf])
    def test_bad_noise_fraction_rejected(self, noise):
        # none of these may quietly give noiseless data
        with pytest.raises(ValueError, match="noise fraction"):
            synthetic_calibration_points(
                TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
                noise_fraction=noise, seed=0,
            )


class TestTransmittedPhotons:
    def test_zero_gain(self):
        # the smallest gain the domain holds; sinh(g)^2 underflows to 0
        assert transmitted_photons_per_mode(GainChannelParams(g=5e-324, eta=0.5)) == 0.0

    @pytest.mark.parametrize("g", [355.0, 400.0, 800.0])
    def test_no_transmission_at_any_gain(self, g):
        # a closed channel is outside the domain, so no 0 * inf arises where
        # sinh(g)^2 overflows
        with pytest.raises(ValueError, match="transmittivity"):
            transmitted_photons_per_mode(GainChannelParams(g=g, eta=0.0))

    @pytest.mark.parametrize("g", [400.0, 800.0])
    def test_overflowing_gain(self, g):
        assert transmitted_photons_per_mode(GainChannelParams(g=g, eta=0.5)) == math.inf

    def test_high_loss_reference(self):
        level = transmitted_photons_per_mode(GainChannelParams(g=1.313, eta=0.016))
        assert level == pytest.approx(0.047563012073306474, rel=1e-12)
        assert level == pytest.approx(0.05, abs=0.01)

    def test_violating_regime_value(self):
        level = transmitted_photons_per_mode(GainChannelParams(g=2.0, eta=0.5))
        assert level == pytest.approx(0.5 * math.sinh(2.0) ** 2, rel=1e-12)
        assert level > 0.1


class TestCalibrationPoint:
    def test_invalid_detector_rejected(self):
        with pytest.raises(ValueError):
            CalibrationPoint(0.5, 100.0, 3)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            CalibrationPoint(-0.5, 100.0, 1)
        with pytest.raises(ValueError):
            CalibrationPoint(0.5, -1.0, 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            CalibrationPoint(bad, 100.0, 1)
        with pytest.raises(ValueError, match="finite"):
            CalibrationPoint(0.5, bad, 1)


class TestFitGain:
    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf])
    def test_rate_must_be_positive_and_finite(self, rate):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS
        )
        with pytest.raises(ValueError, match="repetition rate"):
            fit_gain(points, rate)
        with pytest.raises(ValueError, match="repetition rate"):
            count_rate_model(1.0, 0.5, rate)

    def test_noiseless_round_trip(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS
        )
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.gain_scale == pytest.approx(TRUE_GAIN_SCALE, rel=1e-3)
        assert fit.g_max == pytest.approx(1.313, rel=1e-3)
        assert fit.etas[1] == pytest.approx(0.016, rel=1e-3)
        assert fit.etas[2] == pytest.approx(0.014, rel=1e-3)
        assert np.max(np.abs(fit.residuals)) < 1e-9

    def test_noisy_recovery(self):
        hits = 0
        for seed in range(10):
            points = synthetic_calibration_points(
                TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
                noise_fraction=0.01, seed=seed,
            )
            fit = fit_gain(points, REPETITION_RATE)
            if abs(fit.g_max - 1.313) / 1.313 <= 0.02:
                hits += 1
        assert hits >= 9

    def test_power_rescaling_consistency(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS
        )
        scale = 4.0
        rescaled = [
            CalibrationPoint(pt.pump_power * scale, pt.rate, pt.detector)
            for pt in points
        ]
        fit_a = fit_gain(points, REPETITION_RATE)
        fit_b = fit_gain(rescaled, REPETITION_RATE)
        assert fit_b.gain_scale == pytest.approx(
            fit_a.gain_scale / math.sqrt(scale), rel=1e-6
        )
        assert fit_b.g_max == pytest.approx(fit_a.g_max, rel=1e-6)

    def test_too_few_powers_rejected(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, [0.2, 0.5, 1.0]
        )
        with pytest.raises(FitError):
            fit_gain(points, REPETITION_RATE)

    @pytest.mark.parametrize("etas", [{1: 0.016}, TRUE_ETAS])
    def test_detector_with_zero_rates_rejected(self, etas):
        # its first point is the first zero rate at a positive power
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, etas, REPETITION_RATE, POWERS
        )
        silent = max(etas)
        points = [CalibrationPoint(pt.pump_power, 0.0, pt.detector)
                  if pt.detector == silent else pt for pt in points]
        first = next(i for i, pt in enumerate(points) if pt.detector == silent) + 1
        with pytest.raises(FitError, match=re.escape(
                f"point {first} (power 0.05, detector {silent}) has rate 0 at a positive "
                "power, but the model gives more than 0 there")):
            fit_gain(points, REPETITION_RATE)

    def test_zero_rate_at_a_positive_power_rejected(self):
        # its relative residual is 1 at every parameter value: it tells the
        # fit nothing, but counted in the residual variance it used to raise
        # the standard error of g_max 21-fold, from 0.0089 to 0.19
        points = read_calibration_csv(DEMO_CSV) + [CalibrationPoint(0.05, 0.0, 1)]
        with pytest.raises(FitError, match="^" + re.escape(
                "point 25 (power 0.05, detector 1) has rate 0 at a positive power, but "
                "the model gives more than 0 there") + "$"):
            fit_gain(points, REPETITION_RATE)

    def test_covariance_shape_and_positivity(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
            noise_fraction=0.01, seed=0,
        )
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.covariance.shape == (3, 3)
        assert np.all(np.diag(fit.covariance) >= 0.0)

    def test_covariance_is_the_scaled_inverse_of_jtj(self):
        # sigma^2 (J'J)^-1 in (g_max, eta), with the row and column of g_max
        # scaled to the gain scale a = g_max / sqrt(P_max)
        points = [CalibrationPoint(4.0 * pt.pump_power, pt.rate, pt.detector)
                  for pt in read_calibration_csv(DEMO_CSV)]
        fit = fit_gain(points, REPETITION_RATE)
        args = _start_arrays(points)
        residuals, jac = _model_residuals_and_jacobian(
            np.array([fit.g_max, fit.etas[1], fit.etas[2]]), *args)
        to_a = np.diag([0.5, 1.0, 1.0])  # 1 / sqrt(P_max), P_max = 4
        expected = (residuals @ residuals / (len(points) - 3)
                    * to_a @ np.linalg.inv(jac.T @ jac) @ to_a)
        np.testing.assert_allclose(fit.covariance, expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("headroom", [3e-16, 3e-15, 1e-13, 1e-10])
    def test_covariance_where_jtj_is_numerically_singular(self, headroom):
        # noiseless data over 11 decades of power, with R just above the top
        # rate, which only a saturated gain reaches: the fit ends on a ridge
        # where J's condition number is about 1e9 and J'J's about 1e18, and
        # inverting J'J raised numpy's LinAlgError at each of these R
        powers = [79507528974.0, 4.0, 1.0, 0.5, 0.03125]
        points = synthetic_calibration_points(1.0 / math.sqrt(max(powers)), {1: 1.0},
                                              REPETITION_RATE, powers)
        fit = fit_gain(points, max(pt.rate for pt in points) * (1.0 + headroom))
        assert np.all(np.isfinite(fit.covariance))
        assert np.all(np.diag(fit.covariance) > 0)

    def test_undetermined_gain_raises(self):
        # one detector at 30% noise with R one ulp above the top rate: the
        # cost is flat along a ridge, and the search ends on it at g_max 25.4,
        # eta 0.79, where J has rank 1 (Levenberg-Marquardt used to end at
        # g_max 22.58, eta 1, on the same cost, with full rank and a standard
        # error of g_max 2.7e13 times g_max)
        powers = [222154.67, 223936.30, 215517.20, 305755.14, 1.0]
        points = synthetic_calibration_points(26.919 / math.sqrt(max(powers)), {1: 1.0},
                                              1e6, powers, noise_fraction=0.3, seed=0)
        rate = math.nextafter(max(pt.rate for pt in points), math.inf)
        with pytest.raises(FitError, match=r"^the data do not determine the parameters: "
                           r"the Jacobian at the fit has rank 1 < 2$"):
            fit_gain(points, rate)

    def test_standard_error_above_g_max_raises(self):
        # the benchmark's powers and efficiencies at g_max = 0.1 and 1% noise:
        # J has full rank, but this draw leaves g_max open
        points = synthetic_calibration_points(0.1, TRUE_ETAS, REPETITION_RATE,
                                              BENCHMARK_POWERS, noise_fraction=0.01, seed=4)
        with pytest.raises(FitError, match=r"^the data do not determine the gain: the "
                           r"standard error of g_max is 1\.29 times g_max = 0\.0944304$"):
            fit_gain(points, REPETITION_RATE)

    def test_demo_gain_is_determined(self):
        fit = fit_gain(read_calibration_csv(DEMO_CSV), REPETITION_RATE)
        assert math.sqrt(fit.covariance[0, 0]) / fit.gain_scale == pytest.approx(
            0.0067, abs=1e-4)

    def test_gain_determined_at_one_percent_noise(self):
        # the benchmark's fits: 12 powers, 2 detectors, 1% noise; the relative
        # standard error of g_max stays near 0.01, far below the limit of 1
        worst = 0.0
        for seed in range(300):
            points = synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE,
                                                  BENCHMARK_POWERS, noise_fraction=0.01,
                                                  seed=seed)
            fit = fit_gain(points, REPETITION_RATE)
            worst = max(worst, math.sqrt(fit.covariance[0, 0]) / fit.gain_scale)
        assert worst < 0.02

    def test_single_detector_data(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, {1: 0.016}, REPETITION_RATE, POWERS
        )
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.gain_scale == pytest.approx(TRUE_GAIN_SCALE, rel=1e-3)
        assert set(fit.etas) == {1}

    def test_fit_does_not_call_the_rate_model(self, monkeypatch):
        # the search and the final residuals and Jacobian all come from the
        # profiled cost; the checked rate model is not evaluated
        def refuse(*args):
            raise AssertionError("fit_gain called count_rate_model")

        monkeypatch.setattr(calibration, "count_rate_model", refuse)
        fit = fit_gain(read_calibration_csv(DEMO_CSV), REPETITION_RATE)
        assert fit.g_max == pytest.approx(1.3237445184408447, rel=1e-12)

    def test_rate_at_or_above_repetition_rate_rejected(self):
        # the model saturates at R, so no parameters reach such a rate
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS)
        top = max(pt.rate for pt in points)
        first = next(i for i, pt in enumerate(points) if pt.rate >= top / 2) + 1
        with pytest.raises(FitError, match=f"point {first} .* at or above the repetition rate"):
            fit_gain(points, top / 2)
        with pytest.raises(FitError, match="at or above the repetition rate"):
            fit_gain(points, top)

    def test_rate_at_zero_power_rejected(self):
        # the model gives 0 at zero power whatever the parameters, so the
        # point's residual of -3e12 is constant; it used to end the fit at its
        # start with both efficiencies on the bound at 1
        points = read_calibration_csv(DEMO_CSV) + [CalibrationPoint(0.0, 3.0, 1)]
        with pytest.raises(FitError, match=re.escape(
                "point 25 (power 0.0, detector 1) has rate 3.0 > 0, but the model "
                "gives 0 at zero power")):
            fit_gain(points, REPETITION_RATE)

    def test_no_points_rejected(self):
        with pytest.raises(FitError, match="^no calibration points$"):
            fit_gain([], 1e5)

    def test_zero_rate_at_zero_power_accepted(self):
        # a residual of 0 and a zero row of the Jacobian: only the covariance's
        # degrees of freedom change
        points = read_calibration_csv(DEMO_CSV)
        fit = fit_gain(points, REPETITION_RATE)
        dark = fit_gain(points + [CalibrationPoint(0.0, 0.0, 1), CalibrationPoint(0.0, 0.0, 2)],
                        REPETITION_RATE)
        assert dark.g_max == pytest.approx(fit.g_max, rel=1e-12)
        assert dark.etas == pytest.approx(fit.etas, rel=1e-12)
        assert list(dark.residuals[-2:]) == [0.0, 0.0]

    @pytest.mark.parametrize("power, ceiling", [
        (1e-12, "0.0004"), (1e-160, "4e-152"), (1e-200, "4e-192"),
        (1e-250, "4e-242"), (1e-300, "4e-292")])
    def test_rate_above_the_model_at_its_power_rejected(self, power, ceiling):
        # the demo's top power is 1, so at power P the model gives at most
        # R tanh(40 sqrt(P))^2, about 1600 R P, far below a rate of 1. From
        # 1e-200 down the point's relative residual passed 1e154, and its
        # square overflowed in the search before the fit raised
        points = read_calibration_csv(DEMO_CSV) + [CalibrationPoint(power, 1.0, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match=re.escape(
                    f"point 25 (power {power}, detector 1) has rate 1.0 above the most the "
                    f"model gives at that power, {ceiling} (efficiency 1, g_max = 40)")):
                fit_gain(points, REPETITION_RATE)

    @pytest.mark.parametrize("first, second", [
        pytest.param((1e-12, "0.0004"), (1e-160, "4e-152"), id="1e-12-first"),
        pytest.param((1e-160, "4e-152"), (1e-12, "0.0004"), id="1e-160-first")])
    def test_first_point_above_the_model_named_with_its_own_ceiling(self, first, second):
        points = read_calibration_csv(DEMO_CSV) + [
            CalibrationPoint(power, 1.0, 1) for power, _ in (first, second)]
        power, ceiling = first
        with pytest.raises(FitError, match="^" + re.escape(
                f"point 25 (power {power}, detector 1) has rate 1.0 above the most the "
                f"model gives at that power, {ceiling} (efficiency 1, g_max = 40)") + "$"):
            fit_gain(points, REPETITION_RATE)

    # point 25 fails a later check than point 26; the earlier check is reported
    @pytest.mark.parametrize("point_25, point_26, message", [
        pytest.param((0.0, 3.0), (0.5, REPETITION_RATE),
                     f"point 26 (power 0.5, detector 1) has rate {REPETITION_RATE} at or "
                     f"above the repetition rate {REPETITION_RATE}, which the model never "
                     "reaches", id="saturated-before-dark"),
        pytest.param((0.05, 0.0), (0.0, 3.0),
                     "point 26 (power 0.0, detector 1) has rate 3.0 > 0, but the model "
                     "gives 0 at zero power", id="dark-before-silent"),
        pytest.param((1e-12, 1.0), (0.05, 0.0),
                     "point 26 (power 0.05, detector 1) has rate 0 at a positive power, "
                     "but the model gives more than 0 there", id="silent-before-ceiling"),
    ])
    def test_bad_point_checks_run_in_order(self, point_25, point_26, message):
        points = read_calibration_csv(DEMO_CSV) + [
            CalibrationPoint(power, rate, 1) for power, rate in (point_25, point_26)]
        with pytest.raises(FitError, match="^" + re.escape(message) + "$"):
            fit_gain(points, REPETITION_RATE)

    @pytest.mark.parametrize("scale", [1e-300, 1e-30, 1e30, 1e300])
    def test_result_does_not_depend_on_the_unit_of_power(self, scale):
        # at 1e-30 and below the fit used to return g_max 2.4% low and claim
        # success; at 1e30 it stopped with the gain scale on its bound
        _assert_power_unit_free(scale)

    @settings(deadline=None, max_examples=40)
    @given(st.floats(min_value=-300.0, max_value=300.0))
    def test_result_does_not_depend_on_the_unit_of_power_at_any_exponent(self, exponent):
        _assert_power_unit_free(10.0 ** exponent)

    def test_undetermined_parameters_rejected(self):
        # at R = 1e300 every model rate is above 1e285, so each relative
        # residual rounds to 1 whatever the parameters: the start point
        # would come back as a fit with an all-zero covariance
        points = read_calibration_csv(DEMO_CSV)
        with pytest.raises(FitError, match="do not determine the parameters"):
            fit_gain(points, 1e300)

    @pytest.mark.parametrize("rate", [1e184, 1e185, 1e189])
    def test_rate_where_the_data_determine_nothing(self, rate):
        # from R = 1e184 to 1e189 every relative residual is 1 to rounding,
        # and every Jacobian entry lies far below that rounding (about
        # 1e-145 at 1e185), so the data determine nothing there: one error,
        # and no warning on the way
        with pytest.raises(FitError, match=r"^the data do not determine the parameters: "):
            fit_gain(read_calibration_csv(DEMO_CSV), rate)

    def test_efficiencies_on_the_artificial_bound_rejected(self):
        # at R = 1e20 the demo data need efficiencies near 4e-17, below the
        # 1e-12 bound that keeps the model defined; the least-squares minimum
        # inside the bounds, at g_max 0.0091 and a cost of 0.267, holds
        # detector 2 on it (a fit used to end with both efficiencies there,
        # at g_max 0.049 and residuals near 0.97, reported as converged)
        with pytest.raises(FitError, match=r"parameter bound.*: efficiency 2 = 1e-12$"):
            fit_gain(read_calibration_csv(DEMO_CSV), 1e20)

    def test_efficiency_pushed_past_one_rejected(self):
        # at 1% noise around efficiency 1 this draw wants detector 1 above 1
        points = synthetic_calibration_points(1.3, {1: 1.0, 2: 0.5}, REPETITION_RATE,
                                              np.linspace(0.1, 1.0, 12),
                                              noise_fraction=0.01, seed=4)
        with pytest.raises(FitError, match=r"parameter bound.*: efficiency 1 = 1$"):
            fit_gain(points, REPETITION_RATE)

    @pytest.mark.parametrize("etas", [{1: 1.0, 2: 0.5}, {1: 1.0, 2: 1.0}])
    def test_noiseless_unit_efficiency_accepted(self, etas):
        # at the true efficiency 1 the gradient is rounding, not a push past 1
        points = synthetic_calibration_points(1.3, etas, REPETITION_RATE,
                                              np.linspace(0.1, 1.0, 12))
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.etas == pytest.approx(etas, rel=1e-12)
        assert fit.gain_scale == pytest.approx(1.3, rel=1e-12)

    def test_efficiency_pushed_past_one_at_low_gain_rejected(self):
        # the benchmark's powers and efficiencies at g_max = 0.1 and 1% noise:
        # the minimum wants detector 1 above 1 (the fit used to take 300
        # Levenberg-Marquardt steps here and report no convergence)
        points = synthetic_calibration_points(0.1, TRUE_ETAS, REPETITION_RATE,
                                              BENCHMARK_POWERS, noise_fraction=0.01, seed=6)
        with pytest.raises(FitError, match=r"^the fit ends on a parameter bound, .*: "
                                           r"efficiency 1 = 1$"):
            fit_gain(points, REPETITION_RATE)

    @pytest.mark.parametrize("g_max, gap", [
        (17.0, 1e-9), (17.0, 3e-10), (20.95, 1e-9), (23.5, 3e-10), (23.5, 0.0)])
    def test_noiseless_efficiency_next_to_one_accepted(self, g_max, gap):
        # powers over twelve decades with R one ulp above the top rate: the
        # top rates saturate, the cost is flat along g_max, and u reaches its
        # bound within a Newton step of the minimum, where phi'' jumps; a
        # search that stopped on that step ended past the bound with the cost
        # pushing eta above 1
        powers = [768413.7970792209, 553353.2040493361, 505788.9397582072, 1e-06, 2.00001]
        etas = {1: 1.0 - gap, 2: 1.0 - gap}
        points = synthetic_calibration_points(g_max / math.sqrt(max(powers)), etas,
                                              REPETITION_RATE, powers)
        fit = fit_gain(points, math.nextafter(max(pt.rate for pt in points), math.inf))
        assert fit.g_max == pytest.approx(g_max, rel=1e-8)
        assert fit.etas == pytest.approx(etas, rel=1e-9)

    @pytest.mark.parametrize("g_max, rel", [
        (0.003, 1e-4), (0.01, 1e-6), (0.03, 1e-7), (0.3, 1e-11), (1.313, 1e-11), (5.0, 1e-11)])
    def test_noiseless_recovery_at_any_gain(self, g_max, rel):
        # the cost is flatter the lower the gain, as tanh(g)^2 and eta trade
        # off, which bounds the precision there (the fit used to report no
        # convergence below g_max = 0.05)
        points = synthetic_calibration_points(g_max, TRUE_ETAS, REPETITION_RATE,
                                              BENCHMARK_POWERS)
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.g_max == pytest.approx(g_max, rel=rel)
        assert fit.etas == pytest.approx(TRUE_ETAS, rel=rel)

    @settings(deadline=None, max_examples=100)
    @given(**EDGE_DOMAIN)
    def test_fit_is_finite_and_inside_the_bounds_or_raises(self, gain_scale, etas, powers,
                                                           dark_rows, noise, rate_headroom):
        # pytest turns any numpy warning on the way into a failure
        points, rate = _edge_draw(gain_scale, etas, powers, dark_rows, noise, rate_headroom)
        try:
            fit = fit_gain(points, rate)
        except FitError:
            return
        params = np.array([fit.g_max, fit.gain_scale, *fit.etas.values()])
        assert np.all(np.isfinite(params)) and np.all(np.isfinite(fit.covariance))
        assert fit.g_max >= 1e-12
        assert all(1e-12 <= eta <= 1.0 for eta in fit.etas.values())


def _assert_power_unit_free(scale):
    points = synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE,
                                          POWERS, noise_fraction=0.01, seed=1)
    fit = fit_gain(points, REPETITION_RATE)
    scaled = fit_gain([CalibrationPoint(pt.pump_power * scale, pt.rate, pt.detector)
                       for pt in points], REPETITION_RATE)
    assert scaled.g_max == pytest.approx(fit.g_max, rel=1e-12)
    assert scaled.etas == pytest.approx(fit.etas, rel=1e-12)
    assert scaled.gain_scale * math.sqrt(scale) == pytest.approx(fit.gain_scale, rel=1e-12)


def _model_residuals_and_jacobian(params, s, rate, detector_index, repetition_rate):
    """The reference for the fit's residuals and Jacobian, from the rate
    model itself: relative residuals (N - rate) / N for params (gain factor,
    eta per detector), 0 where the model N is 0 as at zero power, and their
    analytic Jacobian. Point i has the gain params[0] * s[i]: g_max with
    s = sqrt(P / P_max) and a gain scale a with s = sqrt(P) give the same
    residuals."""
    g, eta = params[0] * s, params[1:][detector_index]
    model = count_rate_model(g, eta, repetition_rate)
    e = np.exp(-2.0 * g)
    tanh, sech2 = np.tanh(g), 4.0 * e / (1.0 + e) ** 2
    positive = model > 0
    residuals = np.divide(model - rate, model, out=np.zeros_like(g), where=positive)
    # dr/dN * dN/dtheta with dN/dg = R eta 2 tanh(g) sech(g)^2 / D^2 and
    # dN/deta = R tanh(g)^2 sech(g)^2 / D^2, D = eta tanh(g)^2 + sech(g)^2.
    # dr/dN = (rate / N) / N, evaluated as (rate / N) times dlog N / dtheta,
    # which neither overflows nor divides by zero.
    denominator = eta * tanh**2 + sech2
    scale = np.divide(rate, model, out=np.zeros_like(g), where=positive)
    dlog_dg = np.divide(2.0 * sech2, tanh * denominator,
                        out=np.zeros_like(g), where=positive)
    jac = np.zeros((len(rate), len(params)))
    jac[:, 0] = scale * dlog_dg * s
    jac[np.arange(len(rate)), 1 + detector_index] = scale * sech2 / (eta * denominator)
    return residuals, jac


def _fit_arrays(points):
    detectors = sorted({pt.detector for pt in points})
    return (np.sqrt([pt.pump_power for pt in points]),
            np.array([pt.rate for pt in points]),
            np.searchsorted(detectors, [pt.detector for pt in points]),
            REPETITION_RATE)


class TestJacobian:
    @pytest.mark.parametrize("params", [
        [1.3237, 0.0156, 0.0137],  # near the demo fit
        [0.05, 1e-9, 1e-9],  # the old start grid's smallest gain scale and clip
        [4.0, 0.9, 0.5],  # near saturation
        [1e-9, 0.02, 0.01],  # every model rate below 1e-12 counts/s
    ])
    def test_matches_central_differences(self, params):
        points = read_calibration_csv(DEMO_CSV)
        if params[0] < 1e-6:
            # rates of that size, or the differences drown in residuals of 1e15
            points = synthetic_calibration_points(
                1.2 * params[0], {1: params[1], 2: params[2]}, REPETITION_RATE, POWERS)
        # a point at zero power has g = 0, where dlog N / dg is infinite
        points.append(CalibrationPoint(0.0, 3.0, 1))
        args = _fit_arrays(points)
        params = np.array(params)
        _, jac = _model_residuals_and_jacobian(params, *args)
        for j in range(len(params)):
            step = np.zeros_like(params)
            step[j] = 1e-6 * params[j]
            up, _ = _model_residuals_and_jacobian(params + step, *args)
            down, _ = _model_residuals_and_jacobian(params - step, *args)
            numeric = (up - down) / (2 * step[j])
            np.testing.assert_allclose(jac[:, j], numeric, rtol=1e-6,
                                       atol=1e-9 * np.abs(numeric).max())


def _start_arrays(points, repetition_rate=REPETITION_RATE):
    """The arrays as ``fit_gain`` passes them: s = sqrt(P / P_max)."""
    sqrt_power, rate, detector_index, _ = _fit_arrays(points)
    return sqrt_power / sqrt_power.max(), rate, detector_index, repetition_rate


class TestProfiledFit:
    @pytest.mark.parametrize("g", [1.0, 1.313, 1.6])
    def test_phi_is_twice_the_cost_at_the_profiled_efficiencies(self, g):
        args = _start_arrays(read_calibration_csv(DEMO_CSV))
        profile = calibration._ProfiledCost(*args)
        etas = profile.etas(profile.derivatives(g)[2])
        assert np.all((1e-12 < etas) & (etas < 1.0))  # inside the bounds, not clipped
        residuals, _ = _model_residuals_and_jacobian(np.r_[g, etas], *args)
        assert profile(np.array([g]))[0] == pytest.approx(residuals @ residuals, rel=1e-12)

    @pytest.mark.parametrize("repetition_rate, g, held", [
        pytest.param(REPETITION_RATE, 0.5, [], id="0.5"),
        pytest.param(REPETITION_RATE, 1.313, [], id="1.313"),
        pytest.param(REPETITION_RATE, 4.0, [], id="4.0"),
        # at R = 1e20 the demo data want efficiencies below 1e-12
        pytest.param(1e20, 0.0091, [1], id="1e20-0.0091"),
        pytest.param(1e20, 0.05, [0, 1], id="1e20-0.05"),
    ])
    def test_derivatives_match_central_differences(self, repetition_rate, g, held):
        # phi' and phi'' from phi and phi', and u' from u; phi is taken with
        # the detectors in held at the bound eta = 1e-12
        profile = calibration._ProfiledCost(
            *_start_arrays(read_calibration_csv(DEMO_CSV), repetition_rate))
        h = 1e-5 * g
        d1, d2, u, du = profile.derivatives(g)
        assert list(np.flatnonzero(profile.held(u))) == held
        assert np.all(u[held] > profile.bounds[1][held])
        down, up = profile(np.array([g - h, g + h]))
        assert d1 == pytest.approx((up - down) / (2 * h), rel=1e-7)
        (up, _, u_up, _), (down, _, u_down, _) = (profile.derivatives(g + h),
                                                 profile.derivatives(g - h))
        assert d2 == pytest.approx((up - down) / (2 * h), rel=1e-7)
        np.testing.assert_allclose(du, (u_up - u_down) / (2 * h), rtol=1e-7)

    def test_residuals_are_orthogonal_to_the_jacobian(self):
        # the fit is a stationary point of the full cost: every column of its
        # own J is within 1e-12 of orthogonal to its residuals (MINPACK's gtol
        # test, |J_j'r| <= 1e-12 |J_j| |r|, which scaling a column leaves as
        # it is). The rate model's residuals, rounded another way, agree
        # within 1e-14 (the largest difference seen is 2.4e-15)
        sets = [synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE,
                                             POWERS, noise_fraction=0.01, seed=seed)
                for seed in range(50)]
        for points in sets + [read_calibration_csv(DEMO_CSV)]:
            fit = fit_gain(points, REPETITION_RATE)
            args = _start_arrays(points)
            params = np.r_[fit.g_max, list(fit.etas.values())]
            residuals, jac = calibration._ProfiledCost(*args).residuals_and_jacobian(
                params[0], params[1:])
            np.testing.assert_array_equal(residuals, fit.residuals)
            assert np.all(np.abs(residuals @ jac) <= 1e-12 * np.linalg.norm(jac, axis=0)
                          * np.linalg.norm(residuals))
            np.testing.assert_allclose(
                fit.residuals, _model_residuals_and_jacobian(params, *args)[0],
                rtol=0, atol=1e-14)

    @pytest.mark.parametrize("params", [
        [1.3237, 0.0156, 0.0137],  # near the demo fit
        [0.05, 1e-9, 1e-9],  # residuals up to 2e10
        [1e-6, 0.02, 0.01],  # residuals up to 4e12
        [1.0, 1e-12, 1.0],  # both efficiency bounds
        [4.0, 0.9, 0.5],  # near saturation
        [20.0, 0.01, 0.02],  # saturated at the top powers
    ])
    def test_profile_matches_the_rate_model(self, params):
        # r = b - c u and its Jacobian times the parameters against
        # (N - rate) / N and its Jacobian from the rate model, zero-power rows
        # included: within 1e-14 of max(1, |r|) and 1e-14 relative per
        # nonzero entry (the largest differences seen are 1.8e-15 and 2.1e-15)
        points = read_calibration_csv(DEMO_CSV) + [
            CalibrationPoint(0.0, 0.0, 1), CalibrationPoint(0.0, 0.0, 2)]
        args, params = _start_arrays(points), np.array(params)
        residuals, jac = calibration._ProfiledCost(*args).residuals_and_jacobian(
            params[0], params[1:])
        expected, expected_jac = _model_residuals_and_jacobian(params, *args)
        expected_jac *= params
        assert list(residuals[-2:]) == [0.0, 0.0] and not jac[-2:].any()
        assert np.all(np.abs(residuals - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))
        np.testing.assert_array_equal(jac == 0, expected_jac == 0)
        np.testing.assert_allclose(jac, expected_jac, rtol=1e-14, atol=0)

    @settings(deadline=None, max_examples=300)
    @given(**EDGE_DOMAIN)
    def test_search_ends_finite_and_inside_the_bounds(self, gain_scale, etas, powers,
                                                      dark_rows, noise, rate_headroom):
        points, rate = _edge_draw(gain_scale, etas, powers, dark_rows, noise, rate_headroom)
        end = calibration._profiled_fit(
            calibration._ProfiledCost(*_start_arrays(points, rate)))
        assert np.all(np.isfinite(end))
        assert 1e-12 <= end[0] <= calibration._TOP_GAIN
        assert np.all((1e-12 <= end[1:]) & (end[1:] <= 1.0))


def _edge_draw(gain_scale, etas, powers, dark_rows, noise, rate_headroom):
    """The points and repetition rate of one ``EDGE_DOMAIN`` draw: g_max is
    gain_scale, and R runs from just above the largest rate up to 1e300."""
    points = synthetic_calibration_points(
        gain_scale / math.sqrt(max(powers)), dict(enumerate(etas, start=1)),
        REPETITION_RATE, powers, noise_fraction=noise, seed=0)
    for det in range(1, len(etas) + 1):
        assume(any(pt.rate > 0 for pt in points if pt.detector == det))
    points += [CalibrationPoint(0.0, 0.0, 1 + i % len(etas)) for i in range(dark_rows)]
    top = max(pt.rate for pt in points)
    rate = max(math.nextafter(top, math.inf), min(10.0 ** (
        (1.0 - rate_headroom) * math.log10(top) + rate_headroom * 300.0), 1e300))
    return points, rate


def _grid_start(sqrt_power, rate, detector_index, repetition_rate):
    """The start of the ``least_squares`` reference fit, which the package's
    fit took before the profiled search: a coarse grid over the gain scale,
    each efficiency solved from the highest-power point of its detector,
    scored by the residuals of ``_model_residuals_and_jacobian``."""
    ids = np.arange(detector_index.max() + 1)[:, None]
    top = np.argmax(np.where(detector_index == ids, sqrt_power, -1.0), axis=1)
    a = np.geomspace(0.05, 20.0, 60) / sqrt_power.max()
    g2 = np.tanh(a[:, None] * sqrt_power[top]) ** 2
    denom = g2 * np.maximum(repetition_rate - rate[top], 1e-9)
    eta = np.divide(rate[top] * (1.0 - g2), denom, out=np.full_like(denom, 0.5),
                    where=denom > 0)
    guesses = np.column_stack([a, np.clip(eta, 1e-9, 1.0)])
    sse = [np.sum(_model_residuals_and_jacobian(
        guess, sqrt_power, rate, detector_index, repetition_rate)[0] ** 2)
        for guess in guesses]
    return guesses[np.argmin(sse)]


def _scipy_fit(points):
    """The fit as ``scipy.optimize.least_squares`` ran it: in the gain scale
    a and the efficiencies, from the old grid start, with the same bounds and
    residuals, at its 1e-14 tolerances."""
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    args = _fit_arrays(points)
    n_detectors = args[2].max() + 1
    result = least_squares(
        lambda params, *args: _model_residuals_and_jacobian(params, *args)[0],
        _grid_start(*args),
        bounds=([1e-12] * (1 + n_detectors), [np.inf] + [1.0] * n_detectors),
        args=args, xtol=1e-14, ftol=1e-14, gtol=1e-14)
    assert result.success
    return result.x


class TestAgainstScipy:
    """``fit_gain`` against the ``least_squares`` fit it replaced. That fit
    stops where rounding in the residuals takes it, about 3e-9 relative from
    the minimum on these data; 1e-8 bounds the difference."""

    @pytest.mark.parametrize("seed", range(50))
    def test_criterion_7_sets(self, seed):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
            noise_fraction=0.01, seed=seed)
        fit = fit_gain(points, REPETITION_RATE)
        ours = [fit.gain_scale, fit.etas[1], fit.etas[2]]
        np.testing.assert_allclose(ours, _scipy_fit(points), rtol=1e-8, atol=0)

    def test_demo_data(self):
        points = read_calibration_csv(DEMO_CSV)
        fit = fit_gain(points, REPETITION_RATE)
        ours = [fit.gain_scale, fit.etas[1], fit.etas[2]]
        np.testing.assert_allclose(ours, _scipy_fit(points), rtol=1e-8, atol=0)


class TestPinnedOutputs:
    """The rate model, criterion 7's data sets and the fits to them, byte for
    byte, as SHA-256 of their float64 arrays. Made on the platform, Python and
    numpy named in ``tests/golden/VERSIONS``: as for the golden files, numpy
    builds may round tanh and exp differently, so a mismatch elsewhere is a
    finding to report. A change that moves these numbers on purpose says so
    and updates the digests."""

    def test_rate_model_on_a_gain_efficiency_grid(self):
        g = np.r_[0.0, np.geomspace(1e-8, 400.0, 3000)]
        eta = np.geomspace(1e-300, 1.0, 301)
        rates = count_rate_model(g[:, None], eta, REPETITION_RATE)
        assert rates.shape == (3001, 301)
        assert _sha256(rates) == (
            "2ddbbe3fc16e140147210f1c1188dc312386e1de57448cbd9dd7dcfd346d4c2f")

    def test_criterion_7_sets_and_their_fits(self):
        sets = [synthetic_calibration_points(TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE,
                                             POWERS, noise_fraction=0.01, seed=seed)
                for seed in range(50)]
        assert _sha256([[pt.pump_power, pt.rate, pt.detector]
                        for points in sets for pt in points]) == (
            "e2205651e39e98a67bb6f505cf37083f85cd3f33d88928e8f40fc8a05dcbec1c")
        fits = [fit_gain(points, REPETITION_RATE)
                for points in sets + [read_calibration_csv(DEMO_CSV)]]
        assert _sha256([[fit.g_max, fit.gain_scale, fit.etas[1], fit.etas[2]]
                        for fit in fits]) == (
            "c236287c925083e2968c7fb6e66242b90e6b77b402d151e39b2c851e9681b8fc")


def _sha256(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=float).tobytes()).hexdigest()


class TestCalibrationCSV:
    def test_round_trip(self, tmp_path):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
            noise_fraction=0.01, seed=3,
        )
        path = tmp_path / "calib.csv"
        write_calibration_csv(points, path)
        loaded = read_calibration_csv(path)
        assert len(loaded) == len(points)
        for a, b in zip(points, loaded):
            assert b.pump_power == pytest.approx(a.pump_power, rel=1e-11)
            assert b.rate == pytest.approx(a.rate, rel=1e-11)
            assert b.detector == a.detector

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("power,rate,detector\n0.5,oops,1\n")
        with pytest.raises(ValueError, match=":2:"):
            read_calibration_csv(path)

    def test_nan_row_reports_line_number(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("power,rate,detector\n0.5,nan,1\n")
        with pytest.raises(ValueError, match=":2: .*finite"):
            read_calibration_csv(path)
