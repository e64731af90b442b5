import math

import numpy as np
import pytest

from spdc_werner.calibration import (
    CalibrationPoint,
    count_rate_model,
    fit_gain,
    read_calibration_csv,
    synthetic_calibration_points,
    transmitted_photons_per_mode,
    write_calibration_csv,
)
from spdc_werner.errors import FitError
from spdc_werner.source import GainChannelParams

REPETITION_RATE = 250_000.0
TRUE_GAIN_SCALE = 1.313  # g_max = 1.313 at unit power
TRUE_ETAS = {1: 0.016, 2: 0.014}
POWERS = np.linspace(0.05, 1.0, 12)


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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            count_rate_model(-1.0, 0.5, REPETITION_RATE)
        with pytest.raises(ValueError):
            count_rate_model(1.0, 0.0, REPETITION_RATE)
        with pytest.raises(ValueError):
            count_rate_model(1.0, 0.5, 0.0)


class TestTransmittedPhotons:
    def test_zero_gain(self):
        assert transmitted_photons_per_mode(GainChannelParams(g=0.0, eta=0.5)) == 0.0

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

    def test_covariance_shape_and_positivity(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, TRUE_ETAS, REPETITION_RATE, POWERS,
            noise_fraction=0.01, seed=0,
        )
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.covariance.shape == (3, 3)
        assert np.all(np.diag(fit.covariance) >= 0.0)

    def test_single_detector_data(self):
        points = synthetic_calibration_points(
            TRUE_GAIN_SCALE, {1: 0.016}, REPETITION_RATE, POWERS
        )
        fit = fit_gain(points, REPETITION_RATE)
        assert fit.gain_scale == pytest.approx(TRUE_GAIN_SCALE, rel=1e-3)
        assert set(fit.etas) == {1}


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
