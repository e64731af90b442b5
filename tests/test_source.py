import math

import pytest
from hypothesis import given, strategies as st

from spdc_werner.source import (
    GainChannelParams,
    mean_photons_per_mode,
    n_pair_singlet,
)


class TestGainChannelParams:
    def test_derived_scalars(self):
        p = GainChannelParams(g=0.7, eta=0.2)
        assert p.gamma_tilde == pytest.approx(0.8 * math.tanh(0.7))
        assert mean_photons_per_mode(p) == pytest.approx(math.sinh(0.7) ** 2)

    @given(st.floats(min_value=0.0, max_value=18.0),
           st.floats(min_value=0.0, max_value=0.999))
    def test_scalar_ranges(self, g, eta):
        p = GainChannelParams(g=g, eta=eta)
        assert 0.0 <= p.gamma_tilde <= math.tanh(g) < 1.0

    def test_gamma_saturates_in_double_precision(self):
        # tanh rounds to 1.0 beyond g ~ 19; the open bound is analytic
        assert GainChannelParams(g=25.0).gamma_tilde <= 1.0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            GainChannelParams(g=-0.1)

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError, match="gain must be non-negative, got nan"):
            GainChannelParams(g=float("nan"))

    def test_infinite_gain_rejected(self):
        with pytest.raises(ValueError, match="gain must be finite, got inf"):
            GainChannelParams(g=math.inf)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GainChannelParams(g=1.0, eta=1.5)


class TestNPairSinglet:
    def test_vacuum_term(self):
        s = n_pair_singlet(0)
        assert s == {(0, 0, 0, 0): 1.0 + 0.0j}
        assert type(s[(0, 0, 0, 0)]) is complex

    def test_single_pair_is_singlet(self):
        s = n_pair_singlet(1)
        amp = 1.0 / math.sqrt(2.0)
        assert s[(1, 0, 0, 1)] == pytest.approx(amp)
        assert s[(0, 1, 1, 0)] == pytest.approx(-amp)
        assert len(s) == 2

    def test_two_pair_amplitudes(self):
        s = n_pair_singlet(2)
        amp = 1.0 / math.sqrt(3.0)
        assert s[(2, 0, 0, 2)] == pytest.approx(amp)
        assert s[(1, 1, 1, 1)] == pytest.approx(-amp)
        assert s[(0, 2, 2, 0)] == pytest.approx(amp)

    @pytest.mark.parametrize("n", range(7))
    def test_normalized(self, n):
        norm_squared = sum(abs(a) ** 2 for a in n_pair_singlet(n).values())
        assert norm_squared == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(7))
    def test_polarization_swap_antisymmetry(self, n):
        s = n_pair_singlet(n)
        for m in range(n + 1):
            direct = s[(n - m, m, m, n - m)]
            swapped = s[(m, n - m, n - m, m)]
            assert direct == pytest.approx((-1) ** n * swapped)


class TestMeanPhotons:
    def test_zero_gain(self):
        assert mean_photons_per_mode(GainChannelParams(g=0.0)) == 0.0

    def test_peak_gain_value(self):
        # sinh^2(1.313) = 2.9727
        nbar = mean_photons_per_mode(GainChannelParams(g=1.313))
        assert nbar == pytest.approx(2.97, abs=0.01)

    def test_four_mode_total_at_entanglement_edge(self):
        # 4 * sinh^2(1.084) = 6.855
        total = 4.0 * mean_photons_per_mode(GainChannelParams(g=1.084))
        assert total == pytest.approx(6.85, abs=0.03)

    def test_largest_finite_gain(self):
        assert mean_photons_per_mode(GainChannelParams(g=355.0)) == math.sinh(355.0) ** 2

    @pytest.mark.parametrize("g", [400.0, 800.0])
    def test_overflow_is_inf(self, g):
        # sinh(g)^2 overflows a double beyond g of about 355.58
        assert mean_photons_per_mode(GainChannelParams(g=g)) == math.inf
