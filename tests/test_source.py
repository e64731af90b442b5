import math
import sys
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from spdc_werner.channel import singlet_weight, two_photon_state
from spdc_werner.source import (
    GainChannelParams,
    WernerDescriptor,
    mean_photons_per_mode,
    n_pair_singlet,
    transmitted_photons_per_mode,
)

# The domain edges and the values just outside them, mixed into every draw.
EDGE_VALUES = (0.0, -0.0, 5e-324, 1e-300, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52,
               -5e-324, -1.0, 30.0, 1e308, math.nan, math.inf, -math.inf)


class TestGainChannelParams:
    def test_derived_scalars(self):
        p = GainChannelParams(g=0.7, eta=0.2)
        assert p.gamma_tilde == pytest.approx(0.8 * math.tanh(0.7))
        assert mean_photons_per_mode(p.g) == pytest.approx(math.sinh(0.7) ** 2)

    @given(st.floats(min_value=0.0, max_value=18.0, exclude_min=True),
           st.floats(min_value=0.0, max_value=0.999, exclude_min=True))
    def test_scalar_ranges(self, g, eta):
        p = GainChannelParams(g=g, eta=eta)
        assert 0.0 <= p.gamma_tilde <= math.tanh(g) < 1.0

    def test_gamma_saturates_in_double_precision(self):
        # tanh rounds to 1.0 beyond g ~ 19, and 1 - 5e-324 to 1.0; the open
        # bound is analytic
        assert GainChannelParams(g=25.0, eta=5e-324).gamma_tilde <= 1.0

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            GainChannelParams(g=-0.1, eta=0.5)

    def test_nan_gain_rejected(self):
        with pytest.raises(ValueError, match="gain must be non-negative, got nan"):
            GainChannelParams(g=float("nan"), eta=0.5)

    def test_infinite_gain_rejected(self):
        with pytest.raises(ValueError, match="gain must be finite, got inf"):
            GainChannelParams(g=math.inf, eta=0.5)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            GainChannelParams(g=1.0, eta=1.5)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError, match="no pairs are emitted at g = 0"):
            GainChannelParams(g=0.0, eta=0.5)

    @pytest.mark.parametrize("eta", [0.0, 1.0, math.nan, -0.1, 1.5])
    def test_closed_channel_rejected(self, eta):
        with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
            GainChannelParams(g=0.5, eta=eta)

    def test_eta_is_required(self):
        with pytest.raises(TypeError):
            GainChannelParams(g=0.5)

    @pytest.mark.parametrize("g,eta,message", [
        (-1.0, 2.0, "gain must be non-negative"),
        (math.nan, math.nan, "gain must be non-negative"),
        (math.inf, 0.0, "gain must be finite"),
        (0.0, 0.0, "transmittivity"),
        (0.0, 1.5, "transmittivity"),
    ])
    def test_checks_run_in_order(self, g, eta, message):
        # gain sign, gain finite, eta, then g != 0: each input with several
        # faults reports the first of them
        with pytest.raises(ValueError, match=message):
            GainChannelParams(g=g, eta=eta)


class TestDomain:
    @settings(deadline=None)
    @given(g=st.one_of(st.sampled_from(EDGE_VALUES), st.floats()),
           eta=st.one_of(st.sampled_from(EDGE_VALUES), st.floats()))
    @example(g=5e-324, eta=5e-324)
    @example(g=1e308, eta=1.0 - 2.0**-53)
    def test_construction_succeeds_exactly_on_the_domain(self, g, eta):
        on_domain = math.isfinite(g) and g > 0.0 and 0.0 < eta < 1.0
        try:
            params = GainChannelParams(g=g, eta=eta)
        except ValueError:
            assert not on_domain
            return
        assert on_domain
        # every consumer takes the point as given
        assert 1.0 / 3.0 <= singlet_weight(params) <= 1.0
        two_photon_state(params)
        assert WernerDescriptor.at(params).delta >= 0.0
        assert transmitted_photons_per_mode(params) >= 0.0


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
        assert mean_photons_per_mode(0.0) == 0.0

    def test_peak_gain_value(self):
        # sinh^2(1.313) = 2.9727
        nbar = mean_photons_per_mode(1.313)
        assert nbar == pytest.approx(2.97, abs=0.01)

    def test_four_mode_total_at_entanglement_edge(self):
        # 4 * sinh^2(1.084) = 6.855
        total = 4.0 * mean_photons_per_mode(1.084)
        assert total == pytest.approx(6.85, abs=0.03)

    def test_largest_finite_gain(self):
        assert mean_photons_per_mode(355.0) == math.sinh(355.0) ** 2

    @pytest.mark.parametrize("g", [400.0, 800.0])
    def test_overflow_is_inf(self, g):
        # sinh(g)^2 overflows a double beyond g of about 355.58
        assert mean_photons_per_mode(g) == math.inf


def decimal_transmitted_photons(g: float, eta: float) -> Decimal:
    """eta * sinh(g)^2 in 50-digit decimal arithmetic, from the exact doubles."""
    with localcontext() as ctx:
        ctx.prec = 50
        g_exact = Decimal(g)
        sinh = (g_exact.exp() - (-g_exact).exp()) / 2
        return Decimal(eta) * sinh * sinh


class TestTransmittedPhotonsPastOverflow:
    @pytest.mark.parametrize("g, eta", [(360.0, 5e-324), (720.0, 5e-324), (356.0, 0.25)])
    def test_finite_where_only_sinh_squared_overflows(self, g, eta):
        # this used to be eta * inf = inf; at g = 360 the value is 6.1e-12, at
        # g = 356 and eta = 0.25 it is 1.0e308
        level = transmitted_photons_per_mode(GainChannelParams(g=g, eta=eta))
        reference = decimal_transmitted_photons(g, eta)
        assert math.isfinite(level)
        assert abs(Decimal(level) / reference - 1) <= Decimal("1e-12")

    @pytest.mark.parametrize("g", [356.0, 800.0])
    def test_inf_where_the_product_overflows(self, g):
        # at g = 356 the value, e^712 / 8, is already above the largest double
        assert transmitted_photons_per_mode(GainChannelParams(g=g, eta=0.5)) == math.inf

    @pytest.mark.parametrize("g", [5e-324, 1e-170, 1e-8, 0.5, 1.313, 20.0, 100.0,
                                   300.0, 355.0])
    @pytest.mark.parametrize("eta", [5e-324, 1e-300, 1e-12, 0.016, 0.5,
                                     1.0 - 2.0**-53])
    def test_bitwise_the_product_where_sinh_squared_is_finite(self, g, eta):
        level = transmitted_photons_per_mode(GainChannelParams(g=g, eta=eta))
        assert level.hex() == (eta * math.sinh(g) ** 2).hex()


EPS = 2.0**-52


def decimal_margin(g: float, eta: float) -> Decimal:
    """p - 1/3 = 2(1 - x) / (3(1 + 2x)), x = ((1-eta) tanh g)^2, in 400-digit
    decimal arithmetic from the exact doubles: enough to resolve 1 - x where
    eta is subnormal and exp(-2g) is as small as 1e-340."""
    with localcontext() as ctx:
        ctx.prec = 400
        e = (-2 * Decimal(g)).exp()
        x = ((1 - Decimal(eta)) * (1 - e) / (1 + e)) ** 2
        return 2 * (1 - x) / (3 * (1 + 2 * x))


def relative_error(value: float, reference: Decimal) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        return float(abs(Decimal(value) / reference - 1))


class TestEntanglementMargin:
    """WernerDescriptor.at takes delta = p - 1/3 through 1 - x as a sum of
    non-negative terms, so it keeps its digits where p rounds to 1/3."""

    # g -> 0, g -> inf, eta -> 0 and eta -> 1, and the demo point
    EDGES = [(g, eta) for g in (5e-324, 1e-170, 1e-8, 1.313, 8.0, 20.0, 30.0, 400.0, 1e300)
             for eta in (1e-300, 1e-100, 5e-17, 1e-6, 0.016, 0.5, 1.0 - 1e-12, 1.0 - 2.0**-53)]

    @pytest.mark.parametrize("g, eta", EDGES)
    def test_margin_within_a_few_ulps_at_the_edges(self, g, eta):
        werner = WernerDescriptor.at(GainChannelParams(g=g, eta=eta))
        delta = decimal_margin(g, eta)
        # delta and -3 delta / 4 within 4 ulps (2.6 seen over 20,000 draws);
        # the square doubles the relative error (5.5 ulps seen)
        assert relative_error(werner.delta, delta) <= 4 * EPS
        assert relative_error(werner.witness_value, -3 * delta / 4) <= 4 * EPS
        tangle = 9 * delta * delta / 4
        if tangle >= Decimal(sys.float_info.min):
            assert relative_error(werner.tangle, tangle) <= 8 * EPS
        else:  # the stated limit: below delta of about 1e-154 the tangle underflows
            assert werner.tangle < sys.float_info.min
        assert werner.is_entangled

    @pytest.mark.parametrize("g, eta, margin", [(20.0, 5e-17, "2.6e-17"),
                                                (30.0, 1e-300, "7.8e-27")])
    def test_entangled_where_p_rounds_to_one_third(self, g, eta, margin):
        params = GainChannelParams(g=g, eta=eta)
        werner = WernerDescriptor.at(params)
        assert werner.p == singlet_weight(params) == 1.0 / 3.0
        assert not WernerDescriptor(werner.p).is_entangled
        assert werner.is_entangled and werner.witness_value < 0.0 < werner.tangle
        assert f"{werner.delta:.1e}" == margin
        assert relative_error(werner.delta, decimal_margin(g, eta)) <= 4 * EPS

    def test_margin_underflows_past_the_smallest_subnormal(self):
        # the stated limit: delta is 2.2e-324 here and rounds to 0
        assert decimal_margin(400.0, 5e-324) < Decimal(5e-324)
        werner = WernerDescriptor.at(GainChannelParams(g=400.0, eta=5e-324))
        assert werner.delta == 0.0 and not werner.is_entangled
        # a zero margin's witness is +0.0, as (1 - 3p)/4 gave it
        assert math.copysign(1.0, werner.witness_value) == 1.0

    @settings(deadline=None)
    @given(g=st.one_of(st.sampled_from([5e-324, 1e-8, 19.0, 30.0, 372.0, 400.0, 1e300]),
                       st.floats(min_value=5e-324, max_value=1e300)),
           eta=st.one_of(st.sampled_from([5e-324, 1.5e-323, 1e-300, 5e-17, 1.0 - 2.0**-53]),
                         st.floats(min_value=5e-324, max_value=1.0, exclude_max=True)))
    @example(g=20.0, eta=5e-17)
    @example(g=30.0, eta=1e-300)
    @example(g=400.0, eta=1.5e-323)  # the margin is 1.3 times the smallest subnormal
    def test_entangled_wherever_the_margin_is_representable(self, g, eta):
        params = GainChannelParams(g=g, eta=eta)
        werner = WernerDescriptor.at(params)
        if decimal_margin(g, eta) > Decimal("4.9e-324"):
            assert werner.is_entangled
        # p keeps singlet_weight's expression, bit for bit
        assert werner.p.hex() == singlet_weight(params).hex()

    @pytest.mark.parametrize("p", [-1.0 / 3.0, 0.0, 1.0 / 3.0, 0.4, 1.0])
    def test_from_p_alone_the_margin_is_p_minus_one_third(self, p):
        # as bench/gate.py builds it
        werner = WernerDescriptor(p)
        assert werner.delta == p - 1.0 / 3.0
        assert werner.is_entangled == (p > 1.0 / 3.0)
        assert werner.witness_value == pytest.approx((1.0 - 3.0 * p) / 4.0, abs=1e-16)
        assert werner.tangle == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0) ** 2, abs=1e-16)
