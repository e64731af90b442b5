import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spdc_werner.channel import (
    BRUTE_FORCE_MAX_PAIRS,
    COINCIDENCE_OCCUPATIONS,
    apply_beamsplitters,
    post_select_two_photon,
    singlet_weight,
    transmitted_reduced_state,
    two_photon_block_closed,
    two_photon_state,
)
from spdc_werner.errors import CapacityError
from spdc_werner.fock import TWO_PHOTON_BASIS, DensityMatrix, partial_trace
from spdc_werner.metrics import singlet_weight_extract, werner_state
from spdc_werner.source import GainChannelParams, n_pair_singlet

import series_reference
from series_reference import pair_number_series


def eight_slot_reduced_state(n, eta):
    """The reference route: the ``(occupations, matrix)`` pair of the full
    reduced state on the transmitted modes, traced out of the beam-splitter
    expansion over all eight slots."""
    return partial_trace(apply_beamsplitters(n_pair_singlet(n), eta))


def _binom(a: int, k: int) -> int:
    """Binomial coefficient that vanishes outside 0 <= k <= a."""
    if a < 0 or k < 0 or k > a:
        return 0
    return math.comb(a, k)


class LossCoefficients:
    """Coefficient tables of the general reduced state of the n-pair term.

    The reduced matrix over the transmitted modes can be written as a double
    sum over integers (h, k) with per-slot factors

        s(h, k, p)       = zeta^p * sqrt(C(k, p) * C(h, k-p))
        s_tilde(h, k, p) = zeta^p * sqrt(C(n-k, p) * C(n-h, k-h+p))

    real and vanishing whenever a binomial argument is out of range. The
    beam-splitter expansion amplitude of the transmitted occupation
    ``ys`` within the x-th singlet-power term is ``a_coefficient(x, ys)``
    (up to the overall 1/(sqrt(n+1) n!)); it carries the phase
    (-1)^x * (-i)^(2n - sum(ys)). A route to the full reduced state that is
    independent of the beam-splitter expansion.
    """

    def __init__(self, n: int, eta: float):
        if n < 0:
            raise ValueError(f"pair number must be non-negative, got {n}")
        if not 0.0 < eta < 1.0:
            raise ValueError(f"transmittivity must lie strictly in (0, 1), got {eta}")
        self.n, self.eta = n, eta

    @property
    def zeta(self) -> float:
        return self.eta / (1.0 - self.eta)

    def s(self, h: int, k: int, p: int) -> float:
        return self.zeta**p * math.sqrt(_binom(k, p) * _binom(h, k - p))

    def s_tilde(self, h: int, k: int, p: int) -> float:
        return self.zeta**p * math.sqrt(
            _binom(self.n - k, p) * _binom(self.n - h, k - h + p)
        )

    def a_coefficient(self, x: int, ys: tuple[int, int, int, int]) -> complex:
        """Expansion amplitude of transmitted occupation ``ys`` in term x.

        ys = (y_1H, y_1V, y_2H, y_2V) are the transmitted photon counts out
        of the term's input occupations (n-x, x, x, n-x); the complementary
        photons go to the reflected slots. Each transmitted photon carries
        sqrt(eta), each reflected one -i*sqrt(1-eta).
        """
        n = self.n
        y1, y2, y3, y4 = ys
        caps = (n - x, x, x, n - x)
        combinatorial = _binom(n, x)
        for cap, y in zip(caps, ys):
            combinatorial *= _binom(cap, y)
        if combinatorial == 0:
            return 0.0 + 0.0j
        total_t = y1 + y2 + y3 + y4
        phase = (-1.0) ** x * (-1j * math.sqrt(1.0 - self.eta)) ** (2 * n - total_t)
        root = math.sqrt(
            math.prod(
                math.factorial(y) * math.factorial(cap - y)
                for cap, y in zip(caps, ys)
            )
        )
        return combinatorial * math.sqrt(self.eta) ** total_t * phase * root

    def reduced_state(self) -> tuple[tuple, np.ndarray]:
        """Assemble the full reduced matrix from the coefficient tables, as an
        ``(occupations, matrix)`` pair."""
        n = self.n
        entries: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        for k in range(n + 1):
            for h in range(n + 1):
                sign = (-1.0) ** (k + h) * (1.0 - self.eta) ** (2 * n) / (n + 1)
                for l1 in range(n - k + 1):
                    st1 = self.s_tilde(h, k, l1)
                    if st1 == 0.0:
                        continue
                    for l4 in range(n - k + 1):
                        st4 = self.s_tilde(h, k, l4)
                        if st4 == 0.0:
                            continue
                        for l2 in range(k + 1):
                            s2 = self.s(h, k, l2)
                            if s2 == 0.0:
                                continue
                            for l3 in range(k + 1):
                                s3 = self.s(h, k, l3)
                                if s3 == 0.0:
                                    continue
                                ket = (l1, l2, l3, l4)
                                bra = (k - h + l1, h - k + l2, h - k + l3, k - h + l4)
                                if any(v < 0 for v in bra):
                                    continue
                                val = sign * s2 * s3 * st1 * st4
                                key = (ket, bra)
                                entries[key] = entries.get(key, 0.0) + val
        occs = sorted({occ for pair in entries for occ in pair})
        index = {o: i for i, o in enumerate(occs)}
        m = np.zeros((len(occs), len(occs)), dtype=complex)
        for (ket, bra), val in entries.items():
            m[index[ket], index[bra]] += val
        return tuple(occs), m


class TestApplyBeamsplitters:
    def test_single_photon_split(self):
        s = apply_beamsplitters({(1, 0, 0, 0): 1.0}, eta=0.5)
        amp = math.sqrt(0.5)
        assert s[(1, 0, 0, 0, 0, 0, 0, 0)] == pytest.approx(amp)
        assert s[(0, 0, 0, 0, 1, 0, 0, 0)] == pytest.approx(1j * amp)
        assert len(s) == 2

    def test_vacuum_unchanged(self):
        s = apply_beamsplitters(n_pair_singlet(0), eta=0.3)
        assert s == {(0,) * 8: 1.0 + 0.0j}

    def test_both_transmitted_probability(self):
        s = apply_beamsplitters(n_pair_singlet(1), eta=0.3)
        p_both = sum(
            abs(a) ** 2 for occ, a in s.items() if sum(occ[:4]) == 2
        )
        assert p_both == pytest.approx(0.3**2, abs=1e-14)

    @pytest.mark.parametrize("n", range(4))
    def test_norm_and_photon_number_preserved(self, n):
        s = apply_beamsplitters(n_pair_singlet(n), eta=0.42)
        assert sum(abs(a) ** 2 for a in s.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(len(occ) == 8 and sum(occ) == 2 * n for occ in s)

    @pytest.mark.parametrize("eta", [0.0, 1.0, -0.1, 1.1])
    def test_eta_out_of_range_rejected(self, eta):
        with pytest.raises(ValueError):
            apply_beamsplitters(n_pair_singlet(1), eta=eta)

    def test_length_mismatch_rejected(self):
        for occ in [(1, 0, 0), (1, 0, 0, 0, 0)]:
            with pytest.raises(ValueError, match="four non-negative photon counts"):
                apply_beamsplitters({(0, 0, 0, 0): 0.5, occ: 0.5}, eta=0.5)

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError, match="four non-negative photon counts"):
            apply_beamsplitters({(1, 0, 0, -1): 1.0}, eta=0.5)


class TestTransmittedReducedState:
    def test_vacuum_term(self):
        occupations, m = eight_slot_reduced_state(0, 0.5)
        assert occupations == ((0, 0, 0, 0),)
        np.testing.assert_allclose(m, [[1.0]])
        block = post_select_two_photon(transmitted_reduced_state(0, 0.5))
        assert not block.entries.any()

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_trace_one(self, n):
        _, m = eight_slot_reduced_state(n, 0.2)
        assert m.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_lossless_limit_is_singlet(self):
        block = post_select_two_photon(transmitted_reduced_state(1, 1.0 - 1e-9))
        assert block.trace == pytest.approx(1.0, abs=1e-8)
        singlet = werner_state(1.0)
        np.testing.assert_allclose(
            block.entries / block.trace, singlet.entries, atol=1e-9
        )

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            transmitted_reduced_state(BRUTE_FORCE_MAX_PAIRS + 1, 0.1)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("eta", [1e-9, 1e-4, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-9])
    def test_block_equals_eight_slot_route_bitwise(self, n, eta):
        reduced = transmitted_reduced_state(n, eta)
        assert set(reduced[0]) <= set(COINCIDENCE_OCCUPATIONS)
        reference = post_select_two_photon(eight_slot_reduced_state(n, eta))
        assert np.array_equal(post_select_two_photon(reduced).entries, reference.entries)

    # (1-eta)^(2n) stays a normal float at every (n, eta) here, so the
    # comparison is relative to a trace that has not underflowed.
    @pytest.mark.parametrize("n", [5, 20, 50, 200, 1000, BRUTE_FORCE_MAX_PAIRS])
    @pytest.mark.parametrize("eta", [1e-6, 0.01, 0.1])
    def test_large_n_matches_closed_form(self, n, eta):
        closed = two_photon_block_closed(n, eta)
        assert closed.trace >= sys.float_info.min
        brute = post_select_two_photon(transmitted_reduced_state(n, eta))
        deviation = float(np.max(np.abs(brute.entries - closed.entries)))
        assert deviation <= 1e-12 * closed.trace


class TestPostSelection:
    def test_vacuum_gives_zero_block(self):
        block = post_select_two_photon(transmitted_reduced_state(0, 0.5))
        assert block.basis == TWO_PHOTON_BASIS
        np.testing.assert_allclose(block.entries, np.zeros((4, 4)))

    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.7])
    def test_single_pair_selection_probability(self, eta):
        block = post_select_two_photon(transmitted_reduced_state(1, eta))
        assert block.trace == pytest.approx(eta**2, abs=1e-13)

    def test_two_pair_block_values(self):
        # prefactor (1/6)*2*0.9^4/81 = 0.0027 exactly
        block = post_select_two_photon(transmitted_reduced_state(2, 0.1))
        expected = np.array(
            [
                [0.0027, 0.0, 0.0, 0.0],
                [0.0, 0.0135, -0.0108, 0.0],
                [0.0, -0.0108, 0.0135, 0.0],
                [0.0, 0.0, 0.0, 0.0027],
            ]
        )
        np.testing.assert_allclose(block.entries, expected, atol=1e-15)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.01, 0.1, 0.3, 0.5])
    def test_brute_force_matches_closed_form(self, n, eta):
        brute = post_select_two_photon(transmitted_reduced_state(n, eta))
        closed = two_photon_block_closed(n, eta)
        np.testing.assert_allclose(brute.entries, closed.entries, atol=1e-10)

    def test_equality_holds_outside_high_loss(self):
        # the selected block is exact, not an approximation in eta
        brute = post_select_two_photon(transmitted_reduced_state(2, 0.9999))
        closed = two_photon_block_closed(2, 0.9999)
        np.testing.assert_allclose(brute.entries, closed.entries, atol=1e-10)


class TestClosedBlock:
    def test_zero_pairs_gives_zero(self):
        np.testing.assert_allclose(
            two_photon_block_closed(0, 0.3).entries, np.zeros((4, 4))
        )

    def test_negative_pair_number_rejected(self):
        with pytest.raises(ValueError, match="pair number must be non-negative, got -1"):
            two_photon_block_closed(-1, 0.5)

    def test_single_pair_is_pure_singlet(self):
        block = two_photon_block_closed(1, 0.37)
        assert block.entries[0, 0] == 0.0 and block.entries[3, 3] == 0.0
        np.testing.assert_allclose(
            block.entries / block.trace, werner_state(1.0).entries, atol=1e-14
        )

    @pytest.mark.parametrize("n,p", [(2, 2.0 / 3.0), (3, 5.0 / 9.0), (4, 0.5)])
    def test_normalized_block_is_werner(self, n, p):
        closed = two_photon_block_closed(n, 0.2)
        block = DensityMatrix(closed.entries / closed.trace)
        np.testing.assert_allclose(block.entries, werner_state(p).entries, atol=1e-14)
        assert singlet_weight_extract(block) == pytest.approx(p, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    @pytest.mark.parametrize("eta", [0.01, 0.3, 0.8])
    def test_trace_formula(self, n, eta):
        zeta = eta / (1.0 - eta)
        expected = n**2 * (1.0 - eta) ** (2 * n) * zeta**2
        assert two_photon_block_closed(n, eta).trace == pytest.approx(
            expected, abs=1e-12
        )


class TestCoefficientTables:
    def test_out_of_range_binomials_vanish(self):
        c = LossCoefficients(n=2, eta=0.4)
        assert c.s(1, 1, 2) == 0.0
        assert c.s_tilde(2, 2, 1) == 0.0
        assert c.s_tilde(0, 1, 0) != 0.0

    def test_s_values(self):
        c = LossCoefficients(n=3, eta=0.25)
        zeta = 0.25 / 0.75
        assert c.s(2, 2, 1) == pytest.approx(zeta * math.sqrt(2 * 2))
        assert c.s_tilde(1, 1, 1) == pytest.approx(zeta * math.sqrt(2 * 2))

    def test_a_coefficient_phase_and_magnitude(self):
        c = LossCoefficients(n=2, eta=0.3)
        value = c.a_coefficient(1, (1, 0, 1, 0))
        # one photon reflected per H/V slot pair: phase (-1)^1 * (-i)^2 = +1
        magnitude = (
            math.comb(2, 1) * 0.3 * (math.sqrt(0.7)) ** 2
        )
        assert value == pytest.approx(magnitude)

    def test_a_coefficient_matches_beamsplitter_expansion(self):
        # the expansion uses +i for reflection, the coefficient table -i;
        # the two conventions are complex conjugates term by term
        for n in (1, 2, 3):
            c = LossCoefficients(n=n, eta=0.3)
            scale = 1.0 / (math.sqrt(n + 1) * math.factorial(n))
            split = apply_beamsplitters(n_pair_singlet(n), eta=0.3)
            for occ, amp in split.items():
                ys, rs = occ[:4], occ[4:]
                x = ys[1] + rs[1]
                predicted = np.conj(c.a_coefficient(x, ys)) * scale
                assert amp == pytest.approx(predicted, abs=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("eta", [0.1, 0.5])
    def test_reduced_state_matches_brute_force(self, n, eta):
        table_occupations, via_tables = LossCoefficients(n=n, eta=eta).reduced_state()
        brute_occupations, brute = eight_slot_reduced_state(n, eta)
        assert table_occupations == brute_occupations
        np.testing.assert_allclose(via_tables, brute, atol=1e-12)


class TestGainSummedState:
    def test_matches_closed_form_weight(self):
        params = GainChannelParams(g=0.1, eta=0.01)
        rho = two_photon_state(params)
        p = singlet_weight_extract(rho)
        assert p == pytest.approx(singlet_weight(params), abs=1e-9)

    @pytest.mark.parametrize("g", [0.1, 0.3, 0.5, 1.0, 1.5])
    @pytest.mark.parametrize("eta", [0.001, 0.01, 0.05])
    def test_werner_identity_grid(self, g, eta):
        params = GainChannelParams(g=g, eta=eta)
        rho = two_photon_state(params)
        reference = werner_state(singlet_weight(params))
        np.testing.assert_allclose(rho.entries, reference.entries, atol=1e-8)

    def test_werner_structure(self):
        rho = two_photon_state(GainChannelParams(g=0.8, eta=0.02))
        m = rho.entries
        mask = np.ones((4, 4), dtype=bool)
        mask[np.diag_indices(4)] = False
        mask[1, 2] = mask[2, 1] = False
        assert np.max(np.abs(m[mask])) < 1e-12
        assert abs(m[0, 0] - m[3, 3]) < 1e-12
        assert abs(m[1, 1] - m[2, 2]) < 1e-12

    def test_saturating_gain_approaches_one_third(self):
        p = singlet_weight_extract(
            two_photon_state(GainChannelParams(g=20.0, eta=1e-4))
        )
        assert p > 1.0 / 3.0
        assert p - 1.0 / 3.0 < 1e-3

    def test_vanishing_gain_approaches_pure_singlet(self):
        p = singlet_weight_extract(
            two_photon_state(GainChannelParams(g=1e-4, eta=0.01))
        )
        assert p == pytest.approx(1.0, abs=1e-6)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            two_photon_state(GainChannelParams(g=0.0, eta=0.01))


# The edge grid: g from far below to far above saturation, eta from
# near-total loss to near-lossless.
EDGE_G = (1e-8, 1e-3, 0.5, 2.0, 8.0, 15.0, 30.0)
EDGE_ETA = (1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-12)


class TestClosedFormRoute:
    @pytest.mark.parametrize("g", EDGE_G)
    @pytest.mark.parametrize("eta", EDGE_ETA)
    def test_edge_grid_gives_valid_werner_state(self, g, eta):
        rho = two_photon_state(GainChannelParams(g=g, eta=eta))
        p = singlet_weight_extract(rho)
        assert 1.0 / 3.0 <= p <= 1.0
        np.testing.assert_allclose(rho.entries, werner_state(p).entries, atol=1e-15)

    @given(
        g=st.one_of(
            st.floats(min_value=1e-300, max_value=1e-3),
            st.floats(min_value=5.0, max_value=1e6),
        ),
        eta=st.one_of(
            st.floats(min_value=1e-300, max_value=1e-3),
            st.floats(min_value=0.999, max_value=1.0, exclude_max=True),
        ),
    )
    def test_domain_edges_match_werner_of_singlet_weight(self, g, eta):
        params = GainChannelParams(g=g, eta=eta)
        p = singlet_weight(params)
        assert 1.0 / 3.0 <= p <= 1.0
        np.testing.assert_array_equal(
            two_photon_state(params).entries, werner_state(p).entries
        )

    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_closed_channel_rejected(self, eta):
        with pytest.raises(ValueError):
            two_photon_state(GainChannelParams(g=0.5, eta=eta))


def assert_series_is_werner(params, atol):
    """The series at params converges, and its corner, middle and off
    entries are those of the Werner state of ``singlet_weight`` within atol."""
    series = pair_number_series(params)
    reference = werner_state(singlet_weight(params)).entries.real
    for entry, (i, j) in (("corner", (0, 0)), ("middle", (1, 1)), ("off", (1, 2))):
        assert abs(getattr(series, entry) - reference[i, j]) <= atol


class TestPairNumberSeries:
    @pytest.mark.parametrize("g", [0.1, 0.3, 0.5, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("eta", [0.001, 0.01, 0.05, 0.5])
    def test_sums_to_werner_identity(self, g, eta):
        assert_series_is_werner(GainChannelParams(g=g, eta=eta), atol=1e-12)

    # Truncations reached by the rule (start at 50, double, stop at a 1e-12
    # relative tail bound) before it moved into the series check.
    @pytest.mark.parametrize(
        "g,eta,n_terms",
        [
            (1e-8, 0.5, 50),
            (0.1, 0.01, 50),
            (1.0, 0.001, 100),
            (1.313, 0.016, 200),
            (3.0, 0.01, 1600),
            (8.0, 0.01, 3200),
            (20.0, 1e-4, 204800),
        ],
    )
    def test_truncation_rule_unchanged(self, g, eta, n_terms):
        assert pair_number_series(GainChannelParams(g=g, eta=eta)).n_terms == n_terms

    @pytest.mark.parametrize("g", [200.0, 800.0])
    def test_gain_past_cosh_overflow(self, g):
        assert_series_is_werner(GainChannelParams(g=g, eta=0.5), atol=1e-12)

    def test_slowly_converging_point_matches_werner(self):
        # at 1 - x = 1e-5 the tail bound falls below 1e-12 of the trace only
        # after 17 doublings, summed in blocks of bounded size
        params = GainChannelParams(g=math.atanh(math.sqrt(1.0 - 1e-5)), eta=1e-300)
        assert pair_number_series(params).n_terms == 6_553_600
        assert_series_is_werner(params, atol=1e-12)

    # (1 - eta) tanh(g) rounds to 1 at each point: x = 1, where no truncation
    # converges. The series' own rejection: GainChannelParams holds the points.
    @pytest.mark.parametrize("g,eta", [(20.0, 1e-17), (20.0, 5e-17), (30.0, 1e-300)])
    def test_divergent_point_rejected(self, g, eta):
        params = GainChannelParams(g=g, eta=eta)
        assert params.gamma_tilde == 1.0
        with pytest.raises(ValueError, match="^the pair-number series diverges at x = 1.0$"):
            pair_number_series(params)

    # x from far below 1 (stops at the first truncation) to 1 - 1e-4
    @pytest.mark.parametrize("one_minus_x", [0.9, 0.1, 0.01, 1e-3, 1e-4])
    def test_stops_at_the_first_doubling_within_the_tail_bound(self, one_minus_x):
        params = GainChannelParams(g=math.atanh(math.sqrt(1.0 - one_minus_x)), eta=1e-300)
        x = params.gamma_tilde**2
        series = pair_number_series(params)
        n_terms = series.n_terms
        doublings = math.log2(n_terms / series_reference.SERIES_MIN_TERMS)
        assert doublings == int(doublings)

        def power_sums(n_last):
            # plain numpy: corner = sum n(n+1)(n-1) x^(n-1), -off = sum n(n+1)(n+2) x^(n-1)
            n = np.arange(1.0, n_last + 1.0)
            weights = n * (n + 1.0) * x ** (n - 1.0)
            return np.sum(weights * (n - 1.0)), np.sum(weights * (n + 2.0))

        corner_sum, minus_off = power_sums(n_terms)
        trace = 2.0 * (2.0 * corner_sum + minus_off)
        assert series.corner == pytest.approx(corner_sum / trace, rel=1e-13)
        assert series.middle == pytest.approx((corner_sum + minus_off) / trace, rel=1e-13)
        assert series.off == pytest.approx(-minus_off / trace, rel=1e-13)
        # the tails left out, from the closed-form sums 6x/(1-x)^4 and 6/(1-x)^4
        # (1 - x is exact for x >= 1/2), are within the tolerance of the trace
        for whole, partial in ((6.0 * x, corner_sum), (6.0, minus_off)):
            tail = whole / (1.0 - x) ** 4 - partial
            assert tail <= series_reference.SERIES_TAIL_TOL * trace
        # and the truncation before it did not pass the rule
        if n_terms > series_reference.SERIES_MIN_TERMS:
            corner_sum, minus_off = power_sums(n_terms // 2)
            assert (series_reference._tail_bound(x, n_terms // 2)
                    > series_reference.SERIES_TAIL_TOL * (2.0 * corner_sum + minus_off))

    def test_bounded_chunks_give_the_same_sums(self, monkeypatch):
        points = [GainChannelParams(g=g, eta=eta) for g, eta in
                  [(0.3, 0.01), (2.0, 0.1), (3.0, 0.01), (6.0, 0.001)]]
        whole = [pair_number_series(params) for params in points]
        # every doubling's new terms split along n into many blocks
        monkeypatch.setattr(series_reference, "_BLOCK", 64)
        for params, reference in zip(points, whole):
            chunked = pair_number_series(params)
            assert chunked.n_terms == reference.n_terms
            for entry in ("corner", "middle", "off", "p"):
                assert getattr(chunked, entry) == pytest.approx(
                    getattr(reference, entry), rel=0, abs=1e-14)

    @given(
        g=st.floats(min_value=0.01, max_value=3.0),
        eta=st.floats(min_value=5e-324, max_value=1e-150),
    )
    @example(g=0.5, eta=1e-156)
    @example(g=0.5, eta=1e-162)
    @example(g=0.5, eta=5e-324)
    def test_extreme_loss_matches_singlet_weight(self, g, eta):
        # the series sees eta only through x = ((1-eta) tanh g)^2, which
        # stays far from underflow at any eta
        params = GainChannelParams(g=g, eta=eta)
        assert abs(pair_number_series(params).p - singlet_weight(params)) <= 5e-12

    @pytest.mark.parametrize("g", [1e-170, 1e-300])
    def test_gain_where_x_underflows_to_zero(self, g):
        # x = ((1-eta) tanh g)^2 is 0.0; the single-pair term remains
        series = pair_number_series(GainChannelParams(g=g, eta=0.5))
        assert series.n_terms == series_reference.SERIES_MIN_TERMS
        assert series.p == 1.0

    def test_truncation_and_tolerance_are_fixed(self):
        params = GainChannelParams(g=0.3, eta=0.1)
        for knob in ({"n_max": 60}, {"tail_tol": 1e-6}):
            with pytest.raises(TypeError):
                pair_number_series(params, **knob)
        assert not hasattr(pair_number_series(params), "tail_tol")


# The smallest transmittivity the domain holds: 1 - 5e-324 rounds to 1, so
# every eta-dependent expression takes its eta -> 0 value there.
ETA_MIN = 5e-324


class TestSingletWeight:
    def test_zero_gain_is_pure(self):
        # the g -> 0 limit at the smallest gain the domain holds, where
        # tanh(g)^2 underflows to 0
        assert singlet_weight(GainChannelParams(g=5e-324, eta=ETA_MIN)) == 1.0

    def test_entanglement_edge_value(self):
        # 1 / (1 + 2 tanh^2(1.084)), the eta -> 0 limit, bit for bit
        p = singlet_weight(GainChannelParams(g=1.084, eta=ETA_MIN))
        assert p == 1.0 / (2.0 * math.tanh(1.084) ** 2 + 1.0)
        assert p == pytest.approx(0.4418863318175008, abs=1e-12)

    def test_always_above_one_third(self):
        for g in (0.5, 2.0, 10.0, 15.0):
            p = singlet_weight(GainChannelParams(g=g, eta=ETA_MIN))
            assert 1.0 / 3.0 < p <= 1.0
        # beyond g ~ 19 double precision saturates tanh at 1, where the
        # analytic open bound collapses onto 1/3 exactly
        assert singlet_weight(GainChannelParams(g=30.0, eta=ETA_MIN)) >= 1.0 / 3.0

    def test_monotone_in_gain_and_loss(self):
        weights_g = [
            singlet_weight(GainChannelParams(g=g, eta=0.01))
            for g in (0.1, 0.4, 0.9, 1.6, 3.0)
        ]
        assert all(a > b for a, b in zip(weights_g, weights_g[1:]))
        weights_eta = [
            singlet_weight(GainChannelParams(g=1.0, eta=eta))
            for eta in (ETA_MIN, 0.2, 0.5, 0.9)
        ]
        assert all(a < b for a, b in zip(weights_eta, weights_eta[1:]))
