import numpy as np
import pytest

from spdc_werner import metrics
from spdc_werner.errors import PhysicalityError
from spdc_werner.fock import DensityMatrix
from spdc_werner.metrics import (
    WernerDescriptor,
    concurrence_tangle,
    fidelity,
    is_entangled_ppt,
    linear_entropy,
    metrics_report,
    singlet_ket,
    singlet_weight_extract,
    tangle_from_entropy_werner,
    werner_state,
    witness_expectation,
    witness_operator,
)

from helpers import random_density

WERNER_GRID = [0.0, 0.2, 1.0 / 3.0, 0.4, 0.6, 0.8, 1.0]


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_product_density(rng):
    parts = []
    for _ in range(2):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        m = g @ g.conj().T
        parts.append(m / m.trace().real)
    return DensityMatrix(np.kron(parts[0], parts[1]))


class TestWernerState:
    def test_singlet_limit(self):
        psi = singlet_ket()
        np.testing.assert_allclose(
            werner_state(1.0).entries, np.outer(psi, psi.conj()), atol=1e-15
        )

    def test_fully_mixed_limit(self):
        np.testing.assert_allclose(werner_state(0.0).entries, np.eye(4) / 4)

    def test_weight_outside_physical_range_rejected(self):
        with pytest.raises(ValueError):
            werner_state(1.2)
        with pytest.raises(ValueError):
            werner_state(-0.5)


class TestSingletWeightExtract:
    def test_singlet(self):
        assert singlet_weight_extract(werner_state(1.0)) == pytest.approx(1.0)

    def test_fully_mixed(self):
        assert singlet_weight_extract(werner_state(0.0)) == pytest.approx(0.0)

    def test_intermediate_weight(self):
        assert singlet_weight_extract(werner_state(0.6)) == pytest.approx(0.6)


class TestConcurrenceTangle:
    def test_singlet_is_maximally_entangled(self):
        c, tau = concurrence_tangle(werner_state(1.0))
        assert c == pytest.approx(1.0, abs=1e-10)
        assert tau == pytest.approx(1.0, abs=1e-10)

    def test_separability_threshold(self):
        _, tau = concurrence_tangle(werner_state(1.0 / 3.0))
        assert tau == pytest.approx(0.0, abs=1e-10)

    def test_half_weight_values(self):
        c, tau = concurrence_tangle(werner_state(0.5))
        assert c == pytest.approx(0.25, abs=1e-10)
        assert tau == pytest.approx(0.0625, abs=1e-10)

    def test_werner_family_closed_form(self):
        for p in WERNER_GRID:
            c, _ = concurrence_tangle(werner_state(p))
            assert c == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-10)

    def test_unphysical_input_rejected(self):
        with pytest.raises(PhysicalityError):
            concurrence_tangle(DensityMatrix(np.diag([1.1, 0.2, -0.3, 0.0])))


class TestLinearEntropy:
    def test_pure_state(self):
        assert linear_entropy(werner_state(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_fully_mixed(self):
        assert linear_entropy(werner_state(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_werner_closed_form(self):
        for p in WERNER_GRID:
            assert linear_entropy(werner_state(p)) == pytest.approx(
                1.0 - p * p, abs=1e-12
            )


class TestTangleFromEntropy:
    def test_pure_singlet_point(self):
        assert tangle_from_entropy_werner(0.0) == pytest.approx(1.0)

    def test_separable_region_is_zero(self):
        assert tangle_from_entropy_werner(8.0 / 9.0) == 0.0
        assert tangle_from_entropy_werner(0.95) == 0.0

    def test_mid_value(self):
        assert tangle_from_entropy_werner(0.64) == pytest.approx(0.16, abs=1e-12)

    def test_continuous_at_joint(self):
        below = tangle_from_entropy_werner(8.0 / 9.0 - 1e-9)
        assert below == pytest.approx(0.0, abs=1e-8)

    def test_matches_wootters_on_werner_family(self):
        for p in WERNER_GRID:
            _, tau = concurrence_tangle(werner_state(p))
            s = linear_entropy(werner_state(p))
            assert tau == pytest.approx(tangle_from_entropy_werner(s), abs=1e-10)

    @pytest.mark.parametrize("s", [-0.1, 1.1])
    def test_domain_errors(self, s):
        with pytest.raises(ValueError):
            tangle_from_entropy_werner(s)


class TestWitness:
    def test_matrix_form(self):
        expected = 0.5 * np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_allclose(witness_operator(), expected, atol=1e-14)

    def test_hermitian(self):
        w = witness_operator()
        np.testing.assert_allclose(w, w.conj().T, atol=1e-15)

    def test_singlet_expectation(self):
        assert witness_expectation(werner_state(1.0)) == pytest.approx(-0.5, abs=1e-12)

    def test_fully_mixed_expectation(self):
        assert witness_expectation(werner_state(0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_operator_is_a_fresh_array_each_call(self):
        first = witness_operator()
        assert first is not witness_operator()
        first[0, 0] = 7.0
        assert witness_operator()[0, 0] == 0.5
        assert witness_expectation(werner_state(0.0)) == pytest.approx(0.25, abs=1e-12)

    def test_expectation_uses_the_operator_built_once(self):
        rng = np.random.default_rng(31)
        before = metrics._witness.cache_info()
        for _ in range(20):
            rho = random_density(rng)
            assert witness_expectation(rho) == float(
                np.trace(witness_operator() @ rho.entries).real)
        after = metrics._witness.cache_info()
        assert after.currsize == 1
        assert after.misses <= before.misses + 1

    def test_boundary_weight_is_zero(self):
        assert witness_expectation(werner_state(1.0 / 3.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_entanglement_edge_value(self):
        # weight at the edge gain, 1/(1 + 2 tanh^2(1.084))
        p = 0.4418863318175008
        assert witness_expectation(werner_state(p)) == pytest.approx(
            (1 - 3 * p) / 4, abs=1e-12
        )

    def test_product_state_expectation(self):
        hh = np.zeros((4, 4))
        hh[0, 0] = 1.0
        dm = DensityMatrix(hh)
        assert witness_expectation(dm) == pytest.approx(0.5, abs=1e-12)

    def test_nonnegative_on_separable_states(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            assert witness_expectation(random_product_density(rng)) >= -1e-12


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            dm = random_density(rng)
            assert fidelity(dm, dm) == pytest.approx(1.0, abs=1e-9)

    def test_singlet_against_fully_mixed(self):
        assert fidelity(werner_state(1.0), werner_state(0.0)) == pytest.approx(
            0.25, abs=1e-12
        )

    def test_commuting_states_closed_form(self):
        # Werner pairs share eigenvectors; F = (sum_i sqrt(l_i m_i))^2
        for p, q in [(1.0, 0.9), (0.3, 0.7), (0.0, 0.6)]:
            lam = np.array([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
            mu = np.array([(1 + 3 * q) / 4] + [(1 - q) / 4] * 3)
            expected = float(np.sum(np.sqrt(lam * mu)) ** 2)
            got = fidelity(werner_state(p), werner_state(q))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = random_density(rng)
            b = random_density(rng)
            f_ab = fidelity(a, b)
            f_ba = fidelity(b, a)
            assert f_ab == pytest.approx(f_ba, abs=1e-9)
            assert 0.0 <= f_ab <= 1.0
            assert f_ab < 1.0 - 1e-6  # random pairs are distinct


class TestPPT:
    def test_singlet_entangled(self):
        assert is_entangled_ppt(werner_state(1.0))

    def test_boundary_weight_separable(self):
        assert not is_entangled_ppt(werner_state(1.0 / 3.0))

    def test_just_above_boundary_entangled(self):
        assert is_entangled_ppt(werner_state(0.34))

    def test_product_state_separable(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            assert not is_entangled_ppt(random_product_density(rng))


class TestLocalUnitaryInvariance:
    def test_concurrence_and_entropy_invariant(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            dm = random_density(rng)
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            rotated = DensityMatrix(u @ dm.entries @ u.conj().T)
            c0, _ = concurrence_tangle(dm)
            c1, _ = concurrence_tangle(rotated)
            assert c1 == pytest.approx(c0, abs=1e-10)
            assert linear_entropy(rotated) == pytest.approx(
                linear_entropy(dm), abs=1e-10
            )


class TestWernerDescriptor:
    @pytest.mark.parametrize("p", WERNER_GRID)
    def test_consistent_with_matrix_metrics(self, p):
        desc = WernerDescriptor(p)
        state = werner_state(p)
        _, tau = concurrence_tangle(state)
        assert desc.tangle == pytest.approx(tau, abs=1e-10)
        assert desc.linear_entropy == pytest.approx(linear_entropy(state), abs=1e-12)
        assert desc.witness_value == pytest.approx(
            witness_expectation(state), abs=1e-12
        )
        assert desc.is_entangled == is_entangled_ppt(state)
        assert desc.is_entangled == (desc.witness_value < -1e-15 or p > 1 / 3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            WernerDescriptor(-0.4)


class TestMetricsReport:
    @staticmethod
    def states(rng):
        """Random full-rank, pure and product states, and Werner states on
        both sides of p = 1/3."""
        for _ in range(20):
            yield random_density(rng)
            ket = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            yield DensityMatrix(np.outer(ket, ket.conj()) / (ket.conj() @ ket).real)
            yield random_product_density(rng)
        for p in WERNER_GRID:
            yield werner_state(p)

    def test_values_equal_the_metrics_one_by_one(self):
        rng = np.random.default_rng(41)
        states = list(self.states(rng))
        for rho, reference in zip(states, states[1:] + states[:1]):
            c, tau = concurrence_tangle(rho)
            expected = {
                "p": singlet_weight_extract(rho),
                "concurrence": c,
                "tangle": tau,
                "linear_entropy": linear_entropy(rho),
                "witness": witness_expectation(rho),
                "ppt_entangled": is_entangled_ppt(rho),
            }
            assert metrics_report(rho) == expected
            expected["fidelity_vs_theory"] = fidelity(rho, reference)
            assert metrics_report(rho, reference=reference) == expected

    def test_one_square_root_per_report(self, monkeypatch):
        calls = []
        sqrtm = metrics._sqrtm_psd
        monkeypatch.setattr(metrics, "_sqrtm_psd", lambda m: calls.append(m) or sqrtm(m))
        metrics_report(werner_state(0.6), reference=werner_state(0.5))
        assert len(calls) == 1

    def test_keys_and_reference_fidelity(self):
        report = metrics_report(werner_state(0.6), reference=werner_state(0.6))
        assert report["p"] == pytest.approx(0.6)
        assert report["tangle"] == pytest.approx(0.16, abs=1e-10)
        assert report["linear_entropy"] == pytest.approx(0.64, abs=1e-12)
        assert report["witness"] == pytest.approx(-0.2, abs=1e-12)
        assert report["ppt_entangled"] is True
        assert report["fidelity_vs_theory"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("argument", ["rho", "reference"])
    @pytest.mark.parametrize("scale", [0.0324, 1.0 - 2e-12, 1.0 + 2e-12, 2.0])
    def test_unnormalized_state_rejected(self, argument, scale):
        # a post-selected block is unnormalized: two_photon_block_closed(2, 0.1)
        # has trace 0.0324 and read p = 0.0216 and a linear entropy of 1.33 as
        # rho, and a fidelity of 0.032 as the reference
        states = {"rho": werner_state(0.6), "reference": werner_state(0.6)}
        states[argument] = DensityMatrix(scale * states[argument].entries)
        with pytest.raises(ValueError, match=f"^{argument} must have trace 1 within 1e-12, "):
            metrics_report(**states)

    @pytest.mark.parametrize("scale", [1.0 - 5e-13, 1.0 + 5e-13])
    def test_trace_within_the_tolerance_accepted(self, scale):
        # the tolerance is on |Tr - 1|, on both sides of 1
        rho = DensityMatrix(scale * werner_state(0.6).entries)
        assert metrics_report(rho, reference=rho)["p"] == pytest.approx(0.6)


def random_rank2(rng, trace):
    """Rank-2 matrix from a 4x2 complex Gaussian factor, scaled to ``trace``."""
    f = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    m = f @ f.conj().T
    m = 0.5 * (m + m.conj().T)
    return m * (trace / m.trace().real)


def random_separable_rank2(rng, trace):
    """Sum of two random product pure states, scaled to ``trace``."""
    m = np.zeros((4, 4), dtype=complex)
    for _ in range(2):
        a, b = (rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(2))
        v = np.kron(a, b)
        m += np.outer(v, v.conj())
    m = 0.5 * (m + m.conj().T)
    return m * (trace / m.trace().real)


TRACES = [10.0**k for k in range(9)]


class TestToleranceScalesWithTheNorm:
    """The -1e-10 eigenvalue tolerance is relative to the matrix's norm above
    norm 1: rounding of valid states of large trace neither raises nor reads
    as entanglement. With an absolute tolerance, traces from 1e3 (metrics)
    and 1e6 (construction, PPT) failed."""

    @pytest.mark.parametrize("trace", TRACES)
    def test_valid_states_of_any_trace_pass(self, trace):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s = DensityMatrix(random_rank2(rng, trace))
            concurrence_tangle(s)
            fidelity(s, s)

    @pytest.mark.parametrize("trace", TRACES)
    def test_separable_states_of_any_trace_are_not_flagged(self, trace):
        rng = np.random.default_rng(1)
        for _ in range(300):
            assert not is_entangled_ppt(DensityMatrix(random_separable_rank2(rng, trace)))

    @pytest.mark.parametrize("trace", [1.0, 1e8])
    def test_werner_weight_just_above_a_third_is_flagged_at_any_trace(self, trace):
        # at trace 1e8 the partial transpose's smallest eigenvalue, -0.075,
        # is far below the scaled floor, -3.3e-3
        assert is_entangled_ppt(DensityMatrix(trace * werner_state(1 / 3 + 1e-9).entries))
        assert not is_entangled_ppt(DensityMatrix(trace * werner_state(1 / 3 - 1e-9).entries))

    def test_below_the_scaled_floor_raises_in_the_square_root(self):
        # floor at largest eigenvalue 1e8: -1e-10 * 1e8 = -1e-2
        u = random_unitary(4, np.random.default_rng(3))
        below = u @ np.diag([-1.5e-2, 0.5, 1.0, 1e8]) @ u.conj().T
        with pytest.raises(PhysicalityError, match="negative eigenvalue -1.500e-02"):
            metrics._clipped_eigh(below)
        within = u @ np.diag([-0.5e-2, 0.5, 1.0, 1e8]) @ u.conj().T
        assert metrics._clipped_eigh(within)[0][0] == 0.0
