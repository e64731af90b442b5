import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdc_werner.channel import apply_beamsplitters
from spdc_werner.errors import PhysicalityError
from spdc_werner.fock import (
    DensityMatrix,
    PureState,
    TRANSMITTED_MODES,
    occupation_label,
    outer_product,
    parse_occupation,
    partial_trace,
)
from spdc_werner.source import n_pair_singlet


def random_density(dim, rng, labels=None):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= m.trace().real
    if labels is None:
        labels = tuple(occupation_label((i,)) for i in range(dim))
    return DensityMatrix(labels, m)


def double_loop_partial_trace(rho, keep):
    """Reference: add rho[i, j] into the kept block of every (i, j), in row-major
    order, whose traced-out occupations coincide."""
    occs = [parse_occupation(label) for label in rho.basis]
    keep = tuple(keep)
    traced = [s for s in range(len(occs[0])) if s not in keep]
    kept_part = [tuple(o[k] for k in keep) for o in occs]
    traced_part = [tuple(o[t] for t in traced) for o in occs]
    out_occs = sorted(set(kept_part))
    index = {o: i for i, o in enumerate(out_occs)}
    out = np.zeros((len(out_occs), len(out_occs)), dtype=complex)
    for i in range(rho.dim):
        for j in range(rho.dim):
            if traced_part[i] == traced_part[j]:
                out[index[kept_part[i]], index[kept_part[j]]] += rho.entries[i, j]
    return tuple(occupation_label(o) for o in out_occs), out


def occupation_basis(n_slots, max_occ):
    """Every occupation tuple with entries 0..max_occ, lexicographically sorted."""
    occs = itertools.product(range(max_occ + 1), repeat=n_slots)
    return tuple(occupation_label(o) for o in occs)


class TestLabels:
    def test_round_trip(self):
        occ = (1, 0, 2, 3)
        assert parse_occupation(occupation_label(occ)) == occ

    def test_non_numeric_label_rejected(self):
        with pytest.raises(ValueError):
            parse_occupation("HV")

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError):
            parse_occupation("1,-1")


class TestPureState:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PureState(TRANSMITTED_MODES, {(1, 0, 0): 1.0})

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError):
            PureState(TRANSMITTED_MODES, {(1, 0, 0, -1): 1.0})

    def test_normalized(self):
        s = PureState(TRANSMITTED_MODES, {(1, 0, 0, 1): 2.0, (0, 1, 1, 0): -2.0})
        assert abs(s.normalized().norm_squared - 1.0) < 1e-12

    def test_zero_state_cannot_normalize(self):
        with pytest.raises(ValueError):
            PureState(TRANSMITTED_MODES, {}).normalized()


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(PhysicalityError):
            DensityMatrix(("a", "b"), [[0.5, 0.1], [0.3, 0.5]])

    def test_indefinite_rejected(self):
        with pytest.raises(PhysicalityError):
            DensityMatrix(("a", "b"), [[0.5, 1.0], [1.0, 0.5]])

    def test_indefinite_allowed_when_unchecked(self):
        dm = DensityMatrix(("a", "b"), [[0.5, 1.0], [1.0, 0.5]], check_positive=False)
        assert dm.trace == pytest.approx(1.0)

    def test_label_count_must_match_dim(self):
        with pytest.raises(ValueError):
            DensityMatrix(("a",), np.eye(2))

    def test_entries_are_read_only(self):
        dm = DensityMatrix(("a", "b"), np.eye(2) / 2)
        with pytest.raises(ValueError):
            dm.entries[0, 0] = 5.0

    def test_json_round_trip(self):
        rng = np.random.default_rng(5)
        dm = random_density(3, rng)
        again = DensityMatrix.from_dict(dm.to_dict())
        assert again.basis == dm.basis
        np.testing.assert_allclose(again.entries, dm.entries, atol=1e-15)


class TestOuterProduct:
    def test_vacuum_is_identity_case(self):
        s = PureState(TRANSMITTED_MODES, {(0, 0, 0, 0): 1.0})
        dm = outer_product(s)
        assert dm.dim == 1
        np.testing.assert_allclose(dm.entries, [[1.0]])

    def test_singlet_support_block(self):
        amp = 1.0 / math.sqrt(2.0)
        s = PureState(TRANSMITTED_MODES, {(1, 0, 0, 1): amp, (0, 1, 1, 0): -amp})
        dm = outer_product(s)
        # lexicographic basis: (0,1,1,0) before (1,0,0,1)
        assert dm.basis == ("0,1,1,0", "1,0,0,1")
        np.testing.assert_allclose(dm.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_two_pair_singlet_block(self):
        # (-1)^m / sqrt(3) amplitudes give an alternating-sign 1/3 block
        amp = 1.0 / math.sqrt(3.0)
        s = PureState(
            TRANSMITTED_MODES,
            {(2, 0, 0, 2): amp, (1, 1, 1, 1): -amp, (0, 2, 2, 0): amp},
        )
        dm = outer_product(s)
        expected = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]]) / 3.0
        np.testing.assert_allclose(dm.entries, expected, atol=1e-15)

    def test_trace_is_norm_squared(self):
        s = PureState(TRANSMITTED_MODES, {(1, 0, 0, 1): 2.0, (0, 1, 1, 0): 1.0})
        assert outer_product(s).trace == pytest.approx(5.0)

    def test_rank_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            occs = [(int(a), int(b)) for a, b in rng.integers(0, 3, size=(4, 2))]
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            s = PureState(("m0", "m1"), dict(zip(occs, amps))).normalized()
            vals = np.linalg.eigvalsh(outer_product(s).entries)
            assert np.all(vals[:-1] <= 1e-10)


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(3)
        a = random_density(2, rng).entries
        b = random_density(3, rng).entries
        occs = [(i, j) for i in range(2) for j in range(3)]
        labels = tuple(occupation_label(o) for o in occs)
        joint = DensityMatrix(labels, np.kron(a, b))
        reduced = partial_trace(joint, keep=[0])
        np.testing.assert_allclose(reduced.entries, a, atol=1e-12)

    def test_entangled_pair_reduces_to_mixed(self):
        amp = 1.0 / math.sqrt(2.0)
        s = PureState(("a", "b"), {(0, 0): amp, (1, 1): amp})
        reduced = partial_trace(outer_product(s), keep=[0])
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_preserved(self):
        rng = np.random.default_rng(11)
        occs = [(i, j, k) for i in range(2) for j in range(2) for k in range(2)]
        labels = tuple(occupation_label(o) for o in occs)
        dm = random_density(8, rng, labels=labels)
        reduced = partial_trace(dm, keep=[0, 2])
        assert reduced.trace == pytest.approx(dm.trace, abs=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(23)
        occs = [(i, j) for i in range(2) for j in range(2)]
        labels = tuple(occupation_label(o) for o in occs)
        for _ in range(10):
            r1 = random_density(4, rng, labels=labels)
            r2 = random_density(4, rng, labels=labels)
            alpha, beta = rng.uniform(0.1, 1.0, size=2)
            combo = DensityMatrix(labels, alpha * r1.entries + beta * r2.entries)
            lhs = partial_trace(combo, keep=[1]).entries
            rhs = (alpha * partial_trace(r1, keep=[1]).entries
                   + beta * partial_trace(r2, keep=[1]).entries)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_keep_out_of_range_rejected(self):
        dm = DensityMatrix(("0,0", "1,1"), np.eye(2) / 2)
        with pytest.raises(ValueError):
            partial_trace(dm, keep=[5])

    def test_polarization_basis_rejected(self):
        dm = DensityMatrix(("HH", "HV"), np.eye(2) / 2)
        with pytest.raises(ValueError):
            partial_trace(dm, keep=[0])


class TestPartialTraceSummationOrder:
    """In a sorted basis, partial_trace adds each output element's terms in the
    same order as the double loop over (i, j), so the results are bitwise equal."""

    @staticmethod
    def assert_bitwise_equal(rho, keep):
        reduced = partial_trace(rho, keep)
        labels, entries = double_loop_partial_trace(rho, keep)
        assert reduced.basis == labels
        assert np.array_equal(reduced.entries, entries)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("eta", [1e-9, 0.016, 0.3, 0.5, 0.9, 1 - 1e-9])
    def test_oracle_projector(self, n, eta):
        rho = outer_product(apply_beamsplitters(n_pair_singlet(n), eta))
        self.assert_bitwise_equal(rho, range(4))

    @pytest.mark.parametrize("keep", [(4, 5, 6, 7), (0, 2, 5), (7, 1), (3,), ()])
    def test_oracle_projector_keeping_other_slots(self, keep):
        rho = outer_product(apply_beamsplitters(n_pair_singlet(3), 0.37))
        self.assert_bitwise_equal(rho, keep)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pure_state(self, seed):
        rng = np.random.default_rng(seed)
        occs = {tuple(o) for o in rng.integers(0, 3, size=(40, 4))}
        amps = rng.standard_normal(len(occs)) + 1j * rng.standard_normal(len(occs))
        state = PureState(("a", "b", "c", "d"), dict(zip(occs, amps)))
        keep = rng.permutation(4)[: rng.integers(0, 5)]
        self.assert_bitwise_equal(outer_product(state), keep)

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (2, 0), (1, 2)])
    def test_random_mixed_state(self, keep):
        rng = np.random.default_rng(sum(keep) + 10 * len(keep))
        self.assert_bitwise_equal(random_density(27, rng, occupation_basis(3, 2)), keep)

    @given(seed=st.integers(0, 2**32 - 1),
           order=st.permutations(range(27)),
           keep=st.lists(st.integers(0, 2), unique=True))
    def test_shuffled_basis_agrees_to_rounding(self, seed, order, keep):
        # out of sorted order the terms are added in another order
        sorted_rho = random_density(27, np.random.default_rng(seed), occupation_basis(3, 2))
        basis = tuple(sorted_rho.basis[i] for i in order)
        rho = DensityMatrix(basis, sorted_rho.entries[np.ix_(order, order)])
        reduced = partial_trace(rho, keep)
        labels, entries = double_loop_partial_trace(rho, keep)
        assert reduced.basis == labels
        np.testing.assert_allclose(reduced.entries, entries, rtol=0, atol=1e-15)


class TestNormalize:
    def test_scales_to_unit_trace(self):
        dm = DensityMatrix(("a", "b", "c", "d"), np.diag([2.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            dm.normalized().entries, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-15
        )

    def test_zero_trace_rejected(self):
        dm = DensityMatrix(("a", "b"), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            dm.normalized()
