import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdc_werner.channel import apply_beamsplitters
from spdc_werner.errors import PhysicalityError
from spdc_werner.fock import DensityMatrix, outer_product, partial_trace
from spdc_werner.source import n_pair_singlet


def random_density(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(tuple(str(i) for i in range(dim)), m)


def double_loop_partial_trace(rho, keep):
    """Reference: add rho[i, j] into the kept block of every (i, j), in row-major
    order, whose traced-out occupations coincide."""
    occs = rho.basis
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
    return tuple(out_occs), out


def random_pure_state(occupations, rng):
    """Complex Gaussian amplitudes on the given occupation tuples."""
    amps = rng.standard_normal(len(occupations)) + 1j * rng.standard_normal(len(occupations))
    return dict(zip(occupations, amps))


def every_occupation(n_slots, max_occ):
    """Every occupation tuple with entries 0..max_occ, lexicographically sorted."""
    return list(itertools.product(range(max_occ + 1), repeat=n_slots))


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
        dm = outer_product({(0, 0, 0, 0): 1.0})
        assert dm.dim == 1
        np.testing.assert_allclose(dm.entries, [[1.0]])

    def test_singlet_support_block(self):
        amp = 1.0 / math.sqrt(2.0)
        dm = outer_product({(1, 0, 0, 1): amp, (0, 1, 1, 0): -amp})
        # lexicographic basis: (0,1,1,0) before (1,0,0,1)
        assert dm.basis == ((0, 1, 1, 0), (1, 0, 0, 1))
        np.testing.assert_allclose(dm.entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_two_pair_singlet_block(self):
        # (-1)^m / sqrt(3) amplitudes give an alternating-sign 1/3 block
        amp = 1.0 / math.sqrt(3.0)
        dm = outer_product({(2, 0, 0, 2): amp, (1, 1, 1, 1): -amp, (0, 2, 2, 0): amp})
        expected = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]]) / 3.0
        np.testing.assert_allclose(dm.entries, expected, atol=1e-15)

    def test_trace_is_norm_squared(self):
        s = {(1, 0, 0, 1): 2.0, (0, 1, 1, 0): 1.0}
        assert outer_product(s).trace == pytest.approx(5.0)

    def test_rank_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            occs = [(int(a), int(b)) for a, b in rng.integers(0, 3, size=(4, 2))]
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            s = dict(zip(occs, amps))
            scale = 1.0 / math.sqrt(sum(abs(a) ** 2 for a in s.values()))
            s = {o: a * scale for o, a in s.items()}
            vals = np.linalg.eigvalsh(outer_product(s).entries)
            assert np.all(vals[:-1] <= 1e-10)


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        amps = {(i, j): a[i] * b[j] for i in range(2) for j in range(3)}
        reduced = partial_trace(amps, keep=[0])
        np.testing.assert_allclose(reduced.entries, np.outer(a, a.conj()), atol=1e-12)

    def test_entangled_pair_reduces_to_mixed(self):
        amp = 1.0 / math.sqrt(2.0)
        s = {(0, 0): amp, (1, 1): amp}
        reduced = partial_trace(s, keep=[0])
        np.testing.assert_allclose(reduced.entries, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_preserved(self):
        state = random_pure_state(every_occupation(3, 1), np.random.default_rng(11))
        reduced = partial_trace(state, keep=[0, 2])
        norm_squared = sum(abs(a) ** 2 for a in state.values())
        assert reduced.trace == pytest.approx(norm_squared, abs=1e-12)

    def test_keep_out_of_range_rejected(self):
        s = {(0, 0): 1.0, (1, 1): 1.0}
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(s, keep=[5])
        with pytest.raises(ValueError, match="out of range"):
            partial_trace(s, keep=[-1])

    def test_duplicate_keep_rejected(self):
        s = {(0, 0): 1.0, (1, 1): 1.0}
        with pytest.raises(ValueError, match="duplicate"):
            partial_trace(s, keep=[1, 1])

    def test_empty_state_rejected(self):
        with pytest.raises(ValueError, match="empty state"):
            partial_trace({}, keep=[0])


class TestPartialTraceSummationOrder:
    """partial_trace adds each output element's terms in the order of the
    double loop over the rows and columns of the state's projector, so the
    results are bitwise equal."""

    @staticmethod
    def assert_bitwise_equal(state, keep):
        reduced = partial_trace(state, keep)
        labels, entries = double_loop_partial_trace(outer_product(state), keep)
        assert reduced.basis == labels
        assert np.array_equal(reduced.entries, entries)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("eta", [1e-9, 0.016, 0.3, 0.5, 0.9, 1 - 1e-9])
    def test_oracle_projector(self, n, eta):
        self.assert_bitwise_equal(apply_beamsplitters(n_pair_singlet(n), eta), range(4))

    @pytest.mark.parametrize("keep", [(4, 5, 6, 7), (0, 2, 5), (7, 1), (3,), ()])
    def test_oracle_projector_keeping_other_slots(self, keep):
        self.assert_bitwise_equal(apply_beamsplitters(n_pair_singlet(3), 0.37), keep)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pure_state(self, seed):
        rng = np.random.default_rng(seed)
        occs = list({tuple(o) for o in rng.integers(0, 3, size=(40, 4))})
        keep = rng.permutation(4)[: rng.integers(0, 5)]
        self.assert_bitwise_equal(random_pure_state(occs, rng), keep)

    @pytest.mark.parametrize("keep", [(0,), (1,), (2,), (0, 2), (2, 0), (1, 2)])
    def test_random_mixed_state(self, keep):
        # a random mixed state, given by a purification that fills every
        # occupation of three slots
        rng = np.random.default_rng(sum(keep) + 10 * len(keep))
        state = random_pure_state(every_occupation(3, 2), rng)
        self.assert_bitwise_equal(state, keep)
        rho = partial_trace(state, keep).entries
        assert np.trace(rho @ rho).real < 0.99 * rho.trace().real ** 2

    @given(seed=st.integers(0, 2**32 - 1),
           order=st.permutations(range(27)),
           keep=st.lists(st.integers(0, 2), unique=True))
    def test_amplitude_order_changes_no_bit(self, seed, order, keep):
        state = random_pure_state(every_occupation(3, 2), np.random.default_rng(seed))
        items = list(state.items())
        shuffled = dict(items[i] for i in order)
        reduced, expected = partial_trace(shuffled, keep), partial_trace(state, keep)
        assert reduced.basis == expected.basis
        assert np.array_equal(reduced.entries, expected.entries)
        self.assert_bitwise_equal(shuffled, keep)


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
