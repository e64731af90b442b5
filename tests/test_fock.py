import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from spdc_werner.channel import apply_beamsplitters
from spdc_werner.errors import PhysicalityError
from spdc_werner.fock import TWO_PHOTON_BASIS, DensityMatrix, outer_product, partial_trace
from spdc_werner.source import n_pair_singlet


def random_density(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m /= m.trace().real
    return DensityMatrix(m)


def double_loop_partial_trace(projector):
    """Reference: add rho[i, j] of the eight-slot ``(occupations, rho)`` pair
    into the transmitted block of every (i, j), in row-major order, whose
    reflected occupations coincide."""
    occs, rho = projector
    out_occs = sorted({o[:4] for o in occs})
    index = {o: i for i, o in enumerate(out_occs)}
    out = np.zeros((len(out_occs), len(out_occs)), dtype=complex)
    for i in range(len(occs)):
        for j in range(len(occs)):
            if occs[i][4:] == occs[j][4:]:
                out[index[occs[i][:4]], index[occs[j][:4]]] += rho[i, j]
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
        m = np.eye(4) / 4
        m[0, 1] = 0.1
        with pytest.raises(PhysicalityError, match="not Hermitian"):
            DensityMatrix(m)

    def test_indefinite_rejected(self):
        m = np.eye(4) / 4
        m[0, 1] = m[1, 0] = 1.0
        with pytest.raises(PhysicalityError, match="negative eigenvalue"):
            DensityMatrix(m)

    def test_imaginary_trace_rejected(self):
        # Hermitian within the 1e-12 tolerance (8e-13 on each diagonal entry),
        # but the four imaginary parts add up to 1.6e-12 in the trace
        m = np.eye(4) / 4 + 4e-13j * np.eye(4)
        with pytest.raises(PhysicalityError, match="trace has imaginary part 1.600e-12"):
            DensityMatrix(m)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 5), (4, 2), (16,), (1, 4, 4)])
    def test_entries_must_be_4x4(self, shape):
        with pytest.raises(ValueError, match="4x4"):
            DensityMatrix(np.zeros(shape))

    def test_basis_and_dim_are_the_two_photon_ones(self):
        dm = DensityMatrix(np.eye(4) / 4)
        assert dm.basis == TWO_PHOTON_BASIS and dm.dim == 4
        assert DensityMatrix.basis == TWO_PHOTON_BASIS and DensityMatrix.dim == 4

    def test_entries_are_read_only(self):
        dm = DensityMatrix(np.eye(4) / 4)
        with pytest.raises(ValueError):
            dm.entries[0, 0] = 5.0

    def test_json_round_trip(self):
        # to_dict's JSON carries the exact entries as row-major re and im arrays
        rng = np.random.default_rng(5)
        dm = random_density(rng)
        data = json.loads(json.dumps(dm.to_dict()))
        assert data["dim"] == 4 and data["basis"] == list(TWO_PHOTON_BASIS)
        again = np.array(data["re"]) + 1j * np.array(data["im"])
        np.testing.assert_array_equal(again, dm.entries)

    @pytest.mark.parametrize("index, value", [
        ((0, 0), np.nan),
        ((0, 0), np.inf),
        ((2, 2), -np.inf),
        ((0, 1), complex(np.nan, np.nan)),
    ], ids=["nan-diagonal", "inf-diagonal", "minus-inf-diagonal", "complex-nan-off"])
    def test_non_finite_entries_rejected(self, index, value):
        # NaN passes every tolerance comparison and inf warns in the
        # Hermiticity difference, so finiteness is checked first
        m = np.eye(4, dtype=complex) / 4
        m[index] = value
        with pytest.raises(PhysicalityError, match="non-finite entries"):
            DensityMatrix(m)


class TestOuterProduct:
    def test_vacuum_is_identity_case(self):
        occupations, m = outer_product({(0, 0, 0, 0): 1.0})
        assert occupations == ((0, 0, 0, 0),)
        np.testing.assert_allclose(m, [[1.0]])

    def test_singlet_support_block(self):
        amp = 1.0 / math.sqrt(2.0)
        occupations, m = outer_product({(1, 0, 0, 1): amp, (0, 1, 1, 0): -amp})
        # lexicographic order: (0,1,1,0) before (1,0,0,1)
        assert occupations == ((0, 1, 1, 0), (1, 0, 0, 1))
        np.testing.assert_allclose(m, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_two_pair_singlet_block(self):
        # (-1)^m / sqrt(3) amplitudes give an alternating-sign 1/3 block
        amp = 1.0 / math.sqrt(3.0)
        _, m = outer_product({(2, 0, 0, 2): amp, (1, 1, 1, 1): -amp, (0, 2, 2, 0): amp})
        expected = np.array([[1, -1, 1], [-1, 1, -1], [1, -1, 1]]) / 3.0
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_trace_is_norm_squared(self):
        s = {(1, 0, 0, 1): 2.0, (0, 1, 1, 0): 1.0}
        _, m = outer_product(s)
        assert m.trace().real == pytest.approx(5.0)

    def test_rank_one(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            occs = [(int(a), int(b)) for a, b in rng.integers(0, 3, size=(4, 2))]
            amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            s = dict(zip(occs, amps))
            scale = 1.0 / math.sqrt(sum(abs(a) ** 2 for a in s.values()))
            s = {o: a * scale for o, a in s.items()}
            vals = np.linalg.eigvalsh(outer_product(s)[1])
            assert np.all(vals[:-1] <= 1e-10)


class TestPartialTrace:
    def test_product_state_reduces_to_factor(self):
        rng = np.random.default_rng(3)
        kept = every_occupation(4, 1)[:5]
        reflected = every_occupation(4, 1)[7:10]
        a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        amps = {k + r: a[i] * b[j] for i, k in enumerate(kept) for j, r in enumerate(reflected)}
        occupations, reduced = partial_trace(amps)
        assert occupations == tuple(kept)
        np.testing.assert_allclose(reduced, np.outer(a, a.conj()), atol=1e-12)

    def test_entangled_pair_reduces_to_mixed(self):
        # one photon in 1H, transmitted or reflected
        amp = 1.0 / math.sqrt(2.0)
        s = {(1, 0, 0, 0, 0, 0, 0, 0): amp, (0, 0, 0, 0, 1, 0, 0, 0): amp}
        occupations, reduced = partial_trace(s)
        assert occupations == ((0, 0, 0, 0), (1, 0, 0, 0))
        np.testing.assert_allclose(reduced, np.eye(2) / 2.0, atol=1e-12)

    def test_trace_preserved(self):
        state = random_pure_state(every_occupation(8, 1), np.random.default_rng(11))
        _, reduced = partial_trace(state)
        norm_squared = sum(abs(a) ** 2 for a in state.values())
        assert reduced.trace().real == pytest.approx(norm_squared, abs=1e-12)

    def test_empty_state_gives_the_empty_pair(self):
        occupations, reduced = partial_trace({})
        assert occupations == ()
        assert reduced.shape == (0, 0) and reduced.dtype == complex

    def test_every_photon_reflected_gives_the_vacuum_block(self):
        state = random_pure_state([(0, 0, 0, 0) + r for r in every_occupation(4, 1)],
                                  np.random.default_rng(5))
        occupations, reduced = partial_trace(state)
        assert occupations == ((0, 0, 0, 0),)
        norm_squared = sum(abs(a) ** 2 for a in state.values())
        assert reduced.shape == (1, 1)
        assert reduced[0, 0] == pytest.approx(norm_squared, rel=1e-14)

    def test_nothing_reflected_gives_the_projector(self):
        # one reflected group: each element is the single product the
        # projector holds, so the two agree bitwise
        state = random_pure_state([t + (0, 0, 0, 0) for t in every_occupation(4, 1)],
                                  np.random.default_rng(6))
        occupations, reduced = partial_trace(state)
        labels, projector = outer_product(state)
        assert occupations == tuple(o[:4] for o in labels)
        assert np.array_equal(reduced, projector)


class TestPartialTraceSummationOrder:
    """partial_trace adds each output element's terms in the order of the
    double loop over the rows and columns of the state's projector, so the
    results are bitwise equal."""

    @staticmethod
    def assert_bitwise_equal(state):
        occupations, reduced = partial_trace(state)
        labels, entries = double_loop_partial_trace(outer_product(state))
        assert occupations == labels
        assert np.array_equal(reduced, entries)

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("eta", [1e-9, 0.016, 0.3, 0.5, 0.9, 1 - 1e-9])
    def test_oracle_projector(self, n, eta):
        self.assert_bitwise_equal(apply_beamsplitters(n_pair_singlet(n), eta))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pure_state(self, seed):
        rng = np.random.default_rng(seed)
        occs = list({tuple(o) for o in rng.integers(0, 3, size=(60, 8))})
        # transmitted parts repeated under other reflected ones, so several
        # groups add into the same elements
        occs += [o[:4] + tuple(rng.integers(0, 3, size=4)) for o in occs[:20]]
        self.assert_bitwise_equal(random_pure_state(list(dict.fromkeys(occs)), rng))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_mixed_state(self, seed):
        # a random mixed state, given by a purification that fills every
        # occupation of eight slots with at most one photon each
        state = random_pure_state(every_occupation(8, 1), np.random.default_rng(seed))
        self.assert_bitwise_equal(state)
        _, rho = partial_trace(state)
        assert np.trace(rho @ rho).real < 0.99 * rho.trace().real ** 2

    @given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(27)))
    def test_amplitude_order_changes_no_bit(self, seed, order):
        # 27 of the eight-slot occupations with at most one photon per slot
        rng = np.random.default_rng(seed)
        every = every_occupation(8, 1)
        occs = [every[i] for i in rng.choice(len(every), size=27, replace=False)]
        state = random_pure_state(occs, rng)
        items = list(state.items())
        shuffled = dict(items[i] for i in order)
        occupations, reduced = partial_trace(shuffled)
        expected_occupations, expected = partial_trace(state)
        assert occupations == expected_occupations
        assert np.array_equal(reduced, expected)
        self.assert_bitwise_equal(shuffled)
