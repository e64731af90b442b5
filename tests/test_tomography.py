import numpy as np
import pytest

from spdc_werner.channel import two_photon_state
from spdc_werner import tomography
from spdc_werner.errors import ConvergenceError, DesignError
from spdc_werner.fock import TWO_PHOTON_BASIS, DensityMatrix
from spdc_werner.metrics import (
    fidelity,
    linear_entropy,
    singlet_weight_extract,
    werner_state,
    witness_expectation,
)
from spdc_werner.source import GainChannelParams
from spdc_werner.tomography import (
    CountRecord,
    MLReconstruction,
    ProjectorSetting,
    _cholesky_quadratic_forms,
    _design,
    _negative_log_likelihood,
    _tomography_data,
    _triangular_from_params,
    born_probability,
    linear_reconstruction,
    ml_reconstruction,
    read_count_records,
    simulate_counts,
    standard_tomography_settings,
    witness_from_counts,
    witness_settings,
    write_count_records,
)


def noiseless_records(state, settings, total):
    """Counts equal to the exact expected values (asserted integral)."""
    records = []
    for setting in settings:
        mean = total * born_probability(state, setting)
        counts = round(mean)
        assert abs(mean - counts) < 1e-6, f"{setting.label}: {mean} not integral"
        records.append(CountRecord(setting=setting, counts=counts))
    return records


class TestProjectorSetting:
    def test_letter_label(self):
        s = ProjectorSetting("H", "V")
        assert s.label == "HV"
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        np.testing.assert_allclose(s.projector(), expected, atol=1e-15)

    def test_equal_settings_hash_equal(self):
        # the design cache is keyed by settings built anywhere, not only by
        # the shared ones
        built = [ProjectorSetting(a, b) for a in "HVDFLR" for b in "HVDFLR"]
        for setting, shared in zip(built, tomography._settings_by_letters().values(), strict=True):
            assert setting == shared and hash(setting) == hash(shared)
        assert len(set(built)) == 36
        assert _design(tuple(ProjectorSetting(a, b) for a in "HVDL" for b in "HVDL")) is _design(
            standard_tomography_settings())

    def test_unknown_letter_rejected(self):
        # settings are polarization letters only; a ket is not a letter
        for state in ("Q", (0.0, 1.0), np.array([0.0, 1.0])):
            with pytest.raises(ValueError, match="unknown polarization label"):
                ProjectorSetting("H", state)

    def test_letter_label_must_match_letters(self):
        # the label is derived from the letters and cannot be set apart
        setting = ProjectorSetting("H", "H")
        assert setting.label == "HH"
        with pytest.raises(AttributeError):
            setting.label = "DD"
        with pytest.raises(TypeError):
            ProjectorSetting("H", "H", label="DD")

    def test_unnormalized_ket_rejected(self):
        with pytest.raises(ValueError):
            ProjectorSetting((1.0, 1.0), "H")

    def test_standard_set_is_complete(self):
        settings = standard_tomography_settings()
        assert len(settings) == 16
        assert len({s.label for s in settings}) == 16

    def test_witness_set_labels(self):
        assert [s.label for s in witness_settings()] == [
            "HH", "VV", "DD", "FF", "LR", "RL", "HV", "VH",
        ]


class TestBornProbability:
    def test_singlet_anticorrelated(self):
        singlet = werner_state(1.0)
        assert born_probability(singlet, ProjectorSetting("H", "V")) == pytest.approx(0.5)
        assert born_probability(singlet, ProjectorSetting("H", "H")) == pytest.approx(0.0)

    def test_werner_diagonal_element(self):
        w = werner_state(0.6)
        assert born_probability(w, ProjectorSetting("H", "H")) == pytest.approx(0.1)

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        dm = DensityMatrix(m / m.trace().real)
        for setting in standard_tomography_settings():
            assert 0.0 <= born_probability(dm, setting) <= 1.0

    def test_probability_above_one_rejected(self):
        # DensityMatrix does not fix the trace, so diag(2, 0, 0, 0) is accepted
        # there; its HH probability is 2
        with pytest.raises(ValueError, match=r"Born probability 2\.0 outside \[0, 1\]"):
            born_probability(DensityMatrix(np.diag([2.0, 0.0, 0.0, 0.0])),
                             ProjectorSetting("H", "H"))


class TestSimulateCounts:
    def test_deterministic_for_fixed_seed(self):
        w = werner_state(0.6)
        settings = standard_tomography_settings()
        first = simulate_counts(w, settings, 1000, seed=42)
        second = simulate_counts(w, settings, 1000, seed=42)
        assert [r.counts for r in first] == [r.counts for r in second]
        assert all(r.seed == 42 for r in first)

    def test_different_seeds_differ(self):
        w = werner_state(0.6)
        settings = standard_tomography_settings()
        a = [r.counts for r in simulate_counts(w, settings, 1000, seed=1)]
        b = [r.counts for r in simulate_counts(w, settings, 1000, seed=2)]
        assert a != b

    def test_zero_mean_gives_zero_counts(self):
        records = simulate_counts(
            werner_state(1.0), [ProjectorSetting("H", "H")], 10**6, seed=9
        )
        assert records[0].counts == 0

    def test_counts_near_mean(self):
        records = simulate_counts(
            werner_state(0.6), [ProjectorSetting("H", "H")], 10**6, seed=5
        )
        mean = 10**5  # probability 0.1
        assert abs(records[0].counts - mean) < 5 * np.sqrt(mean)

    def test_total_must_be_positive(self):
        for flux in (0, -1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="total_per_setting must be positive"):
                simulate_counts(werner_state(0.6), witness_settings(), flux, seed=1)

    @pytest.mark.parametrize("flux", [2**52 + 1, 2**53 + 1, 10**19, 1e19, 10**20])
    def test_flux_beyond_exact_counts_rejected(self, flux):
        # numpy fails at 1e20 ("lam value too large") and at 1e19 draws counts
        # from float64 arithmetic, which above 2**53 are not exact integers;
        # a mean of 2**53 draws above it half the time
        with pytest.raises(ValueError, match=r"total_per_setting must be at most 2\*\*52"):
            simulate_counts(werner_state(0.6), witness_settings(), flux, seed=1)

    def test_largest_exact_flux_accepted(self):
        records = simulate_counts(werner_state(1.0), witness_settings(), 2**52, seed=1)
        assert len(records) == 8
        assert all(0 <= r.counts < 2**53 for r in records)

    @pytest.mark.parametrize("seed", range(20))
    def test_certain_outcome_at_largest_flux(self, seed):
        # Born probability 1: the mean is the flux itself, and the draw must
        # stay a count that CountRecord accepts (at a flux of 2**53 it did not
        # for 12 of these seeds)
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]))
        (record,) = simulate_counts(rho, [ProjectorSetting("H", "H")], 2**52, seed=seed)
        assert abs(record.counts - 2**52) < 2**30


class TestLinearReconstruction:
    def test_exact_on_noiseless_singlet(self):
        singlet = werner_state(1.0)
        records = noiseless_records(singlet, standard_tomography_settings(), 10**6)
        recon = linear_reconstruction(records)
        np.testing.assert_allclose(recon, singlet.entries, atol=1e-10)

    def test_exact_on_noiseless_werner(self):
        w = werner_state(0.6)
        records = noiseless_records(w, standard_tomography_settings(), 10**6)
        recon = linear_reconstruction(records, total_per_setting=10**6)
        np.testing.assert_allclose(recon, w.entries, atol=1e-10)

    def test_too_few_settings_rejected(self):
        w = werner_state(0.6)
        records = noiseless_records(w, standard_tomography_settings()[:15], 10**6)
        with pytest.raises(DesignError):
            linear_reconstruction(records)

    def test_rank_deficient_settings_rejected(self):
        w = werner_state(0.6)
        repeated = [ProjectorSetting("H", "H")] * 16
        records = noiseless_records(w, repeated, 10**6)
        with pytest.raises(DesignError):
            linear_reconstruction(records)
        with pytest.raises(DesignError):
            ml_reconstruction(records)

    def test_noisy_output_is_unit_trace_hermitian(self):
        w = werner_state(0.6)
        records = simulate_counts(w, standard_tomography_settings(), 500, seed=3)
        recon = linear_reconstruction(records)
        assert recon.shape == (4, 4)
        assert recon.trace().real == pytest.approx(1.0, abs=1e-12)
        assert recon.trace().imag == 0.0
        np.testing.assert_array_equal(recon, recon.conj().T)

    def test_estimate_is_read_only(self):
        records = simulate_counts(werner_state(0.6), standard_tomography_settings(),
                                  500, seed=3)
        recon = linear_reconstruction(records)
        assert not recon.flags.writeable
        with pytest.raises(ValueError):
            recon[0, 0] = 1.0

    @pytest.mark.parametrize("other", [5, 0])
    def test_zero_trace_with_known_flux_rejected(self, other):
        # no HH, HV, VH or VV counts: the estimate's trace is zero (-2.7e-17
        # with 5 counts on the other settings), nothing to normalize by
        records = [CountRecord(s, 0 if s.label in TWO_PHOTON_BASIS else other)
                   for s in standard_tomography_settings()]
        with pytest.raises(ValueError, match="zero trace"):
            linear_reconstruction(records, total_per_setting=100)

    def test_one_complete_basis_count_reconstructs(self):
        records = [CountRecord(s, int(s.label == "HV"))
                   for s in standard_tomography_settings()]
        recon = linear_reconstruction(records, total_per_setting=1e5)
        assert np.all(np.isfinite(recon))
        assert recon.trace().real == pytest.approx(1.0, abs=1e-12)


class TestMLReconstruction:
    def test_high_statistics_singlet(self):
        records = simulate_counts(
            werner_state(1.0), standard_tomography_settings(), 10**6, seed=21
        )
        result = ml_reconstruction(records, total_per_setting=10**6)
        assert fidelity(result.state, werner_state(1.0)) >= 0.999

    def test_fully_mixed_round_trip(self):
        records = noiseless_records(
            werner_state(0.0), standard_tomography_settings(), 10**6
        )
        result = ml_reconstruction(records, total_per_setting=10**6)
        assert linear_entropy(result.state) >= 0.99

    @pytest.mark.parametrize("p", [0.0, 1.0 / 3.0, 0.6, 1.0])
    def test_noiseless_round_trip(self, p):
        w = werner_state(p)
        # probabilities on this grid are multiples of 1/12 or 1/20
        total = 1_200_000
        records = noiseless_records(w, standard_tomography_settings(), total)
        result = ml_reconstruction(records, total_per_setting=total)
        assert fidelity(result.state, w) >= 1.0 - 1e-6
        if p < 1.0:
            # full rank, so the linear start is already the optimum and the
            # gradient test stops the search before its first step
            assert result.n_iterations == 0

    def test_unphysical_init_produces_physical_output(self):
        w = werner_state(0.6)
        records = simulate_counts(w, standard_tomography_settings(), 200, seed=8)
        rough = linear_reconstruction(records)
        assert np.linalg.eigvalsh(rough)[0] < 0  # noise made it indefinite
        # ML starts from this indefinite linear estimate of the same data
        result = ml_reconstruction(records)
        vals = np.linalg.eigvalsh(result.state.entries)
        assert vals[0] >= -1e-10
        assert result.state.trace == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("g, eta, total, seed", [
        (1.2522, 0.3070, 1_000, 1640328618),
        (0.2974, 0.4110, 100_000, 113295413),
    ])
    def test_no_ascent_direction_left(self, g, eta, total, seed):
        # On these data the linear estimate is indefinite. A start with a zero
        # eigenvalue stalls there (T'T grows it only at second order), and
        # the largest eigenvalue of the likelihood gradient then exceeds its
        # value on the estimate by 2e-2 and 2e-3 of the flux.
        truth = two_photon_state(GainChannelParams(g=g, eta=eta))
        records = simulate_counts(truth, standard_tomography_settings(), total, seed)
        assert np.linalg.eigvalsh(linear_reconstruction(records))[0] < 0
        rho = ml_reconstruction(records, total_per_setting=total).state.entries
        projectors = np.array([r.setting.projector() for r in records])
        counts = np.array([r.counts for r in records], dtype=float)
        mu = total * np.einsum("aij,ji->a", projectors, rho).real
        grad = np.einsum("a,aij->ij", counts / mu - 1.0, projectors)
        assert np.linalg.eigvalsh(grad)[-1] - np.trace(grad @ rho).real < 1e-3

    def test_all_zero_counts_with_known_flux(self):
        # the linear estimate is the zero matrix, so ML starts from I/4
        records = [CountRecord(s, 0) for s in standard_tomography_settings()]
        result = ml_reconstruction(records, total_per_setting=100)
        assert np.linalg.eigvalsh(result.state.entries)[0] >= -1e-10
        assert result.state.trace == pytest.approx(1.0, abs=1e-10)

    def test_log_likelihood_matches_returned_state(self):
        w = werner_state(0.6)
        records = simulate_counts(w, standard_tomography_settings(), 10**4, seed=12)
        result = ml_reconstruction(records, total_per_setting=10**4)
        mu = np.array(
            [
                10**4 * born_probability(result.state, r.setting)
                for r in records
            ]
        )
        counts = np.array([r.counts for r in records], dtype=float)
        direct = float(np.sum(counts * np.log(np.maximum(mu, 1e-30)) - mu))
        assert result.log_likelihood == pytest.approx(direct, rel=1e-9)

    def test_statistical_consistency(self):
        w = werner_state(0.6)
        settings = standard_tomography_settings()
        estimates = []
        for seed in range(50):
            records = simulate_counts(w, settings, 10**4, seed=seed)
            result = ml_reconstruction(records, total_per_setting=10**4)
            estimates.append(singlet_weight_extract(result.state))
        estimates = np.array(estimates)
        sem = estimates.std(ddof=1) / np.sqrt(len(estimates))
        assert abs(estimates.mean() - 0.6) <= 3 * sem

    def test_too_few_settings_rejected(self):
        records = noiseless_records(
            werner_state(0.6), standard_tomography_settings()[:12], 10**6
        )
        with pytest.raises(DesignError):
            ml_reconstruction(records)

    def test_not_converged_raises_with_diagnostics(self, monkeypatch):
        minimize = tomography._newton.minimize
        monkeypatch.setattr(tomography._newton, "minimize",
                            lambda *args, **kw: minimize(*args, **{**kw, "max_iter": 1}))
        # an indefinite linear estimate: the search needs several steps
        records = simulate_counts(werner_state(0.6), standard_tomography_settings(), 200, seed=8)
        with pytest.raises(ConvergenceError, match="likelihood maximization did not "
                           "converge: iteration limit 1 reached") as err:
            ml_reconstruction(records)
        assert err.value.diagnostics["iterations"] == 1
        assert err.value.diagnostics["message"] == "iteration limit 1 reached"
        assert np.isfinite(err.value.diagnostics["final_objective"])


@pytest.mark.parametrize("estimator", [linear_reconstruction, ml_reconstruction])
@pytest.mark.parametrize("flux", [0, -1, float("nan"), float("inf")])
def test_flux_must_be_positive_and_finite(estimator, flux):
    records = simulate_counts(
        werner_state(0.6), standard_tomography_settings(), 1000, seed=3
    )
    with pytest.raises(ValueError, match="total_per_setting must be positive"):
        estimator(records, total_per_setting=flux)


@pytest.mark.parametrize("estimator", [linear_reconstruction, ml_reconstruction])
def test_flux_estimate_needs_every_complete_basis_setting(estimator):
    # HF in place of HV keeps the 16 settings full rank: only the flux
    # estimate misses HV, and with the flux given the same counts reconstruct
    settings = [ProjectorSetting("H", "F") if s.label == "HV" else s
                for s in standard_tomography_settings()]
    assert _design(tuple(settings)).rank == 16
    records = simulate_counts(werner_state(0.6), settings, 1000, seed=3)
    with pytest.raises(ValueError, match=r"complete-basis settings \['HV'\] absent"):
        estimator(records)
    estimator(records, total_per_setting=1000)


@pytest.mark.parametrize("estimator", [linear_reconstruction, ml_reconstruction])
def test_flux_estimate_needs_complete_basis_counts(estimator):
    records = [CountRecord(s, 0 if s.label in TWO_PHOTON_BASIS else 5)
               for s in standard_tomography_settings()]
    with pytest.raises(ValueError, match="complete-basis counts sum to zero; flux unknown"):
        estimator(records)


def with_repeated_hh(first: bool) -> list[CountRecord]:
    """Seed-1 counts of criterion 5's state at 1e5 per setting, with a second
    HH row of three times the counts placed first or last."""
    rho = two_photon_state(GainChannelParams(g=1.313, eta=0.016))
    records = simulate_counts(rho, standard_tomography_settings(), 100_000, seed=1)
    (hh,) = [r for r in records if r.setting.label == "HH"]
    extra = CountRecord(setting=hh.setting, counts=3 * hh.counts, seed=hh.seed)
    return [extra, *records] if first else [*records, extra]


class TestRepeatedCompleteBasisSetting:
    # The flux estimate used to count only the last of repeated rows while the
    # likelihood counts all: ML gave p = 0.2501 with the extra row last and
    # 0.2032 with it first (0.4094 without it).

    @pytest.mark.parametrize("estimator", [linear_reconstruction, ml_reconstruction])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    def test_flux_estimate_rejects_it(self, estimator, first):
        with pytest.raises(ValueError, match=r"settings \['HH'\] repeated"):
            estimator(with_repeated_hh(first))

    def test_given_flux_takes_it_in_either_order(self):
        p_first, p_last = (
            singlet_weight_extract(ml_reconstruction(with_repeated_hh(first), 100_000).state)
            for first in (True, False)
        )
        assert abs(p_first - p_last) <= 1e-15


class TestTriangularParameters:
    # Reference: the entry-by-entry fill order of the 12 off-diagonal
    # parameters, as (real, imaginary) pairs.
    LOWER = ((1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2))

    def test_factor_matches_loop_reference(self):
        t = np.random.default_rng(0).standard_normal(16)
        expected = np.zeros((4, 4), dtype=complex)
        expected[np.diag_indices(4)] = t[:4]
        for idx, (r, c) in enumerate(self.LOWER):
            expected[r, c] = t[4 + 2 * idx] + 1j * t[5 + 2 * idx]
        np.testing.assert_array_equal(_triangular_from_params(t), expected)

    def test_quadratic_forms_give_the_traces(self):
        # Tr(T'T P_i) = t'Q_i t and Tr(T'T) = t't
        projectors = np.array([s.projector() for s in standard_tomography_settings()])
        quadratic = _cholesky_quadratic_forms(projectors)
        np.testing.assert_array_equal(quadratic, quadratic.transpose(0, 2, 1))
        for t in np.random.default_rng(1).standard_normal((5, 16)):
            gram = _triangular_from_params(t).conj().T @ _triangular_from_params(t)
            np.testing.assert_allclose(
                quadratic @ t @ t, np.einsum("aij,ji->a", projectors, gram).real,
                rtol=1e-13, atol=1e-13 * (t @ t))
            assert t @ t == pytest.approx(gram.trace().real, rel=1e-14)

    @pytest.mark.parametrize("total", [None, 1000])
    def test_gradient_and_hessian_match_central_differences(self, total):
        records = simulate_counts(two_photon_state(GainChannelParams(g=0.3, eta=0.2)),
                                  standard_tomography_settings(), 1000, seed=5)
        design, counts, n_total = _tomography_data(records, total)
        evaluate = _negative_log_likelihood(design.projectors, counts, n_total)
        t = np.random.default_rng(2).standard_normal(16)
        t /= np.linalg.norm(t)
        _, grad, hessian = evaluate(t)
        hess = hessian()
        h = 1e-6
        steps = h * np.eye(16)
        grad_fd = np.array([(evaluate(t + e)[0] - evaluate(t - e)[0]) / (2 * h) for e in steps])
        hess_fd = np.array([(evaluate(t + e)[1] - evaluate(t - e)[1]) / (2 * h) for e in steps])
        np.testing.assert_allclose(grad, grad_fd, rtol=0, atol=1e-7 * np.abs(grad).max())
        # the Newton system adds N t t' along the direction f does not depend on
        np.testing.assert_allclose(hess - n_total * np.outer(t, t), hess_fd, rtol=0,
                                   atol=1e-7 * np.abs(hess_fd).max())


def _lstsq_linear_estimate(projectors, counts, n_total):
    """The linear estimate as ``lstsq`` solves it on the projector stack, the
    route before the design cache, kept as its reference."""
    a = projectors.transpose(0, 2, 1).reshape(len(counts), 16)
    vec, *_ = np.linalg.lstsq(a, (counts / n_total).astype(complex), rcond=None)
    m = vec.reshape(4, 4)
    return 0.5 * (m + m.conj().T)


def _flipped_cholesky_start(m):
    """The start L-BFGS-B was given: the parameters of ``m`` with its
    eigenvalues raised to at least 1e-4 and its trace set to one, by a
    Cholesky factorization in reversed basis order."""
    vals, vecs = np.linalg.eigh(m)
    m = (vecs * np.maximum(vals, 1e-4)) @ vecs.conj().T
    m = m / m.trace().real
    flip = np.eye(4)[::-1]
    factor = flip @ np.linalg.cholesky(flip @ m @ flip).conj().T @ flip
    lower = tomography._LOWER_INDICES
    return np.concatenate([np.diag(factor).real,
                           np.column_stack([factor[lower].real, factor[lower].imag]).ravel()])


def _scipy_log_likelihood(records, total_per_setting):
    """Log-likelihood that ``scipy.optimize``'s L-BFGS-B reached with the
    objective, start and tolerances ``ml_reconstruction`` used to pass it."""
    minimize = pytest.importorskip("scipy.optimize").minimize
    design, counts, n_total = _tomography_data(records, total_per_setting)
    projectors = design.projectors
    lower = tomography._LOWER_INDICES

    def objective(t):
        factor = _triangular_from_params(t)
        gram = factor.conj().T @ factor
        norm = gram.trace().real
        rho = gram / norm
        mu = np.maximum(n_total * np.einsum("aij,ji->a", projectors, rho).real, 1e-30)
        weights = (counts / mu - 1.0) * n_total
        grad_rho = np.einsum("a,aij->ij", weights, projectors)
        inner = np.einsum("ij,ji->", grad_rho, rho).real
        m = (factor @ grad_rho - inner * factor) / norm
        grad = -2.0 * np.concatenate([
            np.diag(m).real, np.column_stack([m[lower].real, m[lower].imag]).ravel()])
        return float(np.sum(mu) - counts @ np.log(mu)), grad

    result = minimize(objective, _flipped_cholesky_start(_lstsq_linear_estimate(projectors, counts, n_total)),
                      jac=True, method="L-BFGS-B",
                      options={"maxiter": 2000, "ftol": 1e-12, "gtol": 1e-8})
    assert result.success
    return -result.fun


def _round_trip_datasets(seed, n_sets):
    """Records drawn at tomo-fit's inputs: g in [0.05, 2], eta in [0.005, 0.5],
    1e3, 1e4 or 1e5 counts per setting."""
    rng = np.random.default_rng(seed)
    for i in range(n_sets):
        params = GainChannelParams(g=rng.uniform(0.05, 2.0), eta=rng.uniform(0.005, 0.5))
        total = (1_000, 10_000, 100_000)[i % 3]
        yield simulate_counts(two_photon_state(params), standard_tomography_settings(),
                              total, seed=int(rng.integers(2**31))), total


# Rank-deficient truths: the ML state lies on the boundary of the state space.
_BOUNDARY_TRUTHS = {
    "singlet": werner_state(1.0),
    "HH": DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0])),
    "rank-2": DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0])),
    "rank-3": DensityMatrix(np.diag([0.4, 0.3, 0.3, 0.0])),
}


class TestMLAgainstScipy:
    """The damped Newton search finds a likelihood at least as high as the
    L-BFGS-B search it replaced, less 1e-9 of |log L|. When this test was
    written, over 1,380 seeded datasets it was lower by more than 5e-16 of
    |log L| once, by 6.4e-11, where the Newton search stopped on its 1e-12
    relative-decrease rule."""

    @staticmethod
    def assert_not_below_scipy(records, total):
        ours = ml_reconstruction(records, total_per_setting=total).log_likelihood
        reference = _scipy_log_likelihood(records, total)
        assert ours >= reference - 1e-9 * abs(reference)

    @pytest.mark.parametrize("given_flux", [False, True], ids=["flux-estimated", "flux-given"])
    def test_round_trip_inputs(self, given_flux):
        for records, total in _round_trip_datasets(seed=15, n_sets=120):
            self.assert_not_below_scipy(records, total if given_flux else None)

    @pytest.mark.parametrize("truth", _BOUNDARY_TRUTHS, ids=str)
    def test_boundary_truths(self, truth):
        for total in (100, 1_000, 100_000):
            for seed in range(4):
                records = simulate_counts(_BOUNDARY_TRUTHS[truth],
                                          standard_tomography_settings(), total, seed)
                for given in (None, total):
                    self.assert_not_below_scipy(records, given)


def _reference_counts(rho, settings, total, seed):
    """The per-setting loop ``simulate_counts`` ran before it was batched:
    Tr[rho P] from one matrix product and trace, clipped, then one scalar
    Poisson draw per setting."""
    rng = np.random.default_rng(seed)
    counts = []
    for setting in settings:
        p = float(np.trace(rho.entries @ setting.projector()).real)
        counts.append(int(rng.poisson(total * min(1.0, max(0.0, p)))))
    return counts


def _random_state(rng):
    """A full-rank two-qubit state with random complex coherences."""
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gram = m @ m.conj().T
    return DensityMatrix(gram / gram.trace().real)


class TestAgainstPerCallRoute:
    """The cached design, the batched trace and the vector Poisson draw
    against the per-call route they replaced."""

    @pytest.mark.parametrize("settings", [standard_tomography_settings(),
                                          witness_settings()],
                             ids=["standard", "witness"])
    def test_counts_equal_the_per_setting_loop(self, settings):
        rng = np.random.default_rng(17)
        for seed in range(200):
            if seed % 2:
                rho = _random_state(rng)
            else:
                rho = two_photon_state(GainChannelParams(g=rng.uniform(0.05, 2.0),
                                                         eta=rng.uniform(0.005, 0.5)))
            total = (1_000, 10_000, 100_000)[seed % 3]
            records = simulate_counts(rho, settings, total, seed)
            assert [r.counts for r in records] == _reference_counts(rho, settings, total, seed)
            assert [r.setting for r in records] == list(settings)

    def test_born_probability_equals_one_trace(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            rho = _random_state(rng)
            for setting in standard_tomography_settings():
                p = float(np.trace(rho.entries @ setting.projector()).real)
                assert born_probability(rho, setting) == min(1.0, max(0.0, p))

    def test_settings_may_be_an_iterator(self):
        settings = standard_tomography_settings()
        records = simulate_counts(werner_state(0.6), iter(settings), 1000, seed=3)
        assert [r.counts for r in records] == _reference_counts(
            werner_state(0.6), settings, 1000, 3)

    @pytest.mark.parametrize("given_flux", [False, True], ids=["flux-estimated", "flux-given"])
    def test_linear_estimate_equals_lstsq(self, given_flux):
        for records, total in _round_trip_datasets(seed=16, n_sets=150):
            counts = np.array([r.counts for r in records], dtype=float)
            n_total = total if given_flux else tomography._estimate_total(records)
            projectors = np.array([r.setting.projector() for r in records])
            reference = _lstsq_linear_estimate(projectors, counts, n_total)
            reference = reference / reference.trace().real
            estimate = linear_reconstruction(records, total if given_flux else None)
            np.testing.assert_allclose(estimate, reference, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("given_flux", [False, True], ids=["flux-estimated", "flux-given"])
    def test_ml_likelihood_not_below_the_lstsq_start(self, given_flux, monkeypatch):
        datasets = list(_round_trip_datasets(seed=19, n_sets=300))
        results = [ml_reconstruction(records, total if given_flux else None)
                   for records, total in datasets]
        monkeypatch.setattr(tomography, "_linear_estimate",
                            lambda design, counts, n_total: _lstsq_linear_estimate(
                                design.projectors, counts, n_total))
        for result, (records, total) in zip(results, datasets):
            reference = ml_reconstruction(records, total if given_flux else None)
            assert result.log_likelihood >= (reference.log_likelihood
                                             - 1e-12 * abs(reference.log_likelihood))


def _eager_negative_log_likelihood(projectors, counts, n_total):
    """The ML objective as it was before the Hessian was built on demand:
    value, gradient and Hessian in one evaluation, the Hessian handed over
    already built."""
    quadratic = _cholesky_quadratic_forms(projectors)
    identity = np.eye(16)

    def evaluate(t):
        qt = quadratic @ t
        norm = t @ t
        prob = qt @ t / norm
        mu = np.maximum(n_total * prob, 1e-30)
        value = float(mu.sum() - counts @ np.log(mu))
        dprob = 2.0 * (qt - prob[:, None] * t) / norm
        weight = n_total * (1.0 - counts / mu)
        grad = weight @ dprob
        hess = (2.0 * np.tensordot(weight, quadratic, 1) - 2.0 * (weight @ prob) * identity
                - 2.0 * (np.outer(grad, t) + np.outer(t, grad))) / norm
        hess += (dprob.T * (counts * (n_total / mu) ** 2)) @ dprob
        hess += n_total * np.outer(t, t)
        return value, grad, lambda: hess

    return evaluate


def _counting_hessians(calls):
    """``_negative_log_likelihood`` whose Hessian callables record each call."""
    original = tomography._negative_log_likelihood

    def factory(*args):
        evaluate = original(*args)

        def counted(t):
            value, grad, hessian = evaluate(t)

            def recorded():
                calls.append(t.copy())
                return hessian()

            return value, grad, recorded

        return counted

    return factory


class TestHessianOnDemand:
    """ML asks for the Hessian only where the Newton loop steps, and gives
    the results of the evaluation that built it every time."""

    def test_positive_definite_start_builds_no_hessian(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tomography, "_negative_log_likelihood", _counting_hessians(calls))
        zero_step = 0
        for records, total in _round_trip_datasets(seed=23, n_sets=60):
            if np.linalg.eigvalsh(linear_reconstruction(records))[0] <= 0:
                continue
            result = ml_reconstruction(records)
            assert (result.n_iterations, result.stop_reason) == (
                0, "gradient within tolerance")
            zero_step += 1
        assert zero_step >= 30
        assert calls == []

    @pytest.mark.parametrize("given_flux", [False, True], ids=["flux-estimated", "flux-given"])
    def test_one_hessian_per_step(self, given_flux, monkeypatch):
        calls = []
        monkeypatch.setattr(tomography, "_negative_log_likelihood", _counting_hessians(calls))
        steps = 0
        for records, total in _round_trip_datasets(seed=24, n_sets=60):
            calls.clear()
            result = ml_reconstruction(records, total if given_flux else None)
            # where no step lowers the objective, the Hessian of the point it
            # stops at was built for the step it tried
            stuck = result.stop_reason == "no step lowers the objective beyond its rounding"
            assert len(calls) == result.n_iterations + stuck
            steps += result.n_iterations
        assert steps > 0

    @pytest.mark.parametrize("given_flux", [False, True], ids=["flux-estimated", "flux-given"])
    def test_results_equal_the_eager_hessian(self, given_flux, monkeypatch):
        datasets = list(_round_trip_datasets(seed=25, n_sets=200))
        results = [ml_reconstruction(records, total if given_flux else None)
                   for records, total in datasets]
        monkeypatch.setattr(tomography, "_negative_log_likelihood",
                            _eager_negative_log_likelihood)
        for result, (records, total) in zip(results, datasets):
            reference = ml_reconstruction(records, total if given_flux else None)
            assert np.array_equal(result.state.entries, reference.state.entries)
            assert result.log_likelihood == reference.log_likelihood
            assert result.n_iterations == reference.n_iterations
            assert result.stop_reason == reference.stop_reason
        assert sum(r.n_iterations for r in results) > 0

    def test_stop_reason_of_a_positive_definite_start(self):
        records = noiseless_records(werner_state(0.6), standard_tomography_settings(), 1_200_000)
        result = ml_reconstruction(records)
        assert result.n_iterations == 0
        assert result.stop_reason == "gradient within tolerance"

    def test_stop_reason_where_the_search_steps(self):
        # the indefinite linear estimate of test_unphysical_init_produces_physical_output
        records = simulate_counts(werner_state(0.6), standard_tomography_settings(), 200, seed=8)
        result = ml_reconstruction(records)
        assert result.n_iterations > 0
        assert result.stop_reason == "relative decrease below 1e-12"


def _floored_start(records, total_per_setting):
    """The objective, the floored linear start (not normalized), the flux and
    the frame that ``ml_reconstruction`` builds from the same records."""
    design, counts, n_total = _tomography_data(records, total_per_setting)
    eigenvalues, frame = np.linalg.eigh(tomography._linear_estimate(design, counts, n_total))
    start = np.zeros(16)
    start[:4] = np.sqrt(np.maximum(eigenvalues, 1e-4))
    evaluate = _negative_log_likelihood(frame.conj().T @ design.projectors @ frame,
                                        counts, n_total)
    return evaluate, start, n_total, frame


def _searched_reconstruction(records, total_per_setting):
    """ML as it ran before the early return: every call enters
    ``_newton.minimize`` from the floored start, with the same tolerances,
    and the state is built from the point the search returns."""
    evaluate, start, n_total, frame = _floored_start(records, total_per_setting)
    result = tomography._newton.minimize(evaluate, start, gtol=1e-9 * n_total,
                                         ftol=1e-12, max_iter=2000)
    assert result.converged
    factor = _triangular_from_params(result.x) @ frame.conj().T
    gram = factor.conj().T @ factor
    return MLReconstruction(state=DensityMatrix(gram / gram.trace().real),
                            log_likelihood=-result.value,
                            n_iterations=result.iterations,
                            stop_reason=result.message)


@pytest.fixture
def searches(monkeypatch):
    """A list that gains one entry per ``ml_reconstruction`` call that enters
    the Newton search."""
    calls = []
    minimize = tomography._newton.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    monkeypatch.setattr(tomography._newton, "minimize", counted)
    return calls


class TestEarlyReturn:
    """A start that already fits every count comes back unsearched, with the
    state, iterations and stop reason of the search's 0-step exit."""

    @staticmethod
    def assert_equals_the_search(result, records, total_per_setting):
        reference = _searched_reconstruction(records, total_per_setting)
        assert np.array_equal(result.state.entries, reference.state.entries)
        assert result.n_iterations == reference.n_iterations
        assert result.stop_reason == reference.stop_reason
        assert abs(result.log_likelihood - reference.log_likelihood) <= (
            1e-15 * abs(reference.log_likelihood))

    @pytest.mark.parametrize("given_flux", [False, True], ids=["flux-estimated", "flux-given"])
    def test_results_equal_the_search_from_the_same_start(self, given_flux, searches):
        early = 0
        for records, total in _round_trip_datasets(seed=31, n_sets=800):
            given = total if given_flux else None
            searches.clear()
            result = ml_reconstruction(records, given)
            if not searches:
                early += 1
                # the loop's own first stop test holds where it was skipped
                evaluate, start, n_total, _ = _floored_start(records, given)
                _, grad, _ = evaluate(start / np.linalg.norm(start))
                assert np.max(np.abs(grad)) <= 1e-9 * n_total
                assert (result.n_iterations, result.stop_reason) == (
                    0, "gradient within tolerance")
            self.assert_equals_the_search(result, records, given)
        if not given_flux:
            # 677 of the 800 returned early when this test was written: every
            # positive-definite linear estimate, and every call of 0 steps
            assert early >= 600

    @pytest.mark.parametrize("misfit, early, steps", [
        (1e-12, True, 0),    # inside the 1.5e-11 bound
        (1e-10, False, 0),   # outside it, but the gradient, 1.3e-10 N, passes
        (1e-9, False, 1),    # the gradient, 1.3e-9 N, fails the 1e-9 N test
        (1e-8, False, 1),
    ])
    def test_bound_on_counts_that_miss_by_a_common_factor(self, misfit, early, steps,
                                                          searches):
        # exact counts, and a given flux above their total by the factor
        # 1 + misfit: every fitted count misses its count by that relative
        # amount, and the gradient at the start is about 1.3 misfit * N
        records = noiseless_records(werner_state(0.6), standard_tomography_settings(),
                                    1_200_000)
        flux = 1_200_000 * (1.0 + misfit)
        result = ml_reconstruction(records, flux)
        assert (not searches, result.n_iterations) == (early, steps)
        self.assert_equals_the_search(result, records, flux)

    def test_search_runs_where_the_floor_binds(self, searches):
        # eigenvalues 5e-5, positive but below the 1e-4 floor: the floored
        # start no longer fits the counts, although the estimate does
        records = noiseless_records(werner_state(0.9998), standard_tomography_settings(),
                                    4_000_000)
        assert 0 < np.linalg.eigvalsh(linear_reconstruction(records))[0] < 1e-4
        result = ml_reconstruction(records)
        assert searches and result.n_iterations > 0
        self.assert_equals_the_search(result, records, None)

    def test_search_runs_where_the_flux_is_given(self, searches):
        # the CI entry point's data: 0 steps with the flux estimated, 2 given
        truth = two_photon_state(GainChannelParams(g=1.313, eta=0.016))
        records = simulate_counts(truth, standard_tomography_settings(), 100_000, seed=7)
        assert ml_reconstruction(records).n_iterations == 0
        assert not searches  # returned early
        searches.clear()
        result = ml_reconstruction(records, 100_000)
        assert searches and result.n_iterations == 2
        self.assert_equals_the_search(result, records, 100_000)

    def test_search_runs_where_a_complete_basis_count_is_zero(self, searches):
        truth = two_photon_state(GainChannelParams(g=1.313, eta=0.016))
        records = [CountRecord(r.setting, 0) if r.setting.label == "HH" else r
                   for r in simulate_counts(truth, standard_tomography_settings(),
                                            100_000, seed=7)]
        result = ml_reconstruction(records)
        assert searches and result.n_iterations > 0
        self.assert_equals_the_search(result, records, None)


class TestSettingsOncePerProcess:
    def test_settings_functions_return_one_tuple(self):
        assert standard_tomography_settings() is standard_tomography_settings()
        assert witness_settings() is witness_settings()
        assert [s.label for s in witness_settings()] == [
            "HH", "VV", "DD", "FF", "LR", "RL", "HV", "VH"]
        assert len(set(standard_tomography_settings())) == 16

    def test_settings_read_from_csv_are_the_shared_objects(self, tmp_path):
        path = tmp_path / "counts.csv"
        for settings in (standard_tomography_settings(), witness_settings()):
            write_count_records(simulate_counts(werner_state(0.6), settings, 1000, seed=1), path)
            loaded = [r.setting for r in read_count_records(path)]
            assert all(a is b for a, b in zip(loaded, settings, strict=True))

    def test_every_letter_pair_is_read(self, tmp_path):
        letters = "HVDFLR"
        path = tmp_path / "counts.csv"
        path.write_text("label,stateA,stateB,counts,seed\n" + "".join(
            f"{a}{b},{a},{b},1,0\n" for a in letters for b in letters))
        loaded = read_count_records(path)
        assert [r.setting for r in loaded] == [
            ProjectorSetting(a, b) for a in letters for b in letters]

    @pytest.mark.parametrize("row", ["QH,Q,H,10,0", "HQ,H,Q,10,0", "HH,h,H,10,0"])
    def test_unknown_letter_raises_on_every_read(self, row, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(f"label,stateA,stateB,counts,seed\nHH,H,H,5,0\n{row}\n")
        for _ in range(3):
            with pytest.raises(ValueError, match=":3: malformed row: unknown polarization label"):
                read_count_records(path)


class TestDesignCache:
    def test_cached_arrays_are_read_only(self):
        design = _design(standard_tomography_settings())
        for array in (design.projectors, design.pinv):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] = 0.0
        assert design.rank == 16
        assert design.projectors.shape == (16, 4, 4)
        assert design.pinv.shape == (16, 16)

    def test_second_call_hits_the_cache(self):
        records = simulate_counts(werner_state(0.6), standard_tomography_settings(),
                                  1000, seed=4)
        linear_reconstruction(records)
        before = _design.cache_info()
        linear_reconstruction(records)
        ml_reconstruction(records)
        simulate_counts(werner_state(0.6), standard_tomography_settings(), 1000, seed=5)
        after = _design.cache_info()
        assert after.hits == before.hits + 3
        assert after.misses == before.misses
        assert _design(standard_tomography_settings()) is _design(
            tuple(r.setting for r in records))

    def test_rank_deficient_design_raises_every_time(self):
        records = noiseless_records(werner_state(0.6), [ProjectorSetting("H", "H")] * 16,
                                    10**6)
        messages = []
        for estimator in (linear_reconstruction, ml_reconstruction, linear_reconstruction):
            with pytest.raises(DesignError) as raised:
                estimator(records)
            messages.append(str(raised.value))
        assert messages == ["settings do not span the two-qubit operator space"] * 3
        assert _design(tuple(r.setting for r in records)).rank == 1


class TestWitnessFromCounts:
    def test_noiseless_singlet(self):
        records = noiseless_records(werner_state(1.0), witness_settings(), 10**6)
        estimate = witness_from_counts(records)
        assert estimate.value == pytest.approx(-0.5, abs=1e-12)

    def test_noiseless_fully_mixed(self):
        records = noiseless_records(werner_state(0.0), witness_settings(), 10**6)
        estimate = witness_from_counts(records)
        assert estimate.value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_witness_operator_on_random_states(self, seed):
        # The witness operator and the count estimate share WITNESS_SIGNS;
        # on states outside the Werner family they must still agree.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / m.trace().real)
        # rounding the expected counts at this flux moves the estimate by < 1e-11
        total = 10**12
        records = [
            CountRecord(setting=s, counts=round(total * born_probability(rho, s)))
            for s in witness_settings()
        ]
        estimate = witness_from_counts(records)
        assert estimate.value == pytest.approx(witness_expectation(rho), abs=1e-9)

    def test_missing_setting_rejected(self):
        records = noiseless_records(werner_state(0.5), witness_settings(), 10**6)
        with pytest.raises(ValueError):
            witness_from_counts(records[:-1])

    def test_estimate_within_error_bars(self):
        w = werner_state(0.6)
        records = simulate_counts(w, witness_settings(), 10**5, seed=31)
        estimate = witness_from_counts(records)
        assert abs(estimate.value - (-0.2)) <= 3 * estimate.stderr
        assert 0.0 < estimate.stderr < 0.01

    def test_stderr_calibrated_against_spread(self):
        # propagated Poisson error should track the seed-to-seed spread
        w = werner_state(0.6)
        values, errors = [], []
        for seed in range(200):
            records = simulate_counts(w, witness_settings(), 10**4, seed=seed)
            estimate = witness_from_counts(records)
            values.append(estimate.value)
            errors.append(estimate.stderr)
        empirical = np.std(values)
        propagated = np.mean(errors)
        assert empirical == pytest.approx(propagated, rel=0.3)

    def test_agrees_with_reconstructed_expectation(self):
        w = werner_state(0.6)
        records_8 = simulate_counts(w, witness_settings(), 10**5, seed=6)
        direct = witness_from_counts(records_8)
        records_16 = simulate_counts(
            w, standard_tomography_settings(), 10**5, seed=6
        )
        result = ml_reconstruction(records_16, total_per_setting=10**5)
        reconstructed = witness_expectation(result.state)
        combined = np.sqrt(2.0) * direct.stderr
        assert abs(direct.value - reconstructed) <= 3 * combined


class TestCountRecordCSV:
    def test_round_trip(self, tmp_path):
        w = werner_state(0.6)
        records = simulate_counts(w, witness_settings(), 1000, seed=2)
        path = tmp_path / "counts.csv"
        write_count_records(records, path)
        loaded = read_count_records(path)
        assert [r.counts for r in loaded] == [r.counts for r in records]
        assert [r.setting.label for r in loaded] == [r.setting.label for r in records]
        assert all(r.seed == 2 for r in loaded)

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "label,stateA,stateB,counts,seed\nHH,H,H,notanumber,0\n"
        )
        with pytest.raises(ValueError, match=":2:"):
            read_count_records(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(ValueError, match=":1:"):
            read_count_records(path)

    def test_old_duration_header_rejected(self, tmp_path):
        path = tmp_path / "old.csv"
        path.write_text("label,stateA,stateB,counts,duration_s,seed\nHH,H,H,10,1.0,0\n")
        with pytest.raises(ValueError, match=":1:"):
            read_count_records(path)

    def test_swapped_labels_rejected_with_line_number(self, tmp_path):
        # Relabelling the HH and DD rows of real data must not pass: the
        # flux estimate reads settings by label, the estimators by letters.
        rho = DensityMatrix(np.diag([0.7, 0.1, 0.1, 0.1]))
        records = simulate_counts(rho, standard_tomography_settings(), 10**5, seed=5)
        path = tmp_path / "counts.csv"
        write_count_records(records, path)
        result = ml_reconstruction(read_count_records(path))
        assert fidelity(result.state, rho) > 0.999
        lines = path.read_text().splitlines()
        hh = next(i for i, line in enumerate(lines) if line.startswith("HH,"))
        dd = next(i for i, line in enumerate(lines) if line.startswith("DD,"))
        lines[hh] = "DD" + lines[hh][2:]
        lines[dd] = "HH" + lines[dd][2:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":{hh + 1}: .*does not match"):
            read_count_records(path)

    def test_empty_label_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("label,stateA,stateB,counts,seed\n,H,H,10,0\n")
        with pytest.raises(ValueError, match=":2: .*does not match"):
            read_count_records(path)

    def test_largest_exact_count_accepted(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(f"label,stateA,stateB,counts,seed\nHH,H,H,{2**53},0\n")
        (record,) = read_count_records(path)
        assert record.counts == 2**53

    @pytest.mark.parametrize("counts", [2**53 + 1, 10**400], ids=["2**53+1", "10**400"])
    def test_counts_beyond_exact_integers_rejected(self, counts, tmp_path):
        # float64 sums of such counts are inexact or overflow in the flux estimate
        path = tmp_path / "counts.csv"
        path.write_text(f"label,stateA,stateB,counts,seed\nHH,H,H,{counts},0\n")
        with pytest.raises(ValueError, match=r":2: malformed row: counts must be at most 2\*\*53"):
            read_count_records(path)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountRecord(setting=ProjectorSetting("H", "H"), counts=-1)
