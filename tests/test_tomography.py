import numpy as np
import pytest

from spdc_werner.errors import DesignError
from spdc_werner.fock import TWO_PHOTON_BASIS, DensityMatrix
from spdc_werner.metrics import (
    fidelity,
    linear_entropy,
    singlet_weight_extract,
    werner_state,
    witness_expectation,
)
from spdc_werner.tomography import (
    CountRecord,
    ProjectorSetting,
    _params_from_state,
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

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError):
            ProjectorSetting("H", "Q")

    def test_letter_label_must_match_letters(self):
        assert ProjectorSetting("H", "V", label="HV").label == "HV"
        with pytest.raises(ValueError, match="does not match"):
            ProjectorSetting("H", "H", label="DD")

    def test_explicit_ket_needs_label(self):
        with pytest.raises(ValueError):
            ProjectorSetting((1.0, 0.0), (0.0, 1.0))
        s = ProjectorSetting((1.0, 0.0), (0.0, 1.0), label="custom")
        np.testing.assert_allclose(
            s.projector(), ProjectorSetting("H", "V").projector(), atol=1e-15
        )

    def test_unnormalized_ket_rejected(self):
        with pytest.raises(ValueError):
            ProjectorSetting((1.0, 1.0), "H", label="bad")

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
        dm = DensityMatrix(TWO_PHOTON_BASIS, m / m.trace().real)
        for setting in standard_tomography_settings():
            assert 0.0 <= born_probability(dm, setting) <= 1.0


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
        with pytest.raises(ValueError):
            simulate_counts(werner_state(0.6), witness_settings(), 0, seed=1)


class TestLinearReconstruction:
    def test_exact_on_noiseless_singlet(self):
        singlet = werner_state(1.0)
        records = noiseless_records(singlet, standard_tomography_settings(), 10**6)
        recon = linear_reconstruction(records)
        np.testing.assert_allclose(recon.entries, singlet.entries, atol=1e-10)

    def test_exact_on_noiseless_werner(self):
        w = werner_state(0.6)
        records = noiseless_records(w, standard_tomography_settings(), 10**6)
        recon = linear_reconstruction(records, total_per_setting=10**6)
        np.testing.assert_allclose(recon.entries, w.entries, atol=1e-10)

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
        assert recon.trace == pytest.approx(1.0, abs=1e-12)


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

    def test_unphysical_init_produces_physical_output(self):
        w = werner_state(0.6)
        records = simulate_counts(w, standard_tomography_settings(), 200, seed=8)
        rough = linear_reconstruction(records)
        assert np.linalg.eigvalsh(rough.entries)[0] < 0  # noise made it indefinite
        result = ml_reconstruction(records, init=rough)
        vals = np.linalg.eigvalsh(result.state.entries)
        assert vals[0] >= -1e-10
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

    def test_params_invert_factor(self):
        records = simulate_counts(werner_state(0.6), standard_tomography_settings(),
                                  10**3, seed=4)
        t = _params_from_state(linear_reconstruction(records))
        factor = _triangular_from_params(t)
        assert np.all(np.triu(factor, 1) == 0)
        expected = np.zeros(16)
        expected[:4] = np.diag(factor).real
        for idx, (r, c) in enumerate(self.LOWER):
            expected[4 + 2 * idx] = factor[r, c].real
            expected[5 + 2 * idx] = factor[r, c].imag
        np.testing.assert_array_equal(t, expected)


class TestWitnessFromCounts:
    def test_noiseless_singlet(self):
        records = noiseless_records(werner_state(1.0), witness_settings(), 10**6)
        estimate = witness_from_counts(records)
        assert estimate.value == pytest.approx(-0.5, abs=1e-12)

    def test_noiseless_fully_mixed(self):
        records = noiseless_records(werner_state(0.0), witness_settings(), 10**6)
        estimate = witness_from_counts(records)
        assert estimate.value == pytest.approx(0.25, abs=1e-12)

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
        rho = DensityMatrix(TWO_PHOTON_BASIS, np.diag([0.7, 0.1, 0.1, 0.1]))
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

    def test_failed_write_leaves_no_file(self, tmp_path):
        records = [
            CountRecord(setting=ProjectorSetting("H", "H"), counts=3),
            CountRecord(setting=ProjectorSetting((1.0, 0.0), "V", label="ket"), counts=4),
        ]
        path = tmp_path / "counts.csv"
        with pytest.raises(ValueError, match="explicit kets"):
            write_count_records(records, path)
        assert not path.exists()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CountRecord(setting=ProjectorSetting("H", "H"), counts=-1)
