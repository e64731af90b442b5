import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spdc_werner
from spdc_werner.calibration import synthetic_calibration_points, write_calibration_csv
from spdc_werner.channel import pair_number_series_state
from spdc_werner import cli, fock
from spdc_werner.cli import main
from spdc_werner.fock import DensityMatrix
from spdc_werner.metrics import (
    WernerDescriptor,
    concurrence_tangle,
    fidelity,
    linear_entropy,
    singlet_weight_extract,
    werner_state,
    witness_expectation,
)
from spdc_werner.source import GainChannelParams


def run(argv):
    return main(argv)


class TestSweep:
    def test_csv_rows_and_determinism(self, tmp_path):
        out1 = tmp_path / "sweep1.csv"
        out2 = tmp_path / "sweep2.csv"
        argv = ["sweep", "--g", "0.1,1,0.3", "--eta", "0.01"]
        assert run(argv + ["--out", str(out1)]) == 0
        assert run(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "g,eta,p_theory,p_series,tangle,linear_entropy,witness"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = [float(x) for x in line.split(",")]
            assert fields[2] == pytest.approx(fields[3], abs=1e-8)

    def test_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--g", "0.5", "--eta", "0.02",
                    "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert rows[0]["p_theory"] == pytest.approx(rows[0]["p_series"], abs=1e-8)

    def test_empty_grid_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--g", "", "--eta", "0.01"])
        assert err.value.code == 2

    def test_failing_row_continues_and_flags(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        # g=0 row fails (no pairs); the other row must still be produced
        assert run(["sweep", "--g", "0,0.5", "--eta", "0.01",
                    "--out", str(out)]) == 1
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "error" in capsys.readouterr().err

    def test_edge_grid_fails_only_the_series_check_at_high_gain_low_loss(
        self, tmp_path, capsys
    ):
        gs = [1e-8, 1e-3, 0.5, 2.0, 8.0, 15.0, 30.0]
        etas = [1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-12]
        out = tmp_path / "edge.csv"
        assert run(["sweep", "--g", ",".join(map(repr, gs)),
                    "--eta", ",".join(map(repr, etas)), "--out", str(out)]) == 1
        failing = {(g, eta) for g in (8.0, 15.0, 30.0) for eta in (1e-12, 1e-6)}
        err_lines = capsys.readouterr().err.strip().splitlines()
        assert len(err_lines) == len(failing)
        for line in err_lines:
            g_text, eta_text, message = re.fullmatch(
                r"error: g=(\S+) eta=(\S+): (.*)", line).groups()
            assert (float(g_text), float(eta_text)) in failing
            assert message.startswith("series check truncated at 5000000 terms")
        rows = [tuple(float(x) for x in line.split(",")[:2])
                for line in out.read_text().strip().splitlines()[1:]]
        assert rows == [(g, eta) for g in gs for eta in etas
                        if (g, eta) not in failing]

    def test_saturated_ratio_is_one_error_line(self, capsys):
        # tanh(30) and 1 - 1e-20 round to 1.0, so x = 1 and no tail bound exists
        assert run(["sweep", "--g", "30", "--eta", "1e-20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "g,eta,p_theory,p_series,tangle,linear_entropy,witness\n"
        assert captured.err == (
            "error: g=30.0 eta=1e-20: series check truncated at 5000000 terms; "
            "relative tail bound inf exceeds tolerance 1.0e-12\n"
        )

    def test_rows_match_series_check_and_werner_metrics(self, tmp_path):
        gs = [0.05, 0.7, 2.5, 8.0]
        etas = [0.005, 0.3, 0.9]
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--g", ",".join(map(repr, gs)),
                    "--eta", ",".join(map(repr, etas)),
                    "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())
        assert [(r["g"], r["eta"]) for r in rows] == [(g, e) for g in gs for e in etas]
        for row in rows:
            params = GainChannelParams(g=row["g"], eta=row["eta"])
            series = pair_number_series_state(params)
            assert row["p_series"] == singlet_weight_extract(series)
            werner = WernerDescriptor(row["p_theory"])
            assert row["tangle"] == werner.tangle
            assert row["linear_entropy"] == werner.linear_entropy
            assert row["witness"] == werner.witness_value
            # criterion 3: the analytic values agree with the spectral ones
            rho = werner_state(row["p_theory"])
            assert abs(row["tangle"] - concurrence_tangle(rho)[1]) <= 1e-10
            assert abs(row["linear_entropy"] - linear_entropy(rho)) <= 1e-12
            assert abs(row["witness"] - witness_expectation(rho)) <= 1e-12


class TestMatrix:
    def test_schema_and_content(self, tmp_path):
        out = tmp_path / "rho.json"
        assert run(["matrix", "--g", "1.313", "--eta", "0.016",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 4
        assert payload["basis"] == ["HH", "HV", "VH", "VV"]
        dm = DensityMatrix.from_dict(payload)
        assert dm.trace == pytest.approx(1.0, abs=1e-12)

    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        assert run(["matrix", "--g", "0.5", "--eta", "0.01",
                    "--out", "nested/rho.json"]) == 0
        assert (tmp_path / "nested" / "rho.json").exists()

    @pytest.mark.parametrize("command", [
        ["matrix", "--out", "rho.json"],
        ["tomo", "simulate", "--counts-per-setting", "10", "--seed", "1",
         "--out", "counts.csv"],
    ])
    def test_high_loss_warning_for_valid_input(self, command, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        assert run(command + ["--g", "1.313", "--eta", "0.5"]) == 0
        assert capsys.readouterr().err == (
            "warning: eta*sinh^2(g) = 1.49 > 0.1; "
            "the two-photon treatment assumes high loss\n"
        )

    @pytest.mark.parametrize("command", [
        ["matrix", "--out", "rho.json"],
        ["tomo", "simulate", "--counts-per-setting", "10", "--seed", "1",
         "--out", "counts.csv"],
    ])
    def test_gain_past_photon_number_overflow(self, command, tmp_path, monkeypatch,
                                              capsys):
        # sinh(400)^2 overflows a double; the state is still written
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        assert run(command + ["--g", "400", "--eta", "0.5"]) == 0
        assert capsys.readouterr().err == (
            "warning: eta*sinh^2(g) = inf > 0.1; "
            "the two-photon treatment assumes high loss\n"
        )
        (written,) = tmp_path.iterdir()
        if written.name == "rho.json":
            rho = DensityMatrix.from_dict(json.loads(written.read_text()))
            assert singlet_weight_extract(rho) == pytest.approx(2.0 / 3.0, abs=1e-15)
        else:
            assert len(written.read_text().splitlines()) == 17

    @pytest.mark.parametrize("command", [
        ["matrix"],
        ["tomo", "simulate", "--counts-per-setting", "10", "--seed", "1",
         "--out", "counts.csv"],
        ["sweep"],
    ])
    def test_nmax_is_rejected(self, command, tmp_path, monkeypatch):
        # the closed-form state has no truncation to set, and the series
        # check's truncation rule is fixed
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        with pytest.raises(SystemExit) as err:
            run(command + ["--g", "0.5", "--eta", "0.01", "--nmax", "100"])
        assert err.value.code == 2
        assert not list(tmp_path.iterdir())


class TestOracleCheck:
    def test_default_grid_passes(self, capsys):
        assert run(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert "worst deviation" in out
        assert "FAIL" not in out

    def test_capacity_error(self, capsys):
        assert run(["oracle-check", "--n", "5"]) == 1
        assert "capacity" in capsys.readouterr().err.lower()

    def test_near_lossless_still_passes(self):
        assert run(["oracle-check", "--n", "2", "--eta", "0.9999"]) == 0

    def test_tolerance_is_fixed(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["oracle-check", "--tol", "0"])
        assert err.value.code == 2
        assert run(["oracle-check", "--n", "1", "--eta", "0.1"]) == 0
        assert capsys.readouterr().out.endswith("(tolerance 1.0e-10)\n")

    def test_no_matrix_over_all_eight_modes(self, monkeypatch):
        # the oracle traces the beam-splitter state itself, so neither
        # outer_product nor any other route forms the eight-mode projector
        def refuse(state):
            raise AssertionError("outer_product called")

        original = fock.outer_product
        for module in [m for name, m in list(sys.modules.items())
                       if name.startswith("spdc_werner")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, refuse)
        slots = set()
        post_init = DensityMatrix.__post_init__

        def record(self):
            slots.update(label.count(",") + 1 for label in self.basis)
            post_init(self)

        monkeypatch.setattr(DensityMatrix, "__post_init__", record)
        assert run(["oracle-check"]) == 0
        assert 4 in slots and 8 not in slots


class TestTomo:
    def test_simulate_then_reconstruct(self, tmp_path):
        counts = tmp_path / "counts.csv"
        assert run([
            "tomo", "simulate", "--g", "1.313", "--eta", "0.016",
            "--counts-per-setting", "20000", "--seed", "7",
            "--out", str(counts),
        ]) == 0
        report_path = tmp_path / "report.json"
        assert run([
            "tomo", "reconstruct", "--input", str(counts),
            "--counts-per-setting", "20000",
            "--g", "1.313", "--eta", "0.016",
            "--out", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"]["fidelity_vs_theory"] >= 0.995
        assert report["iterations"] > 0
        state = DensityMatrix.from_dict(report["state"])
        assert state.trace == pytest.approx(1.0, abs=1e-10)

    def test_simulate_deterministic(self, tmp_path):
        args = ["tomo", "simulate", "--g", "0.5", "--eta", "0.01",
                "--counts-per-setting", "1000", "--seed", "3"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", [
        ["simulate", "--g", "0.5", "--eta", "0.01", "--seed", "1", "--out", "c.csv"],
        ["reconstruct", "--input", "c.csv"],
    ], ids=["simulate", "reconstruct"])
    def test_nonpositive_counts_per_setting_is_usage_error(
        self, command, value, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        with pytest.raises(SystemExit) as err:
            run(["tomo"] + command + ["--counts-per-setting", value])
        assert err.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_reconstruct_missing_file(self, tmp_path, capsys):
        assert run(["tomo", "reconstruct",
                    "--input", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_reconstruct_singlet_noiseless(self, tmp_path):
        # counts proportional to exact singlet probabilities
        from spdc_werner.tomography import (
            CountRecord, standard_tomography_settings, born_probability,
            write_count_records,
        )
        singlet = werner_state(1.0)
        total = 10**6
        records = [
            CountRecord(setting=s, counts=round(total * born_probability(singlet, s)))
            for s in standard_tomography_settings()
        ]
        counts = tmp_path / "counts.csv"
        write_count_records(records, counts)
        report_path = tmp_path / "report.json"
        assert run(["tomo", "reconstruct", "--input", str(counts),
                    "--counts-per-setting", str(total),
                    "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["metrics"]["p"] == pytest.approx(1.0, abs=1e-3)


class TestErrorPath:
    @pytest.mark.parametrize("argv, names", [
        (["matrix", "--g", "0.1", "--eta", "1"], ""),
        (["tomo", "simulate", "--g", "0.1", "--eta", "1", "--counts-per-setting", "10",
          "--seed", "1", "--out", "counts.csv"], ""),
        (["tomo", "reconstruct", "--input", "witness.csv"], ""),
        (["oracle-check", "--eta", "0"], ""),
        (["oracle-check", "--n", "1,5"], "n=5 exceeds brute-force capacity 4"),
        (["oracle-check", "--n", "1", "--eta", "0.1,0"], "transmittivity"),
        (["oracle-check", "--n", "1,-1", "--eta", "0.1"], "pair number"),
        (["tomo", "reconstruct", "--input", "tomo.csv", "--g", "1.3",
          "--out", "recon.json"], "--g and --eta"),
        (["tomo", "reconstruct", "--input", "tomo.csv", "--eta", "0.01",
          "--out", "recon.json"], "--g and --eta"),
        (["matrix", "--g", "nan", "--eta", "0.01"], "gain"),
        (["fit", "--input", "calib.csv", "--rate", "nan"], "repetition rate"),
        (["fit", "--input", "calib.csv", "--rate", "inf"], "repetition rate"),
        # above the high-loss warning threshold: the input is rejected before
        # any warning about it is printed
        (["matrix", "--g", "1.313", "--eta", "1"], "transmittivity"),
        (["tomo", "simulate", "--g", "2", "--eta", "1", "--counts-per-setting", "10",
          "--seed", "1", "--out", "counts.csv"], "transmittivity"),
        # counts drawn above 2**53 are not exact integers
        (["tomo", "simulate", "--g", "1.313", "--eta", "0.016", "--counts-per-setting",
          "10000000000000000000", "--seed", "1", "--out", "counts.csv"],
         "total_per_setting must be at most 2**53, got 10000000000000000000"),
        (["tomo", "simulate", "--g", "1.313", "--eta", "0.016", "--counts-per-setting",
          "100000000000000000000", "--seed", "1", "--out", "counts.csv"],
         "total_per_setting must be at most 2**53, got 100000000000000000000"),
    ], ids=["matrix", "tomo-simulate", "tomo-reconstruct-8-settings", "oracle-check",
            "oracle-check-capacity", "oracle-check-late-eta", "oracle-check-negative-n",
            "tomo-reconstruct-lone-g", "tomo-reconstruct-lone-eta", "matrix-nan-gain",
            "fit-nan-rate", "fit-inf-rate", "matrix-no-warning",
            "tomo-simulate-no-warning", "tomo-simulate-1e19-counts",
            "tomo-simulate-1e20-counts"])
    def test_bad_input_is_one_error_line(self, argv, names, tmp_path, monkeypatch,
                                         capsys):
        # every subcommand reports bad input as `error: ...` and exit code 1,
        # with no traceback and no partial output
        from spdc_werner.tomography import (
            simulate_counts, standard_tomography_settings, witness_settings,
            write_count_records,
        )
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPDC_WERNER_OUTDIR", raising=False)
        write_count_records(
            simulate_counts(werner_state(0.6), witness_settings(), 1000, seed=1),
            "witness.csv",
        )
        write_count_records(
            simulate_counts(werner_state(0.6), standard_tomography_settings(), 1000,
                            seed=1),
            "tomo.csv",
        )
        write_calibration_csv(
            synthetic_calibration_points(1.313, {1: 0.016}, 250000.0,
                                         np.linspace(0.1, 1.0, 6)),
            "calib.csv",
        )
        inputs = sorted(p.name for p in tmp_path.iterdir())
        assert run(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert names in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_nan_tolerance_fails(self, monkeypatch, capsys):
        # the row status and the exit code come from the same comparison
        monkeypatch.setattr(cli, "ORACLE_TOL", float("nan"))
        assert run(["oracle-check", "--n", "1", "--eta", "0.1"]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestFit:
    def test_bundled_style_dataset(self, tmp_path):
        points = synthetic_calibration_points(
            1.313, {1: 0.016, 2: 0.014}, 250000.0,
            np.linspace(0.05, 1.0, 12), noise_fraction=0.01, seed=20260809,
        )
        csv_path = tmp_path / "calib.csv"
        write_calibration_csv(points, csv_path)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", str(csv_path), "--rate", "250000",
                    "--out", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert abs(fit["g_max"] - 1.313) / 1.313 < 0.02
        assert fit["etas"]["1"] == pytest.approx(0.016, rel=0.2)

    def test_repository_demo_dataset(self, tmp_path):
        from pathlib import Path
        demo = Path(__file__).resolve().parents[1] / "data" / "calibration_demo.csv"
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", str(demo), "--rate", "250000",
                    "--out", str(out)]) == 0
        fit = json.loads(out.read_text())
        assert abs(fit["g_max"] - 1.313) / 1.313 < 0.02

    def test_insufficient_points(self, tmp_path, capsys):
        points = synthetic_calibration_points(
            1.313, {1: 0.016}, 250000.0, [0.5, 1.0]
        )
        csv_path = tmp_path / "calib.csv"
        write_calibration_csv(points, csv_path)
        assert run(["fit", "--input", str(csv_path), "--rate", "250000"]) == 1
        assert "error" in capsys.readouterr().err


class TestLazyScipyImport:
    """Only ``fit`` and ``tomo reconstruct`` optimize, so only they import scipy."""

    PRINT_SCIPY_MODULES = ("import sys; print(sorted(m for m in sys.modules "
                     "if m == 'scipy' or m.startswith('scipy.')))")

    @staticmethod
    def python(code, cwd):
        # a fresh interpreter: this test process has imported scipy already
        env = {k: v for k, v in os.environ.items() if k != "SPDC_WERNER_OUTDIR"}
        src = str(Path(spdc_werner.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_commands_that_do_not_optimize(self, tmp_path):
        code = "\n".join([
            "import spdc_werner, spdc_werner.cli",
            self.PRINT_SCIPY_MODULES,
            "for argv in [",
            "    ['sweep', '--g', '0.1,1', '--eta', '0.01', '--out', 'sweep.csv'],",
            "    ['matrix', '--g', '1.313', '--eta', '0.016', '--out', 'matrix.json'],",
            "    ['oracle-check', '--n', '1,2'],",
            "    ['tomo', 'simulate', '--g', '1.313', '--eta', '0.016',",
            "     '--counts-per-setting', '1000', '--seed', '1', '--out', 'counts.csv'],",
            "]:",
            "    assert spdc_werner.cli.main(argv) == 0, argv",
            self.PRINT_SCIPY_MODULES,
        ])
        lines = self.python(code, tmp_path)
        assert lines[0] == "[]"
        assert lines[-1] == "[]"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "counts.csv", "matrix.json", "sweep.csv"]

    @pytest.mark.parametrize("argv", [
        ["fit", "--input", str(Path(__file__).resolve().parents[1] / "data"
                               / "calibration_demo.csv"), "--rate", "250000"],
        ["tomo", "reconstruct", "--input", "counts.csv"],
    ], ids=["fit", "tomo-reconstruct"])
    def test_commands_that_optimize(self, argv, tmp_path):
        assert run(["tomo", "simulate", "--g", "1.313", "--eta", "0.016",
                    "--counts-per-setting", "1000", "--seed", "1",
                    "--out", str(tmp_path / "counts.csv")]) == 0
        code = "\n".join([
            "import spdc_werner.cli",
            f"assert spdc_werner.cli.main({argv!r}) == 0",
            "import sys; print('scipy.optimize' in sys.modules)",
        ])
        assert self.python(code, tmp_path)[-1] == "True"
