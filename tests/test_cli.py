import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from spdc_werner.calibration import (
    fit_gain,
    synthetic_calibration_points,
    write_calibration_csv,
)
from spdc_werner.channel import BRUTE_FORCE_MAX_PAIRS
from spdc_werner import calibration, channel, cli, fock, metrics, tomography
from spdc_werner.cli import main
from spdc_werner.fock import DensityMatrix
from spdc_werner.metrics import (
    WernerDescriptor,
    concurrence_tangle,
    linear_entropy,
    singlet_weight_extract,
    werner_state,
    witness_expectation,
)
from spdc_werner.source import GainChannelParams

from series_reference import SERIES_TAIL_TOL, pair_number_series

DEMO_CSV = str(Path(__file__).resolve().parents[1] / "data" / "calibration_demo.csv")


def run(argv):
    return main(argv)


def json_state(data):
    """The ``DensityMatrix`` of a state's JSON, from its ``re`` and ``im`` arrays."""
    return DensityMatrix(np.array(data["re"]) + 1j * np.array(data["im"]))


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
        # an empty field is an invalid value, not one point fewer
        for grid in ("", "1,,2", "1,"):
            with pytest.raises(SystemExit) as err:
                run(["sweep", "--g", grid, "--eta", "0.01"])
            assert err.value.code == 2

    def test_failing_row_continues_and_flags(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        # g=0 row fails (no pairs); the other row must still be produced
        assert run(["sweep", "--g", "0,0.5", "--eta", "0.01",
                    "--out", str(out)]) == 1
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "error" in capsys.readouterr().err

    def test_each_point_is_built_once(self, monkeypatch, capsys):
        # building a point is its one check
        built = []
        post_init = GainChannelParams.__post_init__

        def counting(params):
            built.append((params.g, params.eta))
            post_init(params)

        monkeypatch.setattr(GainChannelParams, "__post_init__", counting)
        assert run(["sweep", "--g", "0,0.5,1", "--eta", "0.016"]) == 1
        assert built == [(0.0, 0.016), (0.5, 0.016), (1.0, 0.016)]
        assert capsys.readouterr().err == (
            "error: g=0.0 eta=0.016: no pairs are emitted at g = 0; "
            "coincidence state undefined\n"
        )

    def test_open_interval_message_for_any_bad_eta(self, capsys):
        assert run(["sweep", "--g", "0.5", "--eta", "0,1,1.5,nan"]) == 1
        assert capsys.readouterr().err == "".join(
            f"error: g=0.5 eta={eta}: transmittivity must lie strictly in (0, 1), "
            f"got {eta}\n"
            for eta in ("0.0", "1.0", "1.5", "nan")
        )

    def test_infinite_gain_is_one_error_line(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--g", "inf,1", "--eta", "0.01", "--format", "json",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: g=inf eta=0.01: gain must be finite, got inf\n"
        )
        rows = json.loads(out.read_text())
        assert [(row["g"], row["eta"]) for row in rows] == [(1.0, 0.01)]

    def test_edge_grid_gives_every_row(self, tmp_path, capsys):
        gs = [1e-8, 1e-3, 0.5, 2.0, 8.0, 15.0, 30.0]
        etas = [1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-12]
        out = tmp_path / "edge.csv"
        assert run(["sweep", "--g", ",".join(map(repr, gs)),
                    "--eta", ",".join(map(repr, etas)), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        rows = [tuple(float(x) for x in line.split(",")[:2])
                for line in out.read_text().strip().splitlines()[1:]]
        assert rows == [(g, eta) for g in gs for eta in etas]

    def test_saturated_ratio_keeps_the_margin(self, tmp_path):
        # tanh(30) and 1 - 1e-20 round to 1.0, so x = 1 and p is exactly
        # 1/3; the margin, about 4.4e-21, keeps the witness negative
        out = tmp_path / "sweep.json"
        assert run(["sweep", "--g", "30", "--eta", "1e-20", "--format", "json",
                    "--out", str(out)]) == 0
        [row] = json.loads(out.read_text())
        assert row["p_theory"] == row["p_series"] == 1.0 / 3.0
        assert row["witness"] < 0.0

    @pytest.mark.parametrize("g,eta", [(20.0, 5e-17), (30.0, 1e-300)])
    def test_entangled_where_p_rounds_to_one_third(self, g, eta, capsys):
        # x rounds to 1 here, so the truncated series has no tail bound;
        # the margin is 2.6e-17 at (20, 5e-17) and 7.8e-27 at (30, 1e-300)
        assert run(["sweep", "--g", repr(g), "--eta", repr(eta), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        [row] = json.loads(captured.out)
        assert (row["g"], row["eta"]) == (g, eta)
        assert row["witness"] < 0.0
        assert abs(row["p_series"] - row["p_theory"]) <= 1e-15 * row["p_theory"]

    def test_rows_match_series_sum_and_werner_metrics(self, tmp_path):
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
            werner = WernerDescriptor.at(params)
            # p_series is the series' exact sum, written through the margin
            assert row["p_series"] == 1.0 / 3.0 + werner.delta
            series_p = pair_number_series(params).p
            assert abs(row["p_series"] - series_p) <= SERIES_TAIL_TOL * series_p
            assert row["p_theory"] == werner.p
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
        dm = json_state(payload)
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
            rho = json_state(json.loads(written.read_text()))
            assert singlet_weight_extract(rho) == pytest.approx(2.0 / 3.0, abs=1e-15)
        else:
            assert len(written.read_text().splitlines()) == 17

    @pytest.mark.parametrize("g, warning", [
        ("360", ""),
        ("720", "warning: eta*sinh^2(g) = 2.99e+301 > 0.1; "
                "the two-photon treatment assumes high loss\n"),
    ], ids=["360", "720"])
    def test_warning_level_past_photon_number_overflow(self, g, warning, tmp_path,
                                                       monkeypatch, capsys):
        # sinh(g)^2 overflows, eta*sinh^2(g) need not: at g = 360 it is 6.1e-12,
        # and both points used to warn "eta*sinh^2(g) = inf"
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        assert run(["matrix", "--g", g, "--eta", "5e-324", "--out", "rho.json"]) == 0
        assert capsys.readouterr().err == warning

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
        assert run(["oracle-check", "--n", str(BRUTE_FORCE_MAX_PAIRS + 1)]) == 1
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
        # outer_product nor any other route forms the eight-mode projector:
        # every matrix that reaches post-selection is over the four
        # transmitted modes
        def refuse(state):
            raise AssertionError("outer_product called")

        widths = set()
        select = channel.post_select_two_photon

        def record(reduced):
            occupations, _ = reduced
            widths.update(len(occ) for occ in occupations)
            return select(reduced)

        for original, replacement in [(fock.outer_product, refuse), (select, record)]:
            for module in [m for name, m in list(sys.modules.items())
                           if name.startswith("spdc_werner")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, replacement)
        assert run(["oracle-check"]) == 0
        assert 4 in widths and 8 not in widths


SIMULATE = ["simulate", "--g", "0.5", "--eta", "0.01", "--out", "c.csv"]
RECONSTRUCT = ["reconstruct", "--input", "c.csv"]


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
        state = json_state(report["state"])
        assert state.trace == pytest.approx(1.0, abs=1e-10)

    def test_simulate_deterministic(self, tmp_path):
        args = ["tomo", "simulate", "--g", "0.5", "--eta", "0.01",
                "--counts-per-setting", "1000", "--seed", "3"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # an integer option below its minimum: --counts-per-setting below 1, --seed below 0
    @pytest.mark.parametrize("command,option,value", [
        pytest.param(SIMULATE + ["--seed", "1"], "--counts-per-setting", "0", id="simulate-0"),
        pytest.param(SIMULATE + ["--seed", "1"], "--counts-per-setting", "-1", id="simulate--1"),
        pytest.param(RECONSTRUCT, "--counts-per-setting", "0", id="reconstruct-0"),
        pytest.param(RECONSTRUCT, "--counts-per-setting", "-1", id="reconstruct--1"),
        pytest.param(SIMULATE + ["--counts-per-setting", "1"], "--seed", "-1",
                     id="simulate-seed--1"),
    ])
    def test_nonpositive_counts_per_setting_is_usage_error(
        self, command, option, value, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SPDC_WERNER_OUTDIR", str(tmp_path))
        with pytest.raises(SystemExit) as err:
            run(["tomo"] + command + [option, value])
        assert err.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_integer_options_accept_their_minimum(self, tmp_path, monkeypatch):
        # --counts-per-setting 1 and --seed 0 are the smallest values allowed
        monkeypatch.delenv("SPDC_WERNER_OUTDIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert run(["tomo"] + SIMULATE + ["--counts-per-setting", "1", "--seed", "0"]) == 0
        assert run(["tomo"] + RECONSTRUCT + ["--counts-per-setting", "1",
                                             "--out", "r.json"]) == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["c.csv", "r.json"]

    def test_reconstruct_missing_file(self, tmp_path, capsys):
        assert run(["tomo", "reconstruct",
                    "--input", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err

    def test_reconstruct_checks_reference_before_fitting(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("counts read or fitted before the reference")

        # the handler imports tomography when it runs and reads both there
        monkeypatch.setattr(tomography, "read_count_records", refuse)
        monkeypatch.setattr(tomography, "ml_reconstruction", refuse)
        assert run(["tomo", "reconstruct", "--input", "counts.csv",
                    "--g", "1", "--eta", "1"]) == 1
        assert capsys.readouterr().err == (
            "error: transmittivity must lie strictly in (0, 1), got 1.0\n"
        )

    def test_reconstruct_repeated_complete_basis_setting(self, tmp_path, capsys):
        # the flux estimate cannot tell which of two HH rows to count
        counts = tmp_path / "counts.csv"
        assert run(["tomo", "simulate", "--g", "1.313", "--eta", "0.016",
                    "--counts-per-setting", "1000", "--seed", "1",
                    "--out", str(counts)]) == 0
        header, *rows = counts.read_text().splitlines()
        (hh,) = [row for row in rows if row.startswith("HH,")]
        counts.write_text("\n".join([header, *rows, hh]) + "\n")
        assert run(["tomo", "reconstruct", "--input", str(counts)]) == 1
        assert capsys.readouterr() == ("", (
            "error: cannot estimate flux: complete-basis settings ['HH'] repeated "
            "and no total_per_setting given\n"
        ))

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
        (["oracle-check", "--n", f"1,{BRUTE_FORCE_MAX_PAIRS + 1}"],
         f"n={BRUTE_FORCE_MAX_PAIRS + 1} exceeds brute-force capacity "
         f"{BRUTE_FORCE_MAX_PAIRS}"),
        (["oracle-check", "--n", "1", "--eta", "0.1,0"], "transmittivity"),
        (["oracle-check", "--n", "1,-1", "--eta", "0.1"], "pair number"),
        (["tomo", "reconstruct", "--input", "tomo.csv", "--g", "1.3",
          "--out", "recon.json"], "--g and --eta"),
        (["tomo", "reconstruct", "--input", "tomo.csv", "--eta", "0.01",
          "--out", "recon.json"], "--g and --eta"),
        (["matrix", "--g", "nan", "--eta", "0.01"], "gain"),
        (["matrix", "--g", "inf", "--eta", "0.01"], "gain must be finite, got inf"),
        (["fit", "--input", "calib.csv", "--rate", "nan"], "repetition rate"),
        (["fit", "--input", "calib.csv", "--rate", "inf"], "repetition rate"),
        # the demo's rates reach 11,452/s, and the model saturates at the
        # repetition rate; this used to exit 0 with g_max 18.5
        (["fit", "--input", DEMO_CSV, "--rate", "1000"],
         "has rate 1019.73675577 at or above the repetition rate 1000.0"),
        # every relative residual rounds to 1: this used to return the start
        # point with an all-zero covariance
        (["fit", "--input", DEMO_CSV, "--rate", "1e300"],
         "the data do not determine the parameters"),
        # the data need efficiencies near 4e-17, below the 1e-12 bound, and
        # the minimum inside the bounds holds detector 2 on it: this used to
        # exit 0 with both efficiencies on the bound and g_max 0.049
        (["fit", "--input", DEMO_CSV, "--rate", "1e20"],
         "the fit ends on a parameter bound, where the data ask for a value the model "
         "cannot take: efficiency 2 = 1e-12"),
        # the model gives rate 0 at zero power, whatever the parameters: this
        # used to end the fit at its start with both efficiencies at 1
        (["fit", "--input", "dark.csv", "--rate", "250000"],
         "point 25 (power 0.0, detector 1) has rate 3.0 > 0, but the model gives 0 "
         "at zero power"),
        # a zero rate at a positive power has a relative residual of 1 whatever
        # the parameters; it used to inflate the covariance
        (["fit", "--input", "zero-rate.csv", "--rate", "250000"],
         "point 25 (power 0.05, detector 1) has rate 0 at a positive power, but the "
         "model gives more than 0 there"),
        # far above the model's ceiling, the point's residual used to overflow
        (["fit", "--input", "above.csv", "--rate", "250000"],
         "point 25 (power 1e-250, detector 1) has rate 1.0 above the most the model "
         "gives at that power, 4e-242 (efficiency 1, g_max = 40)"),
        # every relative residual is 1 to rounding, every Jacobian entry far below it
        (["fit", "--input", DEMO_CSV, "--rate", "1e185"],
         "the data do not determine the parameters: "),
        # above the high-loss warning threshold: the input is rejected before
        # any warning about it is printed
        (["matrix", "--g", "1.313", "--eta", "1"], "transmittivity"),
        (["tomo", "simulate", "--g", "2", "--eta", "1", "--counts-per-setting", "10",
          "--seed", "1", "--out", "counts.csv"], "transmittivity"),
        # counts drawn above 2**53 are not exact integers; the flux stays a
        # factor 2 below that
        (["tomo", "simulate", "--g", "1.313", "--eta", "0.016", "--counts-per-setting",
          "10000000000000000000", "--seed", "1", "--out", "counts.csv"],
         "total_per_setting must be at most 2**52, got 10000000000000000000"),
        (["tomo", "simulate", "--g", "1.313", "--eta", "0.016", "--counts-per-setting",
          "100000000000000000000", "--seed", "1", "--out", "counts.csv"],
         "total_per_setting must be at most 2**52, got 100000000000000000000"),
        # 10**400 used to overflow the flux estimate with a traceback
        (["tomo", "reconstruct", "--input", "big.csv"],
         "big.csv:2: malformed row: counts must be at most 2**53"),
        (["tomo", "reconstruct", "--input", "huge.csv"],
         "huge.csv:2: malformed row: counts must be at most 2**53"),
    ], ids=["matrix", "tomo-simulate", "tomo-reconstruct-8-settings", "oracle-check",
            "oracle-check-capacity", "oracle-check-late-eta", "oracle-check-negative-n",
            "tomo-reconstruct-lone-g", "tomo-reconstruct-lone-eta", "matrix-nan-gain",
            "matrix-inf-gain",
            "fit-nan-rate", "fit-inf-rate", "fit-rate-below-data", "fit-rate-1e300",
            "fit-rate-1e20", "fit-dark-rate", "fit-zero-rate", "fit-above-the-model",
            "fit-rate-1e185",
            "matrix-no-warning",
            "tomo-simulate-no-warning", "tomo-simulate-1e19-counts",
            "tomo-simulate-1e20-counts", "tomo-reconstruct-2**53+1-counts",
            "tomo-reconstruct-10**400-counts"])
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
        # tomo.csv with its HH row's counts beyond exact float64 integers
        tomo = Path("tomo.csv").read_text().splitlines()
        for name, counts in (("big.csv", 2**53 + 1), ("huge.csv", 10**400)):
            Path(name).write_text("\n".join([tomo[0], f"HH,H,H,{counts},1", *tomo[2:]]) + "\n")
        for name, row in (("dark.csv", "0,3,1"), ("zero-rate.csv", "0.05,0,1"),
                          ("above.csv", "1e-250,1,1")):
            Path(name).write_text(Path(DEMO_CSV).read_text() + row + "\n")
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

    # each JSON writer, with one value of its payload made NaN or infinite
    @pytest.mark.parametrize("argv, spoil", [
        (["sweep", "--g", "0.5", "--eta", "0.016", "--format", "json"],
         lambda mp: mp.setattr(WernerDescriptor, "witness_value", math.nan)),
        (["matrix", "--g", "1.313", "--eta", "0.016"],
         lambda mp: mp.setattr(DensityMatrix, "to_dict", lambda self: {"re": [math.inf]})),
        (["tomo", "reconstruct", "--input", "counts.csv"],
         lambda mp: mp.setattr(metrics, "metrics_report",
                               lambda rho, reference=None: {"p": math.nan})),
        (["fit", "--input", DEMO_CSV, "--rate", "250000"],
         lambda mp: mp.setattr(calibration, "fit_gain", lambda points, repetition_rate:
                               dataclasses.replace(fit_gain(points, repetition_rate),
                                                   g_max=-math.inf))),
    ], ids=["sweep", "matrix", "tomo-reconstruct", "fit"])
    def test_non_finite_json_is_one_error_line(self, argv, spoil, tmp_path, monkeypatch,
                                               capsys):
        # JSON has no NaN or infinity: the payload is refused before any
        # output, rather than written as a token strict parsers reject
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPDC_WERNER_OUTDIR", raising=False)
        assert run(["tomo", "simulate", "--g", "1.313", "--eta", "0.016",
                    "--counts-per-setting", "1000", "--seed", "1", "--out", "counts.csv"]) == 0
        spoil(monkeypatch)
        assert run(argv + ["--out", "out.json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["counts.csv"]

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
