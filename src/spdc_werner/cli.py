"""Batch command-line front end.

Subcommands: ``sweep`` (gain/loss grids to CSV or JSON), ``matrix`` (export
one two-photon state), ``oracle-check`` (brute force versus closed form),
``tomo simulate`` / ``tomo reconstruct`` (coincidence counting and
maximum-likelihood tomography), and ``fit`` (gain calibration).

All stochastic subcommands require an explicit ``--seed``; given identical
arguments the outputs are byte-identical. Relative ``--out`` paths resolve
against ``$SPDC_WERNER_OUTDIR`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__

# At load this module imports only the standard library, ``source`` and
# ``errors``: ``sweep``, ``--version``, ``--help`` and usage errors need
# nothing else, so none of them loads numpy. ``fit`` imports calibration, and
# the other subcommands import all of the package's numpy modules through
# ``_numerical``, for the reason given at ``spdc_werner._NUMPY_MODULES``.
from .errors import ConvergenceError, FitError
from .source import (
    GainChannelParams,
    WernerDescriptor,
    transmitted_photons_per_mode,
)

HL_WARN_THRESHOLD = 0.1
# Largest entry deviation oracle-check accepts between the brute-force and
# closed-form blocks; both routes agree to rounding, far below it.
ORACLE_TOL = 1e-10
# sweep's CSV header and JSON keys, in CSV column order.
_SWEEP_COLUMNS = ("g", "eta", "p_theory", "p_series", "tangle",
                 "linear_entropy", "witness")


def _fmt(x: float) -> str:
    """Floats serialized with 12 significant digits for stable files."""
    return f"{x:.12g}"


def _resolve_out(path_str: str | None) -> Path | None:
    if path_str is None:
        return None
    path = Path(path_str)
    if not path.is_absolute():
        base = os.environ.get("SPDC_WERNER_OUTDIR")
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _parse_list(kind):
    """argparse type: a comma-separated list of ``kind`` values, none empty."""
    def parse(text: str) -> list:
        return [kind(part) for part in text.split(",")]
    parse.__name__ = f"_parse_{kind.__name__}s"  # named in argparse's usage errors
    return parse


def _int_at_least(minimum: int):
    """argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        if (value := int(text)) < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse's usage error reads "invalid int value"
    return parse


def _numerical():
    """``(channel, metrics, tomography)``; importing them imports ``fock`` too."""
    from . import channel, metrics, tomography

    return channel, metrics, tomography


def _warn_hl(params: GainChannelParams) -> None:
    level = transmitted_photons_per_mode(params)
    if level > HL_WARN_THRESHOLD:
        print(
            f"warning: eta*sinh^2(g) = {level:.3g} > {HL_WARN_THRESHOLD}; "
            "the two-photon treatment assumes high loss",
            file=sys.stderr,
        )


def _cmd_sweep(args) -> int:
    # A point fails only where GainChannelParams rejects it; rows and errors
    # keep the grid order. p_series is the pair-number series' exact sum,
    # 1/3 + delta: its two power sums have closed forms, and written through
    # the margin it is free of cancellation. The tests sum the series.
    rows = []
    failed = False
    for g in args.g:
        for eta in args.eta:
            try:
                werner = WernerDescriptor.at(GainChannelParams(g=g, eta=eta))
            except ValueError as error:
                failed = True
                print(f"error: g={g} eta={eta}: {error}", file=sys.stderr)
                continue
            rows.append((g, eta, werner.p, 1.0 / 3.0 + werner.delta, werner.tangle,
                         werner.linear_entropy, werner.witness_value))
    out = _resolve_out(args.out)
    if args.format == "json":
        _emit(_dump_json([dict(zip(_SWEEP_COLUMNS, row)) for row in rows]), out)
    else:
        line = ",".join(["%.12g"] * len(_SWEEP_COLUMNS)) + "\n"
        _emit(",".join(_SWEEP_COLUMNS) + "\n" + "".join(line % row for row in rows), out)
    return 1 if failed else 0


def _cmd_matrix(args) -> int:
    channel, _, _ = _numerical()
    params = GainChannelParams(g=args.g, eta=args.eta)
    rho = channel.two_photon_state(params)
    _warn_hl(params)
    payload = rho.to_dict()
    payload["g"] = args.g
    payload["eta"] = args.eta
    _emit(_dump_json(payload), _resolve_out(args.out))
    return 0


def _cmd_oracle_check(args) -> int:
    # Every block is computed before the first line is printed, so bad
    # input leaves no partial output.
    import numpy as np

    channel, _, _ = _numerical()
    rows = []
    for n in args.n:
        for eta in args.eta:
            brute = channel.post_select_two_photon(channel.transmitted_reduced_state(n, eta))
            closed = channel.two_photon_block_closed(n, eta)
            dev = float(np.max(np.abs(brute.entries - closed.entries)))
            rows.append((n, eta, dev, dev <= ORACLE_TOL))
    for n, eta, dev, ok in rows:
        print(f"n={n} eta={_fmt(eta)}: max deviation {dev:.3e} {'ok' if ok else 'FAIL'}")
    worst = max(dev for _, _, dev, _ in rows)
    print(f"worst deviation {worst:.3e} (tolerance {ORACLE_TOL:.1e})")
    return 0 if all(ok for *_, ok in rows) else 1


def _cmd_tomo_simulate(args) -> int:
    channel, _, tomography = _numerical()
    params = GainChannelParams(g=args.g, eta=args.eta)
    rho = channel.two_photon_state(params)
    _warn_hl(params)
    settings = (
        tomography.witness_settings() if args.settings == "witness"
        else tomography.standard_tomography_settings()
    )
    records = tomography.simulate_counts(rho, settings, args.counts_per_setting, args.seed)
    tomography.write_count_records(records, _resolve_out(args.out))
    return 0


def _cmd_tomo_reconstruct(args) -> int:
    if (args.g is None) != (args.eta is None):
        raise ValueError("--g and --eta must be given together")
    channel, metrics, tomography = _numerical()
    reference = None
    if args.g is not None:
        reference = channel.two_photon_state(GainChannelParams(g=args.g, eta=args.eta))
    records = tomography.read_count_records(args.input)
    result = tomography.ml_reconstruction(records, total_per_setting=args.counts_per_setting)
    payload = {
        "state": result.state.to_dict(),
        "log_likelihood": result.log_likelihood,
        "iterations": result.n_iterations,
        "metrics": metrics.metrics_report(result.state, reference=reference),
    }
    _emit(_dump_json(payload), _resolve_out(args.out))
    return 0


def _cmd_fit(args) -> int:
    from .calibration import fit_gain, read_calibration_csv

    fit = fit_gain(read_calibration_csv(args.input), repetition_rate=args.rate)
    payload = {
        "gain_scale": fit.gain_scale,
        "g_max": fit.g_max,
        "etas": {str(det): eta for det, eta in fit.etas.items()},
        "repetition_rate": fit.repetition_rate,
        "covariance": fit.covariance.tolist(),
        "residuals": fit.residuals.tolist(),
    }
    _emit(_dump_json(payload), _resolve_out(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spdc-werner",
        description="Lossy-channel down-conversion states: sweeps, "
        "oracle checks, tomography and calibration.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="grid of (g, eta) rows with Werner metrics")
    sweep.add_argument("--g", type=_parse_list(float), required=True,
                       help="comma-separated gain values")
    sweep.add_argument("--eta", type=_parse_list(float), required=True,
                       help="comma-separated transmittivities")
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.set_defaults(func=_cmd_sweep)

    matrix = sub.add_parser("matrix", help="export one two-photon state as JSON")
    matrix.add_argument("--g", type=float, required=True)
    matrix.add_argument("--eta", type=float, required=True)
    matrix.add_argument("--out", default=None)
    matrix.set_defaults(func=_cmd_matrix)

    oracle = sub.add_parser(
        "oracle-check",
        help="brute-force vs closed-form coincidence blocks",
    )
    oracle.add_argument("--n", type=_parse_list(int), default=[1, 2, 3, 4])
    oracle.add_argument("--eta", type=_parse_list(float),
                        default=[0.01, 0.1, 0.3, 0.5])
    oracle.set_defaults(func=_cmd_oracle_check)

    tomo = sub.add_parser("tomo", help="simulate or reconstruct coincidence data")
    tomo_sub = tomo.add_subparsers(dest="tomo_command", required=True)

    simulate = tomo_sub.add_parser("simulate", help="draw counts from a theory state")
    simulate.add_argument("--g", type=float, required=True)
    simulate.add_argument("--eta", type=float, required=True)
    simulate.add_argument("--counts-per-setting", type=_int_at_least(1), required=True)
    simulate.add_argument("--seed", type=_int_at_least(0), required=True)
    simulate.add_argument("--settings", choices=("tomography", "witness"),
                          default="tomography")
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(func=_cmd_tomo_simulate)

    reconstruct = tomo_sub.add_parser("reconstruct",
                                      help="maximum-likelihood state estimate")
    reconstruct.add_argument("--input", required=True, help="counts CSV")
    reconstruct.add_argument("--counts-per-setting", type=_int_at_least(1), default=None,
                             help="known flux per setting (default: estimated)")
    reconstruct.add_argument("--g", type=float, default=None,
                             help="reference gain for fidelity")
    reconstruct.add_argument("--eta", type=float, default=None,
                             help="reference transmittivity for fidelity")
    reconstruct.add_argument("--out", default=None)
    reconstruct.set_defaults(func=_cmd_tomo_reconstruct)

    fit = sub.add_parser("fit", help="gain calibration from rate-vs-power CSV")
    fit.add_argument("--input", required=True, help="calibration CSV")
    fit.add_argument("--rate", type=float, required=True,
                     help="pump repetition rate in Hz")
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; usage errors exit 2, and bad input or a failed
    computation is reported as ``error: ...`` on stderr with exit code 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ConvergenceError, FitError, OSError) as exc:
        detail = f" {exc.diagnostics}" if isinstance(exc, ConvergenceError) else ""
        print(f"error: {exc}{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
