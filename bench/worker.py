"""In-process side of the benchmark.

Runs the ``tomo-fit`` batches, and the traced passes of every workload, in
one Python process that imports the package once. Started by ``run.py`` as

    python bench/worker.py '<json spec>'

and prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import xlogy

import gate
import workloads
from tracer import Tracer, layer_totals

import spdc_werner as sw
from spdc_werner import calibration, cli

# One tomo-fit pass: ROUNDS round trips (the count levels in turn) and FITS
# calibration fits, about 0.2 s on a 2-core host.
ROUNDS = 12
FITS = 12


def _true_log_likelihood(records, truth) -> float:
    """Poisson log-likelihood of the true state, with the flux estimated from
    the complete basis as ``ml_reconstruction`` does when it is not given."""
    counts = np.array([r.counts for r in records], dtype=float)
    n_total = sum(r.counts for r in records if r.setting.label in ("HH", "HV", "VH", "VV"))
    projectors = np.array([r.setting.projector() for r in records])
    mu = n_total * np.einsum("aij,ji->a", projectors, truth.entries).real
    return float(np.sum(xlogy(counts, mu) - mu))


def tomo_pass(rng: random.Random, work: Path, rounds: int = ROUNDS, fits: int = FITS) -> dict:
    """Round trips and fits; each is timed alone, its check runs untimed.

    Counts and calibration data pass through their CSV files, as between
    the CLI's ``tomo simulate`` and ``tomo reconstruct``, and into ``fit``.
    """
    counts_csv, calibration_csv = work / "counts.csv", work / "calibration.csv"
    out = {"round_s": [], "fit_s": [], "verdict": gate.Verdict(), "within": 0}
    v = out["verdict"]
    for g, eta, n, seed in workloads.round_inputs(rng, rounds):
        try:
            start = time.perf_counter()
            truth = sw.two_photon_state(sw.GainChannelParams(g=g, eta=eta))
            sw.write_count_records(
                sw.simulate_counts(truth, sw.standard_tomography_settings(), n, seed),
                counts_csv)
            records = sw.read_count_records(counts_csv)
            sw.linear_reconstruction(records)
            ml = sw.ml_reconstruction(records)
            report = sw.metrics_report(ml.state, reference=truth)
            witness = sw.simulate_counts(truth, sw.witness_settings(), n, seed + 1)
            sw.witness_from_counts(witness)
            out["round_s"].append(time.perf_counter() - start)
        except (sw.ConvergenceError, ValueError):
            v.add(gate.REPORTED_FAILURE)
            continue
        pull = gate.witness_pull({r.setting.label: r.counts for r in witness},
                                 gate.werner_p(g, eta))
        v.add(gate.check_round(n, report["fidelity_vs_theory"], ml.log_likelihood,
                               _true_log_likelihood(records, truth), pull))
    scale, etas = workloads.FIT_TRUTH
    g_true = scale * math.sqrt(max(workloads.FIT_POWERS))
    for seed in workloads.fit_seeds(rng, fits):
        calibration.write_calibration_csv(sw.synthetic_calibration_points(
            scale, etas, workloads.DEMO_RATE, workloads.FIT_POWERS,
            noise_fraction=workloads.FIT_NOISE, seed=seed), calibration_csv)
        try:
            start = time.perf_counter()
            fit = sw.fit_gain(calibration.read_calibration_csv(calibration_csv),
                              workloads.DEMO_RATE)
            out["fit_s"].append(time.perf_counter() - start)
        except sw.FitError:
            v.add(gate.REPORTED_FAILURE)
            continue
        v.add(gate.check_fit(fit.g_max, g_true))
        out["within"] += abs(fit.g_max - g_true) <= gate.FIT_REL * g_true
    return out


def run_cli(op: workloads.Op) -> gate.Verdict:
    """``cli.main`` in-process with the same argv as the subprocess call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = cli.main(op.argv)
    return op.check(stdout.getvalue(), stderr.getvalue(), rc)


def _pass_runner(spec: dict):
    """A function that runs pass i of the workload and returns its verdict."""
    work = Path(spec["work"])
    if spec["workload"] == "derive":
        ops = workloads.derive_ops(spec["seed"])
        return lambda i: sum_verdicts(run_cli(op) for op in ops)
    if spec["workload"] == "cli-calls":
        demo = Path(spec["root"]) / "data" / "calibration_demo.csv"
        return lambda i: sum_verdicts(
            run_cli(op) for op in workloads.cli_ops(spec["seed"], i, work, demo))
    return lambda i: tomo_pass(random.Random(spec["seed"] * 1_000_003 + i), work)["verdict"]


def sum_verdicts(verdicts) -> gate.Verdict:
    total = gate.Verdict()
    for v in verdicts:
        total.add(v)
    return total


def traced_run(spec: dict) -> dict:
    """Pairs of one untraced and one traced pass over the same inputs, until
    the time is up; per-layer totals are per traced pass."""
    run_pass = _pass_runner(spec)
    tracer = Tracer()
    verdict, untraced, traced, pairs = gate.Verdict(), 0.0, 0.0, 0
    deadline = time.perf_counter() + spec["seconds"]
    while pairs == 0 or time.perf_counter() + (untraced + traced) / pairs < deadline:
        for traced_first in (pairs % 2 == 1, pairs % 2 == 0):  # alternate the order
            start = time.perf_counter()
            if traced_first:
                tracer.install()
            try:
                verdict.add(run_pass(pairs))
            finally:
                tracer.uninstall()
            if traced_first:
                traced += time.perf_counter() - start
            else:
                untraced += time.perf_counter() - start
        pairs += 1
    with open(Path(spec["work"]) / "spans.jsonl", "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    totals = layer_totals(tracer.spans)
    totals.update(tracer.counters)
    layers = {k: v / pairs for k, v in totals.items()}
    layers["trace.overhead_s"] = (traced - untraced) / pairs
    layers["trace.spans"] = len(tracer.spans) / pairs
    return {"layers": layers, "passes": pairs, "verdict": vars(verdict)}


def timed_run(spec: dict) -> dict:
    """tomo-fit without tracing: whole passes until the time is up."""
    rng = random.Random(spec["seed"])
    rounds, fits, passes, within = [], [], [], 0
    verdict = gate.Verdict()
    deadline = time.perf_counter() + spec["seconds"]
    while not passes or time.perf_counter() + sorted(passes)[len(passes) // 2] < deadline:
        result = tomo_pass(rng, Path(spec["work"]))
        rounds += result["round_s"]
        fits += result["fit_s"]
        passes.append(sum(result["round_s"]) + sum(result["fit_s"]))
        verdict.add(result["verdict"])
        within += result["within"]
    return {"round_s": rounds, "fit_s": fits, "pass_s": passes,
            "within": within, "verdict": vars(verdict)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = traced_run(spec) if spec["trace"] else timed_run(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
