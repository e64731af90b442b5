"""Seeded inputs for the benchmark's workloads.

The seed generates every input; the package only receives them, as CLI
arguments or as library-call arguments. Grids are jittered by a tenth of a
grid step, so a different seed changes the values but not the work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gate

# The fixed edge grid of ROADMAP item 2. Its six high-gain, low-loss points
# run the series to 6,553,600 terms and raise ConvergenceError when this
# benchmark was added; they stay in the workload so the defect shows as
# failures.
EDGE_G = (1e-8, 1e-3, 0.5, 2.0, 8.0, 15.0, 30.0)
EDGE_ETA = (1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-12)

CRITERION5 = (1.313, 0.016)  # criterion 5's state, and the demo set's g_max
TOMO_COUNTS = 100_000
DEMO_RATE = 250_000.0


@dataclass
class Op:
    """One CLI call: its kind, its arguments, the check of its output and
    the number of items (sweep rows, oracle blocks) it produces."""

    kind: str
    argv: list[str]
    check: Callable[[str, str, int], gate.Verdict]
    size: int = 1


def _floats(values) -> str:
    # repr keeps every digit: 1 - 1e-12 printed at 6 digits reads as 1,
    # which the CLI rejects.
    return ",".join(repr(float(v)) for v in values)


def _jittered_geomspace(rng, lo, hi, n):
    step = math.log(hi / lo) / (n - 1)
    out = [lo * math.exp(step * i) for i in range(n)]
    return [min(hi, max(lo, x * math.exp(0.1 * step * rng.uniform(-1, 1))))
            for x in out]


def _jittered_linspace(rng, lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [min(hi, max(lo, lo + step * i + 0.1 * step * rng.uniform(-1, 1)))
            for i in range(n)]


def sweep_op(kind: str, gs, etas) -> Op:
    points = [(g, eta) for g in gs for eta in etas]
    return Op(kind, ["sweep", "--g", _floats(gs), "--eta", _floats(etas)],
              lambda out, err, rc: gate.check_sweep(points, out, err, rc), len(points))


def oracle_op(ns, etas) -> Op:
    blocks = [(n, eta) for n in ns for eta in etas]
    return Op("oracle", ["oracle-check", "--n", ",".join(map(str, ns)),
                         "--eta", _floats(etas)],
              lambda out, err, rc: gate.check_oracle(blocks, out, rc), len(blocks))


def derive_ops(seed: int, n_g: int = 200, n_eta: int = 49,
               n_oracle_eta: int = 24, edge=(EDGE_G, EDGE_ETA)) -> list[Op]:
    """Main sweep, edge sweep and oracle check; the sizes are the workload's,
    smaller ones serve the smoke test."""
    rng = random.Random(seed)
    return [
        sweep_op("sweep", _jittered_geomspace(rng, 0.01, 3.0, n_g),
                 _jittered_linspace(rng, 0.01, 0.97, n_eta)),
        sweep_op("edge", *edge),
        oracle_op([1, 2, 3, 4], _jittered_linspace(rng, 0.01, 0.9, n_oracle_eta)),
    ]


def cli_ops(seed: int, pass_index: int, work: Path, demo_csv: Path) -> list[Op]:
    """The six short calls of one ``cli-calls`` pass."""
    rng = random.Random(seed * 1_000_003 + pass_index)
    run_seed = rng.randrange(2**31)
    g, eta = CRITERION5
    ge = ["--g", repr(g), "--eta", repr(eta)]
    matrix, counts, witness = work / "matrix.json", work / "counts.csv", work / "witness.csv"
    recon, fit = work / "reconstruct.json", work / "fit.json"
    sim = ["tomo", "simulate", *ge, "--counts-per-setting", str(TOMO_COUNTS),
           "--seed", str(run_seed)]
    return [
        Op("matrix", ["matrix", *ge, "--out", str(matrix)],
           lambda out, err, rc: gate.check_matrix(g, eta, matrix, rc)),
        Op("simulate", [*sim, "--out", str(counts)],
           lambda out, err, rc: gate.check_counts(counts, 16, run_seed, TOMO_COUNTS, rc)),
        Op("witness", [*sim, "--settings", "witness", "--out", str(witness)],
           lambda out, err, rc: gate.check_witness_counts(
               witness, g, eta, run_seed, TOMO_COUNTS, rc)),
        Op("reconstruct", ["tomo", "reconstruct", "--input", str(counts), *ge,
                           "--out", str(recon)],
           lambda out, err, rc: gate.check_reconstruct(recon, rc)),
        Op("fit", ["fit", "--input", str(demo_csv), "--rate", repr(DEMO_RATE),
                   "--out", str(fit)],
           lambda out, err, rc: gate.check_fit_file(fit, g, rc)),
        sweep_op("sweep3", [rng.uniform(0.01, 3.0) for _ in range(3)],
                 [rng.uniform(0.01, 0.97)]),
    ]


# tomo-fit: round trips cycle through these flux levels; fits use
# criterion 7's truth with 1% multiplicative noise.
ROUND_COUNTS = (1_000, 10_000, 100_000)
ROUND_G = (0.05, 2.0)
ROUND_ETA = (0.005, 0.5)
FIT_TRUTH = (1.313, {1: 0.016, 2: 0.014})
FIT_POWERS = tuple(0.05 + (1.0 - 0.05) * i / 11 for i in range(12))
FIT_NOISE = 0.01


def round_inputs(rng: random.Random, n: int):
    """(g, eta, counts per setting, seed) for n round trips."""
    return [(rng.uniform(*ROUND_G), rng.uniform(*ROUND_ETA),
             ROUND_COUNTS[i % len(ROUND_COUNTS)], rng.randrange(2**31))
            for i in range(n)]


def fit_seeds(rng: random.Random, n: int) -> list[int]:
    return [rng.randrange(2**31) for _ in range(n)]
