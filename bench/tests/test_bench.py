"""Tests of the benchmark itself: tiny smoke runs of each workload, the
correctness gate on doctored outputs, and the ``-X importtime`` parser.

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import random
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, layer_totals  # noqa: E402

import spdc_werner as sw  # noqa: E402


def tiny_derive_ops():
    # g=8, eta=1e-6 is one of the edge grid's ConvergenceError points.
    return workloads.derive_ops(3, n_g=2, n_eta=2, n_oracle_eta=2,
                                edge=((0.5, 8.0), (1e-6,)))


def test_derive_smoke_counts_the_edge_failure_as_reported():
    runner = run.Runner(seed=3, seconds=0.01)
    passes, verdict = runner.cli_passes(lambda i: tiny_derive_ops())
    assert len(passes) == 1 and set(passes[0]) == {"sweep", "edge", "oracle"}
    assert (verdict.attempted, verdict.failed, verdict.wrong) == (4 + 2 + 8, 1, 0)


def test_cli_calls_smoke(tmp_path):
    runner = run.Runner(seed=5, seconds=0.01)
    demo = ROOT / "data" / "calibration_demo.csv"
    passes, verdict = runner.cli_passes(lambda i: workloads.cli_ops(5, i, tmp_path, demo))
    assert len(passes[0]) == 6
    assert (verdict.attempted, verdict.failed) == (5 + 3, 0)


def test_tomo_fit_smoke_and_tracer(tmp_path):
    tracer = Tracer()
    original = sw.ml_reconstruction
    tracer.install()
    try:
        result = worker.tomo_pass(random.Random(1), tmp_path, rounds=3, fits=1)
    finally:
        tracer.uninstall()
    assert sw.ml_reconstruction is original
    assert vars(result["verdict"]) == {"attempted": 4, "failed": 0, "wrong": 0}
    totals = layer_totals(tracer.spans)
    assert totals["tomography.ml_reconstruction.calls"] == 3
    assert totals["calibration.fit_gain.calls"] == 1
    assert totals["calibration.read_calibration_csv.calls"] == 1
    assert totals["tomography.read_count_records.calls"] == 3
    assert totals["fock.DensityMatrix.calls"] > 0
    assert tracer.counters["tomography.ml_reconstruction.iterations"] > 0
    assert all(v >= 0 for k, v in totals.items() if k.endswith("self_s"))


def test_run_prints_result_line_last():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tomo-fit", "--seed", "2",
         "--seconds", "0.5", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0


def _sweep_output(points):
    ops = workloads.sweep_op("sweep", sorted({g for g, _ in points}),
                             sorted({e for _, e in points}))
    proc = subprocess.run([sys.executable, "-m", "spdc_werner.cli", *ops.argv],
                          cwd=ROOT, capture_output=True, text=True,
                          env={"PYTHONPATH": str(ROOT / "src")})
    return proc.stdout


def test_gate_counts_doctored_sweep_rows():
    points = [(0.3, 0.1), (0.3, 0.5)]
    good = _sweep_output(points)
    assert vars(gate.check_sweep(points, good, "", 0)) == {
        "attempted": 2, "failed": 0, "wrong": 0}

    header, first, second = good.strip().splitlines()
    fields = first.split(",")
    fields[3] = f"{float(fields[3]) + 1e-9:.12g}"  # p_series off by 1e-9
    doctored = "\n".join([header, ",".join(fields), second]) + "\n"
    assert vars(gate.check_sweep(points, doctored, "", 0)) == {
        "attempted": 2, "failed": 1, "wrong": 1}

    missing = "\n".join([header, second]) + "\n"
    assert gate.check_sweep(points, missing, "", 1).wrong == 1
    reported = "error: g=0.3 eta=0.1: series truncated\n"
    assert vars(gate.check_sweep(points, missing, reported, 1)) == {
        "attempted": 2, "failed": 1, "wrong": 0}


def test_gate_counts_oracle_deviation_above_tolerance():
    blocks = [(1, 0.25), (2, 0.25)]
    out = ("n=1 eta=0.25: max deviation 3.000e-17 ok\n"
           "n=2 eta=0.25: max deviation 2.000e-10 FAIL\n")
    assert vars(gate.check_oracle(blocks, out, 1)) == {"attempted": 2, "failed": 1, "wrong": 1}
    assert gate.check_oracle(blocks, out.splitlines()[0] + "\n", 0).failed == 1


def test_parse_importtime():
    # Real shape: nesting is two spaces per level after the bar's one space,
    # and a parent is printed after its children.
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1808 |      84139 |       numpy",
        "import time:       714 |     593846 |       scipy.optimize",
        "import time:      2341 |     695241 |     spdc_werner.calibration",
        "import time:       441 |     703159 |   spdc_werner",
        "import time:       413 |     703571 | spdc_werner.cli",
        "import time:        50 |         50 | json",
    ])
    assert run.parse_importtime(text) == {
        "import.spdc_werner_s": 0.703571,
        "import.scipy_optimize_s": 0.593846,
        "import.numpy_s": 0.084139,
    }


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    t = run.tail([float(i) for i in range(40)])
    assert t == {"value": 29.0, "percentile": 75.0, "samples": 40}
