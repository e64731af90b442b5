"""Benchmark of the spdc-werner package, end to end and layer by layer.

    python3 bench/run.py --workload derive --seed 1 --seconds 50 --trace 0

Run from the repository root. The package runs from ``src`` through
``PYTHONPATH``; nothing is installed. ``--trace 0`` times the workload with
tracing off and prints the end-to-end metrics; ``--trace 1`` makes the
separate traced run and prints the per-layer metrics. The metric names and
units are those of ``BENCHMARK.json``. Before the last line, which is the
result, one line holds the full record: environment, the per-workload
metrics with their sample counts, and the gate's counts. ``--workload all``
runs the three workloads in turn; ``--out FILE`` also writes the records
there as JSON, and the spans of a traced run next to it. See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("derive", "cli-calls", "tomo-fit")
SETUP_REPEATS = 5   # fresh interpreters per run for setup_s and the import split
RUN_LIMIT_S = 170   # every child is killed before the run's 180 s limit
# One BLAS thread in every child: the workloads have one client and 4x4
# matrices, and idle OpenBLAS threads spin on the second core, which made the
# fastest tomo-fit pass vary by 24% between runs instead of 2%.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_importtime(text: str) -> dict[str, float]:
    """The three ``import.*`` numbers from ``python -X importtime`` stderr.

    ``import.spdc_werner_s`` sums the cumulative time of the top-level
    ``spdc_werner*`` entries; the other two are the cumulative times of
    ``scipy.optimize`` and ``numpy``, 0 when they were not imported.
    """
    cumulative: dict[str, float] = {}
    package = 0.0
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        seconds, depth, name = int(m[2]) / 1e6, len(m[3]), m[4]
        cumulative.setdefault(name, seconds)
        if depth == 1 and name.split(".")[0] == "spdc_werner":
            package += seconds
    return {
        "import.spdc_werner_s": package,
        "import.scipy_optimize_s": cumulative.get("scipy.optimize", 0.0),
        "import.numpy_s": cumulative.get("numpy", 0.0),
    }


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return {"value": sorted(samples)[rank - 1], "percentile": round(100 * rank / n, 1),
            "samples": n}


class Runner:
    """Runs one workload; children get the package through PYTHONPATH."""

    def __init__(self, seed: int, seconds: float):
        if not (ROOT / "src" / "spdc_werner" / "cli.py").is_file():
            raise BenchError(f"package source not found under {ROOT / 'src'}")
        self.seed, self.seconds = seed, seconds
        self.env = {**os.environ, **BLAS_ENV}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        if str(ROOT / "src") not in sys.path:  # the gate reads WernerDescriptor
            sys.path.insert(0, str(ROOT / "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = ROOT / ".bench_work" / f"run-{os.getpid()}"

    def call(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Wall time of one child process, interpreter start included."""
        budget = self.deadline - time.monotonic()
        if budget <= 0:
            raise BenchError("run exceeded its time limit")
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                                  capture_output=True, text=True, timeout=budget)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {argv[:3]}") from exc
        return time.perf_counter() - start, proc

    def environment(self) -> dict:
        _, proc = self.call(["-c", "import json, numpy, scipy, spdc_werner.cli; print(json.dumps("
                                   "[numpy.__version__, scipy.__version__]))"])
        if proc.returncode != 0:
            raise BenchError(f"cannot import the package: {proc.stderr.strip()[-500:]}")
        numpy_version, scipy_version = json.loads(proc.stdout)
        commit = None
        if (ROOT / ".git").exists():
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        return {
            "python": platform.python_version(), "numpy": numpy_version,
            "scipy": scipy_version, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_env": BLAS_ENV,
            "git_commit": commit, "package": "src on PYTHONPATH, not installed",
        }

    def setup_s(self) -> list[float]:
        """Fresh interpreters that import the CLI module and do no work."""
        times = []
        for _ in range(SETUP_REPEATS):
            seconds, proc = self.call(["-c", "import spdc_werner.cli"])
            if proc.returncode != 0:
                raise BenchError(proc.stderr.strip()[-500:])
            times.append(seconds)
        return times

    def import_split(self) -> dict[str, float]:
        runs = []
        for _ in range(SETUP_REPEATS):
            _, proc = self.call(["-X", "importtime", "-c", "import spdc_werner.cli"])
            runs.append(parse_importtime(proc.stderr))
        return {k: statistics.median(r[k] for r in runs) for k in runs[0]}

    def cli_passes(self, make_ops) -> tuple[list[dict], gate.Verdict]:
        """Whole passes of CLI subprocesses, one at a time, until the time is
        up; a pass is not started when the median pass would overrun.
        ``make_ops(i)`` gives the calls of pass i."""
        passes, verdict = [], gate.Verdict()
        deadline = time.perf_counter() + self.seconds
        while not passes or time.perf_counter() + statistics.median(
                sum(p.values()) for p in passes) < deadline:
            times = {}
            for op in make_ops(len(passes)):
                seconds, proc = self.call(["-m", "spdc_werner.cli", *op.argv])
                times[op.kind] = seconds
                verdict.add(op.check(proc.stdout, proc.stderr, proc.returncode))
            passes.append(times)
        return passes, verdict

    def worker(self, workload: str, trace: bool) -> dict:
        spec = {"workload": workload, "seed": self.seed, "seconds": self.seconds,
                "trace": trace, "work": str(self.work), "root": str(ROOT)}
        _, proc = self.call([str(BENCH / "worker.py"), json.dumps(spec)])
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit, samples, **extra) -> dict:
    return {"value": value, "unit": unit, "samples": samples, **extra}


def end_to_end(runner: Runner, workload: str) -> tuple[dict, gate.Verdict, bool]:
    """Untraced run: (metrics with sample counts, gate verdict, batch checks)."""
    setup = runner.setup_s()
    m = {"setup_s": _metric(statistics.median(setup), "s", len(setup))}
    batch_ok = True
    if workload == "tomo-fit":
        result = runner.worker(workload, trace=False)
        verdict = gate.Verdict(**result["verdict"])
        pass_s = result["pass_s"]
        rounds, fits = result["round_s"], result["fit_s"]
        m["rounds_per_s"] = _metric(len(rounds) / sum(rounds), "1/s", len(rounds))
        m["fits_per_s"] = _metric(len(fits) / sum(fits), "1/s", len(fits))
        m["fits_within_2pct"] = _metric(result["within"] / len(fits), "ratio", len(fits))
        batch_ok = result["within"] >= gate.FIT_SHARE * len(fits)
    else:
        derive = workloads.derive_ops(runner.seed)
        demo = ROOT / "data" / "calibration_demo.csv"
        passes, verdict = runner.cli_passes(
            (lambda i: derive) if workload == "derive"
            else (lambda i: workloads.cli_ops(runner.seed, i, runner.work, demo)))
        pass_s = [sum(p.values()) for p in passes]
        if workload == "derive":
            ops = {op.kind: op for op in derive}
            med = {k: statistics.median(p[k] for p in passes) for k in ops}
            m["sweep_rows_per_s"] = _metric(ops["sweep"].size / med["sweep"], "rows/s",
                                            len(passes))
            m["edge_sweep_s"] = _metric(med["edge"], "s", len(passes))
            m["oracle_blocks_per_s"] = _metric(ops["oracle"].size / med["oracle"],
                                               "blocks/s", len(passes))
        else:
            calls = [t for p in passes for t in p.values()]
            m["call_s_p50"] = _metric(statistics.median(calls), "s", len(calls))
            if (t := tail(calls)) is not None:
                m["call_s_tail"] = _metric(t["value"], "s", t["samples"],
                                           percentile=t["percentile"])
    m["pass_s"] = _metric(statistics.median(pass_s), "s", len(pass_s))
    # The gated time: the host's speed drifts by tens of percent within a
    # run, and the fastest pass varies about half as much between runs as
    # the median does.
    m["best_pass_s"] = _metric(min(pass_s), "s", len(pass_s))
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    m["peak_rss_mb"] = _metric(rss, "MB", 1)
    m["fail_frac"] = _metric(verdict.failed / max(verdict.attempted, 1), "ratio",
                             verdict.attempted)
    return m, verdict, batch_ok


def per_layer(runner: Runner, workload: str, names: dict[str, str]) -> tuple[dict, gate.Verdict]:
    """Traced run: the import split plus the worker's per-pass layer totals."""
    layers = runner.import_split()
    result = runner.worker(workload, trace=True)
    layers.update(result["layers"])
    m = {name: _metric(layers.get(name, 0.0), unit, result["passes"])
         for name, unit in names.items()}
    return m, gate.Verdict(**result["verdict"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict) -> tuple[dict, dict]:
    """One workload: (full record, result line)."""
    runner = Runner(seed, seconds)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        env = runner.environment()
        if trace:
            names = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, verdict = per_layer(runner, workload, names)
            batch_ok = True
            spans = (runner.work / "spans.jsonl").read_text()
        else:
            metrics, verdict, batch_ok = end_to_end(runner, workload)
            spans = None
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # only when no other run uses it
            runner.work.parent.rmdir()
    reported = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "metrics": metrics, "gate": vars(verdict),
              "batch_checks_ok": batch_ok}
    result = {
        "correct": verdict.wrong == 0 and batch_ok,
        "attempted": max(verdict.attempted, 1),
        "failed": verdict.failed,
        "metrics": {k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
                    for k in reported},
    }
    return {"record": record, "spans": spans}, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the records (and spans) here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        full, result = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), spec)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"record": full["record"]}))
    print(json.dumps(result), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps([full["record"]], indent=2) + "\n")
        if full["spans"] is not None:
            args.out.with_name(f"{args.out.stem}.{args.workload}.spans.jsonl").write_text(
                full["spans"])
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own;
    the records file then holds all three records."""
    records = []
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out is not None:
            argv += ["--out", str(args.out)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        records.append(json.loads(proc.stdout.splitlines()[-2])["record"])
    if args.out is not None:
        args.out.write_text(json.dumps(records, indent=2) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
