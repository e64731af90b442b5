"""Golden outputs: the command line's exit code, stdout and stderr, byte for byte.

Each case runs ``spdc_werner.cli.main`` on one argument list in this
process, with RuntimeWarnings raised as errors, so that an overflow or an
invalid value on the way fails the case however its output reads, and
compares its record with ``tests/golden/<case>.txt``. A record holds
the exit code, stdout, stderr and, for ``tomo simulate``, the counts file
written to ``--out``; a part above 64 KB is stored as its SHA-256.
``tests/golden/VERSIONS`` names the platform, Python and numpy the files
were made with. ``simulate_counts``' Poisson stream and BLAS summation
order can differ between numpy builds, so a mismatch on another platform is
a finding to report, not a reason to skip or loosen the comparison.

After a declared output change, regenerate the files and commit their diff:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from spdc_werner.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
DEMO_CSV = Path(__file__).resolve().parents[1] / "data" / "calibration_demo.csv"
# a part above this many bytes is stored as its SHA-256
MAX_STORED = 64 * 1024

# README's edge grid and its example grid
EDGE = ["--g", "1e-8,1e-3,0.5,2,8,15,30",
        "--eta", "1e-12,1e-6,0.01,0.5,0.99,0.999999999999"]
MAIN = ["--g", "0.1,0.3,1.0", "--eta", "0.016"]
DEMO_POINT = ["--g", "1.313", "--eta", "0.016"]
SIMULATE = ["tomo", "simulate", *DEMO_POINT, "--counts-per-setting", "100000"]
# the top power of the demo data is 1: a row at one of these powers with rate
# 1 lies above the most the model gives there
TINY_POWERS = ("1e-12", "1e-160", "1e-200", "1e-250", "1e-300")

CASES = {
    "sweep-edge-csv": ["sweep", *EDGE],
    "sweep-edge-json": ["sweep", *EDGE, "--format", "json"],
    "sweep-main-csv": ["sweep", *MAIN],
    "sweep-main-json": ["sweep", *MAIN, "--format", "json"],
    "matrix": ["matrix", *DEMO_POINT],
    "oracle-check": ["oracle-check"],
    "oracle-check-edges": ["oracle-check", "--n", "1,4,30", "--eta", "1e-9,0.5,0.999999"],
    **{f"tomo-simulate-{settings}-seed{seed}":
       [*SIMULATE, "--seed", str(seed), "--settings", settings,
        "--out", f"{{dir}}/{settings}-{seed}.csv"]
       for settings in ("tomography", "witness") for seed in (1, 7, 42)},
    "tomo-reconstruct-flux-estimated": ["tomo", "reconstruct", "--input", "{dir}/counts.csv"],
    "tomo-reconstruct-flux-given": ["tomo", "reconstruct", "--input", "{dir}/counts.csv",
                                    "--counts-per-setting", "100000", *DEMO_POINT],
    **{f"fit-demo-rate-{rate}": ["fit", "--input", str(DEMO_CSV), "--rate", rate]
       for rate in ("250000", "3e5", "1e12", "1e20", "1e185", "1e300")},
    "fit-dark-row": ["fit", "--input", "{dir}/demo-dark.csv", "--rate", "250000"],
    "fit-zero-rate-at-a-positive-power": ["fit", "--input", "{dir}/demo-zero-rate.csv",
                                          "--rate", "250000"],
    "fit-powers-1e-30": ["fit", "--input", "{dir}/demo-1e-30.csv", "--rate", "250000"],
    **{f"fit-row-above-the-model-at-{power}":
       ["fit", "--input", f"{{dir}}/demo-{power}.csv", "--rate", "250000"]
       for power in TINY_POWERS},
}


def write_inputs(directory: Path) -> None:
    """The files the cases read: the demo with a dark row, with a zero rate
    at a positive power, with every power times 1e-30 and with a row above
    the model, and the seed-7 counts."""
    header, *rows = DEMO_CSV.read_text().splitlines()

    def demo(name, rows):
        (directory / name).write_text("\n".join([header, *rows]) + "\n")

    demo("demo-dark.csv", [*rows, "0,3,1"])
    demo("demo-zero-rate.csv", [*rows, "0.05,0,1"])
    scaled = []
    for row in rows:
        power, rest = row.split(",", 1)
        scaled.append(f"{float(power) * 1e-30!r},{rest}")
    demo("demo-1e-30.csv", scaled)
    for power in TINY_POWERS:
        demo(f"demo-{power}.csv", [*rows, f"{power},1,1"])
    if main([*SIMULATE, "--seed", "7", "--out", str(directory / "counts.csv")]) != 0:
        raise RuntimeError("could not simulate the counts the reconstructions read")


def part(name: str, data: bytes) -> str:
    if len(data) > MAX_STORED:
        return f"--- {name}: sha256 {hashlib.sha256(data).hexdigest()} of {len(data)} bytes\n"
    text = data.decode()
    if text and not text.endswith("\n"):
        text += "\n\\ no newline at end\n"
    return f"--- {name}\n{text}"


def record(argv: list[str], directory: Path) -> bytes:
    """Exit code, stdout, stderr and any ``--out`` file of one run."""
    argv = [arg.replace("{dir}", str(directory)) for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr),
          warnings.catch_warnings()):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    text = (f"exit code {code}\n" + part("stdout", stdout.getvalue().encode())
            + part("stderr", stderr.getvalue().encode()))
    if "--out" in argv:
        text += part("out file", Path(argv[argv.index("--out") + 1]).read_bytes())
    return text.encode()


def versions() -> str:
    return (f"platform {platform.system()} {platform.machine()}\n"
            f"python {platform.python_version()}\nnumpy {np.__version__}\n")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


def first_difference(expected: bytes, actual: bytes) -> str:
    old, new = expected.decode().splitlines(), actual.decode().splitlines()
    for number, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f"line {number} differs:\n  golden: {a!r}\n  now:    {b!r}"
    if len(old) != len(new):
        line = len(min(old, new, key=len)) + 1
        return f"line {line} is in only one of them ({len(old)} golden lines, {len(new)} now)"
    return "the line ends differ"


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_the_golden_file(case, inputs):
    expected = (GOLDEN / f"{case}.txt").read_bytes()
    actual = record(CASES[case], inputs)
    if actual != expected:
        pytest.fail(f"{case}: {first_difference(expected, actual)}\n"
                    f"golden files made on:\n{(GOLDEN / 'VERSIONS').read_text()}"
                    f"running on:\n{versions()}", pytrace=False)


def test_every_golden_file_has_a_case():
    stored = {path.stem for path in GOLDEN.glob("*.txt")}
    assert stored == set(CASES)


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for path in GOLDEN.glob("*.txt"):
        path.unlink()
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        write_inputs(directory)
        for case, argv in CASES.items():
            (GOLDEN / f"{case}.txt").write_bytes(record(argv, directory))
    (GOLDEN / "VERSIONS").write_text(versions())


if __name__ == "__main__":
    regenerate()
    print(f"wrote {len(CASES)} golden files to {GOLDEN}", file=sys.stderr)
