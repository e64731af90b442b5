"""What each entry point loads, checked once per rule in a fresh interpreter.

``import spdc_werner`` loads nothing, and the closed form loads ``source``
alone. The first numpy export, and every numerical subcommand but ``fit``,
loads the four numpy modules together: the benchmark's tracer looks every
module it wraps up in ``sys.modules`` when it installs, and its caller may
have read only one export. Only ``fit`` loads ``calibration``. ``sweep``,
``--version``, ``--help`` and usage errors load no numpy, and nothing loads
scipy, which no interpreter here can import.

The interpreters run isolated and write no bytecode (``-I -B``), so these
tests leave no ``__pycache__`` in the source tree.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spdc_werner
from spdc_werner.cli import main
from spdc_werner.source import GainChannelParams, singlet_weight

SRC = str(Path(spdc_werner.__file__).resolve().parents[1])
DEMO_CSV = str(Path(__file__).resolve().parents[1] / "data" / "calibration_demo.csv")
NUMPY_GROUP = {f"spdc_werner.{m}" for m in ("channel", "fock", "metrics", "tomography")}
# prints the sorted names of the loaded numpy and package modules
LOADED = ("print(sorted(m for m in sys.modules if sys.modules[m] is not None"
          " and (m == 'numpy' or m.startswith(('numpy.', 'spdc_werner.')))))")


def fresh_python(code, cwd=None, stdin=None, block=()):
    """stdout lines of ``code`` run in a new interpreter that imports this
    package from this tree, writes no bytecode, and cannot import scipy or
    the modules named in ``block``."""
    lines = ["import sys", f"sys.path.insert(0, {SRC!r})"]
    lines += [f"sys.modules[{m!r}] = None" for m in ("scipy", *block)]
    env = {k: v for k, v in os.environ.items() if k != "SPDC_WERNER_OUTDIR"}
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", "\n".join([*lines, code])],
                          cwd=cwd, input=stdin, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def check_loaded(line, numpy_group, calibration):
    """The modules in ``LOADED``'s ``line`` include all of ``NUMPY_GROUP`` if
    ``numpy_group`` and none of it if not, and ``spdc_werner.calibration``
    exactly if ``calibration``."""
    loaded = set(ast.literal_eval(line))
    assert loaded & NUMPY_GROUP == (NUMPY_GROUP if numpy_group else set())
    assert ("spdc_werner.calibration" in loaded) is calibration


def test_first_uses_of_the_package():
    lines = fresh_python("\n".join([
        "import spdc_werner",
        LOADED,
        "print(set(spdc_werner.__all__) <= set(dir(spdc_werner)))",
        LOADED,
        "p = spdc_werner.singlet_weight(spdc_werner.GainChannelParams(g=1.313, eta=0.016))",
        "print(p.hex())",
        LOADED,
        # the first use binds the name in the package: later lookups are
        # plain attribute reads of the defining module's object
        "print('fidelity' in vars(spdc_werner))",
        "f = spdc_werner.fidelity",
        "print(vars(spdc_werner)['fidelity'] is f is spdc_werner.metrics.fidelity)",
        LOADED,
        # the import stays cheap: numpy.random is not loaded, and the settings
        # and the witness operator are built on first use, not at import
        "from spdc_werner import metrics, tomography",
        "print('numpy.random' in sys.modules)",
        "print([f.cache_info().currsize for f in (",
        "    tomography._settings_by_letters, tomography.standard_tomography_settings,",
        "    tomography.witness_settings, metrics._witness, tomography._design)])",
        "namespace = {}",
        "exec('from spdc_werner import *', namespace)",
        "print(sorted(k for k in namespace if k != '__builtins__'))",
    ]))
    expected_p = singlet_weight(GainChannelParams(g=1.313, eta=0.016)).hex()
    assert lines[:5] == ["[]", "True", "[]", expected_p, "['spdc_werner.source']"]
    assert lines[5:7] == ["False", "True"]
    check_loaded(lines[7], numpy_group=True, calibration=False)
    assert lines[8:] == ["False", "[0, 0, 0, 0, 0]", str(sorted(spdc_werner.__all__))]


@pytest.mark.parametrize("name", ["two_photon_state", "DensityMatrix", "ml_reconstruction"])
def test_first_numpy_export_loads_the_group(name):
    # bench/tests reads sw.ml_reconstruction alone before it installs the tracer
    loaded, = fresh_python(f"import spdc_werner\nspdc_werner.{name}\n{LOADED}")
    check_loaded(loaded, numpy_group=True, calibration=False)


# stdout, stderr and exit code of each call, then the files it wrote, then LOADED
RUN_CALLS = "\n".join([
    "import contextlib, io, json",
    "from pathlib import Path",
    "from spdc_werner.cli import main",
    "results = []",
    "for argv in json.loads(sys.stdin.read()):",
    "    out, err = io.StringIO(), io.StringIO()",
    "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):",
    "        try:",
    "            rc = main(argv)",
    "        except SystemExit as exc:",
    "            rc = exc.code",
    "    results.append([out.getvalue(), err.getvalue(), rc])",
    "files = {p.name: p.read_text() for p in sorted(Path('.').iterdir())}",
    "print(json.dumps([results, files]))",
    LOADED,
])

SIMULATE = ["tomo", "simulate", "--g", "1.313", "--eta", "0.016",
            "--counts-per-setting", "1000", "--seed", "1", "--out", "counts.csv"]


@pytest.mark.parametrize("argv", [
    ["matrix", "--g", "1.313", "--eta", "0.016", "--out", "matrix.json"],
    ["oracle-check", "--n", "1,2"],
    SIMULATE,
    ["tomo", "reconstruct", "--input", "counts.csv", "--out", "report.json"],
    ["tomo", "reconstruct", "--input", "counts.csv", "--counts-per-setting", "1000",
     "--out", "report.json"],
    ["fit", "--input", DEMO_CSV, "--rate", "250000", "--out", "fit.json"],
], ids=["matrix", "oracle-check", "tomo-simulate", "tomo-reconstruct",
        "tomo-reconstruct-flux", "fit"])
def test_numerical_subcommand_loads(argv, tmp_path):
    assert main(SIMULATE[:-1] + [str(tmp_path / "counts.csv")]) == 0
    lines = fresh_python(RUN_CALLS, tmp_path, json.dumps([argv]))
    (_, stderr, rc), = json.loads(lines[0])[0]
    assert (rc, stderr) == (0, "")
    fit = argv[0] == "fit"
    check_loaded(lines[1], numpy_group=not fit, calibration=fit)


CLOSED_FORM_CALLS = [
    ["sweep", "--g", "0.5,1.0", "--eta", "0.016"],
    ["sweep", "--g", "0.5,1.0", "--eta", "0.016", "--format", "json"],
    ["sweep", "--g", "0.5,1.0", "--eta", "0.016", "--out", "sweep.csv"],
    ["sweep", "--g", "0.5,1.0", "--eta", "0.016", "--format", "json",
     "--out", "sweep.json"],
    ["sweep", "--g", "0.5,-1", "--eta", "0.016"],
    ["--version"],
    ["--help"],
    ["sweep", "--g", "0.5"],
]


def test_closed_form_calls_run_where_numpy_cannot_be_imported(tmp_path):
    (tmp_path / "open").mkdir()
    (tmp_path / "blocked").mkdir()
    calls = json.dumps(CLOSED_FORM_CALLS)
    result_open, loaded_open = fresh_python(RUN_CALLS, tmp_path / "open", calls)
    result_blocked, loaded_blocked = fresh_python(RUN_CALLS, tmp_path / "blocked", calls,
                                                  block=["numpy"])
    assert result_blocked == result_open
    results, files = json.loads(result_blocked)
    assert [rc for *_, rc in results] == [0, 0, 0, 0, 1, 0, 0, 2]
    assert results[2][:2] == results[3][:2] == ["", ""]
    assert files == {"sweep.csv": results[0][0], "sweep.json": results[1][0]}
    stdout, stderr, _ = results[4]
    assert stdout.splitlines()[1:] == results[0][0].splitlines()[1:2]
    assert stderr.startswith("error: g=-1.0 eta=0.016: ")
    assert stderr.count("\n") == 1
    assert results[5][0] == f"{spdc_werner.__version__}\n"
    assert results[6][0].startswith("usage: spdc-werner ")
    assert "the following arguments are required: --eta" in results[7][1]
    expected = "['spdc_werner.cli', 'spdc_werner.errors', 'spdc_werner.source']"
    assert loaded_open == loaded_blocked == expected
