"""The package's top-level surface, and what the benchmark relies on.

The benchmark under ``bench/`` calls the package as ``sw.<name>`` and wraps
functions it finds by module path; these tests read those files (and edit
none), so a trim that would break the benchmark fails here first.
"""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spdc_werner as sw

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = str(Path(sw.__file__).resolve().parents[1])

EXPORTS = {
    "CalibrationFit", "CalibrationPoint", "ConvergenceError", "CountRecord",
    "DensityMatrix", "DesignError", "FitError", "GainChannelParams",
    "MLReconstruction", "PhysicalityError", "ProjectorSetting", "TWO_PHOTON_BASIS",
    "WernerDescriptor", "WitnessEstimate", "born_probability", "concurrence_tangle",
    "count_rate_model", "fidelity", "fit_gain", "is_entangled_ppt", "linear_entropy",
    "linear_reconstruction", "mean_photons_per_mode", "metrics_report",
    "ml_reconstruction", "read_count_records", "simulate_counts", "singlet_ket",
    "singlet_weight", "singlet_weight_extract", "standard_tomography_settings",
    "synthetic_calibration_points", "tangle_from_entropy_werner",
    "transmitted_photons_per_mode", "two_photon_state", "werner_state",
    "witness_expectation", "witness_from_counts", "witness_operator",
    "witness_settings", "write_count_records",
}


def test_exports_are_the_analysis_chain():
    assert len(sw.__all__) == len(set(sw.__all__))
    assert set(sw.__all__) == EXPORTS
    for name in sw.__all__:
        assert getattr(sw, name) is not None


def fresh_python(code: str) -> list[str]:
    """stdout lines of ``code`` run in a new interpreter that imports this
    package from the same source tree."""
    code = f"import sys\nsys.path.insert(0, {SRC!r})\n" + code
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


LOADED = ("print(sorted(m for m in sys.modules if m == 'numpy' "
          "or m.startswith(('numpy.', 'spdc_werner.'))))")


def test_import_loads_no_submodule_and_no_numpy():
    assert fresh_python(f"import spdc_werner\n{LOADED}") == ["[]"]


@pytest.mark.parametrize("name", ["two_photon_state", "DensityMatrix", "fidelity",
                                  "ml_reconstruction"])
def test_a_numpy_export_loads_every_numpy_module(name):
    # bench/tests reads sw.ml_reconstruction alone before it installs the
    # tracer, which looks every module it wraps up in sys.modules
    lines = fresh_python("\n".join([
        "import spdc_werner",
        f"spdc_werner.{name}",
        "print(sorted(m for m in sys.modules if m.startswith('spdc_werner.')))",
    ]))
    loaded = set(ast.literal_eval(lines[0]))
    assert {f"spdc_werner.{m}" for m in ("channel", "fock", "metrics", "tomography")} <= loaded
    assert "spdc_werner.calibration" not in loaded


def test_dir_lists_the_exports_before_they_load():
    lines = fresh_python("\n".join([
        "import spdc_werner",
        "print(sorted(set(dir(spdc_werner)) & set(spdc_werner.__all__)) "
        "== sorted(spdc_werner.__all__))",
        LOADED,
    ]))
    assert lines == ["True", "[]"]


def test_first_use_binds_the_name_in_the_package():
    # later lookups are plain attribute reads of the defining module's object
    lines = fresh_python("\n".join([
        "import spdc_werner",
        "print('fidelity' in vars(spdc_werner))",
        "f = spdc_werner.fidelity",
        "print(vars(spdc_werner)['fidelity'] is f is spdc_werner.metrics.fidelity)",
    ]))
    assert lines == ["False", "True"]


def test_star_import_binds_every_export():
    lines = fresh_python("\n".join([
        "namespace = {}",
        "exec('from spdc_werner import *', namespace)",
        "print(sorted(k for k in namespace if k != '__builtins__'))",
    ]))
    assert lines == [str(sorted(EXPORTS))]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'spdc_werner' has no attribute 'nope'$"):
        sw.nope
    assert not hasattr(sw, "nope")


@pytest.mark.parametrize("path", ["worker.py", "tests/test_bench.py"])
def test_benchmark_names_are_exported(path):
    used = set(re.findall(r"\bsw\.(\w+)", (BENCH / path).read_text()))
    assert used
    assert used <= set(sw.__all__)


def test_traced_functions_resolve():
    tree = ast.parse((BENCH / "tracer.py").read_text())
    traced = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]
    )
    assert traced
    for module_name, path in traced.values():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
