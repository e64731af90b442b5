"""The package's top-level surface, and what the benchmark relies on.

The benchmark under ``bench/`` calls the package as ``sw.<name>`` and wraps
functions it finds by module path; these tests read those files (and edit
none), so a trim that would break the benchmark fails here first.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import spdc_werner as sw

BENCH = Path(__file__).resolve().parents[1] / "bench"

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
