"""Multiphoton down-conversion states through symmetric lossy channels.

The package derives and verifies the post-selected two-photon Werner state
at arbitrary nonlinear gain, and carries the associated analysis chain:
coincidence-count simulation, maximum-likelihood state tomography,
entanglement metrics, and gain calibration from detector rates.

The top level exports that chain. Each name is imported from its defining
module on first use (PEP 562), so ``import spdc_werner`` loads neither numpy
nor any submodule, and the closed form, ``singlet_weight``, loads only the
standard-library ``source``. The first export read from a numpy module
imports all four of them (``channel``, ``fock``, ``metrics``,
``tomography``). The oracles that check the closed form are
imported from the modules that define them: ``channel``, ``fock``,
``source`` and ``errors``. They are the n-pair source state, the
beam-splitter Fock expansion over eight slots with its coincidence block
traced onto the four transmitted ones, and that brute force's
``CapacityError``. The pair-number series, summed term by term, is a
reference in the tests only.
"""

__version__ = "0.1.0"

# Defining module -> the names the package exports from it.
_EXPORTS = {
    "calibration": ("CalibrationFit", "CalibrationPoint", "count_rate_model", "fit_gain",
                    "synthetic_calibration_points"),
    "channel": ("two_photon_state",),
    "errors": ("ConvergenceError", "DesignError", "FitError", "PhysicalityError"),
    "fock": ("TWO_PHOTON_BASIS", "DensityMatrix"),
    "metrics": ("concurrence_tangle", "fidelity", "is_entangled_ppt", "linear_entropy",
                "metrics_report", "singlet_ket", "singlet_weight_extract",
                "tangle_from_entropy_werner", "werner_state", "witness_expectation",
                "witness_operator"),
    "source": ("GainChannelParams", "WernerDescriptor", "mean_photons_per_mode",
               "singlet_weight", "transmitted_photons_per_mode"),
    "tomography": ("CountRecord", "MLReconstruction", "ProjectorSetting", "WitnessEstimate",
                   "born_probability", "linear_reconstruction", "ml_reconstruction",
                   "read_count_records", "simulate_counts", "standard_tomography_settings",
                   "witness_from_counts", "witness_settings", "write_count_records"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)
# The modules that import numpy load together, here and in the CLI's numerical
# subcommands: the benchmark's tracer looks every module it wraps up in
# sys.modules when it installs, and its caller may have read only one export.
# Once the tracer imports what it wraps, each module can load alone, and the
# checks that pin the group in tests/test_imports.py change with it: the first
# use of `fidelity` and `test_first_numpy_export_loads_the_group`.
_NUMPY_MODULES = ("channel", "fock", "metrics", "tomography")


def __getattr__(name):
    """Import an export's module and bind the name here, so that later
    lookups are plain attribute reads."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = _MODULE_OF[name]
    for other in _NUMPY_MODULES if module in _NUMPY_MODULES else ():
        import_module(f"{__name__}.{other}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
