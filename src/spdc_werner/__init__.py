"""Multiphoton down-conversion states through symmetric lossy channels.

The package derives and verifies the post-selected two-photon Werner state
at arbitrary nonlinear gain, and carries the associated analysis chain:
coincidence-count simulation, maximum-likelihood state tomography,
entanglement metrics, and gain calibration from detector rates.

The top level exports that chain. The oracles that check the closed form
are imported from the modules that define them: ``channel``, ``fock``,
``source`` and ``errors``. They are the n-pair source state, the
beam-splitter Fock expansion over eight slots with its coincidence block
traced onto the four transmitted ones, that brute force's
``CapacityError``, and the pair-number series, which reports each point's
``ConvergenceError`` rather than raising it.
"""

__version__ = "0.1.0"

from .calibration import (
    CalibrationFit,
    CalibrationPoint,
    count_rate_model,
    fit_gain,
    synthetic_calibration_points,
)
from .channel import two_photon_state
from .errors import ConvergenceError, DesignError, FitError, PhysicalityError
from .fock import TWO_PHOTON_BASIS, DensityMatrix
from .metrics import (
    concurrence_tangle,
    fidelity,
    is_entangled_ppt,
    linear_entropy,
    metrics_report,
    singlet_ket,
    singlet_weight_extract,
    tangle_from_entropy_werner,
    werner_state,
    witness_expectation,
    witness_operator,
)
from .source import (
    GainChannelParams,
    WernerDescriptor,
    mean_photons_per_mode,
    singlet_weight,
    transmitted_photons_per_mode,
)
from .tomography import (
    CountRecord,
    MLReconstruction,
    ProjectorSetting,
    WitnessEstimate,
    born_probability,
    linear_reconstruction,
    ml_reconstruction,
    read_count_records,
    simulate_counts,
    standard_tomography_settings,
    witness_from_counts,
    witness_settings,
    write_count_records,
)

__all__ = [
    "CalibrationFit",
    "CalibrationPoint",
    "ConvergenceError",
    "CountRecord",
    "DensityMatrix",
    "DesignError",
    "FitError",
    "GainChannelParams",
    "MLReconstruction",
    "PhysicalityError",
    "ProjectorSetting",
    "TWO_PHOTON_BASIS",
    "WernerDescriptor",
    "WitnessEstimate",
    "born_probability",
    "concurrence_tangle",
    "count_rate_model",
    "fidelity",
    "fit_gain",
    "is_entangled_ppt",
    "linear_entropy",
    "linear_reconstruction",
    "mean_photons_per_mode",
    "metrics_report",
    "ml_reconstruction",
    "read_count_records",
    "simulate_counts",
    "singlet_ket",
    "singlet_weight",
    "singlet_weight_extract",
    "standard_tomography_settings",
    "synthetic_calibration_points",
    "tangle_from_entropy_werner",
    "transmitted_photons_per_mode",
    "two_photon_state",
    "werner_state",
    "witness_expectation",
    "witness_from_counts",
    "witness_operator",
    "witness_settings",
    "write_count_records",
]
