"""qfcool: exact simulation and analysis of a single-shot quantum feedback
cooling cycle on a register/ancilla qubit pair.

The package covers the full state-level simulation (densmat, protocol),
the thermodynamic bookkeeping and figures of merit (thermo), correlation
measures including quantum discord (correlations), parameter-space
tooling (sweep) and a verification suite cross-checking every closed
form against density-matrix oracles (verify, also exposed via the CLI).
"""

from .correlations import (
    CorrelationReport,
    DiscordOptimizationError,
    MeasurementBasis,
    OptimizerOptions,
    classical_correlations,
    concurrence,
    correlation_report,
    correlation_reports,
    discord_analytic,
    discord_numeric,
    discord_threshold,
    entanglement_of_formation,
    mutual_information,
    mutual_information_analytic,
)
from .densmat import (
    Spectrum,
    conjugate,
    expectation,
    hermitian_eig,
    partial_trace,
    psd_sqrt,
    tensor,
    vn_entropy,
)
from .protocol import (
    ProtocolParams,
    ProtocolTrace,
    feedback_unitary,
    initial_state,
    measurement_unitary,
    post_measurement_state,
    run_protocol,
    thermal_qubit,
)
from .sweep import (
    CurvePoint,
    Landscape,
    SeparabilityBoundary,
    SweepGrid,
    WorkingPoint,
    characteristic_curve,
    eps_a_for_cooling_load,
    landscape,
    optimize_working_point,
    separability_boundary,
)
from .thermo import (
    EnergyModel,
    ThermoReport,
    delta_e_system,
    energy_model,
    entropy_reduction,
    ergotropy,
    figures_of_merit,
    heat_reset,
    phi_crit,
    total_work,
    work_feedback,
    work_measurement,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationReport", "CurvePoint", "DiscordOptimizationError", "EnergyModel",
    "Landscape", "MeasurementBasis", "OptimizerOptions", "ProtocolParams",
    "ProtocolTrace", "SeparabilityBoundary", "Spectrum", "SweepGrid",
    "ThermoReport", "WorkingPoint", "characteristic_curve",
    "classical_correlations", "concurrence", "conjugate", "correlation_report",
    "correlation_reports",
    "delta_e_system", "discord_analytic", "discord_numeric", "discord_threshold",
    "energy_model", "entanglement_of_formation", "entropy_reduction",
    "eps_a_for_cooling_load", "ergotropy", "expectation", "feedback_unitary",
    "figures_of_merit", "heat_reset", "hermitian_eig", "initial_state",
    "landscape", "measurement_unitary", "mutual_information",
    "mutual_information_analytic", "optimize_working_point", "partial_trace",
    "phi_crit", "post_measurement_state", "psd_sqrt", "run_protocol",
    "separability_boundary", "tensor", "thermal_qubit", "total_work",
    "vn_entropy", "work_feedback", "work_measurement",
]
