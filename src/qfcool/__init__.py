"""qfcool: exact simulation and analysis of a single-shot quantum feedback
cooling cycle on a register/ancilla qubit pair.

The package covers the closed forms and scalar searches in plain Python
(closed_forms), the stacked density-matrix kernels and the state validator
(densmat), the full state-level simulation (protocol), the thermodynamic
bookkeeping and its matrix oracles (thermo), correlation measures
including quantum discord (correlations), parameter-space tooling (sweep)
and a verification suite cross-checking every closed form against
density-matrix oracles (verify, also exposed via the CLI).

``import qfcool`` loads none of these modules: each public name below
(and each module in ``_EXPORTS``) is imported on first access (PEP 562),
so a caller of the closed forms alone never loads numpy.
"""

import importlib

__version__ = "0.1.0"

# Public names by the module that defines them.
_EXPORTS = {
    "closed_forms": (
        "CorrelationReport", "ProtocolParams", "SeparabilityBoundary", "ThermoReport", "WorkingPoint",
        "discord_analytic", "discord_threshold", "eps_a_for_cooling_load", "figures_of_merit",
        "mutual_information_analytic", "optimize_working_point", "separability_boundary",
    ),
    "correlations": (
        "DiscordOptimizationError", "MeasurementBasis",
        "classical_correlations", "concurrence", "correlation_report",
        "discord_numeric", "entanglement_of_formation", "mutual_information",
    ),
    "protocol": ("ProtocolTrace", "run_protocol"),
    "sweep": ("CurvePoint", "Landscape", "SweepGrid", "characteristic_curve", "landscape"),
    "thermo": ("EnergyModel", "energy_model", "ergotropy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
