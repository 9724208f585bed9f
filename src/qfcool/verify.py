"""Cross-validation of every closed form against density-matrix oracles.

The suite walks a standard (eps_s, eps_a, phi) grid, recomputes each
closed-form quantity directly from the simulated states, and aggregates
the worst deviation per invariant class.  Numeric-discord checks run on
a thinned subgrid (the basis search is the only non-trivial cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import correlations, densmat, protocol, thermo
from .protocol import ProtocolParams

TOL_CLOSED_FORM = 1e-10
TOL_ENTROPY_FORM = 1e-12
TOL_MARGINAL = 1e-12
TOL_DISCORD_NUMERIC = 1e-6
TOL_ROOT = 1e-9


@dataclass(frozen=True)
class Check:
    """Outcome of one invariant class over the grid."""

    name: str
    points: int
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def standard_grid(n: int = 12, eps_s_max: float = 0.9, eps_a_max: float = 0.95,
                  temperature: float = 1.0) -> list[ProtocolParams]:
    """n x n x n parameter grid with eps_s <= eps_a, including the limit cases."""
    grid = []
    for eps_s in np.linspace(0.0, eps_s_max, n):
        for eps_a in np.linspace(eps_s, eps_a_max, n):
            for phi in np.linspace(0.0, math.pi / 2, n):
                grid.append(ProtocolParams(float(eps_s), float(eps_a), float(phi), temperature))
    return grid


# Tolerance of every invariant class that is not held to TOL_CLOSED_FORM;
# run_suite and point_checks both read it.
TOLERANCES = {
    "thermal_entropy": TOL_ENTROPY_FORM,
    "reset_marginals": TOL_MARGINAL,
    "post_measurement_ancilla_marginal": TOL_MARGINAL,
    "work_positive": 0.0,
    "heat_bounds_load": 1e-12,
    "entropy_reduction_nonnegative": 1e-12,
    "eta_bounded": 1e-12,
    "ergotropy_bound": 1e-12,
    "cooling_window_sign": 0.0,
    "no_cooling_below_bias": 1e-12,
    "phi_crit_root": TOL_ROOT,
    "cop_monotone_phi": 1e-9,
    "eta_monotone_phi": 1e-9,
    "chi_monotone_phi": 1e-9,
    "discord_symmetry": TOL_DISCORD_NUMERIC,
    "discord_numeric_vs_closed": TOL_DISCORD_NUMERIC,
    "entangled_implies_discordant": 0.0,
}


def _check(name: str, deviations: list[float]) -> Check:
    """Worst of a class's per-point deviations (0.0 when it checked none).

    A NaN deviation is the worst of all: it makes the class fail.
    """
    worst = (math.nan if any(math.isnan(d) for d in deviations)
             else max([0.0, *deviations]))
    return Check(name=name, points=len(deviations), max_deviation=worst,
                 tolerance=TOLERANCES.get(name, TOL_CLOSED_FORM))


def point_deviations(params: ProtocolParams,
                     trace: protocol.ProtocolTrace | None = None,
                     model: thermo.EnergyModel | None = None) -> dict[str, float]:
    """Closed-form vs matrix-oracle deviations at a single parameter point.

    ``trace`` and ``model`` default to a fresh run and energy model of
    ``params``; callers that already hold them pass them in.
    """
    trace, model = thermo._trace_and_model(params, trace, model)
    return {
        "work_measurement": abs(
            thermo.work_measurement(params)
            - thermo.work_measurement_matrix(params, trace, model)),
        "work_feedback": abs(
            thermo.work_feedback(params)
            - thermo.work_feedback_matrix(params, trace, model)),
        "heat_reset": abs(
            thermo.heat_reset(params) - thermo.heat_reset_matrix(params, trace, model)),
        "delta_e_system": abs(
            thermo.delta_e_system(params)
            - thermo.delta_e_system_matrix(params, trace, model)),
        "entropy_reduction": abs(
            thermo.entropy_reduction(params) - thermo.entropy_reduction_matrix(params, trace)),
        "total_work": abs(
            thermo.total_work(params) - thermo.total_work_matrix(params, trace, model)),
        "energy_conservation": abs(
            thermo.work_measurement(params) + thermo.work_feedback(params)
            + thermo.total_work_matrix(params, trace, model)),
        "mutual_information": abs(
            correlations.mutual_information_analytic(params)
            - float(correlations._mutual_information(trace.rho_m))),
        "discord_closed_form": abs(
            correlations.discord_analytic(params.eps_s, params.phi)
            - (densmat._vn_entropy(trace.rho_m_s)
               - densmat._vn_entropy(protocol.thermal_qubit(params.eps_s)))),
        "thermal_entropy": abs(
            0.5 * math.log(4.0 / (1.0 - params.eps_a ** 2))
            - params.eps_a * math.atanh(params.eps_a)
            - densmat._vn_entropy(protocol.thermal_qubit(params.eps_a))),
    }


def run_suite(grid_n: int = 12, discord_stride: int = 3,
              temperature: float = 1.0) -> list[Check]:
    """Run every invariant class on the standard grid; return one Check each.

    Each grid point is simulated once; its trace and energy model feed
    both the closed-form comparisons and the property checks.  Raises
    ValueError unless ``grid_n >= 2`` and ``discord_stride >= 1``.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if discord_stride < 1:
        raise ValueError(f"discord_stride must be at least 1, got {discord_stride}")
    grid = standard_grid(grid_n, temperature=temperature)
    acc: dict[str, list[float]] = {}
    extra: dict[str, list[float]] = {name: [] for name in (
        "purity_transfer", "swap_limit", "entropy_invariance", "reset_marginals",
        "post_measurement_ancilla_marginal", "work_positive", "heat_bounds_load",
        "entropy_reduction_nonnegative", "eta_bounded", "ergotropy_bound",
        "cooling_window_sign", "no_cooling_below_bias", "phi_crit_root",
        "cop_monotone_phi", "eta_monotone_phi", "chi_monotone_phi",
        "discord_symmetry", "discord_numeric_vs_closed", "entangled_implies_discordant",
    )}

    half_pi = math.pi / 2
    by_bias: dict[tuple[float, float], list] = {}
    for params in grid:
        trace = protocol.run_protocol(params)
        model = thermo.energy_model(params)
        for name, value in point_deviations(params, trace, model).items():
            acc.setdefault(name, []).append(value)
        report = thermo.figures_of_merit(params)

        extra["purity_transfer"].append(abs(
            densmat._expectation(trace.rho_f_s, trace.rho_f_s) - 0.5 * (1.0 + params.eps_a ** 2)))

        if abs(params.phi - half_pi) < 1e-12:
            extra["swap_limit"].append(max(
                float(np.max(np.abs(trace.rho_f_s - protocol.thermal_qubit(params.eps_a)))),
                float(np.max(np.abs(trace.rho_f_a - protocol.thermal_qubit(params.eps_s))))))

        s0 = densmat._vn_entropy(trace.rho0)
        extra["entropy_invariance"].append(max(
            abs(densmat._vn_entropy(trace.rho_m) - s0),
            abs(densmat._vn_entropy(trace.rho_f) - s0)))

        expected_reset = densmat.tensor(trace.rho_f_s, protocol.thermal_qubit(params.eps_a))
        extra["reset_marginals"].append(float(np.max(np.abs(trace.rho_reset - expected_reset))))

        z = densmat._expectation(densmat.SIGMA_Z, trace.rho_m_a)
        x = densmat._expectation(densmat.SIGMA_X, trace.rho_m_a)
        expected_x = params.eps_s * params.eps_a * math.cos(params.phi)
        extra["post_measurement_ancilla_marginal"].append(max(abs(z), abs(x - expected_x)))

        if params.eps_a > params.eps_s + 1e-12:
            extra["work_positive"].append(max(0.0, -report.total_work))
        extra["heat_bounds_load"].append(max(0.0, report.cooling_load - report.heat_reset))
        extra["entropy_reduction_nonnegative"].append(max(0.0, -report.entropy_reduction))
        if report.eta is not None:
            extra["eta_bounded"].append(max(0.0, report.eta - 1.0, -report.eta))
        extra["ergotropy_bound"].append(max(
            0.0, report.work_feedback - thermo.ergotropy(trace.rho_m, model.hamiltonian)))

        in_window = params.eps_a * math.sin(params.phi) > params.eps_s
        de = report.delta_e_system
        if abs(de) > 1e-12:
            extra["cooling_window_sign"].append(0.0 if (de > 0.0) == in_window else 1.0)
        if math.sin(params.phi) < params.eps_s:
            extra["no_cooling_below_bias"].append(max(0.0, de))

        if params.eps_s > 0.0:
            root = ProtocolParams(params.eps_s, params.eps_a, report.phi_crit, temperature)
            extra["phi_crit_root"].append(abs(thermo.work_feedback(root)))

        by_bias.setdefault((params.eps_s, params.eps_a), []).append((params.phi, report))

    for series in by_bias.values():
        series.sort(key=lambda item: item[0])
        for (_, lo), (_, hi) in zip(series, series[1:]):
            for name in ("cop", "eta", "chi"):
                a, b = getattr(lo, name), getattr(hi, name)
                if a is not None and b is not None:
                    extra[f"{name}_monotone_phi"].append(max(0.0, a - b))

    # Numeric-discord checks on a thinned subgrid (post-measurement state only).
    eps_list = np.linspace(0.0, 0.9, grid_n)[::discord_stride]
    phi_list = np.linspace(0.0, half_pi, grid_n)[::discord_stride]
    for eps_s in eps_list:
        for eps_a in np.linspace(eps_s, 0.95, grid_n)[::discord_stride]:
            for phi in phi_list:
                params = ProtocolParams(float(eps_s), float(eps_a), float(phi), temperature)
                corr = correlations.correlation_report(params)
                d_a, d_s, closed = corr.discord_a, corr.discord_s, corr.discord_analytic
                extra["discord_symmetry"].append(abs(d_a - d_s))
                extra["discord_numeric_vs_closed"].append(max(abs(d_a - closed), abs(d_s - closed)))
                if corr.concurrence > 1e-6:
                    extra["entangled_implies_discordant"].append(max(0.0, 1e-9 - d_a))

    return [_check(name, values) for name, values in {**acc, **extra}.items()]


def point_checks(params: ProtocolParams,
                 trace: protocol.ProtocolTrace | None = None) -> list[Check]:
    """Single-point closed-form vs oracle comparison (for run --verify)."""
    return [_check(name, [value]) for name, value in point_deviations(params, trace).items()]
