"""Cross-validation of every closed form against density-matrix oracles.

``run_suite`` evaluates a standard (eps_s, eps_a, phi) grid in one stacked
pass, closed forms kept scalar per point, and reads it through one table of
invariant classes, ``CLASSES``.  The closed-form side of a class is the
``figures_of_merit`` report that ``run`` and ``sweep`` emit.
``point_checks`` (``run --verify``) evaluates the oracle rows on a
one-point grid.  Energy deviations are in units of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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


class _Grid:
    """Stacks over the points of a grid (``standard_grid`` order, ``n`` per axis).

    The thermo reports and the numeric discords are built on first use.
    """

    def __init__(self, points: Sequence[ProtocolParams], n: int = 1, discord_stride: int = 1):
        self.points = points
        self.n = n
        self.discord_stride = discord_stride
        eps_s, eps_a, phi = zip(*((p.eps_s, p.eps_a, p.phi) for p in points))
        self.trace = protocol._run_protocols(eps_s, eps_a, phi)
        self.model = thermo._energy_models(points)
        self.oracles = thermo._oracles(self.trace, self.model)
        self.thermal_s = protocol._thermal_qubits(eps_s)
        self.thermal_a = protocol._thermal_qubits(eps_a)
        self.mutual_information = correlations._mutual_information(self.trace.rho_m)

    @cached_property
    def reports(self) -> list[thermo.ThermoReport]:
        return [thermo.figures_of_merit(p) for p in self.points]

    @cached_property
    def discords(self) -> list[tuple[float, float, float, float]]:
        # (concurrence, discord_a, discord_s, discord_analytic) at each point
        # whose three axis indices are multiples of discord_stride.
        n, stride = self.n, self.discord_stride
        index = np.arange(n ** 3).reshape(n, n, n)[::stride, ::stride, ::stride].ravel()
        rho_m = self.trace.rho_m[index]
        blochs = [correlations._bloch_components(r) for r in rho_m]
        gains = [g for _, _, g in correlations._optimal_measurements(
            blochs * 2, ["A"] * len(blochs) + ["S"] * len(blochs), None)]
        return [(conc, correlations._discord(mi, g_a), correlations._discord(mi, g_s),
                 correlations.discord_analytic(self.points[i].eps_s, self.points[i].phi))
                for i, conc, mi, g_a, g_s in zip(
                    index.tolist(), correlations._concurrence(rho_m).tolist(),
                    self.mutual_information[index].tolist(), gains, gains[len(blochs):])]


def _pointwise(grid: _Grid, closed: Callable[[ProtocolParams], float],
               matrix: np.ndarray, energy: bool = False) -> list[float]:
    return [abs(closed(p) - m) / (p.temperature if energy else 1.0)
            for p, m in zip(grid.points, matrix.tolist())]


def _versus_oracle(name: str, energy: bool) -> Callable[[_Grid], list[float]]:
    """Report field ``name`` against its matrix oracle."""
    def deviations(g: _Grid) -> list[float]:
        return [abs(getattr(r, name) - m) / (p.temperature if energy else 1.0)
                for p, r, m in zip(g.points, g.reports, g.oracles[name].tolist())]
    return deviations


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).max(axis=(-2, -1))


def _swap_limit(g: _Grid) -> list[float]:
    dev = np.maximum(_max_abs(g.trace.rho_f_s - g.thermal_a), _max_abs(g.trace.rho_f_a - g.thermal_s))
    return [d for p, d in zip(g.points, dev.tolist()) if abs(p.phi - math.pi / 2) < 1e-12]


def _entropy_invariance(g: _Grid) -> list[float]:
    s0 = densmat._vn_entropies(g.trace.rho0)
    return np.maximum(np.abs(densmat._vn_entropies(g.trace.rho_m) - s0),
                      np.abs(densmat._vn_entropies(g.trace.rho_f) - s0)).tolist()


def _ancilla_marginal(g: _Grid) -> list[float]:
    z = densmat._expectation(densmat.SIGMA_Z, g.trace.rho_m_a).tolist()
    x = densmat._expectation(densmat.SIGMA_X, g.trace.rho_m_a).tolist()
    return [max(abs(zi), abs(xi - p.eps_s * p.eps_a * math.cos(p.phi)))
            for p, zi, xi in zip(g.points, z, x)]


def _ergotropy_bound(g: _Grid) -> list[float]:
    rho_m = g.trace.rho_m
    bound = thermo._ergotropy(rho_m, g.model.hamiltonian, np.linalg.eigvalsh(rho_m))
    return [max(0.0, r.work_feedback - e) / p.temperature
            for p, r, e in zip(g.points, g.reports, bound.tolist())]


def _monotone_in_phi(field: str) -> Callable[[_Grid], list[float]]:
    """Rise of ``field`` between neighbouring phi in each (eps_s, eps_a) series."""
    def deviations(g: _Grid) -> list[float]:
        values = [getattr(r, field) for r in g.reports]
        series = [values[i:i + g.n] for i in range(0, len(values), g.n)]
        return [max(0.0, a - b) for s in series for a, b in zip(s, s[1:])
                if a is not None and b is not None]
    return deviations


# Invariant classes: name -> (tolerance, deviations of the grid points the
# class checks).  First closed form versus matrix oracle, run --verify's.
ORACLE_CLASSES = {
    **{name: (TOL_CLOSED_FORM, _versus_oracle(name, energy=name != "entropy_reduction"))
       for name in ("work_measurement", "work_feedback", "heat_reset", "delta_e_system",
                    "entropy_reduction", "total_work")},
    "energy_conservation": (TOL_CLOSED_FORM, lambda g: [
        abs(r.work_measurement + r.work_feedback + w) / p.temperature
        for p, r, w in zip(g.points, g.reports, g.oracles["total_work"].tolist())]),
    "mutual_information": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, correlations.mutual_information_analytic, g.mutual_information)),
    "discord_closed_form": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, lambda p: correlations.discord_analytic(p.eps_s, p.phi),
        densmat._vn_entropies(g.trace.rho_m_s) - densmat._vn_entropies(g.thermal_s))),
    "thermal_entropy": (TOL_ENTROPY_FORM, lambda g: _pointwise(
        g, lambda p: 0.5 * math.log(4.0 / (1.0 - p.eps_a ** 2)) - p.eps_a * math.atanh(p.eps_a),
        densmat._vn_entropies(g.thermal_a))),
}

CLASSES = {
    **ORACLE_CLASSES,
    "purity_transfer": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, lambda p: 0.5 * (1.0 + p.eps_a ** 2),
        densmat._expectation(g.trace.rho_f_s, g.trace.rho_f_s))),
    "swap_limit": (TOL_CLOSED_FORM, _swap_limit),
    "entropy_invariance": (TOL_CLOSED_FORM, _entropy_invariance),
    "reset_marginals": (TOL_MARGINAL, lambda g: _max_abs(
        g.trace.rho_reset - densmat._tensor(g.trace.rho_f_s, g.thermal_a)).tolist()),
    "post_measurement_ancilla_marginal": (TOL_MARGINAL, _ancilla_marginal),
    "work_positive": (0.0, lambda g: [
        max(0.0, -r.total_work) / p.temperature for p, r in zip(g.points, g.reports)
        if p.eps_a > p.eps_s + 1e-12]),
    "heat_bounds_load": (1e-12, lambda g: [
        max(0.0, r.cooling_load - r.heat_reset) / p.temperature for p, r in zip(g.points, g.reports)]),
    "entropy_reduction_nonnegative": (1e-12, lambda g: [
        max(0.0, -r.entropy_reduction) for r in g.reports]),
    "eta_bounded": (1e-12, lambda g: [
        max(0.0, r.eta - 1.0, -r.eta) for r in g.reports if r.eta is not None]),
    "ergotropy_bound": (1e-12, _ergotropy_bound),
    "cooling_window_sign": (0.0, lambda g: [
        0.0 if (r.delta_e_system > 0.0) == r.in_cooling_window else 1.0
        for p, r in zip(g.points, g.reports) if abs(r.delta_e_system) > 1e-12 * p.temperature]),
    "no_cooling_below_bias": (1e-12, lambda g: [
        max(0.0, r.delta_e_system) / p.temperature for p, r in zip(g.points, g.reports)
        if math.sin(p.phi) < p.eps_s]),
    "phi_crit_root": (TOL_ROOT, lambda g: [
        abs(thermo.work_feedback(ProtocolParams(p.eps_s, p.eps_a, r.phi_crit, p.temperature)))
        / p.temperature for p, r in zip(g.points, g.reports) if p.eps_s > 0.0]),
    **{f"{field}_monotone_phi": (1e-9, _monotone_in_phi(field))
       for field in ("cop", "eta", "chi")},
    "discord_symmetry": (TOL_DISCORD_NUMERIC, lambda g: [
        abs(d_a - d_s) for _, d_a, d_s, _ in g.discords]),
    "discord_numeric_vs_closed": (TOL_DISCORD_NUMERIC, lambda g: [
        max(abs(d_a - closed), abs(d_s - closed)) for _, d_a, d_s, closed in g.discords]),
    "entangled_implies_discordant": (0.0, lambda g: [
        max(0.0, 1e-9 - d_a) for conc, d_a, _, _ in g.discords if conc > 1e-6]),
}


def _check(name: str, deviations: Sequence[float]) -> Check:
    """Worst of a class's per-point deviations (0.0 when it checked none).

    A NaN deviation is the worst of all: it makes the class fail.
    """
    worst = (math.nan if any(math.isnan(d) for d in deviations)
             else max([0.0, *deviations]))
    return Check(name=name, points=len(deviations), max_deviation=worst,
                 tolerance=CLASSES[name][0])


def run_suite(grid_n: int = 12, discord_stride: int = 3,
              temperature: float = 1.0) -> list[Check]:
    """Run every invariant class on the standard grid; return one Check each.

    Raises ValueError unless ``grid_n >= 2`` and ``discord_stride >= 1``,
    and for a temperature ``ProtocolParams`` rejects.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    if discord_stride < 1:
        raise ValueError(f"discord_stride must be at least 1, got {discord_stride}")
    grid = _Grid(standard_grid(grid_n, temperature=temperature), grid_n, discord_stride)
    return [_check(name, deviations(grid)) for name, (_, deviations) in CLASSES.items()]


def point_checks(params: ProtocolParams) -> list[Check]:
    """The closed-form vs oracle classes at a single point (for run --verify)."""
    grid = _Grid([params])
    return [_check(name, deviations(grid)) for name, (_, deviations) in ORACLE_CLASSES.items()]
