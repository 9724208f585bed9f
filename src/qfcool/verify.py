"""Cross-validation of every closed form against density-matrix oracles.

``run_suite`` evaluates a standard (eps_s, eps_a, phi) grid in one stacked
pass, closed forms on the factors of each axis value, built once as a sweep
builds them, and reads it through one table of invariant classes, ``CLASSES``.
``point_checks`` (``run --verify``) evaluates the oracle rows on a one-point
grid, against the ``figures_of_merit`` report that ``run`` emits.  The
discord classes read the correlation reports that ``run`` emits, built for
the whole discord subgrid in one basis search.  Energy deviations are in
units of T.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from . import closed_forms, correlations, densmat, protocol, thermo
from .closed_forms import _require_count, thermal_entropy
from .protocol import ProtocolParams

TOL_CLOSED_FORM = 1e-10
TOL_ENTROPY_FORM = 1e-12
TOL_MARGINAL = 1e-12
TOL_DISCORD_NUMERIC = 1e-6
TOL_ROOT = 1e-9
# Upper ends of the standard grid's bias axes.
EPS_S_MAX = 0.9
EPS_A_MAX = 0.95

_Point = namedtuple("_Point", "eps_s eps_a phi temperature")


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


def _standard_points(n: int, temperature: float) -> list[_Point]:
    """``standard_grid``'s points, validated at any n by the upper corner each axis runs to."""
    _require_count("n", n, 0)
    temperature = ProtocolParams(EPS_S_MAX, EPS_A_MAX, math.pi / 2, temperature).temperature
    eps_s, phi = np.linspace(0.0, EPS_S_MAX, n).tolist(), np.linspace(0.0, math.pi / 2, n).tolist()
    return [_Point(es, ea, p, temperature)
            for es in eps_s for ea in np.linspace(es, EPS_A_MAX, n).tolist() for p in phi]


def standard_grid(n: int = 12, temperature: float = 1.0) -> list[ProtocolParams]:
    """n x n x n grid (``n`` an integer >= 0) with eps_s <= eps_a, including the limit cases."""
    return [ProtocolParams(*p) for p in _standard_points(n, temperature)]


class _Grid:
    """Stacks over the points of a grid (``standard_grid`` order, ``n`` per axis, one T).

    Each spectrum, entropy and closed-form discord is computed once, on
    first use; the thermo reports and the numeric discords too.
    """

    def __init__(self, points: Sequence, n: int = 1, discord_stride: int = 1):
        self.points, self.n, self.discord_stride = points, n, discord_stride
        self.temperature = points[0].temperature
        step = n * n  # the closed forms' factors: a column per eps_a of each eps_s series, a row per phi
        self.columns = [closed_forms._columns(points[i].eps_s, [p.eps_a for p in points[i:i + step:n]],
                                              self.temperature) for i in range(0, len(points), step)]
        self.rows = [closed_forms._row(p.phi) for p in points[:n]]
        eps_s, eps_a, phi = zip(*((p.eps_s, p.eps_a, p.phi) for p in points))
        self.trace = protocol._run_protocols(eps_s, eps_a, phi)
        self.model = thermo._energy_models(points)
        self.energies = thermo._energies(self.model.hamiltonian, self.trace)
        self.oracles = thermo._oracles(self.trace, self.model, self.energies)
        # the stacks whose spectra the classes read: the trace fields and the thermal qubits
        self.states = {**vars(self.trace), "thermal_s": protocol._thermal_qubits(eps_s),
                       "thermal_a": protocol._thermal_qubits(eps_a)}
        self._spectra: dict[str, np.ndarray] = {}
        self._entropies: dict[str, np.ndarray] = {}
        self._closed_discords = cache(correlations.discord_analytic)

    def spectrum(self, name: str) -> np.ndarray:
        """Ascending eigenvalues of each matrix of the stack ``states[name]``."""
        if name not in self._spectra:
            self._spectra[name] = np.linalg.eigvalsh(self.states[name])
        return self._spectra[name]

    def entropy(self, name: str) -> np.ndarray:
        """Von Neumann entropy of each matrix of the stack ``states[name]``."""
        if name not in self._entropies:
            self._entropies[name] = densmat._spectrum_entropy(self.spectrum(name))
        return self._entropies[name]

    def discord_analytic(self, p) -> float:
        """The closed-form discord at ``p``, which depends on (eps_s, phi) alone."""
        return self._closed_discords(p.eps_s, p.phi)

    def by_column(self, value: Callable[[closed_forms._Column], float]) -> list[float]:
        """``value`` of each point's column, taken once per column."""
        return [v for series in self.columns for c in series for v in [value(c)] * self.n]

    @cached_property
    def reports(self) -> list[thermo.ThermoReport]:
        report = closed_forms._report  # figures_of_merit's call, on columns and rows built once
        return [report(c, r) for series in self.columns for c in series for r in self.rows]

    @cached_property
    def mutual_information(self) -> list[float]:
        """The closed form at each point, each entropy but the ancilla's once per distinct bias."""
        shared = cache(thermal_entropy)
        return [closed_forms._mutual_information(p.eps_s, p.eps_a, math.cos(p.phi), shared)
                for p in self.points]

    @cached_property
    def discords(self) -> list[correlations.CorrelationReport]:
        # run's report at each point whose three axis indices are multiples of the stride
        n, stride = self.n, self.discord_stride
        index = np.arange(n ** 3).reshape(n, n, n)[::stride, ::stride, ::stride].ravel().tolist()
        mi = (self.entropy("rho_m_s") + self.entropy("rho_m_a") - self.entropy("rho_m"))[index].tolist()
        return correlations._reports(self.trace.rho_m[index], [
            self.discord_analytic(self.points[i]) for i in index], numeric=True, mutual_info=mi)


def _pointwise(g: _Grid, closed: Sequence[float], matrix: np.ndarray, energy: bool = False) -> list[float]:
    """|closed - matrix| at each grid point (one value per point in each), in units of T for an energy."""
    unit = g.temperature if energy else 1.0
    return [abs(c - m) / unit for c, m in zip(closed, matrix.tolist())]


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).max(axis=(-2, -1))


def _swap_limit(g: _Grid) -> list[float]:
    dev = np.maximum(_max_abs(g.trace.rho_f_s - g.states["thermal_a"]),
                     _max_abs(g.trace.rho_f_a - g.states["thermal_s"]))
    return [d for p, d in zip(g.points, dev.tolist()) if abs(p.phi - math.pi / 2) < 1e-12]


def _entropy_invariance(g: _Grid) -> list[float]:
    s0 = g.entropy("rho0")
    return np.maximum(np.abs(g.entropy("rho_m") - s0), np.abs(g.entropy("rho_f") - s0)).tolist()


def _ancilla_marginal(g: _Grid) -> list[float]:
    z = densmat._diagonal_expectation(np.diagonal(densmat.SIGMA_Z), g.trace.rho_m_a).tolist()
    x = densmat._expectation(densmat.SIGMA_X, g.trace.rho_m_a).tolist()
    return [max(abs(zi), abs(xi - p.eps_s * p.eps_a * math.cos(p.phi)))
            for p, zi, xi in zip(g.points, z, x)]


def _ergotropy_bound(g: _Grid) -> list[float]:
    bound = thermo._ergotropy(g.energies["rho_m"], g.model.hamiltonian, g.spectrum("rho_m"))
    return [max(0.0, r.work_feedback - e) / g.temperature for r, e in zip(g.reports, bound.tolist())]


def _phi_crit_root(g: _Grid) -> list[float]:
    """Feedback work at the root angle over T, at each point with eps_s > 0.  The root
    depends on (eps_s, eps_a, T) alone: one per column, shared by its phi series."""
    report = closed_forms._report
    return [d for series in g.columns if series[0].eps_s > 0.0 for c in series
            for d in [abs(report(c, closed_forms._row(c.phi_crit)).work_feedback) / g.temperature] * g.n]


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
    **{name: (TOL_CLOSED_FORM, lambda g, name=name: _pointwise(
        g, [getattr(r, name) for r in g.reports], g.oracles[name], energy=name != "entropy_reduction"))
       for name in ("work_measurement", "work_feedback", "heat_reset", "delta_e_system",
                    "entropy_reduction", "total_work")},
    "energy_conservation": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, [-(r.work_measurement + r.work_feedback) for r in g.reports], g.oracles["total_work"],
        energy=True)),
    # the matrix route is correlations._mutual_information(rho_m), from the shared entropies
    "mutual_information": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, g.mutual_information, g.entropy("rho_m_s") + g.entropy("rho_m_a") - g.entropy("rho_m"))),
    "discord_closed_form": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, [g.discord_analytic(p) for p in g.points], g.entropy("rho_m_s") - g.entropy("thermal_s"))),
    "thermal_entropy": (TOL_ENTROPY_FORM, lambda g: _pointwise(
        g, g.by_column(lambda c: math.log(2.0) - 0.5 * (math.log1p(-c.eps_a) + math.log1p(c.eps_a))
                       - c.eps_a * math.atanh(c.eps_a)),
        g.entropy("thermal_a"))),
}

CLASSES = {
    **ORACLE_CLASSES,
    "purity_transfer": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, g.by_column(lambda c: 0.5 * (1.0 + c.eps_a ** 2)),
        densmat._expectation(g.trace.rho_f_s, g.trace.rho_f_s))),
    "swap_limit": (TOL_CLOSED_FORM, _swap_limit),
    "entropy_invariance": (TOL_CLOSED_FORM, _entropy_invariance),
    # the reset keeps the register's marginal and gives the ancilla its initial state back
    "reset_marginals": (TOL_MARGINAL, lambda g: np.maximum(
        _max_abs(densmat._partial_trace(g.trace.rho_reset, "S") - g.trace.rho_f_s),
        _max_abs(densmat._partial_trace(g.trace.rho_reset, "A") - g.trace.rho0_a)).tolist()),
    "post_measurement_ancilla_marginal": (TOL_MARGINAL, _ancilla_marginal),
    "work_positive": (0.0, lambda g: [
        max(0.0, -r.total_work) / g.temperature for p, r in zip(g.points, g.reports)
        if p.eps_a > p.eps_s + 1e-12]),
    "heat_bounds_load": (1e-12, lambda g: [
        max(0.0, r.cooling_load - r.heat_reset) / g.temperature for r in g.reports]),
    "entropy_reduction_nonnegative": (1e-12, lambda g: [
        max(0.0, -r.entropy_reduction) for r in g.reports]),
    "eta_bounded": (1e-12, lambda g: [
        max(0.0, r.eta - 1.0, -r.eta) for r in g.reports if r.eta is not None]),
    "ergotropy_bound": (1e-12, _ergotropy_bound),
    "cooling_window_sign": (0.0, lambda g: [
        0.0 if (r.delta_e_system > 0.0) == r.in_cooling_window else 1.0
        for r in g.reports if abs(r.delta_e_system) > 1e-12 * g.temperature]),
    "no_cooling_below_bias": (1e-12, lambda g: [
        max(0.0, r.delta_e_system) / g.temperature for p, r in zip(g.points, g.reports)
        if math.sin(p.phi) < p.eps_s]),
    "phi_crit_root": (TOL_ROOT, _phi_crit_root),
    **{f"{field}_monotone_phi": (1e-9, _monotone_in_phi(field))
       for field in ("cop", "eta", "chi")},
    "discord_symmetry": (TOL_DISCORD_NUMERIC, lambda g: [
        abs(r.discord_a - r.discord_s) for r in g.discords]),
    "discord_numeric_vs_closed": (TOL_DISCORD_NUMERIC, lambda g: [
        max(abs(d - r.discord_analytic) for d in (r.discord_a, r.discord_s)) for r in g.discords]),
    "entangled_implies_discordant": (0.0, lambda g: [
        max(0.0, 1e-9 - r.discord_a) for r in g.discords if r.concurrence > 1e-6]),
}


def _check(name: str, deviations: Sequence[float]) -> Check:
    """Worst of a class's per-point deviations (0.0 when it checked none).

    A NaN deviation is the worst of all: it makes the class fail.
    """
    worst = (math.nan if any(map(math.isnan, deviations))
             else max([0.0, *deviations]))
    return Check(name=name, points=len(deviations), max_deviation=worst,
                 tolerance=CLASSES[name][0])


def run_suite(grid_n: int = 12, discord_stride: int = 3,
              temperature: float = 1.0) -> list[Check]:
    """Run every invariant class on the standard grid; return one Check each.

    Raises ValueError unless ``grid_n >= 2`` and ``discord_stride >= 1``
    are integers, and for a temperature ``ProtocolParams`` rejects.
    """
    _require_count("grid_n", grid_n, 2)
    _require_count("discord_stride", discord_stride, 1)
    grid = _Grid(_standard_points(grid_n, temperature), grid_n, discord_stride)
    return [_check(name, deviations(grid)) for name, (_, deviations) in CLASSES.items()]


def point_checks(params: ProtocolParams) -> list[Check]:
    """The closed-form vs oracle classes at a single point, on run's report (for run --verify)."""
    grid = _Grid([params])
    return [_check(name, deviations(grid)) for name, (_, deviations) in ORACLE_CLASSES.items()]
