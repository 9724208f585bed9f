"""Cross-validation of every closed form against density-matrix oracles.

Every check reads ``sweep._Grid``, the evaluator that ``sweep`` reads too:
its closed-form reports, built on the factors of each axis value, and its
matrix stacks, each built once.  ``run_suite`` reads the standard
(eps_s, eps_a, phi) grid through one table of invariant classes,
``CLASSES``.  ``point_checks`` (``run --verify``) reads a one-point grid
through the oracle classes, the two numeric-discord classes and
``trace_summary``, which between them check every number ``run`` prints
but the concurrence and its EoF.  The discord classes run the basis search
on both sides of each state of the discord subgrid, in one search, and
compare it with the closed form.  Energy deviations are in units of T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Sequence

import numpy as np

from . import closed_forms, densmat, thermo
from .closed_forms import ProtocolParams, _require_count, thermal_entropy
from .sweep import _Grid

TOL_CLOSED_FORM = 1e-10
TOL_ENTROPY_FORM = 1e-12
TOL_MARGINAL = 1e-12
TOL_DISCORD_NUMERIC = 1e-6
TOL_ROOT = 1e-9
# Upper ends of the standard grid's bias axes.
EPS_S_MAX = 0.9
EPS_A_MAX = 0.95


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


def _standard_axes(n: int, temperature: float) -> tuple[list, list[float], float]:
    """``standard_grid``'s axes, (eps_s, its eps_a axis) series, phi and T, with T
    validated at any n by the upper corner each axis runs to."""
    _require_count("n", n, 0)
    temperature = ProtocolParams(EPS_S_MAX, EPS_A_MAX, math.pi / 2, temperature).temperature
    series = [(es, np.linspace(es, EPS_A_MAX, n).tolist()) for es in np.linspace(0.0, EPS_S_MAX, n).tolist()]
    return series, np.linspace(0.0, math.pi / 2, n).tolist(), temperature


def standard_grid(n: int = 12, temperature: float = 1.0) -> list[ProtocolParams]:
    """n x n x n grid (``n`` an integer >= 0) with eps_s <= eps_a, including the limit cases."""
    series, phis, temperature = _standard_axes(n, temperature)
    return [ProtocolParams(es, ea, p, temperature) for es, eps_a in series for ea in eps_a for p in phis]


def _by_column(g: _Grid, value: Callable[[closed_forms._Column], float]) -> list[float]:
    """``value`` of each point's eps_a column, taken once per column."""
    return [v for values in [[value(c) for c in columns] for columns in g.columns]
            for _ in g.rows for v in values]


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
    return [d for columns in g.columns if columns[0].eps_s > 0.0 for c in columns
            for d in [abs(report(c, closed_forms._row(c.phi_crit)).work_feedback) / g.temperature]
            * len(g.rows)]


def _trace_oracles(g: _Grid) -> list[dict]:
    """``closed_forms._trace_summary`` of each point from the trace's matrices: each state's
    purity tr(rho^2), its entropy from its spectrum and, for a qubit, tr(rho sigma)."""
    docs = [{"marginals": {}} for _ in g.points]
    for name, stack in vars(g.trace).items():
        purity, entropy = densmat._expectation(stack, stack).tolist(), g.entropy(name).tolist()
        if stack.shape[-1] == 4:
            for doc, p, s in zip(docs, purity, entropy):
                doc[name] = {"purity": p, "entropy": s}
            continue
        bloch = np.stack([densmat._expectation(s, stack) for s in densmat.PAULI], axis=-1).tolist()
        for doc, p, s, b in zip(docs, purity, entropy, bloch):
            doc["marginals"][name] = {"purity": p, "entropy": s, "bloch": b}
    return docs


def _numbers(doc: dict) -> Iterator[float]:
    """The numbers of a trace block, in sorted-key order."""
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            yield from _numbers(value)
        else:
            yield from value if isinstance(value, list) else [value]


def _trace_summary(g: _Grid) -> list[float]:
    """The largest deviation of each point's closed-form trace block from its matrices."""
    return [max(abs(c - m) for c, m in zip(_numbers(closed_forms._trace_summary(p)), _numbers(doc),
                                           strict=True))
            for p, doc in zip(g.points, _trace_oracles(g))]


def _monotone_in_phi(field: str) -> Callable[[_Grid], list[float]]:
    """Rise of ``field`` between neighbouring phi in each (eps_s, eps_a) series, where defined."""
    def deviations(g: _Grid) -> list[float]:
        v = np.array([getattr(r, field) for r in g.reports], dtype=float).reshape(g.shape)  # None: NaN
        rise = v[:, :-1] - v[:, 1:]
        return np.maximum(0.0, rise[~np.isnan(rise)]).tolist()
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
    # the closed form, each entropy but the ancilla's once per bias, against the shared entropies
    "mutual_information": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, [closed_forms._mutual_information(p.eps_s, p.eps_a, math.cos(p.phi), shared)
            for shared in [cache(thermal_entropy)] for p in g.points],
        g.entropy("rho_m_s") + g.entropy("rho_m_a") - g.entropy("rho_m"))),
    "discord_closed_form": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, g.discord_analytic, g.entropy("rho_m_s") - g.entropy("thermal_s"))),
    "thermal_entropy": (TOL_ENTROPY_FORM, lambda g: _pointwise(
        g, _by_column(g, lambda c: math.log(2.0) - 0.5 * (math.log1p(-c.eps_a) + math.log1p(c.eps_a))
                       - c.eps_a * math.atanh(c.eps_a)),
        g.entropy("thermal_a"))),
}

CLASSES = {
    **ORACLE_CLASSES,
    "purity_transfer": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g, _by_column(g, lambda c: 0.5 * (1.0 + c.eps_a ** 2)),
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
        max(0.0, r.delta_e_system) / g.temperature for (c, row), r in zip(g.cells(), g.reports)
        if row.sin < c.eps_s]),
    "phi_crit_root": (TOL_ROOT, _phi_crit_root),
    **{f"{field}_monotone_phi": (1e-9, _monotone_in_phi(field))
       for field in ("cop", "eta", "chi")},
    "discord_symmetry": (TOL_DISCORD_NUMERIC, lambda g: [
        abs(r.discord_a - r.discord_s) for r in g.discord_reports]),
    "discord_numeric_vs_closed": (TOL_DISCORD_NUMERIC, lambda g: [
        max(abs(d - r.discord_analytic) for d in (r.discord_a, r.discord_s)) for r in g.discord_reports]),
    "entangled_implies_discordant": (0.0, lambda g: [
        max(0.0, 1e-9 - r.discord_a) for r in g.discord_reports if r.concurrence > 1e-6]),
}


# ``run --verify``'s classes: those that compare a number ``run`` prints with
# its matrix route.  The discord classes compare both one-sided discords, which
# ``run`` prints as the closed form, with the basis search.
_POINT_CLASSES = {
    **ORACLE_CLASSES,
    **{name: CLASSES[name] for name in ("discord_symmetry", "discord_numeric_vs_closed")},
    "trace_summary": (TOL_MARGINAL, _trace_summary),
}


def _check(name: str, tolerance: float, deviations: Sequence[float]) -> Check:
    """Worst of a class's per-point deviations (0.0 when it checked none).

    A NaN deviation is the worst of all: it makes the class fail.
    """
    worst = math.nan if any(map(math.isnan, deviations)) else max([0.0, *deviations])
    return Check(name=name, points=len(deviations), max_deviation=worst, tolerance=tolerance)


def _checks(classes: dict, grid: _Grid) -> list[Check]:
    """One Check per class of ``classes`` (name -> (tolerance, deviations)), on ``grid``."""
    return [_check(name, tol, deviations(grid)) for name, (tol, deviations) in classes.items()]


def run_suite(grid_n: int = 12, discord_stride: int = 3,
              temperature: float = 1.0) -> list[Check]:
    """Run every invariant class on the standard grid; return one Check each.

    Raises ValueError unless ``grid_n >= 2`` and ``discord_stride >= 1``
    are integers, and for a temperature ``ProtocolParams`` rejects.
    """
    _require_count("grid_n", grid_n, 2)
    _require_count("discord_stride", discord_stride, 1)
    return _checks(CLASSES, _Grid(*_standard_axes(grid_n, temperature), discord_stride))


def point_checks(params: ProtocolParams) -> list[Check]:
    """``run --verify``'s classes on the one-point grid of ``params``: its trace, the basis
    search on both sides and the energy oracles, all on one protocol run."""
    return _checks(_POINT_CLASSES, _Grid([(params.eps_s, (params.eps_a,))], (params.phi,),
                                         params.temperature))
