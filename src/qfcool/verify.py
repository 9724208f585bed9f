"""Cross-validation of every closed form against density-matrix oracles.

Every check reads ``sweep._Grid``, the evaluator that ``sweep`` reads too: its
closed-form report fields, an array each from one evaluation on the factors of each
axis value, and its matrix stacks, each built once.  ``run_suite`` reads the standard
(eps_s, eps_a, phi) grid through one table of invariant classes, ``CLASSES``.
``point_checks`` (``run --verify``) reads a one-point grid through the oracle classes,
the two numeric-discord classes and ``trace_summary``, which between them check every
number ``run`` prints but the concurrence and its EoF.  Every class is an array
expression, no record: the discord classes read ``_Grid.discords``, one basis search
on both sides of each state of the discord subgrid, against the closed form.  Both
routes run at T = 1, so T moves no check:
``run_suite(n, s, T)`` is ``run_suite(n, s, 1.0)`` wherever T's energies are representable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import closed_forms, densmat, thermo
from .closed_forms import MAX_GRID_POINTS, ProtocolParams, _require_count, thermal_entropy
from .sweep import _Grid, _box, _mapped

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


_new_check = closed_forms._record(Check)


def _standard_axes(n: int, temperature: float) -> tuple[list, list[float], float]:
    """``standard_grid``'s axes, (eps_s, its eps_a axis) series, phi and T, with T
    validated at any n by the upper corner each axis runs to."""
    _require_count("n", n, 0)
    _require_count("grid points", int(n) ** 3, 0, MAX_GRID_POINTS)  # before any axis is built
    temperature = ProtocolParams(EPS_S_MAX, EPS_A_MAX, math.pi / 2, temperature).temperature
    eps_s = np.linspace(0.0, EPS_S_MAX, n)  # then every series' eps_a axis from its eps_s, in one call
    series = list(zip(eps_s.tolist(), np.linspace(eps_s, EPS_A_MAX, n, axis=-1).tolist()))
    return series, np.linspace(0.0, math.pi / 2, n).tolist(), temperature


def standard_grid(n: int = 12, temperature: float = 1.0) -> list[ProtocolParams]:
    """n x n x n grid (``n`` an integer >= 0) with eps_s <= eps_a, including the limit cases."""
    series, phis, temperature = _standard_axes(n, temperature)
    return [ProtocolParams(es, ea, p, temperature) for es, eps_a in series for ea in eps_a for p in phis]


def _by_column(g: _Grid, value: Callable[[float], float]) -> np.ndarray:
    """``value`` of each point's eps_a, taken once per column of the box."""
    return g.flat(_mapped(value, g.column_box.eps_a))


def _pointwise(closed, matrix: np.ndarray) -> np.ndarray:
    """|closed - matrix| at each grid point (one value per point in each)."""
    return np.abs(np.subtract(closed, matrix))


def _positive(excess: np.ndarray, where=slice(None)) -> np.ndarray:
    """max(0, excess) at each grid point that ``where`` selects."""
    return np.maximum(0.0, excess[where])


def _max_abs(stack: np.ndarray) -> np.ndarray:
    return np.abs(stack).max(axis=(-2, -1))


def _ancilla_marginal(g: _Grid) -> np.ndarray:
    x, _, z = densmat._bloch(g.trace.rho_m_a)
    closed = g.flat(g.column_box.eps_s * g.column_box.eps_a * g.row_box.cos)
    return np.maximum(np.abs(z), np.abs(x - closed))


def _ergotropy_bound(g: _Grid) -> np.ndarray:
    # H's levels at |11>, |01>, |10>, |00>, ascending as eps_s <= eps_a at every grid point
    s, a = g.half_splittings.T
    e_s, e_a = thermo._energy(g.half_splittings, g.trace, "rho_m")
    levels = np.stack([-s - a, s - a, a - s, s + a], axis=-1)
    bound = thermo._ergotropy(e_s + e_a, levels, g.spectrum("rho_m"))
    return np.maximum(0.0, g.thermo["work_feedback"] - bound)


def _phi_crit_root(g: _Grid) -> np.ndarray:
    """Feedback work at the root angle, at each point with eps_s > 0.  The root depends on
    (eps_s, eps_a) alone: one per column, shared by its phi series, all in one evaluation."""
    c = closed_forms._Column(*(x[g.column_box.eps_s[:, 0, 0] > 0.0] for x in g.column_box))
    roots = _box(closed_forms._Row, [list(map(closed_forms._row, pcs)) for pcs in c.phi_crit[:, 0].tolist()],
                 c.phi_crit.shape)
    w_f = closed_forms._energies(c, roots)[1]
    return np.broadcast_to(np.abs(w_f), (len(w_f), *g.shape[1:])).ravel()


def _trace_oracles(g: _Grid) -> np.ndarray:
    """``closed_forms._trace_summary`` of each point from the trace's matrices, one row per point
    in the order ``_numbers`` reads the block: the qubit marginals, then the joint states, each by
    name, and per state its Bloch vector tr(rho sigma) (a qubit's), its entropy from its spectrum
    and its purity tr(rho^2)."""
    columns = []
    for name, stack in sorted(vars(g.trace).items(), key=lambda field: (field[1].shape[-1], field[0])):
        if stack.shape[-1] == 2:
            columns += densmat._bloch(stack)
        columns += [g.entropy(name), densmat._purity(stack)]
    return np.stack(columns, axis=-1)


def _numbers(doc: dict) -> Iterator[float]:
    """The numbers of a trace block, in sorted-key order."""
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            yield from _numbers(value)
        else:
            yield from value if isinstance(value, list) else [value]


def _trace_summary(g: _Grid) -> np.ndarray:
    """The largest deviation of each point's closed-form trace block from its matrices."""
    closed = np.array([list(_numbers(closed_forms._trace_summary(*p))) for p in zip(*g.coordinates)])
    return np.abs(closed - _trace_oracles(g)).max(axis=-1)


def _monotone_in_phi(field: str) -> Callable[[_Grid], list[float]]:
    """Rise of ``field`` between neighbouring phi in each (eps_s, eps_a) series, where defined."""
    def deviations(g: _Grid) -> list[float]:
        v = g.thermo[field].reshape(g.shape)  # NaN where undefined
        rise = v[:, :-1] - v[:, 1:]
        return np.maximum(0.0, rise[~np.isnan(rise)]).tolist()
    return deviations


# Invariant classes: name -> (tolerance, deviations of the grid points the
# class checks).  First closed form versus matrix oracle, run --verify's.
ORACLE_CLASSES = {
    **{name: (TOL_CLOSED_FORM, lambda g, name=name: _pointwise(g.thermo[name], g.oracles[name]))
       for name in ("work_measurement", "work_feedback", "heat_reset", "delta_e_system",
                    "entropy_reduction", "total_work")},
    "energy_conservation": (TOL_CLOSED_FORM, lambda g: _pointwise(
        -(g.thermo["work_measurement"] + g.thermo["work_feedback"]), g.oracles["total_work"])),
    # the closed form on the box, S(eps_s cos phi) once per (series, phi), S(eps_s) per series,
    # S(eps_a) per column and S(eps_s eps_a cos phi) per point, against the shared entropies
    "mutual_information": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g.flat(closed_forms._mutual_information(
            g.column_box.eps_s[:, :, :1], g.column_box.eps_a, g.row_box.cos,
            lambda x: _mapped(thermal_entropy, x))),
        g.mutual_info)),
    "discord_closed_form": (TOL_CLOSED_FORM, lambda g: _pointwise(
        g.discord_analytic, g.entropy("rho_m_s") - g.entropy("rho0_s"))),
    "thermal_entropy": (TOL_ENTROPY_FORM, lambda g: _pointwise(
        _by_column(g, lambda ea: math.log(2.0) - 0.5 * (math.log1p(-ea) + math.log1p(ea))
                       - ea * math.atanh(ea)),
        g.entropy("rho0_a"))),
}

CLASSES = {
    **ORACLE_CLASSES,
    "purity_transfer": (TOL_CLOSED_FORM, lambda g: _pointwise(
        _by_column(g, lambda ea: 0.5 * (1.0 + ea ** 2)),
        densmat._purity(g.trace.rho_f_s))),
    "swap_limit": (TOL_CLOSED_FORM, lambda g: np.maximum(
        _max_abs(g.trace.rho_f_s - g.trace.rho0_a), _max_abs(g.trace.rho_f_a - g.trace.rho0_s))[
        g.flat(np.abs(g.row_box.phi - math.pi / 2) < 1e-12)]),
    "entropy_invariance": (TOL_CLOSED_FORM, lambda g: np.abs(
        np.stack([g.entropy("rho_m"), g.entropy("rho_f")]) - g.entropy("rho0")).max(axis=0)),
    # the reset keeps the register's marginal and gives the ancilla its initial state back
    "reset_marginals": (TOL_MARGINAL, lambda g: np.maximum(
        _max_abs(densmat._partial_trace(g.trace.rho_reset, "S") - g.trace.rho_f_s),
        _max_abs(densmat._partial_trace(g.trace.rho_reset, "A") - g.trace.rho0_a))),
    "post_measurement_ancilla_marginal": (TOL_MARGINAL, _ancilla_marginal),
    "work_positive": (0.0, lambda g: _positive(
        -g.thermo["total_work"], g.flat(g.column_box.eps_a > g.column_box.eps_s + 1e-12))),
    "heat_bounds_load": (1e-12, lambda g: _positive(g.thermo["cooling_load"] - g.thermo["heat_reset"])),
    "entropy_reduction_nonnegative": (1e-12, lambda g: _positive(-g.thermo["entropy_reduction"])),
    "eta_bounded": (1e-12, lambda g: _positive(
        np.maximum(g.thermo["eta"] - 1.0, -g.thermo["eta"]), ~g.thermo["reversible_limit"])),
    "ergotropy_bound": (1e-12, _ergotropy_bound),
    "cooling_window_sign": (0.0, lambda g: np.where(
        (g.thermo["delta_e_system"] > 0.0) == g.thermo["in_cooling_window"], 0.0, 1.0)[
        np.abs(g.thermo["delta_e_system"]) > 1e-12]),
    "no_cooling_below_bias": (1e-12, lambda g: _positive(
        g.thermo["delta_e_system"], g.flat(g.row_box.sin < g.column_box.eps_s))),
    "phi_crit_root": (TOL_ROOT, _phi_crit_root),
    **{f"{field}_monotone_phi": (1e-9, _monotone_in_phi(field))
       for field in ("cop", "eta", "chi")},
    "discord_symmetry": (TOL_DISCORD_NUMERIC, lambda g: _pointwise(g.discords.a, g.discords.s)),
    "discord_numeric_vs_closed": (TOL_DISCORD_NUMERIC, lambda g: _pointwise(
        np.stack([g.discords.a, g.discords.s]), g.discords.analytic).max(axis=0)),
    "entangled_implies_discordant": (0.0, lambda g: _positive(1e-9 - g.discords.a, g.discords.concurrence > 1e-6)),
}


# ``run --verify``'s classes: those that compare a number ``run`` prints with
# its matrix route.  The discord classes compare both one-sided discords, which
# ``run`` prints as the closed form, with the basis search.
_POINT_CLASSES = {
    **ORACLE_CLASSES,
    **{name: CLASSES[name] for name in ("discord_symmetry", "discord_numeric_vs_closed")},
    "trace_summary": (TOL_MARGINAL, _trace_summary),
}


def _check(name: str, tolerance: float, deviations) -> Check:
    """Worst of a class's per-point deviations, an array or a list, as a Python float: +0.0 when
    it checked none or each is a zero, and NaN, which fails the class, when any is NaN."""
    d = np.asarray(deviations, dtype=float)
    return _new_check(name, d.size, float(d.max(initial=0.0)) + 0.0, tolerance)


def _checks(classes: dict, grid: _Grid) -> list[Check]:
    """One Check per class of ``classes`` (name -> (tolerance, deviations)), on ``grid``."""
    return [_check(name, tol, deviations(grid)) for name, (tol, deviations) in classes.items()]


def run_suite(grid_n: int = 12, discord_stride: int = 3,
              temperature: float = 1.0) -> list[Check]:
    """Run every invariant class on the standard grid; return one Check each.

    Raises ValueError unless ``grid_n >= 2`` and ``discord_stride >= 1`` are
    integers, and for a temperature ``ProtocolParams`` or ``figures_of_merit`` rejects.
    """
    _require_count("grid_n", grid_n, 2)
    _require_count("discord_stride", discord_stride, 1)
    return _checks(CLASSES, _Grid(*_standard_axes(grid_n, temperature), discord_stride))


def point_checks(params: ProtocolParams) -> list[Check]:
    """``run --verify``'s classes on the one-point grid of ``params``: its trace, the basis
    search on both sides and the energy oracles, all on one protocol run."""
    return _checks(_POINT_CLASSES, _Grid([(params.eps_s, (params.eps_a,))], (params.phi,),
                                         params.temperature))
