"""Parameter-space exploration: characteristic curves, landscapes,
working-point optimization and boundary curves.

All outputs are pure functions of their inputs: recomputing any emitted
point from scratch reproduces it bit for bit.  Each grid is validated once,
where it is built: a landscape's by ``SweepGrid`` at its two corners, a
characteristic curve's by one ``ProtocolParams`` at its far corner, ``verify``'s
standard grid at its upper corner and ``run --verify``'s point by its own.
One private evaluator, ``_Grid``, evaluates the cycle for landscapes, characteristic
curves and ``verify``, ``run --verify`` among them: closed-form factors built once per
eps_a column and phi row, every report field from one evaluation of the shared formulas
on the whole box of them, and on first use the protocol trace, each field's spectrum and
each point's half level splittings, by which the energies weigh the qubit marginals'
<sigma_z> (no Hamiltonian is stacked).  The scalar searches (working point, cooling-load
inverse and the closed-form separability angle) live in the numpy-free ``closed_forms``
module, evaluate through the same factors and are re-exported here.  Everything runs
in-process on the calling thread.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import closed_forms, correlations, densmat, protocol, thermo
from .closed_forms import (  # re-exported
    EPS_A_CLAMP, OBJECTIVES, CorrelationReport, ProtocolParams, SeparabilityBoundary, ThermoReport,
    WorkingPoint, _is_finite_real, _real, _require_count, eps_a_for_cooling_load,
    optimize_working_point, separability_boundary,
)

# Grid correlations are evaluated on (n, 4, 4) state stacks of at most this
# many points, which bounds the memory of a stack whatever the grid size.
CHUNK_POINTS = 256


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular (phi, eps_a) grid at fixed register bias."""

    eps_s: float
    phi_values: tuple[float, ...]
    eps_a_values: tuple[float, ...]
    temperature: float = 1.0

    def __post_init__(self):
        # The scalars by closed_forms._real, then the axes, then ProtocolParams at
        # the two corners: on strictly increasing axes they bound every point.
        for name, domain in (("eps_s", "bias"), ("temperature", "temperature")):
            object.__setattr__(self, name, _real(name, getattr(self, name), domain))
        for name in ("phi_values", "eps_a_values"):
            values = tuple(getattr(self, name))
            if not all(map(_is_finite_real, values)):
                raise ValueError(f"{name} must all be finite numbers")
            if not values:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, tuple(map(float, values)))
        eps_a, phi = self.eps_a_values, self.phi_values
        ProtocolParams(self.eps_s, eps_a[0], phi[0], self.temperature)
        ProtocolParams(self.eps_s, eps_a[-1], phi[-1], self.temperature)
        # Last, so that a reversed axis from an end out of its domain names that bound.
        for name, values in (("phi_values", phi), ("eps_a_values", eps_a)):
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class CurvePoint:
    """One evaluated grid point; correlations are filled on demand."""

    eps_a: float
    phi: float
    thermo: ThermoReport
    correlations: Optional[CorrelationReport] = None


class BoundaryPoint(NamedTuple):
    phi: float
    eps_a: float


@dataclass(frozen=True)
class Landscape:
    """Full grid evaluation plus the regime boundary curves."""

    points: tuple[CurvePoint, ...]
    cooling_window_boundary: tuple[BoundaryPoint, ...]
    work_extraction_boundary: tuple[BoundaryPoint, ...]


_Discords = namedtuple("_Discords", "a s analytic concurrence")


def _box(cls, table: list, shape: tuple) -> tuple:
    """A table of ``cls`` records (columns or rows) as one ``cls`` of arrays shaped ``shape``."""
    return cls(*np.moveaxis(np.array(table, dtype=float), -1, 0).reshape(-1, *shape))


class _Grid:
    """The cycle on validated axes: a series per register bias eps_s, each with its
    own eps_a axis of one common length, times one phi axis, at one temperature.

    Points run in (series, phi, eps_a) order, as a landscape emits them, and readers select them by axis index
    on the box ``shape``.  Construction builds the closed forms: a column per eps_a of each series and a row per
    phi, stacked as (S, 1, E) and (1, P, 1) arrays, each report field of every point at T = 1 (``thermo``) and
    each field as emitted, on the box in field order (``emitted``), from one ``closed_forms._report_fields``
    call on those, which ``figures_of_merit`` makes on floats, one closed-form discord per (eps_s, phi) and the
    points' (eps_s, eps_a, phi) ``coordinates``, each per-point value once, flat (``emitted`` aside), in grid
    order.  Each matrix stack, all at T = 1 as ``thermo``, and each array read from them is built on first read.
    """

    def __init__(self, series: Sequence[tuple[float, Sequence[float]]], phi_values: Sequence[float],
                 temperature: float, discord_stride: int = 1):
        self.discord_stride = discord_stride
        self.columns = [closed_forms._columns(eps_s, eps_a) for eps_s, eps_a in series]
        self.rows = [closed_forms._row(phi) for phi in phi_values]
        self.shape = n_series, n_phi, n_eps_a = len(series), len(self.rows), len(series[0][1])
        self.column_box = c = _box(closed_forms._Column, self.columns, (n_series, 1, n_eps_a))
        self.row_box = r = _box(closed_forms._Row, self.rows, (1, n_phi, 1))
        with np.errstate(all="ignore"):  # the guards raise what figures_of_merit raises
            fields, self.emitted = closed_forms._report_fields(c, r, temperature, np.where, np.any)
        self.thermo = dict(zip(ThermoReport.__match_args__, map(self.flat, fields)))  # NaN for None
        self.discord_analytic = self.flat(np.array(
            [[[correlations.discord_analytic(eps_s, row.phi)] for row in self.rows] for eps_s, _ in series]))
        self.coordinates = tuple(tuple(self.flat(x).tolist()) for x in (c.eps_s, c.eps_a, r.phi))
        self._spectra = {}  # by trace field name

    def flat(self, value) -> np.ndarray:
        """A value on the box, or broadcast to it, as one value per point in grid order."""
        return np.broadcast_to(value, self.shape).ravel()

    @cached_property
    def reports(self) -> list[ThermoReport]:
        """Each point's ``figures_of_merit`` record, zipped from ``emitted``."""
        fields = (self.flat(v).tolist() for v in self.emitted)
        return [closed_forms._record(ThermoReport, *values) for values in zip(*fields)]

    @cached_property
    def correlations(self) -> list[CorrelationReport]:
        """Each point's report without the basis search, from ``rho_m`` stacks of at most
        ``CHUNK_POINTS`` points: a landscape's, which never builds the whole trace."""
        chunks = (slice(lo, lo + CHUNK_POINTS) for lo in range(0, self.discord_analytic.size, CHUNK_POINTS))
        return [report for part in chunks for report in correlations._reports(
            protocol._post_measurement_states(*(x[part] for x in self.coordinates)),
            self.discord_analytic[part].tolist())]

    @cached_property
    def trace(self) -> protocol.ProtocolTrace:
        """``run_protocol`` at every point, each field an (n, d, d) stack."""
        return protocol._run_protocols(*self.coordinates)

    def spectrum(self, name: str) -> np.ndarray:
        """Ascending eigenvalues of each matrix of the trace field ``name``, taken once."""
        if name not in self._spectra:
            self._spectra[name] = np.linalg.eigvalsh(getattr(self.trace, name))
        return self._spectra[name]

    def entropy(self, name: str) -> np.ndarray:
        """Von Neumann entropy of each matrix of the trace field ``name``, from its spectrum."""
        return densmat._spectrum_entropy(self.spectrum(name))

    @cached_property
    def half_splittings(self) -> np.ndarray:
        """(omega_s/2, omega_a/2) at T = 1 of each point, shape (n, 2): ``level_splitting`` of each
        bias of each column, broadcast over phi."""
        c, split = self.column_box, np.vectorize(closed_forms.level_splitting, otypes=[float])
        half = 0.5 * split(np.stack([c.eps_s, c.eps_a], axis=-1), 1.0)
        return np.broadcast_to(half, (*self.shape, 2)).reshape(-1, 2)

    @cached_property
    def oracles(self) -> dict[str, np.ndarray]:
        """Each closed form's matrix oracle by ``ThermoReport`` field name, one value per point."""
        return thermo._oracles(self.half_splittings, self.trace, self.entropy)

    @cached_property
    def mutual_info(self) -> np.ndarray:
        """The mutual information S(rho_m_s) + S(rho_m_a) - S(rho_m) of each point, from the shared entropies."""
        return self.entropy("rho_m_s") + self.entropy("rho_m_a") - self.entropy("rho_m")

    @cached_property
    def discords(self) -> _Discords:
        """``correlation_report``'s discords on A and on S (one search), closed form and concurrence, as
        arrays over the points whose axis indices are all multiples of the stride, in grid order."""
        s = self.discord_stride
        index = np.arange(self.discord_analytic.size).reshape(self.shape)[::s, ::s, ::s].ravel()
        rho_m = self.trace.rho_m[index]
        d_a, d_s = correlations._discords(rho_m, self.mutual_info[index].tolist())
        return _Discords(np.array(d_a), np.array(d_s), self.discord_analytic[index], correlations._concurrence(rho_m))


def _curve_points(g: _Grid, include_correlations: bool) -> list[CurvePoint]:
    """Every point of ``g`` in grid order, its correlations only if asked for."""
    corr = g.correlations if include_correlations else [None] * len(g.reports)
    return [closed_forms._record(CurvePoint, eps_a, phi, report, k)
            for eps_a, phi, report, k in zip(*g.coordinates[1:], g.reports, corr)]


def characteristic_curve(eps_s: float, phi: float, n_points: int,
                         temperature: float = 1.0,
                         include_correlations: bool = False) -> list[CurvePoint]:
    """Sweep the ancilla bias over [eps_s, 1) at a fixed measurement angle."""
    _require_count("n_points", n_points, 2, closed_forms.MAX_GRID_POINTS)  # before the axis is built
    # The far corner bounds every point of the axis, which runs from eps_s to it.
    p = ProtocolParams(eps_s, 1.0 - EPS_A_CLAMP, phi, temperature)
    eps_a_values = np.linspace(p.eps_s, p.eps_a, n_points).tolist()
    return _curve_points(_Grid([(p.eps_s, eps_a_values)], (p.phi,), p.temperature),
                         include_correlations)


def landscape(grid: SweepGrid,
              quantities: frozenset[str] | set[str] = frozenset({"thermo"})) -> Landscape:
    """Evaluate the full (phi, eps_a) grid plus the regime boundary curves.

    ``quantities`` may contain "thermo" (always computed) and
    "correlations" (concurrence, EoF, mutual information and closed-form
    discord per point; the numeric basis search is left to dedicated
    single-point calls).
    """
    try:  # a str is iterable, but of one-letter names; None and [["thermo"]] give no set either
        selected = frozenset(None if isinstance(quantities, str) else quantities)
    except TypeError:
        raise ValueError(f"quantities must be a set of selector names, got {quantities!r}") from None
    if unknown := selected - {"thermo", "correlations"}:
        raise ValueError(f"unknown quantity selectors: {sorted(unknown)}")
    g = _Grid([(grid.eps_s, grid.eps_a_values)], grid.phi_values, grid.temperature)
    es, eps_a, phi = grid.eps_s, grid.eps_a_values, grid.phi_values
    cooling = [BoundaryPoint(r.phi, es / r.sin) for r in g.rows
               if 0.0 < es < r.sin and eps_a[0] <= es / r.sin <= eps_a[-1]]
    extraction = [BoundaryPoint(c.phi_crit, c.eps_a) for c in g.columns[0]
                  if es > 0.0 and phi[0] <= c.phi_crit <= phi[-1]]
    return Landscape(tuple(_curve_points(g, "correlations" in selected)), tuple(cooling), tuple(extraction))
