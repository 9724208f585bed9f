"""Parameter-space exploration: characteristic curves, landscapes,
working-point optimization and boundary curves.

All outputs are pure functions of their inputs: recomputing any emitted
point from scratch reproduces it bit for bit.  Each grid is validated once,
where it is built: a landscape's by ``SweepGrid`` at its two corners, a
characteristic curve's by one ``ProtocolParams`` at its far corner, ``verify``'s
standard grid at its upper corner and ``run --verify``'s point by its own.
One private evaluator, ``_Grid``, evaluates the cycle for landscapes,
characteristic curves and ``verify``, ``run --verify`` among them:
closed-form factors built once per eps_a column and phi row, and on first
use the matrix stacks each reader needs.  The scalar searches (working
point, cooling-load inverse and the closed-form separability angle) live in
the numpy-free ``closed_forms`` module, evaluate through the same factors
and are re-exported here.  Everything runs in-process on the calling thread.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import closed_forms, correlations, densmat, protocol
from .closed_forms import (  # re-exported
    EPS_A_CLAMP, OBJECTIVES, CorrelationReport, ProtocolParams, SeparabilityBoundary, ThermoReport,
    WorkingPoint, _is_finite_real, _require_count, eps_a_for_cooling_load,
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
        # Finiteness first (NaN passes every bound), then ProtocolParams at the
        # two corners: on strictly increasing axes they bound every point.
        for name in ("eps_s", "temperature"):
            if not _is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
        for name in ("phi_values", "eps_a_values"):
            values = tuple(getattr(self, name))
            if not all(map(_is_finite_real, values)):
                raise ValueError(f"{name} must all be finite numbers")
            if not values:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, tuple(map(float, values)))
        eps_a, phi = self.eps_a_values, self.phi_values
        p = ProtocolParams(self.eps_s, eps_a[0], phi[0], self.temperature)
        ProtocolParams(p.eps_s, eps_a[-1], phi[-1], p.temperature)
        object.__setattr__(self, "eps_s", p.eps_s)
        object.__setattr__(self, "temperature", p.temperature)
        # Last, so that a reversed eps_a axis from eps_s >= 1 names eps_s.
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


_Point = namedtuple("_Point", "eps_s eps_a phi temperature")


class _Grid:
    """The cycle on validated axes: a series per register bias eps_s, each with its
    own eps_a axis of one common length, times one phi axis, at one temperature.

    Points run in (series, phi, eps_a) order, as a landscape emits them, and
    readers select them by axis index on the box ``shape``.  Construction builds the
    closed forms: a column per eps_a of each series, a row per phi, each
    point's report and one closed-form discord per (eps_s, phi).  Each matrix
    stack is built once, on first use, and only for the reader that asks.
    """

    def __init__(self, series: Sequence[tuple[float, Sequence[float]]], phi_values: Sequence[float],
                 temperature: float, discord_stride: int = 1):
        self.temperature, self.discord_stride = temperature, discord_stride
        self.columns = [closed_forms._columns(eps_s, eps_a, temperature) for eps_s, eps_a in series]
        self.rows = [closed_forms._row(phi) for phi in phi_values]
        self.shape = (len(series), len(self.rows), len(series[0][1]))
        report = closed_forms._report  # figures_of_merit's call, on columns and rows built once
        self.reports = [report(c, r) for c, r in self.cells()]
        self.discord_analytic = [d for (eps_s, _), columns in zip(series, self.columns) for r in self.rows
                                 for d in [correlations.discord_analytic(eps_s, r.phi)] * len(columns)]
        self._spectra = {}  # by name of a stack of ``states``

    def cells(self) -> Iterator[tuple[closed_forms._Column, closed_forms._Row]]:
        """The (column, row) of each point, in grid order."""
        return ((c, r) for columns in self.columns for r in self.rows for c in columns)

    @cached_property
    def points(self) -> list[_Point]:
        return [_Point(c.eps_s, c.eps_a, r.phi, self.temperature) for c, r in self.cells()]

    @cached_property
    def correlations(self) -> list[CorrelationReport]:
        """Each point's report without the basis search, from ``rho_m`` stacks of at most
        ``CHUNK_POINTS`` points: a landscape's, which never builds the whole trace."""
        cells, reports = list(self.cells()), []
        for lo in range(0, len(cells), CHUNK_POINTS):
            eps_s, eps_a, phi = zip(*((c.eps_s, c.eps_a, r.phi) for c, r in cells[lo:lo + CHUNK_POINTS]))
            reports += correlations._reports(protocol._post_measurement_states(eps_s, eps_a, phi),
                                             self.discord_analytic[lo:lo + CHUNK_POINTS])
        return reports

    @cached_property
    def trace(self) -> protocol.ProtocolTrace:
        """``run_protocol`` at every point, each field an (n, d, d) stack."""
        eps_s, eps_a, phi, _ = zip(*self.points)
        return protocol._run_protocols(eps_s, eps_a, phi)

    @cached_property
    def states(self) -> dict[str, np.ndarray]:
        """The stacks whose spectra readers take: the trace fields and the thermal qubits."""
        eps_s, eps_a, _, _ = zip(*self.points)
        return {**vars(self.trace), "thermal_s": protocol._thermal_qubits(eps_s),
                "thermal_a": protocol._thermal_qubits(eps_a)}

    def spectrum(self, name: str) -> np.ndarray:
        """Ascending eigenvalues of each matrix of the stack ``states[name]``, taken once."""
        if name not in self._spectra:
            self._spectra[name] = np.linalg.eigvalsh(self.states[name])
        return self._spectra[name]

    def entropy(self, name: str) -> np.ndarray:
        """Von Neumann entropy of each matrix of the stack ``states[name]``, from its spectrum."""
        return densmat._spectrum_entropy(self.spectrum(name))

    @cached_property
    def model(self):
        from . import thermo  # the oracles' module: a landscape never loads it
        return thermo._energy_models(self.points)

    @cached_property
    def energies(self) -> dict[str, np.ndarray]:
        from . import thermo
        return thermo._energies(self.model.hamiltonian, self.trace)

    @cached_property
    def oracles(self) -> dict[str, np.ndarray]:
        """Each closed form's matrix oracle by ``ThermoReport`` field name, one value per point."""
        from . import thermo
        return thermo._oracles(self.trace, self.model, self.energies)

    @cached_property
    def discord_reports(self) -> list[CorrelationReport]:
        """``correlation_report`` at each point whose axis indices are all multiples of the
        stride: both numeric discords from one search, the mutual information shared."""
        s = self.discord_stride
        index = np.arange(len(self.points)).reshape(self.shape)[::s, ::s, ::s].ravel()
        mi = (self.entropy("rho_m_s") + self.entropy("rho_m_a") - self.entropy("rho_m"))[index].tolist()
        return correlations._reports(self.trace.rho_m[index], [self.discord_analytic[k] for k in index],
                                     numeric=True, mutual_info=mi)


def _curve_points(g: _Grid, include_correlations: bool) -> list[CurvePoint]:
    """Every point of ``g`` in grid order, its correlations only if asked for."""
    corr = g.correlations if include_correlations else [None] * len(g.reports)
    return [closed_forms._record(CurvePoint, c.eps_a, r.phi, report, k)
            for (c, r), report, k in zip(g.cells(), g.reports, corr)]


def characteristic_curve(eps_s: float, phi: float, n_points: int,
                         temperature: float = 1.0,
                         include_correlations: bool = False) -> list[CurvePoint]:
    """Sweep the ancilla bias over [eps_s, 1) at a fixed measurement angle."""
    _require_count("n_points", n_points, 2)
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
    if isinstance(quantities, str):
        raise ValueError(f"quantities must be a set of selector names, got {quantities!r}")
    unknown = set(quantities) - {"thermo", "correlations"}
    if unknown:
        raise ValueError(f"unknown quantity selectors: {sorted(unknown)}")
    g = _Grid([(grid.eps_s, grid.eps_a_values)], grid.phi_values, grid.temperature)
    points = _curve_points(g, "correlations" in quantities)

    cooling, extraction = [], []
    if grid.eps_s > 0.0:
        for r in g.rows:
            if r.sin > grid.eps_s:
                eps_a = grid.eps_s / r.sin
                if grid.eps_a_values[0] <= eps_a <= grid.eps_a_values[-1]:
                    cooling.append(BoundaryPoint(phi=r.phi, eps_a=eps_a))
        for c in g.columns[0]:
            if grid.phi_values[0] <= c.phi_crit <= grid.phi_values[-1]:
                extraction.append(BoundaryPoint(phi=c.phi_crit, eps_a=c.eps_a))

    return Landscape(points=tuple(points),
                     cooling_window_boundary=tuple(cooling),
                     work_extraction_boundary=tuple(extraction))
