"""Parameter-space exploration: characteristic curves, landscapes,
working-point optimization and boundary curves.

All outputs are pure functions of their inputs: recomputing any emitted
point from scratch reproduces it bit for bit.  ``SweepGrid`` is a grid's
only validation.  Grid thermo combines closed-form factors built once per
eps_a column and phi row.  Grid correlations run on ``(n, 4, 4)`` stacks
of post-measurement states in chunks of ``CHUNK_POINTS``, through the
report builder that a single-point call runs with ``n = 1``, with one
closed-form discord per phi row.  The scalar searches (working point,
cooling-load inverse and the closed-form separability angle) live in the
numpy-free ``closed_forms`` module, evaluate through the same factors and
are re-exported here.  Everything runs in-process on the calling thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import closed_forms, correlations, protocol
from .closed_forms import (  # re-exported
    EPS_A_CLAMP, OBJECTIVES, ProtocolParams, SeparabilityBoundary, ThermoReport, WorkingPoint,
    _is_finite_real, _require_count, eps_a_for_cooling_load, linspace,
    optimize_working_point, separability_boundary,
)
from .correlations import CorrelationReport

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
        # Each value is checked as ProtocolParams checks it (the grid's points
        # get no other check), finiteness first: NaN passes every bound.
        for name in ("eps_s", "temperature"):
            if not _is_finite_real(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("phi_values", "eps_a_values"):
            values = tuple(getattr(self, name))
            if not all(map(_is_finite_real, values)):
                raise ValueError(f"{name} must all be finite numbers")
            object.__setattr__(self, name, tuple(map(float, values)))
        if not 0.0 <= self.eps_s < 1.0:
            raise ValueError("eps_s must be in [0, 1)")
        if self.temperature <= 0.0:
            raise ValueError("temperature must be positive")
        for name, values in (("phi_values", self.phi_values), ("eps_a_values", self.eps_a_values)):
            if not values:
                raise ValueError(f"{name} must not be empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if not (0.0 <= self.phi_values[0] and self.phi_values[-1] <= math.pi / 2):
            raise ValueError("phi values must lie in [0, pi/2]")
        if self.eps_a_values[0] < self.eps_s:
            raise ValueError("eps_a values must not fall below eps_s")
        if self.eps_a_values[-1] >= 1.0:
            raise ValueError("eps_a values must be below 1")


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


def _grid_points(eps_s: float, temperature: float, phi_values, eps_a_values,
                 include_correlations: bool) -> list[CurvePoint]:
    """Evaluate every (phi, eps_a) point of validated axes, phi outer: thermo
    from the factors of each eps_a column and phi row, built once, and
    correlations on one state stack per chunk with one discord per row."""
    columns = closed_forms._columns(eps_s, eps_a_values, temperature)
    rows = [closed_forms._row(phi) for phi in phi_values]
    discords = ([correlations.discord_analytic(eps_s, r.phi) for r in rows]
                if include_correlations else None)
    pairs = ((i, r, c) for i, r in enumerate(rows) for c in columns)
    points = []
    while chunk := list(itertools.islice(pairs, CHUNK_POINTS)):
        corr = (correlations._reports(protocol._post_measurement_states(
            [eps_s] * len(chunk), [c.eps_a for _, _, c in chunk], [r.phi for _, r, _ in chunk]),
            [discords[i] for i, _, _ in chunk]) if include_correlations else [None] * len(chunk))
        points.extend(closed_forms._record(CurvePoint, c.eps_a, r.phi,
                                           closed_forms._report(c, r), k)
                      for (_, r, c), k in zip(chunk, corr))
    return points


def evaluate_grid(grid: SweepGrid, include_correlations: bool = False) -> list[CurvePoint]:
    """Evaluate every (phi, eps_a) grid point, phi outer and eps_a inner."""
    return _grid_points(grid.eps_s, grid.temperature, grid.phi_values, grid.eps_a_values,
                        include_correlations)


def characteristic_curve(eps_s: float, phi: float, n_points: int,
                         temperature: float = 1.0,
                         include_correlations: bool = False) -> list[CurvePoint]:
    """Sweep the ancilla bias over [eps_s, 1) at a fixed measurement angle."""
    _require_count("n_points", n_points, 2)
    eps_a_values = linspace(eps_s, 1.0 - EPS_A_CLAMP, n_points)
    # The two ends validate every point: the axis runs from eps_s to the clamp.
    p = ProtocolParams(eps_s, eps_a_values[0], phi, temperature)
    ProtocolParams(eps_s, eps_a_values[-1], phi, temperature)
    return _grid_points(p.eps_s, p.temperature, (p.phi,), eps_a_values, include_correlations)


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
    points = evaluate_grid(grid, "correlations" in quantities)

    cooling, extraction = [], []
    if grid.eps_s > 0.0:
        for phi in grid.phi_values:
            s = math.sin(phi)
            if s > grid.eps_s:
                eps_a = grid.eps_s / s
                if grid.eps_a_values[0] <= eps_a <= grid.eps_a_values[-1]:
                    cooling.append(BoundaryPoint(phi=phi, eps_a=eps_a))
        # the first phi row carries each eps_a column's threshold angle
        for point in points[:len(grid.eps_a_values)]:
            pc = point.thermo.phi_crit
            if grid.phi_values[0] <= pc <= grid.phi_values[-1]:
                extraction.append(BoundaryPoint(phi=pc, eps_a=point.eps_a))

    return Landscape(points=tuple(points),
                     cooling_window_boundary=tuple(cooling),
                     work_extraction_boundary=tuple(extraction))
