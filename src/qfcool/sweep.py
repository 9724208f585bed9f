"""Parameter-space exploration: characteristic curves, landscapes,
working-point optimization and boundary curves.

All outputs are pure functions of their inputs: recomputing any emitted
point from scratch reproduces it bit for bit.  ``SweepGrid`` is a grid's
only validation.  Grid thermo combines closed-form factors built once per
eps_a column and phi row.  Grid correlations run on ``(n, 4, 4)`` stacks
of post-measurement states in chunks of ``CHUNK_POINTS``, through the same
kernels that a single-point call runs with ``n = 1``, with one closed-form
discord per phi row.  The scalar searches validate once and evaluate
through the same factors.  The separability boundary is the closed-form
X-state angle and runs no matrix algebra.  Everything runs in-process on
the calling thread.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import correlations, thermo
from .correlations import CorrelationReport
from .protocol import ProtocolParams, _is_finite_real
from .thermo import ThermoReport

# Open-interval clamp for the ancilla bias: entropies and energy gaps
# diverge at eps_a = 1.
EPS_A_CLAMP = 1e-9
OBJECTIVES = ("cop", "eta", "chi")
# A maximizer within this fraction of the search span from an endpoint is
# reported as a boundary supremum.
_BOUNDARY_WINDOW = 1e-4
# Grid correlations are evaluated on (n, 4, 4) state stacks of at most this
# many points, which bounds the memory of a stack whatever the grid size.
CHUNK_POINTS = 256

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
class WorkingPoint:
    """Maximizer of one figure of merit over the ancilla bias.

    ``at_boundary`` is "lower"/"upper" when the search ran into an
    endpoint of the open interval (supremum, not an attained interior
    maximum); ``degenerate`` marks a flat objective.
    """

    eps_a_star: float
    objective_value: float
    cooling_load_star: float
    at_boundary: Optional[str] = None
    degenerate: bool = False


@dataclass(frozen=True)
class Landscape:
    """Full grid evaluation plus the regime boundary curves."""

    points: tuple[CurvePoint, ...]
    cooling_window_boundary: tuple[BoundaryPoint, ...]
    work_extraction_boundary: tuple[BoundaryPoint, ...]


@dataclass(frozen=True)
class SeparabilityBoundary:
    """First angle at which the post-measurement state becomes entangled.

    ``status`` is "interior" when the state is entangled for every angle
    above ``phi``, and "never_entangled" (phi pinned to pi/2) when no
    angle produces entanglement.  The state at phi = 0 is separable for
    every pair of biases.
    """

    phi: float
    status: str


def _require_tolerance(name: str, value: float) -> None:
    """A zero, negative or non-finite tolerance would never end a search."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def _require_points(name: str, value: int) -> None:
    """A scan needs both endpoints of its interval."""
    if value < 2:
        raise ValueError(f"{name} must be at least 2, got {value!r}")


def objective_value(name: str, report: ThermoReport) -> Optional[float]:
    """Extract one figure of merit from a report; None when undefined."""
    if name not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {name!r}")
    return getattr(report, name)


def _grid_points(eps_s: float, temperature: float, phi_values, eps_a_values,
                 include_correlations: bool) -> list[CurvePoint]:
    """Evaluate every (phi, eps_a) point of validated axes, phi outer: thermo
    from the factors of each eps_a column and phi row, built once, and
    correlations on one state stack per chunk with one discord per row."""
    columns = thermo._columns(eps_s, eps_a_values, temperature)
    rows = [thermo._row(phi) for phi in phi_values]
    discords = ([correlations.discord_analytic(eps_s, r.phi) for r in rows]
                if include_correlations else None)
    pairs = ((i, r, c) for i, r in enumerate(rows) for c in columns)
    points = []
    while chunk := list(itertools.islice(pairs, CHUNK_POINTS)):
        corr = (correlations._stacked_reports(
            [eps_s] * len(chunk), [c.eps_a for _, _, c in chunk], [r.phi for _, r, _ in chunk],
            [discords[i] for i, _, _ in chunk]) if include_correlations
            else [None] * len(chunk))
        points.extend(CurvePoint(eps_a=c.eps_a, phi=r.phi, thermo=thermo._report(c, r),
                                 correlations=k) for (_, r, c), k in zip(chunk, corr))
    return points


def evaluate_grid(grid: SweepGrid, include_correlations: bool = False) -> list[CurvePoint]:
    """Evaluate every (phi, eps_a) grid point, phi outer and eps_a inner."""
    return _grid_points(grid.eps_s, grid.temperature, grid.phi_values, grid.eps_a_values,
                        include_correlations)


def characteristic_curve(eps_s: float, phi: float, n_points: int,
                         temperature: float = 1.0,
                         include_correlations: bool = False) -> list[CurvePoint]:
    """Sweep the ancilla bias over [eps_s, 1) at a fixed measurement angle."""
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    eps_a_values = np.linspace(eps_s, 1.0 - EPS_A_CLAMP, n_points).tolist()
    # The two ends validate every point: the axis runs from eps_s to the clamp.
    p = ProtocolParams(eps_s, eps_a_values[0], phi, temperature)
    ProtocolParams(eps_s, eps_a_values[-1], phi, temperature)
    return _grid_points(p.eps_s, p.temperature, (p.phi,), eps_a_values, include_correlations)


def optimize_working_point(objective: str, eps_s: float, phi: float,
                           temperature: float = 1.0,
                           coarse_points: int = 256,
                           xtol: float = 1e-9) -> WorkingPoint:
    """Maximize COP, eta or chi over the ancilla bias.

    Coarse scan over the open interval followed by golden-section
    refinement of the best bracket; undefined objective values (the
    reversible limit) rank below every defined one.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    _require_points("coarse_points", coarse_points)
    _require_tolerance("xtol", xtol)
    lo = eps_s + EPS_A_CLAMP
    hi = 1.0 - EPS_A_CLAMP
    if lo >= hi:
        raise ValueError("eps_s leaves no room for an ancilla bias below 1")
    p = ProtocolParams(eps_s, lo, phi, temperature)  # every eps_a searched lies in [lo, hi]
    row = thermo._row(p.phi)

    def evaluate(eps_a: float) -> float:
        report = thermo._report(thermo._column(p.eps_s, eps_a, p.temperature), row)
        value = objective_value(objective, report)
        return -math.inf if value is None else value

    xs = np.linspace(lo, hi, coarse_points)
    values = np.array([evaluate(float(x)) for x in xs])
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("objective is undefined on the whole search interval")
    degenerate = finite.size > 1 and float(finite.max() - finite.min()) <= 1e-15
    best = int(np.argmax(values))
    bracket_lo = xs[max(0, best - 1)]
    bracket_hi = xs[min(len(xs) - 1, best + 1)]
    star, value = _golden_max(evaluate, float(bracket_lo), float(bracket_hi), xtol)

    at_boundary = None
    window = _BOUNDARY_WINDOW * (hi - lo)
    if star - lo <= window:
        at_boundary = "lower"
    elif hi - star <= window:
        at_boundary = "upper"
    load = thermo._column(p.eps_s, star, p.temperature).cooling_load
    return WorkingPoint(eps_a_star=star, objective_value=value,
                        cooling_load_star=load, at_boundary=at_boundary,
                        degenerate=degenerate)


def _golden_max(f: Callable[[float], float], lo: float, hi: float,
                xtol: float) -> tuple[float, float]:
    """Golden-section search for the maximum of f on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        width = b - a
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        else:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        if b - a >= width:
            break  # the bracket is at float resolution
    x = 0.5 * (a + b)
    return x, f(x)


def landscape(grid: SweepGrid,
              quantities: frozenset[str] | set[str] = frozenset({"thermo"})) -> Landscape:
    """Evaluate the full (phi, eps_a) grid plus the regime boundary curves.

    ``quantities`` may contain "thermo" (always computed) and
    "correlations" (concurrence, EoF, mutual information and closed-form
    discord per point; the numeric basis search is left to dedicated
    single-point calls).
    """
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


def separability_boundary(eps_s: float, eps_a: float,
                          temperature: float = 1.0) -> SeparabilityBoundary:
    """Angle at which the post-measurement state first becomes entangled.

    ``rho_m`` is an X-state, so its concurrence has the closed form
    ``max(0, [(1 + eps_a) eps_s sin phi - (1 - eps_a) sqrt(1 - eps_s^2 cos^2 phi)] / 2)``
    (Wootters, PRL 80, 2245 (1998); Yu and Eberly, QIC 7, 459 (2007)),
    which is positive exactly for
    ``sin phi > (1 - eps_a) sqrt(1 - eps_s^2) / (2 eps_s sqrt(eps_a))``.
    The temperature is validated but does not move the angle.
    """
    if not eps_s < eps_a:
        raise ValueError("eps_s must be strictly below eps_a")
    p = ProtocolParams(eps_s, eps_a, 0.0, temperature)  # validates the fixed parameters
    num = (1.0 - p.eps_a) * math.sqrt((1.0 - p.eps_s) * (1.0 + p.eps_s))
    den = 2.0 * p.eps_s * math.sqrt(p.eps_a)
    # The verdict compares before dividing, so eps_s = 0 and an
    # underflowing den need no branch of their own.
    if num < den:
        return SeparabilityBoundary(phi=math.asin(num / den), status="interior")
    return SeparabilityBoundary(phi=math.pi / 2, status="never_entangled")


def eps_a_for_cooling_load(eps_s: float, load: float, temperature: float = 1.0,
                           tol: float = 1e-12) -> float:
    """Invert the cooling load for the ancilla bias by monotone bisection.

    The load is strictly increasing in eps_a above eps_s, so the solution
    on [eps_s, 1) is unique when it exists.
    """
    if load < 0.0:
        raise ValueError("cooling load must be nonnegative")
    _require_tolerance("tol", tol)
    lo, hi = eps_s, 1.0 - EPS_A_CLAMP
    p = ProtocolParams(eps_s, hi, 0.0, temperature)  # every eps_a searched lies in [eps_s, hi]

    def f(eps_a: float) -> float:
        return thermo._column(p.eps_s, eps_a, p.temperature).cooling_load - load

    if f(hi) < 0.0:
        raise ValueError("cooling load is not attainable below eps_a = 1")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the bracket is at float resolution
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
