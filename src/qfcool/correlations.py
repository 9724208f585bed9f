"""Total, classical and quantum correlations of two-qubit states.

Covers the Wootters concurrence and entanglement of formation, quantum
mutual information (matrix route and closed form for post-measurement
states), quantum discord via a deterministic search over projective
measurements (on a stack of (state, side) rows; a row's result does not
depend on the stack), the closed-form discord of post-measurement states,
and the discord threshold that guarantees real cooling.  The closed
forms live in the numpy-free ``closed_forms`` module and are re-exported
here.  One stacked builder, ``_reports``, makes every ``CorrelationReport``:
single point, batch, landscape chunk and verify's discord subgrid.

All quantities are in nats, including the entanglement of formation (a
maximally entangled pair has EoF = ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import densmat, protocol
from .closed_forms import (  # re-exported
    ProtocolParams, _record, binary_entropy, discord_analytic,
    discord_threshold, mutual_information_analytic, thermal_entropy,
)
from .densmat import ID2, PAULI, SIGMA_Y

_SPIN_FLIP = densmat.tensor(SIGMA_Y, SIGMA_Y)
# Measurement branches with probability below this contribute zero to the
# average conditional entropy (degenerate outcome).
_PROB_FLOOR = 1e-12
# The basis search's one configuration (``_optimal_measurements`` states the
# rule): seed grid, zoom points per angle, stop rule and zoom-level cap.
_SEED_POLAR, _SEED_AZIMUTH = 64, 32
_ZOOM_POINTS = 9
_ZOOM_ANGLE_TOL = 1e-7
_SETTLE_TOL = 1e-10
_MAX_LEVELS = 400
# Most (row, axis) pairs one kernel call scores: bounds a stacked search's memory.
_SCAN_BUDGET = 4096
# The 16 products sigma_mu x sigma_nu (sigma_0 = I), contracted with a
# state in one step: tr(rho sigma_mu x sigma_nu).
_PAULI_PRODUCTS = np.array([densmat.tensor(p, q) for p in (ID2, *PAULI) for q in (ID2, *PAULI)])


class DiscordOptimizationError(RuntimeError):
    """The measurement-basis search hit its zoom-level cap before converging."""


@dataclass(frozen=True)
class MeasurementBasis:
    """Rank-1 projective basis on one qubit, by Bloch angles of its axis."""

    polar: float
    azimuth: float

    def axis(self) -> np.ndarray:
        st = math.sin(self.polar)
        return np.array([st * math.cos(self.azimuth), st * math.sin(self.azimuth), math.cos(self.polar)])

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        n_dot_sigma = sum(c * s for c, s in zip(self.axis(), PAULI))
        return 0.5 * (ID2 + n_dot_sigma), 0.5 * (ID2 - n_dot_sigma)


# ---------------------------------------------------------------------------
# entanglement
# ---------------------------------------------------------------------------

def _two_qubit_state(rho, caller: str) -> np.ndarray:
    r = densmat.validate_density_matrix(rho)
    if r.shape != (4, 4):
        raise ValueError(f"{caller} expects a 4x4 density matrix")
    return r


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    Both equivalent reductions of the spin-flip spectrum (2 lambda_max -
    tr R and lambda1 - lambda2 - lambda3 - lambda4) are evaluated and
    must agree to 1e-9.
    """
    return float(_concurrence(_two_qubit_state(rho, "concurrence")))


def _concurrence(r: np.ndarray) -> np.ndarray:
    """Concurrence of a state or of each state in a stack ``(..., 4, 4)``.

    Raises if any state fails a check: Hermitian input to each square
    root and to the final eigendecomposition, the PSD clamp, and the
    agreement of the two reductions.
    """
    sq = densmat._psd_sqrt(r)
    inner = sq @ _SPIN_FLIP @ r.conj() @ _SPIN_FLIP @ sq
    flip_spectrum = densmat._psd_sqrt(0.5 * (inner + densmat._dagger(inner)))
    lam = densmat._hermitian_eig(flip_spectrum).eigenvalues[..., ::-1]
    from_trace = 2.0 * lam[..., 0] - np.trace(flip_spectrum, axis1=-2, axis2=-1).real
    from_eigs = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    disagree = np.abs(from_trace - from_eigs) > 1e-9
    if disagree.any():
        raise RuntimeError(
            f"concurrence forms disagree: {float(from_trace[disagree].flat[0])!r}"
            f" vs {float(from_eigs[disagree].flat[0])!r}")
    return np.where(from_eigs > 0.0, from_eigs, 0.0)


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation (nats) as a function of concurrence."""
    if not 0.0 <= c <= 1.0 + 1e-12:
        raise ValueError("concurrence must lie in [0, 1]")
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def entanglement_of_formation(rho) -> float:
    """Entanglement of formation of a two-qubit state, in nats."""
    r = _two_qubit_state(rho, "entanglement_of_formation")
    return eof_from_concurrence(float(_concurrence(r)))


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def mutual_information(rho) -> float:
    """S(rho_S) + S(rho_A) - S(rho), from matrix entropies."""
    return float(_mutual_information(_two_qubit_state(rho, "mutual_information")))


def _mutual_information(r: np.ndarray) -> np.ndarray:
    """Mutual information of a state or of each state in a stack ``(..., 4, 4)``."""
    return (
        densmat._vn_entropies(densmat._partial_trace(r, "S"))
        + densmat._vn_entropies(densmat._partial_trace(r, "A"))
        - densmat._vn_entropies(r)
    )


# ---------------------------------------------------------------------------
# discord
# ---------------------------------------------------------------------------

def bloch_components(rho) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local Bloch vectors (register, ancilla) and 3x3 correlation tensor."""
    return _bloch_components(_two_qubit_state(rho, "bloch_components"))


def _bloch_components(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c = np.einsum("kij,ji->k", _PAULI_PRODUCTS, r).real.reshape(4, 4)
    return c[1:, 0], c[0, 1:], c[1:, 1:]


def _check_side(measured_side: str) -> None:
    if measured_side not in ("S", "A"):
        raise ValueError(f"measured_side must be 'S' or 'A', got {measured_side!r}")


def _axes(polar: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Unit measurement axes, shape ``polar.shape + (3,)``, from arrays of Bloch angles."""
    st = np.sin(polar)
    return np.stack([st * np.cos(azimuth), st * np.sin(azimuth), np.cos(polar)], axis=-1)


def _conditional_entropy_scan(local: np.ndarray, other: np.ndarray, m: np.ndarray,
                              axes: np.ndarray) -> np.ndarray:
    """Average conditional entropy of each row for a batch of measurement axes.

    Exact Bloch-space reformulation of the projector route.  Row i measures
    the side with Bloch vector ``local[i]`` along ``axes[i]`` (``(r, k, 3)``,
    or ``(k, 3)`` for all rows); ``other[i]`` is the other side's vector and
    ``m[i]`` the correlation tensor with the measured side first (``t.T``
    for side A, ``t`` for S).  The 3-term contractions are explicit sums,
    so a row's ``(r, k)`` values do not depend on the other rows.
    """
    # dot[:, c] = n . v[:, c]: n . local for c = 0 and (n @ m)_j for c = 1 + j
    v = np.concatenate([local[:, None], m.transpose(0, 2, 1)], axis=1)
    x = axes[..., None, :, :]
    dot = x[..., 0] * v[:, :, 0, None] + x[..., 1] * v[:, :, 1, None] + x[..., 2] * v[:, :, 2, None]
    # Both outcomes at once: axis 0 runs over the projectors (1 +- n.sigma)/2.
    dot = np.array([dot, -dot])
    p = 0.5 * (1.0 + dot[:, :, 0])
    shifted = other[:, :, None] + dot[:, :, 1:]
    shifted *= shifted
    lengths = np.sqrt(shifted[:, :, 0] + shifted[:, :, 1] + shifted[:, :, 2])
    live = p > _PROB_FLOOR
    ratio = np.where(live, np.minimum(1.0, lengths / np.where(live, 2.0 * p, 1.0)), 0.0)
    q = np.array([(1.0 + ratio) / 2.0, (1.0 - ratio) / 2.0])
    kept = q > densmat.ENTROPY_CUTOFF
    h = -np.where(kept, q * np.log(np.where(kept, q, 1.0)), 0.0).sum(axis=0)
    return np.where(live, p * h, 0.0).sum(axis=0)


def optimal_measurement(rho, measured_side: str = "A") -> tuple[MeasurementBasis, float]:
    """Projective basis maximizing the one-sided classical correlation.

    Returns the optimal basis and the maximized information gain
    J = S(rho_other) - min average conditional entropy, from one search
    (see ``_optimal_measurements``) on the state's Bloch data.  Raises
    ``DiscordOptimizationError`` if the zoom has not converged after 400
    levels.
    """
    _check_side(measured_side)
    r = _two_qubit_state(rho, "optimal_measurement")
    [(polar, azimuth, gain)] = _optimal_measurements([_bloch_components(r)], [measured_side])
    return MeasurementBasis(polar, azimuth), gain


def _optimal_measurements(blochs, sides: Sequence[str]) -> list:
    """``(polar, azimuth, gain)`` per (``_bloch_components``, measured side) row.

    The first 32 polar rows of a 64 x 32 Bloch-sphere grid (a hemisphere:
    an axis and its opposite are one measurement) seed a zoom refinement.
    Each zoom level scores a 9x9 (polar, azimuth) grid centred on the best
    axis so far, then halves the half-widths, which start at one grid step.
    A kernel call scores at most 4096 (state, axis) pairs, which bounds the
    memory of a stacked search.  The rows share the zoom levels, and each
    leaves the search once the half-widths are below 1e-7 rad and its last
    level improved the objective by at most 1e-10.  A search that needs more
    than 400 levels raises ``DiscordOptimizationError`` (one converges in
    about 20).
    """
    a, b, t = (np.array(c) for c in zip(*blochs))
    on_a = np.array([side == "A" for side in sides])[:, None]
    local, other = np.where(on_a, b, a), np.where(on_a, a, b)
    m = np.where(on_a[..., None], t.transpose(0, 2, 1), t)
    conditional = np.empty(len(local))

    def best(rows, per_call, axes_of):
        # index of each row's best candidate axis (first minimum on ties)
        pick = np.empty(len(rows), dtype=int)
        for lo in range(0, len(rows), per_call):
            chunk = rows[lo:lo + per_call]
            values = _conditional_entropy_scan(local[chunk], other[chunk], m[chunk], axes_of(chunk))
            pick[lo:lo + per_call] = values.argmin(axis=1)
            conditional[chunk] = values[np.arange(len(chunk)), pick[lo:lo + per_call]]
        return pick

    grid = np.array(np.meshgrid(
        np.linspace(0.0, math.pi, _SEED_POLAR)[:_SEED_POLAR // 2],
        np.linspace(0.0, 2.0 * math.pi, _SEED_AZIMUTH, endpoint=False), indexing="ij")).reshape(2, -1)
    seed = _axes(*grid)
    active = np.arange(len(local))
    # a budget below one seed (1,024 axes) still scores one row per call
    angles = grid[:, best(active, max(1, _SCAN_BUDGET // len(seed)), lambda _: seed)]

    # Offsets in units of the half-widths h; the centre (exactly 0) is kept,
    # so no level can lose the best axis found so far.
    offsets = np.array(np.meshgrid(*[np.linspace(-1.0, 1.0, _ZOOM_POINTS)] * 2, indexing="ij")).reshape(2, -1)
    h = np.array([math.pi / (_SEED_POLAR - 1), 2.0 * math.pi / _SEED_AZIMUTH])
    for _ in range(_MAX_LEVELS):
        previous = conditional[active]
        step = h[:, None] * offsets
        pick = best(active, _SCAN_BUDGET // _ZOOM_POINTS ** 2,
                    lambda rows: _axes(*(angles[:, rows, None] + step[:, None])))
        angles[:, active] += step[:, pick]
        if h.max() < _ZOOM_ANGLE_TOL:
            active = active[~(previous - conditional[active] <= _SETTLE_TOL)]
        if not active.size:
            break
        h *= 0.5
    else:
        raise DiscordOptimizationError(f"basis search did not converge within {_MAX_LEVELS} zoom levels")
    return [(p, az, thermal_entropy(float(np.linalg.norm(o))) - c) for p, az, o, c in
            zip(angles[0].tolist(), angles[1].tolist(), other, conditional.tolist())]


def discord_numeric(rho, measured_side: str = "A") -> float:
    """Quantum discord with projective measurements on one side.

    I(rho) minus the maximal one-sided classical correlation found by
    the (deterministic) basis search.
    """
    _check_side(measured_side)
    r = _two_qubit_state(rho, "discord_numeric")
    [(_, _, gain)] = _optimal_measurements([_bloch_components(r)], [measured_side])
    return _discord(float(_mutual_information(r)), gain)


def _discord(mi: float, gain: float) -> float:
    delta = mi - gain
    if delta < -1e-9:
        raise RuntimeError(f"discord optimization exceeded mutual information: {delta!r}")
    return max(0.0, delta)


def classical_correlations(rho, measured_side: str = "A") -> float:
    """Classical share of correlations: I(rho) - discord for the given side."""
    _check_side(measured_side)
    r = _two_qubit_state(rho, "classical_correlations")
    mi = float(_mutual_information(r))
    [(_, _, gain)] = _optimal_measurements([_bloch_components(r)], [measured_side])
    return mi - _discord(mi, gain)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    """Correlation content of the post-measurement state of one run.

    The numeric discords (and the classical share derived from them) are
    optional: sweeps skip the basis search and carry only the closed-form
    discord.
    """

    concurrence: float
    eof: float
    mutual_info: float
    discord_a: Optional[float]
    discord_s: Optional[float]
    discord_analytic: float
    classical_a: Optional[float]


def correlation_report(params: ProtocolParams, *, numeric_discord: bool = True) -> CorrelationReport:
    """Evaluate all correlation measures on the post-measurement state."""
    rho_m = protocol._post_measurement_states((params.eps_s,), (params.eps_a,), (params.phi,))
    return _reports(rho_m, [discord_analytic(params.eps_s, params.phi)], numeric_discord)[0]


def correlation_reports(points: Sequence[ProtocolParams]) -> list[CorrelationReport]:
    """``correlation_report(p, numeric_discord=False)`` for every point.

    The post-measurement states are built, and their concurrence and
    mutual information evaluated, as one ``(n, 4, 4)`` stack; each value
    equals the single-point one bit for bit.
    """
    rho_m = protocol._post_measurement_states([p.eps_s for p in points], [p.eps_a for p in points],
                                              [p.phi for p in points])
    return _reports(rho_m, [discord_analytic(p.eps_s, p.phi) for p in points])


def _reports(rho_m: np.ndarray, discords: Sequence[float], numeric: bool = False) -> list[CorrelationReport]:
    """One ``CorrelationReport`` per state of an ``(n, 4, 4)`` post-measurement
    stack, given each state's closed-form discord; with ``numeric``, both one-sided
    discords come from one basis search on the rows ``["A"] * n + ["S"] * n``.
    No report depends on the rest of the stack."""
    n = len(discords)
    conc, mi = _concurrence(rho_m).tolist(), _mutual_information(rho_m).tolist()
    d_a = d_s = [None] * n
    if numeric:
        gains = [g for _, _, g in _optimal_measurements(
            [_bloch_components(r) for r in rho_m] * 2, ["A"] * n + ["S"] * n)]
        d_a, d_s = ([_discord(m, g) for m, g in zip(mi, side)] for side in (gains[:n], gains[n:]))
    return [_record(CorrelationReport, c, eof_from_concurrence(c), m, a, s, d,
                    None if a is None else m - a)
            for c, m, a, s, d in zip(conc, mi, d_a, d_s, discords)]
