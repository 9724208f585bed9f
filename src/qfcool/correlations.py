"""Total, classical and quantum correlations of two-qubit states: the matrix routes.

Covers the Wootters concurrence and entanglement of formation, quantum
mutual information from matrix entropies, and quantum discord via a
deterministic search over projective measurements (a hemisphere scan of
measurement axes refined by Newton steps on the unit sphere, on a stack of
(state, side) rows; a row's result does not depend on the stack).  The
closed forms (the discord, its threshold, the mutual information, the
X-state concurrence, ``eof_from_concurrence`` and ``CorrelationReport``)
live in the numpy-free ``closed_forms`` module and are re-exported here.
One stacked builder, ``_reports``, makes every matrix-route
``CorrelationReport``, and its basis search, ``_discords``, gives verify's
discord subgrid both one-sided discords without a record.

All quantities are in nats, including the entanglement of formation (a
maximally entangled pair has EoF = ln 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from . import densmat, protocol
from .closed_forms import (  # re-exported
    CorrelationReport, ProtocolParams, _record, binary_entropy, discord_analytic,
    discord_threshold, eof_from_concurrence, mutual_information_analytic, thermal_entropy,
)
from .densmat import ID2, PAULI, SIGMA_Y

_SPIN_FLIP = densmat._tensor(SIGMA_Y, SIGMA_Y)
# A partial-transpose determinant above this proves a state separable.  The margin keeps off
# nearly rank-deficient states, where the Wootters route's square roots lose up to about 1e-8
# and may read a small positive concurrence that a margin of 0 would clear to +0.0.
_SEPARABLE_DET = 1e-6
# Measurement branches with probability below this contribute zero to the
# average conditional entropy (degenerate outcome).
_PROB_FLOOR = 1e-12
# The basis search's one configuration (``_optimal_measurements`` states the
# rule): seed grid, longest Newton move (one azimuth step of the seed, rad),
# smallest curvature a step divides by, stop rules and step cap.
_SEED_POLAR, _SEED_AZIMUTH = 64, 32
_MAX_TURN = 2.0 * math.pi / _SEED_AZIMUTH
_CURVATURE_FLOOR = 1e-10
_GRADIENT_TOL = 1e-12
_MOVE_TOL = 1e-7
_MAX_STEPS = 100
# Most (row, axis) pairs one kernel call scores: bounds a stacked search's memory.
_SCAN_BUDGET = 4096
# The 16 products sigma_mu x sigma_nu (sigma_0 = I), contracted with a
# state in one step: tr(rho sigma_mu x sigma_nu).
_PAULI_PRODUCTS = np.array([densmat._tensor(p, q) for p in (ID2, *PAULI) for q in (ID2, *PAULI)])


class DiscordOptimizationError(RuntimeError):
    """The measurement-basis search hit its Newton-step cap before converging."""


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
    """Wootters concurrence of a two-qubit state: lambda1 - lambda2 - lambda3 - lambda4
    of the spin-flip spectrum, or 0 when that is negative."""
    return float(_concurrence(_two_qubit_state(rho, "concurrence")))


def _concurrence(r: np.ndarray) -> np.ndarray:
    """Concurrence of a state or of each state in a stack ``(..., 4, 4)``.

    A two-qubit partial transpose has at most one negative eigenvalue, so a
    state whose partial-transpose determinant exceeds ``_SEPARABLE_DET`` is
    separable (Peres, PRL 77, 1413 (1996); Augusiak, Demianowicz and
    Horodecki, PRA 77, 030301(R) (2008)) and reads +0.0; the rest go through
    ``_wootters`` as one stack.  For the cleared states, a Cholesky
    factorization of ``r + PSD_CLAMP / 2``, being backward stable, stands in
    for the square roots' PSD check.  If it fails, the whole stack goes
    through ``_wootters``, which raises for its first state below the clamp.
    """
    pt = r.reshape(r.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(r.shape)
    clear = np.linalg.det(pt).real > _SEPARABLE_DET
    if not clear.any():
        return _wootters(r)
    try:
        np.linalg.cholesky(r[clear] + 0.5 * densmat.PSD_CLAMP * np.eye(4))
    except np.linalg.LinAlgError:
        return _wootters(r)
    c = np.zeros(clear.shape)
    if not clear.all():
        c[~clear] = _wootters(r[~clear])
    return c


def _wootters(r: np.ndarray) -> np.ndarray:
    """``_concurrence`` by the Wootters route alone: the ``lambda_i`` are the eigenvalues of
    ``sqrt(sqrt(r) r~ sqrt(r))``.  Raises if any state fails the PSD clamp of either square root."""
    sq = densmat._psd_sqrt(r)
    inner = sq @ _SPIN_FLIP @ r.conj() @ _SPIN_FLIP @ sq
    flip_spectrum = densmat._psd_sqrt(0.5 * (inner + densmat._dagger(inner)))
    # _psd_sqrt returns 0.5 (s + s^dagger), Hermitian bit for bit
    lam = np.linalg.eigh(flip_spectrum)[0][..., ::-1]
    from_eigs = lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3]
    return np.where(from_eigs > 0.0, from_eigs, 0.0)


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
    """Bloch data of a state or of each state in a stack ``(..., 4, 4)``."""
    c = np.einsum("kij,...ji->...k", _PAULI_PRODUCTS, r).real.reshape(*r.shape[:-2], 4, 4)
    return c[..., 1:, 0], c[..., 0, 1:], c[..., 1:, 1:]


def _searched(rho, measured_side: str, caller: str) -> tuple[np.ndarray, tuple]:
    """Check the side, then ``rho`` as ``caller``'s state; return the state and the
    ``(polar, azimuth, gain)`` of its search on ``measured_side`` (see ``_optimal_measurements``)."""
    if measured_side not in ("S", "A"):
        raise ValueError(f"measured_side must be 'S' or 'A', got {measured_side!r}")
    r = _two_qubit_state(rho, caller)
    return r, _optimal_measurements(_bloch_components(r[None]), [measured_side])[0]


def _axes(polar: np.ndarray, azimuth: np.ndarray) -> np.ndarray:
    """Unit measurement axes, shape ``polar.shape + (3,)``, from arrays of Bloch angles."""
    st = np.sin(polar)
    return np.stack([st * np.cos(azimuth), st * np.sin(azimuth), np.cos(polar)], axis=-1)


@cache
def _seed() -> np.ndarray:
    """The search's seed axes, built on first use and shared: the first 32 polar rows of a 64 x 32 grid,
    whose polar-0 row, 32 copies of the pole, keeps only its first, (0, 0, 1): 993 axes."""
    return np.delete(_axes(*np.array(np.meshgrid(
        np.linspace(0.0, math.pi, _SEED_POLAR)[:_SEED_POLAR // 2],
        np.linspace(0.0, 2.0 * math.pi, _SEED_AZIMUTH, endpoint=False), indexing="ij")).reshape(2, -1)),
        np.s_[1:_SEED_AZIMUTH], axis=0)


def _conditional_entropy_scan(local: np.ndarray, other: np.ndarray, m: np.ndarray,
                              axes: np.ndarray) -> np.ndarray:
    """Average conditional entropy of each row for a batch of measurement axes.

    Exact Bloch-space reformulation of the projector route.  Row i measures
    the side with Bloch vector ``local[i]`` along ``axes[i]`` (``(r, k, 3)``,
    or ``(k, 3)`` for all rows); ``other[i]`` is the other side's vector and
    ``m[i]`` the correlation tensor with the measured side first (``t.T``
    for side A, ``t`` for S).  The 3-term contractions are explicit sums,
    so a row's ``(r, k)`` values do not depend on the other rows.  The two
    outcomes are summed in turn.  Each masks its dead branches
    (probability at or below ``_PROB_FLOOR``), and ``densmat._xlogx`` its
    zero entropy terms, only when the call has one, so every value takes the
    same floating-point operations either way.
    """
    # dot[:, c] = n . v[:, c]: n . local for c = 0 and (n @ m)_j for c = 1 + j
    v = np.concatenate([local[:, None], m.transpose(0, 2, 1)], axis=1)
    x = axes[..., None, :, :]
    dot = x[..., 0] * v[:, :, 0, None] + x[..., 1] * v[:, :, 1, None] + x[..., 2] * v[:, :, 2, None]
    total = 0.0  # a numpy sum starts from +0.0 too: two -0.0 terms total +0.0
    # the projectors (1 + n.sigma)/2 and (1 - n.sigma)/2; a - b is a + (-b) exactly
    for sign in (np.add, np.subtract):
        p = 0.5 * sign(1.0, dot[:, 0])
        shifted = sign(other[:, :, None], dot[:, 1:])
        shifted *= shifted
        lengths = np.sqrt(shifted[:, 0] + shifted[:, 1] + shifted[:, 2])
        live = p > _PROB_FLOOR
        every = live.all()
        if every:
            ratio = np.minimum(1.0, lengths / (2.0 * p))
        else:
            ratio = np.where(live, np.minimum(1.0, lengths / np.where(live, 2.0 * p, 1.0)), 0.0)
        term = p * -(densmat._xlogx((1.0 + ratio) / 2.0) + densmat._xlogx((1.0 - ratio) / 2.0))
        total = total + (term if every else np.where(live, term, 0.0))
    return total


def optimal_measurement(rho, measured_side: str = "A") -> tuple[MeasurementBasis, float]:
    """Projective basis maximizing the one-sided classical correlation.

    Returns the optimal basis and the maximized information gain
    J = S(rho_other) - min average conditional entropy, from one search
    (see ``_optimal_measurements``) on the state's Bloch data.  Raises
    ``DiscordOptimizationError`` if the search has not settled after 100
    Newton steps.
    """
    _, (polar, azimuth, gain) = _searched(rho, measured_side, "optimal_measurement")
    return MeasurementBasis(polar, azimuth), gain


def _optimal_measurements(blochs, sides: Sequence[str]) -> list:
    """``(polar, azimuth, gain)`` per row of the ``(a, b, t)`` stacks of ``_bloch_components``.

    Each row starts from its best axis of 996: the first 32 polar rows of
    a 64 x 32 Bloch-sphere grid (a hemisphere: an axis and its opposite
    are one measurement), whose pole row keeps one of its 32 copies, then
    the three eigenvectors of x x^T + M M^T (``local`` and ``m``; the
    geometric discord's optimal axis, Dakic, Vedral and Brukner, PRL 105,
    190502 (2010)), scored in a separate call.  The first wins ties.
    Newton steps on the unit sphere (``_newton_steps``) then refine it.  A
    step turns the axis by at most one azimuth step of the seed grid, and
    each row halves its own step until the conditional entropy does not
    rise.  A row leaves the search once its gradient is below 1e-12, its
    accepted move is below 1e-7 rad, or no move of at least 1e-7 rad keeps
    the entropy from rising.  A kernel call scores at most 4096 (state,
    axis) pairs, which bounds the memory of a stacked search.  A search
    with rows left after 100 steps raises ``DiscordOptimizationError``
    (one settles in under 10).
    """
    a, b, t = blochs
    on_a = np.array([side == "A" for side in sides])[:, None]
    local, other = np.where(on_a, b, a), np.where(on_a, a, b)
    m = np.where(on_a[..., None], t.transpose(0, 2, 1), t)

    def scan(rows, axes):
        # values on the shared (k, 3) axes or on each row's own, _SCAN_BUDGET // k rows (at least 1) a call
        per_call = max(1, _SCAN_BUDGET // axes.shape[-2])
        parts = (slice(lo, lo + per_call) for lo in range(0, len(rows), per_call))
        return np.concatenate([_conditional_entropy_scan(local[rows[p]], other[rows[p]], m[rows[p]],
                                                         axes if axes.ndim == 2 else axes[p]) for p in parts])

    seed, active = _seed(), np.arange(len(local))
    values = scan(active, seed)
    pick = values.argmin(axis=1)
    axes, conditional = seed[pick], values[active, pick]
    # the principal axes (row, axis, component): the eigenvectors of x x^T + M M^T
    columns = m.transpose(2, 0, 1)
    gram = local[:, :, None] * local[:, None] + _dot(columns[..., None], columns[:, :, None])
    principal = np.linalg.eigh(gram)[1].transpose(0, 2, 1)
    values = scan(active, principal)
    pick = values.argmin(axis=1)
    lower = values[active, pick] < conditional  # the grid wins ties
    axes[lower], conditional[lower] = principal[lower, pick[lower]], values[lower, pick[lower]]
    axes = axes.T.copy()  # component first, as _newton_steps takes them

    for _ in range(_MAX_STEPS):
        unit, turn, slope = _newton_steps(local[active].T, other[active].T, m[active].transpose(1, 2, 0),
                                          axes[:, active])
        leaving = np.ones(len(active), dtype=bool)
        trying = np.flatnonzero(slope > _GRADIENT_TOL)
        while trying.size:
            rows, angle = active[trying], turn[trying]
            n = np.cos(angle) * axes[:, rows] + np.sin(angle) * unit[:, trying]
            n /= np.sqrt(_dot(n, n))
            value = scan(rows, n.T[:, None])[:, 0]
            taken = value <= conditional[rows]
            axes[:, rows[taken]], conditional[rows[taken]] = n[:, taken], value[taken]
            leaving[trying[taken]] = angle[taken] < _MOVE_TOL
            turn[trying] *= 0.5
            trying = trying[~taken & (turn[trying] >= _MOVE_TOL)]
        active = active[~leaving]
        if not active.size:
            break
    else:
        raise DiscordOptimizationError(f"basis search did not converge within {_MAX_STEPS} Newton steps")
    polar = np.arctan2(np.sqrt(axes[0] * axes[0] + axes[1] * axes[1]), axes[2])
    azimuth = np.arctan2(axes[1], axes[0])
    # S(rho_other): the entropy of the populations (1 -+ |other|) / 2, ascending
    length = np.sqrt(_dot(other.T, other.T))
    gain = densmat._spectrum_entropy(np.stack([1.0 - length, 1.0 + length], axis=-1) / 2.0) - conditional
    return list(zip(polar.tolist(), azimuth.tolist(), gain.tolist()))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the first axis (length 3), written out so that no row depends on another."""
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _newton_steps(local: np.ndarray, other: np.ndarray, m: np.ndarray,
                  n: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Saddle-free Riemannian Newton step of each row's conditional entropy at axis ``n``.

    Arrays are component first: ``local``, ``other`` and ``n`` are ``(3, r)``,
    ``m`` is ``(3, 3, r)`` with the measured side first.  Per outcome
    s = +-1 the entropy is eta(mu+) + eta(mu-) - eta(p), with
    eta(x) = -x ln x, p = (1 + s local . n) / 2, w = other + s m^T n and
    mu+- = (2p +- |w|) / 4; the terms of a mu or p at or below
    ``ENTROPY_CUTOFF`` drop out.  grad |w| = s m w^ and
    hess |w| = m (I - w^ w^T) m^T / |w|.  On a tangent frame E at ``n`` the
    Riemannian Hessian is E^T H E - (n . g) I.  The step's component along
    each of its eigenvectors is divided by max(|lambda|,
    ``_CURVATURE_FLOOR``), so a singular or indefinite Hessian still gives
    a descent step.  Returns the step's unit tangent, its length in rad
    (capped at ``_MAX_TURN``) and the norm of the Riemannian gradient.
    """
    # an orthonormal tangent frame (Duff et al., JCGT 6 (2017)); any one gives the same step
    x, y, z = n
    sign = np.copysign(1.0, z)
    c = -1.0 / (sign + z)
    xy = x * y * c
    # component first, then frame vector e: n and the two tangent ones
    frame = np.array([[x, 1.0 + sign * x * x * c, xy], [y, sign * xy, sign + y * y * c], [z, -sign * x, -y]])
    # per frame vector e: e . local and m^T e (component first), and the tangent block of turned^T turned
    proj, turned = _dot(frame, local[:, None]), _dot(frame[:, None], m[:, :, None])
    cross = _dot(turned[:, 1:, None], turned[:, None, 1:])
    grad = hess = 0.0  # e . g (the normal component, then the tangent ones) and E^T H E
    for s in (1.0, -1.0):
        w = other + s * turned[:, 0]
        r = np.sqrt(_dot(w, w))
        r_or_1 = np.where(r > 0.0, r, 1.0)
        p = 0.5 * (1.0 + s * proj[0])
        mu = np.array([0.5 * p + 0.25 * r, 0.5 * p - 0.25 * r, p])
        kept = mu > densmat.ENTROPY_CUTOFF
        mu = np.where(kept, mu, 1.0)
        log, inv = np.log(mu), np.where(kept, 1.0 / mu, 0.0)
        # e . grad |w| / s, for each frame vector e
        tilt = _dot(w[:, None], turned) / r_or_1
        # coefficient of m (I - w^ w^T) m^T; its limit at |w| = 0 is -1 / (4p)
        bend = np.where(r > 0.0, (log[1] - log[0]) / (4.0 * r_or_1), -0.25 * inv[2])
        centre, spread = 2.0 * log[2] - log[0] - log[1], log[0] - log[1]
        grad = grad + s * (0.25 * proj * centre - 0.25 * tilt * spread)
        # rows i against columns j of the tangent block of E^T H E
        along, lean = proj[1:], tilt[1:]
        plus, minus = along + lean, along - lean
        up, down = inv[0] * plus, inv[1] * minus
        quarter = 0.25 * inv[2]  # these factors of the Hessian terms are taken once per outcome
        hess = hess + (-(up[:, None] * plus + down[:, None] * minus) / 16.0
                       + (quarter * along)[:, None] * along + bend * (cross - lean[:, None] * lean))
    h11, h12, h22 = hess[0, 0] - grad[0], hess[0, 1], hess[1, 1] - grad[0]
    # the Hessian's eigenvectors are (cos, sin) and (-sin, cos)
    angle = 0.5 * np.arctan2(2.0 * h12, h11 - h22)
    cos, sin = np.cos(angle), np.sin(angle)
    lam1 = h11 * cos * cos + 2.0 * h12 * cos * sin + h22 * sin * sin
    lam2 = h11 * sin * sin - 2.0 * h12 * cos * sin + h22 * cos * cos
    v1 = -(cos * grad[1] + sin * grad[2]) / np.maximum(np.abs(lam1), _CURVATURE_FLOOR)
    v2 = (sin * grad[1] - cos * grad[2]) / np.maximum(np.abs(lam2), _CURVATURE_FLOOR)
    t1, t2 = cos * v1 - sin * v2, sin * v1 + cos * v2
    length = np.sqrt(t1 * t1 + t2 * t2)
    unit = (t1 * frame[:, 1] + t2 * frame[:, 2]) / np.where(length > 0.0, length, 1.0)
    return unit, np.minimum(length, _MAX_TURN), np.sqrt(grad[1] * grad[1] + grad[2] * grad[2])


def discord_numeric(rho, measured_side: str = "A") -> float:
    """Quantum discord with projective measurements on one side.

    I(rho) minus the maximal one-sided classical correlation found by
    the (deterministic) basis search.
    """
    r, (_, _, gain) = _searched(rho, measured_side, "discord_numeric")
    return _discord(float(_mutual_information(r)), gain)


def _discord(mi: float, gain: float) -> float:
    delta = mi - gain
    if delta < -1e-9:
        raise RuntimeError(f"discord optimization exceeded mutual information: {delta!r}")
    return max(0.0, delta)


def classical_correlations(rho, measured_side: str = "A") -> float:
    """Classical share of correlations: I(rho) - discord for the given side."""
    r, (_, _, gain) = _searched(rho, measured_side, "classical_correlations")
    mi = float(_mutual_information(r))
    return mi - _discord(mi, gain)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def correlation_report(params: ProtocolParams, *, numeric_discord: bool = True) -> CorrelationReport:
    """Evaluate all correlation measures on the post-measurement state."""
    rho_m = protocol._post_measurement_states((params.eps_s,), (params.eps_a,), (params.phi,))
    return _reports(rho_m, [discord_analytic(params.eps_s, params.phi)], numeric_discord)[0]


def _reports(rho_m: np.ndarray, discords: Sequence[float], numeric: bool = False) -> list[CorrelationReport]:
    """One ``CorrelationReport`` per state of an ``(n, 4, 4)`` post-measurement stack, given its closed-form
    discord; with ``numeric``, both one-sided discords from ``_discords``.  No report reads the others."""
    conc, mi = _concurrence(rho_m).tolist(), _mutual_information(rho_m).tolist()
    d_a, d_s = _discords(rho_m, mi) if numeric else ([None] * len(discords),) * 2
    return [_record(CorrelationReport, c, eof_from_concurrence(c), m, a, s, d,
                    None if a is None else m - a)
            for c, m, a, s, d in zip(conc, mi, d_a, d_s, discords)]


def _discords(rho_m: np.ndarray, mutual_info: Sequence[float]) -> tuple[list[float], list[float]]:
    """The discords measured on A and on S of each state of an ``(n, 4, 4)`` stack with mutual information
    ``mutual_info``, from one basis search on the rows ``["A"] * n + ["S"] * n``."""
    n = len(rho_m)
    gains = [g for _, _, g in _optimal_measurements(
        tuple(np.concatenate([c, c]) for c in _bloch_components(rho_m)), ["A"] * n + ["S"] * n)]
    return tuple([_discord(m, g) for m, g in zip(mutual_info, side)] for side in (gains[:n], gains[n:]))
