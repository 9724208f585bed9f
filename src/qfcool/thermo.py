"""Energy balance and figures of merit for one cooling cycle.

Each energetic quantity exists in two routes: a closed-form expression in
(eps_s, eps_a, phi, T), and a matrix-oracle counterpart (suffix
``_matrix``) computed from the actual state sequence.  Production code
uses the closed forms; the ``*_matrix`` routes back every verification.
The closed forms are written once, on factors of one grid axis each: a
column of (eps_s, eps_a, T) and a row of phi.  A landscape builds each
column and row once; a single-point function builds those of its point.
The oracles read the ``ProtocolTrace`` states through densmat's
unchecked kernels: those states are valid by construction.

Units: k_B = hbar = 1; the temperature enters as a multiplicative scale.

Sign conventions:

* ``work_measurement`` / ``work_feedback`` are the energy *lost by the
  qubit pair* during the respective unitary, i.e. positive values mean
  the controller extracts work.  The measurement step always costs work
  (negative value); the feedback step extracts work for ``phi`` above
  ``phi_crit``.
* ``heat_reset`` is the heat dumped into the bath by the ancilla reset
  (positive inside the operating domain).
* ``delta_e_system`` is the drop in the register's average energy;
  positive exactly inside the cooling window ``eps_a sin(phi) > eps_s``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import densmat, protocol
from .densmat import ID2, SIGMA_Z, _tensor
from .protocol import ProtocolParams, ProtocolTrace

# Total work over temperature (W / T, which does not depend on T) below
# this floor marks a reversible limit point, where the performance ratios
# P/W, P/Q are 0/0 and reported as undefined.
REVERSIBLE_WORK_FLOOR = 1e-14


@dataclass(frozen=True)
class EnergyModel:
    """Level splittings and Hamiltonians matching the thermal biases.

    The gaps satisfy omega = 2 T atanh(eps), i.e. a qubit thermalized at
    ``temperature`` has polarization bias ``eps``.  The model of n points
    at once (``_energy_models``) holds a stack in each field.
    """

    omega_s: float
    omega_a: float
    hamiltonian: np.ndarray   # 4x4 joint Hamiltonian
    h_system: np.ndarray      # 2x2 register term
    h_ancilla: np.ndarray     # 2x2 ancilla term


@dataclass(frozen=True)
class ThermoReport:
    """Complete energy/entropy bookkeeping of one parameter point.

    ``cop``, ``eta`` and ``chi`` are None when ``reversible_limit`` is
    set (W / T below REVERSIBLE_WORK_FLOOR), never infinities.
    ``phi_crit_defined`` is False for eps_s = 0, where the feedback never
    strictly extracts work and the threshold angle degenerates to 0.
    """

    work_measurement: float
    work_feedback: float
    heat_reset: float
    delta_e_system: float
    entropy_reduction: float
    cooling_load: float
    total_work: float
    cop: Optional[float]
    eta: Optional[float]
    chi: Optional[float]
    in_cooling_window: bool
    work_extracting_feedback: bool
    phi_crit: float
    phi_crit_defined: bool
    reversible_limit: bool


def level_splitting(eps: float, temperature: float) -> float:
    """Energy gap giving bias ``eps`` at ``temperature``: 2 T atanh(eps)."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    return 2.0 * temperature * math.atanh(eps)


def energy_model(params: ProtocolParams) -> EnergyModel:
    """H = (omega_s/2) sigma_z x I + (omega_a/2) I x sigma_z."""
    model = _energy_models([params])
    return EnergyModel(**{name: field[0] for name, field in vars(model).items()})


def _energy_models(points) -> EnergyModel:
    """``energy_model`` of each of n points, every field stacked."""
    omegas = np.array([(level_splitting(p.eps_s, p.temperature),
                        level_splitting(p.eps_a, p.temperature)) for p in points]).reshape(-1, 2)
    h_s = 0.5 * omegas[:, 0, None, None] * SIGMA_Z
    h_a = 0.5 * omegas[:, 1, None, None] * SIGMA_Z
    return EnergyModel(
        omega_s=omegas[:, 0],
        omega_a=omegas[:, 1],
        hamiltonian=_tensor(h_s, ID2) + _tensor(ID2, h_a),
        h_system=h_s,
        h_ancilla=h_a,
    )


# ---------------------------------------------------------------------------
# closed forms, factored by grid axis
# ---------------------------------------------------------------------------
# Each closed form is written once, as a function of factors that depend on
# one grid axis: a column of (eps_s, eps_a, T), with a = eps_s atanh(eps_s)
# and y = eps_a atanh(eps_s) + eps_s atanh(eps_a), or a row of phi.
_Column = namedtuple("_Column", "eps_s eps_a temperature atanh_s atanh_a a y ea_atanh_a"
                                " entropy_reduction cooling_load omega_s omega_a phi_crit")
_Row = namedtuple("_Row", "phi sin sin2 cos2")


def _factors(eps_s: float, eps_a: float) -> tuple[float, float, float, float, float]:
    """(atanh(eps_s), atanh(eps_a), a, y, eps_a atanh(eps_a))."""
    atanh_s, atanh_a = math.atanh(eps_s), math.atanh(eps_a)
    return atanh_s, atanh_a, eps_s * atanh_s, eps_a * atanh_s + eps_s * atanh_a, eps_a * atanh_a


def _columns(eps_s: float, eps_a_values, temperature: float) -> list[_Column]:
    """The column of each ancilla bias; parameters already validated."""
    omega_s = level_splitting(eps_s, temperature)
    columns = []
    for ea in eps_a_values:
        atanh_s, atanh_a, a, y, ea_atanh_a = _factors(eps_s, ea)
        reduction = _entropy_reduction(eps_s, ea, a, ea_atanh_a)
        columns.append(_Column(eps_s, ea, temperature, atanh_s, atanh_a, a, y, ea_atanh_a,
                               reduction, temperature * reduction, omega_s,
                               level_splitting(ea, temperature), _phi_crit(a, y)))
    return columns


def _column(eps_s: float, eps_a: float, temperature: float) -> _Column:
    return _columns(eps_s, (eps_a,), temperature)[0]


def _row(phi: float) -> _Row:
    s = math.sin(phi)
    return _Row(phi, s, s ** 2, math.cos(phi) ** 2)


def _work_measurement(t: float, eps_s: float, sin2: float, atanh_s: float,
                      ea_atanh_a: float) -> float:
    return -t * (eps_s * sin2 * atanh_s + ea_atanh_a)


def _work_feedback(t: float, a: float, y: float, sin: float, cos2: float) -> float:
    return t * (y * sin - a * cos2)


def _heat_reset(t: float, eps_s: float, eps_a: float, sin: float, atanh_a: float) -> float:
    return t * (eps_a - eps_s * sin) * atanh_a


def _delta_e_system(t: float, eps_s: float, eps_a: float, sin: float, atanh_s: float) -> float:
    return -t * (eps_s - eps_a * sin) * atanh_s


def _entropy_reduction(eps_s: float, eps_a: float, a: float, ea_atanh_a: float) -> float:
    return ea_atanh_a - a + 0.5 * math.log((1.0 - eps_a * eps_a) / (1.0 - eps_s * eps_s))


def _phi_crit(a: float, y: float) -> float:
    """Root in phi of the feedback work ``y sin(phi) - a cos(phi)^2``, 0.0 for a = 0."""
    if a == 0.0:  # eps_s = 0, or small enough for a to underflow
        return 0.0
    # The direct form loses about (y/a)^2 ulps to cancellation and its
    # squares underflow for a tiny eps_s; there the same root comes from
    # the rationalised form, whose hypot neither overflows nor underflows.
    # Elsewhere the direct form stays, keeping emitted digits.
    if y <= 100.0 * a and a > 1e-100:
        return math.asin((-y + math.sqrt(y * y + 4.0 * a * a)) / (2.0 * a))
    return math.asin(2.0 * a / (y + math.hypot(y, 2.0 * a)))


def _report(c: _Column, r: _Row) -> ThermoReport:
    """``figures_of_merit`` of the point (column, row)."""
    t, load = c.temperature, c.cooling_load
    q = _heat_reset(t, c.eps_s, c.eps_a, r.sin, c.atanh_a)
    de_s = _delta_e_system(t, c.eps_s, c.eps_a, r.sin, c.atanh_s)
    w = -de_s + q
    w_m = _work_measurement(t, c.eps_s, r.sin2, c.atanh_s, c.ea_atanh_a)
    w_f = _work_feedback(t, c.a, c.y, r.sin, r.cos2)
    if not all(map(math.isfinite, (load, q, de_s, w, w_m, w_f, c.omega_s, c.omega_a))):
        raise ValueError(f"temperature {t!r} makes the cycle energies overflow")
    reversible = w / t <= REVERSIBLE_WORK_FLOOR
    cop = None if reversible else load / w
    pc_defined = c.eps_s > 0.0
    return ThermoReport(
        work_measurement=w_m,
        work_feedback=w_f,
        heat_reset=q,
        delta_e_system=de_s,
        entropy_reduction=c.entropy_reduction,
        cooling_load=load,
        total_work=w,
        cop=cop,
        eta=None if reversible else load / q,
        chi=None if reversible else cop * load,
        in_cooling_window=c.eps_a * r.sin > c.eps_s,
        work_extracting_feedback=(r.phi > c.phi_crit) if pc_defined else False,
        phi_crit=c.phi_crit,
        phi_crit_defined=pc_defined,
        reversible_limit=reversible,
    )


def work_measurement(params: ProtocolParams) -> float:
    """Energy change of the pair during the measurement unitary (<= 0)."""
    atanh_s, _, _, _, ea_atanh_a = _factors(params.eps_s, params.eps_a)
    return _work_measurement(params.temperature, params.eps_s, math.sin(params.phi) ** 2,
                             atanh_s, ea_atanh_a)


def work_feedback(params: ProtocolParams) -> float:
    """Energy released by the pair during the feedback unitary.

    Positive value = work extracted by the controller.  Equals
    tr{H (rho_m - rho_f)}; the matrix route is the ground truth and
    ``work_feedback_matrix`` must agree to 1e-10.
    """
    _, _, a, y, _ = _factors(params.eps_s, params.eps_a)
    return _work_feedback(params.temperature, a, y, math.sin(params.phi),
                          math.cos(params.phi) ** 2)


def phi_crit(params: ProtocolParams) -> float:
    """Measurement angle above which the feedback strictly extracts work.

    For eps_s = 0 the feedback work is identically zero (never strictly
    positive); the threshold degenerates and 0.0 is returned, flagged via
    ``ThermoReport.phi_crit_defined``.
    """
    _, _, a, y, _ = _factors(params.eps_s, params.eps_a)
    return _phi_crit(a, y)


def heat_reset(params: ProtocolParams) -> float:
    """Heat dumped into the bath while the ancilla relaxes back."""
    return _heat_reset(params.temperature, params.eps_s, params.eps_a, math.sin(params.phi),
                       math.atanh(params.eps_a))


def delta_e_system(params: ProtocolParams) -> float:
    """Drop in the register's average energy over the full cycle."""
    return _delta_e_system(params.temperature, params.eps_s, params.eps_a, math.sin(params.phi),
                           math.atanh(params.eps_s))


def entropy_reduction(params: ProtocolParams) -> float:
    """Register entropy drop S(rho0_s) - S(rho_f_s), in nats (phi-independent)."""
    _, _, a, _, ea_atanh_a = _factors(params.eps_s, params.eps_a)
    return _entropy_reduction(params.eps_s, params.eps_a, a, ea_atanh_a)


def cooling_load(params: ProtocolParams) -> float:
    """k_B T times the register entropy reduction per cycle."""
    return params.temperature * entropy_reduction(params)


def total_work(params: ProtocolParams) -> float:
    """Net work supplied by the controller: -delta_e_system + heat_reset."""
    return -delta_e_system(params) + heat_reset(params)


def figures_of_merit(params: ProtocolParams) -> ThermoReport:
    """All energetic quantities, performance ratios and regime flags.

    Raises ValueError naming the temperature when an energy or a level
    splitting overflows.
    """
    return _report(_column(params.eps_s, params.eps_a, params.temperature), _row(params.phi))


def ergotropy(rho, hamiltonian) -> float:
    """Maximal work extractable from ``rho`` by unitaries, given ``hamiltonian``.

    tr(H rho) - tr(H rho_passive), where the passive state pairs the
    descending eigenvalues of rho with the ascending eigenvalues of H.
    """
    r, populations = densmat._checked(rho)
    h = densmat.as_matrix(hamiltonian)
    if not densmat.is_hermitian(h):
        raise ValueError("ergotropy expects a Hermitian Hamiltonian")
    return float(_ergotropy(r, h, populations))


def _ergotropy(rho: np.ndarray, h: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Ergotropy of a state or of each state in a stack, from its eigenvalues."""
    passive_energy = (populations[..., ::-1] * np.linalg.eigvalsh(h)).sum(axis=-1)
    return np.maximum(0.0, densmat._expectation(h, rho) - passive_energy)


# ---------------------------------------------------------------------------
# matrix oracles
# ---------------------------------------------------------------------------

def _energy_drop(h: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    return densmat._expectation(h, before) - densmat._expectation(h, after)


def _oracles(trace: ProtocolTrace, model: EnergyModel) -> dict[str, np.ndarray]:
    """Each closed form's matrix oracle, by name, on stacked states: one value per point."""
    h = model.hamiltonian
    return {
        "work_measurement": _energy_drop(h, trace.rho0, trace.rho_m),
        "work_feedback": _energy_drop(h, trace.rho_m, trace.rho_f),
        "heat_reset": _energy_drop(model.h_ancilla, trace.rho_f_a, trace.rho0_a),
        "delta_e_system": _energy_drop(model.h_system, trace.rho0_s, trace.rho_f_s),
        "entropy_reduction": (densmat._vn_entropies(trace.rho0_s)
                              - densmat._vn_entropies(trace.rho_f_s)),
        "total_work": -_energy_drop(h, trace.rho0, trace.rho_f),
    }


def _oracle(name: str, params: ProtocolParams) -> float:
    trace = protocol._run_protocols((params.eps_s,), (params.eps_a,), (params.phi,))
    return float(_oracles(trace, _energy_models([params]))[name][0])


def work_measurement_matrix(params: ProtocolParams) -> float:
    """tr{H (rho0 - rho_m)} from the actual states."""
    return _oracle("work_measurement", params)


def work_feedback_matrix(params: ProtocolParams) -> float:
    """tr{H (rho_m - rho_f)} from the actual states."""
    return _oracle("work_feedback", params)


def heat_reset_matrix(params: ProtocolParams) -> float:
    """tr{H_A (rho_f_a - rho0_a)} from the actual marginals."""
    return _oracle("heat_reset", params)


def delta_e_system_matrix(params: ProtocolParams) -> float:
    """tr{H_S (rho0_s - rho_f_s)} from the actual marginals."""
    return _oracle("delta_e_system", params)


def entropy_reduction_matrix(params: ProtocolParams) -> float:
    """S(rho0_s) - S(rho_f_s) from matrix entropies."""
    return _oracle("entropy_reduction", params)


def total_work_matrix(params: ProtocolParams) -> float:
    """-tr{H (rho0 - rho_f)} from the actual states."""
    return _oracle("total_work", params)
