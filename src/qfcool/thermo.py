"""Energy balance and figures of merit for one cooling cycle.

Each energetic quantity exists in two routes: a closed-form expression in
(eps_s, eps_a, phi, T), and a matrix-oracle counterpart (suffix
``_matrix``) computed from the actual state sequence.  Production code
uses the closed forms; the ``*_matrix`` routes back every verification.
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
# closed forms
# ---------------------------------------------------------------------------

def work_measurement(params: ProtocolParams) -> float:
    """Energy change of the pair during the measurement unitary (<= 0)."""
    es, ea, t = params.eps_s, params.eps_a, params.temperature
    return -t * (es * math.sin(params.phi) ** 2 * math.atanh(es) + ea * math.atanh(ea))


def work_feedback(params: ProtocolParams) -> float:
    """Energy released by the pair during the feedback unitary.

    Positive value = work extracted by the controller.  Equals
    tr{H (rho_m - rho_f)}; the matrix route is the ground truth and
    ``work_feedback_matrix`` must agree to 1e-10.
    """
    es, ea, t = params.eps_s, params.eps_a, params.temperature
    y = ea * math.atanh(es) + es * math.atanh(ea)
    return t * (y * math.sin(params.phi) - es * math.atanh(es) * math.cos(params.phi) ** 2)


def phi_crit(params: ProtocolParams) -> float:
    """Measurement angle above which the feedback strictly extracts work.

    For eps_s = 0 the feedback work is identically zero (never strictly
    positive); the threshold degenerates and 0.0 is returned, flagged via
    ``ThermoReport.phi_crit_defined``.
    """
    return _phi_crit(params.eps_s, params.eps_a)


def _phi_crit(eps_s: float, eps_a: float) -> float:
    a = eps_s * math.atanh(eps_s)
    if a == 0.0:  # eps_s = 0, or small enough for a to underflow
        return 0.0
    y = eps_a * math.atanh(eps_s) + eps_s * math.atanh(eps_a)
    # The direct form loses about (y/a)^2 ulps to cancellation and its
    # squares underflow for a tiny eps_s; there the same root comes from
    # the rationalised form, whose hypot neither overflows nor underflows.
    # Elsewhere the direct form stays, keeping emitted digits.
    if y <= 100.0 * a and a > 1e-100:
        return math.asin((-y + math.sqrt(y * y + 4.0 * a * a)) / (2.0 * a))
    return math.asin(2.0 * a / (y + math.hypot(y, 2.0 * a)))


def heat_reset(params: ProtocolParams) -> float:
    """Heat dumped into the bath while the ancilla relaxes back."""
    es, ea, t = params.eps_s, params.eps_a, params.temperature
    return t * (ea - es * math.sin(params.phi)) * math.atanh(ea)


def delta_e_system(params: ProtocolParams) -> float:
    """Drop in the register's average energy over the full cycle."""
    es, ea, t = params.eps_s, params.eps_a, params.temperature
    return -t * (es - ea * math.sin(params.phi)) * math.atanh(es)


def entropy_reduction(params: ProtocolParams) -> float:
    """Register entropy drop S(rho0_s) - S(rho_f_s), in nats (phi-independent)."""
    es, ea = params.eps_s, params.eps_a
    return (
        ea * math.atanh(ea)
        - es * math.atanh(es)
        + 0.5 * math.log((1.0 - ea * ea) / (1.0 - es * es))
    )


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
    load = cooling_load(params)
    q = heat_reset(params)
    de_s = delta_e_system(params)
    w = -de_s + q
    w_m, w_f = work_measurement(params), work_feedback(params)
    omegas = (level_splitting(params.eps_s, params.temperature),
              level_splitting(params.eps_a, params.temperature))
    if not all(math.isfinite(v) for v in (load, q, de_s, w, w_m, w_f, *omegas)):
        raise ValueError(f"temperature {params.temperature!r} makes the cycle energies overflow")
    reversible = w / params.temperature <= REVERSIBLE_WORK_FLOOR
    cop = None if reversible else load / w
    eta = None if reversible else load / q
    chi = None if reversible else cop * load
    pc = _phi_crit(params.eps_s, params.eps_a)
    pc_defined = params.eps_s > 0.0
    return ThermoReport(
        work_measurement=w_m,
        work_feedback=w_f,
        heat_reset=q,
        delta_e_system=de_s,
        entropy_reduction=entropy_reduction(params),
        cooling_load=load,
        total_work=w,
        cop=cop,
        eta=eta,
        chi=chi,
        in_cooling_window=params.eps_a * math.sin(params.phi) > params.eps_s,
        work_extracting_feedback=(params.phi > pc) if pc_defined else False,
        phi_crit=pc,
        phi_crit_defined=pc_defined,
        reversible_limit=reversible,
    )


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
