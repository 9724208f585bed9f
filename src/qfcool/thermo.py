"""Energy balance and figures of merit for one cooling cycle.

Each energetic quantity exists in two routes: a closed-form expression in
(eps_s, eps_a, phi, T), and a matrix-oracle counterpart (suffix
``_matrix``) computed from the actual state sequence.  Production code
uses the closed forms; the ``*_matrix`` routes back every verification.
The closed forms and ``figures_of_merit`` are re-exported from the
numpy-free ``closed_forms`` module, which states their sign conventions;
each single-quantity closed form there reads one field of
``figures_of_merit``.
The oracles read the ``ProtocolTrace`` states through densmat's unchecked
kernels: those states are valid by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import densmat, protocol
from .closed_forms import (  # re-exported
    REVERSIBLE_WORK_FLOOR, ProtocolParams, ThermoReport, cooling_load, delta_e_system,
    entropy_reduction, figures_of_merit, heat_reset, level_splitting, phi_crit, total_work,
    work_feedback, work_measurement,
)
from .densmat import ID2, SIGMA_Z, _tensor
from .protocol import ProtocolTrace


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


def ergotropy(rho, hamiltonian) -> float:
    """Maximal work extractable from ``rho`` by unitaries, given ``hamiltonian``.

    tr(H rho) - tr(H rho_passive), where the passive state pairs the
    descending eigenvalues of rho with the ascending eigenvalues of H.
    """
    r, populations = densmat._checked(rho)
    h = densmat.as_matrix(hamiltonian)
    if h.shape != r.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {r.shape}")
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
