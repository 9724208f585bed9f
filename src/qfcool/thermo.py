"""Energy balance and figures of merit for one cooling cycle.

Each energetic quantity exists in two routes under one name: a closed-form
expression in (eps_s, eps_a, phi, T), read from ``figures_of_merit(params)``,
and a matrix oracle computed from the actual state sequence, read from
``matrix_oracles(params)``.  Production code uses the closed forms; the
oracles back every verification.
The closed forms and ``figures_of_merit`` are re-exported from the
numpy-free ``closed_forms`` module, which states their sign conventions;
each single-quantity closed form there reads one field of
``figures_of_merit``.
The oracles read the ``ProtocolTrace`` states (valid by construction) through
densmat's unchecked kernels, each energy tr(H rho) from the level populations.
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
    """``energy_model`` of each of n points, every field stacked; one
    ``level_splitting`` per distinct (bias, temperature)."""
    keys = [(eps, p.temperature) for p in points for eps in (p.eps_s, p.eps_a)]
    splittings = {key: level_splitting(*key) for key in set(keys)}
    omegas = np.array([splittings[key] for key in keys]).reshape(-1, 2)
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
    if not densmat._all_hermitian(h):
        raise ValueError("ergotropy expects a Hermitian Hamiltonian")
    return float(_ergotropy(densmat._expectation(h, r), h, populations))


def _ergotropy(energy: np.ndarray, h: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Ergotropy of a state or of each state in a stack, from its energy tr(H rho)
    and its eigenvalues."""
    passive_energy = (populations[..., ::-1] * np.linalg.eigvalsh(h)).sum(axis=-1)
    return np.maximum(0.0, energy - passive_energy)


# ---------------------------------------------------------------------------
# matrix oracles
# ---------------------------------------------------------------------------

def _energy_drop(h: np.ndarray, before: np.ndarray, after: np.ndarray) -> np.ndarray:
    levels = np.diagonal(h, axis1=-2, axis2=-1)
    return densmat._diagonal_expectation(levels, before) - densmat._diagonal_expectation(levels, after)


def _energies(h: np.ndarray, trace: ProtocolTrace) -> dict[str, np.ndarray]:
    """tr(H rho) of ``rho0``, ``rho_m`` and ``rho_f``, by field name, one value per point."""
    levels = np.diagonal(h, axis1=-2, axis2=-1)
    return {name: densmat._diagonal_expectation(levels, getattr(trace, name))
            for name in ("rho0", "rho_m", "rho_f")}


def _oracles(trace: ProtocolTrace, model: EnergyModel,
             energies: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Each closed form's matrix oracle, by name, on stacked states: one value per point.

    ``energies`` are the joint energies ``_energies`` returns, each taken once.
    """
    e0, e_m, e_f = energies["rho0"], energies["rho_m"], energies["rho_f"]
    return {
        "work_measurement": e0 - e_m,
        "work_feedback": e_m - e_f,
        "heat_reset": _energy_drop(model.h_ancilla, trace.rho_f_a, trace.rho0_a),
        "delta_e_system": _energy_drop(model.h_system, trace.rho0_s, trace.rho_f_s),
        "entropy_reduction": (densmat._vn_entropies(trace.rho0_s)
                              - densmat._vn_entropies(trace.rho_f_s)),
        "total_work": -(e0 - e_f),
    }


def matrix_oracles(params: ProtocolParams) -> dict[str, float]:
    """Each closed form's matrix oracle at one point, from one protocol run.

    The keys are the ``ThermoReport`` field names, so ``matrix_oracles(p)[name]``
    is the matrix route of ``getattr(figures_of_merit(p), name)``.
    """
    trace = protocol._run_protocols((params.eps_s,), (params.eps_a,), (params.phi,))
    model = _energy_models([params])
    return {name: float(value[0]) for name, value in
            _oracles(trace, model, _energies(model.hamiltonian, trace)).items()}
