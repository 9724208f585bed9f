"""Energy balance and figures of merit for one cooling cycle.

Each energetic quantity exists in two routes under one name: a closed-form
expression in (eps_s, eps_a, phi, T), read from ``figures_of_merit(params)``,
and a matrix oracle computed from the actual state sequence, read from
``matrix_oracles(params)``.  Production code uses the closed forms; the
oracles back every verification.
``figures_of_merit`` is re-exported from the numpy-free ``closed_forms``
module, which states the sign conventions of its ``ThermoReport`` fields.
The oracles read the ``ProtocolTrace`` states alone (valid by construction) through
two readers: H is a sum of one term per qubit, so each energy tr(H rho) is read from the
qubit marginals, (omega_s/2) <sigma_z> of the register's plus (omega_a/2) <sigma_z> of
the ancilla's, and each entropy comes from the caller's reader (a grid's cached spectra,
or one ``eigvalsh`` per field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import densmat, protocol
from .closed_forms import (  # re-exported
    REVERSIBLE_WORK_FLOOR, ProtocolParams, ThermoReport, figures_of_merit, level_splitting,
)
from .densmat import ID2, SIGMA_Z, _tensor


@dataclass(frozen=True)
class EnergyModel:
    """Level splittings and Hamiltonians matching the thermal biases of one point.

    The gaps satisfy omega = 2 T atanh(eps), i.e. a qubit thermalized at
    ``temperature`` has polarization bias ``eps``.  The oracles read only the
    half splittings omega/2 (a grid's ``half_splittings``), which weigh each qubit
    marginal's <sigma_z>.
    """

    omega_s: float
    omega_a: float
    hamiltonian: np.ndarray   # 4x4 joint Hamiltonian
    h_system: np.ndarray      # 2x2 register term
    h_ancilla: np.ndarray     # 2x2 ancilla term


def energy_model(params: ProtocolParams) -> EnergyModel:
    """H = (omega_s/2) sigma_z x I + (omega_a/2) I x sigma_z."""
    omega_s, omega_a = (level_splitting(eps, params.temperature) for eps in (params.eps_s, params.eps_a))
    h_s, h_a = 0.5 * omega_s * SIGMA_Z, 0.5 * omega_a * SIGMA_Z
    return EnergyModel(omega_s, omega_a, _tensor(h_s, ID2) + _tensor(ID2, h_a), h_s, h_a)


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
    return float(_ergotropy(densmat._expectation(h, r), np.linalg.eigvalsh(h), populations))


def _ergotropy(energy: np.ndarray, levels: np.ndarray, populations: np.ndarray) -> np.ndarray:
    """Ergotropy of a state or of each state in a stack, from its energy tr(H rho),
    H's ascending levels and the state's ascending eigenvalues."""
    passive_energy = (populations[..., ::-1] * levels).sum(axis=-1)
    return np.maximum(0.0, energy - passive_energy)


# ---------------------------------------------------------------------------
# matrix oracles
# ---------------------------------------------------------------------------

def _energy(half: np.ndarray, trace: protocol.ProtocolTrace, stage: str) -> tuple[np.ndarray, np.ndarray]:
    """The register's and the ancilla's energy at each point of the trace's ``stage`` (rho0, rho_m
    or rho_f): each qubit marginal's <sigma_z> times its half splitting, column 0 or 1 of ``half``."""
    return tuple(half[:, k] * densmat._bloch(getattr(trace, f"{stage}_{q}"))[2] for k, q in enumerate("sa"))


def _oracles(half: np.ndarray, trace: protocol.ProtocolTrace,
             entropy: Callable[[str], np.ndarray]) -> dict[str, np.ndarray]:
    """Each closed form's matrix oracle, by name, one value per point, from the trace's qubit
    marginals at the half splittings ``half`` and ``entropy(name)``, the entropy of each state of
    the trace field ``name``.  H is local, so tr(H rho) of a joint stage is its marginals' sum."""
    (s0, a0), (s_m, a_m), (s_f, a_f) = (_energy(half, trace, stage) for stage in ("rho0", "rho_m", "rho_f"))
    e0, e_m, e_f = s0 + a0, s_m + a_m, s_f + a_f
    return {
        "work_measurement": e0 - e_m,
        "work_feedback": e_m - e_f,
        "heat_reset": a_f - a0,
        "delta_e_system": s0 - s_f,
        "entropy_reduction": entropy("rho0_s") - entropy("rho_f_s"),
        "total_work": -(e0 - e_f),
    }


def matrix_oracles(params: ProtocolParams) -> dict[str, float]:
    """Each closed form's matrix oracle at one point, from one protocol run.

    The keys are the ``ThermoReport`` field names, so ``matrix_oracles(p)[name]``
    is the matrix route of ``getattr(figures_of_merit(p), name)``.
    """
    trace = protocol._run_protocols((params.eps_s,), (params.eps_a,), (params.phi,))
    half = 0.5 * np.array([[level_splitting(e, params.temperature) for e in (params.eps_s, params.eps_a)]])
    oracles = _oracles(half, trace, lambda name: densmat._vn_entropies(getattr(trace, name)))
    return {name: float(value[0]) for name, value in oracles.items()}
