"""Energy balance and figures of merit for one cooling cycle.

Each energetic quantity exists in two routes under one name: a closed-form
expression in (eps_s, eps_a, phi, T), read from ``figures_of_merit(params)``,
and a matrix oracle computed from the actual state sequence, read from
``matrix_oracles(params)``.  Production code uses the closed forms; the
oracles back every verification.
``figures_of_merit`` is re-exported from the numpy-free ``closed_forms``
module, which states the sign conventions of its ``ThermoReport`` fields.
The oracles read the ``ProtocolTrace`` states alone (valid by construction) through
two readers: each energy tr(H rho) weighs a state's populations by H's levels, which
are +-omega_s/2 +-omega_a/2 as H is diagonal, and each entropy comes from the caller's
reader (a grid's cached spectra, or one ``eigvalsh`` per field).
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

_Z = SIGMA_Z.real.diagonal()  # (1, -1): the level of |0> is +omega/2, that of |1> -omega/2


@dataclass(frozen=True)
class EnergyModel:
    """Level splittings and Hamiltonians matching the thermal biases of one point.

    The gaps satisfy omega = 2 T atanh(eps), i.e. a qubit thermalized at
    ``temperature`` has polarization bias ``eps``.  The oracles read only the
    levels, from each point's half splittings omega/2 (a grid's ``half_splittings``).
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

def _levels(half: np.ndarray) -> np.ndarray:
    """H's levels +-omega_s/2 +-omega_a/2 at each point, in |sa> order, shape (n, 4)."""
    s, a = half[:, 0, None] * _Z, half[:, 1, None] * _Z
    return (s[:, :, None] + a[:, None, :]).reshape(-1, 4)


def _energy(half: np.ndarray, name: str, stack: np.ndarray) -> np.ndarray:
    """tr(H rho) of each state of the trace field ``name``: its populations weighed by H's levels
    (a ``_s`` or ``_a`` marginal's by its term's +-omega/2), the four summed pairwise as np.trace
    sums a complex 4x4 diagonal, so that the value is ``densmat._expectation``'s bit for bit."""
    marginal = name[-2:] in ("_s", "_a")
    levels = half[:, "sa".index(name[-1]), None] * _Z if marginal else _levels(half)
    e = levels * np.diagonal(stack, axis1=-2, axis2=-1).real
    return e[:, 0] + e[:, 1] if marginal else (e[:, 0] + e[:, 1]) + (e[:, 2] + e[:, 3])


def _oracles(energy: Callable[[str], np.ndarray],
             entropy: Callable[[str], np.ndarray]) -> dict[str, np.ndarray]:
    """Each closed form's matrix oracle, by name, one value per point, from ``energy(name)``
    and ``entropy(name)``: tr(H rho) and the entropy of each state of the trace field ``name``."""
    e0, e_m, e_f = energy("rho0"), energy("rho_m"), energy("rho_f")
    return {
        "work_measurement": e0 - e_m,
        "work_feedback": e_m - e_f,
        "heat_reset": energy("rho_f_a") - energy("rho0_a"),
        "delta_e_system": energy("rho0_s") - energy("rho_f_s"),
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
    oracles = _oracles(lambda name: _energy(half, name, getattr(trace, name)),
                       lambda name: densmat._vn_entropies(getattr(trace, name)))
    return {name: float(value[0]) for name, value in oracles.items()}
