"""The four-stage feedback cooling cycle on a register/ancilla qubit pair.

Stages: thermal initialization, a joint "pre-measurement" unitary that
imprints register populations onto the ancilla, a conditional feedback
rotation of the register controlled on the ancilla x-basis, and a
dissipative reset that replaces the ancilla marginal with a fresh thermal
state.  Everything is exact 4x4 algebra: closed-form trigonometric unitaries,
one per distinct angle, and U rho0 U+ with U's columns scaled by rho0's diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_forms import ProtocolParams  # re-exported
from .densmat import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, _dagger, _partial_trace, _tensor, tensor

_SQRT1_2 = 1.0 / math.sqrt(2.0)

# Conditional register rotations exp{+-i pi/4 sigma_y} and the ancilla
# x-basis projectors they are slaved to.
_ROT_PLUS = _SQRT1_2 * (ID2 + 1j * SIGMA_Y)
_ROT_MINUS = _SQRT1_2 * (ID2 - 1j * SIGMA_Y)
_PROJ_X_PLUS = 0.5 * (ID2 + SIGMA_X)
_PROJ_X_MINUS = 0.5 * (ID2 - SIGMA_X)
_ID4 = np.eye(4, dtype=complex)
# -1 and +1, so that (sign * eps + 1) / 2 gives both thermal populations.
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class ProtocolTrace:
    """State sequence of one run plus the six stage marginals.

    ``rho_reset`` is the product state left after the ancilla reset:
    (register marginal of ``rho_f``) tensor (fresh thermal ancilla).
    Every field is a valid density matrix by construction, so consumers
    read them without re-validating; ``_run_protocols`` stacks n runs.
    """

    rho0: np.ndarray
    rho_m: np.ndarray
    rho_f: np.ndarray
    rho_reset: np.ndarray
    rho0_s: np.ndarray
    rho0_a: np.ndarray
    rho_m_s: np.ndarray
    rho_m_a: np.ndarray
    rho_f_s: np.ndarray
    rho_f_a: np.ndarray


def thermal_qubit(eps: float) -> np.ndarray:
    """Thermal qubit (I - eps*sigma_z)/2 = diag((1-eps)/2, (1+eps)/2).

    The sigma_z expectation is -eps: the majority population sits in the
    ground state ``|1>``.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must be in [0, 1)")
    return _thermal_qubits((eps,))[0]


def initial_state(params: ProtocolParams) -> np.ndarray:
    """Uncorrelated thermal pair: thermal(eps_s) tensor thermal(eps_a)."""
    return _initial_states((params.eps_s,), (params.eps_a,))[0]


def measurement_unitary(phi: float) -> np.ndarray:
    """Joint unitary exp{-i pi/4 sigma_m tensor sigma_y}.

    Because (sigma_m tensor sigma_y)^2 = I, this is evaluated in closed
    form as cos(pi/4) I - i sin(pi/4) (sigma_m tensor sigma_y).
    """
    if not 0.0 <= phi <= math.pi / 2:
        raise ValueError("phi must be in [0, pi/2]")
    return _measurement_unitaries((phi,))[0]


_FEEDBACK = tensor(_ROT_PLUS, _PROJ_X_PLUS) + tensor(_ROT_MINUS, _PROJ_X_MINUS)


def feedback_unitary() -> np.ndarray:
    """Register rotation by -+pi/2 about y, controlled on the ancilla x-basis."""
    return _FEEDBACK.copy()


# Stacked kernels: 1-D sequences of n parameter values in, (n, d, d)
# stacks out.  The single-point functions are their n = 1 calls; callers
# pass parameters already validated (by ProtocolParams or SweepGrid).

def _populations(*eps) -> np.ndarray:
    # Thermal populations ((1 - eps)/2, (1 + eps)/2), shape (len(eps), n, 2).
    return (np.multiply.outer(eps, _SIGNS) + 1.0) / 2.0


def _thermal_qubits(eps) -> np.ndarray:
    return _populations(eps)[0, :, :, None] * ID2


def _initial_states(eps_s, eps_a) -> np.ndarray:
    # thermal(eps_s) tensor thermal(eps_a) is diagonal: its entries are
    # the products of the populations, exactly as the complex Kronecker
    # product computes them (imaginary parts and off-diagonal entries
    # are +0).
    pops = _populations(eps_s, eps_a)
    joint = pops[0, :, :, None] * pops[1, :, None, :]
    return joint.reshape(len(joint), 4, 1) * _ID4


def _measurement_unitaries(phi) -> np.ndarray:
    # one unitary per distinct angle, by math.sin/cos: numpy's may differ in the last bit
    index = {p: i for i, p in enumerate(dict.fromkeys(phi))}
    sin_cos = np.array([(math.sin(p), math.cos(p)) for p in index]).reshape(-1, 2)
    axes = sin_cos[:, 0, None, None] * SIGMA_X + sin_cos[:, 1, None, None] * SIGMA_Z
    return (_SQRT1_2 * (_ID4 - 1j * _tensor(axes, SIGMA_Y)))[[index[p] for p in phi]]


def _measured(rho0: np.ndarray, phi) -> np.ndarray:
    # rho0 is diagonal, so U rho0 scales U's columns by rho0's populations, bit for bit
    u_m = _measurement_unitaries(phi)
    return (u_m * np.diagonal(rho0, axis1=-2, axis2=-1)[..., None, :]) @ _dagger(u_m)


def _post_measurement_states(eps_s, eps_a, phi) -> np.ndarray:
    """rho_m = U_m rho0 U_m+ at each of n points, shape (n, 4, 4)."""
    return _measured(_initial_states(eps_s, eps_a), phi)


def post_measurement_state(params: ProtocolParams) -> np.ndarray:
    """rho_m = U_m rho0 U_m+, bit for bit the ``rho_m`` of ``run_protocol``."""
    return _post_measurement_states((params.eps_s,), (params.eps_a,), (params.phi,))[0]


def _run_protocols(eps_s, eps_a, phi) -> ProtocolTrace:
    """``run_protocol`` at each of n points, every field an (n, d, d) stack."""
    rho0 = _initial_states(eps_s, eps_a)
    rho_m = _measured(rho0, phi)
    rho_f = _FEEDBACK @ rho_m @ _FEEDBACK.conj().T
    rho_f_s = _partial_trace(rho_f, "S")
    return ProtocolTrace(
        rho0=rho0,
        rho_m=rho_m,
        rho_f=rho_f,
        rho_reset=_tensor(rho_f_s, _thermal_qubits(eps_a)),
        rho0_s=_partial_trace(rho0, "S"),
        rho0_a=_partial_trace(rho0, "A"),
        rho_m_s=_partial_trace(rho_m, "S"),
        rho_m_a=_partial_trace(rho_m, "A"),
        rho_f_s=rho_f_s,
        rho_f_a=_partial_trace(rho_f, "A"),
    )


def run_protocol(params: ProtocolParams) -> ProtocolTrace:
    """Execute one full cycle and return all stage states and marginals."""
    stack = _run_protocols((params.eps_s,), (params.eps_a,), (params.phi,))
    return ProtocolTrace(**{name: rho[0] for name, rho in vars(stack).items()})
