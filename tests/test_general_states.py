"""The correlation layer on general two-qubit states, against references that
the library does not read: the entanglement entropy of pure states (from the
Schmidt coefficients), the swap of the two sides, invariance under local
unitaries U_S x U_A, Luo's discord and the concurrence of Bell-diagonal and
Werner states, and a dense scan of the measurement sphere.

Each random family holds 64 seeded states, and each check has an absolute bound
of 1e-12.  The Wootters route (concurrence, entanglement of formation) misses
that bound on these families; those checks are strict xfails that ROADMAP
item 13 (a Wootters route accurate to rounding) must flip.
"""

import math

import numpy as np
import pytest

from qfcool import correlations
from qfcool.correlations import (
    bloch_components, concurrence, discord_numeric, entanglement_of_formation,
    mutual_information, thermal_entropy,
)

BOUND = 1e-12
SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)
PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))


def _item_13(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"ROADMAP item 13: {reason}")


def _pure_states(rng):
    """64 random pure states, each with the entanglement entropy of its Schmidt weights."""
    states = []
    for _ in range(64):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        v /= np.linalg.norm(v)
        weights = np.linalg.svd(v.reshape(2, 2), compute_uv=False) ** 2
        entropy = -sum(w * math.log(w) for w in weights if w > 0.0)
        states.append((np.outer(v, v.conj()), entropy))
    return states


def _ginibre_states(rng):
    """64 random states, 16 of each rank 1 to 4."""
    states = []
    for rank in (1, 2, 3, 4):
        for _ in range(16):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    return states


def _unitary(rng):
    """A random 2x2 unitary: QR of a complex Gaussian matrix with the phases fixed."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _locally_rotated(rng):
    """(rho, (U_S x U_A) rho (U_S x U_A)+) for the 64 Ginibre states."""
    pairs = []
    for rho in _ginibre_states(rng):
        u = np.kron(_unitary(rng), _unitary(rng))
        pairs.append((rho, u @ rho @ u.conj().T))
    return pairs


@pytest.fixture(scope="module")
def pure_states():
    return _pure_states(np.random.default_rng(20261101))


@pytest.fixture(scope="module")
def locally_rotated():
    return _locally_rotated(np.random.default_rng(20261102))


def test_discord_of_a_pure_state_is_its_entanglement_entropy(pure_states):
    worst = max(abs(discord_numeric(rho, side) - entropy)
                for rho, entropy in pure_states for side in ("A", "S"))
    assert worst <= BOUND


@_item_13("the Wootters EoF of pure states is off by up to 1.8e-8")
def test_eof_of_a_pure_state_is_its_entanglement_entropy(pure_states):
    worst = max(abs(entanglement_of_formation(rho) - entropy) for rho, entropy in pure_states)
    assert worst <= BOUND


def test_discord_measured_on_a_is_discord_measured_on_s_after_the_swap():
    states = _ginibre_states(np.random.default_rng(20261103))
    worst = max(abs(discord_numeric(rho, "A") - discord_numeric(SWAP @ rho @ SWAP, "S"))
                for rho in states)
    assert worst <= BOUND


def test_mutual_information_is_invariant_under_local_unitaries(locally_rotated):
    worst = max(abs(mutual_information(rho) - mutual_information(turned))
                for rho, turned in locally_rotated)
    assert worst <= BOUND


def test_discord_is_invariant_under_local_unitaries(locally_rotated):
    worst = max(abs(discord_numeric(rho, side) - discord_numeric(turned, side))
                for rho, turned in locally_rotated for side in ("A", "S"))
    assert worst <= BOUND


@_item_13("concurrence and EoF move by up to 1.2e-8 under U_S x U_A")
def test_concurrence_and_eof_are_invariant_under_local_unitaries(locally_rotated):
    worst = max(max(abs(concurrence(rho) - concurrence(turned)),
                    abs(entanglement_of_formation(rho) - entanglement_of_formation(turned)))
                for rho, turned in locally_rotated)
    assert worst <= BOUND


def _bell_diagonal(weights):
    """(I + sum_i c_i sigma_i x sigma_i) / 4 with the Bell-state weights
    ``weights`` = (psi-, phi-, phi+, psi+), and its Luo discord in nats
    (PRA 77, 042303 (2008)): the mutual information ln 4 + sum w ln w less the
    classical correlation of c = max |c_i|."""
    w_psi_minus, w_phi_minus, w_phi_plus, w_psi_plus = weights
    c = (w_phi_plus + w_psi_plus - w_psi_minus - w_phi_minus,
         w_phi_minus + w_psi_plus - w_psi_minus - w_phi_plus,
         w_phi_minus + w_phi_plus - w_psi_minus - w_psi_plus)
    rho = (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, PAULI))) / 4
    c_max = max(map(abs, c))
    classical = sum((1 + sign * c_max) / 2 * math.log(1 + sign * c_max)
                    for sign in (1, -1) if 1 + sign * c_max > 0.0)
    mutual = math.log(4.0) + sum(w * math.log(w) for w in weights if w > 0.0)
    return rho, mutual - classical


def _full_rank_weights(rng):
    """64 random Bell-state weight vectors, each weight above 1e-3."""
    weights = []
    while len(weights) < 64:
        w = rng.dirichlet(np.ones(4))
        if w.min() > 1e-3:
            weights.append(w.tolist())
    return weights


def test_bell_diagonal_states_have_luos_discord_and_their_concurrence():
    worst_discord = worst_concurrence = 0.0
    for weights in _full_rank_weights(np.random.default_rng(20261104)):
        rho, discord = _bell_diagonal(weights)
        worst_discord = max(worst_discord, *(abs(discord_numeric(rho, side) - discord)
                                             for side in ("A", "S")))
        worst_concurrence = max(worst_concurrence,
                                abs(concurrence(rho) - max(0.0, 2.0 * max(weights) - 1.0)))
    assert worst_discord <= BOUND
    assert worst_concurrence <= BOUND


def test_werner_states_have_luos_discord_and_their_concurrence():
    # p |psi-><psi-| + (1 - p) I / 4, the singlet at p = 1
    for p in np.linspace(0.0, 1.0, 41).tolist():
        rho, discord = _bell_diagonal([(1 + 3 * p) / 4] + [(1 - p) / 4] * 3)
        assert max(abs(discord_numeric(rho, side) - discord) for side in ("A", "S")) <= BOUND
        assert abs(concurrence(rho) - max(0.0, (3 * p - 1) / 2)) <= BOUND


def test_discord_of_an_x_state_reaches_a_dense_scan_of_the_sphere():
    rho = np.diag([0.08085, 0.394444, 0.470035, 0.054671]).astype(complex)
    rho[0, 3], rho[1, 2] = 0.036258 - 0.033133j, 0.312909 + 0.032096j
    rho[3, 0], rho[2, 1] = rho[0, 3].conjugate(), rho[1, 2].conjugate()
    # measured on S: the register's Bloch vector, the ancilla's, and the tensor with S first
    a, b, t = bloch_components(rho)
    azimuth = np.linspace(0.0, 2.0 * math.pi, 1440, endpoint=False)
    conditional = min(
        correlations._conditional_entropy_scan(
            a[None], b[None], t[None],
            correlations._axes(*np.meshgrid(polar, azimuth, indexing="ij")).reshape(-1, 3)).min()
        for polar in np.array_split(np.linspace(0.0, math.pi, 721), 8))
    scan = mutual_information(rho) - (thermal_entropy(float(np.linalg.norm(b))) - conditional)
    assert discord_numeric(rho, "S") <= scan + BOUND
