import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfcool import correlations, densmat, thermo
from qfcool.densmat import (
    ID2, SIGMA_X, SIGMA_Y, SIGMA_Z,
    _expectation, _partial_trace, _psd_sqrt, _tensor, _vn_entropies,
)
from qfcool.protocol import ProtocolParams, _thermal_qubits, run_protocol

biases = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


def thermal_qubit(eps):
    return _thermal_qubits([eps])[0]


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_of_identities_is_identity():
    assert np.allclose(_tensor(ID2, ID2), np.eye(4), atol=1e-15)


def test_tensor_sigma_z_identity_diagonal():
    assert np.allclose(np.diag(_tensor(SIGMA_Z, ID2)), [1, 1, -1, -1], atol=1e-15)


def test_tensor_sigma_x_sigma_y_antidiagonal():
    # hand Kronecker expansion: anti-diagonal (-i, i, -i, i) top to bottom
    t = _tensor(SIGMA_X, SIGMA_Y)
    anti = np.array([t[0, 3], t[1, 2], t[2, 1], t[3, 0]])
    assert np.allclose(anti, [-1j, 1j, -1j, 1j], atol=1e-15)
    assert np.allclose(t - np.fliplr(np.diag(np.diag(np.fliplr(t)))), 0, atol=1e-15)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_factorizes_product_state(random_density):
    rho_s = random_density(2)
    rho_a = random_density(2)
    joint = np.kron(rho_s, rho_a)
    assert np.allclose(_partial_trace(joint, "S"), rho_s, atol=1e-12)
    assert np.allclose(_partial_trace(joint, "A"), rho_a, atol=1e-12)


def test_partial_trace_of_bell_state_is_maximally_mixed(bell_state):
    assert np.allclose(_partial_trace(bell_state, "A"), ID2 / 2, atol=1e-12)
    assert np.allclose(_partial_trace(bell_state, "S"), ID2 / 2, atol=1e-12)


def test_partial_trace_post_measurement_ancilla_marginal_closed_form():
    # after the measurement the ancilla marginal is (I + es*ea*cos(phi) sx)/2
    es, ea, phi = 0.4, 0.8, math.pi / 4
    rho_m = run_protocol(ProtocolParams(es, ea, phi)).rho_m
    expected = 0.5 * (ID2 + es * ea * math.cos(phi) * SIGMA_X)
    assert np.allclose(_partial_trace(rho_m, "A"), expected, atol=1e-12)


@given(es=biases, ea=biases, phi=angles)
def test_partial_trace_preserves_trace(es, ea, phi):
    es, ea = min(es, ea), max(es, ea)
    rho_m = run_protocol(ProtocolParams(es, ea, phi)).rho_m
    for keep in ("S", "A"):
        assert abs(np.trace(_partial_trace(rho_m, keep)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_vn_entropy_of_pure_state():
    assert _vn_entropies(np.diag([1.0, 0.0]).astype(complex)) == 0.0


def test_vn_entropy_of_maximally_mixed_qubit():
    assert abs(_vn_entropies(ID2 / 2) - math.log(2)) <= 1e-12


def test_vn_entropy_thermal_qubit_matches_closed_form():
    # frozen via independent diagonalization
    assert abs(_vn_entropies(thermal_qubit(0.4)) - 0.6108643020548935) <= 1e-12
    for eps in (0.1, 0.4, 0.8, 0.975):
        closed = 0.5 * math.log(4.0 / (1.0 - eps * eps)) - eps * math.atanh(eps)
        assert abs(_vn_entropies(thermal_qubit(eps)) - closed) <= 1e-12


def test_vn_entropy_unitary_invariance(random_density, random_unitary):
    for _ in range(10):
        rho = random_density(4)
        u = random_unitary(4)
        assert abs(_vn_entropies(u @ rho @ u.conj().T) - _vn_entropies(rho)) <= 1e-10


def test_vn_entropy_additive_on_products(random_density):
    for _ in range(10):
        rho_s, rho_a = random_density(2), random_density(2)
        total = _vn_entropies(np.kron(rho_s, rho_a))
        assert abs(total - _vn_entropies(rho_s) - _vn_entropies(rho_a)) <= 1e-10


# ---------------------------------------------------------------------------
# PSD square root
# ---------------------------------------------------------------------------

def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(_psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)
    root = _psd_sqrt(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(root, np.diag([0.5, math.sqrt(3) / 2]), atol=1e-12)


def test_psd_sqrt_reconstructs_post_measurement_state():
    rho_m = run_protocol(ProtocolParams(0.4, 0.8, math.pi / 3)).rho_m
    root = _psd_sqrt(rho_m)
    assert np.max(np.abs(root @ root - rho_m)) <= 1e-10


def test_psd_sqrt_output_is_hermitian_psd(random_density):
    for _ in range(10):
        root = _psd_sqrt(random_density(4))
        # 0.5 (s + s^dagger) is Hermitian bit for bit, so eigh may take it unchecked
        assert np.array_equal(root, root.conj().T)
        assert np.linalg.eigvalsh(root)[0] >= -1e-10


def test_psd_sqrt_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        _psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


# ---------------------------------------------------------------------------
# expectation
# ---------------------------------------------------------------------------

def test_expectation_sigma_z_on_mixed_and_thermal():
    assert abs(_expectation(SIGMA_Z, ID2 / 2)) <= 1e-12
    for eps in (0.0, 0.3, 0.9):
        assert abs(_expectation(SIGMA_Z, thermal_qubit(eps)) + eps) <= 1e-12


def test_expectation_of_hamiltonian_on_initial_state():
    # tr{H rho0} = -T (es atanh es + ea atanh ea); frozen at (0.4, 0.8), T = 1
    from qfcool.thermo import energy_model
    params = ProtocolParams(0.4, 0.8, 0.7)
    h = energy_model(params).hamiltonian
    rho0 = run_protocol(params).rho0
    assert abs(_expectation(h, rho0) - (-1.0483494030119287)) <= 1e-12


def test_purity_is_the_trace_of_the_square(random_density):
    # tr(rho^2) <= 1 summed without a matrix product: within 2 ulps of np.trace(rho @ rho),
    # on random and pure states of both sizes and on a stack of them; 1 ulp seen
    for dim in (2, 4):
        states = np.array([random_density(dim) for _ in range(64)])
        pure = np.outer(states[0][:, 0], states[0][:, 0].conj())
        stack = np.concatenate([states, (pure / np.trace(pure))[None]])
        assert (np.abs(densmat._purity(stack) - _expectation(stack, stack)) <= 2 * np.finfo(float).eps).all()
        assert abs(densmat._purity(stack[-1]) - 1.0) <= 2 * np.finfo(float).eps
    assert densmat._purity(ID2 / 2) == 0.5


def test_validate_density_matrix_rejects_bad_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        densmat.validate_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="unit trace"):
        densmat.validate_density_matrix(np.eye(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        densmat.validate_density_matrix(np.diag([1.5, -0.5]))


# Every public function that takes a caller's matrix validates it once, at
# the boundary, with the same messages as validate_density_matrix.
_BAD_STATES = [
    ("Hermitian", np.diag([0.25, 0.25, 0.25, 0.25]) + np.triu(np.full((4, 4), 0.1), 1)),
    ("unit trace", np.eye(4) / 2.0),
    ("positive semidefinite", np.diag([0.75, 0.5, -0.25, 0.0])),
    ("expected a 2x2 or 4x4 matrix", np.eye(3) / 3.0),
]
_CALLER_MATRIX_FUNCTIONS = {
    "concurrence": correlations.concurrence,
    "mutual_information": correlations.mutual_information,
    "bloch_components": correlations.bloch_components,
    "discord_numeric": correlations.discord_numeric,
    "optimal_measurement": correlations.optimal_measurement,
    "classical_correlations": correlations.classical_correlations,
    "entanglement_of_formation": correlations.entanglement_of_formation,
    "ergotropy": lambda rho: thermo.ergotropy(rho, np.eye(4)),
}


@pytest.mark.parametrize("function", sorted(_CALLER_MATRIX_FUNCTIONS))
@pytest.mark.parametrize("message, state", _BAD_STATES, ids=[m for m, _ in _BAD_STATES])
def test_public_functions_reject_invalid_states(function, message, state):
    with pytest.raises(ValueError, match=message):
        _CALLER_MATRIX_FUNCTIONS[function](state)


_NON_FINITE = pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])


@_NON_FINITE
@pytest.mark.parametrize("function", sorted(_CALLER_MATRIX_FUNCTIONS))
def test_public_functions_reject_non_finite_states(function, entry):
    # refused before any arithmetic: inf - inf would warn, and a NaN would read as non-Hermitian
    with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
        _CALLER_MATRIX_FUNCTIONS[function](np.diag([entry, 0.0, 0.0, 0.0]))


@_NON_FINITE
def test_validator_and_ergotropy_reject_non_finite_entries(entry):
    # a non-finite real or imaginary part, in a state and in a Hamiltonian
    bad, imaginary = np.diag([entry, 0.0, 0.0, 0.0]), np.diag([complex(0.0, entry), 0.0, 0.0, 0.0])
    for call in (lambda: densmat.validate_density_matrix(bad), lambda: densmat.validate_density_matrix(imaginary),
                 lambda: thermo.ergotropy(np.eye(4) / 4.0, bad)):
        with pytest.raises(ValueError, match="^matrix entries must be finite numbers$"):
            call()


@pytest.mark.parametrize("function", [
    "concurrence", "mutual_information", "bloch_components", "discord_numeric",
    "optimal_measurement", "classical_correlations", "entanglement_of_formation"])
def test_two_qubit_functions_name_themselves_when_given_one_qubit(function):
    with pytest.raises(ValueError, match=f"^{function} expects a 4x4 density matrix$"):
        _CALLER_MATRIX_FUNCTIONS[function](np.eye(2) / 2)


def test_tensor_is_bit_identical_to_kron(rng):
    for _ in range(50):
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        assert _tensor(a, b).tobytes() == np.kron(a, b).tobytes()


def test_ergotropy_reuses_the_validation_spectrum(random_density, monkeypatch):
    # one eigvalsh validates the caller's state and gives its populations; the other is H's
    rho, h = random_density(4), np.diag([1.5, 0.5, -0.5, -1.5]).astype(complex)
    expected = thermo.ergotropy(rho, h)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or real(a))
    assert thermo.ergotropy(rho, h) == expected
    assert len(calls) == 2
    assert calls[0].tobytes() == rho.tobytes() and calls[1].tobytes() == h.tobytes()
