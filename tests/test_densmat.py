import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfcool import correlations, densmat
from qfcool.densmat import (
    ID2, SIGMA_X, SIGMA_Y, SIGMA_Z,
    conjugate, expectation, hermitian_eig, partial_trace, psd_sqrt, tensor,
    vn_entropy,
)
from qfcool.protocol import ProtocolParams, run_protocol, thermal_qubit

biases = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False)


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------

def test_tensor_of_identities_is_identity():
    assert np.allclose(tensor(ID2, ID2), np.eye(4), atol=1e-15)


def test_tensor_sigma_z_identity_diagonal():
    assert np.allclose(np.diag(tensor(SIGMA_Z, ID2)), [1, 1, -1, -1], atol=1e-15)


def test_tensor_sigma_x_sigma_y_antidiagonal():
    # hand Kronecker expansion: anti-diagonal (-i, i, -i, i) top to bottom
    t = tensor(SIGMA_X, SIGMA_Y)
    anti = np.array([t[0, 3], t[1, 2], t[2, 1], t[3, 0]])
    assert np.allclose(anti, [-1j, 1j, -1j, 1j], atol=1e-15)
    assert np.allclose(t - np.fliplr(np.diag(np.diag(np.fliplr(t)))), 0, atol=1e-15)


def test_tensor_rejects_wrong_dimensions():
    with pytest.raises(ValueError):
        tensor(np.eye(4), ID2)


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------

def test_partial_trace_factorizes_product_state(random_density):
    rho_s = random_density(2)
    rho_a = random_density(2)
    joint = np.kron(rho_s, rho_a)
    assert np.allclose(partial_trace(joint, "S"), rho_s, atol=1e-12)
    assert np.allclose(partial_trace(joint, "A"), rho_a, atol=1e-12)


def test_partial_trace_of_bell_state_is_maximally_mixed(bell_state):
    assert np.allclose(partial_trace(bell_state, "A"), ID2 / 2, atol=1e-12)
    assert np.allclose(partial_trace(bell_state, "S"), ID2 / 2, atol=1e-12)


def test_partial_trace_post_measurement_ancilla_marginal_closed_form():
    # after the measurement the ancilla marginal is (I + es*ea*cos(phi) sx)/2
    es, ea, phi = 0.4, 0.8, math.pi / 4
    rho_m = run_protocol(ProtocolParams(es, ea, phi)).rho_m
    expected = 0.5 * (ID2 + es * ea * math.cos(phi) * SIGMA_X)
    assert np.allclose(partial_trace(rho_m, "A"), expected, atol=1e-12)


def test_partial_trace_rejects_bad_subsystem(bell_state):
    with pytest.raises(ValueError):
        partial_trace(bell_state, "B")


@given(es=biases, ea=biases, phi=angles)
def test_partial_trace_preserves_trace(es, ea, phi):
    es, ea = min(es, ea), max(es, ea)
    rho_m = run_protocol(ProtocolParams(es, ea, phi)).rho_m
    for keep in ("S", "A"):
        assert abs(np.trace(partial_trace(rho_m, keep)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_vn_entropy_of_pure_state():
    assert vn_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0


def test_vn_entropy_of_maximally_mixed_qubit():
    assert abs(vn_entropy(ID2 / 2) - math.log(2)) <= 1e-12


def test_vn_entropy_thermal_qubit_matches_closed_form():
    # frozen via independent diagonalization
    assert abs(vn_entropy(thermal_qubit(0.4)) - 0.6108643020548935) <= 1e-12
    for eps in (0.1, 0.4, 0.8, 0.975):
        closed = 0.5 * math.log(4.0 / (1.0 - eps * eps)) - eps * math.atanh(eps)
        assert abs(vn_entropy(thermal_qubit(eps)) - closed) <= 1e-12


def test_vn_entropy_unitary_invariance(random_density, random_unitary):
    for _ in range(10):
        rho = random_density(4)
        u = random_unitary(4)
        assert abs(vn_entropy(u @ rho @ u.conj().T) - vn_entropy(rho)) <= 1e-10


def test_vn_entropy_additive_on_products(random_density):
    for _ in range(10):
        rho_s, rho_a = random_density(2), random_density(2)
        total = vn_entropy(np.kron(rho_s, rho_a))
        assert abs(total - vn_entropy(rho_s) - vn_entropy(rho_a)) <= 1e-10


# ---------------------------------------------------------------------------
# eigendecomposition
# ---------------------------------------------------------------------------

def test_hermitian_eig_pauli_spectra():
    spec_z = hermitian_eig(SIGMA_Z)
    assert np.allclose(spec_z.eigenvalues, [-1.0, 1.0], atol=1e-12)
    spec_x = hermitian_eig(SIGMA_X)
    assert np.allclose(spec_x.eigenvalues, [-1.0, 1.0], atol=1e-12)
    plus = spec_x.eigenvectors[:, 1]
    assert abs(abs(plus @ np.array([1, 1]) / math.sqrt(2)) - 1.0) <= 1e-12


def test_hermitian_eig_reconstruction_and_trace(random_density):
    for _ in range(10):
        m = random_density(4)
        spec = hermitian_eig(m)
        rebuilt = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.conj().T
        assert np.max(np.abs(m - rebuilt)) <= 1e-10
        assert abs(spec.eigenvalues.sum() - np.trace(m).real) <= 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# PSD square root
# ---------------------------------------------------------------------------

def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(psd_sqrt(np.eye(4)), np.eye(4), atol=1e-12)
    root = psd_sqrt(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(root, np.diag([0.5, math.sqrt(3) / 2]), atol=1e-12)


def test_psd_sqrt_reconstructs_post_measurement_state():
    rho_m = run_protocol(ProtocolParams(0.4, 0.8, math.pi / 3)).rho_m
    root = psd_sqrt(rho_m)
    assert np.max(np.abs(root @ root - rho_m)) <= 1e-10


def test_psd_sqrt_output_is_hermitian_psd(random_density):
    for _ in range(10):
        root = psd_sqrt(random_density(4))
        assert np.max(np.abs(root - root.conj().T)) <= 1e-10
        assert np.linalg.eigvalsh(root)[0] >= -1e-10


def test_psd_sqrt_rejects_negative_eigenvalues():
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]).astype(complex))


# ---------------------------------------------------------------------------
# conjugation, expectation
# ---------------------------------------------------------------------------

def test_conjugate_real_matrix_unchanged():
    assert np.allclose(conjugate(SIGMA_X), SIGMA_X, atol=1e-15)


def test_conjugate_flips_sigma_y():
    assert np.allclose(conjugate(SIGMA_Y), -SIGMA_Y, atol=1e-15)
    # i sigma_y is real, hence invariant
    assert np.allclose(conjugate(1j * SIGMA_Y), 1j * SIGMA_Y, atol=1e-15)


def test_conjugate_is_involution(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(conjugate(conjugate(m)), m, atol=1e-15)


def test_expectation_sigma_z_on_mixed_and_thermal():
    assert abs(expectation(SIGMA_Z, ID2 / 2)) <= 1e-12
    for eps in (0.0, 0.3, 0.9):
        assert abs(expectation(SIGMA_Z, thermal_qubit(eps)) + eps) <= 1e-12


def test_expectation_of_hamiltonian_on_initial_state():
    # tr{H rho0} = -T (es atanh es + ea atanh ea); frozen at (0.4, 0.8), T = 1
    from qfcool.thermo import energy_model
    params = ProtocolParams(0.4, 0.8, 0.7)
    h = energy_model(params).hamiltonian
    rho0 = run_protocol(params).rho0
    assert abs(expectation(h, rho0) - (-1.0483494030119287)) <= 1e-12


def test_expectation_rejects_dimension_mismatch(bell_state):
    with pytest.raises(ValueError):
        expectation(SIGMA_Z, bell_state)


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
]
_CALLER_MATRIX_FUNCTIONS = {
    "partial_trace": lambda rho: densmat.partial_trace(rho, "S"),
    "vn_entropy": densmat.vn_entropy,
    "expectation": lambda rho: densmat.expectation(np.eye(4), rho),
    "purity": densmat.purity,
    "bloch_vector": densmat.bloch_vector,
    "concurrence": correlations.concurrence,
    "mutual_information": correlations.mutual_information,
    "bloch_components": correlations.bloch_components,
    "discord_numeric": correlations.discord_numeric,
}


@pytest.mark.parametrize("function", sorted(_CALLER_MATRIX_FUNCTIONS))
@pytest.mark.parametrize("message, state", _BAD_STATES, ids=[m for m, _ in _BAD_STATES])
def test_public_functions_reject_invalid_states(function, message, state):
    with pytest.raises(ValueError, match=message):
        _CALLER_MATRIX_FUNCTIONS[function](state)


def test_tensor_is_bit_identical_to_kron(rng):
    for _ in range(50):
        a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
        assert tensor(a, b).tobytes() == np.kron(a, b).tobytes()


def test_vn_entropy_reuses_the_validation_spectrum(random_density, monkeypatch):
    rho = random_density(4)
    expected = vn_entropy(rho)
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    assert vn_entropy(rho) == expected
    assert len(calls) == 1
