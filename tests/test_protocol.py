import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfcool.closed_forms import _is_finite_real
from qfcool.densmat import (
    ID2, SIGMA_X, SIGMA_Z, bloch_vector, expectation, purity,
    validate_unitary, vn_entropy,
)
from qfcool.protocol import (
    ProtocolParams, feedback_unitary, initial_state, measurement_unitary,
    post_measurement_state, run_protocol, thermal_qubit,
)

HALF_PI = math.pi / 2
biases = st.floats(min_value=0.0, max_value=0.95, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=HALF_PI, allow_nan=False)


def grid(n=10, eps_max=0.95):
    for es in np.linspace(0.0, 0.9, n):
        for ea in np.linspace(es, eps_max, n):
            for phi in np.linspace(0.0, HALF_PI, n):
                yield ProtocolParams(float(es), float(ea), float(phi))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs,match", [
    (dict(eps_s=-0.1, eps_a=0.5, phi=0.0), "eps_s must be in"),
    (dict(eps_s=0.2, eps_a=1.0, phi=0.0), "eps_a must be in"),
    (dict(eps_s=0.9, eps_a=0.4, phi=0.0), "eps_s must not exceed eps_a"),
    (dict(eps_s=0.2, eps_a=0.5, phi=2.0), "phi must be in"),
    (dict(eps_s=0.2, eps_a=0.5, phi=0.5, temperature=0.0), "temperature must be positive"),
    (dict(eps_s=float("nan"), eps_a=0.5, phi=0.5), "finite"),
])
def test_params_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ProtocolParams(**kwargs)


def test_params_accept_limit_cases():
    ProtocolParams(0.0, 0.0, 0.0)
    ProtocolParams(0.5, 0.5, HALF_PI)


@pytest.mark.parametrize("kind", [np.float32, np.float64, np.int64, int])
def test_params_accept_real_scalars(kind):
    params = ProtocolParams(kind(0), kind(0), kind(1), temperature=kind(2))
    assert params == ProtocolParams(0.0, 0.0, 1.0, 2.0)
    assert all(type(v) is float for v in vars(params).values())


@pytest.mark.parametrize("name", ["eps_s", "eps_a", "phi", "temperature"])
@pytest.mark.parametrize("flag", [True, False, np.bool_(True)])
def test_params_reject_booleans(name, flag):
    kwargs = dict(eps_s=0.0, eps_a=0.5, phi=0.5, temperature=1.0)
    kwargs[name] = flag
    with pytest.raises(ValueError, match=f"{name} must be a finite number"):
        ProtocolParams(**kwargs)


@pytest.mark.parametrize("value, expected", [
    (0.5, True), (-0.0, True), (1e308, True), (3, True),
    (math.nan, False), (math.inf, False), (-math.inf, False),
    (True, False), (False, False), (10 ** 400, False), (-10 ** 400, False),
    (np.float32(0.5), True), (np.float32("inf"), False),
    (np.float64(0.5), True), (np.float64("nan"), False), (np.int64(3), True),
    (Fraction(1, 3), True), (Fraction(10 ** 400), False),
    (Decimal("0.5"), False), (complex(1.0, 0.0), False), ("0.5", False), (None, False),
], ids=lambda v: repr(v)[:20])
def test_is_finite_real_truth_table(value, expected):
    assert _is_finite_real(value) is expected


# ---------------------------------------------------------------------------
# thermal qubit and initial state
# ---------------------------------------------------------------------------

def test_thermal_qubit_zero_bias_is_maximally_mixed():
    assert np.allclose(thermal_qubit(0.0), ID2 / 2, atol=1e-15)


def test_thermal_qubit_populations():
    assert np.allclose(thermal_qubit(0.4), np.diag([0.3, 0.7]), atol=1e-15)


def test_thermal_qubit_entropy_matches_closed_form():
    eps = 0.8
    closed = 0.5 * math.log(4.0 / (1.0 - eps * eps)) - eps * math.atanh(eps)
    assert abs(vn_entropy(thermal_qubit(eps)) - closed) <= 1e-12


def test_thermal_qubit_rejects_out_of_range():
    for eps in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            thermal_qubit(eps)


def test_initial_state_limit_and_product_values():
    assert np.allclose(initial_state(ProtocolParams(0.0, 0.0, 0.0)), np.eye(4) / 4, atol=1e-15)
    rho0 = initial_state(ProtocolParams(0.4, 0.8, 0.0))
    assert np.allclose(np.diag(rho0), [0.03, 0.27, 0.07, 0.63], atol=1e-15)


@given(es=biases, ea=biases)
def test_initial_state_eigenvalues(es, ea):
    es, ea = min(es, ea), max(es, ea)
    rho0 = initial_state(ProtocolParams(es, ea, 0.3))
    expected = sorted(
        0.25 * (1 + s1 * es) * (1 + s2 * ea) for s1 in (-1, 1) for s2 in (-1, 1))
    assert np.allclose(np.linalg.eigvalsh(rho0), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# unitaries
# ---------------------------------------------------------------------------

@given(phi=angles)
def test_measurement_unitary_is_unitary(phi):
    validate_unitary(measurement_unitary(phi))


def test_measurement_unitary_rejects_out_of_range_angle():
    with pytest.raises(ValueError):
        measurement_unitary(-0.1)


def test_measurement_unitary_at_zero_commutes_with_register_z():
    u = measurement_unitary(0.0)
    sz_reg = np.kron(SIGMA_Z, ID2)
    assert np.max(np.abs(u @ sz_reg - sz_reg @ u)) <= 1e-12


def test_post_measurement_register_populations():
    # populations along the measurement axis are (1 -+ eps_s cos(phi))/2
    es, ea, phi = 0.4, 0.8, 0.6
    trace = run_protocol(ProtocolParams(es, ea, phi))
    axis = math.sin(phi) * SIGMA_X + math.cos(phi) * SIGMA_Z
    w, v = np.linalg.eigh(axis)  # ascending: -1 eigenvector first
    c_minus = (v[:, 0].conj() @ trace.rho_m_s @ v[:, 0]).real
    c_plus = (v[:, 1].conj() @ trace.rho_m_s @ v[:, 1]).real
    assert abs(c_plus - 0.5 * (1 - es * math.cos(phi))) <= 1e-12
    assert abs(c_minus - 0.5 * (1 + es * math.cos(phi))) <= 1e-12


def test_feedback_unitary_is_unitary():
    validate_unitary(feedback_unitary())


def test_feedback_after_x_measurement_swaps_marginals():
    trace = run_protocol(ProtocolParams(0.4, 0.8, HALF_PI))
    assert np.max(np.abs(trace.rho_f_s - thermal_qubit(0.8))) <= 1e-12
    assert np.max(np.abs(trace.rho_f_a - thermal_qubit(0.4))) <= 1e-12


def test_purity_transfer_for_all_angles():
    for phi in np.linspace(0.0, HALF_PI, 12):
        trace = run_protocol(ProtocolParams(0.3, 0.7, float(phi)))
        assert abs(purity(trace.rho_f_s) - 0.5 * (1 + 0.7**2)) <= 1e-10


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------

def test_run_with_equal_biases_at_x_measurement_is_identity():
    trace = run_protocol(ProtocolParams(0.4, 0.4, HALF_PI))
    assert np.max(np.abs(trace.rho_f - trace.rho0)) <= 1e-12


def test_final_register_bloch_vector():
    # length eps_a for every phi, z-component -eps_a sin(phi)
    es, ea, phi = 0.4, 0.8, math.pi / 4
    trace = run_protocol(ProtocolParams(es, ea, phi))
    b = bloch_vector(trace.rho_f_s)
    assert abs(np.linalg.norm(b) - ea) <= 1e-12
    assert abs(b[2] + ea * math.sin(phi)) <= 1e-12
    assert abs(b[2] + 0.565685424949238) <= 1e-12


def test_trace_stages_are_conjugations():
    params = ProtocolParams(0.35, 0.75, 0.9)
    trace = run_protocol(params)
    u_m = measurement_unitary(params.phi)
    u_f = feedback_unitary()
    assert np.max(np.abs(trace.rho_m - u_m @ trace.rho0 @ u_m.conj().T)) <= 1e-12
    assert np.max(np.abs(trace.rho_f - u_f @ trace.rho_m @ u_f.conj().T)) <= 1e-12


def test_reset_state_structure():
    params = ProtocolParams(0.35, 0.75, 0.9)
    trace = run_protocol(params)
    expected = np.kron(trace.rho_f_s, thermal_qubit(params.eps_a))
    assert np.max(np.abs(trace.rho_reset - expected)) <= 1e-12


def test_post_measurement_state_block_diagonal_at_phi_zero():
    trace = run_protocol(ProtocolParams(0.4, 0.8, 0.0))
    assert np.max(np.abs(trace.rho_m[0:2, 2:4])) <= 1e-12
    assert np.max(np.abs(trace.rho_m[2:4, 0:2])) <= 1e-12


def test_protocol_grid_invariants():
    # entropy invariance under both unitaries, purity transfer, entropy
    # reduction closed form, ancilla marginal after measurement
    for params in grid(10):
        trace = run_protocol(params)
        s0 = vn_entropy(trace.rho0)
        assert abs(vn_entropy(trace.rho_m) - s0) <= 1e-10
        assert abs(vn_entropy(trace.rho_f) - s0) <= 1e-10

        assert abs(purity(trace.rho_f_s) - 0.5 * (1 + params.eps_a**2)) <= 1e-10

        es, ea = params.eps_s, params.eps_a
        closed = (ea * math.atanh(ea) - es * math.atanh(es)
                  + 0.5 * math.log((1 - ea * ea) / (1 - es * es)))
        assert abs((vn_entropy(trace.rho0_s) - vn_entropy(trace.rho_f_s)) - closed) <= 1e-10

        assert abs(expectation(SIGMA_Z, trace.rho_m_a)) <= 1e-12
        expected_x = es * ea * math.cos(params.phi)
        assert abs(expectation(SIGMA_X, trace.rho_m_a) - expected_x) <= 1e-12

        # reset leaves the register untouched and restores the thermal ancilla
        from qfcool.densmat import partial_trace
        assert np.max(np.abs(partial_trace(trace.rho_reset, "S") - trace.rho_f_s)) <= 1e-12
        assert np.max(np.abs(partial_trace(trace.rho_reset, "A") - thermal_qubit(ea))) <= 1e-12


@pytest.mark.parametrize("es, ea, phi", [
    (0.4, 0.8, 1.0), (0.0, 0.6, 0.7), (0.5, 0.5, HALF_PI), (0.3, 1.0 - 1e-9, 1.2),
    (0.3, 0.7, 0.0),
])
def test_post_measurement_state_is_bit_identical_to_trace(es, ea, phi):
    params = ProtocolParams(es, ea, phi)
    assert post_measurement_state(params).tobytes() == run_protocol(params).rho_m.tobytes()


def test_feedback_unitary_returns_a_fresh_copy():
    u = feedback_unitary()
    u[:] = 0.0
    validate_unitary(feedback_unitary())  # raises unless still unitary
