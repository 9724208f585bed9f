"""Symbolic proofs of the closed forms, for every parameter value.

The cycle is built here in sympy from the Pauli matrices, independently of
``protocol``'s numpy code: rho0, U_m(phi), U_f and H.  ``sin phi`` and
``cos phi`` are the polynomial symbols ``s`` and ``c``, reduced by
``c^2 = 1 - s^2``, and atanh(eps_s), atanh(eps_a) stay the symbols ``ts``
and ``ta``, so each matrix identity is a polynomial one that ``expand``
settles without trigonometric simplification.

A proof covers the formula the package ships only if the two are the same
function, so each proven expression is also evaluated (``lambdify``) and
compared with the shipped function at three or more points, one of them an
edge of the domain.
"""

import math

import mpmath
import numpy as np
import pytest
import sympy as sp

from qfcool import closed_forms
from qfcool.closed_forms import (
    ProtocolParams, discord_analytic, figures_of_merit, mutual_information_analytic,
    separability_boundary,
)
from qfcool.protocol import _FEEDBACK, _measurement_unitaries, run_protocol

HALF_PI = math.pi / 2
ES, EA, S, C, TS, TA, T = sp.symbols("eps_s eps_a s c ts ta T", real=True)
PHI = sp.Symbol("phi", real=True)

I2 = sp.eye(2)
SX = sp.Matrix([[0, 1], [1, 0]])
SY = sp.Matrix([[0, -sp.I], [sp.I, 0]])
SZ = sp.Matrix([[1, 0], [0, -1]])
PAULI = (I2, SX, SY, SZ)


def kron(a, b):
    return sp.Matrix(sp.kronecker_product(a, b))


def dagger(m):
    return m.conjugate().T


def thermal(eps):
    """(I - eps sigma_z) / 2: populations ((1 - eps) / 2, (1 + eps) / 2)."""
    return (I2 - eps * SZ) / 2


def marginal(rho, keep):
    """The register (``"S"``) or ancilla (``"A"``) marginal of a 4x4 state."""
    if keep == "S":
        return sp.Matrix(2, 2, lambda i, j: rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1])
    return sp.Matrix(2, 2, lambda i, j: rho[i, j] + rho[2 + i, 2 + j])


def expectation(h, rho):
    return (h * rho).trace()


def bloch(rho):
    return [expectation(p, rho) for p in (SX, SY, SZ)]


def reduced(expr):
    """``expr`` expanded, with every c^2 replaced by 1 - s^2."""
    return sp.expand(sp.rem(sp.expand(expr), C ** 2 + S ** 2 - 1, C))


def vanishes(expr):
    return reduced(expr) == 0


def all_vanish(m):
    return all(vanishes(e) for e in m)


# The cycle: rho0, U_m(phi) = exp(-i pi/4 sigma_m x sigma_y) with
# sigma_m = sin phi sigma_x + cos phi sigma_z, and U_f the register
# rotation exp(+-i pi/4 sigma_y) controlled on the ancilla's x basis.
RHO0 = kron(thermal(ES), thermal(EA))
U_M = (sp.eye(4) - sp.I * kron(S * SX + C * SZ, SY)) / sp.sqrt(2)
U_F = (kron((I2 + sp.I * SY) / sp.sqrt(2), (I2 + SX) / 2)
       + kron((I2 - sp.I * SY) / sp.sqrt(2), (I2 - SX) / 2))
RHO_M = (U_M * RHO0 * dagger(U_M)).applyfunc(sp.expand)
RHO_F = (U_F * RHO_M * dagger(U_F)).applyfunc(sp.expand)
# H = (omega_s / 2) sigma_z x I + (omega_a / 2) I x sigma_z with omega = 2 T atanh(eps)
H_S, H_A = T * TS * SZ, T * TA * SZ
H = kron(H_S, I2) + kron(I2, H_A)

# Interior points and edges (eps_s = 0, eps_s = eps_a, eps_a -> 1, phi at 0 and pi/2).
POINTS = [
    (0.4, 0.8, 1.0, 1.0),
    (0.3, 0.9, 1.2, 2.5),
    (0.0, 0.6, HALF_PI, 1.0),
    (0.5, 0.5, 0.0, 0.3),
    (0.3, 1.0 - 1e-9, 0.7, 1.0),
]


def numeric(expr, *args):
    """``expr`` as a float function of (eps_s, eps_a, phi, T): s, c, ts and ta
    become sin phi, cos phi, atanh(eps_s) and atanh(eps_a)."""
    point = {S: sp.sin(PHI), C: sp.cos(PHI), TS: sp.atanh(ES), TA: sp.atanh(EA)}
    expr = expr.subs(point)
    return sp.lambdify(args or (ES, EA, PHI, T), expr.tolist() if expr.is_Matrix else expr, "math")


def close(a, b, scale=1.0):
    return abs(a - b) <= 1e-13 * max(1.0, abs(b)) * scale


# ---------------------------------------------------------------------------
# the states and unitaries are the package's
# ---------------------------------------------------------------------------

def test_the_unitaries_are_unitary_for_every_phi():
    assert all_vanish(dagger(U_M) * U_M - sp.eye(4))
    assert all_vanish(dagger(U_F) * U_F - sp.eye(4))


def test_the_symbolic_unitaries_are_the_shipped_ones():
    u_m = numeric(U_M, PHI)
    for phi in (0.0, 0.7, 1.3, HALF_PI):
        assert np.max(np.abs(np.array(u_m(phi), dtype=complex) - _measurement_unitaries([phi])[0])) <= 1e-15
    assert np.max(np.abs(np.array(U_F.evalf(), dtype=complex) - _FEEDBACK)) <= 1e-15


@pytest.mark.parametrize("eps_s,eps_a,phi,temperature", POINTS)
def test_the_symbolic_states_are_the_shipped_ones(eps_s, eps_a, phi, temperature):
    trace = run_protocol(ProtocolParams(eps_s, eps_a, phi, temperature))
    for sym, shipped in ((RHO_M, trace.rho_m), (RHO_F, trace.rho_f)):
        value = np.array(numeric(sym)(eps_s, eps_a, phi, temperature), dtype=complex)
        assert np.max(np.abs(value - shipped)) <= 1e-15


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def _energies():
    """Each cycle energy: (closed form as ``closed_forms._report`` writes it,
    its tr(H rho) difference)."""
    a, y = ES * TS, EA * TS + ES * TA
    e0, e_m, e_f = (expectation(H, rho) for rho in (RHO0, RHO_M, RHO_F))
    delta_e_system = -T * (ES - EA * S) * TS
    heat_reset = T * (EA - ES * S) * TA
    return {
        "work_measurement": (-T * (ES * S ** 2 * TS + EA * TA), e0 - e_m),
        "work_feedback": (T * (y * S - a * C ** 2), e_m - e_f),
        "heat_reset": (heat_reset, expectation(H_A, marginal(RHO_F, "A"))
                       - expectation(H_A, marginal(RHO0, "A"))),
        "delta_e_system": (delta_e_system, expectation(H_S, marginal(RHO0, "S"))
                           - expectation(H_S, marginal(RHO_F, "S"))),
        "total_work": (-delta_e_system + heat_reset, e_f - e0),
    }


ENERGIES = _energies()


@pytest.mark.parametrize("name", list(ENERGIES))
def test_each_energy_is_its_trace_difference(name):
    closed, matrix = ENERGIES[name]
    assert vanishes(closed - matrix)
    shipped = numeric(closed)
    for eps_s, eps_a, phi, temperature in POINTS:
        report = figures_of_merit(ProtocolParams(eps_s, eps_a, phi, temperature))
        assert close(getattr(report, name), shipped(eps_s, eps_a, phi, temperature), temperature)


# ---------------------------------------------------------------------------
# marginals, spectrum, mutual information and discord
# ---------------------------------------------------------------------------

def _entropy(eps):
    """Entropy of a qubit with Bloch length ``eps``: populations (1 +- eps) / 2."""
    return -sum((1 + sign * eps) / 2 * (sp.log(1 + sign * eps) - sp.log(2)) for sign in (1, -1))


def test_post_measurement_marginals_have_the_stated_bloch_vectors():
    register, ancilla = bloch(marginal(RHO_M, "S")), bloch(marginal(RHO_M, "A"))
    assert all(map(vanishes, (register[0] + ES * S * C, register[1], register[2] + ES * C ** 2)))
    assert vanishes(sum(b ** 2 for b in register) - (ES * C) ** 2)
    assert all(map(vanishes, (ancilla[0] - ES * EA * C, ancilla[1], ancilla[2])))


def test_feedback_marginals_have_the_stated_bloch_vectors():
    register, ancilla = bloch(marginal(RHO_F, "S")), bloch(marginal(RHO_F, "A"))
    assert all(map(vanishes, (register[0] - EA * C, register[1], register[2] + EA * S)))
    assert all(map(vanishes, (ancilla[0] - ES * EA * C, ancilla[1], ancilla[2] + ES * S)))


def test_the_trace_block_holds_the_marginals_bloch_vectors():
    # the six marginals the shipped trace block summarises, from the symbolic states
    states = {"rho0": RHO0, "rho_m": RHO_M, "rho_f": RHO_F}
    vectors = numeric(sp.Matrix([bloch(marginal(states[name[:-2]], name[-1].upper()))
                                 for name in ("rho0_s", "rho0_a", "rho_m_s", "rho_m_a", "rho_f_s", "rho_f_a")]))
    for eps_s, eps_a, phi, temperature in POINTS:
        shipped = closed_forms._trace_summary(eps_s, eps_a, phi)["marginals"]
        for (name, summary), vector in zip(shipped.items(), vectors(eps_s, eps_a, phi, temperature)):
            assert all(close(b, complex(v).real) for b, v in zip(summary["bloch"], vector)), name
            length = math.hypot(*summary["bloch"])
            assert close(summary["purity"], 0.5 * (1.0 + length ** 2))


def _power_traces(rho):
    """tr(rho^k) for k = 1 to 4, each reduced by c^2 = 1 - s^2."""
    gens = C, S, ES, EA
    circle = sp.Poly(C ** 2 + S ** 2 - 1, *gens)
    r = [[sp.Poly(e, *gens) for e in row] for row in rho.tolist()]
    r2 = [[sum(r[i][k] * r[k][j] for k in range(4)).rem(circle) for j in range(4)] for i in range(4)]

    def trace(a, b):  # tr(a b)
        return sum(a[i][j] * b[j][i] for i in range(4) for j in range(4)).rem(circle)

    return [sum(r[i][i] for i in range(4)).rem(circle), trace(r, r), trace(r2, r), trace(r2, r2)]


def test_post_measurement_spectrum_is_the_initial_one():
    # equal traces of the first four powers give equal characteristic
    # polynomials (Newton's identities), so equal spectra
    assert _power_traces(RHO_M) == _power_traces(RHO0)


def test_joint_purities_and_the_reset_spectrum():
    # rho_m and rho_f have rho0's spectrum, so its purity; the reset state is
    # rho_f_s x rho0_a, and |rho_f_s| = eps_a gives it the spectrum of thermal(eps_a) twice
    product = (1 + ES ** 2) * (1 + EA ** 2) / 4
    assert _power_traces(RHO_F) == _power_traces(RHO0)
    assert all(vanishes((rho * rho).trace() - product) for rho in (RHO0, RHO_M, RHO_F))
    reset = kron(marginal(RHO_F, "S"), thermal(EA))
    assert vanishes((reset * reset).trace() - ((1 + EA ** 2) / 2) ** 2)
    assert vanishes(sum(b ** 2 for b in bloch(marginal(RHO_F, "S"))) - EA ** 2)
    purity = numeric(product)
    for eps_s, eps_a, phi, temperature in POINTS:
        shipped = closed_forms._trace_summary(eps_s, eps_a, phi)
        for name in ("rho0", "rho_m", "rho_f"):
            assert close(shipped[name]["purity"], purity(eps_s, eps_a, phi, temperature))
        assert close(shipped["rho_reset"]["purity"], ((1.0 + eps_a ** 2) / 2.0) ** 2)


def test_mutual_information_follows_from_the_marginals_and_spectrum():
    # the marginals' Bloch lengths are eps_s cos phi and eps_s eps_a cos phi (c >= 0
    # on [0, pi/2]), and rho_m has rho0's eigenvalues, its diagonal: products of the
    # populations p, 1 - p and q, 1 - q, so its entropy is S(eps_s) + S(eps_a)
    p, q = sp.symbols("p q", positive=True)
    populations = {p: (1 - ES) / 2, q: (1 - EA) / 2}
    products = [u * v for u in (p, 1 - p) for v in (q, 1 - q)]
    assert all(vanishes(lam - pq.subs(populations)) for lam, pq in zip(RHO0.diagonal(), products))

    def entropy(*ps):
        return -sum(x * sp.log(x) for x in ps)

    joint = sp.expand_log(entropy(*products), force=True)
    assert sp.expand(joint - entropy(p, 1 - p) - entropy(q, 1 - q)) == 0
    shipped = numeric(_entropy(ES * C) + _entropy(ES * EA * C) - _entropy(ES) - _entropy(EA))
    for eps_s, eps_a, phi, temperature in POINTS:
        assert close(mutual_information_analytic(ProtocolParams(eps_s, eps_a, phi)),
                     shipped(eps_s, eps_a, phi, temperature))


def test_the_discord_entropy_gap_equals_its_direct_logarithmic_form():
    x = sp.Symbol("x", real=True)
    gap = _entropy(x) - _entropy(ES)
    direct = (sp.log(1 - ES) + sp.log(1 + ES) - sp.log(1 - x) - sp.log(1 + x)) / 2 \
        + ES * sp.atanh(ES) + x * sp.log((1 - x) / (1 + x)) / 2
    difference = sp.expand_log((gap - direct).rewrite(sp.log), force=True)
    assert sp.expand(difference) == 0
    shipped = numeric(gap.subs(x, ES * C), ES, PHI)
    for eps_s, phi in [(0.4, 1.0), (0.9, 0.3), (0.0, 0.8), (0.6, HALF_PI), (1.0 - 1e-9, 0.7)]:
        assert close(discord_analytic(eps_s, phi), shipped(eps_s, phi))


# ---------------------------------------------------------------------------
# purity transfer and the swap at phi = pi/2
# ---------------------------------------------------------------------------

def test_feedback_gives_the_register_the_ancilla_purity():
    rho_f_s = marginal(RHO_F, "S")
    assert vanishes((rho_f_s * rho_f_s).trace() - (1 + EA ** 2) / 2)


def test_feedback_after_the_x_measurement_swaps_the_marginals():
    x_measurement = {S: 1, C: 0}
    assert all_vanish(marginal(RHO_F, "S").subs(x_measurement) - thermal(EA))
    assert all_vanish(marginal(RHO_F, "A").subs(x_measurement) - thermal(ES))


# ---------------------------------------------------------------------------
# the X-state frame and the separability boundary
# ---------------------------------------------------------------------------

def _x_frame():
    """rho_m after R_y(-phi) on the register and a Hadamard on the ancilla.

    Both act on the Pauli-coefficient tensor t[mu, nu] = tr(rho sigma_mu x sigma_nu)
    as rotations of the Bloch index: R_y(-phi) takes the measurement axis
    (sin phi, 0, cos phi) to z, and the Hadamard swaps x and z and flips y.
    """
    t = sp.Matrix(4, 4, lambda i, j: expectation(kron(PAULI[i], PAULI[j]), RHO_M))
    register = sp.diag(1, sp.Matrix([[C, 0, -S], [0, 1, 0], [S, 0, C]]))
    ancilla = sp.diag(1, sp.Matrix([[0, 0, 1], [0, -1, 0], [1, 0, 0]]))
    rotated = (register * t * ancilla.T).applyfunc(reduced)
    return sum((rotated[i, j] * kron(PAULI[i], PAULI[j]) for i in range(4) for j in range(4)),
               sp.zeros(4)) / 4


X_FRAME = _x_frame()


def test_post_measurement_state_is_an_x_state_in_its_frame():
    off_x = [(i, j) for i in range(4) for j in range(4) if i != j and i + j != 3]
    assert all(vanishes(X_FRAME[i, j]) for i, j in off_x)
    # the frame is (R_y(-phi) x Hadamard) rho_m (R_y(-phi) x Hadamard)+
    frame = numeric(X_FRAME)
    for eps_s, eps_a, phi, temperature in POINTS:
        cos, sin = math.cos(phi / 2), math.sin(phi / 2)
        u = np.kron([[cos, sin], [-sin, cos]], np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        rho_m = run_protocol(ProtocolParams(eps_s, eps_a, phi, temperature)).rho_m
        value = np.array(frame(eps_s, eps_a, phi, temperature), dtype=complex)
        assert np.max(np.abs(u @ rho_m @ u.conj().T - value)) <= 1e-15


def test_post_measurement_state_is_not_an_x_state_in_the_computational_basis():
    # at (0.4, 0.8, 1.0)
    shipped = run_protocol(ProtocolParams(0.4, 0.8, 1.0)).rho_m
    value = np.array(numeric(RHO_M)(0.4, 0.8, 1.0, 1.0), dtype=complex)
    for (i, j), entry in zip([(0, 1), (0, 2), (1, 3), (2, 3)], [-0.065, -0.082, -0.009, 0.151]):
        assert abs(shipped[i, j] - entry) < 1e-3 and abs(value[i, j] - entry) < 1e-3


def test_separability_boundary_follows_from_the_x_frame():
    # An X-state is entangled exactly when the product of one anti-diagonal pair
    # exceeds that of the diagonal entries it pairs with (Peres-Horodecki).
    inner = X_FRAME[1, 2] * X_FRAME[2, 1] - X_FRAME[0, 0] * X_FRAME[3, 3]
    outer = X_FRAME[0, 3] * X_FRAME[3, 0] - X_FRAME[1, 1] * X_FRAME[2, 2]
    # sin phi > (1 - eps_a) sqrt(1 - eps_s^2) / (2 eps_s sqrt(eps_a)), squared
    criterion = 4 * EA * ES ** 2 * S ** 2 - (1 - EA) ** 2 * (1 - ES ** 2)
    assert vanishes(16 * inner - criterion)
    # never positive: eps_s < 1
    assert vanishes(16 * outer + (1 + EA) ** 2 * (1 - ES ** 2) + 4 * EA * ES ** 2 * S ** 2)
    entangled = numeric(criterion, ES, EA, PHI)
    for eps_s, eps_a in [(0.4, 0.8), (0.6, 0.9), (0.2, 0.99), (1e-3, 1.0 - 1e-9)]:
        boundary = separability_boundary(eps_s, eps_a)
        assert boundary.status == "interior"
        below, above = (entangled(eps_s, eps_a, boundary.phi * k) for k in (1 - 1e-6, 1 + 1e-6))
        assert below < 0.0 < above
    for eps_s, eps_a in [(0.1, 0.2), (0.05, 0.5), (0.0, 0.5)]:
        assert separability_boundary(eps_s, eps_a).status == "never_entangled"
        assert entangled(eps_s, eps_a, HALF_PI) <= 0.0


def test_concurrence_follows_from_the_x_frame():
    # An X-state's concurrence is 2 max(0, |x_12| - sqrt(x_00 x_33), |x_03| - sqrt(x_11 x_22))
    # (Yu and Eberly, QIC 7, 459 (2007)); the second pair never counts, since
    # |x_03|^2 < x_11 x_22 (the separability test above), and local unitaries keep it.
    # With eps_s, sin phi and 1 -+ eps_a nonnegative, the squares give the roots.
    assert vanishes(16 * X_FRAME[1, 2] * X_FRAME[2, 1] - ((1 + EA) * ES * S) ** 2)
    assert vanishes(16 * X_FRAME[0, 0] * X_FRAME[3, 3] - (1 - EA) ** 2 * (1 - ES ** 2 * C ** 2))
    form = numeric(((1 + EA) * ES * S - (1 - EA) * sp.sqrt(1 - ES ** 2 * C ** 2)) / 2, ES, EA, PHI)
    for eps_s, eps_a, phi, _ in POINTS + [(0.4, 0.8, 0.1, 1.0)]:  # a separable point last
        shipped = closed_forms._concurrence(eps_s, eps_a, phi)
        assert close(shipped, max(0.0, form(eps_s, eps_a, phi)))
    assert closed_forms._concurrence(0.4, 0.8, 1.0) > 0.0
    assert closed_forms._concurrence(0.4, 0.8, 0.1) == 0.0


# ---------------------------------------------------------------------------
# the feedback threshold and the working-point derivative
# ---------------------------------------------------------------------------

def test_phi_crit_is_a_root_of_the_feedback_work():
    # sin(phi_crit) of _phi_crit: the rationalised root divided through by atanh(eps_s)
    y1 = EA + ES * TA / TS
    root = 2 * ES / (y1 + sp.sqrt(y1 ** 2 + 4 * ES ** 2))
    feedback = (EA * TS + ES * TA) * S - ES * TS * (1 - S ** 2)  # W_f / T, c^2 = 1 - s^2
    assert sp.expand(sp.numer(sp.together(feedback.subs(S, root)))) == 0
    # at 50 digits, for y / a from 2 to 6e119 and where a = eps_s atanh(eps_s) is subnormal
    angle = sp.lambdify((ES, EA), sp.asin(root.subs({TS: sp.atanh(ES), TA: sp.atanh(EA)})),
                        "mpmath")
    with mpmath.workdps(50):
        for eps_s, eps_a in [(0.2, 0.5), (0.9, 0.95), (0.5, 0.5), (0.01, 0.5), (1e-120, 0.3),
                             (1e-160, 0.5)]:
            shipped = closed_forms._phi_crit(eps_s, eps_a, math.atanh(eps_s), math.atanh(eps_a))
            exact = angle(mpmath.mpf(eps_s), mpmath.mpf(eps_a))
            assert abs(shipped - exact) <= 1e-15 * exact
    assert closed_forms._phi_crit(0.0, 0.7, 0.0, math.atanh(0.7)) == 0.0


def test_the_working_point_derivatives_are_those_of_the_objectives():
    # P, Q / T and W / T as functions of eps_a, with atanh as a function here
    atanh_s, atanh_a = sp.atanh(ES), sp.atanh(EA)
    p = EA * atanh_a - ES * atanh_s + sp.log((1 - EA ** 2) / (1 - ES ** 2)) / 2
    q = (EA - ES * S) * atanh_a
    w = (ES - EA * S) * atanh_s + q
    # _rising's dP, dQ and dW
    dq = atanh_a + (EA - ES * S) / ((1 - EA) * (1 + EA))
    for f, df in ((p, atanh_a), (q, dq), (w, dq - S * atanh_s)):
        assert sp.cancel(sp.diff(f, EA) - df) == 0
    signs = set()
    for name, objective in (("cop", p / w), ("eta", p / q), ("chi", p ** 2 / w)):
        slope = sp.lambdify((ES, EA, PHI), sp.diff(objective, EA).subs(S, sp.sin(PHI)), "math")
        for eps_s, eps_a, phi in RISING_POINTS:
            value = slope(eps_s, eps_a, phi)
            assert abs(value) > 1e-6  # away from the argmax, where the sign is settled
            rising = closed_forms._rising(name, closed_forms._column(eps_s, eps_a),
                                          closed_forms._row(phi))
            assert rising == (value > 0.0) - (value < 0.0), (name, eps_s, eps_a, phi)
            signs.add(rising)
    assert signs == {-1, 1}


RISING_POINTS = [(0.4, 0.5, 1.2), (0.4, 0.95, 1.2), (0.2, 0.7, 0.1), (0.0, 0.3, 1.0),
                 (0.2, 0.9, HALF_PI), (0.3, 1.0 - 1e-9, 0.7)]
