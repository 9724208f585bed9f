"""Closed forms against the 50-digit referee.

``figures_of_merit`` at fixed interior and edge points and on seeded
interior draws: every figure of merit, energies over ``T``, each within an
absolute bound and, where it is nonzero, a relative one.  The threshold
angle, the separability angle and the mutual information on a fixed edge
list and on seeded draws.  The
referee's Wootters concurrence and EoF against pure states and against the
X-state form on protocol states.  The closed forms ``run`` prints (its trace
block, concurrence and EoF) against the referee's matrices.  The library's
own forms run on mpmath numbers, through its global ``math``, against its
float record and trace block.
"""

import math
import random
import types

import mpmath
import pytest

from qfcool import closed_forms
from qfcool.closed_forms import (
    ProtocolParams, ThermoReport, _correlations, _trace_summary, figures_of_merit,
    mutual_information_analytic, separability_boundary, thermal_entropy,
)
from qfcool.protocol import run_protocol

import referee

ABS_TOL = 1e-15  # times max(1, |exact|)
REL_TOL = 1e-14
OVER_T = {"work_measurement", "work_feedback", "heat_reset", "delta_e_system", "total_work",
          "chi"}
HALF_PI = math.pi / 2


def _known_defect(reason):
    return {"marks": pytest.mark.xfail(strict=True, reason=f"ROADMAP item 3: {reason}")}


@pytest.mark.parametrize("eps_s,eps_a,phi,temperature", [
    (0.3, 0.9, 1.2, 1.0),
    (0.1, 0.3, 0.8, 1.0),
    (0.6, 0.95, 0.4, 1.0),
    (0.2, 0.8, 1.0, 0.25),
    (0.2, 0.8, 1.0, 7.0),
    (0.0, 0.5, 0.0, 1.0),
    (0.4, 0.4, 0.0, 1.0),  # P = 0, so cop = eta = chi = 0
    (0.0, 0.7, HALF_PI, 1.0),
    pytest.param(0.0, 1.0 - 1e-8, 1.0, 1.0, **_known_defect(
        "P cancels near unit ancilla bias (off by 4.0e-10 relative), and cop, eta and chi"
        " inherit it (4.0e-10, 4.0e-10 and 8.0e-10)")),
    pytest.param(0.4, 0.4 + 1e-15, HALF_PI - 1e-3, 1.0, **_known_defect(
        "P cancels at the reversible corner (off by 11.5% relative), and cop, eta and chi"
        " inherit it (11.5%, 11.5% and 24%); Q, delta_e_system and W lose relative digits"
        " (9.5e-11) where eps_a - eps_s sin(phi) cancels")),
])
def test_figures_of_merit_match_the_referee(eps_s, eps_a, phi, temperature):
    report = figures_of_merit(ProtocolParams(eps_s, eps_a, phi, temperature))
    with mpmath.workdps(referee.DPS):
        for name, exact in referee.cycle(eps_s, eps_a, phi).items():
            value = getattr(report, name) / (temperature if name in OVER_T else 1.0)
            error = abs(value - exact)
            assert error <= ABS_TOL * max(1, abs(exact)), (name, value, exact)
            if exact:
                assert error <= REL_TOL * abs(exact), (name, value, exact)


def test_delta_e_system_matches_the_referee_at_a_tiny_register_bias():
    # delta E_S / T is 4.07e-52 next to Q / T = 0.46: the referee takes it directly, as
    # atanh(eps_s) (eps_a sin phi - eps_s); Q - W would cancel all of its digits
    point = (9.926754346929195e-52, 0.6281011591974376, 0.7112258352493014)
    value = figures_of_merit(ProtocolParams(*point)).delta_e_system
    with mpmath.workdps(referee.DPS):
        exact = referee.cycle(*point)["delta_e_system"]
        assert abs(value - exact) <= 1e-13 * abs(exact), (value, exact)


def _interior_draws(seed, count=400):
    """Seeded interior (eps_s, eps_a, phi, T), with T log-uniform in [1/4, 4]."""
    rng = random.Random(seed)
    for _ in range(count):
        eps_s = rng.uniform(0.05, 0.9)
        yield (eps_s, rng.uniform(eps_s + 0.05, 0.99), rng.uniform(0.05, HALF_PI - 0.05),
               2.0 ** rng.uniform(-2.0, 2.0))


def test_figures_of_merit_match_the_referee_on_seeded_interior_draws():
    # off the zero crossings of delta E_S (eps_a sin(phi) = eps_s) and of W_f (phi = phi_crit),
    # which ROADMAP item 2 treats as regions of their own, every field is within 1e-13 relative
    checked = 0
    with mpmath.workdps(referee.DPS):
        for eps_s, eps_a, phi, temperature in _interior_draws(47):
            phi_crit = referee.phi_crit(eps_s, eps_a)
            if abs(eps_a * math.sin(phi) - eps_s) < 0.05 or abs(phi - phi_crit) < 0.05:
                continue
            report = figures_of_merit(ProtocolParams(eps_s, eps_a, phi, temperature))
            exact = referee.cycle(eps_s, eps_a, phi)
            exact.update(cooling_load=exact["entropy_reduction"], phi_crit=phi_crit)
            for name, value in exact.items():
                scaled = getattr(report, name) / (temperature if name in OVER_T | {"cooling_load"} else 1.0)
                assert abs(scaled - value) <= 1e-13 * abs(value), (eps_s, eps_a, phi, temperature, name)
            flags = (report.in_cooling_window, report.work_extracting_feedback, report.phi_crit_defined,
                     report.reversible_limit)
            assert flags == (exact["delta_e_system"] > 0, phi > phi_crit, True, False)
            checked += 1
    assert checked >= 300  # 330 of the 400


# (eps_s, eps_a, phi): a subnormal eps_s atanh(eps_s), eps_a = eps_s, eps_a near 1,
# phi at 0 and pi/2, a y / a near 100, where -y + sqrt(y^2 + 4 a^2) cancels, and both
# biases near 1, where the populations (1 - eps) / 2 lose digits
EDGES = [
    (1e-160, 0.5, 0.7), (1e-160, 1e-160, 0.0), (0.0, 0.5, 0.3), (0.4, 0.4, HALF_PI),
    (0.3, 1.0 - 1e-9, 1.2), (0.6, 0.8, 0.0), (0.6, 0.8, HALF_PI), (1e-300, 1.0 - 1e-9, 1.0),
    (0.008, 0.37, 0.5), (0.9999999, 0.99999999, 0.001),
]


def _draws(seed, count=2000):
    """Seeded (eps_s, eps_a, phi) with eps_s uniform or log-uniform down to 1e-300."""
    rng = random.Random(seed)
    for _ in range(count):
        eps_s = 0.999 * rng.random() if rng.random() < 0.5 else 10.0 ** rng.uniform(-300.0, 0.0)
        eps_a = eps_s + rng.random() * (1.0 - 1e-9 - eps_s)
        yield eps_s, eps_a, HALF_PI * rng.random()


POINTS = EDGES + list(_draws(23))


def test_phi_crit_matches_the_referee():
    with mpmath.workdps(referee.DPS):
        for eps_s, eps_a, _ in POINTS:
            value = figures_of_merit(ProtocolParams(eps_s, eps_a, 0.0)).phi_crit
            exact = referee.phi_crit(eps_s, eps_a)
            assert abs(value - exact) <= 1e-15 * exact, (eps_s, eps_a, value, exact)


def test_mutual_information_matches_the_referee():
    with mpmath.workdps(referee.DPS):
        for point in POINTS:
            value = mutual_information_analytic(ProtocolParams(*point))
            exact = referee.mutual_information(*point)
            assert abs(value - exact) <= 2e-15, (point, value, exact)


def test_thermal_entropy_matches_the_referee_up_to_the_clamp():
    # near unit bias the population x = (1 - eps) / 2 is tiny, and log(1 - x) would
    # lose its digits to the rounding of 1 - x
    with mpmath.workdps(referee.DPS):
        for eps in (1 - 1e-9, 1 - 1e-6, 1 - 1e-3, 0.9, 0.5, 1e-3):
            exact = referee._entropy(mpmath.mpf(eps))
            assert abs(thermal_entropy(eps) - exact) <= 2e-16 * exact, (eps, thermal_entropy(eps), exact)


def test_separability_angle_matches_the_referee():
    interior = 0
    with mpmath.workdps(referee.DPS):
        for eps_s, eps_a, _ in POINTS:
            boundary = separability_boundary(eps_s, eps_a) if eps_s < eps_a else None
            if boundary and boundary.status == "interior":
                interior += 1
                exact = referee.separability_angle(eps_s, eps_a)
                assert abs(boundary.phi - exact) <= REL_TOL * exact, (eps_s, eps_a, boundary, exact)
    assert interior >= 100


# ---------------------------------------------------------------------------
# the referee's Wootters concurrence and entanglement of formation
# ---------------------------------------------------------------------------

def _pure_states(seed, count=32):
    """Seeded pure states: amplitudes (a, b, c, d) and the rows of their rounded outer product."""
    rng = random.Random(seed)
    for _ in range(count):
        v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in v))
        v = [x / norm for x in v]
        yield v, [[x * y.conjugate() for y in v] for x in v]


def test_referee_concurrence_of_a_pure_state_is_twice_its_determinant():
    # the rows are rounded, so the two agree to rounding, not to 50 digits
    with mpmath.workdps(referee.DPS):
        for v, rho in _pure_states(41):
            a, b, c, d = map(mpmath.mpc, v)
            assert abs(referee.concurrence(rho) - 2 * abs(a * d - b * c)) <= 1e-15, v


def test_referee_eof_of_a_pure_state_is_its_entanglement_entropy():
    with mpmath.workdps(referee.DPS):
        for v, rho in _pure_states(43):
            schmidt = mpmath.svd_c(mpmath.matrix([v[:2], v[2:]]), compute_uv=False)
            entropy = -sum(w * mpmath.log(w) for w in (s ** 2 for s in schmidt) if w > 0)
            assert abs(referee.entanglement_of_formation(rho) - entropy) <= 1e-15, v


def _x_state_concurrence(eps_s, eps_a, phi):
    """max(0, [(1 + eps_a) eps_s sin phi - (1 - eps_a) sqrt(1 - eps_s^2 cos^2 phi)] / 2)."""
    es, ea, phi = mpmath.mpf(eps_s), mpmath.mpf(eps_a), mpmath.mpf(phi)
    entangling = (1 + ea) * es * mpmath.sin(phi)
    return max(0, (entangling - (1 - ea) * mpmath.sqrt(1 - (es * mpmath.cos(phi)) ** 2)) / 2)


# The last three edges and the log-uniform draws have tiny register biases, where
# the eigenvalues of rho rho~ pair up within 10^-DPS.
PROTOCOL_POINTS = [
    (0.0, 0.0, 0.0), (0.0, 0.5, 0.3), (0.4, 0.4, 0.7), (0.4, 0.4, HALF_PI), (0.6, 0.8, 0.0),
    (0.6, 0.8, HALF_PI), (0.4, 0.8, 1.0), (0.3, 1.0 - 1e-9, 1.2), (0.9999999, 0.99999999, 0.001),
    (1e-160, 0.5, 0.7), (1.5e-65, 0.3, 1.1), (1e-300, 1e-300, 1.0),
] + list(_draws(31, 24))


def test_referee_concurrence_of_a_protocol_state_is_the_x_state_form():
    with mpmath.workdps(referee.DPS):
        for point in PROTOCOL_POINTS:
            exact = _x_state_concurrence(*point)
            state = referee.measured_state(*point)
            assert abs(referee.concurrence(state) - exact) <= 1e-40, point
            # the library's rho_m is that state rounded; its exact concurrence moves by rounding only
            rho = run_protocol(ProtocolParams(*point)).rho_m
            entries = [(i, j) for i in range(4) for j in range(4)]
            assert max(abs(state[i, j] - complex(rho[i, j])) for i, j in entries) <= 1e-15, point
            assert abs(referee.concurrence(rho) - exact) <= 1e-15, point


# ---------------------------------------------------------------------------
# the closed forms run prints, against the referee's matrices
# ---------------------------------------------------------------------------

# eps_s = 0, eps_s = eps_a, phi at 0 and pi/2, and eps_a at the clamp, where the
# library's matrix concurrence is 5.0e-10 off
RUN_POINTS = [
    (0.0, 0.5, 0.3), (0.0, 0.0, 1.0), (0.4, 0.4, 0.7), (0.6, 0.8, 0.0), (0.6, 0.8, HALF_PI),
    (0.3, 0.999999999, 1.2), (0.0, 0.999999999, HALF_PI), (0.4, 0.8, 1.0),
] + list(_draws(37, 48))


def _leaves(doc, prefix=""):
    """(dotted key, number) of each number of a trace block; a Bloch vector's by index."""
    for key in sorted(doc):
        value, name = doc[key], prefix + key
        if isinstance(value, dict):
            yield from _leaves(value, name + ".")
        elif isinstance(value, list):
            yield from ((f"{name}.{i}", x) for i, x in enumerate(value))
        else:
            yield name, value


def test_run_trace_block_matches_the_referee():
    with mpmath.workdps(referee.DPS):
        for point in RUN_POINTS:
            value = dict(_leaves(_trace_summary(*point)))
            exact = dict(_leaves(referee.trace(*point)))
            assert len(value) == 38 and value.keys() == exact.keys()
            for key, x in value.items():
                assert abs(x - exact[key]) <= 1e-13, (point, key, x, exact[key])


def test_run_concurrence_and_eof_match_the_referee():
    with mpmath.workdps(referee.DPS):
        for point in RUN_POINTS:
            report, state = _correlations(ProtocolParams(*point)), referee.measured_state(*point)
            assert abs(report.concurrence - referee.concurrence(state)) <= 1e-13, point
            assert abs(report.eof - referee.entanglement_of_formation(state)) <= 1e-13, point


# What closed_forms reads from its global math, on mpmath numbers; math.hypot takes three
# arguments, mpmath.hypot two
MP_MATH = types.SimpleNamespace(
    atanh=mpmath.atanh, log=mpmath.log, log1p=mpmath.log1p, sin=mpmath.sin, cos=mpmath.cos,
    asin=mpmath.asin, sqrt=mpmath.sqrt, hypot=lambda *xs: mpmath.norm(xs), nan=mpmath.nan,
    pi=mpmath.pi, isfinite=mpmath.isfinite)


def test_the_library_forms_run_on_mpmath_numbers(monkeypatch):
    # every elementary function of closed_forms goes through its global math, so swapping that
    # global evaluates the library's own forms at 300 bits: every number comes back an mpf (a float
    # would be one that leaked past the namespace) and the record is the referee's to 1e-40 (a
    # leaked float added to an mpf stays an mpf), and the float record and trace block lie within
    # 1e-15 relative of it
    point = (0.4, 0.8, 1.0)
    report, trace = figures_of_merit(ProtocolParams(*point)), dict(_leaves(_trace_summary(*point)))
    monkeypatch.setattr(closed_forms, "math", MP_MATH)
    with mpmath.workprec(300):
        es, ea, phi = map(mpmath.mpf, point)
        [column], row = closed_forms._columns(es, [ea]), closed_forms._row(phi)
        unit, emitted = closed_forms._report_fields(column, row, mpmath.mpf(1))
        exact_trace = dict(_leaves(closed_forms._trace_summary(es, ea, phi)))
    numbers = [x for x in (*column, *row, *unit, *emitted) if not isinstance(x, bool)]
    assert numbers and all(isinstance(x, mpmath.mpf) for x in numbers)
    # and so is every number of the trace block but its Bloch vectors' literal 0.0 components
    assert all(isinstance(x, mpmath.mpf) or (".bloch." in key and x == 0.0)
               for key, x in exact_trace.items())
    exact = {**dict(zip(ThermoReport.__match_args__, emitted)), **exact_trace}
    with mpmath.workdps(referee.DPS):
        for name, value in referee.cycle(*point).items():
            assert abs(exact[name] - value) <= 1e-40 * abs(value), name
    for name, value in {**vars(report), **trace}.items():
        if isinstance(value, float):
            assert abs(value - exact[name]) <= 1e-15 * abs(exact[name]), (name, value, exact[name])
        else:
            assert value == exact[name], name
