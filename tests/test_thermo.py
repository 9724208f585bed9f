import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfcool import sweep, thermo, verify
from qfcool.densmat import SIGMA_Z
from qfcool.protocol import ProtocolParams, _thermal_qubits, run_protocol
from qfcool.thermo import (
    REVERSIBLE_WORK_FLOOR, ThermoReport, energy_model, ergotropy, figures_of_merit, matrix_oracles,
)

HALF_PI = math.pi / 2


def thermal_qubit(eps):
    return _thermal_qubits([eps])[0]

# frozen by the independent density-matrix oracle
ATANH_04 = 0.42364893019360184
ATANH_08 = 1.0986122886681098
Y_CROSS = 0.7783640596221255       # 0.8 atanh(0.4) + 0.4 atanh(0.8)
ENTROPY_DROP = 0.2857813286634452  # register entropy reduction at (0.4, 0.8)


def params_grid(n=8):
    for es in np.linspace(0.0, 0.9, n):
        for ea in np.linspace(es, 0.95, n):
            for phi in np.linspace(0.0, HALF_PI, n):
                yield ProtocolParams(float(es), float(ea), float(phi))


# ---------------------------------------------------------------------------
# energy model
# ---------------------------------------------------------------------------

def test_level_splitting_zero_bias():
    model = energy_model(ProtocolParams(0.0, 0.0, 0.0))
    assert model.omega_s == 0.0 and model.omega_a == 0.0


def test_level_splitting_value():
    model = energy_model(ProtocolParams(0.4, 0.8, 0.0))
    assert abs(model.omega_s - 2 * ATANH_04) <= 1e-15
    assert abs(model.omega_a - 2 * ATANH_08) <= 1e-15


def test_hamiltonian_contraction_with_initial_state():
    params = ProtocolParams(0.4, 0.8, 1.0)
    model = energy_model(params)
    rho0 = run_protocol(params).rho0
    expected = -(0.4 * ATANH_04 + 0.8 * ATANH_08)
    assert abs(np.trace(model.hamiltonian @ rho0).real - expected) <= 1e-12


@pytest.mark.parametrize("temperature, message", [
    (math.nan, "temperature must be a finite number"),
    (math.inf, "temperature must be a finite number"),
    (0.0, "temperature must be positive"),
    (-0.0, "temperature must be positive"),
    (-1.0, "temperature must be positive"),
])
def test_level_splitting_rejects_a_bad_temperature(temperature, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        thermo.level_splitting(0.3, temperature)


@pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
def test_level_splitting_rejects_a_bias_outside_the_unit_interval(eps):
    with pytest.raises(ValueError, match=r"^eps must be in \[0, 1\)$"):
        thermo.level_splitting(eps, 1.0)


def test_energy_model_scales_with_temperature():
    hot = energy_model(ProtocolParams(0.4, 0.8, 0.0, temperature=2.5))
    assert abs(hot.omega_s - 2.5 * 2 * ATANH_04) <= 1e-15


# ---------------------------------------------------------------------------
# closed forms vs matrix oracles
# ---------------------------------------------------------------------------

def field(name, *params):
    """The ``ThermoReport`` field ``name`` of ``figures_of_merit(ProtocolParams(*params))``."""
    return getattr(figures_of_merit(ProtocolParams(*params)), name)


def test_work_measurement_values():
    assert field("work_measurement", 0.0, 0.0, 0.3) == 0.0
    assert abs(field("work_measurement", 0.4, 0.8, 0.0) + 0.8788898309344879) <= 1e-12
    assert abs(field("work_measurement", 0.4, 0.8, HALF_PI) + 1.0483494030119287) <= 1e-12


def test_work_feedback_sign_and_values():
    # x-measurement: work extracted, equal to the cross-bias term
    p = ProtocolParams(0.4, 0.8, HALF_PI)
    assert abs(figures_of_merit(p).work_feedback - Y_CROSS) <= 1e-12
    assert abs(matrix_oracles(p)["work_feedback"] - Y_CROSS) <= 1e-10
    # z-measurement: work injected
    p0 = ProtocolParams(0.4, 0.8, 0.0)
    assert abs(figures_of_merit(p0).work_feedback + 0.16945957207744072) <= 1e-12
    assert abs(matrix_oracles(p0)["work_feedback"] - figures_of_merit(p0).work_feedback) <= 1e-10


def test_heat_reset_values():
    assert abs(field("heat_reset", 0.4, 0.4, HALF_PI)) <= 1e-15
    assert abs(field("heat_reset", 0.4, 0.8, HALF_PI) - 0.43944491546724396) <= 1e-12
    assert abs(field("heat_reset", 0.4, 0.8, 0.0) - 0.8788898309344879) <= 1e-12


def test_delta_e_system_values():
    # cooling-window boundary: sin(phi) = eps_s / eps_a
    assert abs(field("delta_e_system", 0.4, 0.8, math.asin(0.5))) <= 1e-15
    assert abs(field("delta_e_system", 0.4, 0.8, HALF_PI) - 0.16945957207744072) <= 1e-12
    assert abs(field("delta_e_system", 0.4, 0.8, 0.0) + 0.16945957207744072) <= 1e-12


def test_entropy_reduction_values_and_phi_independence():
    assert field("entropy_reduction", 0.5, 0.5, 0.2) == 0.0
    assert abs(field("entropy_reduction", 0.4, 0.8, 0.0) - ENTROPY_DROP) <= 1e-12
    values = {field("entropy_reduction", 0.4, 0.8, float(phi))
              for phi in np.linspace(0.0, HALF_PI, 9)}
    assert max(values) - min(values) <= 1e-15


def test_closed_forms_match_matrix_oracles_on_grid():
    for params in params_grid(6):
        oracles, report = matrix_oracles(params), figures_of_merit(params)
        for name, oracle in oracles.items():
            assert abs(getattr(report, name) - oracle) <= 1e-10
        # bookkeeping: energy lost by the pair equals minus the total work
        combined = report.work_measurement + report.work_feedback
        assert abs(combined + oracles["total_work"]) <= 1e-10


@pytest.mark.parametrize("temperature", [1e-300, 2.3, 1e300])
def test_matrix_oracles_at_the_temperature_meet_the_scaled_closed_forms(temperature):
    # the oracle builds H at the point's T, so it meets the record's one multiplication by T
    # from a route that never ran at T = 1
    for params in params_grid(5):
        params = ProtocolParams(params.eps_s, params.eps_a, params.phi, temperature)
        oracles, report = matrix_oracles(params), figures_of_merit(params)
        for name, oracle in oracles.items():
            unit = 1.0 if name == "entropy_reduction" else temperature
            assert abs(getattr(report, name) - oracle) <= verify.TOL_CLOSED_FORM * unit, (params, name)


def test_temperature_is_a_multiplicative_scale():
    cold = figures_of_merit(ProtocolParams(0.3, 0.7, 0.8, temperature=1.0))
    hot = figures_of_merit(ProtocolParams(0.3, 0.7, 0.8, temperature=3.0))
    for name in ("work_measurement", "work_feedback", "heat_reset", "delta_e_system", "total_work"):
        assert abs(getattr(hot, name) - 3.0 * getattr(cold, name)) <= 1e-12
    assert abs(hot.entropy_reduction - cold.entropy_reduction) <= 1e-15


# ---------------------------------------------------------------------------
# threshold angle
# ---------------------------------------------------------------------------

def test_phi_crit_equal_biases_is_universal():
    # sin(phi_crit) = sqrt(2) - 1 regardless of the common bias
    expected = math.asin(math.sqrt(2.0) - 1.0)
    assert abs(expected - 0.42707858639247626) <= 1e-15
    for eps in (0.2, 0.5, 0.8):
        assert abs(field("phi_crit", eps, eps, 0.0) - expected) <= 1e-12


def test_phi_crit_is_feedback_work_root():
    pc = field("phi_crit", 0.4, 0.8, 0.0)
    assert abs(pc - 0.20980480810492377) <= 1e-12
    assert abs(field("work_feedback", 0.4, 0.8, pc)) <= 1e-9
    below = field("work_feedback", 0.4, 0.8, pc - 1e-6)
    above = field("work_feedback", 0.4, 0.8, pc + 1e-6)
    assert below < 0.0 < above


@pytest.mark.parametrize("eps_s", [1e-200, 1e-158, 1e-109, 7.870918860507277e-101,
                                   1e-6, 1e-3, 0.05])
def test_phi_crit_is_a_root_at_small_register_bias(eps_s):
    # a = eps_s atanh(eps_s) underflows, or -y + sqrt(y^2 + 4a^2) cancels
    report = figures_of_merit(ProtocolParams(eps_s, 0.5, 0.0))
    pc = report.phi_crit
    assert 0.0 <= pc < 0.1
    residual = field("work_feedback", eps_s, 0.5, pc)
    assert abs(residual) <= 1e-12 * eps_s * math.atanh(eps_s)
    assert report.phi_crit_defined


def test_phi_crit_decreases_with_ancilla_bias():
    values = [field("phi_crit", 0.4, float(ea), 0.0)
              for ea in np.linspace(0.4, 0.95, 12)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_phi_crit_degenerate_at_zero_register_bias():
    report = figures_of_merit(ProtocolParams(0.0, 0.5, 0.3))
    assert report.phi_crit == 0.0
    assert not report.phi_crit_defined
    assert not report.work_extracting_feedback
    assert abs(report.work_feedback) <= 1e-15


# ---------------------------------------------------------------------------
# figures of merit
# ---------------------------------------------------------------------------

def test_figures_of_merit_frozen_point():
    report = figures_of_merit(ProtocolParams(0.4, 0.8, HALF_PI))
    assert abs(report.cooling_load - ENTROPY_DROP) <= 1e-12
    assert abs(report.total_work - 0.2699853433898032) <= 1e-12
    assert abs(report.cop - 1.0585068251310068) <= 1e-12
    assert abs(report.eta - 0.6503234389675109) <= 1e-12
    assert abs(report.chi - 0.3025014868852642) <= 1e-12
    assert report.in_cooling_window
    assert report.work_extracting_feedback
    assert not report.reversible_limit


def test_figures_of_merit_reversible_point():
    report = figures_of_merit(ProtocolParams(0.4, 0.4, HALF_PI))
    assert report.reversible_limit
    assert report.cop is None and report.eta is None and report.chi is None
    assert abs(report.cooling_load) <= 1e-15
    assert abs(report.heat_reset) <= 1e-15
    assert abs(report.total_work) <= 1e-15


# Points with a negative energy whose product with T underflows, by temperature: W_m at (0, 1e-12, 1)
# and T = 1e-300; W_f and dE_S at (0.4, 1 - 1e-9, 0) and T = 5e-324, which refuses the edges' energies
_UNDERFLOWING = {1e-300: [(0.0, 1e-12, 1.0)], 5e-324: [(0.4, 1.0 - 1e-9, 0.0)]}


@pytest.mark.parametrize("temperature", [5e-324, 1e-300, 1.0, 2.3, 1e300])
def test_no_energy_is_a_negative_zero_on_the_zero_energy_edges(temperature):
    # eps_s = 0 (the register holds no energy) and the reversible corner eps_a = eps_s,
    # phi = pi/2 (no energy moves), then the underflowing products; JSON would print a -0.0 as such
    points = [(0.0, eps_a, phi) for eps_a in (0.0, 0.5, 1.0 - 1e-9) for phi in (0.0, 0.7, HALF_PI)]
    points += [(eps, eps, HALF_PI) for eps in (0.0, 0.1, 0.4, 0.9)]
    energies = ("work_measurement", "work_feedback", "heat_reset", "delta_e_system",
                "cooling_load", "total_work")
    for point in (points if temperature > 5e-324 else []) + _UNDERFLOWING.get(temperature, []):
        report = figures_of_merit(ProtocolParams(*point, temperature=temperature))
        for name in energies:
            value = getattr(report, name)
            assert value != 0.0 or math.copysign(1.0, value) > 0.0, (point, name)


def test_thermodynamic_inequalities_on_grid():
    for params in params_grid(8):
        report = figures_of_merit(params)
        if params.eps_a > params.eps_s + 1e-12:
            assert report.total_work > 0.0
        if params.eps_a > params.eps_s * math.sin(params.phi) + 1e-12 and params.eps_a > 0:
            assert report.heat_reset > 0.0
        assert report.heat_reset >= report.cooling_load - 1e-12
        assert report.entropy_reduction >= -1e-15
        if report.eta is not None:
            assert -1e-12 <= report.eta <= 1.0 + 1e-12
        in_window = params.eps_a * math.sin(params.phi) > params.eps_s
        assert report.in_cooling_window == in_window
        if abs(report.delta_e_system) > 1e-12:
            assert (report.delta_e_system > 0) == in_window
        if math.sin(params.phi) < params.eps_s:
            assert report.delta_e_system <= 1e-15


def test_cop_monotone_in_phi_at_fixed_biases():
    for es, ea in ((0.2, 0.5), (0.4, 0.8), (0.6, 0.9)):
        cops = [figures_of_merit(ProtocolParams(es, ea, float(phi))).cop
                for phi in np.linspace(0.0, HALF_PI, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(cops, cops[1:]))


# ---------------------------------------------------------------------------
# ergotropy
# ---------------------------------------------------------------------------

def test_ergotropy_of_passive_state_is_zero():
    model = energy_model(ProtocolParams(0.4, 0.8, 0.0))
    rho0 = run_protocol(ProtocolParams(0.4, 0.8, 0.0)).rho0
    assert ergotropy(rho0, model.hamiltonian) <= 1e-12
    assert ergotropy(thermal_qubit(0.6), 0.5 * 2 * math.atanh(0.6) * SIGMA_Z) <= 1e-12


def test_ergotropy_of_inverted_qubit():
    omega = 1.7
    excited = np.diag([1.0, 0.0]).astype(complex)  # +1 eigenstate of sigma_z
    assert abs(ergotropy(excited, 0.5 * omega * SIGMA_Z) - omega) <= 1e-12


def test_ergotropy_rejects_a_non_hermitian_hamiltonian():
    with pytest.raises(ValueError, match="ergotropy expects a Hermitian Hamiltonian"):
        ergotropy(thermal_qubit(0.6), [[1.0, 1e-9], [0.0, -1.0]])


def test_ergotropy_bounds_feedback_work():
    for params in params_grid(6):
        trace = run_protocol(params)
        model = energy_model(params)
        bound = figures_of_merit(params).work_feedback
        assert ergotropy(trace.rho_m, model.hamiltonian) >= bound - 1e-12
    # strict gap at the x-measurement
    p = ProtocolParams(0.4, 0.8, HALF_PI)
    extractable = ergotropy(run_protocol(p).rho_m, energy_model(p).hamiltonian)
    assert extractable - figures_of_merit(p).work_feedback > 0.1
    assert abs(extractable - 1.0483494030119285) <= 1e-10


def test_ergotropy_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match=r"^dimension mismatch: \(4, 4\) vs \(2, 2\)$"):
        ergotropy(np.eye(2) / 2, np.eye(4))


# ---------------------------------------------------------------------------
# temperature scaling and overflow
# ---------------------------------------------------------------------------

# The fields that carry T: the energies, the cooling load T P and chi = P^2 / W.
_T_FIELDS = ("work_measurement", "work_feedback", "heat_reset", "delta_e_system", "cooling_load",
             "total_work", "chi")


def test_reversible_flag_scales_with_temperature():
    cold = figures_of_merit(ProtocolParams(0.4, 0.8, 1.0, 1e-15))
    unit = figures_of_merit(ProtocolParams(0.4, 0.8, 1.0))
    assert not cold.reversible_limit
    assert cold.cop == pytest.approx(unit.cop, rel=1e-12)
    assert round(cold.cop, 4) == 0.7265


def _times(t, unit):
    """The record at temperature ``t``, as the repr of each field, from the record at T = 1: each
    energy and chi ``t * v + 0.0`` of its T = 1 value ``v``, one product whose zero is +0.0, and
    every other field as it is."""
    return {name: repr(t * v + 0.0 if name in _T_FIELDS and v is not None else v)
            for name, v in vars(unit).items()}


@given(eps_s=st.floats(0.0, 0.9), fraction=st.floats(0.0, 1.0),
       phi=st.floats(0.0, HALF_PI), log10_t=st.floats(-323.0, 308.0))
@example(eps_s=0.4, fraction=1.0, phi=1.0, log10_t=-15.0)
@example(eps_s=0.5, fraction=0.0, phi=HALF_PI, log10_t=300.0)
@example(eps_s=0.0, fraction=0.5, phi=0.3, log10_t=-300.0)
# (0, 1e-12, 1.0) at T = 1e-300, where W_m = -1e-12 * 1e-300 underflows to a zero
@example(eps_s=0.0, fraction=1e-12 / 0.95, phi=1.0, log10_t=-300.0)
# (0.4, 0.8, 1.0) at T = 2.3, where cop once moved by an ulp, and at a subnormal T
@example(eps_s=0.4, fraction=0.4 / 0.55, phi=1.0, log10_t=math.log10(2.3))
@example(eps_s=0.4, fraction=0.4 / 0.55, phi=1.0, log10_t=-314.0)
# a reversible-limit point whose cooling load, 1e-115 * 4.08e-210, rounds to 0.0 (eps_a = 2.02e-105)
@example(eps_s=0.0, fraction=2.1267622007797977e-105, phi=0.0, log10_t=-115.0)
def test_figures_of_merit_do_not_depend_on_temperature(eps_s, fraction, phi, log10_t):
    # T enters each energy and chi by one multiplication; the flags, ratios, entropy
    # reduction and phi_crit are their T = 1 values, bit for bit, in the scalar record
    # and in a grid's
    eps_a, t = eps_s + fraction * (0.95 - eps_s), 10.0 ** log10_t
    unit = figures_of_merit(ProtocolParams(eps_s, eps_a, phi))
    try:
        scaled = figures_of_merit(ProtocolParams(eps_s, eps_a, phi, t))
    except ValueError as error:
        assert not 1e-300 <= t <= 1e300  # every T in [1e-300, 1e300] reports
        assert str(error).startswith(f"temperature {t!r} makes the cycle energies ")
        return
    expected = _times(t, unit)
    assert {name: repr(v) for name, v in vars(scaled).items()} == expected
    [grid] = sweep._Grid([(eps_s, [eps_a])], [phi], t).reports
    assert {name: repr(v) for name, v in vars(grid).items()} == expected
    if (eps_s, eps_a, phi, t) == (0.0, 2.0204240907408078e-105, 0.0, 1e-115):
        assert scaled.cooling_load == 0.0 < unit.cooling_load
        assert scaled.reversible_limit and scaled.cop is scaled.eta is scaled.chi is None


@pytest.mark.parametrize("temperature", [5e-324, 1e-314, 1e-300, 0.8, 2.3, 1e300, 1e307])
def test_grid_reports_are_the_unit_reports_times_the_temperature(temperature):
    # the standard grid's reports, and a landscape's at eps_s = 0.4
    landscape = ([(0.4, np.linspace(0.4, 0.95, 21).tolist())], np.linspace(0.0, HALF_PI, 9).tolist())
    for series, phis in (verify._standard_axes(6, 1.0)[:2], landscape):
        unit = sweep._Grid(series, phis, 1.0).reports
        try:
            reports = sweep._Grid(series, phis, temperature).reports
        except ValueError as error:
            assert temperature in (5e-324, 1e307)
            assert str(error).startswith(f"temperature {temperature!r} makes the cycle energies ")
            continue
        assert [{name: repr(v) for name, v in vars(r).items()} for r in reports] == [
            _times(temperature, r) for r in unit]


def test_figures_of_merit_reject_energy_overflow():
    with pytest.raises(ValueError, match=r"^temperature 1e\+308 makes the cycle energies overflow$"):
        figures_of_merit(ProtocolParams(0.3, 0.999999999, 1.0, 1e308))
    # entropy_reduction and phi_crit do not scale with T: their T = 1 values, bit for bit
    unit = figures_of_merit(ProtocolParams(0.3, 0.999999999, 1.0))
    hot = figures_of_merit(ProtocolParams(0.3, 0.999999999, 1.0, 1e300))
    for name in ("entropy_reduction", "phi_crit"):
        assert repr(getattr(hot, name)) == repr(getattr(unit, name)), name


HOT = ProtocolParams(0.4, 0.8, 1.0, 1e308)


def _refused(call):
    # no inf gap, NaN Hamiltonian or NaN energy, but the error figures_of_merit raises
    def check():
        with pytest.raises(ValueError, match=r"^temperature 1e\+308 makes the cycle energies overflow$"):
            call()
    return check


def _zero_bias_at_1e308():
    # T atanh(eps) is taken before 2 T, which overflows alone: the gap at eps = 0 is 0.0, and both
    # routes accept the point
    report = figures_of_merit(ProtocolParams(0.0, 0.0, 0.0, 1e308))
    assert thermo.level_splitting(0.0, 1e308) == 0.0 == report.total_work and report.reversible_limit


@pytest.mark.parametrize("check", [
    _refused(lambda: thermo.level_splitting(0.8, 1e308)),
    _refused(lambda: thermo.level_splitting(0.8, 10 ** 308)),  # an int T is named as a float
    _zero_bias_at_1e308,
    _refused(lambda: energy_model(HOT)),
    _refused(lambda: matrix_oracles(HOT)),
    _refused(lambda: figures_of_merit(HOT)),
], ids=["level_splitting", "integer-T", "zero-bias", "energy_model", "matrix_oracles", "figures_of_merit"])
def test_a_level_splitting_that_overflows_is_refused_as_the_closed_forms_refuse_it(check):
    check()


# The ThermoReport fields that carry T: each energy and chi.
T_FIELDS = ("work_measurement", "work_feedback", "heat_reset", "delta_e_system", "cooling_load",
            "total_work", "chi")


def test_a_temperature_whose_double_overflows_is_accepted_where_every_energy_fits():
    # 2 T is inf at T = 1e308, but 2 T atanh(eps) is not: every energy and chi is T times its
    # T = 1 value, and every other field is its T = 1 value, bit for bit (None where that is None)
    for point in ((0.0, 0.0, 0.0), (0.1, 0.2, 1.0)):  # a reversible-limit point, then an interior one
        unit, hot = figures_of_merit(ProtocolParams(*point)), figures_of_merit(ProtocolParams(*point, 1e308))
        assert (unit.cop is None) == (point == (0.0, 0.0, 0.0))
        for name in ThermoReport.__match_args__:
            expected = getattr(unit, name)
            if name in T_FIELDS and expected is not None:
                expected *= 1e308
            assert repr(getattr(hot, name)) == repr(expected), (point, name)
    params = ProtocolParams(0.1, 0.2, 1.0, 1e308)
    model = energy_model(params)
    assert math.isfinite(model.omega_s) and math.isfinite(model.omega_a)
    for name, oracle in matrix_oracles(params).items():
        unit_of = 1.0 if name == "entropy_reduction" else 1e308
        assert abs(getattr(hot, name) - oracle) <= 1e-10 * unit_of, name


# ---------------------------------------------------------------------------
# the axis-factored closed forms against the per-quantity expressions
# ---------------------------------------------------------------------------

def per_quantity_report(es, ea, phi, t):
    """Every figure of merit from its own closed-form expression at T = 1, each
    recomputing its transcendentals (as figures_of_merit did before the
    closed forms were factored by grid axis), then each energy and chi times t."""
    # 0.0 - x rather than -x: a zero energy is +0.0
    w_m = 0.0 - (es * math.sin(phi) ** 2 * math.atanh(es) + ea * math.atanh(ea))
    y = ea * math.atanh(es) + es * math.atanh(ea)
    w_f = y * math.sin(phi) - es * math.atanh(es) * math.cos(phi) ** 2
    q = (ea - es * math.sin(phi)) * math.atanh(ea)
    de_s = 0.0 - (es - ea * math.sin(phi)) * math.atanh(es)
    reduction = (ea * math.atanh(ea) - es * math.atanh(es)
                 + 0.5 * math.log((1.0 - ea * ea) / (1.0 - es * es)))
    w = -de_s + q
    if es == 0.0:
        pc = 0.0
    else:  # the root of y sin(phi) - a cos(phi)^2, divided through by atanh(es)
        y1 = ea + es / math.atanh(es) * math.atanh(ea)
        pc = math.asin(2.0 * es / (y1 + math.hypot(y1, 2.0 * es)))
    reversible = w <= REVERSIBLE_WORK_FLOOR
    cop = None if reversible else reduction / w
    return ThermoReport(
        work_measurement=t * w_m, work_feedback=t * w_f, heat_reset=t * q, delta_e_system=t * de_s,
        entropy_reduction=reduction, cooling_load=t * reduction, total_work=t * w, cop=cop,
        eta=None if reversible else reduction / q, chi=None if reversible else t * (cop * reduction),
        in_cooling_window=ea * math.sin(phi) > es,
        work_extracting_feedback=(phi > pc) if es > 0.0 else False,
        phi_crit=pc, phi_crit_defined=es > 0.0, reversible_limit=reversible)


@given(eps_s=st.one_of(st.sampled_from([0.0, 1e-300, 1e-9, 0.999]), st.floats(0.0, 0.999)),
       fraction=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       phi=st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI)),
       log10_t=st.floats(-300.0, 300.0))
@example(eps_s=0.3, fraction=1.0, phi=1.2, log10_t=0.3)
def test_closed_forms_equal_the_per_quantity_expressions_bit_for_bit(eps_s, fraction, phi,
                                                                     log10_t):
    eps_a = eps_s + fraction * (1.0 - 1e-9 - eps_s)  # up to the sweep's clamp
    params = ProtocolParams(eps_s, eps_a, phi, 10.0 ** log10_t)
    expected = per_quantity_report(eps_s, eps_a, phi, params.temperature)
    assert repr(figures_of_merit(params)) == repr(expected)
