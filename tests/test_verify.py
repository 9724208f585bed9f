import dataclasses
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from qfcool import closed_forms, correlations, densmat, protocol, sweep, thermo, verify
from qfcool.protocol import ProtocolParams

from make_suite_reprs import BENCH_STRATA, POINTS, STRATA, key, point_key

HALF_PI = math.pi / 2


def test_run_suite_evaluates_the_grid_as_one_stacked_trace(calls, monkeypatch):
    traces = calls(protocol, "_run_protocols")
    monkeypatch.setattr(protocol, "run_protocol", None)
    checks = verify.run_suite(grid_n=3, discord_stride=2)
    # the standard grid's points in the grid's (eps_s, phi, eps_a) order
    phis = np.linspace(0.0, HALF_PI, 3).tolist()
    order = [(es, ea, phi) for es in np.linspace(0.0, verify.EPS_S_MAX, 3).tolist() for phi in phis
             for ea in np.linspace(es, verify.EPS_A_MAX, 3).tolist()]
    assert sorted(order) == sorted((p.eps_s, p.eps_a, p.phi) for p in verify.standard_grid(3))
    assert traces == [tuple(zip(*order))]
    assert all(c.passed for c in checks)


def _reference_deviations(points):
    """Deviations of the pointwise classes, from the single-point functions and kernels, at
    points at T = 1, where each energy is its value over T (the classes' unit at any T)."""
    dev = {name: [] for name in verify.CLASSES}
    for params in points:
        trace = protocol.run_protocol(params)
        model = thermo.energy_model(params)
        report = thermo.figures_of_merit(params)
        oracles = thermo.matrix_oracles(params)
        es, ea, phi = params.eps_s, params.eps_a, params.phi
        assert params.temperature == 1.0
        for name in ("work_measurement", "work_feedback", "heat_reset", "delta_e_system",
                     "entropy_reduction", "total_work"):
            dev[name].append(abs(getattr(report, name) - oracles[name]))
        dev["energy_conservation"].append(abs(
            report.work_measurement + report.work_feedback + oracles["total_work"]))
        dev["mutual_information"].append(abs(
            correlations.mutual_information_analytic(params)
            - correlations.mutual_information(trace.rho_m)))
        dev["discord_closed_form"].append(abs(
            correlations.discord_analytic(es, phi)
            - (densmat._vn_entropies(trace.rho_m_s) - densmat._vn_entropies(trace.rho0_s))))
        dev["thermal_entropy"].append(abs(
            math.log(2.0) - 0.5 * (math.log1p(-ea) + math.log1p(ea)) - ea * math.atanh(ea)
            - densmat._vn_entropies(trace.rho0_a)))
        dev["purity_transfer"].append(abs(float(densmat._expectation(trace.rho_f_s, trace.rho_f_s)) - 0.5 * (1.0 + ea ** 2)))
        if abs(phi - math.pi / 2) < 1e-12:
            dev["swap_limit"].append(max(
                float(np.max(np.abs(trace.rho_f_s - trace.rho0_a))),
                float(np.max(np.abs(trace.rho_f_a - trace.rho0_s)))))
        s0 = densmat._vn_entropies(trace.rho0)
        dev["entropy_invariance"].append(max(abs(densmat._vn_entropies(trace.rho_m) - s0),
                                             abs(densmat._vn_entropies(trace.rho_f) - s0)))
        dev["reset_marginals"].append(max(
            float(np.max(np.abs(densmat._partial_trace(trace.rho_reset, "S") - trace.rho_f_s))),
            float(np.max(np.abs(densmat._partial_trace(trace.rho_reset, "A") - trace.rho0_a)))))
        z = densmat._expectation(densmat.SIGMA_Z, trace.rho_m_a)
        x = densmat._expectation(densmat.SIGMA_X, trace.rho_m_a)
        dev["post_measurement_ancilla_marginal"].append(
            max(abs(z), abs(x - es * ea * math.cos(phi))))
        if ea > es + 1e-12:
            dev["work_positive"].append(max(0.0, -report.total_work))
        dev["heat_bounds_load"].append(max(0.0, report.cooling_load - report.heat_reset))
        dev["entropy_reduction_nonnegative"].append(max(0.0, -report.entropy_reduction))
        if report.eta is not None:
            dev["eta_bounded"].append(max(0.0, report.eta - 1.0, -report.eta))
        dev["ergotropy_bound"].append(max(
            0.0, report.work_feedback - thermo.ergotropy(trace.rho_m, model.hamiltonian)))
        de = report.delta_e_system
        if abs(de) > 1e-12:
            dev["cooling_window_sign"].append(
                0.0 if (de > 0.0) == (ea * math.sin(phi) > es) else 1.0)
        if math.sin(phi) < es:
            dev["no_cooling_below_bias"].append(max(0.0, de))
        if es > 0.0:
            root = ProtocolParams(es, ea, report.phi_crit)
            dev["phi_crit_root"].append(abs(thermo.figures_of_merit(root).work_feedback))
    return dev


def _reference_suite(grid_n, discord_stride):
    """Every invariant class point by point at T = 1, as the suite ran before it was stacked."""
    grid = verify.standard_grid(grid_n)
    dev = _reference_deviations(grid)
    for start in range(0, len(grid), grid_n):
        series = [thermo.figures_of_merit(p) for p in grid[start:start + grid_n]]
        for lo, hi in zip(series, series[1:]):
            for name in ("cop", "eta", "chi"):
                a, b = getattr(lo, name), getattr(hi, name)
                if a is not None and b is not None:
                    dev[f"{name}_monotone_phi"].append(max(0.0, a - b))
    for eps_s in np.linspace(0.0, 0.9, grid_n)[::discord_stride]:
        for eps_a in np.linspace(eps_s, 0.95, grid_n)[::discord_stride]:
            for phi in np.linspace(0.0, math.pi / 2, grid_n)[::discord_stride]:
                corr = correlations.correlation_report(ProtocolParams(float(eps_s), float(eps_a), float(phi)))
                d_a, d_s, closed = corr.discord_a, corr.discord_s, corr.discord_analytic
                dev["discord_symmetry"].append(abs(d_a - d_s))
                dev["discord_numeric_vs_closed"].append(max(abs(d_a - closed), abs(d_s - closed)))
                if corr.concurrence > 1e-6:
                    dev["entangled_implies_discordant"].append(max(0.0, 1e-9 - d_a))
    return [verify._check(name, verify.CLASSES[name][0], values) for name, values in dev.items()]


@pytest.mark.parametrize("grid_n", [4, 5])
@pytest.mark.parametrize("temperature", [1.0, 2.5])
def test_run_suite_equals_a_per_point_reference(grid_n, temperature):
    # the classes compare the two routes at T = 1, whatever the grid's temperature
    checks = verify.run_suite(grid_n, 3, temperature)
    assert checks == _reference_suite(grid_n, 3)


def test_run_suite_honours_the_temperature():
    # T only decides whether the grid's energies are representable; every check is T-free
    cold = verify.run_suite(grid_n=3)
    hot = verify.run_suite(grid_n=3, temperature=5.0)
    assert all(c.passed for c in hot)
    assert hot == cold
    with pytest.raises(ValueError, match=r"^temperature 1e\+308 makes the cycle energies overflow$"):
        verify.run_suite(grid_n=3, temperature=1e308)
    with pytest.raises(ValueError, match=r"^temperature 5e-324 makes the cycle energies underflow$"):
        verify.run_suite(grid_n=3, temperature=5e-324)


@pytest.mark.parametrize("temperature", [
    1e-314, 1e-300, 1e-100, 1e-6, 0.25, 1.0, 4.0, 1e5, 1e12, 1e100, 1e300])
def test_run_suite_passes_at_any_temperature(temperature):
    # the classes compare the two routes at T = 1, so T moves no check, and at a subnormal
    # T too, where the emitted energies have few significant bits
    checks = verify.run_suite(6, 3, temperature)
    assert [c.name for c in checks if not c.passed] == []
    assert checks == verify.run_suite(6, 3, 1.0)


def test_phi_crit_root_evaluates_one_root_per_phi_series(calls):
    # the root angle depends on (eps_s, eps_a, T) alone: one per series, not per point.
    # The suite evaluates the closed form twice, whatever the grid's size: once on the
    # whole box, then once at every root, each a column whose row is its phi_crit.
    grid_n, energies = 7, calls(closed_forms, "_energies")
    checks = {c.name: c for c in verify.run_suite(grid_n, 3)}
    assert len(energies) == 2
    (box_c, box_r), (c, r) = energies
    assert np.broadcast(box_c.eps_a, box_r.phi).shape == (grid_n,) * 3
    roots = list(zip(c.eps_s.ravel().tolist(), c.eps_a.ravel().tolist(), c.phi_crit.ravel().tolist(),
                     np.broadcast_to(r.phi, c.phi_crit.shape).ravel().tolist()))
    assert 0 < len(roots) <= grid_n ** 2
    assert [phi for *_, phi in roots] == [phi_crit for _, _, phi_crit, _ in roots]
    assert len({(es, ea) for es, ea, *_ in roots}) == len(roots) == grid_n ** 2 - grid_n
    assert checks["phi_crit_root"].points == grid_n ** 3 - grid_n ** 2


def test_matrix_oracles_are_named_as_the_oracle_rows():
    names = list(thermo.matrix_oracles(ProtocolParams(0.4, 0.8, 1.0)))
    assert names == list(sweep._Grid([(0.4, [0.8])], [1.0], 1.0).oracles)
    assert names == list(verify.ORACLE_CLASSES)[:6]
    assert set(names) <= {f.name for f in dataclasses.fields(thermo.ThermoReport)}


def test_matrix_oracles_equal_the_stacked_oracle_rows_bit_for_bit():
    # the grid's oracles run at T = 1 at any grid temperature
    g = sweep._Grid(*verify._standard_axes(3, 1.7))
    for i, point in enumerate(zip(*g.coordinates)):
        oracles = thermo.matrix_oracles(ProtocolParams(*point))
        assert {name: value.hex() for name, value in oracles.items()} == {
            name: float(stack[i]).hex() for name, stack in g.oracles.items()}


def _hex_fields(report) -> list:
    return [v.hex() if type(v) is float else v for v in vars(report).values()]


@pytest.mark.parametrize("series, phis, temperature", [
    # one eps_s and eps_a at two angles: a square grid's rows would repeat the first angle
    ([(0.3, [0.7])], [0.2, 1.2], 1.0),
    # the 13 x 51 landscape axes at eps_s = 0.4
    ([(0.4, np.linspace(0.4, 1.0 - 1e-9, 51).tolist())], np.linspace(0.0, HALF_PI, 13).tolist(), 0.8),
    # two series of one length, with different eps_s and eps_a values
    ([(0.0, [0.0, 0.5, 0.8]), (0.6, [0.6, 0.7, 0.95])], [0.0, 0.9, HALF_PI], 2.0),
], ids=["two-angles", "landscape-13x51", "two-series"])
def test_grid_reports_and_oracles_equal_single_point_calls(series, phis, temperature):
    # every point's report (at the grid's T) and oracle row (at T = 1) is its own point's,
    # whatever the grid's shape
    g = sweep._Grid(series, phis, temperature)
    expected = [(es, ea, phi) for es, eps_a in series for phi in phis for ea in eps_a]
    assert list(zip(*g.coordinates)) == expected
    for i, point in enumerate(zip(*g.coordinates)):
        params = ProtocolParams(*point, temperature)
        assert _hex_fields(g.reports[i]) == _hex_fields(thermo.figures_of_merit(params))
        oracles = thermo.matrix_oracles(ProtocolParams(*point))
        assert {name: value.hex() for name, value in oracles.items()} == {
            name: float(stack[i]).hex() for name, stack in g.oracles.items()}


# ulps of the energy scale (omega_s + omega_a) / 2 by which an energy read from the qubit
# marginals, or a drop of two, may miss tr(H rho) as densmat._expectation takes it; 1.6 seen
ENERGY_ULPS = 4


def _bits(stack) -> tuple:
    a = np.asarray(stack)
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("temperature", [1e-300, 0.8, 1e300])
def test_grid_values_equal_their_direct_computation(temperature):
    # each value the grid computes once equals the call it stands for, bit for bit, but the
    # energy oracles, which meet it within ENERGY_ULPS; the matrix route runs at T = 1
    # whatever the grid's temperature
    g = sweep._Grid(*verify._standard_axes(5, temperature), 3)
    points = [ProtocolParams(*p) for p in zip(*g.coordinates)]
    trace = g.trace
    assert not hasattr(g, "states")  # the trace is the only set of state stacks
    for name, state in vars(trace).items():
        assert _bits(g.spectrum(name)) == _bits(np.linalg.eigvalsh(state)), name
        assert _bits(g.entropy(name)) == _bits(densmat._vn_entropies(state)), name
    assert _bits(g.mutual_info) == _bits(correlations._mutual_information(trace.rho_m))
    assert not hasattr(g, "model")  # no Hamiltonian stack: the energies read the qubit marginals
    models = [thermo.energy_model(p) for p in points]  # at T = 1, as the grid's matrix route

    def drop(field, before, after):
        h = np.array([getattr(m, field) for m in models])
        return densmat._expectation(h, getattr(trace, before)) - densmat._expectation(h, getattr(trace, after))

    per_field = {
        "work_measurement": drop("hamiltonian", "rho0", "rho_m"),
        "work_feedback": drop("hamiltonian", "rho_m", "rho_f"),
        "heat_reset": drop("h_ancilla", "rho_f_a", "rho0_a"),
        "delta_e_system": drop("h_system", "rho0_s", "rho_f_s"),
        "total_work": -drop("hamiltonian", "rho0", "rho_f"),
    }
    # each energy oracle within ENERGY_ULPS of the tr(H rho) drops; the entropy reduction reads
    # the same entropies, bit for bit
    bound = ENERGY_ULPS * np.finfo(float).eps * g.half_splittings.sum(axis=-1)
    for name, oracle in per_field.items():
        assert (np.abs(g.oracles[name] - oracle) <= bound).all(), name
    assert _bits(g.oracles["entropy_reduction"]) == _bits(
        densmat._vn_entropies(trace.rho0_s) - densmat._vn_entropies(trace.rho_f_s))
    assert [tuple(v.hex() for v in half) for half in g.half_splittings.tolist()] == [
        tuple((0.5 * thermo.level_splitting(eps, 1.0)).hex() for eps in (p.eps_s, p.eps_a))
        for p in points]
    assert [d.hex() for d in g.discord_analytic] == [
        correlations.discord_analytic(p.eps_s, p.phi).hex() for p in points]


_PHIS_5 = np.linspace(0.0, HALF_PI, 5).tolist()


@pytest.mark.parametrize("axes", [
    verify._standard_axes(5, 1e-300),
    verify._standard_axes(5, 0.8),
    verify._standard_axes(5, 1e300),
    ([(0.0, np.linspace(0.0, verify.EPS_A_MAX, 5).tolist())], _PHIS_5, 0.8),
    ([(es, [es]) for es in np.linspace(0.0, verify.EPS_S_MAX, 5).tolist()], _PHIS_5, 0.8),
], ids=["T=1e-300", "T=0.8", "T=1e300", "eps_s=0", "eps_s=eps_a"])
def test_ergotropy_bound_pairs_rho_m_with_the_ascending_levels_of_H(calls, axes):
    # the passive state pairs rho_m's descending eigenvalues with H's ascending levels, which
    # the grid writes from its half splittings as those of |11>, |01>, |10>, |00> (ascending
    # where eps_s <= eps_a), not by eigvalsh; H is at T = 1 whatever the grid's temperature, so
    # the grid's ergotropy meets the public one within ENERGY_ULPS at every T, its energy
    # tr(H rho_m) being read from the qubit marginals
    g, real = sweep._Grid(*axes), thermo._ergotropy
    ergotropies = calls(thermo, "_ergotropy")
    verify._ergotropy_bound(g)
    [(energy, levels, spectrum)] = ergotropies
    models = [thermo.energy_model(ProtocolParams(*p)) for p in zip(*g.coordinates)]
    # np.sort keeps tied levels in place; the one tie of unequal bits, the four zeros at
    # eps_s = eps_a = 0, one of them -0.0, is taken in IEEE total order, -0.0 first
    ascending = [sorted(np.diagonal(m.hamiltonian).real.tolist(), key=lambda e: (e, math.copysign(1.0, e)))
                 for m in models]
    assert np.array_equal(np.sort([np.diagonal(m.hamiltonian).real for m in models]), ascending)
    assert _bits(levels) == _bits(np.array(ascending))
    grid = real(energy, levels, spectrum)
    public = np.array([thermo.ergotropy(rho, m.hamiltonian) for rho, m in zip(g.trace.rho_m, models)])
    assert (np.abs(grid - public) <= ENERGY_ULPS * np.finfo(float).eps * g.half_splittings.sum(axis=-1)).all()


# The one bit pin of run_suite and point_checks: repr(Check) per class, as
# tests/make_suite_reprs.py writes it (rerun it only for a deliberate change of
# a deviation).  Since the suite compares both routes at T = 1, it pins one T
# per stratum, and the benchmark's strata at T = 1 and at both ends of the range
# of T the suite accepts read their T = 0.8 pin.
SUITE_REPRS = json.loads((pathlib.Path(__file__).parent / "suite_reprs.json").read_text())


@pytest.mark.parametrize("stratum", [
    *(key(*s) for s in STRATA),
    *(key(n, stride, t) for t in (1e-300, 1.0, 1e300) for n, stride in BENCH_STRATA)])
def test_run_suite_reprs_are_unchanged(stratum):
    n, stride, temperature = stratum.split()
    checks = verify.run_suite(int(n), int(stride), float(temperature))
    pinned = stratum if stratum in SUITE_REPRS else key(int(n), int(stride), 0.8)
    assert [repr(c) for c in checks] == SUITE_REPRS[pinned]


@pytest.mark.parametrize("point", POINTS, ids=lambda p: point_key(*p))
def test_point_checks_reprs_are_unchanged(point):
    # what run --verify prints: the oracle classes, the numeric discords and the trace block
    checks = verify.point_checks(ProtocolParams(*point))
    assert [repr(c) for c in checks] == SUITE_REPRS[point_key(*point)]


def _perturbed_reset_state(real):
    # rho_reset off by 1e-9 on two diagonal entries: both its marginals move
    def run_protocols(*columns):
        trace = real(*columns)
        return dataclasses.replace(
            trace, rho_reset=trace.rho_reset + np.diag([1e-9, 0.0, 0.0, -1e-9]))
    return run_protocols


def _perturbed_reset_ancilla(real):
    # the reset hands the ancilla a thermal state 1e-9 off in bias, as the
    # expression the reset is built from would if it were wrong
    return lambda eps: real(np.asarray(eps) + 1e-9)


@pytest.mark.parametrize("target, perturbed", [
    ("_run_protocols", _perturbed_reset_state),
    ("_thermal_qubits", _perturbed_reset_ancilla),
], ids=["state", "ancilla"])
def test_reset_marginals_fails_on_a_perturbed_reset(monkeypatch, target, perturbed):
    monkeypatch.setattr(protocol, target, perturbed(getattr(protocol, target)))
    checks = {c.name: c for c in verify.run_suite(grid_n=3)}
    assert not checks["reset_marginals"].passed
    assert 1e-10 < checks["reset_marginals"].max_deviation < 2e-9


@pytest.mark.parametrize("temperature", [-1.0, math.nan, math.inf])
def test_run_suite_rejects_a_bad_temperature(temperature):
    with pytest.raises(ValueError, match="temperature"):
        verify.run_suite(grid_n=2, temperature=temperature)


@pytest.mark.parametrize("call, argument", [
    (lambda: verify.run_suite(grid_n=1), "grid_n"),
    (lambda: verify.run_suite(grid_n=2.5), "grid_n"),
    (lambda: verify.run_suite(grid_n=3, discord_stride=0), "discord_stride"),
    (lambda: verify.run_suite(grid_n=3, discord_stride=1.5), "discord_stride"),
    (lambda: verify.standard_grid(2.5), "n"),
    (lambda: verify.standard_grid(-1), "n"),
])
def test_run_suite_and_standard_grid_reject_bad_counts(call, argument):
    with pytest.raises(ValueError, match=f"^{argument} must"):
        call()


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("call, argument", [
    (lambda flag: verify.run_suite(flag), "grid_n"),
    (lambda flag: verify.run_suite(4, flag), "discord_stride"),
    (lambda flag: verify.standard_grid(flag), "n"),
])
def test_a_bool_count_is_not_an_integer(call, argument, flag):
    # True and False are numbers.Integral; a count refuses them as it refuses np.True_
    with pytest.raises(ValueError, match=f"^{argument} must be an integer, got {flag}$"):
        call(flag)


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("temperature", [-1.0, 0.0, math.nan, math.inf])
def test_standard_grid_rejects_a_bad_temperature_at_every_size(n, temperature):
    # the empty grid checks T as every other size does
    with pytest.raises(ValueError, match="temperature"):
        verify.standard_grid(n, temperature=temperature)


def test_empty_standard_grid_at_a_good_temperature():
    assert verify.standard_grid(0, temperature=2.0) == []


def test_numpy_integer_counts_equal_int_counts():
    assert verify.standard_grid(np.int64(3)) == verify.standard_grid(3)
    assert verify.run_suite(np.int64(3), np.int32(2)) == verify.run_suite(3, 2)


def _discord_numbers(grid) -> list[tuple]:
    """(discord_a, discord_s, discord_analytic, concurrence, mutual_info) of each point of the
    discord subgrid, as the grid holds them, in hex."""
    s = grid.discord_stride
    mutual_info = grid.mutual_info.reshape(grid.shape)[::s, ::s, ::s].ravel()
    return [tuple(float(v).hex() for v in values) for values in zip(*grid.discords, mutual_info, strict=True)]


def _report_numbers(params) -> tuple:
    """The numbers of ``correlation_report(params)`` that ``_discord_numbers`` gives, in hex."""
    r = correlations.correlation_report(params)
    return tuple(v.hex() for v in (r.discord_a, r.discord_s, r.discord_analytic, r.concurrence, r.mutual_info))


def test_discord_subgrid_reports_are_the_reports_run_emits():
    # the discord classes check exactly the numbers of the CorrelationReport of run, as arrays
    n, stride = 4, 3
    grid = sweep._Grid(*verify._standard_axes(n, 2.0), stride)
    # every stride-th value of each axis, in the grid's (eps_s, phi, eps_a) order
    phis = np.linspace(0.0, HALF_PI, n).tolist()[::stride]
    covered = [ProtocolParams(es, ea, phi, 2.0) for es in np.linspace(0.0, 0.9, n).tolist()[::stride]
               for phi in phis for ea in np.linspace(es, 0.95, n).tolist()[::stride]]
    assert all(type(x) is np.ndarray and x.shape == (len(covered),) for x in grid.discords)
    assert len(covered) == 8
    assert _discord_numbers(grid) == [_report_numbers(params) for params in covered]


@pytest.mark.parametrize("n, stride", [(4, 2), (5, 3), (7, 3), (3, 5)])
def test_discord_subgrid_is_every_stride_th_index_of_each_axis(n, stride):
    # the (series, phi, eps_a) box read at every stride-th index of each axis, in that order
    series, phis, temperature = verify._standard_axes(n, 1.0)
    covered = [ProtocolParams(es, ea, phi, temperature)
               for i, (es, eps_a) in enumerate(series) if i % stride == 0
               for j, phi in enumerate(phis) if j % stride == 0
               for k, ea in enumerate(eps_a) if k % stride == 0]
    grid = sweep._Grid(series, phis, temperature, stride)
    assert grid.shape == (n, n, n)
    assert _discord_numbers(grid) == [_report_numbers(p) for p in covered]


def _nested_rises(g, field: str) -> list[float]:
    """The rise of ``field`` between neighbouring phi, walked series by series and column by column."""
    values, rises = iter(getattr(r, field) for r in g.reports), []
    for columns in g.columns:
        rows = [[next(values) for _ in columns] for _ in g.rows]
        rises += [max(0.0, a - b) for column in zip(*rows) for a, b in zip(column, column[1:])
                  if a is not None and b is not None]
    return rises


@pytest.mark.parametrize("series, phis", [
    verify._standard_axes(5, 1.0)[:2],
    verify._standard_axes(12, 1.0)[:2],
    ([(0.4, np.linspace(0.4, 1.0 - 1e-9, 51).tolist())], np.linspace(0.0, HALF_PI, 13).tolist()),
], ids=["standard-5", "standard-12", "landscape-13x51"])
@pytest.mark.parametrize("field", ["cop", "eta", "chi"])
def test_monotone_in_phi_deviations_equal_the_nested_walk(series, phis, field):
    g = sweep._Grid(series, phis, 1.0)
    if len(series) > 1:
        assert any(getattr(r, field) is None for r in g.reports)  # the reversible points
    rises = verify._monotone_in_phi(field)(g)
    assert all(type(d) is float for d in rises)
    assert [d.hex() for d in sorted(rises)] == [d.hex() for d in sorted(_nested_rises(g, field))]


def test_point_checks_share_the_suite_tolerances():
    suite = {c.name: c.tolerance for c in verify.run_suite(grid_n=2)}
    point = verify.point_checks(ProtocolParams(0.4, 0.8, 1.0))
    # the oracle classes, the two numeric-discord classes, then the trace block's own
    assert [c.name for c in point] == [*verify.ORACLE_CLASSES, "discord_symmetry",
                                       "discord_numeric_vs_closed", "trace_summary"]
    for check in point[:-1]:
        assert check.tolerance == suite[check.name]
    assert point[-1].tolerance == verify.TOL_MARGINAL
    assert {c.name: c.tolerance for c in point}["thermal_entropy"] == verify.TOL_ENTROPY_FORM


def _trace_deviation(params):
    """The largest deviation of the closed-form trace block from ``run_protocol``'s
    matrices, each number from the single-state kernels."""
    closed, worst = closed_forms._trace_summary(params.eps_s, params.eps_a, params.phi), 0.0
    for name, rho in vars(protocol.run_protocol(params)).items():
        qubit = rho.shape == (2, 2)
        summary = closed["marginals"][name] if qubit else closed[name]
        assert set(summary) == {"purity", "entropy", *(["bloch"] if qubit else [])}
        pairs = [(summary["purity"], densmat._expectation(rho, rho)),
                 (summary["entropy"], densmat._vn_entropies(rho))]
        if qubit:
            pairs += zip(summary["bloch"], [densmat._expectation(s, rho) for s in densmat.PAULI])
        worst = max(worst, *(abs(c - float(m)) for c, m in pairs))
    return worst


def _trace_oracle_docs(g):
    """The trace-block oracle as it was before it was stacked: one nested dict per point,
    kept as the reference for the stacked array's column order."""
    docs = [{"marginals": {}} for _ in range(math.prod(g.shape))]
    for name, stack in vars(g.trace).items():
        purity, entropy = densmat._purity(stack).tolist(), g.entropy(name).tolist()
        if stack.shape[-1] == 4:
            for doc, p, s in zip(docs, purity, entropy):
                doc[name] = {"purity": p, "entropy": s}
            continue
        bloch = np.stack([densmat._expectation(s, stack) for s in densmat.PAULI], axis=-1).tolist()
        for doc, p, s, b in zip(docs, purity, entropy, bloch):
            doc["marginals"][name] = {"purity": p, "entropy": s, "bloch": b}
    return docs


@pytest.mark.parametrize("temperature", [1e-300, 1.0, 1e300])
def test_trace_summary_passes_on_a_many_point_grid(temperature):
    g = sweep._Grid(*verify._standard_axes(6, temperature))
    checks = verify._checks({"trace_summary": verify._POINT_CLASSES["trace_summary"]}, g)
    assert [(c.name, c.points, c.tolerance, c.passed) for c in checks] == [
        ("trace_summary", 216, verify.TOL_MARGINAL, True)]
    # each point's worst deviation, as the per-point blocks gave it
    assert [d.hex() for d in verify._trace_summary(g)] == [
        max(abs(c - m) for c, m in zip(verify._numbers(closed_forms._trace_summary(*p)),
                                       verify._numbers(doc), strict=True)).hex()
        for p, doc in zip(zip(*g.coordinates), _trace_oracle_docs(g), strict=True)]


def test_bloch_components_from_entries_are_the_pauli_expectations_bit_for_bit():
    # every 2x2 field of the 12^3 trace, and entries that run through the signed zeros
    fields = [stack for stack in vars(sweep._Grid(*verify._standard_axes(12, 1.0)).trace).values()
              if stack.shape[-1] == 2]
    assert len(fields) == 6
    entries = [0.0, -0.0, 0.25, -1e-300]
    fields.append(np.array([[[complex(a, b), complex(c, d)], [complex(e, f), complex(a, -b)]]
                            for a, b, c, d, e, f in itertools.product(entries, repeat=6)]))
    for stack in fields:
        for sigma, component in zip(densmat.PAULI, densmat._bloch(stack), strict=True):
            assert component.tobytes() == densmat._expectation(sigma, stack).tobytes()


@pytest.mark.parametrize("series, phis", [
    verify._standard_axes(6, 1.0)[:2],
    ([(0.0, [0.0, 0.5, 1.0 - 1e-9])], [0.0, 0.7, HALF_PI]),
    ([(0.6, [0.6, 0.9])], [0.0, HALF_PI]),
], ids=["standard-6", "eps_s-zero", "phi-ends"])
def test_trace_oracles_are_the_per_point_blocks_in_reading_order(series, phis):
    # column k of the stacked oracle is the k-th number _numbers reads from a point's block
    g = sweep._Grid(series, phis, 1.0)
    stacked = verify._trace_oracles(g)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (math.prod(g.shape), 38)
    assert [[v.hex() for v in row] for row in stacked.tolist()] == [
        [v.hex() for v in verify._numbers(doc)] for doc in _trace_oracle_docs(g)]


def test_point_checks_equal_the_oracle_classes_on_a_one_point_grid():
    params = ProtocolParams(0.3, 0.7, 1.2, 0.8)
    point = verify.point_checks(params)
    dev = _reference_deviations([dataclasses.replace(params, temperature=1.0)])
    report = correlations.correlation_report(params)  # both numeric discords of the point
    dev["discord_symmetry"] = [abs(report.discord_a - report.discord_s)]
    dev["discord_numeric_vs_closed"] = [max(abs(d - report.discord_analytic)
                                            for d in (report.discord_a, report.discord_s))]
    dev["trace_summary"] = [_trace_deviation(params)]
    assert point == [verify._check(name, tolerance, dev[name])
                     for name, (tolerance, _) in verify._POINT_CLASSES.items()]


def test_check_without_points_reports_zero_deviation():
    check = verify._check("entangled_implies_discordant", 0.0, [])
    assert (check.points, check.max_deviation, check.passed) == (0, 0.0, True)



@pytest.mark.parametrize("values, worst", [
    ([], "0.0"),
    ([-0.0], "0.0"),
    ([0.0, -0.0, 0.0], "0.0"),
    ([-0.0, 2.5e-16, 1e-300], "2.5e-16"),
    ([0.0, float("nan"), 1e-15], "nan"),
    ([float("nan")], "nan"),
    ([3.0, 1e-12, 7.0], "7.0"),
], ids=["empty", "negative-zero", "zeros", "positive", "nan", "only-nan", "large"])
def test_check_of_an_array_is_the_check_of_its_list(values, worst):
    # a class may return an array or a list; the Check is the same, down to its repr, and its
    # max_deviation a Python float (an np.float64 would change the pinned reprs)
    listed = verify._check("work_feedback", verify.TOL_CLOSED_FORM, values)
    arrayed = verify._check("work_feedback", verify.TOL_CLOSED_FORM, np.array(values, dtype=float))
    assert repr(arrayed) == repr(listed) == (
        f"Check(name='work_feedback', points={len(values)}, max_deviation={worst}, tolerance=1e-10)")
    assert type(arrayed.max_deviation) is float and type(arrayed.points) is int


def test_check_fails_on_a_nan_deviation():
    check = verify._check("work_feedback", verify.TOL_CLOSED_FORM, [0.0, float("nan"), 1e-15])
    assert math.isnan(check.max_deviation)
    assert not check.passed


def test_checks_score_a_class_table_of_their_own():
    # a class outside CLASSES and _POINT_CLASSES is scored by the tolerance its table gives
    grid = sweep._Grid([(0.3, (0.7,))], (1.2,), 1.0)
    checks = verify._checks({"extra": (1e-3, lambda g: [5e-4, 2e-3])}, grid)
    assert checks == [verify.Check(name="extra", points=2, max_deviation=2e-3, tolerance=1e-3)]
    assert not checks[0].passed


@pytest.mark.parametrize("field", ["heat_reset", "work_feedback", "entropy_reduction"])
def test_oracle_classes_check_the_emitted_reports(corrupt_closed_form, field):
    # the reports run and sweep print (figures_of_merit's record and a grid's box,
    # both from the shared closed forms) carry a corrupted value; the matrix oracles stay honest
    corrupt_closed_form(field, 1e-6)
    checks = {c.name: c for c in verify.point_checks(ProtocolParams(0.4, 0.8, 1.0))}
    assert [name for name, c in checks.items() if not c.passed] == (
        [field, "energy_conservation"] if field == "work_feedback" else [field])
    # the class reads the reports alone: 1e-6 off the oracle
    assert checks[field].max_deviation == pytest.approx(1e-6, rel=1e-6)
