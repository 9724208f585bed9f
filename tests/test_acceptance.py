"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured numbers (run with -s to see them live).
"""

import inspect
import json
import math
import time

import numpy as np

from qfcool import cli, correlations, thermo, verify
from qfcool.correlations import discord_analytic, discord_numeric
from qfcool.densmat import purity
from qfcool.protocol import ProtocolParams, run_protocol, thermal_qubit
from qfcool.thermo import energy_model, ergotropy, figures_of_merit, work_feedback

HALF_PI = math.pi / 2


def _report(number, description, ok):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def grid12():
    for es in np.linspace(0.0, 0.9, 12):
        for ea in np.linspace(es, 0.95, 12):
            for phi in np.linspace(0.0, HALF_PI, 12):
                yield ProtocolParams(float(es), float(ea), float(phi))


def test_criterion_1_discord_threshold(capsys):
    start = time.monotonic()
    code = cli.main(["threshold", "--eps-s", "0.4"])
    elapsed = time.monotonic() - start
    value = json.loads(capsys.readouterr().out)["delta_min"]
    with capsys.disabled():
        _report(1, f"threshold --eps-s 0.4 -> {value:.6f} nats "
                   f"(target 0.0135 +- 5e-4) in {elapsed:.2f} s",
                code == 0 and abs(value - 1.35e-2) <= 5e-4 and elapsed < 1.0)


def test_criterion_2_chi_optimal_bias(capsys):
    start = time.monotonic()
    code = cli.main(["optimize", "--objective", "chi", "--eps-s", "0.4",
                     "--phi", str(HALF_PI)])
    elapsed = time.monotonic() - start
    star = json.loads(capsys.readouterr().out)["working_point"]["eps_a_star"]
    with capsys.disabled():
        _report(2, f"chi-optimal ancilla bias {star:.4f} "
                   f"(target [0.75, 0.95]) in {elapsed:.2f} s",
                code == 0 and 0.75 <= star <= 0.95 and elapsed < 5.0)


def test_criterion_3_swap_limit(capsys):
    worst = 0.0
    for es in np.linspace(0.0, 0.9, 12):
        for ea in np.linspace(es, 0.95, 12):
            trace = run_protocol(ProtocolParams(float(es), float(ea), HALF_PI))
            worst = max(
                worst,
                float(np.max(np.abs(trace.rho_f_s - thermal_qubit(float(ea))))),
                float(np.max(np.abs(trace.rho_f_a - thermal_qubit(float(es))))))
    with capsys.disabled():
        _report(3, f"x-measurement swaps the marginals, max deviation {worst:.2e}"
                   " (tolerance 1e-10)", worst <= 1e-10)


def test_criterion_4_purity_transfer(capsys):
    worst = 0.0
    for params in grid12():
        trace = run_protocol(params)
        target = 0.5 * (1.0 + params.eps_a ** 2)
        worst = max(worst, abs(purity(trace.rho_f_s) - target))
    with capsys.disabled():
        _report(4, f"register purity equals (1 + eps_a^2)/2 on the 12^3 grid,"
                   f" max deviation {worst:.2e} (tolerance 1e-10)", worst <= 1e-10)


def test_criterion_5_closed_forms_vs_oracle_suite(capsys):
    start = time.monotonic()
    checks = verify.run_suite(grid_n=12, discord_stride=3)
    elapsed = time.monotonic() - start
    by_name = {c.name: c for c in checks}
    closed_form_names = [
        "thermal_entropy", "entropy_reduction", "work_measurement",
        "work_feedback", "heat_reset", "delta_e_system",
        "discord_closed_form", "mutual_information",
    ]
    closed_ok = all(by_name[name].passed for name in closed_form_names)
    all_ok = all(c.passed for c in checks)
    worst = max(by_name[name].max_deviation for name in closed_form_names)

    # spot-check the regenerated sweep/landscape data against the stated
    # qualitative features: cooling-window boundary, zero-entanglement
    # region at low phi, iso-discord columns
    from qfcool.sweep import SweepGrid, landscape
    grid = SweepGrid(0.4, tuple(np.linspace(0.0, HALF_PI, 9)),
                     tuple(np.linspace(0.4, 0.95, 8)))
    land = landscape(grid, quantities={"thermo", "correlations"})
    boundary_ok = all(
        abs(thermo.delta_e_system(ProtocolParams(0.4, b.eps_a, b.phi))) <= 1e-9
        for b in land.cooling_window_boundary)
    low_phi = [pt for pt in land.points if pt.phi == 0.0]
    high_phi = [pt for pt in land.points if abs(pt.phi - HALF_PI) < 1e-12]
    entanglement_ok = (
        all(pt.correlations.concurrence <= 1e-12 for pt in low_phi)
        and all(pt.correlations.concurrence > 1e-6
                for pt in high_phi if pt.eps_a > 0.45))
    by_phi = {}
    for pt in land.points:
        by_phi.setdefault(pt.phi, []).append(pt.correlations.discord_analytic)
    iso_ok = all(max(vals) - min(vals) <= 1e-15 for vals in by_phi.values())

    with capsys.disabled():
        _report(5, f"closed forms vs matrix oracles on the 12^3 grid, max"
                   f" deviation {worst:.2e} (tolerance 1e-10), suite {elapsed:.1f} s"
                   f" (< 60 s); boundary/entanglement/iso-discord features hold",
                closed_ok and all_ok and elapsed < 60.0
                and boundary_ok and entanglement_ok and iso_ok)


def test_criterion_6_thermodynamic_inequalities(capsys):
    ok = True
    min_gap_at_x = math.inf
    for params in grid12():
        report = figures_of_merit(params)
        if params.eps_a > params.eps_s + 1e-12 and report.total_work <= 0.0:
            ok = False
        if report.heat_reset < report.cooling_load - 1e-12:
            ok = False
        if report.entropy_reduction < -1e-15:
            ok = False
        if report.eta is not None and not -1e-12 <= report.eta <= 1.0 + 1e-12:
            ok = False
        trace = run_protocol(params)
        bound = ergotropy(trace.rho_m, energy_model(params).hamiltonian)
        if bound < report.work_feedback - 1e-12:
            ok = False
        # at eps_a == eps_s the x-measurement swap is reversible and does
        # retrieve the full ergotropy; strictness holds for eps_a > eps_s
        if abs(params.phi - HALF_PI) < 1e-12 and params.eps_a > params.eps_s + 1e-12:
            min_gap_at_x = min(min_gap_at_x, bound - report.work_feedback)
    strict = min_gap_at_x > 1e-6
    with capsys.disabled():
        _report(6, "W > 0 for eps_a > eps_s; Q >= P; entropy reduction >= 0;"
                   f" ergotropy bounds feedback work (min x-measurement gap"
                   f" {min_gap_at_x:.3e})", ok and strict)


def test_criterion_7_discord_properties(capsys):
    ok = True
    worst_sym = 0.0
    worst_closed = 0.0
    for es in (0.2, 0.4, 0.7):
        for ea in (max(0.45, es + 0.05), 0.9):
            for phi in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, HALF_PI):
                rho_m = run_protocol(ProtocolParams(es, ea, phi)).rho_m
                d_a = discord_numeric(rho_m, "A")
                d_s = discord_numeric(rho_m, "S")
                worst_sym = max(worst_sym, abs(d_a - d_s))
                worst_closed = max(worst_closed, abs(d_a - discord_analytic(es, phi)))
    if worst_sym > 1e-6 or worst_closed > 1e-6:
        ok = False
    if "eps_a" in inspect.signature(discord_analytic).parameters:
        ok = False
    for es in (0.2, 0.5, 0.8):
        values = [discord_analytic(es, float(p)) for p in np.linspace(0.0, HALF_PI, 30)]
        if any(b < a - 1e-15 for a, b in zip(values, values[1:])):
            ok = False
        if abs(discord_analytic(es, 0.0)) > 1e-15:
            ok = False
    with capsys.disabled():
        _report(7, f"discord symmetric (max gap {worst_sym:.2e}), matches the"
                   f" closed form (max gap {worst_closed:.2e}), eps_a-free,"
                   " monotone in phi, zero at phi = 0", ok)


def test_criterion_8_feedback_work_sign_resolution(capsys):
    params = ProtocolParams(0.4, 0.8, HALF_PI)
    y = 0.8 * math.atanh(0.4) + 0.4 * math.atanh(0.8)
    closed = work_feedback(params)
    oracle = thermo.matrix_oracles(params)["work_feedback"]
    sign_ok = abs(closed - y) <= 1e-10 and abs(oracle - y) <= 1e-10 and closed > 0

    # the sign change sits exactly at the threshold angle
    pc = thermo.phi_crit(ProtocolParams(0.4, 0.8, 0.0))
    lo, hi = 0.0, HALF_PI
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if work_feedback(ProtocolParams(0.4, 0.8, mid)) < 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    root_ok = abs(root - pc) <= 1e-9
    with capsys.disabled():
        _report(8, f"feedback work at the x-measurement is +{closed:.6f}"
                   f" (= matrix oracle, = cross-bias term); sign change at"
                   f" phi = {root:.9f} vs threshold {pc:.9f}",
                sign_ok and root_ok)
