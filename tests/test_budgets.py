"""Call budgets as one table: a call, the ``(owner, name)`` pairs the ``calls`` fixture probes,
each with an exact count or an inclusive ``(least, most)`` range, and the reason. A call asserts its result."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

from qfcool import cli, closed_forms, correlations, protocol, sweep, verify
from qfcool.protocol import ProtocolParams
from qfcool.sweep import SweepGrid, landscape, separability_boundary

HALF_PI, TOP = math.pi / 2, 1.0 - sweep.EPS_A_CLAMP


def _eig(eigvalsh, eigh):
    return {(np.linalg, "eigvalsh"): eigvalsh, (np.linalg, "eigh"): eigh}


def _suite(n):
    def call():
        assert all(c.passed for c in verify.run_suite(n, 3))
    return call


def _per_point(n):  # n series of n eps_a columns
    return {(closed_forms, "_record"): 0, (closed_forms, "level_splitting"): (1, 2 * n * n),
            (closed_forms, "thermal_entropy"): (n ** 3 + 1, n ** 3 + 5 * n * n)}


def _landscape(n_phi, n_eps_a, temperature=1.0):
    phis, eps_a = tuple(np.linspace(0.0, HALF_PI, n_phi)), tuple(np.linspace(0.4, TOP, n_eps_a))
    result = landscape(SweepGrid(0.4, phis, eps_a, temperature), {"thermo", "correlations"})
    assert len(result.points) == n_phi * n_eps_a and result.work_extraction_boundary


def _run_verify():
    with contextlib.redirect_stdout(out := io.StringIO()):
        code = cli.main(["run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0", "--verify"])
    assert (code, json.loads(out.getvalue())["verification"]["passed"]) == (0, True)


SUITE = "one eigensolver call per stacked spectrum, whatever the grid's size"
ROOTS = "the closed forms once on the grid's box and once at the phi_crit roots"
BOX = ("no record, not even on the discord subgrid; level splittings per column; of the thermal "
       "entropies only the mutual information's S(eps_s eps_a cos phi) per point")
BUDGETS = [
    pytest.param(_suite(4), {**_eig(8, 4), (closed_forms, "_energies"): 2},
                 f"{SUITE}; {ROOTS}", id="run_suite-4"),
    pytest.param(_suite(7), {**_eig(8, 4), (closed_forms, "_energies"): 2, **_per_point(7)},
                 f"{SUITE}; {ROOTS}; {BOX}", id="run_suite-7"),
    pytest.param(_suite(12), {**_eig(8, 4), **_per_point(12),
                              (correlations, "_conditional_entropy_scan"): (1, 150)},
                 f"{SUITE}; {BOX}; the discord subgrid's 64 states x 2 sides in 32 seed calls of 4 rows "
                 "and a few Newton steps of one call each (one zoom search per row made 2944)",
                 id="run_suite-12"),
    pytest.param(lambda: verify.point_checks(ProtocolParams(0.4, 0.8, 1.0)),
                 {**_eig(10, 4), (closed_forms, "_energies"): 1},
                 "run --verify: one spectrum per trace field, shared with the oracles' entropy reduction "
                 "and the mutual information; the closed forms once", id="point_checks"),
    pytest.param(lambda: _landscape(25, 101), {(closed_forms, "discord_analytic"): 25, (closed_forms, "_phi_crit"): 101},
                 "one closed-form discord per phi row, one threshold angle per eps_a column",
                 id="landscape-25x101"),
    pytest.param(lambda: _landscape(17, 31, 0.8), _eig(9, 9),
                 "527 points in 3 chunks: 3 eigh (two square roots and the flip spectrum) and "
                 "3 eigvalsh (both marginals and the joint state) each", id="landscape-527"),
    pytest.param(lambda: [separability_boundary(*p) for p in ((0.4, 0.8), (0.0, 0.5), (0.05, TOP))],
                 _eig(0, 0), "the separability boundary is a closed form", id="separability_boundary"),
    pytest.param(_run_verify, {(protocol, "_measured"): 1},
                 "the trace, both reports and the oracle checks of run --verify read one grid",
                 id="run-verify"),
]


@pytest.mark.parametrize("call, budget, reason", BUDGETS)
def test_call_budget(calls, call, budget, reason):
    recorded = {probe: calls(*probe) for probe in budget}
    call()
    for (owner, name), want in budget.items():
        least, most = want if isinstance(want, tuple) else (want, want)
        count = len(recorded[owner, name])
        assert least <= count <= most, (name, count, reason)


def test_the_probe_records_each_call_once_under_every_binding(calls, monkeypatch):
    # sweep calls correlations.discord_analytic, which closed_forms defines
    analytic, phi_crit = closed_forms.discord_analytic, closed_forms._phi_crit
    discords, roots = calls(closed_forms, "discord_analytic"), calls(closed_forms, "_phi_crit")
    assert correlations.discord_analytic is closed_forms.discord_analytic is not analytic
    landscape(SweepGrid(0.4, (0.0, 0.7), (0.5, 0.6, 0.8)), {"thermo", "correlations"})
    assert discords == [(0.4, 0.0), (0.4, 0.7)]
    assert [args[:2] for args in roots] == [(0.4, 0.5), (0.4, 0.6), (0.4, 0.8)]
    monkeypatch.undo()
    assert (correlations.discord_analytic, closed_forms.discord_analytic, closed_forms._phi_crit) == (
        analytic, analytic, phi_crit)
