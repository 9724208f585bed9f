import math

from qfcool import protocol, verify
from qfcool.protocol import ProtocolParams


def test_run_suite_simulates_each_grid_point_once(monkeypatch):
    calls = []
    real = protocol.run_protocol
    monkeypatch.setattr(protocol, "run_protocol",
                        lambda params: calls.append(params) or real(params))
    checks = verify.run_suite(grid_n=3, discord_stride=2)
    assert calls == verify.standard_grid(3)
    assert all(c.passed for c in checks)


def test_point_checks_share_the_suite_tolerances():
    suite = {c.name: c.tolerance for c in verify.run_suite(grid_n=2)}
    point = verify.point_checks(ProtocolParams(0.4, 0.8, 1.0))
    assert [c.name for c in point] == list(suite)[:len(point)]
    for check in point:
        assert check.tolerance == suite[check.name]
    assert {c.name: c.tolerance for c in point}["thermal_entropy"] == verify.TOL_ENTROPY_FORM


def test_point_checks_reuse_a_given_trace():
    params = ProtocolParams(0.3, 0.7, 1.2)
    trace = protocol.run_protocol(params)
    assert verify.point_checks(params, trace) == verify.point_checks(params)


def test_check_without_points_reports_zero_deviation():
    check = verify._check("entangled_implies_discordant", [])
    assert (check.points, check.max_deviation, check.passed) == (0, 0.0, True)



def test_check_fails_on_a_nan_deviation():
    check = verify._check("work_feedback", [0.0, float("nan"), 1e-15])
    assert math.isnan(check.max_deviation)
    assert not check.passed
