"""``figures_of_merit`` against the 50-digit referee at fixed interior and
edge points: the entropy reduction ``P``, the total work ``W / T`` and the
COP ``P / W``, each within an absolute bound and, where it is nonzero, a
relative one."""

import math

import mpmath
import pytest

from qfcool.closed_forms import ProtocolParams, figures_of_merit

import referee

ABS_TOL = 1e-15  # times max(1, |exact|)
REL_TOL = 1e-14


def _known_defect(reason):
    return {"marks": pytest.mark.xfail(strict=True, reason=f"ROADMAP item 3: {reason}")}


@pytest.mark.parametrize("eps_s,eps_a,phi,temperature", [
    (0.3, 0.9, 1.2, 1.0),
    (0.1, 0.3, 0.8, 1.0),
    (0.6, 0.95, 0.4, 1.0),
    (0.2, 0.8, 1.0, 0.25),
    (0.2, 0.8, 1.0, 7.0),
    (0.0, 0.5, 0.0, 1.0),
    (0.4, 0.4, 0.0, 1.0),  # P = 0, so cop = 0
    (0.0, 0.7, math.pi / 2, 1.0),
    pytest.param(0.0, 1.0 - 1e-8, 1.0, 1.0, **_known_defect(
        "P cancels near unit ancilla bias (off by 2.8e-10)")),
    pytest.param(0.4, 0.4 + 1e-15, math.pi / 2 - 1e-3, 1.0, **_known_defect(
        "P and W cancel at the reversible corner (P and cop off by 11.5% relative)")),
])
def test_figures_of_merit_match_the_referee(eps_s, eps_a, phi, temperature):
    report = figures_of_merit(ProtocolParams(eps_s, eps_a, phi, temperature))
    with mpmath.workdps(referee.DPS):
        p, _, w = referee._energies(eps_s, eps_a, phi)
        for name, value, exact in (("entropy_reduction", report.entropy_reduction, p),
                                   ("total_work / T", report.total_work / temperature, w),
                                   ("cop", report.cop, p / w)):
            error = abs(value - exact)
            assert error <= ABS_TOL * max(1, abs(exact)), (name, value, exact)
            if exact:
                assert error <= REL_TOL * abs(exact), (name, value, exact)
