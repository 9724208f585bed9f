"""The working point of ``optimize`` against a 50-digit referee, and its
independence of the temperature."""

import json
import math

import mpmath
import pytest

from qfcool import cli, closed_forms
from qfcool.closed_forms import OBJECTIVES, ProtocolParams, figures_of_merit, optimize_working_point

import referee

HALF_PI = math.pi / 2
TOP = 1.0 - closed_forms.EPS_A_CLAMP
TEMPERATURES = (1e-300, 1e-20, 0.25, 4.0, 1e20, 1e300)


def draws(rng, n):
    """Seeded (objective, eps_s, phi) triples away from the reversible corner."""
    return [(OBJECTIVES[i % 3], float(rng.uniform(0.02, 0.9)), float(rng.uniform(0.1, 1.5)))
            for i in range(n)]


def test_working_point_is_the_referee_root_of_the_derivative(rng):
    interior = 0
    for objective, eps_s, phi in draws(rng, 45):
        wp = optimize_working_point(objective, eps_s, phi)
        star = wp.eps_a_star
        if wp.at_boundary is None:
            root = referee.working_point(objective, eps_s, phi, star * (1 - 1e-6),
                                         min(star * (1 + 1e-6), TOP))
            assert abs(star - root) <= 1e-12 * root, (objective, eps_s, phi, star, root)
            interior += 1
        else:  # the objective still rises toward the reported end
            slope = referee.central_difference(objective, eps_s, phi, star)
            assert (slope < 0) == (wp.at_boundary == "lower"), (objective, eps_s, phi)
    assert interior >= 40


@pytest.mark.parametrize("objective, eps_s", [
    ("chi", 0.99999995), ("cop", 0.99999999), ("eta", 0.99999998),
])
def test_an_upper_working_point_is_where_the_referee_still_rises(objective, eps_s):
    # at phi = 0 and eps_s this near 1, each objective rises up to the clamp
    wp = optimize_working_point(objective, eps_s, 0.0)
    assert (wp.eps_a_star, wp.at_boundary) == (TOP, "upper")
    assert referee.central_difference(objective, eps_s, 0.0, wp.eps_a_star) > 0


def test_rising_has_the_sign_of_a_central_difference(rng):
    checked = 0
    for objective, eps_s, phi in draws(rng, 30):
        star = optimize_working_point(objective, eps_s, phi).eps_a_star
        row = closed_forms._row(phi)
        for eps_a in rng.uniform(eps_s + 1e-3, 1.0 - 1e-3, 4).tolist():
            if abs(eps_a - star) <= 1e-3:
                continue  # too near the root for the sign to be robust
            slope = referee.central_difference(objective, eps_s, phi, eps_a)
            sign = closed_forms._rising(objective, closed_forms._column(eps_s, eps_a), row)
            assert sign == (1 if slope > 0 else -1), (objective, eps_s, phi, eps_a)
            checked += 1
    assert checked >= 100


@pytest.mark.parametrize("objective, eps_s, phi", [
    ("chi", 0.4, 1.2), ("cop", 0.4, 1.2), ("eta", 0.4, 1.2), ("chi", 0.05, 0.3),
    ("cop", 0.0, 1.0), ("chi", 0.9, HALF_PI), ("cop", 0.4, HALF_PI), ("eta", 0.2, HALF_PI),
    ("cop", 0.4, 1.570796), ("eta", 0.9, 1.570796),
])
def test_working_point_does_not_depend_on_temperature(objective, eps_s, phi):
    reference = optimize_working_point(objective, eps_s, phi)
    for t in TEMPERATURES:
        wp = optimize_working_point(objective, eps_s, phi, t)
        # none of these objectives is flat, however small T makes chi
        assert (wp.eps_a_star.hex(), wp.at_boundary, wp.degenerate) == (
            reference.eps_a_star.hex(), reference.at_boundary, False), t
        assert wp.objective_value is not None and math.isfinite(wp.objective_value), t


@pytest.mark.parametrize("objective", ["cop", "eta"])
@pytest.mark.parametrize("eps_s", [0.05, 0.2, 0.4, 0.9])
def test_the_first_defined_point_is_defined_at_every_temperature(objective, eps_s):
    # At phi = pi/2 the supremum is the first bias above the reversible
    # floor; the float below it is reversible, and neither verdict may
    # move with T, or the working point would report an undefined value.
    wp = optimize_working_point(objective, eps_s, HALF_PI)
    assert wp.at_boundary == "lower"
    below = math.nextafter(wp.eps_a_star, 0.0)
    for t in (1.0, *TEMPERATURES):
        assert not figures_of_merit(ProtocolParams(eps_s, wp.eps_a_star, HALF_PI, t)).reversible_limit
        assert figures_of_merit(ProtocolParams(eps_s, below, HALF_PI, t)).reversible_limit


def test_a_subnormal_temperature_underflows_as_a_domain_error(rng):
    # At T = 5e-324, T W rounds to 0 above the reversible floor, where the
    # ratios would divide by it; the point is refused, never divided.
    with pytest.raises(ValueError, match="temperature 5e-324 makes the cycle energies underflow"):
        figures_of_merit(ProtocolParams(0.3, 0.5, 0.0, 5e-324))
    edge = figures_of_merit(ProtocolParams(0.3, 0.3, HALF_PI, 5e-324))
    assert edge.reversible_limit and edge.cop is edge.eta is edge.chi is None
    outcomes = set()
    for t in (5e-324, 1e-320, 2.5e-310):
        for eps_s, fraction, phi in rng.uniform(0.0, [0.9, 1.0, HALF_PI], (50, 3)).tolist():
            params = ProtocolParams(eps_s, eps_s + fraction * (0.95 - eps_s), phi, t)
            try:
                report = figures_of_merit(params)
            except ValueError as error:
                assert "underflow" in str(error)
                outcomes.add("refused")
                continue
            assert report.reversible_limit or all(
                map(math.isfinite, (report.cop, report.eta, report.chi))), params
            outcomes.add("reported")
    assert outcomes == {"refused", "reported"}


def test_a_cooling_load_that_rounds_to_zero_is_refused(capsys):
    # T W and T Q stay above 0 but T P rounds to 0, so cop and eta would print as 0.0
    # (0.553 and 0.471 at T = 1)
    column, row = closed_forms._column(0.3, 0.9), closed_forms._row(1.0)
    assert 5e-324 * column.entropy_reduction == 0.0 < column.entropy_reduction
    assert all(5e-324 * closed_forms._energies(column, row)[k] > 0.0 for k in (2, 4))  # T Q and T W
    with pytest.raises(ValueError, match="^temperature 5e-324 makes the cycle energies underflow$"):
        figures_of_merit(ProtocolParams(0.3, 0.9, 1.0, 5e-324))
    code = cli.main(["run", "--eps-s", "0.3", "--eps-a", "0.9", "--phi", "1.0", "--temperature", "5e-324"])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: temperature 5e-324 makes the cycle energies underflow\n")


# chi's working point has T P rounding to 0 too, so its load and chi would print as 0.0
@pytest.mark.parametrize("objective, refused", [("chi", True), ("cop", True), ("eta", True)])
def test_optimize_at_a_subnormal_temperature(capsys, objective, refused):
    args = ["optimize", "--objective", objective, "--eps-s", "0.4", "--phi", "1.2",
            "--temperature", "5e-324"]
    code = cli.main(args)
    out, err = capsys.readouterr()
    if refused:  # T W at the working point rounds to 0
        assert (code, out) == (2, "")
        assert "temperature 5e-324 makes the cycle energies underflow" in err
    else:
        assert code == 0, err
        star = optimize_working_point(objective, 0.4, 1.2).eps_a_star
        assert json.loads(out)["working_point"]["eps_a_star"] == star


def _known_defect(reason):
    return {"marks": pytest.mark.xfail(strict=True, reason=f"ROADMAP item 3: {reason}")}


@pytest.mark.parametrize("objective, eps_s, phi", [
    ("chi", 0.4, 1.2), ("cop", 0.4, 1.2), ("eta", 0.4, 1.2), ("chi", 0.05, 0.3),
    pytest.param("eta", 0.999999, HALF_PI, **_known_defect(
        "P cancels near unit register bias: eta 0.9999456877 is emitted where 50 digits"
        " give 0.99996552 at the same eps_a_star")),
    pytest.param("cop", 0.0, 1.0, **_known_defect(
        "at eps_s = 0 P carries 1e-3 relative error at eps_a = 1e-7: cop 0.50040 is emitted"
        " at the lower boundary, where the limit is 1/2")),
    pytest.param("chi", 0.99999995, 0.0, **_known_defect(
        "P cancels near unit biases: chi at the upper boundary is 0.2% off the referee")),
    pytest.param("cop", 0.99999999, 0.0, **_known_defect(
        "P cancels near unit biases: cop at the upper boundary is 0.6% off the referee")),
    pytest.param("eta", 0.99999998, 0.0, **_known_defect(
        "P cancels near unit biases: eta at the upper boundary is 0.4% off the referee")),
])
def test_working_point_value_is_the_referee_objective_at_its_bias(objective, eps_s, phi):
    wp = optimize_working_point(objective, eps_s, phi)
    with mpmath.workdps(referee.DPS):
        exact = referee.objective(objective, eps_s, phi)(mpmath.mpf(wp.eps_a_star))
        assert abs(wp.objective_value - exact) <= 1e-12 * abs(exact), (wp, exact)
