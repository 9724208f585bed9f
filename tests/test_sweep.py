import json
import math
import re
import signal
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qfcool import cli, closed_forms, sweep, verify
from qfcool.protocol import ProtocolParams
from qfcool.sweep import (
    SweepGrid, characteristic_curve, eps_a_for_cooling_load,
    landscape, optimize_working_point, separability_boundary,
)
from qfcool.thermo import figures_of_merit

HALF_PI = math.pi / 2
TOP = 1.0 - sweep.EPS_A_CLAMP


def brute_force_working_point(objective, eps_s, phi, n=1_000_001):
    """Dense vectorized scan, independent of the bisection path."""
    eps_a = np.linspace(eps_s + 1e-9, 1.0 - 1e-9, n)
    ats, ata = math.atanh(eps_s), np.arctanh(eps_a)
    p = eps_a * ata - eps_s * ats + 0.5 * np.log((1 - eps_a**2) / (1 - eps_s**2))
    q = (eps_a - eps_s * math.sin(phi)) * ata
    de_s = -(eps_s - eps_a * math.sin(phi)) * ats
    w = -de_s + q
    with np.errstate(divide="ignore", invalid="ignore"):
        values = {"cop": p / w, "eta": p / q, "chi": p * p / w}[objective]
    values = np.where(w <= 1e-14, -np.inf, values)
    best = int(np.argmax(values))
    return float(eps_a[best]), float(values[best])


# ---------------------------------------------------------------------------
# grid validation
# ---------------------------------------------------------------------------

def test_sweep_grid_validation():
    SweepGrid(0.4, (0.0, 1.0), (0.4, 0.9))
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepGrid(0.4, (1.0, 0.5), (0.4, 0.9))
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepGrid(0.4, (0.5, 0.5), (0.4, 0.9))
    with pytest.raises(ValueError, match="^phi_values must be strictly increasing$"):
        SweepGrid(0.4, (0.3, 1.2, 0.7), (0.4, 0.9))
    with pytest.raises(ValueError, match="^eps_a_values must be strictly increasing$"):
        SweepGrid(0.4, (0.5,), (0.9, 0.4))
    # the corners' bounds come first: eps_s = 1 reverses the default eps_a axis
    with pytest.raises(ValueError, match=r"^eps_s must be in \[0, 1\)$"):
        SweepGrid(1.0, (0.5,), (1.0, TOP))
    with pytest.raises(ValueError, match="^eps_s must not exceed eps_a$"):
        SweepGrid(0.4, (0.5,), (0.2, 0.9))
    with pytest.raises(ValueError, match=r"^eps_a must be in \[0, 1\)$"):
        SweepGrid(0.4, (0.5,), (0.5, 1.0))
    with pytest.raises(ValueError, match="must not be empty"):
        SweepGrid(0.4, (), (0.5,))


@pytest.mark.parametrize("field, kwargs", [
    ("eps_s", {"eps_s": math.nan}),
    ("eps_s", {"eps_s": math.inf}),
    ("temperature", {"temperature": math.nan}),
    ("temperature", {"temperature": math.inf}),
    ("phi_values", {"phi_values": (0.1, math.nan, 0.5)}),
    ("eps_a_values", {"eps_a_values": (0.5, math.nan, 0.9)}),
    ("eps_a_values", {"eps_a_values": (0.5, math.inf)}),
    ("phi_values", {"phi_values": (0.1, math.inf, 0.5)}),
    ("phi_values", {"phi_values": (0.1, -math.inf, 0.5)}),
    ("eps_a_values", {"eps_a_values": (0.5, math.inf, 0.9)}),
])
def test_sweep_grid_rejects_non_finite_values(field, kwargs):
    fields = {"eps_s": 0.2, "phi_values": (0.1, 0.5), "eps_a_values": (0.5, 0.9),
              "temperature": 1.0, **kwargs}
    message = "must all be finite numbers" if field.endswith("_values") else "must be a finite number"
    with pytest.raises(ValueError, match=f"^{field} {message}$"):
        SweepGrid(**fields)


@pytest.mark.parametrize("phi_values", [(0.0, 2.0), (-0.1, 1.0), (2.0,)])
def test_sweep_grid_rejects_phi_outside_quarter_turn(phi_values):
    with pytest.raises(ValueError, match=r"^phi must be in \[0, pi/2\]$"):
        SweepGrid(0.4, phi_values, (0.5, 0.6))


BAD_VALUES = [True, False, np.bool_(True), "0.5", None, 0.5j, math.nan, math.inf, -math.inf,
              10 ** 400, -0.1, 1.0, 1.5, -1.0, 0.0, 2.0]
# ProtocolParams field -> the same value as a SweepGrid field
AS_GRID_FIELD = {
    "eps_s": lambda v: {"eps_s": v},
    "eps_a": lambda v: {"eps_a_values": (v,)},
    "phi": lambda v: {"phi_values": (v,)},
    "temperature": lambda v: {"temperature": v},
}
GOOD = {"eps_s": 0.2, "eps_a": 0.5, "phi": 0.7, "temperature": 1.0}


def grid_and_params(field, value):
    fields = {**GOOD, field: value}
    grid = {"eps_s": fields["eps_s"], "eps_a_values": (fields["eps_a"],),
            "phi_values": (fields["phi"],), "temperature": fields["temperature"],
            **AS_GRID_FIELD[field](value)}
    return grid, fields


def grid_error(field, value):
    """SweepGrid's message for ``value`` in ``field`` (None if valid): an axis's own
    finiteness text, else the message of ProtocolParams at the same point."""
    try:
        ProtocolParams(**{**GOOD, field: value})
    except ValueError as error:
        if field in ("eps_a", "phi") and not closed_forms._is_finite_real(value):
            return f"{field}_values must all be finite numbers"
        return str(error)
    return None


@pytest.mark.parametrize("field", list(AS_GRID_FIELD))
@pytest.mark.parametrize("value", BAD_VALUES, ids=repr)
def test_sweep_grid_rejects_every_value_protocol_params_rejects(field, value):
    grid, fields = grid_and_params(field, value)
    message = grid_error(field, value)
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SweepGrid(**grid)
    else:
        params = ProtocolParams(**fields)
        made = SweepGrid(**grid)
        assert (made.eps_s, made.eps_a_values, made.phi_values, made.temperature) == (
            params.eps_s, (params.eps_a,), (params.phi,), params.temperature)


# Valid axis values below and above GOOD's eps_a and phi.
INNER = {"eps_a": (0.3, 0.8), "phi": (0.3, 1.2)}


@pytest.mark.parametrize("field, value", [(f, v) for f in INNER for v in BAD_VALUES
                                          if grid_error(f, v) is not None], ids=repr)
@pytest.mark.parametrize("corner", ["first", "last"])
def test_sweep_grid_rejects_a_bad_value_at_either_corner(field, value, corner):
    lo, hi = INNER[field]
    axis = (value, hi) if corner == "first" else (lo, value)
    grid, _ = grid_and_params(field, value)
    grid[f"{field}_values"] = axis
    with pytest.raises(ValueError, match=f"^{re.escape(grid_error(field, value))}$"):
        SweepGrid(**grid)


def two_end_error(eps_s, phi, temperature):
    """The message of a curve's check at both ends of its eps_a axis (None if valid)."""
    try:
        p = ProtocolParams(eps_s, eps_s, phi, temperature)
        ProtocolParams(p.eps_s, TOP, p.phi, p.temperature)
    except ValueError as error:
        return str(error)
    return None


# BAD_VALUES with those of the property tests, and register biases between the clamp and 1
CURVE_VALUES = [*BAD_VALUES, -1e-300, -0.0, 3.2, math.nextafter(HALF_PI, 4.0),
                math.nextafter(1.0, 0.0), math.nextafter(TOP, 1.0)]


@pytest.mark.parametrize("field", ["eps_s", "phi", "temperature"])
@pytest.mark.parametrize("value", CURVE_VALUES, ids=repr)
def test_curve_far_corner_raises_what_both_ends_raise(field, value):
    # one ProtocolParams at (eps_s, TOP, phi, T) bounds the whole axis
    args = {**GOOD, field: value}
    args.pop("eps_a")
    message = two_end_error(**args)
    if message is None:
        assert len(characteristic_curve(args["eps_s"], args["phi"], 3, args["temperature"])) == 3
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            characteristic_curve(args["eps_s"], args["phi"], 3, args["temperature"])


def test_sweep_grid_stores_floats():
    grid = SweepGrid(np.float32(0.25), (0, np.float64(0.5)), [np.float32(0.25), Fraction(1, 2)], 2)
    assert (grid.eps_s, grid.phi_values, grid.eps_a_values, grid.temperature) == (
        0.25, (0.0, 0.5), (0.25, 0.5), 2.0)
    for value in (grid.eps_s, *grid.phi_values, *grid.eps_a_values, grid.temperature):
        assert type(value) is float


def test_scalar_searches_and_grids_validate_once(monkeypatch):
    made = []
    real = ProtocolParams.__post_init__
    monkeypatch.setattr(ProtocolParams, "__post_init__",
                        lambda self: made.append(None) or real(self))
    grid = SweepGrid(0.4, (0.0, 0.7, HALF_PI), (0.4, 0.6, TOP))
    assert len(made) == 2  # the grid's two corners
    landscape(grid, {"thermo", "correlations"})
    assert len(made) == 2  # none per point
    characteristic_curve(0.3, 0.9, 50, include_correlations=True)
    assert len(made) == 3  # the far corner of the eps_a axis
    optimize_working_point("chi", 0.3, 1.0)
    assert len(made) == 4
    eps_a_for_cooling_load(0.3, 0.1)
    assert len(made) == 5


# ---------------------------------------------------------------------------
# characteristic curves
# ---------------------------------------------------------------------------

def test_characteristic_curve_endpoints():
    curve = characteristic_curve(0.4, HALF_PI, 41)
    loads = [pt.thermo.cooling_load for pt in curve]
    assert abs(loads[0]) <= 1e-12          # eps_a -> eps_s
    assert loads[-1] == max(loads)         # maximal toward eps_a -> 1
    assert curve[-1].eps_a == 1.0 - sweep.EPS_A_CLAMP


def test_characteristic_curve_never_cools_at_phi_zero():
    curve = characteristic_curve(0.4, 0.0, 25)
    assert all(not pt.thermo.in_cooling_window for pt in curve)


def test_characteristic_curve_cop_peaks_inside_at_quarter_angle():
    curve = characteristic_curve(0.4, math.pi / 4, 201)
    cops = [pt.thermo.cop if pt.thermo.cop is not None else -math.inf for pt in curve]
    best = int(np.argmax(cops))
    assert 0 < best < len(curve) - 1


def test_curve_points_reproducible_from_scratch():
    curve = characteristic_curve(0.3, 0.8, 7, include_correlations=True)
    for pt in curve:
        again = figures_of_merit(ProtocolParams(0.3, pt.eps_a, pt.phi))
        assert again == pt.thermo


def test_characteristic_curve_requires_two_points():
    with pytest.raises(ValueError):
        characteristic_curve(0.4, 0.3, 1)


@pytest.mark.parametrize("call, argument", [
    (lambda: characteristic_curve(0.4, 0.3, 2.5), "n_points"),
    (lambda: characteristic_curve(0.4, 0.3, 3.0), "n_points"),
    (lambda: characteristic_curve(0.4, 0.3, True), "n_points"),
    (lambda: characteristic_curve(0.4, 0.3, False), "n_points"),
])
def test_scan_sizes_must_be_integers(call, argument):
    with pytest.raises(ValueError, match=f"^{argument} must be an integer"):
        call()


def test_characteristic_curve_refuses_a_count_above_the_grid_cap():
    # the count is checked before the axis is built: a named error, nothing allocated
    n_points = 10 ** 12
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^n_points must be at most {closed_forms.MAX_GRID_POINTS}, "
                                             f"got {n_points}$"):
            characteristic_curve(0.4, 1.0, n_points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_scan_sizes_accept_numpy_integers():
    assert characteristic_curve(0.4, 0.3, np.int64(3)) == characteristic_curve(0.4, 0.3, 3)


# ---------------------------------------------------------------------------
# working-point optimization
# ---------------------------------------------------------------------------

def test_optimize_chi_at_x_measurement_high_bias():
    wp = optimize_working_point("chi", 0.4, HALF_PI)
    assert 0.75 <= wp.eps_a_star <= 0.95
    assert wp.at_boundary is None
    brute_x, brute_v = brute_force_working_point("chi", 0.4, HALF_PI)
    assert abs(wp.eps_a_star - brute_x) <= 1e-4
    assert abs(wp.objective_value - brute_v) <= 1e-8


def test_optimize_cop_at_x_measurement_hits_lower_boundary():
    wp = optimize_working_point("cop", 0.4, HALF_PI)
    assert wp.at_boundary == "lower"
    assert wp.eps_a_star - 0.4 <= 1e-3
    assert wp.cooling_load_star <= 1e-6


def test_optimize_cop_interior_matches_brute_force():
    wp = optimize_working_point("cop", 0.4, math.pi / 4)
    assert wp.at_boundary is None
    brute_x, brute_v = brute_force_working_point("cop", 0.4, math.pi / 4)
    assert abs(wp.eps_a_star - brute_x) <= 1e-4
    assert abs(wp.objective_value - brute_v) <= 1e-8


def test_optimize_matches_brute_force_on_random_draws(rng):
    objectives = ("cop", "eta", "chi")
    for _ in range(20):
        eps_s = float(rng.uniform(0.05, 0.7))
        phi = float(rng.uniform(0.25, 1.5))
        objective = objectives[int(rng.integers(0, 3))]
        wp = optimize_working_point(objective, eps_s, phi)
        brute_x, brute_v = brute_force_working_point(objective, eps_s, phi)
        assert abs(wp.eps_a_star - brute_x) <= 1e-4, (objective, eps_s, phi)
        assert abs(wp.objective_value - brute_v) <= 1e-8, (objective, eps_s, phi)


def test_optimize_rejects_unknown_objective():
    with pytest.raises(ValueError):
        optimize_working_point("speed", 0.4, 1.0)


@pytest.mark.parametrize("n", [1, 2, 3, 25, 101, 256])
@pytest.mark.parametrize("eps_s", [0.0, 0.1, 0.4, 0.75, 0.999])
def test_linspace_matches_numpy_bit_for_bit(eps_s, n, capsys):
    # the evenly spaced axes the library builds are np.linspace's, ends
    # included: the landscape phi axis and the characteristic-curve eps_a axis
    def hexes(values):
        return [v.hex() for v in values]

    assert cli.main(["sweep", "--landscape", "--eps-s", repr(eps_s), "--n-phi", str(n),
                     "--n-eps-a", "2", "--format", "json"]) == 0
    phis = json.loads(capsys.readouterr().out)["grid"]["phi_values"]
    assert hexes(phis) == hexes(np.linspace(0.0, HALF_PI, n).tolist())
    assert phis[0] == 0.0 and (n == 1 or phis[-1] == HALF_PI)
    eps_a = [pt.eps_a for pt in characteristic_curve(eps_s, 1.0, max(n, 2))]
    assert hexes(eps_a) == hexes(np.linspace(eps_s, TOP, max(n, 2)).tolist())
    assert eps_a[0] == eps_s and eps_a[-1] == TOP


def test_optimize_ranks_undefined_values_below_every_defined_one(monkeypatch):
    # with the floor at W / T of eps_a = 0.9, every bias below is reversible;
    # cop falls above 0.9 at this angle, so the first defined bias wins
    floor = closed_forms._energies(closed_forms._column(0.3, 0.9), closed_forms._row(1.0))[4]
    monkeypatch.setattr(closed_forms, "REVERSIBLE_WORK_FLOOR", floor)
    wp = optimize_working_point("cop", 0.3, 1.0)
    assert wp.at_boundary == "lower"
    assert figures_of_merit(ProtocolParams(0.3, math.nextafter(wp.eps_a_star, 0.0), 1.0)).cop is None
    assert 0.9 <= wp.eps_a_star <= math.nextafter(0.9, 1.0)
    assert wp.objective_value == figures_of_merit(ProtocolParams(0.3, wp.eps_a_star, 1.0)).cop


def test_optimize_rejects_an_interval_where_the_objective_is_undefined(monkeypatch):
    monkeypatch.setattr(closed_forms, "REVERSIBLE_WORK_FLOOR", math.inf)
    with pytest.raises(ValueError, match="^objective is undefined on the whole search interval$"):
        optimize_working_point("eta", 0.3, 1.0)


@pytest.mark.parametrize("objective", ["cop", "eta"])
@pytest.mark.parametrize("eps_s", [0.034965, 0.20134250225246422])
def test_optimize_reports_a_defined_point_at_a_reversible_edge(objective, eps_s):
    # At phi = pi/2 the supremum lies at eps_a -> eps_s, next to the reversible
    # limit where the objective is undefined; the refined bracket can close
    # on that edge, and the reported value must still be the defined one.
    wp = optimize_working_point(objective, eps_s, HALF_PI)
    assert wp.at_boundary == "lower"
    assert math.isfinite(wp.objective_value)
    assert wp.objective_value == getattr(
        figures_of_merit(ProtocolParams(eps_s, wp.eps_a_star, HALF_PI)), objective)


# ---------------------------------------------------------------------------
# landscape
# ---------------------------------------------------------------------------

def landscape_grid():
    return SweepGrid(
        eps_s=0.4,
        phi_values=tuple(np.linspace(0.0, HALF_PI, 8)),
        eps_a_values=tuple(np.linspace(0.4, 0.95, 7)),
    )


def test_landscape_shape_and_order():
    grid = landscape_grid()
    result = landscape(grid, quantities={"thermo", "correlations"})
    assert len(result.points) == 8 * 7
    # phi outer, eps_a inner
    phis = [pt.phi for pt in result.points]
    assert phis == sorted(phis)
    first_block = result.points[:7]
    assert [pt.eps_a for pt in first_block] == sorted(pt.eps_a for pt in first_block)
    assert all(pt.correlations is not None for pt in result.points)


def test_landscape_cooling_boundary_points_are_roots():
    result = landscape(landscape_grid())
    assert result.cooling_window_boundary  # sin(phi) > eps_s happens on this grid
    for b in result.cooling_window_boundary:
        assert abs(figures_of_merit(ProtocolParams(0.4, b.eps_a, b.phi)).delta_e_system) <= 1e-9


def test_landscape_work_boundary_points_are_roots():
    result = landscape(landscape_grid())
    assert result.work_extraction_boundary
    for b in result.work_extraction_boundary:
        assert abs(figures_of_merit(ProtocolParams(0.4, b.eps_a, b.phi)).work_feedback) <= 1e-9


def test_landscape_columns_are_iso_discord():
    result = landscape(landscape_grid(), quantities={"thermo", "correlations"})
    by_phi = {}
    for pt in result.points:
        by_phi.setdefault(pt.phi, []).append(pt)
    for pts in by_phi.values():
        discords = {pt.correlations.discord_analytic for pt in pts}
        assert max(discords) - min(discords) <= 1e-15
        loads = [pt.thermo.cooling_load for pt in pts]
        assert max(loads) - min(loads) > 0.1  # the load does vary meanwhile


def test_landscape_rejects_unknown_selector():
    with pytest.raises(ValueError):
        landscape(landscape_grid(), quantities={"thermo", "plots"})


@pytest.mark.parametrize("quantities", ["thermo", "correlations", None, [["thermo"]]])
def test_landscape_rejects_a_selector_string(quantities):
    # a str is iterable, and would be read as a set of one-letter selectors; None is no set,
    # and an iterable of unhashable items none of names
    with pytest.raises(ValueError, match="^quantities must be a set of selector names"):
        landscape(landscape_grid(), quantities=quantities)


def test_landscape_reads_a_one_shot_selector_iterator():
    # the unknown-name check must not use up the iterator before "correlations" is looked for
    points = landscape(landscape_grid(), quantities=iter(["correlations"])).points
    assert all(pt.correlations is not None for pt in points)


def test_fixed_load_figures_grow_with_phi():
    # the cooling load depends only on the biases, so a fixed load is a
    # fixed eps_a; along it the whole performance triple rises with phi
    eps_s = 0.4
    eps_a = eps_a_for_cooling_load(eps_s, 0.15)
    ladder = [figures_of_merit(ProtocolParams(eps_s, eps_a, phi))
              for phi in np.linspace(0.6, HALF_PI, 5)]
    for name in ("cop", "eta", "chi"):
        values = [getattr(r, name) for r in ladder]
        assert all(b > a for a, b in zip(values, values[1:])), name


# ---------------------------------------------------------------------------
# separability boundary
# ---------------------------------------------------------------------------

def test_separability_boundary_interior_case():
    result = separability_boundary(0.4, 0.8)
    assert result.status == "interior"
    assert abs(result.phi - 0.2590617972561781) <= 2e-6
    again = separability_boundary(0.4, 0.8)
    assert again == result  # bit-for-bit reproducible


def test_separability_boundary_never_entangled():
    # a maximally mixed register never entangles with the ancilla
    result = separability_boundary(0.0, 0.5)
    assert result.status == "never_entangled"
    assert result.phi == HALF_PI


@pytest.mark.parametrize("call, argument", [
    (lambda: eps_a_for_cooling_load(0.3, math.nan), "load"),
])
def test_searches_reject_tolerances_and_scans_that_never_end(call, argument):
    with pytest.raises(ValueError, match=f"^{argument} must"):
        call()


def test_searches_stop_at_float_resolution():
    # each search bisects until its bracket holds two adjacent floats, so the
    # verdict flips between the float below its answer and the answer (the
    # alarm turns a regression into a failure instead of a hang)
    def hang(signum, frame):
        raise TimeoutError("search did not stop at float resolution")
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        star = optimize_working_point("chi", 0.3, 1.0).eps_a_star
        signs = [closed_forms._rising("chi", closed_forms._column(0.3, x), closed_forms._row(1.0))
                 for x in (math.nextafter(star, 0.0), star)]
        assert signs[0] > 0 >= signs[1]
        eps_a = eps_a_for_cooling_load(0.3, 0.1)
        assert figures_of_merit(ProtocolParams(0.3, math.nextafter(eps_a, 0.0), 0.0)).cooling_load < 0.1
        assert abs(figures_of_merit(ProtocolParams(0.3, eps_a, 0.0)).cooling_load - 0.1) <= 1e-12
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_separability_boundary_requires_bias_gap():
    with pytest.raises(ValueError):
        separability_boundary(0.5, 0.5)


@pytest.mark.parametrize("eps_s, eps_a, message", [
    (0.2, math.nan, "eps_a must be a finite number"),
    (math.nan, 0.5, "eps_s must be a finite number"),
    (0.5, 0.5, "eps_s must be strictly below eps_a"),
])
def test_separability_boundary_names_the_bad_argument(eps_s, eps_a, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        separability_boundary(eps_s, eps_a)


def mp_boundary(eps_s, eps_a):
    """The closed-form angle at 50 digits from the same double inputs."""
    with mpmath.workdps(50):
        es, ea = mpmath.mpf(eps_s), mpmath.mpf(eps_a)
        num = (1 - ea) * mpmath.sqrt(1 - es * es)
        den = 2 * es * mpmath.sqrt(ea)
        if num < den:
            return float(mpmath.asin(num / den)), "interior"
        return HALF_PI, "never_entangled"


def test_separability_boundary_matches_mpmath_at_the_edges(rng):
    pairs = [(5e-324, 0.5), (5e-324, TOP), (1e-6, 0.5)]
    pairs += [(es, TOP) for es in (0.0, 1e-9, 0.05, 0.4, 0.9, 0.999)]
    for es in (1e-6, 0.01, 0.1, 0.3, 0.4):
        edge = (1.0 - es) / (1.0 + es)  # where the verdict flips
        pairs += [(es, edge + sign * d) for d in (1e-12, 1e-9, 1e-6) for sign in (-1, 1)]
    es = rng.uniform(0.0, 1.0, 300)
    pairs += zip(es.tolist(), (es + (1.0 - es) * rng.uniform(0.0, 1.0, 300)).tolist())
    statuses = set()
    for eps_s, eps_a in pairs:
        if not eps_s < eps_a < 1.0:
            continue
        result = separability_boundary(eps_s, eps_a)
        phi, status = mp_boundary(eps_s, eps_a)
        assert result.status == status, (eps_s, eps_a)
        assert abs(result.phi - phi) <= 1e-10, (eps_s, eps_a)
        statuses.add(status)
    assert statuses == {"interior", "never_entangled"}


def test_separability_boundary_runs_no_eigendecomposition(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, _real=real, _name=name: calls.append(_name) or _real(a))
    for eps_s, eps_a in ((0.4, 0.8), (0.0, 0.5), (0.05, TOP)):
        separability_boundary(eps_s, eps_a)
    assert calls == []


@given(eps_s=st.floats(0.0, 1.0, exclude_max=True), eps_a=st.floats(0.0, 1.0, exclude_max=True),
       log10_t=st.floats(-300.0, 300.0))
def test_separability_boundary_does_not_depend_on_temperature(eps_s, eps_a, log10_t):
    assume(eps_s < eps_a)
    assert separability_boundary(eps_s, eps_a, 10.0 ** log10_t) == separability_boundary(eps_s, eps_a)


def test_zero_concurrence_points_sit_below_the_boundary():
    # along each eps_a column, entanglement appears exactly above the
    # boundary angle
    from qfcool.correlations import concurrence
    from qfcool.protocol import run_protocol
    for eps_a in (0.6, 0.9):
        boundary = separability_boundary(0.4, eps_a).phi
        for phi in np.linspace(0.0, HALF_PI, 15):
            if abs(phi - boundary) < 1e-3:
                continue  # skip the angles next to the boundary
            rho_m = run_protocol(ProtocolParams(0.4, eps_a, float(phi))).rho_m
            if concurrence(rho_m) <= 1e-12:
                assert phi < boundary
            else:
                assert phi > boundary


# ---------------------------------------------------------------------------
# load inversion
# ---------------------------------------------------------------------------

def test_eps_a_for_cooling_load_round_trip():
    for load in (0.01, 0.15, 0.4):
        eps_a = eps_a_for_cooling_load(0.4, load)
        assert abs(figures_of_merit(ProtocolParams(0.4, eps_a, 0.0)).cooling_load - load) <= 1e-9


def test_eps_a_for_cooling_load_rejects_unreachable():
    with pytest.raises(ValueError):
        eps_a_for_cooling_load(0.4, 100.0)
    with pytest.raises(ValueError, match=r"^load must be nonnegative$"):
        eps_a_for_cooling_load(0.4, -0.1)


@pytest.mark.parametrize("load", ["1", 10 ** 400, True, math.inf, -math.inf],
                         ids=["str", "huge-int", "bool", "inf", "-inf"])
def test_eps_a_for_cooling_load_refuses_a_load_that_is_not_a_finite_number(load):
    # as ProtocolParams refuses its own fields: not a TypeError, an OverflowError or "not attainable"
    with pytest.raises(ValueError, match=r"^load must be a finite number$"):
        eps_a_for_cooling_load(0.4, load)


# ---------------------------------------------------------------------------
# the grid's box against the scalar record
# ---------------------------------------------------------------------------

def _landscape_axes(eps_s, n_phi, n_eps_a):
    """One series and a phi axis, as ``qfcool sweep --landscape`` builds them."""
    eps_a = [eps_s + (TOP - eps_s) * i / (n_eps_a - 1) for i in range(n_eps_a)]
    return [(eps_s, eps_a)], np.linspace(0.0, HALF_PI, n_phi).tolist()


BOX_GRIDS = {
    "golden-25x101": (*_landscape_axes(0.4, 25, 101), 1.0),
    **{f"standard-6-T{t!r}": (*verify._standard_axes(6, t)[:2], t) for t in (1e-300, 1.0, 2.3, 1e300)},
    "eps_s-0": (*_landscape_axes(0.0, 5, 7), 1.0),
    # eps_a = eps_s at phi = pi/2: W = 0, so every point is reversible and its ratios None
    "reversible": ([(es, [es]) for es in (0.0, 0.3, 0.9)], [HALF_PI], 1.0),
    "eps_a-top": ([(es, [TOP]) for es in (0.0, 0.4, 0.9)], np.linspace(0.0, HALF_PI, 5).tolist(), 1.0),
}


@pytest.mark.parametrize("series, phis, temperature", BOX_GRIDS.values(), ids=BOX_GRIDS)
def test_the_box_equals_the_scalar_record(series, phis, temperature):
    # repr tells -0.0 from 0.0, None from NaN and a numpy scalar from a Python one
    reports = sweep._Grid(series, phis, temperature).reports
    assert [repr(r) for r in reports] == [
        repr(figures_of_merit(ProtocolParams(es, ea, phi, temperature)))
        for es, eps_a in series for phi in phis for ea in eps_a]
    if series == BOX_GRIDS["reversible"][0]:
        assert all(r.reversible_limit and r.cop is r.eta is r.chi is None for r in reports)


@pytest.mark.parametrize("temperature, how", [(1e308, "overflow"), (5e-324, "underflow")])
def test_the_box_raises_the_scalar_records_error(temperature, how):
    for series, phis in (verify._standard_axes(3, temperature)[:2], _landscape_axes(0.3, 5, 21)):
        errors = set()
        for es, eps_a in series:
            for phi in phis:
                for ea in eps_a:
                    try:
                        figures_of_merit(ProtocolParams(es, ea, phi, temperature))
                    except ValueError as error:
                        errors.add(str(error))
        with pytest.raises(ValueError) as box:
            sweep._Grid(series, phis, temperature)
        assert errors == {str(box.value)} == {f"temperature {temperature!r} makes the cycle energies {how}"}
