"""The closed-form layer: parameters, closed forms and scalar searches.

Everything here is plain Python on ``math`` and never imports numpy or a
matrix module of qfcool (densmat, protocol, thermo, correlations, sweep,
verify): those modules import from this one, never the other way round.
So the ``threshold``, ``optimize`` and ``run`` commands run without loading
numpy, and no closed form can reach a matrix kernel, which keeps the
density-matrix oracles that check these forms independent of them.
``protocol``, ``thermo``, ``correlations`` and ``sweep`` re-export the
public names under their old paths.  Every closed-form quantity of the
cycle at a point is a field of one record, ``figures_of_merit(params)``, whose
fields ``_report_fields`` returns as emitted, for a point and a grid's box alike;
those of its states are in ``_correlations(params)`` and ``_trace_summary``.
Every input is checked once, where it enters: each scalar (a bias, the angle, the
temperature, a concurrence, a cooling load) by ``_real``, each count by ``_require_count``.

Units: k_B = hbar = 1; the temperature enters as a multiplicative scale.
All entropies are in nats.

Sign conventions of the energies (``ThermoReport`` fields):

* ``work_measurement`` / ``work_feedback`` are the energy *lost by the
  qubit pair* during the respective unitary, i.e. positive values mean
  the controller extracts work.  The measurement step always costs work
  (negative value); the feedback step extracts work for ``phi`` above
  ``phi_crit``.
* ``heat_reset`` is the heat dumped into the bath by the ancilla reset
  (positive inside the operating domain).
* ``delta_e_system`` is the drop in the register's average energy;
  positive exactly inside the cooling window ``eps_a sin(phi) > eps_s``.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Optional

# Eigenvalues at or below this threshold count as exactly zero in entropies.
ENTROPY_CUTOFF = 1e-15
# Total work at T = 1 (W / T, which does not depend on T) at or below
# this floor marks a reversible limit point, where the performance ratios
# P/W, P/Q are 0/0 and reported as undefined.
REVERSIBLE_WORK_FLOOR = 1e-14
# Open-interval clamp for the ancilla bias: entropies and energy gaps
# diverge at eps_a = 1.
EPS_A_CLAMP = 1e-9
OBJECTIVES = ("cop", "eta", "chi")
# The most points of a ``sweep`` or ``verify`` grid, checked from its counts before any axis is built.
MAX_GRID_POINTS = 1_000_000
ENERGY_ERROR = "temperature {!r} makes the cycle energies {}"  # overflow or underflow


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _is_finite_real(value) -> bool:
    """A finite ``numbers.Real`` other than ``bool``, within the float range."""
    if type(value) is float:  # the common case, without the ABC check
        return math.isfinite(value)
    try:
        return (isinstance(value, numbers.Real) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int or Fraction beyond the float range
        return False


# The domain of each scalar input: its test on a float and the bound its error names.
_DOMAINS = {
    "bias": (lambda x: 0.0 <= x < 1.0, "be in [0, 1)"),
    "open bias": (lambda x: 0.0 < x < 1.0, "be in (0, 1)"),
    "angle": (lambda x: 0.0 <= x <= math.pi / 2, "be in [0, pi/2]"),
    "temperature": (lambda x: x > 0.0, "be positive"),
    "concurrence": (lambda x: 0.0 <= x <= 1.0 + 1e-12, "lie in [0, 1]"),  # rounding slack above 1
    "load": (lambda x: x >= 0.0, "be nonnegative"),
}


def _real(name: str, value, domain: str) -> float:
    """``value`` as a float: a finite real (``_is_finite_real``) inside ``_DOMAINS[domain]``.
    The rule for every scalar that enters the library, as ``_require_count`` is for every count."""
    if not _is_finite_real(value):
        raise ValueError(f"{name} must be a finite number")
    inside, bound = _DOMAINS[domain]
    if not inside(value := float(value)):
        raise ValueError(f"{name} must {bound}")
    return value


def _require_count(name: str, value: int, least: int, most: float = math.inf) -> None:
    """A count is an integer (``int`` or numpy, not ``bool``) of at least ``least`` and at most ``most``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")


@dataclass(frozen=True)
class ProtocolParams:
    """Full configuration of one cooling cycle.

    ``eps_s`` and ``eps_a`` are the register and ancilla polarization
    biases (ground minus excited population), ``phi`` the measurement
    angle in radians (axis ``(sin phi, 0, cos phi)`` in the x-z plane),
    ``temperature`` the bath temperature with k_B = 1.  Each field passes
    ``_real`` and is stored as ``float``; ``eps_s`` may equal ``eps_a`` or 0.
    """

    eps_s: float
    eps_a: float
    phi: float
    temperature: float = 1.0

    def __post_init__(self):
        for name, domain in zip(self.__match_args__, ("bias", "bias", "angle", "temperature")):
            object.__setattr__(self, name, _real(name, getattr(self, name), domain))
        if self.eps_s > self.eps_a:
            raise ValueError("eps_s must not exceed eps_a")


# ---------------------------------------------------------------------------
# thermodynamics, factored by grid axis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermoReport:
    """Complete energy/entropy bookkeeping of one parameter point.

    Each energy (``cooling_load`` = T P among them) and ``chi`` is T times its
    value at T = 1, one correctly rounded product; every other field is its T = 1
    value.  ``cop``, ``eta`` and ``chi`` are None when ``reversible_limit`` is set
    (W / T at most REVERSIBLE_WORK_FLOOR), never infinities.  There a product may
    round to a signed zero: at (0, 2.02e-105, 0) and T = 1e-115 ``cooling_load`` is 0.0.
    ``phi_crit_defined`` is False for eps_s = 0, where the feedback never
    strictly extracts work and the threshold angle degenerates to 0.
    """

    work_measurement: float
    work_feedback: float
    heat_reset: float
    delta_e_system: float
    entropy_reduction: float
    cooling_load: float
    total_work: float
    cop: Optional[float]
    eta: Optional[float]
    chi: Optional[float]
    in_cooling_window: bool
    work_extracting_feedback: bool
    phi_crit: float
    phi_crit_defined: bool
    reversible_limit: bool


def _record(cls, *values):
    """A ``cls`` instance holding ``values`` (every field, in field order), built
    without the frozen ``__init__``, which sets each field by ``object.__setattr__``.
    It skips ``__post_init__`` too, so it is only for the records that validate
    nothing: ``ThermoReport``, ``CorrelationReport`` and ``CurvePoint``."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__match_args__, values))
    return obj


def level_splitting(eps: float, temperature: float) -> float:
    """Energy gap giving bias ``eps`` at ``temperature``: 2 T atanh(eps), refused where it overflows."""
    eps, temperature = _real("eps", eps, "bias"), _real("temperature", temperature, "temperature")
    if not math.isfinite(gap := 2.0 * (temperature * math.atanh(eps))):  # 2 T alone may overflow
        raise ValueError(ENERGY_ERROR.format(temperature, "overflow"))
    return gap


# Each closed form is written once, in ``_columns`` or ``_energies``, at T = 1 on factors of one grid
# axis: a column of (eps_s, eps_a), with a = eps_s atanh(eps_s) and y = eps_a atanh(eps_s) + eps_s
# atanh(eps_a), or a row of phi.  ``_report_fields`` adds the ratios and flags and multiplies by T once,
# in ``_scaled``, on a grid's box of stacked columns and rows or on the floats of ``figures_of_merit``.
_Column = namedtuple("_Column", "eps_s eps_a atanh_s atanh_a a y ea_atanh_a entropy_reduction phi_crit")
_Row = namedtuple("_Row", "phi sin sin2 cos cos2")


def _columns(eps_s: float, eps_a_values) -> list[_Column]:
    """The column of each ancilla bias; parameters already validated."""
    atanh_s = math.atanh(eps_s)
    a = eps_s * atanh_s
    columns = []
    for ea in eps_a_values:
        atanh_a = math.atanh(ea)
        y, ea_atanh_a = ea * atanh_s + eps_s * atanh_a, ea * atanh_a
        reduction = ea_atanh_a - a + 0.5 * math.log((1.0 - ea * ea) / (1.0 - eps_s * eps_s))
        columns.append(_Column(eps_s, ea, atanh_s, atanh_a, a, y, ea_atanh_a, reduction,
                               _phi_crit(eps_s, ea, atanh_s, atanh_a)))
    return columns


def _column(eps_s: float, eps_a: float) -> _Column:
    return _columns(eps_s, (eps_a,))[0]


def _row(phi: float) -> _Row:
    s, c = math.sin(phi), math.cos(phi)
    return _Row(phi, s, s ** 2, c, c ** 2)


def _phi_crit(eps_s: float, eps_a: float, atanh_s: float, atanh_a: float) -> float:
    """Root in phi of the feedback work ``y sin(phi) - a cos(phi)^2``, 0.0 at eps_s = 0.
    Divided through by atanh(eps_s), its rationalised form neither cancels nor underflows."""
    if eps_s == 0.0:
        return 0.0
    y1 = eps_a + eps_s / atanh_s * atanh_a
    return math.asin(2.0 * eps_s / (y1 + math.hypot(y1, 2.0 * eps_s)))


def _energies(c, r) -> tuple:
    """W_m, W_f, Q, dE_S and W (which rises with eps_a) at T = 1 at (column, row), of floats or of arrays
    that broadcast (columns (S, 1, E), rows (1, P, 1)): only + - * / run on them, so the bits are the same."""
    q = (c.eps_a - c.eps_s * r.sin) * c.atanh_a
    de_s = 0.0 - (c.eps_s - c.eps_a * r.sin) * c.atanh_s  # 0.0 - x is -x but for a zero, which stays +0.0
    w_m = 0.0 - (c.eps_s * r.sin2 * c.atanh_s + c.ea_atanh_a)
    return w_m, c.y * r.sin - c.a * r.cos2, q, de_s, -de_s + q


def _scaled(t, fields, c, defined, reduce) -> tuple:
    """``fields`` at T = 1 (W_m, W_f, Q, dE_S, W, the cooling load P and chi, NaN off ``defined``,
    the reversible limit) times ``t``, of floats or arrays, by * == != & | alone.  Raises if ``reduce``
    of a guard holds: a product or the ancilla's level splitting 2 T atanh(eps_a), the larger,
    overflows (x * 0.0 is then NaN), or a defined W or Q or a nonzero P rounds to 0."""
    w_m, w_f, q, de_s, w, load, chi = scaled = tuple(t * x for x in fields)
    overflow = defined & (chi * 0.0 != 0.0)
    for x in (2.0 * (t * c.atanh_a), *scaled[:6]):
        overflow = overflow | (x * 0.0 != 0.0)
    if reduce(overflow):
        raise ValueError(ENERGY_ERROR.format(t, "overflow"))
    if reduce(defined & ((w == 0.0) | (q == 0.0) | (load == 0.0) & (fields[5] != 0.0))):
        raise ValueError(ENERGY_ERROR.format(t, "underflow"))
    return scaled


def _report_fields(c, r, t, where=lambda condition, a, b: a if condition else b, reduce=bool) -> tuple:
    """Every ``ThermoReport`` field in field order, of floats or of the box with ``np.where``, ``np.any``,
    twice: at T = 1, NaN for cop, eta and chi where W / T <= the floor, and as emitted at ``t``, the
    energies and chi times ``t`` (``_scaled``) and cop, eta and chi None there."""
    p, (w_m, w_f, q, de_s, w) = c.entropy_reduction, _energies(c, r)
    defined = w > REVERSIBLE_WORK_FLOOR  # W at T = 1, so T does not move the limit
    cop, eta = (where(defined, p / where(defined, x, 1.0), math.nan) for x in (w, q))
    chi, pc_defined = cop * p, c.eps_s > 0.0
    tail = (c.eps_a * r.sin > c.eps_s, pc_defined & (r.phi > c.phi_crit), c.phi_crit, pc_defined,
            where(defined, False, True))  # the flags and phi_crit, which T does not move
    tw_m, tw_f, tq, tde_s, tw, load, tchi = _scaled(t, (w_m, w_f, q, de_s, w, p, chi), c, defined, reduce)
    return ((w_m, w_f, q, de_s, p, p, w, cop, eta, chi, *tail),
            (tw_m, tw_f, tq, tde_s, p, load, tw, *(where(defined, x, None) for x in (cop, eta, tchi)), *tail))


def _report(c: _Column, r: _Row, t: float) -> ThermoReport:
    """``figures_of_merit`` at (column, row) and temperature ``t``: cop, eta, chi None where reversible."""
    return _record(ThermoReport, *_report_fields(c, r, t)[1])


def figures_of_merit(params: ProtocolParams) -> ThermoReport:
    """All energetic quantities, performance ratios, regime flags and ``phi_crit``.

    Raises ValueError naming the temperature when an energy, chi or the
    ancilla's level splitting overflows at that temperature, or when W, Q
    or the cooling load underflows to zero away from the reversible limit.
    """
    return _report(_column(params.eps_s, params.eps_a), _row(params.phi), params.temperature)


# ---------------------------------------------------------------------------
# entropies and discord of the post-measurement state
# ---------------------------------------------------------------------------

def binary_entropy(x: float) -> float:
    """-x ln x - (1-x) ln(1-x), with 0 ln 0 = 0; ln(1-x) as log1p(-x), exact for small x."""
    out = 0.0
    if x > ENTROPY_CUTOFF:
        out -= x * math.log(x)
    if 1.0 - x > ENTROPY_CUTOFF:
        out -= (1.0 - x) * math.log1p(-x)
    return out


def thermal_entropy(eps: float) -> float:
    """Entropy of a qubit with Bloch length |eps| (populations (1 -+ eps)/2)."""
    return binary_entropy((1.0 - abs(eps)) / 2.0)


def mutual_information_analytic(params: ProtocolParams) -> float:
    """Closed-form mutual information of the post-measurement state.

    The marginals after the measurement are qubits with effective biases
    eps_s cos(phi) (register) and eps_s eps_a cos(phi) (ancilla); the
    measurement unitary keeps the joint entropy at that of the initial
    product state, S(eps_s) + S(eps_a).
    """
    return _mutual_information(params.eps_s, params.eps_a, math.cos(params.phi), thermal_entropy)


def _mutual_information(es: float, ea: float, cos_phi: float, entropy: Callable[[float], float]) -> float:
    """The closed form, ``entropy`` giving each thermal entropy, of floats or of arrays that broadcast."""
    return entropy(es * cos_phi) + entropy(es * ea * cos_phi) - entropy(es) - entropy(ea)


def discord_analytic(eps_s: float, phi: float) -> float:
    """Closed-form discord of the post-measurement state.

    Depends only on the register bias and measurement angle: the entropy
    gap S(thermal(eps_s cos phi)) - S(thermal(eps_s)).
    """
    eps_s, phi = _real("eps_s", eps_s, "bias"), _real("phi", phi, "angle")
    return thermal_entropy(eps_s * math.cos(phi)) - thermal_entropy(eps_s)


def discord_threshold(eps_s: float) -> float:
    """Minimum discord guaranteeing real cooling: value at sin(phi) = eps_s."""
    eps_s = _real("eps_s", eps_s, "open bias")
    return discord_analytic(eps_s, math.asin(eps_s))


# ---------------------------------------------------------------------------
# the correlation record and the trace block of one run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    """Correlation content of the post-measurement state of one run.

    ``discord_a`` and ``discord_s`` are the one-sided discords, measured on
    the ancilla and on the register, and ``classical_a`` is the mutual
    information less ``discord_a``.  ``run`` prints the closed-form record,
    in which both discords are ``discord_analytic``; ``correlation_report``
    takes them from the basis search; sweeps skip the search and carry None.
    """

    concurrence: float
    eof: float
    mutual_info: float
    discord_a: Optional[float]
    discord_s: Optional[float]
    discord_analytic: float
    classical_a: Optional[float]


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation (nats) as a function of concurrence."""
    c = _real("concurrence", c, "concurrence")
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _concurrence(eps_s: float, eps_a: float, phi: float) -> float:
    """The X-state concurrence of ``rho_m`` that ``separability_boundary`` solves for zero,
    ``max(0, [(1 + eps_a) eps_s sin phi - (1 - eps_a) sqrt(1 - eps_s^2 cos^2 phi)] / 2)``."""
    x = eps_s * math.cos(phi)
    return max(0.0, 0.5 * ((1.0 + eps_a) * eps_s * math.sin(phi)
                           - (1.0 - eps_a) * math.sqrt((1.0 - x) * (1.0 + x))))


def _correlations(params: ProtocolParams) -> CorrelationReport:
    """The correlation record ``run`` prints: the X-state concurrence and its EoF, the
    closed-form mutual information, and both one-sided discords equal to ``discord_analytic``
    (the basis search, which finds the same value, checks them under ``run --verify``)."""
    c = _concurrence(params.eps_s, params.eps_a, params.phi)
    mi, d = mutual_information_analytic(params), discord_analytic(params.eps_s, params.phi)
    return _record(CorrelationReport, c, eof_from_concurrence(c), mi, d, d, d, mi - d)


def _trace_summary(es: float, ea: float, phi: float) -> dict:
    """``run``'s trace block at the point (eps_s, eps_a, phi): the purity and
    entropy of each joint state by name, and under "marginals" each qubit marginal's
    Bloch vector, its purity (1 + |b|^2) / 2 and its entropy S(|b|).

    The unitaries keep rho0's spectrum, so rho0, rho_m and rho_f have purity
    (1 + eps_s^2)(1 + eps_a^2) / 4 and entropy S(eps_s) + S(eps_a).  The reset state
    is rho_f_s x rho0_a, and |rho_f_s| = eps_a, so its purity is ((1 + eps_a^2) / 2)^2
    and its entropy 2 S(eps_a).
    """
    s, c = math.sin(phi), math.cos(phi)
    product = {"purity": 0.25 * (1.0 + es * es) * (1.0 + ea * ea),
               "entropy": thermal_entropy(es) + thermal_entropy(ea)}
    doc = {"rho0": product, "rho_m": dict(product), "rho_f": dict(product), "marginals": {},
           "rho_reset": {"purity": 0.25 * (1.0 + ea * ea) ** 2, "entropy": 2.0 * thermal_entropy(ea)}}
    for name, bloch in (("rho0_s", (0.0, 0.0, -es)), ("rho0_a", (0.0, 0.0, -ea)),
                        ("rho_m_s", (-es * s * c, 0.0, -es * c * c)), ("rho_m_a", (es * ea * c, 0.0, 0.0)),
                        ("rho_f_s", (ea * c, 0.0, -ea * s)), ("rho_f_a", (es * ea * c, 0.0, -es * s))):
        bloch = [b + 0.0 for b in bloch]  # a -0.0 (at eps_s = 0 or phi = 0) becomes 0.0
        length = math.hypot(*bloch)
        doc["marginals"][name] = {"purity": 0.5 * (1.0 + length * length),
                                  "entropy": thermal_entropy(length), "bloch": bloch}
    return doc


# ---------------------------------------------------------------------------
# scalar searches over the ancilla bias
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkingPoint:
    """Maximizer of one figure of merit over the ancilla bias.

    ``eps_a_star`` does not depend on the temperature; ``objective_value``
    and ``cooling_load_star`` are the report's fields there.
    ``at_boundary`` is "lower"/"upper" when the objective's derivative
    keeps its sign to that end of the interval where the objective is
    defined, so that end is a supremum, not an attained interior maximum.
    ``degenerate`` is always False: no objective is flat in eps_a, its
    derivative changes sign at most once.  The field stays because the
    optimize CSV header holds it.
    """

    eps_a_star: float
    objective_value: float
    cooling_load_star: float
    at_boundary: Optional[str] = None
    degenerate: bool = False


@dataclass(frozen=True)
class SeparabilityBoundary:
    """First angle at which the post-measurement state becomes entangled.

    ``status`` is "interior" when the state is entangled for every angle
    above ``phi``, and "never_entangled" (phi pinned to pi/2) when no
    angle produces entanglement.  The state at phi = 0 is separable for
    every pair of biases.
    """

    phi: float
    status: str


def _bisect(holds: Callable[[float], bool], lo: float, hi: float) -> float:
    """The first float of [lo, hi] at which ``holds``, for a predicate that
    fails below some point and holds from it up to ``hi``: bisection until
    the bracket holds two adjacent floats."""
    if holds(lo):
        return lo
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _rising(objective: str, c: _Column, r: _Row) -> int:
    """The sign of d(objective)/d eps_a at (column, row), from T-free factors.

    With P the entropy reduction, and Q and W the reset heat and total work
    over T: dP = atanh(eps_a), dQ = atanh(eps_a) + (eps_a - eps_s sin) /
    ((1 - eps_a)(1 + eps_a)) and dW = dQ - sin atanh(eps_s).  Then P/W rises
    where P'W > PW', P/Q where P'Q > PQ' and P^2/W where 2P'W > PW'.
    """
    p, gap = c.entropy_reduction, c.eps_a - c.eps_s * r.sin
    dp, dq = c.atanh_a, c.atanh_a + gap / ((1.0 - c.eps_a) * (1.0 + c.eps_a))
    if objective == "eta":
        lhs, rhs = dp * gap * c.atanh_a, p * dq
    else:
        lhs = (dp if objective == "cop" else 2.0 * dp) * _energies(c, r)[4]
        rhs = p * (dq - r.sin * c.atanh_s)
    return (lhs > rhs) - (lhs < rhs)


def optimize_working_point(objective: str, eps_s: float, phi: float,
                           temperature: float = 1.0) -> WorkingPoint:
    """Maximize COP, eta or chi over the ancilla bias.

    The objective is defined where W / T exceeds REVERSIBLE_WORK_FLOOR; W
    rises with eps_a, so that is an interval up to the clamp, whose lower
    end is found by bisection.  The maximizer is then the point where the
    closed-form derivative (``_rising``) turns from positive, again by
    bisection to float resolution, or the end of the defined interval
    toward which the derivative keeps its sign.  Every test is T-free.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    p = ProtocolParams(eps_s, eps_s, phi, temperature)  # before lo; each eps_a searched is in (eps_s, 1)
    lo, hi = p.eps_s + EPS_A_CLAMP, 1.0 - EPS_A_CLAMP
    if lo >= hi:
        raise ValueError("eps_s leaves no room for an ancilla bias below 1")
    row = _row(p.phi)

    def column(eps_a: float) -> _Column:
        return _column(p.eps_s, eps_a)

    def defined(eps_a: float) -> bool:
        return _energies(column(eps_a), row)[4] > REVERSIBLE_WORK_FLOOR

    def sign(eps_a: float) -> int:
        return _rising(objective, column(eps_a), row)

    if not defined(hi):
        raise ValueError("objective is undefined on the whole search interval")
    lo = _bisect(defined, lo, hi)
    if sign(lo) < 0:
        star, at_boundary = lo, "lower"
    elif sign(hi) > 0:
        star, at_boundary = hi, "upper"
    else:
        star, at_boundary = _bisect(lambda x: sign(x) <= 0, lo, hi), None
    report = _report(column(star), row, p.temperature)
    return WorkingPoint(eps_a_star=star, objective_value=getattr(report, objective),
                        cooling_load_star=report.cooling_load, at_boundary=at_boundary)


def separability_boundary(eps_s: float, eps_a: float,
                          temperature: float = 1.0) -> SeparabilityBoundary:
    """Angle at which the post-measurement state first becomes entangled.

    ``rho_m`` is an X-state after ``R_y(-phi)`` on the register and a Hadamard
    on the ancilla (not in the computational basis).  Local unitaries keep the
    concurrence, so it has the closed form
    ``max(0, [(1 + eps_a) eps_s sin phi - (1 - eps_a) sqrt(1 - eps_s^2 cos^2 phi)] / 2)``
    (Wootters, PRL 80, 2245 (1998); Yu and Eberly, QIC 7, 459 (2007)),
    which is positive exactly for
    ``sin phi > (1 - eps_a) sqrt(1 - eps_s^2) / (2 eps_s sqrt(eps_a))``.
    The temperature is validated but does not move the angle.
    """
    p = ProtocolParams(eps_s, eps_a, 0.0, temperature)  # validates the fixed parameters
    if not p.eps_s < p.eps_a:
        raise ValueError("eps_s must be strictly below eps_a")
    num = (1.0 - p.eps_a) * math.sqrt((1.0 - p.eps_s) * (1.0 + p.eps_s))
    den = 2.0 * p.eps_s * math.sqrt(p.eps_a)
    # The verdict compares before dividing, so eps_s = 0 and an
    # underflowing den need no branch of their own.
    if num < den:
        return SeparabilityBoundary(phi=math.asin(num / den), status="interior")
    return SeparabilityBoundary(phi=math.pi / 2, status="never_entangled")


def eps_a_for_cooling_load(eps_s: float, load: float, temperature: float = 1.0) -> float:
    """Invert the cooling load for the ancilla bias: the first float at which
    the load reaches ``load``, by bisection to float resolution.

    The load is strictly increasing in eps_a above eps_s, so the solution
    on [eps_s, 1) is unique when it exists.
    """
    load = _real("load", load, "load")
    hi = 1.0 - EPS_A_CLAMP
    p = ProtocolParams(eps_s, hi, 0.0, temperature)  # every eps_a searched lies in [eps_s, hi]

    def reaches(eps_a: float) -> bool:
        return p.temperature * _column(p.eps_s, eps_a).entropy_reduction >= load

    if not reaches(hi):
        raise ValueError("cooling load is not attainable below eps_a = 1")
    return _bisect(reaches, p.eps_s, hi)
