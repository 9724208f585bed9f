"""Properties of the CLI over the whole parameter domain.

Inputs are drawn with a log-uniform temperature in [1e-300, 1e300] and
with the domain edges: ``eps_s = 0``, ``eps_s = eps_a``, ``eps_a`` at the
sweep's clamp ``1 - 1e-9``, and ``phi`` at 0 and pi/2.  Every document a
command writes holds only finite numbers, none of them a negative zero (a
zero is written as 0 in CSV and 0.0 in JSON), and bad input exits 2 with a
one-line error that names the bad parameter.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfcool import closed_forms, sweep
from qfcool.cli import main

HALF_PI = math.pi / 2
CLAMP = 1.0 - closed_forms.EPS_A_CLAMP
# ``run --verify`` can exit 3 from eps_a = 1 - 1.4e-7 up to the clamp: the
# entropy-reduction closed form loses up to about 1e-9 to cancellation there (ROADMAP
# item 3).  Below 1 - 1e-6 a scan of 1,500 eps_a values by 204 eps_s values in
# [0, 0.999] found at most 0.13 of its tolerance.  These properties keep that
# known defect visible instead of drawing around it.
CANCELLATION_EDGE = 1.0 - 1e-6
CANCELLATION_CLASSES = {"entropy_reduction"}

temperatures = st.one_of(st.sampled_from([1e-300, 1.0, 1e300]),
                         st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))


@st.composite
def points(draw):
    """(eps_s, eps_a, phi, T) inside the domain, edges included."""
    eps_s = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))
    eps_a = draw(st.one_of(st.just(eps_s), st.just(CLAMP), st.floats(eps_s, CLAMP)))
    phi = draw(st.one_of(st.sampled_from([0.0, HALF_PI]), st.floats(0.0, HALF_PI)))
    return eps_s, eps_a, phi, draw(temperatures)


def commands(eps_s, eps_a, phi, objective):
    """Each command's arguments at the point, flags written as ``--flag=value``."""
    def flags(**values):
        return [f"--{k.replace('_', '-')}={v!r}" for k, v in values.items()]
    return {
        "run": ["run", *flags(eps_s=eps_s, eps_a=eps_a, phi=phi)],
        "run-verify": ["run", *flags(eps_s=eps_s, eps_a=eps_a, phi=phi), "--verify"],
        "optimize": ["optimize", f"--objective={objective}", *flags(eps_s=eps_s, phi=phi)],
        "threshold": ["threshold", *flags(eps_s=eps_s)],
        "sweep": ["sweep", *flags(eps_s=eps_s, phi=phi), "--n-eps-a=3"],
        "landscape": ["sweep", "--landscape", *flags(eps_s=eps_s), "--n-phi=2", "--n-eps-a=3"],
    }


def emit(args, fmt):
    """Exit code, stderr and every document the command writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / f"out.{fmt}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*args, f"--format={fmt}", f"--output={out}"])
        docs = {p.name: p.read_text(encoding="utf-8") for p in Path(tmp).iterdir()}
    if stdout.getvalue():
        docs[f"stdout.{fmt}"] = stdout.getvalue()
    return code, stderr.getvalue(), docs


def _emittable(value: float) -> bool:
    """A number a document may hold: finite, and a zero only as +0.0."""
    return math.isfinite(value) and (value != 0.0 or math.copysign(1.0, value) > 0.0)


def _finite(value: float) -> float:
    assert _emittable(value), value
    return value


def _no_constant(name: str):
    raise AssertionError(f"{name} in a JSON document")


def assert_finite(name: str, text: str) -> None:
    if name.endswith(".json"):
        json.loads(text, parse_float=lambda s: _finite(float(s)), parse_constant=_no_constant)
        return
    for row in csv.reader(io.StringIO(text)):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            assert _emittable(value), (name, row)


def assert_error_line(err: str, name: str) -> None:
    """One ``error:`` line that names the parameter, and no traceback."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert name in err, err


@settings(max_examples=25, deadline=None)
@given(point=points(), objective=st.sampled_from(closed_forms.OBJECTIVES),
       fmt=st.sampled_from(["json", "csv"]))
# optimize's bracket closes on a reversible limit here (it once emitted -Infinity)
@example(point=(0.034965, 0.5, HALF_PI, 1e300), objective="cop", fmt="json")
@example(point=(0.034965, CLAMP, HALF_PI, 1e-300), objective="eta", fmt="csv")
# a negative energy times T underflows to a zero: W_m here, W_f and dE_S at T = 5e-324
@example(point=(0.0, 1e-12, 1.0, 1e-300), objective="cop", fmt="json")
@example(point=(0.4, CLAMP, 0.0, 5e-324), objective="cop", fmt="json")
def test_emitted_documents_hold_only_finite_numbers(point, objective, fmt):
    eps_s, eps_a, phi, t = point
    for command, args in commands(eps_s, eps_a, phi, objective).items():
        code, err, docs = emit([*args, f"--temperature={t!r}"], fmt)
        if code == 2:
            # the only domain errors inside the domain: threshold's open
            # interval and energies that overflow at the given temperature
            assert docs == {}
            assert_error_line(err, "eps_s" if command == "threshold" and eps_s == 0.0
                              else "temperature")
            continue
        assert code == 0 or (command == "run-verify" and code == 3), (command, code, err)
        assert docs
        for name, text in docs.items():
            assert_finite(name, text)
        if code == 3:
            assert eps_a >= CANCELLATION_EDGE, (point, docs)
            if fmt == "json":
                [doc] = docs.values()
                failed = {c["name"] for c in json.loads(doc)["verification"]["checks"]
                          if not c["passed"]}
                assert failed <= CANCELLATION_CLASSES, failed


BAD_VALUES = {
    "eps_s": [-0.1, -1e-300, 1.0, 1.5, math.nan, math.inf, -math.inf],
    "eps_a": [-0.5, 1.0, 2.0, math.nan, math.inf],
    "phi": [-0.1, math.nextafter(HALF_PI, 4.0), 3.2, math.nan, math.inf],
    "temperature": [0.0, -0.0, -1.0, -1e-300, math.nan, math.inf, -math.inf],
}
TAKES = {"run": ("eps_s", "eps_a", "phi"), "optimize": ("eps_s", "phi"),
         "threshold": ("eps_s",), "sweep": ("eps_s", "phi"), "landscape": ("eps_s",)}


@st.composite
def bad_inputs(draw):
    """A command, one of its parameters and a value outside that parameter's domain."""
    command = draw(st.sampled_from(sorted(TAKES)))
    name = draw(st.sampled_from([*TAKES[command], "temperature"]))
    return command, name, draw(st.sampled_from(BAD_VALUES[name]))


@settings(max_examples=40, deadline=None)
@given(point=points(), bad=bad_inputs(), fmt=st.sampled_from(["json", "csv"]))
def test_bad_input_exits_2_naming_the_parameter(point, bad, fmt):
    eps_s, eps_a, phi, t = point
    command, name, value = bad
    values = {"eps_s": eps_s, "eps_a": eps_a, "phi": phi, "temperature": t, name: value}
    args = commands(values["eps_s"], values["eps_a"], values["phi"], "eta")[command]
    code, err, docs = emit([*args, f"--temperature={values['temperature']!r}"], fmt)
    assert code == 2, (code, err)
    assert docs == {}
    assert_error_line(err, name)


# Each command's count options and their lower bounds.
COUNTS = {"sweep": {"n_phi": 1, "n_eps_a": 2}, "verify": {"grid_n": 2, "discord_stride": 1}}


@st.composite
def bad_counts(draw):
    """A command's arguments, with a non-empty subset of its counts each below its bound."""
    command = draw(st.sampled_from(sorted(COUNTS)))
    bounds = COUNTS[command]
    names = draw(st.lists(st.sampled_from(sorted(bounds)), min_size=1, unique=True))
    bad = {name: draw(st.integers(-10 ** 6, bounds[name] - 1)) for name in names}
    args = [command, *(f"--{name.replace('_', '-')}={value}" for name, value in bad.items())]
    if command == "sweep":
        args += ["--landscape"] * draw(st.booleans()) + ["--phi=0.5"] * draw(st.booleans())
    return args, bad


@settings(max_examples=40, deadline=None, derandomize=True)
@given(counts=bad_counts(), fmt=st.sampled_from(["json", "csv"]))
def test_a_count_below_its_bound_exits_2_in_every_mode(counts, fmt):
    # a count is checked whether or not the mode reads it (sweep reads n_phi in a landscape only)
    args, bad = counts
    code, err, docs = emit(args, fmt)
    assert code == 2, (args, code, err)
    assert docs == {}
    # one error line, no traceback, naming one of the bad counts with its bound and value
    assert any(err == f"error: {name} must be at least {COUNTS[args[0]][name]}, got {value}\n"
               for name, value in bad.items()), (args, err)


@settings(max_examples=40, deadline=None)
@given(point=points(), name=st.sampled_from(sorted(BAD_VALUES)), data=st.data())
def test_bad_input_to_the_library_raises_value_error(point, name, data):
    eps_s, eps_a, phi, t = point
    values = {"eps_s": eps_s, "eps_a": eps_a, "phi": phi, "temperature": t,
              name: data.draw(st.sampled_from(BAD_VALUES[name]))}
    calls = [lambda: closed_forms.figures_of_merit(closed_forms.ProtocolParams(**values))]
    if name != "eps_a":
        calls.append(lambda: sweep.characteristic_curve(values["eps_s"], values["phi"], 3,
                                                        values["temperature"]))
        calls.append(lambda: closed_forms.optimize_working_point(
            "chi", values["eps_s"], values["phi"], values["temperature"]))
    if name != "phi":
        calls.append(lambda: closed_forms.separability_boundary(
            values["eps_s"], values["eps_a"], values["temperature"]))
    for call in calls:
        try:
            call()
        except ValueError:
            continue
        raise AssertionError(f"no ValueError for {name}={values[name]!r}")
