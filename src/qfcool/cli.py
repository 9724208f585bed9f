"""Command-line front end.

Subcommands: run | sweep | optimize | threshold | verify.
Exit codes: 0 ok, 2 usage/domain error or out of memory, 3 verification failure.

Output is deterministic: identical invocations produce byte-identical
documents; every command runs in-process.  The sweep CSV columns are
declared once, in ``_SWEEP_COLUMNS``; the other CSV headers are the keys
of the records their rows come from (``run`` writes ``key,value`` rows
of its flattened document).  Angles are radians unless
--phi-degrees is given.  ``threshold``, ``optimize`` and ``run`` run on
the numpy-free ``closed_forms`` module alone; ``sweep`` and ``verify``
import the matrix layer (and numpy) when they start and read one evaluator,
``sweep._Grid``.  ``run --verify`` loads it too: it checks every number
``run`` prints, the concurrence and its EoF aside, against its matrix route
on the one-point grid of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import namedtuple
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .closed_forms import (
    EPS_A_CLAMP, MAX_GRID_POINTS, OBJECTIVES, ProtocolParams, _correlations, _require_count, _trace_summary,
    discord_threshold, figures_of_merit, optimize_working_point,
)

if TYPE_CHECKING:  # annotations only: the matrix layer loads numpy
    from . import sweep, verify

SCHEMA_VERSION = 1

# The sweep CSV, declared once: each column and the _SweepPoint attribute it writes.
_SWEEP_COLUMNS = {
    "eps_s": "eps_s", "eps_a": "eps_a", "phi": "phi", "T": "temperature",
    "P": "thermo.cooling_load", "W": "thermo.total_work", "Q": "thermo.heat_reset",
    "cop": "thermo.cop", "eta": "thermo.eta", "chi": "thermo.chi",
    "in_cooling_window": "thermo.in_cooling_window",
    "work_extracting": "thermo.work_extracting_feedback",
    "discord": "correlations.discord_analytic", "mutual_info": "correlations.mutual_info",
    "concurrence": "correlations.concurrence", "eof": "correlations.eof",
}
CSV_HEADER = ",".join(_SWEEP_COLUMNS)
_BOUNDARY_COLUMNS = dict(list(_SWEEP_COLUMNS.items())[:3])  # eps_s, eps_a, phi
# A CurvePoint or BoundaryPoint, by keyword, with its grid's eps_s and temperature.
_SweepPoint = namedtuple("_SweepPoint", "eps_s temperature eps_a phi thermo correlations",
                         defaults=(None, None))

_DEFAULT_SWEEP_PHIS = (0.0, math.pi / 4, 2 * math.pi / 5)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _field(value: Any) -> str:
    """One CSV field: a number to 12 significant digits (-0 written as 0), a bool
    as true/false, a str as is and None (an undefined value) as an empty field."""
    if type(value) is not float:  # a float skips these: a 25x101 landscape CSV has 40,400
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, str):
            return value
        value = float(value)
    return format(value or 0.0, ".12g")  # -0.0 is falsy: written as 0


def _csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    """The header line of the column names, then one line of ``_field``s per row."""
    return "\n".join([",".join(header), *(",".join(map(_field, row)) for row in rows)]) + "\n"


def _records_csv(records: Sequence[dict]) -> str:
    """Rows of dicts with the same keys, which name the columns."""
    return _csv(records[0], [record.values() for record in records])


def _table_csv(columns: dict[str, str], sources: Iterable) -> str:
    """A column per ``columns`` key, read from each source at its dotted attribute path."""
    return _csv(columns, map(attrgetter(*columns.values()), sources))


def _flatten(prefix: str, value: Any) -> Iterator[tuple[str, Any]]:
    """(dotted key, leaf) rows of a document, keys sorted; a list of numbers is one
    ';'-joined leaf."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(f"{prefix}.{key}" if prefix else key, value[key])
    elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        for index, item in enumerate(value):
            yield from _flatten(f"{prefix}.{index}", item)
    elif isinstance(value, (list, tuple)):
        yield prefix, ";".join(map(_field, value))
    else:
        yield prefix, value


def _emit(text: str, output: Optional[str | Path]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _envelope(command: str, **fields: Any) -> dict:
    """The document of ``command``: its fields under the schema version and command name."""
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; keys match flag names, '#' starts a comment."""
    values: dict[str, str] = {}
    try:  # like every other config error, a file that is not UTF-8 names its path
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _config_floats(raw: str) -> list[float]:
    return [float(part) for part in raw.split(",") if part.strip()]


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def _check_dict(check: verify.Check) -> dict:
    return {**vars(check), "passed": check.passed}


def _margin(check: verify.Check) -> float:
    """max_deviation / tolerance; infinite for NaN, or for a positive deviation of tolerance 0."""
    deviation, tolerance = check.max_deviation, check.tolerance
    if math.isnan(deviation) or (deviation > 0.0 and tolerance == 0.0):
        return math.inf
    return deviation / tolerance if tolerance else 0.0


# ---------------------------------------------------------------------------
# subcommands: each takes its options, merged by _merge
# ---------------------------------------------------------------------------

def _radians(opts: dict, angle: float) -> float:
    return math.radians(angle) if opts["phi_degrees"] else angle


def cmd_run(opts: dict) -> int:
    params = ProtocolParams(opts["eps_s"], opts["eps_a"], _radians(opts, opts["phi"]),
                            opts["temperature"])
    doc = _envelope("run", params=vars(params), trace=_trace_summary(params.eps_s, params.eps_a, params.phi),
                    thermo=vars(figures_of_merit(params)), correlations=vars(_correlations(params)))
    failed = False
    if opts["verify"]:
        from . import verify
        checks = verify.point_checks(params)
        failed = any(not c.passed for c in checks)
        doc["verification"] = {"checks": [_check_dict(c) for c in checks],
                               "max_deviation": max(c.max_deviation for c in checks),
                               "passed": not failed}
    _emit(_json_doc(doc) if opts["format"] == "json" else _csv(("key", "value"), _flatten("", doc)),
          opts["output"])
    return 3 if failed else 0


def _point_doc(point: sweep.CurvePoint) -> dict:
    """The point's fields, its reports as their vars() (not copied), without absent correlations."""
    doc = {"eps_a": point.eps_a, "phi": point.phi, "thermo": vars(point.thermo)}
    if point.correlations is not None:
        doc["correlations"] = vars(point.correlations)
    return doc


def cmd_sweep(opts: dict) -> int:
    from . import sweep
    import numpy as np
    eps_s, landscape_mode, phis, n_eps_a = opts["eps_s"], opts["landscape"], opts["phi"], opts["n_eps_a"]
    _require_count("n_phi", opts["n_phi"], 1)  # in every mode, as its type is
    _require_count("n_eps_a", n_eps_a, 2)
    n_phi = len(phis) if phis is not None else opts["n_phi"] if landscape_mode else len(_DEFAULT_SWEEP_PHIS)
    _require_count("grid points", n_phi * n_eps_a, 0, MAX_GRID_POINTS)  # before any axis is built
    if phis is not None:
        phis = [_radians(opts, v) for v in phis]
    elif landscape_mode:
        phis = np.linspace(0.0, math.pi / 2, n_phi).tolist()
    else:
        phis = _DEFAULT_SWEEP_PHIS
    eps_a_min = eps_s if opts["eps_a_min"] is None else opts["eps_a_min"]
    eps_a_values = tuple(eps_a_min + (opts["eps_a_max"] - eps_a_min) * i / (n_eps_a - 1)
                         for i in range(n_eps_a))
    grid = sweep.SweepGrid(eps_s=eps_s, phi_values=tuple(sorted(phis)),
                           eps_a_values=eps_a_values, temperature=opts["temperature"])
    result = sweep.landscape(grid, quantities={"thermo", "correlations"})
    output = opts["output"]
    if opts["format"] == "json":
        doc = _envelope("sweep", grid={**vars(grid), "eps_a_clamp": EPS_A_CLAMP},
                        points=[_point_doc(p) for p in result.points])
        if landscape_mode:
            doc["cooling_window_boundary"] = [b._asdict() for b in result.cooling_window_boundary]
            doc["work_extraction_boundary"] = [b._asdict() for b in result.work_extraction_boundary]
        _emit(_json_doc(doc), output)
        return 0
    eps_s, temperature = grid.eps_s, grid.temperature
    _emit(_table_csv(_SWEEP_COLUMNS, [_SweepPoint(eps_s, temperature, **vars(p))
                                      for p in result.points]), output)
    if landscape_mode:
        if output:
            base = Path(output)
            for name, series in (("cooling", result.cooling_window_boundary),
                                 ("work", result.work_extraction_boundary)):
                _emit(_table_csv(_BOUNDARY_COLUMNS, [_SweepPoint(eps_s, temperature, **b._asdict())
                                                     for b in series]),
                      base.with_name(f"{base.stem}_{name}_boundary.csv"))
        else:
            print("note: boundary series need --output in csv mode (or use --format json)",
                  file=sys.stderr)
    return 0


def cmd_threshold(opts: dict) -> int:
    row = {"eps_s": opts["eps_s"], "delta_min": discord_threshold(opts["eps_s"])}
    _emit(_json_doc(_envelope("threshold", **row)) if opts["format"] == "json"
          else _records_csv([row]), opts["output"])
    return 0


def cmd_optimize(opts: dict) -> int:
    head = {"objective": opts["objective"], "eps_s": opts["eps_s"],
            "phi": _radians(opts, opts["phi"])}
    temperature = opts["temperature"]
    point = vars(optimize_working_point(**head, temperature=temperature))
    if opts["format"] == "json":
        text = _json_doc(_envelope("optimize", **head, temperature=temperature, working_point=point))
    else:
        text = _records_csv([{**head, "T": temperature, **point}])
    _emit(text, opts["output"])
    return 0


def cmd_verify(opts: dict) -> int:
    from . import verify
    grid_n, temperature = opts["grid_n"], opts["temperature"]
    checks = verify.run_suite(grid_n=grid_n, discord_stride=opts["discord_stride"],
                              temperature=temperature)
    failed = [c for c in checks if not c.passed]
    if opts["format"] == "json":
        text = _json_doc(_envelope("verify", grid_n=grid_n, temperature=temperature,
                               checks=[_check_dict(c) for c in checks], passed=not failed))
    elif opts["format"] == "csv":
        text = _records_csv([_check_dict(c) for c in checks])
    else:
        width = max(len(c.name) for c in checks)
        lines = [f"{'check'.ljust(width)}  points  max deviation  tolerance  status",
                 *(f"{c.name.ljust(width)}  {c.points:6d}  {c.max_deviation:13.3e}"
                   f"  {c.tolerance:9.0e}  {'PASS' if c.passed else 'FAIL'}" for c in checks),
                 "", f"SUMMARY: {len(checks) - len(failed)}/{len(checks)} invariant classes"
                     f" passed (grid {grid_n}x{grid_n}x{grid_n})"]
        if failed:
            first = failed[0]
            lines.append(f"FIRST FAILURE: {first.name} (max deviation "
                         f"{first.max_deviation:.3e} > tolerance {first.tolerance:.0e})")
        lines.append(json.dumps({"passed": not failed, "checks": len(checks), "failed": len(failed),
                                 "worst": _check_dict(max(checks, key=_margin))}, sort_keys=True))
        text = "\n".join(lines) + "\n"
    _emit(text, opts["output"])
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# options: each declared once; the declarations make the flags and check
# the config file's values
# ---------------------------------------------------------------------------

_REQUIRED = object()  # the default of an option the command cannot run without


class _Option(NamedTuple):
    """Flag ``--name`` (dashes for underscores) and config key ``name``.  ``convert``
    parses a config value and is the flag's type, except that ``_config_bool`` makes a
    store_true switch and ``_config_floats`` a float flag given once per value."""
    name: str
    convert: Callable[[str], Any]
    default: Any = None
    help: Optional[str] = None
    choices: Optional[tuple] = None


_FLAG_KINDS = {_config_bool: {"action": "store_true"},
               _config_floats: {"action": "append", "type": float}}

_COMMON = (
    _Option("config", str, None, "flat key = value config file; flags override it"),
    _Option("format", str, "json", "output format (default json)", ("json", "csv")),
    _Option("output", str, None, "output path (default stdout)"),
    _Option("temperature", float, 1.0, "bath temperature, k_B = 1 (default 1.0)"),
    _Option("phi_degrees", _config_bool, False, "interpret --phi values in degrees"),
)


def _command(handler: Callable[[dict], int], help_text: str, *own: _Option) -> tuple:
    """Handler, help and options of a subcommand; its own option replaces a common one in place."""
    return handler, help_text, {option.name: option for option in (*_COMMON, *own)}


_COMMANDS = {
    "run": _command(
        cmd_run, "single protocol run with full reports",
        _Option("eps_s", float, _REQUIRED, "register bias in [0, 1)"),
        _Option("eps_a", float, _REQUIRED, "ancilla bias in [eps_s, 1)"),
        _Option("phi", float, _REQUIRED, "measurement angle"),
        _Option("verify", _config_bool, False, "pair every closed form with its matrix oracle")),
    "sweep": _command(
        cmd_sweep, "characteristic-curve or landscape data",
        _Option("eps_s", float, 0.4),
        _Option("phi", _config_floats, None, "measurement angle; repeat for several curves"),
        _Option("n_phi", int, 25, "size of the phi grid in landscape mode (default 25)"),
        _Option("eps_a_min", float, None),  # None: eps_s
        _Option("eps_a_max", float, 1.0 - EPS_A_CLAMP),
        _Option("n_eps_a", int, 101, "number of ancilla-bias points (default 101)"),
        _Option("landscape", _config_bool, False, "full (phi, eps_a) grid plus boundary series")),
    "threshold": _command(
        cmd_threshold, "minimum discord guaranteeing cooling",
        _Option("eps_s", float, _REQUIRED)),
    "optimize": _command(
        cmd_optimize, "optimal ancilla bias for a figure of merit",
        _Option("objective", str, _REQUIRED, choices=OBJECTIVES),
        _Option("eps_s", float, _REQUIRED),
        _Option("phi", float, _REQUIRED)),
    "verify": _command(
        cmd_verify, "run the oracle/property suite on a grid",
        _Option("format", str, "table", "output format (default table)", ("table", "json", "csv")),
        _Option("grid_n", int, 12, "points per parameter axis (default 12)"),
        _Option("discord_stride", int, 3, "subsampling stride of the numeric-discord checks (default 3)")),
}


_DECLARED = {name for _, _, options in _COMMANDS.values() for name in options} - {"config"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfcool",
        description="Single-shot quantum feedback cooling: exact simulation, "
                    "thermodynamics, correlations.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options.values():
            kind = _FLAG_KINDS.get(option.convert, {"type": option.convert, "choices": option.choices})
            p.add_argument("--" + option.name.replace("_", "-"), default=None,
                           help=option.help, **kind)
    return parser


def _merge(args: argparse.Namespace, declared: dict[str, _Option]) -> dict[str, Any]:
    """Every option the command declares, by name: flag > config file > declared default.

    A config value goes through its flag's converter and choices.  The options
    are merged in a fixed order, and the first bad one is reported: the
    temperature, checked as ProtocolParams checks it (at a point valid at any T,
    so also where the output does not depend on it); phi_degrees; the command's
    own options; the other common ones; then a config key that no command declares, or
    ``config``: a file names no other (a key of another command passes, so one file
    can serve several commands).
    """
    config = _load_config(args.config) if args.config else {}
    common = [option.name for option in _COMMON]
    opts: dict[str, Any] = {}
    for name in dict.fromkeys(["temperature", "phi_degrees",
                               *(own for own in declared if own not in common), *common]):
        option, value = declared[name], getattr(args, name)
        if value is None and name in config:
            try:  # the flag's own converter and choices
                value = option.convert(config[name])
                if option.choices and value not in option.choices:
                    raise ValueError(f"invalid choice: {value!r} (choose from "
                                     f"{', '.join(map(repr, option.choices))})")
            except ValueError as exc:
                raise ValueError(f"{args.config}: {name}: {exc}") from None
        if value is None:
            value = option.default
        if value is _REQUIRED:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        if name == "temperature":
            ProtocolParams(0.0, 0.0, 0.0, value)
        opts[name] = value
    unknown = [name for name in config if name not in _DECLARED]  # in file order
    if unknown:
        raise ValueError(f"{args.config}: {unknown[0]}: unknown option")
    return opts


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        handler, _, declared = _COMMANDS[args.command]
        return handler(_merge(args, declared))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
