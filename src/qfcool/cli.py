"""Command-line front end.

Subcommands: run | sweep | optimize | threshold | verify.
Exit codes: 0 ok, 2 usage/domain error, 3 verification failure.

Output is deterministic: identical invocations produce byte-identical
documents; every command runs in-process.  Angles are radians unless
--phi-degrees is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import correlations, densmat, protocol, sweep, thermo, verify
from .correlations import OptimizerOptions
from .protocol import ProtocolParams

SCHEMA_VERSION = 1
CSV_HEADER = ("eps_s,eps_a,phi,T,P,W,Q,cop,eta,chi,"
              "in_cooling_window,work_extracting,discord,mutual_info,concurrence,eof")

_DEFAULT_SWEEP_PHIS = (0.0, math.pi / 4, 2 * math.pi / 5)


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    """12-significant-digit decimal; empty field for undefined values."""
    if value is None:
        return ""
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return format(value, ".12g")


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_doc(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], rows)
    elif isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        for index, item in enumerate(value):
            _flatten(f"{prefix}.{index}", item, rows)
    elif isinstance(value, (list, tuple)):
        rows.append((prefix, ";".join(_fmt(v) for v in value)))
    elif isinstance(value, bool):
        rows.append((prefix, _fmt_bool(value)))
    elif value is None or isinstance(value, (int, float)):
        rows.append((prefix, _fmt(value)))
    else:
        rows.append((prefix, str(value)))


def _key_value_csv(doc: dict) -> str:
    rows: list[tuple[str, str]] = []
    _flatten("", doc, rows)
    return "key,value\n" + "\n".join(f"{k},{v}" for k, v in rows) + "\n"


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; keys match flag names, '#' starts a comment."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
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

def _state_summary(rho: np.ndarray) -> dict:
    """Purity, entropy and (for a qubit) Bloch vector of a trace state, read unchecked."""
    doc = {"purity": densmat._purity(rho), "entropy": float(densmat._vn_entropies(rho))}
    if rho.shape == (2, 2):
        doc["bloch"] = densmat._bloch_vector(rho).tolist()
    return doc


def _trace_summary(trace: protocol.ProtocolTrace) -> dict:
    joint = ("rho0", "rho_m", "rho_f", "rho_reset")
    doc = {name: _state_summary(getattr(trace, name)) for name in joint}
    doc["marginals"] = {name: _state_summary(rho)
                        for name, rho in vars(trace).items() if name not in joint}
    return doc


def _check_dict(check: verify.Check) -> dict:
    return {**vars(check), "passed": check.passed}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_run(params: ProtocolParams, output_format: str, verify_checks: bool,
            optimizer: OptimizerOptions, output: Optional[str]) -> int:
    trace = protocol.run_protocol(params)
    report = thermo.figures_of_merit(params)
    corr = correlations.correlation_report(params, opts=optimizer)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "run",
        "params": dict(vars(params)),
        "trace": _trace_summary(trace),
        "thermo": dict(vars(report)),
        "correlations": dict(vars(corr)),
    }
    failed = False
    if verify_checks:
        checks = verify.point_checks(params)
        failed = any(not c.passed for c in checks)
        doc["verification"] = {
            "checks": [_check_dict(c) for c in checks],
            "max_deviation": max(c.max_deviation for c in checks),
            "passed": not failed,
        }
    render = _json_doc if output_format == "json" else _key_value_csv
    _emit(render(doc), output)
    return 3 if failed else 0


def _grid_doc(grid: sweep.SweepGrid) -> dict:
    return {
        "eps_s": grid.eps_s,
        "temperature": grid.temperature,
        "phi_values": list(grid.phi_values),
        "eps_a_values": list(grid.eps_a_values),
        "eps_a_clamp": sweep.EPS_A_CLAMP,
    }


def _point_doc(point: sweep.CurvePoint) -> dict:
    doc = {
        "eps_a": point.eps_a,
        "phi": point.phi,
        "thermo": dict(vars(point.thermo)),
    }
    if point.correlations is not None:
        doc["correlations"] = dict(vars(point.correlations))
    return doc


def _sweep_csv_rows(eps_s: float, temperature: float,
                    points: Sequence[sweep.CurvePoint]) -> str:
    lines = [CSV_HEADER]
    for point in points:
        th = point.thermo
        corr = point.correlations
        lines.append(",".join([
            _fmt(eps_s), _fmt(point.eps_a), _fmt(point.phi), _fmt(temperature),
            _fmt(th.cooling_load), _fmt(th.total_work), _fmt(th.heat_reset),
            _fmt(th.cop), _fmt(th.eta), _fmt(th.chi),
            _fmt_bool(th.in_cooling_window), _fmt_bool(th.work_extracting_feedback),
            _fmt(corr.discord_analytic), _fmt(corr.mutual_info),
            _fmt(corr.concurrence), _fmt(corr.eof),
        ]))
    return "\n".join(lines) + "\n"


def _boundary_csv(eps_s: float, series: Sequence[sweep.BoundaryPoint]) -> str:
    rows = [f"{_fmt(eps_s)},{_fmt(p.eps_a)},{_fmt(p.phi)}" for p in series]
    return "\n".join(["eps_s,eps_a,phi", *rows]) + "\n"


def cmd_sweep(grid: sweep.SweepGrid, landscape_mode: bool, output_format: str,
              output: Optional[str]) -> int:
    result = sweep.landscape(grid, quantities={"thermo", "correlations"})
    if output_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "sweep",
            "grid": _grid_doc(grid),
            "points": [_point_doc(p) for p in result.points],
        }
        if landscape_mode:
            doc["cooling_window_boundary"] = [b._asdict() for b in result.cooling_window_boundary]
            doc["work_extraction_boundary"] = [b._asdict() for b in result.work_extraction_boundary]
        _emit(_json_doc(doc), output)
        return 0
    _emit(_sweep_csv_rows(grid.eps_s, grid.temperature, result.points), output)
    if landscape_mode:
        if output:
            base = Path(output)
            base.with_name(f"{base.stem}_cooling_boundary.csv").write_text(
                _boundary_csv(grid.eps_s, result.cooling_window_boundary), encoding="utf-8")
            base.with_name(f"{base.stem}_work_boundary.csv").write_text(
                _boundary_csv(grid.eps_s, result.work_extraction_boundary), encoding="utf-8")
        else:
            print("note: boundary series need --output in csv mode (or use --format json)",
                  file=sys.stderr)
    return 0


def cmd_threshold(eps_s: float, output_format: str, output: Optional[str]) -> int:
    value = correlations.discord_threshold(eps_s)
    if output_format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": "threshold",
               "eps_s": eps_s, "delta_min": value}
        _emit(_json_doc(doc), output)
    else:
        _emit(f"eps_s,delta_min\n{_fmt(eps_s)},{_fmt(value)}\n", output)
    return 0


def cmd_optimize(objective: str, eps_s: float, phi: float, temperature: float,
                 output_format: str, output: Optional[str]) -> int:
    point = sweep.optimize_working_point(objective, eps_s, phi, temperature)
    if output_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "optimize",
            "objective": objective,
            "eps_s": eps_s,
            "phi": phi,
            "temperature": temperature,
            "working_point": dict(vars(point)),
        }
        _emit(_json_doc(doc), output)
    else:
        header = "objective,eps_s,phi,T,eps_a_star,objective_value,cooling_load_star,at_boundary,degenerate"
        row = ",".join([
            objective, _fmt(eps_s), _fmt(phi), _fmt(temperature),
            _fmt(point.eps_a_star), _fmt(point.objective_value),
            _fmt(point.cooling_load_star), point.at_boundary or "",
            _fmt_bool(point.degenerate),
        ])
        _emit(f"{header}\n{row}\n", output)
    return 0


def cmd_verify(grid_n: int, discord_stride: int, temperature: float, output_format: str,
               output: Optional[str]) -> int:
    checks = verify.run_suite(grid_n=grid_n, discord_stride=discord_stride,
                              temperature=temperature)
    failed = [c for c in checks if not c.passed]
    if output_format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "verify",
            "grid_n": grid_n,
            "temperature": temperature,
            "checks": [_check_dict(c) for c in checks],
            "passed": not failed,
        }
        _emit(_json_doc(doc), output)
    elif output_format == "csv":
        lines = ["name,points,max_deviation,tolerance,passed"]
        for c in checks:
            lines.append(",".join([
                c.name, str(c.points), _fmt(c.max_deviation), _fmt(c.tolerance),
                _fmt_bool(c.passed)]))
        _emit("\n".join(lines) + "\n", output)
    else:
        width = max(len(c.name) for c in checks)
        lines = [f"{'check'.ljust(width)}  points  max deviation  tolerance  status"]
        for c in checks:
            lines.append(
                f"{c.name.ljust(width)}  {c.points:6d}  {c.max_deviation:13.3e}"
                f"  {c.tolerance:9.0e}  {'PASS' if c.passed else 'FAIL'}")
        lines.append("")
        lines.append(
            f"SUMMARY: {len(checks) - len(failed)}/{len(checks)} invariant classes passed"
            f" (grid {grid_n}x{grid_n}x{grid_n})")
        if failed:
            first = failed[0]
            lines.append(
                f"FIRST FAILURE: {first.name}"
                f" (max deviation {first.max_deviation:.3e} > tolerance {first.tolerance:.0e})")
        worst = max(checks, key=lambda c: c.max_deviation - c.tolerance)
        lines.append(json.dumps({
            "passed": not failed,
            "checks": len(checks),
            "failed": len(failed),
            "worst": _check_dict(worst),
        }, sort_keys=True))
        _emit("\n".join(lines) + "\n", output)
    return 3 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfcool",
        description="Single-shot quantum feedback cooling: exact simulation, "
                    "thermodynamics, correlations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file; flags override it")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format (default json)")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--temperature", type=float, default=None,
                       help="bath temperature, k_B = 1 (default 1.0)")
        p.add_argument("--phi-degrees", action="store_true", default=None,
                       help="interpret --phi values in degrees")

    p_run = sub.add_parser("run", help="single protocol run with full reports")
    add_common(p_run)
    p_run.add_argument("--eps-s", type=float, default=None, help="register bias in [0, 1)")
    p_run.add_argument("--eps-a", type=float, default=None, help="ancilla bias in [eps_s, 1)")
    p_run.add_argument("--phi", type=float, default=None, help="measurement angle")
    p_run.add_argument("--verify", action="store_true", default=None,
                       help="pair every closed form with its matrix oracle")
    p_run.add_argument("--discord-polar", type=int, default=None,
                       help="coarse polar grid of the discord search (default 64)")
    p_run.add_argument("--discord-azimuth", type=int, default=None,
                       help="coarse azimuth grid of the discord search (default 32)")
    p_run.add_argument("--discord-tol", type=float, default=None,
                       help="objective tolerance of the discord search (default 1e-9)")

    p_sweep = sub.add_parser("sweep", help="characteristic-curve or landscape data")
    add_common(p_sweep)
    p_sweep.add_argument("--eps-s", type=float, default=None)
    p_sweep.add_argument("--phi", type=float, action="append", default=None,
                         help="measurement angle; repeat for several curves")
    p_sweep.add_argument("--n-phi", type=int, default=None,
                         help="size of the phi grid in landscape mode (default 25)")
    p_sweep.add_argument("--eps-a-min", type=float, default=None)
    p_sweep.add_argument("--eps-a-max", type=float, default=None)
    p_sweep.add_argument("--n-eps-a", type=int, default=None,
                         help="number of ancilla-bias points (default 101)")
    p_sweep.add_argument("--landscape", action="store_true", default=None,
                         help="full (phi, eps_a) grid plus boundary series")

    p_thr = sub.add_parser("threshold", help="minimum discord guaranteeing cooling")
    add_common(p_thr)
    p_thr.add_argument("--eps-s", type=float, default=None)

    p_opt = sub.add_parser("optimize", help="optimal ancilla bias for a figure of merit")
    add_common(p_opt)
    p_opt.add_argument("--objective", choices=sweep.OBJECTIVES, default=None)
    p_opt.add_argument("--eps-s", type=float, default=None)
    p_opt.add_argument("--phi", type=float, default=None)

    p_ver = sub.add_parser("verify", help="run the oracle/property suite on a grid")
    add_common(p_ver)
    p_ver.add_argument("--grid-n", type=int, default=None,
                       help="points per parameter axis (default 12)")
    p_ver.add_argument("--discord-stride", type=int, default=None,
                       help="subsampling stride of the numeric-discord checks (default 3)")

    return parser


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required option {flag}")
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _load_config(args.config) if args.config else {}

        def get(key: str, default, convert):
            """Merge precedence: explicit flag > config file > hard default."""
            value = getattr(args, key, None)
            if value is not None:
                return value
            return convert(config[key]) if key in config else default

        output_format = get("format", "json", str)
        output = get("output", None, str)
        temperature = get("temperature", 1.0, float)
        in_degrees = bool(get("phi_degrees", False, _config_bool))

        def to_radians(value: float) -> float:
            return math.radians(value) if in_degrees else value

        if args.command == "run":
            params = ProtocolParams(
                eps_s=_require(get("eps_s", None, float), "--eps-s"),
                eps_a=_require(get("eps_a", None, float), "--eps-a"),
                phi=to_radians(_require(get("phi", None, float), "--phi")),
                temperature=temperature,
            )
            return cmd_run(
                params=params,
                output_format=output_format,
                verify_checks=bool(get("verify", False, _config_bool)),
                optimizer=OptimizerOptions(
                    n_polar=int(get("discord_polar", 64, int)),
                    n_azimuth=int(get("discord_azimuth", 32, int)),
                    objective_tol=float(get("discord_tol", 1e-9, float)),
                ),
                output=output,
            )

        if args.command == "sweep":
            eps_s = float(get("eps_s", 0.4, float))
            landscape_mode = bool(get("landscape", False, _config_bool))
            phis = get("phi", None, _config_floats)
            if phis is None:
                if landscape_mode:
                    n_phi = int(get("n_phi", 25, int))
                    if n_phi < 1:
                        raise ValueError("n_phi must be at least 1")
                    phis = [float(v) for v in np.linspace(0.0, math.pi / 2, n_phi)]
                else:
                    phis = list(_DEFAULT_SWEEP_PHIS)
            else:
                phis = [to_radians(v) for v in phis]
            eps_a_min = float(get("eps_a_min", eps_s, float))
            eps_a_max = float(get("eps_a_max", 1.0 - sweep.EPS_A_CLAMP, float))
            n_eps_a = int(get("n_eps_a", 101, int))
            if n_eps_a < 2:
                raise ValueError("n_eps_a must be at least 2")
            eps_a_values = [
                eps_a_min + (eps_a_max - eps_a_min) * i / (n_eps_a - 1)
                for i in range(n_eps_a)
            ]
            grid = sweep.SweepGrid(eps_s=eps_s, phi_values=tuple(sorted(phis)),
                                   eps_a_values=tuple(eps_a_values),
                                   temperature=temperature)
            return cmd_sweep(grid, landscape_mode, output_format, output)

        if args.command == "threshold":
            eps_s = _require(get("eps_s", None, float), "--eps-s")
            return cmd_threshold(float(eps_s), output_format, output)

        if args.command == "optimize":
            return cmd_optimize(
                objective=_require(get("objective", None, str), "--objective"),
                eps_s=float(_require(get("eps_s", None, float), "--eps-s")),
                phi=to_radians(float(_require(get("phi", None, float), "--phi"))),
                temperature=temperature,
                output_format=output_format,
                output=output,
            )

        if args.command == "verify":
            # default is the human-readable table with a trailing one-line
            # machine summary; --format json/csv switches representation
            verify_format = get("format", "table", str)
            return cmd_verify(
                grid_n=int(get("grid_n", 12, int)),
                discord_stride=int(get("discord_stride", 3, int)),
                temperature=temperature,
                output_format=verify_format,
                output=output,
            )

        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
