"""Output checks that hold for any seed, and the golden outputs.

Every check raises ``CheckError`` naming what is wrong; the harness
counts an op whose output fails a check as a failed op.  The discord
reference is the benchmark's own evaluation of
S(thermal(eps_s cos phi)) - S(thermal(eps_s)), independent of qfcool.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

SWEEP_HEADER = ("eps_s,eps_a,phi,T,P,W,Q,cop,eta,chi,"
                "in_cooling_window,work_extracting,discord,mutual_info,concurrence,eof")
BOUNDARY_HEADER = "eps_s,eps_a,phi"
DISCORD_TOL = 1e-10
_BOOL_COLUMNS = ("in_cooling_window", "work_extracting")
_OPTIONAL_COLUMNS = ("cop", "eta", "chi")  # empty when undefined
_NON_FINITE = ("nan", "-nan", "inf", "-inf", "infinity", "-infinity")

# CLI invocations whose output bytes (or, for verify, check structure)
# are pinned by golden.json.  The landscape one also writes the two
# boundary files next to --output.
GOLDEN_OPS = {
    "sweep": ["sweep", "--eps-s", "0.4", "--format", "csv"],
    "landscape": ["sweep", "--landscape", "--n-phi", "25", "--format", "csv"],
    "verify": ["verify", "--grid-n", "6", "--format", "json"],
}


class CheckError(ValueError):
    """An output that violates a benchmark check."""


def thermal_entropy(x: float) -> float:
    """Von Neumann entropy (nats) of a qubit with populations (1 -+ x)/2."""
    return -sum(p * math.log(p) for p in ((1.0 - x) / 2.0, (1.0 + x) / 2.0) if p > 0.0)


def expected_discord(eps_s: float, phi: float) -> float:
    return thermal_entropy(eps_s * math.cos(phi)) - thermal_entropy(eps_s)


def check_discord(eps_s: float, phi: float, value: float) -> None:
    expected = expected_discord(eps_s, phi)
    if not abs(value - expected) <= DISCORD_TOL:
        raise CheckError(f"discord {value!r} at eps_s={eps_s!r}, phi={phi!r}; expected {expected!r}")


def check_finite(value, where: str = "document") -> None:
    """Every number in a parsed JSON tree (or result tuple) is finite."""
    if isinstance(value, dict):
        for key, item in value.items():
            check_finite(item, f"{where}.{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            check_finite(item, f"{where}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise CheckError(f"non-finite value {value!r} at {where}")


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def parse_json(text: str):
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckError(f"unparsable JSON: {exc}") from None
    check_finite(doc)
    return doc


def _number(field: str, where: str) -> float:
    try:
        value = float(field)
    except ValueError:
        raise CheckError(f"not a number at {where}: {field!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"non-finite value {field!r} at {where}")
    return value


def parse_csv(text: str, header: str) -> list[dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"CSV header {lines[0] if lines else ''!r}, expected {header!r}")
    names = header.split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(names):
            raise CheckError(f"CSV line {lineno} has {len(fields)} fields, expected {len(names)}")
        rows.append(dict(zip(names, fields)))
    return rows


def check_sweep_csv(text: str, n_rows: int) -> None:
    """Row count, finite numbers, boolean flags and the discord column."""
    rows = parse_csv(text, SWEEP_HEADER)
    if len(rows) != n_rows:
        raise CheckError(f"{len(rows)} CSV rows, expected {n_rows}")
    for lineno, row in enumerate(rows, 2):
        values = {}
        for key, field in row.items():
            if key in _BOOL_COLUMNS:
                if field not in ("true", "false"):
                    raise CheckError(f"line {lineno}: {key}={field!r} is not a boolean")
            elif not (field == "" and key in _OPTIONAL_COLUMNS):
                values[key] = _number(field, f"line {lineno} {key}")
        check_discord(values["eps_s"], values["phi"], values["discord"])


def check_boundary_csv(text: str) -> None:
    for lineno, row in enumerate(parse_csv(text, BOUNDARY_HEADER), 2):
        phi = _number(row["phi"], f"line {lineno} phi")
        eps_a = _number(row["eps_a"], f"line {lineno} eps_a")
        if not (0.0 <= phi <= math.pi / 2 and 0.0 <= eps_a < 1.0):
            raise CheckError(f"boundary point outside the domain at line {lineno}")


def _key_values(text: str) -> dict[str, str]:
    rows = parse_csv(text, "key,value")
    for row in rows:
        for token in row["value"].split(";"):
            if token.strip().lower() in _NON_FINITE:
                raise CheckError(f"non-finite value at {row['key']}")
    return {row["key"]: row["value"] for row in rows}


def _check_run(op: dict, stdout: str) -> None:
    if op["format"] == "json":
        doc = parse_json(stdout)
        discord = doc["correlations"]["discord_analytic"]
        passed = doc.get("verification", {}).get("passed")
    else:
        doc = _key_values(stdout)
        discord = _number(doc["correlations.discord_analytic"], "discord_analytic")
        passed = {"true": True, "false": False}.get(doc.get("verification.passed"))
    check_discord(op["eps_s"], op["phi"], discord)
    if op["verify"] and passed is not True:
        raise CheckError("run --verify did not report passed")


def _check_threshold(op: dict, stdout: str) -> None:
    if op["format"] == "json":
        value = parse_json(stdout)["delta_min"]
    else:
        rows = parse_csv(stdout, "eps_s,delta_min")
        if len(rows) != 1:
            raise CheckError("threshold CSV must hold one row")
        value = _number(rows[0]["delta_min"], "delta_min")
    if not 0.0 <= value <= math.log(2.0):
        raise CheckError(f"delta_min {value!r} outside [0, ln 2]")


def _check_optimize(op: dict, stdout: str) -> None:
    if op["format"] == "json":
        point = parse_json(stdout)["working_point"]
        star, value = point["eps_a_star"], point["objective_value"]
    else:
        header = ("objective,eps_s,phi,T,eps_a_star,objective_value,"
                  "cooling_load_star,at_boundary,degenerate")
        rows = parse_csv(stdout, header)
        if len(rows) != 1:
            raise CheckError("optimize CSV must hold one row")
        star = _number(rows[0]["eps_a_star"], "eps_a_star")
        value = _number(rows[0]["objective_value"], "objective_value")
    if not (op["eps_s"] <= star < 1.0 and math.isfinite(value)):
        raise CheckError(f"working point eps_a*={star!r}, value={value!r} out of range")


def _check_sweep(op: dict, stdout: str) -> None:
    if op["format"] == "csv":
        check_sweep_csv(stdout, op["rows"])
        return
    points = parse_json(stdout)["points"]
    if len(points) != op["rows"]:
        raise CheckError(f"{len(points)} sweep points, expected {op['rows']}")
    for point in points:
        check_discord(op["eps_s"], point["phi"], point["correlations"]["discord_analytic"])


def landscape_files(output: Path) -> dict[str, Path]:
    """The CSV a ``sweep --landscape --output`` call writes, and its boundary files."""
    return {
        "points": output,
        "cooling_boundary": output.with_name(f"{output.stem}_cooling_boundary.csv"),
        "work_boundary": output.with_name(f"{output.stem}_work_boundary.csv"),
    }


def check_landscape_files(texts: dict[str, str], n_rows: int) -> None:
    check_sweep_csv(texts["points"], n_rows)
    check_boundary_csv(texts["cooling_boundary"])
    check_boundary_csv(texts["work_boundary"])


_CLI_CHECKS = {
    "run": _check_run,
    "threshold": _check_threshold,
    "optimize": _check_optimize,
    "sweep": _check_sweep,
}


def check_cli_op(op: dict, exit_code: int, stdout: str, stderr: str,
                 files: dict[str, str] | None = None) -> None:
    """Check one ``qfcool.cli`` invocation of a workload op."""
    if exit_code != 0:
        raise CheckError(f"exit code {exit_code}: {stderr.strip()[-300:]}")
    if "Traceback" in stdout or "Traceback" in stderr:
        raise CheckError("traceback in output")
    if op["kind"] == "landscape_pool":
        check_landscape_files(files or {}, op["rows"])
    else:
        _CLI_CHECKS[op["kind"]](op, stdout)


def check_verify_checks(checks: list[dict], golden: list[dict]) -> None:
    """Every check passes on a non-zero point count, under golden names and tolerances."""
    shape = [(c["name"], c["tolerance"]) for c in checks]
    expected = [(c["name"], c["tolerance"]) for c in golden]
    if shape != expected:
        raise CheckError("verify check names or tolerances differ from golden.json")
    for c in checks:
        if not c["passed"] or c["points"] <= 0:
            raise CheckError(f"verify check {c['name']}: passed={c['passed']}, points={c['points']}")


def verify_structure(doc: dict) -> list[dict]:
    """The golden part of a ``verify --format json`` document."""
    return [{key: c[key] for key in ("name", "points", "tolerance", "passed")}
            for c in doc["checks"]]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
