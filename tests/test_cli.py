import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfcool
from qfcool import cli, sweep, thermo
from qfcool.cli import CSV_HEADER, main

HALF_PI_STR = "1.5707963267948966"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_emits_full_json_document(capsys):
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                           "--phi", HALF_PI_STR)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["params"] == {"eps_s": 0.4, "eps_a": 0.8,
                             "phi": float(HALF_PI_STR), "temperature": 1.0}
    assert set(doc["thermo"]) >= {
        "work_measurement", "work_feedback", "heat_reset", "delta_e_system",
        "entropy_reduction", "cooling_load", "total_work", "cop", "eta", "chi",
        "in_cooling_window", "work_extracting_feedback", "phi_crit",
        "phi_crit_defined", "reversible_limit"}
    assert set(doc["correlations"]) == {
        "concurrence", "eof", "mutual_info", "discord_a", "discord_s",
        "discord_analytic", "classical_a"}
    marginals = doc["trace"]["marginals"]
    assert set(marginals) == {"rho0_s", "rho0_a", "rho_m_s", "rho_m_a",
                              "rho_f_s", "rho_f_a"}
    # swapped register marginal: bloch (0, 0, -eps_a), ancilla purity
    assert abs(marginals["rho_f_s"]["bloch"][2] + 0.8) <= 1e-10
    assert abs(marginals["rho_f_s"]["purity"] - 0.82) <= 1e-10


def test_run_rejects_inverted_biases(capsys):
    code, _, err = run_cli(capsys, "run", "--eps-s", "0.9", "--eps-a", "0.4",
                           "--phi", "1.0")
    assert code == 2
    assert "eps_s must not exceed eps_a" in err


def test_run_degenerate_point_reports_undefined_cop(capsys):
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.4",
                           "--phi", HALF_PI_STR)
    assert code == 0
    doc = json.loads(out)
    assert doc["thermo"]["cop"] is None
    assert doc["thermo"]["reversible_limit"] is True


def test_run_verify_reports_oracle_deviations(capsys):
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                           "--phi", HALF_PI_STR, "--verify")
    assert code == 0
    doc = json.loads(out)
    assert doc["verification"]["passed"] is True
    assert doc["verification"]["max_deviation"] < 1e-10
    names = {c["name"] for c in doc["verification"]["checks"]}
    assert {"work_measurement", "work_feedback", "heat_reset",
            "delta_e_system", "entropy_reduction", "mutual_information",
            "discord_closed_form"} <= names


def test_run_missing_option_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8")
    assert code == 2
    assert "--phi" in err


def test_run_phi_degrees(capsys):
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                           "--phi", "90", "--phi-degrees")
    assert code == 0
    assert abs(json.loads(out)["params"]["phi"] - math.pi / 2) <= 1e-12


def test_run_csv_key_value_format(capsys):
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                           "--phi", "1.0", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("thermo.cooling_load,") for line in lines)


def test_run_verify_csv_flattens_check_list(capsys):
    code, out, err = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                             "--phi", "1.0", "--verify", "--format", "csv")
    assert code == 0
    assert "Traceback" not in out + err
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["verification.checks.0.name"] == "work_measurement"
    assert rows["verification.passed"] == "true"
    # lists of scalars keep their ';'-joined single row
    assert len(rows["trace.marginals.rho_f_s.bloch"].split(";")) == 3


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_default_reproduces_three_curves(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--format", "csv", "--n-eps-a", "11")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 * 11
    phis = [float(line.split(",")[2]) for line in lines[1:]]
    assert phis == sorted(phis)
    assert sorted(set(phis)) == pytest.approx([0.0, math.pi / 4, 2 * math.pi / 5])


def test_sweep_output_is_byte_stable(capsys):
    args = ("sweep", "--eps-s", "0.3", "--phi", "0.5", "--phi", "1.2",
            "--n-eps-a", "9", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_sweep_undefined_cop_is_empty_field(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--eps-s", "0.4", "--phi",
                           HALF_PI_STR, "--n-eps-a", "5", "--format", "csv")
    assert code == 0
    first_row = out.split("\n")[1].split(",")
    header = CSV_HEADER.split(",")
    assert first_row[header.index("eps_a")] == "0.4"
    assert first_row[header.index("cop")] == ""
    assert first_row[header.index("eta")] == ""
    assert first_row[header.index("chi")] == ""


def test_sweep_parallel_matches_serial_bytes(capsys, monkeypatch):
    args = ("sweep", "--eps-s", "0.35", "--phi", "0.4", "--phi", "1.1",
            "--n-eps-a", "7", "--format", "csv")
    monkeypatch.delenv("QFC_THREADS", raising=False)
    _, serial, _ = run_cli(capsys, *args)
    monkeypatch.setenv("QFC_THREADS", "2")
    _, parallel, _ = run_cli(capsys, *args)
    assert serial == parallel


def test_point_documents_equal_the_deep_copied_dataclasses():
    grid = sweep.SweepGrid(0.0, (0.0, 0.7, math.pi / 2), (0.0, 0.5, 1.0 - sweep.EPS_A_CLAMP), 0.8)
    points = sweep.landscape(grid, {"thermo", "correlations"}).points
    points += tuple(sweep.landscape(grid).points)  # without correlations
    for point in points:
        expected = {"eps_a": point.eps_a, "phi": point.phi,
                    "thermo": dataclasses.asdict(point.thermo)}
        if point.correlations is not None:
            expected["correlations"] = dataclasses.asdict(point.correlations)
        assert cli._point_doc(point) == expected
        assert json.dumps(cli._point_doc(point), sort_keys=True) == json.dumps(
            expected, sort_keys=True)


def test_landscape_json_includes_boundary_series(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--eps-s", "0.4", "--landscape",
                           "--n-phi", "6", "--n-eps-a", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 6 * 5
    assert doc["cooling_window_boundary"]
    assert doc["work_extraction_boundary"]
    for b in doc["cooling_window_boundary"]:
        assert abs(b["eps_a"] * math.sin(b["phi"]) - 0.4) <= 1e-12


def test_landscape_csv_writes_boundary_files(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "--eps-s", "0.4", "--landscape",
                         "--n-phi", "6", "--n-eps-a", "5", "--format", "csv",
                         "--output", str(out_path))
    assert code == 0
    assert out_path.read_text().startswith(CSV_HEADER)
    cooling = tmp_path / "grid_cooling_boundary.csv"
    work = tmp_path / "grid_work_boundary.csv"
    assert cooling.read_text().startswith("eps_s,eps_a,phi")
    assert work.read_text().startswith("eps_s,eps_a,phi")


@pytest.mark.parametrize("n_phi", ["0", "-1"])
def test_sweep_landscape_rejects_fewer_than_one_angle(capsys, n_phi):
    code, out, err = run_cli(capsys, "sweep", "--landscape", "--n-phi", n_phi)
    assert code == 2
    assert out == ""
    assert err == "error: n_phi must be at least 1\n"


def test_sweep_landscape_accepts_one_angle(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--landscape", "--n-phi", "1", "--n-eps-a", "3")
    assert code == 0
    assert [p["phi"] for p in json.loads(out)["points"]] == [0.0] * 3


@pytest.mark.parametrize("args", [
    ("threshold", "--eps-s", "0.999999999"),
    ("run", "--eps-s", "0.999999999", "--eps-a", "0.999999999", "--phi", "0.7"),
])
def test_discord_near_unit_register_bias_passes_its_self_check(capsys, args):
    # the closed-form cross-check used to lose 2.5e-10 to cancellation here
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["command"] == args[0]


def test_sweep_invalid_grid_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--eps-s", "0.4",
                           "--eps-a-min", "0.2", "--n-eps-a", "5")
    assert code == 2
    assert "eps_a" in err


@pytest.mark.parametrize("flag, field", [
    ("--temperature", "temperature"), ("--eps-s", "eps_s"), ("--eps-a-max", "eps_a_values"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sweep_non_finite_input_is_domain_error(capsys, flag, field, value):
    code, out, err = run_cli(capsys, "sweep", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {field} must")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# threshold / optimize
# ---------------------------------------------------------------------------

def test_threshold_value(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--eps-s", "0.4")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["delta_min"] - 1.35e-2) <= 5e-4


def test_threshold_domain_error(capsys):
    code, _, err = run_cli(capsys, "threshold", "--eps-s", "0.0")
    assert code == 2
    assert "eps_s" in err


def test_optimize_chi_json(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--objective", "chi",
                           "--eps-s", "0.4", "--phi", HALF_PI_STR)
    assert code == 0
    wp = json.loads(out)["working_point"]
    assert 0.75 <= wp["eps_a_star"] <= 0.95
    assert wp["at_boundary"] is None


def test_optimize_cop_boundary_flag(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--objective", "cop",
                           "--eps-s", "0.4", "--phi", HALF_PI_STR)
    assert code == 0
    wp = json.loads(out)["working_point"]
    assert wp["at_boundary"] == "lower"


def test_optimize_unknown_objective_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "optimize", "--objective", "speed",
                         "--eps-s", "0.4", "--phi", "1.0")
    assert code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_on_small_grid(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid-n", "5",
                           "--discord-stride", "4")
    assert code == 0
    assert "SUMMARY" in out
    assert "FAIL" not in out
    machine = json.loads(out.rstrip("\n").split("\n")[-1])
    assert machine["passed"] is True and machine["failed"] == 0


@pytest.mark.parametrize("flag,value,bound", [
    ("--discord-stride", "0", "discord_stride must be at least 1"),
    ("--grid-n", "1", "grid_n must be at least 2"),
])
def test_verify_rejects_degenerate_grid_flags(capsys, flag, value, bound):
    code, out, err = run_cli(capsys, "verify", flag, value)
    assert code == 2
    assert out == ""
    assert bound in err


def test_verify_json_document(capsys):
    code, out, _ = run_cli(capsys, "verify", "--grid-n", "4",
                           "--discord-stride", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert all(c["max_deviation"] <= c["tolerance"] for c in doc["checks"])


def test_verify_detects_corrupted_closed_form(capsys, monkeypatch):
    honest = thermo.heat_reset
    monkeypatch.setattr(thermo, "heat_reset", lambda p: honest(p) + 1e-6)
    code, out, _ = run_cli(capsys, "verify", "--grid-n", "4",
                           "--discord-stride", "4")
    assert code == 3
    assert "FIRST FAILURE: heat_reset" in out


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_verify_rejects_a_bad_temperature(capsys, value):
    code, out, err = run_cli(capsys, "verify", "--grid-n", "3", "--temperature", value)
    assert code == 2
    assert out == ""
    assert "temperature" in err


def test_verify_runs_at_the_given_temperature(capsys):
    docs = {}
    for temperature in ("1", "5"):
        code, out, _ = run_cli(capsys, "verify", "--grid-n", "3", "--format", "json",
                               "--temperature", temperature)
        assert code == 0
        docs[temperature] = json.loads(out)
    assert docs["5"]["passed"] is True
    assert ([(c["name"], c["points"]) for c in docs["5"]["checks"]]
            == [(c["name"], c["points"]) for c in docs["1"]["checks"]])
    assert docs["5"] != docs["1"]
    assert (docs["1"]["temperature"], docs["5"]["temperature"]) == (1.0, 5.0)


@pytest.mark.parametrize("args", [
    ("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0", "--temperature", "1e6",
     "--verify"),
    ("verify", "--grid-n", "3", "--temperature", "1e5"),
    ("verify", "--grid-n", "3", "--temperature", "1e7", "--format", "csv"),
], ids=["run-verify-1e6", "verify-1e5", "verify-1e7-csv"])
def test_verify_passes_at_large_temperatures(capsys, args):
    # energies scale with T; their deviations are checked in units of T
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_run_verify_fails_on_corrupted_closed_form(capsys, monkeypatch):
    honest = thermo.work_measurement
    monkeypatch.setattr(thermo, "work_measurement", lambda p: honest(p) - 1e-6)
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                           "--phi", "1.0", "--verify")
    assert code == 3
    assert json.loads(out)["verification"]["passed"] is False


# ---------------------------------------------------------------------------
# config file, misc
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_override(capsys, tmp_path):
    config = tmp_path / "job.cfg"
    config.write_text(
        "# one protocol point\n"
        "eps-s = 0.4\n"
        "eps_a = 0.8\n"
        "phi = 1.0\n"
        "temperature = 2.0\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"eps_s": 0.4, "eps_a": 0.8, "phi": 1.0,
                             "temperature": 2.0}
    code, out, _ = run_cli(capsys, "run", "--config", str(config),
                           "--phi", "0.25")
    assert json.loads(out)["params"]["phi"] == 0.25


def test_config_file_rejects_malformed_lines(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("eps-s 0.4\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 2
    assert "key = value" in err


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "point.json"
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.2", "--eps-a", "0.6",
                           "--phi", "0.7", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["params"]["eps_s"] == 0.2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["melt"]) == 2


def python_subprocess(*args):
    """Run the interpreter on ``args`` with this qfcool checkout importable."""
    src = str(Path(qfcool.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_console_script_entrypoint():
    proc = python_subprocess("-m", "qfcool.cli", "threshold", "--eps-s", "0.4")
    assert proc.returncode == 0
    assert abs(json.loads(proc.stdout)["delta_min"] - 1.35e-2) <= 5e-4


def test_cli_import_does_not_load_scipy():
    proc = python_subprocess(
        "-c", "import sys, qfcool.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("args", [
    ("run", "--eps-s", "0.3", "--eps-a", "0.999999999", "--phi", "1.0"),
    ("run", "--eps-s", "0.3", "--eps-a", "0.999999999", "--phi", "1.0", "--format", "csv"),
    ("sweep", "--eps-s", "0.3"),
    ("optimize", "--objective", "chi", "--eps-s", "0.3", "--phi", "1.0"),
    # the energies stay finite but omega_a = 2 T atanh(0.9) overflows
    ("run", "--eps-s", "0.3", "--eps-a", "0.9", "--phi", "1.0", "--verify"),
], ids=["run-json", "run-csv", "sweep", "optimize", "run-verify-splitting"])
def test_energy_overflow_is_a_domain_error(capsys, args):
    code, out, err = run_cli(capsys, *args, "--temperature", "1e308")
    assert code == 2
    assert "temperature" in err
    assert "Infinity" not in out and "inf" not in out


@pytest.mark.parametrize("flag,value,field", [
    ("--discord-tol", "nan", "objective_tol"),
    ("--discord-tol", "-1", "objective_tol"),
    ("--discord-tol", "inf", "objective_tol"),
    ("--discord-polar", "0", "n_polar"),
    ("--discord-azimuth", "0", "n_azimuth"),
])
def test_run_rejects_bad_discord_search_options(capsys, flag, value, field):
    code, out, err = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                             "--phi", "1.0", flag, value)
    assert code == 2
    assert out == ""
    assert field in err
