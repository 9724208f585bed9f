import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

import qfcool
from qfcool import closed_forms, sweep
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


@pytest.mark.parametrize("eps_a", ["0.999999", "0.9999999"])
def test_run_verify_passes_near_unit_ancilla_bias(capsys, eps_a):
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.3", "--eps-a", eps_a, "--phi", "1.2",
                           "--verify")
    assert code == 0
    assert json.loads(out)["verification"]["passed"] is True


def test_run_keeps_a_threshold_above_zero_at_a_tiny_register_bias(capsys):
    # eps_s atanh(eps_s) underflows; phi = 1e-200 lies below the threshold
    code, out, _ = run_cli(capsys, "run", "--eps-s", "1e-170", "--eps-a", "0.5",
                           "--phi", "1e-200")
    assert code == 0
    thermo = json.loads(out)["thermo"]
    assert abs(thermo["phi_crit"] - 9.530107160810088e-171) <= 1e-15 * 9.53e-171
    assert thermo["phi_crit_defined"] and not thermo["work_extracting_feedback"]


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


def test_sweep_output_is_byte_stable(capsys, monkeypatch):
    args = ("sweep", "--eps-s", "0.3", "--phi", "0.5", "--phi", "1.2",
            "--n-eps-a", "9", "--format", "csv")
    monkeypatch.delenv("QFC_THREADS", raising=False)
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    monkeypatch.setenv("QFC_THREADS", "2")  # read by nothing: sweeps run in-process
    _, threaded, _ = run_cli(capsys, *args)
    assert first == second == threaded


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


def test_sweep_json_points_equal_the_deep_copied_dataclasses(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--eps-s", "0", "--phi", "0", "--phi", "0.7",
                           "--phi", HALF_PI_STR, "--n-eps-a", "3", "--temperature", "0.8")
    assert code == 0
    doc = json.loads(out)
    grid = sweep.SweepGrid(0.0, (0.0, 0.7, math.pi / 2), tuple(doc["grid"]["eps_a_values"]), 0.8)
    expected = [dataclasses.asdict(p) for p in sweep.landscape(grid, {"thermo", "correlations"}).points]
    assert doc["points"] == expected
    assert json.dumps(doc["points"], sort_keys=True) == json.dumps(expected, sort_keys=True)


def test_landscape_csv_rows_are_the_grid_coordinates_then_the_point_records(capsys):
    args = ("sweep", "--eps-s", "0.4", "--landscape", "--n-phi", "4", "--n-eps-a", "3",
            "--temperature", "0.6")
    _, text, _ = run_cli(capsys, *args, "--format", "csv")
    _, out, _ = run_cli(capsys, *args)
    doc = json.loads(out)
    fields = [("thermo", "cooling_load"), ("thermo", "total_work"), ("thermo", "heat_reset"),
              ("thermo", "cop"), ("thermo", "eta"), ("thermo", "chi"),
              ("thermo", "in_cooling_window"), ("thermo", "work_extracting_feedback"),
              ("correlations", "discord_analytic"), ("correlations", "mutual_info"),
              ("correlations", "concurrence"), ("correlations", "eof")]

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        return format(value or 0.0, ".12g")

    lines = text.splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 1 + len(doc["points"]) == 1 + 4 * 3
    for line, p in zip(lines[1:], doc["points"]):
        values = [0.4, p["eps_a"], p["phi"], 0.6, *(p[record][name] for record, name in fields)]
        assert line.split(",") == [cell(v) for v in values]


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


def test_landscape_csv_without_an_output_notes_the_missing_boundary_files(capsys):
    code, out, err = run_cli(capsys, "sweep", "--eps-s", "0.4", "--landscape",
                             "--n-phi", "3", "--n-eps-a", "3", "--format", "csv")
    assert code == 0
    assert out.startswith(CSV_HEADER) and len(out.splitlines()) == 1 + 3 * 3
    assert err == "note: boundary series need --output in csv mode (or use --format json)\n"


@pytest.mark.parametrize("n_phi", ["0", "-1"])
def test_sweep_landscape_rejects_fewer_than_one_angle(capsys, n_phi):
    code, out, err = run_cli(capsys, "sweep", "--landscape", "--n-phi", n_phi)
    assert code == 2
    assert out == ""
    assert err == f"error: n_phi must be at least 1, got {n_phi}\n"


@pytest.mark.parametrize("flags, config, n_phi", [
    (("--n-phi", "0"), None, "0"),
    (("--landscape", "--phi", "0.5", "--n-phi", "-3", "--n-eps-a", "2"), None, "-3"),
    ((), "n_phi = 0\n", "0"),
], ids=["curves", "landscape-explicit-phi", "curves-config"])
def test_sweep_rejects_fewer_than_one_angle_where_it_does_not_read_n_phi(capsys, tmp_path,
                                                                          flags, config, n_phi):
    # a count below its bound exits 2 in every mode, as a count that is not an integer does
    if config is not None:
        (tmp_path / "c.cfg").write_text(config)
        flags = (*flags, "--config", str(tmp_path / "c.cfg"))
    code, out, err = run_cli(capsys, "sweep", *flags)
    assert (code, out) == (2, "")
    assert err == f"error: n_phi must be at least 1, got {n_phi}\n"


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


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the eps_a axis of cmd_sweep misses eps_a_max by an ulp;"
                          " building it with np.linspace moves bytes that bench/golden.json pins")
def test_sweep_evaluates_no_ancilla_bias_above_the_reported_clamp(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--eps-s", "0.03", "--phi", "1.0", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert max(point["eps_a"] for point in doc["points"]) <= 1.0 - doc["grid"]["eps_a_clamp"]


@pytest.mark.parametrize("run_args, sweep_args, message", [
    (("--eps-a", "0.8", "--phi", "2"), ("--phi", "2"), "phi must be in [0, pi/2]"),
    (("--eps-a", "1.5", "--phi", "1"), ("--eps-a-max", "1.5", "--phi", "1"),
     "eps_a must be in [0, 1)"),
    (("--eps-a", "0.2", "--phi", "1"), ("--eps-a-min", "0.2", "--phi", "1"),
     "eps_s must not exceed eps_a"),
], ids=["phi", "eps_a_above_one", "eps_a_below_eps_s"])
def test_run_and_sweep_word_a_bound_alike(capsys, run_args, sweep_args, message):
    ran = run_cli(capsys, "run", "--eps-s", "0.4", *run_args)
    swept = run_cli(capsys, "sweep", "--eps-s", "0.4", *sweep_args)
    assert ran == swept == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("args", [("threshold",), ("run", "--eps-a", "0.8", "--phi", "1.0"),
                                  ("optimize", "--objective", "cop", "--phi", "1.0")],
                         ids=lambda args: args[0])
def test_every_command_words_a_non_finite_register_bias_alike(capsys, args, value):
    assert run_cli(capsys, *args, "--eps-s", value) == (2, "", "error: eps_s must be a finite number\n")


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


def test_verify_detects_corrupted_closed_form(capsys, corrupt_closed_form):
    # the one formula behind every emitted ThermoReport's energies
    corrupt_closed_form("heat_reset", 1e-6)
    code, out, _ = run_cli(capsys, "verify", "--grid-n", "4",
                           "--discord-stride", "4")
    assert code == 3
    assert "FIRST FAILURE: heat_reset" in out


@pytest.mark.parametrize("args", [
    ("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0"),
    ("sweep",),
    ("threshold", "--eps-s", "0.4"),
    ("optimize", "--objective", "chi", "--eps-s", "0.4", "--phi", "1.0"),
    ("verify", "--grid-n", "3"),
], ids=lambda args: args[0])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_every_command_rejects_a_bad_temperature(capsys, args, value):
    code, out, err = run_cli(capsys, *args, "--temperature", value)
    assert (code, out) == (2, "")
    assert err.startswith("error: temperature must")


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
    # both routes compare the energies at T = 1; T only scales the printed ones
    code, out, err = run_cli(capsys, *args)
    assert (code, err) == (0, "")
    assert "FAIL" not in out


@pytest.mark.parametrize("args", [
    ("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1", "--verify"),
    ("verify",),
], ids=["run-verify", "verify"])
def test_verify_passes_at_a_subnormal_temperature(capsys, args):
    # at T = 1e-314 the printed energies are subnormal, but the checks are those of T = 1
    code, out, err = run_cli(capsys, *args, "--temperature", "1e-314")
    assert (code, err) == (0, "")
    assert "FAIL" not in out


def test_run_verify_fails_on_corrupted_closed_form(capsys, corrupt_closed_form):
    corrupt_closed_form("work_measurement", -1e-6)
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


@pytest.mark.parametrize("command, line, flags", [
    (("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0"), "verify = true", ("--verify",)),
    (("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0"), "verify = off", ()),
    (("sweep", "--n-eps-a", "3"), "phi = 0.2, 0.9", ("--phi", "0.2", "--phi", "0.9")),
], ids=["boolean-true", "boolean-false", "float-list"])
def test_config_values_act_as_their_flags(capsys, tmp_path, command, line, flags):
    config = tmp_path / "c.cfg"
    config.write_text(f"{line}\n")
    configured = run_cli(capsys, *command, "--config", str(config))
    assert configured == run_cli(capsys, *command, *flags)
    assert configured[0] == 0
    assert ("verification" in json.loads(configured[1])) == ("--verify" in flags)


@pytest.mark.parametrize("line, key, message", [
    ("eps_s = abc", "eps_s", "could not convert string to float: 'abc'"),
    ("verify = maybe", "verify", "not a boolean: 'maybe'"),
    ("temprature = 5", "temprature", "unknown option"),
    ("config = /nonexistent.cfg", "config", "unknown option"),
], ids=["float", "boolean", "misspelled-key", "config-key"])
def test_config_errors_name_the_file_and_key(capsys, tmp_path, line, key, message):
    config = tmp_path / "c.cfg"
    config.write_text(f"eps_s = 0.4\neps_a = 0.8\nphi = 1.0\n{line}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: {config}: {key}: {message}\n"


@pytest.mark.parametrize("flags", [(), ("--phi", "1.0")], ids=["curves", "explicit-phi"])
def test_config_values_are_checked_where_the_mode_does_not_read_them(capsys, tmp_path, flags):
    # n_phi sizes the phi axis of a landscape only
    config = tmp_path / "c.cfg"
    config.write_text("n_phi = abc\n")
    code, out, err = run_cli(capsys, "sweep", *flags, "--config", str(config))
    assert (code, out) == (2, "")
    assert err == f"error: {config}: n_phi: invalid literal for int() with base 10: 'abc'\n"


@pytest.mark.parametrize("command, line, key", [
    (("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0"), "format = JSON", "format"),
    (("threshold", "--eps-s", "0.4"), "format = xml", "format"),
    (("verify", "--grid-n", "3"), "format = xml", "format"),
    (("optimize", "--eps-s", "0.4", "--phi", "1.0"), "objective = foo", "objective"),
], ids=["run-format", "threshold-format", "verify-format", "optimize-objective"])
def test_config_values_are_checked_against_the_flag_choices(capsys, tmp_path, command, line, key):
    config = tmp_path / "c.cfg"
    config.write_text(f"{line}\n")
    code, out, err = run_cli(capsys, *command, "--config", str(config))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config}: {key}: invalid choice: ")


def test_verify_table_format_can_be_requested(capsys, tmp_path):
    config = tmp_path / "c.cfg"
    config.write_text("format = table\n")
    outputs = [run_cli(capsys, "verify", "--grid-n", "3", *extra)
               for extra in ((), ("--format", "table"), ("--config", str(config)))]
    assert outputs[0][0] == 0 and "SUMMARY" in outputs[0][1]
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("config_line", ["", "eps_s = abc"], ids=["missing", "malformed"])
def test_a_bad_temperature_is_reported_before_a_bad_command_option(capsys, tmp_path,
                                                                   config_line):
    config = tmp_path / "c.cfg"
    config.write_text(f"{config_line}\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config), "--temperature", "-1")
    assert (code, out, err) == (2, "", "error: temperature must be positive\n")


def test_config_file_rejects_malformed_lines(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("eps-s 0.4\n")
    code, _, err = run_cli(capsys, "run", "--config", str(config))
    assert code == 2
    assert "key = value" in err


def test_a_config_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(b"eps_s = 0.4\neps_a = 0.8\nphi = 1.0\ntemperature = 2\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = [run_cli(capsys, "run", "--config", str(path)) for path in (plain, marked)]
    assert outputs[1] == outputs[0] and outputs[0][0] == 0


def test_a_config_file_that_is_not_utf8_is_named(capsys, tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfeeps_s = 0.4\n")
    code, out, err = run_cli(capsys, "run", "--config", str(config), "--eps-a", "0.8", "--phi", "1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {config}: ") and err.count("\n") == 1


def test_output_file_writing(capsys, tmp_path):
    target = tmp_path / "point.json"
    code, out, _ = run_cli(capsys, "run", "--eps-s", "0.2", "--eps-a", "0.6",
                           "--phi", "0.7", "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["params"]["eps_s"] == 0.2


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["melt"]) == 2


def _out_of_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("args", [
    ("sweep",),
    ("sweep", "--landscape", "--n-phi", "3"),
    ("verify",),
    ("verify", "--format", "csv"),
], ids=["sweep", "landscape", "verify", "verify-csv"])
def test_a_request_too_large_for_memory_is_one_error_line(capsys, monkeypatch, args):
    # a grid too large for memory ends as bad input does: exit 2, one line, no traceback
    from qfcool import verify
    monkeypatch.setattr(sweep, "landscape", _out_of_memory)
    monkeypatch.setattr(verify, "run_suite", _out_of_memory)
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("args, points", [
    (("sweep", "--n-eps-a", str(10 ** 12)), 3 * 10 ** 12),
    (("sweep", "--landscape", "--n-phi", str(10 ** 12), "--n-eps-a", "2", "--format", "csv"), 2 * 10 ** 12),
    (("sweep", "--phi", "0.5", "--n-eps-a", str(closed_forms.MAX_GRID_POINTS + 1)),
     closed_forms.MAX_GRID_POINTS + 1),
    (("verify", "--grid-n", "100000"), 10 ** 15),
], ids=["curves", "landscape", "one-past-the-cap", "verify"])
def test_a_grid_above_the_cap_is_refused_before_an_axis_is_built(capsys, args, points):
    # the point count is checked from the counts alone: exit 2, one line naming it, nothing allocated
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: grid points must be at most {closed_forms.MAX_GRID_POINTS}, got {points}\n"
    assert peak < 2 ** 20


def test_the_grid_cap_is_above_every_default_grid():
    # 25 x 101 landscape, 3 x 101 curves and the 12^3 verify grid, with room to spare
    assert closed_forms.MAX_GRID_POINTS >= 100 * max(25 * 101, 3 * 101, 12 ** 3)
    closed_forms._require_count("grid points", closed_forms.MAX_GRID_POINTS, 0, closed_forms.MAX_GRID_POINTS)


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


# Prints, at exit, the numpy and scipy modules the process has loaded.
_REPORT_NUMPY = ("import atexit, sys; atexit.register(lambda: print(sorted(m for m in sys.modules"
                 " if m.partition('.')[0] in ('numpy', 'scipy')), file=sys.stderr)); ")
# What ``python -m qfcool.cli ARGS`` runs.
_RUN_CLI = "import runpy; runpy.run_module('qfcool.cli', run_name='__main__', alter_sys=True)"


@pytest.mark.parametrize("statement, args, code", [
    ("import qfcool", (), 0),
    ("import qfcool.cli", (), 0),
    (_RUN_CLI, ("threshold", "--eps-s", "0.4"), 0),
    (_RUN_CLI, ("threshold", "--eps-s", "0.4", "--format", "csv"), 0),
    (_RUN_CLI, ("optimize", "--objective", "chi", "--eps-s", "0.4", "--phi", "1.0"), 0),
    (_RUN_CLI, ("optimize", "--objective", "cop", "--eps-s", "0.4", "--phi", "1.0",
                "--format", "csv"), 0),
    (_RUN_CLI, ("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0"), 0),
    (_RUN_CLI, ("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0", "--format", "csv"), 0),
    (_RUN_CLI, ("threshold", "--eps-s", "0.0"), 2),
    (_RUN_CLI, ("optimize", "--objective", "eta", "--eps-s", "0.4", "--phi", "2.0"), 2),
    (_RUN_CLI, ("run", "--eps-s", "0.8", "--eps-a", "0.4", "--phi", "1.0"), 2),
], ids=["import-qfcool", "import-cli", "threshold-json", "threshold-csv", "optimize-json",
        "optimize-csv", "run-json", "run-csv", "threshold-bad-eps-s", "optimize-bad-phi",
        "run-bad-eps-a"])
def test_closed_form_paths_do_not_load_numpy(statement, args, code):
    proc = python_subprocess("-c", _REPORT_NUMPY + statement, *args)
    assert proc.returncode == code, proc.stderr
    assert bool(proc.stdout) == (bool(args) and code == 0)
    assert proc.stderr.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", [
    "run --eps-s {z} --eps-a 0.5 --phi {z}", "run --eps-s {z} --eps-a 0.5 --phi {z} --format csv",
    "run --eps-s {z} --eps-a 0.5 --phi {z} --verify", "sweep --eps-s {z} --phi {z} --n-eps-a 3 --format json",
    "sweep --landscape --eps-s {z} --n-phi 2 --n-eps-a 3 --format json",
    "optimize --objective chi --eps-s {z} --phi {z}", "optimize --objective chi --eps-s {z} --phi {z} --format csv",
], ids=["run", "run-csv", "run-verify", "sweep", "landscape", "optimize", "optimize-csv"])
def test_a_negative_zero_input_prints_as_zero(capsys, command):
    # closed_forms._real and SweepGrid read -0.0 as +0.0, as every computed zero is written,
    # and optimize echoes its inputs as validated
    negative, zero = (run_cli(capsys, *command.format(z=z).split()) for z in ("-0.0", "0"))
    assert negative == zero


@pytest.mark.parametrize("flags, loaded", [((), False), (("--verify",), True)],
                         ids=["run", "run-verify"])
def test_run_imports_verify_only_to_verify(flags, loaded):
    # run reads closed_forms alone; the grid, the oracles and the searches serve --verify
    proc = python_subprocess("-c", textwrap.dedent(f"""
        import contextlib, io, sys
        from qfcool import cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.0", *{flags!r}])
        print(code, *(f"qfcool.{{m}}" in sys.modules for m in ("verify", "thermo", "sweep", "correlations")))"""))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", *[str(loaded)] * 4]


def test_package_names_resolve_lazily_to_their_defining_objects():
    proc = python_subprocess("-c", textwrap.dedent("""
        import json, sys
        import qfcool
        listed = set(dir(qfcool))  # which imports no qfcool submodule and no numpy
        loaded = sorted(m for m in sys.modules if m.startswith("qfcool.") or m.partition(".")[0] == "numpy")
        module = qfcool.sweep.__name__
        names = {}
        exec("from qfcool import *", names)
        print(json.dumps({
            "loaded": loaded,
            "module": module,
            "unbound": [n for n in qfcool.__all__ if n not in names],
            "not_defining_object": [n for n in qfcool.__all__ if n in names and getattr(
                sys.modules[names[n].__module__], n, None) is not names[n]],
            "not_in_dir": sorted(set(qfcool.__all__) - listed),
            "all": len(qfcool.__all__),
        }))"""))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"loaded": [], "module": "qfcool.sweep", "unbound": [],
                                       "not_defining_object": [], "not_in_dir": [], "all": 30}
    assert set(qfcool.__all__) <= set(dir(qfcool))  # __dir__'s body, in this process too
    assert qfcool.landscape is sweep.landscape
    with pytest.raises(AttributeError, match="has no attribute 'melt'"):
        qfcool.melt


def test_each_figure_of_merit_is_a_field_of_one_record():
    # no function returns one ThermoReport field alone, and no batch copy of
    # correlation_report exists: a landscape holds the batched reports
    fields = [field.name for field in dataclasses.fields(closed_forms.ThermoReport)]
    for module in (qfcool, closed_forms, qfcool.thermo, qfcool.correlations):
        assert [name for name in (*fields, "correlation_reports") if hasattr(module, name)] == [], \
            module.__name__


def test_readme_quick_tour_runs():
    # the first python block of README.md, in a fresh namespace
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(tour, "README.md", "exec"), namespace)
    assert len(namespace["land"].points) == 2525


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


def test_run_has_no_discord_search_options(capsys):
    code, out, err = run_cli(capsys, "run", "--eps-s", "0.4", "--eps-a", "0.8",
                             "--phi", "1.0", "--discord-polar", "8")
    assert code == 2
    assert out == ""
    assert "--discord-polar" in err
    assert "Traceback" not in err
