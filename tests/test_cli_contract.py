"""The CLI's document contract, pinned against literals and references built
apart from the CLI.

Each CSV header is compared with a literal line, so that a header generated
from a table or a record cannot drift with it.  Each JSON document must be
``json.dumps(ref, indent=2, sort_keys=True) + "\\n"`` of a reference built
with ``dataclasses.asdict`` from the library's own records.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from qfcool import cli, closed_forms, correlations, sweep, thermo, verify
from qfcool.closed_forms import EPS_A_CLAMP, ProtocolParams
from qfcool.verify import Check

HALF_PI = math.pi / 2

SWEEP_HEADER = ("eps_s,eps_a,phi,T,P,W,Q,cop,eta,chi,in_cooling_window,work_extracting,"
                "discord,mutual_info,concurrence,eof")


def run_cli(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().out


def _reference_bytes(command, **fields):
    return json.dumps({"schema_version": 1, "command": command, **fields},
                      indent=2, sort_keys=True) + "\n"


def _check_ref(check):
    return {**dataclasses.asdict(check), "passed": check.passed}


# ---------------------------------------------------------------------------
# CSV headers, literally
# ---------------------------------------------------------------------------

def test_sweep_csv_header_is_the_literal_contract(capsys):
    code, out = run_cli(capsys, "sweep", "--format", "csv", "--n-eps-a", "3")
    assert code == 0
    assert out.split("\n", 1)[0] == SWEEP_HEADER
    assert cli.CSV_HEADER == SWEEP_HEADER


def test_sweep_csv_columns_hold_the_named_fields(capsys):
    code, out = run_cli(capsys, "sweep", "--eps-s", "0.3", "--phi", "1.2", "--eps-a-min", "0.7",
                        "--eps-a-max", "0.8", "--n-eps-a", "2", "--temperature", "0.7",
                        "--format", "csv")
    assert code == 0
    header, first, _ = out.split("\n", 2)
    row = dict(zip(header.split(","), first.split(",")))
    params = ProtocolParams(0.3, 0.7, 1.2, 0.7)
    report = thermo.figures_of_merit(params)
    corr = correlations.correlation_report(params, numeric_discord=False)
    expected = {
        "eps_s": 0.3, "eps_a": 0.7, "phi": 1.2, "T": 0.7,
        "P": report.cooling_load, "W": report.total_work, "Q": report.heat_reset,
        "cop": report.cop, "eta": report.eta, "chi": report.chi,
        "in_cooling_window": report.in_cooling_window,
        "work_extracting": report.work_extracting_feedback,
        "discord": corr.discord_analytic, "mutual_info": corr.mutual_info,
        "concurrence": corr.concurrence, "eof": corr.eof,
    }
    assert list(row) == list(expected)
    for name, value in expected.items():
        if isinstance(value, bool):
            assert row[name] == ("true" if value else "false"), name
        else:
            assert float(row[name]) == pytest.approx(value, rel=1e-11, abs=1e-14), name


def test_boundary_csv_headers_are_literal_also_when_empty(capsys, tmp_path):
    for eps_s, rows_expected in (("0.4", True), ("0", False)):
        out_path = tmp_path / f"grid_{eps_s}.csv"
        code, _ = run_cli(capsys, "sweep", "--eps-s", eps_s, "--landscape", "--n-phi", "5",
                          "--n-eps-a", "4", "--format", "csv", "--output", str(out_path))
        assert code == 0
        for name in ("cooling", "work"):
            lines = (tmp_path / f"grid_{eps_s}_{name}_boundary.csv").read_text().splitlines()
            assert lines[0] == "eps_s,eps_a,phi"
            assert (len(lines) > 1) == rows_expected
            assert all(line.startswith(f"{eps_s},") for line in lines[1:])


@pytest.mark.parametrize("args, header", [
    (("optimize", "--objective", "chi", "--eps-s", "0.4", "--phi", "1.2"),
     "objective,eps_s,phi,T,eps_a_star,objective_value,cooling_load_star,at_boundary,degenerate"),
    (("verify", "--grid-n", "3"), "name,points,max_deviation,tolerance,passed"),
    (("threshold", "--eps-s", "0.4"), "eps_s,delta_min"),
    (("run", "--eps-s", "0.4", "--eps-a", "0.8", "--phi", "1.2"), "key,value"),
], ids=["optimize", "verify", "threshold", "run"])
def test_record_csv_headers_are_literal(capsys, args, header):
    code, out = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.split("\n", 1)[0] == header


def test_every_sweep_column_names_a_record_field():
    reports = {"thermo": closed_forms.ThermoReport, "correlations": correlations.CorrelationReport}
    point_fields = {f.name for cls in (sweep.SweepGrid, sweep.CurvePoint)
                    for f in dataclasses.fields(cls)}
    for column, path in cli._SWEEP_COLUMNS.items():
        record, _, name = path.rpartition(".")
        if record:
            assert name in {f.name for f in dataclasses.fields(reports[record])}, column
        else:
            assert name in point_fields, column


# ---------------------------------------------------------------------------
# verify's summary line
# ---------------------------------------------------------------------------

def _summary(out):
    return json.loads(out.rstrip("\n").rsplit("\n", 1)[1])


def test_default_verify_summary_names_the_class_nearest_its_bound(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    worst = _summary(out)["worst"]
    assert worst["name"] == "reset_marginals"
    assert 0.0 < worst["max_deviation"] <= worst["tolerance"] == 1e-12


@pytest.mark.parametrize("checks, worst", [
    # a zero deviation against a zero tolerance is no nearer its bound than any other
    ([Check("exact", 4, 0.0, 0.0), Check("near", 4, 9e-11, 1e-10), Check("far", 4, 1e-12, 1e-10)],
     "near"),
    ([Check("far", 4, 1e-13, 1e-12), Check("near", 4, 9e-11, 1e-10)], "near"),
    ([Check("failing", 4, 2e-10, 1e-10), Check("nan", 4, math.nan, 1e-10)], "nan"),
    ([Check("near", 4, 9e-11, 1e-10), Check("zero_tolerance", 4, 1e-300, 0.0)], "zero_tolerance"),
], ids=["zero-tolerance-exact", "ratio-not-difference", "nan-first", "zero-tolerance-positive"])
def test_verify_summary_ranks_by_deviation_over_tolerance(capsys, monkeypatch, checks, worst):
    monkeypatch.setattr(verify, "run_suite", lambda **_: checks)
    _, out = run_cli(capsys, "verify")
    assert _summary(out)["worst"]["name"] == worst


# ---------------------------------------------------------------------------
# JSON documents against dataclasses.asdict references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps_a, phi", [(0.8, 1.2), (0.4, HALF_PI)],
                         ids=["interior", "reversible-limit"])
@pytest.mark.parametrize("with_verify", [False, True], ids=["plain", "verify"])
def test_run_json_bytes_equal_the_reference(capsys, eps_a, phi, with_verify):
    params = ProtocolParams(0.4, eps_a, phi)
    argv = ["run", "--eps-s", "0.4", "--eps-a", repr(eps_a), "--phi", repr(phi)]
    code, out = run_cli(capsys, *argv, *(["--verify"] if with_verify else []))
    assert code == 0
    # run prints closed forms alone; tests/test_referee.py checks their values
    trace = closed_forms._trace_summary(params.eps_s, params.eps_a, params.phi)
    assert set(trace) == {"rho0", "rho_m", "rho_f", "rho_reset", "marginals"}
    ref = {"params": dataclasses.asdict(params), "trace": trace,
           "thermo": dataclasses.asdict(thermo.figures_of_merit(params)),
           "correlations": dataclasses.asdict(closed_forms._correlations(params))}
    if with_verify:
        checks = verify.point_checks(params)
        ref["verification"] = {"checks": [_check_ref(c) for c in checks],
                               "max_deviation": max(c.max_deviation for c in checks),
                               "passed": all(c.passed for c in checks)}
    assert out == _reference_bytes("run", **ref)
    assert ('"cop": null' in out) == (eps_a == 0.4)


def _points_ref(points):
    refs = []
    for p in points:
        ref = {"eps_a": p.eps_a, "phi": p.phi, "thermo": dataclasses.asdict(p.thermo)}
        if p.correlations is not None:
            ref["correlations"] = dataclasses.asdict(p.correlations)
        refs.append(ref)
    return refs


def _grid_ref(grid):
    return {**dataclasses.asdict(grid), "eps_a_clamp": EPS_A_CLAMP}


def test_sweep_json_bytes_equal_the_reference(capsys):
    code, out = run_cli(capsys, "sweep", "--eps-s", "0.3", "--phi", "0.5", "--phi", repr(HALF_PI),
                        "--eps-a-min", "0.3", "--eps-a-max", "0.9", "--n-eps-a", "4",
                        "--temperature", "1.7")
    assert code == 0
    grid = sweep.SweepGrid(0.3, (0.5, HALF_PI), tuple(0.3 + (0.9 - 0.3) * i / 3 for i in range(4)), 1.7)
    points = sweep.landscape(grid, {"thermo", "correlations"}).points
    assert out == _reference_bytes("sweep", grid=_grid_ref(grid), points=_points_ref(points))
    assert '"cop": null' in out  # eps_a = eps_s at phi = pi/2: the reversible limit


def test_landscape_json_bytes_equal_the_reference(capsys):
    code, out = run_cli(capsys, "sweep", "--eps-s", "0.4", "--landscape", "--n-phi", "4",
                        "--n-eps-a", "5")
    assert code == 0
    hi = 1.0 - EPS_A_CLAMP
    grid = sweep.SweepGrid(0.4, tuple(np.linspace(0.0, HALF_PI, 4).tolist()),
                           tuple(0.4 + (hi - 0.4) * i / 4 for i in range(5)))
    result = sweep.landscape(grid, {"thermo", "correlations"})
    ref = {"grid": _grid_ref(grid), "points": _points_ref(result.points),
           **{name: [{"phi": b.phi, "eps_a": b.eps_a} for b in getattr(result, name)]
              for name in ("cooling_window_boundary", "work_extraction_boundary")}}
    assert ref["cooling_window_boundary"] and ref["work_extraction_boundary"]
    assert out == _reference_bytes("sweep", **ref)


def test_thermo_only_point_documents_equal_the_reference():
    grid = sweep.SweepGrid(0.4, (0.0, 0.9, HALF_PI), (0.4, 0.7, 1.0 - EPS_A_CLAMP), 0.6)
    points = sweep.landscape(grid).points
    assert all(p.correlations is None for p in points)
    doc = cli._envelope("sweep", grid={**vars(grid), "eps_a_clamp": EPS_A_CLAMP},
                        points=[cli._point_doc(p) for p in points])
    text = cli._json_doc(doc)
    assert text == _reference_bytes("sweep", grid=_grid_ref(grid), points=_points_ref(points))
    assert '"correlations"' not in text and '"cop": null' in text


def test_threshold_json_bytes_equal_the_reference(capsys):
    code, out = run_cli(capsys, "threshold", "--eps-s", "0.4")
    assert code == 0
    assert out == _reference_bytes("threshold", eps_s=0.4,
                                   delta_min=closed_forms.discord_threshold(0.4))


@pytest.mark.parametrize("objective", closed_forms.OBJECTIVES)
def test_optimize_json_bytes_equal_the_reference(capsys, objective):
    code, out = run_cli(capsys, "optimize", "--objective", objective, "--eps-s", "0.4",
                        "--phi", "1.2", "--temperature", "2.5")
    assert code == 0
    point = closed_forms.optimize_working_point(objective, 0.4, 1.2, 2.5)
    assert out == _reference_bytes("optimize", objective=objective, eps_s=0.4, phi=1.2,
                                   temperature=2.5, working_point=dataclasses.asdict(point))


def test_verify_json_bytes_equal_the_reference(capsys):
    code, out = run_cli(capsys, "verify", "--grid-n", "3", "--format", "json")
    assert code == 0
    checks = verify.run_suite(grid_n=3, discord_stride=3, temperature=1.0)
    assert out == _reference_bytes("verify", grid_n=3, temperature=1.0,
                                   checks=[_check_ref(c) for c in checks],
                                   passed=all(c.passed for c in checks))
