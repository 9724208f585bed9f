"""Tests of the benchmark itself (run: python -m pytest -q bench/tests)."""

from __future__ import annotations

import math
import sys
import types

import pytest

import checks
import run
import workloads
from tracer import Tracer, merge_span_files, parse_importtime, read_spans, self_times, summarize


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert workloads.generate(workload, 7, 20) == workloads.generate(workload, 7, 20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_inputs(workload):
    assert workloads.generate(workload, 7, 20) != workloads.generate(workload, 8, 20)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_count_depends_on_seconds_only(workload):
    counts = {len(workloads.generate(workload, seed, 20)) for seed in range(5)}
    assert len(counts) == 1


def _sweep_csv(eps_s=0.3, phis=(0.0, 0.7, 1.2), eps_as=(0.4, 0.9)) -> str:
    lines = [checks.SWEEP_HEADER]
    for phi in phis:
        for eps_a in eps_as:
            discord = format(checks.expected_discord(eps_s, phi), ".12g")
            lines.append(f"{eps_s},{eps_a},{phi},1,0.1,0.2,0.3,0.5,,0.1,true,false,"
                         f"{discord},0.2,0,0")
    return "\n".join(lines) + "\n"


def test_checker_accepts_valid_csv():
    checks.check_sweep_csv(_sweep_csv(), 6)


@pytest.mark.parametrize("corrupt", [
    lambda text: text.rsplit("\n", 2)[0] + "\n",               # a row missing
    lambda text: text.replace(",0.2,0,0\n", ",0.2,0\n", 1),     # a field missing
    lambda text: text.replace(",0.5,,", ",nan,,", 1),           # NaN field
    lambda text: text.replace(",0.1,true,", ",inf,true,", 1),   # infinite field
    lambda text: text.replace(",true,false,", ",yes,false,", 1),
    lambda text: text.replace("eps_s,eps_a", "eps_a,eps_s", 1),
    lambda text: "\n".join(  # discord column off by 1e-6
        line if i != 3 else ",".join(
            f"{float(f) + 1e-6!r}" if j == 12 else f for j, f in enumerate(line.split(",")))
        for i, line in enumerate(text.split("\n"))),
])
def test_checker_rejects_corrupted_csv(corrupt):
    with pytest.raises(checks.CheckError):
        checks.check_sweep_csv(corrupt(_sweep_csv()), 6)


@pytest.mark.parametrize("text", ['{"a": NaN}', '{"a": [1, Infinity]}', '{"a": -Infinity}',
                                  '{"a": 1e999}', '{"a": '])
def test_checker_rejects_non_finite_json(text):
    with pytest.raises(checks.CheckError):
        checks.parse_json(text)


def test_run_check_rejects_a_traceback_and_a_failed_verification():
    op = {"kind": "run", "format": "json", "verify": True, "eps_s": 0.3, "phi": 0.5}
    good = ('{"correlations": {"discord_analytic": %r}, "verification": {"passed": true}}'
            % checks.expected_discord(0.3, 0.5))
    checks.check_cli_op(op, 0, good, "")
    with pytest.raises(checks.CheckError):
        checks.check_cli_op(op, 0, good.replace("true", "false"), "")
    with pytest.raises(checks.CheckError):
        checks.check_cli_op(op, 0, good, "Traceback (most recent call last):")
    with pytest.raises(checks.CheckError):
        checks.check_cli_op(op, 2, good, "error: bad input")


def test_verify_check_rejects_zero_points():
    golden = [{"name": "a", "points": 10, "tolerance": 1e-10, "passed": True}]
    checks.check_verify_checks(golden, golden)
    with pytest.raises(checks.CheckError):
        checks.check_verify_checks([dict(golden[0], points=0)], golden)
    with pytest.raises(checks.CheckError):
        checks.check_verify_checks([dict(golden[0], tolerance=1e-6)], golden)


def test_discord_reference_limits():
    assert checks.expected_discord(0.5, math.pi / 2) == pytest.approx(math.log(2) - checks.thermal_entropy(0.5))
    assert checks.expected_discord(0.5, 0.0) == 0.0


def test_self_time_on_synthetic_span_tree():
    # root [0, 10]; children [1, 3] and [2, 5] overlap, [9, 12] sticks out
    # of the root; [1.5, 2] is a grandchild under the first child.
    start = [0.0, 1.0, 1.5, 2.0, 9.0]
    end = [10.0, 3.0, 2.0, 5.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    assert list(self_times(start, end, parent)) == [5.0, 1.5, 0.5, 3.0, 3.0]
    names = ["root", "child"]
    totals = summarize(names, [0, 1, 1, 1, 1], start, end, parent)
    assert totals["root"] == {"calls": 1, "self_s": 5.0, "total_s": 10.0}
    assert totals["child"]["calls"] == 4
    assert totals["child"]["self_s"] == pytest.approx(8.0)


def test_self_time_does_not_depend_on_span_order():
    start = [2.0, 0.0, 1.0]
    end = [5.0, 10.0, 3.0]
    parent = [1, -1, 1]
    assert list(self_times(start, end, parent)) == [3.0, 6.0, 2.0]


def test_tracer_links_nested_calls_and_restores_originals(tmp_path):
    module = types.ModuleType("fakepkg.layer")
    exec("def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n",
         module.__dict__)
    original = module.inner
    tracer = Tracer()
    sys.modules["fakepkg.layer"] = module
    try:
        tracer.attach("fakepkg", [module], [])
        tracer.start_tracing()
        assert module.outer(1) == 4
        tracer.stop_tracing()
    finally:
        del sys.modules["fakepkg.layer"]
    assert module.inner is original
    assert [tracer.names[i] for i in tracer.name_id] == ["layer.outer", "layer.inner"]
    assert list(tracer.parent) == [-1, 0]
    tracer.write(tmp_path / "a.spans")
    merge_span_files(tmp_path / "m.spans", [(3, tmp_path / "a.spans"), (4, tmp_path / "a.spans")])
    names, columns = read_spans(tmp_path / "m.spans")
    assert list(columns["parent"]) == [-1, 0, -1, 2]
    assert list(columns["op"]) == [3, 3, 4, 4]
    assert [names[i] for i in columns["name"]] == ["layer.outer", "layer.inner"] * 2


def test_parse_importtime_counts_outermost_entries_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        10 |         60 |     scipy",
        "import time:       400 |        400 |       scipy.linalg",
        "import time:        40 |        440 |     scipy.optimize",
        "import time:        30 |        830 |   qfcool.correlations",
        "import time:        20 |        850 | qfcool",
    ])
    times = parse_importtime(text, ("qfcool", "scipy", "numpy"))
    assert times["qfcool"] == pytest.approx(850e-6)
    assert times["numpy"] == pytest.approx(300e-6)
    assert times["scipy"] == pytest.approx(500e-6)


def test_tail_has_ten_ops_beyond_it_and_is_never_below_the_median():
    assert run.tail_index(100) == 89
    assert run.tail_index(21) == 10
    assert run.tail_index(8) == 4
    metrics, info = run.end_to_end(
        [{"wall_s": float(i), "cpu_s": 0.5, "scale": 1.0, "maxrss_kb": 1024} for i in range(1, 41)], [0.2, 0.1, 0.3])
    assert metrics["op_tail_ms"][0] == 30000.0 and info["ops_beyond_tail"] == 10
    assert metrics["setup_s"][0] == 0.2 and metrics["peak_rss_mb"][0] == 1.0
