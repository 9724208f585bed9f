"""The benchmark's golden outputs (bench/golden.json), reproduced in-process.

Runs ``qfcool.cli.main`` on the argv lists of ``bench/checks.GOLDEN_OPS``
and compares the sweep and landscape CSV digests and the structure of the
verify report with the pinned values.  Both bench files are only read.
"""

import importlib.util
import json
from pathlib import Path

from qfcool.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKS = _load_checks()
GOLDEN = CHECKS.load_golden()


def _run(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_sweep_csv_matches_golden(capsys):
    out = _run(capsys, CHECKS.GOLDEN_OPS["sweep"])
    assert CHECKS.sha256(out) == GOLDEN["digests"]["sweep_eps_s_0.4.csv"]


def test_landscape_csv_and_boundaries_match_golden(capsys, tmp_path):
    output = tmp_path / "golden.csv"
    _run(capsys, [*CHECKS.GOLDEN_OPS["landscape"], "--output", str(output)])
    for key, path in CHECKS.landscape_files(output).items():
        digest = CHECKS.sha256(path.read_text(encoding="utf-8"))
        assert digest == GOLDEN["digests"][f"landscape_n_phi_25_{key}.csv"], key


def test_verify_report_matches_golden(capsys):
    doc = json.loads(_run(capsys, CHECKS.GOLDEN_OPS["verify"]))
    assert CHECKS.verify_structure(doc) == GOLDEN["verify"]
