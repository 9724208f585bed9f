"""Write tests/suite_reprs.json: the repr of every ``Check`` that
``verify.run_suite(n, stride, T)`` returns at each stratum that
``tests/test_verify.py::test_run_suite_reprs_are_unchanged`` pins.

Run it only for a deliberate change of a deviation, and record that
change in CHANGES.md:

    PYTHONPATH=src python tests/make_suite_reprs.py
"""

import json
from pathlib import Path

from qfcool.verify import run_suite

REPRS = Path(__file__).resolve().parent / "suite_reprs.json"

# (grid_n, discord_stride) of the benchmark's verify_suite strata
BENCH_STRATA = ((4, 2), (5, 3), (6, 3), (6, 2), (7, 3))
# (grid_n, discord_stride, temperature): the benchmark's strata at its T = 0.8
# and every discord at T = 1.  The suite's checks do not depend on T, which
# tests/test_verify.py::test_run_suite_passes_at_any_temperature asserts on
# these strata at both ends of the range of T the suite accepts.
STRATA = (*((n, stride, 0.8) for n, stride in BENCH_STRATA), (12, 1, 1.0))


def key(n: int, stride: int, temperature: float) -> str:
    """The stratum's key: ``"n stride T"``, which the test splits and parses."""
    return f"{n} {stride} {temperature!r}"


def write_reprs() -> None:
    doc = {key(*stratum): [repr(c) for c in run_suite(*stratum)] for stratum in STRATA}
    REPRS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_reprs()
