"""Write tests/suite_reprs.json: the repr of every ``Check`` that
``verify.run_suite(n, stride, T)`` returns at each stratum that
``tests/test_verify.py::test_run_suite_reprs_are_unchanged`` pins, and
that ``verify.point_checks`` (what ``run --verify`` prints) returns at
each point that ``test_point_checks_reprs_are_unchanged`` pins.  A repr
carries each check's name, points, deviation and tolerance, so this file
is the one bit pin of both.

Run it only for a deliberate change of a deviation, and record that
change in CHANGES.md:

    PYTHONPATH=src python tests/make_suite_reprs.py
"""

import json
import math
from pathlib import Path

from qfcool.protocol import ProtocolParams
from qfcool.verify import point_checks, run_suite

REPRS = Path(__file__).resolve().parent / "suite_reprs.json"

# (grid_n, discord_stride) of the benchmark's verify_suite strata
BENCH_STRATA = ((4, 2), (5, 3), (6, 3), (6, 2), (7, 3))
# (grid_n, discord_stride, temperature): the benchmark's strata at its T = 0.8
# and every discord at T = 1.  The suite's checks do not depend on T, so the
# test reads the 0.8 pins at T = 1e-300, 1 and 1e300 too.
STRATA = (*((n, stride, 0.8) for n, stride in BENCH_STRATA), (12, 1, 1.0))
# (eps_s, eps_a, phi, temperature) of point_checks: an interior point, eps_a
# at the clamp, the swap angle, and both ends of the range of T
POINTS = ((0.4, 0.8, 1.0, 1.0), (0.3, 0.999999999, 1.2, 1.0),
          (0.5, 0.5, math.pi / 2, 1e300), (0.2, 0.6, 0.3, 1e-300))


def key(n: int, stride: int, temperature: float) -> str:
    """The stratum's key: ``"n stride T"``, which the test splits and parses."""
    return f"{n} {stride} {temperature!r}"


def point_key(*point: float) -> str:
    """The point's key: ``"point eps_s eps_a phi T"``, which no stratum's key equals."""
    return " ".join(["point", *map(repr, point)])


def write_reprs() -> None:
    doc = {key(*stratum): [repr(c) for c in run_suite(*stratum)] for stratum in STRATA}
    doc |= {point_key(*p): [repr(c) for c in point_checks(ProtocolParams(*p))] for p in POINTS}
    REPRS.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write_reprs()
