"""Run the pin tests under each OpenBLAS kernel and print which pins fail.

numpy's bundled OpenBLAS is built with every kernel (``DYNAMIC_ARCH``) and
picks one from the CPU; ``OPENBLAS_CORETYPE`` overrides the pick.  The 4x4
eigensolvers round differently on each kernel, and some pinned numbers
read them, so a pin written on one kernel may fail on another.  For each
kernel, one child process at a time runs the byte pins
(tests/test_cli_bytes.py), the golden CSVs (tests/test_golden.py) and the
``verify`` repr pins (tests/test_verify.py) with ``OPENBLAS_CORETYPE`` set
in its environment alone.  The probe prints the kernel each child loaded
and the ids of the pins that failed.  It writes no pin file.

    PYTHONPATH=src python tests/platform_probe.py
    PYTHONPATH=src python tests/platform_probe.py --runtime

``--runtime`` prints this process's kernel and numpy's runtime report
(the SIMD extensions numpy dispatches to) and runs no test.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORES = ("SkylakeX", "Haswell", "Zen", "Sandybridge", "Prescott")
PIN_TESTS = ("tests/test_cli_bytes.py", "tests/test_golden.py",
             "tests/test_verify.py::test_run_suite_reprs_are_unchanged",
             "tests/test_verify.py::test_point_checks_reprs_are_unchanged")
# the kernel query of numpy's bundled OpenBLAS (scipy-openblas, 64-bit integers)
CORENAME = "scipy_openblas_get_corename64_"


def openblas_core() -> str:
    """The kernel that numpy's bundled OpenBLAS loaded, or ``"unknown"``
    where no bundled library exports ``CORENAME``."""
    import numpy

    package = Path(numpy.__file__).parent
    for lib in sorted([*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]):
        try:
            # numpy has loaded the library already, so this is the same instance
            corename = getattr(ctypes.CDLL(str(lib)), CORENAME)
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


class _Failures:
    """A pytest plugin that keeps the ids of the failed tests and counts the passed ones."""

    def __init__(self):
        self.failed, self.passed = {}, 0

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed[report.nodeid] = None
        elif report.passed and report.when == "call":
            self.passed += 1


def _child() -> None:
    """Run the pin tests here and print one JSON line: the kernel, the counts, the failed ids."""
    import pytest

    core, failures = openblas_core(), _Failures()
    pytest.main(["-q", "--tb=no", "-p", "no:cacheprovider", *PIN_TESTS], plugins=[failures])
    print(json.dumps({"core": core, "passed": failures.passed, "failed": list(failures.failed)}))


def probe() -> int:
    """Print, per kernel, what its child loaded and which pins failed; 1 if a child gave no report."""
    print(f"{'OPENBLAS_CORETYPE':<18} {'loaded':<12} {'passed':>6} {'failed':>6} {'seconds':>7}")
    code = 0
    for core in CORES:
        start = time.perf_counter()
        child = subprocess.run([sys.executable, __file__, "--child"], cwd=ROOT, capture_output=True,
                               text=True, env={**os.environ, "OPENBLAS_CORETYPE": core})
        seconds = time.perf_counter() - start
        try:
            report = json.loads(child.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            print(f"{core:<18} no report (exit {child.returncode}): {child.stderr.strip()[-500:]}")
            code = 1
            continue
        print(f"{core:<18} {report['core']:<12} {report['passed']:>6} {len(report['failed']):>6} {seconds:>7.1f}")
        for nodeid in report["failed"]:
            print(f"  {nodeid}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runtime", action="store_true",
                        help="print this process's kernel and numpy's runtime report, and run no test")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child()
        return 0
    if args.runtime:
        import numpy

        print(f"OpenBLAS core: {openblas_core()}")
        numpy.show_runtime()
        return 0
    return probe()


if __name__ == "__main__":
    sys.exit(main())
