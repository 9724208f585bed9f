"""Calibration kernel that turns measured seconds into reference seconds.

The benchmark shares its host with other work, and the speed of one core
drifts by up to 1.6x over tens of seconds.  That drift is far wider than
any regression bound.  Before and after every timed interval the
benchmark therefore times this fixed kernel in the same kind of process.
The interval is then scaled by ``REFERENCE_S[cores] / kernel_time``.

A reference second is a second on a core that runs the kernel in
``REFERENCE_S[1]``.  The kernel does the same kind of work as qfcool:
Python-level calls around small complex numpy matrices.  It does not use
qfcool, so a change to qfcool cannot change the scale.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# Kernel seconds that define a reference second, with one and with two
# kernels running at once.  Two concurrent runs took 1.5 to 1.7 times as
# long as one on the machine the benchmark was defined on; the ratio keeps
# scaled pool times comparable with scaled one-core times.
REFERENCE_S = {1: 0.025, 2: 0.040}
_ITERATIONS = 500

_rng = np.random.default_rng(20151121)
_MATS = _rng.normal(size=(16, 4, 4)) + 1j * _rng.normal(size=(16, 4, 4))
_MATS = _MATS + _MATS.conj().transpose(0, 2, 1)
_QUBIT = _rng.normal(size=(2, 2, 2))


def _kernel() -> float:
    acc = 0.0
    for i in range(_ITERATIONS):
        a = _MATS[i % 16]
        w = np.linalg.eigvalsh(a)
        k = np.kron(_QUBIT[0], _QUBIT[1])
        acc += float(w[0]) + float(np.trace(a @ k).real) + math.sin(0.01 * i)
    return acc


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about 20 to 35 ms).

    One long run, not the median of short ones: the core flips between a
    fast and a slow state many times a second, and the mean over the run
    tracks the share of slow time linearly, as the timed op does.
    """
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Scaler:
    """Gives each timed interval the scale of the kernel runs around it.

    With ``cores=2`` the kernel runs at the same time in this process and
    in a helper process (this file run as a script), so that an op that
    keeps two cores busy (the process pool) is scaled by the speed of two
    busy cores.  Use it as a context manager so that the helper is stopped
    and waited for.
    """

    def __init__(self, cores: int = 1):
        if cores not in REFERENCE_S:
            raise ValueError(f"cores must be 1 or 2, got {cores}")
        self._reference = REFERENCE_S[cores]
        self._helper = None
        if cores == 2:
            self._helper = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                            stdout=subprocess.PIPE, text=True)
        self._before = self._measure()

    def _measure(self) -> float:
        if self._helper is None:
            return kernel_seconds()
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        mine = kernel_seconds()
        return 0.5 * (mine + float(self._helper.stdout.readline()))

    def scale(self) -> float:
        """Call right after an interval: the reference over the mean kernel time around it."""
        after = self._measure()
        scale = self._reference / (0.5 * (self._before + after))
        self._before = after
        return scale

    def close(self) -> None:
        if self._helper is not None:
            self._helper.stdin.close()  # end of input stops the helper
            try:
                self._helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._helper.kill()
                self._helper.wait()
            self._helper.stdout.close()
            self._helper = None

    def __enter__(self) -> "Scaler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    # Helper mode: one kernel run per input line, its time on one output line.
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
