"""Seeded inputs of the four benchmark workloads.

Pure Python on purpose: the harness generates ops without importing
numpy or qfcool, and the in-process worker regenerates the same ops from
the same seed.  qfcool itself only ever sees the generated values.

A run is a whole number of *sessions*.  Every session holds the same
strata (op kinds and sizes) with freshly seeded parameters, in seeded
order, so the cost of a run barely depends on the seed while its inputs
do.  The number of sessions is fixed by ``--seconds`` alone (see
``session_count``), so a later commit repeats exactly the same ops.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("cli_small", "landscape", "verify_suite", "landscape_pool")

EPS_A_CLAMP = 1e-9
# (n_phi, n_eps_a) ladder of the landscape workload, about 5x21 to 25x101.
# Both ladders have an odd number of rungs of distinct cost, so the median
# op of a run falls inside the middle rung, not between two rungs.
LANDSCAPE_GRIDS = ((5, 21), (9, 31), (13, 51), (17, 71), (25, 101))
# (grid_n, discord_stride) strata of the verify_suite workload; each one
# covers every invariant class with a non-zero point count.
VERIFY_SUITES = ((4, 2), (5, 3), (6, 3), (6, 2), (7, 3))
POOL_N_PHI = 25
POOL_WORKERS = 2  # QFC_THREADS of landscape_pool, capped at nproc
DEFAULT_N_EPS_A = 101  # CLI default of --n-eps-a
SWEEP_N_EPS_A = 21
SWEEP_CURVES = 3  # CLI default phi set of a characteristic-curve sweep

# About the wall seconds of one session on the machine the benchmark was
# defined on (2-core VM, Python 3.11, numpy 2.4, scipy 1.17).  They only
# size a run: a run of --seconds S holds round(S / SESSION_SECONDS)
# sessions, which with S = 20 keeps a whole run, set-up included, near
# 30 seconds.
SESSION_SECONDS = {
    "cli_small": 9.0,
    "landscape": 5.0,
    "verify_suite": 6.0,
    "landscape_pool": 2.5,
}


def session_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / SESSION_SECONDS[workload]))


def _eps_s(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 0.8), 6)


def _temperature(rng: random.Random) -> float:
    return round(math.exp(rng.uniform(math.log(0.25), math.log(4.0))), 6)


def _phi(rng: random.Random) -> float:
    return round(rng.uniform(0.0, math.pi / 2), 6)


def _fmt(rng: random.Random) -> str:
    return rng.choice(("json", "csv"))


def _cli_session(rng: random.Random) -> list[dict]:
    ops = []
    # `run --verify --format csv` is left out: it exits with a TypeError
    # traceback (the CSV flattener cannot format the list of checks).
    for fmt, with_verify in (("json", False), ("json", True), ("csv", False)):
        eps_s = _eps_s(rng)
        eps_a = round(rng.uniform(eps_s + 0.02, 0.97), 6)
        phi = _phi(rng)
        argv = ["run", "--eps-s", repr(eps_s), "--eps-a", repr(eps_a), "--phi", repr(phi),
                "--temperature", repr(_temperature(rng)), "--format", fmt]
        if with_verify:
            argv.append("--verify")
        ops.append({"kind": "run", "argv": argv, "format": fmt, "verify": with_verify,
                    "eps_s": eps_s, "phi": phi, "points": 1})
    eps_s, fmt = _eps_s(rng), _fmt(rng)
    ops.append({"kind": "threshold", "argv": ["threshold", "--eps-s", repr(eps_s), "--format", fmt],
                "format": fmt, "eps_s": eps_s, "points": 0})
    for objective in ("cop", "eta", "chi"):
        eps_s, fmt = _eps_s(rng), _fmt(rng)
        argv = ["optimize", "--objective", objective, "--eps-s", repr(eps_s), "--phi", repr(_phi(rng)),
                "--temperature", repr(_temperature(rng)), "--format", fmt]
        ops.append({"kind": "optimize", "argv": argv, "format": fmt, "eps_s": eps_s, "points": 0})
    eps_s, fmt = _eps_s(rng), _fmt(rng)
    argv = ["sweep", "--eps-s", repr(eps_s), "--n-eps-a", str(SWEEP_N_EPS_A),
            "--temperature", repr(_temperature(rng)), "--format", fmt]
    ops.append({"kind": "sweep", "argv": argv, "format": fmt, "eps_s": eps_s,
                "rows": SWEEP_CURVES * SWEEP_N_EPS_A, "points": SWEEP_CURVES * SWEEP_N_EPS_A})
    return ops


def _landscape_session(rng: random.Random) -> list[dict]:
    ops = []
    for n_phi, n_eps_a in LANDSCAPE_GRIDS:
        ops.append({"kind": "landscape", "eps_s": _eps_s(rng), "temperature": _temperature(rng),
                    "n_phi": n_phi, "n_eps_a": n_eps_a,
                    "boundary_index": rng.randrange(1, n_eps_a - 1),
                    "points": n_phi * n_eps_a})
    return ops


def _verify_session(rng: random.Random) -> list[dict]:
    return [{"kind": "verify", "grid_n": grid_n, "discord_stride": stride,
             "temperature": _temperature(rng), "points": grid_n ** 3}
            for grid_n, stride in VERIFY_SUITES]


def _pool_session(rng: random.Random) -> list[dict]:
    eps_s = _eps_s(rng)
    argv = ["sweep", "--landscape", "--n-phi", str(POOL_N_PHI), "--eps-s", repr(eps_s),
            "--temperature", repr(_temperature(rng)), "--format", "csv"]
    return [{"kind": "landscape_pool", "argv": argv, "eps_s": eps_s,
             "rows": POOL_N_PHI * DEFAULT_N_EPS_A, "points": POOL_N_PHI * DEFAULT_N_EPS_A}]


_SESSIONS = {
    "cli_small": _cli_session,
    "landscape": _landscape_session,
    "verify_suite": _verify_session,
    "landscape_pool": _pool_session,
}

IN_PROCESS = frozenset({"landscape", "verify_suite"})



def generate(workload: str, seed: int, seconds: float) -> list[dict]:
    """The run's ops, a pure function of (workload, seed, seconds)."""
    if workload not in _SESSIONS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for _ in range(session_count(workload, seconds)):
        session = _SESSIONS[workload](rng)
        rng.shuffle(session)
        ops.extend(session)
    return ops


def grid_values(eps_s: float, n_phi: int, n_eps_a: int) -> tuple[list[float], list[float]]:
    """phi and eps_a axes of a landscape op, built as ``qfcool.cli sweep`` builds them."""
    phis = [0.5 * math.pi * i / (n_phi - 1) for i in range(n_phi)]
    hi = 1.0 - EPS_A_CLAMP
    eps_as = [eps_s + (hi - eps_s) * i / (n_eps_a - 1) for i in range(n_eps_a)]
    return phis, eps_as
