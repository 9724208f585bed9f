"""Child process that runs an in-process workload (landscape, verify_suite).

Each run gets its own process so that its peak RSS is qfcool's, not the
harness's.  Usage (the harness calls it; PYTHONPATH must reach qfcool):

    python bench/worker.py --workload landscape --seed 1 --seconds 20 \
        --trace 0 --out result.json [--spans spans.json]

Ops are timed one by one (wall and process CPU), each between two runs
of the calibration kernel; outputs are checked after the timer stops.  With ``--trace 1`` every op runs twice, once
untraced and once traced, in alternating order, so the trace overhead is
measured on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import time

import checks
import workloads
from calibrate import Scaler
from tracer import Tracer, attach_qfcool

from qfcool import sweep, verify


def run_landscape(op: dict):
    phis, eps_as = workloads.grid_values(op["eps_s"], op["n_phi"], op["n_eps_a"])
    grid = sweep.SweepGrid(eps_s=op["eps_s"], phi_values=tuple(phis),
                           eps_a_values=tuple(eps_as), temperature=op["temperature"])
    result = sweep.landscape(grid, {"thermo", "correlations"})
    boundary = sweep.separability_boundary(op["eps_s"], eps_as[op["boundary_index"]],
                                           op["temperature"])
    return result, boundary


def check_landscape(op: dict, output) -> None:
    result, boundary = output
    if len(result.points) != op["points"]:
        raise checks.CheckError(f"{len(result.points)} landscape points, expected {op['points']}")
    for point in result.points:
        checks.check_finite((point.eps_a, point.phi), "grid point")
        for report in (point.thermo, point.correlations):
            checks.check_finite(tuple(v for v in vars(report).values() if isinstance(v, float)),
                                type(report).__name__)
        checks.check_discord(op["eps_s"], point.phi, point.correlations.discord_analytic)
    for series in (result.cooling_window_boundary, result.work_extraction_boundary):
        checks.check_finite(tuple(series), "boundary series")
    if boundary.status not in ("interior", "never_entangled", "always_entangled") or not (
            0.0 <= boundary.phi <= math.pi / 2):
        raise checks.CheckError(f"separability boundary {boundary!r}")


def run_verify(op: dict):
    return verify.run_suite(op["grid_n"], op["discord_stride"], op["temperature"])


def check_verify(golden: list[dict], output) -> None:
    checks.check_verify_checks(
        [{"name": c.name, "points": c.points, "tolerance": c.tolerance, "passed": c.passed}
         for c in output], golden)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.IN_PROCESS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    ops = workloads.generate(args.workload, args.seed, args.seconds)
    if args.workload == "landscape":
        run, check = run_landscape, check_landscape
    else:
        golden = checks.load_golden()["verify"]
        run, check = run_verify, (lambda op, output: check_verify(golden, output))

    tracer = None
    if args.trace:
        tracer = Tracer()
        attach_qfcool(tracer)

    records = []
    scaler = Scaler()  # one core: no helper process to stop
    for index, op in enumerate(ops):
        passes = (False,) if tracer is None else ((False, True) if index % 2 == 0 else (True, False))
        for traced in passes:
            if traced:
                tracer.current_op = index
                tracer.start_tracing()
            error = None
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                output = run(op)
            except Exception as exc:  # a failing op is recorded, the run goes on
                output, error = None, f"{type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if traced:
                tracer.stop_tracing()
            scale = scaler.scale()
            if error is None:
                try:
                    check(op, output)
                except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                    error = f"check failed: {exc}"
            records.append({"op": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                            "scale": scale, "points": op["points"], "error": error})

    doc = {"records": records}
    if tracer is not None:
        doc["layers"] = tracer.summary()
        if args.spans:
            tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    main()
