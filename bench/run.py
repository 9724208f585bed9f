"""qfcool benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload cli_small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (qfcool is taken from ``src/``;
nothing needs installing).  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it name every metric with its unit, the run's environment and any failed
op.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run.  Results, environment and
spans are also written under ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads (calibrate imports it), for this process and
# for every child, which inherits the environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads
from calibrate import Scaler
from tracer import merge_span_files, merge_summaries, parse_importtime

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
RUN_DEADLINE_S = 170.0

# Workload -> golden CLI invocations checked (untimed) at the start of each run.
GOLDEN_FOR = {
    "cli_small": ("sweep",),
    "landscape": ("sweep",),
    "verify_suite": ("verify",),
    "landscape_pool": ("landscape",),
}

SPAN_METRICS = (
    "correlations.discord_numeric", "correlations.optimal_measurement", "correlations.concurrence",
    "correlations.mutual_information", "correlations.correlation_report",
    "correlations.bloch_components",
    "densmat.partial_trace", "densmat.vn_entropy", "densmat.expectation", "densmat.psd_sqrt",
    "protocol.run_protocol", "thermo.figures_of_merit", "thermo.energy_model",
    "sweep.landscape", "sweep.evaluate_grid", "sweep.optimize_working_point",
    "sweep.separability_boundary", "verify.run_suite", "verify.point_deviations", "cli.main",
    "kernel.kron", "kernel.eigvalsh", "kernel.eigh", "kernel.minimize",
)
CALL_METRICS = ("densmat.validate_density_matrix",)
TOTAL_METRICS = ("correlations.discord_numeric", "protocol.run_protocol")
IMPORT_PACKAGES = ("qfcool", "scipy", "numpy")


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, qfcool is missing)."""


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: str
    stderr: str


class Runner:
    """Starts children with the pinned environment and checks the deadline."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = pinned_env()
        self.pool_workers = min(workloads.POOL_WORKERS, os.cpu_count() or 1)
        self.pool_env = dict(self.env, QFC_THREADS=str(self.pool_workers))
        self._n = 0

    def run(self, cmd: list[str], env: dict | None = None) -> Child:
        """Run ``cmd`` to completion; wall time, CPU and peak RSS via wait4."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline exceeded")
        self._n += 1
        out_path, err_path = self.tmp / f"{self._n}.out", self.tmp / f"{self._n}.err"
        timed_out = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            # A session of its own, so that a timeout also kills pool workers.
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env or self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err, start_new_session=True)

            def kill() -> None:
                timed_out.set()
                kill_group(proc.pid)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        if timed_out.is_set():
            raise BenchError(f"timed out: {' '.join(cmd[:6])}")
        child = Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      out_path.read_text(encoding="utf-8", errors="replace"),
                      err_path.read_text(encoding="utf-8", errors="replace"))
        out_path.unlink()
        err_path.unlink()
        return child

    def python(self, *args: str, env: dict | None = None) -> Child:
        return self.run([sys.executable, *args], env)


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:  # the group has already exited
        pass


def pinned_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("QFC_THREADS", None)
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or "unknown"


_VERSIONS = ("import json, platform, numpy, scipy, qfcool; print(json.dumps({"
             "'python': platform.python_version(), 'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, 'qfcool': qfcool.__version__, "
             "'qfcool_file': qfcool.__file__}))")


def environment(runner: Runner) -> dict:
    """Versions and machine facts; the probe also warms the bytecode cache."""
    load = os.getloadavg()
    probe = runner.python("-c", _VERSIONS)
    if probe.exit_code != 0:
        raise BenchError(f"cannot import qfcool from {ROOT / 'src'}: {probe.stderr.strip()[-500:]}")
    env = json.loads(probe.stdout)
    if ROOT / "src" not in Path(env.pop("qfcool_file")).resolve().parents:
        raise BenchError(f"qfcool is not imported from {ROOT / 'src'}")
    env.update(nproc=os.cpu_count(), cpu_model=cpu_model(), loadavg_start=list(load),
               pinned={k: runner.env[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
               qfc_threads_pool=runner.pool_env["QFC_THREADS"])
    return env


class Tally:
    """Attempted and failed ops, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def add(self, label: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{label}: {error}")


def golden_outputs(runner: Runner, name: str, env: dict) -> dict:
    """Run one golden CLI invocation; return what golden.json pins of it, by key."""
    argv = list(checks.GOLDEN_OPS[name])
    if name == "landscape":
        files = checks.landscape_files(runner.tmp / "golden.csv")
        child = runner.python("-m", "qfcool.cli", *argv, "--output", str(files["points"]), env=env)
        texts = {key: path.read_text(encoding="utf-8") for key, path in files.items()
                 if path.exists()}
        for path in files.values():
            path.unlink(missing_ok=True)
        rows = workloads.POOL_N_PHI * workloads.DEFAULT_N_EPS_A
        checks.check_cli_op({"kind": "landscape_pool", "rows": rows}, child.exit_code,
                            child.stdout, child.stderr, texts)
        return {f"landscape_n_phi_25_{key}.csv": checks.sha256(text) for key, text in texts.items()}
    child = runner.python("-m", "qfcool.cli", *argv, env=env)
    if child.exit_code != 0:
        raise checks.CheckError(f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}")
    if name == "sweep":
        checks.check_sweep_csv(child.stdout, workloads.SWEEP_CURVES * workloads.DEFAULT_N_EPS_A)
        return {"sweep_eps_s_0.4.csv": checks.sha256(child.stdout)}
    return {"verify": checks.verify_structure(checks.parse_json(child.stdout))}


def check_golden(runner: Runner, name: str, env: dict, golden: dict) -> str | None:
    try:
        for key, value in golden_outputs(runner, name, env).items():
            expected = golden["verify"] if key == "verify" else golden["digests"][key]
            if value != expected:
                raise checks.CheckError(f"{key} differs from golden.json")
    except (checks.CheckError, KeyError, OSError) as exc:
        return str(exc)
    return None


def cli_op(runner: Runner, op: dict, index: int, traced: bool) -> tuple[Child, str | None, dict | None]:
    argv = list(op["argv"])
    env = runner.env
    files = None
    if op["kind"] == "landscape_pool":
        env = runner.pool_env
        files = checks.landscape_files(runner.tmp / f"op{index}.csv")
        argv += ["--output", str(files["points"])]
    stats_path = runner.tmp / f"stats{index}.json"
    if traced:
        child = runner.python(str(BENCH_DIR / "traced_cli.py"), str(stats_path), *argv, env=env)
    else:
        child = runner.python("-m", "qfcool.cli", *argv, env=env)
    texts = {}
    for key, path in (files or {}).items():
        if path.exists():
            texts[key] = path.read_text(encoding="utf-8")
            path.unlink()
    try:
        checks.check_cli_op(op, child.exit_code, child.stdout, child.stderr, texts)
        error = None
    except (checks.CheckError, KeyError, TypeError) as exc:
        error = str(exc)
    stats = None
    if traced and stats_path.exists():
        stats = json.loads(stats_path.read_text(encoding="utf-8"))
    return child, error, stats


def run_cli_workload(runner: Runner, ops: list[dict], trace: bool, tally: Tally):
    """Closed loop, one client: each op starts when the previous one has ended."""
    records, summaries, spans = [], [], []
    # Pool ops keep that many cores busy, so the kernel that scales them
    # runs on as many cores at once.
    cores = runner.pool_workers if ops[0]["kind"] == "landscape_pool" else 1
    with Scaler(cores) as scaler:
        for index, op in enumerate(ops):
            passes = (False,) if not trace else ((False, True) if index % 2 == 0 else (True, False))
            for traced in passes:
                child, error, stats = cli_op(runner, op, index, traced)
                scale = scaler.scale()
                tally.add(f"op {index} {op['kind']}{' traced' if traced else ''}", error)
                records.append({"op": index, "traced": traced, "wall_s": child.wall_s,
                                "cpu_s": child.cpu_s, "scale": scale,
                                "maxrss_kb": child.maxrss_kb, "points": op["points"],
                                "error": error})
                if stats is not None:
                    summaries.append(stats)
                    spans.append((index, runner.tmp / f"stats{index}.json.spans"))
    return records, merge_summaries(summaries) if trace else None, spans


def run_in_process(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
                   tally: Tally, spans_path: Path):
    out = runner.tmp / "worker.json"
    child = runner.python(str(BENCH_DIR / "worker.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(int(trace)),
                          "--out", str(out), "--spans", str(spans_path))
    if child.exit_code != 0 or not out.exists():
        raise BenchError(f"worker failed with exit code {child.exit_code}: "
                         f"{child.stderr.strip()[-500:]}")
    doc = json.loads(out.read_text(encoding="utf-8"))
    for rec in doc["records"]:
        rec["maxrss_kb"] = child.maxrss_kb
        tally.add(f"op {rec['op']}{' traced' if rec['traced'] else ''}", rec["error"])
    return doc["records"], doc.get("layers")


def tail_index(n: int) -> int:
    """Index (ascending order) of the highest percentile with at least ten ops beyond it.

    Never below the median: with 21 ops or fewer it is the upper median.
    """
    return max(n - 11, n // 2)


def end_to_end(records: list[dict], setup: list[float]) -> tuple[dict, dict]:
    lat = sorted(r["wall_s"] * r["scale"] for r in records)
    n = len(lat)
    tail = tail_index(n)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[tail] * 1e3, "ms"),
        "cpu_s": (sum(r["cpu_s"] * r["scale"] for r in records), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024.0, "MB"),
    }
    info = {"ops": n, "tail_percentile": round(100.0 * (tail + 1) / n, 1),
            "ops_beyond_tail": n - 1 - tail, "setup_probes": setup}
    return metrics, info


def per_layer(records: list[dict], layers: dict, imports: dict[str, float]) -> dict:
    spans, counters = layers["spans"], layers["counters"]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    points = sum(r["points"] for r in traced)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for name in SPAN_METRICS:
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (spans.get(name, {}).get("self_s", 0.0), "s")
    for name in CALL_METRICS:
        metrics[f"{name}.calls"] = (calls(name), "count")
    for name in TOTAL_METRICS:
        metrics[f"{name}.total_s"] = (spans.get(name, {}).get("total_s", 0.0), "s")
    nfev = counters.get("kernel.minimize.nfev", 0)
    metrics["kernel.minimize.nfev"] = (nfev, "count")
    metrics["correlations.nfev_per_search"] = (
        ratio(nfev, calls("correlations.discord_numeric")), "count/search")
    metrics["densmat.validations_per_point"] = (
        ratio(calls("densmat.validate_density_matrix"), points), "count/point")
    metrics["protocol.run_protocol.calls_per_point"] = (
        ratio(calls("protocol.run_protocol"), points), "count/point")
    for package in IMPORT_PACKAGES:
        metrics[f"import.{package}_s"] = (imports[package], "s")
    metrics["trace.overhead_frac"] = (
        sum(r["wall_s"] * r["scale"] for r in traced)
        / sum(r["wall_s"] * r["scale"] for r in untraced) - 1.0, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="qfcool benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    trace = bool(args.trace)
    started = time.monotonic()

    OUT_DIR.mkdir(exist_ok=True)
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir()
    runner = Runner(tmp, started + RUN_DEADLINE_S)
    try:
        env = environment(runner)
        golden = checks.load_golden()
        tally = Tally()
        if trace:
            probes = [parse_importtime(runner.python("-X", "importtime", "-c", "import qfcool").stderr,
                                       IMPORT_PACKAGES) for _ in range(IMPORTTIME_PROBES)]
            imports = {p: statistics.median(probe[p] for probe in probes) for p in IMPORT_PACKAGES}
        else:
            with Scaler() as scaler:
                setup = [runner.python("-c", "import qfcool").wall_s * scaler.scale()
                         for _ in range(SETUP_PROBES)]

        for name in GOLDEN_FOR[args.workload]:
            gold_env = runner.pool_env if args.workload == "landscape_pool" else runner.env
            tally.add(f"golden {name}", check_golden(runner, name, gold_env, golden))

        ops = workloads.generate(args.workload, args.seed, args.seconds)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans_path = OUT_DIR / f"spans-{stem}.bin"
        if args.workload in workloads.IN_PROCESS:
            records, layers = run_in_process(runner, args.workload, args.seed, args.seconds,
                                             trace, tally, spans_path)
        else:
            records, layers, span_parts = run_cli_workload(runner, ops, trace, tally)
            if trace:
                merge_span_files(spans_path, span_parts)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if trace:
        metrics, info = per_layer(records, layers, imports), {"ops": len(ops)}
    else:
        metrics, info = end_to_end(records, setup)
    failed = len(tally.errors)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                attempted=tally.attempted, failed=failed,
                ops_failed_frac=failed / tally.attempted, errors=tally.errors,
                elapsed_s=time.monotonic() - started)
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT_DIR / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "run": info, "result": result, "records": records}, fh,
                  indent=1)

    print("environment " + json.dumps(env, sort_keys=True))
    for error in tally.errors:
        print(f"FAILED {error}")
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, "
          f"attempted={tally.attempted} failed={failed} ops_failed_frac={failed / tally.attempted:g}")
    if not trace:
        print(f"op_tail_ms is the p{info['tail_percentile']:g} latency "
              f"({info['ops_beyond_tail']} of {info['ops']} ops beyond it)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
