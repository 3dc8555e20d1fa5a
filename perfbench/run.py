"""Repo benchmark for spa-compressor.

    python3 perfbench/run.py --workload compress-long --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Builds the workload from ``--seed``, sets it up several times (reporting the
median set-up time), then sends one request at a time for ``--seconds``
seconds, checking every output.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it runs the same requests under the span tracer
and prints the per-layer metrics instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy is imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set up at least SETUP_REPEATS times and for at least SETUP_SECONDS, so
# that a cheap set-up is still a median over many samples
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 5, 1.0, 50
# stage spans must cover this share of a forward span; checked on the 1st
# percentile so that one forward preempted by the OS cannot fail the run
MIN_STAGE_COVERAGE = 0.95

# end-to-end metrics: generic name in the JSON result, per-workload name in
# the printed table
E2E_NAMES = {
    "compress-long": {"throughput": "compress.frames_per_s", "op_p50_ms": "compress.video_p50_ms"},
    "train-global": {"throughput": "train.steps_per_s", "op_p50_ms": "train.step_p50_ms"},
    "verify-toy": {"throughput": "verify.params_per_s", "op_p50_ms": "verify.scalar_p50_ms"},
}
UNITS = {
    "throughput": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program():
    package = ROOT / "src" / "spa_compressor" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package.relative_to(ROOT)} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import spa_compressor

    if Path(spa_compressor.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported spa_compressor from {spa_compressor.__file__}, not {package}")


def host_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "src_lines": src_lines,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def set_up(cls, seed: int, workdir: Path, trace: bool):
    """Set the workload up repeatedly; return the last one and the times."""
    times = []
    workload = None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
        workload = None  # free the previous set-up before timing the next
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        workload = cls(seed, workdir, trace=trace)
        workload.setup()
        times.append(time.perf_counter() - t0)
    return workload, times


def serve(workload, seconds: float, min_requests: int, tracer=None):
    """Closed loop: one request at a time until ``seconds`` have passed and
    at least ``min_requests`` were sent.  Returns the outcomes."""
    from bench_workloads import Outcome

    outcomes = []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(outcomes) < min_requests:
        i = len(outcomes)
        try:
            if tracer is None:
                outcome = workload.request(i)
            else:
                outcome = tracer.run_request(i, workload.label(i), workload.request, i)
        except Exception as exc:  # a raising request is a failed operation
            traceback.print_exc()
            outcome = Outcome(0, 0.0, f"{type(exc).__name__}: {exc}")
        if outcome.error is not None:
            print(f"# request {i} failed: {outcome.error}", file=sys.stderr)
        outcomes.append(outcome)
    return outcomes


def end_to_end(workload, outcomes, setup_times) -> dict[str, float]:
    ok = [o for o in outcomes if o.error is None]
    busy = sum(o.seconds for o in ok)
    units = sum(o.units for o in ok)
    per_op = [o.seconds / o.units if workload.latency_per_unit else o.seconds for o in ok]
    return {
        "throughput": units / busy if busy else 0.0,
        "op_p50_ms": 1e3 * statistics.median(per_op) if per_op else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mib(),
    }


def traced_metrics(workload, seconds: float):
    """Run the workload under the tracer, then measure the tracer's own
    overhead by alternating untraced and traced units of work."""
    import numpy as np

    from bench_trace import Tracer, gemm_peak_gflops

    peak = {"f64": gemm_peak_gflops(np.float64), "f32": gemm_peak_gflops(np.float32)}

    tracer = Tracer()
    tracer.install()
    try:
        if workload.trace_requests:
            outcomes = serve(workload, 0.0, workload.trace_requests, tracer=tracer)
        else:
            outcomes = serve(workload, seconds, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(workload.graphs)

    probe = Tracer()
    plain, traced = [], []
    for i in range(workload.overhead_pairs):
        for on in (i % 2 == 0, i % 2 != 0):  # alternate which side goes first
            if on:
                probe.install()
            try:
                (traced if on else plain).append(workload.overhead_unit(i))
            finally:
                probe.uninstall()
    metrics["trace.overhead_pct"] = 100 * (statistics.median(traced) / statistics.median(plain) - 1)

    metrics["blas.peak_gflops_f64"] = peak["f64"]
    metrics["blas.peak_gflops_f32"] = peak["f32"]
    metrics["blas.peak_gflops"] = peak[workload.precision]
    return outcomes, metrics, tracer


def run_one(args) -> int:
    import_program()
    from bench_workloads import WORKLOADS

    print("# host " + " ".join(f"{k}={v}" for k, v in host_info().items()))
    base = ROOT / ".perfbench"
    workdir = base / f"work-{os.getpid()}"
    try:
        workload, setup_times = set_up(WORKLOADS[args.workload], args.seed, workdir, trace=bool(args.trace))
        if args.trace:
            from bench_trace import LAYER_METRICS

            outcomes, metrics, tracer = traced_metrics(workload, args.seconds)
            tracer.write(base / f"trace-{args.workload}.csv")
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
            labels = {name: name for name in units}
        else:
            outcomes = serve(workload, args.seconds, 1)
            metrics = end_to_end(workload, outcomes, setup_times)
            units = UNITS
            labels = {**E2E_NAMES[args.workload], "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(outcomes), sum(o.error is not None for o in outcomes)
    correct = failed == 0
    if args.trace and not metrics["trace.stage_coverage_p01"] >= MIN_STAGE_COVERAGE:
        print(f"# stage spans cover under {MIN_STAGE_COVERAGE:.0%} of forward spans", file=sys.stderr)
        correct = False
    result = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    for name, entry in result.items():
        print(f"{labels[name]}: {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        print(f"error_rate: {failed / attempted:.6g} ratio ({failed} of {attempted} {workload.operation}s failed)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    results = {}
    for name in E2E_NAMES:
        print(f"## {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*E2E_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
