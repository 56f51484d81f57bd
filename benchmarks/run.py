"""varorder benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload registry-exact --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the checkout holding this file.  Each
invocation runs one workload in its own process.  With ``--trace 0`` it
prints the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run and the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record (run
environment, every metric, failures, and the spans of a traced run) is
written to ``.bench_out/`` at the root of that checkout.

Exit codes: 0 after a completed run (failed ops are counted, not fatal),
1 when the program cannot be imported or set up.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here, before any heavy import

import argparse
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 4  # extra set-up samples, each in a fresh process
WORKLOAD_NAMES = ("registry-exact", "exact-large", "sim-chains")

# Per-layer metrics of the traced run: (module.function, stat, unit).
LAYER_METRICS = (
    ("exactify.freeze_acceptance_table", "self_s", "s"),
    ("exactify.accept_kernel", "self_s", "s"),
    ("exactify.extract_kernel", "calls", "count"),
    ("exactify.extract_kernel", "self_s", "s"),
    ("exactify.stationary_distribution", "self_s", "s"),
    ("variance.asvar_homogeneous", "calls", "count"),
    ("variance.asvar_homogeneous", "self_s", "s"),
    ("variance.asvar_alternating", "calls", "count"),
    ("variance.asvar_alternating", "self_s", "s"),
    ("variance.alternating_partial_sum_variance", "self_s", "s"),
    ("ergodicity.fit_certificate", "calls", "count"),
    ("ergodicity.fit_certificate", "self_s", "s"),
    ("ergodicity.summability_certificate", "self_s", "s"),
    ("toys.random_lazy_quadruple", "self_s", "s"),
    ("kernels.detailed_balance_check", "self_s", "s"),
    ("kernels.off_diagonal_order_check", "self_s", "s"),
    ("cli.run_scenario", "calls", "count"),
    ("cli.run_scenario", "self_s", "s"),
    ("special_cases.rmcmc_step", "us_per_step", "us"),
    ("special_cases.gmtm_step", "us_per_step", "us"),
    ("samplers.freeze_step", "us_per_step", "us"),
    ("samplers.random_refresh_step", "us_per_step", "us"),
    ("samplers.run_chain", "steps", "count"),
    ("samplers.run_chain", "self_s", "s"),
    ("pseudo_marginal.log_estimate", "calls", "count"),
    ("variance.batch_means_variance", "self_s", "s"),
)


def _src_on_path():
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def build_workload(name: str, seed: int, size: str, scratch: str):
    """Import the program and build the workload's inputs (the set-up)."""
    _src_on_path()
    import varorder
    import workloads
    if Path(varorder.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"varorder imported from {varorder.__file__}, not {ROOT / 'src'}")
    return workloads.WORKLOADS[name](seed, size, scratch)


def run_environment() -> dict:
    """Versions, BLAS library and threads, CPUs and commit of this run."""
    import numpy as np
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0))}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        env["blas"] = "unknown"
    env["blas_threads"] = _blas_threads(np)
    env["blas_threads_env"] = {k: os.environ[k] for k in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                               if k in os.environ}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), platform.processor())
    except OSError:
        env["cpu_model"] = platform.processor() or "unknown"
    env["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            env["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def _blas_threads(np):
    """OpenBLAS thread count as the library reports it, or None."""
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def tail_percentile(times):
    """(percentile, value): the highest percentile with at least ten ops
    above it.  With fewer than twenty ops that percentile would not be above
    the median, so the slowest op is reported as the 100th."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _run_ops(workload, indices, deadline=None, tracer=None):
    """Time each op, then check it; returns (op times, failure messages)."""
    times, failures = [], []
    for i in indices:
        if tracer is not None:
            tracer.op = i
        start = time.perf_counter()
        try:
            out = workload.op(i)
            elapsed = time.perf_counter() - start
            problems = workload.check(i, out)
        except Exception:  # a raising op is a failed op, not a crashed run
            elapsed = time.perf_counter() - start
            problems = [traceback.format_exc(limit=3)]
        times.append(elapsed)
        if problems:
            failures.append(f"op {i}: " + "; ".join(problems))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return times, failures


def measure(workload, seconds: float) -> dict:
    """End-to-end run: ops back to back until ``seconds`` have passed."""
    start = time.perf_counter()
    times, failures = _run_ops(workload, itertools.count(), deadline=start + seconds)
    n = len(times)
    pct, tail = tail_percentile(times)
    busy = sum(times)
    result = {
        "attempted": n, "failures": failures,
        "metrics": {
            "ops_per_s": (n / busy, "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
        "extra": {"op_tail_percentile": pct, "op_count": n, "op_times_s": times,
                  "failed_frac": (len(failures) / n, "1")},
    }
    if workload.steps_per_op:
        result["extra"]["chain_steps_per_s"] = (n * workload.steps_per_op / busy, "1/s")
    return result


def traced_op_count(workload, seconds: float) -> int:
    """Ops per half of a traced run: fixed by --seconds, never by timing, so
    every count in the trace repeats exactly for a fixed seed.  Even, so the
    two model shapes of exact-large appear equally often."""
    n = round(seconds / (2.0 * workload.nominal_op_s)) if not workload.tiny else 1
    return 2 * max(1, math.ceil(n / 2))


def measure_traced(workload, seconds: float) -> dict:
    """Each op runs untraced and traced, in alternating order so that drift
    in machine speed falls on both sides; per-layer metrics are per op."""
    from tracing import Tracer
    n = traced_op_count(workload, seconds)
    tracer = Tracer()
    plain_times, traced_times, failures = [], [], []
    for i in range(n):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer:
                    times, problems = _run_ops(workload, [i], tracer=tracer)
                traced_times += times
            else:
                times, problems = _run_ops(workload, [i])
                plain_times += times
            failures += problems
    stats = tracer.stats()
    metrics = {}
    for label, stat, unit in LAYER_METRICS:
        calls, total, self_s = stats.get(label, (0, 0.0, 0.0))
        if stat == "calls":
            value = calls / n
        elif stat == "self_s":
            value = self_s / n
        elif stat == "us_per_step":
            value = 1e6 * total / calls if calls else 0.0
        else:  # run_chain steps
            value = tracer.counters["samplers.run_chain.steps"] / n
        metrics[f"{label}.{stat}"] = (value, unit)
    metrics["exactify.kernel_bytes"] = (tracer.counters["exactify.kernel_bytes"] / n, "bytes")
    for kind in ("move", "refresh"):
        acc, tot = tracer.accepts.get(kind, (0, 0))
        metrics[f"samplers.accept_ratio.{kind}"] = (acc / tot if tot else 0.0, "ratio")
    metrics["bench.trace_overhead_ratio"] = (sum(traced_times) / sum(plain_times), "ratio")
    return {"attempted": 2 * n, "failures": failures, "metrics": metrics,
            "extra": {"ops_per_half": n, "untraced_s": sum(plain_times),
                      "traced_s": sum(traced_times)},
            "spans": tracer.spans}


def _setup_probe(args) -> float:
    """Seconds this process spent importing and building the workload."""
    scratch = OUT_DIR / f"probe-{os.getpid()}"
    try:
        build_workload(args.workload, args.seed, args.size, str(scratch))
        return time.perf_counter() - _T0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _probe_setup_times(args) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(args) -> dict:
    """Set up, warm up, measure; returns the full record of the run."""
    scratch = OUT_DIR / f"scratch-{os.getpid()}"
    try:
        workload = build_workload(args.workload, args.seed, args.size, str(scratch / "main"))
        own_setup = time.perf_counter() - _T0
        env = run_environment()
        if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
            raise RuntimeError(f"BLAS uses {env['blas_threads']} threads on "
                               f"{env['nproc']} CPUs; set OPENBLAS_NUM_THREADS")
        # warm-up: one op at tiny size fills lazy state (LAPACK, imports in
        # the package) before anything is timed
        warm = build_workload(args.workload, args.seed, "tiny", str(scratch / "warm"))
        warm.check(0, warm.op(0))
        if args.trace:
            record = measure_traced(workload, args.seconds)
        else:
            setups = [own_setup] + _probe_setup_times(args)
            record = measure(workload, args.seconds)
            record["metrics"]["setup_s"] = (statistics.median(setups), "s")
            record["extra"]["setup_samples_s"] = setups
        record["records"] = workload.records
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, env=env)
    return record


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(record) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  size {record['size']}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, (value, unit) in sorted(record["metrics"].items()):
        print(f"  {name:<48} {_fmt(value):>14} {unit}")
    for name, value in sorted(record["extra"].items()):
        if isinstance(value, tuple):
            value, unit = value
            print(f"  {name:<48} {_fmt(value):>14} {unit}")
        elif not isinstance(value, list):
            print(f"  {name:<48} {_fmt(value):>14}")
    for name, value in sorted(record["records"].items()):
        print(f"  {name:<48} {_fmt(value):>14}")
    for failure in record["failures"][:5]:
        print("FAILED " + failure.replace("\n", " | "))
    failed = len(record["failures"])
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in record["metrics"].items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(_setup_probe(args)))
        return 0
    try:
        record = run(args)
    except (ImportError, OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    summary = report(record)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump({**record, "summary": summary}, fh, default=str)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
