"""Closed-loop benchmark of qshift: one process, one caller, one workload per run.

Run from the repository root, for example:

    python3 perfbench/run.py --workload mulq-superposed --seed 1 --seconds 25 --trace 0

The run imports qshift from ``src/``, sets up the workload several times
(inputs from ``--seed``, layouts, one warm-up cycle) and keeps the last
set-up, then runs operations back to back for ``--seconds`` and checks
every result against the workload's gate-free oracle. A calibration
kernel (calibration.py) runs after every operation, and operation times
are reported in units of its time. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs half the
time untraced and half traced and reports the per-layer metrics. The last
line of standard output is the result as one JSON object; the lines
before it are for people. perfbench/README.md describes the workloads and
the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench-run"
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_qshift():
    """Import qshift from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import qshift
    import qshift.cli

    if Path(qshift.__file__).resolve().parent != SRC / "qshift":
        raise ImportError(f"qshift resolved to {qshift.__file__}, outside {SRC}")


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read().strip()


def machine_facts(np) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown"
            )
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(cache_dir)):
            level = _read(f"{cache_dir}/{index}/level")
            if level in ("2", "3"):
                facts[f"l{level}_cache"] = _read(f"{cache_dir}/{index}/size")
    return facts


def _cache_bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def attempt(wl, tracer=None, op_id=0):
    """Run one operation; return (seconds, problem or None, result)."""
    span = tracer.operation(op_id) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = wl.op()
    except Exception as exc:  # a raising operation is a failed operation; keep measuring
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        wl.reset()
        return seconds, f"raised {type(exc).__name__}: {exc}", None
    seconds = time.perf_counter() - t0
    problem = wl.problem(result)
    if problem:
        wl.reset()
    return seconds, problem, result


def measure(wl, seconds, calibrate, tracer=None):
    """Operations back to back until ``seconds`` have passed and the last
    cycle is whole, so every run has the same mix, with one calibration call
    before the first operation and after each; (latencies, calibration
    times, problems)."""
    latencies, problems = [], []
    cal = [timed(calibrate)]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(latencies) % wl.cycle:
        # [:2] drops the result at once, so a large state is freed before the next operation.
        took, problem = attempt(wl, tracer, len(latencies))[:2]
        latencies.append(took)
        if problem:
            problems.append(problem)
        cal.append(timed(calibrate))
    return latencies, cal, problems


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def relative(latencies, cal):
    """Each operation's time in units of the calibration kernel's time
    around it (the mean of the calls just before and just after it)."""
    return [t / (0.5 * (before + after)) for t, before, after in zip(latencies, cal, cal[1:])]


def tail(latencies):
    """(value, percentile, samples beyond): the highest sample with at least ten
    samples above it, when there are at least 20 samples; else the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


def set_up(cls, seed, workdir):
    """Build the workload SETUP_REPEATS times and keep the last; returns
    (workload, median set-up seconds, warm-up problems, last warm-up result)."""
    times, problems = [], []
    wl = result = None
    for _ in range(SETUP_REPEATS):
        wl = result = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        wl = cls(seed, str(workdir))
        for _ in range(wl.cycle):
            _, problem, result = attempt(wl)
            if problem:
                problems.append(problem)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times), problems, result


def declared_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    t0 = time.perf_counter()
    try:
        import_qshift()
    except ImportError as exc:
        print(f"perfbench: cannot import qshift from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, workloads.WORKLOADS[args.workload], workdir, import_s, np, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, cls, workdir, import_s, np, tracing) -> int:
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    facts = machine_facts(np)
    wl, setup_s, warm_problems, warm_result = set_up(cls, args.seed, workdir)
    setup_s += import_s
    self_test_ok = not warm_problems and wl.self_test(warm_result)
    warm_result = None
    amps = wl.input.amplitudes
    facts["amplitude_array"] = f"{amps.nbytes / 2**20:g} MiB"
    if "l3_cache" in facts:
        facts["amplitude_array_over_l3"] = round(amps.nbytes / _cache_bytes(facts["l3_cache"]), 4)
    print("machine " + json.dumps(facts))

    calibrate = wl.calibration(str(workdir))
    calibrate()
    if args.trace:
        base, base_cal, base_problems = measure(wl, args.seconds / 2, calibrate)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            latencies, cal, problems = measure(wl, args.seconds / 2, calibrate, tracer)
        finally:
            tracer.uninstall()
        metrics, shares, coverage = tracing.layer_metrics(tracer)
        support = np.count_nonzero(amps)
        metrics["state.support_ratio"] = (support / amps.size, "frac")
        metrics["state.amplitude_bytes"] = (float(amps.nbytes), "B")
        overhead = 1.0 - statistics.mean(relative(base, base_cal)) / statistics.mean(relative(latencies, cal))
        metrics["trace.overhead_frac"] = (overhead, "frac")
        metrics["trace.coverage_frac"] = (coverage, "frac")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1])[:8]:
            print(f"self-time share {share:8.4f}  {name}")
        if coverage < 0.95:
            print(f"warning: spans cover only {coverage:.3f} of some operation's wall time")
        RUN_DIR.mkdir(exist_ok=True)
        spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_path, "w") as fh:
            json.dump({"fields": tracing.SPAN_FIELDS, "spans": tracer.spans}, fh)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        latencies, problems = base + latencies, base_problems + problems
    else:
        latencies, cal, problems = measure(wl, args.seconds, calibrate)
        rel = relative(latencies, cal)
        tail_rel, tail_pct, beyond = tail(rel)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_mean_cal": (statistics.mean(rel), "cal"),
            "op_p50_cal": (statistics.median(rel), "cal"),
            "op_tail_cal": (tail_rel, "cal"),
            "peak_rss_mb": (peak, "MB"),
        }
        print(f"setup: median of {SETUP_REPEATS} set-ups plus {import_s:.4f} s import")
        print(f"op_tail_cal is p{tail_pct:.1f} of {len(latencies)} operations, {beyond} beyond it")
        # Raw wall-clock figures, for people: on a shared host they drift with
        # the host's speed too much to gate (see README).
        print(f"calibration kernel: median {statistics.median(cal) * 1e3:.6g} ms, "
              f"{sum(cal) / sum(latencies):.3f} of operation time")
        print(f"ops_per_s {len(latencies) / sum(latencies):.6g} 1/s, op_p50_ms "
              f"{statistics.median(latencies) * 1e3:.6g} ms, op_tail_ms {tail(latencies)[0] * 1e3:.6g} ms (not gated)")

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    failed = len(problems)
    print(f"failed_frac {failed / len(latencies):g} ({failed} of {len(latencies)} operations)")
    for problem in dict.fromkeys(warm_problems + problems):
        print(f"problem: {problem}")
    print(f"oracle self-test: {'passed' if self_test_ok else 'FAILED'} (corrupted results must be rejected)")

    declared = declared_metrics(args.trace)
    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared:
        print(f"perfbench: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(reported.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 3
    result = {
        "correct": failed == 0 and self_test_ok,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
