#!/usr/bin/env python3
"""Benchmark runner: one closed-loop workload in this fresh process.

    python3 perfbench/run.py --workload link_batch --seed 3 --seconds 20 \
        --trace 0

One client sends a request, waits for the simulation, checks the
result, then sends the next; everything runs in this single process
with BLAS/OpenMP threads pinned to 1 and no sweep process pool.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: each request is timed once
through the facade, then again layer by layer with spans, and the
per-layer metrics are reported with the reconciliation against the
untraced request time and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every number
is host wall-clock time (or a count derived from it), never simulated
time.  See ``perfbench/README.md``.
"""

import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("link_batch", "link_single", "yield_sweep", "stat_eye")
SETUP_REPEATS = 3          # fresh processes whose set-up time is medianed
MIN_REQUESTS = 100         # leaves >= 10 samples on each side of p10/p90
MAX_STRETCH = 1.1         # never run longer than this many --seconds

LAYERS = ("tx", "channel", "rx", "eye", "cdr", "dfe", "link.facade",
          "sweep.stimulus", "sweep.stack", "sweep.process", "sweep.measure",
          "sweep.reduce", "sweep.journal", "sweep.framework",
          "pulse", "stateye", "stateye.facade")
SWEEP_PHASES = ("stimulus", "stack", "process", "measure", "reduce",
                "journal", "framework")

END_TO_END_UNITS = {"latency_p90_ms": "ms", "peak_rss_mib": "MiB",
                    "setup_s": "s"}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.share"] = "fraction"
    for layer in ("tx", "rx", "channel", "eye"):
        units[f"{layer}.ms_per_scenario"] = "ms"
        units[f"{layer}.ns_per_sample"] = "ns"
    for layer in ("cdr", "dfe"):
        units[f"{layer}.ms_per_scenario"] = "ms"
        units[f"{layer}.ns_per_bit"] = "ns"
    units["cdr.lock_yield"] = "fraction"
    units["link.facade_ms_per_scenario"] = "ms"
    for phase in SWEEP_PHASES:
        units[f"sweep.{phase}_us_per_scenario"] = "us"
    units["sweep.units"] = "count"
    units["pulse.ms_per_call"] = "ms"
    units["stateye.ms_per_call"] = "ms"
    units["stateye.ns_per_grid_point"] = "ns"
    units["stateye.facade_ms_per_call"] = "ms"
    units["trace.overhead"] = "ratio"
    units["trace.requests"] = "count"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and few requests (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def environment(args):
    import scipy
    from repro import kernels
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels": kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "clock": "host wall-clock (time.perf_counter); no number here "
                 "is simulated time",
    }


def load_references(name, seed):
    path = HERE / "reference" / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


class Tally:
    """Attempted/failed requests; the first few failures are printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, index, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"request {index} FAILED: " + "; ".join(problems),
                      file=sys.stderr)


def run_request(workload, inp):
    start = time.perf_counter()
    try:
        out = workload.request(inp)
    except Exception:
        traceback.print_exc()
        out = None
    return time.perf_counter() - start, out


def measured_loop(args, body):
    """Call ``body(index)`` until ``--seconds`` have passed and enough
    requests were made for the percentiles (bounded by MAX_STRETCH)."""
    minimum = 3 if args.tiny else MIN_REQUESTS
    start = time.perf_counter()
    index = 1
    while True:
        body(index)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds and index - 1 >= minimum:
            break
        if elapsed >= MAX_STRETCH * args.seconds:
            print(f"stopped after {index - 1} requests at the "
                  f"{MAX_STRETCH:g}x time cap", file=sys.stderr)
            break


def setup_children(args):
    """Set-up times of SETUP_REPEATS - 1 further fresh processes."""
    command = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=150, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
    return times


def end_to_end(args, workload, references, tally):
    latencies = []
    completed = []

    def body(index):
        inp = workload.make_input(index)
        seconds, out = run_request(workload, inp)
        workload.release(inp)
        latencies.append(seconds)
        problems = (["raised"] if out is None
                    else workload.check(index, out, references))
        tally.record(index, problems)
        completed.append(0 if problems else workload.scenarios)

    measured_loop(args, body)
    # The shared host switches between a fast and a slow state, and the
    # share of slow requests varies from run to run.  The median and the
    # mean throughput follow that share, so they are printed but not
    # declared; the p90 sits in the slow mode and stays steady.
    print("latency percentiles over %d requests (ms): %s" % (
        len(latencies), " ".join(
            f"p{q}={np.percentile(latencies, q) * 1e3:.2f}"
            for q in (10, 25, 50, 75, 90, 100))))
    print("also measured, not declared:  scenarios_per_s %.6g 1/s  "
          "latency_p50_ms %.6g ms" % (
              sum(completed) / sum(latencies),
              np.percentile(latencies, 50) * 1e3))
    return {
        "latency_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, len(latencies)


def traced_run(args, workload, references, tally, env):
    from tracing import Tracer
    tracer = Tracer()
    self_total = dict.fromkeys(LAYERS, 0.0)
    inclusive = dict.fromkeys(LAYERS, 0.0)
    counts = {}
    totals = {"untraced": 0.0, "traced": 0.0, "requests": 0}

    def traced_request(inp, index):
        tracer.request = index
        try:
            return workload.traced(inp, tracer)
        except Exception:
            traceback.print_exc()
            return None

    def body(index):
        inp = workload.make_input(index)
        # Alternate which call goes first, so that caches warmed by one
        # favour neither side of the reconciliation.
        if index % 2:
            seconds, out = run_request(workload, inp)
            traced = traced_request(inp, index)
        else:
            traced = traced_request(inp, index)
            seconds, out = run_request(workload, inp)
        workload.release(inp)
        problems = (["raised"] if out is None
                    else workload.check(index, out, references))
        if traced is None:
            problems.append("the traced decomposition raised")
        if out is not None and traced is not None:
            problems += traced.problems + workload.mismatches(traced, out)
            totals["untraced"] += seconds
            totals["traced"] += traced.seconds
            totals["requests"] += 1
            for name, value in tracer.self_seconds(index).items():
                self_total[name] += value
            for name, value in tracer.inclusive_seconds(index).items():
                inclusive[name] += value
            for name, value in workload.derived_seconds(
                    traced, seconds).items():
                self_total[name] += value
                inclusive[name] += value
            for name, value in traced.counts.items():
                counts[name] = counts.get(name, 0) + value
        tally.record(index, problems)

    measured_loop(args, body)
    untraced = totals["untraced"]
    n = totals["requests"]
    residual = untraced - sum(self_total.values())
    self_total[workload.residual] += residual
    inclusive[workload.residual] += residual
    tracer.dump(WORKDIR / f"spans-{args.workload}.jsonl", env)

    scenarios = n * workload.scenarios

    def per(layer, scale, work):
        return inclusive[layer] * scale / work if work else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = self_total[layer] * 1e3 / n
        metrics[f"{layer}.share"] = self_total[layer] / untraced
    for layer in ("tx", "rx", "channel", "eye"):
        metrics[f"{layer}.ms_per_scenario"] = per(layer, 1e3, scenarios)
        metrics[f"{layer}.ns_per_sample"] = per(
            layer, 1e9, scenarios * workload.samples)
    for layer in ("cdr", "dfe"):
        metrics[f"{layer}.ms_per_scenario"] = per(layer, 1e3, scenarios)
        metrics[f"{layer}.ns_per_bit"] = per(layer, 1e9,
                                             scenarios * workload.bits)
    attempted = counts.get("cdr.attempted", 0)
    metrics["cdr.lock_yield"] = (counts["cdr.locked"] / attempted
                                 if attempted else 0.0)
    metrics["link.facade_ms_per_scenario"] = per("link.facade", 1e3,
                                                 scenarios)
    for phase in SWEEP_PHASES:
        metrics[f"sweep.{phase}_us_per_scenario"] = per(
            f"sweep.{phase}", 1e6, scenarios)
    metrics["sweep.units"] = float(workload.units)
    metrics["pulse.ms_per_call"] = per("pulse", 1e3, n)
    metrics["stateye.ms_per_call"] = per("stateye", 1e3, n)
    metrics["stateye.ns_per_grid_point"] = per(
        "stateye", 1e9, n * workload.grid_points)
    metrics["stateye.facade_ms_per_call"] = per("stateye.facade", 1e3, n)
    metrics["trace.overhead"] = totals["traced"] / untraced
    metrics["trace.requests"] = float(n)

    print(f"reconciliation over {n} requests (host ms per request, "
          "layer self times):")
    parts = [(layer, self_total[layer] * 1e3 / n) for layer in LAYERS
             if self_total[layer] != 0.0]
    print("  " + " + ".join(f"{layer} {ms:.3f}" for layer, ms in parts))
    print(f"  = {sum(ms for _, ms in parts):.3f}  vs untraced request "
          f"{untraced * 1e3 / n:.3f}  (residual {workload.residual} "
          f"{residual * 1e3 / n:.3f})")
    print(f"  traced request {totals['traced'] * 1e3 / n:.3f} -> tracing "
          f"overhead {metrics['trace.overhead']:.4f}x")
    if residual < -0.1 * untraced:
        print("  WARNING: the layers add up to more than the untraced "
              "request", file=sys.stderr)
    return metrics, n


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    WORKDIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.tiny, str(WORKDIR))
    warmup_input = workload.make_input(0)
    warmup = workload.request(warmup_input)
    workload.release(warmup_input)
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    env = environment(args)
    print("perfbench " + json.dumps(env))
    references = None if args.tiny else load_references(args.workload,
                                                        args.seed)
    if references is not None:
        print(f"checks: seed {args.seed} is documented: requests "
              f"0-{len(references) - 1} are compared with "
              f"reference/{args.workload}.json (decisions, lock bits and "
              "stateye eye widths exactly; heights and BER within 1e-9), "
              "plus invariant checks on every request")
    else:
        print(f"checks: seed {args.seed} has no committed reference"
              f"{' at --tiny size' if args.tiny else ''}: invariant "
              "checks only (lock-yield floor, open eye, stateye BER in "
              "(0, 0.5], monotone bathtub edges)")
    tally = Tally()
    tally.record(0, workload.check(0, warmup, references))

    if args.trace:
        metrics, n = traced_run(args, workload, references, tally, env)
        units = per_layer_units()
    else:
        metrics, n = end_to_end(args, workload, references, tally)
        setups = [setup_s] + setup_children(args)
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
        print(f"set-up times of {len(setups)} fresh processes (s): "
              + ", ".join(f"{value:.4f}" for value in setups))

    print(f"requests: attempted={tally.attempted} failed={tally.failed} "
          f"error_rate={tally.failed / tally.attempted:.4g} "
          f"(measured requests: {n}, {workload.scenarios} scenarios each)")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
