#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 0-9 --trace 0
    python3 perfbench/repeat.py --seeds 0-2 --trace 1 \
        --workloads link_batch,stat_eye --out perfbench/results/baseline.json

Each (workload, seed) runs ``perfbench/run.py`` in a fresh process, one
at a time.  For every metric the summary gives the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, i.e. the interquartile distance as a share of the median.  An
end-to-end metric other than ``setup_s`` whose spread reaches a third of
its bound in ``BENCHMARK.json`` is flagged.  ``--out`` merges the
summary into a JSON file (the committed baseline lives in
``perfbench/results/``).
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("latency percentiles"):
            print("  " + line, flush=True)
    return json.loads(lines[-1]), lines[0]


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "n": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [entry["name"] for entry in bench["workloads"]])
    bounds = {metric["name"]: metric.get("bound")
              for metric in bench["end_to_end"]}
    section = "per_layer" if args.trace else "end_to_end"
    summary = {}
    environment = None
    steady = True
    for workload in workloads:
        runs = {}
        for seed in parse_seeds(args.seeds):
            result, header = run_once(workload, seed, seconds, args.trace)
            environment = environment or json.loads(header.split(" ", 1)[1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} failed its checks")
            runs[seed] = {name: entry["value"]
                          for name, entry in result["metrics"].items()}
            print(f"  seed {seed}: " + " ".join(
                f"{name}={value:.6g}" for name, value in runs[seed].items()
                if name in bounds), flush=True)
            units = {name: entry["unit"]
                     for name, entry in result["metrics"].items()}
        print(f"== {workload} ({len(runs)} seeds, {seconds:g} s each)",
              flush=True)
        summary[workload] = {}
        for name, unit in units.items():
            stats = summarise([run[name] for run in runs.values()])
            stats["unit"] = unit
            summary[workload][name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound and name != "setup_s" and stats["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:36s} median {stats['median']:12.6g} {unit:8s} "
                  f"q1 {stats['q1']:12.6g} q3 {stats['q3']:12.6g} "
                  f"spread {stats['spread']:.4f}"
                  + (f" (bound {bound})" if bound else "") + flag)

    if args.out:
        path = pathlib.Path(args.out)
        data = json.loads(path.read_text()) if path.exists() else {}
        environment.pop("workload", None)
        environment.pop("seed", None)
        environment.pop("trace", None)
        data.setdefault("environment", environment)
        data.setdefault(section, {}).update(summary)
        data.setdefault("seeds", {})[section] = args.seeds
        data.setdefault("run_seconds", {})[section] = seconds
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
