"""Start-up cost of a fresh process: interpreter, ``import repro``, first run.

Every perfbench workload and every spawned sweep worker starts in a new
interpreter and pays the imports before its first request.  How much of
that is compiling source to bytecode depends on the host: with
``PYTHONDONTWRITEBYTECODE`` set (``sys.flags.dont_write_bytecode``,
recorded as ``host_dont_write_bytecode``) a source checkout compiles
every ``repro`` module in every process, while an installed wheel ships
its bytecode.  So the bench measures both ways, each with
``PYTHONPYCACHEPREFIX`` pointed at a temporary directory so that no
bytecode file lands in the repository:

* ``uncached_bytecode`` — an empty prefix that nothing is written to:
  every Python module (numpy's too) compiles from source;
* ``cached_bytecode`` — a prefix that one unrecorded process filled
  first: every module loads from bytecode.

It starts ``BENCH_IMPORT_RUNS`` (default 12, at least 10) fresh
interpreters per way, alternating the two ways so that a change in the
host's speed hits both, with BLAS/OpenMP pinned to one thread, and
records in each:

* ``interpreter_numpy_s`` — from just before the process is launched
  to just after ``import numpy`` in it (wall clock, ``time.time``, the
  one clock both processes share);
* ``import_repro_s`` — ``import repro``;
* ``first_request_s`` — building a ``LinkSession`` with a 0.3 m channel
  and its first ``run`` of a 300-bit PRBS7 record at 16 samples/UI
  (caches cold, as in a new worker);
* ``peak_rss_mib`` — ``ru_maxrss`` at the end;
* ``scipy_modules`` — the ``scipy`` modules in ``sys.modules`` at the
  end.

Medians and quartiles over the processes of each way go to
``benchmarks/results/BENCH_import.json``.  The gate is the module list:
every process must have loaded exactly ``scipy.signal._sigtools`` (the
compiled filter loop) and no scipy package.  The times are on record,
not gated: the host's speed changes between runs by more than any
bound such a gate could hold.
"""

import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from repro.reporting import format_table

RUNS = max(10, int(os.environ.get("BENCH_IMPORT_RUNS", "12")))
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
EXPECTED_SCIPY_MODULES = ["scipy.signal._sigtools"]

CHILD = """
import time
import numpy
numpy_done_wall = time.time()
start = time.perf_counter()
import repro
imported = time.perf_counter()
from repro import ChannelConfig, LinkSession, bits_to_nrz, prbs7
session = LinkSession.from_configs(channel=ChannelConfig(0.3))
wave = bits_to_nrz(prbs7(300), 10e9, amplitude=0.25, samples_per_bit=16)
assert session.run(wave).eye.eye_height > 0
requested = time.perf_counter()
import json, resource, sys
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "numpy_done_wall": numpy_done_wall,
    "import_repro_s": imported - start,
    "first_request_s": requested - imported,
    "peak_rss_mib": rss / (2 ** 20 if sys.platform == "darwin" else 1024),
    "scipy_modules": sorted(name for name in sys.modules
                            if name == "scipy" or name.startswith("scipy.")),
}))
"""


def _fresh_process(env) -> dict:
    launched = time.time()
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["interpreter_numpy_s"] = record.pop("numpy_done_wall") - launched
    return record


def _spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def test_import_cost(save_report, save_json):
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    metrics = ("interpreter_numpy_s", "import_repro_s", "first_request_s",
               "peak_rss_mib")
    records = {"uncached_bytecode": [], "cached_bytecode": []}
    with tempfile.TemporaryDirectory() as empty, \
            tempfile.TemporaryDirectory() as filled:
        envs = {
            "uncached_bytecode": dict(env, PYTHONPYCACHEPREFIX=empty,
                                      PYTHONDONTWRITEBYTECODE="1"),
            "cached_bytecode": dict(env, PYTHONPYCACHEPREFIX=filled),
        }
        _fresh_process(envs["cached_bytecode"])  # fills the prefix
        for _ in range(RUNS):
            for way, way_env in envs.items():
                records[way].append(_fresh_process(way_env))
    summary = {way: {name: _spread([r[name] for r in rows])
                     for name in metrics}
               for way, rows in records.items()}
    module_lists = sorted({tuple(r["scipy_modules"])
                           for rows in records.values() for r in rows})
    modules_ok = module_lists == [tuple(EXPECTED_SCIPY_MODULES)]
    save_report("import", format_table(
        [{"bytecode": way.split("_")[0], "metric": name, **summary[way][name]}
         for way in summary for name in metrics]
        + [{"metric": "scipy modules",
            "median": "; ".join(", ".join(m) for m in module_lists)}]))
    save_json("import", {
        "runs": RUNS,
        "blas_threads": 1,
        "host_dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        **summary,
        "scipy_modules": [list(m) for m in module_lists],
        "only_the_filter_loop_loaded": modules_ok,
    })
    assert modules_ok, (
        f"fresh processes loaded scipy modules {module_lists}, expected "
        f"only {EXPECTED_SCIPY_MODULES}")
