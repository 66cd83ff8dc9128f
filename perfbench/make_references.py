#!/usr/bin/env python3
"""Regenerate the committed correctness references.

    python3 perfbench/make_references.py

For every documented seed, the first ``REQUESTS`` request indices of
each workload (index 0 is the warm-up request of set-up) are run
through the facade, and their summaries are written to
``perfbench/reference/<workload>.json``.  Regenerate only on a commit
whose simulated statistics are known good: a change that only speeds
the simulator must leave these files unchanged.
"""

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import WORKLOADS  # noqa: E402

DOCUMENTED_SEEDS = range(10)
REQUESTS = 3


def main() -> None:
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE.parent) as workdir:
        for name, cls in WORKLOADS.items():
            seeds = {}
            for seed in DOCUMENTED_SEEDS:
                workload = cls(seed, False, workdir)
                summaries = []
                for index in range(REQUESTS):
                    inp = workload.make_input(index)
                    out = workload.request(inp)
                    workload.release(inp)
                    problems = workload.invariants(out)
                    if problems:
                        raise SystemExit(f"{name} seed {seed} request "
                                         f"{index}: {problems}")
                    summaries.append(workload.summary(out))
                seeds[str(seed)] = summaries
            path = out_dir / f"{name}.json"
            path.write_text(json.dumps({"workload": name, "seeds": seeds})
                            + "\n")
            print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
