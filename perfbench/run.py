"""The repository benchmark: end-to-end and per-layer metrics of DP-Reverser.

Run from the root of a checkout::

    python3 perfbench/run.py --workload reverse-k --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``reverse-k``    — ``repro reverse --gp-workers 2`` on a car-K capture;
* ``serve-repeat`` — ``repro serve`` with a warm formula memo, driven by an
  open-loop and a closed-loop phase.

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs the workload once more with spans recorded by the
benchmark around its calls into each layer and prints every per-layer
metric; on ``reverse-k`` it also runs one ``repro fleet-run`` sweep for
the scheduler and noise layers.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--tiny`` shrinks each workload for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict

from common import (
    Result,
    SpanRecorder,
    metric_units,
    print_table,
    require_source_tree,
    stamp,
    work_dir,
)

WORKLOADS = ("reverse-k", "serve-repeat")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> Result:
    import reverse_k
    import serve_repeat

    module = {"reverse-k": reverse_k, "serve-repeat": serve_repeat}[name]
    metrics: Dict[str, float] = {name: 0.0 for name in metric_units(trace)}
    recorder = SpanRecorder()
    with work_dir(name) as work:
        return module.run(work, seed, seconds, trace, tiny, metrics, recorder)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for self-tests")
    args = parser.parse_args(argv)
    require_source_tree()

    trace = bool(args.trace)
    units = metric_units(trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"stamp": stamp(), "seed": args.seed, "seconds": args.seconds}))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace, args.tiny)
        print_table(result, units)
        results.append(result)
    if len(results) == 1:
        payload = results[0].payload(units)
    else:
        payload = {
            "correct": all(result.correct for result in results),
            "attempted": sum(result.attempted for result in results),
            "failed": sum(result.failed for result in results),
            "metrics": {
                f"{result.workload}.{name}": entry
                for result in results
                for name, entry in result.payload(units)["metrics"].items()
            },
        }
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
