"""One benchmark process: set up a workload, run it once, write a JSON result.

    python perfbench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

``run.py`` starts this with ``PYTHONPATH`` pointing at ``src``.  The result,
``DIR/result.json``, holds the ``time.monotonic()`` reading at which set-up
(interpreter start, ``import racbox``, input construction) finished, so the
parent can time set-up from before the process was started;
``CLOCK_MONOTONIC`` is shared by all processes of the machine.
"""

import argparse
import json
import os
import time

import workloads  # imports racbox

import tracing


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="fresh directory for experiment outputs")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    inputs = workloads.build_inputs(args.workload, args.seed, args.out)
    result = {"ready": time.monotonic()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(run_id=os.path.basename(args.out))
            tracing.instrument(tracer)
        start = time.perf_counter()
        outcome = workloads.run(args.workload, inputs, args.seed, tracer)
        result["wall_s"] = time.perf_counter() - start
        result["checks"] = outcome.checks
        result["digest"] = outcome.digest
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            tracer.write(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
