"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode MODE

run from the repository root with ``src`` on ``PYTHONPATH``.  MODE is
``pass`` (set up, then time every operation), ``setup`` (set up, time
the host-speed reference and stop), or ``traced`` (a pass with every grassq layer wrapped; needs
``--trace-out FILE`` for the spans and counters).  The last line of
standard output is one JSON object.  ``setup_end`` is read from
``time.monotonic()``, which every process on the machine shares, so the
parent can time set-up from the moment it started this interpreter.
``setup_ref_s`` and ``ref_s`` hold the times of ``hostspeed.reference``
taken right after set-up and while the operations ran; ``op_s`` leaves
out the time those timings took.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "setup", "traced"),
                        default="pass")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    tracer = None
    glue = workloads.plain_glue
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracer.install()
        glue = tracer.glue
    work = workloads.setup(args.workload, args.seed, glue)
    setup_end = time.monotonic()
    setup_ref = [hostspeed.reference() for _ in range(hostspeed.AFTER_SETUP)]
    if args.mode == "setup":
        print(json.dumps({"setup_end": setup_end, "setup_ref_s": setup_ref}))
        return 0

    if tracer is not None:
        tracer.reset()
    op_s, attempted, failed, errors = [], 0, 0, []
    start = time.perf_counter()
    with hostspeed.Sampler() as sampler:
        for k, (label, fn) in enumerate(work.ops):
            if tracer is not None:
                tracer.op = k
            spent = sampler.spent
            t0 = time.perf_counter()
            try:
                a, f = fn()
                why = f"{f} of {a} failed"
            except Exception as exc:
                a, f = 1, 1
                why = f"raised {type(exc).__name__}: {exc}"
            op_s.append(time.perf_counter() - t0 - (sampler.spent - spent))
            attempted += a
            failed += f
            if f:
                errors.append(f"{label}: {why}")
    wall = sum(op_s)
    errors += work.failures

    import numpy
    result = {
        "setup_end": setup_end, "wall_s": wall, "op_s": op_s,
        "setup_ref_s": setup_ref, "ref_s": sampler.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": attempted, "failed": failed, "errors": errors,
        "samples": workloads.sample_payload(work.samples),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        # Layer spans include the reference timings that interrupted them.
        result["coverage"] = tracer.covered_s / (wall + sampler.spent)
        result["missing"] = [name for name in workloads.MUST_HIT[args.workload]
                             if not tracer.stats.get(name, [0])[0]]
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "wall_s": wall,
                       "stats": {k: v[:3] for k, v in sorted(tracer.stats.items())},
                       "counters": tracer.counters,
                       "ops": [label for label, _ in work.ops],
                       "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": [[s[0], s[1] - start, s[2] - start, s[3], s[4]]
                                 for s in tracer.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
