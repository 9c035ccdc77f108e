"""grassq benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  Every pass of a workload runs in a
fresh interpreter (``child.py``), one at a time, single-threaded, with the
BLAS/OpenMP pools pinned to one thread.

``--trace 0`` repeats untraced passes while the next one, at the mean
pace so far, would end within ``S`` seconds (at least two passes), starts
``SETUP_ONLY`` set-up-only interpreters spread over the run between the
passes, and reports the median of each end-to-end metric.  Every time is
scaled to the host's usual speed by the reference routine each child
times next to its work (``hostspeed.py``); the unscaled medians go on a
``# raw`` line.  ``--trace 1`` runs a traced pass between two untraced
ones and reports the per-layer metrics of the traced one.

The last line of standard output is the result object; the lines before
it record the Python and numpy versions, ``nproc``, the git commit and
the error rate (failed / attempted operations).
The full record of the run goes to ``perfbench/out/``.  The exit code is
0 only when every operation gave its expected verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# A median of one pass would be that pass alone.
MIN_PASSES = 2
# Set-up-only interpreters per run, on top of the passes' own set-ups.
SETUP_ONLY = 9
# Keeps a whole run inside 180 s even when a pass runs long.
RUN_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "max_op_s": "s",
             "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The run could not produce a result (as opposed to a wrong one)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str, deadline: float, trace_out: str | None = None):
    """Start one interpreter, wait for it, return (spawn time, result)."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        out, err = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{mode} pass of {args.workload} ran out of time")
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited {proc.returncode}:\n{err}")
    return spawned, json.loads(out.strip().splitlines()[-1])


def scale(refs: list[float]) -> float:
    """Factor that turns a time taken next to ``refs`` into seconds at the
    host's usual speed.  The host slows in bursts shorter than a pass, so
    the mean, not the median, tracks how much a pass was slowed."""
    return hostspeed.REF_S / statistics.fmean(refs)


def git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "grassq", "__init__.py")):
        print("run from the repository root: src/grassq is missing",
              file=sys.stderr)
        return 2
    try:
        return measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


def measure(args) -> int:
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    # passes hold the children's results; setups (seconds, scale) pairs
    passes, setups = [], []

    def one_pass(mode, trace_out=None):
        spawned, res = run_child(args, mode, deadline, trace_out)
        setups.append((res["setup_end"] - spawned, scale(res["setup_ref_s"])))
        # A pass shorter than one sampling interval has only set-up samples.
        res["scale"] = scale(res["ref_s"] or res["setup_ref_s"])
        passes.append(res)
        return res

    def setup_until(count):
        """Start set-up-only interpreters until ``count`` have run."""
        while len(setups) - len(passes) < count:
            spawned, res = run_child(args, "setup", deadline)
            setups.append((res["setup_end"] - spawned,
                           scale(res["setup_ref_s"])))

    one_pass("pass")
    traced = None
    if args.trace:
        # The untraced passes bracket the traced one, so a drift in the
        # machine's speed during the run cancels to first order.
        traced = one_pass("traced",
                          os.path.join(out_dir, f"trace-{stem}.json"))
        one_pass("pass")
    else:
        while True:
            # Set-up-only interpreters keep pace with the elapsed share of
            # the run, so their median spans the machine's speed phases
            # instead of sampling only the end of the run.
            share = (time.monotonic() - started) / args.seconds
            setup_until(math.ceil(SETUP_ONLY * min(share, 1.0)))
            elapsed = time.monotonic() - started
            if len(passes) >= MIN_PASSES and (
                    elapsed * (len(passes) + 1) / len(passes) > args.seconds):
                break
            one_pass("pass")
        setup_until(SETUP_ONLY)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]]
    samples = [s for p in passes for s in p["samples"]]
    if samples:
        bad = oracle.mismatches(samples)
        attempted += 3 * len(samples)
        failed += len(bad)
        errors += [f"sympy disagrees: {b}" for b in bad]

    raw = {"setup_s": statistics.median(s for s, _ in setups),
           "wall_s": statistics.median(p["wall_s"] for p in passes),
           "max_op_s": statistics.median(max(p["op_s"]) for p in passes)}
    if traced is None:
        metrics = {
            "setup_s": statistics.median(s * k for s, k in setups),
            "wall_s": statistics.median(p["wall_s"] * p["scale"]
                                        for p in passes),
            "max_op_s": statistics.median(max(p["op_s"]) * p["scale"]
                                          for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_kb"]
                                             for p in passes) / 1024.0,
        }
        units = E2E_UNITS
    else:
        if traced["missing"]:
            raise BenchError("traced pass never reached "
                             + ", ".join(traced["missing"]))
        metrics = dict(traced["layers"])
        untraced = (passes[0]["wall_s"] * passes[0]["scale"]
                    + passes[2]["wall_s"] * passes[2]["scale"]) / 2.0
        metrics["trace.overhead_frac"] = (traced["wall_s"] * traced["scale"]
                                          / untraced - 1.0)
        metrics["trace.coverage"] = traced["coverage"]
        units = {m: ("s" if m.endswith("_s") or m.endswith(".s") else
                     "ratio" if m.startswith("trace.") else "count")
                 for m in metrics}

    env = {"python": passes[0]["python"], "numpy": passes[0]["numpy"],
           "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
           "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    record = {"env": env, "passes": len(passes), "setup_samples": setups,
              "wall_s": [p["wall_s"] for p in passes],
              "op_s": [p["op_s"] for p in passes],
              "ref_s": [p["ref_s"] for p in passes],
              "scale": [p["scale"] for p in passes], "raw": raw,
              "errors": errors, "metrics": metrics}
    with open(os.path.join(out_dir, f"run-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for e in errors[:20]:
        print(f"failed: {e}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    print("# raw " + json.dumps(raw, sort_keys=True))
    print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
