"""One fresh interpreter answering one workload's questions once.

Started by ``run.py``; not meant to be run by hand.  It imports turankit
from the checkout's ``src``, builds the workload's inputs, stamps the end
of set-up, then (in ``round`` mode) asks every question, checks every
answer outside the timed region and prints one JSON line.  ``setup`` mode
stops after set-up; ``fill`` mode asks the questions once to fill the solver
cache and checks nothing.  A ``SpeedProbe`` samples the machine's speed
from the first line on, and every time reported is scaled by it.
"""

from __future__ import annotations

from speed import SpeedProbe

probe = SpeedProbe()
probe.start()

import argparse  # noqa: E402  (the probe covers set-up from here on)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, cache_listing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("round", "setup", "fill"),
                        required=True)
    parser.add_argument("--files", required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    import turankit as tk
    import turankit.cli  # noqa: F401  (not imported by the package itself)

    workload = workloads.WORKLOADS[args.workload](tk, args.seed, args.files)
    setup_end = time.monotonic()
    setup_mark = probe.mark()
    result = {"setup_end": setup_end, "setup_spent": setup_mark[1],
              "setup_scale": probe.scale((0, 0.0), setup_mark)}
    if args.mode == "setup":
        probe.stop()
        print(json.dumps(result))
        return 0

    passes = 1 if args.mode == "fill" else workload.passes
    cache_dir = os.environ["TURANKIT_CACHE"]
    tracer = None
    if args.trace_out:
        tracer = Tracer(cache_dir)
        tracer.install()
        probe.hook = tracer.untimed
    listing_before = cache_listing(cache_dir)

    answers = []
    start = probe.mark()
    t0 = time.perf_counter()
    for _ in range(passes):
        for op in workload.ops:
            try:
                answers.append((op, op.call(), None))
            except Exception as exc:  # an operation failure is counted
                answers.append((op, None, exc))
    wall = time.perf_counter() - t0
    end = probe.mark()
    probe.stop()
    result["wall_s"] = probe.scaled(wall, start, end)
    result["wall_raw_s"] = wall
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    if tracer is not None:
        tracer.uninstall()
    listing_after = cache_listing(cache_dir)
    if args.mode == "fill":
        print(json.dumps(result))
        return 0

    failed, unexpected = 0, []
    for op, answer, exc in answers:
        if exc is None:
            try:
                op.check(answer)
                continue
            except checks.CheckError as err:
                reason = str(err)
        else:
            reason = "".join(traceback.format_exception_only(exc)).strip()
        failed += 1
        print(f"FAILED {op.name}: {reason}", file=sys.stderr)
        if not op.known_fault:
            unexpected.append(op.name)
    if args.workload == "replay":
        try:
            checks.check_replay_cache(listing_before, listing_after)
        except checks.CheckError as err:
            unexpected.append("replay cache")
            print(f"FAILED {err}", file=sys.stderr)

    result.update(attempted=len(answers), failed=failed, unexpected=unexpected)
    if tracer is not None:
        cache_bytes = sum(size for where in [cache_dir] + workload.caches
                          for _, size in cache_listing(where).values())
        result["layers"] = tracer.metrics(cache_bytes, probe.scale(start, end))
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
