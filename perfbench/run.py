"""turankit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload disjoint --seed 1 --seconds 15 --trace 0

Every round of a workload runs in a fresh interpreter (``worker.py``) with a
fresh, empty solver cache, because ``core.canonical_form`` caches for the
life of a process and the solver reads its on-disk cache first: asking a
question twice in one process measures cache hits, not work.  ``replay``
is the exception by design: one cold fill per run writes its cache, and
each round replays it from disk in a new interpreter.

Rounds run one after another, never in parallel, until the next one would
end past ``--seconds`` (always at least one).  With ``--trace 0`` the last
stdout line holds the end-to-end metrics, the medians over rounds:

* ``wall_s``       wall time of a round's measured phase;
* ``setup_s``      interpreter start, ``import turankit`` and input
                   construction (median of at least nine fresh starts),
                   plus, for ``replay``, the cold fill of its cache;
* ``peak_rss_mb``  peak resident set of a round's interpreter.

Both times are scaled to a fixed machine speed that each process samples
while it works (see ``speed.py``); the unscaled round times go to stderr.

With ``--trace 1`` it runs one untraced and one traced round and reports
the per-layer metrics of the traced one (see ``spans.py``) plus
``trace.overhead_s``, traced minus untraced wall time.  Spans are written
to ``.perfbench-runs/trace-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("disjoint", "replay", "generate", "density")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


class ChildFailed(Exception):
    pass


def child(workload: str, seed: int, mode: str, files: str, cache: str,
          trace_out: str = "", deadline: float = 0.0) -> dict:
    """Run worker.py once and return its JSON line, plus ``setup_s`` (from
    spawn to the end of set-up, scaled) and ``total_s`` (spawn to exit)."""
    env = dict(os.environ, TURANKIT_CACHE=cache,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--files", files]
    if trace_out:
        argv += ["--trace-out", trace_out]
    spawn = time.monotonic()
    proc = subprocess.Popen(argv, env=env, cwd=files, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} {mode}: timed out")
    end = time.monotonic()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} {mode}: exit {proc.returncode}")
    doc = json.loads(lines[-1])
    doc["setup_s"] = (doc["setup_end"] - spawn - doc["setup_spent"]) \
        * doc["setup_scale"]
    doc["total_s"] = end - spawn
    return doc


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "turankit" / "__init__.py").is_file():
        print(f"error: no turankit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    runs = ROOT / ".perfbench-runs"
    runs.mkdir(exist_ok=True)
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT_S
    with tempfile.TemporaryDirectory(dir=runs, prefix=args.workload) as tmp:
        def fresh(name: str) -> str:
            path = os.path.join(tmp, name)
            os.makedirs(path)
            return path

        counter = itertools.count()

        def step(mode: str, cache: str = "", trace_out: str = "") -> dict:
            i = next(counter)
            return child(args.workload, args.seed, mode, fresh(f"files{i}"),
                         cache or fresh(f"cache{i}"), trace_out, deadline)

        fill_s = 0.0
        shared = ""
        if args.workload == "replay":
            shared = fresh("replay-cache")
            fill = step("fill", shared)
            fill_s = fill["setup_s"] + fill["wall_s"]

        rounds = []
        if args.trace:
            rounds.append(step("round", shared))
            trace_out = str(runs / f"trace-{args.workload}-seed{args.seed}.jsonl")
            rounds.append(step("round", shared, trace_out))
        else:
            while True:
                rounds.append(step("round", shared))
                elapsed = time.monotonic() - start
                if elapsed + rounds[-1]["total_s"] > args.seconds:
                    break
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(step("setup")["setup_s"])

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    unexpected = [name for r in rounds for name in r["unexpected"]]
    if args.trace:
        untraced, traced = rounds
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
    else:
        median = lambda key: statistics.median(r[key] for r in rounds)
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": fill_s + statistics.median(setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    raw = ", ".join(f"{r['wall_raw_s']:.3f}" for r in rounds)
    print(f"{args.workload}: {len(rounds)} round(s), {attempted} operations, "
          f"{failed} failed, unexpected failures: {unexpected or 'none'}; "
          f"unscaled wall s: {raw}", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
