"""The frontier: the largest n each disjoint-copy family solves in 60 s.

    python3 perfbench/frontier.py

For K3, 2K3 (two disjoint triangles), K4 and the Fano plane, and for both
the value (``max_edges``) and the full extremal family
(``enumerate_extremal``), it asks n = 8, 9, ... in a fresh interpreter with
an empty solver cache until one question takes longer than ``LIMIT_S``, and
prints one line per family and question.  A reference figure, measured by
hand; the benchmark's runs do not use it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 60
FAMILIES = {
    "K3": ("[(0, 1), (0, 2), (1, 2)]", 2, 1),
    "2K3": ("[(0, 1), (0, 2), (1, 2)]", 2, 2),
    "K4": ("[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]", 2, 1),
    "Fano": ("[(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), "
             "(2, 3, 6), (2, 4, 5)]", 3, 1),
}
SOLVE = """
import json, sys
from turankit import Hypergraph, config_of, enumerate_extremal, max_edges
edges = {edges}
f = Hypergraph(max(map(max, edges)) + 1, {r}, edges)
cfg = config_of([(f, {t})])
if sys.argv[1] == "value":
    print(json.dumps(max_edges({n}, cfg).value))
else:
    print(json.dumps(len(enumerate_extremal({n}, cfg))))
"""


def solve(name: str, question: str, n: int, scratch: str):
    """(seconds, answer) for one cold question, or None past the limit."""
    edges, r, t = FAMILIES[name]
    code = SOLVE.format(edges=edges, r=r, t=t, n=n)
    with tempfile.TemporaryDirectory(dir=scratch) as cache:
        env = dict(os.environ, TURANKIT_CACHE=cache, PYTHONPATH=str(ROOT / "src"))
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-c", code, question],
                                env=env, stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(timeout=LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None
        if proc.returncode != 0:
            raise SystemExit(f"{name} {question} n={n}: exit {proc.returncode}")
        return time.monotonic() - start, json.loads(out)


def main() -> int:
    scratch = ROOT / ".perfbench-runs"
    scratch.mkdir(exist_ok=True)
    for name in FAMILIES:
        for question in ("value", "enumerate"):
            best = None
            n = 8
            while (got := solve(name, question, n, scratch)):
                best = (n, *got)
                n += 1
            if best is None:
                print(f"{name:5} {question:9} none within {LIMIT_S} s")
            else:
                n, seconds, answer = best
                what = "ex" if question == "value" else "classes"
                print(f"{name:5} {question:9} n={n} ({what} {answer}) in "
                      f"{seconds:.1f} s; n={n + 1} over {LIMIT_S} s",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
