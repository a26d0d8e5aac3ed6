"""Per-layer tracing from outside the package.

``Tracer.install`` wraps every public function (no leading underscore) that
the layer modules define, in every ``turankit`` module namespace that binds
it, so calls between modules and calls the benchmark makes through module
attributes are both seen.  Each call records a span (name, start, end,
parent) in memory; a layer's self time is its span time minus the time of
its child spans.  Only public names are wrapped, so private helpers count
as their caller's self time: the feasibility checks genfree runs through
the solver's private ``_Searcher`` are genfree self time.

Counts come from public results: the solver's search nodes from the
``TuranRecord.nodes`` of each fresh solve (the records written to the
cache during a call, plus any node-limited record, which is never cached),
classes from what ``free_graphs`` yields, and wrapper call counts.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "canon", "solver", "matching", "patterns", "genfree",
          "verify", "cli")
# the solver entry points that write cache records; neither calls the
# other, so no solve is counted twice
SOLVES = ("solver.max_edges", "solver.enumerate_extremal")


def cache_listing(path: str) -> dict:
    """name -> (mtime_ns, size) of every record in a cache directory."""
    try:
        entries = list(os.scandir(path))
    except FileNotFoundError:
        return {}
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in entries}


class Tracer:
    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.names: list = []          # span name per span
        self.times: list = []          # [start, end] per span
        self.parents: list = []        # parent span index, -1 at the top
        self.stack: list = []          # open span indices
        self.child_time: list = []     # child seconds per open span
        self.self_time: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.canonical_form_misses = 0
        self.yields: Counter = Counter()
        self.nodes = 0
        self.cache_writes = 0
        self.restore: list = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        index = len(self.names)
        parent = self.stack[-1] if self.stack else -1
        if (name == "canon.canonical_labeling" and parent >= 0
                and self.names[parent] == "core.canonical_form"):
            self.canonical_form_misses += 1
        self.names.append(name)
        self.parents.append(parent)
        self.stack.append(index)
        self.child_time.append(0.0)
        self.times.append([time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        index = self.stack.pop()
        span = self.times[index]
        span[1] = end
        duration = end - span[0]
        self.self_time[self.names[index]] += duration - self.child_time.pop()
        if self.child_time:
            self.child_time[-1] += duration

    def untimed(self, seconds: float) -> None:
        """Book-keeping done inside a parent span is not the parent's work."""
        if self.child_time:
            self.child_time[-1] += seconds

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    self.enter(name)   # one span per resumption
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self.leave()
                    self.yields[name] += 1
                    yield item
            return generator

        if name in SOLVES:
            @functools.wraps(fn)
            def solve(*args, **kwargs):
                t0 = time.perf_counter()
                where = kwargs.get("cache_dir") or self.cache_dir
                before = cache_listing(where)
                self.untimed(time.perf_counter() - t0)
                self.calls[name] += 1
                self.enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.leave()
                t0 = time.perf_counter()
                self.count_solve(where, before, result)
                self.untimed(time.perf_counter() - t0)
                return result
            return solve

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.calls[name] += 1
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.leave()
        return call

    def count_solve(self, where: str, before: dict, result) -> None:
        after = cache_listing(where)
        for name, stamp in after.items():
            if before.get(name) != stamp:
                self.cache_writes += 1
                with open(os.path.join(where, name), encoding="utf-8") as fh:
                    self.nodes += json.load(fh)["nodes"]
        if getattr(result, "status", "exact") != "exact":
            self.nodes += result.nodes

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"turankit.{layer}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "turankit" and not modname.startswith("turankit."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, attr, wrapped[id(obj)][1])
                    self.restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in self.restore:
            setattr(module, attr, obj)
        self.restore.clear()

    # -- results -------------------------------------------------------------

    def layer_self(self, prefix: str) -> float:
        return sum((s for name, s in self.self_time.items()
                    if name == prefix or name.startswith(prefix + ".")), 0.0)

    def layer_calls(self, prefix: str) -> int:
        return sum(c for name, c in self.calls.items()
                   if name.startswith(prefix + "."))

    def metrics(self, cache_bytes: int, scale: float) -> dict:
        """Per-layer metrics; `scale` turns seconds into seconds at the
        reference speed of ``speed.py``."""
        layer_s = lambda prefix: self.layer_self(prefix) * scale
        solver_s = layer_s("solver")
        canon_s = layer_s("canon")
        canon_calls = self.calls["canon.canonical_labeling"]
        genfree_s = layer_s("genfree")
        cf_calls = self.calls["core.canonical_form"]
        ratio = lambda a, b: a / b if b else 0.0
        return {
            "solver.self_s": (solver_s, "s"),
            "solver.nodes": (self.nodes, "count"),
            "solver.nodes_per_s": (ratio(self.nodes, solver_s), "1/s"),
            "solver.cache_writes": (self.cache_writes, "count"),
            "solver.cache_bytes": (cache_bytes, "bytes"),
            "canon.calls": (canon_calls, "count"),
            "canon.self_s": (canon_s, "s"),
            "canon.us_per_call": (ratio(canon_s * 1e6, canon_calls), "us"),
            "core.canonical_form.calls": (cf_calls, "count"),
            "core.canonical_form.hit_ratio": (
                ratio(cf_calls - self.canonical_form_misses, cf_calls),
                "ratio"),
            "genfree.self_s": (genfree_s, "s"),
            "genfree.classes_per_s": (
                ratio(self.yields["genfree.free_graphs"], genfree_s), "1/s"),
            "patterns.lambda_n.self_s": (layer_s("patterns.lambda_n"), "s"),
            "patterns.lagrangian.self_s": (
                layer_s("patterns.lagrangian"), "s"),
            "matching.calls": (self.layer_calls("matching"), "count"),
            "matching.self_s": (layer_s("matching"), "s"),
            "verify.self_s": (layer_s("verify"), "s"),
            "cli.self_s": (layer_s("cli"), "s"),
        }

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, (start, end), parent in zip(self.names, self.times,
                                                  self.parents):
                fh.write(json.dumps([name, start, end, parent]) + "\n")
