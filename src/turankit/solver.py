"""Exact Turán-type maximization by deletion branch-and-bound.

A forbidden configuration demands, for each listed family (F_i, t_i),
that feasible hosts contain no simultaneous pairwise vertex-disjoint
realization of t_i copies of every F_i at once.  The solver starts from
the complete r-graph and explores a *freezing partition tree*: at each
infeasible node it locates one violating realization, and child i
deletes the i-th non-frozen edge of that realization while freezing the
earlier ones.  Every feasible subgraph of the root lies below exactly
one child (it keeps some least-indexed realization edge missing), every
maximum feasible graph is reached as a leaf, and distinct leaves are
distinct labeled graphs — so no memoization is needed (and canonical
memoization would be unsound here: two isomorphic nodes with different
frozen sets span different feasible families).

Pruning: the node's own edge count is an upper bound (deletion-only
search), strengthened by packing — p violating realizations that are
pairwise disjoint on non-frozen edges force p distinct deletions, giving
the bound count − p.  Copies of each family inside the host are
precomputed once, from `matching._embeddings`, and numbered in one bit
space, so that sets of copies are integers.  Per edge the table holds
the copies that use it, per copy the copies that share a vertex with it;
a copy's vertices are the image of all v(F) vertices, so isolated
vertices of F take part in disjointness.  Each search node carries its
alive set, the copies inside its graph: a child that deletes edge e
takes the parent's set minus e's copies.  A realization is then found
by `matching._pack`, the one disjoint-copy kernel: lowest-bit scans over
the alive set, each chosen copy striking out its vertex conflicts
(bit-parallel candidate sets, as in San Segundo, Rodríguez-Losada &
Jiménez, Comput. Oper. Res. 2011).

Searches are deterministic: realizations are found lexicographically
(families in normalized order, copies in sorted edge order, same-family
copies strictly increasing), so values, witnesses, and node counts
reproduce.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from .core import Hypergraph, canonical_form
from .errors import BudgetExceededError
from .matching import _bits, _conflicts, _embeddings, _pack, _spans, _union

_DEFAULT_NODE_LIMIT = 10_000_000
_DEFAULT_CACHE_DIR = ".turankit-cache"
# Stored in every cache record; bump it whenever a solver change can alter
# a stored value, so that records written before the change are misses.
# Format 2: isolated vertices of F take part in disjointness.
_FORMAT = 2
# Size budgets, checked before the tables they bound are allocated: the
# copy tables take (C(n, r) + copies) x copies bits.  The largest universe
# any test, acceptance criterion or benchmark workload builds is
# C(17, 2) = 136 edges; the most copies, 20160, an asymmetric 6-vertex
# pattern in K8 that a matching test can draw (Fano at n = 10 has 3600).
_MAX_EDGES = 1000
_MAX_COPIES = 30_000


def _node_limit(override: Optional[int]) -> int:
    if override is not None:
        return override
    env = os.environ.get("TURANKIT_NODE_LIMIT")
    return int(env) if env else _DEFAULT_NODE_LIMIT


def _cache_dir(override) -> str:
    if override is not None:
        return str(override)
    return os.environ.get("TURANKIT_CACHE", _DEFAULT_CACHE_DIR)


@dataclass(frozen=True)
class ForbiddenConfig:
    """Families (F_i, t_i), normalized: isomorphic F_i merged with their
    demands summed, sorted by canonical key.  The hash is therefore
    invariant under reordering and relabeling."""
    families: tuple[tuple[Hypergraph, int], ...]

    def __post_init__(self):
        if not self.families:
            raise ValueError("configuration needs at least one family")
        r = self.families[0][0].r
        merged: dict = {}
        order = []
        for f, t in self.families:
            if f.r != r:
                raise ValueError("families must share uniformity")
            if t < 1:
                raise ValueError("demands must be at least 1")
            if f.edge_count == 0:
                raise ValueError("families must have at least one edge")
            key = canonical_form(f)
            if key not in merged:
                merged[key] = [f, 0]
                order.append(key)
            merged[key][1] += t
        norm = sorted(((Hypergraph(k.n, k.r, k.edges), merged[k][1])
                       for k in merged),
                      key=lambda ft: (ft[0].n, ft[0].edges))
        object.__setattr__(self, "families", tuple((f, t) for f, t in norm))

    @property
    def r(self) -> int:
        return self.families[0][0].r

    def hash_hex(self) -> str:
        h = blake2b(digest_size=8)
        h.update(f"r{self.r}".encode())
        for f, t in self.families:
            h.update(f"|{t}*{f.n}:{f.edges}".encode())
        return h.hexdigest()


def config_of(families: Sequence[tuple[Hypergraph, int]]) -> ForbiddenConfig:
    return ForbiddenConfig(tuple(families))


@dataclass(frozen=True)
class TuranRecord:
    """One solved instance.  For status "exact", value == upper and the
    search exhausted; for "bounds" (node limit hit) value is the best
    feasible count found and upper bounds every feasible graph."""
    n: int
    r: int
    config_hash: str
    status: str
    value: int
    upper: int
    extremal: tuple[Hypergraph, ...]
    extremal_complete: bool
    nodes: int
    elapsed_ms: int
    seeded_lower: int


class _Searcher:
    """Shared machinery for one (config, n) instance: the lex-ordered
    edge universe, per-family copy tables, and the freezing search.  The
    universe is every r-set, or the edge set `host` when one is given."""

    def __init__(self, n: int, config: ForbiddenConfig, host=None):
        self.n = n
        self.config = config
        self.r = config.r
        if comb(n, self.r) > _MAX_EDGES:
            raise BudgetExceededError(f"C({n}, {self.r}) edges exceed the "
                                      f"budget of {_MAX_EDGES}")
        self.edges = (list(combinations(range(n), self.r)) if host is None
                      else sorted(host))
        self.index = {e: i for i, e in enumerate(self.edges)}
        self.full = (1 << len(self.edges)) - 1
        self.fams = []  # (copies, demand); copy = (edge mask, vertex mask)
        for f, t in config.families:
            self.fams.append((self._copies(f), t))
        # One bit space over the copies of all families, in family order:
        # kill[e] = the copies using edge e, used = the edges some copy
        # uses, and `pack` finds realizations in it (`matching._pack`).
        flat = [copy for copies, _ in self.fams for copy in copies]
        self.all_copies = (1 << len(flat)) - 1
        self.kill = [0] * len(self.edges)
        for c, (em, _) in enumerate(flat):
            for e in _bits(em):
                self.kill[e] |= 1 << c
        self.used = sum(1 << e for e, k in enumerate(self.kill) if k)
        self.pack = _pack(_spans(self.fams),
                          _conflicts([vm for _, vm in flat], n),
                          [em for em, _ in flat])
        self.nodes = 0
        self.limit_hit = False
        self.skipped_upper = -1

    def _copies(self, f: Hypergraph):
        """Every copy of f inside the host, one (edge mask, vertex mask)
        each, sorted by edge bits then vertex mask for determinism.  The
        vertex mask is the image of all v(f) vertices, isolated ones
        included."""
        copies = set()
        for mapping in _embeddings(f, self.n, self.index):
            # distinct edges and vertices of f have distinct images
            emask = sum(1 << self.index[tuple(sorted(mapping[v] for v in e))]
                        for e in f.edges)
            copies.add((emask, sum(1 << w for w in mapping)))
            if len(copies) > _MAX_COPIES:
                raise BudgetExceededError(
                    f"more than {_MAX_COPIES} copies of a forbidden family")
        return sorted(copies, key=lambda c: (list(_bits(c[0])), c[1]))

    def alive_in(self, w: int) -> int:
        """The copies inside edge set w, as a bitset over copy indices."""
        missing = self.used & ~w
        return self.all_copies & ~_union(self.kill, missing)

    def find_realization(self, w: int, alive: Optional[int] = None
                         ) -> Optional[int]:
        """Edge mask of the lexicographically least violating realization
        inside edge set w, or None if w is feasible.  `alive`, when given,
        must equal `alive_in(w)`; the search keeps it incrementally."""
        if alive is None:
            alive = self.alive_in(w)
        return self.pack(alive)

    def is_feasible(self, mask: int) -> bool:
        return self.find_realization(mask) is None

    def mask_of(self, g: Hypergraph) -> int:
        mask = 0
        for e in g.edges:
            mask |= 1 << self.index[e]
        return mask

    def graph_of(self, mask: int) -> Hypergraph:
        return Hypergraph(self.n, self.r,
                          tuple(self.edges[e] for e in _bits(mask)))

    def run(self, best: int, node_limit: int, enumerate_all: bool):
        """Explore the freezing partition tree.  Value mode: returns
        (best value, witness mask or None).  Enumerate mode: `best` is
        the known exact value; returns the set of canonical forms."""
        found: set = set()
        best_mask = [None]
        best_box = [best]

        def search(g: int, frozen: int, cnt: int, alive: int):
            self.nodes += 1
            if self.nodes > node_limit:
                self.limit_hit = True
                if cnt > self.skipped_upper:
                    self.skipped_upper = cnt
                return
            if enumerate_all:
                if cnt < best_box[0]:
                    return
            elif cnt <= best_box[0]:
                return
            w, a = g, alive  # g after the packing's deletions
            first = None
            p = 0
            while True:
                real = self.find_realization(w, a)
                if real is None:
                    break
                nonfrozen = real & ~frozen
                if nonfrozen == 0:
                    return  # the realization survives every deletion below
                if first is None:
                    first = nonfrozen
                p += 1
                if enumerate_all:
                    if cnt - p < best_box[0]:
                        return
                elif cnt - p <= best_box[0]:
                    return
                w &= ~nonfrozen
                a &= ~_union(self.kill, nonfrozen)
            if first is None:
                if enumerate_all:
                    found.add(canonical_form(self.graph_of(g)).graph())
                else:
                    best_box[0] = cnt
                    best_mask[0] = g
                return
            newly = 0
            while first:
                low = first & -first
                search(g & ~low, frozen | newly, cnt - 1,
                       alive & ~self.kill[low.bit_length() - 1])
                newly |= low
                first ^= low
            return

        search(self.full, 0, len(self.edges), self.alive_in(self.full))
        if enumerate_all:
            return found
        return best_box[0], best_mask[0]


def _solve(n: int, config: ForbiddenConfig, seed: Optional[Hypergraph],
           enumerate_all: bool, node_limit: Optional[int]) -> TuranRecord:
    t0 = time.perf_counter()
    limit = _node_limit(node_limit)
    s = _Searcher(n, config)

    seeded = 0
    seed_mask = None
    if seed is not None:
        if seed.n != n or seed.r != config.r:
            raise ValueError("seed must live on the instance's (n, r)")
        m = s.mask_of(seed)
        if s.is_feasible(m):
            seeded = seed.edge_count
            seed_mask = m

    best = seeded if seed_mask is not None else -1
    value, witness = s.run(best, limit, False)
    if witness is None and seed_mask is not None:
        value, witness = seeded, seed_mask
    value = max(value, 0)  # the empty graph is feasible even if never reached
    if s.limit_hit:
        status = "bounds"
        upper = max(value, s.skipped_upper)
    else:
        status = "exact"
        upper = value
    extremal = ()
    if witness is not None:
        cf = canonical_form(s.graph_of(witness))
        extremal = (Hypergraph(cf.n, cf.r, cf.edges),)
    nodes, complete = s.nodes, False
    if enumerate_all and status == "exact":
        # second pass on the same tables: collect the value's leaves,
        # with a node budget of its own
        s.nodes = 0
        forms = s.run(value, limit, True)
        nodes += s.nodes
        complete = not s.limit_hit
        status = "exact" if complete else "bounds"
        extremal = tuple(sorted(forms, key=lambda g: g.edges))
    elapsed = int((time.perf_counter() - t0) * 1000)
    return TuranRecord(n, config.r, config.hash_hex(), status, value, upper,
                       extremal, complete, nodes, elapsed, seeded)


def _record_key(n: int, config: ForbiddenConfig) -> str:
    h = blake2b(digest_size=8)
    h.update(config.hash_hex().encode())
    h.update(f"|n{n}".encode())
    return h.hexdigest()


def _cache_path(n, config, cache_dir) -> str:
    return os.path.join(_cache_dir(cache_dir), _record_key(n, config) + ".json")


def _store(record: TuranRecord, path: str) -> None:
    """Write the record to a temporary file beside `path`, then move it
    into place, so an interrupted write never replaces a good record."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    doc = {
        "format": _FORMAT,
        "n": record.n, "r": record.r, "config_hash": record.config_hash,
        "status": record.status, "value": record.value, "upper": record.upper,
        "extremal": [[list(e) for e in g.edges] for g in record.extremal],
        "extremal_complete": record.extremal_complete,
        "nodes": record.nodes, "elapsed_ms": record.elapsed_ms,
        "seeded_lower": record.seeded_lower,
    }
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _load(path: str, n: int, config: ForbiddenConfig) -> Optional[TuranRecord]:
    """Reload a cached record of the current format, re-validating every
    stored extremal graph against the constraint before trusting it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    try:
        if doc["format"] != _FORMAT:
            return None
        if doc["status"] != "exact" or doc["n"] != n or doc["r"] != config.r:
            return None
        if doc["config_hash"] != config.hash_hex():
            return None
        graphs = tuple(Hypergraph(n, config.r,
                                  tuple(tuple(e) for e in edges))
                       for edges in doc["extremal"])
        for g in graphs:
            if g.edge_count != doc["value"]:
                return None
            s = _Searcher(n, config, g.edges)
            if not s.is_feasible(s.full):
                return None
        return TuranRecord(n, config.r, doc["config_hash"], "exact",
                           doc["value"], doc["upper"], graphs,
                           doc["extremal_complete"], doc["nodes"],
                           doc["elapsed_ms"], doc["seeded_lower"])
    except (KeyError, TypeError, ValueError):
        return None


def max_edges(n: int, config: ForbiddenConfig,
              seed: Optional[Hypergraph] = None, *,
              cache_dir=None, node_limit: Optional[int] = None) -> TuranRecord:
    """Exact maximum edge count of a feasible graph on n vertices."""
    path = _cache_path(n, config, cache_dir)
    cached = _load(path, n, config)
    if cached is not None:
        return cached
    record = _solve(n, config, seed, False, node_limit)
    if record.status == "exact":
        _store(record, path)
    return record


def enumerate_extremal(n: int, config: ForbiddenConfig,
                       seed: Optional[Hypergraph] = None, *,
                       cache_dir=None,
                       node_limit: Optional[int] = None) -> list[Hypergraph]:
    """All maximum feasible graphs up to isomorphism (canonical forms)."""
    path = _cache_path(n, config, cache_dir)
    cached = _load(path, n, config)
    if cached is not None and cached.extremal_complete:
        return list(cached.extremal)
    record = _solve(n, config, seed, True, node_limit)
    if record.status != "exact":
        raise BudgetExceededError(
            f"node limit hit; bounds are [{record.value}, {record.upper}]")
    _store(record, path)
    return list(record.extremal)


@dataclass(frozen=True)
class TuranTable:
    """Per-n records for one configuration on a contiguous range, with
    the derived first difference and average degree always recomputed
    from the exact values."""
    config: ForbiddenConfig
    records: tuple[TuranRecord, ...]

    @property
    def ns(self) -> tuple[int, ...]:
        return tuple(rec.n for rec in self.records)

    def record(self, n: int) -> TuranRecord:
        for rec in self.records:
            if rec.n == n:
                return rec
        raise KeyError(n)

    def value(self, n: int) -> int:
        return self.record(n).value

    def delta(self, n: int) -> int:
        """First difference value(n) - value(n-1)."""
        return self.value(n) - self.value(n - 1)

    def d(self, n: int) -> Fraction:
        """Average degree r*value(n)/n of a maximum feasible graph."""
        return Fraction(self.config.r * self.value(n), n)


def ex_table(config: ForbiddenConfig, n_lo: int, n_hi: int, *,
             cache_dir=None, node_limit: Optional[int] = None) -> TuranTable:
    """Solve a contiguous n-range, seeding each instance with the
    previous extremal graph plus an isolated vertex (validated, so a
    useless seed is simply dropped)."""
    if n_lo > n_hi:
        raise ValueError("empty range")
    records = []
    prev: Optional[Hypergraph] = None
    for n in range(n_lo, n_hi + 1):
        seed = None
        if prev is not None:
            seed = Hypergraph(n, config.r, prev.edges)
        rec = max_edges(n, config, seed,
                        cache_dir=cache_dir, node_limit=node_limit)
        if rec.status != "exact":
            raise BudgetExceededError(
                f"node limit hit at n={n}; bounds [{rec.value}, {rec.upper}]")
        records.append(rec)
        prev = rec.extremal[0] if rec.extremal else None
    return TuranTable(config, tuple(records))


def pi_upper(config: ForbiddenConfig, n: int, *,
             cache_dir=None, node_limit: Optional[int] = None) -> Fraction:
    """ex(n, config)/C(n, r): a certified density upper bound, since the
    ratio is nonincreasing in n."""
    rec = max_edges(n, config, cache_dir=cache_dir, node_limit=node_limit)
    if rec.status != "exact":
        raise BudgetExceededError("node limit hit; no certified ratio")
    return Fraction(rec.value, comb(n, config.r))
