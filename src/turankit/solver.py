"""Exact Turán-type maximization by deletion branch-and-bound.

A forbidden configuration demands, for each listed family (F_i, t_i),
that feasible hosts contain no simultaneous pairwise vertex-disjoint
realization of t_i copies of every F_i at once.  The solver starts from
the complete r-graph and explores a *freezing tree*: a node is a pair
(g, frozen) of edge sets with frozen ⊆ g, standing for the feasible H
with frozen ⊆ H ⊆ g.  At an infeasible node it locates one violating
realization and branches on e, the least non-frozen edge of it, by
*orbital branching* (Ostrowski, Linderoth, Rossi & Smriglio, Math.
Program. 126, 2011): child A deletes e; child B freezes the orbit of e
under the group generated by the transpositions (u v) that map g onto g
and frozen onto frozen.  Such a group maps the node's subgraphs onto its
own subgraphs.  A feasible H of the node that keeps e but misses an
edge σ(e) of the orbit has the image σ⁻¹(H) below child A, with the same
edge count and the same isomorphism class; an H keeping the whole orbit
lies below child B.  So every maximum feasible graph has an isomorphic
copy among the leaves, which is all the value and the enumerated classes
need, while subproblems that are relabelings of one another under the
group are explored once.  Leaves may still repeat a class (the group is
only a subgroup of each node's symmetries), and enumeration keeps their
canonical forms in a set.  Canonical memoization across nodes stays
unsound: two isomorphic nodes with different frozen sets span different
feasible families.

The transpositions are twin swaps, the ones `canon._twin_transpositions`
finds, with an edge colour for frozen.  Being one is an equivalence
relation on the vertices, so the group is the product of the symmetric
groups on its classes, and the orbit of e is every r-set meeting each
class in as many vertices as e does.  Each node carries per-vertex link
bitsets of (g, frozen), so a twin test is one masked comparison and an
orbit a few star-mask operations; the tables behind them are built by
the first `run`, so searchers that only test feasibility never pay for
them.

Pruning: the node's own edge count is an upper bound (deletion-only
search), strengthened by packing — p violating realizations that are
pairwise disjoint on non-frozen edges force p distinct deletions, giving
the bound count − p.  Copies of each family in the complete r-graph
are precomputed once, from `matching._embeddings`, and numbered in one
bit space, so that sets of copies are integers (at most C(n, r) <=
`_MAX_EDGES` edges and the enumerator's `matching._MAX_COPIES` copies
per family).  Per edge the table holds
the copies that use it, per copy the copies that share a vertex with it;
a copy's vertices are the image of all v(F) vertices, so isolated
vertices of F take part in disjointness.  Each search node carries its
alive set, the copies inside its graph: a child that deletes edge e
takes the parent's set minus e's copies.  A realization is then found
by `matching._pack`, the one disjoint-copy kernel: lowest-bit scans over
the alive set, each chosen copy striking out its vertex conflicts
(bit-parallel candidate sets, as in San Segundo, Rodríguez-Losada &
Jiménez, Comput. Oper. Res. 2011).

Value mode asks "is there a feasible graph with more than k edges?" and,
when there is, finds the largest.  With a feasible seed it asks once, k
the seed's count; without one, for k = C(n, r) − 1, C(n, r) − 2, … until
the answer is yes, every no proving ex ≤ k.  Runs aimed too high stop on
the packing bound at once, and a run from below finds its good leaves
late (see `_solve`).

Searches are deterministic: realizations are found lexicographically
(families in normalized order, copies in sorted edge order, same-family
copies strictly increasing), child A is explored before child B, and the
node limit counts both; so values, witnesses, and node counts reproduce.
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
from .matching import (_bits, _conflicts, _embeddings, _normalize_families,
                       _pack, _spans, _union, has_disjoint_config)

_DEFAULT_NODE_LIMIT = 10_000_000
_DEFAULT_CACHE_DIR = ".turankit-cache"
# Stored in every cache record; bump it whenever a solver change can alter
# a stored value, so that records written before the change are misses.
# Format 2: isolated vertices of F take part in disjointness.
_FORMAT = 2
# The edge budget, checked before the universe is built; the copy tables
# stop at `matching._MAX_COPIES` copies of one family.  The largest
# universe any test, acceptance criterion or benchmark workload builds is
# C(17, 2) = 136 edges.
_MAX_EDGES = 1000


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
    """Families (F_i, t_i), normalized by `matching._normalize_families`:
    isomorphic F_i merged with their demands summed, each stored as its
    canonical form, sorted by canonical key.  The hash is therefore
    invariant under reordering and relabeling."""
    families: tuple[tuple[Hypergraph, int], ...]

    def __post_init__(self):
        if not self.families:
            raise ValueError("configuration needs at least one family")
        r = self.families[0][0].r
        for f, _ in self.families:
            if f.r != r:
                raise ValueError("families must share uniformity")
            if f.edge_count == 0:
                raise ValueError("families must have at least one edge")
        object.__setattr__(self, "families", tuple(
            (canonical_form(f).graph(), t)
            for f, t, _ in _normalize_families(self.families)))

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
    universe of every r-set, per-family copy tables, and the freezing
    search."""

    def __init__(self, n: int, config: ForbiddenConfig):
        self.n = n
        self.config = config
        self.r = config.r
        if comb(n, self.r) > _MAX_EDGES:
            raise BudgetExceededError(f"C({n}, {self.r}) edges exceed the "
                                      f"budget of {_MAX_EDGES}")
        self.edges = list(combinations(range(n), self.r))
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
        self.orbit_tables = None  # built by the first `run`, which needs them
        self.nodes = 0
        self.limit_hit = False
        self.skipped_upper = -1

    def _copies(self, f: Hypergraph):
        """Every copy of f on n vertices, one (edge mask, vertex mask)
        each, sorted by edge bits then vertex mask for determinism.  The
        vertex mask is the image of all v(f) vertices, isolated ones
        included; `_embeddings` yields each copy once."""
        # distinct edges and vertices of f have distinct images
        copies = [(sum(1 << self.index[tuple(sorted(mapping[v] for v in e))]
                       for e in f.edges), sum(1 << w for w in mapping))
                  for mapping in _embeddings(f, self.n, self.index)]
        copies.sort(key=lambda c: (list(_bits(c[0])), c[1]))
        return copies

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

    def _orbit_tables(self):
        """Tables for twin tests and edge orbits.
        Per vertex v, star[v] = the edges containing v.  A link is an
        (r-1)-set bitset carrying the g part in its low half and the
        frozen part shifted up by `shift`; link_bits[e] = the (vertex,
        link bit) pairs edge e adds, and avoid[u][v] = the (r-1)-sets
        missing u and v, in both halves."""
        n, r = self.n, self.r
        lsets = {t: i for i, t in enumerate(combinations(range(n), r - 1))}
        shift = len(lsets)
        star = [0] * n
        link_bits = []
        for i, e in enumerate(self.edges):
            pairs = []
            for v in e:
                star[v] |= 1 << i
                pairs.append((v, 1 << lsets[tuple(w for w in e if w != v)]))
            link_bits.append(tuple(pairs))
        has = [sum(1 << i for t, i in lsets.items() if v in t)
               for v in range(n)]
        low = (1 << shift) - 1
        avoid = [[(low & ~(has[u] | has[v])) * (1 | 1 << shift)
                  for v in range(n)] for u in range(n)]
        root = [low & ~has[v] for v in range(n)]  # the links of K_n
        return star, link_bits, avoid, shift, root

    def orbit(self, e: int, links) -> int:
        """Edge mask of the orbit of edge e under the twin transpositions
        of (g, frozen), given their links: every r-set meeting each twin
        class in as many vertices as e does (module docstring)."""
        star, _, avoid, _, _ = self.orbit_tables
        classes = []
        inside = 0  # vertices of e already placed in a class
        for a in self.edges[e]:
            if inside >> a & 1:
                continue
            la, av = links[a], avoid[a]
            cls = [v for v in range(self.n)
                   if not (la ^ links[v]) & av[v]]
            cmask = sum(1 << v for v in cls)
            classes.append((cls, sum(1 for v in self.edges[e]
                                     if cmask >> v & 1)))
            inside |= cmask
        orb = self.full
        for cls, k in classes:
            # at[j] = the edges with at least j vertices in cls; the k add
            # up to r, so at least k in every class means exactly k
            at = [self.full] + [0] * k
            for v in cls:
                for j in range(k, 0, -1):
                    at[j] |= at[j - 1] & star[v]
            orb &= at[k]
        return orb

    def run(self, floor: int, node_limit: int, enumerate_all: bool):
        """Explore the orbital freezing tree below the root, pruning every
        node that cannot beat `floor` edges.  Value mode raises the floor
        at each feasible leaf and returns (floor, witness mask or None);
        enumerate mode keeps it and returns the set of canonical forms of
        the feasible leaves."""
        if self.orbit_tables is None:
            self.orbit_tables = self._orbit_tables()
        _, link_bits, _, shift, root = self.orbit_tables
        found: set = set()
        best_mask = None

        def search(g: int, frozen: int, cnt: int, alive: int, links):
            nonlocal floor, best_mask
            self.nodes += 1
            if self.nodes > node_limit:
                self.limit_hit = True
                if cnt > self.skipped_upper:
                    self.skipped_upper = cnt
                return
            if cnt <= floor:
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
                if cnt - p <= floor:
                    return
                w &= ~nonfrozen
                a &= ~_union(self.kill, nonfrozen)
            if first is None:
                if enumerate_all:
                    found.add(canonical_form(self.graph_of(g)).graph())
                else:
                    floor, best_mask = cnt, g
                return
            low = first & -first
            e = low.bit_length() - 1
            child = links[:]
            for v, bit in link_bits[e]:
                child[v] ^= bit
            search(g & ~low, frozen, cnt - 1, alive & ~self.kill[e], child)
            orb = self.orbit(e, links)
            child = links[:]
            for x in _bits(orb):
                for v, bit in link_bits[x]:
                    child[v] |= bit << shift
            search(g, frozen | orb, cnt, alive, child)

        try:
            search(self.full, 0, len(self.edges), self.alive_in(self.full),
                   root)
        finally:
            del search  # it refers to itself: break the cycle
        return found if enumerate_all else (floor, best_mask)


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

    # The value pass (module docstring).  A run from below finds good
    # graphs late: Fano at n = 10 takes 49 305 nodes from k = -1, 315
    # from k = 99, and 759 for the whole descent from k = 119.
    best = seeded if seed_mask is not None else -1
    value, witness = best, seed_mask
    upper = len(s.edges)
    for k in range(best if seed_mask is not None else upper - 1, best - 1, -1):
        found, mask = s.run(k, limit, False)
        if mask is not None:
            value, witness = found, mask
        if s.limit_hit:
            upper = min(upper, max(value, s.skipped_upper))
            break
        if mask is not None:
            upper = value
            break
        upper = k
    value = max(value, 0)  # the empty graph is feasible even if never reached
    status = "bounds" if s.limit_hit else "exact"
    extremal = ()
    if witness is not None:
        extremal = (canonical_form(s.graph_of(witness)).graph(),)
    nodes, complete = s.nodes, False
    if enumerate_all and status == "exact":
        # second pass on the same tables: collect the value's leaves,
        # with a node budget of its own
        s.nodes = 0
        forms = s.run(value - 1, limit, True)
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
    """Reload a cached record of the current format, rechecking every
    stored extremal graph with `matching`'s packing search before
    trusting it.  None on any mismatch (an exact record has upper ==
    value, a bool `extremal_complete` and at least one graph, all
    distinct, as the solver writes them), and for an n over the edge
    budget, so that the solve raises as on a miss.  Over
    `matching._MAX_COPIES` copies in a stored graph raise, as they would
    in K_n's solve."""
    if comb(n, config.r) > _MAX_EDGES:
        return None
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
        if doc["upper"] != doc["value"] or not isinstance(
                doc["extremal_complete"], bool):
            return None
        if doc["config_hash"] != config.hash_hex():
            return None
        graphs = tuple(Hypergraph(n, config.r,
                                  tuple(tuple(e) for e in edges))
                       for edges in doc["extremal"])
        if not graphs or len(set(graphs)) != len(graphs):
            return None
        if any(g.edge_count != doc["value"] or has_disjoint_config(
                g, config.families) is not None for g in graphs):
            return None
        return TuranRecord(n, config.r, doc["config_hash"], "exact",
                           doc["value"], doc["upper"], graphs,
                           doc["extremal_complete"], doc["nodes"],
                           doc["elapsed_ms"], doc["seeded_lower"])
    except (KeyError, TypeError, ValueError):
        return None


def _cached_solve(n: int, config: ForbiddenConfig, seed: Optional[Hypergraph],
                  enumerate_all: bool, cache_dir,
                  node_limit: Optional[int]) -> TuranRecord:
    """The cached record when it answers the question, else a solve,
    stored when exact."""
    path = _cache_path(n, config, cache_dir)
    cached = _load(path, n, config)
    if cached is not None and (cached.extremal_complete or not enumerate_all):
        return cached
    record = _solve(n, config, seed, enumerate_all, node_limit)
    if record.status == "exact":
        _store(record, path)
    return record


def _exact(record: TuranRecord) -> TuranRecord:
    """The record, if exact: a node-limit bracket is never read as a value."""
    if record.status != "exact":
        raise BudgetExceededError(f"node limit hit at n={record.n}; bounds "
                                  f"[{record.value}, {record.upper}]")
    return record


def max_edges(n: int, config: ForbiddenConfig,
              seed: Optional[Hypergraph] = None, *,
              cache_dir=None, node_limit: Optional[int] = None) -> TuranRecord:
    """Exact maximum edge count of a feasible graph on n vertices."""
    return _cached_solve(n, config, seed, False, cache_dir, node_limit)


def enumerate_extremal(n: int, config: ForbiddenConfig,
                       seed: Optional[Hypergraph] = None, *,
                       cache_dir=None,
                       node_limit: Optional[int] = None) -> list[Hypergraph]:
    """All maximum feasible graphs up to isomorphism (canonical forms)."""
    return list(_exact(_cached_solve(n, config, seed, True, cache_dir,
                                     node_limit)).extremal)


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
    if n_lo < 1:
        raise ValueError(f"table ranges start at n >= 1, not {n_lo}")
    records = []
    prev: Optional[Hypergraph] = None
    for n in range(n_lo, n_hi + 1):
        seed = None
        if prev is not None:
            seed = Hypergraph(n, config.r, prev.edges)
        rec = _exact(max_edges(n, config, seed,
                               cache_dir=cache_dir, node_limit=node_limit))
        records.append(rec)
        prev = rec.extremal[0] if rec.extremal else None
    return TuranTable(config, tuple(records))


def pi_upper(config: ForbiddenConfig, n: int, *,
             cache_dir=None, node_limit: Optional[int] = None) -> Fraction:
    """ex(n, config)/C(n, r): a certified density upper bound, since the
    ratio is nonincreasing in n."""
    rec = _exact(max_edges(n, config, cache_dir=cache_dir,
                           node_limit=node_limit))
    return Fraction(rec.value, comb(n, config.r))
