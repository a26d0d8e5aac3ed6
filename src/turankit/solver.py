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
class in as many vertices as e does.  A node's links are one int, a
block of (r−1)-set bits per vertex, g part low and frozen part high: a
twin test masks two blocks, an orbit takes a few star-mask operations,
and a child's links are one XOR (A) or one OR (B) of the parent's.  The
link tables are built by the first `run`, so searchers that only test
feasibility never pay for them.  The r-set tables they read are the
searcher's own: a `_Searcher` builds its universe once, and the copy
tables, the orbits and `genfree`'s canonical augmentation share it.

Pruning: the node's own edge count is an upper bound (deletion-only
search), strengthened by packing — p violating realizations that are
pairwise disjoint on non-frozen edges force p distinct deletions, giving
the bound count − p.  Copies of each family in the complete r-graph are
precomputed once, from `matching._embeddings` (the link-bitset
enumerator, handed K_n's edge index as its host), and numbered in one
bit space, so that sets of copies are integers (at most C(n, r) <=
`_MAX_EDGES` edges and the enumerator's `matching._MAX_COPIES` copies
per family).  A copy's edge mask is read from one map of each r-set's
vertex bitmask to its edge index, so no image edge is sorted.  Per edge
the table holds the copies that use it, per copy the copies that share a
vertex with it; a copy's vertices are the image of all v(F) vertices, so
isolated vertices of F take part in disjointness.  Each search node
carries its alive set, the copies inside its graph: a child that deletes
edge e takes the parent's set minus e's copies.  A realization is then
found by `matching._pack`, the one disjoint-copy kernel: lowest-bit
scans over the alive set, each chosen copy striking out its vertex
conflicts (bit-parallel candidate sets, as in San Segundo,
Rodríguez-Losada & Jiménez, Comput. Oper. Res. 2011).

Vertex-deletion bounds: a subgraph of a feasible graph is feasible, so
given U >= ex(n − 1), every feasible H on n vertices has (n − r)·e(H) =
Σ_v e(H − v) <= n·U, the cap ⌊n·U/(n − r)⌋ (Katona, Nemetz & Simonovits,
Mat. Lapok 15, 1964), and e(H) = e(H − v) + deg_H(v) <= U + deg_g(v) for
every vertex v of a node (g, frozen) above H, the degree read as
popcount(g & star[v]).  `run` clips each node's packing bound by both.
Given also W, a feasible graph on n − 1 vertices, a solve first runs
`run` from the root (W ∪ star(n − 1), W), whose best feasible node, the
best one-vertex extension of W, seeds the main pass.  Every bound holds
for every feasible graph below its node, so values and enumerated classes
are those of the bound-free search, the differential oracle; node
counts, the value-mode witness and `seeded_lower` are the bounded ones.

Bounds reach a solve one way, from a start row (m, U, W): U >= ex(m)
and W a feasible graph on m < n vertices.  The solve climbs: each k from
m + 1 to n − 1 is solved in value mode from the (U, W) of k − 1, storing
no record, and the (U, W) of n − 1 clips and seeds the solve of n.  The
climb runs in n's own searcher: the r-sets and copies inside the first k
vertices are K_k's, in the same order, so a search on them makes the
moves of a k-vertex searcher without building one, and n's budgets fail
before the climb's work.  The node limit bounds the climb and the
solve together, and the record's `nodes` counts both.  Once the limit is
spent nothing more is searched: the pair is carried up by the cap and an
isolated vertex, and the record is the bracket [e(W), cap].  W may fail
on more vertices, since an isolated vertex of some F_i finds room there;
the extension then seeds nothing, and the bracket's lower end falls to a
feasible seed's count or 0.

A start row comes from the process, never from the cache: `_load` proves
only that a stored graph is feasible, a lower bound, so a record whose
value was lowered would cap ex(n) too low, and the answer would be wrong
yet exact.  `ex_table` hands each row it solves to the next n as its
start, (n, `upper`, first graph).  Any other solve starts from the
clique row: K_{n0−1} is feasible for n0 = Σ t_i·v(F_i), the fewest
vertices a realization takes.

Both questions are one pass of best-first branch and bound (Ibaraki,
Int. J. Comput. Inf. Sci. 5, 1976): evaluated nodes wait in a heap,
largest bound first, and the first feasible node popped is a
largest feasible graph, since no open node can beat its count.  Nodes
whose bound does not beat the floor are dropped: a feasible seed's count
(less one in an enumeration, which collects the seed's class too), or
else −1.  Bound ties pop in depth-first order, so the witness is the
depth-first least leaf of the value among the nodes whose bound reaches
it, the leaf a depth-first search from any floor below the value
returns; and best first expands only nodes such a search expands too.
An enumeration then raises the floor to the value − 1 and pops on until
no open node reaches the value, collecting the class of every feasible
node popped: it evaluates exactly the nodes a depth-first search at
that floor evaluates.

Searches are deterministic: realizations are found lexicographically
(families in normalized order, copies in sorted edge order, same-family
copies strictly increasing), ties pop child A's subtree before child
B's, and the node limit counts every node evaluated; so values,
witnesses, and node counts reproduce.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import suppress
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from . import matching
from .core import Hypergraph, _class_key, blake2b, canonical_form, complete
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
# universe any test, acceptance criterion, benchmark workload or CI probe
# builds is C(20, 2) = 190 edges (K3 at n = 20, in CI's frontier and table
# probes).
_MAX_EDGES = 1000


def _node_limit(override: Optional[int]) -> int:
    """The node budget: the argument, else TURANKIT_NODE_LIMIT, else the
    default; a ValueError naming the source unless it is an integer >= 1."""
    name, limit = "node_limit", override
    if override is None:
        name = "TURANKIT_NODE_LIMIT"
        limit = os.environ.get(name)
        if not limit:
            return _DEFAULT_NODE_LIMIT
        with suppress(ValueError):
            limit = int(limit)
    if type(limit) is not int or limit < 1:
        raise ValueError(f"{name} must be an integer >= 1, not {limit!r}")
    return limit


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
    """Shared machinery for one (config, n) instance: the r-set universe
    (`edges`, every r-set in lex order; `index`, its positions; `spans`,
    each r-set's vertex bitset; `star`, per vertex the bitset of the
    r-sets at it), per-family copy tables, and the freezing search."""

    def __init__(self, n: int, config: ForbiddenConfig):
        self.n = n
        self.config = config
        self.r = config.r
        if comb(n, self.r) > _MAX_EDGES:
            raise BudgetExceededError(f"C({n}, {self.r}) edges exceed the "
                                      f"budget of {_MAX_EDGES}")
        self.edges = list(combinations(range(n), self.r))
        self.index = {e: i for i, e in enumerate(self.edges)}
        self.spans = {e: sum(1 << v for v in e) for e in self.edges}
        self.star = [0] * n
        for i, e in enumerate(self.edges):
            for v in e:
                self.star[v] |= 1 << i
        self.full = (1 << len(self.edges)) - 1
        at = {m: 1 << i for i, m in enumerate(self.spans.values())}
        self.fams = []  # (copies, demand); copy = (edge mask, vertex mask)
        for f, t in config.families:
            self.fams.append((self._copies(f, at), t))
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
        self.vmasks = [vm for _, vm in flat]
        self.pack = _pack(_spans(self.fams), _conflicts(self.vmasks, n),
                          [em for em, _ in flat])
        self.orbit_tables = None  # built by the first `run`, which needs them
        self.nodes = 0
        self.limit_hit = False
        self.skipped_upper = -1

    def _copies(self, f: Hypergraph, at: dict):
        """Every copy of f on n vertices, one (edge mask, vertex mask)
        each, sorted by edge bits then vertex mask for determinism.  The
        vertex mask is the image of all v(f) vertices, isolated ones
        included; `_embeddings` yields each copy once."""
        # distinct edges and vertices of f have distinct images, so a sum
        # of vertex bits is the image's vertex mask, a key of `at`, which
        # maps it to the image's edge bit
        copies = []
        for mapping in _embeddings(f, self.n, self.index):
            b = [1 << w for w in mapping]
            bit_of = b.__getitem__
            em = 0
            for e in f.edges:
                em |= at[sum(map(bit_of, e))]
            copies.append((em, sum(b)))
        # f's copies have equal edge counts, so ascending lists of edge
        # bits are descending strings of edge bits from bit 0 up
        copies.sort(key=lambda c: (bin(c[0])[:1:-1], -c[1]), reverse=True)
        return copies

    def alive_in(self, w: int) -> int:
        """The copies inside edge set w, as a bitset over copy indices."""
        missing = self.used & ~w
        return self.all_copies & ~_union(self.kill, missing)

    def find_realization(self, w: int) -> Optional[int]:
        """Edge mask of the lexicographically least violating realization
        inside edge set w, or None if w is feasible.  The search calls
        `pack` on the alive sets it keeps incrementally."""
        return self.pack(self.alive_in(w))

    def is_feasible(self, mask: int) -> bool:
        return self.find_realization(mask) is None

    def mask_of(self, g: Hypergraph) -> int:
        mask = 0
        for e in g.edges:
            mask |= 1 << self.index[e]
        return mask

    def graph_of(self, mask: int) -> Hypergraph:
        # universe entries in increasing index order: sorted and valid
        return Hypergraph._unchecked(
            self.n, self.r, tuple(self.edges[e] for e in _bits(mask)))

    def _orbit_tables(self):
        """Tables for twin tests and edge orbits.  Vertex v's (r-1)-set
        link takes bits [v·width, (v+1)·width) of a node's links, g in the
        low `half` bits and the frozen part in the high half.  delta[e] =
        the link bits edge e adds, root = the links of K_n, and
        avoid[u][v] = the (r-1)-sets missing u and v, in both halves."""
        n, r = self.n, self.r
        lsets = {t: i for i, t in enumerate(combinations(range(n), r - 1))}
        half = len(lsets)
        width = 2 * half
        delta = [sum([1 << v * width + lsets[e[:i] + e[i + 1:]]
                      for i, v in enumerate(e)]) for e in self.edges]
        has = [sum(1 << i for t, i in lsets.items() if v in t)
               for v in range(n)]
        low = (1 << half) - 1
        avoid = [[(low & ~(has[u] | has[v])) * (1 | 1 << half)
                  for v in range(n)] for u in range(n)]
        return delta, avoid, width, half, _union(delta, self.full)

    def orbit(self, e: int, links: int) -> int:
        """Edge mask of the orbit of edge e under the twin transpositions
        of (g, frozen), given their links: every r-set meeting each twin
        class in as many vertices as e does (module docstring)."""
        star, (_, avoid, width, _, _) = self.star, self.orbit_tables
        block = (1 << width) - 1
        blocks = [links >> v * width & block for v in range(self.n)]
        classes = []
        inside = 0  # vertices of e already placed in a class
        for a in self.edges[e]:
            if inside >> a & 1:
                continue
            la, av = blocks[a], avoid[a]
            cls = [v for v in range(self.n) if not (la ^ blocks[v]) & av[v]]
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

    def within(self, m: int) -> tuple[int, int, int]:
        """(m, the r-sets inside the first m vertices, the copies inside
        them): the universe and copies of K_m, which are those of K_n
        restricted, in the same order, so that a search on m vertices
        runs in this searcher's tables and makes the moves a searcher of
        its own would make."""
        outside = _union(self.star, (1 << self.n) - (1 << m))
        flags = bytearray((len(self.vmasks) + 7) // 8)
        for c, vm in enumerate(self.vmasks):
            if not vm >> m:
                flags[c >> 3] |= 1 << (c & 7)
        return m, self.full & ~outside, int.from_bytes(flags, "little")

    def run(self, floor: int, node_limit: int, enumerate_all: bool,
            upper: Optional[int] = None, root: Optional[tuple] = None,
            within: Optional[tuple] = None):
        """Explore the orbital freezing tree below the root, K_m or the
        node `root` = (g, frozen), on the first m vertices (`within`, by
        default all n), in one loop over a heap of evaluated nodes,
        dropping every node whose bound does not beat `floor` edges.  The
        bound is the packing bound, clipped, when `upper` bounds
        ex(m − 1), by the cap and by `upper` plus the node's least degree
        (module docstring).  Nodes pop by (−bound, path), where a
        node's path is its string of children from the root (A = 0, B =
        1), so that bound ties pop in depth-first order.  Returns (count,
        mask, forms): a feasible node popped, a largest feasible graph
        above the floor, or (floor, None) when there is none.  Value mode
        returns at the first such node, with no forms; enumerate mode
        raises the floor to count − 1 and keeps popping until no open node
        reaches the count, collecting the canonical forms of the feasible
        nodes it pops."""
        if self.orbit_tables is None:
            self.orbit_tables = self._orbit_tables()
        delta, _, _, half, links = self.orbit_tables
        m, sub, inside = within or (self.n, self.full, self.all_copies)
        kill, pack, star = self.kill, self.pack, self.star[:m]
        cap = _cap(m, self.r, upper)
        g, frozen = root or (sub, 0)
        if (g, frozen) != (self.full, 0):
            links = _union(delta, g) | _union(delta, frozen) << half
        cnt = g.bit_count()
        best, forms = (floor, None), set()
        heap = []  # (-bound, path, g, frozen, count, alive, links, pick)
        # the nodes to evaluate: (path, g, frozen, count, alive, links), the
        # children of the node popped with `key`
        todo = ((b"", g, frozen, cnt, self.alive_in(g) & inside, links),)
        key = -min(cnt, cap)
        while True:
            for path, g, frozen, cnt, alive, links in todo:
                self.nodes += 1
                if self.nodes > node_limit:
                    # every graph not ruled out lies below an open node or
                    # the popped one: the largest bound bounds it
                    self.limit_hit = True
                    self.skipped_upper = -min(key, heap[0][0] if heap else key)
                    return best + (forms,)
                clip = cnt
                if upper is not None:
                    clip = min(cap, upper + min([(g & v).bit_count()
                                                 for v in star]))
                    if clip <= floor:
                        continue
                # the packing bound; a = the copies the deletions leave
                bound, a, first = cnt, alive, 0
                while bound > floor:
                    real = pack(a)
                    if real is None:
                        break
                    nonfrozen = real & ~frozen
                    if not nonfrozen:
                        bound = floor  # the realization survives below
                        break
                    first = first or nonfrozen
                    bound -= 1
                    while nonfrozen:
                        low = nonfrozen & -nonfrozen
                        a &= ~kill[low.bit_length() - 1]
                        nonfrozen ^= low
                if bound > floor:
                    heappush(heap, (-min(bound, clip), path, g, frozen, cnt,
                                    alive, links, first & -first))
            if not heap or heap[0][0] >= -floor:  # none beats the floor
                return best + (forms,)
            # pick = the bit of the edge to branch on, 0 at a feasible node
            key, path, g, frozen, cnt, alive, links, pick = heappop(heap)
            if not pick:  # no open node has a larger bound
                best = cnt, g
                if not enumerate_all:
                    return best + (forms,)
                floor = cnt - 1  # the value's other leaves stay open
                forms.add(canonical_form(self.graph_of(g)).graph())
                todo = ()
                continue
            # child A deletes e, child B freezes its orbit
            e = pick.bit_length() - 1
            orb = self.orbit(e, links)
            todo = ((path + b"\0", g & ~pick, frozen, cnt - 1,
                     alive & ~kill[e], links ^ delta[e]),
                    (path + b"\1", g, frozen | orb, cnt, alive,
                     links | _union(delta, orb) << half))

    def extend(self, w: int, upper: int, node_limit: int,
               within: Optional[tuple] = None):
        """The best one-vertex extension of the edge set w, a feasible
        graph on m − 1 vertices, on the first m (`within`, by default all
        n): (count, mask) of a largest feasible H with w ⊆ H ⊆ w ∪
        star(m − 1), found by `run` from the root (w ∪ star(m − 1), w)
        under `upper` ≥ ex(m − 1); w itself when nothing beats it or the
        node counter has reached `node_limit`.  The new vertex can hold
        an isolated vertex of some F_i, so w may be infeasible on m
        vertices, and so every such H: then (-1, None)."""
        m, sub, inside = within or (self.n, self.full, self.all_copies)
        if self.pack(self.alive_in(w) & inside) is not None:
            return -1, None
        if self.nodes >= node_limit:
            return w.bit_count(), w
        count, mask, _ = self.run(w.bit_count(), node_limit, False, upper,
                                  (w | self.star[m - 1] & sub, w), within)
        return (count, mask) if mask is not None else (w.bit_count(), w)


def _cap(n: int, r: int, upper: Optional[int]) -> int:
    """C(n, r), and at most ⌊n·U/(n − r)⌋ when U = `upper` bounds
    ex(n − 1) and n > r (module docstring)."""
    top = comb(n, r)
    if upper is not None and n > r:
        top = min(top, n * upper // (n - r))
    return top


def _search(s: _Searcher, seeded: int, seed_mask: Optional[int], below,
            limit: int, enumerate_all: bool, m: Optional[int] = None):
    """The one best-first pass of searcher s on its first m vertices (by
    default all n), under `limit` for s's node counter, which holds the
    nodes spent before it.  With `below` = (U, W mask), the one-vertex
    extension of W raises the seed first and U clips every bound.
    Returns (value, upper, witness mask, forms, seeded)."""
    m = s.n if m is None else m
    upper, within = None, s.within(m) if m < s.n else None
    if below is not None:
        upper, w = below
        count, mask = s.extend(w, upper, limit, within)
        if mask is not None and (seed_mask is None or count > seeded):
            seeded, seed_mask = count, mask
        if s.nodes >= limit:  # only the cap bounds the graphs beyond W's
            s.limit_hit = True
            return seeded, max(seeded, _cap(m, s.r, upper)), seed_mask, \
                set(), seeded
    # One best-first pass (module docstring).  Fano at n = 10 takes 315
    # nodes; depth first it took 49 305 from below, and 759 in runs for
    # more than 119, 118, ... edges.  An enumeration starts below a seed's
    # count, so that it collects the seed's class too.
    floor = -1
    if seed_mask is not None:
        floor = seeded - 1 if enumerate_all else seeded
    value, witness, forms = s.run(floor, limit, enumerate_all, upper,
                                  within=within)
    if witness is None:  # the seed's count, or the never reached empty graph
        value, witness = seeded, seed_mask
    # once a feasible node is popped, its count is the value
    top = max(value, s.skipped_upper) if s.limit_hit and not forms else value
    return value, top, witness, forms, seeded


def _solve(n: int, config: ForbiddenConfig, seed: Optional[Hypergraph],
           enumerate_all: bool, node_limit: Optional[int],
           start: Optional[tuple] = None) -> TuranRecord:
    """Solve n: bound-free without `start`, else climb from the start row
    (m, U, W) in n's searcher, each k from m + 1 to n − 1 solved by
    `_search` in value mode on the first k vertices, with no record and no
    canonical form, and bound the solve of n by the (U, W) of n − 1
    (module docstring).  Once the node limit is spent the k left are not
    searched: U is carried up by `_cap`, and W as it stands
    (`_Searcher.extend` rechecks it)."""
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

    below = None
    if start is not None:
        m, upper, w = start
        w = s.mask_of(w)
        for k in range(m + 1, n):
            if s.nodes >= limit:
                upper = _cap(k, config.r, upper)
                continue
            _, upper, mask, _, _ = _search(s, 0, None, (upper, w), limit,
                                           False, k)
            w = mask or 0  # with no feasible graph found, the empty one
        below = upper, w
    value, upper, witness, forms, seeded = _search(
        s, seeded, seed_mask, below, limit, enumerate_all)
    extremal = tuple(sorted(forms, key=lambda g: g.edges))
    if not forms and witness is not None:
        extremal = (canonical_form(s.graph_of(witness)).graph(),)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return TuranRecord(n, config.r, config.hash_hex(),
                       "bounds" if s.limit_hit else "exact", value, upper,
                       extremal, enumerate_all and not s.limit_hit, s.nodes,
                       elapsed, seeded)


def _cache_path(n: int, config: ForbiddenConfig, cache_dir) -> str:
    """The record's file: in `cache_dir`, else a non-empty TURANKIT_CACHE,
    else the default directory, named by a hash of the config hash and n."""
    if cache_dir is None:
        cache_dir = os.environ.get("TURANKIT_CACHE") or _DEFAULT_CACHE_DIR
    key = blake2b(f"{config.hash_hex()}|n{n}".encode(), digest_size=8)
    return os.path.join(str(cache_dir), key.hexdigest() + ".json")


def _store(record: TuranRecord, path: str) -> None:
    """Write the format and the record's fields in declaration order,
    each graph as its edge list, to a temporary file beside `path`, then
    move it into place, so an interrupted write never replaces a good
    record.  The file is named per thread, so that two threads storing
    one record never move each other's."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    doc = {"format": _FORMAT}
    for f in fields(TuranRecord):
        doc[f.name] = getattr(record, f.name)
    doc["extremal"] = [[list(e) for e in g.edges] for g in record.extremal]
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        os.replace(tmp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(tmp)


def _load(path: str, n: int, config: ForbiddenConfig) -> Optional[TuranRecord]:
    """Reload a cached record: None for an n over the edge budget, so that
    the solve raises as on a miss, and for a file that cannot be read;
    else `_checked` of the file's bytes.  Its memo is keyed on the bytes,
    n, the config and `matching._MAX_COPIES`, so each distinct content is
    checked in full on its first read in the process, a rewritten file is
    new content, and a read under another copy budget checks again, so it
    raises wherever the recheck would."""
    if comb(n, config.r) > _MAX_EDGES:
        return None
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    return _checked(data, n, config, matching._MAX_COPIES)


@lru_cache(maxsize=256)
def _checked(data: bytes, n: int, config: ForbiddenConfig,
             budget: int) -> Optional[TuranRecord]:
    """The record a cache file's bytes hold for (n, config), rechecking
    every stored extremal graph with `matching`'s packing search before
    trusting it.  Bytes that are not UTF-8, or not JSON that the parser
    can nest, are a miss.  The checks follow `TuranRecord`'s fields: the
    record is rebuilt by field name, so a missing or unknown key is a
    miss, and every int field must hold an int.  None on any other
    mismatch too (an exact record of the current format and this (n, r,
    config hash) has upper == value, a bool `extremal_complete` and at
    least one graph, no two isomorphic, each feasible with `value`
    edges).  Over `budget` (`matching._MAX_COPIES`) copies in a stored
    graph raise, as they would in K_n's solve.

    Memoized on everything the checks read, so equal arguments give an
    equal answer, a record or a miss.  The budget is read by the packing
    search, not here, but it is part of the key: a record that passed
    under one budget must still raise under a smaller one, and a raise
    is never memoized."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):  # UnicodeDecodeError is a ValueError
        return None
    try:
        if doc.pop("format") != _FORMAT:
            return None
        # the annotations are strings (postponed evaluation); JSON true
        # and false load as bools, which Python counts as ints
        if any(type(doc[f.name]) is not int
               for f in fields(TuranRecord) if f.type == "int"):
            return None
        if (doc["status"] != "exact" or doc["n"] != n or doc["r"] != config.r
                or doc["config_hash"] != config.hash_hex()
                or doc["upper"] != doc["value"]
                or type(doc["extremal_complete"]) is not bool):
            return None
        graphs = doc["extremal"] = tuple(
            Hypergraph(n, config.r, tuple(tuple(e) for e in edges))
            for edges in doc["extremal"])
        # one graph per class: records holding one graph, as most do,
        # skip the scans
        if not graphs or (len(graphs) > 1 and len(
                {_class_key(g) for g in graphs}) != len(graphs)):
            return None
        if any(g.edge_count != doc["value"] or has_disjoint_config(
                g, config.families) is not None for g in graphs):
            return None
        return TuranRecord(**doc)
    except (AttributeError, KeyError, TypeError, ValueError):
        return None


def _cached_solve(n: int, config: ForbiddenConfig, seed: Optional[Hypergraph],
                  enumerate_all: bool, cache_dir, node_limit: Optional[int],
                  start: Optional[tuple] = None):
    """(record, row): the cached record when it answers the question, else
    a solve from `start`, or from the clique row (m, C(m, r), K_m), m =
    min(n, n0) − 1, or bound-free at n = 0, stored when exact.  An exact
    solve hands on its row (n, upper, first graph); a cache hit hands on
    None, since a record read from disk proves no upper bound, and so does
    a bracket, where `ex_table` stops."""
    node_limit = _node_limit(node_limit)  # refused even on a cache hit
    path = _cache_path(n, config, cache_dir)
    cached = _load(path, n, config)
    if cached is not None and (cached.extremal_complete or not enumerate_all):
        return cached, None
    if start is None and n > 0:
        m = min(n, sum(f.n * t for f, t in config.families)) - 1
        start = m, comb(m, config.r), complete(m, config.r)
    record = _solve(n, config, seed, enumerate_all, node_limit, start)
    if record.status != "exact":
        return record, None
    _store(record, path)
    return record, (n, record.upper, record.extremal[0])


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
    return _cached_solve(n, config, seed, False, cache_dir, node_limit)[0]


def enumerate_extremal(n: int, config: ForbiddenConfig,
                       seed: Optional[Hypergraph] = None, *,
                       cache_dir=None,
                       node_limit: Optional[int] = None) -> list[Hypergraph]:
    """All maximum feasible graphs up to isomorphism (canonical forms)."""
    return list(_exact(_cached_solve(n, config, seed, True, cache_dir,
                                     node_limit)[0]).extremal)


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


def _check_range(n_lo: int, n_hi: int) -> None:
    """Refuse a table range `ex_table` cannot solve, before any solve."""
    if n_lo > n_hi:
        raise ValueError("empty range")
    if n_lo < 1:
        raise ValueError(f"table ranges start at n >= 1, not {n_lo}")


def ex_table(config: ForbiddenConfig, n_lo: int, n_hi: int, *,
             cache_dir=None, node_limit: Optional[int] = None) -> TuranTable:
    """Solve a contiguous n-range, each row with its own node limit.  A
    row solved here is the next row's start row (module docstring), so the
    next solve climbs nothing; a row read from the cache hands on nothing,
    and the next row, if not cached too, climbs from the clique row, its
    budget covering the climb.  A row hands on the canonical form of its
    witness, so a row's witness and node count can differ from a cold
    solve's, though its value cannot: 2K3 at n = 7 takes 24 nodes, with
    another witness class, against 42 cold."""
    _check_range(n_lo, n_hi)
    records, row = [], None
    for n in range(n_lo, n_hi + 1):
        record, row = _cached_solve(n, config, None, False, cache_dir,
                                    node_limit, row)
        records.append(_exact(record))
    return TuranTable(config, tuple(records))


def pi_upper(config: ForbiddenConfig, n: int, *,
             cache_dir=None, node_limit: Optional[int] = None) -> Fraction:
    """ex(n, config)/C(n, r): a certified density upper bound, since the
    ratio is nonincreasing in n.  That is the cap of the module docstring
    divided by C(n, r) = n·C(n − 1, r)/(n − r); the solve uses the cap
    itself, climbing to n from the clique row."""
    if n < config.r:
        raise ValueError(f"pi_upper needs n >= r = {config.r}")
    rec = _exact(max_edges(n, config, cache_dir=cache_dir,
                           node_limit=node_limit))
    return Fraction(rec.value, comb(n, config.r))
