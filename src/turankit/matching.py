"""Subgraph embedding and exact disjoint-copy packing.

Containment is ordinary subgraph containment (not induced): an embedding
is an injective vertex map sending every pattern edge to a host edge.
A "copy" of a pattern F is an embedding up to the automorphisms of F,
i.e. the pair (edge image, vertex image); its vertex image holds all
v(F) vertices, isolated ones included.  `_embeddings`, the one copy
enumerator (the solver's copy tables read it too), yields each copy's
lex-least embedding, in lex order.  Its backtracking, `_dfs`, runs on
vertex bitsets: one pass over the host's edges builds the link of every
(r-1)-set S, the bitset of the vertices that complete S to an edge, so a
position's candidates are one mask, narrowed by an AND per pattern edge
it completes, and are tried lowest bit first.  Packings only care about
vertex sets, so `_copies` keeps the first embedding per vertex set.

One kernel, `_pack`, finds every disjoint packing, the solver's
realizations included: copies are numbered in one bit space, family by
family, each with the bitset of the copies sharing a vertex with it.  It
takes the lowest copy left, strikes out its conflicts, and backtracks, so
the packing found is the least in family-major copy order.  The packings
here add a failure memo on (family, demand left, copies left), which the
solver's realizations run without; exact values come from asking
s = 1, 2, ... of one bit space, with one memo, until the answer flips.  A host is a family
of its own in rainbow matchings.

All searches are exact and deterministic.  One budget bounds every copy
table: `_embeddings` raises `BudgetExceededError` on listing copy
`_MAX_COPIES` + 1 of one pattern, so the solver's tables, its cache
recheck and the packings here stop at the same count.  A host on n
vertices has no more copies of F than K_n has, so a packing on a graph
the solver built or checked stays inside the budget its table met.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Optional, Sequence

from .core import Hypergraph, canonical_form
from .errors import BudgetExceededError

# The copy budget, checked as copies are listed: a bit space takes
# (C(n, r) + copies) x copies bits.  The most copies any test, acceptance
# criterion or benchmark workload lists is 20160, an asymmetric 6-vertex
# pattern in K8 that a matching test can draw (Fano at n = 10 has 3600).
_MAX_COPIES = 30_000


@dataclass(frozen=True)
class Embedding:
    """mapping[i] = host vertex assigned to pattern vertex i."""
    mapping: tuple[int, ...]

    def image(self) -> frozenset:
        return frozenset(self.mapping)


@dataclass(frozen=True)
class WitnessEntry:
    """One placed copy: which host, which family, and where."""
    host: int
    family: int
    vertices: tuple[int, ...]
    embedding: Embedding


@dataclass(frozen=True)
class MatchingWitness:
    entries: tuple[WitnessEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def vertex_sets(self) -> list[frozenset]:
        return [frozenset(e.vertices) for e in self.entries]


def _pattern_order(f: Hypergraph) -> list[int]:
    """Static most-constrained-first order: each next vertex maximizes
    (edges shared with already-ordered vertices, degree), ties by index."""
    degs = f.degrees()
    order: list[int] = []
    remaining = set(range(f.n))
    while remaining:
        placed = set(order)
        v = max(sorted(remaining),
                key=lambda v: (sum(1 for e in f.edges
                                   if v in e and any(u in placed for u in e if u != v)),
                               degs[v]))
        order.append(v)
        remaining.remove(v)
    return order


def _edge_checks(f: Hypergraph, order: Sequence[int]) -> list[list[tuple]]:
    """checks[i] = pattern edges fully assigned once order[:i+1] is placed."""
    pos = {v: i for i, v in enumerate(order)}
    checks: list[list[tuple]] = [[] for _ in order]
    for e in f.edges:
        checks[max(pos[v] for v in e)].append(e)
    return checks


@lru_cache(maxsize=128)
def _plan(f: Hypergraph):
    """Search plan for f, by position in `_pattern_order`: the pattern
    edges completed at each position (as position tuples), the earlier
    positions whose image each position must exceed, each position's
    pattern degree, and where[v] = position of pattern vertex v.

    Position k must exceed position i < k when order[k] lies in the orbit
    of order[i] under the automorphisms of f fixing order[:i] pointwise
    (Grochow & Kellis, RECOMB 2007).  Each orbit test is one first-found
    search for such an automorphism, so Aut(f) is never listed."""
    order = _pattern_order(f)
    where = [order.index(v) for v in range(f.n)]
    checks = [[tuple(where[u] for u in e) for e in es]
              for es in _edge_checks(f, order)]
    fdegs = f.degrees()
    degs = [fdegs[v] for v in order]
    free = [sum(1 << u for u in range(f.n) if fdegs[u] == d) for d in degs]
    own, _ = _links(f.n, f.edges)
    lows: list[list[int]] = [[] for _ in order]
    for i in range(f.n):
        for k in range(i + 1, f.n):
            pinned = ([1 << v for v in order[:i]] + [1 << order[k]]
                      + free[i + 1:])
            if next(_dfs(checks, [()] * f.n, pinned, own), None) is not None:
                lows[k].append(i)
    return checks, lows, degs, where


def _links(n: int, host_edges) -> tuple[dict[int, int], list[int]]:
    """The links and degrees of an r-graph on n vertices, in one pass over
    its edges (vertex tuples): link[S] = the bitset of the vertices w
    with S + {w} an edge, for each (r-1)-set S keyed by its vertex
    bitmask (sets with an empty link are left out), and degs[v] = the
    number of edges holding v."""
    link: dict[int, int] = {}
    degs = [0] * n
    for e in host_edges:
        m = 0
        for v in e:
            m |= 1 << v
            degs[v] += 1
        for v in e:
            s = m ^ 1 << v
            link[s] = link.get(s, 0) | 1 << v
    return link, degs


def _dfs(checks, lows, cands, link):
    """Injective position assignments a, in lex order, with a[k] drawn from
    the bitset cands[k], a[k] > a[i] for every i in lows[k], and every edge
    in checks[k] (a position tuple holding k) mapped onto an edge of the
    host whose links `_links` gave.  Yields one list, updated in place.

    The candidates of position k are one mask (Ullmann, J. ACM 23, 1976):
    cands[k] less the used vertices, less everything at or below a[i] for
    each i in lows[k], and ANDed with link[S] for each edge in checks[k],
    S the images of its other positions.  Its bits are walked upward, so
    each a[k] is tried in increasing order."""
    last = len(cands) - 1
    a = [0] * len(cands)
    if last < 0:
        yield a
        return
    others = [[tuple(p for p in e if p != k) for e in es]
              for k, es in enumerate(checks)]
    bit = [0] * len(cands)  # bit[i] = 1 << a[i], for i < k
    left = [0] * len(cands)  # the untried candidates of each position

    def options(k: int, used: int) -> int:
        m = cands[k] & ~used
        for i in lows[k]:
            m &= -(bit[i] << 1)
        for ps in others[k]:
            s = 0
            for p in ps:
                s |= bit[p]
            m &= link.get(s, 0)
        return m

    used = 0
    k = 0
    left[0] = options(0, 0)
    while True:
        m = left[k]
        if m:
            low = m & -m
            left[k] = m ^ low
            a[k] = low.bit_length() - 1
            if k == last:
                yield a
            else:
                bit[k] = low
                used |= low
                k += 1
                left[k] = options(k, used)
        elif k:
            k -= 1
            used ^= bit[k]
        else:
            return


def _embeddings(f: Hypergraph, n: int, host_edges,
                blocked: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """One embedding of f into the r-graph on n vertices with edge set
    `host_edges` (sorted tuples) avoiding `blocked`, per copy of f, as a
    mapping tuple.  A copy is a coset of Aut(f): the pair (edge image,
    vertex image).  Each copy is represented by its lex-least embedding
    in `_pattern_order` coordinates, and copies come in that same lex
    order, so the first embedding yielded is the lex-least of all.
    `BudgetExceededError` on copy `_MAX_COPIES` + 1."""
    if f.n > n:
        return
    checks, lows, degs, where = _plan(f)
    link, hdegs = _links(n, host_edges)
    blocked = set(blocked)
    cands = [sum(1 << w for w in range(n)
                 if w not in blocked and hdegs[w] >= d) for d in degs]
    for count, a in enumerate(_dfs(checks, lows, cands, link), 1):
        if count > _MAX_COPIES:
            raise BudgetExceededError(
                f"more than {_MAX_COPIES} copies of one pattern")
        yield tuple(a[k] for k in where)


def embed(f: Hypergraph, h: Hypergraph,
          forbidden: Sequence[int] = ()) -> Optional[Embedding]:
    """First embedding of f into h avoiding `forbidden` vertices, or None."""
    if f.r != h.r:
        raise ValueError("embed requires equal uniformity")
    found = next(_embeddings(f, h.n, set(h.edges), forbidden), None)
    return None if found is None else Embedding(found)


def is_free(f: Hypergraph, h: Hypergraph) -> bool:
    """True iff h contains no copy of f."""
    return embed(f, h) is None


def _copies(f: Hypergraph, h: Hypergraph
            ) -> list[tuple[int, tuple[int, ...], Embedding]]:
    """All copies of f in h as (vertex bitmask, vertex tuple, embedding),
    deduplicated by vertex set (first embedding kept) and sorted by
    vertex tuple."""
    if f.r != h.r:
        raise ValueError("packing requires equal uniformity")
    found: dict[tuple[int, ...], tuple[int, ...]] = {}
    for mapping in _embeddings(f, h.n, set(h.edges)):
        found.setdefault(tuple(sorted(mapping)), mapping)
    return [(sum(1 << v for v in key), key, Embedding(found[key]))
            for key in sorted(found)]


def _normalize_families(config) -> list[tuple[Hypergraph, int, int]]:
    """Merge isomorphic families, summing demands.  Returns a list of
    (graph, demand, original index of first occurrence) sorted by the
    canonical key of the graph."""
    groups: dict = {}
    for idx, (f, t) in enumerate(config):
        if f.n == 0:
            raise ValueError("families need at least one vertex")
        if t < 1:
            raise ValueError("family demands must be positive")
        key = (f.n, f.r, canonical_form(f).edges)
        if key in groups:
            g, tot, first = groups[key]
            groups[key] = (g, tot + t, first)
        else:
            groups[key] = (f, t, idx)
    return [groups[k] for k in sorted(groups)]


def _bits(mask: int):
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(table, mask: int) -> int:
    """Bitwise or of table[i] over the set bits i of mask."""
    out = 0
    for i in _bits(mask):
        out |= table[i]
    return out


def _conflicts(vertex_masks: Sequence[int], n: int) -> list[int]:
    """conf[c] = the copies sharing a vertex with copy c, c included, for
    copies numbered by their position in vertex_masks."""
    vcop = [0] * n
    for c, vm in enumerate(vertex_masks):
        for v in _bits(vm):
            vcop[v] |= 1 << c
    return [_union(vcop, vm) for vm in vertex_masks]


def _spans(families) -> list[tuple[int, int]]:
    """One bit space over the copies of (copies, demand) families, in
    order: (the bits of family i's copies, its demand) for each i."""
    spans, c = [], 0
    for copies, t in families:
        spans.append(((1 << c + len(copies)) - (1 << c), t))
        c += len(copies)
    return spans


def _pack(spans, conf, marks, dead: Optional[set] = None):
    """The packing search over one bit space, built once and then called
    on copy bitsets avail: the lexicographically least packing inside
    avail, or None.  A packing takes, for each family i in order,
    spans[i][1] pairwise disjoint copies out of its bits spans[i][0],
    strictly increasing and disjoint from every copy chosen before (conf,
    from `_conflicts`); the search returns the bitwise or of marks[c] over
    its copies c.  `dead`, when given, gathers the (family, demand left,
    avail) triples that failed; they fail again, so the memo never changes
    the packing found."""
    last = len(spans) - 1

    def go(step, avail: int, fi: int = 0,
           need: int = spans[0][1]) -> Optional[int]:
        # the least copy of family fi left in avail, then the rest;
        # avail already excludes every copy meeting a chosen one
        cand = avail & spans[fi][0]
        left = cand.bit_count()
        while left >= need:
            low = cand & -cand
            c = low.bit_length() - 1
            rest = avail & -(low << 1) & ~conf[c]
            if need > 1:
                got = step(step, rest, fi, need - 1)
            elif fi < last:
                got = step(step, rest, fi + 1, spans[fi + 1][1])
            else:
                got = 0
            if got is not None:
                return got | marks[c]
            cand ^= low
            left -= 1
        return None

    # recursion goes through the step argument, go itself or go behind the
    # memo: the solver, which passes no memo, pays nothing for it, and no
    # closure refers to itself, so a dropped search leaves no cycle
    if dead is None:
        return partial(go, go)

    def memo(step, avail: int, fi: int = 0,
             need: int = spans[0][1]) -> Optional[int]:
        key = (fi, need, avail)
        if key in dead:
            return None
        got = go(step, avail, fi, need)
        if got is None:
            dead.add(key)
        return got

    return partial(memo, memo)


def _pack_copies(tables, labels):
    """The packing search over copies from tables[i] (lists from
    `_copies`), all pairwise vertex-disjoint, built once per bit space;
    labels[i] = the (host, family) of table i's entries.  Returns a
    function of (demands, dead): the witness of the least packing of
    demands[i] copies from each table i, or None, with `dead` the failure
    memo of `_pack`.  None at once when the demands need more vertices
    than the copies cover."""
    if not tables:
        return lambda demands, dead: MatchingWitness(())
    if not all(tables):
        return lambda demands, dead: None
    flat = [(i, copy) for i, table in enumerate(tables) for copy in table]
    masks = [vm for _, (vm, _, _) in flat]
    covered = 0
    for vm in masks:
        covered |= vm
    conf = _conflicts(masks, covered.bit_length())
    marks = [1 << c for c in range(len(flat))]

    def pack(demands: Sequence[int], dead: set) -> Optional[MatchingWitness]:
        if sum(t * len(table[0][1]) for table, t in zip(tables, demands)) \
                > covered.bit_count():
            return None
        search = _pack(_spans(zip(tables, demands)), conf, marks, dead)
        chosen = search((1 << len(flat)) - 1)
        if chosen is None:
            return None
        entries = (WitnessEntry(*labels[i], verts, emb)
                   for i, (_, verts, emb) in (flat[c] for c in _bits(chosen)))
        return MatchingWitness(tuple(sorted(
            entries, key=lambda e: (e.host, e.family, e.vertices))))

    return pack


def matching_number(f: Hypergraph, h: Hypergraph,
                    cap: Optional[int] = None) -> tuple[int, MatchingWitness]:
    """Largest number of pairwise vertex-disjoint copies of f in h (with
    its witness); stops early once `cap` disjoint copies are found."""
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    if cap is not None and cap < 0:
        raise ValueError("cap must be nonnegative")
    pack = _pack_copies([_copies(f, h)], [(0, 0)])
    dead: set = set()  # a failure stays one as the lone demand grows
    witness = MatchingWitness(())
    while cap is None or len(witness) < cap:
        attempt = pack((len(witness) + 1,), dead)
        if attempt is None:
            break
        witness = attempt
    return len(witness), witness


def has_disjoint_config(h: Hypergraph, config) -> Optional[MatchingWitness]:
    """Witness placing, for every (F_i, t_i) in config, t_i copies of F_i
    with all copies pairwise vertex-disjoint — or None.  Isomorphic
    families are merged first (their demands add up); witness entries
    carry the original index of each family's first occurrence."""
    families = _normalize_families(config)
    pack = _pack_copies([_copies(f, h) for f, _, _ in families],
                        [(0, first) for _, _, first in families])
    return pack([t for _, t, _ in families], set())


def rainbow_matching(hosts: Sequence[Hypergraph],
                     f: Hypergraph) -> Optional[MatchingWitness]:
    """Pairwise-disjoint vertex sets S_0, S_1, ... with a copy of f in
    hosts[i] on S_i for every i, or None.  Hosts must share n and r."""
    if not hosts:
        return MatchingWitness(())
    n, r = hosts[0].n, hosts[0].r
    if any(g.n != n or g.r != r for g in hosts):
        raise ValueError("rainbow hosts must share vertex count and uniformity")
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    # each host is a family of its own, with demand 1
    pack = _pack_copies([_copies(f, g) for g in hosts],
                        [(i, 0) for i in range(len(hosts))])
    return pack([1] * len(hosts), set())
