"""Subgraph embedding and exact disjoint-copy packing.

Containment is ordinary subgraph containment (not induced): an embedding
is an injective vertex map sending every pattern edge to a host edge.
A "copy" of a pattern F is an embedding up to the automorphisms of F,
i.e. the pair (edge image, vertex image); its vertex image holds all
v(F) vertices, isolated ones included.  `_embeddings`, the one copy
enumerator (the solver's copy tables read it too), yields each copy's
lex-least embedding, in lex order.  Packings only care about vertex
sets, so `_copies` keeps the first embedding per vertex set.

The packing searches answer monotone decision questions ("is there a
packing of size s?", "can every family's demand be met?") with a shared
memo keyed on (available-vertex bitmask, outstanding demands).  Branching
picks the smallest vertex of the lexicographically least available copy
of the first unsatisfied family and splits into "some copy through that
vertex is used" versus "that vertex is unused" — a complete case split.
Exact values come from asking s = 1, 2, ... until the answer flips, which
keeps capped queries from ever poisoning the memo with truncated values.

All searches are exact and deterministic; hosts are limited to n <= 16
(vertex bitmasks, desk-scale fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .core import Hypergraph, canonical_form
from .errors import BudgetExceededError

_BUDGET_N = 16


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
    free = [[u for u in range(f.n) if fdegs[u] == d] for d in degs]
    own = set(f.edges)
    lows: list[list[int]] = [[] for _ in order]
    for i in range(f.n):
        for k in range(i + 1, f.n):
            pinned = [[v] for v in order[:i]] + [[order[k]]] + free[i + 1:]
            if next(_dfs(checks, [()] * f.n, pinned, own), None) is not None:
                lows[k].append(i)
    return checks, lows, degs, where


def _dfs(checks, lows, cands, host_edges):
    """Injective position assignments a, in lex order, with a[k] drawn from
    cands[k], a[k] > a[i] for every i in lows[k], and every edge in
    checks[k] mapped into host_edges.  Yields one list, updated in place."""
    a = [0] * len(cands)
    used: set[int] = set()

    def go(k: int):
        if k == len(cands):
            yield a
            return
        lo = max((a[i] for i in lows[k]), default=-1)
        for w in cands[k]:
            if w <= lo or w in used:
                continue
            a[k] = w
            if all(tuple(sorted([a[p] for p in e])) in host_edges
                   for e in checks[k]):
                used.add(w)
                yield from go(k + 1)
                used.remove(w)

    return go(0)


def _embeddings(f: Hypergraph, n: int, host_edges,
                blocked: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
    """One embedding of f into the r-graph on n vertices with edge set
    `host_edges` (sorted tuples) avoiding `blocked`, per copy of f, as a
    mapping tuple.  A copy is a coset of Aut(f): the pair (edge image,
    vertex image).  Each copy is represented by its lex-least embedding
    in `_pattern_order` coordinates, and copies come in that same lex
    order, so the first embedding yielded is the lex-least of all."""
    if f.n > n:
        return
    checks, lows, degs, where = _plan(f)
    hdegs = [0] * n
    for e in host_edges:
        for v in e:
            hdegs[v] += 1
    blocked = set(blocked)
    cands = [[w for w in range(n) if w not in blocked and hdegs[w] >= d]
             for d in degs]
    for a in _dfs(checks, lows, cands, host_edges):
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


def _copies(f: Hypergraph, h: Hypergraph) -> list[tuple[int, tuple[int, ...], Embedding]]:
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


def _check_budget(h: Hypergraph) -> None:
    if h.n > _BUDGET_N:
        raise BudgetExceededError(f"packing search budget is n <= {_BUDGET_N}")


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


def _pack(demands: tuple[int, ...], memo: dict,
          copy_lists: list[list[tuple[int, tuple[int, ...], Embedding]]],
          mask: int) -> Optional[list[tuple[int, int]]]:
    """Copies (family position, copy position) meeting `demands` inside
    `mask`, or None.  Memoized on (mask, demands)."""
    if not any(demands):
        return []
    key = (mask, demands)
    if key in memo:
        return memo[key]
    fam = next(i for i, d in enumerate(demands) if d > 0)
    pivot_mask = next((cm for cm, _, _ in copy_lists[fam]
                       if cm & mask == cm), 0)
    result = None
    if pivot_mask:
        v_bit = pivot_mask & -pivot_mask
        # some pending family uses the pivot vertex...
        for gi, d in enumerate(demands):
            if d == 0 or result is not None:
                continue
            for ci, (cm, _, _) in enumerate(copy_lists[gi]):
                if cm & v_bit and cm & mask == cm:
                    nxt = tuple(t - (1 if i == gi else 0)
                                for i, t in enumerate(demands))
                    sub = _pack(nxt, memo, copy_lists, mask & ~cm)
                    if sub is not None:
                        result = [(gi, ci)] + sub
                        break
        # ...or no pending family does
        if result is None:
            result = _pack(demands, memo, copy_lists, mask & ~v_bit)
    memo[key] = result
    return result


def _witness(families, copy_lists, picks, host: int = 0) -> MatchingWitness:
    entries = []
    for gi, ci in picks:
        _, verts, emb = copy_lists[gi][ci]
        entries.append(WitnessEntry(host, families[gi][2], verts, emb))
    entries.sort(key=lambda e: (e.family, e.vertices))
    return MatchingWitness(tuple(entries))


def matching_number(f: Hypergraph, h: Hypergraph,
                    cap: Optional[int] = None) -> tuple[int, MatchingWitness]:
    """Largest number of pairwise vertex-disjoint copies of f in h (with
    its witness); stops early once `cap` disjoint copies are found."""
    _check_budget(h)
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    copy_lists = [_copies(f, h)]
    families = [(f, 0, 0)]
    memo: dict = {}
    full = (1 << h.n) - 1
    value = 0
    picks: list[tuple[int, int]] = []
    while cap is None or value < cap:
        attempt = _pack((value + 1,), memo, copy_lists, full)
        if attempt is None:
            break
        value += 1
        picks = attempt
    return value, _witness(families, copy_lists, picks)


def has_disjoint_config(h: Hypergraph, config) -> Optional[MatchingWitness]:
    """Witness placing, for every (F_i, t_i) in config, t_i copies of F_i
    with all copies pairwise vertex-disjoint — or None.  Isomorphic
    families are merged first (their demands add up); witness entries
    carry the original index of each family's first occurrence."""
    _check_budget(h)
    families = _normalize_families(config)
    copy_lists = [_copies(f, h) for f, _, _ in families]
    demands = tuple(t for _, t, _ in families)
    picks = _pack(demands, {}, copy_lists, (1 << h.n) - 1)
    if picks is None:
        return None
    return _witness(families, copy_lists, picks)


def rainbow_matching(hosts: Sequence[Hypergraph],
                     f: Hypergraph) -> Optional[MatchingWitness]:
    """Pairwise-disjoint vertex sets S_0, S_1, ... with a copy of f in
    hosts[i] on S_i for every i, or None.  Hosts must share n and r."""
    if not hosts:
        return MatchingWitness(())
    n, r = hosts[0].n, hosts[0].r
    if any(g.n != n or g.r != r for g in hosts):
        raise ValueError("rainbow hosts must share vertex count and uniformity")
    _check_budget(hosts[0])
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    if len(hosts) * f.n > n:
        return None
    copy_lists = [_copies(f, g) for g in hosts]
    dead: set[tuple[int, int]] = set()
    chosen: list[tuple[int, tuple[int, ...], Embedding]] = []

    def place(i: int, used: int) -> bool:
        if i == len(hosts):
            return True
        if (i, used) in dead:
            return False
        for cm, verts, emb in copy_lists[i]:
            if cm & used == 0:
                chosen.append((i, verts, emb))
                if place(i + 1, used | cm):
                    return True
                chosen.pop()
        dead.add((i, used))
        return False

    if not place(0, 0):
        return None
    entries = tuple(WitnessEntry(host, 0, verts, emb)
                    for host, verts, emb in chosen)
    return MatchingWitness(entries)
