"""Deterministic canonical labeling for small uniform hypergraphs.

The canonical form of (n, edges) is the lexicographically least relabeled
edge list over all vertex permutations (edge tuples sorted ascending, edge
lists sorted, lists compared lexicographically).  That global minimum is
found in two phases:

1.  `refinement_scan`: a refinement/individualization scan (partition
    refinement from the degree classes, branching over the first smallest
    non-singleton cell) whose leaves yield concrete relabelings.  Twin
    swaps inside the root's cells and pairs of leaves with equal relabeled
    edge lists reveal automorphisms, and a subtree is skipped only when a
    found automorphism maps it onto one already explored, so the found
    generators generate all of Aut(G).  When every root cell is a twin
    class the tree is a single path and needs no search: its one leaf
    lists the root's cells in order.  The least leaf's relabeled edge
    list is an isomorphism invariant, and a complete one (the phase-1
    certificate), but not the global lex-min;

2.  an exact branch-and-bound that assigns labels 0..n-1 one vertex at a
    time, pruning with (a) a sound optimistic completion bound on the
    final edge list, started from the phase-1 certificate, and (b) orbit
    pruning: candidate vertices lying in a common orbit of the stabilizer
    (under the phase-1 generators) of the already-assigned vertices are
    interchangeable, so only the first is explored.  Labels go out in
    increasing order, so each edge's placed labels form a sorted prefix
    of its final tuple; the bound groups the undecided edges by that
    prefix K and completes a group of k edges with the k least K + S,
    S drawn from the labels still free, merged with the decided tuples.
    Before the search, one greedy dive labels vertices by the tuples a
    label completes (the search's key, except that a list sorts after its
    extensions), ties broken by larger degree and then smaller index, and
    its sorted edge list H is an incumbent (branch and bound with a
    heuristic incumbent, Land & Doig, Econometrica 1960):
    H comes from a real labeling, so H >= the minimum.  While the best
    leaf so far is above H, a subtree is cut only when its completion is
    strictly above H; once best <= H, when it is >= best.  The output
    cannot change: every ancestor of the first leaf (in search order) at
    the minimum has a completion <= the minimum <= H and <= best, so that
    leaf is still visited and still wins, and a phase-1 certificate that
    already is the minimum still returns the phase-1 perm.  Only nodes
    drop (the 2K3@9 witness K_1 + K_{4,4}: 87 -> 15).

Both phases find orbits with a union-find that unites only the points a
generator moves, one pair per point after a cycle's first (a twin swap
costs one union).  Phase 1 keeps one oracle per search node and unites
only the generators found since its last sibling; phase 2 hands each
child the generators that still fix its labeled vertices and the
parent's oracle when none of them dropped out.

`canonical_labeling` runs both phases for the callers that return or
store a form, where the lex-min order itself matters: `ForbiddenConfig`
and `matching._normalize_families` (it fixes the config hash and the
family order, and so the solver's node counts), the solver's witness and
enumerated classes (returned and cached), and `turankit canon`.  Class
equality (`core._class_key`), automorphism orbits and invariant edge
choices use the phase-1 scan alone.  Both phases are deterministic, pure
Python, and desk-scale by design.
"""

from __future__ import annotations

from bisect import insort
from heapq import merge
from itertools import combinations, islice
from typing import NamedTuple, Optional, Sequence

Edge = tuple[int, ...]
Moved = tuple[int, tuple[tuple[int, int], ...]]  # see `_moved`


class Scan(NamedTuple):
    """The phase-1 result: `generators` generate Aut(G); `perm` (old
    vertex -> new label) is the least leaf's labeling and `edges` its
    relabeled edge list, the phase-1 certificate."""
    generators: tuple[tuple[int, ...], ...]
    perm: tuple[int, ...]
    edges: tuple[Edge, ...]


def _refine(n: int, edges: Sequence[Edge], incident: Sequence[Sequence[int]],
            cells: list[list[int]]) -> list[list[int]]:
    """Split sorted cells by incidence signatures until the partition is
    stable: a vertex's signature is the sorted list of the codes of its
    edges (`incident` holds edge indices), all from the round's partition
    of k cells.  An edge's code is -sum over its vertices v of
    (r+1)^(k-1-cell(v)): the edge's count vector (how many of its vertices
    lie in cell 0, 1, ...) read as a base-(r+1) number, negated.  A cell
    holds at most r < r+1 of an edge's vertices, so no digit carries, and
    of two r-multisets of cells the one with more vertices in the first
    cell where they differ has the lexicographically smaller sorted cell
    tuple: codes order edges exactly as their sorted cell tuples do."""
    if not edges:
        return cells
    base = len(edges[0]) + 1
    while len(cells) < n:
        weight = [0] * n
        w = -1
        for cell in reversed(cells):
            for v in cell:
                weight[v] = w
            w *= base
        weight_at = weight.__getitem__
        code_of = [sum(map(weight_at, e)) for e in edges].__getitem__
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                sig = tuple(sorted(map(code_of, incident[v])))
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                new_cells.extend(buckets[sig] for sig in sorted(buckets))
        cells = new_cells
        if not changed:
            break
    return cells


def _moved(g: Sequence[int]) -> Moved:
    """The permutation g as (support, pairs): the bitset of the points it
    moves, and each cycle's first point paired with the cycle's other
    points, so that uniting the pairs unites g's orbits."""
    support = 0
    pairs = []
    for a, b in enumerate(g):
        if a != b and not support >> a & 1:  # a opens a new cycle
            support |= 1 << a
            while b != a:
                support |= 1 << b
                pairs.append((a, b))
                b = g[b]
    return support, tuple(pairs)


class _OrbitOracle:
    """Union-find over the orbits of the subgroup generated by the known
    automorphisms that fix the vertex bitset `base` pointwise.  Generators
    come as `_moved` pairs; `update` unites those appended to its list
    since the last call, so a node whose generators grow keeps its
    oracle."""

    def __init__(self, n: int, base: int):
        self.parent = list(range(n))
        self.base = base
        self.known = 0

    def update(self, moved: Sequence[Moved]) -> None:
        base = self.base
        for support, pairs in moved[self.known:]:
            if not support & base:
                for a, b in pairs:
                    self._union(a, b)
        self.known = len(moved)

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, v: int, others) -> bool:
        rv = self._find(v)
        return any(self._find(u) == rv for u in others)


def _twin_transpositions(n: int, edges: Sequence[Edge],
                         cells: list[list[int]]) -> list[tuple[int, int]]:
    """Automorphisms that are free to detect: the pairs u < v whose swap
    maps the edge set onto itself, sorted; u and v share a cell of the
    invariant partition `cells`.  With link(w) the bitsets of the
    (r-1)-sets e - w over the edges e at w, the swap is one exactly when
    every set in link(u) ^ link(v) contains u or v: a set of link(u)
    holding v comes from an edge through both, which the swap fixes, and
    every other set of either link must lie in the other."""
    if len(cells) == n:
        return []
    links: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        whole = 0
        for v in e:
            whole |= 1 << v
        for v in e:
            links[v].add(whole ^ (1 << v))
    return sorted((u, v) for cell in cells for u, v in combinations(cell, 2)
                  if all(s & (1 << u | 1 << v) for s in links[u] ^ links[v]))


def refinement_scan(n: int, edges: Sequence[Edge]) -> Scan:
    """Phase 1: automorphism generators and the least leaf of the
    refinement tree, seeded with the twin transpositions.  The root starts
    from the unit partition's first round: the degree classes, ascending.
    When every pair in each root cell is a twin pair, the tree is one
    path: a twin class stays a twin class under individualising, so no
    cell splits, and each node's later vertices are its first's twins.
    Its leaf lists the root's cells in order."""
    if not edges:
        # Aut is every permutation: the adjacent transpositions generate it
        adjacent = tuple(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
                         for i in range(n - 1))
        return Scan(adjacent, tuple(range(n)), ())
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            incident[v].append(i)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(len(incident[v]), []).append(v)
    root = [by_degree[d] for d in sorted(by_degree)]
    if len(root) > 1:  # one class is stable: its round splits nothing
        root = _refine(n, edges, incident, root)

    best_edges: Optional[tuple[Edge, ...]] = None
    best_perm: Optional[tuple[int, ...]] = None
    leaf_seen: dict[tuple[Edge, ...], list[list[int]]] = {}  # edges -> leaf
    twins = _twin_transpositions(n, edges, root)
    generators = [tuple([v if w == u else u if w == v else w for w in range(n)])
                  for u, v in twins]
    moved = [(1 << u | 1 << v, ((u, v),)) for u, v in twins]
    gen_set = set(generators)

    def visit_leaf(cells: list[list[int]]) -> None:
        nonlocal best_edges, best_perm
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        label = perm.__getitem__
        relabeled = tuple(sorted([tuple(sorted(map(label, e))) for e in edges]))
        prev = leaf_seen.setdefault(relabeled, cells)
        if prev is not cells:  # two leaves differ in order: gamma is no identity
            gamma = tuple([prev[pos][0] for pos in perm])
            if gamma not in gen_set:
                gen_set.add(gamma)
                generators.append(gamma)
                moved.append(_moved(gamma))
        if best_edges is None or relabeled < best_edges:
            best_edges = relabeled
            best_perm = tuple(perm)

    def search(cells: list[list[int]], base: int) -> None:
        # `cells` comes refined; branch on its first smallest open cell
        if len(cells) == n:
            visit_leaf(cells)
            return
        _, target = min((len(c), i) for i, c in enumerate(cells) if len(c) > 1)
        explored: list[int] = []
        oracle = None  # one per node, updated when generators grow
        for v in cells[target]:
            if explored:
                oracle = oracle or _OrbitOracle(n, base)
                oracle.update(moved)
            if not explored or not oracle.same(v, explored):
                rest = [u for u in cells[target] if u != v]
                child = cells[:target] + [[v], rest] + cells[target + 1:]
                search(_refine(n, edges, incident, child), base | 1 << v)
            explored.append(v)

    try:
        if len(twins) == sum(len(c) * (len(c) - 1) // 2 for c in root):
            visit_leaf([[v] for cell in root for v in cell])
        else:
            search(root, 0)
    finally:
        del search  # it refers to itself: break the cycle, free the scan
    assert best_perm is not None and best_edges is not None
    return Scan(tuple(generators), best_perm, best_edges)


def canonical_labeling(n: int, edges: Sequence[Edge]) -> tuple[tuple[int, ...], tuple[Edge, ...]]:
    """Return (perm, canonical_edges) with perm[old_vertex] = new_vertex.

    `canonical_edges` is the lexicographically least relabeling of `edges`
    over all n! permutations, so isomorphic inputs produce identical edge
    lists.
    """
    if not edges:  # every labeling is least: skip the scan's n - 1 generators
        return tuple(range(n)), ()
    generators, seed_perm, seed_edges = refinement_scan(n, edges)

    m = len(edges)
    r = len(edges[0])
    incident_idx: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            incident_idx[v].append(i)

    label_of = [-1] * n   # old vertex -> label
    assign = [-1] * n     # label -> old vertex
    maxtuple = (n,) * r

    def scored(j: int, known: list[Edge]) -> list[tuple[list[Edge], int, list[Edge]]]:
        """(key, u, newly) for each unlabeled u: `newly` lists the final
        tuples of the edges that label j on u completes, and the key is
        `newly`, or [maxtuple] when u completes none.  Labels are placed in
        increasing order, so known[i] + (j,) is edge i's final tuple once
        u is its last vertex."""
        out = []
        for u in range(n):
            if label_of[u] < 0:
                newly = sorted(known[ei] + (j,) for ei in incident_idx[u]
                               if len(known[ei]) == r - 1)
                out.append((newly or [maxtuple], u, newly))
        return out

    def placed_with(u: int, j: int, known: list[Edge]) -> list[Edge]:
        placed = list(known)
        for ei in incident_idx[u]:
            placed[ei] = known[ei] + (j,)
        return placed

    # the incumbent H: one greedy dive that takes the least key, then the
    # larger degree, then the smaller index.  Its key is newly + [maxtuple],
    # so that a list sorts after its extensions: a label completing more
    # tuples with the same prefix puts them before any later tuple.  H is
    # a real relabeling, so H >= the minimum
    dive: list[Edge] = [()] * m
    j = 0
    while any(len(t) < r for t in dive):
        _, u, _ = min(scored(j, dive),
                      key=lambda t: (t[2] + [maxtuple],
                                     -len(incident_idx[t[1]]), t[1]))
        dive = placed_with(u, j, dive)
        label_of[u] = j
        j += 1
    label_of[:] = [-1] * n
    incumbent = sorted(dive)

    best: list[Edge] = list(seed_edges)
    best_assign: Optional[tuple[int, ...]] = None
    # while best > H a completion is cut only when strictly above H, so
    # the first leaf at the minimum still wins (see the module docstring);
    # once best <= H, when it is >= best
    bar, cut_ties = (incumbent, False) if best > incumbent else (best, True)

    def improve(final: list[Edge], here: tuple[int, ...]) -> None:
        nonlocal best, best_assign, bar, cut_ties
        if final < best:
            best = list(final)
            best_assign = here
            if best <= incumbent:
                bar, cut_ties = best, True

    def bound_beats_best(j: int, decided: list[Edge], known: list[Edge]) -> bool:
        """True iff the optimistic completion of `decided` is > bar, or
        equals it while ties are cut, so the subtree may be cut: no leaf
        in it strictly beats best (bar = best), or every leaf in it lies
        above H >= the minimum (bar = H).  The k
        undecided edges with placed labels K end as k distinct tuples
        K + S with S drawn from labels j..n-1, so the i-th least of them
        is at least K + the i-th least such S."""
        groups: dict[Edge, int] = {}
        for placed in known:
            if len(placed) < r:
                groups[placed] = groups.get(placed, 0) + 1
        free = range(j, n)
        least = [map(placed.__add__, islice(combinations(free, r - len(placed)), k))
                 for placed, k in groups.items()]
        for t, b in zip(merge(decided, *least), bar):
            if t != b:
                return t > b
        return cut_ties  # the optimistic completion equals the bar exactly

    def search(j: int, decided: list[Edge], known: list[Edge],
               gens: list[Moved], oracle: Optional[_OrbitOracle]) -> None:
        # `gens`: the generators that fix the labeled vertices, as `_moved`
        # pairs; `oracle`, if given, is the parent's, built from the same
        if j == n:
            improve(decided, tuple(assign))
            return
        if len(decided) == m:
            # every edge already has its final tuple; the remaining
            # labels go to the unused vertices in increasing order
            rest = (u for u in range(n) if label_of[u] < 0)
            improve(decided, tuple(assign[:j]) + tuple(rest))
            return
        if bound_beats_best(j, decided, known):
            return
        candidates = scored(j, known)
        candidates.sort(key=lambda t: (t[0], t[1]))
        if oracle is None and gens and len(candidates) > 1:
            oracle = _OrbitOracle(n, 0)  # every one of `gens` fixes the base
            oracle.update(gens)
        tried: list[int] = []
        for _, u, newly in candidates:
            if tried and oracle is not None and oracle.same(u, tried):
                tried.append(u)
                continue
            label_of[u] = j
            assign[j] = u
            child = decided
            if newly:
                child = list(decided)
                for t in newly:
                    insort(child, t)
            kept = [g for g in gens if not g[0] >> u & 1]
            search(j + 1, child, placed_with(u, j, known), kept,
                   oracle if len(kept) == len(gens) else None)
            label_of[u] = -1
            assign[j] = -1
            tried.append(u)

    try:
        search(0, [], [()] * m, [_moved(g) for g in generators], None)
    finally:
        del search  # as in `refinement_scan`
    if best_assign is None:
        # phase 2 never strictly improved on the phase-1 labeling
        return seed_perm, seed_edges
    perm = [0] * n
    for label in range(n):
        perm[best_assign[label]] = label
    return tuple(perm), tuple(best)
