"""Independent brute-force references used to validate the package.

Everything here is deliberately naive (factorial/exponential) and written
without reusing the package's search code, so the two sides can
cross-check each other.  The copy-enumerator references share only the
package's static pattern order, so that their output order can be
compared exactly.  Budgets: n <= 7 for relabeling scans, small edge
counts for packing enumeration.
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import comb

from turankit.core import Hypergraph
from turankit.matching import _edge_checks, _pattern_order


# -- tiny independent constructors (used to cross-check zoo) -----------


def path_graph(n: int) -> Hypergraph:
    return Hypergraph(n, 2, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Hypergraph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Hypergraph(n, 2, tuple(tuple(sorted(e)) for e in edges))


def turan_graph(n: int, parts: int) -> Hypergraph:
    """Balanced complete multipartite graph (larger parts first)."""
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    label = []
    for part, size in enumerate(sizes):
        label += [part] * size
    edges = [(u, v) for u, v in combinations(range(n), 2) if label[u] != label[v]]
    return Hypergraph(n, 2, tuple(edges))


FANO_EDGES = ((0, 1, 2), (0, 3, 6), (0, 4, 5), (1, 3, 5), (1, 4, 6),
              (2, 3, 4), (2, 5, 6))


def fano_graph() -> Hypergraph:
    return Hypergraph(7, 3, FANO_EDGES)


# -- canonical-form / isomorphism references ---------------------------


def relabel(g: Hypergraph, perm) -> Hypergraph:
    edges = tuple(tuple(sorted(perm[v] for v in e)) for e in g.edges)
    return Hypergraph(g.n, g.r, edges)


def min_relabeling(g: Hypergraph) -> tuple:
    """Lexicographically least edge list over all n! relabelings (n <= 7)."""
    assert g.n <= 7, "factorial scan budget"
    best = None
    for perm in permutations(range(g.n)):
        edges = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in g.edges))
        if best is None or edges < best:
            best = edges
    return best


def brute_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    if g.n != h.n or g.r != h.r or len(g.edges) != len(h.edges):
        return False
    target = set(h.edges)
    for perm in permutations(range(g.n)):
        if all(tuple(sorted(perm[v] for v in e)) in target for e in g.edges):
            return True
    return False


# -- copies and disjoint packings ---------------------------------------


def spans(f: Hypergraph, h: Hypergraph, image: tuple) -> bool:
    """Is there a bijection from f's vertices onto `image` mapping every
    f-edge to an h-edge?"""
    h_edges = set(h.edges)
    for perm in permutations(image):
        if all(tuple(sorted(perm[v] for v in e)) in h_edges for e in f.edges):
            return True
    return False


def all_copies(f: Hypergraph, h: Hypergraph) -> list[tuple]:
    """Vertex sets of all copies of f in h (subgraph containment)."""
    return [s for s in combinations(range(h.n), f.n) if spans(f, h, s)]


def brute_matching_number(f: Hypergraph, h: Hypergraph) -> int:
    """Maximum number of pairwise vertex-disjoint copies of f in h."""
    copies = all_copies(f, h)

    def grow(start: int, used: frozenset) -> int:
        best = 0
        for i in range(start, len(copies)):
            s = copies[i]
            if used.isdisjoint(s):
                best = max(best, 1 + grow(i + 1, used | frozenset(s)))
        return best

    return grow(0, frozenset())


def brute_has_config(h: Hypergraph, config) -> bool:
    """Exhaustive: do pairwise-disjoint copies exist, t_i of each f_i?"""
    demands = []
    for f, t in config:
        demands += [f] * t

    def place(i: int, used: frozenset) -> bool:
        if i == len(demands):
            return True
        for s in all_copies(demands[i], h):
            if used.isdisjoint(s) and place(i + 1, used | frozenset(s)):
                return True
        return False

    return place(0, frozenset())


# -- the copy enumerators before the shared one --------------------------


def reference_embed(f: Hypergraph, h: Hypergraph, forbidden=()):
    """`matching.embed` before the shared enumerator: the first injective
    map, in `_pattern_order` lex order, sending f's edges into h's and
    avoiding `forbidden`, as a mapping tuple, or None."""
    if f.n == 0:
        return ()
    blocked = set(forbidden)
    if f.n > h.n - len(blocked & set(range(h.n))):
        return None
    order = _pattern_order(f)
    checks = _edge_checks(f, order)
    fdegs = f.degrees()
    hdegs = h.degrees()
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if w in used or w in blocked or hdegs[w] < fdegs[v]:
                continue
            assigned[v] = w
            if all(h.has_edge(tuple(sorted(assigned[u] for u in e)))
                   for e in checks[i]):
                used.add(w)
                if place(i + 1):
                    return True
                used.remove(w)
        assigned.pop(v, None)
        return False

    if place(0):
        return tuple(assigned[v] for v in range(f.n))
    return None


def reference_copies(f: Hypergraph, h: Hypergraph) -> list[tuple]:
    """`matching._copies` before the shared enumerator: every embedding
    walked in `_pattern_order` lex order, the first kept per vertex set.
    Returns (vertex bitmask, vertex tuple, mapping) sorted by vertex tuple."""
    order = _pattern_order(f)
    checks = _edge_checks(f, order)
    fdegs = f.degrees()
    hdegs = h.degrees()
    assigned: dict[int, int] = {}
    used: set[int] = set()
    found: dict[tuple, tuple] = {}

    def place(i: int) -> None:
        if i == len(order):
            key = tuple(sorted(assigned.values()))
            if key not in found:
                found[key] = tuple(assigned[v] for v in range(f.n))
            return
        v = order[i]
        for w in range(h.n):
            if w in used or hdegs[w] < fdegs[v]:
                continue
            assigned[v] = w
            if all(h.has_edge(tuple(sorted(assigned[u] for u in e)))
                   for e in checks[i]):
                used.add(w)
                place(i + 1)
                used.remove(w)
        assigned.pop(v, None)

    place(0)
    return [(sum(1 << v for v in key), key, found[key]) for key in sorted(found)]


def reference_solver_copies(f: Hypergraph, n: int) -> list[tuple[int, int]]:
    """`solver._Searcher._copies` before the shared enumerator: all
    n!/(n-v)! injections of f into the complete r-graph on n vertices, one
    (edge mask, vertex mask) per distinct edge image, sorted by edge bits.
    Its vertex mask covers only f's non-isolated vertices."""
    index = {e: i for i, e in enumerate(combinations(range(n), f.r))}
    out: dict[int, int] = {}
    for sub in combinations(range(n), f.n):
        for perm in permutations(sub):
            emask = 0
            for e in f.edges:
                emask |= 1 << index[tuple(sorted(perm[v] for v in e))]
            if emask not in out:
                out[emask] = sum(1 << perm[v] for v in {u for e in f.edges for u in e})
    return sorted(out.items(), key=lambda c: [i for i in range(len(index)) if c[0] >> i & 1])


def automorphism_count(f: Hypergraph) -> int:
    """|Aut(f)| by scanning all v! relabelings."""
    own = set(f.edges)
    return sum(all(tuple(sorted(p[v] for v in e)) in own for e in f.edges)
               for p in permutations(range(f.n)))


# -- small exact extremal numbers ---------------------------------------


def brute_max_feasible(n: int, r: int, config) -> int:
    """ex(n, config) by scanning all edge subsets — only for tiny C(n,r)."""
    universe = list(combinations(range(n), r))
    assert len(universe) <= 16, "2^|E| scan budget"
    best = 0
    for bits in range(1 << len(universe)):
        edges = tuple(universe[i] for i in range(len(universe)) if bits >> i & 1)
        if len(edges) <= best:
            continue
        h = Hypergraph(n, r, edges)
        if not brute_has_config(h, config):
            best = len(edges)
    return best


def brute_chromatic(g: Hypergraph) -> int:
    assert g.r == 2 and g.n <= 8
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    lower = [[] for _ in range(g.n)]  # neighbors with smaller index
    for a, b in g.edges:
        lower[b].append(a)
    for k in range(1, g.n + 1):
        colors = [-1] * g.n

        def assign(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in lower[v]):
                    colors[v] = c
                    if assign(v + 1):
                        return True
            colors[v] = -1
            return False

        if assign(0):
            return k
    return g.n


# -- best blowup sizes ---------------------------------------------------


def reference_lambda_n(p, n: int) -> tuple:
    """`patterns.lambda_n` before symmetry breaking: a lex-descending walk
    over every composition of n, pruned only by per-profile suffix maxima.
    Returns the same (value, lexicographically largest maximizer)."""
    if p.k == 0 or not p.multisets:
        return 0, ((n,) + (0,) * (p.k - 1) if p.k else ())
    mults = [p.multiplicities(y) for y in p.multisets]
    suffix = []
    for mult in mults:
        table = [[0] * (n + 1) for _ in range(p.k + 1)]
        table[p.k][0] = 1
        for i in range(p.k - 1, -1, -1):
            for R in range(n + 1):
                if i == p.k - 1:
                    table[i][R] = comb(R, mult[i])
                else:
                    table[i][R] = max(comb(s, mult[i]) * table[i + 1][R - s]
                                      for s in range(R + 1))
        suffix.append(table)

    best = [-1, ()]
    sizes = [0] * p.k

    def walk(i: int, remaining: int, partials: list) -> None:
        if i == p.k - 1:
            sizes[i] = remaining
            value = sum(partials[yi] * comb(remaining, mults[yi][i])
                        for yi in range(len(mults)))
            if value > best[0]:
                best[:] = [value, tuple(sizes)]
            return
        bound = sum(partials[yi] * suffix[yi][i][remaining]
                    for yi in range(len(mults)))
        if bound <= best[0]:
            return
        for s in range(remaining, -1, -1):
            sizes[i] = s
            walk(i + 1, remaining - s,
                 [partials[yi] * comb(s, mults[yi][i])
                  for yi in range(len(mults))])

    walk(0, n, [1] * len(mults))
    return best[0], best[1]
