"""Constructors for the named hypergraphs used throughout the package.

Every constructor returns a validated `Hypergraph` with a fixed, documented
labeling, so repeated calls are identical and canonical-form tests are
reproducible.  Conventions:

* The part constructions are `patterns.blowup`s, parts on consecutive
  labels and the first part lowest (`V1 = {0, ..., a-1}`): `turan` of
  the l-part pattern of all r-subsets of the parts, the others of the
  2-part pattern with i of an edge's vertices in part 1 for i in {1, 2}
  (`bipartite3`), the odd i (`odd_bipartite`), {2} (`even_quad`) or {1}
  (`semibipartite`).
* Constructions that maximize over a part split (`even_quad`,
  `semibipartite`, `odd_bipartite` with `m=None`) pick the split with the
  most edges by `patterns.blowup_count`; ties go to the more balanced
  split, then to the larger first part.
* Expansions append their blocks of fresh vertices after the original
  vertices, one block per pair in lexicographic pair order.

`f7` and `f43` intentionally build the same 4-uniform edge list; both
names are kept because both appear in the literature this follows, with
identical listings.  Their equality is documented, not asserted to mean
the names are interchangeable elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

from .core import Hypergraph, empty
from .errors import BudgetExceededError
from .patterns import Pattern, blowup, blowup_count


@dataclass(frozen=True)
class ZooSpec:
    """A constructor name plus its parameters, as used by the CLI and job
    files.  `payload` carries an embedded hypergraph (expansion_of) or a
    tree edge list (tree_expansion)."""
    name: str
    params: dict = field(default_factory=dict)
    payload: Optional[object] = None


def _two_part(n: int, r: int, ones, splits) -> Hypergraph:
    """The blowup of the 2-part pattern whose edges have i vertices in the
    first part, for each i in `ones`, along the split (a, n - a) with a in
    `splits` of most edges; ties to balance, then to the larger part."""
    p = Pattern(2, r, tuple((1,) * i + (2,) * (r - i) for i in ones))
    a = max(splits, key=lambda a: (blowup_count(p, (a, n - a)),
                                   -abs(2 * a - n), a))
    return blowup(p, (a, n - a))


def turan(n: int, l: int, r: int) -> Hypergraph:
    """Complete l-partite r-graph: the blowup of the l-part pattern of all
    r-subsets of the parts, balanced, larger parts first."""
    if n < 0 or l < 1 or r < 1:
        raise ValueError("turan requires n >= 0, l >= 1, r >= 1")
    p = Pattern(l, r, tuple(combinations(range(1, l + 1), r)))
    return blowup(p, [n // l + (1 if i < n % l else 0) for i in range(l)])


def bipartite3(n: int) -> Hypergraph:
    """Triples meeting both sides of a balanced split."""
    if n < 2:
        raise ValueError("bipartite3 requires n >= 2")
    return _two_part(n, 3, (1, 2), ((n + 1) // 2,))


def odd_bipartite(n: int, r: int, m: Optional[int] = None) -> Hypergraph:
    """(2r)-sets meeting the first part in an odd number of vertices; the
    first part has floor(n/2) + m vertices.  With m omitted, the
    edge-maximizing m in [0, ceil(n/2)] is used."""
    if r < 1 or n < 2 * r:
        raise ValueError("odd_bipartite requires r >= 1 and n >= 2r")
    if m is not None and not 0 <= m <= (n + 1) // 2:
        raise ValueError("odd_bipartite requires 0 <= m <= ceil(n/2)")
    splits = range(n // 2, n + 1) if m is None else (n // 2 + m,)
    return _two_part(n, 2 * r, range(1, 2 * r + 1, 2), splits)


def even_quad(n: int) -> Hypergraph:
    """4-sets meeting the first part in exactly two vertices, with the
    edge-maximizing split."""
    if n < 4:
        raise ValueError("even_quad requires n >= 4")
    return _two_part(n, 4, (2,), range(n + 1))


def semibipartite(n: int, r: int) -> Hypergraph:
    """r-sets with exactly one vertex in the first part, maximized over
    the first-part size."""
    if r < 2 or n < r:
        raise ValueError("semibipartite requires r >= 2 and n >= r")
    return _two_part(n, r, (1,), range(n + 1))


def fano() -> Hypergraph:
    """The 7-point plane: 7 triples, every vertex of degree 3."""
    return Hypergraph(7, 3, ((0, 1, 2), (0, 3, 6), (0, 4, 5),
                             (1, 3, 5), (1, 4, 6), (2, 3, 4), (2, 5, 6)))


def gen_triangle(r: int) -> Hypergraph:
    """Three r-sets on 2r-1 vertices: two sharing r-1 vertices, and a
    third through their symmetric difference.  r=2 gives the triangle."""
    if r < 2:
        raise ValueError("gen_triangle requires r >= 2")
    a = tuple(range(r - 1))
    edges = (a + (r - 1,), a + (r,), tuple(range(r - 1, 2 * r - 1)))
    return Hypergraph(2 * r - 1, r, edges)


def expansion_complete(k: int, r: int) -> Hypergraph:
    """Expansion of the complete graph on k vertices: each of its pairs
    gets a private block of r-2 fresh vertices."""
    if r < 2 or k < r + 1:
        raise ValueError("expansion_complete requires k >= r+1 >= 3")
    return expansion_of(empty(k, r))


def expansion_of(f: Hypergraph) -> Hypergraph:
    """Keep f's edges; every pair of its vertices not inside an edge gets
    a private block of r-2 fresh vertices forming a new edge with it."""
    if f.r < 2:
        raise ValueError("expansion_of requires uniformity >= 2")
    covered = set()
    for e in f.edges:
        covered.update(combinations(e, 2))
    uncovered = [p for p in combinations(range(f.n), 2) if p not in covered]
    edges = list(f.edges)
    nxt = f.n
    for (u, v) in uncovered:
        block = tuple(range(nxt, nxt + f.r - 2))
        nxt += f.r - 2
        edges.append(tuple(sorted((u, v) + block)))
    return Hypergraph(nxt, f.r, tuple(edges))


def tree_expansion(tree_edges: Sequence[Sequence[int]], r: int) -> Hypergraph:
    """One shared block of r-2 fresh vertices appended to every edge of a
    tree given as a pair list on 0..k-1."""
    if r < 2:
        raise ValueError("tree_expansion requires uniformity >= 2")
    pairs = [tuple(sorted(e)) for e in tree_edges]
    if any(len(e) != 2 or e[0] == e[1] or e[0] < 0 for e in pairs):
        raise ValueError("tree payload must be a simple pair list")
    k = max((v for e in pairs for v in e), default=-1) + 1
    if len(set(pairs)) != len(pairs) or len(pairs) != max(k - 1, 0):
        raise ValueError("tree payload must be acyclic and connected")
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError("tree payload must be acyclic and connected")
        parent[ru] = rv
    block = tuple(range(k, k + r - 2))
    edges = tuple(tuple(sorted(e + block)) for e in pairs)
    return Hypergraph(k + r - 2, r, edges)


def expanded_triangle(r: int) -> Hypergraph:
    """Three pairwise-overlapping (2r)-sets on 3r vertices, each pair of
    edges sharing a block of r vertices."""
    if r < 1:
        raise ValueError("expanded_triangle requires r >= 1")
    a, b, c = (tuple(range(0, r)), tuple(range(r, 2 * r)),
               tuple(range(2 * r, 3 * r)))
    return Hypergraph(3 * r, 2 * r, tuple(sorted((a + b, b + c, a + c))))


def f7() -> Hypergraph:
    """4-graph on 7 vertices: four quadruples through a common triple,
    plus the quadruple of their four tips."""
    return Hypergraph(7, 4, ((0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5),
                             (0, 1, 2, 6), (3, 4, 5, 6)))


def f43() -> Hypergraph:
    """Same vertex and edge listing as f7 (the source literature lists
    both names with identical edges); see the module docstring."""
    return f7()


def f32() -> Hypergraph:
    """3-graph on 5 vertices: three triples through a common pair plus
    the triple of their tips."""
    return Hypergraph(5, 3, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)))


def matching_graph(k: int, r: int) -> Hypergraph:
    """k pairwise disjoint r-sets."""
    if k < 1 or r < 1:
        raise ValueError("matching requires k >= 1 and r >= 1")
    edges = tuple(tuple(range(i * r, (i + 1) * r)) for i in range(k))
    return Hypergraph(k * r, r, edges)


def sunflower(k: int, r: int) -> Hypergraph:
    """k r-sets through the common vertex 0, otherwise disjoint."""
    if k < 1 or r < 2:
        raise ValueError("sunflower requires k >= 1 and r >= 2")
    edges = tuple((0,) + tuple(range(1 + i * (r - 1), 1 + (i + 1) * (r - 1)))
                  for i in range(k))
    return Hypergraph(1 + k * (r - 1), r, edges)


def bgraph(r: int, l: int) -> Hypergraph:
    """r-graph on l+1 vertices: the base edge {0..r-1} plus every r-set
    avoiding 0 that meets {1..r-1} at most once."""
    if not l >= r >= 2:
        raise ValueError("bgraph requires l >= r >= 2")
    edges = [tuple(range(r))]
    for e in combinations(range(1, l + 1), r):
        if sum(1 for v in e if v < r) <= 1:
            edges.append(e)
    return Hypergraph(l + 1, r, tuple(sorted(edges)))


# name -> (constructor, the spec.params keys it takes, in order; `m` may
# be left out); _PAYLOADS names the first argument of its payload takers
_CONSTRUCTORS = {
    "fano": (fano, ()), "f7": (f7, ()), "f43": (f43, ()), "f32": (f32, ()),
    "turan": (turan, ("n", "l", "r")),
    "bipartite3": (bipartite3, ("n",)), "even_quad": (even_quad, ("n",)),
    "odd_bipartite": (odd_bipartite, ("n", "r", "m")),
    "semibipartite": (semibipartite, ("n", "r")),
    "gen_triangle": (gen_triangle, ("r",)),
    "expansion_complete": (lambda l, r: expansion_complete(l + 1, r),
                           ("l", "r")),
    "expansion_of": (expansion_of, ()),
    "tree_expansion": (tree_expansion, ("r",)),
    "expanded_triangle": (expanded_triangle, ("r",)),
    "matching": (matching_graph, ("k", "r")),
    "sunflower": (sunflower, ("k", "r")),
    "bgraph": (bgraph, ("r", "l")),
}
_PAYLOADS = {"expansion_of": "a hypergraph",
             "tree_expansion": "a tree edge-list"}


def construct(spec: ZooSpec) -> Hypergraph:
    """Build the hypergraph described by a ZooSpec.

    Integer parameters live in spec.params under their usual letters
    (n, l, r, m, k); `l` is the part/clique parameter, so
    expansion_complete uses l+1 original vertices and bgraph l+1 vertices
    total.  Unknown names, parameters or a payload the construction does
    not take, and missing, non-int (bools included) or invalid parameters
    raise ValueError.
    """
    if spec.name not in _CONSTRUCTORS:
        raise ValueError(f"unknown zoo name: {spec.name}")
    build, keys = _CONSTRUCTORS[spec.name]
    unknown = [str(k) for k in spec.params if k not in keys]
    if spec.payload is not None and spec.name not in _PAYLOADS:
        unknown.append("payload")
    if unknown:
        raise ValueError(f"{spec.name} does not take: {', '.join(unknown)}")
    missing = [k for k in keys if k not in spec.params and k != "m"]
    if missing:
        raise ValueError(f"{spec.name} needs parameters: {', '.join(missing)}")
    typed = [k for k, v in spec.params.items() if type(v) is not int]
    if typed:  # not isinstance: Python counts True and False as ints
        raise ValueError(f"{spec.name} needs int parameters: {', '.join(typed)}")
    args = [spec.params.get(k) for k in keys]
    if spec.name in _PAYLOADS:
        if spec.payload is None or isinstance(spec.payload, Hypergraph) != (
                spec.name == "expansion_of"):
            raise ValueError(f"{spec.name} needs {_PAYLOADS[spec.name]} payload")
        args.insert(0, spec.payload)
    return build(*args)


def chromatic_number(g: Hypergraph) -> int:
    """Exact chromatic number of a 2-graph by backtracking (n <= 16)."""
    if g.r != 2:
        raise ValueError("chromatic_number requires uniformity 2")
    if g.n > 16:
        raise BudgetExceededError("chromatic_number budget is n <= 16")
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    degs = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-degs[v], v))
    rank = {v: i for i, v in enumerate(order)}
    earlier = [[] for _ in range(g.n)]  # already-colored neighbors, by rank
    for u, v in g.edges:
        if rank[u] < rank[v]:
            earlier[rank[v]].append(rank[u])
        else:
            earlier[rank[u]].append(rank[v])
    color = [-1] * g.n

    # colorable recurses through its argument: no closure refers to itself
    def colorable(again, i: int, used: int, k: int) -> bool:
        if i == g.n:
            return True
        for c in range(min(used + 1, k)):
            if all(color[j] != c for j in earlier[i]):
                color[i] = c
                if again(again, i + 1, max(used, c + 1), k):
                    return True
        color[i] = -1
        return False

    for k in range(2, g.n + 1):
        if colorable(colorable, 0, 0, k):
            return k
    return g.n


def is_edge_critical(g: Hypergraph) -> bool:
    """True iff deleting some single edge lowers the chromatic number."""
    if not g.edges:
        raise ValueError("is_edge_critical requires at least one edge")
    chi = chromatic_number(g)
    for e in g.edges:
        if chromatic_number(g.without_edges([e])) < chi:
            return True
    return False
