"""Immutable r-uniform hypergraph values with exact arithmetic.

Conventions:
- vertices are the contiguous integers 0..n-1 (file formats use the same
  0-based indexing);
- an edge is a strictly increasing r-tuple of vertex indices;
- the edge list is kept lexicographically sorted and duplicate-free;
- derived averages are `fractions.Fraction` — no floating point in this
  module.

The ".hg" text format: first non-comment line is `n r`; every following
non-comment line lists the r vertices of one edge separated by spaces;
`#` starts a comment.  Edges need not be sorted in the file; they are
normalized on load.  Serialization emits the stored graph's sorted edge
list (no relabeling).
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .canon import canonical_labeling, refinement_scan
from .errors import FormatError

Edge = tuple[int, ...]


def _normalize_edge(edge: Iterable[int], n: int, r: int) -> Edge:
    e = tuple(sorted(edge))
    if len(e) != r:
        raise ValueError(f"edge {e} has {len(e)} vertices, expected {r}")
    for i, v in enumerate(e):
        # not isinstance: Python counts True and False as ints
        if type(v) is not int or v < 0 or v >= n:
            raise ValueError(f"edge {e} uses vertex {v} outside 0..{n - 1}")
        if i > 0 and e[i - 1] == v:
            raise ValueError(f"edge {e} repeats vertex {v}")
    return e


@dataclass(frozen=True)
class Hypergraph:
    """An n-vertex r-uniform hypergraph; a pure value, hashable and ordered
    deterministically by (n, r, edges)."""

    n: int
    r: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.r < 1:
            raise ValueError("uniformity must be at least 1")
        norm = sorted(_normalize_edge(e, self.n, self.r) for e in self.edges)
        for a, b in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _unchecked(cls, n: int, r: int, edges: tuple[Edge, ...]) -> "Hypergraph":
        """The graph without `__post_init__`'s checks, for internal callers
        whose `edges` is already a sorted, duplicate-free tuple of
        increasing r-tuples over 0..n-1.  Never for outside data."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, r=r, edges=edges)
        return g

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, edge: Iterable[int]) -> bool:
        e = tuple(sorted(edge))
        i = bisect_left(self.edges, e)
        return i < len(self.edges) and self.edges[i] == e

    def degrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return tuple(degs)

    def degree_profile(self) -> "DegreeProfile":
        degs = self.degrees()
        if self.n == 0:
            return DegreeProfile((), 0, 0, Fraction(0))
        return DegreeProfile(
            per_vertex=degs,
            minimum=min(degs),
            maximum=max(degs),
            average=Fraction(self.r * len(self.edges), self.n),
        )

    # -- derived graphs ------------------------------------------------

    def link(self, v: int) -> "Hypergraph":
        """The (r-1)-graph on the other n-1 vertices (relabeled, order
        preserving) whose edges are e - {v} for each edge e containing v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        if self.r == 1:
            raise ValueError("link of a 1-uniform hypergraph is not representable")
        relabel = {u: (u if u < v else u - 1) for u in range(self.n) if u != v}
        edges = [tuple(sorted(relabel[u] for u in e if u != v))
                 for e in self.edges if v in e]
        return Hypergraph(self.n - 1, self.r - 1, tuple(edges))

    def induced(self, vertices: Iterable[int]) -> "Hypergraph":
        """Subgraph on the given vertex set, relabeled to 0..|S|-1
        preserving the original order."""
        s = sorted(set(vertices))
        for v in s:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        relabel = {v: i for i, v in enumerate(s)}
        edges = [tuple(relabel[u] for u in e) for e in self.edges
                 if all(u in relabel for u in e)]
        return Hypergraph(len(s), self.r, tuple(edges))

    def with_edges(self, extra: Iterable[Iterable[int]]) -> "Hypergraph":
        new = set(self.edges)
        new.update(_normalize_edge(e, self.n, self.r) for e in extra)
        return Hypergraph(self.n, self.r, tuple(sorted(new)))

    def without_edges(self, drop: Iterable[Iterable[int]]) -> "Hypergraph":
        gone = {tuple(sorted(e)) for e in drop}
        return Hypergraph(self.n, self.r,
                          tuple(e for e in self.edges if e not in gone))

    def relabeled(self, perm: Sequence[int]) -> "Hypergraph":
        """Apply the vertex permutation perm[old] = new."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("not a permutation of the vertex set")
        edges = [tuple(sorted(perm[v] for v in e)) for e in self.edges]
        return Hypergraph(self.n, self.r, tuple(edges))


@dataclass(frozen=True)
class DegreeProfile:
    """Per-vertex degrees with exact min/max/average."""

    per_vertex: tuple[int, ...]
    minimum: int
    maximum: int
    average: Fraction


@dataclass(frozen=True)
class CanonicalForm:
    """A canonical relabeling: applying `permutation` (old -> new) to the
    source graph gives `edges`; isomorphic graphs share `edges` and hash."""

    n: int
    r: int
    permutation: tuple[int, ...]
    edges: tuple[Edge, ...]
    hash64: int

    @property
    def hash_hex(self) -> str:
        return f"{self.hash64:016x}"

    def graph(self) -> Hypergraph:
        return Hypergraph(self.n, self.r, self.edges)


def content_hash64(n: int, r: int, edges: Sequence[Edge]) -> int:
    """Stable 64-bit digest of a (n, r, edge list) triple."""
    text = f"{n}|{r}|" + ";".join(",".join(map(str, e)) for e in edges)
    digest = hashlib.blake2b(text.encode("ascii"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# -- constructors ------------------------------------------------------


def empty(n: int, r: int) -> Hypergraph:
    return Hypergraph(n, r, ())


def complete(n: int, r: int) -> Hypergraph:
    """K_n^r: all C(n,r) edges (none when n < r)."""
    return Hypergraph(n, r, tuple(combinations(range(n), r)))


def join(t: int, g: Hypergraph) -> Hypergraph:
    """Add t apex vertices 0..t-1: g shifted up by t, plus every r-set
    meeting the apex set.  |result| = C(t+g.n, r) - C(g.n, r) + |g|."""
    if t < 0:
        raise ValueError("apex count must be nonnegative")
    return general_join(complete(t, g.r), g)


def general_join(g: Hypergraph, h: Hypergraph) -> Hypergraph:
    """Disjoint union of g and h plus every r-set meeting both sides."""
    if g.r != h.r:
        raise ValueError("uniformities differ")
    n = g.n + h.n
    r = g.r
    edges = list(g.edges)
    edges += [tuple(v + g.n for v in e) for e in h.edges]
    for e in combinations(range(n), r):
        if e[0] < g.n and e[-1] >= g.n:
            edges.append(e)
    return Hypergraph(n, r, tuple(edges))


def disjoint_union(parts: Sequence[tuple[Hypergraph, int]]) -> Hypergraph:
    """Vertex-disjoint union of each graph repeated `multiplicity` times,
    relabeled consecutively.  Empty input gives the empty 1-graph."""
    rs = {g.r for g, _ in parts}
    if len(rs) > 1:
        raise ValueError("uniformities differ")
    r = rs.pop() if rs else 1
    edges: list[Edge] = []
    offset = 0
    for g, mult in parts:
        if mult < 0:
            raise ValueError("multiplicity must be nonnegative")
        for _ in range(mult):
            edges += [tuple(v + offset for v in e) for e in g.edges]
            offset += g.n
    return Hypergraph(offset, r, tuple(edges))


# -- canonical forms ---------------------------------------------------


@lru_cache(maxsize=1 << 16)
def _canonical_form_cached(g: Hypergraph) -> CanonicalForm:
    perm, edges = canonical_labeling(g.n, g.edges)
    return CanonicalForm(g.n, g.r, perm, edges, content_hash64(g.n, g.r, edges))


def canonical_form(g: Hypergraph) -> CanonicalForm:
    """Deterministic canonical relabeling; isomorphic graphs (same n, r)
    receive identical canonical edge lists."""
    return _canonical_form_cached(g)


def _class_key(g: Hypergraph) -> tuple:
    """Equal exactly for isomorphic graphs: (n, r) and the refinement
    scan's certificate, without `canonical_form`'s lex-min search."""
    return g.n, g.r, refinement_scan(g.n, g.edges).edges


def are_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    return _class_key(g) == _class_key(h)


# -- .hg text format ---------------------------------------------------


def loads_hg(text: str) -> Hypergraph:
    rows: list[list[int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    if not rows:
        raise FormatError("missing header line 'n r'")
    header = rows[0]
    if len(header) != 2:
        raise FormatError("header line must be exactly 'n r'")
    n, r = header
    try:
        return Hypergraph(n, r, tuple(tuple(row) for row in rows[1:]))
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def dumps_hg(g: Hypergraph, comment: str = "") -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"{g.n} {g.r}")
    for e in g.edges:
        lines.append(" ".join(map(str, e)))
    return "\n".join(lines) + "\n"


def load_hg(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_hg(fh.read())


def dump_hg(g: Hypergraph, path, comment: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_hg(g, comment))
