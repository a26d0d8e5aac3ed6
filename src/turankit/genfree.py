"""Isomorph-free enumeration of feasible graphs by canonical augmentation.

The generation tree roots at the empty graph; a child adds one edge.
Two filters keep the output isomorph-free without a seen-set (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998):

* parent side — the candidate r-sets (non-edges) are split into orbits
  of the parent's automorphism group, and one representative per orbit
  is tried;
* child side — an augmented graph is accepted only when the added edge
  lies in its canonical-deletion orbit: among the edges whose key (the
  sorted degrees of their vertices, an isomorphism invariant) is least,
  the one whose image under the least-leaf labeling of the refinement
  scan is smallest, taken with its orbit under the child's
  automorphisms.

Both filters read the graph's `canon.refinement_scan`: its generators
generate the automorphism group, and its least-leaf relabeled edge list
is an isomorphism invariant, so the chosen orbit does not depend on the
labeling.  A graph is scanned only when a choice reads the scan.  The
candidates whose added edge can have the least key, read off the star
masks of the searcher's r-set universe (`solver._Searcher` owns its
`star` and `spans` tables), first walk the parent's edges ranked by key
and are dropped when the added edge would not have the least key;
degrees and the key are invariants, so the survivors are a union of
orbits, the least survivor of each orbit is its representative, and the
parent is scanned for the split only when two or more candidates
survive.  A child is scanned only when its added edge ties with another
edge under the key, and that scan is reused as its own parent scan.
Feasibility (no forbidden realization) is checked on the representatives
only; it is downward closed, so the tree never needs to look above an
infeasible graph.
Everything is deterministic; one graph per isomorphism class is yielded
in the generated labeling.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .canon import Scan, refinement_scan
from .core import Hypergraph
from .solver import ForbiddenConfig, _Searcher


def _orbit(s: tuple, generators) -> set:
    """The orbit of the r-set `s` under the group the generators generate."""
    orbit = {s}
    stack = [s]
    while stack:
        t = stack.pop()
        for g in generators:
            u = tuple(sorted(map(g.__getitem__, t)))
            if u not in orbit:
                orbit.add(u)
                stack.append(u)
    return orbit


def _orbit_representatives(candidates: list, generators) -> list:
    """The least candidate r-set of each automorphism orbit; `candidates`
    is in increasing order and closed under the generators."""
    if not generators:
        return candidates
    reps = []
    seen: set = set()
    for s in candidates:
        if s not in seen:
            reps.append(s)
            seen |= _orbit(s, generators)
    return reps


def _key_candidates(deg: list, star: list, mask: int) -> int:
    """The non-edges (universe bits off in `mask`; star[v] is the bitset
    of the r-sets at v) whose added edge passes the first entry of the
    sorted-degree key, its least degree plus one.  A vertex w outside the
    added edge keeps its degree, and an edge at w has a key whose first
    entry is at most deg[w], so the added edge passes exactly when its
    least degree plus one is at most every positive degree outside it:
    when it meets an isolated vertex, or holds every vertex of least
    positive degree."""
    lowest = min([d for d in deg if d], default=0)
    meets = 0
    holds = -1 if lowest else 0
    for v, d in enumerate(deg):
        if not d:
            meets |= star[v]
        elif d == lowest:
            holds &= star[v]
    return (meets | holds) & ~mask


def _key_survivors(universe: list, cands: int, span: dict, edges: tuple,
                   deg: list) -> dict:
    """Each candidate (a bit of `cands`, lowest first) whose added edge
    has the least sorted-degree key in the child, mapped to the child's
    edges tied with it, itself first.  `span` maps an edge to its vertex
    bitset.  The parent's (key, edge) pairs are ranked once; adding an
    edge never lowers a key, so a walk stops at the first parent key
    above the added edge's, and an edge missing the added one keeps its
    parent key."""
    ranked = sorted([(sorted([deg[v] for v in f]), f, span[f]) for f in edges])
    passed = {}
    while cands:
        low = cands & -cands
        cands ^= low
        e = universe[low.bit_length() - 1]
        added = span[e]
        key_added = sorted([deg[v] + 1 for v in e])
        tied = [e]
        for key, f, f_span in ranked:
            if key > key_added:
                break
            if f_span & added:
                key = sorted([deg[v] + (added >> v & 1) for v in f])
            if key < key_added:
                tied = None
                break
            if key == key_added:
                tied.append(f)
        if tied is not None:
            passed[e] = tied
    return passed


def free_graphs(n: int, config: ForbiddenConfig) -> Iterator[Hypergraph]:
    """All feasible graphs on n labeled vertices, one per isomorphism
    class, in nondecreasing edge-count order along each branch."""
    s = _Searcher(n, config)
    universe, star, span = s.edges, s.star, s.spans

    # visit recurses through its argument: no closure refers to itself
    def visit(again, mask: int, edges: tuple, scan: Optional[Scan],
              deg: list) -> Iterator[Hypergraph]:
        yield Hypergraph._unchecked(n, s.r, edges)  # sorted universe entries
        passed = _key_survivors(universe, _key_candidates(deg, star, mask),
                                span, edges, deg)
        # the survivors are a union of orbits (the key is an invariant):
        # a lone survivor is its own representative and needs no scan
        reps = list(passed)
        if len(reps) > 1:
            if scan is None:
                scan = refinement_scan(n, edges)
            reps = _orbit_representatives(reps, scan.generators)
        for e in reps:
            child_mask = mask | (1 << s.index[e])
            if not s.is_feasible(child_mask):
                continue
            tied = passed[e]
            child_edges = tuple(sorted(edges + (e,)))
            child_scan = None
            if len(tied) > 1:  # is e in the orbit of the least image?
                child_scan = refinement_scan(n, child_edges)
                perm = child_scan.perm
                least = min(tied, key=lambda t: sorted(perm[v] for v in t))
                if e not in _orbit(least, child_scan.generators):
                    continue
            child_deg = list(deg)
            for v in e:
                child_deg[v] += 1
            yield from again(again, child_mask, child_edges, child_scan,
                             child_deg)

    yield from visit(visit, 0, (), None, [0] * n)


def count_free(n: int, config: ForbiddenConfig) -> int:
    return sum(1 for _ in free_graphs(n, config))
