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
labeling.  A graph is scanned only when a choice reads the scan.  Every
candidate first walks the parent's edges ranked by key and is dropped
when its added edge would not have the least key; degrees and the key
are invariants, so the survivors are a union of orbits, the least
survivor of each orbit is its representative, and the parent is scanned
for the split only when two or more candidates survive.  A child is
scanned only when its added edge ties with another edge under the key,
and that scan is reused as its own parent scan.  Feasibility (no
forbidden realization) is checked on the representatives only; it is
downward closed, so the tree never needs to look above an infeasible
graph.
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


def free_graphs(n: int, config: ForbiddenConfig) -> Iterator[Hypergraph]:
    """All feasible graphs on n labeled vertices, one per isomorphism
    class, in nondecreasing edge-count order along each branch."""
    s = _Searcher(n, config)
    universe = s.edges

    def visit(mask: int, edges: tuple, scan: Optional[Scan],
              deg: list) -> Iterator[Hypergraph]:
        yield Hypergraph._unchecked(n, s.r, edges)  # sorted universe entries
        # the parent's (key, edge) pairs in increasing order; adding an
        # edge never lowers a key, so a child's walk stops at the first
        # parent key above the key of its added edge
        ranked = sorted([(sorted([deg[v] for v in e]), e) for e in edges])
        passed = {}  # candidate -> (its edges tied with it, child degrees)
        for i, e in enumerate(universe):
            if mask >> i & 1:
                continue
            child_deg = list(deg)
            for v in e:
                child_deg[v] += 1
            key_added = sorted([child_deg[v] for v in e])
            tied = [e]
            for key, f in ranked:
                if key > key_added:
                    break
                key = sorted([child_deg[v] for v in f])
                if key < key_added:
                    tied = None
                    break
                if key == key_added:
                    tied.append(f)
            if tied is not None:
                passed[e] = tied, child_deg
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
            tied, child_deg = passed[e]
            child_edges = tuple(sorted(edges + (e,)))
            child_scan = None
            if len(tied) > 1:  # is e in the orbit of the least image?
                child_scan = refinement_scan(n, child_edges)
                perm = child_scan.perm
                least = min(tied, key=lambda t: sorted(perm[v] for v in t))
                if e not in _orbit(least, child_scan.generators):
                    continue
            yield from visit(child_mask, child_edges, child_scan, child_deg)

    yield from visit(0, (), None, [0] * n)


def count_free(n: int, config: ForbiddenConfig) -> int:
    return sum(1 for _ in free_graphs(n, config))
