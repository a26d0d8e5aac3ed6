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

Both filters read one `canon.refinement_scan` per graph: its generators
generate the automorphism group, and its least-leaf relabeled edge list
is an isomorphism invariant, so the chosen orbit does not depend on the
labeling.  An accepted child's scan is reused as its own parent scan;
a child whose added edge does not have the least key is rejected before
its feasibility check and its scan, by a walk over the parent's edges
ranked by key.  Feasibility (no forbidden realization) is downward
closed, so the tree never needs to look above an infeasible graph.
Everything is deterministic; one graph per isomorphism class is yielded
in the generated labeling.
"""

from __future__ import annotations

from typing import Iterator

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

    def visit(mask: int, edges: tuple, scan: Scan,
              deg: list) -> Iterator[Hypergraph]:
        yield Hypergraph(n, s.r, edges)
        candidates = [e for i, e in enumerate(universe) if not mask >> i & 1]
        # the parent's (key, edge) pairs in increasing order; adding an
        # edge never lowers a key, so a child's walk stops at the first
        # parent key above the key of its added edge
        ranked = sorted([(sorted([deg[v] for v in e]), e) for e in edges])
        for e in _orbit_representatives(candidates, scan.generators):
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
            child_mask = mask | (1 << s.index[e])
            if tied is None or not s.is_feasible(child_mask):
                continue
            child_edges = tuple(sorted(edges + (e,)))
            child_scan = refinement_scan(n, child_edges)
            if len(tied) > 1:  # is e in the orbit of the least image?
                perm = child_scan.perm
                least = min(tied, key=lambda t: sorted(perm[v] for v in t))
                if e not in _orbit(least, child_scan.generators):
                    continue
            yield from visit(child_mask, child_edges, child_scan, child_deg)

    yield from visit(0, (), refinement_scan(n, ()), [0] * n)


def count_free(n: int, config: ForbiddenConfig) -> int:
    return sum(1 for _ in free_graphs(n, config))
