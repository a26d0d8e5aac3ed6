"""The phase-1 refinement scan: its generators generate the whole
automorphism group, and its certificate is an isomorphism invariant.
Neither phase leaves garbage for the cyclic collector."""

import gc
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from turankit.canon import canonical_labeling, refinement_scan
from turankit.core import Hypergraph, complete, disjoint_union, empty, join

from oracles import (
    automorphism_count, group_order, reference_refinement_scan, relabel,
)

# graphs whose automorphisms are mostly twin swaps or every permutation
SYMMETRIC = [
    empty(0, 2), empty(1, 2), empty(7, 2), empty(6, 3),
    complete(7, 2), complete(6, 3), complete(3, 3),
    Hypergraph(7, 2, ((0, 1),)),                      # five isolated vertices
    Hypergraph(7, 3, ((0, 1, 2), (0, 1, 3))),         # four isolated vertices
    join(3, empty(4, 2)),                             # K_{3,4}-like twins
    join(1, empty(6, 2)),                             # star
    disjoint_union([(complete(2, 2), 3)]),            # three disjoint edges
    disjoint_union([(complete(3, 2), 2)]),
    Hypergraph(7, 2, tuple((u, v) for u, v in combinations(range(7), 2)   # K_{3,4}
                           if (u < 3) != (v < 3) or u >= 5)),           # plus an edge
]


@st.composite
def small_hypergraphs(draw, max_n=7):
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(0, max_n))
    pool = list(combinations(range(n), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    return Hypergraph(n, r, tuple(edges))


def check_generators(g: Hypergraph) -> None:
    scan = refinement_scan(g.n, g.edges)
    own = set(g.edges)
    for gen in scan.generators:
        assert sorted(gen) == list(range(g.n))
        assert {tuple(sorted(gen[v] for v in e)) for e in g.edges} == own
    assert group_order(g.n, scan.generators) == automorphism_count(g)


def test_generators_generate_aut_on_symmetric_graphs():
    for g in SYMMETRIC:
        check_generators(g)


@settings(max_examples=200)
@given(small_hypergraphs())
def test_generators_generate_aut(g):
    check_generators(g)


def test_scan_matches_reference_on_symmetric_graphs():
    for g in SYMMETRIC:
        assert refinement_scan(g.n, g.edges) == reference_refinement_scan(g.n, g.edges)


@settings(max_examples=200)
@given(small_hypergraphs(max_n=8))
def test_scan_matches_reference(g):
    # the same generators in the same order, the same least leaf
    assert refinement_scan(g.n, g.edges) == reference_refinement_scan(g.n, g.edges)


@settings(max_examples=100)
@given(small_hypergraphs(), st.randoms(use_true_random=False))
@example(empty(5, 2), None)
@example(complete(6, 2), None)
def test_certificate_is_invariant_under_relabeling(g, rnd):
    perm = list(range(g.n))
    if rnd is not None:
        rnd.shuffle(perm)
    scan = refinement_scan(g.n, g.edges)
    assert relabel(g, scan.perm).edges == scan.edges
    assert refinement_scan(g.n, relabel(g, perm).edges).edges == scan.edges


def test_labeling_leaves_no_cyclic_garbage():
    # recursive closures used to refer to themselves, so every call left
    # its search state for the cyclic collector
    g = join(1, disjoint_union([(complete(3, 2), 1), (complete(2, 2), 2)]))
    assert g.n == 8
    gc.collect()
    gc.disable()
    try:
        for labeling in (refinement_scan, canonical_labeling):
            labeling(g.n, g.edges)
            assert gc.collect() == 0
    finally:
        gc.enable()
