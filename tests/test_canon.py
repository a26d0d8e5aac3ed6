"""The phase-1 refinement scan: its generators generate the whole
automorphism group, and its certificate is an isomorphism invariant.
Its refinement splits any ordered partition as the tuple-code reference
does.  Phase 2 returns the same labeling as its pooled-bound reference,
fast on inputs that bound pruned poorly, and in pinned node counts.
Neither phase leaves garbage for the cyclic collector."""

import gc
import random
import sys
import time
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from turankit import canon
from turankit.canon import (
    _moved, _OrbitOracle, _refine, canonical_labeling, refinement_scan,
)
from turankit.core import (
    Hypergraph, canonical_form, complete, disjoint_union, empty, join,
)

from oracles import (
    ReferenceOrbitOracle, _reference_refine, automorphism_count, cycle_graph,
    fano_graph, group_order, reference_canonical_labeling,
    reference_refinement_scan, relabel,
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

K33 = Hypergraph(6, 2, tuple((u, v) for u in range(3) for v in range(3, 6)))

# roots whose every cell is a twin class, so the scan needs no search: the
# star K_{1,8}, K_{3,4}, K2 joined to 7 isolated vertices (15 edges), and
# two triples sharing a pair beside three isolated vertices
TWIN_ROOTS = [
    join(1, empty(8, 2)),
    Hypergraph(7, 2, tuple((u, v) for u in range(3) for v in range(3, 7))),
    join(2, empty(7, 2)),
    Hypergraph(7, 3, ((0, 1, 2), (0, 1, 3))),
]


@st.composite
def small_hypergraphs(draw, max_n=7):
    r = draw(st.sampled_from([1, 2, 3, 4]))
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
# the root is the degree classes: one class for the regular C6, K_{3,3}
# and Fano plane, a class of isolated vertices, and a 1-uniform graph
@example(cycle_graph(6))
@example(K33)
@example(fano_graph())
@example(Hypergraph(8, 2, ((0, 1), (1, 2), (3, 4))))
@example(Hypergraph(6, 1, ((0,), (2,), (3,))))
@example(TWIN_ROOTS[0])
@example(TWIN_ROOTS[1])
@example(TWIN_ROOTS[2])
@example(TWIN_ROOTS[3])
def test_scan_matches_reference(g):
    # the same generators in the same order, the same least leaf
    assert refinement_scan(g.n, g.edges) == reference_refinement_scan(g.n, g.edges)


def test_twin_root_needs_no_search(monkeypatch):
    # the root is refined once and the scan returns its one leaf; the
    # path P4 (ends 0 and 3 share a cell but are no twins) still searches
    calls = []
    refine = canon._refine

    def counted(*args):
        calls.append(1)
        return refine(*args)

    monkeypatch.setattr(canon, "_refine", counted)
    assert len(TWIN_ROOTS[2].edges) == 15
    for g in TWIN_ROOTS:
        calls.clear()
        refinement_scan(g.n, g.edges)
        assert len(calls) == 1
    calls.clear()
    refinement_scan(4, ((0, 1), (1, 2), (2, 3)))
    assert len(calls) > 1


def partition(oracle, n):
    classes = {}
    for v in range(n):
        classes.setdefault(oracle._find(v), set()).add(v)
    return {frozenset(c) for c in classes.values()}


@settings(max_examples=200)
@given(small_hypergraphs(max_n=8), st.data())
def test_orbit_oracle_matches_reference(g, data):
    # the generators of a scan, as moved points, give the reference's
    # orbits for any base, also when they arrive in two batches
    n = g.n
    generators = refinement_scan(n, g.edges).generators
    base = data.draw(st.sets(st.integers(0, max(n - 1, 0))) if n else st.just(set()))
    moved = [_moved(gen) for gen in generators]
    for gen, (support, pairs) in zip(generators, moved):
        assert support == sum(1 << a for a in range(n) if gen[a] != a)
    want = partition(ReferenceOrbitOracle(n, generators, tuple(sorted(base))), n)
    oracle = _OrbitOracle(n, sum(1 << b for b in base))
    oracle.update(moved[:data.draw(st.integers(0, len(moved)))])
    oracle.update(moved)
    assert partition(oracle, n) == want


@st.composite
def ordered_partitions(draw):
    """(n, edges, cells): an r-graph with r in 1..4 on n <= 10 vertices
    and an arbitrary ordered partition of its vertices into sorted cells."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, 10))
    pool = list(combinations(range(n), r))
    edges = sorted(draw(st.lists(st.sampled_from(pool), unique=True))) if pool else []
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    return n, edges, [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=300)
@given(ordered_partitions())
# edges lying wholly in one cell: the whole vertex set as one cell, and
# cells that are edges themselves, listed out of degree order
@example((6, [(0, 1, 2), (0, 3, 4), (3, 4, 5)], [[0, 1, 2, 3, 4, 5]]))
@example((7, [(0, 1, 2), (0, 1, 3), (4, 5, 6)], [[4, 5, 6], [3], [0, 1, 2]]))
@example((9, [(0, 1, 2, 3), (4, 5, 6, 7), (0, 4, 5, 8)],
          [[8], [4, 5, 6, 7], [0, 1, 2, 3]]))
def test_refine_matches_tuple_code_reference(case):
    # the weighted edge codes split and order cells exactly as sorted
    # cell tuples do
    n, edges, cells = case
    incident = [[i for i, e in enumerate(edges) if v in e] for v in range(n)]
    incident_edges = [[edges[i] for i in idx] for idx in incident]
    assert (_refine(n, edges, incident, [list(c) for c in cells])
            == _reference_refine(n, incident_edges, [list(c) for c in cells]))


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


@settings(max_examples=100)
@given(st.sampled_from([1, 2, 3, 4]), st.integers(0, 8), st.booleans(), st.data())
def test_labeling_matches_reference(r, n, dense, data):
    # the same lex-min edges and the same permutation, so the same
    # config hashes, cache records and solver node counts; `dense` takes
    # the complement, since drawn edge lists are short.  For r = 1 every
    # edge is completed by its one vertex, so no edge has a placed prefix
    pool = list(combinations(range(n), r))
    drawn = set(data.draw(st.lists(st.sampled_from(pool), unique=True)
                          if pool else st.just([])))
    edges = tuple(e for e in pool if (e in drawn) != dense)
    assert canonical_labeling(n, edges) == reference_canonical_labeling(n, edges)


# (graph, whether its phase-1 certificate is already the lex-min form).
# The path 02 12, K_{3,4} and K_{3,4} plus a triangle on its larger side
# are labeled as the solver stores them: the greedy dive's H is their
# lex-min form, the certificate is not, so phase 2 must still return the
# first leaf it reaches at the minimum and not the dive's.  K_1 + K_{4,4},
# the 2K3@9 witness with the apex last, has neither at the minimum.  For
# K_{3,3} both are; for K_{2,4} plus a 4-cycle on its larger side the
# certificate is and H is not, so the phase-1 perm comes back
INCUMBENT_CASES = [
    (Hypergraph(3, 2, ((0, 2), (1, 2))), False),
    (Hypergraph(7, 2, tuple((u, v) for u in range(3) for v in range(3, 7))),
     False),
    (Hypergraph(7, 2, tuple((u, v) for u in range(3) for v in range(3, 7))
                + ((4, 5), (4, 6), (5, 6))), False),
    (Hypergraph(9, 2, tuple((u, v) for u in range(4) for v in range(4, 8))
                + tuple((v, 8) for v in range(8))), False),
    (K33, True),
    (Hypergraph(6, 2, tuple((u, v) for u in range(2) for v in range(2, 6))
                + ((2, 4), (2, 5), (3, 4), (3, 5))), True),
]


def test_labeling_matches_reference_on_symmetric_graphs():
    for g in SYMMETRIC + [g for g, _ in INCUMBENT_CASES]:
        assert (canonical_labeling(g.n, g.edges)
                == reference_canonical_labeling(g.n, g.edges))
    for g, seed_is_min in INCUMBENT_CASES:
        form = canonical_labeling(g.n, g.edges)
        scan = refinement_scan(g.n, g.edges)
        assert (scan.edges == form[1]) == seed_is_min
        if seed_is_min:
            assert form[0] == scan.perm


def count_phase_two_nodes(g: Hypergraph) -> int:
    """Calls of `canonical_labeling`'s recursive search while labeling g."""
    search = next(c for c in canonical_labeling.__code__.co_consts
                  if getattr(c, "co_name", None) == "search")
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is search:
            calls.append(1)

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        canonical_labeling(g.n, g.edges)
    finally:
        sys.setprofile(outer)
    return len(calls)


def test_pinned_phase_two_node_count():
    # the greedy incumbent H cuts subtrees above it before phase 2 finds
    # a good leaf of its own: 87 nodes for K_1 + K_{4,4} and 8 for the
    # path when phase 2 started from the phase-1 certificate alone, and 38
    # for K_1 + K_{4,4} when the dive's key was the search's own
    assert count_phase_two_nodes(INCUMBENT_CASES[3][0]) == 15
    assert count_phase_two_nodes(INCUMBENT_CASES[0][0]) == 5


def test_sparse_graph_on_high_labels_is_fast():
    # two triples sharing a pair, shuffled: the pooled bound ignored
    # which labels an undecided edge already had and took 6.8 s here
    n = 20
    perm = list(range(n))
    random.Random(1).shuffle(perm)
    g = Hypergraph(n, 3, ((0, 1, 2), (0, 1, 3))).relabeled(perm)
    t0 = time.perf_counter()
    assert canonical_form(g).edges == ((0, 1, 2), (0, 1, 3))
    assert time.perf_counter() - t0 < 1.0


def test_random_twelve_vertex_pair_is_fast():
    # the G(12, 1/2) pair of the CLI's iso test: no automorphism, so no
    # orbit pruning; the pooled bound took about a minute for the two forms
    rng = random.Random(5)
    g = Hypergraph(12, 2, tuple(e for e in combinations(range(12), 2)
                                if rng.random() < 0.5))
    perm = list(range(12))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    t0 = time.perf_counter()
    assert canonical_form(g).edges == canonical_form(h).edges
    assert time.perf_counter() - t0 < 5.0


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
