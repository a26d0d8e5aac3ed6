"""Canonical-augmentation enumeration tests.

The independent recount oracle below shares no code with the engine: it
grows graphs breadth-first and deduplicates classes by brute-force
least relabeling over the degree-sorting relabelings, with feasibility
from the exhaustive config check.  The differential tests compare the
engine with its marked-canonical-form predecessor and its
vertex-profile-keyed predecessor, class by class, and with a reference
of the same sorted-degree edge key, graph by graph.
"""

from dataclasses import FrozenInstanceError
from itertools import combinations

import pytest

from hypothesis import example, given, settings, strategies as st

from oracles import (
    brute_has_config,
    degree_edge_keys,
    degree_sorted_relabeling,
    min_relabeling,
    reference_free_graphs,
    reference_key_walk,
    reference_scan_free_graphs,
)

from turankit import genfree
from turankit.core import Hypergraph, canonical_form, complete
from turankit.genfree import count_free, free_graphs
from turankit.solver import config_of

K3 = complete(3, 2)
K4 = complete(4, 2)
EDGE2 = complete(2, 2)

# class counts of triangle-free graphs on n vertices; the BFS oracle
# below independently reproduces every value up to n = 7, and the n = 8
# value is frozen from the engine after those cross-checks passed
TRIANGLE_FREE_COUNTS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107, 8: 410}


def bfs_recount_classes(n, r, families):
    """One degree-sorted least-relabeling representative per feasible
    class."""
    universe = list(combinations(range(n), r))
    level = {()}
    seen = {()}
    while level:
        nxt = set()
        for edges in level:
            present = set(edges)
            for e in universe:
                if e in present:
                    continue
                h = Hypergraph(n, r, tuple(sorted(edges + (e,))))
                if brute_has_config(h, families):
                    continue
                nxt.add(degree_sorted_relabeling(h))
        level = nxt - seen
        seen |= nxt
    return seen


def test_triangle_free_counts():
    cfg = config_of([(K3, 1)])
    for n in range(1, 8):
        assert count_free(n, cfg) == TRIANGLE_FREE_COUNTS[n]


def test_triangle_free_count_eight():
    assert count_free(8, config_of([(K3, 1)])) == TRIANGLE_FREE_COUNTS[8]


def test_triangle_free_count_nine():
    assert count_free(9, config_of([(K3, 1)])) == 1897  # OEIS A006785


def test_recount_matches_oracle_class_sets():
    # full dual-route check: same classes, not merely the same count
    for families in (((K3, 1),), ((K4, 1),), ((EDGE2, 2),)):
        for n in (4, 5, 6):
            oracle = bfs_recount_classes(n, 2, families)
            engine = {degree_sorted_relabeling(g)
                      for g in free_graphs(n, config_of(list(families)))}
            assert engine == oracle


def test_recount_n7():
    oracle = bfs_recount_classes(7, 2, ((K3, 1),))
    assert len(oracle) == 107
    assert count_free(7, config_of([(K3, 1)])) == len(oracle)


def test_degree_sorted_relabeling_matches_min_relabeling():
    # the recount's class key splits every graph with n <= 5 exactly as
    # the full n! minimum does
    for r in (2, 3):
        for n in range(6):
            universe = list(combinations(range(n), r))
            pairs = set()
            for bits in range(1 << len(universe)):
                g = Hypergraph(n, r, tuple(e for i, e in enumerate(universe)
                                           if bits >> i & 1))
                pairs.add((degree_sorted_relabeling(g), min_relabeling(g)))
            assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)


@st.composite
def small_configs(draw):
    """A forbidden configuration that fits on n vertices, so it bites."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 6))
    families = []
    room = n
    for _ in range(draw(st.integers(1, 2))):
        if room < r:
            break
        v = draw(st.integers(r, min(room, 5)))
        t = draw(st.integers(1, min(2, room // v)))
        room -= t * v
        pool = list(combinations(range(v), r))
        edges = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=min(4, len(pool)), unique=True))
        families.append((Hypergraph(v, r, tuple(edges)), t))
    return n, config_of(families)


@settings(max_examples=30)  # the reference takes up to 4 s per draw
@given(small_configs())
@example((6, config_of([(complete(4, 3), 1)])))  # 964 classes
def test_matches_marked_form_reference(case):
    n, cfg = case
    engine = [canonical_form(g).edges for g in free_graphs(n, cfg)]
    reference = [canonical_form(g).edges for g in reference_free_graphs(n, cfg)]
    assert len(set(engine)) == len(engine)
    assert set(engine) == set(reference)


@settings(max_examples=30)
@given(small_configs())
def test_matches_profile_reference(case):
    # the same classes as when edges were keyed by vertex profiles
    n, cfg = case
    engine = [canonical_form(g).edges for g in free_graphs(n, cfg)]
    reference = [canonical_form(g).edges
                 for g in reference_scan_free_graphs(n, cfg)]
    assert len(set(engine)) == len(engine)
    assert set(engine) == set(reference)


@settings(max_examples=30)
@given(small_configs())
def test_matches_scan_reference_exactly(case):
    # the same graphs, labels and order as the sorted-degree reference
    n, cfg = case
    engine = [g.edges for g in free_graphs(n, cfg)]
    assert engine == [g.edges for g in
                      reference_scan_free_graphs(n, cfg, degree_edge_keys)]


def test_matches_scan_reference_exactly_triangle_free_eight():
    cfg = config_of([(K3, 1)])
    engine = [g.edges for g in free_graphs(8, cfg)]
    assert len(engine) == TRIANGLE_FREE_COUNTS[8]
    assert engine == [g.edges for g in
                      reference_scan_free_graphs(8, cfg, degree_edge_keys)]


def test_matches_scan_reference_exactly_on_dense_inputs():
    # the dense generate inputs of the benchmark: every graph on 7
    # vertices and every 3-graph on 6 vertices (the reference takes ~2 s)
    for n, r, classes in ((7, 2, 1044), (6, 3, 2136)):
        cfg = config_of([(complete(n + 1, r), 1)])
        engine = [g.edges for g in free_graphs(n, cfg)]
        assert len(engine) == classes
        assert engine == [g.edges for g in
                          reference_scan_free_graphs(n, cfg, degree_edge_keys)]


def test_pinned_scan_count(monkeypatch):
    # a graph is scanned only when a choice reads its scan: when two or
    # more of its candidate edges pass the sorted-degree key (the orbit
    # split), or when its own added edge ties with another edge under
    # that key (the tie-break); 457 when every accepted graph and every
    # child passing the key was scanned
    calls = []
    scan = genfree.refinement_scan

    def counted(n, edges):
        calls.append(n)
        return scan(n, edges)

    monkeypatch.setattr(genfree, "refinement_scan", counted)
    assert count_free(8, config_of([(K3, 1)])) == TRIANGLE_FREE_COUNTS[8]
    assert len(calls) == 342


@st.composite
def parent_graphs(draw):
    """(n, r, edges): an r-graph with r in 1..4 on n <= 8 vertices, drawn
    sparse or as the complement of a sparse draw."""
    r = draw(st.integers(1, 4))
    n = draw(st.integers(0, 8))
    pool = list(combinations(range(n), r))
    drawn = set(draw(st.lists(st.sampled_from(pool), unique=True))
                if pool else [])
    dense = draw(st.booleans())
    return n, r, tuple(e for e in pool if (e in drawn) != dense)


@settings(max_examples=300)
@given(parent_graphs())
# no edges; every r-set but one; a matching and an isolated vertex; the
# path P4, whose two ends of least degree make one candidate; a star and
# a 3-graph whose least-degree vertices no non-edge holds
@example((6, 2, ()))
@example((5, 2, tuple(e for e in combinations(range(5), 2) if e != (1, 3))))
@example((7, 2, ((0, 1), (2, 3), (4, 5))))
@example((4, 2, ((0, 1), (1, 2), (2, 3))))
@example((5, 2, ((0, 1), (0, 2), (0, 3), (0, 4))))
@example((6, 3, ((0, 1, 2), (0, 1, 3), (0, 4, 5))))
def test_star_mask_candidates(case):
    # the star mask is exactly the non-edges whose added edge passes the
    # first entry of the sorted-degree key; every candidate of the old
    # walk over the whole universe lies in it, and the walk over the mask
    # keeps the same candidates, in order, with the same tied edges
    n, r, edges = case
    universe = list(combinations(range(n), r))
    mask = sum(1 << universe.index(e) for e in edges)
    deg = [sum(v in e for e in edges) for v in range(n)]
    star = [sum(1 << i for i, e in enumerate(universe) if v in e)
            for v in range(n)]
    cands = genfree._key_candidates(deg, star, mask)
    first = 0
    for i, e in enumerate(universe):
        child = [d + (v in e) for v, d in enumerate(deg)]
        if e not in edges and all(min(child[v] for v in e) <= min(child[v] for v in f)
                                  for f in edges):
            first |= 1 << i
    assert cands == first
    want = reference_key_walk(universe, mask, edges, deg)
    assert all(cands >> universe.index(e) & 1 for e in want)
    span = {e: sum(1 << v for v in e) for e in universe}
    got = genfree._key_survivors(universe, cands, span, edges, deg)
    assert list(got.items()) == [(e, tied) for e, (tied, _) in want.items()]


def test_yielded_graphs_are_plain_values():
    # graphs built without the constructor's checks equal, and hash like,
    # checked ones and stay frozen
    one_triple = Hypergraph(3, 3, ((0, 1, 2),))
    for n, cfg in ((7, config_of([(K3, 1)])), (5, config_of([(one_triple, 2)]))):
        for g in free_graphs(n, cfg):
            checked = Hypergraph(g.n, g.r, g.edges)
            assert g == checked and hash(g) == hash(checked)
            with pytest.raises(FrozenInstanceError):
                g.n = 0


def test_output_is_isomorph_free_and_feasible():
    cfg = config_of([(K3, 1), (EDGE2, 3)])
    out = list(free_graphs(6, cfg))
    forms = {canonical_form(g).graph() for g in out}
    assert len(forms) == len(out)
    for g in out:
        assert not brute_has_config(g, cfg.families)


def test_deterministic_order():
    cfg = config_of([(K3, 1)])
    first = [g.edges for g in free_graphs(6, cfg)]
    second = [g.edges for g in free_graphs(6, cfg)]
    assert first == second


def test_triples_enumeration():
    one_triple = Hypergraph(3, 3, ((0, 1, 2),))
    cfg = config_of([(one_triple, 2)])
    out = list(free_graphs(5, cfg))
    # hosts may contain at most one pair of disjoint triples... at n=5 no
    # two triples are disjoint, so every 3-graph on 5 vertices qualifies
    forms = {canonical_form(g).graph() for g in out}
    assert len(forms) == len(out)
    oracle = bfs_recount_classes(5, 3, cfg.families)
    assert len(out) == len(oracle)
