from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turankit.canon import canonical_labeling, refinement_scan
from turankit.core import (
    Hypergraph,
    are_isomorphic,
    canonical_form,
    complete,
    content_hash64,
    disjoint_union,
    dumps_hg,
    empty,
    general_join,
    join,
    loads_hg,
)
from turankit.errors import FormatError

from oracles import (
    brute_isomorphic,
    cycle_graph,
    fano_graph,
    min_relabeling,
    path_graph,
    reference_are_isomorphic,
    reference_content_hash64,
    relabel,
    turan_graph,
)


@st.composite
def hypergraphs(draw, max_n=6, max_r=3):
    n = draw(st.integers(min_value=0, max_value=max_n))
    r = draw(st.integers(min_value=1, max_value=max_r))
    pool = list(combinations(range(n), r))
    if pool:
        edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    else:
        edges = []
    return Hypergraph(n, r, tuple(edges))


# -- construction and validation ----------------------------------------


def test_edges_are_normalized():
    g = Hypergraph(4, 2, ((3, 1), (0, 2), (1, 0)))
    assert g.edges == ((0, 1), (0, 2), (1, 3))


def test_validation_errors():
    with pytest.raises(ValueError):
        Hypergraph(3, 2, ((0, 3),))  # vertex out of range
    with pytest.raises(ValueError):
        Hypergraph(3, 2, ((1, 1),))  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(3, 2, ((0, 1), (1, 0)))  # duplicate edge
    with pytest.raises(ValueError):
        Hypergraph(3, 2, ((0, 1, 2),))  # wrong arity
    with pytest.raises(ValueError):
        Hypergraph(3, 0, ())
    with pytest.raises(ValueError):
        Hypergraph(-1, 2, ())


@pytest.mark.parametrize("edge", [(True, 2), (0, True), (False, 1)])
def test_bool_vertices_are_refused(edge):
    # True == 1 and False == 0, but a vertex is an int, not a bool
    with pytest.raises(ValueError, match="uses vertex"):
        Hypergraph(3, 2, (edge,))


def test_has_edge():
    g = turan_graph(5, 2)
    assert g.has_edge((3, 0))
    assert not g.has_edge((0, 1))


def test_complete_counts():
    assert complete(4, 2).edge_count == 6
    assert complete(3, 3).edge_count == 1
    assert complete(2, 3).edge_count == 0
    assert empty(5, 3).edge_count == 0


# -- join / union / induced / link ---------------------------------------


def test_join_examples():
    t42 = turan_graph(4, 2)
    j = join(1, t42)
    assert (j.n, j.edge_count) == (5, 8)
    g = cycle_graph(5)
    assert join(0, g) == g
    j2 = join(2, empty(4, 3))
    assert (j2.n, j2.edge_count) == (6, 16)


@given(st.integers(0, 3), hypergraphs(max_n=5))
def test_join_edge_count_identity(t, g):
    j = join(t, g)
    n = t + g.n
    assert j.edge_count == comb(n, g.r) - comb(g.n, g.r) + g.edge_count
    assert j.n == n


@pytest.mark.parametrize("t", range(4))
@pytest.mark.parametrize("r", [2, 3])
def test_join_matches_the_apex_edge_loop(t, r):
    # join is general_join with a complete apex part: the same graph as
    # g shifted up by t plus every r-set meeting the apex set
    cycle = tuple(tuple(sorted((i + j) % 5 for j in range(r)))
                  for i in range(5))
    for g in (empty(5, r), Hypergraph(5, r, cycle), complete(4, r)):
        edges = [tuple(v + t for v in e) for e in g.edges]
        edges += [e for e in combinations(range(t + g.n), r) if e[0] < t]
        assert join(t, g) == Hypergraph(t + g.n, r, tuple(edges))


def test_general_join_examples():
    k1 = complete(1, 2)
    assert general_join(k1, k1).edges == ((0, 1),)
    gj = general_join(turan_graph(2, 2), turan_graph(3, 2))
    assert (gj.n, gj.edge_count) == (5, 9)
    g = cycle_graph(6)
    assert general_join(g, empty(0, 2)) == g


def test_disjoint_union_examples():
    k3 = complete(3, 2)
    two = disjoint_union([(k3, 2)])
    assert (two.n, two.edge_count) == (6, 6)
    mix = disjoint_union([(k3, 1), (complete(2, 2), 1)])
    assert (mix.n, mix.edge_count) == (5, 4)
    assert disjoint_union([]).n == 0


def test_induced_examples():
    assert are_isomorphic(complete(5, 2).induced({0, 1, 2}), complete(3, 2))
    g = fano_graph()
    assert g.induced(range(7)) == g
    b35 = Hypergraph(5, 3, tuple(e for e in combinations(range(5), 3)
                                 if any(v < 2 for v in e) and any(v >= 2 for v in e)))
    assert b35.induced({2, 3, 4}).edge_count == 0


@given(hypergraphs())
def test_induced_composes(g):
    s = [v for v in range(g.n) if v % 2 == 0]
    t = list(range(len(s)))[: max(0, len(s) - 1)]
    once = g.induced(s).induced(t)
    direct = g.induced([s[i] for i in t])
    assert once == direct


def test_link_examples():
    k43 = complete(4, 3)
    lk = k43.link(0)
    assert (lk.n, lk.r, lk.edge_count) == (3, 2, 3)
    m22 = Hypergraph(4, 2, ((0, 1), (2, 3)))
    lv = m22.link(0)
    assert (lv.r, lv.edges) == (1, ((0,),))
    fano_link = fano_graph().link(1)
    # vertex 1 lies on three lines; their residual pairs are disjoint
    assert fano_link.edge_count == 3
    assert len({v for e in fano_link.edges for v in e}) == 6
    with pytest.raises(ValueError):
        lv.link(0)  # r = 1 has no link


@given(hypergraphs())
def test_link_size_is_degree(g):
    degs = g.degrees()
    for v in range(g.n):
        if g.r >= 2:
            assert g.link(v).edge_count == degs[v]


# -- degrees -------------------------------------------------------------


def test_degree_examples():
    t82 = turan_graph(8, 2)
    assert set(t82.degrees()) == {4}
    assert set(fano_graph().degrees()) == {3}
    assert set(empty(4, 2).degrees()) == {0}
    prof = t82.degree_profile()
    assert (prof.minimum, prof.maximum, prof.average) == (4, 4, Fraction(4))


@given(hypergraphs())
def test_degree_sum(g):
    assert sum(g.degrees()) == g.r * g.edge_count
    if g.n:
        prof = g.degree_profile()
        assert prof.minimum <= prof.average <= prof.maximum


# -- canonical forms and isomorphism --------------------------------------


def test_canonical_matches_exhaustive_minimum():
    for g in [turan_graph(5, 2), cycle_graph(5), path_graph(5),
              fano_graph(), complete(4, 3)]:
        assert canonical_form(g).edges == min_relabeling(g)


@settings(max_examples=300)
@given(st.sampled_from([2, 3]), st.integers(0, 6), st.data())
def test_canonical_form_is_exhaustive_minimum(r, n, data):
    # the lex-min phase against the n! minimum on random small graphs
    pool = list(combinations(range(n), r))
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True)
                      if pool else st.just([]))
    g = Hypergraph(n, r, tuple(edges))
    cf = canonical_form(g)
    assert cf.edges == min_relabeling(g)
    assert relabel(g, cf.permutation).edges == cf.edges


def test_canonical_invariant_under_relabeling():
    rng = random.Random(7)
    base = canonical_form(fano_graph()).edges
    for _ in range(100):
        perm = list(range(7))
        rng.shuffle(perm)
        assert canonical_form(relabel(fano_graph(), perm)).edges == base


def test_canonical_permutation_is_witness():
    g = turan_graph(6, 3)
    cf = canonical_form(g)
    assert relabel(g, cf.permutation).edges == cf.edges


def test_non_isomorphic_pairs():
    assert canonical_form(cycle_graph(5)).hash64 != canonical_form(path_graph(5)).hash64
    c6 = cycle_graph(6)
    two_k3 = disjoint_union([(complete(3, 2), 2)])
    assert sorted(c6.degrees()) == sorted(two_k3.degrees())
    assert not are_isomorphic(c6, two_k3)
    assert not are_isomorphic(turan_graph(6, 2), turan_graph(6, 3))


def test_isomorphic_pairs():
    rng = random.Random(3)
    perm = list(range(7))
    rng.shuffle(perm)
    assert are_isomorphic(fano_graph(), relabel(fano_graph(), perm))


@given(hypergraphs(max_n=5), st.randoms(use_true_random=False))
def test_iso_agrees_with_bruteforce(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    if rnd.random() < 0.5 and g.edges:
        h = h.without_edges([h.edges[rnd.randrange(len(h.edges))]])
    assert are_isomorphic(g, h) == brute_isomorphic(g, h)


def _toggled(g: Hypergraph, e: tuple) -> Hypergraph:
    if g.has_edge(e):
        return g.without_edges([e])
    return g.with_edges([e])


@given(st.integers(2, 3), st.integers(0, 8), st.data(),
       st.randoms(use_true_random=False))
def test_iso_agrees_with_lex_min_reference(r, n, data, rnd):
    pool = list(combinations(range(n), r))
    edges = data.draw(st.lists(st.sampled_from(pool), unique=True)
                      if pool else st.just([]))
    g = Hypergraph(n, r, tuple(edges))
    perm = list(range(n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    pairs = [(g, h)]
    if pool:
        # one r-set toggled in h; and toggled in both, which keeps the
        # edge counts equal when both toggles add or both remove
        h2 = _toggled(h, rnd.choice(pool))
        pairs += [(g, h2), (_toggled(g, rnd.choice(pool)), h2)]
    for a, b in pairs:
        assert are_isomorphic(a, b) == reference_are_isomorphic(a, b)
    assert are_isomorphic(g, h)


def test_edgeless_graphs_skip_the_scan():
    # the labeling the scan's one leaf gave, for every small edgeless graph
    for n in range(7):
        scan = refinement_scan(n, ())
        assert canonical_labeling(n, ()) == (scan.perm, scan.edges) \
            == (tuple(range(n)), ())
        for r in (1, 2, 3):
            g = Hypergraph(n, r)
            assert canonical_form(g).edges == min_relabeling(g)
            assert are_isomorphic(g, Hypergraph(n, r))
            assert not are_isomorphic(g, Hypergraph(n + 1, r))
    # and no n - 1 transpositions of length n are built on the way
    g = Hypergraph(1000, 2)
    tracemalloc.start()
    try:
        form = canonical_form(g)
        same = are_isomorphic(g, Hypergraph(1000, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert form.permutation == tuple(range(1000)) and form.edges == ()
    assert same and peak < 1 << 20


# -- digests --------------------------------------------------------------


@given(hypergraphs(max_n=7))
def test_content_hash_matches_hashlib_reference(g):
    assert content_hash64(g.n, g.r, g.edges) \
        == reference_content_hash64(g.n, g.r, g.edges)
    form = canonical_form(g)
    assert form.hash64 == reference_content_hash64(g.n, g.r, form.edges)


# -- hg format ------------------------------------------------------------


def test_hg_roundtrip():
    g = fano_graph()
    assert loads_hg(dumps_hg(g, comment="fano")) == g


def test_hg_normalizes_and_skips_comments():
    text = "# demo\n4 2\n\n3 1  # an edge\n0 2\n"
    assert loads_hg(text).edges == ((0, 2), (1, 3))


def test_hg_format_errors():
    for bad in ["", "4\n", "4 2\n0 1 2\n", "x y\n", "3 2\n0 9\n"]:
        with pytest.raises(FormatError):
            loads_hg(bad)
