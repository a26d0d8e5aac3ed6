"""Constructor fixtures: exact counts, labelings, and dispatch."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from turankit.core import Hypergraph, are_isomorphic, complete, disjoint_union, empty
from turankit.errors import BudgetExceededError
from turankit.zoo import (
    ZooSpec, bgraph, bipartite3, chromatic_number, construct, even_quad,
    expanded_triangle, expansion_complete, expansion_of, f7, f32, f43, fano,
    gen_triangle, is_edge_critical, matching_graph, odd_bipartite,
    semibipartite, sunflower, tree_expansion, turan,
)

from oracles import (
    brute_chromatic, cycle_graph, reference_bipartite3, reference_even_quad,
    reference_odd_bipartite, reference_semibipartite, reference_turan,
    turan_graph,
)


def test_turan_counts_and_labels():
    assert turan(9, 3, 3).edge_count == 27
    for n in range(2, 9):
        assert turan(n, 2, 2).edges == turan_graph(n, 2).edges
    # fewer parts than the uniformity leaves nothing
    assert turan(6, 2, 3).edge_count == 0
    # larger parts come first: 10 = 4 + 3 + 3
    g = turan(10, 3, 2)
    assert all(not g.has_edge((u, v)) for u, v in combinations(range(4), 2))


# (construction, its filter-over-r-sets oracle, argument tuples); the
# grid is thinned where the oracle's C(n, r) scan gets slow
PART_GRID = [
    (turan, reference_turan,
     [(n, l, r) for n in (*range(13), 16, 19, 22, 25)
      for l in range(1, 7) for r in range(1, 6)]),
    (bipartite3, reference_bipartite3, [(n,) for n in range(2, 26)]),
    (odd_bipartite, reference_odd_bipartite,
     [(n, r) + m for r in range(1, 4)
      for n in range(2 * r, (20, 18, 13)[r - 1])
      for m in [()] + [(m,) for m in range((n + 1) // 2 + 1)]]),
    (even_quad, reference_even_quad, [(n,) for n in range(4, 24)]),
    (semibipartite, reference_semibipartite,
     [(n, r) for r in range(2, 6) for n in range(r, 20)]),
]


@pytest.mark.parametrize("build, oracle, grid", PART_GRID,
                         ids=[b.__name__ for b, _, _ in PART_GRID])
def test_part_constructions_match_filter_oracles(build, oracle, grid):
    # the pattern blowups equal the filters over all r-sets, labels and
    # chosen splits included
    for args in grid:
        assert build(*args) == oracle(*args), args


def test_bipartite3_counts():
    assert bipartite3(7).edge_count == 30
    for n in range(4, 31):
        expect = comb(n, 3) - comb(n // 2, 3) - comb((n + 1) // 2, 3)
        assert bipartite3(n).edge_count == expect


def test_odd_bipartite_explicit_m():
    for m in range(0, 5):
        g = odd_bipartite(8, 2, m)
        a = 4 + m
        brute = [e for e in combinations(range(8), 4)
                 if sum(1 for v in e if v < a) % 2 == 1]
        assert list(g.edges) == brute
    with pytest.raises(ValueError):
        odd_bipartite(8, 2, 5)


def test_odd_bipartite_maximizes():
    # exhaustive scan puts the optimum at first-part size 6 here
    g = odd_bipartite(8, 2)
    assert g.edge_count == 40
    assert g.edge_count == max(
        odd_bipartite(8, 2, m).edge_count for m in range(0, 5))
    # pairs with one endpoint per side form the balanced complete 2-graph
    assert are_isomorphic(odd_bipartite(8, 1), turan(8, 2, 2))


def test_even_quad():
    assert even_quad(8).edge_count == 36
    # n=7 ties at splits 3/4 and 4/3; the larger first part wins
    g = even_quad(7)
    brute = [e for e in combinations(range(7), 4)
             if sum(1 for v in e if v < 4) == 2]
    assert list(g.edges) == brute


def test_semibipartite():
    g = semibipartite(6, 3)
    assert g.edge_count == 12
    brute = [e for e in combinations(range(6), 3)
             if sum(1 for v in e if v < 2) == 1]
    assert list(g.edges) == brute
    assert g.edge_count == max(a * comb(6 - a, 2) for a in range(7))


def test_fano():
    g = fano()
    assert (g.n, g.r, g.edge_count) == (7, 3, 7)
    assert g.degrees() == (3,) * 7
    # any two edges meet in exactly one vertex
    for e, f in combinations(g.edges, 2):
        assert len(set(e) & set(f)) == 1


def test_gen_triangle():
    assert are_isomorphic(gen_triangle(2), complete(3, 2))
    g = gen_triangle(4)
    assert (g.n, g.r, g.edge_count) == (7, 4, 3)
    assert g.edges == ((0, 1, 2, 3), (0, 1, 2, 4), (3, 4, 5, 6))


def test_expansion_complete():
    g = expansion_complete(4, 3)
    assert (g.n, g.edge_count) == (10, 6)
    assert g.n == 4 + (3 - 2) * comb(4, 2)
    assert expansion_complete(4, 2) == complete(4, 2)
    assert expansion_of(empty(4, 3)) == expansion_complete(4, 3)
    with pytest.raises(ValueError):
        expansion_complete(3, 3)


def test_expansion_of():
    two_edges = matching_graph(2, 3)
    g = expansion_of(two_edges)
    # 9 uncovered cross pairs, each spawning one fresh vertex
    assert (g.n, g.edge_count) == (15, 11)
    assert all(g.has_edge(e) for e in two_edges.edges)
    # a graph whose pairs are all covered expands to itself
    assert expansion_of(f32()) == f32()


def test_tree_expansion():
    g = tree_expansion([(0, 1), (1, 2)], 3)
    assert g.edges == ((0, 1, 3), (1, 2, 3))
    star = tree_expansion([(0, 1), (0, 2), (0, 3)], 4)
    assert (star.n, star.r, star.edge_count) == (6, 4, 3)
    with pytest.raises(ValueError):
        tree_expansion([(0, 1), (1, 2), (0, 2)], 3)  # cycle
    with pytest.raises(ValueError):
        tree_expansion([(0, 1), (2, 3)], 3)  # disconnected


def test_expanded_triangle():
    g = expanded_triangle(2)
    assert (g.n, g.r) == (6, 4)
    assert g.edges == ((0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5))
    assert are_isomorphic(expanded_triangle(1), complete(3, 2))


def test_book_fixtures():
    assert f7() == f43()  # identical listings, by construction
    assert (f7().n, f7().r, f7().edge_count) == (7, 4, 5)
    assert (f32().n, f32().r, f32().edge_count) == (5, 3, 4)


def test_matching_and_sunflower():
    m = matching_graph(3, 3)
    assert m.edges == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    s = sunflower(3, 3)
    assert s.edges == ((0, 1, 2), (0, 3, 4), (0, 5, 6))
    assert s.degrees()[0] == 3


def test_bgraph():
    assert bgraph(3, 3).edges == ((0, 1, 2),)
    assert bgraph(2, 3).edges == ((0, 1), (1, 2), (1, 3), (2, 3))
    assert bgraph(2, 4).edge_count == 7
    assert bgraph(3, 4).edges == ((0, 1, 2), (1, 3, 4), (2, 3, 4))
    with pytest.raises(ValueError):
        bgraph(3, 2)


def test_chromatic_examples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(turan(6, 3, 2)) == 3
    assert chromatic_number(complete(4, 2)) == 4
    assert chromatic_number(empty(5, 2)) == 1
    with pytest.raises(ValueError):
        chromatic_number(complete(4, 3))
    with pytest.raises(BudgetExceededError):
        chromatic_number(empty(17, 2))


@given(st.data())
def test_chromatic_matches_bruteforce(data):
    n = data.draw(st.integers(1, 6))
    pool = list(combinations(range(n), 2))
    edges = data.draw(st.sets(st.sampled_from(pool)) if pool else st.just(set()))
    g = Hypergraph(n, 2, tuple(sorted(edges)))
    assert chromatic_number(g) == brute_chromatic(g)


def test_edge_critical():
    assert is_edge_critical(complete(4, 2))
    assert is_edge_critical(cycle_graph(5))
    assert not is_edge_critical(disjoint_union([(complete(3, 2), 2)]))
    with pytest.raises(ValueError):
        is_edge_critical(empty(4, 2))


def test_chromatic_number_budget():
    # a size budget, as everywhere else in the package
    for check in (chromatic_number, is_edge_critical):
        with pytest.raises(BudgetExceededError, match="n <= 16"):
            check(complete(17, 2))


def test_construct_dispatch():
    assert construct(ZooSpec("turan", {"n": 9, "l": 3, "r": 3})).edge_count == 27
    assert construct(ZooSpec("fano")) == fano()
    assert construct(ZooSpec("bipartite3", {"n": 7})).edge_count == 30
    assert construct(ZooSpec("odd_bipartite", {"n": 8, "r": 2})).edge_count == 40
    assert construct(ZooSpec("odd_bipartite", {"n": 8, "r": 2, "m": 0})).edge_count == 32
    assert construct(ZooSpec("even_quad", {"n": 8})).edge_count == 36
    assert construct(ZooSpec("semibipartite", {"n": 6, "r": 3})).edge_count == 12
    assert construct(ZooSpec("gen_triangle", {"r": 2})).edge_count == 3
    assert construct(ZooSpec("expansion_complete", {"l": 3, "r": 3})).n == 10
    assert construct(ZooSpec("expansion_of", payload=empty(4, 3))).n == 10
    assert construct(ZooSpec("tree_expansion", {"r": 3},
                             payload=[(0, 1), (1, 2)])).edge_count == 2
    assert construct(ZooSpec("expanded_triangle", {"r": 2})).n == 6
    assert construct(ZooSpec("f7")) == construct(ZooSpec("f43"))
    assert construct(ZooSpec("f32")).edge_count == 4
    assert construct(ZooSpec("matching", {"k": 2, "r": 3})).n == 6
    assert construct(ZooSpec("sunflower", {"k": 2, "r": 3})).n == 5
    assert construct(ZooSpec("bgraph", {"r": 3, "l": 3})).edge_count == 1
    # deterministic: same spec, same graph
    spec = ZooSpec("odd_bipartite", {"n": 9, "r": 2})
    assert construct(spec) == construct(spec)
    with pytest.raises(ValueError):
        construct(ZooSpec("mystery"))
    with pytest.raises(ValueError):
        construct(ZooSpec("turan", {"n": 5}))
    with pytest.raises(ValueError):
        construct(ZooSpec("expansion_of"))
    # parameters and payloads a construction does not take are refused,
    # by name
    for spec, named in [
            (ZooSpec("fano", {"n": 5}), "n"),
            (ZooSpec("semibipartite", {"n": 6, "r": 3, "R": 4}), "R"),
            (ZooSpec("turan", {"n": 5, "l": 2, "r": 2, "m": 3},
                     payload=[(0, 1)]), "m, payload"),
            (ZooSpec("expansion_of", {"r": 3}, payload=empty(4, 3)), "r"),
            (ZooSpec("bipartite3", {"n": 7}, payload=empty(4, 3)), "payload")]:
        with pytest.raises(ValueError, match=f"does not take: {named}$"):
            construct(spec)
    with pytest.raises(ValueError, match="needs a hypergraph payload"):
        construct(ZooSpec("expansion_of", payload=[(0, 1)]))
    for payload in (None, empty(3, 2)):
        with pytest.raises(ValueError, match="needs a tree edge-list payload"):
            construct(ZooSpec("tree_expansion", {"r": 3}, payload=payload))
    # parameters must be ints, bools included, named by key
    for spec, named in [
            (ZooSpec("turan", {"n": 5, "l": True, "r": 2}), "l"),
            (ZooSpec("odd_bipartite", {"n": 8, "r": 2, "m": True}), "m"),
            (ZooSpec("sunflower", {"k": "3", "r": 2}), "k")]:
        with pytest.raises(ValueError, match=f"needs int parameters: {named}$"):
            construct(spec)
