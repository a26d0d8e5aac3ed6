"""Embedding / packing searches against brute-force oracles."""

from itertools import combinations
from math import perm

import pytest
from hypothesis import example, given, settings, strategies as st

from turankit.core import Hypergraph, complete, disjoint_union, join
from turankit.errors import BudgetExceededError
from turankit.matching import (
    _copies, _dfs, _embeddings, _links, _plan, embed, has_disjoint_config,
    is_free, matching_number, rainbow_matching,
)
from turankit.solver import _Searcher, config_of
from turankit.zoo import bipartite3, fano, turan

from oracles import (
    all_copies, automorphism_count, brute_has_config, brute_matching_number,
    cycle_graph, reference_copies, reference_dfs, reference_embed,
    reference_solver_copies, relabel, turan_graph,
)

K3 = complete(3, 2)
K2 = complete(2, 2)


def small_2graphs(max_n=7, max_edges=10):
    @st.composite
    def build(draw):
        n = draw(st.integers(3, max_n))
        pool = list(combinations(range(n), 2))
        k = draw(st.integers(0, min(max_edges, len(pool))))
        idx = draw(st.permutations(range(len(pool))))
        return Hypergraph(n, 2, tuple(sorted(pool[i] for i in idx[:k])))
    return build()


@st.composite
def small_rgraphs(draw, r, min_n, max_n, min_edges=0):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), r))
    keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
    edges = tuple(e for e, k in zip(pool, keep) if k) or tuple(pool[:min_edges])
    return Hypergraph(n, r, edges)


@st.composite
def pattern_host_forbidden(draw):
    r = draw(st.sampled_from([2, 3]))
    f = draw(small_rgraphs(r, r, 6, min_edges=1))
    h = draw(small_rgraphs(r, f.n, 10))
    return f, h, draw(st.sets(st.integers(0, h.n - 1), max_size=3))


@settings(max_examples=200)
@given(pattern_host_forbidden())
@example((Hypergraph(4, 2, ((0, 1), (0, 2), (1, 2))), complete(7, 2), {0}))
def test_enumerator_matches_reference_backtracks(fhx):
    # embed and _copies read the shared enumerator; both must reproduce
    # the backtracks they replaced, embeddings and order included
    f, h, forbidden = fhx
    got = embed(f, h, forbidden)
    assert (got and got.mapping) == reference_embed(f, h, forbidden)
    assert [(m, k, e.mapping) for m, k, e in _copies(f, h)] == reference_copies(f, h)


@st.composite
def pattern_and_complete_host(draw):
    r = draw(st.sampled_from([2, 3]))
    f = draw(small_rgraphs(r, r, 6, min_edges=1))
    # keep the n!/(n-v)! reference walk at most 8!/2!
    n = draw(st.integers(0, max(m for m in range(11) if perm(m, f.n) <= 20160)))
    return f, n


@given(pattern_and_complete_host())
def test_complete_host_one_embedding_per_copy(fn):
    f, n = fn
    host = set(combinations(range(n), f.r))
    maps = list(_embeddings(f, n, host))
    copies = {(frozenset(tuple(sorted(m[v] for v in e)) for e in f.edges),
               frozenset(m)) for m in maps}
    assert len(copies) == len(maps) == perm(n, f.n) // automorphism_count(f)
    s = _Searcher(n, config_of([(f, 1)]))
    g = s.config.families[0][0]
    got, ref = s.fams[0][0], reference_solver_copies(g, n)
    if all(g.degrees()):
        assert got == ref
    else:  # the old vertex mask dropped isolated vertices
        assert sorted({em for em, _ in got}) == sorted(em for em, _ in ref)
        assert all(bin(vm).count("1") == g.n for _, vm in got)


@st.composite
def nearly_complete(draw, r, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), r))
    drop = draw(st.sets(st.integers(0, len(pool) - 1), max_size=4))
    return Hypergraph(n, r, tuple(e for i, e in enumerate(pool)
                                  if i not in drop))


@st.composite
def dfs_inputs(draw):
    """A search over a pattern's plan: a host given as a set or as an
    edge -> index dict (as the solver passes it); candidate lists that are
    either `_embeddings`' own, the vertices outside a blocked set with
    enough degree, or arbitrary, single vertices among them; and the
    plan's lex bounds or arbitrary ones.  Returns (f, n, edges, cands,
    lows, blocked), blocked None unless the search is the one
    `_embeddings` makes."""
    r = draw(st.sampled_from([1, 2, 3, 4]))
    f = draw(small_rgraphs(r, r, 5))  # isolated vertices included
    _, lows, degs, _ = _plan(f)
    h = draw(st.one_of(small_rgraphs(r, f.n, 7), st.just(f),
                       nearly_complete(r, f.n, 7)))
    edges = ({e: i for i, e in enumerate(h.edges)} if draw(st.booleans())
             else set(h.edges))
    blocked = None
    if draw(st.booleans()):
        blocked = draw(st.sets(st.integers(0, h.n - 1), max_size=3))
        hdegs = h.degrees()
        cands = [[w for w in range(h.n) if w not in blocked and hdegs[w] >= d]
                 for d in degs]
    else:
        # one position in four pinned to a single vertex
        cands = [sorted(draw(st.sets(st.integers(0, h.n - 1), min_size=1,
                                     max_size=1 if draw(st.integers(0, 3)) == 0
                                     else None)))
                 for _ in range(f.n)]
    if draw(st.booleans()):
        blocked = None
        lows = [sorted(draw(st.sets(st.integers(0, k - 1)))) if k else []
                for k in range(f.n)]
    return f, h.n, edges, cands, lows, blocked


@settings(max_examples=300)
@given(dfs_inputs())
def test_dfs_matches_reference(search):
    # the link-bitset kernel yields the probing walk's assignments, order
    # included, whoever the caller; `_embeddings` reads its copies off them
    f, n, edges, cands, lows, blocked = search
    checks, _, _, where = _plan(f)
    ref = [list(a) for a in reference_dfs(checks, lows, cands, edges)]
    masks = [sum(1 << w for w in ws) for ws in cands]
    got = [list(a) for a in _dfs(checks, lows, masks, _links(n, edges)[0])]
    assert got == ref
    if blocked is not None:
        assert list(_embeddings(f, n, edges, blocked)) == [
            tuple(a[k] for k in where) for a in ref]


def test_embed_examples():
    assert embed(K3, turan_graph(6, 2)) is None
    e = embed(K3, complete(5, 2), forbidden=(0, 1))
    assert e is not None and set(e.mapping) <= {2, 3, 4}
    assert embed(K3, complete(5, 2)) is not None
    with pytest.raises(ValueError):
        embed(K3, complete(5, 3))


def test_embed_validity_and_completeness():
    # embeddings map pattern edges to host edges; existence agrees with
    # the exhaustive copy enumeration
    hosts = [cycle_graph(6), turan_graph(7, 3), complete(6, 2),
             Hypergraph(6, 2, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)))]
    patterns = [K2, K3, cycle_graph(4), cycle_graph(5),
                Hypergraph(3, 2, ((0, 1), (1, 2)))]
    for h in hosts:
        for f in patterns:
            e = embed(f, h)
            assert (e is None) == (len(all_copies(f, h)) == 0)
            if e is not None:
                assert len(set(e.mapping)) == f.n
                for edge in f.edges:
                    assert h.has_edge(tuple(sorted(e.mapping[v] for v in edge)))


def test_fano_avoids_two_part_triples():
    for n in range(7, 11):
        assert is_free(fano(), bipartite3(n))


def test_matching_number_examples():
    assert matching_number(K3, complete(9, 2))[0] == 3
    assert matching_number(K3, join(1, turan(8, 2, 2)))[0] == 1
    assert matching_number(K2, cycle_graph(5))[0] == 2
    assert matching_number(fano(), bipartite3(10))[0] == 0


def test_matching_witness_is_valid():
    nu, w = matching_number(K3, complete(9, 2))
    assert nu == len(w) == 3
    seen = set()
    for entry in w.entries:
        assert len(entry.vertices) == 3
        assert not (set(entry.vertices) & seen)
        seen.update(entry.vertices)
        assert sorted(entry.embedding.mapping) == list(entry.vertices)


def test_matching_cap():
    nu, w = matching_number(K3, complete(9, 2), cap=1)
    assert nu == 1 and len(w) == 1
    assert matching_number(K3, complete(9, 2), cap=7)[0] == 3
    with pytest.raises(ValueError):
        matching_number(K3, K3, cap=-1)


@given(small_2graphs())
def test_matching_number_matches_bruteforce(h):
    assert matching_number(K3, h)[0] == brute_matching_number(K3, h)
    assert matching_number(K2, h)[0] == brute_matching_number(K2, h)


@given(small_2graphs(max_n=6), st.data())
def test_matching_monotone_under_edge_addition(h, data):
    missing = [e for e in combinations(range(h.n), 2) if not h.has_edge(e)]
    if not missing:
        return
    e = data.draw(st.sampled_from(missing))
    assert matching_number(K3, h.with_edges([e]))[0] >= matching_number(K3, h)[0]


def test_matching_upper_bound_by_size():
    for h in (complete(9, 2), turan_graph(8, 2), cycle_graph(7)):
        assert matching_number(K3, h)[0] <= h.n // 3


def test_disjoint_config_examples():
    w = has_disjoint_config(complete(7, 2), [(K3, 2)])
    assert w is not None and len(w) == 2
    assert has_disjoint_config(join(1, turan(8, 2, 2)), [(K3, 2)]) is None
    # isomorphic families merge: demands add up across both entries
    mix = disjoint_union([(complete(6, 2), 1), (complete(3, 2), 1)])
    w = has_disjoint_config(mix, [(K3, 1), (K3, 2)])
    assert w is not None and len(w) == 3
    assert {e.family for e in w.entries} == {0}
    sets = w.vertex_sets()
    assert all(not (a & b) for a, b in combinations(sets, 2))


def test_disjoint_config_mixed_families():
    h = disjoint_union([(complete(4, 2), 1), (complete(3, 2), 1)])
    w = has_disjoint_config(h, [(complete(4, 2), 1), (K3, 1)])
    assert w is not None and len(w) == 2
    assert has_disjoint_config(h, [(complete(4, 2), 2)]) is None


@given(small_2graphs(max_n=6), st.integers(1, 3))
def test_config_agrees_with_matching_number(h, t):
    got = has_disjoint_config(h, [(K3, t)]) is not None
    assert got == (matching_number(K3, h, cap=t)[0] >= t)
    assert got == brute_has_config(h, [(K3, t)])


def test_rainbow_examples():
    assert rainbow_matching([complete(9, 2)] * 2, K3) is not None
    g = join(1, turan(8, 2, 2))
    assert rainbow_matching([g, g], K3) is None
    assert rainbow_matching([turan_graph(9, 2), complete(9, 2)], K3) is None


def test_rainbow_witness_structure():
    w = rainbow_matching([complete(9, 2)] * 3, K3)
    assert w is not None
    assert [e.host for e in w.entries] == [0, 1, 2]
    sets = w.vertex_sets()
    assert all(not (a & b) for a, b in combinations(sets, 2))


def test_rainbow_identical_hosts_iff_matching():
    for h in (complete(9, 2), join(1, turan(8, 2, 2)), turan_graph(9, 2)):
        nu = matching_number(K3, h)[0]
        for t in range(1, 4):
            got = rainbow_matching([h] * t, K3) is not None
            assert got == (nu >= t)


def test_rainbow_too_many_hosts():
    assert rainbow_matching([complete(9, 2)] * 4, K3) is None
    with pytest.raises(ValueError):
        rainbow_matching([complete(9, 2), complete(8, 2)], K3)


def test_budget_guard():
    # the copy budget bounds the packings, not the host size: K17 holds
    # 680 triangles, K16 holds 52 416 five-cycles
    assert matching_number(K3, complete(17, 2))[0] == 5
    assert has_disjoint_config(complete(17, 2), [(K3, 5)]) is not None
    with pytest.raises(BudgetExceededError, match="copies"):
        matching_number(cycle_graph(5), complete(16, 2))
    with pytest.raises(BudgetExceededError, match="copies"):
        rainbow_matching([complete(16, 2)], cycle_graph(5))


def test_relabeling_invariance():
    h = join(1, turan(8, 2, 2))
    perm = tuple(reversed(range(9)))
    assert matching_number(K3, relabel(h, perm))[0] == matching_number(K3, h)[0]
