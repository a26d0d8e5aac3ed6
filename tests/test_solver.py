"""Solver tests: exact values against brute subset scans and published
small Turán numbers, extremal enumeration, seeding, caching, bounds."""

import gc
import json
import os
import sys
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    brute_has_config, brute_max_feasible, reference_find_realization,
    reference_solve, relabel, turan_graph,
)
from turankit.core import Hypergraph, are_isomorphic, complete, empty, join
from turankit.errors import BudgetExceededError
from turankit import matching, solver
from turankit.genfree import free_graphs
from turankit.matching import _bits, has_disjoint_config
from turankit.solver import (
    ForbiddenConfig, TuranRecord, TuranTable, _Searcher, _solve, config_of,
    enumerate_extremal, ex_table, max_edges, pi_upper,
)
from turankit.zoo import bipartite3, chromatic_number, fano, turan

K3 = complete(3, 2)
K4 = complete(4, 2)
EDGE2 = complete(2, 2)
EDGE3 = Hypergraph(3, 3, ((0, 1, 2),))
K3_ISO = Hypergraph(4, 2, K3.edges)  # a triangle plus an isolated vertex


@pytest.fixture
def cache(tmp_path):
    return str(tmp_path / "cache")


def test_config_normalization_merges_isomorphic():
    twisted = relabel(K3, (2, 0, 1))
    cfg = ForbiddenConfig(((K3, 1), (twisted, 2)))
    assert len(cfg.families) == 1
    assert cfg.families[0][1] == 3
    assert cfg.hash_hex() == ForbiddenConfig(((K3, 3),)).hash_hex()
    # two labelings of the path on three vertices are one family too
    p3a = Hypergraph(3, 2, ((0, 1), (1, 2)))
    p3b = Hypergraph(3, 2, ((0, 1), (0, 2)))
    cfg = ForbiddenConfig(((p3a, 1), (p3b, 1)))
    assert len(cfg.families) == 1 and cfg.families[0][1] == 2
    assert cfg.hash_hex() == ForbiddenConfig(((p3a, 2),)).hash_hex()
    # configurations merged before keep their hashes
    assert config_of([(K3, 1)]).hash_hex() == "76e19f39f13b48fa"


def test_config_hash_order_and_relabel_invariant():
    a = ForbiddenConfig(((K3, 1), (EDGE2, 2)))
    b = ForbiddenConfig(((EDGE2, 2), (relabel(K3, (1, 2, 0)), 1)))
    assert a.hash_hex() == b.hash_hex()
    assert a.hash_hex() != ForbiddenConfig(((K3, 1), (EDGE2, 3))).hash_hex()


def test_config_validation():
    with pytest.raises(ValueError):
        ForbiddenConfig(())
    with pytest.raises(ValueError):
        ForbiddenConfig(((K3, 0),))
    with pytest.raises(ValueError):
        ForbiddenConfig(((K3, 1), (EDGE3, 1)))
    with pytest.raises(ValueError):
        ForbiddenConfig(((Hypergraph(3, 2, ()), 1),))


def test_mantel_values(cache):
    cfg = config_of([(K3, 1)])
    for n in range(3, 11):
        rec = max_edges(n, cfg, cache_dir=cache)
        assert rec.status == "exact"
        assert rec.value == n * n // 4
        assert rec.upper == rec.value


def test_mantel_extremal_unique(cache):
    cfg = config_of([(K3, 1)])
    for n in range(3, 8):
        ext = enumerate_extremal(n, cfg, cache_dir=cache)
        assert len(ext) == 1
        assert are_isomorphic(ext[0], turan(n, 2, 2))


def test_turan_k4_table(cache):
    tab = ex_table(config_of([(K4, 1)]), 4, 8, cache_dir=cache)
    assert [tab.value(n) for n in tab.ns] == [5, 8, 12, 16, 21]
    for n in tab.ns:
        assert tab.value(n) == turan(n, 3, 2).edge_count


def test_erdos_gallai_instances(cache):
    for n, t, want in [(6, 1, 5), (6, 2, 10), (7, 1, 6), (7, 2, 11),
                       (8, 2, 13)]:
        rec = max_edges(n, config_of([(EDGE2, t + 1)]), cache_dir=cache)
        assert rec.value == want == max(comb2(2 * t + 1),
                                        comb2(n) - comb2(n - t))


def comb2(n):
    return n * (n - 1) // 2


def test_triple_matching_instance(cache):
    # two disjoint triples forbidden: max{C(5,3), C(7,3)-C(6,3)} = 15
    rec = max_edges(7, config_of([(EDGE3, 2)]), cache_dir=cache)
    assert rec.value == 15


def test_fano_value(cache):
    rec = max_edges(7, config_of([(fano(), 1)]), bipartite3(7),
                    cache_dir=cache)
    assert rec.value == 30
    assert rec.seeded_lower == 30


def test_fano_extremal_contains_b3(cache):
    ext = enumerate_extremal(7, config_of([(fano(), 1)]), bipartite3(7),
                             cache_dir=cache)
    assert any(are_isomorphic(g, bipartite3(7)) for g in ext)
    assert all(g.edge_count == 30 for g in ext)


def test_moon_instance(cache):
    seed = join(1, turan(8, 2, 2))
    rec = max_edges(9, config_of([(K3, 2)]), seed, cache_dir=cache)
    assert rec.value == 24
    ext = enumerate_extremal(9, config_of([(K3, 2)]), seed, cache_dir=cache)
    assert len(ext) == 1 and are_isomorphic(ext[0], seed)


def test_extremal_graphs_are_feasible(cache):
    cfg = config_of([(K3, 1), (EDGE2, 3)])
    rec = max_edges(6, cfg, cache_dir=cache)
    ext = enumerate_extremal(6, cfg, cache_dir=cache)
    for g in ext:
        assert g.edge_count == rec.value
        assert not brute_has_config(g, cfg.families)
    assert rec.value == brute_max_feasible(6, 2, cfg.families)


@given(st.integers(min_value=3, max_value=6),
       st.sampled_from([((K3, 1),), ((EDGE2, 2),), ((K3, 1), (EDGE2, 2)),
                        ((EDGE2, 3),)]))
@example(6, ((K3_ISO, 2),))  # two disjoint copies need 8 vertices
def test_value_matches_brute(tmp_path_factory, n, families):
    cfg = ForbiddenConfig(families)
    cache = str(tmp_path_factory.mktemp("cache"))
    rec = max_edges(n, cfg, cache_dir=cache)
    assert rec.value == brute_max_feasible(n, 2, families)


def test_seed_validation(cache):
    cfg = config_of([(K3, 1)])
    with pytest.raises(ValueError):
        max_edges(6, cfg, turan(5, 2, 2), cache_dir=cache)
    with pytest.raises(ValueError):
        max_edges(5, cfg, Hypergraph(5, 3, ((0, 1, 2),)), cache_dir=cache)
    # an infeasible seed is dropped, not trusted
    rec = max_edges(5, cfg, complete(5, 2), cache_dir=cache)
    assert rec.value == 6 and rec.seeded_lower == 0


def test_node_limit_gives_bounds(cache):
    cfg = config_of([(K3, 1)])
    rec = max_edges(9, cfg, node_limit=50, cache_dir=cache)
    assert rec.status == "bounds"
    assert rec.value <= 20 <= rec.upper
    # stopped before any feasible leaf: the empty graph still counts
    rec = max_edges(10, cfg, node_limit=1, cache_dir=cache)
    assert rec.status == "bounds"
    assert 0 <= rec.value <= 25 <= rec.upper
    with pytest.raises(BudgetExceededError):
        enumerate_extremal(9, cfg, node_limit=50, cache_dir=cache)
    with pytest.raises(BudgetExceededError):
        ex_table(cfg, 9, 9, node_limit=50, cache_dir=cache)
    with pytest.raises(BudgetExceededError):
        pi_upper(cfg, 9, node_limit=50, cache_dir=cache)


def test_bounds_not_cached(cache):
    cfg = config_of([(K3, 1)])
    partial = max_edges(8, cfg, node_limit=30, cache_dir=cache)
    assert partial.status == "bounds"
    exact = max_edges(8, cfg, cache_dir=cache)
    assert exact.status == "exact" and exact.value == 16


def test_cache_round_trip(cache):
    cfg = config_of([(K3, 1)])
    first = max_edges(7, cfg, cache_dir=cache)
    again = max_edges(7, cfg, cache_dir=cache)
    assert again == first  # reloaded verbatim, not re-searched
    files = os.listdir(cache)
    assert len(files) == 1 and files[0].endswith(".json")


def test_cache_rejects_tampered_records(cache):
    cfg = config_of([(K3, 1)])
    rec = max_edges(6, cfg, cache_dir=cache)
    path = os.path.join(cache, os.listdir(cache)[0])
    with open(path) as fh:
        doc = json.load(fh)
    doc["value"] = 11
    with open(path, "w") as fh:
        json.dump(doc, fh)
    again = max_edges(6, cfg, cache_dir=cache)
    assert again.value == rec.value == 9


def _tamper(cache, **fields) -> str:
    path = os.path.join(cache, os.listdir(cache)[0])
    with open(path) as fh:
        doc = json.load(fh)
    doc.update(fields)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_cache_recomputes_an_exact_record_with_a_wide_bracket(cache):
    cfg = config_of([(K3, 1)])
    rec = max_edges(6, cfg, cache_dir=cache)
    path = _tamper(cache, upper=99)
    assert solver._load(path, 6, cfg) is None
    again = max_edges(6, cfg, cache_dir=cache)
    assert again.status == "exact" and again.value == again.upper == 9
    assert again.extremal == rec.extremal


def test_cache_recomputes_a_record_with_a_non_bool_completeness(cache, monkeypatch):
    # "no" is truthy: read as it stands, the record would pass as complete
    cfg = config_of([(K3, 1)])
    max_edges(6, cfg, cache_dir=cache)
    path = _tamper(cache, extremal_complete="no")
    assert solver._load(path, 6, cfg) is None
    solves = []
    solve = solver._solve
    monkeypatch.setattr(solver, "_solve",
                        lambda *args: solves.append(args) or solve(*args))
    graphs = enumerate_extremal(6, cfg, cache_dir=cache)
    assert len(solves) == 1 and len(graphs) == 1
    assert solver._load(path, 6, cfg).extremal_complete is True


def test_cache_recomputes_an_exact_record_without_graphs(cache):
    # read as it stands: ex = 14 (it is 9), and [] a complete class list
    cfg = config_of([(K3, 1)])
    rec = enumerate_extremal(6, cfg, cache_dir=cache)
    path = _tamper(cache, extremal=[], value=14, upper=14)
    assert solver._load(path, 6, cfg) is None
    assert max_edges(6, cfg, cache_dir=cache).value == 9
    # the value-mode solve stored an incomplete record: tamper it again
    _tamper(cache, extremal=[], value=14, upper=14, extremal_complete=True)
    assert enumerate_extremal(6, cfg, cache_dir=cache) == rec


def test_cache_recomputes_an_exact_record_listing_a_graph_twice(cache):
    cfg = config_of([(K3, 1)])
    rec = enumerate_extremal(6, cfg, cache_dir=cache)
    assert len(rec) == 1
    edges = [list(e) for e in rec[0].edges]
    path = _tamper(cache, extremal=[edges, edges])
    assert solver._load(path, 6, cfg) is None
    assert enumerate_extremal(6, cfg, cache_dir=cache) == rec


def test_cache_recomputes_records_of_other_formats(cache):
    cfg = config_of([(K3_ISO, 2)])
    assert max_edges(6, cfg, cache_dir=cache).value == 15
    path = os.path.join(cache, os.listdir(cache)[0])
    with open(path) as fh:
        doc = json.load(fh)
    # the record the solver wrote before isolated vertices took part in
    # disjointness: value 12, and its 12-edge graph still revalidates
    del doc["format"]
    doc["value"] = doc["upper"] = 12
    doc["extremal"] = [[list(e) for e in complete(6, 2).edges[3:]]]
    doc["extremal_complete"] = False
    for version in (None, solver._FORMAT - 1):
        if version is not None:
            doc["format"] = version
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert max_edges(6, cfg, cache_dir=cache).value == 15


def test_interrupted_cache_write_keeps_previous_record(cache, monkeypatch):
    cfg = config_of([(K3, 1)])
    rec = max_edges(6, cfg, cache_dir=cache)
    name = os.listdir(cache)[0]
    path = os.path.join(cache, name)
    with open(path) as fh:
        before = fh.read()

    def dump_then_fail(doc, fh):
        fh.write('{"format": ')
        raise OSError("disk full")

    monkeypatch.setattr(solver.json, "dump", dump_then_fail)
    with pytest.raises(OSError):
        solver._store(rec, path)
    monkeypatch.undo()
    with open(path) as fh:
        assert fh.read() == before
    assert os.listdir(cache) == [name]
    assert max_edges(6, cfg, cache_dir=cache) == rec


def test_cache_round_trip_at_seventeen(cache, monkeypatch):
    # revalidation runs the packing search under the copy budget alone,
    # so a host of 17 reloads as well
    cfg = config_of([(EDGE2, 2)])
    first = max_edges(17, cfg, cache_dir=cache)
    assert first.value == 16  # Erdős–Gallai: max(C(3,2), C(17,2) - C(16,2))

    def no_search(*args):
        raise AssertionError("searched again")

    monkeypatch.setattr(solver, "_solve", no_search)
    assert max_edges(17, cfg, cache_dir=cache) == first


def test_cache_recomputes_graphs_with_forbidden_copies(cache):
    cfg = config_of([(K3, 1)])
    rec = max_edges(6, cfg, cache_dir=cache)
    path = os.path.join(cache, os.listdir(cache)[0])
    with open(path) as fh:
        doc = json.load(fh)
    # the right edge count, but vertices 0, 1, 2 span a triangle
    bad = complete(6, 2).edges[:rec.value]
    assert brute_has_config(Hypergraph(6, 2, bad), cfg.families)
    doc["extremal"] = [[list(e) for e in bad]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    again = max_edges(6, cfg, cache_dir=cache)
    assert again.value == 9 and again.extremal == rec.extremal
    assert not brute_has_config(again.extremal[0], cfg.families)


def test_cache_recomputes_a_forbidden_graph_at_seventeen(cache, monkeypatch):
    cfg = config_of([(EDGE2, 2)])
    first = max_edges(17, cfg, cache_dir=cache)
    path = os.path.join(cache, os.listdir(cache)[0])
    with open(path) as fh:
        doc = json.load(fh)
    # 16 edges, as the value says, but (0, 3) and (1, 2) are disjoint
    doc["extremal"] = [[[0, v] for v in range(1, 16)] + [[1, 2]]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    solves = []
    real = solver._solve

    def counted(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(solver, "_solve", counted)
    again = max_edges(17, cfg, cache_dir=cache)
    assert len(solves) == 1
    assert again.value == 16 and again.extremal == first.extremal


def test_cache_recheck_stops_at_the_copy_budget(cache, monkeypatch):
    # a hand-made Fano record at n = 13 holding K13^(3): its 51 480 copies
    # of Fano are over the budget, as are those of the solve's K_13
    cfg = config_of([(fano(), 1)])
    k13 = complete(13, 3)
    solver._store(TuranRecord(13, 3, cfg.hash_hex(), "exact", k13.edge_count,
                              k13.edge_count, (k13,), True, 0, 0, 0),
                  solver._cache_path(13, cfg, cache))
    listed = []
    real = matching._embeddings

    def counted(*args):
        for mapping in real(*args):
            listed.append(mapping)
            yield mapping

    monkeypatch.setattr(matching, "_embeddings", counted)
    monkeypatch.setattr(solver, "_embeddings", counted)
    with pytest.raises(BudgetExceededError, match="copies"):
        max_edges(13, cfg, cache_dir=cache)
    assert len(listed) <= matching._MAX_COPIES + 1


def test_size_budget(cache, monkeypatch):
    # the fixed budgets clear the largest instances the suite builds
    assert comb(17, 2) <= solver._MAX_EDGES and 20160 <= matching._MAX_COPIES
    monkeypatch.setattr(solver, "_MAX_EDGES", 10)
    _Searcher(5, config_of([(K3, 1)]))        # C(5, 2) = 10 edges
    _Searcher(5, config_of([(EDGE3, 1)]))     # C(5, 3) = 10
    for n, f in ((6, K3), (6, EDGE3), (11, EDGE2)):
        with pytest.raises(BudgetExceededError):
            _Searcher(n, config_of([(f, 1)]))
    with pytest.raises(BudgetExceededError):
        max_edges(6, config_of([(K3, 1)]), cache_dir=cache)
    monkeypatch.setattr(solver, "_MAX_EDGES", 1000)
    monkeypatch.setattr(matching, "_MAX_COPIES", 20)
    _Searcher(6, config_of([(K3, 1)]))        # C(6, 3) = 20 triangles
    with pytest.raises(BudgetExceededError):
        _Searcher(7, config_of([(K3, 1)]))    # 35


def test_cache_env_var(cache, monkeypatch):
    monkeypatch.setenv("TURANKIT_CACHE", cache)
    max_edges(5, config_of([(K3, 1)]))
    assert os.listdir(cache)


def test_node_limit_env_var(cache, monkeypatch):
    monkeypatch.setenv("TURANKIT_NODE_LIMIT", "40")
    rec = max_edges(9, config_of([(K3, 1)]), cache_dir=cache)
    assert rec.status == "bounds"


def test_table_delta_and_degree(cache):
    tab = ex_table(config_of([(K3, 1)]), 3, 8, cache_dir=cache)
    assert [tab.value(n) for n in tab.ns] == [2, 4, 6, 9, 12, 16]
    assert tab.delta(6) == 3
    assert tab.d(5) == Fraction(12, 5)
    with pytest.raises(KeyError):
        tab.record(11)
    with pytest.raises(ValueError):
        ex_table(config_of([(K3, 1)]), 5, 4, cache_dir=cache)


def test_table_refuses_zero_vertices(cache):
    # d(0) would divide by zero: the range is refused before any solve
    for lo, hi in ((0, 3), (-2, 1)):
        with pytest.raises(ValueError):
            ex_table(config_of([(K3, 1)]), lo, hi, cache_dir=cache)
    assert not os.path.exists(cache)


def test_pi_upper(cache):
    cfg = config_of([(K3, 1)])
    assert pi_upper(cfg, 8, cache_dir=cache) == Fraction(4, 7)
    assert pi_upper(cfg, 3, cache_dir=cache) == Fraction(2, 3)
    assert pi_upper(config_of([(fano(), 1)]), 7,
                    cache_dir=cache) == Fraction(6, 7)
    ratios = [pi_upper(cfg, n, cache_dir=cache) for n in range(3, 11)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_small_instances_without_edges(cache):
    cfg = config_of([(EDGE3, 1)])
    rec = max_edges(2, cfg, cache_dir=cache)  # no triples exist at n=2
    assert rec.value == 0
    assert rec.extremal and rec.extremal[0] == Hypergraph(2, 3, ())
    rec = max_edges(3, cfg, cache_dir=cache)
    assert rec.value == 0  # the single possible triple is itself forbidden


def test_unrealizable_config_gives_complete_graph(cache):
    # three disjoint triangles need nine vertices
    rec = max_edges(7, config_of([(K3, 3)]), cache_dir=cache)
    assert rec.value == 21
    ext = enumerate_extremal(7, config_of([(K3, 3)]), cache_dir=cache)
    assert ext == [complete(7, 2)]
    # isolated vertices count: two disjoint 4-vertex copies need eight
    assert max_edges(7, config_of([(K3_ISO, 2)]), cache_dir=cache).value == 21


# Node counts of the search before orbital branching, pinned on its
# reference: the copy tables' order decides which violating realization
# each node branches on.
@pytest.mark.parametrize("n, families, value, nodes", [
    (9, ((K3, 2),), 24, 41332),
    (9, ((K4, 1),), 27, 13962),
    (8, ((fano(), 1),), 48, 981),
    (10, ((K3, 1),), 25, 12644),
    (9, ((EDGE2, 3),), 15, 634),
    (8, ((K3, 1), (K4, 1)), 22, 4645),
    (9, ((K3, 1), (K3_ISO, 1)), 24, 41332),
])
def test_pinned_node_counts(n, families, value, nodes):
    rec = reference_solve(n, config_of(families), False)
    assert (rec.status, rec.value, rec.nodes) == ("exact", value, nodes)


def test_pinned_enumeration_node_count():
    rec = reference_solve(9, config_of([(K3, 2)]), True)
    assert rec.nodes == 110860  # both passes
    assert len(rec.extremal) == 1
    assert are_isomorphic(rec.extremal[0], join(1, turan(8, 2, 2)))


# The same instances under orbital branching, which counts both children
# of every branch, summed over the value pass's descending runs.
@pytest.mark.parametrize("n, families, value, nodes", [
    (9, ((K3, 2),), 24, 561),
    (9, ((K4, 1),), 27, 268),
    (8, ((fano(), 1),), 48, 43),
    (10, ((K3, 1),), 25, 585),
    (9, ((EDGE2, 3),), 15, 944),
    (8, ((K3, 1), (K4, 1)), 22, 149),
    (9, ((K3, 1), (K3_ISO, 1)), 24, 561),
    (11, ((K3, 1),), 30, 1220),
    (9, ((fano(), 1),), 70, 313),
])
def test_orbital_node_counts(n, families, value, nodes):
    rec = _solve(n, config_of(families), None, False, None)
    assert (rec.status, rec.value, rec.nodes) == ("exact", value, nodes)


# With a seed the value pass is one run above the seed's count; with an
# extremal seed it only proves that nothing beats it.
@pytest.mark.parametrize("n, families, seed, value, nodes", [
    (9, ((K3, 1),), turan(9, 2, 2), 20, 93),
    (9, ((K3, 2),), join(1, turan(8, 2, 2)), 24, 163),
])
def test_seeded_node_counts(n, families, seed, value, nodes):
    rec = _solve(n, config_of(families), seed, False, None)
    assert (rec.status, rec.value, rec.nodes) == ("exact", value, nodes)


def test_orbital_enumeration_node_count():
    rec = _solve(9, config_of([(K3, 2)]), None, True, None)
    assert rec.nodes == 858  # both passes
    assert len(rec.extremal) == 1
    assert are_isomorphic(rec.extremal[0], join(1, turan(8, 2, 2)))


def test_enumeration_builds_the_copy_tables_once(cache, monkeypatch):
    # the value pass and the enumerate pass share one searcher
    built = []

    class Counted(_Searcher):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver, "_Searcher", Counted)
    seed = Hypergraph(6, 2, ((0, 3), (1, 4)))
    graphs = enumerate_extremal(6, config_of([(K3, 1)]), seed, cache_dir=cache)
    assert len(built) == 1
    assert len(graphs) == 1 and graphs[0].edge_count == 9


@st.composite
def configs_with_edge_sets(draw):
    """One or two families (r in {2, 3}, at most r + 2 vertices each,
    isolated vertices allowed, demands at most 2), a host size n <= 8
    around the vertices a realization needs, and edge sets on it of
    densities from sparse to complete."""
    r = draw(st.sampled_from([2, 3]))
    families = []
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.integers(r, r + 2))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(v), r))),
                              min_size=1, max_size=4, unique=True))
        families.append((Hypergraph(v, r, tuple(edges)), draw(st.integers(1, 2))))
    need = sum(f.n * t for f, t in families)
    n = draw(st.integers(max(r, min(need, 8) - 1), 8))
    rnd = draw(st.randoms(use_true_random=False))
    ws = [sum(1 << i for i in range(comb(n, r)) if rnd.random() < p)
          for p in (0.5, 0.75, 0.9, 0.95, 1.0)]
    return n, tuple(families), ws


@settings(max_examples=150)
@given(configs_with_edge_sets())
@example((7, ((K3, 1), (K3_ISO, 1)), [(1 << 21) - 1 - (1 << k) for k in range(21)]))
@example((8, ((EDGE2, 2), (K3, 1)), [(1 << 28) - 1, 0b111 << 10 | 0b111]))
def test_kernel_matches_reference_walk(case):
    n, families, ws = case
    s = _Searcher(n, ForbiddenConfig(families))
    for w in ws:
        assert s.find_realization(w) == reference_find_realization(s, w)
    # a short search: the alive sets it carries down the tree and through
    # the packing loop are the ones built from scratch
    kernel = s.find_realization

    def checked(w, alive=None):
        assert alive == s.alive_in(w)
        return kernel(w, alive)

    s.find_realization = checked
    s.run(-1, 80, False)


@st.composite
def small_configs(draw):
    """One or two families (r in {2, 3}, at most r + 2 vertices each,
    isolated vertices allowed, demands at most 2) and n <= 7."""
    r = draw(st.sampled_from([2, 3]))
    families = []
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.integers(r, r + 2))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(v), r))),
                              min_size=1, max_size=4, unique=True))
        families.append((Hypergraph(v, r, tuple(edges)), draw(st.integers(1, 2))))
    return draw(st.integers(r, 7)), ForbiddenConfig(tuple(families))


@given(small_configs(), st.randoms(use_true_random=False))
@example((6, config_of([(K3, 1), (K3_ISO, 1)])), Random(0))
@example((7, config_of([(K3, 1), (K3_ISO, 1)])), Random(0))
@example((7, config_of([(K3_ISO, 1), (EDGE2, 2)])), Random(1))
def test_searcher_agrees_with_the_packing_search(case, rnd):
    # the solver decides feasibility with its copy tables, the cache
    # rechecks stored graphs with matching's packing search; both count
    # the isolated vertices of a family (the complete graph on 6 vertices
    # has no triangle disjoint from a triangle plus an isolated vertex)
    n, cfg = case
    s = _Searcher(n, cfg)
    for p in (0.5, 0.75, 0.9, 1.0):
        h = Hypergraph(n, cfg.r, tuple(e for e in s.edges
                                       if rnd.random() < p))
        assert s.is_feasible(s.mask_of(h)) == (
            has_disjoint_config(h, cfg.families) is None)


@settings(max_examples=120)
@given(small_configs())
@example((7, config_of([(K3, 1), (K3_ISO, 1)])))
@example((7, config_of([(K3_ISO, 1), (EDGE2, 2)])))
@example((7, config_of([(EDGE3, 2)])))
@example((7, config_of([(complete(4, 3), 1)])))
def test_orbital_search_matches_reference(case):
    n, cfg = case
    value = _solve(n, cfg, None, False, None)
    classes = _solve(n, cfg, None, True, None)
    assert value.value == classes.value
    # the value pass's witness is one of the extremal classes
    assert value.extremal[0] in classes.extremal
    # the reference spends 330 000 nodes on K4^(3) at n = 7; where
    # it stops, its bracket must still hold the value
    want = reference_solve(n, cfg, True, node_limit=4000)
    assert want.value <= value.value <= want.upper
    if want.extremal_complete:
        assert classes.extremal == want.extremal


def links_of(s, g, frozen):
    """The links `orbit` reads, built from scratch for (g, frozen)."""
    _, link_bits, _, shift, _ = s.orbit_tables
    links = [0] * s.n
    for x in range(len(s.edges)):
        for v, bit in link_bits[x]:
            if g >> x & 1:
                links[v] |= bit
            if frozen >> x & 1:
                links[v] |= bit << shift
    return links


def brute_twin_orbit(s, g, frozen, e):
    """The orbit of edge e under the transpositions of the vertices that
    map both g and frozen onto themselves, closed by brute force."""
    def swap(x, u, v):
        return tuple(sorted(v if w == u else u if w == v else w for w in x))

    def mask_of(edges):
        return sum(1 << s.index[x] for x in edges)

    gs = [s.edges[x] for x in _bits(g)]
    fs = [s.edges[x] for x in _bits(frozen)]
    twins = [(u, v) for u, v in combinations(range(s.n), 2)
             if mask_of(swap(x, u, v) for x in gs) == g
             and mask_of(swap(x, u, v) for x in fs) == frozen]
    orbit, todo = {s.edges[e]}, [s.edges[e]]
    while todo:
        x = todo.pop()
        for u, v in twins:
            y = swap(x, u, v)
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return mask_of(orbit)


@settings(max_examples=80)
@given(st.sampled_from([2, 3]), st.integers(3, 7), st.randoms(use_true_random=False))
@example(2, 6, None)  # the complete graph: every edge is in one orbit
def test_orbit_is_the_twin_group_orbit(r, n, rnd):
    s = _Searcher(n, config_of([(complete(r, r), 1)]))
    s.orbit_tables = s._orbit_tables()
    m = len(s.edges)
    if rnd is None:
        g, frozen = s.full, 0
    else:
        # few distinct links, so that twins are common
        g = sum(1 << x for x in range(m) if rnd.random() < 0.8)
        frozen = sum(1 << x for x in _bits(g) if rnd.random() < 0.3)
    links = links_of(s, g, frozen)
    assert links_of(s, s.full, 0) == s.orbit_tables[4]
    for e in _bits(g & ~frozen):
        orb = s.orbit(e, links)
        assert orb == brute_twin_orbit(s, g, frozen, e)
        assert orb >> e & 1 and orb & ~(g & ~frozen) == 0


@pytest.mark.parametrize("n, families, seed, exact", [
    (7, ((K3, 1),), None, 12),
    (8, ((K3, 2),), None, 19),
    (7, ((K3, 1), (K3_ISO, 1)), None, 15),
    (7, ((K3, 1),), join(1, empty(6, 2)), 12),  # one run above a star
])
def test_node_limits_give_brackets(n, families, seed, exact):
    cfg = config_of(families)
    limit = 1
    while True:
        rec = _solve(n, cfg, seed, False, limit)
        if rec.status == "exact":
            assert rec.value == exact and rec.nodes <= limit
            break
        assert rec.status == "bounds"
        assert 0 <= rec.value <= exact <= rec.upper
        assert rec.nodes > limit
        limit += 1
    assert limit > 40


def count_orbit_tables(monkeypatch):
    built = []
    real = _Searcher._orbit_tables

    def counted(self):
        built.append(self.n)
        return real(self)

    monkeypatch.setattr(_Searcher, "_orbit_tables", counted)
    return built


def test_orbit_tables_are_built_only_by_searches(cache, monkeypatch):
    built = count_orbit_tables(monkeypatch)
    cfg = config_of([(K3, 2)])
    # both passes of one enumeration share one build
    first = enumerate_extremal(7, cfg, cache_dir=cache)
    assert built == [7]
    # a cache hit revalidates the stored graphs without building them
    assert enumerate_extremal(7, cfg, cache_dir=cache) == first
    assert max_edges(7, cfg, cache_dir=cache).value == first[0].edge_count
    assert built == [7]
    # generation asks only for feasibility
    assert sum(1 for _ in free_graphs(5, cfg)) > 0
    assert built == [7]


def test_searches_leave_no_cyclic_garbage():
    # the recursive searches hold no reference cycles, so what they build
    # is freed as soon as they return, without the cyclic collector
    from turankit.matching import matching_number

    cfg = config_of([(K3, 1)])
    calls = (lambda: matching_number(K3, complete(9, 2)),
             lambda: _solve(7, cfg, None, True, None),
             lambda: chromatic_number(complete(5, 2)))
    for call in calls:
        call()  # warm the caches the call fills
    enabled = gc.isenabled()
    gc.disable()
    try:
        for call in calls:
            gc.collect()
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("n, families", [
    (7, ((K3, 1),)),
    (8, ((K3, 2),)),
    (6, ((complete(4, 3), 1),)),
])
def test_carried_links_are_the_links_of_each_node(n, families, monkeypatch):
    # the twin test reads links carried down the tree; at every node of
    # both passes they must be those of (g, frozen), frozen colour
    # included (child B records the orbit it freezes)
    searchers, nodes = [], []

    class Recorded(_Searcher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searchers.append(self)

    def tracer(frame, event, arg):
        if event == "call" and frame.f_code is code:
            loc = frame.f_locals
            nodes.append((loc["g"], loc["frozen"], list(loc["links"])))

    code = next(c for c in _Searcher.run.__code__.co_consts
                if getattr(c, "co_name", None) == "search")
    monkeypatch.setattr(solver, "_Searcher", Recorded)
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        rec = _solve(n, config_of(families), None, True, None)
    finally:
        sys.settrace(previous)
    assert rec.status == "exact" and len(nodes) == rec.nodes
    s, = searchers
    for g, frozen, links in nodes:
        assert links == links_of(s, g, frozen)
