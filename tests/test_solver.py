"""Solver tests: exact values against brute subset scans and published
small Turán numbers, extremal enumeration, seeding, caching, bounds."""

import gc
import inspect
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
    brute_has_config, brute_max_feasible, reference_descent,
    reference_find_realization, reference_solve, relabel, turan_graph,
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
    # an infeasible seed is dropped, not trusted: the floor is the one-vertex
    # extension's, and the bound-free search has none
    rec = max_edges(5, cfg, complete(5, 2), cache_dir=cache)
    assert rec.value == 6 and rec.seeded_lower == 6
    assert _solve(5, cfg, complete(5, 2), False, None).seeded_lower == 0


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


def test_cache_recomputes_an_exact_record_listing_one_class_twice(cache):
    # the graph and its copy under the swap of vertices 0 and 1 are
    # distinct edge lists of one class
    cfg = config_of([(K3, 1)])
    rec = enumerate_extremal(6, cfg, cache_dir=cache)
    assert len(rec) == 1
    swap = {0: 1, 1: 0}
    swapped = sorted(sorted(swap.get(v, v) for v in e) for e in rec[0].edges)
    assert swapped != [list(e) for e in rec[0].edges]
    path = _tamper(cache, extremal=[[list(e) for e in rec[0].edges], swapped])
    assert solver._load(path, 6, cfg) is None
    assert enumerate_extremal(6, cfg, cache_dir=cache) == rec


def test_cache_recomputes_records_with_malformed_graphs(cache):
    # stored graphs are outside data, rebuilt with the Hypergraph
    # constructor's checks; each edge list below keeps the value's 9
    # entries, and none holds a triangle on vertices 0..5
    cfg = config_of([(K3, 1)])
    rec = max_edges(6, cfg, cache_dir=cache)
    edges = [list(e) for e in rec.extremal[0].edges]
    for bad in ([[0, 6]] + edges[1:],        # a vertex outside 0..5
                [[2, 2]] + edges[1:],        # a repeated vertex
                edges[:-1] + [edges[0]]):    # an edge listed twice
        path = _tamper(cache, extremal=[bad])
        assert solver._load(path, 6, cfg) is None
    again = max_edges(6, cfg, cache_dir=cache)
    assert again.value == 9 and again.extremal == rec.extremal


def test_cache_recomputes_records_with_bool_vertices(cache):
    # JSON true is Python's True == 1: read as it stands, the edge [0, 1]
    # written [0, true] would load as the edge (0, True)
    cfg = config_of([(K3, 1)])
    rec = max_edges(6, cfg, cache_dir=cache)
    edges = [list(e) for e in rec.extremal[0].edges]
    i = next(i for i, e in enumerate(edges) if 1 in e)
    edges[i] = [True if v == 1 else v for v in edges[i]]
    path = _tamper(cache, extremal=[edges])
    assert solver._load(path, 6, cfg) is None
    again = max_edges(6, cfg, cache_dir=cache)
    assert again.extremal == rec.extremal
    assert all(type(v) is int for e in again.extremal[0].edges for v in e)


@pytest.mark.parametrize("fields", [
    {"value": True, "upper": True},  # ex(2, 2K2) = 1 == True
    {"nodes": "lots"},
    {"elapsed_ms": 2.5},
    {"seeded_lower": None},
])
def test_cache_recomputes_records_with_non_integer_counts(cache, fields):
    cfg = config_of([(EDGE2, 2)])
    rec = max_edges(2, cfg, cache_dir=cache)
    assert rec.value == 1
    path = _tamper(cache, **fields)
    assert solver._load(path, 2, cfg) is None
    again = max_edges(2, cfg, cache_dir=cache)
    assert again == solver._load(path, 2, cfg)
    for name in ("value", "upper", "nodes", "elapsed_ms", "seeded_lower"):
        assert type(getattr(again, name)) is int


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


def test_cache_file_format_is_pinned(cache, monkeypatch):
    # ex(5, K3) = 6 as written to disk: the file name, the keys and their
    # order are the cache format, which caches filled before rely on
    name, literal = "1dc6ca187fa82bcf.json", {
        "format": 2, "n": 5, "r": 2, "config_hash": "76e19f39f13b48fa",
        "status": "exact", "value": 6, "upper": 6,
        "extremal": [[[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]],
        "extremal_complete": False, "nodes": 18, "elapsed_ms": 1,
        "seeded_lower": 6}
    cfg = config_of([(K3, 1)])
    rec = max_edges(5, cfg, cache_dir=cache)
    assert os.listdir(cache) == [name]
    path = os.path.join(cache, name)
    with open(path) as fh:
        doc = json.load(fh)
    assert list(doc) == [
        "format", "n", "r", "config_hash", "status", "value", "upper",
        "extremal", "extremal_complete", "nodes", "elapsed_ms",
        "seeded_lower"]
    assert {**doc, "elapsed_ms": 1} == literal

    # a record in this format loads as a hit; with a key more or less, or
    # a float n (the record is rebuilt from the file's fields), a miss
    with open(path, "w") as fh:
        json.dump(literal, fh)
    monkeypatch.setattr(solver, "_solve", None)  # a hit never solves
    hit = max_edges(5, cfg, cache_dir=cache)
    assert hit == TuranRecord(**{**vars(rec), "elapsed_ms": 1})
    assert solver._load(path, 5, cfg) == hit
    for bad in ({**literal, "digest": "0"}, {**literal, "n": 5.0},
                {k: v for k, v in literal.items() if k != "seeded_lower"}):
        with open(path, "w") as fh:
            json.dump(bad, fh)
        assert solver._load(path, 5, cfg) is None


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


def test_copy_budget_trips_in_the_recheck_of_a_stored_graph(cache, monkeypatch):
    # ex(7, 2K3) = 15: K3 joined to four independent vertices, 13 triangles;
    # the budget is checked while the stored graph is rechecked, before
    # any solve
    cfg = config_of([(K3, 2)])
    first = max_edges(7, cfg, cache_dir=cache)
    assert [len(matching._copies(K3, g)) for g in first.extremal] == [13]

    def no_search(*args):
        raise AssertionError("searched again")

    listed = []
    real = matching._embeddings

    def counted(*args):
        for mapping in real(*args):
            listed.append(mapping)
            yield mapping

    monkeypatch.setattr(solver, "_solve", no_search)
    monkeypatch.setattr(matching, "_embeddings", counted)
    monkeypatch.setattr(matching, "_MAX_COPIES", 13)
    assert max_edges(7, cfg, cache_dir=cache) == first
    listed.clear()
    monkeypatch.setattr(matching, "_MAX_COPIES", 12)
    with pytest.raises(BudgetExceededError, match="copies"):
        max_edges(7, cfg, cache_dir=cache)
    assert len(listed) == 12


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


@pytest.mark.parametrize("bad", [0, -2, 1.5, True, "7"])
def test_node_limit_argument_must_be_a_positive_integer(cache, bad):
    with pytest.raises(ValueError, match="node_limit"):
        max_edges(6, config_of([(K3, 1)]), node_limit=bad, cache_dir=cache)
    assert not os.path.exists(cache)


@pytest.mark.parametrize("bad", ["-2", "0", "abc", "1.5"])
def test_node_limit_env_var_must_be_a_positive_integer(cache, monkeypatch,
                                                       bad):
    cfg = config_of([(K3, 1)])
    max_edges(6, cfg, cache_dir=cache)
    monkeypatch.setenv("TURANKIT_NODE_LIMIT", bad)
    # refused on a cache hit as on a miss
    for n in (6, 7):
        with pytest.raises(ValueError, match="TURANKIT_NODE_LIMIT"):
            max_edges(n, cfg, cache_dir=cache)


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


def test_pi_upper_refuses_n_below_r(cache):
    # C(n, r) = 0 below r: refused before any solve touches the cache
    for n in (0, 1):
        with pytest.raises(ValueError, match="n >= r"):
            pi_upper(config_of([(K3, 1)]), n, cache_dir=cache)
    with pytest.raises(ValueError, match="n >= r"):
        pi_upper(config_of([(fano(), 1)]), 2, cache_dir=cache)
    assert not os.path.exists(cache)


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
# of every branch: summed over the descending runs of the value pass
# before best-first order (its reference), and in the one best-first run.
ORBITAL_INSTANCES = [
    (9, ((K3, 2),), 24), (9, ((K4, 1),), 27), (8, ((fano(), 1),), 48),
    (10, ((K3, 1),), 25), (9, ((EDGE2, 3),), 15), (8, ((K3, 1), (K4, 1)), 22),
    (9, ((K3, 1), (K3_ISO, 1)), 24), (11, ((K3, 1),), 30),
    (9, ((fano(), 1),), 70),
]


@pytest.mark.parametrize("n, families, value, nodes", [
    case + (nodes,) for case, nodes in zip(
        ORBITAL_INSTANCES, (561, 268, 43, 585, 944, 149, 561, 1220, 313))
])
def test_orbital_node_counts(n, families, value, nodes):
    rec = reference_descent(n, config_of(families), None, False)
    assert (rec.status, rec.value, rec.nodes) == ("exact", value, nodes)


@pytest.mark.parametrize("n, families, value, nodes", [
    case + (nodes,) for case, nodes in zip(
        ORBITAL_INSTANCES, (241, 121, 35, 207, 235, 61, 241, 427, 135))
])
def test_best_first_node_counts(n, families, value, nodes):
    rec = _solve(n, config_of(families), None, False, None)
    assert (rec.status, rec.value, rec.nodes) == ("exact", value, nodes)


# With a seed the value pass drops the nodes that cannot beat the seed's
# count; with an extremal seed it only proves that nothing beats it.
@pytest.mark.parametrize("n, families, seed, value, nodes", [
    (9, ((K3, 1),), turan(9, 2, 2), 20, 93),
    (9, ((K3, 2),), join(1, turan(8, 2, 2)), 24, 163),
])
def test_seeded_node_counts(n, families, seed, value, nodes):
    rec = _solve(n, config_of(families), seed, False, None)
    assert (rec.status, rec.value, rec.nodes) == ("exact", value, nodes)


def test_orbital_enumeration_node_count():
    rec = _solve(9, config_of([(K3, 2)]), None, True, None)
    assert rec.nodes == 297
    # one best-first pass evaluates the nodes the old enumerate pass did,
    # which ran depth first at the value after the value pass
    value = reference_descent(9, config_of([(K3, 2)]), None, False)
    classes = reference_descent(9, config_of([(K3, 2)]), None, True)
    assert classes.nodes - value.nodes == 297
    assert len(rec.extremal) == 1
    assert are_isomorphic(rec.extremal[0], join(1, turan(8, 2, 2)))


@pytest.mark.parametrize("n, f", [
    (10, fano()), (7, K3_ISO), (8, K4),
    (6, Hypergraph(5, 3, ((0, 1, 2), (0, 3, 4)))),
])
def test_copy_tables_are_in_edge_bit_order(n, f):
    # the tables sort by bit-reversed edge masks, which for copies of equal
    # edge counts is the order of their lists of edge bits
    copies = _Searcher(n, config_of([(f, 1)])).fams[0][0]
    assert copies == sorted(copies, key=lambda c: (list(_bits(c[0])), c[1]))


def test_enumeration_builds_the_copy_tables_once(cache, monkeypatch):
    # the seed's feasibility check and the search share one searcher
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
    # the packing loop are the ones built from scratch, for the node's g
    # minus the non-frozen edges of the realizations packed so far
    kernel, deleted = s.pack, [0]

    def checked(alive):
        node = sys._getframe(1).f_locals
        if node["bound"] == node["cnt"]:  # the node's first packing step
            deleted[0] = 0
        assert alive == s.alive_in(node["g"] & ~deleted[0])
        real = kernel(alive)
        if real is not None:
            deleted[0] |= real & ~node["frozen"]
        return real

    s.pack = checked
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


def table_seed(n, cfg, rnd):
    """The seed `ex_table` hands n: an extremal graph on n - 1 vertices
    plus an isolated vertex, thinned at random unless rnd is None."""
    prev = _solve(n - 1, cfg, None, False, None).extremal[0]
    return Hypergraph(n, cfg.r, tuple(e for e in prev.edges
                                      if rnd is None or rnd.random() < 0.7))


@settings(max_examples=60)
@given(small_configs(), st.sampled_from(["none", "table", "thinned"]),
       st.randoms(use_true_random=False))
@example((9, config_of([(K3, 2)])), "none", Random(0))
@example((8, config_of([(fano(), 1)])), "table", Random(0))
def test_best_first_matches_the_descent(case, seeding, rnd):
    # against the value pass's old runs, depth first for more than k
    # edges, k descending or the seed's count: the same record in no more
    # nodes; and an enumeration evaluates the nodes of the old enumerate
    # pass alone, which ran depth first at the value after the value pass
    n, cfg = case
    seed = None
    if seeding != "none":
        seed = table_seed(n, cfg, rnd if seeding == "thinned" else None)

    def key(rec):
        return (rec.status, rec.value, rec.upper, rec.extremal[0].edges,
                rec.seeded_lower)

    got = _solve(n, cfg, seed, False, None)
    want = reference_descent(n, cfg, seed, False)
    assert key(got) == key(want) and got.status == "exact"
    assert got.nodes <= want.nodes
    # a node limit below the run's count stops it with a valid bracket
    for limit in {1, got.nodes // 2, got.nodes - 1} & set(range(1, got.nodes)):
        rec = _solve(n, cfg, seed, False, limit)
        assert rec.status == "bounds" and rec.nodes == limit + 1
        assert 0 <= rec.value <= got.value <= rec.upper
    classes = _solve(n, cfg, seed, True, None)
    want_classes = reference_descent(n, cfg, seed, True)
    assert classes.extremal == want_classes.extremal
    assert key(classes) == key(want_classes)
    assert classes.nodes == want_classes.nodes - want.nodes


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_searcher_owns_star_and_spans(r):
    # the one r-set universe: the vertex bitset of each r-set, and per
    # vertex the bitset of the r-sets at it, over the lex-ordered r-sets
    for n in range(r, 9):
        s = _Searcher(n, config_of([(complete(r, r), 1)]))
        universe = list(combinations(range(n), r))
        assert s.edges == universe
        assert s.spans == {e: sum(1 << v for v in e) for e in universe}
        assert list(s.spans) == universe
        assert s.star == [sum(1 << i for i, e in enumerate(universe)
                              if v in e) for v in range(n)]


def links_of(s, g, frozen):
    """The links `orbit` reads, built from scratch for (g, frozen): one
    int holding, for each vertex v, a block of 2·C(n, r−1) bits, where
    bit i of the block is set if v joined to the i-th (r−1)-set in lex
    order is an edge of g, and bit C(n, r−1) + i if it is frozen."""
    lsets = list(combinations(range(s.n), s.r - 1))
    half = len(lsets)
    links = 0
    for x, e in enumerate(s.edges):
        for v in e:
            bit = 1 << 2 * half * v + lsets.index(
                tuple(w for w in e if w != v))
            if g >> x & 1:
                links |= bit
            if frozen >> x & 1:
                links |= bit << half
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
@given(st.sampled_from([1, 2, 3, 4]), st.integers(3, 7),
       st.randoms(use_true_random=False))
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
    delta, root = s.orbit_tables[0], s.orbit_tables[4]
    assert links_of(s, s.full, 0) == root
    assert delta == [links_of(s, 1 << x, 0) for x in range(m)]
    for e in _bits(g & ~frozen):
        orb = s.orbit(e, links)
        assert orb == brute_twin_orbit(s, g, frozen, e)
        assert orb >> e & 1 and orb & ~(g & ~frozen) == 0


@pytest.mark.parametrize("n, families, seed, exact", [
    (8, ((K3, 1),), None, 16),
    (8, ((K3, 2),), None, 19),
    (8, ((K3, 1), (K3_ISO, 1)), None, 19),
    (8, ((K3, 1),), join(1, empty(7, 2)), 16),  # floor at a star's count
])
def test_node_limits_give_brackets(n, families, seed, exact):
    # in both modes; an enumeration starts below the seed's count, yet its
    # lower end stays at the seed's count until it pops a feasible node
    cfg = config_of(families)
    lower = seed.edge_count if seed is not None else 0
    for enumerate_all in (False, True):
        full = _solve(n, cfg, seed, enumerate_all, None)
        limit = 1
        while True:
            rec = _solve(n, cfg, seed, enumerate_all, limit)
            if rec.status == "exact":
                assert rec.value == exact and rec.nodes <= limit
                assert limit == full.nodes and rec.extremal == full.extremal
                assert rec.extremal_complete == enumerate_all
                break
            assert rec.status == "bounds" and not rec.extremal_complete
            assert lower <= rec.value <= exact <= rec.upper
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
    # one enumeration builds them once
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
    # the searches hold no reference cycles, so what they build
    # is freed as soon as they return, without the cyclic collector
    from turankit.matching import matching_number

    cfg = config_of([(K3, 1)])
    calls = (lambda: matching_number(K3, complete(9, 2)),
             lambda: _solve(7, cfg, None, True, None),
             lambda: chromatic_number(complete(5, 2)),
             lambda: list(free_graphs(6, cfg)))
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
    # the twin test reads links carried down the tree; at every node an
    # enumeration evaluates they must be those of (g, frozen), frozen
    # colour included (child B records the orbit it freezes)
    searchers, nodes = [], []

    class Recorded(_Searcher):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            searchers.append(self)

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line" and frame.f_lineno == evaluated:
            loc = frame.f_locals
            nodes.append((loc["g"], loc["frozen"], loc["links"]))
        return tracer

    # the loop counts each node as it evaluates it
    code = _Searcher.run.__code__
    lines, start = inspect.getsourcelines(_Searcher.run)
    evaluated = start + next(i for i, line in enumerate(lines)
                             if "self.nodes += 1" in line)
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


# -- vertex-deletion bounds: the cap, the degree bound, the extension seed --


@st.composite
def deletion_configs(draw):
    """One or two families (r in {2, 3}, at most r + 2 vertices each,
    isolated vertices allowed, demands t in {1, 2}), with every n from r
    to a small bound."""
    r = draw(st.sampled_from([2, 3]))
    families = []
    for _ in range(draw(st.integers(1, 2))):
        v = draw(st.integers(r, r + 2))
        edges = draw(st.lists(st.sampled_from(list(combinations(range(v), r))),
                              min_size=1, max_size=4, unique=True))
        families.append((Hypergraph(v, r, tuple(edges)), draw(st.integers(1, 2))))
    return ForbiddenConfig(tuple(families)), 7 if r == 2 else 6


@settings(max_examples=25, deadline=None)
@given(deletion_configs())
@example((config_of([(K3, 2)]), 9))
@example((config_of([(fano(), 1)]), 8))
@example((config_of([(K3_ISO, 1), (EDGE2, 2)]), 7))
def test_deletion_bounds_match_the_bound_free_search(tmp_path_factory, case):
    # max_edges and enumerate_extremal (chain, cap, degree bound and
    # extension seed) against `_solve` without (U, W), the bound-free
    # search: the same values and class sets at every n
    cfg, top = case
    r = cfg.r
    wants = {n: _solve(n, cfg, None, True, None) for n in range(r - 1, top + 1)}
    for n in range(r, top + 1):
        want, cache = wants[n], str(tmp_path_factory.mktemp("cache"))
        rec = max_edges(n, cfg, cache_dir=cache)
        assert (rec.status, rec.value, rec.upper) == (
            "exact", want.value, want.value)
        assert rec.extremal[0] in want.extremal
        assert enumerate_extremal(n, cfg, cache_dir=cache) == list(want.extremal)
        # the cap from ex(n − 1) bounds ex(n); the best one-vertex extension
        # of an extremal graph on n − 1 vertices is feasible, contains it,
        # and has at most ex(n) edges.  There is none when the new vertex
        # gives an isolated vertex of some F_i room
        prev = wants[n - 1]
        assert solver._cap(n, r, prev.value) >= want.value
        s = _Searcher(n, cfg)
        w = prev.extremal[0]
        base = s.mask_of(w)
        count, mask = s.extend(base, prev.value, 10**6)
        if mask is None:
            assert not s.is_feasible(base) and count == -1
            continue
        assert s.is_feasible(mask) and mask.bit_count() == count
        assert mask & base == base and mask & ~(base | s.star[-1]) == 0
        assert w.edge_count <= count <= want.value


@pytest.mark.parametrize("n, families", [
    (9, ((K3, 1),)), (8, ((K3, 2),)), (8, ((K4, 1),)),
])
def test_node_limit_bounds_the_whole_chain(tmp_path_factory, n, families):
    # every budget from 1 up: the chain below n and the solve at n evaluate
    # at most L + 1 nodes in all, and a bracket holds ex(n) with its upper
    # end at most the cap of the U the chain reached
    cfg = config_of(families)
    full = max_edges(n, cfg, cache_dir=str(tmp_path_factory.mktemp("full")))
    assert full.status == "exact"
    for limit in range(1, full.nodes + 1):
        rec = max_edges(n, cfg, node_limit=limit,
                        cache_dir=str(tmp_path_factory.mktemp("cache")))
        assert rec.nodes <= limit + 1
        if rec.status == "exact":
            assert limit == full.nodes and rec == TuranRecord(
                **{**vars(full), "elapsed_ms": rec.elapsed_ms})
            break
        upper, _ = solver._chain(_Searcher(n, cfg), limit)
        assert 0 <= rec.value <= full.value <= rec.upper
        assert rec.upper <= solver._cap(n, cfg.r, upper)
        assert not brute_has_config(rec.extremal[0], cfg.families)
        assert rec.extremal[0].edge_count == rec.value
    else:
        raise AssertionError("the full count's budget gave a bracket")


def test_chain_stops_once_the_budget_is_spent(cache, monkeypatch):
    # the chain runs in n's own searcher, built first, so that its budgets
    # fail before the chain's work.  node_limit=1 trips at the chain's
    # first n, K3's n0 = 3, where only the cap bounds ex(3) <= 3; nothing
    # above it is searched, and the cap carried up from there is C(10, 2)
    built = []

    class Counted(_Searcher):
        def __init__(self, *args, **kwargs):
            built.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solver, "_Searcher", Counted)
    rec = max_edges(10, config_of([(K3, 1)]), node_limit=1, cache_dir=cache)
    assert built == [10]
    assert rec.status == "bounds" and rec.nodes == 2
    assert rec.value == 1 and rec.upper == 45
    assert not os.path.exists(cache)
    # over the copy budget, n fails before the chain searches anything
    built.clear()
    monkeypatch.setattr(matching, "_MAX_COPIES", 100)
    with pytest.raises(BudgetExceededError, match="copies"):
        max_edges(10, config_of([(K3, 1)]), cache_dir=cache)
    assert built == [10]


def test_frontier_guard():
    # counts, not wall clock: the bounds solve these in a few hundred nodes
    # each, the bound-free search in hundreds of thousands
    assert max_edges(20, config_of([(K3, 1)]), node_limit=5000).value == 100
    assert max_edges(16, config_of([(K4, 1)]), node_limit=5000).value == 85


def test_table_hands_solved_rows_on(cache, monkeypatch):
    # a row solved in this process hands (U, W) to the next row; a row read
    # from the cache hands nothing, so the next solved row runs its chain
    chains = []
    real = solver._chain
    monkeypatch.setattr(solver, "_chain",
                        lambda s, *args: chains.append(s.n) or real(s, *args))
    cfg = config_of([(K3, 1)])
    ex_table(cfg, 3, 5, cache_dir=cache)
    assert chains == [3]
    tab = ex_table(cfg, 3, 8, cache_dir=cache)
    assert chains == [3, 6]
    assert [tab.value(n) for n in tab.ns] == [2, 4, 6, 9, 12, 16]


def test_upper_bound_is_never_read_from_the_cache(cache):
    # a record of K3 at n = 7 lowered to 11 edges, with a feasible 11-edge
    # graph: `_load` accepts it, since it proves only a lower bound.  Read
    # as U, it would cap ex(8) at ⌊8·11/6⌋ = 14 and mark that exact
    cfg = config_of([(K3, 1)])
    rec = max_edges(7, cfg, cache_dir=cache)
    path = _tamper(cache, value=11, upper=11, extremal=[
        [list(e) for e in rec.extremal[0].edges[:11]]])
    assert solver._load(path, 7, cfg).value == 11
    assert max_edges(8, cfg, cache_dir=cache).value == 16
    tab = ex_table(cfg, 7, 8, cache_dir=cache)
    assert (tab.value(7), tab.value(8)) == (11, 16)
