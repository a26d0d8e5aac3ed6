"""The benchmark's own checks: each accepts a right answer and rejects a
deliberately wrong one.  Fast; runs with the rest of the suite."""

from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

import checks as ck
import spans
import speed
import workloads as wl

K3, EDGE, FANO = wl.K3, wl.EDGE, wl.FANO


def test_closed_forms_match_brute_force():
    for n in range(3, 6):
        assert ck.brute_ex(n, 2, 3, K3, 0) == ck.mantel(n)
        assert ck.brute_ex(n, 2, 2, EDGE, 1) == ck.erdos_gallai(n, 1)
    assert ck.brute_ex(5, 2, 4, wl.K4, 0) == ck.turan_number(5, 3)
    assert ck.turan_number(9, 3) == 27 and ck.moon(9, 1) == 24
    assert [ck.fano_ex(n) for n in (7, 8, 9)] == [30, 48, 70]


def test_value_off_by_one_fails():
    ck.check_value("x", 24, ck.moon(9, 1))
    with pytest.raises(ck.CheckError):
        ck.check_value("x", 25, ck.moon(9, 1))


def test_free_witness():
    bip = tuple((u, v) for u in range(3) for v in range(3, 6))
    ck.check_free_witness("bip", 6, bip, 9, 3, K3)
    with pytest.raises(ck.CheckError):
        ck.check_free_witness("bip", 6, bip + ((0, 1),), 10, 3, K3)
    with pytest.raises(ck.CheckError):
        ck.check_free_witness("bip", 6, bip, 10, 3, K3)
    two = ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5))
    ck.check_free_witness("one triangle pair", 6, two[:3], 3, 3, K3, t=1)
    with pytest.raises(ck.CheckError):
        ck.check_free_witness("two triangles", 6, two, 6, 3, K3, t=1)


def test_fano_embedding():
    complete3 = tuple(combinations(range(7), 3))
    assert ck.contains(7, FANO, 7, complete3)
    bipartite = tuple(e for e in combinations(range(8), 3)
                      if len({v < 4 for v in e}) == 2)
    assert len(bipartite) == ck.fano_ex(8)
    assert not ck.contains(7, FANO, 8, bipartite)


def test_apex_bipartite_family():
    good = wl.apex_bipartite(9, 1)
    assert len(good) == ck.moon(9, 1)
    ck.check_apex_bipartite_family([good], 9)
    with pytest.raises(ck.CheckError, match="classes"):
        ck.check_apex_bipartite_family([good, good], 9)
    # same edge count, but one edge moved inside a side: an odd cycle
    odd = tuple(e for e in good if e != (1, 5)) + ((1, 2),)
    with pytest.raises(ck.CheckError, match="not bipartite"):
        ck.check_apex_bipartite_family([tuple(sorted(odd))], 9)


def test_class_counts():
    ck.check_class_count("x", 410, 410)
    with pytest.raises(ck.CheckError):
        ck.check_class_count("x", 411, 410)
    ck.check_complement_symmetric("x", [0, 1, 1, 2, 2, 3], 3)
    with pytest.raises(ck.CheckError):
        ck.check_complement_symmetric("x", [0, 1, 1, 2, 3], 3)


def test_lambda_checks():
    k4 = wl.kl_multisets(4)
    ck.check_lambda("K4", 4, k4, 10, (ck.turan_number(10, 4), (3, 3, 2, 2)),
                    ck.turan_number(10, 4))
    ck.check_balanced("K4", (3, 3, 2, 2))
    with pytest.raises(ck.CheckError, match="unbalanced"):
        ck.check_balanced("K4", (4, 2, 2, 2))
    with pytest.raises(ck.CheckError, match="non-increasing"):
        ck.check_balanced("K4", (2, 3, 3, 2))
    with pytest.raises(ck.CheckError, match="does not attain"):
        ck.check_lambda("K4", 4, k4, 10, (ck.turan_number(10, 4),
                                          (4, 2, 2, 2)),
                        ck.turan_number(10, 4))
    s3 = wl.S3[1]
    assert ck.brute_lambda(2, s3, 6) == 12   # parts (2, 4): 2 * C(4, 2)


def test_bracket():
    ck.check_bracket("K3", Fraction(2, 3), Fraction(80, 119), Fraction(2, 3))
    with pytest.raises(ck.CheckError):
        ck.check_bracket("K3", Fraction(2, 3), Fraction(2, 3) - 1,
                         Fraction(2, 3))


def test_rainbow_answers():
    hosts = [(6, K3 + ((3, 4), (3, 5), (4, 5))), (6, K3 + ((3, 4), (3, 5), (4, 5)))]
    ck.check_rainbow_answer("ok", hosts, 3, K3, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ck.CheckError, match="overlaps"):
        ck.check_rainbow_answer("overlap", hosts, 3, K3,
                                [(0, 1, 2), (0, 1, 2)])
    with pytest.raises(ck.CheckError, match="exists"):
        ck.check_rainbow_answer("missed", hosts, 3, K3, None)
    with pytest.raises(ck.CheckError, match="spans no copy"):
        ck.check_rainbow_answer("bad set", hosts, 3, K3,
                                [(0, 1, 3), (2, 4, 5)])
    lonely = [(6, K3), (6, K3)]
    ck.check_rainbow_answer("none", lonely, 3, K3, None)


def test_threshold_hosts_have_no_rainbow_matching():
    for t in (1, 2):
        host = wl.apex_bipartite(9, t)
        assert len(host) == ck.moon(9, t)
        sets = ck.copy_vertex_sets(3, K3, 9, host)
        assert ck.max_disjoint(sets) == t
        assert not ck.has_rainbow([sets] * (t + 1))


def test_replay_cache_must_be_filled_and_untouched():
    filled = {"a.json": (1, 100), "b.json": (2, 200)}
    ck.check_replay_cache(filled, dict(filled))
    with pytest.raises(ck.CheckError, match="empty"):
        ck.check_replay_cache({}, {})
    with pytest.raises(ck.CheckError, match="written"):
        ck.check_replay_cache(filled, {**filled, "b.json": (3, 200)})
    with pytest.raises(ck.CheckError, match="written"):
        ck.check_replay_cache(filled, {**filled, "c.json": (4, 50)})


def test_inputs_follow_the_seed():
    assert wl.random_graph(Random(5), 10) == wl.random_graph(Random(5), 10)
    assert wl.random_pattern(Random(5), 4, 3) == wl.random_pattern(Random(5), 4, 3)
    pool = {y for seed in range(20) for y in wl.random_pattern(Random(seed), 3, 2)}
    assert pool == {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}


def test_self_time_subtracts_children(monkeypatch):
    clock = iter([0.0, 1.0, 3.0, 4.0, 7.0, 8.0])
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer("")
    tracer.enter("verify.check")        # 0
    tracer.enter("solver.max_edges")    # 1
    tracer.leave()                      # 3: child took 2
    tracer.enter("solver.max_edges")    # 4
    tracer.leave()                      # 7: child took 3
    tracer.leave()                      # 8
    assert tracer.self_time["solver.max_edges"] == 5.0
    assert tracer.self_time["verify.check"] == 3.0
    assert tracer.parents == [-1, 0, 0]


def test_generator_spans_count_classes():
    tracer = spans.Tracer("")
    wrapped = tracer.wrap("genfree.count_free", lambda: None)
    assert wrapped() is None          # plain functions pass through

    def gen():
        yield 1
        yield 2

    listed = list(tracer.wrap("genfree.free_graphs", gen)())
    assert listed == [1, 2] and tracer.yields["genfree.free_graphs"] == 2
    assert tracer.calls["genfree.free_graphs"] == 1
    assert tracer.names.count("genfree.free_graphs") == 3  # one per resume


def test_speed_scaling_removes_probe_time():
    probe = speed.SpeedProbe()
    probe.samples = [2 * speed.REFERENCE_S] * 4   # machine at half speed
    probe.spent = 8 * speed.REFERENCE_S
    scaled = probe.scaled(1.0 + 0.003, (0, 0.0), (4, 0.003))
    assert scaled == pytest.approx(0.5)
    probe.sample()
    assert len(probe.samples) == 5 and probe.spent > 8 * speed.REFERENCE_S


def test_speed_scale_ignores_one_long_sample():
    probe = speed.SpeedProbe()
    probe.samples = [speed.REFERENCE_S] * 9 + [100 * speed.REFERENCE_S]
    assert probe.scale((0, 0.0), (10, 0.0)) == pytest.approx(1.0)


def test_speed_sample_leaves_the_collector_as_it_was():
    probe = speed.SpeedProbe()
    probe.sample()
    assert speed.gc.isenabled()
    speed.gc.disable()
    try:
        probe.sample()
        assert not speed.gc.isenabled()
    finally:
        speed.gc.enable()
