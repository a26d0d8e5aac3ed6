"""The disjoint-copy kernel behind `matching`, against the memo search and
the host-by-host rainbow walk it replaced (`oracles`)."""

from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from turankit import matching
from turankit.core import Hypergraph, complete, empty, join
from turankit.matching import (
    MatchingWitness, _normalize_families, has_disjoint_config,
    matching_number, rainbow_matching,
)
from turankit.zoo import turan

from oracles import (
    reference_has_disjoint_config, reference_matching_number,
    reference_rainbow_matching,
)

K2 = complete(2, 2)
K3 = complete(3, 2)
BOUNDARY = [join(4, turan(12, 2, 2))] * 5  # t = 4 disjoint K3 fit, not 5


@st.composite
def families_and_hosts(draw):
    """r in {2, 3}; one to three families of at most r + 2 vertices
    (edgeless and isolated vertices allowed, demands 1 or 2); one to three
    hosts on a shared n <= 10, of densities from sparse to complete."""
    r = draw(st.sampled_from([2, 3]))
    families = []
    for _ in range(draw(st.integers(1, 3))):
        v = draw(st.integers(1, r + 2))
        pool = list(combinations(range(v), r))
        edges = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True)
                     if pool else st.just([]))
        families.append((Hypergraph(v, r, tuple(sorted(edges))),
                         draw(st.integers(1, 2))))
    n = draw(st.integers(r, 10))
    rnd = draw(st.randoms(use_true_random=False))
    hosts = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.sampled_from([0.3, 0.6, 0.85, 1.0]))
        hosts.append(Hypergraph(n, r, tuple(
            e for e in combinations(range(n), r) if rnd.random() < p)))
    return families, hosts


@settings(max_examples=100)
@given(families_and_hosts())
def test_matching_number_matches_memo_search(case):
    families, hosts = case
    f, h = families[0][0], hosts[0]
    assert matching_number(f, h) == reference_matching_number(f, h)
    assert matching_number(f, h, cap=1) == reference_matching_number(f, h, 1)


@settings(max_examples=100)
@given(families_and_hosts())
@example(([(K3, 1)], BOUNDARY))
@example(([(K3, 1)], BOUNDARY[:4]))
def test_rainbow_matches_host_by_host_walk(case):
    families, hosts = case
    f = families[0][0]
    assert rainbow_matching(hosts, f) == reference_rainbow_matching(hosts, f)


@settings(max_examples=100)
@given(families_and_hosts())
def test_disjoint_config_matches_memo_search(case):
    # one isomorphism class: the same witness; several: the same answer,
    # the witness now being the least choice in family-major order
    families, hosts = case
    got = has_disjoint_config(hosts[0], families)
    ref = reference_has_disjoint_config(hosts[0], families)
    assert (got is None) == (ref is None)
    if len(_normalize_families(families)) == 1:
        assert got == ref


def test_mixed_families_take_the_family_major_witness():
    h = Hypergraph(5, 2, ((0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (2, 4)))
    config = [(K2, 1), (K3, 1)]

    def placed(w):
        return [(e.family, e.vertices) for e in w.entries]
    assert placed(has_disjoint_config(h, config)) == [(0, (1, 3)),
                                                      (1, (0, 2, 4))]
    # the memo search pivoted on vertex 0 and found another packing
    assert placed(reference_has_disjoint_config(h, config)) == [
        (0, (2, 4)), (1, (0, 1, 3))]


def test_empty_config_has_an_empty_witness():
    assert has_disjoint_config(complete(5, 2), []) == MatchingWitness(())


def test_rainbow_host_without_a_copy():
    assert rainbow_matching([empty(6, 2)], K3) is None


def test_matching_cap_zero():
    assert matching_number(K3, complete(9, 2), cap=0) == (0, MatchingWitness(()))


def test_edgeless_family():
    h = Hypergraph(5, 2, K3.edges)
    pair = Hypergraph(2, 2, ())
    w = has_disjoint_config(h, [(pair, 1), (K3, 1)])
    assert [(e.family, e.vertices) for e in w.entries] == [(0, (3, 4)),
                                                           (1, (0, 1, 2))]
    assert has_disjoint_config(h, [(pair, 2), (K3, 1)]) is None
    assert has_disjoint_config(h, [(pair, 2)]) == \
        reference_has_disjoint_config(h, [(pair, 2)])


def test_matching_number_builds_its_bit_space_once(monkeypatch):
    # only the demand changes as s = 1, 2, ... is asked
    built = []
    real = matching._conflicts

    def counted(masks, n):
        built.append(len(masks))
        return real(masks, n)

    monkeypatch.setattr(matching, "_conflicts", counted)
    assert matching_number(K3, complete(9, 2))[0] == 3
    assert built == [84]  # C(9, 3) triangles
