"""Pattern/blowup/Lagrangian tests.

Brute-force oracles used here: direct profile filtering for blowup edge
sets, exhaustive composition enumeration for the finite maxima, and
closed-form densities at known optima.  `lambda_n` is also checked
against its pre-symmetry-breaking walk kept in `oracles`, which prunes
with per-profile suffix maxima instead of exact sub-pattern rows, and
against the per-size walk that preceded run bounds, row for row.  The
row floors, the ascent's gradient and the density polynomial are checked,
exactly, against the kernels they replaced, kept in `oracles`.
"""

import gc
import sys
import threading
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    ReferenceSizeSearch, reference_gradient, reference_lambda_n,
    reference_poly_eval, reference_row_floor,
)

from turankit.core import Hypergraph, complete, empty
from turankit.errors import BudgetExceededError, FormatError
import turankit.patterns as patterns
from turankit.patterns import (
    LagrangianEstimate, Pattern, _assignment_search, blowup, blowup_count,
    density_poly_eval, dumps_pat, full_construction_assignment, is_minimal,
    is_subconstruction, lagrangian, lambda_n, loads_pat, remove_part,
)
from turankit.zoo import bipartite3, semibipartite, turan

S3 = Pattern(2, 3, ((1, 2, 2),))
B4_EVEN = Pattern(2, 4, ((1, 1, 2, 2),))
MANTEL = Pattern(2, 2, ((1, 2),))
B3_PAT = Pattern(2, 3, ((1, 1, 2), (1, 2, 2)))


def kl_pattern(l):
    return Pattern(l, 2, tuple((i, j) for i in range(1, l + 1)
                               for j in range(i + 1, l + 1)))


def all_profiles(k, r, *missing):
    """Every r-multiset of parts 1..k except `missing`: blowups are
    complete or nearly so, and many compositions tie."""
    return Pattern(k, r, tuple(y for y in
                               combinations_with_replacement(range(1, k + 1), r)
                               if y not in missing))


def compositions(n, k):
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def brute_blowup_edges(p, c):
    """All r-sets of the consecutive layout whose profile is admissible."""
    n = sum(c)
    part_of = []
    for i, size in enumerate(c, start=1):
        part_of.extend([i] * size)
    admissible = set(p.multisets)
    return tuple(e for e in combinations(range(n), p.r)
                 if tuple(sorted(part_of[v] for v in e)) in admissible)


def brute_lambda(p, n):
    best = max((blowup_count(p, c), c) for c in compositions(n, p.k))
    return best


def test_pattern_normalizes_and_validates():
    p = Pattern(2, 3, ((2, 2, 1), (2, 1, 1)))
    assert p.multisets == ((1, 1, 2), (1, 2, 2))
    with pytest.raises(ValueError):
        Pattern(2, 3, ((1, 2), ))
    with pytest.raises(ValueError):
        Pattern(2, 3, ((1, 2, 3),))
    with pytest.raises(ValueError):
        Pattern(2, 3, ((1, 2, 2), (2, 2, 1)))
    with pytest.raises(ValueError):
        Pattern(2, 0, ())
    with pytest.raises(ValueError):
        Pattern(-1, 2, ())


def test_blowup_examples():
    assert blowup(MANTEL, (2, 3)).edge_count == 6
    assert blowup(S3, (2, 4)).edge_count == 12
    assert blowup(Pattern(1, 2, ((1, 1),)), (6,)) == complete(6, 2)


def test_blowup_matches_profile_filter():
    cases = [(MANTEL, (3, 4)), (S3, (2, 5)), (B4_EVEN, (3, 3)),
             (B3_PAT, (4, 3)), (kl_pattern(3), (2, 3, 2)),
             (Pattern(2, 1, ((1,),)), (2, 3))]
    for p, c in cases:
        g = blowup(p, c)
        assert g.n == sum(c)
        assert g.edges == brute_blowup_edges(p, c)
        assert g.edge_count == blowup_count(p, c)


def test_blowup_empty_pattern():
    g = blowup(Pattern(2, 3, ()), (3, 2))
    assert g.n == 5 and g.edge_count == 0
    assert blowup(Pattern(0, 2, ()), ()) == empty(0, 2)


def test_composition_refuses_non_int_parts():
    # a bool is an int subclass: (True, 2) would read as a 3-vertex split
    p = Pattern(2, 2, ((1, 2),))
    for c in [(True, 2), (2, False), (1.0, 2), (Fraction(1), 2)]:
        with pytest.raises(ValueError, match="int parts"):
            blowup(p, c)
        with pytest.raises(ValueError, match="int parts"):
            blowup_count(p, c)
    assert blowup_count(p, (1, 2)) == 2


def test_lambda_examples():
    assert lambda_n(MANTEL, 9) == (20, (5, 4))
    assert lambda_n(B4_EVEN, 8) == (36, (4, 4))
    assert lambda_n(S3, 6) == (12, (2, 4))


def test_lambda_tie_breaks_lexicographically_largest():
    # every composition of the all-pairs pattern gives the complete graph
    full = Pattern(2, 2, ((1, 1), (1, 2), (2, 2)))
    assert lambda_n(full, 7) == (21, (7, 0))
    assert lambda_n(Pattern(1, 2, ()), 5) == (0, (5,))


def test_lambda_matches_brute_force():
    for p in (MANTEL, S3, B4_EVEN, B3_PAT, kl_pattern(3),
              Pattern(2, 3, ((1, 2, 2), (2, 2, 2)))):
        for n in (0, 1, 4, 7, 10):
            assert lambda_n(p, n) == brute_lambda(p, n)


def test_lambda_matches_reference_walk():
    # the acceptance fixtures: S3, B4 and the cliques K2..K5
    for p in [S3, B4_EVEN] + [kl_pattern(l) for l in range(2, 6)]:
        for n in range(36):
            assert lambda_n(p, n) == reference_lambda_n(p, n)


def test_lambda_pins_at_n_120():
    # the largest clique the budget allows; the asymmetric pattern has
    # no swappable parts, so no symmetry cap prunes its walk
    assert lambda_n(kl_pattern(6), 120) == (6000, (20,) * 6)
    # parts 1, 2, 4, 5 span the only K4, so the count is the Turán
    # number t(120, 4) (the suffix-bound walk agrees, in minutes)
    asymmetric = Pattern(6, 2, ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6),
                                (2, 3), (2, 4), (2, 5), (4, 5), (4, 6)))
    assert lambda_n(asymmetric, 120) == (5400, (30, 30, 0, 30, 30, 0))
    assert turan(120, 4, 2).edge_count == 5400


def test_lambda_pendant_path_pin():
    # K4 on parts 1..4 and the path 4-5-6: the path's sub-patterns are
    # bipartite, with wide plateaus of maximizers that the run bounds
    # still cut slowly (n = 120 takes seconds); the pendant parts stay
    # empty and the count is the Turan number t(60, 4)
    p = Pattern(6, 2, tuple(combinations(range(1, 5), 2)) + ((4, 5), (5, 6)))
    assert lambda_n(p, 60) == (1350, (15, 15, 15, 15, 0, 0))
    assert turan(60, 4, 2).edge_count == 1350


def searches_made(monkeypatch, search):
    """Make `_row` build its searches as `search`, and list each one."""
    made = []

    class Listed(search):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(patterns, "_BlowupSearch", Listed)
    return made


def test_run_bound_sizes_tried(monkeypatch):
    # bounds evaluated from a cold memo, over every row the call builds;
    # trying each size on its own, as the reference walk does, costs more
    run_search = patterns._BlowupSearch
    for p, n, runs, sizes in ((kl_pattern(6), 120, 19575, 27617),
                              (S3, 200, 9858, 20301)):
        for search, want in ((run_search, runs),
                             (ReferenceSizeSearch, sizes)):
            made = searches_made(monkeypatch, search)
            patterns._ROWS.clear()
            lambda_n(p, n)
            assert sum(s.tried for s in made) == want
    patterns._ROWS.clear()


def test_lambda_unbalanced_optimum():
    # one vertex from the first part, a pair from the second
    value, best = lambda_n(Pattern(2, 3, ((1, 2, 2),)), 9)
    assert (value, best) == (3 * comb(6, 2), (3, 6))
    assert semibipartite(9, 3).edge_count == value


def test_lambda_agrees_with_turan_counts():
    for l in (2, 3, 4):
        p = kl_pattern(l)
        for n in (5, 8, 13):
            assert lambda_n(p, n)[0] == turan(n, l, 2).edge_count


def test_lambda_budget():
    with pytest.raises(BudgetExceededError):
        lambda_n(kl_pattern(7), 10)
    with pytest.raises(BudgetExceededError):
        lambda_n(MANTEL, 201)


def test_bracket_budget_refuses_before_the_ascent(monkeypatch):
    # the upper end needs lambda_n(p, N): over its budget, no exact
    # evaluation of the ascent's points is paid for first
    evals = []
    evaluate = patterns.density_poly_eval
    monkeypatch.setattr(patterns, "density_poly_eval",
                        lambda *args: evals.append(args) or evaluate(*args))
    for call in (lambda: lagrangian(kl_pattern(7)),
                 lambda: is_minimal(kl_pattern(7)),
                 lambda: lagrangian(MANTEL, N=201)):
        with pytest.raises(BudgetExceededError,
                           match=r"lambda_n budget is k <= 6, n <= 200"):
            call()
    assert evals == []
    # a pattern without profiles needs no lambda_n, so it stays answered
    assert lagrangian(Pattern(7, 2, ())).upper == 0


def test_row_memo_stays_under_its_cap():
    # more new patterns than the cap: the memo empties and refills
    pool = list(combinations_with_replacement(range(1, 5), 2))
    sizes = []
    for mask in range(1, patterns._ROWS_CAP + 50):
        chosen = tuple(y for bit, y in enumerate(pool) if mask >> bit & 1)
        p = Pattern(4, 2, chosen)
        assert lambda_n(p, 4) == brute_lambda(p, 4)
        sizes.append(len(patterns._ROWS))
    assert max(sizes) <= patterns._ROWS_CAP
    assert any(b < a for a, b in zip(sizes, sizes[1:]))


def test_density_poly_examples():
    third = Fraction(1, 3)
    half = Fraction(1, 2)
    assert density_poly_eval(S3, (third, 2 * third)) == Fraction(4, 9)
    assert density_poly_eval(B4_EVEN, (half, half)) == Fraction(3, 8)
    assert density_poly_eval(MANTEL, (half, half)) == half
    with pytest.raises(ValueError):
        density_poly_eval(MANTEL, (half, half, Fraction(0)))
    with pytest.raises(ValueError):
        density_poly_eval(MANTEL, (Fraction(2, 3), Fraction(2, 3)))


@st.composite
def simplex_points(draw, k):
    """k nonnegative rationals summing to 1, with denominators that
    differ from coordinate to coordinate, zeros and vertices included."""
    raw = draw(st.lists(st.fractions(min_value=0, max_value=5,
                                     max_denominator=40),
                        min_size=k, max_size=k))
    if not any(raw):
        raw[draw(st.integers(min_value=0, max_value=k - 1))] = Fraction(1)
    return tuple(v / sum(raw) for v in raw)


@st.composite
def patterns_at_points(draw):
    p = draw(small_patterns())
    return p, draw(simplex_points(p.k))


@example((all_profiles(3, 3), (Fraction(1, 7), Fraction(5, 11),
                                Fraction(31, 77))))
@example((S3, (Fraction(1), Fraction(0))))
@settings(max_examples=200)
@given(patterns_at_points())
def test_poly_eval_matches_the_fraction_loop(case):
    # one integer sum over the common denominator, against one `Fraction`
    # product and sum per term
    p, x = case
    got = density_poly_eval(p, x)
    assert type(got) is Fraction
    assert got == reference_poly_eval(p, x)


@st.composite
def ascent_points(draw):
    """A pattern and float points where its ascent can be: uniform, each
    vertex, and a random point with some coordinates exactly zero."""
    p = draw(small_patterns())
    raw = draw(st.lists(st.one_of(st.just(0.0),
                                  st.floats(min_value=1e-9, max_value=1.0)),
                        min_size=p.k, max_size=p.k))
    points = [[1.0 / p.k] * p.k]
    points += [[1.0 if j == i else 0.0 for j in range(p.k)]
               for i in range(p.k)]
    if sum(raw) > 0:
        points.append([v / sum(raw) for v in raw])
    return p, points


@example((all_profiles(3, 3), [[0.5, 0.0, 0.5], [0.25, 0.25, 0.5]]))
@settings(max_examples=200)
@given(ascent_points())
def test_sparse_gradient_matches_the_dense_loop(case):
    # bit for bit, so every ascent iterate and snapped witness is too
    p, points = case
    terms = patterns._gradient_terms(p)
    for xs in points:
        got = patterns._gradient(p.k, terms, xs)
        want = reference_gradient(p, xs)
        assert got == want
        assert [v.hex() for v in got] == [v.hex() for v in want]


def test_lagrangian_pinned_bracket():
    # the witness is the snap of where the ascent stopped, so it pins the
    # float iterates as well as the bracket
    est = lagrangian(Pattern(3, 3, ((1, 1, 2), (1, 2, 3), (2, 3, 3))), N=40)
    assert est == LagrangianEstimate(
        Fraction(4, 9), Fraction(351, 760),
        (Fraction(65666, 252547), Fraction(1, 3), Fraction(308096, 757641)),
        40)


@st.composite
def floor_cases(draw):
    """A pattern the blowup search runs on, a size n and a composition
    of less than n, where `_row` reads a floor."""
    p = draw(small_patterns(max_k=5, min_r=2).filter(lambda p: p.multisets))
    n = draw(st.integers(min_value=1, max_value=30))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                min_size=p.k - 1, max_size=p.k - 1)))
    total = draw(st.integers(min_value=max(cuts, default=0),
                             max_value=n - 1))
    bounds = [0] + cuts + [total]
    return p, n, tuple(b - a for a, b in zip(bounds, bounds[1:]))


@example((kl_pattern(4), 9, (0, 0, 0, 8)))
@example((all_profiles(3, 3, (1, 1, 1)), 12, (4, 0, 7)))
@settings(max_examples=200, deadline=None)
@given(floor_cases())
def test_row_floor_matches_the_full_counts(case):
    # one pass over the profiles, against the largest of k full counts
    p, n, c = case
    search = patterns._BlowupSearch(p.k, p.multisets, n)
    assert search.max_extension(c) == reference_row_floor(p.k, p.multisets, c)
    patterns._ROWS.clear()


def test_wrong_types_are_refused_before_any_work(monkeypatch):
    # a float or bool size is refused before the ascent or the search runs
    made = searches_made(monkeypatch, patterns._BlowupSearch)
    steps = []
    gradient = patterns._gradient
    monkeypatch.setattr(patterns, "_gradient",
                        lambda *args: steps.append(args) or gradient(*args))
    patterns._ROWS.clear()
    for call in (lambda: lagrangian(S3, N=10.5),
                 lambda: lagrangian(S3, N=True),
                 lambda: is_minimal(S3, N=10.5),
                 lambda: is_minimal(S3, N=False),
                 lambda: lambda_n(S3, True),
                 lambda: lambda_n(S3, 12.0),
                 lambda: lambda_n(Pattern(0, 2, ()), False)):
        with pytest.raises(ValueError, match="must be an int"):
            call()
    assert steps == [] and made == [] and not patterns._ROWS


def test_density_ratio_nonincreasing():
    for p in (S3, B4_EVEN, MANTEL, kl_pattern(4)):
        prev = None
        for n in range(max(3, p.r), 61):
            ratio = Fraction(lambda_n(p, n)[0], comb(n, p.r))
            if prev is not None:
                assert ratio <= prev
            prev = ratio


def test_density_ratio_converges_to_polynomial():
    # count/C(n,r) approaches the polynomial at the normalized composition
    for p in (S3, B4_EVEN, MANTEL):
        for n in (20, 40, 80):
            value, c = lambda_n(p, n)
            x = tuple(Fraction(ci, n) for ci in c)
            gap = abs(Fraction(value, comb(n, p.r)) - density_poly_eval(p, x))
            assert gap <= Fraction(p.r * p.r * p.k, n)


def test_lagrangian_exact_targets():
    assert lagrangian(S3).lower == Fraction(4, 9)
    assert lagrangian(B4_EVEN).lower == Fraction(3, 8)
    for l in (2, 3, 4, 5):
        # sup of the K_l density polynomial is 1 - 1/l (Motzkin-Straus),
        # so the certified bracket must contain it
        est = lagrangian(kl_pattern(l))
        assert est.lower == 1 - Fraction(1, l) <= est.upper
        assert est.width() <= Fraction(5, 100)


def test_lagrangian_bracket_structure():
    est = lagrangian(S3, N=60)
    assert isinstance(est, LagrangianEstimate)
    assert est.N == 60
    assert est.lower <= est.upper
    assert sum(est.witness) == 1 and all(v >= 0 for v in est.witness)
    assert density_poly_eval(S3, est.witness) == est.lower
    wide = lagrangian(S3, N=12)
    assert wide.upper >= est.upper


def test_lagrangian_degenerate_patterns():
    est = lagrangian(Pattern(2, 2, ()))
    assert (est.lower, est.upper) == (0, 0)
    vertexy = lagrangian(Pattern(2, 1, ((1,),)))
    assert vertexy.lower == 1 == vertexy.upper
    with pytest.raises(ValueError):
        lagrangian(S3, N=2)
    with pytest.raises(ValueError):
        lagrangian(S3, tol=Fraction(0))


def test_remove_part_examples():
    assert remove_part(MANTEL, 1) == Pattern(1, 2, ())
    assert remove_part(Pattern(2, 2, ((1, 2), (2, 2))), 1) == \
        Pattern(1, 2, ((1, 1),))
    assert remove_part(B3_PAT, 2) == Pattern(1, 3, ())
    with pytest.raises(ValueError):
        remove_part(MANTEL, 3)


def test_minimality_solves_each_distinct_removal_once(monkeypatch):
    asked = []
    solve = patterns.lagrangian

    def counted(q, *args):
        asked.append(q)
        return solve(q, *args)

    monkeypatch.setattr(patterns, "lagrangian", counted)
    # every part of K5 leaves K4
    report = is_minimal(kl_pattern(5))
    assert asked == [kl_pattern(5), kl_pattern(4)]
    assert [c.removed for c in report.parts] == [solve(kl_pattern(4))] * 5
    assert report.status == "minimal"
    # three different removals are three solves
    path = Pattern(3, 2, ((1, 2), (2, 3), (3, 3)))
    asked.clear()
    report = is_minimal(path)
    assert asked == [path] + [remove_part(path, i) for i in (1, 2, 3)]
    assert [c.removed for c in report.parts] == [
        solve(remove_part(path, i)) for i in (1, 2, 3)]


def test_minimality_verdicts():
    assert is_minimal(MANTEL).status == "minimal"
    assert is_minimal(S3).status == "minimal"
    report = is_minimal(Pattern(2, 2, ((1, 1), (1, 2), (2, 2))))
    assert report.status == "not_minimal"
    assert any(c.dominates for c in report.parts)
    good = is_minimal(B3_PAT)
    assert good.status == "minimal"
    assert all(c.separated for c in good.parts)


def test_subconstruction_examples():
    split = is_subconstruction(turan(6, 2, 2), MANTEL)
    assert split == (1, 1, 1, 2, 2, 2)
    assert is_subconstruction(complete(3, 2), MANTEL) is None
    split = is_subconstruction(bipartite3(7), B3_PAT)
    assert split is not None
    assert sorted(split) == [1, 1, 1, 1, 2, 2, 2]


def test_subconstruction_of_own_blowup():
    for p, c in [(S3, (2, 4)), (B4_EVEN, (3, 3)), (kl_pattern(3), (2, 2, 3))]:
        g = blowup(p, c)
        assignment = is_subconstruction(g, p)
        assert assignment is not None
        # the assignment must send every edge to an admissible profile
        admissible = set(p.multisets)
        for e in g.edges:
            assert tuple(sorted(assignment[v] for v in e)) in admissible


def test_subconstruction_budget():
    with pytest.raises(BudgetExceededError):
        is_subconstruction(empty(3, 2), kl_pattern(5))
    with pytest.raises(BudgetExceededError):
        is_subconstruction(empty(25, 2), MANTEL)


def test_assignment_search_lists_admissible_maps_in_order():
    # depth first with parts 1..k per vertex is lexicographic order
    cases = [(turan(6, 2, 2), MANTEL), (complete(3, 2), MANTEL),
             (bipartite3(5), B3_PAT), (empty(3, 2), kl_pattern(3)),
             (empty(0, 2), MANTEL), (empty(2, 2), Pattern(0, 2, ()))]
    for h, p in cases:
        admissible = set(p.multisets)
        want = [a for a in product(range(1, p.k + 1), repeat=h.n)
                if all(tuple(sorted(a[v] for v in e)) in admissible
                       for e in h.edges)]
        assert list(_assignment_search(h, p)) == want


def test_pattern_searches_leave_no_cyclic_garbage():
    # no search closure refers to itself, so what a call builds is freed
    # on return, without the cyclic collector
    k3 = kl_pattern(3)
    host = turan(9, 3, 2)
    # rows the memo already holds would leave lambda_n nothing to build
    patterns._ROWS.clear()
    calls = (lambda: lambda_n(k3, 30), lambda: lagrangian(k3),
             lambda: is_minimal(k3), lambda: is_subconstruction(host, k3),
             lambda: full_construction_assignment(host, k3))
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


def test_full_construction_recognition():
    t = turan(6, 2, 2)
    assert full_construction_assignment(t, MANTEL) == (1, 1, 1, 2, 2, 2)
    missing = Hypergraph(6, 2, tuple(e for e in t.edges if e != (0, 3)))
    assert full_construction_assignment(missing, MANTEL) is None
    assert is_subconstruction(missing, MANTEL) is not None
    b = blowup(B3_PAT, (4, 3))
    assert full_construction_assignment(b, B3_PAT) is not None


def test_pat_round_trip(tmp_path):
    from turankit.patterns import dump_pat, load_pat
    path = tmp_path / "s3.pat"
    dump_pat(S3, path)
    assert load_pat(path) == S3
    assert loads_pat(dumps_pat(B3_PAT)) == B3_PAT


def test_pat_format_errors():
    with pytest.raises(FormatError):
        loads_pat("not json")
    with pytest.raises(FormatError):
        loads_pat('{"k": 2, "r": 3}')
    with pytest.raises(FormatError):
        loads_pat('{"k": 2, "r": 3, "multisets": [[1,2,2]], "extra": 1}')
    with pytest.raises(FormatError):
        loads_pat('{"k": 2, "r": 3, "multisets": [[1,2]]}')
    with pytest.raises(FormatError):
        loads_pat('{"k": 2.5, "r": 3, "multisets": []}')
    # JSON booleans are not integers, wherever they stand
    for text in ('{"k": true, "r": 2, "multisets": [[1, 1]]}',
                 '{"k": 2, "r": false, "multisets": []}',
                 '{"k": 2, "r": 2, "multisets": [[true, 2]]}'):
        with pytest.raises(FormatError, match="must be integers"):
            loads_pat(text)


@st.composite
def small_patterns(draw, min_k=1, max_k=4, min_r=1):
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    r = draw(st.integers(min_value=min_r, max_value=3))
    pool = list(combinations_with_replacement(range(1, k + 1), r))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=0,
                           max_size=len(pool), unique=True))
    return Pattern(k, r, tuple(chosen))


# symmetries that are not transpositions: a 3-cycle of parts, and the
# product (1 2)(3 4); neither pattern has a single-swap automorphism.
# The last swap (1 2) fixes the profile (1, 2) but not (2, 2).
@example(Pattern(3, 3, ((1, 1, 2), (2, 2, 3), (1, 3, 3))), 8)
@example(Pattern(4, 2, ((1, 1), (2, 2), (1, 3), (2, 4))), 8)
@example(Pattern(2, 2, ((1, 2), (2, 2))), 4)
@settings(max_examples=200)
@given(small_patterns(), st.integers(min_value=0, max_value=8))
def test_lambda_brute_property(p, n):
    assert lambda_n(p, n) == brute_lambda(p, n)


# Sizes where the sub-pattern rows prune, against the suffix-bound walk.
# The examples tie widely, in the pattern or only in a sub-pattern, so
# the rows' seeded walks must still keep the lexicographically largest
# maximizer: all pairs on 3 parts; parts 2 and 3 all pairs with part 1
# idle; all pairs but (1, 1), where part 1 takes one vertex; the same
# for triples; and K3 beside a complete part.
@example(all_profiles(3, 2), 24)
@example(Pattern(3, 2, ((2, 2), (2, 3), (3, 3))), 24)
@example(all_profiles(4, 2, (1, 1)), 24)
@example(all_profiles(3, 3, (1, 1, 1)), 20)
@example(Pattern(4, 2, ((1, 2), (1, 3), (2, 3), (4, 4))), 23)
@settings(max_examples=100)
@given(small_patterns(min_k=3, max_k=5), st.integers(min_value=9, max_value=24))
def test_lambda_matches_reference_walk_property(p, n):
    assert lambda_n(p, n) == reference_lambda_n(p, n)


def memo_rows(queries, search):
    """Each query's answer, asked in order from a cold memo with `_row`
    building its searches as `search`, and the rows the memo then holds."""
    saved = patterns._BlowupSearch
    patterns._BlowupSearch = search
    patterns._ROWS.clear()
    try:
        answers = [lambda_n(p, n) for p, n in queries]
        return answers, {key: (list(values), list(comps))
                         for key, (values, comps) in patterns._ROWS.items()}
    finally:
        patterns._BlowupSearch = saved
        patterns._ROWS.clear()


# one part; all parts swappable, so each is capped by the one before;
# two swappable pairs, parts 1, 4 and parts 2, 3; a row extended twice
@example([(Pattern(1, 3, ((1, 1, 1),)), 40)])
@example([(kl_pattern(5), 40)])
@example([(all_profiles(4, 3, (1, 1, 1), (4, 4, 4)), 30)])
@example([(Pattern(4, 2, ((1, 2), (1, 3), (2, 3), (4, 4))), 12),
          (Pattern(4, 2, ((1, 2), (1, 3), (2, 3), (4, 4))), 40)])
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small_patterns(max_k=5),
                          st.integers(min_value=0, max_value=40)),
                min_size=1, max_size=3))
def test_run_bound_matches_the_size_walk(queries):
    # same values and maximizers, and the same entry in every memo row
    assert memo_rows(queries, patterns._BlowupSearch) == \
        memo_rows(queries, ReferenceSizeSearch)


@st.composite
def memo_queries(draw):
    """A few patterns, each asked at a few sizes, all in a random order."""
    ps = draw(st.lists(small_patterns(max_k=5, min_r=2), min_size=1,
                       max_size=3))
    queries = [(p, n) for p in ps
               for n in draw(st.lists(st.integers(min_value=0, max_value=20),
                                      min_size=1, max_size=4))]
    return draw(st.permutations(queries))


# a longer row of K4 after K5's search filled it as a sub-pattern row,
# then a shorter one read off it; and a row extended twice
@example([(kl_pattern(5), 10), (kl_pattern(4), 20), (kl_pattern(5), 20),
          (kl_pattern(4), 3)])
@example([(B3_PAT, 5), (B3_PAT, 12), (B3_PAT, 20), (B3_PAT, 0)])
@settings(max_examples=100, deadline=None)
@given(memo_queries())
def test_lambda_memo_answers_do_not_depend_on_order(queries):
    # whatever the memo holds when the queries come, each answer equals
    # the suffix-bound walk's and a cleared memo's
    got = [lambda_n(p, n) for p, n in queries]
    assert len(patterns._ROWS) <= patterns._ROWS_CAP
    saved = dict(patterns._ROWS)
    try:
        for (p, n), answer in zip(queries, got):
            assert answer == reference_lambda_n(p, n)
            patterns._ROWS.clear()
            assert lambda_n(p, n) == answer
    finally:
        patterns._ROWS.clear()
        patterns._ROWS.update(saved)


def test_lambda_memo_shared_by_threads():
    # threads switching every microsecond extend the same rows at once;
    # each answer must still equal a lone cleared-memo call's
    queries = [(p, n) for n in (6, 14, 9, 20, 3, 17)
               for p in (kl_pattern(4), kl_pattern(5), B3_PAT,
                         all_profiles(4, 2, (1, 1)))]
    want = {}
    for q in queries:
        patterns._ROWS.clear()
        want[q] = lambda_n(*q)
    patterns._ROWS.clear()
    got = []

    def ask(order):
        got.extend((q, lambda_n(*q)) for q in order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # each thread starts at a different point of the list
        threads = [threading.Thread(target=ask,
                                    args=(queries[5 * i:] + queries[:5 * i],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 * len(queries)
    assert all(answer == want[q] for q, answer in got)


@given(small_patterns())
def test_lagrangian_bracket_property(p):
    est = lagrangian(p, N=30)
    assert est.lower <= est.upper
    assert density_poly_eval(p, est.witness) == est.lower


@given(small_patterns(), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
def test_blowup_edges_property(p, a, b):
    c = tuple([a, b][:p.k]) + (0,) * max(0, p.k - 2)
    g = blowup(p, c)
    assert g.edges == brute_blowup_edges(p, c)
    assert g.edge_count == blowup_count(p, c)
