"""Checks module: growth-function parsing, each check against hand-worked
instances (both passing and violating), and the low-degree trim."""

from fractions import Fraction

import pytest

from turankit.core import Hypergraph, complete
from turankit.errors import BudgetExceededError
from turankit import solver
from turankit.patterns import Pattern
from turankit.solver import config_of, ex_table
from turankit.verify import (
    BoundsParams,
    GrowthFn,
    check_boundedness,
    check_facts,
    check_lemmas,
    check_main_theorem,
    check_matching_theorems,
    check_rainbow,
    check_remark_2k3,
    check_smoothness,
    parse_growth,
    trim_low_degree,
)
from turankit.zoo import turan

K3 = complete(3, 2)
MANTEL = Pattern(2, 2, ((1, 2),))
K35 = Hypergraph(8, 2, tuple((i, j) for i in range(3) for j in range(3, 8)))
STAR7 = Hypergraph(8, 2, tuple((0, v) for v in range(1, 8)))


@pytest.fixture(scope="module")
def k3_table():
    return ex_table(config_of([(K3, 1)]), 3, 10)


# ---------------------------------------------------------------- growth


def test_parse_growth_forms():
    assert parse_growth("0").kind == "zero"
    assert parse_growth("zero")(17, 3) == 0
    g = parse_growth("3/2")
    assert g.kind == "const" and g(10, 2) == Fraction(3, 2)
    g = parse_growth("4*C(n-1,r-2)")
    assert g.kind == "cn1r2" and g.c == 4
    assert g(10, 2) == 4  # C(9,0) = 1
    assert g(10, 3) == 36
    g = parse_growth("1/24*C(n,r-1)")
    assert g(8, 2) == Fraction(1, 3)
    assert parse_growth("C(n,r-1)").c == 1
    assert str(parse_growth("4*C(n-1,r-2)")) == "4*C(n-1,r-2)"
    assert str(parse_growth("0")) == "0"


def test_parse_growth_rejects():
    for bad in ("C(n,r-3)", "x*C(n,r-1)", "2*C(n-2,r-1)", "C(n-1,r-1)", ""):
        with pytest.raises(ValueError):
            parse_growth(bad)


def test_growth_negative_binomial_guard():
    assert GrowthFn("cn1r2", Fraction(5))(4, 1) == 0


# ------------------------------------------------------------ smoothness


def test_smoothness_pass(k3_table):
    report = check_smoothness(k3_table, parse_growth("4*C(n-1,r-2)"))
    assert report.status == "pass"
    assert report.violations == ()


def test_smoothness_residuals_reported(k3_table):
    report = check_smoothness(k3_table, parse_growth("0"))
    assert report.status == "fail"
    by_n = {v.instance: v for v in report.violations}
    # delta(6) = 3 while d(5) = 12/5: residual 3/5
    assert "residual 3/5" in by_n["n=6"].actual


def test_smoothness_needs_two_points():
    table = ex_table(config_of([(K3, 1)]), 5, 5)
    with pytest.raises(ValueError):
        check_smoothness(table, parse_growth("0"))


def test_report_json_shape(k3_table):
    doc = check_smoothness(k3_table, parse_growth("0")).to_json()
    assert set(doc) == {"name", "params", "status", "violations",
                       "elapsed_ms"}
    assert doc["name"] == "smoothness"
    assert all(set(v) == {"instance", "expected", "actual"}
               for v in doc["violations"])


# ----------------------------------------------------------- boundedness


def test_boundedness_extremal_only_pass():
    report = check_boundedness(K3, 8, BoundsParams())
    assert report.status == "pass"


def test_boundedness_enumerate_finds_small_n_violation():
    # with f1 = C(n,1)/32 the 15-edge K_{3,5} qualifies (average 15/4)
    # and its max degree 5 beats d + f2 = 4 + 1/3
    params = BoundsParams(f1=parse_growth("1/32*C(n,r-1)"),
                          f2=parse_growth("1/24*C(n,r-1)"))
    report = check_boundedness(K3, 8, params, mode="enumerate")
    assert report.status == "observational"
    assert any("max degree 5" in v.actual for v in report.violations)


def test_boundedness_enumerate_pass_when_only_extremal_qualify():
    report = check_boundedness(K3, 6, BoundsParams(), mode="enumerate")
    assert report.status == "pass"


def test_boundedness_budget_and_mode():
    with pytest.raises(BudgetExceededError):
        check_boundedness(K3, 9, BoundsParams(), mode="enumerate")
    with pytest.raises(BudgetExceededError):
        check_boundedness(complete(4, 3), 6, BoundsParams(),
                          mode="enumerate")
    with pytest.raises(ValueError):
        check_boundedness(K3, 6, BoundsParams(), mode="everything")
    for mode in ("extremal-only", "enumerate"):
        with pytest.raises(ValueError):                 # d(n) divides by n
            check_boundedness(K3, 0, BoundsParams(), mode=mode)


# ---------------------------------------------------------- main theorem


def test_main_theorem_k3():
    report = check_main_theorem(K3, 9, 1)
    assert report.status == "pass"
    assert report.violations == ()


def test_main_theorem_t_zero_degenerates_to_base():
    assert check_main_theorem(K3, 6, 0).status == "pass"


def test_main_theorem_validation():
    with pytest.raises(ValueError):
        check_main_theorem(K3, 9, -1)


def test_main_theorem_detects_formula_failure():
    # forbidding 3 disjoint edges on 6 vertices: the clique K_5 (10 edges)
    # beats the 2-apex construction (9 edges), so (i) and (ii) must fail
    report = check_main_theorem(complete(2, 2), 6, 2)
    assert report.status == "fail"
    kinds = {v.instance.split()[0] for v in report.violations}
    assert "(i)" in kinds and "(ii)" in kinds


def test_main_theorem_solves_each_instance_once(monkeypatch, tmp_path):
    # cold cache: one enumeration of EX(n-t, F) and one of the joined
    # instance, each solving its value and classes in one call
    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    calls = []
    real = solver._solve

    def counted(n, config, *args):
        calls.append((n, config.families[0][1]))
        return real(n, config, *args)

    monkeypatch.setattr(solver, "_solve", counted)
    assert check_main_theorem(K3, 9, 1).status == "pass"
    assert calls == [(8, 1), (9, 2)]


def test_main_theorem_and_rainbow_past_sixteen_vertices():
    # the packings of (iii) and the rainbow trials run on 17 vertices
    edge = complete(2, 2)
    assert check_main_theorem(edge, 17, 1).status == "pass"
    assert check_rainbow(edge, 17, 1, trials=20, rng_seed=3).status == "pass"


def test_main_theorem_needs_at_most_n_apexes():
    with pytest.raises(ValueError, match=r"t=4 must satisfy 0 <= t <= n=3"):
        check_main_theorem(K3, 3, 4)


def test_main_theorem_compares_classes_without_lex_min_forms(
        monkeypatch, tmp_path):
    from turankit import core
    from turankit.verify import known_density

    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    check_main_theorem(K3, 9, 1)  # fills the solver's cache
    core._canonical_form_cached.cache_clear()
    for t in (1, 2):
        config_of([(K3, t)])  # caches the configs' own lex-min forms
    calls = []
    real = core.canonical_labeling

    def counted(n, edges):
        calls.append(n)
        return real(n, edges)

    monkeypatch.setattr(core, "canonical_labeling", counted)
    assert core.are_isomorphic(turan(7, 2, 2), turan(7, 2, 2).relabeled(
        (6, 5, 4, 3, 2, 1, 0)))
    assert known_density(complete(6, 2)) == Fraction(4, 5)
    assert check_main_theorem(K3, 9, 1).status == "pass"
    assert calls == []


# ---------------------------------------------------------------- remark


def test_remark_2k3_instance():
    report = check_remark_2k3(30, 2)
    assert report.status == "pass"
    assert report.violations == ()


def test_remark_2k3_smallest_n():
    assert check_remark_2k3(18, 2).status == "pass"


def test_remark_2k3_small_t_observational():
    report = check_remark_2k3(30, 1)
    assert report.status == "observational"
    assert "lhs=" in report.violations[0].actual


def test_remark_2k3_needs_room():
    with pytest.raises(ValueError):
        check_remark_2k3(17, 2)


def test_remark_2k3_refuses_negative_t():
    # n = 6 is room enough for t = -1, which is no number of apices
    with pytest.raises(ValueError, match="t >= 0, not -1"):
        check_remark_2k3(6, -1)


# ---------------------------------------------------------------- lemmas


def test_lemmas_sweep(k3_table):
    report = check_lemmas(60, tables=(k3_table,))
    assert report.status == "pass"
    assert report.violations == ()


def test_lemmas_budget():
    with pytest.raises(ValueError):
        check_lemmas(201)


def test_lemmas_refuse_an_empty_sweep():
    # below n_max = 1 the sweeps check nothing, which is no pass
    for n_max in (0, -5):
        with pytest.raises(ValueError, match=f"not {n_max}"):
            check_lemmas(n_max)


# ----------------------------------------------------------------- facts


def test_facts_with_matching_pattern():
    report = check_facts(K3, MANTEL, 6)
    assert report.status == "pass"
    assert report.violations == ()


def test_facts_without_pattern():
    assert check_facts(K3, None, 5).status == "pass"


def test_facts_flags_wrong_pattern():
    # one edgeless part: its blowups are triangle-free, but no extremal
    # graph is an entire blowup of it
    report = check_facts(K3, Pattern(1, 2, ()), 6)
    assert report.status == "fail"
    assert any("no full assignment" in v.actual for v in report.violations)


def test_facts_refuses_zero_vertices():
    for p in (None, MANTEL):
        with pytest.raises(ValueError, match="n >= 1, not 0"):
            check_facts(K3, p, 0)


# ------------------------------------------------------------- matchings


@pytest.mark.parametrize("n,t,expected", [
    (6, 1, 5), (6, 2, 10), (7, 1, 6), (7, 2, 11), (8, 2, 13)])
def test_matching_theorems_graphs(n, t, expected):
    report = check_matching_theorems(n, t, 2)
    assert report.status == "pass"
    # the formula the solver value was compared against
    assert report.violations == ()


def test_matching_theorems_triples_observational_params():
    report = check_matching_theorems(7, 1, 3)
    assert report.status == "pass"
    assert report.params["r"] == 3


def test_matching_theorems_never_read_a_bracket(monkeypatch, tmp_path):
    # the seed's count is the bracket's lower end and equals the formula;
    # under a node limit the check must not pass on it
    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    monkeypatch.setenv("TURANKIT_NODE_LIMIT", "3")
    with pytest.raises(BudgetExceededError):
        check_matching_theorems(9, 2, 2)


def test_matching_theorems_validation():
    with pytest.raises(ValueError):
        check_matching_theorems(6, 1, 1)


# ---------------------------------------------------------------- rainbow


def test_rainbow_boundary_and_trials():
    report = check_rainbow(K3, 9, 1, trials=10, rng_seed=7)
    assert report.status == "pass"
    assert report.violations == ()
    # the threshold host is complete: no collection lies above it
    report = check_rainbow(complete(4, 2), 4, 1, 1, 0)
    assert report.status == "pass"


def test_rainbow_checks_apex_count_before_solving(monkeypatch):
    def no_solve(*args):
        raise AssertionError("solved before validating t")

    monkeypatch.setattr(solver, "_solve", no_solve)
    with pytest.raises(ValueError, match=r"t=-1 must satisfy 0 <= t <= n=7"):
        check_rainbow(K3, 7, -1, 0, 0)


def test_rainbow_refuses_negative_trials(monkeypatch):
    # no number of trials below zero is run, so it is no pass
    def no_solve(*args):
        raise AssertionError("solved before validating trials")

    monkeypatch.setattr(solver, "_solve", no_solve)
    with pytest.raises(ValueError, match="trials >= 0, not -3"):
        check_rainbow(K3, 6, 1, -3, 0)


def test_rainbow_deterministic():
    a = check_rainbow(K3, 9, 1, trials=3, rng_seed=11).to_json()
    b = check_rainbow(K3, 9, 1, trials=3, rng_seed=11).to_json()
    a.pop("elapsed_ms")
    b.pop("elapsed_ms")
    assert a == b


# ------------------------------------------------------------------- trim


def test_trim_keeps_balanced_graph():
    z, trimmed, report = trim_low_degree(
        turan(8, 2, 2), Fraction(1, 100), Fraction(1, 2))
    assert z == ()
    assert trimmed == turan(8, 2, 2)
    assert report.status == "pass"


def test_trim_star_drops_leaves():
    z, trimmed, report = trim_low_degree(
        STAR7, Fraction(1, 100), Fraction(1, 2))
    assert z == tuple(range(1, 8))
    assert trimmed.n == 1 and trimmed.edge_count == 0
    assert report.status == "observational"
    assert len(report.violations) == 2  # |Z| too big, min degree too small


def test_trim_zero_density_means_no_trim():
    z, trimmed, report = trim_low_degree(K35, Fraction(1, 4), Fraction(0))
    assert z == ()
    assert trimmed == K35
    assert report.status == "pass"


def test_trim_exact_boundary_vertex_is_dropped():
    # eps = 1/4 and pi_hat = 1: the cut sits exactly at degree 0
    h = Hypergraph(3, 2, ((0, 1),))
    z, trimmed, _ = trim_low_degree(h, Fraction(1, 4), Fraction(1))
    assert z == (2,)
    assert trimmed == Hypergraph(2, 2, ((0, 1),))


def test_trim_relabels_order_preserving():
    h = Hypergraph(4, 2, ((1, 2), (1, 3), (2, 3)))
    z, trimmed, _ = trim_low_degree(h, Fraction(1, 100), Fraction(2, 3))
    assert z == (0,)
    assert trimmed == Hypergraph(3, 2, ((0, 1), (0, 2), (1, 2)))


def test_trim_zero_vertex_host_trims_nothing():
    h = Hypergraph(0, 2, ())
    z, trimmed, report = trim_low_degree(h, Fraction(1, 100), Fraction(1, 2))
    assert z == () and trimmed == h
    assert report.status == "pass"


def test_trim_eps_validation():
    for eps in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            trim_low_degree(K35, eps, Fraction(1, 2))


# ------------------------------------------------------------- densities


def test_known_density_table():
    from turankit.verify import known_density
    from turankit.zoo import f32, fano

    assert known_density(K3) == Fraction(1, 2)
    assert known_density(complete(5, 2)) == Fraction(3, 4)
    # lookup is by isomorphism class, not labeling
    relabeled = Hypergraph(3, 2, ((0, 1), (0, 2), (1, 2)))
    assert known_density(relabeled) == Fraction(1, 2)
    assert known_density(fano()) == Fraction(3, 4)
    assert known_density(f32()) == Fraction(4, 9)
    assert known_density(STAR7) is None
