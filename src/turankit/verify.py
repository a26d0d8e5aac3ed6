"""Executable desk-scale checks of the exact statements the rest of the
package computes with: table smoothness, degree boundedness, the joined
extremal structure for disjoint-copy problems, matching formulas, lemma
arithmetic, minimum-degree facts, rainbow matchings, and low-degree
trimming.

Two kinds of check: *hard* checks assert instance statements (formulas,
identities, solver equalities) and fail on any violation; *observational*
checks probe asymptotic statements at small n, where counterexamples are
expected and informative — they report violations but never fail.  All
comparisons are exact (integers and Fractions; square-root thresholds are
compared in squared form), and every check is deterministic given its
parameters and seed.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random
from typing import Iterable, Optional

from .core import Hypergraph, _class_key, complete, dumps_hg, join
from .errors import BudgetExceededError
from .genfree import free_graphs
from .matching import embed, matching_number, rainbow_matching
from .patterns import Pattern, blowup, full_construction_assignment
from .solver import (TuranTable, _exact, config_of, enumerate_extremal,
                     max_edges)
from .zoo import f32, fano

# rational LOWER bound of e: checking LHS <= E_LOWER*RHS is the sound
# direction for certifying LHS <= e*RHS
E_LOWER = Fraction(27182818284, 10 ** 10)


@dataclass(frozen=True)
class Violation:
    instance: str
    expected: str
    actual: str


@dataclass(frozen=True)
class CheckReport:
    name: str
    params: dict
    status: str  # "pass" | "fail" | "observational"
    violations: tuple[Violation, ...]
    elapsed_ms: int

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "params": {k: str(v) for k, v in self.params.items()},
            "status": self.status,
            "violations": [
                {"instance": v.instance, "expected": v.expected,
                 "actual": v.actual} for v in self.violations],
            "elapsed_ms": self.elapsed_ms,
        }


def _report(name, params, violations, t0, observational=False) -> CheckReport:
    if not violations:
        status = "pass"
    else:
        status = "observational" if observational else "fail"
    return CheckReport(name, params, status, tuple(violations),
                       int((time.perf_counter() - t0) * 1000))


@dataclass(frozen=True)
class GrowthFn:
    """Closed-form nonnegative function of n: zero, a constant, or a
    rational multiple of C(n, r-1) or C(n-1, r-2)."""
    kind: str  # "zero" | "const" | "cnr1" | "cn1r2"
    c: Fraction = Fraction(0)

    def __call__(self, n: int, r: int) -> Fraction:
        if self.kind == "zero":
            return Fraction(0)
        if self.kind == "const":
            return self.c
        if self.kind == "cnr1":
            return self.c * comb(n, r - 1) if r >= 1 else Fraction(0)
        if self.kind == "cn1r2":
            return self.c * comb(n - 1, r - 2) if r >= 2 else Fraction(0)
        raise ValueError(f"unknown growth kind {self.kind!r}")

    def __str__(self) -> str:
        return {"zero": "0", "const": str(self.c),
                "cnr1": f"{self.c}*C(n,r-1)",
                "cn1r2": f"{self.c}*C(n-1,r-2)"}[self.kind]


_GROWTH_RE = re.compile(
    r"^(?:(?P<c>-?\d+(?:/\d+)?)\*)?C\(n(?P<shift>-1)?,r-(?P<down>[12])\)$")


def parse_growth(text: str) -> GrowthFn:
    """Parse "0", a rational like "3/2", or "c*C(n,r-1)" / "c*C(n-1,r-2)"."""
    s = text.strip().replace(" ", "")
    if s in ("0", "zero"):
        return GrowthFn("zero")
    m = _GROWTH_RE.match(s)
    if m:
        c = Fraction(m.group("c")) if m.group("c") else Fraction(1)
        shift, down = m.group("shift"), m.group("down")
        if shift is None and down == "1":
            return GrowthFn("cnr1", c)
        if shift == "-1" and down == "2":
            return GrowthFn("cn1r2", c)
        raise ValueError(f"unsupported binomial form: {text!r}")
    try:
        return GrowthFn("const", Fraction(s))
    except ValueError:
        raise ValueError(f"cannot parse growth function: {text!r}") from None


@dataclass(frozen=True)
class BoundsParams:
    """Caller-supplied stand-ins for the asymptotic slack functions of
    the boundedness check: f1 widens the near-extremal average-degree
    floor, f2 the maximum-degree cap."""
    f1: GrowthFn = GrowthFn("zero")
    f2: GrowthFn = GrowthFn("zero")


def known_density(f: Hypergraph) -> Optional[Fraction]:
    """The exact edge-density limit of f when it is a built-in case —
    complete graphs, the fano plane, or the f32 family — else None."""
    table = {_class_key(complete(l, 2)): Fraction(l - 2, l - 1)
             for l in range(2, 10)}
    table[_class_key(fano())] = Fraction(3, 4)
    table[_class_key(f32())] = Fraction(4, 9)
    return table.get(_class_key(f))


def check_smoothness(table: TuranTable, g: GrowthFn) -> CheckReport:
    """|delta(n) - d(n-1)| <= g(n) for every consecutive pair, exactly."""
    t0 = time.perf_counter()
    r = table.config.r
    violations = []
    ns = table.ns
    if len(ns) < 2:
        raise ValueError("need at least two consecutive n")
    for n in ns[1:]:
        residual = abs(Fraction(table.delta(n)) - table.d(n - 1))
        bound = g(n, r)
        if residual > bound:
            violations.append(Violation(
                f"n={n}", f"|delta-d| <= {bound}", f"residual {residual}"))
    return _report("smoothness", {"g": g, "ns": f"{ns[0]}..{ns[-1]}"},
                   violations, t0)


def check_boundedness(f: Hypergraph, n: int, params: BoundsParams,
                      mode: str = "extremal-only") -> CheckReport:
    """Max degree of near-extremal F-free graphs vs d(n,F) + f2(n).
    Extremal-only mode is a hard check on EX(n,F); enumerate mode visits
    every F-free class with average degree >= d(n,F) - f1(n) and is
    observational (small-n counterexamples are the point)."""
    t0 = time.perf_counter()
    if mode not in ("extremal-only", "enumerate"):
        raise ValueError("mode must be extremal-only or enumerate")
    if n < 1:
        raise ValueError(f"boundedness needs n >= 1, not {n}")
    cfg = config_of([(f, 1)])
    r = f.r
    if mode == "extremal-only":
        extremal = enumerate_extremal(n, cfg)
        value = extremal[0].edge_count
    elif r != 2 or n > 8:
        raise BudgetExceededError("enumerate mode budget is r=2, n <= 8")
    else:
        value = _exact(max_edges(n, cfg)).value
    d_n = Fraction(r * value, n)
    cap = d_n + params.f2(n, r)
    violations = []
    if mode == "extremal-only":
        for h in extremal:
            prof = h.degree_profile()
            if prof.maximum > cap:
                violations.append(Violation(
                    f"extremal {h.edges}", f"max degree <= {cap}",
                    f"max degree {prof.maximum}"))
        return _report("boundedness", {"F": f.edges, "n": n, "mode": mode,
                                       "f2": params.f2}, violations, t0)
    floor = d_n - params.f1(n, r)
    for h in free_graphs(n, cfg):
        prof = h.degree_profile()
        if prof.average < floor:
            continue
        if prof.maximum > cap:
            violations.append(Violation(
                f"graph {h.edges}",
                f"max degree <= {cap}",
                f"average degree {prof.average}, max degree {prof.maximum}"))
    return _report("boundedness", {"F": f.edges, "n": n, "mode": mode,
                                   "f1": params.f1, "f2": params.f2},
                   violations, t0, observational=True)


def _apex_prediction(f: Hypergraph, n: int, t: int) -> tuple[list, int]:
    """EX(n-t, F) and the t-apex value C(n,r) - C(n-t,r) + ex(n-t, F)."""
    if not 0 <= t <= n:
        raise ValueError(f"apex count t={t} must satisfy 0 <= t <= n={n}")
    base_ext = enumerate_extremal(n - t, config_of([(f, 1)]))
    return base_ext, comb(n, f.r) - comb(n - t, f.r) + base_ext[0].edge_count


def check_main_theorem(f: Hypergraph, n: int, t: int) -> CheckReport:
    """Three exact sub-checks for forbidding t+1 disjoint copies:
    (i) value equals C(n,r) - C(n-t,r) + ex(n-t, F); (ii) the extremal
    family is exactly the t-apex joins of EX(n-t, F); (iii) each such
    join packs exactly t copies of F."""
    t0 = time.perf_counter()
    base_ext, predicted = _apex_prediction(f, n, t)
    joined = [join(t, g) for g in base_ext]

    extremal = enumerate_extremal(n, config_of([(f, t + 1)]), joined[0])
    value = extremal[0].edge_count
    violations = []
    if value != predicted:
        violations.append(Violation(
            "(i) value", f"ex = {predicted}", f"ex = {value}"))

    want = {_class_key(g) for g in joined}
    got = {_class_key(g) for g in extremal}
    if want != got:
        violations.append(Violation(
            "(ii) structure",
            f"{len(want)} classes: t-apex joins of EX(n-t,F)",
            f"{len(got)} classes ({len(got & want)} shared)"))

    for g in joined:
        nu, _ = matching_number(f, g, cap=t + 1)
        if nu != t:
            violations.append(Violation(
                f"(iii) tightness of join(t, G), G={g.edges}",
                f"nu = {t}", f"nu = {nu}"))
    return _report("main-theorem", {"F": f.edges, "n": n, "t": t},
                   violations, t0)


def _ex_2k3(m: int) -> int:
    """Closed form for forbidding two disjoint triangles on m >= 9
    vertices: a one-vertex apex over the balanced bipartite graph."""
    return (m - 1) + (m - 1) ** 2 // 4


def check_remark_2k3(n: int, t: int) -> CheckReport:
    """Exact integer chain showing that forbidding 2t+2 triangles beats
    the t-apex formula applied to the two-triangle family: hard strict
    inequality for t >= 2, values reported observationally for t < 2."""
    t0 = time.perf_counter()
    if t < 0:
        raise ValueError(f"remark-2k3 needs t >= 0, not {t}")
    if n < 3 * (2 * t + 2):
        raise ValueError("need n >= 3(2t+2) so all terms are meaningful")
    lhs = comb(n, 2) - comb(n - 2 * t - 1, 2) + (n - 2 * t - 1) ** 2 // 4
    rhs = comb(n, 2) - comb(n - t, 2) + _ex_2k3(n - t)
    violations = []
    observational = t < 2
    if observational:
        violations.append(Violation(
            f"t={t} outside the claim", "values reported only",
            f"lhs={lhs}, rhs={rhs}"))
    elif lhs <= rhs:
        violations.append(Violation(
            f"(n,t)=({n},{t})", f"{lhs} > {rhs}", "inequality fails"))
    return _report("remark-2k3", {"n": n, "t": t}, violations, t0,
                   observational=observational)


def check_lemmas(n_max: int, tables: Iterable[TuranTable] = ()) -> CheckReport:
    """Exact arithmetic sweeps: the boundary-edge-count identity and its
    2m*C(n-m,r-1) bound; the binomial ratio bound against a rational
    lower approximation of e; the average-degree drift bound on tables,
    which are read only once n_max is valid (they may be lazy solves)."""
    if not 1 <= n_max <= 200:
        raise ValueError(f"lemmas needs 1 <= n_max <= 200, not {n_max}")
    tables = list(tables)
    t0 = time.perf_counter()
    violations = []
    for r in range(1, 6):
        for n in range(r, n_max + 1):
            for m in range(1, n // r):
                total = sum(comb(m, i) * comb(n - m, r - i)
                            for i in range(1, r + 1))
                if total != comb(n, r) - comb(n - m, r):
                    violations.append(Violation(
                        f"identity (n,m,r)=({n},{m},{r})",
                        f"{comb(n, r) - comb(n - m, r)}", f"{total}"))
                if total > 2 * m * comb(n - m, r - 1):
                    violations.append(Violation(
                        f"bound (n,m,r)=({n},{m},{r})",
                        f"<= {2 * m * comb(n - m, r - 1)}", f"{total}"))
    for r in range(2, 6):
        for n in range(r + 1, n_max + 1):
            for b in range(0, (n - r) // (r + 1) + 1):
                if comb(n, r) > E_LOWER * comb(n - b, r):
                    violations.append(Violation(
                        f"ratio (n,b,r)=({n},{b},{r})",
                        f"C(n,r) <= {E_LOWER}*C(n-b,r)",
                        f"{comb(n, r)} vs {E_LOWER * comb(n - b, r)}"))
    for table in tables:
        r = table.config.r
        ns = table.ns
        for n in ns:
            for m in range(1, n - ns[0] + 1):
                drift = abs(table.d(n) - table.d(n - m))
                bound = 4 * m * comb(n - m, r - 2) if r >= 2 else 0
                if drift > bound:
                    violations.append(Violation(
                        f"drift (n,m)=({n},{m})", f"<= {bound}", f"{drift}"))
    return _report("lemmas", {"n_max": n_max, "tables": len(tables)},
                   violations, t0)


def check_facts(f: Hypergraph, p: Optional[Pattern], n: int) -> CheckReport:
    """Minimum-degree facts for the extremal family: every member of
    EX(n,F) has min degree >= ex(n)-ex(n-1).  With a pattern, also: all
    its size-n blowups are F-free, every EX(n,F) member is an entire
    blowup, and ex(n)-ex(n-1) caps the max degree over EX(n-1,F)."""
    t0 = time.perf_counter()
    if n < 1:
        raise ValueError(f"facts needs n >= 1, not {n}")
    cfg = config_of([(f, 1)])
    extremal = enumerate_extremal(n, cfg)
    prev = enumerate_extremal(n - 1, cfg) if p is not None else ()
    delta = extremal[0].edge_count - (
        prev[0].edge_count if prev else _exact(max_edges(n - 1, cfg)).value)
    violations = []
    for h in extremal:
        prof = h.degree_profile()
        if prof.minimum < delta:
            violations.append(Violation(
                f"min degree of {h.edges}", f">= {delta}",
                f"{prof.minimum}"))
        if p is not None and full_construction_assignment(h, p) is None:
            violations.append(Violation(
                f"extremal {h.edges}", "an entire pattern blowup",
                "no full assignment exists"))
    if p is not None:
        for c in _compositions(n, p.k):
            b = blowup(p, c)
            if embed(f, b) is not None:
                violations.append(Violation(
                    f"blowup at {c}", "F-free", "contains F"))
        for h in prev:
            prof = h.degree_profile()
            if prof.maximum > delta:
                violations.append(Violation(
                    f"max degree of size-{n - 1} extremal {h.edges}",
                    f"<= {delta}", f"{prof.maximum}"))
    return _report("facts", {"F": f.edges, "n": n,
                             "pattern": None if p is None else p.multisets},
                   violations, t0)


def _compositions(n: int, k: int):
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def check_matching_theorems(n: int, t: int, r: int) -> CheckReport:
    """Solver value for forbidding t+1 disjoint edges vs the classical
    max{C(r(t+1)-1, r), C(n,r) - C(n-t,r)}: a hard equality for r = 2, a
    consistency observation for r >= 3."""
    t0 = time.perf_counter()
    if r < 2 or t < 0 or n < r:
        raise ValueError("need r >= 2, t >= 0, n >= r")
    edge = Hypergraph(r, r, (tuple(range(r)),))
    formula = max(comb(r * (t + 1) - 1, r), comb(n, r) - comb(n - t, r))
    clique = r * (t + 1) - 1
    seeds = [join(t, Hypergraph(n - t, r, ()))]
    if clique <= n:
        seeds.append(Hypergraph(n, r, tuple(combinations(range(clique), r))))
    seed = max(seeds, key=lambda g: g.edge_count)
    value = _exact(max_edges(n, config_of([(edge, t + 1)]), seed)).value
    violations = []
    if value != formula:
        violations.append(Violation(
            f"(n,t,r)=({n},{t},{r})", f"ex = {formula}", f"ex = {value}"))
    return _report("matching-theorems", {"n": n, "t": t, "r": r},
                   violations, t0, observational=(r >= 3))


def check_rainbow(f: Hypergraph, n: int, t: int, trials: int,
                  rng_seed: int) -> CheckReport:
    """Host collections and rainbow matchings around the exact threshold
    C(n,r) - C(n-t,r) + ex(n-t, F).  (a) t+1 identical hosts AT the
    threshold (apex joins of extremal graphs) must have no rainbow
    (t+1)-matching.  (b) sampled collections strictly above it must all
    have one; failures are hard and carry the serialized hosts."""
    t0 = time.perf_counter()
    if trials < 0:
        raise ValueError(f"rainbow needs trials >= 0, not {trials}")
    base_ext, threshold = _apex_prediction(f, n, t)
    violations = []

    for g in base_ext:
        host = join(t, g)
        if host.edge_count != threshold:
            violations.append(Violation(
                f"boundary host from {g.edges}",
                f"{threshold} edges", f"{host.edge_count} edges"))
            continue
        witness = rainbow_matching([host] * (t + 1), f)
        if witness is not None:
            violations.append(Violation(
                f"boundary hosts from {g.edges}", "no rainbow matching",
                f"found {witness.entries}"))

    rng = Random(rng_seed)
    universe = list(combinations(range(n), f.r))
    # at a complete threshold no collection lies above it: nothing to sample
    for trial in range(trials if threshold < len(universe) else 0):
        hosts = []
        for _ in range(t + 1):
            g = base_ext[rng.randrange(len(base_ext))]
            host = join(t, g)
            missing = [e for e in universe if not host.has_edge(e)]
            extra = missing[rng.randrange(len(missing))]
            perm = list(range(n))
            rng.shuffle(perm)
            hosts.append(host.with_edges([extra]).relabeled(perm))
        if rainbow_matching(hosts, f) is None:
            violations.append(Violation(
                f"trial {trial}", "a rainbow matching",
                "none; hosts:\n" + "\n".join(dumps_hg(h) for h in hosts)))
    return _report("rainbow", {"F": f.edges, "n": n, "t": t,
                               "trials": trials, "rng_seed": rng_seed},
                   violations, t0)


def trim_low_degree(h: Hypergraph, eps: Fraction,
                    pi_hat: Fraction) -> tuple[tuple[int, ...], Hypergraph,
                                               CheckReport]:
    """Drop vertices of degree <= (pi_hat - 2*sqrt(eps))*C(n-1,r-1) and
    report (observationally — the statement is asymptotic) whether the
    dropped set is small and the remainder keeps high min degree.
    Square roots never materialize: thresholds compare in squared form."""
    t0 = time.perf_counter()
    eps = Fraction(eps)
    pi_hat = Fraction(pi_hat)
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    n, r = h.n, h.r
    big = comb(n - 1, r - 1) if n else 0  # a 0-vertex host trims nothing

    def below_cut(deg: int) -> bool:
        # deg <= (pi_hat - 2*sqrt(eps)) * big, exactly
        gap = pi_hat - Fraction(deg, big) if big else pi_hat
        return gap >= 0 and gap * gap >= 4 * eps

    z = tuple(v for v, deg in enumerate(h.degrees()) if below_cut(deg))
    trimmed = h.induced(v for v in range(n) if v not in z)

    z_small = len(z) ** 2 <= eps * n * n
    if trimmed.n == 0:
        min_holds = True
    else:
        dmin = trimmed.degree_profile().minimum
        # dmin >= (pi_hat - 3*sqrt(eps)) * big  <=>  gap <= 3*sqrt(eps)
        gap = pi_hat - Fraction(dmin, big) if big else pi_hat
        min_holds = gap <= 0 or gap * gap <= 9 * eps
    violations = []
    if not z_small:
        violations.append(Violation(
            "trimmed set size", f"|Z|^2 <= {eps * n * n}", f"|Z| = {len(z)}"))
    if not min_holds:
        violations.append(Violation(
            "trimmed min degree",
            f">= (pi_hat - 3*sqrt(eps))*{big}",
            f"{trimmed.degree_profile().minimum}"))
    report = _report("trim-low-degree",
                     {"n": n, "eps": eps, "pi_hat": pi_hat},
                     violations, t0, observational=True)
    return z, trimmed, report
