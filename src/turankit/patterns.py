"""Part patterns, blowups, and exact density machinery.

A pattern is (k, r, multisets): `multisets` lists the admissible
"profiles" of an edge as sorted r-tuples of part indices 1..k with
repetition — (1, 2, 2) means one vertex from part 1 and two from part 2.
The blowup along a composition (n_1, ..., n_k) places the parts on
consecutive vertex ranges and takes every r-set whose profile is
admissible; its edge count is the closed form sum over profiles Y of
prod_i C(n_i, mult_Y(i)).

Density values are exact `Fraction`s throughout.  The density polynomial
p(x) = sum_Y (r!/prod_i mult_Y(i)!) prod_i x_i^mult_Y(i) on the simplex
is the n -> infinity limit of blowup-count/C(n,r) along compositions with
n_i/n -> x_i, so sup p is bracketed from below by p at any rational point
and from above by max-blowup-count(N)/C(N,r) at any finite N (that ratio
is nonincreasing in N).  The optimizer that locates good simplex points
is the only floating-point code; its result is snapped to rationals and
re-evaluated exactly before anything is reported.

`lambda_n` finds the best blowup count by branch-and-bound over part
sizes.  What the parts still open can add is bounded by exact maxima of
smaller patterns: the profiles restricted to the open parts, one pattern
per restricted size.  Their rows lambda_0..lambda_n come from the same
search, recursively.  Counts only grow with a part's size and rows with
their total, so one comparison bounds a whole run of one part's sizes.
Each search reads its binomials off one Pascal table built for its n,
and each row entry's floor (the best one-vertex extension of the entry
before) costs one pass over the profiles, not one count per part.
One process-wide memo keeps each pattern's row,
every entry with its lexicographically largest maximizer, and extends a
row when a longer one is asked for; `lambda_n` reads its answer off the
pattern's own row, so a pattern asked for directly and the same pattern
met as a sub-pattern share one row.  The memo holds at most `_ROWS_CAP`
patterns and is emptied when a new one would exceed that.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, lcm
from typing import Optional, Sequence

from random import Random

from .core import Hypergraph
from .errors import BudgetExceededError, FormatError

Composition = tuple[int, ...]

_LAMBDA_MAX_K = 6
_LAMBDA_MAX_N = 200
_SUB_MAX_K = 4
_SUB_MAX_N = 24
_SNAP_DENOMINATOR = 10 ** 6
# patterns whose rows the memo keeps; a row holds at most
# _LAMBDA_MAX_N + 1 entries
_ROWS_CAP = 256
# (k, multisets) -> (values, maximizers): lambda_0, lambda_1, ... and the
# lexicographically largest composition attaining each
_ROWS: dict = {}
# two threads extending one row would interleave its entries
_ROWS_LOCK = threading.Lock()


@dataclass(frozen=True)
class Pattern:
    """k parts, uniformity r, admissible profiles as sorted 1-based
    r-tuples with repetition."""
    k: int
    r: int
    multisets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 0 or self.r < 1:
            raise ValueError("pattern needs k >= 0 and r >= 1")
        norm = tuple(sorted(tuple(sorted(y)) for y in self.multisets))
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate profile multiset")
        for y in norm:
            if len(y) != self.r:
                raise ValueError("profile size must equal the uniformity")
            if y and not (1 <= y[0] and y[-1] <= self.k):
                raise ValueError("profile references a part outside 1..k")
        object.__setattr__(self, "multisets", norm)

    def multiplicities(self, y: tuple[int, ...]) -> tuple[int, ...]:
        """Per-part multiplicities of a profile, index i-1 for part i."""
        out = [0] * self.k
        for part in y:
            out[part - 1] += 1
        return tuple(out)


def _check_composition(p: Pattern, c: Sequence[int]) -> Composition:
    c = tuple(c)
    if len(c) != p.k or any(type(x) is not int or x < 0 for x in c):
        raise ValueError("composition must have k nonnegative int parts")
    return c


def blowup(p: Pattern, c: Sequence[int]) -> Hypergraph:
    """The blowup of the pattern along a composition: parts occupy
    consecutive vertex ranges, edges are r-sets with admissible profile."""
    c = _check_composition(p, c)
    starts = [0]
    for size in c:
        starts.append(starts[-1] + size)
    n = starts[-1]
    edges = []
    for y in p.multisets:
        mult = p.multiplicities(y)
        pools = [combinations(range(starts[i], starts[i + 1]), mult[i])
                 for i in range(p.k) if mult[i] > 0]
        for pick in product(*pools):
            edges.append(tuple(v for block in pick for v in block))
    return Hypergraph(n, p.r, tuple(sorted(edges)))


def blowup_count(p: Pattern, c: Sequence[int]) -> int:
    """Closed-form edge count of blowup(p, c)."""
    c = _check_composition(p, c)
    total = 0
    for y in p.multisets:
        mult = p.multiplicities(y)
        term = 1
        for i in range(p.k):
            term *= comb(c[i], mult[i])
        total += term
    return total


def _check_lambda_budget(k: int, n: int) -> None:
    if k > _LAMBDA_MAX_K or n > _LAMBDA_MAX_N:
        raise BudgetExceededError(
            f"lambda_n budget is k <= {_LAMBDA_MAX_K}, n <= {_LAMBDA_MAX_N}")


def lambda_n(p: Pattern, n: int) -> tuple[int, Composition]:
    """Exact maximum blowup count over all compositions of n, with the
    lexicographically largest maximizer."""
    if type(n) is not int:
        raise ValueError("n must be an int")
    _check_lambda_budget(p.k, n)
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p.k == 0 or not p.multisets:
        if p.k == 0 and n > 0:
            raise ValueError("positive n with no parts")
        best = (n,) + (0,) * (p.k - 1) if p.k else ()
        return 0, best
    with _ROWS_LOCK:
        values, comps = _row(p.k, p.multisets, n)
        return values[n], comps[n]


class _BlowupSearch:
    """The branch-and-bound behind `lambda_n` for one pattern, given as its
    part count k and sorted profiles over parts 1..k (any common size,
    the empty profile included), for totals up to n.

    The walk fixes part sizes in order, largest first, so compositions
    come in lex-descending order and only a strictly larger count
    replaces the incumbent: the answer is the lexicographically largest
    maximizer.  At part i, write z for a profile's restriction to parts
    i.. and W_z for the summed partial products, over parts before i, of
    the profiles restricting to z; the rest of the count is
    sum_z W_z * count_z(rest), so a node carries W rather than one
    partial product per profile.  For i >= 1 with R vertices left,
    grouping by |z| = d bounds the rest by
    sum_d (max_{|z|=d} W_z) * lambda_R(Z_{i,d}), where Z_{i,d} is the
    pattern on the k - i remaining parts whose profiles are the z of size
    d.  Each Z_{i,d} has fewer parts, so its row lambda_0..lambda_n comes
    from this search recursively, through the process-wide memo that
    every user shares.  The caps below only loosen as n grows, so a
    search for a larger n gives the same answer at every total.

    The node at part i - 1 evaluates that bound for its children, a run
    of sizes at a time (see `walk`), and cuts a run only when no child in
    it can beat the incumbent; sizes are still walked largest first, so
    the answers are those of a walk that bounds each size alone.

    Every binomial the search reads is C(x, m) with m at most the profile
    size and x at most n, so it builds the Pascal table binom[m][x] once
    and hands the walk each multiplicity's column: C(s, m) is col[s]."""

    def __init__(self, k: int, multisets, n: int):
        self.k, self.n = k, n
        self.sizes = [0] * k
        # bounds evaluated by `walk`, one per run of sizes
        self.tried = 0
        binom = [[1] * (n + 1)]
        for _ in multisets[0]:
            prev, col = binom[-1], [0] * (n + 1)
            for x in range(1, n + 1):
                col[x] = col[x - 1] + prev[x - 1]
            binom.append(col)
        # per profile, (part index, column of its multiplicity) for each
        # part the profile holds; the other parts contribute C(x, 0) = 1
        self.profiles = [[(i, binom[y.count(i + 1)])
                          for i in range(k) if i + 1 in y]
                         for y in multisets]

        # Symmetry breaking: if swapping parts i < j maps the profile set
        # onto itself, swapping c_i and c_j keeps the count, so the
        # lexicographically largest maximizer has c_i >= c_j.  Each part
        # is capped by its nearest such earlier part: two parts swappable
        # with the same part are swappable with each other, so the chain
        # implies every other cap.
        profiles = set(multisets)

        def swappable(i: int, j: int) -> bool:
            swap = {i + 1: j + 1, j + 1: i + 1}
            return all(tuple(sorted(swap.get(x, x) for x in y)) in profiles
                       for y in multisets)

        self.partner = [next((i for i in range(j - 1, -1, -1)
                              if swappable(i, j)), None) for j in range(k)]
        # later[i]: of the parts after i, how many no cap reaches, and per
        # part j <= i how many are capped by sizes[j] through the chain
        self.later: list = []
        for i in range(k):
            root: dict = {}
            per = [0] * (i + 1)
            for m in range(i + 1, k):
                p = self.partner[m]
                root[m] = p if p is None or p <= i else root[p]
                if root[m] is not None:
                    per[root[m]] += 1
            self.later.append((k - 1 - i - sum(per), per))

        # zs[i]: the restrictions z at part i, shifted onto parts 1..k-i,
        # ordered by size so that each size is one slice of W
        zs = [sorted(set(tuple(x - i for x in y if x > i) for y in multisets),
                     key=lambda z: (len(z), z)) for i in range(k)]
        self.width = len(zs[0])
        # steps[i]: per z at part i, the column of its multiplicity of
        # part i and the index of its restriction at part i + 1
        self.steps: list = []
        for i in range(k - 1):
            index = {z: t for t, z in enumerate(zs[i + 1])}
            self.steps.append((
                [binom[z.count(1)] for z in zs[i]],
                [index[tuple(x - 1 for x in z if x > 1)] for z in zs[i]],
                len(zs[i + 1])))
        # per z at the last part, the column of its size
        self.last = [binom[len(z)] for z in zs[k - 1]]
        # bounds[i]: per size d, the row of Z_{i,d} and its slice of W
        self.bounds: list = [None] * k
        for i in range(1, k - 1):
            by_d: dict = {}
            for t, z in enumerate(zs[i]):
                by_d.setdefault(len(z), []).append(t)
            self.bounds[i] = [
                (_row(k - i, tuple(sorted(zs[i][t] for t in ts)), n)[0],
                 ts[0], ts[-1] + 1)
                for ts in by_d.values()]

    def max_extension(self, c: Sequence[int]) -> int:
        """max_j of the count at c plus one vertex in part j, for a
        composition c of less than n.  A profile without part j keeps its
        product; one with it trades that part's factor, and the product
        of its other factors is a prefix times a suffix."""
        total = 0
        gain = [0] * self.k
        for pairs in self.profiles:
            prefix = [1]
            for part, col in pairs:
                prefix.append(prefix[-1] * col[c[part]])
            whole = prefix[-1]
            total += whole
            suffix = 1
            for t in range(len(pairs) - 1, -1, -1):
                part, col = pairs[t]
                gain[part] += prefix[t] * suffix * col[c[part] + 1] - whole
                suffix *= col[c[part]]
        return total + max(gain)

    def best(self, total: int, floor: int) -> tuple[int, Composition]:
        """The maximum count over compositions of `total` and its
        lexicographically largest maximizer; `floor` must lie below the
        maximum, and only counts above it are kept."""
        if self.k == 1:
            return sum(col[total] for col in self.last), (total,)
        self.value, self.comp = floor, ()
        self.walk(0, total, [1] * self.width)
        return self.value, self.comp

    def walk(self, i: int, remaining: int, weights: list[int]) -> None:
        """Try the sizes of part i, given the weights W of the parts
        before it, from the largest down.  A run of sizes a..b is bounded
        at once: its children's weights are at most the weights at b, and
        what they leave is at most remaining - a, where the rows (or the
        last part's binomials) are largest.  A run whose bound does not
        beat the incumbent is cut and the next run is twice as long; a run
        that does is halved, down to one size, which is walked.  The
        caller has checked the entry bound, so a walk never prunes at
        entry.  Every binomial is read off a column of the search's
        table, never recomputed."""
        sizes = self.sizes
        cols, targets, width = self.steps[i]
        partner = self.partner[i]
        top = remaining if partner is None else min(remaining, sizes[partner])
        # the most vertices parts i+1.. can take under the caps is
        # fixed + through * sizes[i], so sizes below `low` leave them more
        # than they hold (and would leave the last part over its cap)
        free, per = self.later[i]
        fixed = free * self.n + sum(c * z for c, z in zip(per, sizes[:i]))
        through = per[i]
        low = max(0, -((fixed - remaining) // (through + 1)))
        leaf = i + 2 == self.k
        last, bounds = self.last, self.bounds[i + 1]
        tried = 0
        s, length = top, 1
        while s >= low:
            nxt = [0] * width
            for w, col, t in zip(weights, cols, targets):
                nxt[t] += w * col[s]
            while True:
                tried += 1
                a = max(low, s - length + 1)
                rest = remaining - a
                if leaf:
                    bound = sum(w * col[rest] for w, col in zip(nxt, last))
                else:
                    bound = 0
                    for row, lo, hi in bounds:
                        bound += row[rest] * max(nxt[lo:hi])
                if bound <= self.value:
                    s = a - 1
                    length *= 2
                    break
                if a < s:
                    length = (s - a + 1) // 2
                    continue
                # one size, and its bound is its exact count at a leaf
                sizes[i] = s
                if leaf:
                    sizes[i + 1] = rest
                    self.value = bound
                    self.comp = tuple(sizes)
                else:
                    self.walk(i + 1, rest, nxt)
                s -= 1
                break
        self.tried += tried


def _row(k: int, multisets, n: int) -> tuple[list[int], list[Composition]]:
    """lambda_0..lambda_n of the pattern (k, multisets) and their
    lexicographically largest maximizers, read from the process-wide
    memo; a row there with fewer entries is extended in place (the
    caller holds `_ROWS_LOCK`).  Entry R starts from the
    best one-vertex extension of entry R - 1's maximizer, found by
    `_BlowupSearch.max_extension` in one pass over the profiles: the walk
    keeps only counts above that extension's count minus one, which the
    maximum reaches, and so returns the same maximizer as an unseeded
    walk."""
    key = (k, multisets)
    row = _ROWS.get(key)
    if row is not None and len(row[0]) > n:
        return row
    if len(multisets[0]) <= 1:
        # the empty profile counts 1 everywhere, a 1-uniform pattern R
        # once every vertex is in one of its parts: all R in the first
        # such part (part 1 for the empty profile) is the lexicographically
        # largest maximizer
        search = None
        part = multisets[0][0] - 1 if multisets[0] else 0
    else:
        search = _BlowupSearch(k, multisets, n)
    if key not in _ROWS:
        # stored after the search filled its sub-pattern rows, so a clear
        # they caused cannot drop it
        if len(_ROWS) >= _ROWS_CAP:
            _ROWS.clear()
        row = _ROWS[key] = row if row is not None else ([], [])
    values, comps = row
    # a maximizer past the last value is an interrupted extension's
    del comps[len(values):]
    for total in range(len(values), n + 1):
        if search is None:
            value = total if multisets[0] else 1
            comp = (0,) * part + (total,) + (0,) * (k - 1 - part)
        else:
            floor = search.max_extension(comps[-1]) - 1 if total else -1
            value, comp = search.best(total, floor)
        comps.append(comp)
        values.append(value)
    return row


def density_poly_eval(p: Pattern, x: Sequence[Fraction]) -> Fraction:
    """Exact value of the density polynomial at a simplex point.  Over
    the common denominator d of x, x_i = a_i / d and each term has degree
    r, so p(x) is an integer sum over d^r."""
    x = tuple(Fraction(v) for v in x)
    if len(x) != p.k or any(v < 0 for v in x) or (p.k and sum(x) != 1):
        raise ValueError("x must be k nonnegative rationals summing to 1")
    den = lcm(*(v.denominator for v in x))
    a = [v.numerator * (den // v.denominator) for v in x]
    total = 0
    for y in p.multisets:
        term = _coefficient(p, y)
        for part in y:
            term *= a[part - 1]
        total += term
    return Fraction(total, den ** p.r)


def _coefficient(p: Pattern, y: tuple[int, ...]) -> int:
    """r!/prod_i mult_y(i)!, the coefficient of the profile y in the
    density polynomial."""
    coef = factorial(p.r)
    for m in p.multiplicities(y):
        coef //= factorial(m)
    return coef


@dataclass(frozen=True)
class LagrangianEstimate:
    """Certified bracket lower <= sup p <= upper, with the exact rational
    witness attaining `lower` and the size N giving `upper`."""
    lower: Fraction
    upper: Fraction
    witness: tuple[Fraction, ...]
    N: int

    def width(self) -> Fraction:
        return self.upper - self.lower


def _snap_simplex(xs: Sequence[float]) -> tuple[Fraction, ...]:
    qs = [Fraction(v).limit_denominator(_SNAP_DENOMINATOR) for v in xs]
    qs = [max(q, Fraction(0)) for q in qs]
    total = sum(qs)
    if total == 0:
        return (Fraction(1),) + (Fraction(0),) * (len(xs) - 1)
    return tuple(q / total for q in qs)


def lagrangian(p: Pattern, tol: Fraction = Fraction(1, 10 ** 9),
               N: int = 120, rng_seed: int = 0) -> LagrangianEstimate:
    """Bracket sup of the density polynomial: multi-start replicator
    ascent (uniform, each vertex, two seeded random starts), exact
    re-evaluation at rational snaps for the lower bound, and the
    nonincreasing finite ratio lambda_n(p, N)/C(N, r) as upper bound."""
    if type(N) is not int:
        raise ValueError("bracket size N must be an int")
    if N < p.r:
        raise ValueError("bracket size N must be at least the uniformity")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if p.k == 0 or not p.multisets:
        witness = _uniform(p.k)
        return LagrangianEstimate(Fraction(0), Fraction(0), witness, N)
    # the bound needs lambda_n(p, N): refuse before the ascent
    _check_lambda_budget(p.k, N)

    terms = _gradient_terms(p)
    rng = Random(rng_seed)
    starts = [[1.0 / p.k] * p.k]
    for i in range(p.k):
        starts.append([1.0 if j == i else 0.0 for j in range(p.k)])
    for _ in range(2):
        raw = [rng.random() + 1e-9 for _ in range(p.k)]
        s = sum(raw)
        starts.append([v / s for v in raw])

    tol_f = float(tol)
    candidates: list[tuple[Fraction, tuple[Fraction, ...]]] = []
    for xs in starts:
        xs = list(xs)
        for _ in range(10_000):
            grad = _gradient(p.k, terms, xs)
            denom = sum(x * g for x, g in zip(xs, grad))
            if denom <= 0.0:
                break
            nxt = [x * g / denom for x, g in zip(xs, grad)]
            step = max(abs(a - b) for a, b in zip(nxt, xs))
            xs = nxt
            if step < tol_f:
                break
        witness = _snap_simplex(xs)
        candidates.append((density_poly_eval(p, witness), witness))

    lower, witness = max(candidates, key=lambda t: (t[0], [-v for v in t[1]]))
    upper = Fraction(lambda_n(p, N)[0], comb(N, p.r))
    return LagrangianEstimate(lower, upper, witness, N)


def _gradient_terms(p: Pattern) -> list:
    """Per profile, its coefficient as a float and its (part index,
    multiplicity) pairs for the parts it holds, in order."""
    return [(float(_coefficient(p, y)),
             [(i, m) for i, m in enumerate(p.multiplicities(y)) if m])
            for y in p.multisets]


def _gradient(k: int, terms, xs: Sequence[float]) -> list[float]:
    """The gradient of the density polynomial at xs.  A part a profile
    lacks would contribute the factor x ** 0 == 1.0, and multiplying by
    1.0 is exact, so skipping those parts changes no bit of the result."""
    grad = [0.0] * k
    for coef, pairs in terms:
        for i, m in pairs:
            g = coef * m * xs[i] ** (m - 1)
            for j, mj in pairs:
                if j != i:
                    g *= xs[j] ** mj
            grad[i] += g
    return grad


def _uniform(k: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, k) for _ in range(k)) if k else ()


def remove_part(p: Pattern, i: int) -> Pattern:
    """Drop part i (1-based): profiles touching it vanish, higher parts
    shift down."""
    if not 1 <= i <= p.k:
        raise ValueError("part index out of range")
    kept = []
    for y in p.multisets:
        if i in y:
            continue
        kept.append(tuple(part - 1 if part > i else part for part in y))
    return Pattern(p.k - 1, p.r, tuple(kept))


@dataclass(frozen=True)
class PartCertificate:
    """Bracket evidence for one part removal."""
    part: int
    removed: LagrangianEstimate
    separated: bool   # removed.upper < full.lower
    dominates: bool   # removed.lower >= full.upper


@dataclass(frozen=True)
class MinimalityReport:
    status: str  # "minimal" | "not_minimal" | "indeterminate"
    bracket: LagrangianEstimate
    parts: tuple[PartCertificate, ...]


def is_minimal(p: Pattern, tol: Fraction = Fraction(1, 10 ** 9),
               N: int = 120, rng_seed: int = 0) -> MinimalityReport:
    """Certify that every part removal strictly lowers the pattern's
    density limit.  "minimal" and "not_minimal" are proved by bracket
    separation; overlapping brackets yield "indeterminate" (retry with a
    larger N) rather than a coerced answer."""
    full = lagrangian(p, tol, N, rng_seed)
    # lagrangian is deterministic, so equal removals share one bracket
    brackets: dict[Pattern, LagrangianEstimate] = {}
    certs = []
    for i in range(1, p.k + 1):
        q = remove_part(p, i)
        if q not in brackets:
            brackets[q] = lagrangian(q, tol, N, rng_seed)
        removed = brackets[q]
        certs.append(PartCertificate(
            part=i,
            removed=removed,
            separated=removed.upper < full.lower,
            dominates=removed.lower >= full.upper,
        ))
    if all(c.separated for c in certs):
        status = "minimal"
    elif any(c.dominates for c in certs):
        status = "not_minimal"
    else:
        status = "indeterminate"
    return MinimalityReport(status, full, tuple(certs))


def _assignment_search(h: Hypergraph, p: Pattern):
    """Backtracking vertex -> part assignment; yields assignments under
    which every edge profile is admissible, pruning partial edges whose
    profile no admissible profile dominates."""
    if p.k > _SUB_MAX_K or h.n > _SUB_MAX_N:
        raise BudgetExceededError(
            f"subconstruction budget is k <= {_SUB_MAX_K}, n <= {_SUB_MAX_N}")
    mults = [p.multiplicities(y) for y in p.multisets]
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for ei, e in enumerate(h.edges):
        for v in e:
            incident[v].append(ei)
    assign = [0] * h.n

    def edge_ok(ei: int, upto: int) -> bool:
        counts = [0] * p.k
        pending = 0
        for v in h.edges[ei]:
            if v <= upto:
                counts[assign[v] - 1] += 1
            else:
                pending += 1
        if pending == 0:
            return counts in mults_exact
        return any(all(counts[i] <= m[i] for i in range(p.k)) for m in mults)

    mults_exact = [list(m) for m in mults]

    # depth first over the vertices, each trying parts 1..k in order;
    # assign[v] is the part vertex v holds, 0 before its first try
    v = 0
    while v >= 0:
        if v == h.n:
            yield tuple(assign)
            v -= 1
            continue
        for part in range(assign[v] + 1, p.k + 1):
            assign[v] = part
            if all(edge_ok(ei, v) for ei in incident[v]):
                v += 1
                break
        else:
            assign[v] = 0
            v -= 1


def is_subconstruction(h: Hypergraph, p: Pattern) -> Optional[tuple[int, ...]]:
    """A vertex -> part map (1-based) sending every edge profile into the
    pattern's admissible set, or None."""
    for assignment in _assignment_search(h, p):
        return assignment
    return None


def full_construction_assignment(h: Hypergraph,
                                 p: Pattern) -> Optional[tuple[int, ...]]:
    """An assignment witnessing that h IS an entire blowup of the pattern
    (not merely a subgraph of one): the map is admissible and h has every
    edge the implied composition allows."""
    for assignment in _assignment_search(h, p):
        sizes = [0] * p.k
        for part in assignment:
            sizes[part - 1] += 1
        if h.edge_count == blowup_count(p, tuple(sizes)):
            return assignment
    return None


def dumps_pat(p: Pattern) -> str:
    """Serialize a pattern to its JSON text form."""
    return json.dumps({"k": p.k, "r": p.r,
                       "multisets": [list(y) for y in p.multisets]}) + "\n"


def loads_pat(text: str) -> Pattern:
    """Parse the JSON pattern format {"k":…, "r":…, "multisets":[[…]]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid pattern JSON: {exc}") from None
    if not isinstance(data, dict):
        raise FormatError("pattern JSON must be an object")
    extra = set(data) - {"k", "r", "multisets"}
    if extra:
        raise FormatError(f"unknown pattern fields: {sorted(extra)}")
    try:
        k, r = data["k"], data["r"]
        multisets = tuple(tuple(y) for y in data["multisets"])
    except (KeyError, TypeError):
        raise FormatError("pattern JSON needs k, r, multisets") from None
    # JSON true and false load as bools, which Python counts as ints
    values = [k, r] + [v for y in multisets for v in y]
    if any(type(v) is not int for v in values):
        raise FormatError("pattern fields must be integers")
    try:
        return Pattern(k, r, multisets)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_pat(path) -> Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_pat(fh.read())


def dump_pat(p: Pattern, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_pat(p))
