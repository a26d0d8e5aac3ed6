"""Independent brute-force references used to validate the package.

Everything here is deliberately naive (factorial/exponential) and written
without reusing the package's search code, so the two sides can
cross-check each other.  The copy-enumerator references share only the
package's static pattern order, and the enumerator kernel's reference
its search plan, so that their output order can be compared exactly; the packing references share the package's copy
tables and family normalization, so that witnesses compare exactly; the
generation references share the package's feasibility check and orbit
helpers, and keep their own vertex-profile invariant; the scan reference
shares only the orbit oracle; the lex-min labeling reference shares the
phase-1 scan and the orbit oracle; the freezing-search reference shares
the solver's copy tables and realization kernel; the per-size blowup
walk shares the blowup search's tables and memo.  The row floor, the
dense Lagrangian gradient and the `Fraction` polynomial are the kernels
`patterns` replaced, kept whole.  Budgets: n <= 7 for
relabeling scans, small edge counts for packing enumeration.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from typing import Iterator, Optional, Sequence

from turankit.canon import Edge, Scan, refinement_scan
from turankit.core import Hypergraph, canonical_form
from turankit.genfree import _orbit, _orbit_representatives
from turankit.matching import (
    MatchingWitness, WitnessEntry, _copies, _edge_checks, _normalize_families,
    _pattern_order, _union,
)
from turankit.patterns import _BlowupSearch
from turankit.solver import ForbiddenConfig, TuranRecord, _Searcher


# -- tiny independent constructors (used to cross-check zoo) -----------


def path_graph(n: int) -> Hypergraph:
    return Hypergraph(n, 2, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Hypergraph:
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Hypergraph(n, 2, tuple(tuple(sorted(e)) for e in edges))


def turan_graph(n: int, parts: int) -> Hypergraph:
    """Balanced complete multipartite graph (larger parts first)."""
    sizes = [n // parts + (1 if i < n % parts else 0) for i in range(parts)]
    label = []
    for part, size in enumerate(sizes):
        label += [part] * size
    edges = [(u, v) for u, v in combinations(range(n), 2) if label[u] != label[v]]
    return Hypergraph(n, 2, tuple(edges))


# -- zoo's part constructions as filters over all r-sets ---------------
# (the builders `zoo` had before it blew up patterns: same labels, same
# split rule, hand-written counts)


def _two_part_edges(n: int, a: int, r: int, keep) -> tuple:
    """All r-sets e of {0..n-1} with keep(|e ∩ {0..a-1}|) true."""
    return tuple(e for e in combinations(range(n), r)
                 if keep(sum(1 for v in e if v < a)))


def _best_split(n: int, count_at, candidates) -> int:
    """Edge-maximizing first-part size; ties to balance, then larger part."""
    return max(candidates, key=lambda a: (count_at(a), -abs(2 * a - n), a))


def reference_turan(n: int, l: int, r: int) -> Hypergraph:
    sizes = [n // l + (1 if i < n % l else 0) for i in range(l)]
    part_of = [i for i, s in enumerate(sizes) for _ in range(s)]
    return Hypergraph(n, r, tuple(e for e in combinations(range(n), r)
                                  if len({part_of[v] for v in e}) == r))


def reference_bipartite3(n: int) -> Hypergraph:
    return Hypergraph(n, 3, _two_part_edges(n, (n + 1) // 2, 3,
                                            lambda k: 0 < k < 3))


def reference_odd_bipartite(n: int, r: int,
                            m: Optional[int] = None) -> Hypergraph:
    uniform = 2 * r

    def count_at(a):
        return sum(comb(a, i) * comb(n - a, uniform - i)
                   for i in range(1, uniform + 1, 2))

    a = (_best_split(n, count_at, range(n // 2, n + 1)) if m is None
         else n // 2 + m)
    return Hypergraph(n, uniform, _two_part_edges(n, a, uniform,
                                                  lambda k: k % 2 == 1))


def reference_even_quad(n: int) -> Hypergraph:
    a = _best_split(n, lambda a: comb(a, 2) * comb(n - a, 2), range(n + 1))
    return Hypergraph(n, 4, _two_part_edges(n, a, 4, lambda k: k == 2))


def reference_semibipartite(n: int, r: int) -> Hypergraph:
    a = _best_split(n, lambda a: a * comb(n - a, r - 1), range(n + 1))
    return Hypergraph(n, r, _two_part_edges(n, a, r, lambda k: k == 1))


FANO_EDGES = ((0, 1, 2), (0, 3, 6), (0, 4, 5), (1, 3, 5), (1, 4, 6),
              (2, 3, 4), (2, 5, 6))


def fano_graph() -> Hypergraph:
    return Hypergraph(7, 3, FANO_EDGES)


# -- canonical-form / isomorphism references ---------------------------


def relabel(g: Hypergraph, perm) -> Hypergraph:
    edges = tuple(tuple(sorted(perm[v] for v in e)) for e in g.edges)
    return Hypergraph(g.n, g.r, edges)


def min_relabeling(g: Hypergraph) -> tuple:
    """Lexicographically least edge list over all n! relabelings (n <= 7)."""
    assert g.n <= 7, "factorial scan budget"
    return _least_relabeling(g.edges, permutations(range(g.n)))


def _least_relabeling(edges, orders) -> tuple:
    """Least relabeled edge list over the labelings that list the vertices
    in one of the given orders (label i goes to the order's i-th vertex)."""
    best = None
    for order in orders:
        perm = [0] * len(order)
        for label, v in enumerate(order):
            perm[v] = label
        relabeled = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
        if best is None or relabeled < best:
            best = relabeled
    return best


def degree_sorted_relabeling(g: Hypergraph) -> tuple:
    """Least relabeled edge list over the relabelings that give vertices of
    larger degree smaller labels.  Isomorphic graphs have the same set of
    such relabeled edge lists, so this is a complete invariant, like
    `min_relabeling`, at a fraction of the n! scan."""
    deg = [0] * g.n
    for e in g.edges:
        for v in e:
            deg[v] += 1
    groups = [[v for v in range(g.n) if deg[v] == d]
              for d in sorted(set(deg), reverse=True)]
    orders = (sum(parts, ()) for parts in product(*map(permutations, groups)))
    return _least_relabeling(g.edges, orders)


def brute_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    if g.n != h.n or g.r != h.r or len(g.edges) != len(h.edges):
        return False
    target = set(h.edges)
    for perm in permutations(range(g.n)):
        if all(tuple(sorted(perm[v] for v in e)) in target for e in g.edges):
            return True
    return False


def reference_are_isomorphic(g: Hypergraph, h: Hypergraph) -> bool:
    """The earlier `core.are_isomorphic`: a degree pre-check, then
    equality of the lex-min canonical forms."""
    if g.n != h.n or g.r != h.r or len(g.edges) != len(h.edges):
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g).edges == canonical_form(h).edges


# -- copies and disjoint packings ---------------------------------------


def spans(f: Hypergraph, h: Hypergraph, image: tuple) -> bool:
    """Is there a bijection from f's vertices onto `image` mapping every
    f-edge to an h-edge?"""
    h_edges = set(h.edges)
    for perm in permutations(image):
        if all(tuple(sorted(perm[v] for v in e)) in h_edges for e in f.edges):
            return True
    return False


def all_copies(f: Hypergraph, h: Hypergraph) -> list[tuple]:
    """Vertex sets of all copies of f in h (subgraph containment)."""
    return [s for s in combinations(range(h.n), f.n) if spans(f, h, s)]


def brute_matching_number(f: Hypergraph, h: Hypergraph) -> int:
    """Maximum number of pairwise vertex-disjoint copies of f in h."""
    copies = all_copies(f, h)

    def grow(start: int, used: frozenset) -> int:
        best = 0
        for i in range(start, len(copies)):
            s = copies[i]
            if used.isdisjoint(s):
                best = max(best, 1 + grow(i + 1, used | frozenset(s)))
        return best

    return grow(0, frozenset())


def brute_has_config(h: Hypergraph, config) -> bool:
    """Exhaustive: do pairwise-disjoint copies exist, t_i of each f_i?"""
    demands = []
    for f, t in config:
        demands += [f] * t

    def place(i: int, used: frozenset) -> bool:
        if i == len(demands):
            return True
        for s in all_copies(demands[i], h):
            if used.isdisjoint(s) and place(i + 1, used | frozenset(s)):
                return True
        return False

    return place(0, frozenset())


# -- the copy enumerators before the shared one --------------------------


def reference_embed(f: Hypergraph, h: Hypergraph, forbidden=()):
    """`matching.embed` before the shared enumerator: the first injective
    map, in `_pattern_order` lex order, sending f's edges into h's and
    avoiding `forbidden`, as a mapping tuple, or None."""
    if f.n == 0:
        return ()
    blocked = set(forbidden)
    if f.n > h.n - len(blocked & set(range(h.n))):
        return None
    order = _pattern_order(f)
    checks = _edge_checks(f, order)
    fdegs = f.degrees()
    hdegs = h.degrees()
    assigned: dict[int, int] = {}
    used: set[int] = set()

    def place(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for w in range(h.n):
            if w in used or w in blocked or hdegs[w] < fdegs[v]:
                continue
            assigned[v] = w
            if all(h.has_edge(tuple(sorted(assigned[u] for u in e)))
                   for e in checks[i]):
                used.add(w)
                if place(i + 1):
                    return True
                used.remove(w)
        assigned.pop(v, None)
        return False

    if place(0):
        return tuple(assigned[v] for v in range(f.n))
    return None


def reference_copies(f: Hypergraph, h: Hypergraph) -> list[tuple]:
    """`matching._copies` before the shared enumerator: every embedding
    walked in `_pattern_order` lex order, the first kept per vertex set.
    Returns (vertex bitmask, vertex tuple, mapping) sorted by vertex tuple."""
    order = _pattern_order(f)
    checks = _edge_checks(f, order)
    fdegs = f.degrees()
    hdegs = h.degrees()
    assigned: dict[int, int] = {}
    used: set[int] = set()
    found: dict[tuple, tuple] = {}

    def place(i: int) -> None:
        if i == len(order):
            key = tuple(sorted(assigned.values()))
            if key not in found:
                found[key] = tuple(assigned[v] for v in range(f.n))
            return
        v = order[i]
        for w in range(h.n):
            if w in used or hdegs[w] < fdegs[v]:
                continue
            assigned[v] = w
            if all(h.has_edge(tuple(sorted(assigned[u] for u in e)))
                   for e in checks[i]):
                used.add(w)
                place(i + 1)
                used.remove(w)
        assigned.pop(v, None)

    place(0)
    return [(sum(1 << v for v in key), key, found[key]) for key in sorted(found)]


def reference_solver_copies(f: Hypergraph, n: int) -> list[tuple[int, int]]:
    """`solver._Searcher._copies` before the shared enumerator: all
    n!/(n-v)! injections of f into the complete r-graph on n vertices, one
    (edge mask, vertex mask) per distinct edge image, sorted by edge bits.
    Its vertex mask covers only f's non-isolated vertices."""
    index = {e: i for i, e in enumerate(combinations(range(n), f.r))}
    out: dict[int, int] = {}
    for sub in combinations(range(n), f.n):
        for perm in permutations(sub):
            emask = 0
            for e in f.edges:
                emask |= 1 << index[tuple(sorted(perm[v] for v in e))]
            if emask not in out:
                out[emask] = sum(1 << perm[v] for v in {u for e in f.edges for u in e})
    return sorted(out.items(), key=lambda c: [i for i in range(len(index)) if c[0] >> i & 1])


def reference_dfs(checks, lows, cands, host_edges):
    """`matching._dfs` before the link bitsets: injective position
    assignments a, in lex order, with a[k] drawn from the list cands[k],
    a[k] > a[i] for every i in lows[k], and every edge in checks[k]
    mapped into host_edges, probed one sorted tuple per edge and per
    candidate.  Yields one list, updated in place."""
    a = [0] * len(cands)
    used: set[int] = set()

    # go recurses through its argument: no closure refers to itself
    def go(again, k: int):
        if k == len(cands):
            yield a
            return
        lo = max((a[i] for i in lows[k]), default=-1)
        for w in cands[k]:
            if w <= lo or w in used:
                continue
            a[k] = w
            if all(tuple(sorted([a[p] for p in e])) in host_edges
                   for e in checks[k]):
                used.add(w)
                yield from again(again, k + 1)
                used.remove(w)

    return go(go, 0)


def group_order(n: int, generators) -> int:
    """Order of the permutation group on range(n) that the generators
    generate, by closing the identity under them."""
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for g in generators:
            q = tuple(g[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                stack.append(q)
    return len(group)


def automorphism_count(f: Hypergraph) -> int:
    """|Aut(f)| by scanning all v! relabelings."""
    own = set(f.edges)
    return sum(all(tuple(sorted(p[v] for v in e)) in own for e in f.edges)
               for p in permutations(range(f.n)))


# -- the solver's realization walk before the copy bitsets -----------------


def reference_find_realization(searcher, w: int):
    """`solver._Searcher.find_realization` before the bit-parallel kernel:
    a copy-by-copy walk over `searcher.fams` (families in order, copies
    in table order, same-family copies strictly increasing, vertex masks
    pairwise disjoint) returning the edge mask of the first realization
    inside edge set w, or None."""
    fams = searcher.fams

    def go(fi, need, start, used_v, acc):
        if need == 0:
            fi += 1
            if fi == len(fams):
                return acc
            return go(fi, fams[fi][1], 0, used_v, acc)
        copies = fams[fi][0]
        for ci in range(start, len(copies)):
            em, vm = copies[ci]
            if em & ~w == 0 and vm & used_v == 0:
                got = go(fi, need - 1, ci + 1, used_v | vm, acc | em)
                if got is not None:
                    return got
        return None

    return go(0, fams[0][1], 0, 0, 0)


# -- the freezing search before orbital branching ------------------------


def reference_run(searcher, best: int, node_limit: int, enumerate_all: bool):
    """`solver._Searcher.run` before orbital branching: the multiway
    freezing tree, where child i of an infeasible node deletes the i-th
    non-frozen edge of its first violating realization and freezes the
    earlier ones.  It shares the searcher's tables and kernel, its node
    counter and its bracket fields, and returns what `run` returns."""
    s = searcher
    found: set = set()
    best_mask = [None]
    best_box = [best]

    def search(g: int, frozen: int, cnt: int, alive: int):
        s.nodes += 1
        if s.nodes > node_limit:
            s.limit_hit = True
            if cnt > s.skipped_upper:
                s.skipped_upper = cnt
            return
        if enumerate_all:
            if cnt < best_box[0]:
                return
        elif cnt <= best_box[0]:
            return
        a = alive  # the copies the packing's deletions leave
        first = None
        p = 0
        while True:
            real = s.pack(a)
            if real is None:
                break
            nonfrozen = real & ~frozen
            if nonfrozen == 0:
                return  # the realization survives every deletion below
            if first is None:
                first = nonfrozen
            p += 1
            if enumerate_all:
                if cnt - p < best_box[0]:
                    return
            elif cnt - p <= best_box[0]:
                return
            a &= ~_union(s.kill, nonfrozen)
        if first is None:
            if enumerate_all:
                found.add(canonical_form(s.graph_of(g)).graph())
            else:
                best_box[0] = cnt
                best_mask[0] = g
            return
        newly = 0
        while first:
            low = first & -first
            search(g & ~low, frozen | newly, cnt - 1,
                   alive & ~s.kill[low.bit_length() - 1])
            newly |= low
            first ^= low

    search(s.full, 0, len(s.edges), s.alive_in(s.full))
    if enumerate_all:
        return found
    return best_box[0], best_mask[0]


def reference_solve(n: int, config, enumerate_all: bool,
                    node_limit: int = 10_000_000) -> TuranRecord:
    """`solver._solve` before orbital branching, without a seed: one value
    run of `reference_run` from below, then, when asked and exact, the
    enumerate pass at the value with a node budget of its own."""
    s = _Searcher(n, config)
    value, witness = reference_run(s, -1, node_limit, False)
    value = max(value, 0)  # the empty graph is feasible even if never reached
    upper = max(value, s.skipped_upper) if s.limit_hit else value
    status = "bounds" if s.limit_hit else "exact"
    extremal = ()
    if witness is not None:
        extremal = (canonical_form(s.graph_of(witness)).graph(),)
    nodes, complete = s.nodes, False
    if enumerate_all and status == "exact":
        s.nodes = 0
        forms = reference_run(s, value, node_limit, True)
        nodes += s.nodes
        complete = not s.limit_hit
        status = "exact" if complete else "bounds"
        extremal = tuple(sorted(forms, key=lambda g: g.edges))
    return TuranRecord(n, config.r, config.hash_hex(), status, value, upper,
                       extremal, complete, nodes, 0, 0)


# -- the orbital search before best-first order --------------------------


def reference_orbital_run(searcher, floor: int, node_limit: int,
                          enumerate_all: bool):
    """`solver._Searcher.run` before best-first order: the orbital freezing
    tree searched depth first by recursion, child A before child B, value
    mode raising the floor at each feasible leaf.  It shares the
    searcher's tables, kernel and orbits, its node counter and its bracket
    fields, and returns what `run` returns."""
    s = searcher
    if s.orbit_tables is None:
        s.orbit_tables = s._orbit_tables()
    delta, _, _, half, root = s.orbit_tables
    found: set = set()
    best = [floor, None]  # the floor and its witness mask

    def search(again, g: int, frozen: int, cnt: int, alive: int, links):
        s.nodes += 1
        if s.nodes > node_limit:
            s.limit_hit = True
            if cnt > s.skipped_upper:
                s.skipped_upper = cnt
            return
        if cnt <= best[0]:
            return
        a = alive  # the copies the packing's deletions leave
        first = None
        p = 0
        while True:
            real = s.pack(a)
            if real is None:
                break
            nonfrozen = real & ~frozen
            if nonfrozen == 0:
                return  # the realization survives every deletion below
            if first is None:
                first = nonfrozen
            p += 1
            if cnt - p <= best[0]:
                return
            a &= ~_union(s.kill, nonfrozen)
        if first is None:
            if enumerate_all:
                found.add(canonical_form(s.graph_of(g)).graph())
            else:
                best[:] = cnt, g
            return
        low = first & -first
        e = low.bit_length() - 1
        again(again, g & ~low, frozen, cnt - 1, alive & ~s.kill[e],
              links ^ delta[e])
        orb = s.orbit(e, links)
        again(again, g, frozen | orb, cnt, alive,
              links | _union(delta, orb) << half)

    search(search, s.full, 0, len(s.edges), s.alive_in(s.full), root)
    return found if enumerate_all else tuple(best)


def reference_descent(n: int, config, seed: Optional[Hypergraph],
                      enumerate_all: bool,
                      node_limit: int = 10_000_000) -> TuranRecord:
    """`solver._solve` before best-first order.  The value pass asks for
    more than k edges: once, k the count of a feasible seed, or else for
    k = C(n, r) − 1, C(n, r) − 2, … until the answer is yes, each run of
    `reference_orbital_run` from the root.  Then, when asked and exact,
    the enumerate pass at the value with a node budget of its own."""
    s = _Searcher(n, config)
    seeded, seed_mask = 0, None
    if seed is not None:
        m = s.mask_of(seed)
        if s.is_feasible(m):
            seeded, seed_mask = seed.edge_count, m
    best = seeded if seed_mask is not None else -1
    value, witness = best, seed_mask
    upper = len(s.edges)
    for k in range(best if seed_mask is not None else upper - 1, best - 1, -1):
        found, mask = reference_orbital_run(s, k, node_limit, False)
        if mask is not None:
            value, witness = found, mask
        if s.limit_hit:
            upper = min(upper, max(value, s.skipped_upper))
            break
        if mask is not None:
            upper = value
            break
        upper = k
    value = max(value, 0)  # the empty graph is feasible even if never reached
    status = "bounds" if s.limit_hit else "exact"
    extremal = ()
    if witness is not None:
        extremal = (canonical_form(s.graph_of(witness)).graph(),)
    nodes, complete = s.nodes, False
    if enumerate_all and status == "exact":
        s.nodes = 0
        forms = reference_orbital_run(s, value - 1, node_limit, True)
        nodes += s.nodes
        complete = not s.limit_hit
        status = "exact" if complete else "bounds"
        extremal = tuple(sorted(forms, key=lambda g: g.edges))
    return TuranRecord(n, config.r, config.hash_hex(), status, value, upper,
                       extremal, complete, nodes, 0, seeded)


# -- the packing searches before the bit-parallel kernel -----------------


def _reference_pack(demands, memo, copy_lists, mask):
    """`matching._pack` before the bit-parallel kernel: copies (family
    position, copy position) meeting `demands` inside the vertex bitmask
    `mask`, or None, memoized on (mask, demands).  It branches on the least
    vertex v of the first available copy of the first unmet family: some
    copy through v is used, or v is not."""
    if not any(demands):
        return []
    key = (mask, demands)
    if key in memo:
        return memo[key]
    fam = next(i for i, d in enumerate(demands) if d > 0)
    pivot_mask = next((cm for cm, _, _ in copy_lists[fam]
                       if cm & mask == cm), 0)
    result = None
    if pivot_mask:
        v_bit = pivot_mask & -pivot_mask
        for gi, d in enumerate(demands):
            if d == 0 or result is not None:
                continue
            for ci, (cm, _, _) in enumerate(copy_lists[gi]):
                if cm & v_bit and cm & mask == cm:
                    nxt = tuple(t - (1 if i == gi else 0)
                                for i, t in enumerate(demands))
                    sub = _reference_pack(nxt, memo, copy_lists, mask & ~cm)
                    if sub is not None:
                        result = [(gi, ci)] + sub
                        break
        if result is None:
            result = _reference_pack(demands, memo, copy_lists, mask & ~v_bit)
    memo[key] = result
    return result


def _reference_witness(families, copy_lists, picks) -> MatchingWitness:
    entries = []
    for gi, ci in picks:
        _, verts, emb = copy_lists[gi][ci]
        entries.append(WitnessEntry(0, families[gi][2], verts, emb))
    entries.sort(key=lambda e: (e.family, e.vertices))
    return MatchingWitness(tuple(entries))


def reference_matching_number(f: Hypergraph, h: Hypergraph, cap=None):
    """`matching.matching_number` on the memo search: asks for 1, 2, ...
    disjoint copies until the answer flips or `cap` is reached."""
    copy_lists = [_copies(f, h)]
    memo: dict = {}
    value, picks = 0, []
    while cap is None or value < cap:
        attempt = _reference_pack((value + 1,), memo, copy_lists,
                                  (1 << h.n) - 1)
        if attempt is None:
            break
        value, picks = value + 1, attempt
    return value, _reference_witness([(f, 0, 0)], copy_lists, picks)


def reference_has_disjoint_config(h: Hypergraph, config):
    """`matching.has_disjoint_config` on the memo search."""
    families = _normalize_families(config)
    copy_lists = [_copies(f, h) for f, _, _ in families]
    picks = _reference_pack(tuple(t for _, t, _ in families), {}, copy_lists,
                            (1 << h.n) - 1)
    if picks is None:
        return None
    return _reference_witness(families, copy_lists, picks)


def reference_rainbow_matching(hosts, f: Hypergraph):
    """`matching.rainbow_matching` before the bit-parallel kernel: host by
    host, the first copy in `_copies` order disjoint from those placed,
    with failed (host, used vertices) pairs remembered."""
    if not hosts:
        return MatchingWitness(())
    n = hosts[0].n
    if len(hosts) * f.n > n:
        return None
    copy_lists = [_copies(f, g) for g in hosts]
    dead = set()
    chosen = []

    def place(i: int, used: int) -> bool:
        if i == len(hosts):
            return True
        if (i, used) in dead:
            return False
        for cm, verts, emb in copy_lists[i]:
            if cm & used == 0:
                chosen.append(WitnessEntry(i, 0, verts, emb))
                if place(i + 1, used | cm):
                    return True
                chosen.pop()
        dead.add((i, used))
        return False

    return MatchingWitness(tuple(chosen)) if place(0, 0) else None


# -- the phase-1 scan and generation under a given edge invariant -------


def _reference_refine(n: int, incident: Sequence[Sequence[Edge]],
                      cells: list[list[int]]) -> list[list[int]]:
    """Split cells by incidence signatures until the partition is stable."""
    while True:
        cell_of = [0] * n
        for ci, cell in enumerate(cells):
            for v in cell:
                cell_of[v] = ci
        new_cells: list[list[int]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[tuple, list[int]] = {}
            for v in cell:
                sig = tuple(sorted(tuple(sorted(cell_of[u] for u in e)) for e in incident[v]))
                buckets.setdefault(sig, []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for sig in sorted(buckets):
                    new_cells.append(sorted(buckets[sig]))
        cells = new_cells
        if not changed:
            return cells


class ReferenceOrbitOracle:
    """`canon._OrbitOracle` before it took generators as moved points:
    union-find over the orbits of the subgroup generated by the
    generators that fix every vertex of the tuple `base`, uniting each
    vertex with its image under each such generator."""

    def __init__(self, n: int, generators: Sequence[tuple[int, ...]], base):
        self.parent = list(range(n))
        for g in generators:
            if all(g[b] == b for b in base):
                for a in range(n):
                    self._union(a, g[a])

    def _find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def _union(self, a: int, b: int) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            self.parent[ra] = rb

    def same(self, v: int, others) -> bool:
        rv = self._find(v)
        return any(self._find(u) == rv for u in others)


def _reference_twin_transpositions(n: int, edges: Sequence[Edge],
                                   incident: Sequence[Sequence[Edge]]) -> list[tuple[int, ...]]:
    """Automorphisms that are free to detect: transpositions (u v) whose
    swap maps the edge set onto itself."""
    edge_set = set(edges)

    def swaps_ok(u: int, v: int) -> bool:
        for w, x in ((u, v), (v, u)):
            for e in incident[w]:
                if x in e:
                    continue
                if tuple(sorted(x if y == w else y for y in e)) not in edge_set:
                    return False
        return True

    out = []
    for u in range(n):
        for v in range(u + 1, n):
            if len(incident[u]) == len(incident[v]) and swaps_ok(u, v):
                g = list(range(n))
                g[u], g[v] = v, u
                out.append(tuple(g))
    return out


def reference_refinement_scan(n: int, edges: Sequence[Edge]) -> Scan:
    """`canon.refinement_scan` before its refinement coded each edge once
    per round and its search reused orbit oracles: automorphism generators
    and the least leaf of the refinement tree, seeded with the twin
    transpositions."""
    if not edges:
        # Aut is every permutation: the adjacent transpositions generate it
        adjacent = tuple(tuple(range(i)) + (i + 1, i) + tuple(range(i + 2, n))
                         for i in range(n - 1))
        return Scan(adjacent, tuple(range(n)), ())
    incident: list[list[Edge]] = [[] for _ in range(n)]
    for e in edges:
        for v in e:
            incident[v].append(e)

    best_edges: Optional[tuple[Edge, ...]] = None
    best_perm: Optional[tuple[int, ...]] = None
    leaf_seen: dict[tuple[Edge, ...], tuple[int, ...]] = {}
    generators = _reference_twin_transpositions(n, edges, incident)
    gen_set = set(generators)

    def visit_leaf(cells: list[list[int]]) -> None:
        nonlocal best_edges, best_perm
        perm = [0] * n
        for pos, cell in enumerate(cells):
            perm[cell[0]] = pos
        relabeled = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))
        prev = leaf_seen.get(relabeled)
        if prev is None:
            leaf_seen[relabeled] = tuple(perm)
        else:
            inv_prev = [0] * n
            for v in range(n):
                inv_prev[prev[v]] = v
            gamma = tuple(inv_prev[perm[v]] for v in range(n))
            if gamma not in gen_set and any(gamma[v] != v for v in range(n)):
                gen_set.add(gamma)
                generators.append(gamma)
        if best_edges is None or relabeled < best_edges:
            best_edges = relabeled
            best_perm = tuple(perm)

    def search(cells: list[list[int]], base: tuple[int, ...]) -> None:
        cells = _reference_refine(n, incident, cells)
        target = -1
        size = n + 1
        for idx, cell in enumerate(cells):
            if 1 < len(cell) < size:
                target = idx
                size = len(cell)
        if target < 0:
            visit_leaf(cells)
            return
        explored: list[int] = []
        for v in cells[target]:
            if explored and ReferenceOrbitOracle(n, generators, base).same(v, explored):
                explored.append(v)
                continue
            rest = [u for u in cells[target] if u != v]
            child = cells[:target] + [[v], rest] + cells[target + 1:]
            search(child, base + (v,))
            explored.append(v)

    try:
        search([list(range(n))], ())
    finally:
        del search  # it refers to itself: break the cycle, free the scan
    assert best_perm is not None and best_edges is not None
    return Scan(tuple(generators), best_perm, best_edges)


def reference_canonical_labeling(n: int, edges: Sequence[Edge]):
    """`canon.canonical_labeling` before its completion bound read the
    labels each undecided edge already has: phase 2 bounds by a pool of
    all r-tuples whose largest label is >= j (when C(n, r) <= 4096), else
    by copies of (0, .., r-2, j).  Shares the phase-1 scan with the package;
    its orbit oracle is `ReferenceOrbitOracle`."""
    generators, seed_perm, seed_edges = refinement_scan(n, edges)
    if not edges:
        return seed_perm, ()

    m = len(edges)
    r = len(edges[0])
    incident_idx: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            incident_idx[v].append(i)

    best: list[Edge] = list(seed_edges)
    best_assign: Optional[tuple[int, ...]] = None

    label_of = [-1] * n   # old vertex -> label
    assign = [-1] * n     # label -> old vertex
    maxtuple = (n,) * r

    if comb(n, r) <= 4096:
        universe = list(combinations(range(n), r))
        pools: Optional[list[list[Edge]]] = [
            [t for t in universe if t[-1] >= j] for j in range(n)]
    else:
        pools = None

    def improve(final: list[Edge], here: tuple[int, ...]) -> None:
        nonlocal best, best_assign
        if final < best:
            best = list(final)
            best_assign = here

    def bound_beats_best(j: int, decided: list[Edge]) -> bool:
        k = m - len(decided)
        if pools is not None:
            pool = pools[j]
            if k > len(pool):
                return True
            i = p = 0
            nd = len(decided)
            for b in best:
                if i < nd and (p >= k or decided[i] <= pool[p]):
                    t = decided[i]
                    i += 1
                else:
                    t = pool[p]
                    p += 1
                if t != b:
                    return t > b
            return True
        opt = tuple(range(r - 1)) + (j,)
        cut = bisect_left(decided, opt)
        lb = decided[:cut] + [opt] * k + decided[cut:]
        return lb >= best

    def search(j: int, decided: list[Edge]) -> None:
        if j == n:
            improve(decided, tuple(assign))
            return
        if len(decided) == m:
            rest = (u for u in range(n) if label_of[u] < 0)
            improve(decided, tuple(assign[:j]) + tuple(rest))
            return
        if bound_beats_best(j, decided):
            return
        scored = []
        for u in range(n):
            if label_of[u] >= 0:
                continue
            newly = []
            for ei in incident_idx[u]:
                e = edges[ei]
                if all(label_of[w] >= 0 for w in e if w != u):
                    newly.append(tuple(sorted((label_of[w] if w != u else j) for w in e)))
            newly.sort()
            scored.append((newly or [maxtuple], u, newly))
        scored.sort(key=lambda t: (t[0], t[1]))
        base = tuple(v for v in range(n) if label_of[v] >= 0)
        oracle = ReferenceOrbitOracle(n, generators, base) if len(scored) > 1 else None
        tried: list[int] = []
        for _, u, newly in scored:
            if tried and oracle is not None and oracle.same(u, tried):
                tried.append(u)
                continue
            label_of[u] = j
            assign[j] = u
            child = decided
            if newly:
                child = list(decided)
                for t in newly:
                    insort(child, t)
            search(j + 1, child)
            label_of[u] = -1
            assign[j] = -1
            tried.append(u)

    try:
        search(0, [])
    finally:
        del search
    if best_assign is None:
        return seed_perm, seed_edges
    perm = [0] * n
    for label in range(n):
        perm[best_assign[label]] = label
    return tuple(perm), tuple(best)


def _reference_vertex_profiles(n: int, edges: tuple):
    """Per-vertex invariant: degree plus the sorted degree-profiles of
    incident edges."""
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    prof = [[] for _ in range(n)]
    for e in edges:
        shape = tuple(sorted(deg[v] for v in e))
        for v in e:
            prof[v].append(shape)
    return [(deg[v], tuple(sorted(prof[v]))) for v in range(n)]


def _reference_set_invariant(profiles, s: tuple):
    return tuple(sorted(profiles[v] for v in s))


def profile_edge_keys(n: int, edges: tuple):
    """Edge key: the sorted vertex profiles (degree plus the sorted degree
    shapes of incident edges) of the edge's vertices."""
    profiles = _reference_vertex_profiles(n, edges)
    return lambda s: _reference_set_invariant(profiles, s)


def degree_edge_keys(n: int, edges: tuple):
    """Edge key: the sorted degrees of the edge's vertices."""
    deg = [0] * n
    for e in edges:
        for v in e:
            deg[v] += 1
    return lambda s: tuple(sorted(deg[v] for v in s))


def reference_key_walk(universe: list, mask: int, edges: tuple,
                       deg: list) -> dict:
    """`genfree`'s candidate walk before star masks: every non-edge of
    `universe` (bits off in `mask`) walks the parent's edges ranked by
    the sorted-degree key, each re-keyed under a fresh copy of the child
    degrees.  Maps each candidate whose added edge has the least key to
    (its tied edges, itself first; the child degrees)."""
    ranked = sorted([(sorted([deg[v] for v in e]), e) for e in edges])
    passed = {}
    for i, e in enumerate(universe):
        if mask >> i & 1:
            continue
        child_deg = list(deg)
        for v in e:
            child_deg[v] += 1
        key_added = sorted([child_deg[v] for v in e])
        tied = [e]
        for key, f in ranked:
            if key > key_added:
                break
            key = sorted([child_deg[v] for v in f])
            if key < key_added:
                tied = None
                break
            if key == key_added:
                tied.append(f)
        if tied is not None:
            passed[e] = tied, child_deg
    return passed


def _reference_is_canonical_addition(n: int, edges: tuple, added: tuple,
                                     edge_keys) -> Optional[Scan]:
    """The graph's scan if `added` lies in its canonical-deletion orbit,
    else None; `edge_keys(n, edges)` maps each edge to its invariant."""
    key = edge_keys(n, edges)
    inv_added = key(added)
    tied = []
    for e in edges:
        inv = key(e)
        if inv < inv_added:
            return None
        if inv == inv_added:
            tied.append(e)
    scan = reference_refinement_scan(n, edges)
    if len(tied) > 1:
        perm = scan.perm
        least = min(tied, key=lambda e: sorted(perm[v] for v in e))
        if added not in _orbit(least, scan.generators):
            return None
    return scan


def reference_scan_free_graphs(n: int, config: ForbiddenConfig,
                               edge_keys=profile_edge_keys) -> Iterator[Hypergraph]:
    """Canonical augmentation with the scan's orbits and tie-break and the
    given edge invariant (by default `genfree`'s vertex profiles before it
    keyed edges by sorted degrees): every child passes the feasibility
    check and then the full invariant test, recounted from scratch; the
    scans are the reference scans."""
    s = _Searcher(n, config)
    universe = s.edges

    def visit(mask: int, edges: tuple, scan: Scan) -> Iterator[Hypergraph]:
        yield Hypergraph(n, s.r, edges)
        present = set(edges)
        candidates = [e for e in universe if e not in present]
        for e in _orbit_representatives(candidates, scan.generators):
            child_mask = mask | (1 << s.index[e])
            if not s.is_feasible(child_mask):
                continue
            child_edges = tuple(sorted(edges + (e,)))
            child_scan = _reference_is_canonical_addition(n, child_edges, e,
                                                          edge_keys)
            if child_scan is not None:
                yield from visit(child_mask, child_edges, child_scan)

    yield from visit(0, (), reference_refinement_scan(n, ()))


# -- isomorph-free generation before the phase-1 scan ---------------------


def marked_min_relabeling(n: int, edges, mark: tuple) -> tuple:
    """Least relabeled edge list over the relabelings that give the vertices
    of `mark` the smallest labels: the canonical form of the graph with
    `mark` as its first colour class, by brute force."""
    rest = tuple(v for v in range(n) if v not in mark)
    orders = (head + tail for head in permutations(mark)
              for tail in permutations(rest))
    return _least_relabeling(edges, orders)


def reference_free_graphs(n: int, config):
    """`genfree.free_graphs` before the phase-1 scan: canonical augmentation
    whose orbit tests compare marked lex-min canonical forms, one per tied
    candidate r-set on the parent side and one per tied edge on the child
    side."""
    s = _Searcher(n, config)

    def orbit_representatives(edges, candidates):
        profiles = _reference_vertex_profiles(n, edges)
        groups: dict = {}
        for c in candidates:
            groups.setdefault(_reference_set_invariant(profiles, c), []).append(c)
        reps = []
        for group in groups.values():
            seen = set()
            for c in group:
                key = marked_min_relabeling(n, edges, c) if len(group) > 1 else ()
                if key not in seen:
                    seen.add(key)
                    reps.append(c)
        return sorted(reps)

    def is_canonical_addition(edges, added):
        profiles = _reference_vertex_profiles(n, edges)
        invs = [_reference_set_invariant(profiles, e) for e in edges]
        inv_added = _reference_set_invariant(profiles, added)
        if min(invs) < inv_added:
            return False
        tied = [e for e, inv in zip(edges, invs) if inv == inv_added]
        key_added = marked_min_relabeling(n, edges, added)
        return all(key_added <= marked_min_relabeling(n, edges, e)
                   for e in tied if e != added)

    def visit(mask, edges):
        yield Hypergraph(n, s.r, edges)
        present = set(edges)
        candidates = [e for e in s.edges if e not in present]
        for e in orbit_representatives(edges, candidates):
            child_mask = mask | (1 << s.index[e])
            if not s.is_feasible(child_mask):
                continue
            child_edges = tuple(sorted(edges + (e,)))
            if is_canonical_addition(child_edges, e):
                yield from visit(child_mask, child_edges)

    yield from visit(0, ())


# -- small exact extremal numbers ---------------------------------------


def brute_max_feasible(n: int, r: int, config) -> int:
    """ex(n, config) by scanning all edge subsets — only for tiny C(n,r)."""
    universe = list(combinations(range(n), r))
    assert len(universe) <= 16, "2^|E| scan budget"
    best = 0
    for bits in range(1 << len(universe)):
        edges = tuple(universe[i] for i in range(len(universe)) if bits >> i & 1)
        if len(edges) <= best:
            continue
        h = Hypergraph(n, r, edges)
        if not brute_has_config(h, config):
            best = len(edges)
    return best


def brute_chromatic(g: Hypergraph) -> int:
    assert g.r == 2 and g.n <= 8
    if g.n == 0:
        return 0
    if not g.edges:
        return 1
    lower = [[] for _ in range(g.n)]  # neighbors with smaller index
    for a, b in g.edges:
        lower[b].append(a)
    for k in range(1, g.n + 1):
        colors = [-1] * g.n

        def assign(v: int) -> bool:
            if v == g.n:
                return True
            for c in range(k):
                if all(colors[u] != c for u in lower[v]):
                    colors[v] = c
                    if assign(v + 1):
                        return True
            colors[v] = -1
            return False

        if assign(0):
            return k
    return g.n


# -- best blowup sizes ---------------------------------------------------


def reference_lambda_n(p, n: int) -> tuple:
    """`patterns.lambda_n` before symmetry breaking: a lex-descending walk
    over every composition of n, pruned only by per-profile suffix maxima,
    the bound `lambda_n` used until it switched to exact sub-pattern rows.
    Returns the same (value, lexicographically largest maximizer)."""
    if p.k == 0 or not p.multisets:
        return 0, ((n,) + (0,) * (p.k - 1) if p.k else ())
    mults = [p.multiplicities(y) for y in p.multisets]
    suffix = []
    for mult in mults:
        table = [[0] * (n + 1) for _ in range(p.k + 1)]
        table[p.k][0] = 1
        for i in range(p.k - 1, -1, -1):
            for R in range(n + 1):
                if i == p.k - 1:
                    table[i][R] = comb(R, mult[i])
                else:
                    table[i][R] = max(comb(s, mult[i]) * table[i + 1][R - s]
                                      for s in range(R + 1))
        suffix.append(table)

    best = [-1, ()]
    sizes = [0] * p.k

    def walk(i: int, remaining: int, partials: list) -> None:
        if i == p.k - 1:
            sizes[i] = remaining
            value = sum(partials[yi] * comb(remaining, mults[yi][i])
                        for yi in range(len(mults)))
            if value > best[0]:
                best[:] = [value, tuple(sizes)]
            return
        bound = sum(partials[yi] * suffix[yi][i][remaining]
                    for yi in range(len(mults)))
        if bound <= best[0]:
            return
        for s in range(remaining, -1, -1):
            sizes[i] = s
            walk(i + 1, remaining - s,
                 [partials[yi] * comb(s, mults[yi][i])
                  for yi in range(len(mults))])

    walk(0, n, [1] * len(mults))
    return best[0], best[1]


def reference_size_walk(search, i: int, remaining: int, weights) -> None:
    """`patterns._BlowupSearch.walk` before run bounds: each size of part i
    is tried on its own, and each child checks its own entry bound.  It
    shares the search's tables (caps, restrictions, binomial columns,
    sub-pattern rows) and
    counts in `search.tried` the sizes it builds a child for.  As the
    `walk` of `ReferenceSizeSearch` it stands in for the search inside
    `patterns._row`, so whole memo rows can be compared."""
    sizes = search.sizes
    if i == search.k - 1:
        sizes[i] = remaining
        value = sum(w * col[remaining]
                    for w, col in zip(weights, search.last))
        if value > search.value:
            search.value = value
            search.comp = tuple(sizes)
        return
    if i:
        bound = 0
        for row, lo, hi in search.bounds[i]:
            bound += row[remaining] * max(weights[lo:hi])
        if bound <= search.value:
            return
    cols, targets, width = search.steps[i]
    partner = search.partner[i]
    top = remaining if partner is None else min(remaining, sizes[partner])
    free, per = search.later[i]
    fixed = free * search.n + sum(c * z for c, z in zip(per, sizes[:i]))
    through = per[i]
    for s in range(top, -1, -1):
        sizes[i] = s
        if fixed + through * s < remaining - s:  # also keeps the last part capped
            break
        search.tried += 1
        nxt = [0] * width
        for w, col, t in zip(weights, cols, targets):
            nxt[t] += w * col[s]
        search.walk(i + 1, remaining - s, nxt)


class ReferenceSizeSearch(_BlowupSearch):
    walk = reference_size_walk

    def best(self, total: int, floor: int):
        # a one-part pattern is walked too, its only part being the last
        self.value, self.comp = floor, ()
        self.walk(0, total, [1] * self.width)
        return self.value, self.comp


def reference_row_floor(k: int, multisets, c: Sequence[int]) -> int:
    """The count `patterns._row` floors entry |c| + 1 on, before
    `_BlowupSearch.max_extension`: the largest of the k full counts at c
    plus one vertex in part j, each a product of `math.comb` over every
    profile and part."""
    def count(sizes):
        total = 0
        for y in multisets:
            term = 1
            for part, size in enumerate(sizes, 1):
                term *= comb(size, y.count(part))
            total += term
        return total

    return max(count(tuple(c[:j]) + (c[j] + 1,) + tuple(c[j + 1:]))
               for j in range(k))


def reference_gradient(p, xs: Sequence[float]) -> list:
    """The ascent's gradient before it skipped absent parts: every profile
    and every part, multiplying by x ** 0 where a profile lacks one."""
    coefs = []
    for y in p.multisets:
        mult = p.multiplicities(y)
        coef = factorial(p.r)
        for m in mult:
            coef //= factorial(m)
        coefs.append((float(coef), mult))
    grad = [0.0] * p.k
    for coef, mult in coefs:
        for i in range(p.k):
            if mult[i] > 0:
                g = coef * mult[i] * xs[i] ** (mult[i] - 1)
                for j in range(p.k):
                    if j != i:
                        g *= xs[j] ** mult[j]
                grad[i] += g
    return grad


def reference_poly_eval(p, x: Sequence) -> Fraction:
    """`patterns.density_poly_eval` before integer sums: one `Fraction`
    product and sum per term, on a point the caller has validated."""
    x = tuple(Fraction(v) for v in x)
    total = Fraction(0)
    for y in p.multisets:
        mult = p.multiplicities(y)
        coef = factorial(p.r)
        term = Fraction(1)
        for i in range(p.k):
            coef //= factorial(mult[i])
            term *= x[i] ** mult[i]
        total += coef * term
    return total
