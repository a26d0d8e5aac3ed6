"""Independent answer checks for the benchmark.

Nothing here imports turankit: every reference value is a closed form or a
brute-force computation over plain tuples, so a fault in the package's
search, canonical labeling or pattern code cannot hide in its own check.
Graphs are passed as ``(n, edges)`` with edges as sorted vertex tuples.

Each ``check_*`` function returns nothing on success and raises
``CheckError`` with a one-line reason on a wrong answer.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


class CheckError(Exception):
    """A program answer disagrees with the independent computation."""


def expect(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# -- closed forms ----------------------------------------------------------


def mantel(n: int) -> int:
    return n * n // 4


def turan_number(n: int, l: int) -> int:
    """Edges of the balanced complete l-partite graph on n vertices."""
    q, s = divmod(n, l)
    sizes = [q + 1] * s + [q] * (l - s)
    return (n * n - sum(x * x for x in sizes)) // 2


def moon(n: int, t: int) -> int:
    """Moon's value for t+1 disjoint triangles: t apex vertices over a
    balanced complete bipartite graph on the other n - t."""
    return comb(n, 2) - comb(n - t, 2) + (n - t) ** 2 // 4


def erdos_gallai(n: int, t: int) -> int:
    """Most edges of a graph on n vertices with no t+1 disjoint edges."""
    return max(comb(2 * t + 1, 2), comb(n, 2) - comb(n - t, 2))


def fano_ex(n: int) -> int:
    """Edges of the balanced complete bipartite 3-graph, ex(n, Fano)."""
    return comb(n, 3) - comb((n + 1) // 2, 3) - comb(n // 2, 3)


# -- embeddings --------------------------------------------------------------


def embeddings(f_n: int, f_edges, h_n: int, h_edges):
    """Yield every injective map of F into H (as a tuple of images), by
    backtracking that checks each F-edge once its last vertex is placed."""
    host = {tuple(sorted(e)) for e in h_edges}
    closing = [[e for e in f_edges if max(e) == v] for v in range(f_n)]
    image = [0] * f_n
    used = [False] * h_n

    def place(v: int):
        if v == f_n:
            yield tuple(image)
            return
        for x in range(h_n):
            if used[x]:
                continue
            image[v] = x
            if all(tuple(sorted(image[u] for u in e)) in host
                   for e in closing[v]):
                used[x] = True
                yield from place(v + 1)
                used[x] = False

    return place(0)


def copy_vertex_sets(f_n: int, f_edges, h_n: int, h_edges) -> set:
    """Vertex sets (frozensets) of every copy of F in H."""
    return {frozenset(m) for m in embeddings(f_n, f_edges, h_n, h_edges)}


def contains(f_n: int, f_edges, h_n: int, h_edges) -> bool:
    return any(True for _ in embeddings(f_n, f_edges, h_n, h_edges))


def max_disjoint(sets) -> int:
    """Largest number of pairwise disjoint sets among `sets`."""
    masks = sorted({sum(1 << v for v in s) for s in sets})
    best = 0

    def grow(start: int, used: int, count: int) -> None:
        nonlocal best
        best = max(best, count)
        for i in range(start, len(masks)):
            if masks[i] & used == 0:
                grow(i + 1, used | masks[i], count + 1)

    grow(0, 0, 0)
    return best


def has_rainbow(set_lists) -> bool:
    """Can one set be picked from each list with all picks disjoint?"""
    lists = [sorted({sum(1 << v for v in s) for s in sets})
             for sets in set_lists]

    def pick(i: int, used: int) -> bool:
        if i == len(lists):
            return True
        return any(m & used == 0 and pick(i + 1, used | m) for m in lists[i])

    return pick(0, 0)


def two_colouring(n: int, edges):
    """A proper 2-colouring as a list, or None if the graph has an odd
    cycle."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root] = 0
        todo = [root]
        while todo:
            u = todo.pop()
            for w in adj[u]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[u]
                    todo.append(w)
                elif colour[w] == colour[u]:
                    return None
    return colour


# -- graph answers ----------------------------------------------------------


def check_value(label: str, got: int, want: int) -> None:
    expect(got == want, f"{label}: value {got}, expected {want}")


def check_free_witness(label: str, n: int, edges, value: int,
                       f_n: int, f_edges, t: int = 0) -> None:
    """The witness has `value` edges and no t+1 disjoint copies of F."""
    expect(len(set(edges)) == len(edges) == value,
           f"{label}: witness has {len(edges)} edges, value is {value}")
    if t == 0:
        expect(not contains(f_n, f_edges, n, edges),
               f"{label}: witness contains the forbidden graph")
    else:
        nu = max_disjoint(copy_vertex_sets(f_n, f_edges, n, edges))
        expect(nu <= t, f"{label}: witness has {nu} disjoint copies")


def brute_ex(n: int, r: int, f_n: int, f_edges, t: int) -> int:
    """ex(n; t+1 disjoint F) by deleting ever larger edge sets from the
    complete r-graph: the first size that leaves a feasible graph wins."""
    universe = list(combinations(range(n), r))
    full = set(universe)
    for k in range(len(universe) + 1):
        for drop in combinations(universe, k):
            kept = full.difference(drop)
            nu = max_disjoint(copy_vertex_sets(f_n, f_edges, n, kept))
            if nu <= t:
                return len(universe) - k
    return 0


def check_apex_bipartite_family(graphs, n: int) -> None:
    """The 2K3 extremal family: one graph, a vertex adjacent to all
    others, and a bipartite remainder with floor((n-1)^2/4) edges, i.e.
    the apex over the balanced complete bipartite graph."""
    expect(len(graphs) == 1, f"2K3 family at n={n}: {len(graphs)} classes")
    edges = graphs[0]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    apex = [v for v in range(n) if deg[v] == n - 1]
    expect(bool(apex), f"2K3 family at n={n}: no vertex of degree {n - 1}")
    a = apex[0]
    rest = [v for v in range(n) if v != a]
    relabel = {v: i for i, v in enumerate(rest)}
    remainder = [(relabel[u], relabel[v]) for u, v in edges
                 if a not in (u, v)]
    expect(two_colouring(n - 1, remainder) is not None,
           f"2K3 family at n={n}: remainder is not bipartite")
    expect(len(remainder) == (n - 1) ** 2 // 4,
           f"2K3 family at n={n}: remainder has {len(remainder)} edges")


def check_rainbow_answer(label: str, hosts, f_n: int, f_edges,
                         witness) -> None:
    """`witness` is None or a list of vertex tuples, one per host.  It
    must agree with brute force on existence, and each set must be
    disjoint from the others and span a copy of F in its own host."""
    lists = [copy_vertex_sets(f_n, f_edges, n, edges) for n, edges in hosts]
    exists = has_rainbow(lists)
    if witness is None:
        expect(not exists, f"{label}: a rainbow matching exists, none given")
        return
    expect(len(witness) == len(hosts),
           f"{label}: {len(witness)} sets for {len(hosts)} hosts")
    seen: set = set()
    for i, verts in enumerate(witness):
        vs = frozenset(verts)
        expect(not (vs & seen), f"{label}: set {i} overlaps an earlier set")
        seen |= vs
        expect(vs in lists[i], f"{label}: set {i} spans no copy in host {i}")


# -- generation --------------------------------------------------------------


def check_class_count(label: str, got: int, want: int) -> None:
    expect(got == want, f"{label}: {got} classes, expected {want}")


def check_complement_symmetric(label: str, edge_counts, universe: int) -> None:
    """Complementation maps classes with m edges onto classes with
    universe - m edges, so the count by edge number is a palindrome."""
    hist = [0] * (universe + 1)
    for m in edge_counts:
        hist[m] += 1
    expect(hist == hist[::-1],
           f"{label}: class counts by edge number are not symmetric")


# -- patterns ----------------------------------------------------------------


def blowup_edges(multisets, c) -> int:
    total = 0
    for y in multisets:
        term = 1
        for part in set(y):
            term *= comb(c[part - 1], y.count(part))
        total += term
    return total


def compositions(n: int, k: int):
    if k == 0:
        if n == 0:
            yield ()
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def brute_lambda(k: int, multisets, n: int) -> int:
    return max(blowup_edges(multisets, c) for c in compositions(n, k))


def check_lambda(label: str, k: int, multisets, n: int, got, want: int) -> None:
    """`got` is (value, composition): the value must be `want` and the
    composition a composition of n that attains it."""
    value, c = got
    expect(value == want, f"{label}: value {value}, expected {want}")
    expect(len(c) == k and min(c) >= 0 and sum(c) == n,
           f"{label}: {c} is not a composition of {n} into {k} parts")
    expect(blowup_edges(multisets, c) == value,
           f"{label}: composition {c} does not attain {value}")


def check_balanced(label: str, c) -> None:
    expect(max(c) - min(c) <= 1, f"{label}: maximizer {c} is unbalanced")
    expect(list(c) == sorted(c, reverse=True),
           f"{label}: maximizer {c} is not non-increasing")


def check_bracket(label: str, lower, upper, target) -> None:
    expect(lower <= target <= upper,
           f"{label}: [{lower}, {upper}] misses {target}")


# -- replay ------------------------------------------------------------------


def check_replay_cache(before: dict, after: dict) -> None:
    """A replayed round reads a cache the fill wrote and writes nothing.
    `before` and `after` map each record's name to its (mtime, size)."""
    expect(bool(before), "replay: the fill left the cache empty, so every "
           "replayed question was solved cold")
    expect(after == before, "replay: a cache file was written while replaying")
