"""The four workloads: the questions each one asks and how each answer is
checked.

A workload is a list of operations.  An operation is one call into
turankit (timed) and one check of its answer against ``checks`` (not
timed).  Inputs are built here from the benchmark's own edge lists and the
seed; turankit only ever receives the finished inputs.  Every call goes
through the module attribute (``tk.solver.max_edges``, not a name bound at
import), so the traced run sees it.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random
from typing import Any, Callable

import checks as ck

K3 = ((0, 1), (0, 2), (1, 2))
K4 = tuple(combinations(range(4), 2))
EDGE = ((0, 1),)
FANO = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
        (2, 4, 5))
S3 = (2, ((1, 2, 2),))
B4 = (2, ((1, 1, 2, 2),))

# The operation that fails today through a program fault, named in the README.
BRACKET_FAULT = ("solver.max_edges returns a 'bounds' record with value -1 "
                 "when its node limit stops the search before any feasible "
                 "graph is found")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: str = ""


@dataclass
class Workload:
    ops: list
    passes: int = 1        # times the measured phase asks every question
    caches: list = field(default_factory=list)  # cache dirs besides the shared one


def kl_multisets(l: int):
    return tuple((i, j) for i in range(1, l + 1) for j in range(i + 1, l + 1))


def write_hg(path: str, n: int, r: int, edges) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {r}\n")
        fh.writelines(" ".join(map(str, e)) + "\n" for e in edges)
    return path


def relabel(edges, perm):
    return tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edges))


def apex_bipartite(n: int, t: int):
    """t apex vertices joined to everything, over the balanced complete
    bipartite graph on the other n - t: Moon's extremal graph."""
    apex = [(u, v) for u in range(t) for v in range(u + 1, n)]
    half = t + (n - t) // 2
    return tuple(apex + [(u, v) for u in range(t, half) for v in range(half, n)])


def random_graph(rng: Random, n: int):
    return tuple(e for e in combinations(range(n), 2) if rng.random() < 0.5)


def random_pattern(rng: Random, k: int, r: int):
    """A random set of admissible profiles: sorted r-multisets of parts
    1..k, each kept with probability one half (at least one kept)."""
    pool = [tuple(p - i for i, p in enumerate(y))
            for y in combinations(range(1, k + r), r)]
    kept = [y for y in pool if rng.random() < 0.5]
    return tuple(kept or [pool[rng.randrange(len(pool))]])


# -- shared question sets ----------------------------------------------------

# replay asks each question several times and brute force is costly, so
# identical answers are checked once per process
free_witness = functools.cache(ck.check_free_witness)
brute_ex = functools.cache(ck.brute_ex)


def table_op(tk, label: str, cfg, lo: int, hi: int, want,
             f_n: int, f_edges, t: int, cache_dir) -> Op:
    """ex_table over [lo, hi]; each value is `want(n)` and each record's
    first extremal graph is a feasible witness with that many edges."""

    def check(table):
        ck.expect(list(table.ns) == list(range(lo, hi + 1)),
                  f"{label}: rows for n={list(table.ns)}")
        for n in table.ns:
            rec = table.record(n)
            ck.check_value(f"{label} n={n}", rec.value, want(n))
            ck.expect(rec.status == "exact", f"{label} n={n}: {rec.status}")
            free_witness(f"{label} n={n}", n, rec.extremal[0].edges,
                         rec.value, f_n, f_edges, t)

    return Op(f"table {label} n={lo}..{hi}",
              lambda: tk.solver.ex_table(cfg, lo, hi, cache_dir=cache_dir),
              check)


def edge_matching_ops(tk, cases, cache):
    """max_edges with t+1 disjoint edges forbidden: Erdős–Gallai."""
    edge = tk.Hypergraph(2, 2, EDGE)
    ops = []
    for n, t in cases:
        cfg = tk.solver.config_of([(edge, t + 1)])

        def check(rec, n=n, t=t):
            ck.check_value(f"{t + 1} disjoint edges n={n}", rec.value,
                           ck.erdos_gallai(n, t))
            free_witness(f"{t + 1} disjoint edges n={n}", n,
                         rec.extremal[0].edges, rec.value, 2, EDGE, t)

        ops.append(Op(f"ex {t + 1} disjoint edges n={n}",
                      lambda n=n, cfg=cfg, where=cache():
                      tk.solver.max_edges(n, cfg, cache_dir=where), check))
    return ops


def table_questions(tk, fano_hi: int, cache=lambda: None):
    """Tables of exact values for K3, 2K3, K4 and Fano, and the
    Erdős–Gallai cases; `fano_hi` caps the costliest one.  `cache()` gives
    each question its cache directory (None: the shared one)."""
    cfg = lambda n, r, edges, t: tk.solver.config_of(
        [(tk.Hypergraph(n, r, edges), t)])
    ex_2k3 = lambda n: brute_ex(n, 2, 3, K3, 1) if n == 6 else ck.moon(n, 1)
    return [
        table_op(tk, "K3", cfg(3, 2, K3, 1), 3, 10, ck.mantel, 3, K3, 0,
                 cache()),
        table_op(tk, "2K3", cfg(3, 2, K3, 2), 6, 8, ex_2k3, 3, K3, 1, cache()),
        table_op(tk, "K4", cfg(4, 2, K4, 1), 4, 9,
                 lambda n: ck.turan_number(n, 3), 4, K4, 0, cache()),
        table_op(tk, "Fano", cfg(7, 3, FANO, 1), 7, fano_hi, ck.fano_ex,
                 7, FANO, 0, cache()),
    ] + edge_matching_ops(tk, ((6, 1), (6, 2), (7, 1), (7, 2), (8, 2)), cache)


# -- workloads ---------------------------------------------------------------


def disjoint(tk, seed: int, files: str) -> Workload:
    """Every question solves cold but one.  The 2K3 family, the main-theorem
    check and the CLI share the round's empty cache; the other solver
    questions each get a fresh cache directory of their own.  The
    main-theorem check follows the 2K3 family and reads its n=9 record."""
    rng = Random(seed)
    k3 = tk.Hypergraph(3, 2, K3)
    cfg = lambda f, t: tk.solver.config_of([(f, t)])
    no_k3, no_2k3 = cfg(k3, 1), cfg(k3, 2)
    ops = []
    caches = []

    def cold() -> str:
        caches.append(os.path.join(files, f"cache{len(caches)}"))
        return caches[-1]

    def family_check(graphs):
        ck.check_apex_bipartite_family([g.edges for g in graphs], 9)
        for g in graphs:
            ck.check_free_witness("2K3 family n=9", 9, g.edges,
                                  ck.moon(9, 1), 3, K3, 1)

    ops.append(Op("extremal 2K3 n=9",
                  lambda: tk.solver.enumerate_extremal(9, no_2k3),
                  family_check))

    def main_theorem_check(report):
        ck.expect(report.status == "pass",
                  f"main theorem K3 n=9 t=1: {report.status} "
                  f"{report.violations}")

    ops.append(Op("verify main-theorem K3 n=9 t=1",
                  lambda: tk.verify.check_main_theorem(k3, 9, 1),
                  main_theorem_check))

    def ex_2k3_check(rec):
        ck.check_value("2K3 n=9", rec.value, ck.moon(9, 1))
        ck.check_free_witness("2K3 n=9", 9, rec.extremal[0].edges,
                              rec.value, 3, K3, 1)

    ex_dir = cold()
    ops.append(Op("ex 2K3 n=9",
                  lambda: tk.solver.max_edges(9, no_2k3, cache_dir=ex_dir),
                  ex_2k3_check))

    ops += table_questions(tk, fano_hi=8, cache=cold)

    # rainbow matchings around the threshold C(n,2) - C(n-t,2) + ex(n-t, K3)
    n = 9
    collections = []
    for t in (1, 2):
        base = apex_bipartite(n, t)
        perm = list(range(n))
        rng.shuffle(perm)
        at = relabel(base, perm)
        collections.append((f"t={t} at threshold", [at] * (t + 1)))
        missing = [e for e in combinations(range(n), 2) if e not in base]
        for i in range(3):
            hosts = []
            for _ in range(t + 1):
                extra = missing[rng.randrange(len(missing))]
                rng.shuffle(perm)
                hosts.append(relabel(base + (extra,), perm))
            collections.append((f"t={t} above threshold #{i}", hosts))
    for label, hosts in collections:
        graphs = [tk.Hypergraph(n, 2, h) for h in hosts]

        def rainbow_check(witness, label=label, hosts=hosts):
            sets = None
            if witness is not None:
                sets = [e.vertices for e in
                        sorted(witness.entries, key=lambda e: e.host)]
            ck.check_rainbow_answer(f"rainbow {label}",
                                    [(n, h) for h in hosts], 3, K3, sets)

        ops.append(Op(f"rainbow {label}",
                      lambda graphs=graphs:
                      tk.matching.rainbow_matching(graphs, k3),
                      rainbow_check))

    # disjoint-triangle numbers of random hosts
    for n_host in (10, 11, 12):
        edges = random_graph(rng, n_host)

        def nu_check(answer, n_host=n_host, edges=edges):
            nu, witness = answer
            label = f"nu(K3) random n={n_host}"
            sets = ck.copy_vertex_sets(3, K3, n_host, edges)
            ck.check_value(label, nu, ck.max_disjoint(sets))
            vs = [frozenset(e.vertices) for e in witness.entries]
            ck.expect(len(vs) == nu and all(v in sets for v in vs)
                      and len(frozenset().union(*vs)) == 3 * nu,
                      f"{label}: witness is not {nu} disjoint triangles")

        host = tk.Hypergraph(n_host, 2, edges)
        ops.append(Op(f"nu(K3) random n={n_host}",
                      lambda host=host: tk.matching.matching_number(k3, host),
                      nu_check))

    # the command line, with --json
    k3_file = write_hg(os.path.join(files, "k3.hg"), 3, 2, K3)
    edge_file = write_hg(os.path.join(files, "edge.hg"), 2, 2, EDGE)
    _, hosts = collections[1]
    host_files = [write_hg(os.path.join(files, f"host{i}.hg"), n, 2, h)
                  for i, h in enumerate(hosts)]

    def cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tk.cli.run(argv + ["--json"])
        return code, json.loads(out.getvalue())

    def cli_ex_check(answer):
        code, doc = answer
        ck.expect(code == 0, f"cli ex: exit {code}")
        ck.check_value("cli ex 3 disjoint edges n=9", doc["value"],
                       ck.erdos_gallai(9, 2))

    ops.append(Op("cli ex 3 disjoint edges n=9",
                  lambda: cli(["ex", "--n", "9", "--family", edge_file + ":3"]),
                  cli_ex_check))

    def cli_table_check(answer):
        code, doc = answer
        ck.expect(code == 0, f"cli table: exit {code}")
        ck.expect([row["n"] for row in doc["rows"]] == list(range(4, 10)),
                  "cli table: wrong rows")
        for row in doc["rows"]:
            ck.check_value(f"cli table 2 disjoint edges n={row['n']}",
                           row["value"], ck.erdos_gallai(row["n"], 1))

    ops.append(Op("cli table 2 disjoint edges n=4..9",
                  lambda: cli(["table", "--family", edge_file + ":2",
                               "--from", "4", "--to", "9"]),
                  cli_table_check))

    def cli_rainbow_check(answer):
        code, doc = answer
        witness = doc["witness"]
        ck.expect(code == (1 if witness is None else 0),
                  f"cli rainbow: exit {code}")
        sets = None if witness is None else [
            e["vertices"] for e in sorted(witness, key=lambda e: e["host"])]
        ck.check_rainbow_answer("cli rainbow", [(n, h) for h in hosts],
                                3, K3, sets)

    ops.append(Op("cli rainbow t=1",
                  lambda: cli(["rainbow", "--hosts", ",".join(host_files),
                               "--F", k3_file]),
                  cli_rainbow_check))

    # a node-limited bracket: 0 <= value <= ex(10, K3) <= upper
    bracket_dir = cold()

    def bracket_check(rec):
        ck.expect(0 <= rec.value <= ck.mantel(10) <= rec.upper,
                  f"bracket K3 n=10: [{rec.value}, {rec.upper}] is not a "
                  f"valid bracket of {ck.mantel(10)}")

    ops.append(Op("bracket K3 n=10 node_limit=1",
                  lambda: tk.solver.max_edges(10, no_k3, node_limit=1,
                                              cache_dir=bracket_dir),
                  bracket_check, known_fault=BRACKET_FAULT))
    return Workload(ops, caches=caches)


def replay(tk, seed: int, files: str) -> Workload:
    return Workload(table_questions(tk, fano_hi=9), passes=4)


def generate(tk, seed: int, files: str) -> Workload:
    cfg = lambda n, r: tk.solver.config_of(
        [(tk.Hypergraph(n, r, tuple(combinations(range(n), r))), 1)])
    k3_free = tk.solver.config_of([(tk.Hypergraph(3, 2, K3), 1)])

    def triangle_free_check(graphs):
        ck.check_class_count("triangle-free n=8", len(graphs), 410)
        for g in graphs:
            ck.expect(not ck.contains(3, K3, 8, g.edges),
                      f"triangle-free n=8: {g.edges} has a triangle")
        top = [g for g in graphs if len(g.edges) == ck.mantel(8)]
        ck.expect(len(top) == 1, f"triangle-free n=8: {len(top)} classes "
                  f"with {ck.mantel(8)} edges")

    def all_classes_check(label, n, r, want):
        def check(graphs):
            ck.check_class_count(label, len(graphs), want)
            ck.check_complement_symmetric(label, [len(g.edges) for g in graphs],
                                          comb(n, r))
        return check

    gen = tk.genfree
    no_k8, no_k7_3 = cfg(8, 2), cfg(7, 3)
    return Workload([
        Op("free_graphs n=8 forbid K3 (A006785)",
           lambda: list(gen.free_graphs(8, k3_free)), triangle_free_check),
        Op("free_graphs n=7 forbid K8 (A000088)",
           lambda: list(gen.free_graphs(7, no_k8)),
           all_classes_check("graphs n=7", 7, 2, 1044)),
        Op("free_graphs n=6 r=3 forbid K7^(3) (A000665)",
           lambda: list(gen.free_graphs(6, no_k7_3)),
           all_classes_check("3-graphs n=6", 6, 3, 2136)),
    ])


def density(tk, seed: int, files: str) -> Workload:
    rng = Random(seed)
    pat = lambda k, ms: tk.patterns.Pattern(k, len(ms[0]), ms)
    ops = []
    for l in range(2, 7):
        p = pat(l, kl_multisets(l))
        for n in (30, 60, 90, 120) if l == 6 else range(20, 121, 20):
            def check(got, l=l, n=n):
                label = f"lambda_n K{l} n={n}"
                ck.check_lambda(label, l, kl_multisets(l), n, got,
                                ck.turan_number(n, l))
                ck.check_balanced(label, got[1])
            ops.append(Op(f"lambda_n K{l} n={n}",
                          lambda p=p, n=n: tk.patterns.lambda_n(p, n), check))

    for label, (k, ms) in (("S3", S3), ("B4", B4)):
        p = pat(k, ms)
        for n in range(10, 201, 10):
            def check(got, label=label, n=n, ms=ms):
                want = max(ck.blowup_edges(ms, (a, n - a))
                           for a in range(n + 1))
                ck.check_lambda(f"lambda_n {label} n={n}", 2, ms, n, got, want)

            ops.append(Op(f"lambda_n {label} n={n}",
                          lambda p=p, n=n: tk.patterns.lambda_n(p, n), check))

    for i in range(6):
        k, r = (3, 2) if i < 2 else (4, 2) if i < 4 else (4, 3)
        ms = random_pattern(rng, k, r)
        p = pat(k, ms)
        for n in (8, 12, 16):
            def check(got, i=i, k=k, ms=ms, n=n):
                ck.check_lambda(f"lambda_n random #{i} n={n}", k, ms, n, got,
                                ck.brute_lambda(k, ms, n))

            ops.append(Op(f"lambda_n random #{i} n={n}",
                          lambda p=p, n=n: tk.patterns.lambda_n(p, n), check))

    targets = [("S3", S3, Fraction(4, 9)), ("B4", B4, Fraction(3, 8))]
    targets += [(f"K{l}", (l, kl_multisets(l)), Fraction(l - 1, l))
                for l in range(2, 7)]
    for label, (k, ms), want in targets:
        p = pat(k, ms)

        def check(est, label=label, want=want):
            ck.check_bracket(f"lagrangian {label}", est.lower, est.upper, want)

        ops.append(Op(f"lagrangian {label}",
                      lambda p=p: tk.patterns.lagrangian(p), check))

    for l in range(2, 6):
        p = pat(l, kl_multisets(l))

        def check(report, l=l):
            ck.expect(report.status == "minimal",
                      f"is_minimal K{l}: {report.status}")

        ops.append(Op(f"is_minimal K{l}",
                      lambda p=p: tk.patterns.is_minimal(p), check))
    return Workload(ops)


WORKLOADS = {"disjoint": disjoint, "replay": replay, "generate": generate,
             "density": density}
