"""Command-line front end.  Every subcommand reads .hg/.pat files, runs
one library operation, and prints either a human-readable summary or,
with --json, a stable JSON document.

Conventions: forbidden families are written `path.hg:count,path.hg:count`
with count defaulting to 1; rationals are written `p/q`; randomized
commands take an explicit `--seed`.  Exit codes: 0 success (including
passing checks), 1 negative decision results and hard check failures,
2 usage or input errors, 3 exceeded budgets or indeterminate results.

Environment: TURANKIT_CACHE (solver cache dir), TURANKIT_NODE_LIMIT
(solver search budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import patterns, verify, zoo
from .core import Hypergraph, are_isomorphic, canonical_form, dump_hg, dumps_hg, load_hg
from .errors import BudgetExceededError, IndeterminateBracketsError, TurankitError
from .matching import embed, matching_number, rainbow_matching
from .patterns import load_pat
from .solver import _check_range, config_of, enumerate_extremal, ex_table, max_edges
from .verify import BoundsParams, known_density, parse_growth


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _family_config(text: str):
    """`path.hg:count,path.hg:count` -> ForbiddenConfig (count default 1)."""
    families = []
    for item in text.split(","):
        path, sep, count = item.rpartition(":")
        if sep and count.isdigit():
            families.append((load_hg(path), int(count)))
        else:
            families.append((load_hg(item), 1))
    return config_of(families)


def _zoo_spec(name: str, tokens: list[str]) -> zoo.ZooSpec:
    params: dict = {}
    payload = None
    for tok in tokens:
        key, sep, value = tok.partition("=")
        if not sep:
            raise ValueError(f"zoo parameters look like key=value, got {tok!r}")
        if key == "payload":
            if value.endswith(".hg"):
                payload = load_hg(value)
            else:
                payload = [tuple(int(x) for x in pair.split("-"))
                           for pair in value.split(",")]
        else:
            params[key] = int(value)
    return zoo.ZooSpec(name, params, payload)


def _graph_doc(g: Hypergraph) -> dict:
    return {"n": g.n, "r": g.r, "edges": [list(e) for e in g.edges]}


def _emit_graph(g: Hypergraph, out, comment: str = "") -> tuple[int, dict, str]:
    if out:
        dump_hg(g, out, comment)
        text = f"wrote {out} (n={g.n} r={g.r} edges={g.edge_count})"
    else:
        text = dumps_hg(g, comment).rstrip("\n")
    return 0, _graph_doc(g), text


def _witness_doc(witness) -> list[dict]:
    return [{"host": e.host, "family": e.family, "vertices": list(e.vertices)}
            for e in witness.entries]


def _report_result(report) -> tuple[int, dict, str]:
    lines = [f"check {report.name}: {report.status} "
             f"({len(report.violations)} violations, {report.elapsed_ms} ms)"]
    for v in report.violations:
        lines.append(f"  {v.instance}: expected {v.expected}, got {v.actual}")
    return (1 if report.status == "fail" else 0), report.to_json(), "\n".join(lines)


def _estimate_doc(est) -> dict:
    return {"lower": str(est.lower), "upper": str(est.upper),
            "witness": [str(x) for x in est.witness], "N": est.N,
            "width": str(est.width())}


# ---------------------------------------------------------------- commands


def _cmd_zoo(args):
    g = zoo.construct(_zoo_spec(args.name, args.params))
    return _emit_graph(g, args.out, comment=args.name)


def _cmd_canon(args):
    form = canonical_form(load_hg(args.graph))
    if args.out:
        dump_hg(form.graph(), args.out)
    doc = {"n": form.n, "r": form.r, "hash": form.hash_hex,
           "permutation": list(form.permutation),
           "edges": [list(e) for e in form.edges]}
    text = (f"hash {form.hash_hex}\npermutation {list(form.permutation)}\n"
            + dumps_hg(form.graph()).rstrip("\n"))
    return 0, doc, text


def _cmd_iso(args):
    same = are_isomorphic(load_hg(args.a), load_hg(args.b))
    return (0 if same else 1), {"isomorphic": same}, \
        ("isomorphic" if same else "not isomorphic")


def _cmd_nu(args):
    value, witness = matching_number(load_hg(args.f), load_hg(args.h),
                                     cap=args.cap)
    doc = {"nu": value, "witness": _witness_doc(witness)}
    return 0, doc, f"nu = {value}"


def _cmd_embed(args):
    found = embed(load_hg(args.f), load_hg(args.h))
    if found is None:
        return 1, {"embedding": None}, "no embedding"
    doc = {"embedding": list(found.mapping)}
    return 0, doc, f"embedding {list(found.mapping)}"


def _cmd_blowup(args):
    g = patterns.blowup(load_pat(args.pattern), args.parts)
    return _emit_graph(g, args.out)


def _cmd_lambda_n(args):
    value, parts = patterns.lambda_n(load_pat(args.pattern), args.n)
    doc = {"value": value, "parts": list(parts)}
    return 0, doc, f"lambda = {value} at parts {list(parts)}"


def _cmd_lagrangian(args):
    est = patterns.lagrangian(load_pat(args.pattern), tol=args.tol,
                              N=args.N, rng_seed=args.seed)
    text = (f"lagrangian in [{est.lower}, {est.upper}] (width {est.width()})\n"
            f"witness {[str(x) for x in est.witness]}")
    return 0, _estimate_doc(est), text


def _cmd_minimal(args):
    report = patterns.is_minimal(load_pat(args.pattern), tol=args.tol,
                                 N=args.N, rng_seed=args.seed)
    if report.status == "indeterminate":
        raise IndeterminateBracketsError(
            "brackets overlap; retry with a larger --N")
    doc = {"status": report.status, "bracket": _estimate_doc(report.bracket),
           "parts": [{"part": c.part, "removed": _estimate_doc(c.removed),
                      "separated": c.separated, "dominates": c.dominates}
                     for c in report.parts]}
    lines = [f"status: {report.status}",
             f"bracket [{report.bracket.lower}, {report.bracket.upper}]"]
    for c in report.parts:
        verdict = "separated" if c.separated else (
            "dominates" if c.dominates else "overlaps")
        lines.append(f"  part {c.part} removed: "
                     f"[{c.removed.lower}, {c.removed.upper}] {verdict}")
    return (0 if report.status == "minimal" else 1), doc, "\n".join(lines)


def _cmd_subconstruction(args):
    assignment = patterns.is_subconstruction(load_hg(args.graph),
                                             load_pat(args.pattern))
    if assignment is None:
        return 1, {"assignment": None}, "not a subconstruction"
    return 0, {"assignment": list(assignment)}, \
        f"assignment {list(assignment)}"


def _cmd_ex(args):
    seed = load_hg(args.seed) if args.seed else None
    record = max_edges(args.n, _family_config(args.family), seed)
    doc = {"n": record.n, "r": record.r, "status": record.status,
           "value": record.value, "upper": record.upper,
           "nodes": record.nodes, "elapsed_ms": record.elapsed_ms,
           "config_hash": record.config_hash,
           "seeded_lower": record.seeded_lower}
    if record.status != "exact":
        return 3, doc, f"bounds: {record.value} <= ex <= {record.upper}"
    return 0, doc, str(record.value)


def _cmd_extremal(args):
    seed = load_hg(args.seed) if args.seed else None
    graphs = enumerate_extremal(args.n, _family_config(args.family), seed)
    doc = {"count": len(graphs), "graphs": [_graph_doc(g) for g in graphs]}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for i, g in enumerate(graphs):
            dump_hg(g, os.path.join(args.out, f"extremal_{i}.hg"))
        return 0, doc, f"wrote {len(graphs)} graphs to {args.out}"
    blocks = [dumps_hg(g).rstrip("\n") for g in graphs]
    return 0, doc, "\n\n".join([f"{len(graphs)} extremal classes"] + blocks)


def _cmd_table(args):
    table = ex_table(_family_config(args.family), args.lo, args.hi)
    rows = []
    lines = [f"{'n':>4} {'ex':>8} {'delta':>6} {'d':>10}"]
    for n in table.ns:
        delta = table.delta(n) if n > table.ns[0] else None
        rows.append({"n": n, "value": table.value(n), "delta": delta,
                     "d": str(table.d(n))})
        lines.append(f"{n:>4} {table.value(n):>8} "
                     f"{'-' if delta is None else delta:>6} "
                     f"{str(table.d(n)):>10}")
    return 0, {"rows": rows}, "\n".join(lines)


def _cmd_rainbow(args):
    hosts = [load_hg(p) for p in args.hosts.split(",")]
    witness = rainbow_matching(hosts, load_hg(args.f))
    if witness is None:
        return 1, {"witness": None}, "no rainbow matching"
    return 0, {"witness": _witness_doc(witness)}, \
        "\n".join(f"host {e.host}: vertices {list(e.vertices)}"
                  for e in witness.entries)


# ---------------------------------------------------------------- verify


def _cmd_verify_smoothness(args):
    g = parse_growth(args.g)  # refused before the table is solved
    table = ex_table(_family_config(args.family), args.lo, args.hi)
    return _report_result(verify.check_smoothness(table, g))


def _cmd_verify_boundedness(args):
    params = BoundsParams(f1=parse_growth(args.f1), f2=parse_growth(args.f2))
    return _report_result(verify.check_boundedness(
        load_hg(args.f), args.n, params, mode=args.mode))


def _cmd_verify_main_theorem(args):
    return _report_result(verify.check_main_theorem(
        load_hg(args.f), args.n, args.t))


def _cmd_verify_remark_2k3(args):
    return _report_result(verify.check_remark_2k3(args.n, args.t))


def _cmd_verify_lemmas(args):
    specs = []
    for spec_text in args.table or ():
        path, lo, hi = spec_text.rsplit(":", 2)
        specs.append((_family_config(path), int(lo), int(hi)))
    # every range is refused before the first table is solved, and the
    # tables are solved lazily: `check_lemmas` validates n_max before it
    # reads one
    for _, lo, hi in specs:
        _check_range(lo, hi)
    tables = (ex_table(*spec) for spec in specs)
    return _report_result(verify.check_lemmas(args.n_max, tables=tables))


def _cmd_verify_facts(args):
    p = load_pat(args.pattern) if args.pattern else None
    return _report_result(verify.check_facts(load_hg(args.f), p, args.n))


def _cmd_verify_matching(args):
    return _report_result(verify.check_matching_theorems(args.n, args.t,
                                                         args.r))


def _cmd_verify_rainbow(args):
    if args.trials > 0 and args.seed is None:
        raise ValueError("--seed is required when --trials > 0")
    return _report_result(verify.check_rainbow(
        load_hg(args.f), args.n, args.t, args.trials, args.seed or 0))


def _cmd_verify_trim(args):
    host = load_hg(args.graph)
    if args.pi_hat is not None:
        pi_hat = args.pi_hat
    elif args.pi_hat_of is None:
        raise ValueError("give --pi-hat or --pi-hat-of")
    else:
        pi_hat = known_density(load_hg(args.pi_hat_of))
        if pi_hat is None:
            raise ValueError("no built-in density for that graph; "
                             "pass --pi-hat explicitly")
    z, trimmed, report = verify.trim_low_degree(host, args.eps, pi_hat)
    if args.out:
        dump_hg(trimmed, args.out)
    code, doc, text = _report_result(report)
    doc["trimmed_vertices"] = list(z)
    doc["trimmed_graph"] = _graph_doc(trimmed)
    return code, doc, f"trimmed {list(z)} leaving n={trimmed.n}\n{text}"


# -------------------------------------------------------------------- job


_JOB_KEY_RE = re.compile(r"^[a-z][a-z0-9_-]*$")


def _job_argv(doc: dict, index: int) -> list[str]:
    """Translate one job document into an argv for the main parser."""
    where = f"job {index}"
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: each job must be an object")
    command = doc.get("command")
    if not isinstance(command, str) or not command:
        raise ValueError(f"{where}: missing command")
    if command == "job":
        raise ValueError(f"{where}: jobs cannot nest")
    argv = [command]
    for a in doc.get("args", []):
        argv.append(str(a))
    for key, value in doc.items():
        if key in ("command", "args"):
            continue
        if key == "json" or not _JOB_KEY_RE.match(key):
            raise ValueError(f"{where}: unknown field {key!r}")
        flag = ("-o" if key in ("o", "out", "output")
                else "--" + key.replace("_", "-"))
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (int, str)):
            argv.extend([flag, str(value)])
        elif isinstance(value, list):
            argv.extend([flag, ",".join(str(x) for x in value)])
        else:
            raise ValueError(f"{where}: unsupported value for {key!r}")
    return argv


def _cmd_job(args):
    with open(args.file, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    jobs = doc["jobs"] if isinstance(doc, dict) and "jobs" in doc else [doc]
    if isinstance(doc, dict) and "jobs" in doc and set(doc) != {"jobs"}:
        extra = sorted(set(doc) - {"jobs"})
        raise ValueError(f"batch files carry only 'jobs'; found {extra}")
    if not isinstance(jobs, list):
        raise ValueError(f"'jobs' must be a list, not {type(jobs).__name__}")
    parser = _build_parser()
    parsed = []
    for i, job in enumerate(jobs):
        argv = _job_argv(job, i)
        try:
            parsed.append(parser.parse_args(argv))
        except SystemExit:
            raise ValueError(f"job {i}: invalid arguments {argv}") from None
    worst = 0
    results = []
    texts = []
    for i, ns in enumerate(parsed):
        code, inner_doc, text = ns.handler(ns)
        worst = max(worst, code)
        results.append({"command": jobs[i]["command"], "exit": code,
                        "result": inner_doc})
        texts.append(f"[{i}] {jobs[i]['command']} -> exit {code}\n{text}")
    return worst, {"jobs": results}, "\n\n".join(texts)


# ----------------------------------------------------------------- parser


# built on the first `run`, not at import, and reused: parse_args leaves
# the parser unchanged and gives each call a fresh namespace
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turankit",
        description="exact small-scale computations for hypergraph "
                    "Turán-type problems")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_json(p, handler):
        p.add_argument("--json", action="store_true",
                       help="print a JSON document instead of text")
        p.set_defaults(handler=handler)
        return p

    p = with_json(sub.add_parser("zoo", help="build a named construction"),
                  _cmd_zoo)
    p.add_argument("name")
    p.add_argument("params", nargs="*", help="key=value parameters")
    p.add_argument("-o", "--output", dest="out")

    p = with_json(sub.add_parser("canon", help="canonical form of a graph"),
                  _cmd_canon)
    p.add_argument("graph")
    p.add_argument("-o", "--output", dest="out")

    p = with_json(sub.add_parser("iso", help="isomorphism decision"), _cmd_iso)
    p.add_argument("a")
    p.add_argument("b")

    p = with_json(sub.add_parser("nu", help="disjoint-copy number of F in H"),
                  _cmd_nu)
    p.add_argument("f")
    p.add_argument("h")
    p.add_argument("--cap", type=int)

    p = with_json(sub.add_parser("embed", help="find one copy of F in H"),
                  _cmd_embed)
    p.add_argument("f")
    p.add_argument("h")

    p = with_json(sub.add_parser("blowup", help="blow a pattern up"),
                  _cmd_blowup)
    p.add_argument("pattern")
    p.add_argument("--parts", type=_ints, required=True)
    p.add_argument("-o", "--output", dest="out")

    p = with_json(sub.add_parser(
        "lambda-n", help="exact best blowup size at n"), _cmd_lambda_n)
    p.add_argument("pattern")
    p.add_argument("--n", type=int, required=True)

    p = with_json(sub.add_parser(
        "lagrangian", help="bracket the density limit"), _cmd_lagrangian)
    p.add_argument("pattern")
    p.add_argument("--tol", type=_fraction, default=Fraction(1, 10 ** 9))
    p.add_argument("--N", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)

    p = with_json(sub.add_parser(
        "minimal", help="certify no part is redundant"), _cmd_minimal)
    p.add_argument("pattern")
    p.add_argument("--tol", type=_fraction, default=Fraction(1, 10 ** 9))
    p.add_argument("--N", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)

    p = with_json(sub.add_parser("subconstruction",
                                 help="map a graph into a pattern"),
                  _cmd_subconstruction)
    p.add_argument("graph")
    p.add_argument("pattern")

    def solver_flags(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--family", required=True,
                       help="path.hg:count,path.hg:count")
        p.add_argument("--seed", help="seed graph file (.hg)")
        return p

    p = with_json(solver_flags(sub.add_parser(
        "ex", help="exact maximum edge count")), _cmd_ex)
    p = with_json(solver_flags(sub.add_parser(
        "extremal", help="enumerate extremal graphs")), _cmd_extremal)
    p.add_argument("-o", "--output", dest="out", help="directory for .hg files")

    p = with_json(sub.add_parser("table", help="solve a range of n"),
                  _cmd_table)
    p.add_argument("--family", required=True)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)

    p = with_json(sub.add_parser(
        "rainbow", help="rainbow matching across hosts"), _cmd_rainbow)
    p.add_argument("--hosts", required=True, help="a.hg,b.hg,...")
    p.add_argument("--F", dest="f", required=True)

    v = sub.add_parser("verify", help="run one structured check")
    vsub = v.add_subparsers(dest="check", required=True)

    p = with_json(vsub.add_parser("smoothness"), _cmd_verify_smoothness)
    p.add_argument("--family", required=True)
    p.add_argument("--from", dest="lo", type=int, required=True)
    p.add_argument("--to", dest="hi", type=int, required=True)
    p.add_argument("--g", required=True, help='e.g. "4*C(n-1,r-2)"')

    p = with_json(vsub.add_parser("boundedness"), _cmd_verify_boundedness)
    p.add_argument("--F", dest="f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=("extremal-only", "enumerate"),
                   default="extremal-only")
    p.add_argument("--f1", default="0")
    p.add_argument("--f2", default="0")

    p = with_json(vsub.add_parser("main-theorem"), _cmd_verify_main_theorem)
    p.add_argument("--F", dest="f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = with_json(vsub.add_parser("remark-2k3"), _cmd_verify_remark_2k3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = with_json(vsub.add_parser("lemmas"), _cmd_verify_lemmas)
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--table", action="append", help="path.hg:from:to")

    p = with_json(vsub.add_parser("facts"), _cmd_verify_facts)
    p.add_argument("--F", dest="f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pattern")

    p = with_json(vsub.add_parser("matching"), _cmd_verify_matching)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = with_json(vsub.add_parser("rainbow"), _cmd_verify_rainbow)
    p.add_argument("--F", dest="f", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--seed", type=int)

    p = with_json(vsub.add_parser("trim"), _cmd_verify_trim)
    p.add_argument("--H", dest="graph", required=True)
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--pi-hat", dest="pi_hat", type=_fraction)
    p.add_argument("--pi-hat-of", dest="pi_hat_of",
                   help="look the density up for this graph (.hg)")
    p.add_argument("-o", "--output", dest="out",
                   help="write the trimmed graph here")

    p = with_json(sub.add_parser("job", help="run a JSON job file"),
                  _cmd_job)
    p.add_argument("file")

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:  # argparse prints its own message
        return int(stop.code or 0)
    try:
        code, doc, text = args.handler(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except IndeterminateBracketsError as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return 3
    except (TurankitError, ValueError, OSError, json.JSONDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=2) if args.json else text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
