"""CLI surface: every subcommand end to end through run(), exit-code
contract, JSON stability, the job-file schema, and env handling."""

import json
import os
import random
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import turankit
from turankit.cli import run
from turankit.core import (Hypergraph, are_isomorphic, canonical_form, complete,
                           dump_hg, join, loads_hg)
from turankit.patterns import Pattern, dump_pat
from turankit.zoo import fano, tree_expansion, turan

MANTEL = Pattern(2, 2, ((1, 2),))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    paths = {}

    def put(name, g):
        paths[name] = str(base / name)
        dump_hg(g, paths[name])

    put("k2.hg", complete(2, 2))
    put("k3.hg", complete(3, 2))
    put("k4.hg", complete(4, 2))
    put("t62.hg", turan(6, 2, 2))
    put("fano_a.hg", fano())
    perm = (3, 0, 6, 2, 5, 1, 4)
    put("fano_b.hg", Hypergraph(
        7, 3, tuple(sorted(tuple(sorted(perm[v] for v in e))
                           for e in fano().edges))))
    put("star.hg", Hypergraph(8, 2, tuple((0, v) for v in range(1, 8))))
    paths["mantel.pat"] = str(base / "mantel.pat")
    dump_pat(MANTEL, paths["mantel.pat"])
    paths["inner.pat"] = str(base / "inner.pat")
    dump_pat(Pattern(2, 2, ((1, 1),)), paths["inner.pat"])
    paths["base"] = str(base)
    return paths


def invoke(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ constructions


def test_zoo_roundtrip(files, capsys, tmp_path):
    out = str(tmp_path / "t82.hg")
    code, text, _ = invoke(["zoo", "turan", "n=8", "l=2", "r=2", "-o", out],
                           capsys)
    assert code == 0 and out in text
    from turankit.core import load_hg
    assert load_hg(out) == turan(8, 2, 2)


def test_zoo_stdout_parses_back(files, capsys):
    code, text, _ = invoke(["zoo", "fano"], capsys)
    assert code == 0
    assert loads_hg(text) == fano()


def test_zoo_payload_tree(files, capsys):
    code, text, _ = invoke(
        ["zoo", "tree_expansion", "r=3", "payload=0-1,1-2", "--json"], capsys)
    assert code == 0
    doc = json.loads(text)
    got = Hypergraph(doc["n"], doc["r"],
                     tuple(tuple(e) for e in doc["edges"]))
    assert got == tree_expansion([(0, 1), (1, 2)], 3)


def test_zoo_bad_name_and_params(files, capsys):
    assert invoke(["zoo", "nonesuch"], capsys)[0] == 2
    assert invoke(["zoo", "turan", "n=8"], capsys)[0] == 2
    assert invoke(["zoo", "turan", "8"], capsys)[0] == 2


def test_zoo_refuses_untaken_params(files, capsys):
    code, text, err = invoke(["zoo", "fano", "n=5"], capsys)
    assert code == 2 and not text and "fano does not take: n" in err
    code, _, err = invoke(["zoo", "turan", "n=5", "l=2", "r=2", "m=3",
                           "payload=0-1"], capsys)
    assert code == 2 and "turan does not take: m, payload" in err


def test_canon_matches_library(files, capsys):
    code, text, _ = invoke(["canon", files["fano_a.hg"], "--json"], capsys)
    assert code == 0
    doc = json.loads(text)
    form = canonical_form(fano())
    assert doc["hash"] == form.hash_hex
    assert [tuple(e) for e in doc["edges"]] == list(form.edges)


def test_canon_identifies_relabelings(files, capsys):
    _, a, _ = invoke(["canon", files["fano_a.hg"], "--json"], capsys)
    _, b, _ = invoke(["canon", files["fano_b.hg"], "--json"], capsys)
    assert json.loads(a)["hash"] == json.loads(b)["hash"]
    assert json.loads(a)["edges"] == json.loads(b)["edges"]


def test_iso_exit_codes(files, capsys):
    code, text, _ = invoke(["iso", files["fano_a.hg"], files["fano_b.hg"]],
                           capsys)
    assert code == 0 and text.strip() == "isomorphic"
    code, text, _ = invoke(["iso", files["k3.hg"], files["k4.hg"]], capsys)
    assert code == 1 and text.strip() == "not isomorphic"


def test_iso_on_a_random_twelve_vertex_pair(capsys, tmp_path):
    # G(12, 1/2) with 32 edges and a relabeling: `iso` compares the
    # refinement certificates, not the lex-min forms (test_canon times
    # those on this pair)
    rng = random.Random(5)
    g = Hypergraph(12, 2, tuple(e for e in combinations(range(12), 2)
                                if rng.random() < 0.5))
    perm = list(range(12))
    rng.shuffle(perm)
    h = g.relabeled(perm)
    assert g.edge_count == 32 and h != g
    assert are_isomorphic(g, h)
    dump_hg(g, tmp_path / "a.hg")
    dump_hg(h, tmp_path / "b.hg")
    t0 = time.perf_counter()
    code, text, _ = invoke(["iso", str(tmp_path / "a.hg"),
                            str(tmp_path / "b.hg")], capsys)
    assert code == 0 and text.strip() == "isomorphic"
    assert time.perf_counter() - t0 < 1.0


def test_nu_and_cap(files, capsys):
    code, text, _ = invoke(["nu", files["k2.hg"], files["t62.hg"]], capsys)
    assert code == 0 and text.strip() == "nu = 3"
    code, text, _ = invoke(
        ["nu", files["k2.hg"], files["t62.hg"], "--cap", "2", "--json"],
        capsys)
    doc = json.loads(text)
    assert doc["nu"] == 2 and len(doc["witness"]) == 2
    # nu(K3, K3) = 1, so a negative cap has no answer to stop at
    code, text, err = invoke(
        ["nu", files["k3.hg"], files["k3.hg"], "--cap", "-1"], capsys)
    assert code == 2 and text == "" and "cap" in err


def test_embed_decision(files, capsys):
    code, text, _ = invoke(["embed", files["k3.hg"], files["k4.hg"]], capsys)
    assert code == 0 and text.startswith("embedding")
    code, text, _ = invoke(["embed", files["k3.hg"], files["t62.hg"]], capsys)
    assert code == 1 and "no embedding" in text


# ---------------------------------------------------------------- patterns


def test_blowup_command(files, capsys):
    code, text, _ = invoke(
        ["blowup", files["mantel.pat"], "--parts", "3,3", "--json"], capsys)
    assert code == 0
    assert len(json.loads(text)["edges"]) == 9


def test_lambda_n_command(files, capsys):
    code, text, _ = invoke(
        ["lambda-n", files["mantel.pat"], "--n", "7", "--json"], capsys)
    doc = json.loads(text)
    assert code == 0 and doc["value"] == 12 and doc["parts"] == [4, 3]


def test_lambda_n_refuses_boolean_fields(capsys, tmp_path):
    # JSON true reads as 1 in Python; the .pat format wants integers
    for name, text in (("k.pat", '{"k": true, "r": 2, "multisets": [[1, 1]]}'),
                       ("y.pat", '{"k": 2, "r": 2, "multisets": [[true, 2]]}')):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = invoke(["lambda-n", str(path), "--n", "4"], capsys)
        assert code == 2 and out == "" and "must be integers" in err


def test_lagrangian_command(files, capsys):
    code, text, _ = invoke(
        ["lagrangian", files["mantel.pat"], "--json"], capsys)
    doc = json.loads(text)
    assert code == 0 and doc["lower"] == "1/2"
    assert doc["witness"] == ["1/2", "1/2"]


def test_minimal_exit_codes(files, capsys):
    assert invoke(["minimal", files["mantel.pat"]], capsys)[0] == 0
    code, text, _ = invoke(["minimal", files["inner.pat"], "--json"], capsys)
    assert code == 1
    assert json.loads(text)["status"] == "not_minimal"


def test_subconstruction_decision(files, capsys):
    code, text, _ = invoke(
        ["subconstruction", files["t62.hg"], files["mantel.pat"], "--json"],
        capsys)
    assert code == 0 and json.loads(text)["assignment"]
    code, _, _ = invoke(
        ["subconstruction", files["k4.hg"], files["mantel.pat"]], capsys)
    assert code == 1


# ------------------------------------------------------------------ solver


def test_ex_prints_value(files, capsys):
    code, text, _ = invoke(
        ["ex", "--n", "5", "--family", files["k3.hg"] + ":1"], capsys)
    assert code == 0 and text.strip() == "6"


def test_ex_json_record(files, capsys):
    code, text, _ = invoke(
        ["ex", "--n", "5", "--family", files["k3.hg"] + ":1", "--json"],
        capsys)
    doc = json.loads(text)
    assert code == 0
    assert doc["value"] == 6 and doc["status"] == "exact"
    assert doc["value"] <= doc["upper"]


def test_warm_cache_skips_search(files, capsys, monkeypatch):
    invoke(["ex", "--n", "6", "--family", files["k3.hg"] + ":1"], capsys)
    # a fresh search could do nothing under this budget; only the cache
    # can still answer exactly
    monkeypatch.setenv("TURANKIT_NODE_LIMIT", "1")
    code, text, _ = invoke(
        ["ex", "--n", "6", "--family", files["k3.hg"] + ":1"], capsys)
    assert code == 0 and text.strip() == "9"


@pytest.mark.parametrize("data", [b"\xff\xfe", b"[" * 100_000],
                         ids=["not-utf8", "too-deep"])
def test_undecodable_cache_record_is_solved_again(files, capsys, monkeypatch,
                                                  tmp_path, data):
    # a record that is not UTF-8 exited 2 as an input error, and one nested
    # past the JSON parser's depth exited 1 with a traceback
    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    argv = ["ex", "--n", "6", "--family", files["k3.hg"] + ":1"]
    assert invoke(argv, capsys)[:2] == (0, "9\n")
    for record in tmp_path.iterdir():
        record.write_bytes(data)
    assert invoke(argv, capsys) == (0, "9\n", "")


def test_node_limit_gives_bounds_exit(files, capsys, monkeypatch, tmp_path):
    # fresh cache: a warm one would answer exactly despite the tiny budget
    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    monkeypatch.setenv("TURANKIT_NODE_LIMIT", "1")
    code, text, _ = invoke(
        ["ex", "--n", "7", "--family", files["k4.hg"] + ":1"], capsys)
    assert code == 3
    assert text.startswith("bounds:")
    # verify never passes on a bracket, even one whose lower end (the
    # seed's count) equals the formula
    code, text, err = invoke(
        ["verify", "matching", "--n", "9", "--t", "2", "--r", "2"], capsys)
    assert code == 3 and text == ""
    assert err.startswith("budget exceeded:")


@pytest.mark.parametrize("bad", ["-2", "0", "abc"])
def test_bad_node_limit_is_a_usage_error(files, capsys, monkeypatch, tmp_path,
                                         bad):
    # a budget below one node used to print a bracket around 0 and 15
    monkeypatch.setenv("TURANKIT_CACHE", str(tmp_path))
    monkeypatch.setenv("TURANKIT_NODE_LIMIT", bad)
    code, text, err = invoke(["ex", "--n", "6", "--family",
                              files["k3.hg"] + ":1", "--json"], capsys)
    assert code == 2 and text == ""
    assert err.startswith("error: TURANKIT_NODE_LIMIT must be an integer")


def test_relabeled_families_merge(capsys, tmp_path):
    # two labelings of the path on three vertices are one family
    a, b = str(tmp_path / "p3a.hg"), str(tmp_path / "p3b.hg")
    dump_hg(Hypergraph(3, 2, ((0, 1), (1, 2))), a)
    dump_hg(Hypergraph(3, 2, ((0, 1), (0, 2))), b)
    docs = []
    for family in (f"{a}:1,{b}:1", f"{a}:2"):
        code, text, _ = invoke(["ex", "--n", "6", "--family", family,
                                "--json"], capsys)
        assert code == 0
        docs.append(json.loads(text))
    assert docs[0] == docs[1]
    assert docs[0]["value"] == 10  # K5 plus an isolated vertex


def test_size_budget_exit(capsys, tmp_path):
    # C(200, 5) five-sets: refused before any table is built
    path = str(tmp_path / "edge5.hg")
    dump_hg(Hypergraph(5, 5, ((0, 1, 2, 3, 4),)), path)
    code, _, err = invoke(["ex", "--n", "200", "--family", path + ":1"],
                          capsys)
    assert code == 3 and "budget" in err


def test_extremal_writes_files(files, capsys, tmp_path):
    out = str(tmp_path / "ex5")
    code, _, _ = invoke(
        ["extremal", "--n", "5", "--family", files["k3.hg"] + ":1",
         "-o", out], capsys)
    assert code == 0
    from turankit.core import are_isomorphic, load_hg
    assert are_isomorphic(load_hg(out + "/extremal_0.hg"), turan(5, 2, 2))


def test_table_rows(files, capsys):
    code, text, _ = invoke(
        ["table", "--family", files["k3.hg"] + ":1",
         "--from", "3", "--to", "6", "--json"], capsys)
    doc = json.loads(text)
    assert code == 0
    assert [row["value"] for row in doc["rows"]] == [2, 4, 6, 9]
    assert [row["delta"] for row in doc["rows"]] == [None, 2, 2, 3]
    assert doc["rows"][3]["d"] == "3"


def test_zero_vertex_ranges_exit_2(files, capsys):
    family = files["k3.hg"] + ":1"
    for argv in (
            ["table", "--family", family, "--from", "0", "--to", "3"],
            ["verify", "smoothness", "--family", family, "--from", "0",
             "--to", "3", "--g", "0"],
            ["verify", "lemmas", "--n-max", "3",
             "--table", files["k3.hg"] + ":0:1"],
            ["verify", "boundedness", "--F", files["k3.hg"], "--n", "0"],
            ["verify", "facts", "--F", files["k3.hg"], "--n", "0"],
            ["verify", "facts", "--F", files["k3.hg"], "--n", "0",
             "--pattern", files["mantel.pat"]]):
        code, _, err = invoke(argv, capsys)
        assert code == 2 and err.startswith("error:"), argv


def test_rainbow_command(files, capsys):
    code, text, _ = invoke(
        ["rainbow", "--hosts", ",".join([files["k4.hg"]] * 2),
         "--F", files["k2.hg"], "--json"], capsys)
    assert code == 0 and len(json.loads(text)["witness"]) == 2
    code, text, _ = invoke(
        ["rainbow", "--hosts", ",".join([files["k3.hg"]] * 2),
         "--F", files["k2.hg"]], capsys)
    assert code == 1 and "no rainbow" in text


# ------------------------------------------------------------------ verify


def test_verify_remark(files, capsys):
    code, text, _ = invoke(["verify", "remark-2k3", "--n", "30", "--t", "2"],
                           capsys)
    assert code == 0 and "pass" in text
    assert invoke(["verify", "remark-2k3", "--n", "17", "--t", "2"],
                  capsys)[0] == 2


def test_verify_refuses_negative_parameters(capsys):
    for argv in (["verify", "remark-2k3", "--n", "6", "--t", "-1"],
                 ["verify", "lemmas", "--n-max", "-5"]):
        code, text, err = invoke(argv, capsys)
        assert code == 2 and text == "" and err.startswith("error:"), argv


@pytest.mark.parametrize("argv", [
    ["verify", "lemmas", "--n-max", "-5", "--table", "k3.hg:3:8"],
    ["verify", "lemmas", "--n-max", "5", "--table", "k3.hg:3:8",
     "--table", "k3.hg:3:x"],
    ["verify", "smoothness", "--family", "k3.hg:1", "--from", "3",
     "--to", "9", "--g", "nonsense"],
    ["verify", "rainbow", "--F", "k3.hg", "--n", "6", "--t", "1",
     "--trials", "-3"],
    ["verify", "lemmas", "--n-max", "5", "--table", "k3.hg:3:8",
     "--table", "k3.hg:8:3"],
    ["verify", "lemmas", "--n-max", "5", "--table", "k3.hg:3:8",
     "--table", "k3.hg:0:3"],
], ids=["lemmas", "lemmas-spec", "smoothness", "rainbow",
        "lemmas-later-empty-range", "lemmas-later-range-from-0"])
def test_refused_verify_solves_nothing(argv, files, capsys, monkeypatch,
                                       tmp_path):
    # a parameter the check refuses is refused before any solve, so the
    # cache holds no record afterwards
    cache = tmp_path / "cache"
    monkeypatch.setenv("TURANKIT_CACHE", str(cache))
    argv = [x.replace("k3.hg", files["k3.hg"]) for x in argv]
    code, text, err = invoke(argv, capsys)
    assert code == 2 and text == "" and err.startswith("error:")
    assert not cache.exists() or not any(cache.iterdir())


def test_parser_is_built_once_and_keeps_no_state(files, capsys):
    # one parser serves every `run` of the process; a refused `--table`
    # (an append action) must not reach the next call's namespace
    import turankit.cli as cli
    parser = cli._build_parser()
    bad = ["verify", "lemmas", "--n-max", "5", "--table",
           files["k3.hg"] + ":8:3"]
    for _ in range(2):
        assert invoke(bad, capsys)[0] == 2
        code, text, _ = invoke(["verify", "lemmas", "--n-max", "4", "--json"],
                               capsys)
        assert code == 0 and json.loads(text)["params"]["tables"] == "0"
    assert cli._build_parser() is parser


def test_parser_is_not_built_at_import():
    # a process that imports the CLI without running it builds no parser
    src_dir = str(Path(turankit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import turankit.cli as cli; "
         "print(cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


_DIGESTS = """
import json, os, sys
import turankit, turankit.cli
from turankit.core import canonical_form, complete
from turankit.solver import config_of, max_edges
k3 = complete(3, 2)
record = max_edges(6, config_of([(k3, 1)]), cache_dir=sys.argv[1])
print(json.dumps({
    "value": record.value, "config": record.config_hash,
    "hash": canonical_form(k3).hash_hex, "files": os.listdir(sys.argv[1]),
    "loaded": sorted({"hashlib", "_hashlib"} & set(sys.modules))}))
"""


def test_the_package_loads_no_openssl(tmp_path):
    # pytest and hypothesis import hashlib themselves, so a child checks;
    # the digests are the ones every earlier cache was written with
    src_dir = str(Path(turankit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _DIGESTS, str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "value": 9, "config": "76e19f39f13b48fa", "hash": "b259dc178b9b6ae8",
        "files": ["28557e6b4ad88f90.json"], "loaded": []}


def test_verify_smoothness_pass_and_fail(files, capsys):
    base = ["verify", "smoothness", "--family", files["k3.hg"] + ":1",
            "--from", "3", "--to", "8"]
    assert invoke(base + ["--g", "4*C(n-1,r-2)"], capsys)[0] == 0
    code, text, _ = invoke(base + ["--g", "0", "--json"], capsys)
    assert code == 1
    assert json.loads(text)["status"] == "fail"


def test_verify_boundedness_budget(files, capsys):
    code, _, err = invoke(
        ["verify", "boundedness", "--F", files["k3.hg"], "--n", "9",
         "--mode", "enumerate"], capsys)
    assert code == 3 and "budget" in err


def test_verify_facts(files, capsys):
    code, text, _ = invoke(
        ["verify", "facts", "--F", files["k3.hg"], "--n", "6",
         "--pattern", files["mantel.pat"]], capsys)
    assert code == 0 and "pass" in text


def test_verify_matching(files, capsys):
    code, _, _ = invoke(
        ["verify", "matching", "--n", "7", "--t", "2", "--r", "2"], capsys)
    assert code == 0


def test_verify_main_theorem_past_sixteen_vertices(files, capsys):
    # part (iii) packs copies of F in hosts of 17 vertices: the copy
    # budget bounds it, not the host size
    code, text, _ = invoke(["verify", "main-theorem", "--F", files["k2.hg"],
                            "--n", "17", "--t", "1"], capsys)
    assert code == 0 and "pass" in text


def test_nu_over_the_copy_budget(files, capsys, tmp_path):
    # K16 holds 52 416 five-cycles, a copy table `ex` refuses as well
    c5, k16 = str(tmp_path / "c5.hg"), str(tmp_path / "k16.hg")
    dump_hg(Hypergraph(5, 2, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))), c5)
    dump_hg(complete(16, 2), k16)
    code, text, err = invoke(["nu", c5, k16], capsys)
    assert code == 3 and text == "" and "copies" in err


def test_verify_rainbow_seed_contract(files, capsys):
    argv = ["verify", "rainbow", "--F", files["k3.hg"], "--n", "7",
            "--t", "0", "--trials", "3"]
    assert invoke(argv, capsys)[0] == 2  # randomized without --seed
    assert invoke(argv + ["--seed", "5"], capsys)[0] == 0


def test_verify_trim(files, capsys, tmp_path):
    out = str(tmp_path / "trimmed.hg")
    code, text, _ = invoke(
        ["verify", "trim", "--H", files["star.hg"], "--eps", "1/100",
         "--pi-hat", "1/2", "-o", out], capsys)
    assert code == 0  # observational findings do not fail the command
    assert "observational" in text
    from turankit.core import load_hg
    assert load_hg(out).n == 1


def test_verify_trim_density_lookup(files, capsys):
    ok = invoke(["verify", "trim", "--H", files["star.hg"], "--eps", "1/100",
                 "--pi-hat-of", files["k3.hg"], "--json"], capsys)
    explicit = invoke(["verify", "trim", "--H", files["star.hg"], "--eps",
                       "1/100", "--pi-hat", "1/2", "--json"], capsys)
    a, b = json.loads(ok[1]), json.loads(explicit[1])
    assert ok[0] == explicit[0] == 0
    assert a["trimmed_vertices"] == b["trimmed_vertices"]
    assert invoke(["verify", "trim", "--H", files["star.hg"], "--eps",
                   "1/100", "--pi-hat-of", files["star.hg"]], capsys)[0] == 2
    assert invoke(["verify", "trim", "--H", files["star.hg"],
                   "--eps", "1/100"], capsys)[0] == 2


def test_verify_report_json_schema(files, capsys):
    code, text, _ = invoke(
        ["verify", "remark-2k3", "--n", "30", "--t", "2", "--json"], capsys)
    doc = json.loads(text)
    assert set(doc) == {"name", "params", "status", "violations",
                       "elapsed_ms"}
    assert doc["status"] == "pass"


# --------------------------------------------------------------- job files


def test_job_single(files, capsys, tmp_path):
    job = tmp_path / "job.json"
    job.write_text(json.dumps(
        {"command": "ex", "n": 5, "family": files["k3.hg"] + ":1"}))
    code, text, _ = invoke(["job", str(job)], capsys)
    assert code == 0 and "exit 0" in text and "6" in text


def test_job_batch_collects_worst_exit(files, capsys, tmp_path):
    job = tmp_path / "batch.json"
    job.write_text(json.dumps({"jobs": [
        {"command": "ex", "n": 5, "family": files["k3.hg"] + ":1"},
        {"command": "iso", "args": [files["k3.hg"], files["k4.hg"]]},
    ]}))
    code, text, _ = invoke(["job", str(job), "--json"], capsys)
    assert code == 1
    doc = json.loads(text)
    assert [j["exit"] for j in doc["jobs"]] == [0, 1]
    assert doc["jobs"][0]["result"]["value"] == 6


def test_job_runs_verify_checks(files, capsys, tmp_path):
    job = tmp_path / "v.json"
    job.write_text(json.dumps(
        {"command": "verify", "args": ["remark-2k3"], "n": 30, "t": 2}))
    code, text, _ = invoke(["job", str(job)], capsys)
    assert code == 0 and "pass" in text


def test_job_rejects_bad_schemas(files, capsys, tmp_path):
    cases = [
        {"command": "ex", "n": 5, "family": files["k3.hg"] + ":1",
         "bogus": 3},                                   # unknown field
        {"command": "ex", "n": 5, "family": files["k3.hg"] + ":1",
         "json": True},                                 # output control
        {"command": "job", "file": "x.json"},           # nesting
        {"n": 5},                                       # no command
        {"jobs": [{"command": "ex"}], "extra": 1},      # stray batch field
        [1, 2, 3],                                      # not an object
        {"jobs": 3},                                    # jobs not a list
    ]
    for i, doc in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(["job", str(path)], capsys)
        assert code == 2, f"case {i} gave {code}"
        assert err


def test_job_validates_all_before_running_any(files, capsys, tmp_path):
    out = tmp_path / "should_not_exist.hg"
    job = tmp_path / "batch.json"
    job.write_text(json.dumps({"jobs": [
        {"command": "zoo", "args": ["turan", "n=6", "l=2", "r=2"],
         "output": str(out)},
        {"command": "ex", "wrong_flag": 1},
    ]}))
    code, _, _ = invoke(["job", str(job)], capsys)
    assert code == 2
    assert not out.exists()


# ------------------------------------------------------------------- misc


def test_usage_errors_exit_2(files, capsys):
    assert invoke(["ex", "--n", "5"], capsys)[0] == 2       # missing flag
    assert invoke(["nonesuch"], capsys)[0] == 2             # no subcommand
    assert invoke(["iso", "missing.hg", files["k3.hg"]], capsys)[0] == 2


# What pip's generated console-script wrapper does: import the declared
# `module:attr`, name the program, exit with the callable's result.
_SCRIPT_WRAPPER = """\
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
main = importlib.import_module(module)
for name in attr.split("."):
    main = getattr(main, name)
sys.argv = [sys.argv[2]] + sys.argv[3:]
sys.exit(main())
"""


def _run_console_script(name, args):
    """Run the `[project.scripts]` entry `name` from pyproject.toml in a
    fresh interpreter, as an installed script would, against the source
    tree under test (no install needed)."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    src_dir = str(Path(turankit.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", _SCRIPT_WRAPPER, target, name, *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath})


def test_console_script_entry_point(files):
    proc = _run_console_script(
        "turankit", ["ex", "--n", "5", "--family", files["k3.hg"] + ":1"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "6", proc.stderr
    proc = _run_console_script("turankit", ["ex", "--n", "5"])
    assert proc.returncode == 2, proc.stderr


@pytest.mark.skipif(shutil.which("turankit") is None,
                    reason="no installed turankit script on PATH")
def test_installed_console_script(files):
    proc = subprocess.run(
        ["turankit", "ex", "--n", "5", "--family", files["k3.hg"] + ":1"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "6", proc.stderr
