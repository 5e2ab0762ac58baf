"""The command line surface: output bytes, exit codes, error routing."""
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mucofix.cli
from mucofix import PairPoint, pair_from_json
from mucofix.cli import EXIT_CHECK, EXIT_INPUT, EXIT_OK, main

from oracles import sim_kleene_oracle

DATA = Path(__file__).parent / "data"
K1 = str(DATA / "k1.json")


def run(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_check_lattice_ok(capsys):
    rc, out = run(capsys, "check", str(DATA / "diamond.json"))
    assert rc == EXIT_OK
    assert out == f"check: {DATA / 'diamond.json'}\nposet: ok\nlattice: ok\n"


def test_check_poset_failure(capsys):
    rc, out = run(capsys, "check", str(DATA / "cycle.json"))
    assert rc == EXIT_CHECK
    assert "poset: NotAPoset: antisymmetry fails at ('x', 'y')" in out


def test_check_lattice_failure(capsys):
    rc, out = run(capsys, "check", str(DATA / "antichain3.json"))
    assert rc == EXIT_CHECK
    assert "poset: ok" in out
    assert "lattice: NotALattice: {p,q} lacks lub" in out


def test_check_pair_ok(capsys):
    rc, out = run(capsys, "check", K1)
    assert rc == EXIT_OK
    assert out.splitlines() == [
        f"check: {K1}",
        "O.poset: ok", "O.lattice: ok",
        "P.poset: ok", "P.lattice: ok",
        "F.monotone: ok", "G.monotone: ok",
        "pair.continuous[binary]: ok",
    ]


def test_check_pair_validates_each_lattice_once(monkeypatch, capsys):
    import mucofix.textio as textio
    search, calls = textio.bound_tables, []

    def counting(poset, *args, **kwargs):
        calls.append(poset.labels)
        return search(poset, *args, **kwargs)

    monkeypatch.setattr(textio, "bound_tables", counting)
    rc, out = run(capsys, "check", K1)
    assert rc == EXIT_OK and len(calls) == 2
    assert out == (f"check: {K1}\nO.poset: ok\nO.lattice: ok\nP.poset: ok\n"
                   "P.lattice: ok\nF.monotone: ok\nG.monotone: ok\n"
                   "pair.continuous[binary]: ok\n")


def grid_doc(a, b):
    'The a x b grid as a lattice document listing its covers.'
    name = "{}.{}".format
    covers = ([[name(r, c), name(r + 1, c)] for r in range(a - 1) for c in range(b)]
              + [[name(r, c), name(r, c + 1)] for r in range(a) for c in range(b - 1)])
    return {"elements": [name(r, c) for r in range(a) for c in range(b)], "leq": covers}


@pytest.mark.parametrize("direction, side", [("least", "meet"), ("greatest", "join")])
def test_a_solve_builds_only_the_tables_its_direction_reads(bound_searches, tmp_path, capsys,
                                                            direction, side):
    # a least solve reads meets and a greatest one joins, each through every
    # strategy, so each grid proves itself on that side and never builds the other
    o, p = grid_doc(5, 6), grid_doc(4, 4)
    clip = {x: "{}.{}".format(*(min(int(k), 3) for k in x.split("."))) for x in o["elements"]}
    doc = tmp_path / "grids.json"
    doc.write_text(json.dumps({"O": o, "P": p, "F": clip,
                               "G": {x: x for x in p["elements"]}}))
    rc, out = run(capsys, "solve", str(doc), "--direction", direction, "--trace")
    assert rc == EXIT_OK and out.endswith("agreement: AGREE\n")
    assert bound_searches == [side, side]


def test_check_of_a_lattice_document_builds_one_table(bound_searches, capsys, tmp_path):
    doc = tmp_path / "grid.json"
    doc.write_text(json.dumps(grid_doc(5, 6)))
    for path in (DATA / "diamond.json", doc):
        rc, out = run(capsys, "check", str(path))
        assert rc == EXIT_OK and out.endswith("poset: ok\nlattice: ok\n")
    assert bound_searches == ["join", "join"]


def test_check_pair_reports_both_broken_sides(tmp_path, capsys):
    # O is not a poset and P is not a lattice: both are reported, and the
    # generator tables are never read
    doc = tmp_path / "broken.json"
    doc.write_text(json.dumps({"O": json.loads((DATA / "cycle.json").read_text()),
                               "P": json.loads((DATA / "antichain3.json").read_text()),
                               "F": {}, "G": {}}))
    rc, out = run(capsys, "check", str(doc))
    assert rc == EXIT_CHECK
    assert out.splitlines() == [
        f"check: {doc}",
        "O.poset: NotAPoset: antisymmetry fails at ('x', 'y')",
        "P.poset: ok", "P.lattice: NotALattice: {p,q} lacks lub",
    ]


def test_check_pair_mode_changes_the_verdict(capsys):
    rc, out = run(capsys, "check", K1, "--mode", "with-empty")
    assert rc == EXIT_CHECK
    assert "pair.continuous[with-empty]: G breaks join preservation at {}" in out


def test_check_pair_not_monotone(capsys):
    rc, out = run(capsys, "check", str(DATA / "notmono.json"))
    assert rc == EXIT_CHECK
    assert "F.monotone: breaks the order at (0,1)" in out
    assert "G.monotone: ok" in out


def test_check_class_table(capsys):
    rc, out = run(capsys, "check", str(DATA / "classes.json"))
    assert rc == EXIT_OK
    assert "classes: ok" in out


def test_check_many_paths_reports_worst(capsys):
    rc, out = run(capsys, "check", str(DATA / "diamond.json"), str(DATA / "cycle.json"))
    assert rc == EXIT_CHECK
    assert out.count("check: ") == 2


def test_check_missing_file(capsys):
    rc, out = run(capsys, "check", str(DATA / "ghost.json"))
    assert rc == EXIT_INPUT
    assert out.splitlines()[-1].startswith("input error: cannot read")


def test_check_unrecognized_shape(tmp_path, capsys):
    doc = tmp_path / "odd.json"
    doc.write_text('{"things": []}')
    rc, out = run(capsys, "check", str(doc))
    assert rc == EXIT_INPUT
    assert "shape not recognized" in out


@pytest.mark.parametrize("command, text, message", [
    ("check", "[" * 200_000, "parse error in {doc}: nesting too deep"),
    ("solve", "[" * 200_000, "parse error in {doc}: nesting too deep"),
    ("check", "[]", "top level must be an object"),
    ("check", '{"O": {}}', 'a pair document has exactly the keys "O", "P", "F", "G"'),
    ("solve", "[]", "pair document must be an object"),
], ids=["check-deep", "solve-deep", "check-list", "check-pair-keys", "solve-list"])
def test_malformed_documents_are_input_errors(tmp_path, capsys, command, text, message):
    # nesting deeper than the recursive JSON parser can go once escaped as a
    # RecursionError traceback
    doc = tmp_path / "bad.json"
    doc.write_text(text)
    rc, out = run(capsys, command, str(doc))
    assert rc == EXIT_INPUT
    assert out.splitlines()[-1] == "input error: " + message.format(doc=doc)


def test_solve_all_strategies(capsys, monotone_scans):
    rc, out = run(capsys, "solve", K1)
    assert rc == EXIT_OK
    # three strategies share the pair's one verdict: F and G scanned once each
    assert len(monotone_scans) == 2
    assert out == (
        f"solve: {K1}\n"
        "direction: least\n"
        "strategy: direct\nmuF: 1\nmuG: 1\niterations: 0\n"
        "strategy: product\nmuF: 1\nmuG: 1\niterations: 3\n"
        "strategy: tarski\nmuF: 1\nmuG: 1\n"
        "agreement: AGREE\n"
    )


def test_solve_product_trace(capsys):
    rc, out = run(capsys, "solve", K1, "--strategy", "product", "--trace")
    assert rc == EXIT_OK
    assert out.splitlines()[-4:] == [
        "trace[0]: (0,0)", "trace[1]: (1,0)",
        "trace[2]: (1,1)", "trace[3]: (1,1)",
    ]


def test_solve_runs_the_solvers_bound_at_call_time(capsys, monkeypatch):
    # wrap each solver in every mucofix module that binds it, the way a
    # tracer patches module attributes; solve must call each wrapper once
    calls = []
    modules = [m for name, m in sys.modules.items()
               if name == "mucofix" or name.startswith("mucofix.")]
    for name in ("lsfp_direct", "gsfp_product", "lsfp_tarski_oracle"):
        real = getattr(mucofix.solvers, name)

        def wrapper(mp, name=name, real=real):
            calls.append(name)
            return real(mp)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, wrapper)
    assert run(capsys, "solve", K1)[0] == EXIT_OK
    assert run(capsys, "solve", K1, "--direction", "greatest")[0] == EXIT_OK
    assert calls == ["lsfp_direct", "lsfp_tarski_oracle", "gsfp_product"]


def test_solve_exits_one_when_the_strategies_disagree(capsys, monkeypatch):
    monkeypatch.setattr(mucofix.solvers, "lsfp_tarski_oracle", lambda mp: PairPoint(0, 0))
    rc, out = run(capsys, "solve", K1)
    assert rc == EXIT_CHECK
    assert out.endswith("strategy: tarski\nmuF: 0\nmuG: 0\nagreement: DISAGREE\n")


def test_solve_greatest_direct(capsys):
    rc, out = run(capsys, "solve", K1, "--direction", "greatest", "--strategy", "direct")
    assert rc == EXIT_OK
    assert "nuF: 1" in out and "nuG: 1" in out and "muF" not in out


@pytest.mark.parametrize("direction", ["least", "greatest"])
def test_solve_1025_chain_pair_matches_kleene(tmp_path, capsys, direction):
    # 1025 x 1025 is the first square chain pair past 2^20 pairs, where a
    # pair-count cap once refused; every strategy must run to the answer
    n = 1025
    rng = random.Random(n)
    # sorted draws from the middle half: monotone, and both fixed points
    # lie inside the chains, a few Kleene steps from either end
    f = sorted(rng.randrange(n // 4, 3 * n // 4) for _ in range(n))
    g = sorted(rng.randrange(n // 4, 3 * n // 4) for _ in range(n))
    names = [f"c{i}" for i in range(n)]
    chain_doc = {"elements": names, "leq": [[a, b] for a, b in zip(names, names[1:])]}
    doc = tmp_path / "chains.json"
    doc.write_text(json.dumps({"O": chain_doc, "P": chain_doc,
                               "F": {a: names[f[i]] for i, a in enumerate(names)},
                               "G": {a: names[g[i]] for i, a in enumerate(names)}}))
    least = direction == "least"
    o, p = sim_kleene_oracle(f, g, (0, 0) if least else (n - 1, n - 1))
    rc, out = run(capsys, "solve", str(doc), "--direction", direction)
    assert rc == EXIT_OK
    lines = out.splitlines()
    lf, lg = ("muF", "muG") if least else ("nuF", "nuG")
    assert lines.count(f"{lf}: c{o}") == 3 and lines.count(f"{lg}: c{p}") == 3
    assert lines[-1] == "agreement: AGREE"


def test_solve_rejects_non_monotone(capsys):
    rc, out = run(capsys, "solve", str(DATA / "notmono.json"))
    assert rc == EXIT_CHECK
    assert out.splitlines()[-1].startswith("NotMonotone: F breaks the order at")


def test_verify_single_lemma_deterministic(capsys):
    rc, out = run(capsys, "verify", "--lemma", "L1", "--count", "5", "--size-hi", "5")
    assert rc == EXIT_OK
    assert out.splitlines()[0] == "lemma: L1"
    assert out.splitlines()[-1] == "verify: PASS"
    rc2, out2 = run(capsys, "verify", "--lemma", "L1", "--count", "5", "--size-hi", "5")
    assert (rc2, out2) == (rc, out)


def test_verify_reports_each_failure_and_exits_one(capsys, monkeypatch):
    title, premise, _ = mucofix.verifier.LEMMAS["L3"]
    monkeypatch.setitem(mucofix.verifier.LEMMAS, "L3", (
        title, premise, lambda mp, mode: f"planted on {mp.dom_o.size}x{mp.dom_p.size}"))
    rc, out = run(capsys, "verify", "--lemma", "L3", "--count", "2")
    assert rc == EXIT_CHECK
    lines = out.splitlines()
    assert lines[4:8] == ["instances: 2", "premise-skipped: 0", "generation-exhausted: 0",
                          "genuine-failures: 2"]
    failures = [line.split(": ", 1) for line in lines[8:12]]
    assert [key for key, _ in failures] == ["failure[0].witness", "failure[0].instance",
                                            "failure[1].witness", "failure[1].instance"]
    for (_, witness), (_, instance) in zip(failures[::2], failures[1::2]):
        mp = pair_from_json(instance)
        assert witness == f"planted on {mp.dom_o.size}x{mp.dom_p.size}"
    assert lines[12:] == ["result: FAIL", "verify: FAIL"]


def test_verify_counts_exhausted_generation_apart_from_failures(capsys):
    # one of seed 0's first five with-empty L1 pairs has a side that no map
    # preserving bounds and binary meets and joins admits
    rc, out = run(capsys, "verify", "--lemma", "L1", "--mode", "with-empty", "--count", "5")
    assert rc == EXIT_OK
    assert out.splitlines()[4:8] == ["instances: 4", "premise-skipped: 0",
                                     "generation-exhausted: 1", "genuine-failures: 0"]
    assert out.endswith("result: PASS\nverify: PASS\n")


def test_verify_size_bound(capsys):
    rc, out = run(capsys, "verify", "--size-hi", "65")
    assert (rc, out) == (EXIT_INPUT, "input error: size_hi 65 exceeds the cap 64\n")
    # the largest admitted instance runs the heaviest lemma scan
    rc, out = run(capsys, "verify", "--lemma", "L7", "--family", "chains",
                  "--size-lo", "64", "--size-hi", "64", "--count", "1")
    assert rc == EXIT_OK
    assert "instances: 1" in out and out.endswith("verify: PASS\n")


def test_verify_refuses_a_range_without_corpus_lattices_before_any_report(capsys):
    # mixed draws from the corpus, which has no one-element lattice; the
    # first corpus draw used to come after some reports were printed
    for seed in ("0", "3"):
        rc, out = run(capsys, "verify", "--size-lo", "1", "--size-hi", "1",
                      "--count", "1", "--seed", seed)
        assert (rc, out) == (EXIT_INPUT, "input error: no corpus lattice has size in [1, 1]\n")
    rc, out = run(capsys, "verify", "--family", "chains", "--size-lo", "1", "--size-hi", "1",
                  "--count", "1")
    assert rc == EXIT_OK and out.endswith("verify: PASS\n")


def test_verify_refuses_l4_above_its_subset_limit_before_any_report(capsys):
    argv = ("verify", "--family", "chains", "--size-lo", "17", "--size-hi", "17", "--count", "1")
    rc, out = run(capsys, *argv)
    assert (rc, out) == (EXIT_INPUT,
                         "input error: L4 enumerates subsets, so --size-hi must be at most 16\n")
    assert run(capsys, *argv, "--lemma", "L4")[0] == EXIT_INPUT
    rc, out = run(capsys, *argv, "--lemma", "L7")
    assert rc == EXIT_OK and out.endswith("verify: PASS\n")


def test_verify_rejects_unknown_lemma(capsys):
    assert main(["verify", "--lemma", "L99"]) == EXIT_INPUT


def test_mine_q2_exhausts(capsys):
    rc, out = run(capsys, "mine", "Q2", "--budget", "250")
    assert rc == EXIT_OK
    assert "question: Q2" in out
    assert "result: none found (exhaustive up to size 3)" in out


def test_mine_reports_the_sweep_the_cap_allowed(capsys):
    # the cap skips 12 shape pairs, each with a 5-element side, so a budget
    # that outlasts the sweep has covered every shape pair of at most 4 elements
    rc, out = run(capsys, "mine", "Q2", "--seed", "1", "--budget", "12000", "--max-size", "5")
    assert rc == EXIT_OK
    assert "randomized: 1186\n" in out
    assert "result: none found (exhaustive up to size 4)\n" in out
    rc, out = run(capsys, "mine", "Q2", "--seed", "1", "--budget", "5000", "--max-size", "5")
    assert rc == EXIT_OK
    assert "randomized: 0\n" in out
    assert "result: none found (search truncated by budget)\n" in out


def test_mine_q1_finds(capsys):
    rc, out = run(capsys, "mine", "Q1", "--budget", "400")
    assert rc == EXIT_OK
    assert "result: found" in out and "revalidated: true" in out


@pytest.mark.parametrize("flag, name", [("--budget", "budget"), ("--max-size", "max_size")])
def test_mine_refuses_negative_limits(capsys, flag, name):
    rc, out = run(capsys, "mine", "Q2", flag, "-3")
    assert (rc, out) == (EXIT_INPUT, f"input error: {name} must be nonnegative\n")


def test_demo_paulson(capsys):
    rc, out = run(capsys, "demo", "paulson")
    assert (rc, out) == (EXIT_OK, "(1,1,0)\n")
    rc, out = run(capsys, "demo", "paulson", "1", "5", "2", "--entry", "G")
    assert (rc, out) == (EXIT_OK, "(3,11,-1)\n")


def test_demo_paulson_budget(capsys):
    rc, out = run(capsys, "demo", "paulson", "0", "0", "1", "--budget", "40")
    assert rc == EXIT_CHECK
    assert "no return within 40 steps" in out


def test_demo_paulson_negative_budget_is_an_input_error(capsys):
    rc, out = run(capsys, "demo", "paulson", "--budget", "-1")
    assert (rc, out) == (EXIT_INPUT, "input error: budget must be nonnegative\n")


def test_demo_paulson_bad_arity(capsys):
    rc, out = run(capsys, "demo", "paulson", "1", "2")
    assert rc == EXIT_INPUT
    assert "zero or three integers" in out


def test_demo_subtype_default(capsys):
    rc, out = run(capsys, "demo", "subtype")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "classes: basic"
    assert "types: 3" in lines and "intervals: 9" in lines
    assert "subtypes: 6" in lines and "containments: 36" in lines
    assert "subtype[0]: (A,A)" in lines


def test_demo_subtype_depth_saturates_without_generics(capsys):
    # only generic classes add types, so any depth prints the depth-0 report
    _, depth0 = run(capsys, "demo", "subtype", "--depth", "0")
    start = time.perf_counter()
    rc, out = run(capsys, "demo", "subtype", "--depth", "1000000000")
    assert time.perf_counter() - start < 1.0
    assert rc == EXIT_OK
    assert out == depth0.replace("depth: 0\n", "depth: 1000000000\n")
    assert "types: 3\n" in out and "intervals: 9\n" in out


def test_demo_subtype_from_document(capsys):
    rc, out = run(capsys, "demo", "subtype", "--classes", str(DATA / "classes.json"),
                  "--depth", "0")
    assert rc == EXIT_OK
    assert "types: 4" in out and "subtypes: 10" in out


# sha256 of `demo subtype --classes generic.json` stdout, run from the data
# directory so the path line is fixed, per depth and direction
GENERIC_DEMO_SHA256 = {
    (0, "least"): "f5cb2d44fb3671d83192e3c0f7fe010d5f66bdf5e49e4380f40dbe01b7a9b06e",
    (0, "greatest"): "87392709d0115c7ccb4175d285c276161e1eb6a9460f2db9c1c4ba4e4a4d4913",
    (1, "least"): "39d228ea7fc1ea3b12a37715f7391414f38f3f0fcb5eb17c883319e73f5b8a9d",
    (1, "greatest"): "2c8faacbfa06650c17fcabe546f8d1c7fc6e950159d87104a166735662f85799",
    (2, "least"): "c7aef2574b2914534d778f9303c3aea1357e3b847d40fe6d5add1ec54bf0f943",
    (2, "greatest"): "ae5eea2c7312a054bcfee9718df9b6bb90bdce44bfa3c2aaf8fb6ae06d949bf4",
}


def generic_demo(capsys, monkeypatch, depth, direction):
    monkeypatch.chdir(DATA)
    rc, out = run(capsys, "demo", "subtype", "--classes", "generic.json",
                  "--depth", str(depth), "--direction", direction)
    return rc, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("depth, direction", sorted(GENERIC_DEMO_SHA256))
def test_demo_subtype_generic_bytes(capsys, monkeypatch, depth, direction):
    assert generic_demo(capsys, monkeypatch, depth, direction) == \
        (EXIT_OK, GENERIC_DEMO_SHA256[depth, direction])


def test_demo_subtype_builds_no_pair_set(capsys, monkeypatch):
    def refuse(m, members):
        raise AssertionError("a set of pairs was built")
    monkeypatch.setattr(mucofix.demos, "_pairs", refuse)
    with pytest.raises(AssertionError, match="set of pairs"):
        mucofix.demos.solve_subtyping(mucofix.demos.fixture_tables()["two"], 0).subtypes
    assert generic_demo(capsys, monkeypatch, 2, "greatest") == \
        (EXIT_OK, GENERIC_DEMO_SHA256[2, "greatest"])


def test_cap_refusal_flows_through(capsys, monkeypatch):
    monkeypatch.setattr(mucofix.lattice, "DEFAULT_CAP", 2)
    rc, out = run(capsys, "check", str(DATA / "diamond.json"))
    assert rc == EXIT_CHECK
    assert "exceeds the explicit cap 2" in out


def test_usage_errors_exit_two():
    assert main([]) == EXIT_INPUT
    assert main(["solve"]) == EXIT_INPUT
    assert main(["mine", "Q7"]) == EXIT_INPUT
    assert main(["solve", K1, "--engine", "implicit"]) == EXIT_INPUT
    assert main(["solve", K1, "--budget", "5"]) == EXIT_INPUT
    assert main(["demo", "subtype", "--budget", "5"]) == EXIT_INPUT


@pytest.mark.parametrize("argv", [["check", K1], ["verify", "--count", "1"], ["mine", "Q1"]],
                         ids=lambda a: a[0])
def test_unknown_mode_exits_two(capsys, argv):
    rc, out = run(capsys, *argv, "--mode", "capped:3")
    assert (rc, out) == (EXIT_INPUT, "input error: unknown continuity mode 'capped:3'\n")


def test_console_script_is_wired():
    # the child finds the package where this process found it
    env = dict(os.environ, PYTHONPATH=str(Path(mucofix.cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "mucofix.cli", "demo", "paulson"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "(1,1,0)\n"
