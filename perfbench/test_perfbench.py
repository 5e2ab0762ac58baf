"""Tests of the benchmark's own helpers: the tracer, the latency
summary, the reference solvers and the patching of mucofix."""
import json
import random
from pathlib import Path

import pytest

import mucofix
import mucofix.cli
from perfbench import layers, measure, run, workloads

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_nested_spans():
    clock = FakeClock()
    tracer = measure.Tracer(clock)

    def advance(dt):
        clock.t += dt

    def mid():
        advance(1.0)
        tracer.call("leaf", False, advance, (2.0,))
        tracer.call("hot", True, advance, (0.5,))
        tracer.call("hot", True, advance, (0.5,))
        advance(1.0)

    def root():
        advance(3.0)
        tracer.call("mid", False, mid)

    tracer.call("root", False, root)
    assert tracer.layer("root") == (1, 3.0, 8.0)
    assert tracer.layer("mid") == (1, 2.0, 5.0)
    assert tracer.layer("leaf") == (1, 2.0, 2.0)
    assert tracer.layer("hot") == (2, 1.0, 1.0)
    assert tracer.layer("absent") == (0, 0.0, 0.0)
    # hot calls get no span: their count and self time sit on the enclosing span
    leaf, mid_span, root_span = tracer.spans
    assert [s[3] for s in tracer.spans] == ["leaf", "mid", "root"]
    assert leaf[1] == mid_span[0] and mid_span[1] == root_span[0] and root_span[1] is None
    assert mid_span[6] == {"hot": [2, 1.0]}
    assert (mid_span[4], mid_span[5]) == (3.0, 8.0)
    assert tracer.edges[("mid", "hot")] == 2


def test_tracer_counts_errors_and_reraises():
    tracer = measure.Tracer(FakeClock())

    def boom():
        raise KeyError("x")
    with pytest.raises(KeyError):
        tracer.call("outer", False, tracer.call, ("inner", False, boom))
    assert tracer.errors[("inner", "KeyError")] == 1
    assert tracer.layer("outer")[0] == 1 and not tracer.stack


@pytest.mark.parametrize("n, permille", [
    (19, None), (20, 500), (39, 500), (40, 750), (99, 750), (100, 900),
    (199, 900), (200, 950), (999, 950), (1000, 990), (9999, 990), (10000, 999)])
def test_tail_is_highest_percentile_with_ten_beyond(n, permille):
    values = [i / 1000 for i in range(n)]
    got = measure.tail_percentile(values)
    if permille is None:
        assert got is None
        return
    assert got[0] == permille
    assert got[2] >= measure.MIN_BEYOND
    assert got[1] == values[n - 1 - got[2]]
    higher = [p for p in measure.TAIL_LADDER if p > permille]
    assert all(n - 1 - measure.rank_index(n, p) < measure.MIN_BEYOND for p in higher)


def test_failed_requests_rank_above_every_success():
    ok = [(0.001 * i, True) for i in range(1, 31)]
    fast_failures = [(0.0001, False)] * 11
    summary = measure.latency_summary(ok + fast_failures, limit_s=15.0)
    assert summary["requests"] == 41 and summary["failed"] == 11
    assert summary["tail_permille"] == 750
    assert summary["tail_s"] == 15.0
    assert summary["p50_s"] == 0.021
    # turning the failures into slow successes never reads as a regression
    fixed = measure.latency_summary(ok + [(5.0, True)] * 11, limit_s=15.0)
    assert fixed["tail_s"] <= summary["tail_s"] and fixed["p50_s"] <= summary["p50_s"]


@pytest.mark.parametrize("n, permille", [(200, 750), (40, 750), (39, 500), (20, 500)])
def test_reported_tail_is_p75_unless_fewer_than_ten_beyond(n, permille):
    summary = measure.latency_summary([(i / 1000, True) for i in range(n)], limit_s=15.0)
    assert summary["tail_permille"] == permille
    assert summary["tail_beyond"] >= measure.MIN_BEYOND


def test_too_few_requests_fall_back_to_the_maximum():
    summary = measure.latency_summary([(0.3, True), (0.1, True)], limit_s=15.0)
    assert (summary["tail_permille"], summary["tail_s"], summary["tail_beyond"]) == (1000, 0.3, 0)


SMALL_SHAPES = [((5,), (7,)), ((3, 4), (4, 3)), ((9,), (2, 5)), ((4, 4), (6,))]


@pytest.mark.parametrize("dims_o, dims_p", SMALL_SHAPES)
def test_reference_kleene_agrees_with_mucofix(dims_o, dims_p):
    rng = random.Random(f"{dims_o}{dims_p}")
    for _ in range(5):
        f = workloads.random_map(rng, dims_o, dims_p)
        g = workloads.random_map(rng, dims_p, dims_o)
        lat_o = workloads.build_lattice(mucofix, dims_o)
        lat_p = workloads.build_lattice(mucofix, dims_p)
        mp = mucofix.MutualPair(lat_o, lat_p, workloads.map_table(f, dims_o, dims_p),
                                workloads.map_table(g, dims_p, dims_o))
        (lo, lp), lsteps = workloads.reference_point((dims_o, dims_p, f, g), "least")
        (go, gp), gsteps = workloads.reference_point((dims_o, dims_p, f, g), "greatest")
        least = mucofix.lsfp_product(mp)
        greatest = mucofix.gsfp_product(mp)
        assert least.mu == mucofix.lsfp_direct(mp).mu == mucofix.PairPoint(
            workloads.ident(dims_o, lo), workloads.ident(dims_p, lp))
        assert greatest.nu == mucofix.gsfp_direct(mp).nu == mucofix.PairPoint(
            workloads.ident(dims_o, go), workloads.ident(dims_p, gp))
        assert (least.iterations, greatest.iterations) == (lsteps, gsteps)


@pytest.mark.parametrize("dims", [(6,), (3, 5)])
def test_documents_parse_to_the_direct_lattices(dims):
    parsed = mucofix.parse_lattice_doc(workloads.lattice_doc(dims))
    direct = workloads.build_lattice(mucofix, dims)
    assert parsed.labels == direct.labels
    assert (parsed.poset.leq == direct.poset.leq).all()
    assert (parsed.meet == direct.meet).all() and (parsed.join == direct.join).all()


def test_reference_solve_report_matches_the_cli(tmp_path):
    rng = random.Random(3)
    wl = workloads.SolveDocs()
    payload = wl._doc(rng, tmp_path / "doc.json", (3, 4), (7,))
    for direction in ("least", "greatest"):
        req = workloads.Request("r", (("solve", str(tmp_path / "doc.json"),
                                       "--direction", direction),), payload)
        text, ok = workloads.run_cli(mucofix, req.argvs)
        assert ok and text == wl.expected(req)


def test_subtype_references_agree_with_mucofix():
    classes = [{"name": "Object", "generic": False, "superclass": None},
               {"name": "Null", "generic": False, "superclass": "Object"},
               {"name": "Box", "generic": True, "superclass": "Object"}]
    table = mucofix.parse_class_table_doc({"classes": classes})
    types, intervals = workloads.universe(classes)
    edges = [(c["name"], c["superclass"]) for c in classes if c["superclass"]]
    want = {"least": workloads.load_oracles(ROOT).subtyping_saturation(
                edges, ["Box"], types, intervals),
            "greatest": workloads.greatest_subtyping(edges, types, intervals)}
    for direction, (sub, cont) in want.items():
        state = mucofix.solve_subtyping(table, 1, direction)
        assert {(str(a), str(b)) for a, b in state.subtypes} == {(str(a), str(b)) for a, b in sub}
        assert len(state.containments) == len(cont)
        assert sorted(map(str, state.types)) == sorted(map(str, types))
    assert want["least"][0] <= want["greatest"][0] and want["least"][1] <= want["greatest"][1]


def _snapshot():
    snap = {(m.__name__, k): v for m in layers._mucofix_modules() for k, v in vars(m).items()}
    for cls in (mucofix.FiniteLattice, mucofix.MutualPair):
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_patch_and_restore_leave_every_attribute_identical():
    before = _snapshot()
    tracer = measure.Tracer()
    patch = layers.Patch(tracer).apply()
    try:
        during = _snapshot()
        # the defining module and every `from .x import y` binding are wrapped
        for owner in ("mucofix.lattice", "mucofix.textio", "mucofix"):
            wrapped = during[(owner, "validate_lattice")]
            assert wrapped is not before[(owner, "validate_lattice")]
            assert wrapped.__wrapped__ is before[("mucofix.lattice", "validate_lattice")]
        assert during[("FiniteLattice", "meet_set")] is not before[("FiniteLattice", "meet_set")]
        mp = mucofix.MutualPair(mucofix.chain(3), mucofix.chain(3), (0, 1, 2), (2, 2, 2))
        assert mucofix.lsfp_direct(mp).mu == mucofix.PairPoint(2, 2)
        assert tracer.layer("solvers.direct")[0] == 1
        assert tracer.layer("solvers.ensure_monotone")[0] == 1
        assert tracer.layer("genfun.monotone_witness")[0] == 2
        assert tracer.layer("lattice.bounds")[0] >= 2
    finally:
        patch.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(measure.latency_summary([(0.1, True)], 15.0), 1.0, [0.2], 50.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(k, v["unit"]) for k, v in e2e.items()]
    per_layer = run.per_layer(measure.Tracer(), 1, 0.0, 0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(k, v["unit"]) for k, v in per_layer.items()]


def test_tracing_changes_no_output_byte():
    argvs = (("verify", "--count", "2"), ("mine", "Q2", "--budget", "50", "--max-size", "3"),
             ("demo", "subtype"))
    plain = workloads.run_cli(mucofix, argvs)
    tracer = measure.Tracer()
    patch = layers.Patch(tracer).apply()
    try:
        traced = workloads.run_cli(mucofix, argvs)
    finally:
        patch.restore()
    assert plain[1] and traced == plain
    assert tracer.layer("cli.main")[0] == 3
    assert tracer.layer("verifier.check_lemma.SFP-monotone")[0] == 1
    assert tracer.counts["verifier.mine_counterexample.tried"] == 50
    assert tracer.layer("demos.generator_f")[0] > 0


def test_times_are_rescaled_to_the_reference_speed():
    assert measure.at_reference(0.5, 2 * measure.CAL_REF_S) == 0.25
    assert measure.at_reference(0.5, measure.CAL_REF_S) == 0.5
    assert 0 < measure.calibrate() < 1
