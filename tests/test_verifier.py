"""Seeded generation, lemma runners, and the counterexample miner."""
import functools
import json
import random
import warnings
from collections import Counter
from dataclasses import replace
from itertools import product as iproduct
from pathlib import Path

import numpy as np

import pytest

from mucofix import (BINARY, WITH_EMPTY, FiniteLattice, InstanceGenSpec,
                     MutualPair, NotMonotoneError, SolveResult, chain, check_lemma,
                     component_sets, corpus, diamond, gen_continuous_pair, gen_lattice,
                     gen_monotone_pair, is_continuous_pair, is_monotone, m3,
                     mine_counterexample, n5, pair_continuity_witness, pair_from_json,
                     point_masks, powerset_lattice, product, split_seed, validate_lattice)
import mucofix.cli as cli
import mucofix.genfun as genfun
import mucofix.textio as textio
import mucofix.verifier as verifier
from mucofix.genfun import _first_monotone_failure
from mucofix.lattice import cover_edges, mask_lattice
from mucofix.simpoints import pre_mask
from mucofix.verifier import (GenerationExhausted, LEMMAS, _check_l1, _check_l5,
                              render_finding_report, render_lemma_report)

from oracles import (closed_family_oracle, closed_subsets_oracle, continuity_witness_oracle,
                     continuous_table_oracle, glb_scan, is_lattice_oracle, lub_scan,
                     monotone_witness_oracle, point_classes_oracle, sublattice_violation_oracle)


def spec(seed=0, **kw):
    kw.setdefault("size_lo", 2)
    kw.setdefault("size_hi", 6)
    kw.setdefault("count", 30)
    return InstanceGenSpec(seed=seed, **kw)


def test_split_seed_is_deterministic_and_disperses():
    assert split_seed(0, 0) == split_seed(0, 0)
    seen = {split_seed(s, i) for s in range(4) for i in range(64)}
    assert len(seen) == 4 * 64
    assert all(0 <= v < 1 << 64 for v in seen)


@pytest.mark.parametrize("seed", [0, 1, 2 ** 63, 2 ** 64 - 1])
def test_the_block_splitmix_is_split_seed(seed):
    # numpy scalars warn when a product wraps and arrays do not, so any
    # scalar left in the pass fails here
    indices = [0, 1, 63, 0xF0, 2 ** 32]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = split_seed(np.array([seed], np.uint64), np.array(indices, np.uint64))
        blocks = [verifier._slot_seeds(s, ix) for s in (seed, seed - 2 ** 64, seed + 2 ** 64)
                  for ix in (indices, indices[:1], indices[1:2], [])]
    assert got.dtype == np.uint64 and got.tolist() == [split_seed(seed, i) for i in indices]
    for block, ix in zip(blocks, [indices, indices[:1], indices[1:2], []] * 3):
        want = []
        for i in ix:
            child = split_seed(seed, i)
            slots = [split_seed(child, k) for k in (1, 2, 3)]
            want.append((*slots, split_seed(slots[2], 0xF0)))
        assert block == want and all(type(v) is int for t in block for v in t)


def test_spec_validation():
    with pytest.raises(ValueError):
        InstanceGenSpec(seed=0, size_lo=0)
    with pytest.raises(ValueError):
        InstanceGenSpec(seed=0, size_lo=5, size_hi=3)
    with pytest.raises(ValueError):
        InstanceGenSpec(seed=0, family="spirals")
    with pytest.raises(ValueError):
        InstanceGenSpec(seed=0, function_class="wild")
    with pytest.raises(ValueError):
        InstanceGenSpec(seed=0, count=-1)
    assert InstanceGenSpec(seed=0, size_hi=64).size_hi == 64
    with pytest.raises(ValueError, match=r"^size_hi 65 exceeds the cap 64$"):
        InstanceGenSpec(seed=0, size_hi=65)
    # the corpus has no lattice of 1, 7 or 9-15 elements; a family that
    # may draw from it is refused at construction, the others are not
    for family in ("corpus", "mixed"):
        for lo, hi in ((1, 1), (7, 7), (9, 15)):
            refusal = rf"^no corpus lattice has size in \[{lo}, {hi}\]$"
            with pytest.raises(ValueError, match=refusal):
                InstanceGenSpec(seed=0, family=family, size_lo=lo, size_hi=hi)
        assert InstanceGenSpec(seed=0, family=family, size_lo=7, size_hi=8).size_hi == 8
    assert InstanceGenSpec(seed=0, family="chains", size_lo=1, size_hi=1).size_lo == 1


@pytest.mark.parametrize("family", ["chains", "powersets", "products",
                                    "random-closed", "corpus", "mixed"])
def test_gen_lattice_families(family):
    for seed in range(12):
        lat = gen_lattice(spec(seed, family=family, size_lo=2, size_hi=8))
        assert 1 <= lat.size <= 8
        assert is_lattice_oracle(lat.poset.leq.tolist())
        if family == "chains":
            assert 2 <= lat.size <= 8
            assert (lat.poset.leq | lat.poset.leq.T).all()
        if family == "powersets":
            assert lat.size in (2, 4, 8)


def test_products_fallback_is_built_once_per_size():
    # no pool product has 17 elements, so every draw takes the fallback
    a, b = (gen_lattice(spec(seed, family="products", size_lo=17, size_hi=17))
            for seed in (0, 1))
    assert a is b
    ref = product(chain(1), chain(17))
    assert a.labels == ref.labels == tuple(f"(0,{i})" for i in range(17))
    for x, y in ((a.poset.leq, ref.poset.leq), (a.meet, ref.meet), (a.join, ref.join)):
        assert (x == y).all()
    assert (a.poset.leq | a.poset.leq.T).all()     # a chain, as the docstring says


def test_random_closed_fallback_is_the_shared_chain():
    # a 4-member ground set closes to at most 16 subsets, so above 16
    # every draw falls back to a chain, whose size is the first draw
    for lo, hi, sizes in ((17, 17, [17] * 8), (40, 64, [52, 44, 41, 47, 47, 59, 58, 50])):
        for seed, n in enumerate(sizes):
            lat = gen_lattice(spec(seed, family="random-closed", size_lo=lo, size_hi=hi))
            again = gen_lattice(spec(seed, family="random-closed", size_lo=lo, size_hi=hi))
            assert lat is again is verifier._memo_chain(n)
            assert lat.labels == chain(n).labels


def test_random_closed_above_sixteen_draws_no_family():
    # the chain's size is the first and only draw: no subset is sampled
    for seed in range(20):
        rng, replay = random.Random(seed), random.Random(seed)
        lat = verifier._random_closed(rng, 17, 40)
        assert lat is verifier._memo_chain(replay.randint(17, 40))
        assert rng.getstate() == replay.getstate()


def test_a_row_over_every_chain_size_builds_each_size_once(monkeypatch, capsys):
    # a memo of 16 sizes once evicted sizes this row draws again, so it
    # built 126 chains for its 58 distinct sizes
    built = Counter()

    def counting(n):
        built[n] += 1
        return chain(n)
    monkeypatch.setattr(verifier, "chain", counting)
    verifier._memo_chain.cache_clear()
    try:
        code = cli.main(["verify", "--family", "chains", "--size-lo", "2", "--size-hi", "64",
                         "--lemma", "L2", "--count", "40"])
    finally:
        verifier._memo_chain.cache_clear()
    assert code == 0 and capsys.readouterr().out.endswith("verify: PASS\n")
    assert len(built) == 58 and set(built.values()) == {1}


def test_gen_lattice_is_deterministic():
    for family in ("mixed", "random-closed"):
        a = gen_lattice(spec(7, family=family))
        b = gen_lattice(spec(7, family=family))
        assert a.labels == b.labels
        assert (a.poset.leq == b.poset.leq).all()


def test_random_closed_tables_match_validation_and_scans():
    # random-closed lattices and powersets get their tables straight from
    # the masks; the order search and the candidate scans must agree with them
    lattices = [gen_lattice(spec(seed, family="random-closed", size_lo=2, size_hi=8))
                for seed in range(40)]
    lattices += [mask_lattice(range(1 << g), [str(m) for m in range(1 << g)]) for g in range(5)]
    for lat in lattices:
        ref = validate_lattice(lat.poset)
        assert (lat.meet == ref.meet).all() and (lat.join == ref.join).all()
        assert (lat.bottom, lat.top) == (ref.bottom, ref.top)
        leq = lat.poset.leq.tolist()
        for i in range(lat.size):
            for j in range(lat.size):
                assert lat.meet[i, j] == glb_scan(leq, [i, j])
                assert lat.join[i, j] == lub_scan(leq, [i, j])


def test_random_closed_family_matches_the_grow_until_fixed_loop():
    # replay the draws of _random_closed with the plain closure loop: the
    # family, its order and the draws consumed must all be the same
    for seed in range(10_000):
        lo = 2 + seed % 4
        hi = lo + 2 + seed // 4 % 7
        rng = random.Random(seed)
        got = verifier._random_closed(rng, lo, hi)
        replay = random.Random(seed)
        for _ in range(64):
            want = replay.randint(lo, hi)
            closed = closed_family_oracle(replay.sample(range(16), k=min(want, 16)))
            if lo <= len(closed) <= hi:
                masks = sorted(closed, key=lambda m: (bin(m).count("1"), m))
                assert got.labels == tuple("m" + format(m, "04b") for m in masks), seed
                break
        else:
            assert got.labels == chain(replay.randint(lo, hi)).labels, seed
        assert rng.getstate() == replay.getstate(), seed


def every_sublattice_of_the_4_cube():
    'Every nonempty family of subsets of 4 members closed under & and |, grown a generator at a time.'
    found = {frozenset([m]) for m in range(16)}
    todo = list(found)
    while todo:
        family = todo.pop()
        for m in range(16):
            grown = frozenset(closed_family_oracle(family | {m}))
            if grown not in found:
                found.add(grown)
                todo.append(grown)
    return found


@pytest.fixture
def fresh_shapes(monkeypatch):
    'No shape and no family lattice built yet, and no family lattice kept after the test.'
    monkeypatch.setattr(verifier, "_SHAPES", {})
    verifier._closed_lattice.cache_clear()
    yield
    verifier._closed_lattice.cache_clear()


def test_every_closed_family_reads_its_shape_as_a_fresh_lattice(fresh_shapes):
    families = every_sublattice_of_the_4_cube()
    assert len(families) == 731
    orders = set()
    for family in families:
        if len(family) < 2:
            continue
        masks = sorted(family, key=lambda m: (bin(m).count("1"), m))
        got = verifier._closed_lattice(sum(1 << m for m in masks))
        ref = mask_lattice(masks, ["m" + format(m, "04b") for m in masks])
        assert got.labels == ref.labels and got.poset.label_ids == ref.poset.label_ids
        for x, y in ((got.poset.leq, ref.poset.leq), (got.meet, ref.meet), (got.join, ref.join),
                     (got.down_rows, ref.down_rows)):
            assert x.dtype == y.dtype and (x == y).all() and not x.flags.writeable
        assert (got.bottom, got.top, got.size, got.edges) == (ref.bottom, ref.top, ref.size, None)
        assert got.gen_lists == ref.gen_lists
        orders.add(ref.poset.leq.tobytes())
    assert sum(len(f) >= 2 for f in families) == 715
    # one lattice per distinct order in sorted id order, and nothing else
    assert len(orders) == 73 and set(verifier._SHAPES) == orders


def test_families_of_one_order_share_its_tables_and_lists(fresh_shapes):
    # the first two draws of one order with different masks, and their seeds
    seen = {}
    for seed in range(1000):
        lat = verifier._random_closed(random.Random(seed), 2, 8)
        first = seen.setdefault(lat.poset.leq.tobytes(), (seed, lat))
        if first[1].labels != lat.labels:
            (seed_a, a), b = first, lat
            break
    else:
        pytest.fail("no two draws share an order")
    assert a is not b and a.poset is not b.poset and a.labels != b.labels
    assert a.poset.label_ids == {x: i for i, x in enumerate(a.labels)}
    assert b.poset.label_ids == {x: i for i, x in enumerate(b.labels)}
    # a third draw, of the first family again, is the first family's lattice
    assert verifier._random_closed(random.Random(seed_a), 2, 8) is a
    shape = verifier._SHAPES[a.poset.leq.tobytes()]
    # a family carries every table, bound and view its shape built, the
    # shape's own objects, and only its poset, with its labels, is its own
    assert {"meet", "join", "down_rows", "gen_lists"} <= set(vars(shape))
    for lat in (a, b):
        assert vars(lat).keys() == vars(shape).keys()
        for name, value in vars(shape).items():
            assert name == "poset" or vars(lat)[name] is value, name
        assert lat.poset is not shape.poset and lat.poset.leq is shape.poset.leq
    assert len(verifier._SHAPES) == len(seen)


def test_a_view_that_lattices_gain_travels_to_every_family(monkeypatch, fresh_shapes):
    # a family shares its shape's views by reading what the shape built,
    # not a list of names, so a view added to the class travels unnamed
    covers = functools.cached_property(cover_edges)
    covers.__set_name__(FiniteLattice, "covers")
    monkeypatch.setattr(FiniteLattice, "covers", covers, raising=False)
    a, b = (verifier._closed_lattice(sum(1 << m for m in masks))
            for masks in ([0, 1, 2, 3], [0, 4, 8, 12]))
    assert a.labels != b.labels and "covers" in vars(a)
    assert a.covers is b.covers == cover_edges(diamond()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("op", [int.__and__, int.__or__], ids=["meet", "join"])
def test_each_nibble_table_is_the_set_image(op):
    tables = verifier._nibble_images()[op is int.__or__]
    assert len(tables) == 16 and all(len(t) == 64 for t in tables)
    for s, table in enumerate(tables):
        for p in range(4):
            for v in range(16):
                image = {op(s, 4 * p + j) for j in range(4) if v >> j & 1}
                assert table[16 * p + v] == sum(1 << m for m in image), (s, p, v)
    # and a family's image is the OR of its nibbles' entries
    rng = random.Random(5)
    for family in [0, 1, 0xFFFF, 0x8000] + [rng.getrandbits(16) for _ in range(300)]:
        masks = [m for m in range(16) if family >> m & 1]
        for s, table in enumerate(tables):
            image = verifier._image(table, family)
            assert image == sum(1 << m for m in {op(s, m) for m in masks}), (family, s)


def reference_lattice(spec):
    'gen_lattice as a spec-keyed loop that filters the pool on every draw, kept as the reference.'
    rng = random.Random(spec.seed)
    family, lo, hi = spec.family, spec.size_lo, spec.size_hi
    if family == "mixed":
        family = rng.choice(("chains", "powersets", "products", "random-closed", "corpus"))
    if family == "chains":
        return chain(rng.randint(lo, hi))
    if family == "random-closed":
        return verifier._random_closed(rng, lo, hi)
    pool = verifier._pools()[family]
    in_range = [lat for lat in pool if lo <= lat.size <= hi]
    if in_range:
        return rng.choice(in_range)
    if family == "products":
        return product(chain(1), chain(hi))
    return [lat for lat in pool if lat.size <= hi][-1]


@pytest.mark.parametrize("family", verifier.FAMILIES)
def test_the_seed_keyed_core_draws_what_gen_lattice_draws(family):
    for lo, hi in ((2, 8), (1, 16), (2, 3), (6, 6), (17, 24)):
        try:
            specs = [InstanceGenSpec(seed=seed, family=family, size_lo=lo, size_hi=hi)
                     for seed in range(200)]
        except ValueError:      # no corpus lattice has a size in range
            continue
        for s in specs:
            want = reference_lattice(s)
            for got in (verifier._lattice(s.seed, family, lo, hi), gen_lattice(s)):
                assert got.labels == want.labels, s
                for x, y in ((got.poset.leq, want.poset.leq), (got.meet, want.meet),
                             (got.join, want.join)):
                    assert (x == y).all(), s


@pytest.mark.parametrize("function_class", verifier.FUNCTION_CLASSES)
def test_no_draw_builds_a_spec(monkeypatch, function_class):
    # carriers and pairs of every class are drawn from their seeds alone;
    # a constructor call and replace both run __init__
    built, real = [], InstanceGenSpec.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs)
        real(self, *args, **kwargs)
    s = spec(6, function_class=function_class, count=70)
    monkeypatch.setattr(InstanceGenSpec, "__init__", counted)
    assert replace(s, seed=7) == spec(7, function_class=function_class, count=70)
    assert len(built) == 2
    built.clear()
    pairs, _ = verifier._instances(s, range(s.count), BINARY)
    for mode in (BINARY, WITH_EMPTY):
        check_lemma("L2", s, mode)
    assert len(pairs) == s.count and built == []


def test_the_family_memo_holds_only_closed_families(fresh_shapes):
    # every sublattice of 2^4 drawn by its 16-bit set, and then random-closed
    # draws whose rejected families outnumber them: none of those is kept
    for family in every_sublattice_of_the_4_cube():
        masks = sorted(family, key=lambda m: (bin(m).count("1"), m))
        lat = verifier._closed_lattice(sum(1 << m for m in family))
        assert lat.labels == tuple("m" + format(m, "04b") for m in masks)
    assert verifier._closed_lattice.cache_info().currsize == 731
    for seed in range(3000):
        lo = 1 + seed % 8
        verifier._random_closed(random.Random(seed), lo, lo + seed // 8 % 9)
    assert verifier._closed_lattice.cache_info().currsize == 731
    assert len(verifier._SHAPES) == 74


def test_gen_lattice_range_fallbacks():
    assert gen_lattice(spec(0, family="powersets", size_lo=6, size_hi=6)).size == 4
    assert gen_lattice(spec(0, family="chains", size_lo=64, size_hi=64)).size == 64
    # a chain past the instance cap is refused with its spec
    with pytest.raises(ValueError, match=r"^size_hi 70 exceeds the cap 64$"):
        spec(0, family="chains", size_lo=70, size_hi=70)
    with pytest.raises(ValueError, match="no corpus lattice"):
        gen_lattice(spec(0, family="corpus", size_lo=9, size_hi=9))


def test_gen_monotone_pair_is_monotone_and_varied():
    tables = set()
    for seed in range(20):
        s = spec(seed)
        mp = gen_monotone_pair(s, gen_lattice(spec(split_seed(seed, 1))),
                               gen_lattice(spec(split_seed(seed, 2))))
        assert is_monotone(mp.f_fn) and is_monotone(mp.g_fn)
        tables.add(mp.f)
    assert len(tables) > 5


def test_gen_continuous_pair_is_seeded_and_continuous():
    for mode in (BINARY, WITH_EMPTY):
        tables = set()
        for seed in range(20):
            mp = gen_continuous_pair(seed, chain(3), diamond(), mode)
            again = gen_continuous_pair(seed, chain(3), diamond(), mode)
            assert (mp.f, mp.g) == (again.f, again.g)
            assert is_continuous_pair(mp, mode) and mp.monotone_failure is None
            tables.add((mp.f, mp.g))
        assert len(tables) > 5
    # with-empty sends bottom to bottom and top to top on both sides
    mp = gen_continuous_pair(3, diamond(), diamond(), WITH_EMPTY)
    assert (mp.f[0], mp.f[3], mp.g[0], mp.g[3]) == (0, 3, 0, 3)


@pytest.mark.parametrize("mode", [BINARY, WITH_EMPTY], ids=lambda m: m.kind)
def test_the_continuous_search_holds_a_tall_carrier(mode):
    # one stack level per element: 1100 levels, past the default recursion
    # limit of 1000, at which a recursive search raised RecursionError
    tall = chain(1100)
    mp = gen_continuous_pair(0, tall, tall, mode)
    assert mp.monotone_failure is None and is_continuous_pair(mp, mode)


def _search_cases():
    'Every ordered pair of corpus lattices of at most 5 elements, and 40 random-closed pairs.'
    small = [lat for _, lat in corpus() if lat.size <= 5]
    closed = [verifier._random_closed(random.Random(seed), 2, 6) for seed in range(40)]
    return ([(a, b) for a in small for b in small]
            + [(closed[k], closed[(k + 1) % 40]) for k in range(40)])


@pytest.mark.parametrize("mode", [BINARY, WITH_EMPTY], ids=lambda m: m.kind)
def test_continuous_search_finds_a_table_exactly_when_one_exists(mode):
    pinned = mode is WITH_EMPTY
    found = missing = 0
    for k, (dom, cod) in enumerate(_search_cases()):
        got = next(verifier._maps(dom, cod, mode, random.Random(k)), None)
        want = continuous_table_oracle(dom.poset.leq.tolist(), cod.poset.leq.tolist(), pinned)
        assert (got is None) == (want is None), (dom.labels, cod.labels)
        found += got is not None
        missing += got is None
        back = continuous_table_oracle(cod.poset.leq.tolist(), dom.poset.leq.tolist(), pinned)
        if want is None or back is None:
            with pytest.raises(GenerationExhausted, match="^no continuous pair exists on "):
                gen_continuous_pair(k, dom, cod, mode)
        else:
            mp = gen_continuous_pair(k, dom, cod, mode)
            assert pair_continuity_witness(mp, mode) is None
    # binary mode always has the constant maps; with-empty meets both outcomes
    assert missing == 0 if mode is BINARY else 0 < missing < found


def _admitted_oracle(dom, cod, mode):
    """Every raw table, in lexicographic order, that is monotone and, under
    a mode, preserves binary meets and joins (and with-empty both bounds)."""
    dom_leq, cod_leq = dom.poset.leq.tolist(), cod.poset.leq.tolist()
    return [t for t in iproduct(range(cod.size), repeat=dom.size)
            if monotone_witness_oracle(t, dom_leq, cod_leq) is None and (mode is None or all(
                continuity_witness_oracle(t, dom_leq, cod_leq, law, mode is WITH_EMPTY) is None
                for law in ("meet", "join")))]


@pytest.mark.parametrize("mode", [None, BINARY, WITH_EMPTY],
                         ids=lambda m: "monotone" if m is None else m.kind)
def test_maps_yields_each_admitted_table_exactly_once(mode):
    for dom, cod in _search_cases():
        got = list(verifier._maps(dom, cod, mode))
        assert len(got) == len(set(got)), (dom.labels, cod.labels)
        assert sorted(got) == _admitted_oracle(dom, cod, mode), (dom.labels, cod.labels)


def test_generation_exhausted_when_no_pair_exists():
    # no with-empty continuous map sends the three atoms of M3 into a
    # two-chain: two atoms must share an image, breaking a bound law
    with pytest.raises(GenerationExhausted):
        gen_continuous_pair(0, chain(2), m3(), WITH_EMPTY)


@pytest.mark.parametrize("lemma_id", list(LEMMAS))
def test_lemmas_pass_on_generated_instances(lemma_id):
    _, premise, _ = LEMMAS[lemma_id]
    report = check_lemma(lemma_id, spec(11, function_class=premise))
    assert report.passed
    assert report.instances_tried == 30
    assert report.failures == []
    assert report.lemma_id == lemma_id


def test_sfp_scans_monotonicity_at_most_twice_per_instance(monotone_scans):
    # generation, the premise and all six solvers share each pair's verdict
    report = check_lemma("SFP", spec(4, count=20))
    assert report.passed and report.instances_tried == 20
    assert len(monotone_scans) <= 2 * 20


def test_check_lemma_rejects_unknown_id():
    with pytest.raises(ValueError, match="unknown lemma"):
        check_lemma("L9", spec(0))


def test_premise_gating_skips_instead_of_failing():
    report = check_lemma("L4", spec(5, function_class="arbitrary", count=60))
    assert report.premise_skipped > 0
    assert report.passed


def test_l1_fails_when_the_continuity_check_is_wrong(monkeypatch):
    # continuity is L1's whole premise: were monotonicity checked first, a
    # non-monotone pair the continuity check wrongly accepts would be skipped
    monkeypatch.setattr(verifier, "is_continuous_pair", lambda mp, mode: True)
    report = check_lemma("L1", InstanceGenSpec(seed=1, function_class="arbitrary", count=20))
    assert report.failures and not report.passed
    assert report.premise_skipped == 0


def test_l1_fails_when_the_monotone_check_is_wrong(monkeypatch, capsys):
    # generation self-checks continuity alone: were it to check L1's claim
    # too, a wrong monotone verdict would stop the run before L1 saw a pair
    monkeypatch.setattr(genfun, "monotone_witness", lambda fn: (fn.dom.bottom, fn.dom.top))
    report = check_lemma("L1", InstanceGenSpec(seed=1, function_class="continuous", count=20))
    assert report.instances_tried == 20 and len(report.failures) == 20
    for failure in report.failures:
        lat_o = pair_from_json(failure.instance).dom_o
        assert failure.witness == f"F breaks the order at ({lat_o.bottom}, {lat_o.top})"
    assert cli.main(["verify", "--lemma", "L1", "--seed", "1", "--count", "20"]) == 1
    out = capsys.readouterr().out
    assert "failure[0].witness: F breaks the order at (" in out and out.endswith("verify: FAIL\n")


def test_runners_catch_real_violations(c2, d4):
    # constant-bottom forward, collapse-the-atoms back: monotone but not
    # join-continuous, and the fiber at the bottom is the diamond minus
    # its top, which binary closure rejects
    mp = MutualPair(c2, d4, (0, 0), (0, 0, 0, 1))
    assert not is_continuous_pair(mp, BINARY)
    assert _check_l5(mp, BINARY) is not None
    bad = MutualPair(c2, c2, (1, 0), (0, 1))
    assert _check_l1(bad, BINARY) == "F breaks the order at (0, 1)"


def test_check_lemma_is_deterministic():
    a = render_lemma_report(check_lemma("L6", spec(2, function_class="continuous")))
    b = render_lemma_report(check_lemma("L6", spec(2, function_class="continuous")))
    assert a == b
    assert a.splitlines()[0] == "lemma: L6"
    assert a.splitlines()[-1] == "result: PASS"


def test_miner_finds_q1_and_revalidates():
    report = mine_counterexample("Q1", spec(0, family="mixed"), budget=400)
    assert report.finding is not None
    assert report.revalidated is True
    assert report.note == "found"
    text = render_finding_report(report)
    assert "result: found" in text and "revalidated: true" in text


def test_miner_exhausts_q2():
    report = mine_counterexample("Q2", spec(0, family="mixed"), budget=300)
    assert report.finding is None
    assert report.note == "none found (exhaustive up to size 3)"


def test_miner_finds_q3():
    report = mine_counterexample("Q3", spec(0, family="mixed"), budget=400)
    assert report.finding is not None and report.revalidated


def test_miner_budget_truncation():
    report = mine_counterexample("Q2", spec(0, family="mixed"), budget=5)
    assert report.tried == 5
    assert report.note == "none found (search truncated by budget)"


def test_miner_finding_inside_the_sweep_keeps_the_swept_size():
    report = mine_counterexample("Q1", InstanceGenSpec(seed=0), budget=100, max_size=4)
    assert (report.tried, report.randomized) == (85, 0)
    assert report.finding is not None and report.revalidated
    assert report.exhaustive_size == 4


def test_miner_rejects_unknown_question():
    with pytest.raises(ValueError, match="unknown question"):
        mine_counterexample("Q4", spec(0), budget=1)


def test_miner_is_deterministic():
    a = mine_counterexample("Q1", spec(9, family="mixed"), budget=400)
    b = mine_counterexample("Q1", spec(9, family="mixed"), budget=400)
    assert render_finding_report(a) == render_finding_report(b)


WITNESSES = json.loads((Path(__file__).parent / "data" / "lemma_witnesses.json").read_text())
RUNNERS = {"L3": verifier._check_l3, "L4": verifier._check_l4, "L5": verifier._check_l5,
           "L6": verifier._check_l6, "L7": verifier._check_l7, "SFP": verifier._check_sfp,
           "Q1": verifier._q1, "Q2": verifier._q2, "Q3": verifier._q3}


def _witness(runner, mp):
    try:
        return runner(mp, BINARY)
    except NotMonotoneError as exc:
        return f"raises NotMonotoneError: {exc}"


def test_runners_report_the_pinned_first_witness():
    # non-monotone pairs, and monotone but not continuous ones for L4,
    # passed straight to the runners; each string is the first failure
    # in the runner's scan order, recorded from the plain-loop scans
    direct = [r for r in WITNESSES["records"] if r["variant"] == "direct"]
    assert len(direct) >= 30
    non_continuous = [r for r in WITNESSES["records"] if r["variant"] == "non-continuous"]
    assert len(non_continuous) >= 30
    for record in direct + non_continuous:
        mp = pair_from_json(record["instance"])
        for name, want in record["witnesses"].items():
            assert _witness(RUNNERS[name], mp) == want, (name, record["instance"])


def test_sfp_reports_the_pinned_first_witness_when_solvers_are_wrong(monkeypatch):
    # SFP's final scan only fires when all three strategies agree on a
    # wrong pair: hand one direction the other direction's answer
    def greatest_as_least(mp):
        r = verifier.gsfp_direct(mp)
        return SolveResult("direct", r.nu_f, r.nu_g, None, None, (), 0)

    def least_as_greatest(mp):
        r = verifier.lsfp_direct(mp)
        return SolveResult("direct", None, None, r.mu_f, r.mu_g, (), 0)

    swaps = {"least-is-greatest": {"lsfp_direct": greatest_as_least,
                                   "lsfp_product": greatest_as_least,
                                   "lsfp_tarski_oracle": lambda mp: greatest_as_least(mp).mu},
             "greatest-is-least": {"gsfp_direct": least_as_greatest,
                                   "gsfp_product": least_as_greatest,
                                   "gsfp_tarski_oracle": lambda mp: least_as_greatest(mp).nu}}
    records = [r for r in WITNESSES["records"] if r["variant"] in swaps]
    assert len(records) >= 20
    for record in records:
        mp = pair_from_json(record["instance"])
        with monkeypatch.context() as m:
            for name, fake in swaps[record["variant"]].items():
                m.setattr(verifier, name, fake)
            got = verifier._check_sfp(mp, BINARY)
        assert got == record["witnesses"]["SFP"] is not None


def test_subset_closure_matches_the_plain_loop_oracle():
    # row r of the membership matrix is the subset with bitmask r + 1
    for name, lat in corpus():
        if lat.size > 8:
            continue
        n = lat.size
        members = (np.arange(1, 1 << n)[:, None] >> np.arange(n) & 1).astype(bool)
        closed = ~verifier._unclosed_rows(members, lat.meet, lat.join)
        got = [np.flatnonzero(members[r]).tolist() for r in np.flatnonzero(closed)]
        assert got == closed_subsets_oracle(lat.poset.leq.tolist()), name


@functools.cache
def _closed_subsets(leq):
    return closed_subsets_oracle(leq)


def _l4_oracle(mp):
    'The first side and closed subset, in mask order, whose image is not closed, or None.'
    for side, dom, cod, table in (("F", mp.dom_o, mp.dom_p, mp.f),
                                  ("G", mp.dom_p, mp.dom_o, mp.g)):
        leq = tuple(map(tuple, cod.poset.leq.tolist()))
        closed_images = set(map(tuple, _closed_subsets(leq)))
        for s in _closed_subsets(tuple(map(tuple, dom.poset.leq.tolist()))):
            image = sorted({table[i] for i in s})
            if tuple(image) not in closed_images:
                return side, s, sublattice_violation_oracle(leq, image)
    return None


def test_l4_scan_matches_the_plain_loop_oracle():
    found = Counter()
    for family, function_class, mode in iproduct(verifier.FAMILIES, verifier.FUNCTION_CLASSES,
                                                 (BINARY, WITH_EMPTY)):
        s = spec(17, family=family, function_class=function_class, size_hi=10)
        for mp in verifier._instances(s, range(40), mode)[0]:
            if isinstance(mp, GenerationExhausted):
                continue
            want = _l4_oracle(mp)
            got = verifier._check_l4(mp, mode)
            if want is None:
                assert got is None
            else:
                found[function_class] += 1
                side, s_ids, violation = want
                assert got == f"{side} image of sublattice {s_ids} is not closed: {violation}"
    assert found["continuous"] == 0 and found["monotone"] >= 5 and found["arbitrary"] >= 100


def _l4_by_membership_rows(mp):
    """_check_l4 with the image of each generated sublattice marked as a row
    over the codomain and the rows decided by _unclosed_rows, which the
    plain-loop tests check, in place of the bounds of its 16 image pairs."""
    for side, dom, cod, table in (("F", mp.dom_o, mp.dom_p, mp.f),
                                  ("G", mp.dom_p, mp.dom_o, mp.g)):
        x, y = np.triu_indices(dom.size, 1)
        generated = np.stack([x, y, dom.meet[x, y], dom.join[x, y]], axis=1)
        images = np.zeros((len(x), cod.size), dtype=bool)
        images[np.arange(len(x))[:, None], np.asarray(table)[generated]] = True
        bad = np.flatnonzero(verifier._unclosed_rows(images, cod.meet, cod.join))
        if len(bad):
            s = min((sorted(set(generated[r].tolist())) for r in bad),
                    key=lambda s: sum(1 << i for i in s))
            v = cod.sublattice_violation(sorted({table[i] for i in s}))
            return f"{side} image of sublattice {s} is not closed: {v}"
    return None


def test_l4_matches_the_membership_rows_past_sixteen_elements():
    # seeded monotone and arbitrary tables between lattices of 25 to 64
    # elements, each ordered pair of them, past the oracle's 10 elements
    lats = [product(diamond(), chain(16)), product(m3(), n5()), powerset_lattice(5),
            chain(40), product(powerset_lattice(3), chain(8))]
    rng = random.Random(37)
    found = Counter()
    for k, (lat_o, lat_p) in enumerate(iproduct(lats, lats)):
        mono = verifier._monotone_pair(split_seed(k, 0xF0), lat_o, lat_p)
        f = [rng.randrange(lat_p.size) for _ in range(lat_o.size)]
        g = [rng.randrange(lat_o.size) for _ in range(lat_p.size)]
        for mp in (mono, MutualPair(lat_o, lat_p, f, mono.g), MutualPair(lat_o, lat_p, mono.f, g),
                   MutualPair(lat_o, lat_p, f, g)):
            got = verifier._check_l4(mp, BINARY)
            assert got == _l4_by_membership_rows(mp), (lat_o.labels, lat_p.labels, mp.f, mp.g)
            found["none" if got is None else got[0]] += 1
    assert found["F"] + found["G"] >= 50 and found["G"] > 0 and found["none"] > 0, found


def test_the_first_failing_sublattice_is_generated_by_two_of_its_members():
    # the reduction _check_l4 rests on, checked on the all-subsets oracle:
    # two comparable members generate themselves, two incomparable ones four
    small = [lat for _, lat in corpus() if lat.size <= 8]
    sizes = Counter()
    for k, (dom, cod) in enumerate(iproduct(small, small)):
        rng = random.Random(k)
        leq = dom.poset.leq.tolist()
        for _ in range(8):
            f = tuple(rng.randrange(cod.size) for _ in range(dom.size))
            want = _l4_oracle(MutualPair(dom, cod, f, (0,) * cod.size))
            if want is None:
                continue
            s = want[1]
            sizes[len(s)] += 1
            assert any(set(s) == {x, y, glb_scan(leq, [x, y]), lub_scan(leq, [x, y])}
                       for x in s for y in s), s
    assert sizes.keys() <= {2, 4} and sizes[2] >= 200 and sizes[4] >= 5


def test_continuous_rows_decide_continuity_once_per_pair(monkeypatch):
    # gen_continuous_pair accepts a pair by deciding its continuity, so
    # neither the continuous premise of L5 nor the continuity half of the
    # L2 check may scan it again
    real = genfun.pair_continuity_witness
    for lemma_id in ("L2", "L5"):
        decided = []

        def counted(mp, mode):
            decided.append(mp)    # holding the pair keeps its id unique
            return real(mp, mode)
        monkeypatch.setattr(genfun, "pair_continuity_witness", counted)
        report = check_lemma(lemma_id, spec(4, function_class="continuous", count=40))
        assert report.instances_tried == 40 and report.passed
        assert max(Counter(map(id, decided)).values()) == 1, lemma_id


def test_l4_runs_at_every_admitted_size():
    # every size InstanceGenSpec admits, past the 16 elements a subset scan reaches
    for family, size_lo in (("mixed", 2), ("chains", 17)):
        for mode in (BINARY, WITH_EMPTY):
            for size_hi in (17, 20, 64):
                s = spec(0, family=family, size_lo=size_lo, size_hi=size_hi,
                         function_class="continuous", count=24)
                report = check_lemma("L4", s, mode)
                assert report.passed and report.instances_tried > 0, (family, mode, size_hi)


def test_l4_names_a_generated_sublattice_past_sixteen_elements():
    # an F witness into a 20-element lattice
    big = product(diamond(), chain(5))
    mp = MutualPair(diamond(), big, (5, 10, 5, 10), (0,) * big.size)
    assert verifier._check_l4(mp, BINARY) == (
        "F image of sublattice [0, 1] is not closed: ('meet', 5, 10, 0)")
    # on a 64-element domain, with (i, j) at id 16 i + j: F sends (1, 14) and
    # (1, 15) to atom 1 of M3, (2, 14) and (2, 15) to atom 2, and the rest to
    # the bottom, so a sublattice fails exactly when it holds one of each
    # pair; the first by mask is the one (1, 14) and (2, 14) generate
    dom = product(diamond(), chain(16))
    f = [0] * dom.size
    f[30] = f[31] = 1
    f[46] = f[47] = 2
    mp = MutualPair(dom, m3(), tuple(f), (0,) * 5)
    assert verifier._check_l4(mp, BINARY) == (
        "F image of sublattice [14, 30, 46, 62] is not closed: ('join', 1, 2, 4)")


# products past the witness pins' sizes: 16 to 25 elements, non-modular
# factors among them
CLOSURE_LATTICES = (product(m3(), chain(4)), product(n5(), chain(4)), product(m3(), n5()),
                    product(n5(), n5()), product(diamond(), diamond()))


def _fiber_references(mp, kinds, pinned):
    'Every failing fiber in _check_l5\'s scan order and words, by plain loops.'
    pre, post = point_classes_oracle(mp.dom_o.poset.leq.tolist(), mp.dom_p.poset.leq.tolist(),
                                     mp.f, mp.g)
    masks = {"pre": pre, "post": post}
    for side, partner, image, name in (("O", mp.dom_p, mp.f, "F(o)"),
                                       ("P", mp.dom_o, mp.g, "G(p)")):
        leq = partner.poset.leq.tolist()
        for a in range(len(image)):
            for kind in kinds:
                fib = [b for b in range(partner.size)
                       if (masks[kind][a][b] if side == "O" else masks[kind][b][a])]
                if not fib:
                    continue
                v = partner.sublattice_violation(fib)
                if v is not None:
                    yield f"{kind} fiber at {side}={a} is not a complete sublattice: {v}"
                elif pinned and kind == "pre" and glb_scan(leq, fib) != image[a]:
                    yield f"glb of the pre fiber at {side}={a} is not {name}"
                elif pinned and kind == "post" and lub_scan(leq, fib) != image[a]:
                    yield f"lub of the post fiber at {side}={a} is not {name}"


def _component_references(mp, names):
    'Every failing component set in the order C, D, E, F, by plain loops.'
    pre, post = point_classes_oracle(mp.dom_o.poset.leq.tolist(), mp.dom_p.poset.leq.tolist(),
                                     mp.f, mp.g)
    o_ids, p_ids = range(mp.dom_o.size), range(mp.dom_p.size)
    sets = {"C": (mp.dom_o, [o for o in o_ids if any(pre[o])], "top"),
            "D": (mp.dom_p, [p for p in p_ids if any(pre[o][p] for o in o_ids)], "top"),
            "E": (mp.dom_o, [o for o in o_ids if any(post[o])], "bottom"),
            "F": (mp.dom_p, [p for p in p_ids if any(post[o][p] for o in o_ids)], "bottom")}
    for name in names:
        lat, ids, where = sets[name]
        v = lat.sublattice_violation(ids)
        if v is not None:
            yield f"component set {name} is not a complete sublattice: {v}"
        elif (lat.top if where == "top" else lat.bottom) not in ids:
            yield f"component set {name} misses the {where}"


def _closure_references(mp):
    'The L5, L6, Q1 and Q3 witnesses of mp by plain loops.'
    q1 = (None if is_continuous_pair(mp, BINARY)
          else next(_fiber_references(mp, ("pre",), pinned=False), None))
    return {"L5": next(_fiber_references(mp, ("pre", "post"), pinned=True), None),
            "L6": next(_component_references(mp, "CDEF"), None),
            "Q1": q1, "Q3": next(_component_references(mp, "CD"), None)}


def _closure_pairs():
    """Seeded continuous, monotone and arbitrary pairs on each lattice of
    CLOSURE_LATTICES with itself and with the next one."""
    lats = CLOSURE_LATTICES
    for k in range(len(lats)):
        for lat_o, lat_p in ((lats[k], lats[k]), (lats[k], lats[(k + 1) % len(lats)])):
            for seed in range(3):
                yield gen_continuous_pair(seed, lat_o, lat_p, BINARY)
                yield gen_monotone_pair(spec(seed), lat_o, lat_p)
                rng = random.Random(seed)
                yield MutualPair(lat_o, lat_p,
                                 tuple(rng.randrange(lat_p.size) for _ in range(lat_o.size)),
                                 tuple(rng.randrange(lat_o.size) for _ in range(lat_p.size)))


def test_closure_runners_match_plain_loops_on_larger_products():
    runners = {"L5": verifier._check_l5, "L6": verifier._check_l6,
               "Q1": verifier._q1, "Q3": verifier._q3}
    found = Counter()
    for mp in _closure_pairs():
        want = _closure_references(mp)
        for name, runner in runners.items():
            got = runner(mp, BINARY)
            assert got == want[name], (name, mp.dom_o.labels, mp.dom_p.labels, mp.f, mp.g)
            found[name, "none" if got is None else got.split(" ")[0]] += 1
    # every runner meets passing pairs and closure failures; L5 also meets bound failures
    for name in runners:
        assert found[name, "none"] > 0, (name, found)
    for key in (("L5", "pre"), ("L5", "glb"), ("L6", "component"), ("Q1", "pre"),
                ("Q3", "component")):
        assert found[key] > 0, (key, found)


def test_unclosed_rows_matches_a_plain_pair_loop():
    rng = random.Random(5)
    for lat in CLOSURE_LATTICES:
        n, leq = lat.size, lat.poset.leq
        meet, join = lat.meet.tolist(), lat.join.tolist()
        rows = [[False] * n] + [[j == i for j in range(n)] for i in range(n)]
        # intervals [x, y] are closed, or empty when x is not below y
        rows += [(leq[x] & leq[:, y]).tolist() for x in range(n) for y in range(n)]
        rows += [[rng.random() < density for _ in range(n)]
                 for density in (0.05, 0.2, 0.5, 0.9) for _ in range(1000)]
        got = verifier._unclosed_rows(np.array(rows, dtype=bool), lat.meet, lat.join)
        want = [any(row[a] and row[b] and not (row[meet[a][b]] and row[join[a][b]])
                    for a in range(n) for b in range(n)) for row in rows]
        assert got.tolist() == want, lat.labels
        assert 0 < sum(want) < len(want)


def test_each_runner_names_its_witness_with_one_sublattice_scan(monkeypatch):
    # an arbitrary pair on D4 x D4 with many failing fibers and both
    # failing component sets: the kernel decides them all, and only the
    # first failure is scanned again to name its witness
    lat = CLOSURE_LATTICES[-1]
    rng = random.Random(2)
    mp = MutualPair(lat, lat, tuple(rng.randrange(16) for _ in range(16)),
                    tuple(rng.randrange(16) for _ in range(16)))
    assert len(list(_fiber_references(mp, ("pre", "post"), pinned=True))) >= 10
    assert len(list(_component_references(mp, "CDEF"))) >= 2
    calls = []
    real = FiniteLattice.sublattice_violation

    def counted(self, s):
        calls.append(s)
        return real(self, s)
    monkeypatch.setattr(FiniteLattice, "sublattice_violation", counted)
    for runner in (verifier._check_l4, verifier._check_l5, verifier._check_l6,
                   verifier._q1, verifier._q3):
        calls.clear()
        witness = runner(mp, BINARY)
        assert witness is not None and len(calls) == 1, (runner.__name__, witness, calls)


def test_the_extreme_pairs_hold_for_any_tables_so_l6_never_misses_a_bound():
    # F(top) <= top and G(top) <= top, dually at the bottom, so the top pair
    # is pre-fixed and the bottom pair post-fixed whatever the tables are:
    # C and D always hold the top and E and F the bottom, and L6's
    # "misses the top/bottom" branch only guards that invariant
    rng = random.Random(6)
    pool = [chain(1), chain(4), diamond(), m3(), n5(), product(n5(), chain(2)),
            product(diamond(), m3())]
    for _ in range(400):
        lat_o, lat_p = rng.choice(pool), rng.choice(pool)
        mp = MutualPair(lat_o, lat_p, [rng.randrange(lat_p.size) for _ in range(lat_o.size)],
                        [rng.randrange(lat_o.size) for _ in range(lat_p.size)])
        pre, post = point_masks(mp)
        assert pre[lat_o.top, lat_p.top] and post[lat_o.bottom, lat_p.bottom]
        cs = component_sets(mp)
        assert lat_o.top in cs.c and lat_p.top in cs.d
        assert lat_o.bottom in cs.e and lat_p.bottom in cs.fset
        found = verifier._check_l6(mp, BINARY)
        assert found is None or "misses" not in found


# ------------------------------------------------------------ verify blocks

def reference_instance(spec, index, mode):
    """Instance index of spec drawn alone, as the per-index path that the
    blocks replaced drew it, kept as the reference: its seeds by split_seed,
    and a monotone pair self-checked by itself."""
    child = split_seed(spec.seed, index)
    slot3 = split_seed(child, 3)
    mp = verifier._draw(spec, (split_seed(child, 1), split_seed(child, 2), slot3,
                               split_seed(slot3, 0xF0)), mode)
    if spec.function_class == "monotone":
        verifier._self_checked([mp])
    return mp


def reference_check_lemma(lemma_id, spec, mode):
    'check_lemma as the per-index loop that the blocks replaced, kept as the reference.'
    title, premise, runner = LEMMAS[lemma_id]
    report = verifier.LemmaReport(lemma_id, title, mode.kind, spec.function_class)
    for i in range(spec.count):
        mp = reference_instance(spec, i, mode)
        if isinstance(mp, GenerationExhausted):
            report.generation_failures += 1
            continue
        report.instances_tried += 1
        if premise != spec.function_class and not verifier._premise_holds(premise, mp, mode):
            report.premise_skipped += 1
            continue
        witness = runner(mp, mode)
        if witness is not None:
            report.failures.append(verifier.Finding(textio.pair_to_json(mp), witness))
    return report


@pytest.mark.parametrize("family", ["corpus", "mixed"])
@pytest.mark.parametrize("mode", [BINARY, WITH_EMPTY], ids=lambda m: m.kind)
def test_check_lemma_reports_what_the_per_index_loop_reports(family, mode):
    # 130 instances are two whole blocks and a partial third
    exhausted = 0
    for row, (lemma_id, function_class) in enumerate(cli.VERIFY_PLAN):
        s = spec(split_seed(9, row), family=family, function_class=function_class,
                 size_hi=8, count=130)
        got = check_lemma(lemma_id, s, mode)
        assert got == reference_check_lemma(lemma_id, s, mode), (lemma_id, function_class)
        exhausted += got.generation_failures
    assert exhausted > 0 or mode == BINARY


@pytest.mark.parametrize("count", [0, 1, verifier.BLOCK, verifier.BLOCK + 1, 130])
def test_a_row_derives_its_seeds_once_per_block(monkeypatch, count):
    calls, real = [], verifier._slot_seeds
    monkeypatch.setattr(verifier, "_slot_seeds",
                        lambda seed, indices: calls.append(indices) or real(seed, indices))
    for function_class in verifier.FUNCTION_CLASSES:
        calls.clear()
        report = check_lemma("L1", spec(3, function_class=function_class, count=count))
        assert len(calls) == -(-count // verifier.BLOCK)
        assert [i for block in calls for i in block] == list(range(count))
        assert report.instances_tried + report.generation_failures == count


def test_a_traced_continuous_row_calls_the_generator_once_per_instance(monkeypatch):
    # the benchmark's tracer wraps gen_continuous_pair in the module
    # namespace and counts its GenerationExhausted raises as failed draws
    calls, raised, real = [], [], verifier.gen_continuous_pair

    def traced(*args, **kwargs):
        calls.append(args)
        try:
            return real(*args, **kwargs)
        except GenerationExhausted:
            raised.append(args)
            raise
    monkeypatch.setattr(verifier, "gen_continuous_pair", traced)
    s = spec(9, family="corpus", function_class="continuous", size_hi=8, count=130)
    for lemma_id in ("L1", "L5"):
        calls.clear()
        raised.clear()
        report = check_lemma(lemma_id, s, WITH_EMPTY)
        assert len(calls) == s.count and report.generation_failures == len(raised) > 0


# ------------------------------------------------------------ miner blocks

def reference_mine(question, spec, budget, max_size=3, mode=BINARY):
    """The per-pair miner loop that the blocks replaced, kept as the
    reference: each try is generated, self-checked and asked alone."""
    pred = verifier.QUESTIONS[question]
    spec = replace(spec, function_class="monotone")
    sweep = verifier._sweep(max_size)
    tried = randomized = 0
    finding = revalidated = None
    while finding is None and tried < budget:
        mp = next(sweep, None)
        if mp is None:
            mp = reference_instance(spec, tried, mode)
            randomized += 1
        tried += 1
        witness = pred(mp, mode)
        if witness is not None:
            finding = verifier.Finding(textio.pair_to_json(mp), witness)
            revalidated = verifier._revalidate(question, finding.instance, witness, mode)
    size = None
    if finding is not None or randomized or next(sweep, None) is None:
        size = min((max(lat_o.size, lat_p.size) - 1
                    for lat_o, lat_p, fits in verifier._shape_pairs(max_size) if not fits),
                   default=max_size)
    return verifier.FindingReport(question, mode.kind, tried, size, randomized, finding,
                                  revalidated)


@pytest.fixture
def shared_tries(monkeypatch):
    """Each instance drawn once, each sweep listed once, and the Q1 and Q3
    runners asked once per pair, for every miner run of a test: the blocks,
    the stacked Q2 kernel and the reference loop still run in full."""
    monkeypatch.setattr(verifier, "_draw", functools.cache(verifier._draw))
    sweeps, real_sweep = {}, verifier._sweep

    def listed(max_size):
        if max_size not in sweeps:
            sweeps[max_size] = list(real_sweep(max_size))
        return iter(sweeps[max_size])
    monkeypatch.setattr(verifier, "_sweep", listed)
    for question in ("Q1", "Q3"):
        # an asked pair is kept with its witness, so no id is reused
        asked, runner = {}, verifier.QUESTIONS[question]

        def once(mp, mode, asked=asked, runner=runner):
            if (id(mp), mode) not in asked:
                asked[id(mp), mode] = mp, runner(mp, mode)
            return asked[id(mp), mode][1]
        monkeypatch.setitem(verifier.QUESTIONS, question, once)


B = verifier.BLOCK


@pytest.mark.parametrize("question", ["Q1", "Q2", "Q3"])
def test_block_miner_reports_what_the_per_pair_loop_reports(question, shared_tries):
    # the budgets cut blocks at, around and between block and sweep ends
    # (the sweep has 157 tries at max_size 3, 2 at max_size 2, none at 0)
    found = Counter()
    for seed in range(20):
        for max_size in (0, 2, 3, 4):
            for budget in (0, 1, B - 1, B, B + 1, 156, 157, 158, 400, 600):
                got = mine_counterexample(question, spec(seed), budget, max_size)
                assert got == reference_mine(question, spec(seed), budget, max_size), (
                    seed, max_size, budget)
                found[got.note, got.randomized > 0, got.revalidated] += 1
    # Q2 never fires; Q1 finds inside the sweep at max_size 4 and Q3 does not
    notes = {note for note, _, _ in found}
    assert notes >= {"none found (search truncated by budget)",
                     *(f"none found (exhaustive up to size {n})" for n in (0, 2, 3))}
    assert ("found" in notes) == (question != "Q2")
    assert bool(found["found", True, True]) == (question != "Q2")
    assert bool(found["found", False, True]) == (question == "Q1")
    assert not found["found", True, False] and not found["found", False, False]


def test_q1_and_q3_at_seed_0_still_stop_at_try_169():
    for question in ("Q1", "Q3"):
        report = mine_counterexample(question, spec(0), 500, 3)
        assert (report.tried, report.randomized) == (169, 12)
        assert report.finding is not None and report.revalidated


def _mixed_block_pairs():
    """Seeded pairs on chains of 1-8 elements, the diamond, N5, powersets and
    random-closed lattices: monotone pairs, pairs with one arbitrary side,
    and arbitrary pairs, so F and G each break the order somewhere."""
    rng = random.Random(31)
    lats = [chain(n) for n in range(1, 9)] + [diamond(), n5()] + [
        powerset_lattice(k) for k in range(4)] + [
        verifier._random_closed(random.Random(s), 2, 8) for s in range(8)]
    pairs = []
    for i in range(150):
        lat_o, lat_p = rng.choice(lats), rng.choice(lats)
        mono = verifier._monotone_pair(split_seed(i, 0xF0), lat_o, lat_p)
        f = [rng.randrange(lat_p.size) for _ in range(lat_o.size)]
        g = [rng.randrange(lat_o.size) for _ in range(lat_p.size)]
        pairs.append([mono, MutualPair(lat_o, lat_p, f, mono.g),
                      MutualPair(lat_o, lat_p, mono.f, g), MutualPair(lat_o, lat_p, f, g)][i % 4])
    return pairs


def test_stacked_kernels_match_the_one_pair_kernels_on_mixed_blocks():
    # the stacked pre_mask is each pair's, and the block check refuses a
    # block exactly when one pair's own scan fails; alone, some pairs pass
    # and others fail at F or at G
    pairs = _mixed_block_pairs()
    sides, verdicts = Counter(), Counter()
    blocks = [pairs[0:1], pairs[1:2], pairs[2:9], pairs[9:9 + B], pairs[9 + B:]]
    for block in blocks + [[mp] for mp in pairs]:
        stack = verifier._stack(block)
        k = max(max(mp.dom_o.size, mp.dom_p.size) for mp in block)
        assert [a.shape for a in stack] == [(len(block), k, k)] * 2 + [(len(block), k)] * 2
        for mp, pre in zip(block, pre_mask(*stack)):
            n, m = mp.dom_o.size, mp.dom_p.size
            want = pre_mask(mp.dom_o.poset.leq, mp.dom_p.poset.leq, np.asarray(mp.f),
                            np.asarray(mp.g))
            assert (pre[:n, :m] == want).all()
            assert not pre[n:].any() and not pre[:, m:].any()
        failures = [_first_monotone_failure((("F", mp.f_fn), ("G", mp.g_fn))) for mp in block]
        if len(block) == 1:
            sides["none" if failures[0] is None else failures[0][0]] += 1
        if any(failures):
            with pytest.raises(AssertionError):
                verifier._self_checked(block)
        else:
            verifier._self_checked(block)
        verdicts[any(failures)] += 1
    assert sides["none"] and sides["F"] and sides["G"], sides
    assert verdicts[True] and verdicts[False], verdicts


def _plant(monkeypatch, position, side):
    """Turn the order round in the table of side ("F" or "G") of the pair at
    position of the next block: its bottom goes to the top and its top to
    the bottom. Every table is still drawn, so the stream is unchanged."""
    real, calls = verifier._monotone_table, []

    def planted(rng, dom, cod):
        table = list(real(rng, dom, cod))
        calls.append(None)
        if len(calls) == 2 * position + (side == "G") + 1:
            table[dom.bottom], table[dom.top] = cod.top, cod.bottom
        return tuple(table)
    monkeypatch.setattr(verifier, "_monotone_table", planted)


@pytest.mark.parametrize("side", ["F", "G"])
@pytest.mark.parametrize("position", [0, B // 2, B - 1], ids=["first", "middle", "last"])
def test_a_non_monotone_table_anywhere_in_a_block_fails_generation(monkeypatch, position,
                                                                    side):
    s = spec(4, function_class="monotone")
    pairs, _ = verifier._instances(s, range(B), BINARY)
    assert all(vars(mp)["monotone_failure"] is None for mp in pairs)
    _plant(monkeypatch, position, side)
    with pytest.raises(AssertionError):
        verifier._instances(s, range(B), BINARY)
    # the miner's first block of tries at max_size 0 is the same block
    _plant(monkeypatch, position, side)
    with pytest.raises(AssertionError):
        mine_counterexample("Q2", s, B, max_size=0)


def _holds(mp, leq_o, leq_p, f, g) -> bool:
    'Whether one slice of a stack, padded or not, holds the orders and tables of mp.'
    for lat, leq, table, want in ((mp.dom_o, leq_o, f, mp.f), (mp.dom_p, leq_p, g, mp.g)):
        n = lat.size
        # a real element is below itself, so all-false rows from n on are padding
        if leq[n:].any() or len(table) < n or table[n:].any() or table[:n].tolist() != list(want):
            return False
        if not (leq[:n, :n] == lat.poset.leq).all():
            return False
    return True


@pytest.mark.parametrize("side", ["O", "P"])
def test_a_q2_hit_planted_in_pre_mask_is_reported_alike(monkeypatch, side):
    # clearing the chosen try's pre-fixed row at the top of O (or column at
    # the top of P) leaves that top outside its component set; the try is
    # one whose F misses the top of P, so the P side's clearing leaves every
    # row of O covered and the witness names P
    s = spec(3, function_class="monotone")
    index, chosen = next((i, mp) for i in range(200, 600)
                         if (mp := reference_instance(s, i, BINARY)).dom_p.top not in mp.f)
    real = verifier.pre_mask

    def cleared(leq_o, leq_p, f, g):
        pre = real(leq_o, leq_p, f, g)
        for b in range(len(f)):
            if _holds(chosen, leq_o[b], leq_p[b], f[b], g[b]):
                if side == "O":
                    pre[b, chosen.dom_o.top, :] = False
                else:
                    pre[b, :, chosen.dom_p.top] = False
        return pre
    monkeypatch.setattr(verifier, "pre_mask", cleared)
    got = mine_counterexample("Q2", s, 600, 3)
    want = reference_mine("Q2", s, 600, 3)
    assert got == want
    assert got.tried <= index + 1 and got.finding.witness.startswith(side + "=")
