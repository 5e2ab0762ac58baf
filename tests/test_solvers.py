"""Solver strategies, proof principles, and implicit Kleene iteration.

The three strategies share no code beyond the lattice tables, so their
agreement on every monotone pair is the main correctness check. The
standard embedding is checked against a plain candidate-scan fixed
point oracle. Implicit Kleene iteration, given only a start pair, the
paired step and equality, must reach the product strategy's limits in
the same number of steps.
"""
from itertools import product as iproduct
from operator import eq

import pytest

from mucofix import (InstanceGenSpec, MutualPair, NonTerminationError,
                     NotMonotoneError, PairPoint, Verdict, chain,
                     check_mutual_coinduction, check_mutual_induction,
                     corpus_lattice, diamond, ensure_monotone, gen_lattice,
                     gen_monotone_pair, gsfp_direct, gsfp_product,
                     gsfp_tarski_oracle, is_monotone, is_sim_fixed,
                     is_sim_postfixed, is_sim_prefixed, kleene_implicit,
                     lsfp_direct, lsfp_product, lsfp_tarski_oracle, split_seed,
                     standard_embed)

from oracles import gfp_scan, lfp_scan, longest_chain_edges


def all_monotone_pairs(lat_o, lat_p):
    for f in iproduct(range(lat_p.size), repeat=lat_o.size):
        for g in iproduct(range(lat_o.size), repeat=lat_p.size):
            mp = MutualPair(lat_o, lat_p, f, g)
            if is_monotone(mp.f_fn) and is_monotone(mp.g_fn):
                yield mp


def test_direct_solutions_on_fixtures(k1, id2, swap):
    assert lsfp_direct(k1).mu == PairPoint(1, 1)
    assert gsfp_direct(k1).nu == PairPoint(1, 1)
    assert lsfp_direct(id2).mu == PairPoint(0, 0)
    assert gsfp_direct(id2).nu == PairPoint(1, 1)
    assert lsfp_direct(swap).mu == PairPoint(0, 0)
    assert gsfp_direct(swap).nu == PairPoint(3, 3)


def test_direct_rejects_non_monotone(c2):
    mp = MutualPair(c2, c2, (1, 0), (0, 1))
    with pytest.raises(NotMonotoneError, match="F breaks the order at"):
        lsfp_direct(mp)
    mp = MutualPair(c2, c2, (0, 1), (1, 0))
    with pytest.raises(NotMonotoneError, match="G breaks the order at"):
        ensure_monotone(mp)


def test_product_trace_on_k1(k1):
    res = lsfp_product(k1)
    assert res.strategy == "product-explicit"
    assert res.mu == PairPoint(1, 1)
    assert res.iterations == 3
    assert res.trace == (PairPoint(0, 0), PairPoint(1, 0),
                         PairPoint(1, 1), PairPoint(1, 1))


def test_product_trace_on_id2(id2):
    res = lsfp_product(id2)
    assert res.trace == (PairPoint(0, 0), PairPoint(0, 0))
    assert res.iterations == 1


def test_trace_is_a_chain_within_height_bound():
    # an ascending strict run is capped by the product height; the trace
    # adds the start and the confirming repeat
    lat_o, lat_p = diamond(), chain(3)
    ho = longest_chain_edges(lat_o.poset.leq.tolist())
    hp = longest_chain_edges(lat_p.poset.leq.tolist())
    for mp in all_monotone_pairs(lat_o, chain(2)):
        res = lsfp_product(mp)
        assert len(res.trace) <= ho + 1 + 2
        for a, b in zip(res.trace, res.trace[1:]):
            assert mp.dom_o.leq(a.o, b.o) and mp.dom_p.leq(a.p, b.p)
        down = gsfp_product(mp)
        for a, b in zip(down.trace, down.trace[1:]):
            assert mp.dom_o.leq(b.o, a.o) and mp.dom_p.leq(b.p, a.p)


@pytest.mark.parametrize("lat_o,lat_p", [
    (chain(2), chain(2)),
    (chain(2), diamond()),
    (chain(3), chain(3)),
])
def test_strategies_agree_exhaustively(lat_o, lat_p):
    for mp in all_monotone_pairs(lat_o, lat_p):
        mu = lsfp_direct(mp).mu
        assert lsfp_product(mp).mu == mu
        assert lsfp_tarski_oracle(mp) == mu
        assert is_sim_fixed(mp, mu)
        nu = gsfp_direct(mp).nu
        assert gsfp_product(mp).nu == nu
        assert gsfp_tarski_oracle(mp) == nu
        assert is_sim_fixed(mp, nu)
        assert mp.dom_o.leq(mu.o, nu.o) and mp.dom_p.leq(mu.p, nu.p)


def test_least_and_greatest_are_extremal(swap):
    mu, nu = lsfp_direct(swap).mu, gsfp_direct(swap).nu
    for o in range(4):
        for p in range(4):
            pt = PairPoint(o, p)
            if is_sim_prefixed(swap, pt):
                assert swap.dom_o.leq(mu.o, o) and swap.dom_p.leq(mu.p, p)
            if is_sim_postfixed(swap, pt):
                assert swap.dom_o.leq(o, nu.o) and swap.dom_p.leq(p, nu.p)


def test_standard_embedding_matches_scan_oracle():
    c2, c3 = chain(2), chain(3)
    assert lsfp_direct(standard_embed(c2, (1, 1))).mu_f == 1
    assert lsfp_direct(standard_embed(c3, (1, 1, 2))).mu_f == 1
    for lat in (c3, diamond(), corpus_lattice("N5")):
        leq = lat.poset.leq.tolist()
        for t in iproduct(range(lat.size), repeat=lat.size):
            mp = standard_embed(lat, t)
            if not is_monotone(mp.f_fn):
                continue
            assert lsfp_direct(mp).mu_f == lfp_scan(t, leq)
            assert gsfp_direct(mp).nu_f == gfp_scan(t, leq)


def test_standard_embed_validates_fn(c2, d4):
    from mucofix import LatticeFn
    with pytest.raises(ValueError):
        standard_embed(c2, LatticeFn(d4, d4, (0, 1, 2, 3)))
    mp = standard_embed(c2, LatticeFn.endo(c2, (1, 1)))
    assert mp.g == (0, 1)


def test_implicit_engine_matches_explicit(k1, swap):
    # kleene_implicit on the (o, p) id pairs, with the paired step, must reach
    # the product strategy's limits in the same number of steps
    seeded = [gen_monotone_pair(InstanceGenSpec(seed=seed),
                                gen_lattice(InstanceGenSpec(seed=split_seed(seed, 1))),
                                gen_lattice(InstanceGenSpec(seed=split_seed(seed, 2))))
              for seed in range(6)]
    for mp in [k1, swap] + seeded:
        step = lambda op: (mp.g[op[1]], mp.f[op[0]])
        least, greatest = lsfp_product(mp), gsfp_product(mp)
        up = kleene_implicit((mp.dom_o.bottom, mp.dom_p.bottom), step, eq)
        assert PairPoint(*up.limit) == least.mu and up.iterations == least.iterations
        down = kleene_implicit((mp.dom_o.top, mp.dom_p.top), step, eq)
        assert PairPoint(*down.limit) == greatest.nu
        assert down.iterations == greatest.iterations


def test_verdicts(k1, id2):
    assert check_mutual_induction(k1, PairPoint(1, 1)) is Verdict.PASS
    assert check_mutual_induction(k1, PairPoint(0, 1)) is Verdict.NOT_APPLICABLE
    assert check_mutual_coinduction(k1, PairPoint(1, 0)) is Verdict.PASS
    assert check_mutual_coinduction(id2, PairPoint(1, 0)) is Verdict.NOT_APPLICABLE
    assert Verdict.PASS.value == "Pass"
    assert Verdict.NOT_APPLICABLE.value == "NotApplicable"


def test_induction_passes_on_every_applicable_pair(swap):
    # with monotone generators the principle can never return FAIL
    for o in range(4):
        for p in range(4):
            pt = PairPoint(o, p)
            assert check_mutual_induction(swap, pt) in (
                Verdict.PASS, Verdict.NOT_APPLICABLE)
            assert check_mutual_coinduction(swap, pt) in (
                Verdict.PASS, Verdict.NOT_APPLICABLE)


def test_kleene_budget():
    flip = lambda x: 1 - x
    with pytest.raises(NonTerminationError) as exc:
        kleene_implicit(0, flip, eq, budget=10)
    assert exc.value.budget == 10
    run = kleene_implicit(0, lambda x: 1, eq, budget=5)
    assert run.limit == 1 and run.iterations == 2
    # the confirming step counts against the budget too
    with pytest.raises(NonTerminationError):
        kleene_implicit(0, lambda x: min(x + 1, 3), eq, budget=3)
    assert kleene_implicit(0, lambda x: min(x + 1, 3), eq, budget=4).iterations == 4
    with pytest.raises(ValueError):
        kleene_implicit(0, flip, eq, budget=0)
