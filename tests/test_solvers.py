"""Solver strategies, proof principles, and implicit Kleene iteration.

The direct strategy and the Tarski oracle solve the greatest pair as the
least pair of the dual pair, while the product strategy iterates down
from the top pair of the given lattices; their agreement on every
monotone pair is the main correctness check, and a plain Kleene oracle
checks all three against the given tables. The Tarski fold must also
equal a pair-by-pair loop on pairs of up to 340 elements a side, and
plain Kleene on a pair of chains at the element cap. The standard embedding is
checked against a plain candidate-scan fixed point oracle. Implicit
Kleene iteration, given only a start pair, the paired step, equality
and a height, must reach the product strategy's limits in the same
number of steps.
"""
import random
from itertools import product as iproduct
from operator import eq

import numpy as np
import pytest

from mucofix import (FinitePoset, InstanceGenSpec, MutualPair, NotMonotoneError, PairPoint,
                     Verdict, chain, check_mutual_coinduction,
                     check_mutual_induction, corpus, diamond,
                     dual_pair, ensure_monotone, gen_lattice, gen_monotone_pair,
                     gsfp_direct, gsfp_product, gsfp_tarski_oracle, is_monotone,
                     is_sim_fixed, is_sim_postfixed, is_sim_prefixed,
                     kleene_implicit, lsfp_direct, lsfp_product,
                     lsfp_tarski_oracle, m3, n5, product, split_seed, standard_embed,
                     validate_lattice)
from mucofix.genfun import BINARY
from mucofix.lattice import DEFAULT_CAP
from mucofix.solvers import _tarski_meet
from mucofix.verifier import FAMILIES, _check_l1, _instances, _sweep

from oracles import (gfp_scan, lfp_scan, longest_chain_edges, lub_scan,
                     monotone_witness_oracle, sim_kleene_oracle, tarski_meet_oracle)

SOLVERS = (lsfp_direct, gsfp_direct, lsfp_product, gsfp_product,
           lsfp_tarski_oracle, gsfp_tarski_oracle)


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


def monotone_by_scan(rng, dom, cod):
    'x to the lub scan of random images of the down-set of x: monotone, read off the orders only.'
    images = [rng.randrange(cod.size) for _ in range(dom.size)]
    below, rel = dom.poset.leq.T.tolist(), cod.poset.leq.tolist()
    return tuple(lub_scan(rel, [images[y] for y in range(dom.size) if row[y]]) for row in below)


def test_strategies_agree_over_orders_in_any_layout():
    # the 3x3 grid's dual as a transposed view and the grid in Fortran
    # order, neither C-ordered; every strategy must reach plain Kleene
    grid = product(chain(3), chain(3)).poset
    lat_o = validate_lattice(FinitePoset(grid.labels, grid.leq.T))
    lat_p = validate_lattice(FinitePoset(grid.labels, np.asfortranarray(grid.leq)))
    rng = random.Random(3)
    for _ in range(40):
        f, g = monotone_by_scan(rng, lat_o, lat_p), monotone_by_scan(rng, lat_p, lat_o)
        mp = MutualPair(lat_o, lat_p, f, g)
        mu = PairPoint(*sim_kleene_oracle(f, g, (lat_o.bottom, lat_p.bottom)))
        nu = PairPoint(*sim_kleene_oracle(f, g, (lat_o.top, lat_p.top)))
        assert [lsfp_direct(mp).mu, lsfp_product(mp).mu, lsfp_tarski_oracle(mp)] == [mu] * 3
        assert [gsfp_direct(mp).nu, gsfp_product(mp).nu, gsfp_tarski_oracle(mp)] == [nu] * 3


def greatest_by_every_route(mp):
    'The greatest pair by direct, as the least of the dual, by the oracle and by plain Kleene.'
    top = (mp.dom_o.top, mp.dom_p.top)
    return (gsfp_direct(mp).nu, lsfp_direct(dual_pair(mp)).mu, gsfp_tarski_oracle(mp),
            PairPoint(*sim_kleene_oracle(mp.f, mp.g, top)))


def test_greatest_is_the_least_of_the_dual_on_small_corpus_shapes():
    small = [lat for _, lat in corpus() if lat.size <= 3]
    for lat_o, lat_p in iproduct(small, repeat=2):
        for mp in all_monotone_pairs(lat_o, lat_p):
            nu, *others = greatest_by_every_route(mp)
            assert others == [nu] * 3


def seeded_monotone_table(rng, dom, cod, generators=6):
    """A monotone table: at each x, the meet of a join of random images of
    a few elements below x and a meet of random images of a few above."""
    leq = dom.poset.leq
    low = np.full(dom.size, cod.bottom)
    high = np.full(dom.size, cod.top)
    for a in rng.sample(range(dom.size), generators):
        low[leq[a]] = cod.join[low[leq[a]], rng.randrange(cod.size)]
    for a in rng.sample(range(dom.size), generators):
        high[leq[:, a]] = cod.meet[high[leq[:, a]], rng.randrange(cod.size)]
    return cod.meet[low, high].tolist()


@pytest.mark.parametrize("seed", range(3))
def test_greatest_is_the_least_of_the_dual_on_large_pairs(seed):
    rng = random.Random(seed)
    shapes = (chain(300), product(chain(15), chain(20)))
    for lat_o, lat_p in iproduct(shapes, repeat=2):
        mp = MutualPair(lat_o, lat_p, seeded_monotone_table(rng, lat_o, lat_p),
                        seeded_monotone_table(rng, lat_p, lat_o))
        assert is_monotone(mp.f_fn) and is_monotone(mp.g_fn)
        nu, *others = greatest_by_every_route(mp)
        assert others == [nu] * 3
        assert nu != PairPoint(lat_o.top, lat_p.top)


def clamped_table(rng, dom, cod):
    """seeded_monotone_table joined with an element c above bottom, then
    met with a d >= c below top. That keeps it monotone, and puts every
    image in [c, d], so neither extremal pair is the bound it starts from."""
    inner = [x for x in range(cod.size) if x not in (cod.bottom, cod.top)]
    c = rng.choice(inner)
    d = rng.choice([x for x in inner if cod.poset.leq[c, x]])
    return cod.meet[cod.join[seeded_monotone_table(rng, dom, cod), c], d].tolist()


@pytest.mark.parametrize("seed", range(2))
def test_tarski_folds_match_plain_kleene_on_large_and_non_distributive_pairs(seed):
    # both folds against iteration from the bottom and the top pair, and
    # against the pair-by-pair oracle; the greatest fold reads the
    # transposed order and swapped tables of the dual
    rng = random.Random(seed)
    line, grid = chain(300), product(chain(17), chain(20))
    m3n5, n5m3 = product(m3(), n5()), product(n5(), m3())
    shapes = [(line, grid), (grid, line), (line, line), (grid, grid), (m3n5, n5m3),
              (n5m3, m3n5), (m3n5, line), (grid, n5m3)]
    for lat_o, lat_p in shapes:
        mp = MutualPair(lat_o, lat_p, clamped_table(rng, lat_o, lat_p),
                        clamped_table(rng, lat_p, lat_o))
        assert is_monotone(mp.f_fn) and is_monotone(mp.g_fn)
        bottom, top = (lat_o.bottom, lat_p.bottom), (lat_o.top, lat_p.top)
        mu, nu = lsfp_tarski_oracle(mp), gsfp_tarski_oracle(mp)
        assert mu == PairPoint(*sim_kleene_oracle(mp.f, mp.g, bottom)) != PairPoint(*bottom)
        assert nu == PairPoint(*sim_kleene_oracle(mp.f, mp.g, top)) != PairPoint(*top)
        assert_folds_match_oracle(mp)


def oracle_meets(mp):
    """tarski_meet_oracle on the pair's lattices and on their order-duals,
    built from plain lists: transposed orders, with the joins as meets."""
    leq_o, leq_p = mp.dom_o.poset.leq.tolist(), mp.dom_p.poset.leq.tolist()
    least = tarski_meet_oracle(mp.f, mp.g, leq_o, leq_p,
                               mp.dom_o.meet.tolist(), mp.dom_p.meet.tolist())
    greatest = tarski_meet_oracle(mp.f, mp.g, [list(c) for c in zip(*leq_o)],
                                  [list(c) for c in zip(*leq_p)],
                                  mp.dom_o.join.tolist(), mp.dom_p.join.tolist())
    return PairPoint(*least), PairPoint(*greatest)


def assert_folds_match_oracle(mp):
    assert (_tarski_meet(mp), _tarski_meet(dual_pair(mp))) == oracle_meets(mp)


def test_tarski_fold_matches_the_pair_by_pair_oracle_on_the_sweep_and_seeded_pairs():
    for mp in _sweep(3):
        assert_folds_match_oracle(mp)
    made = set()
    for family, size in iproduct(FAMILIES, range(1, 17)):
        try:
            spec = InstanceGenSpec(seed=size, size_lo=size, size_hi=size, family=family)
        except ValueError:          # no corpus lattice has this size
            continue
        for mp in _instances(spec, range(4), BINARY)[0]:
            made.add(family)
            assert_folds_match_oracle(mp)
    assert made == set(FAMILIES)


def test_tarski_fold_matches_the_pair_by_pair_oracle_on_one_element_carriers():
    # every monotone pair of the one-element lattice with chains and grids,
    # either way round: with one element in O a column of the fold's byte
    # matrix is all of it, with one in P each partner set is one byte
    one = chain(1)
    for lat in (one, chain(5), product(chain(3), chain(4)), product(chain(2), n5())):
        zeros = (0,) * lat.size
        for x in range(lat.size):
            assert_folds_match_oracle(MutualPair(one, lat, (x,), zeros))
            assert_folds_match_oracle(MutualPair(lat, one, zeros, (x,)))


def test_the_least_side_makes_no_down_set_rows():
    # only a dual reads down-set rows, so least solves copy no order
    lat_o, lat_p = chain(40), product(chain(4), n5())
    mp = gen_monotone_pair(InstanceGenSpec(seed=3), lat_o, lat_p)
    for solve in (lsfp_direct, lsfp_product, lsfp_tarski_oracle):
        solve(mp)
    assert "down_rows" not in vars(lat_o) and "down_rows" not in vars(lat_p)
    gsfp_product(mp)
    assert "down_rows" not in vars(lat_o) and "down_rows" not in vars(lat_p)
    gsfp_direct(mp)
    assert "down_rows" in vars(lat_o) and "down_rows" in vars(lat_p)


def test_tarski_folds_at_the_element_cap_match_plain_kleene():
    # 4096 x 4096 chains: 16.8 M pairs per fold, and the dual fold reads
    # the transposed 16 MiB order
    lat = chain(DEFAULT_CAP)
    rng = random.Random(5)

    def table():
        lo, hi = rng.randrange(1, 1024), rng.randrange(3072, DEFAULT_CAP - 1)
        return sorted(rng.randrange(lo, hi) for _ in range(DEFAULT_CAP))

    mp = MutualPair(lat, lat, table(), table())
    bottom, top = (0, 0), (DEFAULT_CAP - 1, DEFAULT_CAP - 1)
    mu, nu = lsfp_tarski_oracle(mp), gsfp_tarski_oracle(mp)
    assert mu == PairPoint(*sim_kleene_oracle(mp.f, mp.g, bottom)) != PairPoint(*bottom)
    assert nu == PairPoint(*sim_kleene_oracle(mp.f, mp.g, top)) != PairPoint(*top)


def test_every_solver_and_l1_name_the_first_broken_side_and_pair():
    # all six solvers and the L1 runner read one verdict per pair: F before
    # G, each side's first broken comparable pair in row-major order
    rng = random.Random(4)
    broken = set()
    for lat_o, lat_p in iproduct((chain(3), diamond(), n5()), repeat=2):
        for _ in range(6):
            f = tuple(rng.randrange(lat_p.size) for _ in range(lat_o.size))
            g = tuple(rng.randrange(lat_o.size) for _ in range(lat_p.size))
            want = next(((side, w, dom) for side, w, dom in (
                ("F", monotone_witness_oracle(f, lat_o.poset.leq, lat_p.poset.leq), lat_o),
                ("G", monotone_witness_oracle(g, lat_p.poset.leq, lat_o.poset.leq), lat_p))
                if w is not None), None)
            mp = MutualPair(lat_o, lat_p, f, g)
            if want is None:
                assert _check_l1(mp, None) is None
                for solve in SOLVERS:
                    solve(mp)
                continue
            side, (a, b), dom = want
            broken.add(side)
            assert _check_l1(mp, None) == f"{side} breaks the order at {(a, b)}"
            for solve in SOLVERS:
                with pytest.raises(NotMonotoneError) as err:
                    solve(mp)
                assert str(err.value) == (f"NotMonotone: {side} breaks the order at "
                                          f"({dom.label(a)},{dom.label(b)})")
                assert (err.value.side, err.value.witness) == (side, (a, b))
    assert broken == {"F", "G"}


def test_greatest_solvers_name_the_witness_in_the_given_order():
    # on the dual the same table breaks the order at (1,0) instead
    mp = MutualPair(chain(3), chain(3), (2, 1, 0), (0, 1, 2))
    for solve in (gsfp_direct, gsfp_tarski_oracle):
        with pytest.raises(NotMonotoneError,
                           match=r"^NotMonotone: F breaks the order at \(0,1\)$"):
            solve(mp)


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
    for lat in (c3, diamond(), dict(corpus())["N5"]):
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
    mp = standard_embed(c2, LatticeFn(c2, c2, (1, 1)))
    assert mp.g == (0, 1)
    with pytest.raises(TypeError):
        standard_embed(c2, (0.5, 1))


def test_implicit_engine_matches_explicit(k1, swap):
    # kleene_implicit on the (o, p) id pairs, with the paired step, must reach
    # the product strategy's limits in the same number of steps
    seeded = [gen_monotone_pair(InstanceGenSpec(seed=seed),
                                gen_lattice(InstanceGenSpec(seed=split_seed(seed, 1))),
                                gen_lattice(InstanceGenSpec(seed=split_seed(seed, 2))))
              for seed in range(6)]
    for mp in [k1, swap] + seeded:
        step = lambda op: (mp.g[op[1]], mp.f[op[0]])
        height = mp.dom_o.size * mp.dom_p.size
        least, greatest = lsfp_product(mp), gsfp_product(mp)
        up = kleene_implicit((mp.dom_o.bottom, mp.dom_p.bottom), step, eq, height)
        assert PairPoint(*up.limit) == least.mu and up.iterations == least.iterations
        down = kleene_implicit((mp.dom_o.top, mp.dom_p.top), step, eq, height)
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


def test_kleene_height_bound():
    # on the chain 0 < 1 < 2 < 3 (height 3) a climb to the top takes three
    # strict steps and one confirming step
    climb = lambda x: min(x + 1, 3)
    run = kleene_implicit(0, climb, eq, 3)
    assert run.limit == 3 and run.iterations == 4
    assert kleene_implicit(0, lambda x: 1, eq, 3).iterations == 2
    # a run longer than the height allows breaks the caller's contract
    with pytest.raises(AssertionError, match="exceeded the carrier height 2"):
        kleene_implicit(0, climb, eq, 2)
    with pytest.raises(AssertionError, match="exceeded the carrier height 1"):
        kleene_implicit(0, lambda x: 1 - x, eq, 1)
