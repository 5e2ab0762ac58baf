"""Simultaneous point classes, fibers, and component projections."""
import random
from itertools import product as iproduct

import pytest

from mucofix import (InstanceGenSpec, MutualPair, PairPoint, chain, component_sets,
                     diamond, enumerate_sim_fixed, gen_monotone_pair,
                     is_sim_fixed, is_sim_postfixed, is_sim_prefixed, m3, n5,
                     point_masks, postfp_fiber, prefp_fiber, product)

from oracles import point_classes_oracle


def test_point_classes_on_k1(k1):
    assert is_sim_prefixed(k1, PairPoint(1, 1))
    assert not is_sim_prefixed(k1, PairPoint(0, 0))    # G(0)=1 is not below 0
    assert is_sim_postfixed(k1, PairPoint(0, 0))
    assert is_sim_postfixed(k1, PairPoint(1, 1))
    assert is_sim_fixed(k1, PairPoint(1, 1))
    assert not is_sim_fixed(k1, PairPoint(0, 0))
    with pytest.raises(ValueError):
        is_sim_prefixed(k1, PairPoint(0, 5))


def test_fixed_points_are_pre_and_post(swap):
    for o in range(4):
        for p in range(4):
            pt = PairPoint(o, p)
            if is_sim_fixed(swap, pt):
                assert is_sim_prefixed(swap, pt) and is_sim_postfixed(swap, pt)


def test_component_sets_on_k1(k1):
    cs = component_sets(k1)
    assert cs.c == frozenset({1})
    assert cs.d == frozenset({1})
    assert cs.e == frozenset({0, 1})
    assert cs.fset == frozenset({0, 1})


def test_component_sets_never_empty():
    # the top pair is always pre-fixed, the bottom pair always post-fixed
    c3 = chain(3)
    for f in iproduct(range(3), repeat=3):
        for g in iproduct(range(3), repeat=3):
            cs = component_sets(MutualPair(c3, c3, f, g))
            assert cs.c and cs.d and cs.e and cs.fset


def test_component_sets_match_fiber_union(k1, swap, cb2):
    for mp in (k1, swap, cb2):
        cs = component_sets(mp)
        assert cs.c == frozenset(o for o in range(mp.dom_o.size)
                                 if prefp_fiber(mp, o, "O"))
        assert cs.d == frozenset(p for p in range(mp.dom_p.size)
                                 if prefp_fiber(mp, p, "P"))
        assert cs.e == frozenset(o for o in range(mp.dom_o.size)
                                 if postfp_fiber(mp, o, "O"))
        assert cs.fset == frozenset(p for p in range(mp.dom_p.size)
                                    if postfp_fiber(mp, p, "P"))


def test_empty_fiber_is_a_value(k1):
    assert type(prefp_fiber(k1, 0, "O")) is frozenset
    assert prefp_fiber(k1, 0, "O") == frozenset()
    assert prefp_fiber(k1, 1, "O") == frozenset({1})


def test_a_non_integer_point_or_anchor_is_refused(k1):
    # 1.5 once raised a bare IndexError from a fiber and a tuple TypeError
    # from a point test, and 1.0 was read as 1
    for check in (lambda: prefp_fiber(k1, 1.5), lambda: postfp_fiber(k1, 1.0, "P"),
                  lambda: is_sim_prefixed(k1, PairPoint(1.5, 1)),
                  lambda: is_sim_fixed(k1, PairPoint(1, "1"))):
        with pytest.raises(TypeError):
            check()
    # a bool is the integer it equals, as in a table, not a numpy mask index
    assert prefp_fiber(k1, True, "P") == prefp_fiber(k1, 1, "P") == frozenset({1})
    assert is_sim_prefixed(k1, PairPoint(True, True)) and is_sim_fixed(k1, PairPoint(True, 1))


def test_fiber_multiplicity(cb2):
    # constant-bottom generators put both partners in the fiber at 0
    assert prefp_fiber(cb2, 0, "O") == frozenset({0, 1})
    assert postfp_fiber(cb2, 0, "P") == frozenset({0})


def test_fiber_side_and_validation(k1):
    assert prefp_fiber(k1, 1, "P") == frozenset({1})
    with pytest.raises(ValueError):
        prefp_fiber(k1, 0, "Q")
    with pytest.raises(ValueError):
        postfp_fiber(k1, 7, "O")


def test_fibers_agree_with_point_predicates(swap, cb2):
    # a fiber is a row (anchor in O) or a column (anchor in P) of point_masks
    for mp in (swap, cb2):
        pre, post = point_masks(mp)
        n_o, n_p = mp.dom_o.size, mp.dom_p.size
        for o in range(n_o):
            assert prefp_fiber(mp, o, "O") == _ids(pre[o]) == {
                p for p in range(n_p) if is_sim_prefixed(mp, PairPoint(o, p))}
            assert postfp_fiber(mp, o, "O") == _ids(post[o]) == {
                p for p in range(n_p) if is_sim_postfixed(mp, PairPoint(o, p))}
        for p in range(n_p):
            assert prefp_fiber(mp, p, "P") == _ids(pre[:, p]) == {
                o for o in range(n_o) if is_sim_prefixed(mp, PairPoint(o, p))}
            assert postfp_fiber(mp, p, "P") == _ids(post[:, p]) == {
                o for o in range(n_o) if is_sim_postfixed(mp, PairPoint(o, p))}


def test_enumerate_sim_fixed(id2, swap, k1):
    assert enumerate_sim_fixed(id2) == [PairPoint(0, 0), PairPoint(1, 1)]
    assert enumerate_sim_fixed(swap) == [PairPoint(0, 0), PairPoint(1, 2),
                                         PairPoint(2, 1), PairPoint(3, 3)]
    assert enumerate_sim_fixed(k1) == [PairPoint(1, 1)]


def test_not_postfixed_case(id2):
    assert not is_sim_postfixed(id2, PairPoint(1, 0))


@pytest.fixture(scope="module")
def lattices():
    return {"C2": chain(2), "D4": diamond(), "M3": m3(), "N5": n5(),
            "C3xC4": product(chain(3), chain(4)), "C40": chain(40),
            "C15xC20": product(chain(15), chain(20)), "C300": chain(300)}


def seeded_pairs(lat_o, lat_p, seed):
    'An arbitrary pair, a monotone pair, and a monotone F with an arbitrary G.'
    rng = random.Random(seed)
    f = tuple(rng.randrange(lat_p.size) for _ in range(lat_o.size))
    g = tuple(rng.randrange(lat_o.size) for _ in range(lat_p.size))
    mono = gen_monotone_pair(InstanceGenSpec(seed=seed), lat_o, lat_p)
    return [MutualPair(lat_o, lat_p, f, g), mono, MutualPair(lat_o, lat_p, mono.f, g)]


def _column(rows, p):
    return [row[p] for row in rows]


def _ids(line):
    return {i for i, x in enumerate(line) if x}


@pytest.mark.parametrize("names", [("C2", "C2"), ("D4", "N5"), ("M3", "C3xC4"),
                                   ("C40", "D4"), ("C15xC20", "C40"),
                                   ("C300", "C300"), ("C300", "C15xC20")],
                         ids=lambda names: "x".join(names))
def test_masks_sets_and_fibers_match_the_plain_loop_oracle(lattices, names):
    lat_o, lat_p = (lattices[n] for n in names)
    leq_o, leq_p = lat_o.poset.leq.tolist(), lat_p.poset.leq.tolist()
    rng = random.Random(str(names))
    anchors_o = sorted({0, lat_o.size - 1, *rng.sample(range(lat_o.size), min(4, lat_o.size))})
    anchors_p = sorted({0, lat_p.size - 1, *rng.sample(range(lat_p.size), min(4, lat_p.size))})
    for mp in seeded_pairs(lat_o, lat_p, lat_o.size * 1000 + lat_p.size):
        want_pre, want_post = point_classes_oracle(leq_o, leq_p, mp.f, mp.g)
        pre, post = point_masks(mp)
        assert pre.shape == post.shape == (lat_o.size, lat_p.size)
        assert pre.tolist() == want_pre and post.tolist() == want_post
        cs = component_sets(mp)
        assert cs.c == {o for o in range(lat_o.size) if any(want_pre[o])}
        assert cs.d == {p for p in range(lat_p.size) if any(_column(want_pre, p))}
        assert cs.e == {o for o in range(lat_o.size) if any(want_post[o])}
        assert cs.fset == {p for p in range(lat_p.size) if any(_column(want_post, p))}
        for o in anchors_o:
            assert prefp_fiber(mp, o, "O") == _ids(want_pre[o])
            assert postfp_fiber(mp, o, "O") == _ids(want_post[o])
        for p in anchors_p:
            assert prefp_fiber(mp, p, "P") == _ids(_column(want_pre, p))
            assert postfp_fiber(mp, p, "P") == _ids(_column(want_post, p))
