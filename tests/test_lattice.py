"""Order structure: posets, bound tables, subsets, products, duals.

The bound tables are cross-checked against plain candidate scans over
the order matrix, so the dict-based search in validate_lattice never
gets to grade its own work.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mucofix import (CapacityError, FinitePoset, NotALatticeError, NotAPosetError,
                     chain, corpus, corpus_lattice, cover_edges, diamond, dual,
                     hasse_text, m3, n5, powerset_lattice, product,
                     validate_lattice)
from mucofix.lattice import poset_violation

from oracles import (glb_scan, is_lattice_oracle, is_poset_oracle,
                     longest_chain_edges, lub_scan, nonempty_subsets)


def test_poset_rejects_bad_construction():
    with pytest.raises(ValueError):
        FinitePoset((), np.zeros((0, 0), dtype=bool))
    with pytest.raises(ValueError):
        FinitePoset(("a", "a"), np.eye(2, dtype=bool))
    with pytest.raises(ValueError):
        FinitePoset(("a", "b"), np.eye(3, dtype=bool))


def test_poset_violation_reflexivity():
    leq = np.eye(2, dtype=bool)
    leq[1, 1] = False
    assert poset_violation(FinitePoset(("a", "b"), leq)) == ("reflexivity", (1,))


def test_poset_violation_antisymmetry():
    leq = np.ones((2, 2), dtype=bool)
    assert poset_violation(FinitePoset(("a", "b"), leq)) == ("antisymmetry", (0, 1))


def test_poset_violation_transitivity():
    leq = np.eye(3, dtype=bool)
    leq[0, 1] = leq[1, 2] = True
    assert poset_violation(FinitePoset(("a", "b", "c"), leq)) == ("transitivity", (0, 1, 2))


def test_validate_rejects_cycle_with_labels():
    leq = np.ones((2, 2), dtype=bool)
    with pytest.raises(NotAPosetError, match=r"antisymmetry fails at \('x', 'y'\)"):
        validate_lattice(FinitePoset(("x", "y"), leq))


def test_validate_rejects_antichain():
    # two incomparable maximal elements have no least upper bound, and
    # the lub is checked first for each pair
    leq = np.eye(2, dtype=bool)
    with pytest.raises(NotALatticeError, match=r"NotALattice: \{p,q\} lacks lub"):
        validate_lattice(FinitePoset(("p", "q"), leq))


def test_validate_agrees_with_bound_existence_oracle():
    # the dict-intersection search accepts exactly the orders where every
    # pair has both bounds; try all orders on a fixed 3-element shape pool
    shapes = [
        np.eye(3, dtype=bool),
        np.array([[1, 1, 1], [0, 1, 1], [0, 0, 1]], dtype=bool),
        np.array([[1, 1, 1], [0, 1, 0], [0, 0, 1]], dtype=bool),
        np.array([[1, 0, 1], [0, 1, 1], [0, 0, 1]], dtype=bool),
        np.array([[1, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=bool),
    ]
    for leq in shapes:
        p = FinitePoset(("a", "b", "c"), leq)
        want = is_lattice_oracle(leq.tolist())
        try:
            validate_lattice(p)
            got = True
        except (NotAPosetError, NotALatticeError):
            got = False
        assert got == want


@pytest.mark.parametrize("name", [n for n, _ in corpus()])
def test_bound_tables_match_scans(name):
    lat = corpus_lattice(name)
    leq = lat.poset.leq.tolist()
    assert is_poset_oracle(leq)
    for i in range(lat.size):
        for j in range(lat.size):
            assert lat.meet[i, j] == glb_scan(leq, [i, j])
            assert lat.join[i, j] == lub_scan(leq, [i, j])
    assert lat.bottom == glb_scan(leq, range(lat.size))
    assert lat.top == lub_scan(leq, range(lat.size))


@pytest.mark.parametrize("name", ["D4", "M3", "N5", "P3", "C2xC3"])
def test_subset_bounds_match_scans(name):
    lat = corpus_lattice(name)
    leq = lat.poset.leq.tolist()
    for s in nonempty_subsets(lat.size):
        assert lat.meet_set(s) == glb_scan(leq, s)
        assert lat.join_set(s) == lub_scan(leq, s)


def test_empty_bounds_are_the_lattice_bounds():
    lat = m3()
    assert lat.meet_set([]) == lat.top
    assert lat.join_set([]) == lat.bottom


def test_leq_and_sets():
    lat = diamond()
    a, b = lat.index("a"), lat.index("b")
    assert lat.leq(lat.bottom, a) and not lat.leq(a, b)
    with pytest.raises(ValueError):
        lat.leq(0, 9)
    # subset ids are checked in sorted order, so the smallest bad id is named
    with pytest.raises(ValueError, match=r"^element id -2 out of range 0\.\.3$"):
        lat.meet_set([9, 1, -2])
    with pytest.raises(ValueError, match=r"^element id 4 out of range 0\.\.3$"):
        lat.join_set([9, 4, 1])


def test_sublattice_violation_cases():
    lat = diamond()
    a, b = lat.index("a"), lat.index("b")
    assert lat.sublattice_violation([lat.bottom, a, lat.top]) is None
    assert lat.sublattice_violation([a, b]) == ("meet", a, b, lat.bottom)
    assert lat.sublattice_violation([lat.bottom, a, b]) == ("join", a, b, lat.top)
    assert lat.is_complete_sublattice([lat.bottom, a, b, lat.top])
    assert not lat.is_complete_sublattice([a, b])
    with pytest.raises(ValueError):
        lat.is_complete_sublattice([])


def test_sublattice_matches_subset_bound_membership():
    # binary closure must coincide with "every nonempty subset keeps its
    # bounds inside" on a finite carrier
    lat = m3()
    for s in nonempty_subsets(lat.size):
        members = set(s)
        closed = all(lat.meet_set(t) in members and lat.join_set(t) in members
                     for t in nonempty_subsets(lat.size) if set(t) <= members)
        assert lat.is_complete_sublattice(s) == closed


def test_product_is_componentwise():
    a, b = diamond(), chain(3)
    prod = product(a, b)
    assert prod.size == a.size * b.size
    for i in range(prod.size):
        for j in range(prod.size):
            ia, ib = divmod(i, b.size)
            ja, jb = divmod(j, b.size)
            m = int(a.meet[ia, ja]) * b.size + int(b.meet[ib, jb])
            jn = int(a.join[ia, ja]) * b.size + int(b.join[ib, jb])
            assert prod.meet[i, j] == m
            assert prod.join[i, j] == jn
    assert prod.bottom == a.bottom * b.size + b.bottom
    assert prod.top == a.top * b.size + b.top
    assert prod.label(prod.top) == "(top,2)"


def test_powerset_structure():
    lat = powerset_lattice(3)
    assert lat.size == 8
    assert lat.label(lat.bottom) == "{}"
    assert lat.label(lat.top) == "{a,b,c}"
    # ids are bitmasks, so the tables must be AND and OR
    for i in range(8):
        for j in range(8):
            assert lat.meet[i, j] == i & j
            assert lat.join[i, j] == i | j
    with pytest.raises(CapacityError):
        powerset_lattice(6)


def test_dual_swaps_everything():
    lat = n5()
    d = dual(lat)
    assert d.bottom == lat.top and d.top == lat.bottom
    assert (d.poset.leq == lat.poset.leq.T).all()
    assert (d.meet == lat.join).all()
    for s in nonempty_subsets(lat.size):
        assert d.meet_set(s) == lat.join_set(s)


def test_cover_edges_and_hasse():
    lat = diamond()
    assert set(cover_edges(lat)) == {(0, 1), (0, 2), (1, 3), (2, 3)}
    text = hasse_text(lat)
    assert "bot < a" in text and "a < top" in text
    assert "bot < top" not in text    # covers only, no transitive edges


@pytest.mark.parametrize("n", [257, 258])
def test_cover_edges_of_long_chains_are_the_steps(n):
    # at n = 258 the 256 two-step paths from bottom to top once wrapped a
    # uint8 path count to zero and reported (0, 257) as a cover edge
    assert cover_edges(chain(n)) == [(i, i + 1) for i in range(n - 1)]


@pytest.mark.parametrize("n", [257, 258])
def test_transitivity_gap_under_many_two_step_paths_is_caught(n):
    # bottom below every middle element and every middle element below
    # top, but bottom not below top: n - 2 two-step paths (256 at n = 258)
    # run over the missing edge
    leq = np.eye(n, dtype=bool)
    leq[0, 1:n - 1] = True
    leq[1:n - 1, n - 1] = True
    labels = tuple(str(i) for i in range(n))
    assert poset_violation(FinitePoset(labels, leq)) == ("transitivity", (0, 1, n - 1))


def test_chain_height_matches_dp():
    for n in (1, 2, 5, 9):
        lat = chain(n)
        assert longest_chain_edges(lat.poset.leq.tolist()) == n - 1
    assert longest_chain_edges(diamond().poset.leq.tolist()) == 2


def test_capacity_env_override(monkeypatch):
    leq = np.triu(np.ones((7, 7), dtype=bool))
    p = FinitePoset(tuple("abcdefg"), leq)
    monkeypatch.setenv("MUCOFIX_CAP", "6")
    with pytest.raises(CapacityError):
        validate_lattice(p)
    monkeypatch.setenv("MUCOFIX_CAP", "7")
    assert validate_lattice(p).size == 7


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([n for n, _ in corpus()]), st.data())
def test_subset_meet_property(name, data):
    lat = corpus_lattice(name)
    ids = data.draw(st.lists(st.integers(0, lat.size - 1), min_size=1, max_size=5))
    leq = lat.poset.leq.tolist()
    assert lat.meet_set(ids) == glb_scan(leq, sorted(set(ids)))
    assert lat.join_set(ids) == lub_scan(leq, sorted(set(ids)))
