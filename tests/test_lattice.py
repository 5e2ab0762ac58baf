"""Order structure: posets, bound tables, subsets, products, duals.

The bound tables are cross-checked against plain candidate scans over
the order matrix, so the bulk bit-row search in validate_lattice never
gets to grade its own work. Its word edges, where the first member of
an up-set intersection sits in the first or last bit of a 64-bit word
or the intersection is empty, are checked on orders built to put it
there.
"""
import json
import os
import random
import re
import subprocess
import sys
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mucofix
from mucofix import (CapacityError, FiniteLattice, FinitePoset, NotALatticeError,
                     NotAPosetError, chain, corpus, cover_edges, diamond, dual, m3,
                     n5, powerset_lattice, product, validate_lattice)
import mucofix.fixtures as fixtures
import mucofix.lattice as lattice
import mucofix.verifier as verifier
from mucofix.lattice import antisymmetry_gap, closure, mask_lattice, poset_violation
from mucofix.textio import parse_lattice_doc

from oracles import (draw_lists_oracle, first_missing_bound_oracle, glb_scan,
                     is_lattice_oracle, is_poset_oracle, longest_chain_edges, lub_scan,
                     nonempty_subsets)

DATA = Path(__file__).parent / "data"


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


def every_reflexive_relation(n):
    'All 2^(n(n-1)) reflexive relations on n elements, posets or not.'
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in iproduct((False, True), repeat=len(off)):
        leq = np.eye(n, dtype=bool)
        for (i, j), bit in zip(off, bits):
            leq[i, j] = bit
        yield leq


def random_dag_closures(seed, count, max_n=12):
    """Transitive closures of random DAGs under a random relabelling; half
    get a least and a greatest element added first, so lattices are common."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random() * 0.5
        leq = np.eye(n, dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                leq[i, j] = rng.random() < p
        if n > 2 and rng.random() < 0.5:
            leq[0, :] = leq[:, n - 1] = True
        perm = list(range(n))
        rng.shuffle(perm)
        yield closure(n, *np.nonzero(leq))[0][np.ix_(perm, perm)]


def oracle_inputs():
    return [*every_reflexive_relation(4), *random_dag_closures(8, 300)]


def lattice_verdict(leq):
    """validate_lattice on leq: the tables and bounds, or the kind and pair
    of its NotALattice witness, or None for a NotAPoset failure."""
    try:
        lat = validate_lattice(FinitePoset(tuple(str(i) for i in range(len(leq))), leq))
    except NotAPosetError:
        return None
    except NotALatticeError as err:
        return (err.kind, err.pair)
    return lat.meet.tolist(), lat.join.tolist(), lat.bottom, lat.top


def test_validate_agrees_with_bound_existence_oracle():
    # the kernel accepts exactly the orders where every pair has both
    # bounds, fills the tables the candidate scans give, and names the
    # first missing bound in scan order
    lattices = misses = 0
    for leq in oracle_inputs():
        rel = leq.tolist()
        verdict = lattice_verdict(leq)
        accepted = verdict is not None and isinstance(verdict[0], list)
        assert accepted == is_lattice_oracle(rel)
        if verdict is None:
            assert not is_poset_oracle(rel)
        elif not accepted:
            misses += 1
            assert verdict == first_missing_bound_oracle(rel)
        else:
            lattices += 1
            n = len(rel)
            assert verdict[0] == [[glb_scan(rel, [i, j]) for j in range(n)] for i in range(n)]
            assert verdict[1] == [[lub_scan(rel, [i, j]) for j in range(n)] for i in range(n)]
            assert verdict[2:] == (glb_scan(rel, range(n)), lub_scan(rel, range(n)))
    assert lattices > 100 and misses > 100


def grid_lattice(a, b):
    'The a x b grid from the min/max-outer tables, no order search.'
    k = np.arange(a * b)
    row, col = k // b, k % b
    leq = (row[:, None] <= row[None, :]) & (col[:, None] <= col[None, :])
    meet = np.minimum.outer(row, row) * b + np.minimum.outer(col, col)
    join = np.maximum.outer(row, row) * b + np.maximum.outer(col, col)
    return FiniteLattice(FinitePoset(tuple(str(i) for i in k), leq), meet, join, 0, a * b - 1)


def same_tables(a, b):
    return ((a.meet == b.meet).all() and (a.join == b.join).all()
            and (a.bottom, a.top) == (b.bottom, b.top))


def two_tops(n, top=False):
    """An n-element order: ids 0 and 1 incomparable above a chain of the
    remaining ids, and with top=True id 2, out of the chain, above both.
    By down-set size the chain comes first in the bit-row search's linear
    extension, then 0 and 1, then the top, so their join sits at bit n-1
    of the packed rows: the last bit of a 64-bit word at n = 64 and 128,
    the first at 65 and 129. Without a top they have no upper bound, and
    the search reads an empty intersection in the last word. Either way
    theirs is the first pair scanned, so the oracle's scan ends there."""
    leq = np.triu(np.ones((n, n), dtype=bool))
    a = n - 2 - top
    leq[a, a + 1] = False
    perm = [a, a + 1, *range(a + 2, n), *range(a)]
    return leq[np.ix_(perm, perm)]


def assert_exact(leq, rows):
    """lattice_verdict on leq and on its dual against the scans of
    tests/oracles.py: a refused order names the oracle's first missing
    bound, and an accepted one has the scanned bounds on the given rows."""
    for order in (leq, leq.T):
        rel, verdict = order.tolist(), lattice_verdict(order)
        if isinstance(verdict[0], list):
            for i in rows:
                assert verdict[0][i] == [glb_scan(rel, [i, j]) for j in range(len(rel))]
                assert verdict[1][i] == [lub_scan(rel, [i, j]) for j in range(len(rel))]
        else:
            assert verdict == first_missing_bound_oracle(rel)


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129])
@pytest.mark.parametrize("top", [False, True], ids=["no-join", "joined"])
def test_the_first_upper_bound_is_exact_at_word_edges(n, top):
    # the dual's meet search is the join search of this order, so
    # assert_exact reads the word edge from both sides
    leq = two_tops(n, top)
    verdict = lattice_verdict(leq)
    assert isinstance(verdict[0], list) if top else verdict == ("lub", (0, 1))
    assert_exact(leq, [0, 1, 2, 3, n - 1])


@pytest.mark.parametrize("n", [64, 65])
def test_an_antichain_lacks_every_bound_at_a_word_edge(n):
    # the first pair's upper bounds are empty, and past 64 elements the
    # rows take a second word
    leq = np.eye(n, dtype=bool)
    assert lattice_verdict(leq) == ("lub", (0, 1))
    assert_exact(leq, [])


def row_packed_words(leq):
    'The up-set rows packed one row at a time and copied into zeroed words.'
    n = len(leq)
    ext = np.argsort(leq.sum(axis=0), kind="stable")
    bits = np.zeros((n, -(-n // 64) * 8), np.uint8)
    bits[:, :-(-n // 8)] = np.packbits(leq[:, ext], axis=1, bitorder="little")
    return bits.view("<u8")


def test_one_flat_pack_gives_the_row_packed_words():
    # the order as built and as the transposed view a meet search reads,
    # across word edges: 203 elements under a diamond, grids up to 16x16,
    # and seeded posets of up to 70 elements
    orders = ([lat.poset.leq for _, lat in corpus()] + [chain_under_a_diamond().poset.leq]
              + [grid_lattice(a, b).poset.leq for a, b in ((1, 1), (8, 8), (13, 13), (16, 16))]
              + list(random_dag_closures(5, 40, max_n=70)) + [two_tops(n, True) for n in (64, 65)])
    for leq in orders:
        for order in (leq, leq.T):
            words, ext, place, sizes = lattice._up_words(order)
            ref = row_packed_words(order)
            assert words.dtype == ref.dtype and words.shape == ref.shape
            assert (words == ref).all()
            assert (ext[place] == np.arange(len(order))).all()
            assert (sizes == order.sum(axis=1)).all()


def test_a_minimal_upper_bound_that_is_not_least_is_refused():
    # a, b below both c and d, which are below t: the first of the upper
    # bounds {c, d, t} is minimal, but d is not above it, so a, b lack a
    # join; their meet is missing too, as they have no lower bound
    a, b, c, d, t = range(5)
    leq = np.eye(5, dtype=bool)
    for lo, hi in [(a, c), (a, d), (b, c), (b, d), (a, t), (b, t), (c, t), (d, t)]:
        leq[lo, hi] = True
    assert lattice_verdict(leq) == ("lub", (a, b))
    assert_exact(leq, range(5))
    # with a bottom below a and b, the meets all exist and only the join is missing
    big = np.zeros((6, 6), dtype=bool)
    big[1:, 1:] = leq
    big[0, :] = True
    assert lattice_verdict(big) == ("lub", (1, 2))
    assert_exact(big, range(6))


@pytest.mark.parametrize("dims", [(257,), (1025,), (32, 32)])
def test_large_tables_are_exact(dims):
    # past 256 and 1024 elements the packed up-set rows take 5 and 17
    # 64-bit words; the tables must still equal the direct ones
    ref = chain(*dims) if len(dims) == 1 else grid_lattice(*dims)
    assert same_tables(validate_lattice(ref.poset), ref)


@pytest.mark.parametrize("split, want", [("top", ("lub", (255, 256))),
                                         ("bottom", ("glb", (0, 1)))])
def test_witness_of_a_long_chain_split_at_one_end(split, want):
    # a 255-chain with two incomparable elements added above (or below)
    # lacks exactly one bound; above, the pair sits in the fourth row block
    leq = np.triu(np.ones((257, 257), dtype=bool))
    leq[255, 256] = False
    if split == "bottom":
        leq = leq[::-1, ::-1].T
    assert lattice_verdict(leq) == want


def _record_proposals(monkeypatch):
    'Wrap the incomparable-pair step; the returned list collects every (i, j) it decides.'
    asked, real = [], lattice._least_upper

    def recording(packed, i, j):
        asked.extend(zip(i.tolist(), j.tolist()))
        return real(packed, i, j)

    monkeypatch.setattr(lattice, "_least_upper", recording)
    return asked


def test_only_incomparable_pairs_reach_the_proposer(monkeypatch):
    # a comparable pair is its own meet and join, so no chain pair is searched
    asked = _record_proposals(monkeypatch)
    assert same_tables(lattice.bound_tables(chain(300).poset), chain(300))
    assert asked == []
    ref = grid_lattice(16, 16)
    assert same_tables(lattice.bound_tables(ref.poset), ref)
    leq = ref.poset.leq
    assert asked and not any(leq[i, j] or leq[j, i] for i, j in asked)


def test_a_4096_chain_takes_its_tables_from_the_order(monkeypatch):
    # at the explicit cap no block of a chain runs a search; validate_lattice
    # would add a float32 transitivity check of about a second, so the
    # tables are built directly
    asked = _record_proposals(monkeypatch)
    ref = chain(4096)
    assert same_tables(lattice.bound_tables(ref.poset), ref)
    assert asked == []


def chain_under_a_diamond():
    """A 200-chain whose top is the bottom of a diamond, and its tables
    from the min/max-outer tables of the 203-chain."""
    n = 203
    leq = np.triu(np.ones((n, n), dtype=bool))
    leq[200, 201] = False
    r = np.arange(n)
    meet, join = np.minimum.outer(r, r), np.maximum.outer(r, r)
    meet[200, 201] = meet[201, 200] = 199
    join[200, 201] = join[201, 200] = 202
    return FiniteLattice(FinitePoset(tuple(str(i) for i in range(n)), leq), meet, join, 0, n - 1)


def assert_rows_match_the_scans(lat, rows):
    """The tables of lat on the given rows equal the scans. The scans stop
    at the first candidate that passes, so lubs are scanned on lat's
    labelling and glbs on the reversed one, where in a chain or a grid
    the bound comes first."""
    n, leq = lat.size, lat.poset.leq
    rel, rev = leq.tolist(), leq[::-1, ::-1].tolist()
    for i in rows:
        for j in range(n):
            assert lat.join[i, j] == lub_scan(rel, [i, j])
            assert lat.meet[i, j] == n - 1 - glb_scan(rev, [n - 1 - i, n - 1 - j])


def test_a_chain_under_a_diamond_matches_the_scans(monkeypatch):
    # the three row blocks before the diamond hold only comparable pairs,
    # and the two atoms are the one pair searched
    ref = chain_under_a_diamond()
    asked = _record_proposals(monkeypatch)
    lat = validate_lattice(ref.poset)
    assert set(asked) == {(200, 201), (201, 200)}
    assert same_tables(lat, ref) and (lat.bottom, lat.top) == (0, 202)
    # the diamond's rows and those at the chain's block edges
    assert_rows_match_the_scans(lat, [0, 63, 64, 127, 128, 191, 192, 199, 200, 201, 202])


OTHER = {"join": "meet", "meet": "join"}


@pytest.mark.parametrize("first", ["join", "meet"])
def test_one_side_proves_the_lattice_and_the_other_waits(bound_searches, first):
    # the tables equal the direct constructors' and the scans, whichever
    # side is searched first; the other side is searched on its first read
    grids = [grid_lattice(13, 13), grid_lattice(16, 16)]
    refs = [lat for _, lat in corpus()] + grids + [chain_under_a_diamond()]
    for ref in refs:
        assert same_tables(ref, ref)    # builds any table a reference still waits for
    sides = bound_searches
    sides.clear()                       # those builds are not the ones checked here
    for ref in refs:
        lat = lattice.bound_tables(ref.poset, first)
        assert sides == [first] and OTHER[first] not in vars(lat)
        assert same_tables(lat, ref) and sides == [first, OTHER[first]]
        sides.clear()
    for lat in [lattice.bound_tables(ref.poset, first) for ref in grids]:
        assert_rows_match_the_scans(lat, [0, 12, 63, 64, 127, 128, lat.size - 1])
    for name, ref in corpus():
        rel, lat = ref.poset.leq.tolist(), lattice.bound_tables(ref.poset, first)
        assert lat.join.tolist() == [[lub_scan(rel, [i, j]) for j in range(lat.size)]
                                     for i in range(lat.size)], name
        assert lat.meet.tolist() == [[glb_scan(rel, [i, j]) for j in range(lat.size)]
                                     for i in range(lat.size)], name


def one_side_verdict(leq, first):
    """bound_tables(first) on leq: the tables and bounds, or the kind and
    pair of its NotALattice witness."""
    try:
        lat = lattice.bound_tables(FinitePoset(tuple(str(i) for i in range(len(leq))), leq), first)
    except NotALatticeError as err:
        return (err.kind, err.pair)
    return lat.meet.tolist(), lat.join.tolist(), lat.bottom, lat.top


def first_missing(rel, scan):
    'The row-major first pair i <= j that scan finds no bound for, or None.'
    n = len(rel)
    return next(((i, j) for i in range(n) for j in range(i, n) if scan(rel, [i, j]) is None),
                None)


def test_one_side_accepts_and_names_what_both_sides_did():
    # every join but no bottom, every meet but no top, and an antichain
    no_bottom = np.eye(3, dtype=bool)
    no_bottom[:2, 2] = True
    posets = [no_bottom, no_bottom.T.copy(), np.eye(3, dtype=bool)]
    posets += [leq for leq in oracle_inputs() if is_poset_oracle(leq.tolist())]
    # seeded posets whose first missing glb comes before their first missing
    # lub, and the reverse
    earlier = {"glb": 0, "lub": 0}
    for leq in random_dag_closures(24, 400, max_n=16):
        rel = leq.tolist()
        lub, glb = first_missing(rel, lub_scan), first_missing(rel, glb_scan)
        if lub is not None and glb is not None:
            earlier["glb" if glb < lub else "lub"] += 1
            posets.append(leq)
    assert min(earlier.values()) >= 10
    for leq in posets:
        rel = leq.tolist()
        verdicts = [one_side_verdict(leq, first) for first in ("join", "meet")]
        assert verdicts[0] == verdicts[1]
        assert isinstance(verdicts[0][0], list) == is_lattice_oracle(rel)
        if not is_lattice_oracle(rel):
            assert verdicts[0] == first_missing_bound_oracle(rel)
            continue
        n = len(rel)
        assert verdicts[0][0] == [[glb_scan(rel, [i, j]) for j in range(n)] for i in range(n)]
        assert verdicts[0][1] == [[lub_scan(rel, [i, j]) for j in range(n)] for i in range(n)]
        assert verdicts[0][2:] == (glb_scan(rel, range(n)), lub_scan(rel, range(n)))
    assert one_side_verdict(no_bottom, "join") == ("glb", (0, 1))
    assert one_side_verdict(no_bottom.T, "meet") == ("lub", (0, 1))


def other_layouts(leq):
    'The order-dual of leq as a transposed view and leq in Fortran order: neither is C-ordered.'
    return [leq.T, np.asfortranarray(leq)]


def test_bound_tables_do_not_depend_on_the_order_layout():
    # a search block took its order's layout, and a reshape of a Fortran-
    # ordered block is a copy, so the proposals written through it were
    # lost: the 3x3 grid's dual got (1,0) as the join of (0,1) and (1,0)
    grid = product(chain(3), chain(3))
    dual_grid = FinitePoset(grid.labels, grid.poset.leq.T)
    lat = validate_lattice(dual_grid)
    assert not lat.poset.leq.flags.c_contiguous
    a, b = lat.index("(0,1)"), lat.index("(1,0)")
    assert lat.label(lat.join[a, b]) == "(0,0)" and lat.label(lat.meet[a, b]) == "(1,1)"
    small = [grid, n5(), m3(), diamond(), chain(4)]
    for k, ref in enumerate(small + [grid_lattice(13, 13), chain_under_a_diamond()]):
        for leq in other_layouts(ref.poset.leq):
            poset = FinitePoset(ref.labels, leq)
            want = validate_lattice(FinitePoset(ref.labels, np.ascontiguousarray(leq)))
            got = [validate_lattice(poset)] + [lattice.bound_tables(poset, first)
                                               for first in ("join", "meet")]
            for lat in got:
                assert not lat.poset.leq.flags.c_contiguous and same_tables(lat, want)
            if k < len(small):
                rel = leq.tolist()
                n = len(rel)
                assert want.meet.tolist() == [[glb_scan(rel, [i, j]) for j in range(n)]
                                              for i in range(n)]
                assert want.join.tolist() == [[lub_scan(rel, [i, j]) for j in range(n)]
                                              for i in range(n)]
    # non-lattices name the oracle's witness in every layout, on either side
    for leq in random_dag_closures(11, 120):
        rel = leq.tolist()
        for other in other_layouts(leq):
            want = [one_side_verdict(np.ascontiguousarray(other), first)
                    for first in ("join", "meet")]
            assert [one_side_verdict(other, first) for first in ("join", "meet")] == want
            if not is_lattice_oracle(rel):
                assert want[0] == first_missing_bound_oracle(other.tolist())


@pytest.mark.parametrize("first", ["join", "meet"])
def test_the_antichain_document_is_refused_on_either_side(first):
    doc = json.loads((DATA / "antichain3.json").read_text())
    with pytest.raises(NotALatticeError, match=r"^NotALattice: \{p,q\} lacks lub$") as err:
        parse_lattice_doc(doc, first)
    assert (err.value.kind, err.value.pair) == first_missing_bound_oracle(np.eye(3).tolist())


def test_a_dual_shares_the_tables_its_lattice_has_built(bound_searches):
    sides = bound_searches
    poset = grid_lattice(5, 6).poset
    lat = lattice.bound_tables(poset)
    d = dual(lat)
    assert sides == ["join"] and "join" not in vars(d) and d.meet is lat.join
    # a table lat had not built waits in the dual too, and the dual's first
    # read searches the joins of its own order, which are lat's meets
    assert sides == ["join"] and (d.join == lat.meet).all() and d.join is not lat.meet
    assert sides == ["join", "join", "meet"]
    # a dual made after a table is built shares it, and searches nothing
    assert dual(lat).join is lat.meet and dual(d).meet is d.join
    assert dual(d).join is lat.join and sides == ["join", "join", "meet"]
    # the other way round: a waiting join of lat is not shared with its dual
    sides.clear()
    lat = lattice.bound_tables(poset, "meet")
    d = dual(lat)
    twice = dual(d)
    assert d.join is lat.meet and twice.meet is lat.meet and sides == ["meet"]
    assert (d.meet == lat.join).all() and sides == ["meet", "meet", "join"]
    assert (twice.join == lat.join).all() and twice.join is not lat.join
    assert sides == ["meet", "meet", "join", "join"]


def test_validation_leaves_numpy_random_unloaded():
    # numpy.random costs several MiB on first import, so bound tables
    # must be built without it
    env = dict(os.environ, PYTHONPATH=str(Path(mucofix.__file__).resolve().parents[1]))
    code = ("import sys, mucofix\n"
            "mucofix.validate_lattice(mucofix.chain(64).poset)\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("name", [n for n, _ in corpus()])
def test_bound_tables_match_scans(name):
    lat = dict(corpus())[name]
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
    lat = dict(corpus())[name]
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


# ids once entered by int(), an intp cast or no check at all, so 2.9 read
# as 2, "1" as 1, a boolean mask as the ids 0 and 1, and 0.5 as bottom 0,
# while leq and label raised a bare IndexError or tuple TypeError
NON_INTEGER_IDS = {
    "meet_set": lambda: chain(3).meet_set(np.array([2.9])),
    "meet_set of a string": lambda: chain(3).meet_set(["1"]),
    "join_set of a mask": lambda: powerset_lattice(2).join_set(np.array([False, True, True, False])),
    "join_set of mask entries": lambda: powerset_lattice(2).join_set(list(np.array([False, True]))),
    "sublattice_violation": lambda: chain(3).sublattice_violation([0.2, 2.9]),
    "is_complete_sublattice": lambda: chain(3).is_complete_sublattice(np.array([0.0, 2.0])),
    "bottom": lambda: FiniteLattice(chain(3).poset, chain(3).meet, chain(3).join, 0.5, 2),
    "top": lambda: FiniteLattice(chain(3).poset, chain(3).meet, chain(3).join, 0, "2"),
    "leq": lambda: chain(3).leq(1.5, 2),
    "label": lambda: chain(3).label(1.5),
}


@pytest.mark.parametrize("entry", NON_INTEGER_IDS)
def test_a_non_integer_id_is_refused_where_it_enters(entry):
    with pytest.raises(TypeError):
        NON_INTEGER_IDS[entry]()


def test_integer_ids_of_any_width_still_enter():
    lat = powerset_lattice(2)
    for ids in ([1, 2], (np.int8(1), np.uint64(2)), np.array([1, 2], np.uint8), range(1, 3)):
        assert (lat.meet_set(ids), lat.join_set(ids)) == (0, 3)
        assert lat.sublattice_violation(ids) == ("meet", 1, 2, 0)
    assert lat.leq(np.int16(1), True) and lat.label(np.int64(3)) == "{a,b}"
    built = FiniteLattice(lat.poset, lat.meet, lat.join, np.uint8(0), np.int64(3))
    assert (built.bottom, built.top) == (0, 3) and type(built.top) is int


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
    with pytest.raises(CapacityError, match="^product size 4160 exceeds the explicit cap 4096$"):
        product(chain(64), chain(65))


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
    with pytest.raises(ValueError, match="^ground set size must be nonnegative$"):
        powerset_lattice(-1)


# families mask_lattice cannot read, each with the first mask or pair it names
MASK_FAMILY_FAILURES = [
    ([0, 1, 2, 4, 7], "the family lacks 1 | 2 = 3"),    # join(1, 2) was read as mask 0
    ([0, 3, 1, 2], "mask 2, listed last, is not the greatest"),    # 2 was reported as top
    ([0, 1, 2], "the family lacks 1 | 2 = 3"),    # a bare IndexError
    ([1, 2, 4], "the family lacks 1 & 2 = 0"),    # & is named before | of one pair
    ([0, 6, 3, 4, 1, 7], "the family lacks 6 & 3 = 2"),    # pairs go by id: 4 | 1 comes later
    ([1, 0, 3], "mask 1, listed first, is not the least"),
    ([0, 1, 1, 3], "mask 1 is listed twice"),
    ([0, -1], "mask -1 is negative"),
    ([], "a mask family needs at least one mask"),
]


@pytest.mark.parametrize("masks, message", MASK_FAMILY_FAILURES,
                         ids=[str(m) for m, _ in MASK_FAMILY_FAILURES])
def test_mask_lattice_names_what_breaks_its_precondition(masks, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        mask_lattice(masks, [str(i) for i in range(len(masks))])


def test_the_mask_family_checks_survive_dash_o():
    env = dict(os.environ, PYTHONPATH=str(Path(mucofix.__file__).resolve().parents[1]))
    code = ("from mucofix.lattice import mask_lattice\n"
            f"for masks, _ in {MASK_FAMILY_FAILURES!r}:\n"
            "    try:\n"
            "        mask_lattice(masks, [str(i) for i in range(len(masks))])\n"
            "        print('accepted')\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [message for _, message in MASK_FAMILY_FAILURES]


def test_dual_swaps_everything():
    lat = n5()
    d = dual(lat)
    assert d.bottom == lat.top and d.top == lat.bottom
    assert (d.poset.leq == lat.poset.leq.T).all()
    assert (d.meet == lat.join).all()
    for s in nonempty_subsets(lat.size):
        assert d.meet_set(s) == lat.join_set(s)


def test_constructors_keep_arrays_of_the_right_dtype(monkeypatch):
    # a dual shares the lattice's built tables and its down-set rows, so
    # after those rows are first made, building a dual copies nothing
    lat = n5()
    d = dual(lat)
    assert d.poset.leq is lat.down_rows and d.down_rows is lat.poset.leq
    assert d.meet is lat.join and "join" not in vars(d)
    # once lat builds the table it had left waiting, a later dual shares it
    waited = lat.meet
    again = dual(lat)
    assert again.poset.leq is d.poset.leq and again.meet is d.meet and again.join is waited
    r = np.arange(3)
    leq = r[:, None] <= r[None, :]
    meet = np.minimum.outer(r, r).astype(np.int16)
    join = np.maximum.outer(r, r).astype(np.int16)
    for x in (leq, meet, join):
        x.flags.writeable = False
    # read-only arrays that own their memory are kept, as built tables are
    built = FiniteLattice(FinitePoset(("a", "b", "c"), leq), meet, join, 0, 2)
    assert built.poset.leq is leq and built.meet is meet and built.join is join
    # tables of another dtype are converted, and the caller's array is left alone
    wide = np.maximum.outer(r, r)
    assert FiniteLattice(built.poset, meet, wide, 0, 2).join.dtype == np.int16
    assert wide.flags.writeable
    # mask_lattice builds its three tables itself, so the constructors keep them
    kept = []
    real = lattice._frozen

    def recording(arr, dtype):
        out = real(arr, dtype)
        kept.append((dtype, out is arr))
        return out
    monkeypatch.setattr(lattice, "_frozen", recording)
    lat = mask_lattice([0, 1, 2, 3], ("0", "a", "b", "ab"))
    assert kept == [(bool, True), (lattice.ID, True), (lattice.ID, True)]
    assert not any(t.flags.writeable for t in (lat.poset.leq, lat.meet, lat.join))
    # every builder makes int16 tables, read-only and owning their memory,
    # so the constructors keep each one, a product's factors' included; a
    # waiting table is built in that dtype at its first read, and a dual
    # shares the tables or searches its own in that dtype too
    doc = {"elements": ["a", "b", "c", "d"], "leq": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}
    for build in (lambda: chain(5), lambda: product(chain(3), diamond()),
                  lambda: powerset_lattice(3), lambda: mask_lattice([0, 1, 2, 3], "0ab+"),
                  lambda: validate_lattice(n5().poset), lambda: lattice.bound_tables(n5().poset),
                  lambda: lattice.bound_tables(n5().poset, "meet"),
                  lambda: parse_lattice_doc(doc), lambda: parse_lattice_doc(doc, "meet")):
        kept.clear()
        lat = build()
        assert vars(lat).keys() & {"meet", "join"}
        tables = [k for dtype, k in kept if dtype is lattice.ID]
        assert tables and all(tables)
        for name in ("meet", "join"):
            assert_id_table(getattr(lat, name))
        d = dual(lat)
        assert d.meet is lat.join and d.join is lat.meet
        waiting = dual(build())
        for name in ("meet", "join"):
            assert_id_table(getattr(waiting, name))


def assert_id_table(table):
    'A bound table as every builder makes it: int16, read-only, owning its memory.'
    assert table.dtype == np.int16 and lattice.ID is np.int16
    assert not table.flags.writeable and table.base is None


@pytest.mark.parametrize("bad", [65537, -1, 3])
def test_a_table_of_another_dtype_is_range_checked_before_conversion(bad):
    # cast to int16, 65537 would read as id 1 and -1 would pass as an index
    # from the end, so a wide table is checked before it is narrowed
    lat = chain(3)
    meet = np.minimum.outer(np.arange(3), np.arange(3))
    assert meet.dtype == np.int64
    meet[0, 2] = meet[2, 0] = bad
    with pytest.raises(ValueError, match="must name elements of the carrier"):
        FiniteLattice(lat.poset, meet, lat.join, 0, 2)
    with pytest.raises(ValueError, match="must name elements of the carrier"):
        FiniteLattice(lat.poset, lat.meet, meet.tolist(), 0, 2)
    meet[0, 2] = meet[2, 0] = 0
    assert (FiniteLattice(lat.poset, meet, lat.join, 0, 2).meet == lat.meet).all()


def test_every_table_whatever_its_dtype_and_both_bounds_are_checked():
    # an int16 table once skipped the range check, so meet_set returned -1;
    # an unchecked bottom or top surfaced later as an IndexError in a solver
    lat = chain(3)
    meet = lat.meet.copy()
    meet[0, 2] = -1
    with pytest.raises(ValueError, match="^bound tables must name elements of the carrier$"):
        FiniteLattice(lat.poset, meet, lat.join, 0, 2)
    with pytest.raises(ValueError, match="^bound tables must match the carrier$"):
        FiniteLattice(lat.poset, lat.meet[:2], lat.join, 0, 2)
    for bottom, top, bad in ((0, 7, 7), (-1, 2, -1)):
        with pytest.raises(ValueError, match=rf"^element id {bad} out of range 0\.\.2$"):
            FiniteLattice(lat.poset, lat.meet, lat.join, bottom, top)
    # bounds in range but not extremes once gave meet_set([]) == 1, and a
    # greatest pair (1, 1) from gsfp_product where the others found (2, 2)
    for bottom, top in ((0, 1), (1, 2)):
        with pytest.raises(ValueError, match=f"^bottom {bottom} and top {top} must be the least"):
            FiniteLattice(lat.poset, lat.meet, lat.join, bottom, top)


def test_tables_and_edges_of_non_integers_are_refused():
    # meet + 0.5 passes the range check (2.5 < 3) and int16 would truncate
    # it back to the chain's meet; float edges would be truncated the same way
    lat = chain(3)
    with pytest.raises(ValueError, match="bound tables must hold integer ids"):
        FiniteLattice(lat.poset, lat.meet + 0.5, lat.join, 0, 2)
    with pytest.raises(ValueError, match="bound tables must hold integer ids"):
        FiniteLattice(lat.poset, lat.meet, lat.join.astype(float).tolist(), 0, 2)
    for edges in (([0.5, 1.5], [1, 2]), (np.array([0, 1]), np.array([1.0, 2.0]))):
        with pytest.raises(ValueError, match="edges must hold integer ids"):
            FiniteLattice(lat.poset, lat.meet, lat.join, 0, 2, edges)
    # integer, bool and empty arrays are ids
    kept = FiniteLattice(lat.poset, lat.meet.astype(np.uint8), lat.join.tolist(), 0, 2,
                         ([0, 1], np.array([1, 2], np.uint16)))
    assert same_tables(kept, lat) and [x.tolist() for x in kept.edges] == [[0, 1], [1, 2]]
    one = chain(1)
    assert FiniteLattice(one.poset, [[False]], [[0]], 0, 0, ([], [])).meet.tolist() == [[0]]


def test_a_chain_past_the_explicit_cap_is_refused_before_any_array(monkeypatch):
    # the cap is read at each call, so raising it admits the chain
    monkeypatch.setattr(fixtures, "np", None)
    with pytest.raises(CapacityError, match="4097 elements exceeds the explicit cap 4096"):
        chain(lattice.DEFAULT_CAP + 1)
    with pytest.raises(ValueError, match="^a chain needs at least one element$"):
        chain(0)
    monkeypatch.undo()
    monkeypatch.setattr(lattice, "DEFAULT_CAP", 4097)
    assert chain(4097).top == 4096


def test_ids_past_int16_are_refused_before_any_table_is_made(monkeypatch):
    n = 2 ** 15 + 1
    factor = chain(200)
    # chain makes every array with numpy, so without it any allocation fails
    monkeypatch.setattr(fixtures, "np", None)
    with pytest.raises(CapacityError, match="32768 ids"):
        chain(n)
    poset = lattice._prechecked(FinitePoset, labels=(), leq=None, size=n)
    with pytest.raises(CapacityError, match="32768 ids"):
        FiniteLattice(poset, None, None, 0, n - 1)
    # a zero-stride view of n x n, so the search is asked without memory
    with pytest.raises(CapacityError, match="32768 ids"):
        lattice._bound_search(np.broadcast_to(np.True_, (n, n)))
    def refuse(ta, tb):
        raise AssertionError("product built tables past the ids")
    # a product past the ids is refused before its tables, whatever the cap
    monkeypatch.setattr(lattice, "_componentwise", refuse)
    monkeypatch.setattr(lattice, "DEFAULT_CAP", 1 << 20)
    with pytest.raises(CapacityError, match="32768 ids"):
        product(factor, factor)


def rows_in_blocks(n, step=256):
    return [np.arange(s, min(s + step, n), dtype=np.int64) for s in range(0, n, step)]


def test_tables_at_the_cap_equal_the_coordinate_bounds():
    # the largest ids the cap admits, against bounds computed in int64
    lat = chain(4096)
    r = np.arange(4096, dtype=np.int64)
    for rows in rows_in_blocks(4096):
        assert (lat.meet[rows] == np.minimum.outer(rows, r)).all()
        assert (lat.join[rows] == np.maximum.outer(rows, r)).all()
    lat = product(chain(64), chain(64))
    assert_id_table(lat.meet)
    assert_id_table(lat.join)
    k = np.arange(4096, dtype=np.int64)
    row, col = k // 64, k % 64
    for rows in rows_in_blocks(4096):
        a, b = rows // 64, rows % 64
        assert (lat.meet[rows] == np.minimum.outer(a, row) * 64 + np.minimum.outer(b, col)).all()
        assert (lat.join[rows] == np.maximum.outer(a, row) * 64 + np.maximum.outer(b, col)).all()
    assert int(lat.join.max()) == 4095 and int(lat.meet.min()) == 0


def test_repr_names_the_size_and_labels_and_leaves_a_waiting_table_waiting(bound_searches):
    poset = diamond().poset
    bound_searches.clear()
    lat = lattice.bound_tables(poset)
    assert bound_searches == ["join"] and "meet" not in vars(lat)
    assert repr(lat) == "FiniteLattice(size=4, labels=('bot', 'a', 'b', 'top'))"
    assert bound_searches == ["join"] and "meet" not in vars(lat)
    assert "array" not in repr(chain(3))


def compose_as_two_casts(a, b):
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


@pytest.mark.parametrize("seed", range(4))
def test_compose_of_one_matrix_with_itself_matches_two_casts(seed):
    rng = random.Random(seed)

    def draw(rows, cols, p):
        return np.array([[rng.random() < p for _ in range(cols)] for _ in range(rows)])
    a, b, square = draw(30, 20, 0.2), draw(20, 40, 0.2), draw(50, 50, 0.05 * (seed + 1))
    assert (lattice.compose(a, b) == compose_as_two_casts(a, b)).all()
    assert (lattice.compose(square, square) == compose_as_two_casts(square, square)).all()
    assert (lattice.compose(square, square.copy()) == compose_as_two_casts(square, square)).all()


def test_a_dual_reads_the_down_set_rows_made_once():
    for lat in (n5(), chain(6), powerset_lattice(3), product(chain(3), diamond()),
                mask_lattice([0, 1, 2, 3], ("0", "a", "b", "ab"))):
        assert "down_rows" not in vars(lat)
        built = vars(lat).keys() & {"meet", "join"}
        d = dual(lat)
        rows = d.poset.leq
        assert rows.flags.c_contiguous and not rows.flags.writeable
        assert rows.dtype == bool and (rows == lat.poset.leq.T).all()
        assert rows is lat.down_rows
        # a second dual shares the rows, and the dual of a dual is lat's own
        # order; it shares the tables lat had built and searches any other
        assert dual(lat).poset.leq is rows
        twice = dual(d)
        assert twice.poset.leq is lat.poset.leq and twice.down_rows is rows
        for name in ("meet", "join"):
            if name in built:
                assert getattr(twice, name) is getattr(lat, name)
            else:
                assert (getattr(twice, name) == getattr(lat, name)).all()
        assert (twice.bottom, twice.top) == (lat.bottom, lat.top)


def edge_closure_oracle(n, src, dst):
    'Reflexive-transitive closure of the pairs (src[k], dst[k]) on n elements, by Warshall.'
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in zip(src, dst):
        leq[a][b] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                leq[i] = [x or y for x, y in zip(leq[i], leq[k])]
    return leq


def test_kept_edges_generate_the_order():
    grid_doc = {"elements": ["a", "b", "c", "d", "e", "f"],
                "leq": [["a", "b"], ["b", "c"], ["a", "d"], ["d", "e"], ["e", "f"],
                        ["b", "e"], ["c", "f"], ["a", "f"], ["a", "f"], ["c", "c"]]}
    with_edges = [chain(n) for n in (1, 2, 3, 17)] + [powerset_lattice(g) for g in range(5)]
    with_edges += [product(chain(3), chain(4)), product(powerset_lattice(2), chain(3)),
                   product(chain(1), chain(5)), parse_lattice_doc(grid_doc)]
    with_edges += [dual(lat) for lat in with_edges]
    for lat in with_edges:
        src, dst = lat.edges
        for x in (src, dst):
            assert x.dtype == np.int32 and x.ndim == 1 and not x.flags.writeable
        assert not (src == dst).any()
        assert edge_closure_oracle(lat.size, src.tolist(), dst.tolist()) == lat.poset.leq.tolist()
    # a document keeps its listed pairs, repeats included, self-loops dropped
    doc = parse_lattice_doc(grid_doc)
    idx = doc.poset.label_ids
    listed = [(idx[a], idx[b]) for a, b in grid_doc["leq"] if a != b]
    assert list(zip(*(x.tolist() for x in doc.edges))) == listed
    assert dual(doc).edges[0] is doc.edges[1] and dual(doc).edges[1] is doc.edges[0]
    # lattices without a generating list keep none
    for lat in (diamond(), m3(), n5(), product(diamond(), chain(2)),
                mask_lattice([0, 1, 2, 3], ("0", "a", "b", "ab")),
                validate_lattice(chain(4).poset), dual(n5())):
        assert lat.edges is None


def test_edges_are_checked_on_construction():
    lat = chain(3)
    for edges, message in ((([0, 1], [1]), "edges must be two id arrays of one length"),
                           (([[0, 1]], [[1, 2]]), "edges must be two id arrays of one length"),
                           (([0, 1], [1, 3]), "edges must name elements of the carrier"),
                           (([-1], [0]), "edges must name elements of the carrier")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FiniteLattice(lat.poset, lat.meet, lat.join, 0, 2, edges)
    kept = FiniteLattice(lat.poset, lat.meet, lat.join, 0, 2, ([], []))
    assert [x.size for x in kept.edges] == [0, 0]


def test_draw_lists_match_the_plain_loop_oracle():
    # every lattice generation draws from: corpus, powersets, the product
    # pool, chains up to the instance cap, random-closed lattices, and the
    # duals of the random-closed ones
    lattices = [lat for _, lat in corpus()]
    lattices += [powerset_lattice(g) for g in range(5)] + list(verifier._pools()["products"])
    lattices += [chain(n) for n in range(1, verifier.INSTANCE_SIZE_CAP + 1)]
    closed = [verifier._random_closed(random.Random(seed), 2, 8) for seed in range(200)]
    lattices += closed + [dual(lat) for lat in closed]
    for lat in lattices:
        lists = lat.gen_lists
        assert lat.gen_lists is lists    # built once per lattice object
        leq = lat.poset.leq.tolist()
        extension, below, up_sets, joins, meets = draw_lists_oracle(leq)
        assert list(lists.extension) == extension
        assert [list(x) for x in lists.below] == below
        assert [list(x) for x in lists.up_sets] == up_sets
        assert [list(row) for row in lists.join] == lat.join.tolist()
        assert [list(row) for row in lists.meet] == lat.meet.tolist()
        assert [list(x) for x in lists.joins] == joins
        assert [list(x) for x in lists.meets] == meets
        # a linear extension lists every strict down-set before its element
        seen = set()
        for i in lists.extension:
            assert set(below[i]) <= seen
            seen.add(i)
        assert seen == set(range(lat.size))


def test_lattices_do_not_alias_writable_caller_memory():
    # the poset once kept this view and froze it, so writing the base
    # flipped the order under bound tables that still named x least
    base = np.eye(2, dtype=bool)
    base[0, 1] = True
    lat = validate_lattice(FinitePoset(("x", "y"), base[:, :]))
    base[0, 1] = False
    base[1, 0] = True
    assert lat.poset.leq.tolist() == [[True, True], [False, True]]
    assert (lat.bottom, lat.meet[0, 1], lat.join[0, 1]) == (0, 0, 1)
    assert base.flags.writeable
    # a read-only view of writable memory is copied as well
    view = base.view()
    view.flags.writeable = False
    assert not np.shares_memory(FinitePoset(("x", "y"), view).leq, base)
    meet = lat.meet.copy()
    kept = FiniteLattice(lat.poset, meet, lat.join, 0, 1)
    meet[0, 1] = 1
    assert kept.meet[0, 1] == 0 and meet.flags.writeable


def test_cover_edges_are_the_covers():
    # covers only: bot < top holds but is no cover of the diamond
    assert cover_edges(diamond()) == [(0, 1), (0, 2), (1, 3), (2, 3)]


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


def _squaring_closure(rel):
    'Reflexive-transitive closure by repeated boolean squaring, the plain reference.'
    rel = rel | np.eye(len(rel), dtype=bool)
    while True:
        closed = rel | (rel.astype(np.int64) @ rel.astype(np.int64) > 0)
        if (closed == rel).all():
            return rel
        rel = closed


def _no_squaring(monkeypatch):
    def refuse(*args):
        raise AssertionError("an order went through squaring or a transitivity check")
    monkeypatch.setattr(lattice, "compose", refuse)
    monkeypatch.setattr(lattice, "transitivity_gap", refuse)


@pytest.mark.parametrize("seed", range(12))
def test_closure_walk_matches_squaring_on_relabelled_dags(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 301))
    # edges go up a hidden total order, then the ids are shuffled
    rel = np.triu(rng.random((n, n)) < rng.choice([0.5, 4, 30]) / n, 1)
    rel |= np.diag(rng.random(n) < 0.2)    # self-loops keep the relation acyclic
    perm = rng.permutation(n)
    rel = rel[np.ix_(perm, perm)]
    want = _squaring_closure(rel)
    _no_squaring(monkeypatch)
    got, acyclic = closure(n, *np.nonzero(rel))
    assert got.dtype == bool and got.shape == (n, n)
    assert (got == want).all()
    assert acyclic and antisymmetry_gap(got) is None


def test_closure_of_a_4096_chain_is_the_upper_triangle(monkeypatch):
    n = 4096
    rel = np.zeros((n, n), dtype=bool)
    rel[np.arange(n - 1), np.arange(1, n)] = True
    _no_squaring(monkeypatch)
    leq, acyclic = closure(n, *np.nonzero(rel))
    assert acyclic and (leq == np.triu(np.ones((n, n), dtype=bool))).all()


def test_cyclic_closure_keeps_the_squaring_witness():
    rel = np.zeros((3, 3), dtype=bool)
    rel[0, 1] = rel[1, 2] = rel[2, 0] = True
    leq, acyclic = closure(3, *np.nonzero(rel))
    assert not acyclic
    assert leq.all()
    with pytest.raises(NotAPosetError) as exc:
        validate_lattice(FinitePoset(("a", "b", "c"), leq))
    assert str(exc.value) == "NotAPoset: antisymmetry fails at ('a', 'b')"
    assert exc.value.witness == (0, 1)
    assert antisymmetry_gap(leq) == (0, 1)


def test_closure_matches_squaring_on_cyclic_and_acyclic_pair_lists():
    # self-loops, repeated pairs in shuffled order and relabelled ids; back
    # edges against a hidden order make about two in five relations cyclic
    rng = random.Random(23)
    cyclic = 0
    for _ in range(2000):
        n = rng.randint(1, 70)
        pairs = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))
                 if n > 1]
        if pairs and rng.random() < 0.4:    # close a cycle through a listed pair
            pairs.append(rng.choice(pairs)[::-1])
        if rng.random() < 0.3:    # a pair in either direction, which may close one
            pairs.append((rng.randrange(n), rng.randrange(n)))
        pairs += [(x, x) for x in rng.sample(range(n), rng.randint(0, n))]
        pairs += rng.choices(pairs, k=len(pairs) // 4)
        rng.shuffle(pairs)
        perm = list(range(n))
        rng.shuffle(perm)
        src, dst = ([perm[p[k]] for p in pairs] for k in (0, 1))
        rel = np.zeros((n, n), dtype=bool)
        rel[src, dst] = True
        leq, acyclic = closure(n, np.array(src, dtype=np.int32), np.array(dst, dtype=np.int32))
        want = _squaring_closure(rel)
        assert leq.dtype == bool and (leq == want).all()
        assert acyclic == (antisymmetry_gap(want) is None)
        cyclic += not acyclic
    assert 700 <= cyclic <= 900


def test_a_document_with_several_cycles_gets_the_row_major_witness(monkeypatch):
    # the walk starts at v0 and pops the cycle v5 <-> v6 first; the witness
    # is still the row-major first pair of the closed order
    names = [f"v{i}" for i in range(8)]
    listed = [(0, 5), (5, 6), (6, 5), (7, 3), (3, 4), (4, 3), (1, 2), (2, 1), (6, 7)]
    rel = np.zeros((8, 8), dtype=bool)
    rel[tuple(zip(*listed))] = True
    want = antisymmetry_gap(_squaring_closure(rel))
    _no_squaring(monkeypatch)
    with pytest.raises(NotAPosetError) as exc:
        parse_lattice_doc({"elements": names, "leq": [[names[a], names[b]] for a, b in listed]})
    assert exc.value.witness == want == (1, 2)
    assert str(exc.value) == "NotAPoset: antisymmetry fails at ('v1', 'v2')"


def test_product_tables_equal_validation_of_the_kronecker_order(monkeypatch):
    validate = validate_lattice

    def refuse(p):
        raise AssertionError("product re-validated its order")
    monkeypatch.setattr(lattice, "validate_lattice", refuse)
    lats = [lat for _, lat in corpus()]
    for a, b in iproduct(lats, lats):
        prod = product(a, b)
        ref = validate(FinitePoset(prod.labels, np.kron(a.poset.leq, b.poset.leq)))
        assert (prod.poset.leq == ref.poset.leq).all()
        assert (prod.meet == ref.meet).all() and (prod.join == ref.join).all()
        assert (prod.bottom, prod.top) == (ref.bottom, ref.top)
        for table in (prod.poset.leq, prod.meet, prod.join):
            assert not table.flags.writeable and table.base is None


def test_label_lookup_is_one_dict_per_poset():
    p = diamond().poset
    assert p.label_ids is p.label_ids
    assert [p.index(x) for x in p.labels] == list(range(p.size))
    for bad in ("zz", ["a"], 0):
        with pytest.raises(ValueError) as exc:
            p.index(bad)
        assert str(exc.value) == f"unknown element label {bad!r}"


def test_chain_height_matches_dp():
    for n in (1, 2, 5, 9):
        lat = chain(n)
        assert longest_chain_edges(lat.poset.leq.tolist()) == n - 1
    assert longest_chain_edges(diamond().poset.leq.tolist()) == 2


def test_capacity_cap_is_read_per_call(monkeypatch):
    leq = np.triu(np.ones((7, 7), dtype=bool))
    p = FinitePoset(tuple("abcdefg"), leq)
    monkeypatch.setattr(mucofix.lattice, "DEFAULT_CAP", 6)
    with pytest.raises(CapacityError):
        validate_lattice(p)
    monkeypatch.setattr(mucofix.lattice, "DEFAULT_CAP", 7)
    assert validate_lattice(p).size == 7


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([n for n, _ in corpus()]), st.data())
def test_subset_meet_property(name, data):
    lat = dict(corpus())[name]
    ids = data.draw(st.lists(st.integers(0, lat.size - 1), min_size=1, max_size=5))
    leq = lat.poset.leq.tolist()
    assert lat.meet_set(ids) == glb_scan(leq, sorted(set(ids)))
    assert lat.join_set(ids) == lub_scan(leq, sorted(set(ids)))
