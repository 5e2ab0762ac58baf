"""Generator tables, composition, monotonicity, continuity modes."""
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import product as iproduct
from pathlib import Path

import pytest

import mucofix
from mucofix import (BINARY, WITH_EMPTY, ContinuityMode, FiniteLattice, FinitePoset,
                     InstanceGenSpec, LatticeFn, MutualPair, NotMonotoneError,
                     chain, compose_fg, compose_gf, diamond, dual_pair,
                     is_continuous_pair, is_monotone, join_continuity_witness,
                     meet_continuity_witness,
                     lsfp_direct, monotone_witness, n5, pair_continuity_witness,
                     product, split_seed)
from mucofix.lattice import DEFAULT_CAP
from mucofix.textio import parse_lattice_doc
from mucofix.verifier import BLOCK, FAMILIES, GenerationExhausted, _instances, _sweep

from oracles import (continuity_witness_oracle, monotone_witness_oracle, nonempty_subsets,
                     preserves_joins_oracle, preserves_meets_oracle)


def test_mode_construction_and_labels():
    assert BINARY.kind == "binary"
    assert WITH_EMPTY.kind == "with-empty"
    with pytest.raises(ValueError):
        ContinuityMode("weekly")


def test_parse_mode_round_trips():
    for mode in (BINARY, WITH_EMPTY):
        assert ContinuityMode(mode.kind) == mode
    for text in ("capped:3", "capped:x", "ternary"):
        with pytest.raises(ValueError, match=rf"^unknown continuity mode '{text}'$"):
            ContinuityMode(text)


def test_fn_construction(c2, d4):
    assert LatticeFn(d4, c2, (0, 1, 1, 1)).table == (0, 1, 1, 1)
    with pytest.raises(ValueError):
        LatticeFn(c2, c2, (0,))
    with pytest.raises(ValueError, match=r"^element id 5 out of range 0\.\.1$"):
        LatticeFn(d4, c2, (0, 5, -1, 7))


@pytest.mark.parametrize("f, g", [((0.9, 1.7), (1, 1)), ((0, 1), (True, "1")),
                                  ((0, 1), (1, 1.0))])
def test_table_entries_must_be_integers(c2, f, g):
    # int() once read 0.9 as 0 and "1" as 1, so a wrong table was accepted
    with pytest.raises(TypeError):
        MutualPair(c2, c2, f, g)


def test_pair_construction(c2, d4):
    mp = MutualPair(c2, d4, (0, 3), (0, 0, 1, 1))
    assert mp.f_fn.dom is c2 and mp.g_fn.cod is c2
    with pytest.raises(ValueError):
        MutualPair(c2, d4, (0,), (0, 0, 1, 1))
    with pytest.raises(ValueError, match=r"^element id 9 out of range 0\.\.3$"):
        MutualPair(c2, d4, (0, 9), (0, 0, 1, 1))
    with pytest.raises(ValueError, match=r"^element id -1 out of range 0\.\.1$"):
        MutualPair(c2, d4, (0, 3), (0, -1, 2, 1))


# each public constructor fed a value that dual or dual_pair built, with one
# field broken; dual and dual_pair skip the checks, and these must not. The
# script ends with the miner's block self-check, also an explicit raise
CONSTRUCTOR_FAILURES = """
from mucofix import FiniteLattice, FinitePoset, LatticeFn, MutualPair, chain, dual, dual_pair
c3 = dual(chain(3))
mp = dual_pair(MutualPair(chain(3), chain(2), (0, 1, 1), (0, 2)))
negative = c3.meet.copy()
negative[0, 2] = -1
cases = [
    lambda: FinitePoset(("0", "1", "0"), c3.poset.leq),
    lambda: FinitePoset(c3.labels, c3.poset.leq[:2]),
    lambda: FiniteLattice(c3.poset, c3.meet, c3.join[:, :2], c3.bottom, c3.top),
    lambda: FiniteLattice(c3.poset, negative, c3.join, c3.bottom, c3.top),
    lambda: FiniteLattice(c3.poset, c3.meet, c3.join, 0, 7),
    lambda: FiniteLattice(c3.poset, c3.meet, c3.join, c3.top, c3.top),
    lambda: FiniteLattice(c3.poset, c3.meet, c3.join, c3.bottom, 1),
    lambda: FiniteLattice(c3.poset, c3.meet, c3.join, c3.bottom, c3.top,
                          (c3.edges[0], c3.edges[1] + 2)),
    lambda: LatticeFn(c3, mp.dom_p, (0, 2, 1)),
    lambda: MutualPair(mp.dom_o, mp.dom_p, mp.f, (0, 3)),
]
for build in cases:
    try:
        build()
        print("accepted")
    except ValueError as exc:
        print(exc)

# so must the stacked self-check of a generated block, with one F table
# turned round at its first, a middle or its last pair
from mucofix import BINARY, InstanceGenSpec
from mucofix import verifier
real = verifier._monotone_table
for position in (0, verifier.BLOCK // 2, verifier.BLOCK - 1):
    calls = []

    def planted(rng, dom, cod):
        table = list(real(rng, dom, cod))
        calls.append(None)
        if len(calls) == 2 * position + 1:
            table[dom.bottom], table[dom.top] = cod.top, cod.bottom
        return tuple(table)
    verifier._monotone_table = planted
    try:
        verifier._instances(InstanceGenSpec(seed=4, size_hi=6), range(verifier.BLOCK), BINARY)
        print("accepted")
    except AssertionError:
        print("block refused at", position)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "-O"])
def test_public_constructors_still_check_values_the_duals_built(flags):
    env = dict(os.environ, PYTHONPATH=str(Path(mucofix.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, *flags, "-c", CONSTRUCTOR_FAILURES],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["labels must be distinct", "order matrix must be 3x3",
                                        "bound tables must match the carrier",
                                        "bound tables must name elements of the carrier",
                                        "element id 7 out of range 0..2",
                                        "bottom 0 and top 0 must be the least and greatest"
                                        " elements",
                                        "bottom 2 and top 1 must be the least and greatest"
                                        " elements",
                                        "edges must name elements of the carrier",
                                        "element id 2 out of range 0..1",
                                        "element id 3 out of range 0..2"] + [
        f"block refused at {k}" for k in (0, BLOCK // 2, BLOCK - 1)]


SWAP = {"meet": "join", "join": "meet"}


def checked_dual(lat):
    'The order-dual through the public constructors, every check run.'
    return FiniteLattice(FinitePoset(lat.labels, lat.poset.leq.T), lat.join, lat.meet,
                         lat.top, lat.bottom, None if lat.edges is None else lat.edges[::-1])


def test_dual_pair_equals_the_checked_construction(d4):
    for lat_o, lat_p, f, g in ((d4, chain(3), (0, 1, 1, 2), (0, 1, 3)),
                               (n5(), d4, (0, 0, 1, 2, 3), (4, 1, 3, 0))):
        mp = MutualPair(lat_o, lat_p, f, g)
        built = [vars(lat).keys() & {"meet", "join"} for lat in (lat_o, lat_p)]
        got = dual_pair(mp)
        want = MutualPair(checked_dual(lat_o), checked_dual(lat_p), f, g)
        for lat, a, b, had in ((lat_o, got.dom_o, want.dom_o, built[0]),
                               (lat_p, got.dom_p, want.dom_p, built[1])):
            # a dual also keeps its down-set rows, which are the lattice's own
            # order; it shares each table the lattice had built, and any other
            # waits for its first read, which searches the dual's own order
            waiting = {"meet", "join"} - {SWAP[x] for x in had}
            assert vars(a).keys() | waiting == vars(b).keys() | {"down_rows"}
            assert not waiting & vars(a).keys() and len(waiting) <= 1
            for name in {"meet", "join"} - waiting:
                assert getattr(a, name) is getattr(lat, SWAP[name])
            assert a.down_rows is lat.poset.leq
            assert vars(a.poset).keys() == vars(b.poset).keys()
            assert (a.labels, a.size, a.bottom, a.top) == (b.labels, b.size, b.bottom, b.top)
            assert a.poset.leq.flags.c_contiguous
            for x, y in ((a.poset.leq, b.poset.leq), (a.meet, b.meet), (a.join, b.join)):
                assert x.dtype == y.dtype and not x.flags.writeable and (x == y).all()
            # reading the waiting table kept it
            assert vars(a).keys() == vars(b).keys() | {"down_rows"}
            assert (a.edges is None) == (b.edges is None)
            for x, y in () if a.edges is None else zip(a.edges, b.edges):
                assert x.dtype == y.dtype and not x.flags.writeable and (x == y).all()
        assert (got.f, got.g) == (want.f, want.g) == (mp.f, mp.g)
        assert got.f_fn.dom is got.dom_o and got.f_fn.cod is got.dom_p
        assert got.g_fn.dom is got.dom_p and got.g_fn.cod is got.dom_o
        assert (got.f_fn.table, got.g_fn.table) == (mp.f, mp.g)
        assert got.monotone_failure == want.monotone_failure


def test_building_a_pair_builds_no_function(monkeypatch, c2, d4):
    built = []
    real = LatticeFn.__post_init__
    monkeypatch.setattr(LatticeFn, "__post_init__", lambda fn: built.append(real(fn)))
    mp = MutualPair(c2, d4, (0, 3), (0, 0, 1, 1))
    assert built == [] and not {"f_fn", "g_fn"} & vars(mp).keys()
    assert mp.f_fn.table == (0, 3) and mp.g_fn.cod is c2 and built == []
    assert {"f_fn", "g_fn"} <= vars(mp).keys()
    assert mp.monotone_failure is None and dual_pair(mp).f_fn.table == (0, 3)


def test_pair_functions_are_built_once(c2, d4):
    mp = MutualPair(c2, d4, (0, 3), (0, 0, 1, 1))
    assert mp.f_fn is mp.f_fn and mp.g_fn is mp.g_fn
    assert mp.g_fn.table == (0, 0, 1, 1)
    twin = MutualPair(c2, d4, (0, 3), (0, 0, 1, 1))
    assert mp == twin    # the cached functions are not fields
    assert replace(mp, f=(1, 3)).f_fn.table == (1, 3)


def test_lattices_compare_by_identity_so_pairs_hash(c2, d4):
    # the generated comparison of order matrices raised; identity cannot
    a, b = chain(3), chain(3)
    assert a != b and a.poset != b.poset and a == a and a.poset == a.poset
    assert len({a, b, a}) == 2
    mp = MutualPair(c2, d4, (0, 3), (0, 0, 1, 1))
    twin = MutualPair(c2, d4, (0, 3), (0, 0, 1, 1))
    assert hash(mp) == hash(twin) and len({mp, twin, dual_pair(mp)}) == 2
    assert hash(mp.f_fn) == hash(twin.f_fn) and mp.f_fn == twin.f_fn
    assert MutualPair(c2, diamond(), (0, 3), (0, 0, 1, 1)) != mp


def test_monotone_failure_is_scanned_once_per_pair(monotone_scans, c2, d4):
    mp = MutualPair(c2, d4, (0, 3), (1, 0, 1, 1))
    assert mp.monotone_failure == ("G", (0, 1))
    assert mp.monotone_failure == ("G", (0, 1))
    assert monotone_scans == [mp.f_fn, mp.g_fn]
    # f fails first, so g is never scanned
    bad_f = MutualPair(c2, d4, (3, 0), (1, 0, 1, 1))
    assert bad_f.monotone_failure == ("F", (0, 1)) and monotone_scans[2:] == [bad_f.f_fn]
    assert MutualPair(c2, d4, (0, 3), (0, 0, 1, 1)).monotone_failure is None


def test_monotone_census_on_two_chain(c2):
    # exactly (0,0), (0,1), (1,1) are monotone; (1,0) flips the order
    monos = [t for t in iproduct(range(2), repeat=2)
             if is_monotone(LatticeFn(c2, c2, t))]
    assert monos == [(0, 0), (0, 1), (1, 1)]
    assert monotone_witness(LatticeFn(c2, c2, (1, 0))) == (0, 1)
    pairs = [(f, g) for f in iproduct(range(2), repeat=2)
             for g in iproduct(range(2), repeat=2)
             if is_monotone(MutualPair(c2, c2, f, g).f_fn)
             and is_monotone(MutualPair(c2, c2, f, g).g_fn)]
    assert len(pairs) == 9


LATTICES = {"C2": lambda: chain(2), "D4": diamond, "N5": n5, "C40": lambda: chain(40),
            "C300": lambda: chain(300), "C3xC4": lambda: product(chain(3), chain(4)),
            "C15xC20": lambda: product(chain(15), chain(20))}


@pytest.mark.parametrize("dom_name, cod_name", [("C2", "C2"), ("D4", "N5"), ("C3xC4", "D4"),
                                                ("C40", "C3xC4"), ("C300", "C300"),
                                                ("C15xC20", "C300")])
def test_monotone_witness_matches_the_plain_loop_oracle(dom_name, cod_name):
    dom, cod = LATTICES[dom_name](), LATTICES[cod_name]()
    dom_leq, cod_leq = dom.poset.leq.tolist(), cod.poset.leq.tolist()
    rng = random.Random(dom.size * 1000 + cod.size)
    # a linear extension of the domain mapped onto the codomain's ids in
    # rank order, then a middle entry raised to top: a witness deep in the scan
    rank = sorted(range(dom.size), key=lambda i: (sum(dom_leq[j][i] for j in range(dom.size)), i))
    ordered = [0] * dom.size
    for r, i in enumerate(rank):
        ordered[i] = r * (cod.size - 1) // max(1, dom.size - 1)
    raised = list(ordered)
    raised[rank[len(rank) // 2]] = cod.top
    tables = [tuple(rng.randrange(cod.size) for _ in range(dom.size)),
              (cod.top,) * dom.size, tuple(ordered), tuple(raised)]
    for table in tables:
        fn = LatticeFn(dom, cod, table)
        assert monotone_witness(fn) == monotone_witness_oracle(table, dom_leq, cod_leq)


def edge_verdict(fn):
    'Whether fn keeps every edge its domain keeps, read with plain lists.'
    cod_leq, t = fn.cod.poset.leq.tolist(), fn.table
    return all(cod_leq[t[a]][t[b]] for a, b in zip(*(x.tolist() for x in fn.dom.edges)))


def assert_edge_verdict_is_the_scans(fn, verdicts):
    'monotone_witness equals the plain scan, and so does the edge verdict where there are edges.'
    scan = monotone_witness_oracle(fn.table, fn.dom.poset.leq.tolist(), fn.cod.poset.leq.tolist())
    assert monotone_witness(fn) == scan
    if fn.dom.edges is not None:
        assert edge_verdict(fn) == (scan is None)
        verdicts.add(scan is None)


def test_edge_verdict_is_the_scans_on_the_sweep_and_seeded_pairs():
    verdicts = set()
    for mp in _sweep(3):
        for fn in (mp.f_fn, mp.g_fn):
            assert_edge_verdict_is_the_scans(fn, verdicts)
    families = set()
    for family, size, cls in iproduct(FAMILIES, range(1, 17), ("monotone", "arbitrary")):
        try:
            spec = InstanceGenSpec(seed=size, size_lo=size, size_hi=size, family=family,
                                   function_class=cls)
        except ValueError:          # no corpus lattice has this size
            continue
        for mp in _instances(spec, range(3), BINARY)[0]:
            families.add(family)
            for fn in (mp.f_fn, mp.g_fn):
                assert_edge_verdict_is_the_scans(fn, verdicts)
    assert families == set(FAMILIES) and verdicts == {True, False}


def test_edge_verdict_on_a_document_with_non_cover_and_repeated_pairs():
    # a 5-chain listed with shortcuts, a repeat and a self-loop, and a 2x3
    # grid with a diagonal shortcut; every table into the 3-chain and the diamond
    docs = ({"elements": list("abcde"),
             "leq": [["a", "b"], ["a", "c"], ["b", "c"], ["c", "d"], ["a", "c"],
                     ["b", "e"], ["d", "e"], ["d", "d"]]},
            {"elements": ["00", "01", "02", "10", "11", "12"],
             "leq": [["00", "01"], ["01", "02"], ["10", "11"], ["11", "12"], ["00", "10"],
                     ["01", "11"], ["02", "12"], ["00", "12"], ["01", "11"]]})
    verdicts = set()
    for doc in docs:
        dom = parse_lattice_doc(doc)
        assert len(dom.edges[0]) == sum(a != b for a, b in doc["leq"])
        for cod in (chain(3), diamond()):
            for table in iproduct(range(cod.size), repeat=dom.size):
                assert_edge_verdict_is_the_scans(LatticeFn(dom, cod, table), verdicts)
    assert verdicts == {True, False}


def test_a_lattice_without_edges_gets_the_scans_witness():
    # with no edges every table is scanned, and a chain stripped of its
    # edges gives the witness its edges give
    bare = replace(chain(4), edges=None)
    assert n5().edges is None and bare.edges is None and chain(4).edges is not None
    for dom in (n5(), bare):
        for table in iproduct(range(2), repeat=dom.size):
            fn = LatticeFn(dom, chain(2), table)
            want = monotone_witness_oracle(table, dom.poset.leq.tolist(), [[1, 1], [0, 1]])
            assert monotone_witness(fn) == want
    for table in iproduct(range(3), repeat=4):
        assert (monotone_witness(LatticeFn(bare, chain(3), table))
                == monotone_witness(LatticeFn(chain(4), chain(3), table)))


def test_a_violated_edge_at_the_cap_gets_the_full_scans_witness():
    lat = chain(DEFAULT_CAP)
    bare = replace(lat, edges=None)
    rng = random.Random(11)
    f = sorted(rng.randrange(DEFAULT_CAP) for _ in range(DEFAULT_CAP))
    g = sorted(rng.randrange(DEFAULT_CAP) for _ in range(DEFAULT_CAP))
    # one edge of G turned round: g drops below its predecessor at 2500
    g[2500] = g[2499] - 1
    fn, fn_bare = LatticeFn(lat, lat, g), LatticeFn(bare, lat, g)
    assert not edge_verdict(fn)
    want = monotone_witness(fn_bare)
    assert want is not None and want[1] == 2500
    with pytest.raises(NotMonotoneError) as err:
        lsfp_direct(MutualPair(lat, lat, f, g))
    assert (err.value.side, err.value.witness) == ("G", want)
    assert str(err.value) == f"NotMonotone: G breaks the order at ({want[0]},{want[1]})"


def test_composition_tables(k1, swap):
    assert compose_gf(k1).table == (1, 1)
    assert compose_fg(k1).table == (1, 1)
    assert compose_gf(swap).table == (0, 1, 2, 3)


def test_meet_witness_on_diamond_collapse(c2, d4):
    # both atoms map to 1 but their meet maps to 0;  (1,2) is the first
    # failing pair in cardinality-then-lex order
    fn = LatticeFn(d4, c2, (0, 1, 1, 1))
    assert is_monotone(fn)
    assert meet_continuity_witness(fn, BINARY) == (1, 2)
    assert join_continuity_witness(fn, BINARY) is None


def test_with_empty_adds_the_bound_laws(k1):
    g = k1.g_fn
    assert join_continuity_witness(g, BINARY) is None
    assert join_continuity_witness(g, WITH_EMPTY) == ()
    assert meet_continuity_witness(g, WITH_EMPTY) is None
    assert pair_continuity_witness(k1, BINARY) is None
    assert pair_continuity_witness(k1, WITH_EMPTY) == ("G", "join", ())


def test_pair_witness_checks_f_first(c2, d4):
    mp = MutualPair(d4, c2, (0, 1, 1, 1), (0, 3))
    assert pair_continuity_witness(mp, BINARY) == ("F", "meet", (1, 2))


def test_binary_equals_full_subset_continuity():
    # on a finite lattice, preserving binary bounds is preserving all
    # nonempty bounds; check every endo table on the diamond and on N5,
    # monotone or not, against the oracle over every nonempty subset
    for lat in (diamond(), n5()):
        leq = lat.poset.leq.tolist()
        subsets = nonempty_subsets(lat.size)
        for t in iproduct(range(lat.size), repeat=lat.size):
            fn = LatticeFn(lat, lat, t)
            assert (meet_continuity_witness(fn, BINARY) is None) == preserves_meets_oracle(
                t, leq, leq, subsets), t
            assert (join_continuity_witness(fn, BINARY) is None) == preserves_joins_oracle(
                t, leq, leq, subsets), t


def test_binary_continuity_implies_monotone_exhaustively(c2, d4):
    # the L1 direction, brute-forced over every table between the small
    # carriers in both directions
    for dom, cod in ((c2, d4), (d4, c2), (d4, d4)):
        for t in iproduct(range(cod.size), repeat=dom.size):
            fn = LatticeFn(dom, cod, t)
            if (meet_continuity_witness(fn, BINARY) is None
                    and join_continuity_witness(fn, BINARY) is None):
                assert is_monotone(fn)


def test_identity_is_continuous_in_every_mode(d4):
    mp = MutualPair(d4, d4, (0, 1, 2, 3), (0, 1, 2, 3))
    for mode in (BINARY, WITH_EMPTY):
        assert is_continuous_pair(mp, mode)


def _generated_fns(mode):
    'Both generators of seeded pairs of every function class, so many are not continuous.'
    fns = []
    for k, function_class in enumerate(("monotone", "continuous", "arbitrary")):
        spec = InstanceGenSpec(seed=split_seed(31, k), function_class=function_class)
        for mp in _instances(spec, range(25), mode)[0]:
            if not isinstance(mp, GenerationExhausted):
                fns += [mp.f_fn, mp.g_fn]
    return fns


@pytest.mark.parametrize("mode", [BINARY, WITH_EMPTY], ids=lambda m: m.kind)
def test_continuity_witnesses_match_the_plain_loop_oracle(mode):
    rng = random.Random(5)
    fns = _generated_fns(mode)
    for dom_name, cod_name in (("C3xC4", "D4"), ("C40", "C3xC4"), ("N5", "C3xC4")):
        dom, cod = LATTICES[dom_name](), LATTICES[cod_name]()
        fns += [LatticeFn(dom, cod, tuple(rng.randrange(cod.size) for _ in range(dom.size)))
                for _ in range(3)]
    kinds = Counter()
    for fn in fns:
        dom_leq, cod_leq = fn.dom.poset.leq.tolist(), fn.cod.poset.leq.tolist()
        for law, witness in (("meet", meet_continuity_witness), ("join", join_continuity_witness)):
            want = continuity_witness_oracle(fn.table, dom_leq, cod_leq, law,
                                             with_empty=mode == WITH_EMPTY)
            assert witness(fn, mode) == want, (law, fn.table)
            kinds["none" if want is None else "empty" if want == () else "pair"] += 1
    assert kinds["none"] and kinds["pair"]
    assert bool(kinds["empty"]) == (mode == WITH_EMPTY)
