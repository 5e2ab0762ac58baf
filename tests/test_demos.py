"""The subtyping instantiation and the recursive integer trio."""
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mucofix
from mucofix import (CapacityError, ClassDef, ClassTable, DocumentError,
                     GroundType, IntervalType, StepBudgetExceeded,
                     build_universe, fixture_tables, parse_class_table_doc, paulson_trio,
                     solve_subtyping)
from mucofix.demos import NULL, OBJECT, _check_preorder, subtype_generators

from oracles import (_class_closure, subtyping_greatest_oracle, subtyping_saturation,
                     trio_recursive)


def table(*defs):
    return ClassTable(tuple(defs))


OBJ = ClassDef(OBJECT)
NUL = ClassDef(NULL, superclass=OBJECT)


def test_class_table_validation():
    with pytest.raises(ValueError, match="must define Object"):
        table(NUL)
    with pytest.raises(ValueError, match="must define Null"):
        table(OBJ)
    with pytest.raises(ValueError, match="cannot be generic"):
        table(OBJ, ClassDef(NULL, is_generic=True, superclass=OBJECT))
    with pytest.raises(ValueError, match="Object has no superclass"):
        table(ClassDef(OBJECT, superclass=NULL), NUL)
    with pytest.raises(ValueError, match="needs a superclass"):
        table(OBJ, NUL, ClassDef("A"))
    with pytest.raises(ValueError, match="unknown class"):
        table(OBJ, NUL, ClassDef("A", superclass="Ghost"))
    with pytest.raises(ValueError, match="cycle"):
        table(OBJ, NUL, ClassDef("A", superclass="B"), ClassDef("B", superclass="A"))
    with pytest.raises(ValueError, match="distinct"):
        table(OBJ, OBJ, NUL)
    t = fixture_tables()["basic"]
    assert [c.superclass for c in t.classes if c.name == "A"] == [OBJECT]


def test_parse_class_table_doc():
    doc = {"classes": [
        {"name": "Object", "generic": False, "superclass": None},
        {"name": "Null", "generic": False, "superclass": "Object"},
        {"name": "Box", "generic": True, "superclass": "Object"},
    ]}
    t = parse_class_table_doc(doc)
    assert [c.name for c in t.classes if c.is_generic] == ["Box"]
    with pytest.raises(DocumentError, match='exactly the key "classes"'):
        parse_class_table_doc({"types": []})
    with pytest.raises(DocumentError, match="exactly the keys"):
        parse_class_table_doc({"classes": [{"name": "Object"}]})
    with pytest.raises(DocumentError, match="must be a boolean"):
        parse_class_table_doc({"classes": [
            {"name": "Object", "generic": "no", "superclass": None}]})
    with pytest.raises(DocumentError, match='^"classes" must be a list of records$'):
        parse_class_table_doc({"classes": {}})
    for row, message in (({"name": "", "generic": False, "superclass": None},
                          r"classes\[0\]\.name must be a nonempty string"),
                         ({"name": "Object", "generic": False, "superclass": 3},
                          r"classes\[0\]\.superclass must be a string or null")):
        with pytest.raises(DocumentError, match=f"^{message}$"):
            parse_class_table_doc({"classes": [row]})
    bad = {"classes": [{"name": "Null", "generic": False, "superclass": None}]}
    with pytest.raises(DocumentError, match="must define Object"):
        parse_class_table_doc(bad)


def subclass_pairs(ct, k):
    """The class order g reads over the depth-k universe, as name pairs:
    g of the empty containment is the unconditional part, and g of the
    full one adds the pairs of generic types whose classes are related."""
    types = build_universe(ct, k)[0]
    imp = subtype_generators(ct, types)
    m = len(types) ** 2
    rel = imp.g(np.ones((m, m), dtype=bool))
    assert (imp.g(np.zeros((m, m), dtype=bool)) <= rel).all()
    return {(a.class_name, b.class_name) for i, a in enumerate(types)
            for j, b in enumerate(types) if rel[i, j]}


def test_subclass_closure():
    t = table(OBJ, NUL, ClassDef("A", superclass=OBJECT),
              ClassDef("B", superclass="A"), ClassDef("C", superclass="B"))
    rel = subclass_pairs(t, 0)
    assert ("C", "A") in rel and ("B", "Object") in rel    # transitive
    assert ("A", "A") in rel                                # reflexive
    assert ("Null", "B") in rel and ("B", "Object") in rel  # sentinels
    assert ("A", "B") not in rel
    # on seeded tables the order g reads is the plain-loop closure, over
    # the pairs of types that are both plain or both generic
    for seed in range(12):
        ct = random_class_table(random.Random(seed))
        generic = {c.name: c.is_generic for c in ct.classes}
        edges = [(c.name, c.superclass) for c in ct.classes if c.superclass]
        want = {(a, b) for a, b in _class_closure(edges, [], build_universe(ct, 1)[0])
                if a == NULL or b == OBJECT or generic[a] == generic[b]}
        assert subclass_pairs(ct, 1) == want, seed


def test_type_labels():
    iv = IntervalType(GroundType(NULL), GroundType(OBJECT))
    assert str(iv) == "[Null,Object]"
    assert str(GroundType("List", iv)) == "List<[Null,Object]>"
    assert str(GroundType("A")) == "A"


def test_build_universe_sizes():
    ft = fixture_tables()
    types, intervals = build_universe(ft["two"], 0)
    assert len(types) == 2 and len(intervals) == 4
    types, intervals = build_universe(ft["basic"], 0)
    assert len(types) == 3 and len(intervals) == 9
    types, intervals = build_universe(ft["generic"], 1)
    assert len(types) == 6 and len(intervals) == 36
    assert sum(t.class_name == "List" for t in types) == 4
    # depth 2 holds 38 types; depth 3 would apply List to 38^2 intervals
    assert len(build_universe(ft["generic"], 2)[0]) == 38
    with pytest.raises(CapacityError,
                       match=r"^type universe grew to 1446 > cap 40; lower the depth$"):
        build_universe(ft["generic"], 3)
    with pytest.raises(ValueError):
        build_universe(ft["two"], -1)


def test_universe_cap_holds_at_depth_zero():
    # Object, Null and plain classes: no generic to nest, so depth 0 is
    # the whole universe and the cap applies to it as it stands
    def plain(n):
        return table(OBJ, NUL, *(ClassDef(f"C{i}", superclass=OBJECT) for i in range(n - 2)))
    types, intervals = build_universe(plain(40), 0)
    assert len(types) == 40 and len(intervals) == 1600
    # each type below itself, Null below the other 39, each C below Object
    assert solve_subtyping(plain(40), 0).sub.sum() == 40 + 39 + 38
    with pytest.raises(CapacityError, match=r"^type universe grew to 41 > cap 40 at depth 0$"):
        build_universe(plain(41), 0)


def test_solve_two_classes():
    state = solve_subtyping(fixture_tables()["two"], k=0)
    n, o = GroundType(NULL), GroundType(OBJECT)
    assert state.subtypes == frozenset({(n, n), (n, o), (o, o)})
    assert len(state.containments) == 9


def test_solve_basic_matches_saturation_oracle():
    ft = fixture_tables()
    for name, edges, generics in (
            ("basic", [("Null", "Object"), ("A", "Object")], []),
            ("generic", [("Null", "Object"), ("List", "Object")], ["List"])):
        for k in (0, 1):
            state = solve_subtyping(ft[name], k)
            want_s, want_r = subtyping_saturation(edges, generics,
                                                  state.types, state.intervals)
            assert state.subtypes == want_s
            assert state.containments == want_r


def test_generic_universe_relations():
    state = solve_subtyping(fixture_tables()["generic"], k=1)
    assert len(state.subtypes) == 20 and len(state.containments) == 400
    n, o = GroundType(NULL), GroundType(OBJECT)
    full = IntervalType(n, o)      # [Null,Object] admits every type
    empty = IntervalType(o, n)     # [Object,Null] admits none
    sub, cont = state.subtypes, state.containments
    assert (empty, full) in cont
    assert (full, empty) not in cont
    # the list constructor is covariant in interval containment
    l_full, l_empty = GroundType("List", full), GroundType("List", empty)
    assert {l_full, l_empty} <= set(state.types)
    assert (l_empty, l_full) in sub
    assert (l_full, l_empty) not in sub
    assert (l_full, o) in sub and (n, l_full) in sub
    assert (IntervalType(n, n), full) in cont


def test_least_equals_greatest_on_stratified_universes():
    # interval arguments always come from a strictly shallower round, so
    # the generators admit exactly one fixed pair over these universes
    ft = fixture_tables()
    for name, k in (("two", 0), ("basic", 1), ("generic", 1)):
        least = solve_subtyping(ft[name], k)
        greatest = solve_subtyping(ft[name], k, "greatest")
        assert least.subtypes == greatest.subtypes
        assert least.containments == greatest.containments


def test_generic_depth_two_finishes_with_pinned_counts():
    # 1444 intervals: about 2M containment candidates per step; the counts
    # are read off the matrices, so no set of 475 ** 2 pairs is built
    generic = fixture_tables()["generic"]
    least = solve_subtyping(generic, 2)
    assert (len(least.types), len(least.intervals)) == (38, 1444)
    assert (least.sub.sum(), least.cont.sum()) == (475, 475 ** 2)
    greatest = solve_subtyping(generic, 2, "greatest")
    # both limits are fixed pairs, so equal subtypes force equal containments
    assert np.array_equal(greatest.sub, least.sub)
    assert greatest.cont.sum() == least.cont.sum()


def test_containment_is_the_square_of_subtyping():
    # [a,b] sits in [c,d] iff c <: a and b <: d, over every interval of the
    # universe; depth 2 is pinned above at 475 ** 2
    for k in (0, 1):
        state = solve_subtyping(fixture_tables()["generic"], k)
        assert state.cont.sum() == state.sub.sum() ** 2


def test_pair_views_hold_exactly_the_marked_cells():
    for ct in fixture_tables().values():
        for k in (0, 1):
            for direction in ("least", "greatest"):
                state = solve_subtyping(ct, k, direction)
                for m, members, view in ((state.sub, state.types, state.subtypes),
                                         (state.cont, state.intervals, state.containments)):
                    assert view == {(a, b) for i, a in enumerate(members)
                                    for j, b in enumerate(members) if m[i, j]}
                    with pytest.raises(ValueError, match="read-only"):
                        m[0, 0] = not m[0, 0]
                # the views are built once; states compare by identity
                assert state.subtypes is state.subtypes and state != solve_subtyping(ct, k)


def random_class_table(rng):
    """Object, Null, up to three plain classes and up to three generics,
    each extending Object or an earlier class, in shuffled order; sized
    so the depth-1 universe stays within 14 types."""
    n_generic = rng.randrange(4)
    n_plain = rng.randint(0, (3, 1, 0, 0)[n_generic])
    defs, earlier = [], [OBJECT]
    for name, is_generic in ([(f"P{i}", False) for i in range(n_plain)]
                             + [(f"G{i}", True) for i in range(n_generic)]):
        defs.append(ClassDef(name, is_generic, rng.choice(earlier)))
        earlier.append(name)
    defs.append(NUL)
    rng.shuffle(defs)
    return table(OBJ, *defs)


def test_solve_matches_both_oracles_on_random_class_tables():
    shapes = set()
    for seed in range(10):
        ct = random_class_table(random.Random(seed))
        kinds = {c.name: c.is_generic for c in ct.classes}
        for c in ct.classes:
            if kinds[c.name] and c.superclass != OBJECT:
                shapes.add("generic extends generic" if kinds[c.superclass]
                           else "generic extends plain")
        edges = [(c.name, c.superclass) for c in ct.classes if c.superclass]
        generics = [c.name for c in ct.classes if c.is_generic]
        for k in (0, 1):
            least = solve_subtyping(ct, k)
            greatest = solve_subtyping(ct, k, "greatest")
            want = subtyping_saturation(edges, generics, least.types, least.intervals)
            assert (least.subtypes, least.containments) == want, (seed, k)
            want = subtyping_greatest_oracle(edges, generics, least.types, least.intervals)
            assert (greatest.subtypes, greatest.containments) == want, (seed, k)
    assert shapes == {"generic extends generic", "generic extends plain"}


def test_generators_index_the_universe():
    ct = fixture_tables()["generic"]
    types, intervals = build_universe(ct, 1)
    # the generators read interval i as [types[i // n], types[i % n]]
    assert intervals == tuple(IntervalType(a, b) for a in types for b in types)
    with pytest.raises(ValueError, match="types must be distinct"):
        subtype_generators(ct, types + types[:1])
    # types[0] is Object, a bound of List<[Object,Object]>
    with pytest.raises(ValueError, match=r"^Object is outside the given universe$"):
        subtype_generators(ct, types[1:])
    with pytest.raises(ValueError, match="class Ghost is not in the class table"):
        subtype_generators(ct, types + (GroundType("Ghost"),))
    imp = subtype_generators(ct, types)
    r = imp.f(np.eye(len(types), dtype=bool))    # only reflexive subtyping
    for i, a in enumerate(intervals):
        for j, b in enumerate(intervals):
            assert r[i, j] == (a == b)


def test_preorder_check_names_the_first_witness():
    carrier = ("p", "q", "r", "s")
    leq = np.eye(4, dtype=bool)
    leq[2, 2] = leq[3, 3] = False
    with pytest.raises(AssertionError, match=r"^subtype relation must be reflexive at r$"):
        _check_preorder("subtype", leq, carrier)
    leq = np.eye(4, dtype=bool)
    for a, b in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 0)):
        leq[a, b] = True
    # (p,s) is missing through q and through r; (q,p), (r,p), (s,q) and
    # (s,r) are missing too, and (q,p) would come first column by column
    with pytest.raises(AssertionError,
                       match=r"^containment relation must be transitive at p,q,s$"):
        _check_preorder("containment", leq, carrier)
    leq[0, 3] = True
    with pytest.raises(AssertionError, match=r"transitive at q,s,p$"):
        _check_preorder("containment", leq, carrier)
    _check_preorder("subtype", np.ones((4, 4), dtype=bool), carrier)


def test_solve_validation():
    with pytest.raises(ValueError, match="direction"):
        solve_subtyping(fixture_tables()["two"], 0, "middling")


def test_trio_frozen_values():
    assert paulson_trio(0, 0, 0) == (1, 1, 0)
    assert paulson_trio(1, 5, 2, entry="G") == (3, 11, -1)
    assert paulson_trio(2, 3, 0, entry="H") == (2, 3, 0)


def test_trio_matches_recursive_oracle():
    for args in ((0, 0, 0), (1, 5, 2), (2, 3, 0), (0, 0, -7), (5, 9, 1)):
        for entry in ("F", "G", "H"):
            assert paulson_trio(*args, entry=entry) == trio_recursive(*args, entry=entry)


def test_trio_arbitrary_precision():
    big = 10 ** 30
    assert paulson_trio(big, 5, 2) == (big + 2, 2 * big + 8, 1 - big)
    assert paulson_trio(big, 5, 2) == trio_recursive(big, 5, 2)


def test_trio_budget_and_entry_validation():
    with pytest.raises(StepBudgetExceeded):
        paulson_trio(0, 0, 1, budget=50)    # y stays below z forever
    with pytest.raises(ValueError):
        paulson_trio(0, 0, 0, entry="Q")
    with pytest.raises(ValueError, match="^budget must be nonnegative$"):
        paulson_trio(0, 0, 0, budget=-1)


def test_trio_budget_message_names_the_start_state():
    with pytest.raises(StepBudgetExceeded, match=r"^no return within 10 steps from \(-5,0,3\)$"):
        paulson_trio(-5, 0, 3, budget=10)


def test_preorder_check_survives_python_O():
    # an assert statement would be stripped by -O and let this pass silently
    code = ("import numpy as np\n"
            "from mucofix.demos import _check_preorder\n"
            "_check_preorder('subtype', np.zeros((1, 1), bool), ('A',))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(mucofix.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert proc.stderr.rstrip().endswith(
        "AssertionError: subtype relation must be reflexive at A")
