"""Document formats: parsing, closure on load, emission round trips."""
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import mucofix.textio
from mucofix import (CapacityError, DocumentError, NotALatticeError, NotAPosetError,
                     PairPoint, chain, diamond, emit_lattice_doc, emit_pair_doc,
                     gsfp_direct, gsfp_product, load_document, lsfp_direct,
                     lsfp_product, pair_from_json, pair_to_json,
                     parse_lattice_doc, parse_pair_doc, product)
from mucofix.cli import EXIT_INPUT, main

DATA = Path(__file__).parent / "data"


def test_load_document_errors(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_document(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"elements": [,]}')
    with pytest.raises(DocumentError, match=r"at line 1, column 15") as exc:
        load_document(bad)
    assert exc.value.line == 1 and exc.value.col == 15
    bad.write_text("[" * 200_000)
    with pytest.raises(DocumentError, match=r"^parse error in .*bad\.json: nesting too deep$"):
        load_document(bad)


def test_documents_are_read_as_utf8_whatever_the_locale(tmp_path):
    # JSON text is UTF-8, so an ASCII locale must not refuse a valid document
    doc = tmp_path / "accent.json"
    doc.write_bytes('{"elements": ["\u00e9", "b"], "leq": [["\u00e9", "b"]]}'.encode())
    assert b"\xc3\xa9" in doc.read_bytes()
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(mucofix.textio.__file__).resolve().parents[1]))
    env.pop("PYTHONUTF8", None)
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "mucofix.cli", "check", str(doc)],
                          capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, f"check: {doc}\nposet: ok\nlattice: ok\n")


def test_a_file_that_is_not_utf8_is_refused_with_its_path(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'\xff{"elements": ["a"], "leq": []}')
    with pytest.raises(DocumentError) as exc:
        load_document(bad)
    assert str(exc.value) == (f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff "
                              "in position 0: invalid start byte")
    assert main(["check", str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().out == f"check: {bad}\ninput error: {exc.value}\n"


def test_parse_lattice_closes_the_order():
    obj = {"elements": ["x", "y", "z"], "leq": [["x", "y"], ["y", "z"]]}
    lat = parse_lattice_doc(obj)
    # the transitive edge x <= z is implied, never written
    assert lat.leq(lat.index("x"), lat.index("z"))
    assert lat.bottom == lat.index("x") and lat.top == lat.index("z")


def test_parse_lattice_document_errors():
    with pytest.raises(DocumentError, match="unknown keys"):
        parse_lattice_doc({"elements": ["a"], "leq": [], "name": "L"})
    with pytest.raises(DocumentError, match="missing keys"):
        parse_lattice_doc({"elements": ["a"]})
    with pytest.raises(DocumentError, match="nonempty list"):
        parse_lattice_doc({"elements": [], "leq": []})
    with pytest.raises(DocumentError, match="distinct"):
        parse_lattice_doc({"elements": ["a", "a"], "leq": []})
    with pytest.raises(DocumentError, match="bad order pair"):
        parse_lattice_doc({"elements": ["a"], "leq": [["a"]]})
    with pytest.raises(DocumentError, match="unknown element"):
        parse_lattice_doc({"elements": ["a"], "leq": [["a", "b"]]})
    with pytest.raises(DocumentError, match="^lattice document must be an object$"):
        parse_lattice_doc([])
    with pytest.raises(DocumentError, match=r"^'leq' must be a list of \[lower, upper\] pairs$"):
        parse_lattice_doc({"elements": ["a"], "leq": 3})


def test_parse_lattice_structure_failures_are_not_document_errors():
    # a well-formed document can still describe a broken order; that is a
    # check failure with a witness, not a usage error
    with pytest.raises(NotAPosetError):
        parse_lattice_doc(load_document(DATA / "cycle.json"))
    with pytest.raises(NotALatticeError):
        parse_lattice_doc(load_document(DATA / "antichain3.json"))


def test_over_cap_document_is_refused_before_closure(monkeypatch):
    names = [str(i) for i in range(7)]
    chain_doc = {"elements": names, "leq": [[a, b] for a, b in zip(names, names[1:])]}
    monkeypatch.setattr(mucofix.lattice, "DEFAULT_CAP", 7)
    assert parse_lattice_doc(chain_doc).size == 7

    def no_closure(*args):
        raise AssertionError("closure ran on an over-cap document")
    monkeypatch.setattr(mucofix.textio, "closure", no_closure)
    monkeypatch.setattr(mucofix.lattice, "DEFAULT_CAP", 6)
    with pytest.raises(CapacityError, match=r"^7 elements exceeds the explicit cap 6$"):
        parse_lattice_doc(chain_doc)
    # the cap is checked before the edges, so it wins over a bad edge
    with pytest.raises(CapacityError):
        parse_lattice_doc({"elements": names, "leq": [["0", "ghost"]]})


def test_duplicate_edges_are_harmless():
    obj = {"elements": ["x", "y"], "leq": [["x", "y"], ["x", "y"], ["x", "x"]]}
    assert parse_lattice_doc(obj).size == 2


def chain_doc(n):
    'The n-chain c0 < c1 < ... as a lattice document of its covers.'
    names = [f"c{i}" for i in range(n)]
    return {"elements": names, "leq": [[a, b] for a, b in zip(names, names[1:])]}


def grid_doc(a, b):
    'The a x b grid, elements "i.j" in row-major order, as a lattice document of its covers.'
    return {"elements": [f"{i}.{j}" for i in range(a) for j in range(b)],
            "leq": [[f"{i}.{j}", f"{i + di}.{j + dj}"] for i in range(a) for j in range(b)
                    for di, dj in ((1, 0), (0, 1)) if i + di < a and j + dj < b]}


def _acyclic_path_only(monkeypatch):
    'Fail if a document order goes through squaring, a transitivity check or validate_lattice.'
    def refuse(*args):
        raise AssertionError("an acyclic document took the checking path")
    for name in ("compose", "transitivity_gap"):
        monkeypatch.setattr(mucofix.lattice, name, refuse)
    monkeypatch.setattr(mucofix.textio, "validate_lattice", refuse)


def test_acyclic_pair_documents_are_never_squared_or_rechecked(monkeypatch, k1):
    _acyclic_path_only(monkeypatch)
    mp = parse_pair_doc(load_document(DATA / "k1.json"))
    assert mp.f == k1.f and mp.g == k1.g
    lat, ref = parse_lattice_doc(grid_doc(3, 4)), product(chain(3), chain(4))
    for x, y in ((lat.poset.leq, ref.poset.leq), (lat.meet, ref.meet), (lat.join, ref.join)):
        assert (x == y).all()


def test_self_loops_and_duplicate_edges_stay_on_the_acyclic_path(monkeypatch):
    _acyclic_path_only(monkeypatch)
    obj = {"elements": ["x", "y"], "leq": [["x", "x"], ["x", "y"], ["x", "y"], ["y", "y"]]}
    lat = parse_lattice_doc(obj)
    assert lat.leq(0, 1) and not lat.leq(1, 0)


def test_dense_document_of_every_order_pair_parses_to_the_chain(monkeypatch):
    names = [str(i) for i in range(64)]
    doc = {"elements": names, "leq": [[a, b] for i, a in enumerate(names) for b in names[i:]]}
    _acyclic_path_only(monkeypatch)
    lat = parse_lattice_doc(doc)
    ref = chain(64)
    for x, y in ((lat.poset.leq, ref.poset.leq), (lat.meet, ref.meet), (lat.join, ref.join)):
        assert (x == y).all()


def test_a_4096_chain_document_parses_to_the_chain(monkeypatch):
    # the acyclic walk is the only order check, and no chain pair is searched
    doc = chain_doc(4096)
    _acyclic_path_only(monkeypatch)

    def refuse(*args):
        raise AssertionError("a document order was searched or re-checked")
    for name in ("antisymmetry_gap", "_up_words", "_least_upper"):
        monkeypatch.setattr(mucofix.lattice, name, refuse)
    lat = parse_lattice_doc(doc)
    ref = chain(4096)
    for x, y in ((lat.poset.leq, ref.poset.leq), (lat.meet, ref.meet), (lat.join, ref.join)):
        assert (x == y).all()
    assert (lat.bottom, lat.top) == (0, 4095)


def test_a_cyclic_4096_chain_document_is_refused_without_squaring(monkeypatch):
    # one back edge closes the whole chain into one cycle; the walk closes
    # it, and validate_lattice names the first antisymmetric pair
    doc = chain_doc(4096)
    doc["leq"].append(["c4095", "c0"])

    def refuse(*args):
        raise AssertionError("a cyclic document went through squaring or a transitivity check")
    for name in ("compose", "transitivity_gap"):
        monkeypatch.setattr(mucofix.lattice, name, refuse)
    checked = []
    validate = mucofix.textio.validate_lattice

    def counting(poset):
        checked.append(poset.size)
        return validate(poset)
    monkeypatch.setattr(mucofix.textio, "validate_lattice", counting)
    with pytest.raises(NotAPosetError) as exc:
        parse_lattice_doc(doc)
    assert str(exc.value) == "NotAPoset: antisymmetry fails at ('c0', 'c1')"
    assert exc.value.witness == (0, 1) and checked == [4096]


def test_cyclic_documents_keep_their_witness():
    with pytest.raises(NotAPosetError) as exc:
        parse_lattice_doc(load_document(DATA / "cycle.json"))
    assert str(exc.value) == "NotAPoset: antisymmetry fails at ('x', 'y')"
    # a 3-cycle a < b < c < a between a bottom and a top
    doc = {"elements": ["bot", "a", "b", "c", "top"],
           "leq": [["bot", "a"], ["a", "b"], ["b", "c"], ["c", "a"], ["c", "top"]]}
    with pytest.raises(NotAPosetError) as exc:
        parse_lattice_doc(doc)
    assert str(exc.value) == "NotAPoset: antisymmetry fails at ('a', 'b')"
    assert exc.value.witness == (1, 2)


@pytest.mark.parametrize("n", [257, 258])
def test_long_chain_pair_document_solves(n):
    # closing a chain of 258 once wrapped a uint8 path count at 256 and
    # refused the document as not a lattice
    names = [f"c{i}" for i in range(n)]
    side = {"elements": names, "leq": [[a, b] for a, b in zip(names, names[1:])]}
    doc = {"O": side, "P": side,
           "F": {x: names[max(i, 10)] for i, x in enumerate(names)},
           "G": {x: x for x in names}}
    mp = parse_pair_doc(doc)
    assert (mp.dom_o.poset.leq == chain(n).poset.leq).all()
    assert lsfp_direct(mp).mu == lsfp_product(mp).mu == PairPoint(10, 10)
    assert gsfp_direct(mp).nu == gsfp_product(mp).nu == PairPoint(n - 1, n - 1)


def test_parse_pair_doc(k1):
    mp = parse_pair_doc(load_document(DATA / "k1.json"))
    assert mp.f == k1.f and mp.g == k1.g
    assert mp.dom_o.labels == ("0", "1")


def test_parse_pair_table_errors():
    base = load_document(DATA / "k1.json")
    doc = json.loads(json.dumps(base))
    del doc["F"]["0"]
    with pytest.raises(DocumentError, match="missing an entry for '0'"):
        parse_pair_doc(doc)
    doc = json.loads(json.dumps(base))
    doc["F"]["0"] = "9"
    with pytest.raises(DocumentError) as exc:
        parse_pair_doc(doc)
    assert str(exc.value) == "'F' maps '0' to unknown element '9'"
    doc = json.loads(json.dumps(base))
    doc["G"]["extra"] = "0"
    with pytest.raises(DocumentError, match="unknown elements"):
        parse_pair_doc(doc)
    doc = json.loads(json.dumps(base))
    doc["F"] = ["0", "1"]
    with pytest.raises(DocumentError, match="must map element names"):
        parse_pair_doc(doc)
    with pytest.raises(DocumentError, match="missing keys"):
        parse_pair_doc({"O": base["O"], "P": base["P"], "F": base["F"]})


ABCD = ["a", "b", "c", "d"]


def pair_error(pairs, elements=ABCD):
    'The DocumentError text of a lattice document with these pairs, or None if it parses.'
    try:
        parse_lattice_doc({"elements": elements, "leq": pairs})
    except DocumentError as exc:
        return str(exc)
    return None


def test_the_first_bad_pair_is_named_after_a_long_good_run():
    doc = chain_doc(300)
    doc["leq"] += [["c5", "ghost"], ["c1"], ["c2", 7]]
    with pytest.raises(DocumentError) as exc:
        parse_lattice_doc(doc)
    assert str(exc.value) == "order pair names unknown element 'ghost'"
    doc["leq"][-3:] = [["c1"], ["c5", "ghost"]]
    with pytest.raises(DocumentError) as exc:
        parse_lattice_doc(doc)
    assert str(exc.value) == "bad order pair ['c1']"


def test_every_bad_pair_is_refused_with_the_loop_message():
    class Name(str):
        pass
    good = [["a", "b"], ["b", "d"]]
    cases = [
        # a string of two element names is no pair, though its letters are names
        (["ab"], "bad order pair 'ab'"),
        # six names in three pairs, but the second pair has one name
        ([["a", "b"], ["a"], ["a", "b", "c"]], "bad order pair ['a']"),
        ([["a", "b", "c"], ["a"]], "bad order pair ['a', 'b', 'c']"),
        ([["a", 1]], "bad order pair ['a', 1]"),
        ([["a", ["b"]]], "bad order pair ['a', ['b']]"),
        ([("a", "b")], "bad order pair ('a', 'b')"),
        ([None], "bad order pair None"),
        ([["a", "ghost"], ["a"]], "order pair names unknown element 'ghost'"),
        ([["ghost", 1]], "bad order pair ['ghost', 1]"),
    ]
    for bad, message in cases:
        assert pair_error(good + bad + good) == message, bad
    assert pair_error([["a", "b"]], ["a", ["b"]]) == "'elements' must be a nonempty list of names"
    assert pair_error([["a", "b"]], ["a", 2]) == "'elements' must be a nonempty list of names"
    # a str subclass is a name, in the elements and in the pairs
    lat = parse_lattice_doc({"elements": [Name("a"), "b"], "leq": [["a", Name("b")]]})
    assert lat.labels == ("a", "b") and lat.leq(0, 1)
    assert type(lat.labels[0]) is str and lat.index("a") == 0


def test_the_bulk_pass_refuses_exactly_what_the_loop_refuses():
    # seeded lists of mostly good pairs: the parse raises the loop's error
    # for the first bad pair, and parses whatever the loop finds no fault in
    rng = random.Random(29)
    bad_items = [["a"], ["a", "b", "c"], "ab", ("a", "b"), ["a", 3], [["a"], "b"],
                 ["a", "ghost"], ["ghost", "a"], None, {"a": "b"}, [None, None]]
    idx = {x: i for i, x in enumerate(ABCD)}
    refused = 0
    for _ in range(400):
        pairs = [[rng.choice(ABCD[:2]), rng.choice(ABCD[2:])] for _ in range(rng.randint(0, 30))]
        for _ in range(rng.choice([0, 0, 1, 2])):
            pairs.insert(rng.randint(0, len(pairs)), rng.choice(bad_items))
        try:
            mucofix.textio._pair_witness(pairs, idx)
        except DocumentError as exc:
            expected = str(exc)
            refused += 1
        except AssertionError:
            expected = None
        try:
            got = pair_error(pairs)
        except (NotAPosetError, NotALatticeError):
            got = None
        assert got == expected, pairs
    assert 100 < refused < 400


def table_error(table, what="F"):
    'The DocumentError text of the k1 pair document with table as F, or None if it parses.'
    doc = load_document(DATA / "k1.json")
    doc[what] = table
    try:
        parse_pair_doc(doc)
    except DocumentError as exc:
        return str(exc)
    return None


class PosingKey:
    'Not a str, but hashed and compared as the name "1", so a lookup by "1" finds it.'
    def __hash__(self):
        return hash("1")

    def __eq__(self, other):
        return other == "1"


def test_every_bad_table_is_refused_with_the_loop_message():
    must_map = "'F' must map element names to element names"
    cases = [
        ({"1": "1"}, "'F' is missing an entry for '0'"),
        ({"0": "1", "1": "9"}, "'F' maps '1' to unknown element '9'"),
        ({"0": "1", "1": "1", "2": "0"}, "'F' names unknown elements: ['2']"),
        ({"0": "1", "2": "0"}, "'F' is missing an entry for '1'"),
        ({"0": "1", "1": 1}, must_map),
        ({"0": "1", "1": None}, must_map),
        ({"0": "1", "1": ["1"]}, must_map),
        ({"0": "1", 1: "1"}, must_map),
        ({"0": "1", PosingKey(): "1"}, must_map),
        (["0", "1"], must_map),
        ("01", must_map),
    ]
    for table, message in cases:
        assert table_error(table) == message, table
    assert table_error({"0": "9", "1": "1"}, "G") == "'G' maps '0' to unknown element '9'"
    assert table_error({"0": "1", "1": "1"}) is None


def test_a_valid_document_never_takes_the_witness_loops(monkeypatch, k1):
    def refuse(*args):
        raise AssertionError("a valid document was read item by item")
    for name in ("_pair_witness", "_table_witness"):
        monkeypatch.setattr(mucofix.textio, name, refuse)
    mp = parse_pair_doc(load_document(DATA / "k1.json"))
    assert mp.f == k1.f and mp.g == k1.g
    grid = parse_lattice_doc(grid_doc(16, 16))
    assert (grid.poset.leq == product(chain(16), chain(16)).poset.leq).all()
    assert (parse_lattice_doc(chain_doc(4096)).poset.leq == chain(4096).poset.leq).all()


def test_a_document_lattice_keeps_the_name_dict_it_was_read_with():
    doc = grid_doc(3, 3)
    lat = parse_lattice_doc(doc)
    # kept before its first read, so no second dict is built
    assert "label_ids" in vars(lat.poset)
    assert lat.poset.label_ids == {name: i for i, name in enumerate(doc["elements"])}
    assert lat.index("2.1") == 7


def test_lattice_doc_round_trip():
    lat = diamond()
    doc = emit_lattice_doc(lat)
    assert sorted(doc["leq"]) == [["a", "top"], ["b", "top"],
                                  ["bot", "a"], ["bot", "b"]]
    again = parse_lattice_doc(doc)
    assert again.labels == lat.labels
    assert (again.poset.leq == lat.poset.leq).all()
    assert (again.meet == lat.meet).all()


def test_pair_round_trip(swap, cb2):
    for mp in (swap, cb2):
        again = parse_pair_doc(emit_pair_doc(mp))
        assert again.f == mp.f and again.g == mp.g
        assert again.dom_o.labels == mp.dom_o.labels
        assert (again.dom_p.poset.leq == mp.dom_p.poset.leq).all()


def test_pair_json_is_canonical(k1):
    text = pair_to_json(k1)
    assert text == pair_to_json(pair_from_json(text))
    assert "\n" not in text and ": " not in text
    with pytest.raises(DocumentError, match="parse error"):
        pair_from_json("{nope")
    with pytest.raises(DocumentError, match="^parse error: nesting too deep$"):
        pair_from_json("[" * 200_000)
