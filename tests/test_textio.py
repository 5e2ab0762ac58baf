"""Document formats: parsing, closure on load, emission round trips."""
import json
from pathlib import Path

import pytest

import mucofix.textio
from mucofix import (CapacityError, DocumentError, NotALatticeError, NotAPosetError,
                     PairPoint, chain, diamond, emit_lattice_doc, emit_pair_doc,
                     gsfp_direct, gsfp_product, load_document, lsfp_direct,
                     lsfp_product, pair_from_json, pair_to_json,
                     parse_lattice_doc, parse_pair_doc, product)

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
    grid = {"elements": [f"{i}.{j}" for i in range(3) for j in range(4)],
            "leq": [[f"{i}.{j}", f"{i + di}.{j + dj}"] for i in range(3) for j in range(4)
                    for di, dj in ((1, 0), (0, 1)) if i + di < 3 and j + dj < 4]}
    lat, ref = parse_lattice_doc(grid), product(chain(3), chain(4))
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
    names = [f"c{i}" for i in range(4096)]
    doc = {"elements": names, "leq": [[a, b] for a, b in zip(names, names[1:])]}
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
    names = [f"c{i}" for i in range(4096)]
    doc = {"elements": names,
           "leq": [[a, b] for a, b in zip(names, names[1:])] + [[names[-1], names[0]]]}

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
