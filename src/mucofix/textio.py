"""JSON document formats for lattices, mutual pairs, and class tables.

A lattice document is {"elements": [names], "leq": [[lower, upper], ...]};
the reflexive-transitive closure is computed on load in one linear walk,
duplicate edges are harmless, a cycle is refused with its antisymmetry
witness, and unknown keys are rejected. A pair document nests two lattice
documents under "O" and "P" plus name-to-name tables under "F" and "G".
Files are read as UTF-8, the encoding of JSON text, whatever the locale.

The order pairs and the F/G entries are read in bulk: C-level passes
(map, all, array) check their shapes and types and resolve every name to
its id, with no Python loop per item. Only when a pass refuses does a
witness helper walk the items in order to name the first bad pair or
entry, so a valid document never pays for the loop and an invalid one
gets the message that loop has always given.
Malformed documents raise DocumentError (a usage problem); order-axiom and
bound failures surface as the lattice module's own errors (check failures).
"""
from __future__ import annotations

import json
from array import array
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import lattice
from .genfun import MutualPair
from .lattice import (CapacityError, FiniteLattice, FinitePoset, bound_tables, closure,
                      cover_edges, validate_lattice)


class DocumentError(Exception):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" at line {line}, column {col}" if line is not None else ""
        super().__init__(f"{message}{where}")


def load_document(path):
    'Read and parse one JSON document; parse errors carry line and column.'
    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale says
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise DocumentError(f"cannot read {path}: {e}") from None
    return _decode(text, f" in {path}")


def _decode(text: str, where: str = ""):
    """Parse JSON text. Malformed text, and nesting too deep for the
    recursive parser, is a DocumentError whose message names where."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError(f"parse error{where}: {e.msg}", e.lineno, e.colno) from None
    except RecursionError:
        raise DocumentError(f"parse error{where}: nesting too deep") from None


def _require_keys(obj, keys: set[str], what: str):
    if not isinstance(obj, dict):
        raise DocumentError(f"{what} must be an object")
    extra = set(obj) - keys
    if extra:
        raise DocumentError(f"{what} has unknown keys: {sorted(extra)}")
    missing = keys - set(obj)
    if missing:
        raise DocumentError(f"{what} is missing keys: {sorted(missing)}")


def parse_lattice_doc(obj, first: str = "join") -> FiniteLattice:
    """Build a lattice from a document, closing the order on load. first
    names the bound table searched to prove it, "join" or "meet"; the
    other is built on its first read (see lattice.bound_tables)."""
    _require_keys(obj, {"elements", "leq"}, "lattice document")
    names = obj["elements"]
    if (not isinstance(names, list) or not names
            or not all(map(isinstance, names, repeat(str)))):
        raise DocumentError("'elements' must be a nonempty list of names")
    n = len(names)
    idx = dict(zip(names, range(n)))
    if len(idx) != n:
        raise DocumentError("'elements' must be distinct")
    # refuse before the pairs are read and closed
    if n > lattice.DEFAULT_CAP:
        raise CapacityError(f"{n} elements exceeds the explicit cap {lattice.DEFAULT_CAP}")
    pairs = obj["leq"]
    if not isinstance(pairs, list):
        raise DocumentError("'leq' must be a list of [lower, upper] pairs")
    # every pair a list of two str names, one C-level pass per check; then
    # the ids streamed into 4-byte slots that numpy reads without a copy
    # (a dense document lists millions of pairs)
    ids = None
    if (all(map(isinstance, pairs, repeat(list))) and set(map(len, pairs)) <= {2}
            and all(map(isinstance, chain.from_iterable(pairs), repeat(str)))):
        try:
            ids = array("i", map(idx.__getitem__, chain.from_iterable(pairs)))
        except KeyError:
            pass
    if ids is None:
        _pair_witness(pairs, idx)
    flat = np.frombuffer(ids, np.int32)
    src, dst = flat[0::2], flat[1::2]
    # the walk closes any relation; an acyclic one closes to a partial order,
    # and a cyclic one gets validate_lattice's antisymmetry witness
    leq, acyclic = closure(n, src, dst)
    leq.flags.writeable = False
    poset = FinitePoset(tuple(names), leq)
    # the poset's label-to-id dict is the one built above
    vars(poset)["label_ids"] = idx
    if not acyclic:
        return validate_lattice(poset)
    # the listed pairs, self-loops dropped, generate the order; frozen here,
    # so the lattice keeps them without a copy
    keep = src != dst
    edges = src[keep], dst[keep]
    edges[0].flags.writeable = edges[1].flags.writeable = False
    return bound_tables(poset, first, edges)


def _pair_witness(pairs: list, idx: dict[str, int]):
    'Raise the DocumentError of the first bad pair, which the bulk pass found but cannot name.'
    for e in pairs:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise DocumentError(f"bad order pair {e!r}")
        for name in e:
            if name not in idx:
                raise DocumentError(f"order pair names unknown element {name!r}")
    raise AssertionError("the bulk pass refused order pairs that are all good")


def _parse_table(obj, what: str, dom: FiniteLattice, cod: FiniteLattice) -> tuple[int, ...]:
    # every label of dom has an entry and there is no other key exactly when
    # each label's lookup finds a name and the table is no longer than dom
    if isinstance(obj, dict) and len(obj) == dom.size:
        images = list(map(obj.get, dom.labels))    # None where an entry is missing
        if all(map(isinstance, chain(obj, images), repeat(str))):
            try:
                return tuple(map(cod.poset.label_ids.__getitem__, images))
            except KeyError:
                pass
    _table_witness(obj, what, dom, cod)


def _table_witness(obj, what: str, dom: FiniteLattice, cod: FiniteLattice):
    'Raise the DocumentError of the first bad entry, which the bulk pass found but cannot name.'
    if not isinstance(obj, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in obj.items()):
        raise DocumentError(f"'{what}' must map element names to element names")
    for name in dom.labels:
        if name not in obj:
            raise DocumentError(f"'{what}' is missing an entry for {name!r}")
        image = obj[name]
        if image not in cod.poset.label_ids:
            raise DocumentError(f"'{what}' maps {name!r} to unknown element {image!r}")
    extra = set(obj) - set(dom.labels)
    if extra:
        raise DocumentError(f"'{what}' names unknown elements: {sorted(extra)}")
    raise AssertionError("the bulk pass refused a table whose entries are all good")


def parse_pair_doc(obj, first: str = "join") -> MutualPair:
    'Build a mutual pair from a document with O, P, F, G; first as in parse_lattice_doc.'
    _require_keys(obj, {"O", "P", "F", "G"}, "pair document")
    return pair_from_lattices(obj, parse_lattice_doc(obj["O"], first),
                              parse_lattice_doc(obj["P"], first))


def pair_from_lattices(obj, lat_o: FiniteLattice, lat_p: FiniteLattice) -> MutualPair:
    'Read the F and G tables of a pair document over its already parsed lattices.'
    f = _parse_table(obj["F"], "F", lat_o, lat_p)
    g = _parse_table(obj["G"], "G", lat_p, lat_o)
    return MutualPair(lat_o, lat_p, f, g)


def emit_lattice_doc(lat: FiniteLattice) -> dict:
    'Inverse of parse_lattice_doc up to closure: cover edges only.'
    return {
        "elements": list(lat.labels),
        "leq": [[lat.label(i), lat.label(j)] for i, j in cover_edges(lat)],
    }


def emit_pair_doc(mp: MutualPair) -> dict:
    return {
        "O": emit_lattice_doc(mp.dom_o),
        "P": emit_lattice_doc(mp.dom_p),
        "F": {mp.dom_o.label(o): mp.dom_p.label(x) for o, x in enumerate(mp.f)},
        "G": {mp.dom_p.label(p): mp.dom_o.label(x) for p, x in enumerate(mp.g)},
    }


def pair_to_json(mp: MutualPair) -> str:
    'Canonical one-line serialization, stable across runs.'
    return json.dumps(emit_pair_doc(mp), sort_keys=True, separators=(",", ":"))


def pair_from_json(text: str) -> MutualPair:
    return parse_pair_doc(_decode(text))
