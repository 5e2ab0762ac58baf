"""JSON document formats for lattices, mutual pairs, and class tables.

A lattice document is {"elements": [names], "leq": [[lower, upper], ...]};
the reflexive-transitive closure is computed on load in one linear walk,
duplicate edges are harmless, a cycle is refused with its antisymmetry
witness, and unknown keys are rejected. A pair document nests two lattice
documents under "O" and "P" plus name-to-name tables under "F" and "G".
Malformed documents raise DocumentError (a usage problem); order-axiom and
bound failures surface as the lattice module's own errors (check failures).
"""
from __future__ import annotations

import json
from array import array
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
        text = Path(path).read_text()
    except OSError as e:
        raise DocumentError(f"cannot read {path}: {e.strerror or e}") from None
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
            or not all(isinstance(x, str) for x in names)):
        raise DocumentError("'elements' must be a nonempty list of names")
    if len(set(names)) != len(names):
        raise DocumentError("'elements' must be distinct")
    n = len(names)
    # refuse before the pairs are read and closed
    if n > lattice.DEFAULT_CAP:
        raise CapacityError(f"{n} elements exceeds the explicit cap {lattice.DEFAULT_CAP}")
    idx = {name: i for i, name in enumerate(names)}
    pairs = obj["leq"]
    if not isinstance(pairs, list):
        raise DocumentError("'leq' must be a list of [lower, upper] pairs")
    # 4-byte ids, read by numpy without a copy: a dense document lists millions of pairs
    lower, upper = array("i"), array("i")
    for e in pairs:
        if not (isinstance(e, list) and len(e) == 2 and all(isinstance(x, str) for x in e)):
            raise DocumentError(f"bad order pair {e!r}")
        for name in e:
            if name not in idx:
                raise DocumentError(f"order pair names unknown element {name!r}")
        lower.append(idx[e[0]])
        upper.append(idx[e[1]])
    src, dst = np.frombuffer(lower, np.int32), np.frombuffer(upper, np.int32)
    # the walk closes any relation; an acyclic one closes to a partial order,
    # and a cyclic one gets validate_lattice's antisymmetry witness
    leq, acyclic = closure(n, src, dst)
    leq.flags.writeable = False
    poset = FinitePoset(tuple(names), leq)
    if not acyclic:
        return validate_lattice(poset)
    # the listed pairs, self-loops dropped, generate the order; frozen here,
    # so the lattice keeps them without a copy
    keep = src != dst
    edges = src[keep], dst[keep]
    for x in edges:
        x.flags.writeable = False
    return bound_tables(poset, first, edges)


def _parse_table(obj, what: str, dom: FiniteLattice, cod: FiniteLattice) -> tuple[int, ...]:
    if not isinstance(obj, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in obj.items()):
        raise DocumentError(f"'{what}' must map element names to element names")
    table = []
    for name in dom.labels:
        if name not in obj:
            raise DocumentError(f"'{what}' is missing an entry for {name!r}")
        image = obj[name]
        try:
            table.append(cod.index(image))
        except ValueError:
            raise DocumentError(f"'{what}' maps {name!r} to unknown element {image!r}") from None
    extra = set(obj) - set(dom.labels)
    if extra:
        raise DocumentError(f"'{what}' names unknown elements: {sorted(extra)}")
    return tuple(table)


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
