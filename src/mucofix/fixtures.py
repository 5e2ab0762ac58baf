"""Shipped lattice corpus: chains, the diamond, the two minimal
non-distributive lattices, small powersets, and a few products."""
from __future__ import annotations

from functools import cache

import numpy as np

from . import lattice
from .lattice import (ID, CapacityError, FiniteLattice, FinitePoset, check_id_capacity,
                      powerset_lattice, product, validate_lattice)


def chain(n: int) -> FiniteLattice:
    """Total order 0 < 1 < ... < n-1, generated by the edges i -> i+1.
    The ids are made as ID, so each table is written in ID directly.
    Above lattice.DEFAULT_CAP, read at each call, it raises CapacityError
    before any array is made."""
    if n < 1:
        raise ValueError("a chain needs at least one element")
    check_id_capacity(n)
    if n > lattice.DEFAULT_CAP:
        raise CapacityError(f"{n} elements exceeds the explicit cap {lattice.DEFAULT_CAP}")
    r = np.arange(n, dtype=ID)
    leq = r[:, None] <= r[None, :]
    meet = np.minimum.outer(r, r)
    join = np.maximum.outer(r, r)
    for table in (leq, meet, join):
        table.flags.writeable = False
    return FiniteLattice(FinitePoset(tuple(map(str, range(n))), leq), meet, join, 0, n - 1,
                         (r[:-1], r[1:]))


def _from_strict(labels, pairs) -> FiniteLattice:
    n = len(labels)
    leq = np.eye(n, dtype=bool)
    idx = {name: i for i, name in enumerate(labels)}
    for lo, hi in pairs:
        leq[idx[lo], idx[hi]] = True
    return validate_lattice(FinitePoset(tuple(labels), leq))


def diamond() -> FiniteLattice:
    'Four elements: bot below the incomparable a, b below top.'
    return _from_strict(
        ("bot", "a", "b", "top"),
        [("bot", "a"), ("bot", "b"), ("bot", "top"), ("a", "top"), ("b", "top")])


def m3() -> FiniteLattice:
    'Three pairwise-incomparable atoms between the bounds.'
    pairs = [("bot", m) for m in "abc"] + [(m, "top") for m in "abc"] + [("bot", "top")]
    return _from_strict(("bot", "a", "b", "c", "top"), pairs)


def n5() -> FiniteLattice:
    'The pentagon: bot < a < c < top on one side, bot < b < top on the other.'
    pairs = [("bot", "a"), ("a", "c"), ("c", "top"), ("bot", "c"), ("a", "top"),
             ("bot", "b"), ("b", "top"), ("bot", "top")]
    return _from_strict(("bot", "a", "b", "c", "top"), pairs)


@cache
def corpus() -> tuple[tuple[str, FiniteLattice], ...]:
    'Named fixture lattices; everything is immutable so caching is safe.'
    return (
        ("C2", chain(2)),
        ("C3", chain(3)),
        ("C4", chain(4)),
        ("D4", diamond()),
        ("M3", m3()),
        ("N5", n5()),
        ("P1", powerset_lattice(1)),
        ("P2", powerset_lattice(2)),
        ("P3", powerset_lattice(3)),
        ("P4", powerset_lattice(4)),
        ("C2xC3", product(chain(2), chain(3))),
        ("D4xC2", product(diamond(), chain(2))),
    )
