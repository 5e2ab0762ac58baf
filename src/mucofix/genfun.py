"""Mutual generator pairs between finite lattices: total mapping tables,
composition, and monotonicity/continuity checks with minimal witnesses.

Witnesses are the smallest failing subsets, ordered by cardinality and
then lexicographically, so every check is deterministic. Continuity is
checked on binary bounds only: on a finite lattice every nonempty subset
bound is a fold of binary ones, so preserving the binary bounds is
preserving them all.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lattice import FiniteLattice, _prechecked, dual


@dataclass(frozen=True)
class ContinuityMode:
    """Which subset bounds a generator must preserve.

    binary: binary meets/joins; on a finite lattice this is equivalent to
    preserving every nonempty subset bound.
    with-empty: binary plus the empty subset, which pins top to top for
    meets and bottom to bottom for joins.
    """
    kind: str

    def __post_init__(self):
        if self.kind not in ("binary", "with-empty"):
            raise ValueError(f"unknown continuity mode {self.kind!r}")


BINARY = ContinuityMode("binary")
WITH_EMPTY = ContinuityMode("with-empty")


@dataclass(frozen=True)
class LatticeFn:
    """A total function between lattice carriers as an image table of
    integers; a float or string entry raises TypeError (operator.index)."""
    dom: FiniteLattice
    cod: FiniteLattice
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", _checked_table(self.table, self.dom, self.cod))


def _checked_table(table, dom: FiniteLattice, cod: FiniteLattice) -> tuple[int, ...]:
    'table as a tuple of ints, one per element of dom, each an element of cod.'
    table = tuple(map(operator.index, table))
    if len(table) != dom.size:
        raise ValueError("table must cover every domain element")
    cod._check_ids(table)
    return table


@dataclass(frozen=True)
class MutualPair:
    """Two mutual generators as tables: f maps O into P and g maps P into O.
    f_fn and g_fn are the same tables as LatticeFn values, built on first use."""
    dom_o: FiniteLattice
    dom_p: FiniteLattice
    f: tuple[int, ...]
    g: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "f", _checked_table(self.f, self.dom_o, self.dom_p))
        object.__setattr__(self, "g", _checked_table(self.g, self.dom_p, self.dom_o))

    @cached_property
    def f_fn(self) -> LatticeFn:
        return _prechecked(LatticeFn, dom=self.dom_o, cod=self.dom_p, table=self.f)

    @cached_property
    def g_fn(self) -> LatticeFn:
        return _prechecked(LatticeFn, dom=self.dom_p, cod=self.dom_o, table=self.g)

    @cached_property
    def monotone_failure(self):
        """The first (side, witness) at which f, then g, breaks the order,
        or None. A pair's tables and lattices cannot change, so both are
        scanned at most once per pair, on first use."""
        return _first_monotone_failure((("F", self.f_fn), ("G", self.g_fn)))

    @cached_property
    def _continuity_failures(self) -> dict:
        return {}

    def continuity_failure(self, mode: ContinuityMode):
        """pair_continuity_witness(self, mode), scanned at most once per
        pair and mode, on first use, like monotone_failure."""
        failures = self._continuity_failures
        if mode not in failures:
            failures[mode] = pair_continuity_witness(self, mode)
        return failures[mode]


def dual_pair(mp: MutualPair) -> MutualPair:
    """The same tables between both order-duals; its least pair is the
    greatest of mp. The tables were checked when mp was built and a dual
    has the carrier of its lattice, so nothing is checked again."""
    return _prechecked(MutualPair, dom_o=dual(mp.dom_o), dom_p=dual(mp.dom_p), f=mp.f, g=mp.g)


def compose_gf(mp: MutualPair) -> LatticeFn:
    'The round trip through P, an endofunction on O.'
    return LatticeFn(mp.dom_o, mp.dom_o, tuple(mp.g[x] for x in mp.f))


def compose_fg(mp: MutualPair) -> LatticeFn:
    'The round trip through O, an endofunction on P.'
    return LatticeFn(mp.dom_p, mp.dom_p, tuple(mp.f[x] for x in mp.g))


def monotone_witness(fn: LatticeFn):
    """First comparable pair, in row-major order, whose images break the
    order, or None. When the domain keeps edges that generate its order,
    a map that keeps every edge is monotone and no pair is scanned; any
    other map is scanned in full, so the witness is the scan's."""
    t = np.asarray(fn.table)
    edges = fn.dom.edges
    if edges is not None and fn.cod.poset.leq[t[edges[0]], t[edges[1]]].all():
        return None
    bad = _order_breaks(fn.dom.poset.leq, fn.cod.poset.leq, t).ravel()
    # argmax of a boolean array is its first True in row-major order
    i = int(bad.argmax())
    return divmod(i, len(t)) if bad[i] else None


def _order_breaks(leq_dom: np.ndarray, leq_cod: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The boolean array of pairs (x, y) with x below y in the domain and
    t[x] not below t[y] in the codomain. With a leading batch axis on all
    three, each table is scanned between its own two orders."""
    if t.ndim == 1:
        # gathering rows then columns is several times faster than one 2-D gather
        return leq_dom & ~leq_cod[t][:, t]
    b = np.arange(len(t))[:, None, None]
    return leq_dom & ~leq_cod[b, t[:, :, None], t[:, None, :]]


def is_monotone(fn: LatticeFn) -> bool:
    return monotone_witness(fn) is None


def _first_monotone_failure(named):
    'First (name, witness) at which a (name, LatticeFn) of named breaks the order, or None.'
    # the scan stops at the first failure: later functions are never scanned
    for name, fn in named:
        w = monotone_witness(fn)
        if w is not None:
            return name, w
    return None


def _continuity_witness(fn: LatticeFn, mode: ContinuityMode, law: str):
    'Smallest subset (size, then lex) whose meet or join fn does not preserve, or None.'
    dom, cod, t = fn.dom, fn.cod, fn.table
    if law == "meet":
        dom_op, cod_op, dom_unit, cod_unit = dom.meet, cod.meet, dom.top, cod.top
    else:
        dom_op, cod_op, dom_unit, cod_unit = dom.join, cod.join, dom.bottom, cod.bottom
    # the empty meet is top and the empty join is bottom
    if mode.kind == "with-empty" and t[dom_unit] != cod_unit:
        return ()
    ta = np.asarray(t)
    # bound tables are commutative and idempotent, so bad is symmetric with
    # a false diagonal: its first True in row-major order (argmax) lies above
    # the diagonal, where row-major order is that of combinations(range(n), 2)
    bad = (ta[dom_op] != cod_op[ta][:, ta]).ravel()
    i = int(bad.argmax())
    return divmod(i, len(t)) if bad[i] else None


def meet_continuity_witness(fn: LatticeFn, mode: ContinuityMode = BINARY):
    'Smallest subset (size, then lex) breaking meet preservation, or None.'
    return _continuity_witness(fn, mode, "meet")


def join_continuity_witness(fn: LatticeFn, mode: ContinuityMode = BINARY):
    'Smallest subset (size, then lex) breaking join preservation, or None.'
    return _continuity_witness(fn, mode, "join")


def _first_continuity_failure(named, mode: ContinuityMode):
    'First (name, law, subset) at which a function of named breaks meets, then joins, or None.'
    for name, fn in named:
        for law, witness in (("meet", meet_continuity_witness), ("join", join_continuity_witness)):
            w = witness(fn, mode)
            if w is not None:
                return name, law, w
    return None


def pair_continuity_witness(mp: MutualPair, mode: ContinuityMode = BINARY):
    'First (side, law, subset) continuity failure over f then g, or None.'
    return _first_continuity_failure((("F", mp.f_fn), ("G", mp.g_fn)), mode)


def is_continuous_pair(mp: MutualPair, mode: ContinuityMode = BINARY) -> bool:
    'Both generators preserve meets and joins under mode, decided once per pair and mode.'
    return mp.continuity_failure(mode) is None
