"""Simultaneous pre-fixed, post-fixed, and fixed pairs of a mutual
generator pair, their fibers, and the four component projections.

point_masks classifies every pair of the product carrier in one pass of
array operations; fibers are rows or columns of its masks and component
sets are their row and column projections. Nothing is cached, and no
pair count is capped: the element cap on each carrier bounds the masks
at two 16 MiB boolean arrays. The solvers' Tarski folds and the
plain-loop oracles in the test suite classify pairs independently of
this kernel, so they check it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genfun import MutualPair


@dataclass(frozen=True)
class PairPoint:
    """One point of the product carrier: o in the first lattice, p in the second."""
    o: int
    p: int


@dataclass(frozen=True)
class ComponentSets:
    """Projections of the simultaneous point classes.

    c and d are the first/second components over pre-fixed pairs, e and
    fset over post-fixed pairs. None of the four can be empty: the top
    pair is always pre-fixed and the bottom pair always post-fixed.
    """
    c: frozenset[int]
    d: frozenset[int]
    e: frozenset[int]
    fset: frozenset[int]


def _check_point(mp: MutualPair, pt: PairPoint) -> tuple[int, int]:
    return mp.dom_o._check_id(pt.o), mp.dom_p._check_id(pt.p)


def is_sim_prefixed(mp: MutualPair, pt: PairPoint) -> bool:
    'F(o) below p and G(p) below o.'
    o, p = _check_point(mp, pt)
    return bool(mp.dom_p.poset.leq[mp.f[o], p] and mp.dom_o.poset.leq[mp.g[p], o])


def is_sim_postfixed(mp: MutualPair, pt: PairPoint) -> bool:
    'p below F(o) and o below G(p).'
    o, p = _check_point(mp, pt)
    return bool(mp.dom_p.poset.leq[p, mp.f[o]] and mp.dom_o.poset.leq[o, mp.g[p]])


def is_sim_fixed(mp: MutualPair, pt: PairPoint) -> bool:
    'F(o) is exactly p and G(p) is exactly o.'
    o, p = _check_point(mp, pt)
    return mp.f[o] == p and mp.g[p] == o


def _check_side(side: str):
    if side not in ("O", "P"):
        raise ValueError(f"side must be 'O' or 'P', got {side!r}")


def pre_mask(leq_o: np.ndarray, leq_p: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The |O| x |P| boolean array of pairs (o, p) with F(o) below p and G(p)
    below o. With a leading batch axis on all four, one such array per pair
    of the stack, each read in its own two orders."""
    if f.ndim == 1:
        return leq_p[f, :] & leq_o[g, :].T
    b = np.arange(len(f))[:, None]
    return leq_p[b, f] & leq_o[b, g].transpose(0, 2, 1)


def _mask(mp: MutualPair, kind: str) -> np.ndarray:
    'The pre-fixed ("pre") or post-fixed ("post") mask of point_masks.'
    o, p = mp.dom_o, mp.dom_p
    # post-fixed is pre-fixed in the dual orders, whose rows are the down-sets
    leq_o, leq_p = (o.poset.leq, p.poset.leq) if kind == "pre" else (o.down_rows, p.down_rows)
    return pre_mask(leq_o, leq_p, np.asarray(mp.f), np.asarray(mp.g))


def point_masks(mp: MutualPair) -> tuple[np.ndarray, np.ndarray]:
    """Classify every pair of the product carrier at once.

    Returns two boolean |O| x |P| arrays: pre[o, p] holds when F(o) is
    below p and G(p) below o, post[o, p] when p is below F(o) and o below
    G(p). A pair is simultaneously fixed exactly where both hold. The
    fibers and component sets are read off these masks.
    """
    return _mask(mp, "pre"), _mask(mp, "post")


def _members(line: np.ndarray) -> frozenset[int]:
    return frozenset(line.nonzero()[0].tolist())


def _fiber(mp: MutualPair, anchor: int, side: str, kind: str) -> frozenset[int]:
    _check_side(side)
    anchor = (mp.dom_o if side == "O" else mp.dom_p)._check_id(anchor)
    mask = _mask(mp, kind)
    return _members(mask[anchor] if side == "O" else mask[:, anchor])


def prefp_fiber(mp: MutualPair, anchor: int, side: str = "O") -> frozenset[int]:
    """All partners forming a simultaneous pre-fixed pair with the anchor, which
    side names: a row ("O") or column ("P") of the pre-fixed mask, possibly empty."""
    return _fiber(mp, anchor, side, "pre")


def postfp_fiber(mp: MutualPair, anchor: int, side: str = "O") -> frozenset[int]:
    'All partners forming a simultaneous post-fixed pair with the anchor, as prefp_fiber.'
    return _fiber(mp, anchor, side, "post")


def component_sets(mp: MutualPair) -> ComponentSets:
    'Project the pre-/post-fixed pair classes onto both carriers.'
    pre, post = point_masks(mp)
    return ComponentSets(_members(pre.any(axis=1)), _members(pre.any(axis=0)),
                         _members(post.any(axis=1)), _members(post.any(axis=0)))


def enumerate_sim_fixed(mp: MutualPair) -> list[PairPoint]:
    'All simultaneous fixed pairs in lexicographic order; the pairing is one-to-one.'
    out = [PairPoint(o, mp.f[o]) for o in range(mp.dom_o.size) if mp.g[mp.f[o]] == o]
    # each o pairs only with f[o], and g maps each p back to one o, so
    # components can never repeat across the list
    if len({pt.o for pt in out}) != len(out):
        raise AssertionError
    if len({pt.p for pt in out}) != len(out):
        raise AssertionError
    return out
