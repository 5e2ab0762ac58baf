"""Solvers for least and greatest simultaneous fixed points.

Three strategies are kept deliberately separate so they can check each
other: direct (meets of the pre-fixed component sets), product (Kleene
iteration of the paired step on the product lattice), and a brute-force
meet over every pre-fixed pair of the product lattice, which serves as
the oracle for the other two. The oracle tests every pair, one byte per
pair: per element of O, one AND of two integers read from the bytes of
an order row in P and of a column of O's order rows taken in the order
of g. It calls no numpy function and takes nothing from simpoints but
PairPoint.
Monotonicity of both generators is required and checked, through the
verdict each pair caches; continuity never is.

Direct and the oracle solve the greatest pair as the least pair of
genfun.dual_pair, once monotonicity holds on the given pair; product
iterates down from the given top, so a wrong dual cannot make all three
agree.

kleene_implicit is the one Kleene loop: it runs a step from a caller's
start element and checks nothing but equality and the carrier height.
The product strategy runs through it with a step over the explicit
tables that records each iterate in its trace; the subtype demo runs it
on relation matrices too large to materialize as lattices.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

import numpy as np

from .genfun import LatticeFn, MutualPair, dual_pair
from .lattice import FiniteLattice
from .simpoints import PairPoint, is_sim_postfixed, is_sim_prefixed, pre_mask

class NotMonotoneError(Exception):
    def __init__(self, side: str, witness: tuple[int, int], labels):
        self.side = side
        self.witness = witness
        a, b = (labels[i] for i in witness)
        super().__init__(f"NotMonotone: {side} breaks the order at ({a},{b})")


class Verdict(Enum):
    PASS = "Pass"
    FAIL = "Fail"
    NOT_APPLICABLE = "NotApplicable"


@dataclass(frozen=True)
class SolveResult:
    """One solver run. The side that was not solved stays None; the trace
    carries full pair iterates only for the product strategy."""
    strategy: str
    mu_f: int | None
    mu_g: int | None
    nu_f: int | None
    nu_g: int | None
    trace: tuple[PairPoint, ...]
    iterations: int

    @property
    def mu(self):
        return None if self.mu_f is None else PairPoint(self.mu_f, self.mu_g)

    @property
    def nu(self):
        return None if self.nu_f is None else PairPoint(self.nu_f, self.nu_g)


def ensure_monotone(mp: MutualPair):
    'Raise NotMonotoneError naming the offending side and witness pair.'
    failure = mp.monotone_failure
    if failure is not None:
        side, w = failure
        raise NotMonotoneError(side, w, (mp.dom_o if side == "F" else mp.dom_p).labels)


def _meet_components(mp: MutualPair) -> tuple[int, int]:
    """Meets of the pre-fixed component sets of a monotone pair. That they
    pair up under f and g is Bekic's lemma, so a mismatch is an internal error."""
    pre = pre_mask(mp.dom_o.poset.leq, mp.dom_p.poset.leq, np.asarray(mp.f), np.asarray(mp.g))
    # C is the set of rows with a pre-fixed pair, D the set of columns
    mf = mp.dom_o.meet_set(np.flatnonzero(pre.any(axis=1)))
    mg = mp.dom_p.meet_set(np.flatnonzero(pre.any(axis=0)))
    if mp.f[mf] != mg or mp.g[mg] != mf:
        raise AssertionError("extremal components fail the fixed-point identities")
    return mf, mg


def lsfp_direct(mp: MutualPair) -> SolveResult:
    'Least pair as the meets of the pre-fixed component sets.'
    ensure_monotone(mp)
    mf, mg = _meet_components(mp)
    return SolveResult("direct", mf, mg, None, None, (), 0)


def gsfp_direct(mp: MutualPair) -> SolveResult:
    'Greatest pair as the least of the dual: joins of the post-fixed component sets.'
    ensure_monotone(mp)
    nf, ng = _meet_components(dual_pair(mp))
    return SolveResult("direct", None, None, nf, ng, (), 0)


def _product_iterate(mp: MutualPair, start: tuple[int, int]):
    # the single-function encoding on the product: (o, p) -> (g[p], f[o]);
    # a strict chain of the product is at most (|O|-1)+(|P|-1) steps long
    f, g = mp.f, mp.g
    trace = [PairPoint(*start)]

    def step(cur):
        nxt = (g[cur[1]], f[cur[0]])
        trace.append(PairPoint(*nxt))
        return nxt

    run = kleene_implicit(start, step, operator.eq, mp.dom_o.size + mp.dom_p.size - 2)
    return run.limit, tuple(trace), run.iterations


def lsfp_product(mp: MutualPair) -> SolveResult:
    'Kleene-iterate the paired step from the bottom pair upward, keeping the trace.'
    ensure_monotone(mp)
    (mf, mg), trace, its = _product_iterate(mp, (mp.dom_o.bottom, mp.dom_p.bottom))
    return SolveResult("product-explicit", mf, mg, None, None, trace, its)


def gsfp_product(mp: MutualPair) -> SolveResult:
    'Kleene-iterate the paired step from the top pair downward, keeping the trace.'
    ensure_monotone(mp)
    (nf, ng), trace, its = _product_iterate(mp, (mp.dom_o.top, mp.dom_p.top))
    return SolveResult("product-explicit", None, None, nf, ng, trace, its)


def _tarski_meet(mp: MutualPair) -> PairPoint:
    """Fold the component-wise meet over every simultaneous pre-fixed pair.

    Every pair of O x P is tested, one byte per pair. Row p of the byte
    matrix by_g is the up-set row of g[p] in O, so its column o, read as
    one integer of one byte per p, marks "g[p] <= o"; the up-set row of
    f[o] in P, read the same way, marks "f[o] <= p". Their AND marks the
    pre-fixed partners of o. C, the set of o with any partner, is folded
    with the meet on O as the loop goes; D, the OR of all partners, is
    folded with the meet on P after it. Meet is idempotent, so that is
    the same fold as one meet per pre-fixed pair."""
    leq_o, leq_p = mp.dom_o.poset.leq, mp.dom_p.poset.leq
    meet_o, meet_p = mp.dom_o.meet, mp.dom_p.meet
    f, g = mp.f, mp.g
    n_o, n_p = mp.dom_o.size, mp.dom_p.size
    rows_o = memoryview(leq_o.tobytes())
    by_g = b"".join([rows_o[x * n_o:(x + 1) * n_o] for x in g])
    above = {}
    mo, d = mp.dom_o.top, 0
    for o in range(n_o):
        x = f[o]
        up = above.get(x)
        if up is None:
            up = above[x] = int.from_bytes(leq_p[x].tobytes(), "little")
        partners = up & int.from_bytes(by_g[o::n_o], "little")
        if partners:
            mo = meet_o[mo, o]
            d |= partners
    # the top pair is always pre-fixed, so neither C nor D is empty
    mpp = mp.dom_p.top
    for p, hit in enumerate(d.to_bytes(n_p, "little")):
        if hit:
            mpp = meet_p[mpp, p]
    return PairPoint(int(mo), int(mpp))


def lsfp_tarski_oracle(mp: MutualPair) -> PairPoint:
    """Brute force: fold the component-wise meet over every simultaneous
    pre-fixed pair of the product carrier. Kept free of the component-set
    and solver code paths on purpose."""
    ensure_monotone(mp)
    return _tarski_meet(mp)


def gsfp_tarski_oracle(mp: MutualPair) -> PairPoint:
    'Dual brute force: the meet fold on the dual folds joins over post-fixed pairs.'
    ensure_monotone(mp)
    return _tarski_meet(dual_pair(mp))


def check_mutual_induction(mp: MutualPair, pt: PairPoint) -> Verdict:
    """The induction principle: any simultaneous pre-fixed pair bounds the
    least pair from above. Pairs that are not pre-fixed are out of scope,
    which is a verdict and not an error."""
    if not is_sim_prefixed(mp, pt):
        return Verdict.NOT_APPLICABLE
    r = lsfp_direct(mp)
    ok = mp.dom_o.leq(r.mu_f, pt.o) and mp.dom_p.leq(r.mu_g, pt.p)
    return Verdict.PASS if ok else Verdict.FAIL


def check_mutual_coinduction(mp: MutualPair, pt: PairPoint) -> Verdict:
    'Dual principle: any simultaneous post-fixed pair sits below the greatest pair.'
    if not is_sim_postfixed(mp, pt):
        return Verdict.NOT_APPLICABLE
    r = gsfp_direct(mp)
    ok = mp.dom_o.leq(pt.o, r.nu_f) and mp.dom_p.leq(pt.p, r.nu_g)
    return Verdict.PASS if ok else Verdict.FAIL


def standard_embed(lat: FiniteLattice, f) -> MutualPair:
    """Embed a standard endofunction by pairing it with the identity, so
    the simultaneous machinery answers ordinary fixed-point questions."""
    if isinstance(f, LatticeFn):
        if f.dom is not lat or f.cod is not lat:
            raise ValueError("endofunction must live on the given lattice")
        f = f.table
    return MutualPair(lat, lat, f, tuple(range(lat.size)))


@dataclass(frozen=True)
class ImplicitMutualPair:
    """Generator callables over carriers too large to materialize: f maps
    O-elements to P-elements and g maps P-elements back."""
    f: Callable[[Any], Any]
    g: Callable[[Any], Any]


@dataclass(frozen=True)
class KleeneRun:
    'Limit of one implicit iteration and the number of steps taken.'
    limit: Any
    iterations: int


def kleene_implicit(start, step: Callable[[Any], Any], eq: Callable[[Any, Any], bool],
                    height: int) -> KleeneRun:
    """Iterate step from start until two successive iterates are equal
    under eq. Monotonicity of step, and that start is a bound it moves
    away from, are the caller's contract; the iterates then form a chain,
    so past height strict steps (the carrier's longest strict chain) and
    one confirming step the run is an internal error."""
    cur = start
    for i in range(1, height + 2):
        nxt = step(cur)
        if eq(nxt, cur):
            return KleeneRun(cur, i)
        cur = nxt
    raise AssertionError(f"Kleene run exceeded the carrier height {height}")
