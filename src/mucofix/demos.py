"""Two working instantiations of the engine.

The first is a subtype system with interval-bounded generics: the
subtyping relation on ground types and the containment relation on
intervals define each other, so both are solved at once as a least or
greatest simultaneous fixed point over a product of relation powersets.
Each relation is a boolean matrix over the ids of the universe, so one
generator step is a pair of array gathers, and the matrix pair is
iterated directly from all-false or all-true; no powerset is built. The
answer is the two limit matrices; pair sets are built on first read.
The second is a trio of mutually recursive functions extracted from a
small imperative program, run as a label state machine over unbounded
integers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .lattice import CapacityError, closure, transitivity_gap
from .solvers import ImplicitMutualPair, kleene_implicit

OBJECT = "Object"
NULL = "Null"
# most ground types in a universe at any depth; containment is n^2 x n^2
UNIVERSE_CAP = 40


class StepBudgetExceeded(Exception):
    'The state machine passed its step budget without returning.'


@dataclass(frozen=True)
class ClassDef:
    name: str
    is_generic: bool = False
    superclass: str | None = None


@dataclass(frozen=True)
class ClassTable:
    """A nominal class hierarchy rooted at Object, with Null below
    everything. Both sentinel classes must be present and non-generic."""
    classes: tuple[ClassDef, ...]

    def __post_init__(self):
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError("class names must be distinct")
        by_name = {c.name: c for c in self.classes}
        for sentinel in (OBJECT, NULL):
            if sentinel not in by_name:
                raise ValueError(f"class table must define {sentinel}")
            if by_name[sentinel].is_generic:
                raise ValueError(f"{sentinel} cannot be generic")
        if by_name[OBJECT].superclass is not None:
            raise ValueError("Object has no superclass")
        for c in self.classes:
            if c.name == OBJECT:
                continue
            if c.superclass is None:
                raise ValueError(f"{c.name} needs a superclass")
            if c.superclass not in by_name:
                raise ValueError(f"{c.name} extends unknown class {c.superclass}")
        for c in self.classes:    # every chain must reach Object without a cycle
            seen = {c.name}
            cur = c
            while cur.name != OBJECT:
                nxt = by_name[cur.superclass]
                if nxt.name in seen:
                    raise ValueError(f"superclass cycle through {nxt.name}")
                seen.add(nxt.name)
                cur = nxt


def parse_class_table_doc(obj) -> ClassTable:
    'Build a class table from a parsed document of the classes format.'
    from .textio import DocumentError
    if not isinstance(obj, dict) or set(obj) != {"classes"}:
        raise DocumentError('a class table document has exactly the key "classes"')
    rows = obj["classes"]
    if not isinstance(rows, list):
        raise DocumentError('"classes" must be a list of records')
    defs = []
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != {"name", "generic", "superclass"}:
            raise DocumentError(
                f'classes[{i}] needs exactly the keys "name", "generic", "superclass"')
        name, generic, sup = row["name"], row["generic"], row["superclass"]
        if not isinstance(name, str) or not name:
            raise DocumentError(f"classes[{i}].name must be a nonempty string")
        if not isinstance(generic, bool):
            raise DocumentError(f"classes[{i}].generic must be a boolean")
        if sup is not None and not isinstance(sup, str):
            raise DocumentError(f"classes[{i}].superclass must be a string or null")
        defs.append(ClassDef(name, generic, sup))
    try:
        return ClassTable(tuple(defs))
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


@dataclass(frozen=True)
class IntervalType:
    'A bounds pair over ground types, contravariant lower and covariant upper.'
    lower: "GroundType"
    upper: "GroundType"

    def __str__(self):
        return f"[{self.lower},{self.upper}]"


@dataclass(frozen=True)
class GroundType:
    'A class name, applied to an interval argument when the class is generic.'
    class_name: str
    arg: IntervalType | None = None

    def __str__(self):
        if self.arg is None:
            return self.class_name
        return f"{self.class_name}<{self.arg}>"


def build_universe(ct: ClassTable,
                   k: int) -> tuple[tuple[GroundType, ...], tuple[IntervalType, ...]]:
    """Close the type universe to generic-nesting depth k: round j builds
    intervals over the depth-j types, then applies every generic class to
    them. Deterministic order; refused above UNIVERSE_CAP types."""
    if k < 0:
        raise ValueError("depth must be nonnegative")
    base = tuple(GroundType(c.name) for c in ct.classes if not c.is_generic)
    generics = tuple(c.name for c in ct.classes if c.is_generic)
    types = base
    # only generic classes add types, so a table without one is closed at once
    for depth in range(k + 1 if generics else 1):
        if depth:
            intervals = tuple(IntervalType(lo, up) for lo in types for up in types)
            types = base + tuple(GroundType(g, iv) for g in generics for iv in intervals)
        if len(types) > UNIVERSE_CAP:
            hint = "; lower the depth" if depth else " at depth 0"
            raise CapacityError(f"type universe grew to {len(types)} > cap {UNIVERSE_CAP}{hint}")
    intervals = tuple(IntervalType(lo, up) for lo in types for up in types)
    return types, intervals


def subtype_generators(ct: ClassTable, types: tuple[GroundType, ...]) -> ImplicitMutualPair:
    """The mutual generator pair over relation powersets.

    From a subtyping relation S, intervals are related covariantly in the
    upper bound and contravariantly in the lower. From a containment
    relation R, ground types are related along the class hierarchy with
    generic arguments compared through R; Null and Object are below and
    above everything unconditionally. Relations are boolean matrices over
    the positions in types and in build_universe's intervals, where
    interval i is [types[i // n], types[i % n]]. Both generators are
    gathers through precomputed id arrays; the class order is the closure
    of the superclass pairs over class ids, gathered to types."""
    n = len(types)
    tid = {t: i for i, t in enumerate(types)}
    if len(tid) != n:
        raise ValueError("types must be distinct")
    lo, up = np.divmod(np.arange(n * n, dtype=np.intp), n)
    try:
        arg = np.array([0 if t.arg is None else tid[t.arg.lower] * n + tid[t.arg.upper]
                        for t in types], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is outside the given universe") from None
    cid = {c.name: i for i, c in enumerate(ct.classes)}
    try:
        cls = np.array([cid[t.class_name] for t in types], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"class {exc.args[0]} is not in the class table") from None
    sub = [(cid[c.name], cid[c.superclass]) for c in ct.classes if c.superclass is not None]
    subclass = closure(len(cid), *np.reshape(sub, (-1, 2)).T)[0][np.ix_(cls, cls)]
    generic = np.array([t.arg is not None for t in types], dtype=bool)
    base = (np.array([t.class_name == NULL for t in types], dtype=bool)[:, None]
            | np.array([t.class_name == OBJECT for t in types], dtype=bool)[None, :]
            | (subclass & ~generic[:, None] & ~generic[None, :]))
    gated = subclass & generic[:, None] & generic[None, :]
    # a non-generic type reads interval 0 through arg, where gated is false
    uu, ll, aa = np.ix_(up, up), np.ix_(lo, lo), np.ix_(arg, arg)

    def f(s: np.ndarray) -> np.ndarray:
        return s[uu] & s[ll].T

    def g(r: np.ndarray) -> np.ndarray:
        return base | (gated & r[aa])

    return ImplicitMutualPair(f, g)


@dataclass(frozen=True, eq=False)
class RelationPairState:
    """A solved subtyping/containment pair over a fixed universe, kept as
    its two read-only limit matrices over the positions in types and in
    intervals; the pair sets are built on first read. Compared by identity."""
    types: tuple[GroundType, ...]
    intervals: tuple[IntervalType, ...]
    sub: np.ndarray
    cont: np.ndarray

    @functools.cached_property
    def subtypes(self) -> frozenset:
        return _pairs(self.sub, self.types)

    @functools.cached_property
    def containments(self) -> frozenset:
        return _pairs(self.cont, self.intervals)


def _check_preorder(name: str, leq: np.ndarray, carrier) -> None:
    """Raise AssertionError unless the boolean matrix leq over carrier is
    reflexive and transitive. The witness is the first missing diagonal
    entry, or the row-major first missing (a, d) with its smallest b."""
    diag = np.diagonal(leq)
    if not diag.all():
        raise AssertionError(
            f"{name} relation must be reflexive at {carrier[int(np.argmin(diag))]}")
    gap = transitivity_gap(leq)
    if gap is not None:
        raise AssertionError(f"{name} relation must be transitive at "
                             + ",".join(str(carrier[i]) for i in gap))


def _pairs(m: np.ndarray, members) -> frozenset:
    rows, cols = np.nonzero(m)
    return frozenset((members[i], members[j]) for i, j in zip(rows.tolist(), cols.tolist()))


def solve_subtyping(ct: ClassTable, k: int = 1, direction: str = "least") -> RelationPairState:
    """Solve both relations at once by iterating the paired step from the
    empty pair upward or the full pair downward, at most one step per
    matrix cell. Either answer is checked to be a preorder in both
    components before it is returned, as its two limit matrices."""
    if direction not in ("least", "greatest"):
        raise ValueError('direction must be "least" or "greatest"')
    types, intervals = build_universe(ct, k)
    imp = subtype_generators(ct, types)
    fill = np.zeros if direction == "least" else np.ones
    start = (fill((len(types),) * 2, dtype=bool), fill((len(intervals),) * 2, dtype=bool))

    def step(sr):
        return (imp.g(sr[1]), imp.f(sr[0]))

    def eq(x, y):
        return np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1])

    height = len(types) ** 2 + len(intervals) ** 2
    sub, cont = kleene_implicit(start, step, eq, height).limit
    _check_preorder("subtype", sub, types)
    _check_preorder("containment", cont, intervals)
    sub.flags.writeable = cont.flags.writeable = False
    return RelationPairState(types, intervals, sub, cont)


def _related(m: np.ndarray, members, a, b) -> bool:
    for x in (a, b):
        if x not in members:
            raise ValueError(f"{x} is outside the solved universe")
    return bool(m[members.index(a), members.index(b)])


def is_subtype(state: RelationPairState, t1: GroundType, t2: GroundType) -> bool:
    return _related(state.sub, state.types, t1, t2)


def is_contained(state: RelationPairState, i1: IntervalType, i2: IntervalType) -> bool:
    return _related(state.cont, state.intervals, i1, i2)


def paulson_trio(x: int, y: int, z: int, entry: str = "F",
                 budget: int = 1_000_000) -> tuple[int, int, int]:
    """Three mutually recursive integer functions, run as the equivalent
    label state machine so deep mutual recursion cannot blow the stack.

    F increments x and calls G; G calls F while y < z, otherwise adds x
    into y and calls H; H subtracts x from z and calls F while z > 0,
    otherwise returns the state."""
    if entry not in ("F", "G", "H"):
        raise ValueError('entry must be "F", "G", or "H"')
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    label, start = entry, f"({x},{y},{z})"
    for _ in range(budget):
        if label == "F":
            x, label = x + 1, "G"
        elif label == "G":
            if y < z:
                label = "F"
            else:
                y, label = x + y, "H"
        else:
            if z > 0:
                z, label = z - x, "F"
            else:
                return (x, y, z)
    raise StepBudgetExceeded(f"no return within {budget} steps from {start}")


def fixture_tables() -> dict[str, ClassTable]:
    'Small class tables for demos and tests.'
    return {
        "two": ClassTable((ClassDef(OBJECT), ClassDef(NULL, superclass=OBJECT))),
        "basic": ClassTable((ClassDef(OBJECT), ClassDef(NULL, superclass=OBJECT),
                             ClassDef("A", superclass=OBJECT))),
        "generic": ClassTable((ClassDef(OBJECT), ClassDef(NULL, superclass=OBJECT),
                               ClassDef("List", is_generic=True, superclass=OBJECT))),
    }
