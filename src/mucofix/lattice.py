"""Finite posets and complete lattices with explicit order and bound tables.

Elements are dense integer ids 0..size-1 with a label table. The order is a
read-only boolean matrix whose rows are up-sets and whose columns are
down-sets, so bound searches are row intersections. Every finite bounded
lattice is complete, which is why subset meets and joins reduce to folds
over the binary tables. All values here are immutable after construction
and safe to share between threads.

Ids are int16 (ID) in every meet and join table, the largest arrays a
lattice keeps, so a table takes half the bytes of an int32 one; edges
are int32, the width in which documents read them.

One search builds every bound table: the join table of the order it is
given. The meets of an order are the joins of its dual, so a meet table
is the join table of the transposed order, searched as a view. The
search is exact: the join of two elements, when it exists, is the least
member of their up-set intersection, so it is the first member along a
linear extension, and that member is the join exactly when its own
up-set is as large as the intersection. It reads the up-set rows packed
as bits, and hashes nothing. A finite
poset in which every pair has a join and which has a least element is a
lattice, so bound_tables proves a lattice by one search and reads both
extremes off the order, and the other table waits for its first reader,
which searches it and keeps it. A least solve reads only meets and a
greatest one only joins, so a solve builds one table per lattice.
Building a table twice gives equal arrays, so a value stays immutable
and safe to share.

Besides its order and tables, a lattice keeps its order in the forms its
readers need, each read-only:
- edges, given by the constructors that have them: pairs whose
  reflexive-transitive closure is the order, so a map is monotone iff it
  keeps every edge;
- down_rows, the transposed order in C order, made on first use; a dual
  reads it as its own order, so both sides read contiguous rows;
- the generation lists, tuples derived from the order and tables on
  first use, so they can neither change nor drift from them.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import compress
from typing import NamedTuple

import numpy as np

# the one element cap for explicit lattices; read at each call, not at import
DEFAULT_CAP = 4096

# the dtype of every bound table. int16 holds ids up to 2^15 - 1, so a
# carrier of at most ID_CAP = 2^15 elements fits, and DEFAULT_CAP = 4096
# is far below that; check_id_capacity refuses a larger one, so no id wraps
ID = np.int16
ID_CAP = 1 << 15


class LatticeError(Exception):
    """Base class for structural order failures."""


class NotAPosetError(LatticeError):
    def __init__(self, axiom: str, witness: tuple[int, ...], labels=None):
        self.axiom = axiom
        self.witness = tuple(int(i) for i in witness)
        shown = self.witness if labels is None else tuple(labels[i] for i in self.witness)
        super().__init__(f"NotAPoset: {axiom} fails at {shown}")


class NotALatticeError(LatticeError):
    def __init__(self, kind: str, pair: tuple[int, int], labels):
        self.kind = kind
        self.pair = (int(pair[0]), int(pair[1]))
        a, b = (labels[i] for i in self.pair)
        super().__init__("NotALattice: {%s,%s} lacks %s" % (a, b, kind))


class CapacityError(LatticeError):
    """A size cap was exceeded; raise rather than grind on huge tables."""


def check_id_capacity(n: int):
    'Refuse n elements whose ids would not fit ID, before any table is made.'
    if n > ID_CAP:
        raise CapacityError(f"{n} elements exceeds the {ID_CAP} ids a bound table holds")


def _frozen(arr, dtype) -> np.ndarray:
    """arr as a read-only dtype array. One of that dtype is kept only when
    it is read-only and owns its memory, as builders' frozen tables do;
    anything else is copied once, so no caller's array is aliased or frozen."""
    if (isinstance(arr, np.ndarray) and not arr.flags.writeable and arr.base is None
            and arr.dtype == dtype):
        return arr
    arr = np.array(arr, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class FinitePoset:
    """Distinct labels plus a boolean order matrix; leq[i, j] means i <= j.

    The constructor checks shape and label sanity only. The order axioms
    are checked by validate_lattice so that a bad order can be diagnosed
    with a witness instead of rejected opaquely. Posets, like lattices,
    compare by identity: their arrays have no single truth value.
    """
    labels: tuple[str, ...]
    leq: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        n = len(self.labels)
        if n == 0:
            raise ValueError("a poset needs at least one element")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")
        object.__setattr__(self, "leq", _frozen(self.leq, bool))
        if self.leq.shape != (n, n):
            raise ValueError(f"order matrix must be {n}x{n}")
        object.__setattr__(self, "size", n)

    @cached_property
    def label_ids(self) -> dict[str, int]:
        'Label to id, built on first use and kept with the poset.'
        return {x: i for i, x in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self.label_ids[label]
        except (KeyError, TypeError):    # TypeError: an unhashable label is unknown too
            raise ValueError(f"unknown element label {label!r}") from None


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Relational composition of boolean matrices: out[i, k] iff a[i, j]
    and b[j, k] for some j. The path counts are summed in float32, which
    is exact to 2^24 paths, far above any carrier the caps admit."""
    fa = a.astype(np.float32)
    return (fa @ (fa if b is a else b.astype(np.float32))) > 0


def closure(n: int, src, dst) -> tuple[np.ndarray, bool]:
    """Reflexive-transitive closure of the pairs (src[k], dst[k]) on ids
    0..n-1, and whether the pairs are acyclic, self-loops aside.

    One iterative walk finds Tarjan's strongly connected components,
    which come out sinks first: when a component is popped, the reach of
    every component its members point to is final. Its own reach, a
    Python-int bitset, is its members' bits ORed with those, and every
    member shares it (Nuutila's closure by components), so a cyclic
    relation is closed exactly in the same linear walk as an acyclic one,
    which is one whose components are all single. Row i is i's reach."""
    succ = [[] for _ in range(n)]
    for v, x in zip(np.asarray(src).tolist(), np.asarray(dst).tolist()):
        if v != x:
            succ[v].append(x)
    succ.append(range(n))    # a virtual node n whose walk reaches every root
    num = [0] * n + [1]      # dfs numbers from 1; 0 until a node is reached
    low = num[:]
    reach = [0] * (n + 1)    # 0 until a node's component is popped
    popped = n + 2           # the number of a node whose component is popped
    stack, work, acyclic, count = [n], [(n, iter(succ[n]))], True, 1
    while work:
        v, out = work[-1]
        for x in out:
            if not num[x]:
                count += 1
                num[x] = low[x] = count
                stack.append(x)
                work.append((x, iter(succ[x])))
                break
            if num[x] < low[v]:
                low[v] = num[x]
        else:
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] < num[v]:
                continue
            members, r = [], 0
            while not members or members[-1] != v:
                m = stack.pop()
                members.append(m)
                r |= 1 << m
                for x in succ[m]:
                    r |= reach[x]
            acyclic = acyclic and len(members) == 1
            for m in members:
                reach[m] = r
                num[m] = popped
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in reach[:n]]), np.uint8)
    leq = np.unpackbits(packed.reshape(n, width), axis=1, count=n, bitorder="little")
    return leq.astype(bool), acyclic


def transitivity_gap(leq: np.ndarray):
    """First (i, j, k) with i <= j <= k but not i <= k, or None: (i, k) is
    the row-major first missing pair and j its smallest middle."""
    gaps = compose(leq, leq) & ~leq
    if not gaps.any():
        return None
    i, k = divmod(int(np.argmax(gaps)), leq.shape[1])
    return i, int(np.argmax(leq[i] & leq[:, k])), k


def antisymmetry_gap(leq: np.ndarray):
    """First (i, j) with i != j, i <= j and j <= i, or None. It is the
    row-major first such pair, so i < j."""
    both = leq & leq.T
    if np.count_nonzero(both) == np.count_nonzero(np.diagonal(both)):
        return None
    i, j = divmod(int(np.argmax(np.triu(both, 1))), leq.shape[1])
    return i, j


def poset_violation(p: FinitePoset):
    'First order-axiom violation as (axiom, witness ids), or None.'
    leq = p.leq
    diag = np.diagonal(leq)
    if not diag.all():
        return ("reflexivity", (int(np.argmin(diag)),))
    gap = antisymmetry_gap(leq)
    if gap is not None:
        return ("antisymmetry", gap)
    gap = transitivity_gap(leq)
    return None if gap is None else ("transitivity", gap)


class GenLists(NamedTuple):
    """A lattice's order and bound tables as plain tuples, for generating
    tables element by element: drawing monotone ones and searching those
    that keep bounds. extension is a linear extension: ids by strict
    down-set size ascending, ties by id. Every pair that joins and meets
    name is of incomparable elements, and every element that meets[i]
    names comes before i in the extension."""
    extension: tuple[int, ...]
    below: tuple[tuple[int, ...], ...]    # below[i]: the strict down-set of i
    up_sets: tuple[tuple[int, ...], ...]  # up_sets[i]: the up-set of i, i included
    join: tuple[tuple[int, ...], ...]     # join[i][j]: the join of i and j
    meet: tuple[tuple[int, ...], ...]     # meet[i][j]: the meet of i and j
    joins: tuple[tuple[tuple[int, int], ...], ...]  # joins[i]: pairs (a, b) whose join is i
    meets: tuple[tuple[tuple[int, int], ...], ...]  # meets[i]: (j, meet of i and j) per earlier j


@dataclass(frozen=True, eq=False, repr=False)
class FiniteLattice:
    """A valid finite poset plus binary meet/join tables and both bounds.

    Built by validate_lattice or by the direct constructors below; the
    direct routes are cross-checked against validate_lattice in the test
    suite. Treat instances as immutable. edges, when given, are two id
    arrays (src, dst) whose reflexive-transitive closure is the order;
    the caller vouches for that, as the constructors' tests check. Tables
    are kept as ID (int16) arrays and edges as int32 arrays; every table,
    edge and bound is range-checked, a table of another dtype before it is
    converted, so an id out of range is refused rather than wrapped, and a
    table or edge array that holds neither integers nor bools is refused
    rather than truncated.
    Above ID_CAP elements the constructor raises CapacityError.

    A bound table given as None waits for its first reader: the first
    read of lat.join searches the order's joins, that of lat.meet the
    joins of the transposed order, and the table is kept. bound_tables
    and dual leave one waiting; a caller that gives None vouches that the
    poset is a lattice, as bound_tables has proven. A value stays
    immutable and safe to share: two threads that read a waiting table at
    once may both search it, and they get equal tables. Lattices compare
    by identity.
    """
    poset: FinitePoset
    meet: np.ndarray | None
    join: np.ndarray | None
    bottom: int
    top: int
    edges: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        n = self.poset.size
        check_id_capacity(n)
        object.__setattr__(self, "size", n)
        for name in ("meet", "join"):
            table = self.__dict__.pop(name)
            if table is not None:
                table = np.asarray(table)
                if table.shape != (n, n):
                    raise ValueError("bound tables must match the carrier")
                if table.dtype.kind not in "biu":
                    raise ValueError("bound tables must hold integer ids")
                if not (0 <= table.min() and table.max() < n):
                    raise ValueError("bound tables must name elements of the carrier")
                self.__dict__[name] = _frozen(table, ID)
        if self.edges is not None:
            edges = [np.asarray(x) for x in self.edges]
            if any(x.size and x.dtype.kind not in "biu" for x in edges):
                raise ValueError("edges must hold integer ids")
            src, dst = (_frozen(x, np.int32) for x in edges)
            if src.ndim != 1 or src.shape != dst.shape:
                raise ValueError("edges must be two id arrays of one length")
            if src.size and not (0 <= min(src.min(), dst.min())
                                 and max(src.max(), dst.max()) < n):
                raise ValueError("edges must name elements of the carrier")
            object.__setattr__(self, "edges", (src, dst))
        for name in ("bottom", "top"):
            object.__setattr__(self, name, self._check_id(getattr(self, name)))
        if not (self.poset.leq[self.bottom].all() and self.poset.leq[:, self.top].all()):
            raise ValueError(f"bottom {self.bottom} and top {self.top} must be the least"
                             " and greatest elements")

    def __getattr__(self, name: str):
        # reached only when name is not set: a table given as None is
        # searched here, once, and kept where a given one is
        if name not in _KINDS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        leq = self.poset.leq
        table, miss = _bound_search(leq if name == "join" else leq.T)
        if miss is not None:
            raise AssertionError(f"a proven lattice lacks the {_KINDS[name]} of {miss}")
        self.__dict__[name] = table
        return table

    def __repr__(self) -> str:
        # the tables are left out: printing them would search a waiting one
        return f"{type(self).__name__}(size={self.size}, labels={self.labels!r})"

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def label(self, i: int) -> str:
        return self.poset.labels[self._check_id(i)]

    def index(self, label: str) -> int:
        return self.poset.index(label)

    @cached_property
    def down_rows(self) -> np.ndarray:
        """The transposed order as a read-only C-order array, so row i is
        the down-set of i. Made on first use and kept. dual reads it as
        its order and point_masks for the post-fixed mask; the least-side
        solvers never read it."""
        rows = np.ascontiguousarray(self.poset.leq.T)
        rows.flags.writeable = False
        return rows

    @cached_property
    def gen_lists(self) -> GenLists:
        """The generation lists, built in one pass on first use and kept
        with the lattice. Only instance generation reads them, on carriers
        of at most 64 elements, so they stay a few thousand ints. They read
        both bound tables. Generation walks only lattices that are built
        once and kept and that hold both, but for three corpus lattices,
        whose waiting meet table is then searched once."""
        ids = range(self.size)
        leq = self.poset.leq.tolist()
        # column i of the order is the down-set of i
        below = tuple([tuple(j for j in compress(ids, col) if j != i)
                       for i, col in enumerate(self.poset.leq.T.tolist())])
        extension = tuple(sorted(ids, key=lambda i: len(below[i])))
        place = {i: k for k, i in enumerate(extension)}
        join, meet = (tuple(map(tuple, table.tolist())) for table in (self.join, self.meet))
        joins, meets = [[] for _ in ids], [[] for _ in ids]
        for a in ids:
            for b in ids[a + 1:]:
                if not (leq[a][b] or leq[b][a]):
                    joins[join[a][b]].append((a, b))
                    early, late = (a, b) if place[a] < place[b] else (b, a)
                    meets[late].append((early, meet[a][b]))
        return GenLists(extension, below, tuple([tuple(compress(ids, row)) for row in leq]),
                        join, meet, tuple(map(tuple, joins)), tuple(map(tuple, meets)))

    def _check_id(self, a: int) -> int:
        'a as an id of the carrier; a non-integer raises TypeError, as a table entry does.'
        i = operator.index(a)
        if not 0 <= i < self.size:
            raise ValueError(f"element id {a} out of range 0..{self.size - 1}")
        return i

    def _check_ids(self, ids):
        'Range-check a sequence of ints at once; on failure name the first bad id.'
        if ids and not (0 <= min(ids) and max(ids) < self.size):
            for x in ids:
                self._check_id(x)

    def leq(self, a: int, b: int) -> bool:
        'Order test by table lookup; ids are bounds-checked.'
        return bool(self.poset.leq[self._check_id(a), self._check_id(b)])

    def _ids(self, s) -> tuple[int, ...]:
        ids = tuple(sorted({operator.index(x) for x in s}))
        self._check_ids(ids)
        return ids

    def _fold(self, table: np.ndarray, unit: int, s) -> int:
        """The fold of a bound table over the ids s, which may repeat and
        come in any order: each step halves the ids by one table gather
        of the even against the odd positions, padded with the unit. Ids
        must be integers, so a boolean mask is refused, not read as ids. The
        range check takes the min and max, and names the smallest bad id."""
        if isinstance(s, np.ndarray) and s.dtype.kind not in "iu":
            raise TypeError(f"element ids must be integers, not {s.dtype}")
        ids = (s.astype(np.intp, copy=False) if isinstance(s, np.ndarray)
               else np.fromiter(map(operator.index, s), np.intp))
        if not ids.size:
            return unit
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= self.size:
            self._check_id(lo if lo < 0 else ids[ids >= self.size].min())
        while ids.size > 1:
            if ids.size % 2:
                ids = np.append(ids, unit)
            ids = table[ids[0::2], ids[1::2]]
        return int(ids[0])

    def meet_set(self, s) -> int:
        'Greatest lower bound of a subset; the empty meet is top.'
        return self._fold(self.meet, self.top, s)

    def join_set(self, s) -> int:
        'Least upper bound of a subset; the empty join is bottom.'
        return self._fold(self.join, self.bottom, s)

    def sublattice_violation(self, s):
        'First pair of members whose meet or join escapes, or None.'
        ids = self._ids(s)
        members = set(ids)
        for ai in range(len(ids)):
            for bi in range(ai, len(ids)):
                a, b = ids[ai], ids[bi]
                m = int(self.meet[a, b])
                if m not in members:
                    return ("meet", a, b, m)
                j = int(self.join[a, b])
                if j not in members:
                    return ("join", a, b, j)
        return None

    def is_complete_sublattice(self, s) -> bool:
        """Closure under binary meet and join; in a finite lattice that is
        exactly closure under arbitrary nonempty bounds, and the subset's
        own bounds are then members. The empty set is not a lattice."""
        ids = self._ids(s)
        if not ids:
            raise ValueError("the empty set is not a complete sublattice")
        return self.sublattice_violation(ids) is None


# rows of pairs per bulk step; a step's temporaries are a few BLOCK_ROWS x n
# arrays, a few MiB even at the explicit cap
BLOCK_ROWS = 64
# incomparable pairs per call of _least_upper; its temporaries are a few
# SEARCH_PAIRS x n/64 word arrays, 4 MiB each at the explicit cap
SEARCH_PAIRS = 1 << 13


def _up_words(leq: np.ndarray):
    """The up-set rows of the order leq packed as bits, with the columns
    in a linear extension: ids by down-set size ascending, ties by id.
    Returns (words, ext, place, sizes): bit p of row x, in little-endian
    uint64 words padded with zeros, is set iff x <= ext[p]; place[x] is
    the position of x in ext, so row x holds no bit before it; sizes[x]
    is the size of the up-set of x."""
    n = len(leq)
    ext = np.argsort(leq.sum(axis=0), kind="stable")
    place = np.empty(n, np.intp)
    place[ext] = np.arange(n)
    # rows padded with zeros to whole words, so one flat pack keeps them apart
    words = -(-n // 64)
    bits = np.zeros((n, 64 * words), bool)
    # take gathers the columns of a C-ordered order fastest, indexing those of
    # a transposed view (a meet search); either way the block is C-ordered
    if leq.flags.c_contiguous:
        np.take(leq, ext, axis=1, out=bits[:, :n])
    else:
        bits[:, :n] = leq[:, ext]
    packed = np.packbits(bits, bitorder="little").view("<u8").reshape(n, words)
    return packed, ext, place, leq.sum(axis=1)


def _least_upper(packed, i: np.ndarray, j: np.ndarray):
    """For the pairs (i[k], j[k]) of incomparable ids, given packed =
    _up_words(leq): the first member of U = up(i) & up(j) along the
    extension, and whether it is the join of the pair.

    A least member of U comes before every other member in any linear
    extension, so the first member is the only candidate. Its up-set lies
    inside U by transitivity, so it is least exactly when its up-set is
    as large as U. No up-set is empty, so an empty U is refused the same
    way; its candidate index is clamped to the carrier."""
    words, ext, place, sizes = packed
    # a row holds no bit before its own place, so U none before the later
    # of the two; words before the chunk's least such place are all zero
    lo = int(np.maximum(place[i], place[j]).min()) // 64
    rows = words[:, lo:]
    both = rows.take(i, axis=0)
    np.bitwise_and(both, rows.take(j, axis=0), out=both)
    first = (both != 0).argmax(axis=1)    # the first nonzero word, or 0
    x = both[np.arange(len(first)), first]
    zeros = np.bitwise_count(~x & (x - np.uint64(1)))    # trailing zeros, 64 in a zero word
    cand = ext[np.minimum((lo + first) * 64 + zeros, len(ext) - 1)]
    return cand, np.bitwise_count(both).sum(axis=1, dtype=np.uint16) == sizes[cand]


def validate_lattice(p: FinitePoset) -> FiniteLattice:
    """Check the order axioms, then prove the lattice by bound_tables,
    which searches the join table and leaves the meet table to its first
    reader.

    Raises NotAPosetError or NotALatticeError carrying the first failing
    witness, and CapacityError above DEFAULT_CAP elements, before any
    order check. This accepts exactly the posets accepted by brute-force
    bound existence, which the test suite checks against directly.
    """
    if p.size > DEFAULT_CAP:
        raise CapacityError(f"{p.size} elements exceeds the explicit cap {DEFAULT_CAP}")
    bad = poset_violation(p)
    if bad is not None:
        raise NotAPosetError(bad[0], bad[1], p.labels)
    return bound_tables(p)


# the bound each side's table holds, as NotALatticeError names it; at one
# pair the lub is decided before the glb
_KINDS = {"join": "lub", "meet": "glb"}


def bound_tables(p: FinitePoset, first: str = "join", edges=None) -> FiniteLattice:
    """The lattice of a partial order p, whose axioms the caller has
    already checked or holds by construction; validate_lattice checks
    them first. edges go to the constructor as they are.

    A finite poset in which every pair has a join and which has a least
    element is a lattice, and dually for meets and a greatest element. So
    only the first side's table ("join" or "meet") is searched here, the
    join table of p's order or of its transpose, and bottom and top are
    read off the order: the element whose up-set row, and the one whose
    down-set column, is all true. When the first side has every bound and
    the opposite extreme exists, the other table is left as None for its
    first reader to search. Otherwise the other side is searched too, and
    NotALatticeError names the earlier of the two sides' first missing
    bounds in scan order: row-major over i <= j, lub before glb, the
    order in which a search of both sides would meet them. So the posets
    accepted and the witnesses named do not depend on first.
    """
    if first not in _KINDS:
        raise ValueError(f"first must be 'join' or 'meet', not {first!r}")
    other = "meet" if first == "join" else "join"
    leq = p.leq
    orders = {"join": leq, "meet": leq.T}
    table, miss = _bound_search(orders[first])
    bottom, top = np.flatnonzero(leq.all(axis=1)), np.flatnonzero(leq.all(axis=0))
    if miss is None and bottom.size and top.size:
        tables = {first: table, other: None}
        return FiniteLattice(p, tables["meet"], tables["join"], bottom[0], top[0], edges)
    # a poset with both tables has both extremes, so one side misses a bound
    misses = [(*m, side == "meet", side) for side, m in
              ((first, miss), (other, _bound_search(orders[other])[1])) if m is not None]
    i, j, _, side = min(misses)
    raise NotALatticeError(_KINDS[side], (i, j), p.labels)


def _bound_search(leq: np.ndarray):
    """The join table of the partial order leq, in any memory layout; the
    meet table of an order is this search of its transpose. Returns
    (table, None), or (None, (i, j)) for the first pair lacking a join,
    in row-major order over i <= j.

    A comparable pair is its own join: when i <= j it is j, so those
    entries are filled straight from the order, a row block at a time.
    Only incomparable pairs are searched, exactly and in bulk, by
    _least_upper on the up-set rows packed as bits; they are packed at
    the first such pair, so a chain packs nothing. In a partial order a
    comparable pair always has a join, so skipping them moves no witness.
    """
    n = len(leq)
    check_id_capacity(n)
    ids = np.arange(n, dtype=ID)
    table = np.zeros((n, n), dtype=ID)
    packed = None
    for s in range(0, n, BLOCK_ROWS):
        e = min(s + BLOCK_ROWS, n)
        up = leq[s:e, s:]
        # j where i <= j and i elsewhere; np.where takes up's layout, and the
        # block is made C-ordered so that flat below is a view
        blk = np.ascontiguousarray(np.where(up, ids[s:], ids[s:e, None]))
        flat = blk.reshape(-1)
        # the block's incomparable pairs, both triangles of its diagonal square
        # so the transposed copy below is filled too; flat order is the scan
        # order, and a pair below the diagonal comes after its mirror, which
        # has the same bound
        pairs = np.flatnonzero(~(up | leq[s:, s:e].T))
        for c in range(0, pairs.size, SEARCH_PAIRS):
            if packed is None:
                packed = _up_words(leq)
            chunk = pairs[c:c + SEARCH_PAIRS]
            i, j = (x + s for x in np.divmod(chunk, n - s))
            cand, ok = _least_upper(packed, i, j)
            if not ok.all():
                k = int(np.argmin(ok))
                return None, (int(i[k]), int(j[k]))
            flat[chunk] = cand
        table[s:e, s:] = blk
        table[s:, s:e] = blk.T
    table.flags.writeable = False
    return table, None


def _componentwise(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Product bound table: pairs (i*|B| + j, k*|B| + l) map to ta[i, k]*|B| + tb[j, l].
    The sum is at most |A|*|B| - 1, an id of the product, which product
    has capped; the Python int nb takes the tables' dtype, so ta * nb is
    computed in ID without a wider temporary."""
    na, nb = len(ta), len(tb)
    out = np.empty((na * nb, na * nb), dtype=ID)
    np.add((ta * nb)[:, None, :, None], tb[None, :, None, :], out=out.reshape(na, nb, na, nb))
    out.flags.writeable = False
    return out


def product(lat_a: FiniteLattice, lat_b: FiniteLattice) -> FiniteLattice:
    """Component-wise product lattice; pair (i, j) gets id i*|B| + j. Bounds
    and bound tables are taken componentwise from the factors, which their
    constructors checked, so the product order is not re-validated."""
    nb = lat_b.size
    n = lat_a.size * nb
    if n > DEFAULT_CAP:
        raise CapacityError(f"product size {n} exceeds the explicit cap {DEFAULT_CAP}")
    check_id_capacity(n)
    labels = tuple(f"({x},{y})" for x in lat_a.labels for y in lat_b.labels)
    leq = np.kron(lat_a.poset.leq.astype(np.uint8), lat_b.poset.leq.astype(np.uint8)).astype(bool)
    leq.flags.writeable = False
    edges = None
    if lat_a.edges is not None and lat_b.edges is not None:
        # an edge of A beside every element of B, then every element of A beside an edge of B
        a, b = np.arange(lat_a.size)[:, None] * nb, np.arange(nb)
        edges = tuple(np.concatenate([(ea[:, None] * nb + b).ravel(), (a + eb).ravel()])
                      for ea, eb in zip(lat_a.edges, lat_b.edges))
    return FiniteLattice(FinitePoset(labels, leq),
                         _componentwise(lat_a.meet, lat_b.meet),
                         _componentwise(lat_a.join, lat_b.join),
                         lat_a.bottom * nb + lat_b.bottom, lat_a.top * nb + lat_b.top, edges)


POWERSET_GROUND_CAP = 5
_GROUND_NAMES = "abcde"


def powerset_lattice(n: int) -> FiniteLattice:
    'Subsets of an n-member ground set under inclusion; ids are bitmasks.'
    if n < 0:
        raise ValueError("ground set size must be nonnegative")
    if n > POWERSET_GROUND_CAP:
        raise CapacityError(
            f"2^{n} explicit subsets exceeds the cap (ground size {POWERSET_GROUND_CAP})")
    ground = _GROUND_NAMES[:n]
    labels = []
    for mask in range(1 << n):
        members = [ground[i] for i in range(n) if mask >> i & 1]
        labels.append("{" + ",".join(members) + "}")
    # the covers add one member: mask -> mask | bit for each bit not in mask
    covers = [(m, m | 1 << i) for i in range(n) for m in range(1 << n) if not m >> i & 1]
    return replace(mask_lattice(range(1 << n), labels),
                   edges=tuple(np.array(covers, np.int32).reshape(-1, 2).T))


def mask_lattice(masks, labels) -> FiniteLattice:
    """Bitmasks under inclusion, element i being masks[i]. The family must be distinct
    nonnegative masks closed under & and |, which then give the bounds, and list its least
    mask first and greatest last; ValueError names the first mask or pair that is not."""
    arr = np.asarray(masks, dtype=np.int32)
    n = len(arr)
    if not n:
        raise ValueError("a mask family needs at least one mask")
    order = np.argsort(arr)
    srt = arr[order]
    if srt[0] < 0:
        raise ValueError(f"mask {srt[0]} is negative")
    twice = np.flatnonzero(srt[1:] == srt[:-1])
    if twice.size:
        raise ValueError(f"mask {srt[twice[0]]} is listed twice")
    # each table looks its masks up in the sorted family; missing[i, j, k]:
    # the & (k = 0) or | (k = 1) of masks i and j is not a member
    tables, missing = [], []
    for op in (np.bitwise_and, np.bitwise_or):
        bound = op.outer(arr, arr)
        at = np.minimum(np.searchsorted(srt, bound), n - 1)
        tables.append(order[at].astype(ID))
        missing.append(srt[at] != bound)
    # the first hit in row-major order has i <= j, since missing is symmetric
    hits = np.argwhere(np.stack(missing, axis=-1))
    if len(hits):
        i, j, k = hits[0]
        a, b = int(arr[i]), int(arr[j])
        raise ValueError(f"the family lacks {a} {'&|'[k]} {b} = {a | b if k else a & b}")
    leq = (arr[:, None] & ~arr[None, :]) == 0
    if not leq[0].all():
        raise ValueError(f"mask {arr[0]}, listed first, is not the least")
    if not leq[:, -1].all():
        raise ValueError(f"mask {arr[-1]}, listed last, is not the greatest")
    meet, join = tables
    for table in (leq, meet, join):
        table.flags.writeable = False
    return FiniteLattice(FinitePoset(tuple(labels), leq), meet, join, 0, n - 1)


def _prechecked(cls, **attrs):
    """An instance of the frozen dataclass cls with attrs set as given and
    __post_init__ not run. Every value must be read off instances that
    the public constructors built, so their checks already hold."""
    obj = object.__new__(cls)
    obj.__dict__.update(attrs)
    return obj


def dual(lat: FiniteLattice) -> FiniteLattice:
    """Order-dual lattice: lat's down-set rows are its order and lat's
    order its down-set rows, the tables and bounds swap and the edges
    turn round. Only lat.down_rows is ever copied, once per lattice, so
    two duals share it and the dual of a dual reads lat's own arrays.
    The dual shares the tables lat has built; any other waits for the
    dual's first read, which searches the dual's own order. Nothing is
    re-checked: labels, read-only arrays and bounds all come from lat,
    which its constructor checked."""
    # a table left out of the instance's dict is one that waits
    tables = {name: vars(lat)[source] for name, source in (("meet", "join"), ("join", "meet"))
              if source in vars(lat)}
    poset = _prechecked(FinitePoset, labels=lat.labels, leq=lat.down_rows, size=lat.size)
    return _prechecked(FiniteLattice, poset=poset, **tables,
                       bottom=lat.top, top=lat.bottom, size=lat.size,
                       edges=None if lat.edges is None else lat.edges[::-1],
                       down_rows=lat.poset.leq)


def cover_edges(lat: FiniteLattice) -> list[tuple[int, int]]:
    'Immediate-successor pairs of the order, in lexicographic id order.'
    lt = lat.poset.leq & ~np.eye(lat.size, dtype=bool)
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~compose(lt, lt))]

