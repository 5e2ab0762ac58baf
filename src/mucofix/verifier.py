"""Seeded instance generation plus executable forms of every supporting
lemma and the simultaneous fixed-point theorem, and a counterexample
miner for the questions the continuity premises leave open.

Determinism is the point: per-instance seeds are split from the master
seed with a fixed mixer, witnesses are canonical, and two runs with the
same spec produce identical reports byte for byte.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from itertools import islice

from . import textio
from .fixtures import chain, corpus, diamond
from .genfun import (BINARY, WITH_EMPTY, ContinuityMode, MutualPair, _first_continuity_failure,
                     _first_monotone_failure, _order_breaks, compose_fg, compose_gf,
                     is_continuous_pair)
from .lattice import (FiniteLattice, FinitePoset, _prechecked, mask_lattice, powerset_lattice,
                      product)
from .simpoints import is_sim_fixed, point_masks, pre_mask
from .solvers import (gsfp_direct, gsfp_product, gsfp_tarski_oracle, lsfp_direct,
                      lsfp_product, lsfp_tarski_oracle)

import numpy as np

MASK64 = (1 << 64) - 1
FAMILIES = ("chains", "powersets", "products", "random-closed", "corpus", "mixed")
FUNCTION_CLASSES = ("monotone", "continuous", "arbitrary")
# counts raw tables, not monotone pairs: it picks the shape pairs swept and the
# size "exhaustive up to" prints, so counting monotone pairs would move report bytes
EXHAUST_COMBO_CAP = 200_000
# the lemma scans grow faster than |O| x |P| (L7 meets every pre-fixed
# pair with every other), so generated carriers stay small: an L7
# instance on two chains takes about 0.3 s at 64 elements, 68 s at 256
INSTANCE_SIZE_CAP = 64
# verify and the miner both draw and self-check their instances this many
# at a time, and the miner asks its tries so, one stacked array kernel per
# block instead of several small ones per instance; lemmas requests ran as
# fast at blocks of 32 to 256, and a block bounds memory at any count
BLOCK = 64


class GenerationExhausted(Exception):
    """No continuous map exists on one side of a pair; reported, not fatal."""


def split_seed(seed, index):
    """Deterministic per-instance seed derivation (a splitmix64 step), on
    ints or on broadcast uint64 arrays, which wrap mod 2^64 as MASK64 does.
    Arrays, not numpy scalars: scalar products warn on overflow."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def _slot_seeds(seed: int, indices) -> list[tuple[int, int, int, int]]:
    """Per index of a block, the seeds of its instance: with child =
    split_seed(seed, index), split_seed(child, k) for slots k = 1, 2 and 3
    and the pair seed split_seed(slot 3, 0xF0), all in one uint64 pass,
    which costs 30-50 us on a 2-vCPU VM whatever the block's length."""
    child = split_seed(np.array([seed & MASK64], np.uint64), np.array(indices, np.uint64))
    slots = split_seed(child[:, None], np.array([1, 2, 3], np.uint64))
    pair = split_seed(slots[:, 2:], np.array([0xF0], np.uint64))
    return list(map(tuple, np.hstack((slots, pair)).tolist()))


@dataclass(frozen=True)
class InstanceGenSpec:
    """What to generate: seed, carrier size range, lattice family, and the
    function class the lemma premise calls for."""
    seed: int
    size_lo: int = 2
    size_hi: int = 8
    family: str = "mixed"
    function_class: str = "monotone"
    count: int = 200

    def __post_init__(self):
        if not 1 <= self.size_lo <= self.size_hi:
            raise ValueError("need 1 <= size_lo <= size_hi")
        if self.size_hi > INSTANCE_SIZE_CAP:
            raise ValueError(f"size_hi {self.size_hi} exceeds the cap {INSTANCE_SIZE_CAP}")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.function_class not in FUNCTION_CLASSES:
            raise ValueError(f"unknown function class {self.function_class!r}")
        if self.count < 0:
            raise ValueError("count must be nonnegative")
        # refused here, not at the first corpus draw, which may come after reports
        if self.family in ("corpus", "mixed") and not any(
                self.size_lo <= lat.size <= self.size_hi for _, lat in corpus()):
            raise ValueError(f"no corpus lattice has size in [{self.size_lo}, {self.size_hi}]")


def _random_closed(rng: random.Random, lo: int, hi: int) -> FiniteLattice:
    # draw subsets of a 4-member ground set and close them under binary
    # intersection/union in one meet pass and then one join pass: the
    # sublattice a family generates is every join of meets of the family;
    # 16 subsets is the most it can close to, so larger sizes get a chain.
    # The family is closed as a 16-bit set, bit m set when mask m is in it,
    # and each step ORs in its image under s & or m |, read off the nibble
    # tables of _nibble_images
    if lo > 16:
        return _memo_chain(rng.randint(lo, hi))
    meet_images, join_images = _nibble_images()
    for _ in range(64):
        want = rng.randint(lo, hi)
        meets = 0
        for s in rng.sample(range(16), k=min(want, 16)):
            meets |= _image(meet_images[s], meets) | 1 << s
        closed = rest = meets
        # the family only grows, so past hi it is rejected already
        while rest and closed.bit_count() <= hi:
            m = (rest & -rest).bit_length() - 1
            rest ^= 1 << m
            closed |= _image(join_images[m], closed)
        if lo <= closed.bit_count() <= hi:
            return _closed_lattice(closed)
    return _memo_chain(rng.randint(lo, hi))


@cache
def _nibble_images() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Per operation, & then |, and per mask s, a table of 64 16-bit sets:
    entry 16 p + v is the set of s & m (or s | m) over the masks m = 4 p + j
    for each bit j of v. Built on first use, in under 1 ms."""
    tables = []
    for op in (int.__and__, int.__or__):
        per_mask = []
        for s in range(16):
            row = [0] * 64
            for e in range(64):
                # e = 16 p + v: the lowest bit of v, whose entry is v's without it
                low = e & -e & 15
                if low:
                    row[e] = row[e ^ low] | 1 << op(s, e >> 4 << 2 | low.bit_length() - 1)
            per_mask.append(tuple(row))
        tables.append(tuple(per_mask))
    return tuple(tables)


def _image(table: tuple[int, ...], family: int) -> int:
    'The image of the 16-bit set family under the operation of table, a nibble at a time.'
    return (table[family & 15] | table[16 | family >> 4 & 15]
            | table[32 | family >> 8 & 15] | table[48 | family >> 12])


# Generation draws the same few small lattices over and over, so each is
# built once, by memos keyed by sizes of at most INSTANCE_SIZE_CAP or by a
# closed family's 16-bit set; lattices are immutable, so sharing is safe,
# and the public constructors stay uncached. The 731 sublattices of 2^4
# have 74 distinct orders in sorted id order: _SHAPES keeps one lattice per
# order, and each family's one lattice shares what its shape built. A whole
# mask_lattice per family, over the 658 of 2 to 8 elements, held 2.26 MiB
# and took 0.34 s to build on a 2-vCPU VM, against 0.74 MiB and 0.1 s so.
_SHAPES: dict[bytes, FiniteLattice] = {}


@cache
def _closed_lattice(members: int) -> FiniteLattice:
    """mask_lattice(masks, labels) of the closed family whose bit m is set
    for each mask m in it, masks least first and labels "m" + each mask in
    4 bits. It shares all that the one lattice of its order in _SHAPES has
    built, every view included, so only its poset is its own: a lattice's
    tables and views depend on its order alone, read-only arrays and tuples."""
    masks = sorted((m for m in range(16) if members >> m & 1), key=lambda m: (m.bit_count(), m))
    labels = tuple(f"m{m:04b}" for m in masks)
    arr = np.array(masks)
    key = ((arr[:, None] & ~arr) == 0).tobytes()
    shape = _SHAPES.get(key)
    if shape is None:
        shape = mask_lattice(masks, labels)
        for name in [k for k, v in vars(FiniteLattice).items() if isinstance(v, cached_property)]:
            getattr(shape, name)    # each view, built once for every family
        shape = _SHAPES.setdefault(key, shape)
    poset = FinitePoset(labels, shape.poset.leq)
    return _prechecked(FiniteLattice, **vars(shape) | {"poset": poset})


@cache
def _memo_chain(n: int) -> FiniteLattice:
    return chain(n)


@cache
def _pools() -> dict[str, tuple[FiniteLattice, ...]]:
    """The lattices of each pooled family in draw order: the powersets of 0
    to 4 members, the 16 products of two factors from C2, C3, C4 and the
    diamond, and the corpus."""
    factors = [chain(2), chain(3), chain(4), diamond()]
    return {"powersets": tuple(powerset_lattice(g) for g in range(5)),
            "products": tuple(product(a, b) for a in factors for b in factors),
            "corpus": tuple(lat for _, lat in corpus())}


@cache
def _in_range(family: str, lo: int, hi: int) -> tuple[FiniteLattice, ...]:
    """The lattices of a pooled family whose size is in [lo, hi], in draw
    order, or else the one fallback gen_lattice names. The spec refuses a
    corpus range that no corpus lattice meets."""
    pool = _pools()[family]
    in_range = tuple(lat for lat in pool if lo <= lat.size <= hi)
    if in_range:
        return in_range
    if family == "products":
        return (product(chain(1), chain(hi)),)
    return tuple(lat for lat in pool if lat.size <= hi)[-1:]


def gen_lattice(spec: InstanceGenSpec) -> FiniteLattice:
    """One lattice, deterministic in spec.seed, size within the range where
    the family allows. A pooled family draws from its pool lattices whose
    size is in range. When none is, powersets returns the largest powerset
    not above hi, and products returns product(chain(1), chain(hi)), which
    is a chain of hi elements with pair labels "(0,0)" to "(0,hi-1)"."""
    return _lattice(spec.seed, spec.family, spec.size_lo, spec.size_hi)


def _lattice(seed: int, family: str, lo: int, hi: int) -> FiniteLattice:
    'gen_lattice of the spec with these fields, drawn without making the spec.'
    rng = random.Random(seed)
    if family == "mixed":
        family = rng.choice(("chains", "powersets", "products", "random-closed", "corpus"))
    if family == "chains":
        return _memo_chain(rng.randint(lo, hi))
    if family == "random-closed":
        return _random_closed(rng, lo, hi)
    return rng.choice(_in_range(family, lo, hi))


def _monotone_table(rng: random.Random, dom: FiniteLattice, cod: FiniteLattice) -> tuple[int, ...]:
    """A random monotone table: along a linear extension, each image is
    drawn from the up-set of the join of the images of its strict down-set.
    It is kept apart from _maps on purpose. It calls rng once per element,
    even when one candidate is left, which the search skips; the monotone
    stream and the miner's randomized tries depend on those draws. It also
    takes about a third less time per table than the search."""
    below = dom.gen_lists.below
    up_sets, join = cod.gen_lists.up_sets, cod.gen_lists.join
    images = [0] * dom.size
    for i in dom.gen_lists.extension:
        forced = cod.bottom
        for j in below[i]:
            forced = join[forced][images[j]]
        images[i] = rng.choice(up_sets[forced])
    return tuple(images)


def _monotone_pair(seed: int, lat_o: FiniteLattice, lat_p: FiniteLattice) -> MutualPair:
    """A pair monotone by construction in both directions, drawn from its
    pair seed, split_seed(spec.seed, 0xF0) of its spec, and not yet checked."""
    rng = random.Random(seed)
    return MutualPair(lat_o, lat_p,
                      _monotone_table(rng, lat_o, lat_p),
                      _monotone_table(rng, lat_p, lat_o))


def gen_monotone_pair(spec: InstanceGenSpec, lat_o: FiniteLattice,
                      lat_p: FiniteLattice) -> MutualPair:
    'Monotone by construction in both directions; self-checked.'
    mp = _monotone_pair(split_seed(spec.seed, 0xF0), lat_o, lat_p)
    _self_checked([mp])
    return mp


def _stack(pairs: list[MutualPair]) -> tuple[np.ndarray, ...]:
    """The orders and tables of pairs as pre_mask's four arguments with a
    leading batch axis: (B, K, K) orders of O and of P and (B, K) tables f
    and g, K the largest carrier of the block. Each order is padded with
    all-false rows and columns, so no padded element is below or above any
    other, and each table with 0, so a padded entry names an element."""
    k = max(max(mp.dom_o.size, mp.dom_p.size) for mp in pairs)
    leq = np.zeros((2, len(pairs), k, k), dtype=bool)
    for i, mp in enumerate(pairs):
        for side, lat in enumerate((mp.dom_o, mp.dom_p)):
            leq[side, i, :lat.size, :lat.size] = lat.poset.leq
    tables = np.array([t + (0,) * (k - len(t)) for mp in pairs for t in (mp.f, mp.g)])
    return leq[0], leq[1], tables[0::2], tables[1::2]


def _self_checked(pairs: list[MutualPair]) -> tuple[np.ndarray, ...]:
    """The stack of pairs, once one stacked scan has found every f and g
    monotone (a padded element is comparable to no other, so it breaks
    nothing); each pair then keeps None as its monotone_failure, as its own
    scan would. The raise is explicit, so the check survives python -O."""
    stack = leq_o, leq_p, f, g = _stack(pairs)
    if _order_breaks(np.concatenate((leq_o, leq_p)), np.concatenate((leq_p, leq_o)),
                     np.concatenate((f, g))).any():
        raise AssertionError
    for mp in pairs:
        vars(mp)["monotone_failure"] = None    # where the cached_property keeps its value
    return stack


def _maps(dom: FiniteLattice, cod: FiniteLattice, mode: ContinuityMode | None,
          rng: random.Random | None = None):
    """Every table from dom to cod that a backtracking search admits, each
    once: the monotone ones when mode is None, else those preserving binary
    meets and joins (WITH_EMPTY also pins bottom and top), in rng's order
    or, without one, a fixed order. Images go along a linear extension,
    each in the up-set of the join of the images below it; under a mode an
    element that joins two incomparable ones takes that join, and each
    choice is checked against every bound of incomparable elements that it
    completes, so every binary bound is checked once."""
    lists, cod_lists = dom.gen_lists, cod.gen_lists
    order, below = lists.extension, lists.below
    up_sets, cod_join = cod_lists.up_sets, cod_lists.join
    # without a mode no bound is checked, so no bound lists are read
    joins, meets = (lists.joins, lists.meets) if mode is not None else ([()] * dom.size,) * 2
    cod_meet = cod_lists.meet if mode is not None else None
    pinned = mode == WITH_EMPTY
    images = [0] * dom.size

    def candidates(i):
        low = cod.bottom
        for j in below[i]:
            low = cod_join[low][images[j]]
        if joins[i]:
            todo = [low] if all(cod_join[images[a]][images[b]] == low for a, b in joins[i]) else []
        else:
            todo = list(up_sets[low])
        if pinned and i in (dom.bottom, dom.top):
            todo = [v for v in todo if (i != dom.bottom or v == cod.bottom)
                    and (i != dom.top or v == cod.top)]
        return todo

    # stack[d]: the untried candidates of order[d]; a loop, as recursion overflows on tall carriers
    stack = [candidates(order[0])]
    while stack:
        i, todo = order[len(stack) - 1], stack[-1]
        while todo:
            k = len(todo) - 1 if rng is None or len(todo) == 1 else rng.randrange(len(todo))
            todo[k], todo[-1] = todo[-1], todo[k]
            v = todo.pop()
            for j, m in meets[i]:
                if cod_meet[v][images[j]] != images[m]:
                    break
            else:
                images[i] = v
                if len(stack) == dom.size:
                    yield tuple(images)
                else:
                    stack.append(candidates(order[len(stack)]))
                break
        else:
            stack.pop()


def gen_continuous_pair(seed: int, lat_o: FiniteLattice, lat_p: FiniteLattice,
                        mode: ContinuityMode = BINARY) -> MutualPair:
    """The first continuous table for F and then for G in a search seeded
    from seed; GenerationExhausted when no continuous map exists on one
    side. Self-checked for continuity, which _maps guarantees; that the
    pair is then monotone is L1's claim, so it is left for L1 to check."""
    rng = random.Random(split_seed(seed, 0xC0))
    f = next(_maps(lat_o, lat_p, mode, rng), None)
    g = None if f is None else next(_maps(lat_p, lat_o, mode, rng), None)
    if g is None:
        raise GenerationExhausted(
            f"no continuous pair exists on {lat_o.size}x{lat_p.size} under {mode.kind}")
    mp = MutualPair(lat_o, lat_p, f, g)
    if not is_continuous_pair(mp, mode):
        raise AssertionError
    return mp


def _draw(spec: InstanceGenSpec, seeds: tuple[int, int, int, int],
          mode: ContinuityMode) -> MutualPair | GenerationExhausted:
    """The instance of spec with the seeds _slot_seeds gives its index:
    carriers from slots 1 and 2, the pair from slot 3, a monotone pair from
    the pair seed. A continuous pair is self-checked here, a monotone one
    by its block. When one side has no continuous map, the
    GenerationExhausted is returned, not raised, so its block draws on."""
    slot1, slot2, slot3, pair_seed = seeds
    lat_o = _lattice(slot1, spec.family, spec.size_lo, spec.size_hi)
    lat_p = _lattice(slot2, spec.family, spec.size_lo, spec.size_hi)
    if spec.function_class == "monotone":
        return _monotone_pair(pair_seed, lat_o, lat_p)
    if spec.function_class == "continuous":
        try:
            return gen_continuous_pair(slot3, lat_o, lat_p, mode)
        except GenerationExhausted as exc:
            return exc
    rng = random.Random(split_seed(slot3, 0xA7))
    return MutualPair(lat_o, lat_p,
                      tuple(rng.randrange(lat_p.size) for _ in range(lat_o.size)),
                      tuple(rng.randrange(lat_o.size) for _ in range(lat_p.size)))


def _instances(spec: InstanceGenSpec, indices, mode: ContinuityMode, swept=()):
    """The pairs swept (monotone by construction), then the instances of
    spec at the block of indices as _draw gives them, and, for the monotone
    class, their stack, once one stacked scan has self-checked every pair;
    else None for the stack."""
    pairs = [*swept, *(_draw(spec, seeds, mode) for seeds in _slot_seeds(spec.seed, indices))]
    return pairs, _self_checked(pairs) if spec.function_class == "monotone" else None


# ---------------------------------------------------------------- lemmas

@dataclass(frozen=True)
class Finding:
    'A lemma failure or a miner finding: the pair as canonical JSON and its witness text.'
    instance: str
    witness: str


@dataclass
class LemmaReport:
    """Outcome of one lemma over a batch of generated instances.

    Instances whose premise does not hold are skipped, never counted as
    failures; a failure therefore always means the lemma itself broke."""
    lemma_id: str
    title: str
    mode_label: str
    function_class: str
    instances_tried: int = 0
    premise_skipped: int = 0
    generation_failures: int = 0
    failures: list[Finding] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_l1(mp, mode):
    failure = mp.monotone_failure
    return None if failure is None else "{} breaks the order at {}".format(*failure)


def _check_l2(mp, mode):
    named = (("G.F", compose_gf(mp)), ("F.G", compose_fg(mp)))
    failure = _first_monotone_failure(named)
    if failure is not None:
        return "{} not monotone at {}".format(*failure)
    failure = _first_continuity_failure(named, mode) if is_continuous_pair(mp, mode) else None
    return None if failure is None else "{} breaks {} preservation at {}".format(*failure)


def _first_hit(*masks):
    'First (o, p, k) in scan order, o then p then mask index, where mask k holds, or None.'
    hits = np.argwhere(np.stack(masks, axis=-1))
    return None if not len(hits) else tuple(int(x) for x in hits[0])


def _check_l3(mp, mode):
    f, g = np.asarray(mp.f), np.asarray(mp.g)
    gf, fg = g[f], f[g]
    leq_o, leq_p = mp.dom_o.poset.leq, mp.dom_p.poset.leq
    ids_o, ids_p = np.arange(mp.dom_o.size), np.arange(mp.dom_p.size)
    pre, post = point_masks(mp)
    comp_pre = leq_o[gf, ids_o][:, None] & leq_p[fg, ids_p]
    comp_post = leq_o[ids_o, gf][:, None] & leq_p[ids_p, fg]
    comp_fixed = (gf == ids_o)[:, None] & (fg == ids_p)
    hit = _first_hit(pre & ~comp_pre, post & ~comp_post, pre & post & ~comp_fixed)
    if hit is None:
        return None
    o, p, k = hit
    kind = ("pre-fixed", "post-fixed", "fixed")[k]
    return f"{kind} ({o},{p}) has a non-{kind} component"


@cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids a < b of every pair of n ids, row-major, read-only. Kept per
    n, a carrier size of at most INSTANCE_SIZE_CAP: np.triu_indices takes
    about 20 us a call, and the lemma rows ask for these pairs several
    times per instance."""
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _unclosed_rows(members: np.ndarray, meet: np.ndarray, join: np.ndarray) -> np.ndarray:
    """Per row of a boolean membership matrix: whether two members have a meet
    or join outside it. meet and join are tables over the columns, and each
    entry names a column. In a finite lattice, a nonempty closed row is a
    complete sublattice. L5, L6, Q1 and Q3 ask it of at most 2 x 64 rows."""
    a, b = _upper_pairs(len(meet))
    return (members[:, a] & members[:, b]
            & ~(members[:, meet[a, b]] & members[:, join[a, b]])).any(axis=1)


def _check_l4(mp, mode):
    """The first side and sublattice, in bitmask order, whose image is not
    closed, as its message; or None. If the image of a sublattice S is not
    closed at f(x), f(y), neither is the image of {x, y, x∧y, x∨y}, the
    sublattice x and y generate, whose bitmask is at most S's. So the first
    failing sublattice is one of these, and only they are read: each image
    is closed when the meets and joins of its 16 ordered pairs lie in it."""
    for side, dom, cod, table in (("F", mp.dom_o, mp.dom_p, mp.f),
                                  ("G", mp.dom_p, mp.dom_o, mp.g)):
        x, y = _upper_pairs(dom.size)
        generated = np.stack([x, y, dom.meet[x, y], dom.join[x, y]], axis=1)
        im = np.asarray(table)[generated]
        # row r marks, over the codomain, the image of the sublattice pair r generates
        rows = np.arange(len(x))
        images = np.zeros((len(x), cod.size), dtype=bool)
        images[rows[:, None], im] = True
        a, b, r = im[:, :, None], im[:, None, :], rows[:, None, None]
        closed = (images[r, cod.meet[a, b]] & images[r, cod.join[a, b]]).all(axis=(1, 2))
        bad = np.flatnonzero(~closed)
        if len(bad):
            s = min((sorted(set(generated[r].tolist())) for r in bad),
                    key=lambda s: sum(1 << i for i in s))
            v = cod.sublattice_violation(sorted({table[i] for i in s}))
            return f"{side} image of sublattice {s} is not closed: {v}"
    return None


def _check_l5(mp, mode, kinds=("pre", "post"), pinned=True):
    """The first failing fiber's message, scanning side O then P, anchor,
    and kinds ("pre", "post") in the order given; or None. A nonempty fiber
    fails when it is not closed and, when pinned, when its glb (pre) or lub
    (post) is not the anchor's image: every member of a pre fiber lies above
    the image and a closed one holds its glb, so the two are equal exactly
    when the image is a member; post fibers dually. Q1 reads the closure of
    pre fibers only."""
    masks = dict(zip(("pre", "post"), point_masks(mp)))
    for side, partner, image, name in (("O", mp.dom_p, mp.f, "F(o)"),
                                       ("P", mp.dom_o, mp.g, "G(p)")):
        # row r is the fiber of kind kinds[r % len(kinds)] at anchor r // len(kinds)
        rows = np.stack([masks[k] if side == "O" else masks[k].T for k in kinds],
                        axis=1).reshape(-1, partner.size)
        bad = _unclosed_rows(rows, partner.meet, partner.join)
        if pinned:
            bad |= ~rows[np.arange(len(rows)), np.repeat(image, len(kinds))]
        bad &= rows.any(axis=1)
        r = int(bad.argmax())
        if bad[r]:
            a, kind = r // len(kinds), kinds[r % len(kinds)]
            v = partner.sublattice_violation(np.flatnonzero(rows[r]).tolist())
            if v is not None:
                return f"{kind} fiber at {side}={a} is not a complete sublattice: {v}"
            law = "glb" if kind == "pre" else "lub"
            return f"{law} of the {kind} fiber at {side}={a} is not {name}"
    return None


def _check_l6(mp, mode, names="CDEF"):
    """The first failing component set of names, in the order C, D, E, F, as
    its message, or None: not closed, or missing its bound (top for C and D,
    bottom for E and F). C stacks with E over O, D with F over P. Q3 reads C and D.
    For any tables, monotone or not, the top pair is pre-fixed and the bottom
    pair post-fixed, so no set misses its bound; the "misses the top/bottom"
    branch guards that invariant of point_masks, and a test holds it."""
    masks = np.stack(point_masks(mp))
    sides = ((mp.dom_o, masks.any(axis=2)), (mp.dom_p, masks.any(axis=1)))
    unclosed = [_unclosed_rows(rows, lat.meet, lat.join) for lat, rows in sides]
    for name, s, k in (("C", 0, 0), ("D", 1, 0), ("E", 0, 1), ("F", 1, 1)):
        if name in names:
            lat, rows = sides[s]
            if unclosed[s][k]:
                v = lat.sublattice_violation(np.flatnonzero(rows[k]).tolist())
                return f"component set {name} is not a complete sublattice: {v}"
            if not rows[k][lat.bottom if k else lat.top]:
                return f"component set {name} misses the {'bottom' if k else 'top'}"
    return None


def _check_l7(mp, mode):
    pre, post = point_masks(mp)
    for kind, mask, op_o, op_p, bound in (("pre", pre, mp.dom_o.meet, mp.dom_p.meet, "meet"),
                                          ("post", post, mp.dom_o.join, mp.dom_p.join, "join")):
        o2, p2 = mask.nonzero()
        for o1, p1 in zip(o2.tolist(), p2.tolist()):
            # one row of the pairwise table at a time keeps memory linear
            closed = mask[op_o[o1, o2], op_p[p1, p2]]
            if not closed.all():
                j = int(closed.argmin())
                return f"{bound} of {kind}-fixed ({o1},{p1}),({int(o2[j])},{int(p2[j])}) escapes"
    return None


def _check_sfp(mp, mode):
    least = lsfp_direct(mp)
    lprod = lsfp_product(mp)
    ltar = lsfp_tarski_oracle(mp)
    if not (least.mu == lprod.mu == ltar):
        return (f"least strategies disagree: direct {least.mu}, "
                f"product {lprod.mu}, oracle {ltar}")
    greatest = gsfp_direct(mp)
    gprod = gsfp_product(mp)
    gtar = gsfp_tarski_oracle(mp)
    if not (greatest.nu == gprod.nu == gtar):
        return (f"greatest strategies disagree: direct {greatest.nu}, "
                f"product {gprod.nu}, oracle {gtar}")
    if not is_sim_fixed(mp, least.mu):
        return f"least pair {least.mu} is not simultaneously fixed"
    if not is_sim_fixed(mp, greatest.nu):
        return f"greatest pair {greatest.nu} is not simultaneously fixed"
    leq_o, leq_p = mp.dom_o.poset.leq, mp.dom_p.poset.leq
    pre, post = point_masks(mp)
    above_least = leq_o[least.mu_f][:, None] & leq_p[least.mu_g]
    below_greatest = leq_o[:, greatest.nu_f][:, None] & leq_p[:, greatest.nu_g]
    hit = _first_hit(pre & ~above_least, post & ~below_greatest)
    if hit is not None:
        o, p, k = hit
        return (f"least pair is not below pre-fixed ({o},{p})" if k == 0
                else f"greatest pair is not above post-fixed ({o},{p})")
    if not (leq_o[least.mu_f, greatest.nu_f] and leq_p[least.mu_g, greatest.nu_g]):
        return "least pair is not below the greatest pair"
    return None


LEMMAS = {
    "L1": ("continuous pairs are monotone", "continuous", _check_l1),
    "L2": ("composition preserves monotonicity and continuity", "monotone", _check_l2),
    "L3": ("components of simultaneous points are composition points", "monotone", _check_l3),
    "L4": ("continuous images of complete sublattices stay complete", "continuous", _check_l4),
    "L5": ("nonempty fibers are complete sublattices pinned at the image", "continuous", _check_l5),
    "L6": ("component sets form complete sublattices holding their bound", "continuous", _check_l6),
    "L7": ("meets of pre-fixed pairs stay pre-fixed, joins of post-fixed dually", "monotone", _check_l7),
    "SFP": ("least and greatest simultaneous fixed points exist and all strategies agree", "monotone", _check_sfp),
}

LEMMA_IDS = tuple(LEMMAS)


def _premise_holds(premise: str, mp: MutualPair, mode: ContinuityMode) -> bool:
    # continuity is checked alone: every mode covers binary bounds, whose
    # preservation implies monotonicity, so L1 can fail when it is wrong
    if premise == "continuous":
        return is_continuous_pair(mp, mode)
    return mp.monotone_failure is None


def check_lemma(lemma_id: str, spec: InstanceGenSpec,
                mode: ContinuityMode = BINARY) -> LemmaReport:
    """Run one lemma's executable form over spec.count generated instances,
    drawn BLOCK at a time.

    The run never aborts early: failures are collected as data, instances
    that violate the lemma's premise are recorded as skipped."""
    if lemma_id not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma_id!r}; choose from {', '.join(LEMMAS)}")
    title, premise, runner = LEMMAS[lemma_id]
    report = LemmaReport(lemma_id, title, mode.kind, spec.function_class)
    for start in range(0, spec.count, BLOCK):
        pairs, _ = _instances(spec, range(start, min(start + BLOCK, spec.count)), mode)
        for mp in pairs:
            if isinstance(mp, GenerationExhausted):
                report.generation_failures += 1
                continue
            report.instances_tried += 1
            # a pair of the premise's own class was checked when it was generated
            if premise != spec.function_class and not _premise_holds(premise, mp, mode):
                report.premise_skipped += 1
                continue
            witness = runner(mp, mode)
            if witness is not None:
                report.failures.append(Finding(textio.pair_to_json(mp), witness))
    return report


# ----------------------------------------------------------------- miner

@dataclass
class FindingReport:
    question: str
    mode_label: str
    tried: int
    exhaustive_size: int | None
    randomized: int
    finding: Finding | None
    revalidated: bool | None

    @property
    def note(self) -> str:
        if self.finding is not None:
            return "found"
        if self.exhaustive_size is not None:
            return f"none found (exhaustive up to size {self.exhaustive_size})"
        return "none found (search truncated by budget)"


def _q1(mp, mode):
    'A monotone, non-continuous pair with a nonempty pre-fixed fiber that is not closed.'
    if is_continuous_pair(mp, mode):
        return None
    return _check_l5(mp, mode, ("pre",), pinned=False)


def _q2_outside(leq_o, leq_p, f, g) -> tuple[np.ndarray, np.ndarray]:
    """Per pair of a stack (pre_mask's arguments with a batch axis), the
    masks of the elements of O pre-fixed for G.F and of P pre-fixed for F.G
    that lie outside the first, or second, component set. A padded element
    is below nothing, so it is never pre-fixed."""
    pre = pre_mask(leq_o, leq_p, f, g)
    b = np.arange(len(f))[:, None]
    return (leq_o[b, g[b, f], np.arange(f.shape[1])] & ~pre.any(axis=2),
            leq_p[b, f[b, g], np.arange(g.shape[1])] & ~pre.any(axis=1))


def _q2(mp, mode):
    """A composition pre-fixed element belonging to no simultaneous pre-fixed
    pair. None exists for any tables: (o, F(o)) is pre-fixed when G(F(o)) is
    below o, and (G(p), p) when F(G(p)) is below p."""
    stack = (mp.dom_o.poset.leq, mp.dom_p.poset.leq, np.asarray(mp.f), np.asarray(mp.g))
    for side, outside, name, which in zip("OP", _q2_outside(*(a[None] for a in stack)),
                                          ("G.F", "F.G"), ("first", "second")):
        if outside.any():
            return (f"{side}={int(outside.argmax())} is pre-fixed for {name} "
                    f"but outside the {which} component set")
    return None


def _q3(mp, mode):
    'A monotone pair whose pre-fixed component sets are not complete sublattices.'
    return _check_l6(mp, mode, "CD")


QUESTIONS = {"Q1": _q1, "Q2": _q2, "Q3": _q3}


def _ask(question: str, pairs: list[MutualPair], stack, mode: ContinuityMode):
    """The first (index, witness) of pairs at which question finds a
    counterexample, or None. Q2 asks the whole stack at once and names the
    first hit's witness by the one-pair path; Q1 and Q3 ask pair by pair."""
    pred = QUESTIONS[question]
    if question != "Q2":
        return next(((k, w) for k, mp in enumerate(pairs) if (w := pred(mp, mode)) is not None),
                    None)
    outside_o, outside_p = _q2_outside(*stack)
    hits = (outside_o | outside_p).any(axis=1)
    k = int(hits.argmax())
    if not hits[k]:
        return None
    witness = pred(pairs[k], mode)
    if witness is None:     # the stacked and the one-pair kernel disagree
        raise AssertionError
    return k, witness


def _revalidate(question: str, serialized: str, witness: str, mode: ContinuityMode) -> bool:
    # reparse and rerun from scratch: the lattices are rebuilt from the
    # JSON (only generation shares lattices), and every scan is repeated
    mp = textio.pair_from_json(serialized)
    if mp.monotone_failure is not None:
        return False
    return QUESTIONS[question](mp, mode) == witness


def _shape_pairs(max_size: int):
    """Each ordered pair of shapes, the first corpus lattice of each distinct
    order of at most max_size elements, and whether its raw tables fit the cap."""
    shapes = {}
    for _, lat in corpus():
        if lat.size <= max_size:
            shapes.setdefault(lat.poset.leq.tobytes(), lat)
    return [(lat_o, lat_p, lat_p.size ** lat_o.size * lat_o.size ** lat_p.size <= EXHAUST_COMBO_CAP)
            for lat_o in shapes.values() for lat_p in shapes.values()]


def _sweep(max_size: int):
    'Every monotone pair on each shape pair that fits the cap, f outer and g inner, sorted.'
    for lat_o, lat_p, fits in _shape_pairs(max_size):
        if fits:
            gs = sorted(_maps(lat_p, lat_o, None))
            for f in sorted(_maps(lat_o, lat_p, None)):
                for g in gs:
                    yield MutualPair(lat_o, lat_p, f, g)


def mine_counterexample(question: str, spec: InstanceGenSpec, budget: int,
                        max_size: int = 3, mode: ContinuityMode = BINARY) -> FindingReport:
    """Search for a counterexample: exhaustively over every monotone pair
    on small corpus shapes, then randomized within the remaining budget.
    Tries go BLOCK at a time, and the report is the one that asking
    them one by one gives. Any finding is re-validated from scratch before
    being reported.

    exhaustive_size is None when the budget ran out inside the sweep, and
    otherwise the largest size N such that the sweep covered every shape
    pair of at most N elements."""
    if question not in QUESTIONS:
        raise ValueError(f"unknown question {question!r}; choose from {', '.join(QUESTIONS)}")
    for name, value in (("budget", budget), ("max_size", max_size)):
        if value < 0:
            raise ValueError(f"{name} must be nonnegative")
    spec = replace(spec, function_class="monotone")
    sweep = _sweep(max_size)
    tried = randomized = 0
    finding = revalidated = None
    while finding is None and tried < budget:
        # the next tries in order: what is left of the sweep, then instance
        # number tried onwards, as many as the budget allows
        n = min(BLOCK, budget - tried)
        swept = list(islice(sweep, n))
        pairs, stack = _instances(spec, range(tried + len(swept), tried + n), mode, swept)
        hit = _ask(question, pairs, stack, mode)
        asked = n if hit is None else hit[0] + 1
        tried += asked
        randomized += max(0, asked - len(swept))
        if hit is not None:
            k, witness = hit
            finding = Finding(textio.pair_to_json(pairs[k]), witness)
            revalidated = _revalidate(question, finding.instance, witness, mode)
    size = None
    if finding is not None or randomized or next(sweep, None) is None:
        size = min((max(lat_o.size, lat_p.size) - 1
                    for lat_o, lat_p, fits in _shape_pairs(max_size) if not fits), default=max_size)
    return FindingReport(question, mode.kind, tried, size, randomized, finding, revalidated)


# ----------------------------------------------------------------- reports

def render_lemma_report(report: LemmaReport) -> str:
    'One block per lemma, one fact per line, no timestamps.'
    lines = [
        f"lemma: {report.lemma_id}",
        f"title: {report.title}",
        f"mode: {report.mode_label}",
        f"function-class: {report.function_class}",
        f"instances: {report.instances_tried}",
        f"premise-skipped: {report.premise_skipped}",
        f"generation-exhausted: {report.generation_failures}",
        f"genuine-failures: {len(report.failures)}",
    ]
    for i, failure in enumerate(report.failures):
        lines.append(f"failure[{i}].witness: {failure.witness}")
        lines.append(f"failure[{i}].instance: {failure.instance}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def render_finding_report(report: FindingReport) -> str:
    lines = [
        f"question: {report.question}",
        f"mode: {report.mode_label}",
        f"tried: {report.tried}",
        f"randomized: {report.randomized}",
        f"result: {report.note}",
    ]
    if report.finding is not None:
        lines.append(f"witness: {report.finding.witness}")
        lines.append(f"instance: {report.finding.instance}")
        lines.append(f"revalidated: {'true' if report.revalidated else 'false'}")
    return "\n".join(lines)
