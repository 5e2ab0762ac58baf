"""Independent oracles used to cross-check the package.

Everything here works straight off a boolean order matrix with plain
Python loops: no numpy, no lattice tables, no shared helpers with the
code under test. Slow on purpose; only run at desk scale.
"""
from __future__ import annotations


def lower_bounds(leq, subset):
    n = len(leq)
    return [m for m in range(n) if all(leq[m][s] for s in subset)]


def upper_bounds(leq, subset):
    n = len(leq)
    return [m for m in range(n) if all(leq[s][m] for s in subset)]


def glb_scan(leq, subset):
    'Greatest lower bound by scanning all candidates, or None.'
    lbs = lower_bounds(leq, subset)
    for g in lbs:
        if all(leq[m][g] for m in lbs):
            return g
    return None


def lub_scan(leq, subset):
    ubs = upper_bounds(leq, subset)
    for l in ubs:
        if all(leq[l][m] for m in ubs):
            return l
    return None


def is_poset_oracle(leq):
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return False
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return False
            for k in range(n):
                if leq[i][j] and leq[j][k] and not leq[i][k]:
                    return False
    return True


def is_lattice_oracle(leq):
    'Poset axioms plus every pair having both bounds.'
    if not is_poset_oracle(leq):
        return False
    n = len(leq)
    for i in range(n):
        for j in range(n):
            if glb_scan(leq, [i, j]) is None or lub_scan(leq, [i, j]) is None:
                return False
    return True


def first_missing_bound_oracle(leq):
    """First pair of a poset lacking a bound, as (kind, (i, j)), or None:
    pairs row-major over i <= j, and for each pair the lub before the glb."""
    n = len(leq)
    for i in range(n):
        for j in range(i, n):
            if lub_scan(leq, [i, j]) is None:
                return ("lub", (i, j))
            if glb_scan(leq, [i, j]) is None:
                return ("glb", (i, j))
    return None


def preserves_meets_oracle(table, dom_leq, cod_leq, subsets):
    'f(glb S) == glb f[S] for every listed subset, all bounds by scan.'
    for s in subsets:
        want = glb_scan(cod_leq, [table[i] for i in s]) if s else (
            lub_scan(cod_leq, range(len(cod_leq))))
        has = table[glb_scan(dom_leq, s)] if s else table[
            lub_scan(dom_leq, range(len(dom_leq)))]
        if has != want:
            return False
    return True


def preserves_joins_oracle(table, dom_leq, cod_leq, subsets):
    for s in subsets:
        want = lub_scan(cod_leq, [table[i] for i in s]) if s else (
            glb_scan(cod_leq, range(len(cod_leq))))
        has = table[lub_scan(dom_leq, s)] if s else table[
            glb_scan(dom_leq, range(len(dom_leq)))]
        if has != want:
            return False
    return True


def nonempty_subsets(n, max_card=None):
    out = []
    for bits in range(1, 1 << n):
        s = [i for i in range(n) if bits >> i & 1]
        if max_card is None or len(s) <= max_card:
            out.append(s)
    return out


def lfp_scan(table, leq):
    'Least pre-fixed point of a monotone endo table, by candidate scan.'
    pre = [x for x in range(len(leq)) if leq[table[x]][x]]
    for x in pre:
        if all(leq[x][y] for y in pre):
            return x
    return None


def gfp_scan(table, leq):
    post = [x for x in range(len(leq)) if leq[x][table[x]]]
    for x in post:
        if all(leq[y][x] for y in post):
            return x
    return None


def sim_kleene_oracle(f, g, start):
    """Iterate (o, p) -> (g[p], f[o]) from start until it repeats. From
    the bottom pair of a monotone pair this is the least simultaneous
    fixed point, from the top pair the greatest."""
    o, p = start
    while (g[p], f[o]) != (o, p):
        o, p = g[p], f[o]
    return o, p


def tarski_meet_oracle(f, g, leq_o, leq_p, meet_o, meet_p):
    """Meet of every simultaneous pre-fixed pair (o, p), that is f[o] <= p
    and g[p] <= o, tested one pair at a time and folded with the meet
    tables as found. On the order-duals (transposed orders, join tables
    as meets) it gives the join of every post-fixed pair."""
    mo = mp = None
    for o in range(len(leq_o)):
        for p in range(len(leq_p)):
            if leq_p[f[o]][p] and leq_o[g[p]][o]:
                mo = o if mo is None else meet_o[mo][o]
                mp = p if mp is None else meet_p[mp][p]
    return mo, mp


def longest_chain_edges(leq):
    'Length in edges of the longest strictly ascending chain.'
    n = len(leq)
    memo = {}

    def height(i):
        if i not in memo:
            above = [j for j in range(n) if j != i and leq[i][j]]
            memo[i] = 1 + max((height(j) for j in above), default=-1) if above else 0
        return memo[i]

    return max(height(i) for i in range(n))


def trio_recursive(x, y, z, entry="F"):
    """The mutually recursive trio written as actual mutual recursion.
    Only safe for arguments whose call depth stays small."""
    def f(x, y, z):
        return g(x + 1, y, z)

    def g(x, y, z):
        return f(x, y, z) if y < z else h(x, x + y, z)

    def h(x, y, z):
        return f(x, y, z - x) if z > 0 else (x, y, z)

    return {"F": f, "G": g, "H": h}[entry](x, y, z)


def _class_closure(class_edges, generics, types):
    'Reflexive-transitive subclass closure, with Null below and Object above all.'
    names = {t.class_name for t in types} | set(generics)
    for a, b in class_edges:
        names.add(a)
        names.add(b)
    closure = {(n, n) for n in names} | set(class_edges)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    for n in names:
        closure.add(("Null", n))
        closure.add((n, "Object"))
    return closure


def subtyping_saturation(class_edges, generics, types, intervals):
    """Least subtype/containment pair by worklist saturation.

    class_edges: (sub, super) name pairs as declared; generics: names of
    generic classes; types/intervals: the solved universe. Derives the
    reflexive-transitive subclass closure itself, then grows both
    relations together until nothing new fires.
    """
    closure = _class_closure(class_edges, generics, types)
    sub, cont = set(), set()
    changed = True
    while changed:
        changed = False
        for t1 in types:
            for t2 in types:
                if (t1, t2) in sub:
                    continue
                if t1.class_name == "Null" or t2.class_name == "Object":
                    fire = True
                elif (t1.class_name, t2.class_name) not in closure:
                    fire = False
                elif t1.arg is None and t2.arg is None:
                    fire = True
                else:
                    fire = (t1.arg is not None and t2.arg is not None
                            and (t1.arg, t2.arg) in cont)
                if fire:
                    sub.add((t1, t2))
                    changed = True
        for i1 in intervals:
            for i2 in intervals:
                if (i1, i2) in cont:
                    continue
                if (i1.upper, i2.upper) in sub and (i2.lower, i1.lower) in sub:
                    cont.add((i1, i2))
                    changed = True
    return frozenset(sub), frozenset(cont)


def subtyping_greatest_oracle(class_edges, generics, types, intervals):
    """Greatest subtype/containment pair by deletion saturation.

    Same arguments as subtyping_saturation. Starts from every pair of
    both relations and deletes each pair whose rule no longer fires,
    until a whole round deletes nothing.
    """
    closure = _class_closure(class_edges, generics, types)
    sub = {(t1, t2) for t1 in types for t2 in types}
    cont = {(i1, i2) for i1 in intervals for i2 in intervals}
    changed = True
    while changed:
        changed = False
        for t1, t2 in list(sub):
            if t1.class_name == "Null" or t2.class_name == "Object":
                continue
            if (t1.class_name, t2.class_name) not in closure:
                keep = False
            elif t1.arg is None and t2.arg is None:
                keep = True
            else:
                keep = (t1.arg is not None and t2.arg is not None
                        and (t1.arg, t2.arg) in cont)
            if not keep:
                sub.discard((t1, t2))
                changed = True
        for i1, i2 in list(cont):
            if not ((i1.upper, i2.upper) in sub and (i2.lower, i1.lower) in sub):
                cont.discard((i1, i2))
                changed = True
    return frozenset(sub), frozenset(cont)


def point_classes_oracle(leq_o, leq_p, f, g):
    """Simultaneous pre-/post-fixed classification of every pair (o, p),
    as two nested lists indexed [o][p], straight from the definitions."""
    no, np_ = len(leq_o), len(leq_p)
    pre = [[bool(leq_p[f[o]][p] and leq_o[g[p]][o]) for p in range(np_)] for o in range(no)]
    post = [[bool(leq_p[p][f[o]] and leq_o[o][g[p]]) for p in range(np_)] for o in range(no)]
    return pre, post


def monotone_witness_oracle(table, dom_leq, cod_leq):
    'First (a, b) in row-major order with a <= b but table[a] not <= table[b], or None.'
    n = len(dom_leq)
    for a in range(n):
        for b in range(n):
            if dom_leq[a][b] and not cod_leq[table[a]][table[b]]:
                return (a, b)
    return None


def continuity_witness_oracle(table, dom_leq, cod_leq, law, with_empty=False):
    """First subset whose meet (law "meet") or join the table does not
    preserve: the empty subset first when with_empty, then every pair in
    lexicographic order; None when all are preserved. The empty meet is
    the top and the empty join the bottom, which the scans give as is."""
    bound = glb_scan if law == "meet" else lub_scan
    n = len(dom_leq)
    subsets = ([()] if with_empty else []) + [(a, b) for a in range(n) for b in range(a + 1, n)]
    for s in subsets:
        if table[bound(dom_leq, list(s))] != bound(cod_leq, [table[i] for i in s]):
            return s
    return None


def closed_family_oracle(masks):
    'The family the bitmasks generate under & and |, grown until a scan of all pairs adds nothing.'
    closed = set(masks)
    grew = True
    while grew:
        grew = False
        for a in list(closed):
            for b in list(closed):
                for c in (a & b, a | b):
                    if c not in closed:
                        closed.add(c)
                        grew = True
    return closed


def closed_subsets_oracle(leq):
    'Nonempty subsets, in ascending bitmask order, holding the glb and lub of every two members.'
    n = len(leq)
    glb = [[glb_scan(leq, [a, b]) for b in range(n)] for a in range(n)]
    lub = [[lub_scan(leq, [a, b]) for b in range(n)] for a in range(n)]
    return [s for s in nonempty_subsets(n)
            if all(glb[a][b] in s and lub[a][b] in s for a in s for b in s)]


def sublattice_violation_oracle(leq, s):
    """The first pair a, b of members, b at or after a in s, whose glb or
    lub (glb first) is not a member, as (kind, a, b, bound); or None."""
    for i, a in enumerate(s):
        for b in s[i:]:
            for kind, bound in (("meet", glb_scan(leq, [a, b])), ("join", lub_scan(leq, [a, b]))):
                if bound not in s:
                    return kind, a, b, bound
    return None


def draw_lists_oracle(leq):
    """A lattice's generation lists but its two tables, straight from the
    order matrix: ids sorted by strict down-set size then id, each strict
    down-set and each up-set, members in id order; then per element i the
    incomparable pairs a < b whose join is i, in row-major order, and per
    incomparable j before i in that order, (j, the meet of i and j), by
    id. Each bound is found by scan."""
    n = len(leq)
    below = [[j for j in range(n) if j != i and leq[j][i]] for i in range(n)]
    up_sets = [[j for j in range(n) if leq[i][j]] for i in range(n)]
    extension = sorted(range(n), key=lambda i: (len(below[i]), i))
    joins = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if not leq[a][b] and not leq[b][a]:
                joins[lub_scan(leq, [a, b])].append((a, b))
    meets = [[(j, glb_scan(leq, [i, j])) for j in range(n) if not leq[i][j] and not leq[j][i]
              and extension.index(j) < extension.index(i)] for i in range(n)]
    return extension, below, up_sets, joins, meets


def continuous_table_oracle(dom_leq, cod_leq, with_empty=False):
    """First raw table, in lexicographic order, preserving every binary
    meet and join (and with_empty the empty ones, top and bottom), or None
    when no table does. Every bound is found by scan up front."""
    n, m = len(dom_leq), len(cod_leq)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    dom_glb = {(a, b): glb_scan(dom_leq, [a, b]) for a, b in pairs}
    dom_lub = {(a, b): lub_scan(dom_leq, [a, b]) for a, b in pairs}
    cod_glb = [[glb_scan(cod_leq, [x, y]) for y in range(m)] for x in range(m)]
    cod_lub = [[lub_scan(cod_leq, [x, y]) for y in range(m)] for x in range(m)]
    ends = [(glb_scan(dom_leq, []), glb_scan(cod_leq, [])),
            (lub_scan(dom_leq, []), lub_scan(cod_leq, []))] if with_empty else []
    table = [0] * n
    while True:
        ok = all(table[d] == c for d, c in ends)
        for a, b in pairs:
            if not ok:
                break
            ok = (table[dom_glb[a, b]] == cod_glb[table[a]][table[b]]
                  and table[dom_lub[a, b]] == cod_lub[table[a]][table[b]])
        if ok:
            return tuple(table)
        # the next table in lexicographic order, counting in base m
        k = n - 1
        while k >= 0 and table[k] == m - 1:
            table[k] = 0
            k -= 1
        if k < 0:
            return None
        table[k] += 1
