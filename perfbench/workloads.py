"""The four workloads: inputs made from a seed, the request each one
times, and a reference for every request that shares no code with mucofix.

Sizes are fixed per workload and only the contents depend on the seed,
so every seed costs about the same and run-to-run spread stays small.
"""
from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# ------------------------------------------------------------ lattices
#
# A lattice here is a product of chains given by its dims: (n,) is a
# chain, (a, b) a grid. Element ids are row-major coordinates, labels are
# "i" or "i.j". A generator is componentwise monotone: output coordinate
# j is the max over input coordinates i of a monotone table h[j][i].


def size(dims) -> int:
    return int(np.prod(dims))


def coords(dims, k: int) -> tuple[int, ...]:
    return (k,) if len(dims) == 1 else divmod(k, dims[1])


def ident(dims, xs) -> int:
    return xs[0] if len(dims) == 1 else xs[0] * dims[1] + xs[1]


def label(xs) -> str:
    return ".".join(str(x) for x in xs)


def random_map(rng, dims_in, dims_out):
    return [[tuple(sorted(rng.randrange(e) for _ in range(d))) for d in dims_in]
            for e in dims_out]


def apply_map(m, xs) -> tuple[int, ...]:
    return tuple(max(h[i][x] for i, x in enumerate(xs)) for h in m)


def kleene(f, g, start):
    """Least (from the bottom pair) or greatest (from the top pair)
    simultaneous fixed point by iterating (o, p) -> (G(p), F(o)) on
    coordinates; returns the limit and the step count at which it
    repeated."""
    cur = start
    steps = 0
    while True:
        steps += 1
        nxt = (apply_map(g, cur[1]), apply_map(f, cur[0]))
        if nxt == cur:
            return cur, steps
        cur = nxt


def extreme(dims, top: bool):
    return tuple(d - 1 for d in dims) if top else tuple(0 for _ in dims)


def lattice_doc(dims) -> dict:
    'Elements in id order and the cover edges of the product order.'
    elements, leq = [], []
    for k in range(size(dims)):
        xs = coords(dims, k)
        elements.append(label(xs))
        for axis, d in enumerate(dims):
            if xs[axis] + 1 < d:
                up = list(xs)
                up[axis] += 1
                leq.append([label(xs), label(up)])
    return {"elements": elements, "leq": leq}


def map_doc(m, dims_in, dims_out) -> dict:
    return {label(coords(dims_in, k)): label(apply_map(m, coords(dims_in, k)))
            for k in range(size(dims_in))}


def map_table(m, dims_in, dims_out) -> tuple[int, ...]:
    return tuple(ident(dims_out, apply_map(m, coords(dims_in, k))) for k in range(size(dims_in)))


def build_lattice(mucofix, dims):
    'The mucofix lattice for dims from the direct constructors, no order search.'
    if len(dims) == 1:
        return mucofix.chain(dims[0])
    a, b = dims
    k = np.arange(a * b)
    row, col = k // b, k % b
    leq = (row[:, None] <= row[None, :]) & (col[:, None] <= col[None, :])
    meet = np.minimum.outer(row, row) * b + np.minimum.outer(col, col)
    join = np.maximum.outer(row, row) * b + np.maximum.outer(col, col)
    labels = tuple(label(coords(dims, int(i))) for i in k)
    return mucofix.FiniteLattice(mucofix.FinitePoset(labels, leq), meet, join, 0, a * b - 1)


@dataclass
class Request:
    key: str
    argvs: tuple = ()         # CLI argument lists, run in order as one request
    payload: object = None    # what the run and the reference need besides argvs


def run_cli(mucofix, argvs) -> tuple[str, bool]:
    'Run CLI commands in-process with stdout captured; ok when every exit code is 0.'
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes = [mucofix.cli.main(list(argv)) for argv in argvs]
    return buf.getvalue(), all(c == 0 for c in codes)


def write_json(path: Path, obj):
    path.write_text(json.dumps(obj, separators=(",", ":")))


class Workload:
    'A cycle of requests built from a seed; requests go through the CLI by default.'
    name: str

    def run(self, mucofix, req):
        return run_cli(mucofix, req.argvs)

    def errors(self, reqs, outputs) -> dict:
        'The requests whose stdout differs from the reference report, with why.'
        return {req.key: "stdout differs from the reference"
                for req in reqs if outputs[req.key] != self.expected(req)}


# ------------------------------------------------------------ lemmas

class Lemmas(Workload):
    """`mucofix verify` then `mucofix mine Q2`, one seed per request.

    --max-size 3 keeps both phases of the miner in every request: 157
    exhaustive tries on the two small chains, then seeded sampling. At
    --max-size 4 the exhaustive phase alone is 6626 tries."""
    name = "lemmas"
    count = 8
    budget = 600
    cycle = 16

    def build(self, mucofix, rng, out: Path):
        reqs = []
        for _ in range(self.cycle):
            s = str(rng.randrange(2 ** 31))
            reqs.append(Request(f"s{s}", (
                ("verify", "--seed", s, "--count", str(self.count)),
                ("mine", "Q2", "--seed", s, "--budget", str(self.budget), "--max-size", "3"))))
        return reqs

    def errors(self, reqs, outputs):
        'Every lemma row passes, and Q2 finds nothing after spending its whole budget.'
        errors = {}
        for req in reqs:
            lines = outputs[req.key].splitlines()
            rows = [ln for ln in lines if ln.startswith("genuine-failures: ")]
            if len(rows) != 9 or any(ln != "genuine-failures: 0" for ln in rows):
                errors[req.key] = "a lemma row reports genuine failures"
            elif "verify: PASS" not in lines:
                errors[req.key] = "verify did not pass"
            elif f"tried: {self.budget}" not in lines:
                errors[req.key] = "Q2 did not spend its whole budget"
            elif not any(ln.startswith("result: none found") for ln in lines):
                errors[req.key] = "Q2 reported a finding"
        return errors


# ------------------------------------------------------------ solve-docs

def solve_text(path, direction, o_label, p_label, steps) -> str:
    'The report `mucofix solve` prints when all three strategies agree.'
    lf, lg = ("muF", "muG") if direction == "least" else ("nuF", "nuG")
    lines = [f"solve: {path}", f"direction: {direction}"]
    for strategy, its in (("direct", 0), ("product", steps), ("tarski", None)):
        lines += [f"strategy: {strategy}", f"{lf}: {o_label}", f"{lg}: {p_label}"]
        if its is not None:
            lines.append(f"iterations: {its}")
    lines.append("agreement: AGREE")
    return "\n".join(lines) + "\n"


def reference_point(payload, direction):
    dims_o, dims_p, f, g = payload
    top = direction == "greatest"
    return kleene(f, g, (extreme(dims_o, top), extreme(dims_p, top)))


class SolveDocs(Workload):
    """`mucofix solve DOC --direction D` on pair documents written in set-up.

    Every document is a grid or a chain of 169-256 elements per side, so
    order construction dominates. Chains stop at 257 elements: longer
    ones are refused as not lattices (see probe_known_defect)."""
    name = "solve-docs"
    # sizes rise evenly from 169 to 256 elements per side, so request
    # costs spread smoothly and no percentile sits on a jump between them
    shapes = (
        ((13, 13), (12, 15)), ((176,), (11, 16)), ((13, 14), (14, 13)), ((12, 16), (190,)),
        ((14, 14), (13, 15)), ((200,), (10, 20)), ((15, 14), (12, 17)), ((11, 20), (214,)),
        ((15, 15), (16, 14)), ((230,), (12, 19)), ((16, 15), (10, 24)), ((240,), (20, 12)),
        ((14, 18), (16, 16)), ((248,), (14, 18)), ((16, 16), (256,)), ((256,), (16, 16)),
    )

    def _doc(self, rng, path, dims_o, dims_p):
        f = random_map(rng, dims_o, dims_p)
        g = random_map(rng, dims_p, dims_o)
        write_json(path, {"O": lattice_doc(dims_o), "P": lattice_doc(dims_p),
                          "F": map_doc(f, dims_o, dims_p), "G": map_doc(g, dims_p, dims_o)})
        return (dims_o, dims_p, f, g)

    def build(self, mucofix, rng, out: Path):
        reqs = []
        for i, (dims_o, dims_p) in enumerate(self.shapes):
            path = out / f"doc{i}.json"
            payload = self._doc(rng, path, dims_o, dims_p)
            direction = ("least", "greatest")[i % 2]
            reqs.append(Request(f"doc{i}-{direction}",
                                (("solve", str(path), "--direction", direction),), payload))
        return reqs

    def expected(self, req) -> str:
        direction = req.argvs[0][3]
        (o, p), steps = reference_point(req.payload, direction)
        return solve_text(req.argvs[0][1], direction, label(o), label(p), steps)

    def probe_known_defect(self, mucofix, rng, out: Path):
        """Solve one 258-element chain document outside the timed phase.

        While the closure in parse_lattice_doc composes relations with a
        uint8 matmul, path counts wrap at 256 and the document is refused
        as not a lattice. The outcome is reported, never counted as a
        request; "fixed" means it now matches the reference."""
        path = out / "chain258.json"
        payload = self._doc(rng, path, (258,), (258,))
        req = Request("chain258-least", (("solve", str(path), "--direction", "least"),), payload)
        text, ok = run_cli(mucofix, req.argvs)
        return {"input": "chain documents above 257 elements",
                "fixed": ok and text == self.expected(req),
                "output": text.strip().splitlines()[-1] if text.strip() else ""}


# ------------------------------------------------------------ solve-tables

class SolveTables(Workload):
    """All six solver calls on one MutualPair built in set-up.

    The lattices come from the direct constructors, so no order search
    is timed: the work is the monotonicity scans, component sets and
    Tarski folds over 90000 to 176400 pairs."""
    name = "solve-tables"
    # 90000 to 176400 pairs, rising evenly for the same reason as in SolveDocs
    shapes = (
        ((300,), (300,)), ((20, 15), (16, 20)), ((310,), (14, 23)), ((18, 18), (320,)),
        ((330,), (18, 18)), ((19, 18), (12, 29)), ((350,), (15, 23)), ((18, 20), (352,)),
        ((360,), (19, 19)), ((20, 18), (370,)), ((380,), (16, 24)), ((20, 19), (19, 20)),
        ((390,), (390,)), ((20, 20), (16, 25)), ((410,), (20, 20)), ((21, 20), (420,)),
    )
    calls = ("lsfp_direct", "lsfp_product", "lsfp_tarski_oracle",
             "gsfp_direct", "gsfp_product", "gsfp_tarski_oracle")

    def build(self, mucofix, rng, out: Path):
        reqs = []
        for i, (dims_o, dims_p) in enumerate(self.shapes):
            f = random_map(rng, dims_o, dims_p)
            g = random_map(rng, dims_p, dims_o)
            mp = mucofix.MutualPair(build_lattice(mucofix, dims_o), build_lattice(mucofix, dims_p),
                                    map_table(f, dims_o, dims_p), map_table(g, dims_p, dims_o))
            reqs.append(Request(f"pair{i}", (), ((dims_o, dims_p, f, g), mp)))
        return reqs

    def run(self, mucofix, req):
        (dims_o, dims_p, _, _), mp = req.payload
        lines = []
        for name in self.calls:
            res = getattr(mucofix, name)(mp)
            pt = res if name.endswith("oracle") else (res.mu if name[0] == "l" else res.nu)
            line = f"{name}: ({label(coords(dims_o, pt.o))},{label(coords(dims_p, pt.p))})"
            if name.endswith("product"):
                line += f" iterations {res.iterations}"
            lines.append(line)
        return "\n".join(lines) + "\n", True

    def expected(self, req) -> str:
        lines = []
        for name in self.calls:
            (o, p), steps = reference_point(req.payload[0], "least" if name[0] == "l" else "greatest")
            line = f"{name}: ({label(o)},{label(p)})"
            if name.endswith("product"):
                line += f" iterations {steps}"
            lines.append(line)
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------ subtype

@dataclass(frozen=True)
class Interval:
    lower: "Ground"
    upper: "Ground"

    def __str__(self):
        return f"[{self.lower},{self.upper}]"


@dataclass(frozen=True)
class Ground:
    class_name: str
    arg: Interval | None = None

    def __str__(self):
        return self.class_name if self.arg is None else f"{self.class_name}<{self.arg}>"


def universe(classes):
    'Depth-1 types and intervals, built independently of demos.build_universe.'
    base = [Ground(c["name"]) for c in classes if not c["generic"]]
    generics = [c["name"] for c in classes if c["generic"]]
    types = base + [Ground(g, Interval(lo, up)) for g in generics for lo in base for up in base]
    return types, [Interval(a, b) for a in types for b in types]


def _subclass_closure(class_edges, names):
    closure = {(n, n) for n in names} | set(class_edges)
    grew = True
    while grew:
        grew = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    grew = True
    return closure | {("Null", n) for n in names} | {(n, "Object") for n in names}


def greatest_subtyping(class_edges, types, intervals):
    """Greatest subtype/containment pair: start from every pair and delete
    the pairs whose rule no longer fires until nothing changes."""
    closure = _subclass_closure(class_edges, {t.class_name for t in types})

    def fires(t1, t2, cont):
        if t1.class_name == "Null" or t2.class_name == "Object":
            return True
        if (t1.class_name, t2.class_name) not in closure:
            return False
        if t1.arg is None and t2.arg is None:
            return True
        return t1.arg is not None and t2.arg is not None and (t1.arg, t2.arg) in cont

    sub = {(a, b) for a in types for b in types}
    cont = {(a, b) for a in intervals for b in intervals}
    changed = True
    while changed:
        drop_s = {(a, b) for a, b in sub if not fires(a, b, cont)}
        drop_c = {(i1, i2) for i1, i2 in cont
                  if not ((i1.upper, i2.upper) in sub and (i2.lower, i1.lower) in sub)}
        sub -= drop_s
        cont -= drop_c
        changed = bool(drop_s or drop_c)
    return frozenset(sub), frozenset(cont)


def subtype_text(path, direction, types, intervals, sub, cont) -> str:
    'The report `mucofix demo subtype --depth 1` prints.'
    lines = [f"classes: {path}", "depth: 1", f"direction: {direction}",
             f"types: {len(types)}", f"intervals: {len(intervals)}", f"subtypes: {len(sub)}"]
    for i, (a, b) in enumerate(sorted(sub, key=lambda ab: (str(ab[0]), str(ab[1])))):
        lines.append(f"subtype[{i}]: ({a},{b})")
    lines.append(f"containments: {len(cont)}")
    return "\n".join(lines) + "\n"


def load_oracles(root: Path):
    'The test suite\'s plain-loop oracles, loaded by path.'
    spec = importlib.util.spec_from_file_location("mucofix_test_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Subtype(Workload):
    """`mucofix demo subtype --depth 1` on class tables written in set-up.

    One-generic tables give 6 types and 36 intervals: four are solved in
    both directions and five more in the greatest one only, so the median
    falls inside the greatest requests instead of on the gap between the
    two directions. One two-generic table (10 types, 100 intervals) is
    solved least, and takes a third of the time. Both of its generics
    extend Object: with one extending the other a request takes 4-5 s,
    and its greatest solve takes 2 s; either would leave a run too few
    requests for a tail."""
    name = "subtype"
    plan = ((1, ("least", "greatest")),) * 4 + ((1, ("greatest",)),) * 5 + ((2, ("least",)),)
    # equal-length names, so that no seed draws longer type strings to serialize
    names = ("Lst", "Set", "Box", "Opt", "Seq", "Bag", "Ref", "Vec", "Map", "Arr")

    def __init__(self, root: Path):
        self.oracles = load_oracles(root)

    def build(self, mucofix, rng, out: Path):
        reqs = []
        for i, (generics, directions) in enumerate(self.plan):
            classes = ([{"name": "Object", "generic": False, "superclass": None},
                        {"name": "Null", "generic": False, "superclass": "Object"}]
                       + [{"name": f"{n}{rng.randrange(10, 100)}", "generic": True,
                           "superclass": "Object"} for n in rng.sample(self.names, generics)])
            path = out / f"classes{i}.json"
            write_json(path, {"classes": classes})
            for direction in directions:
                reqs.append(Request(f"classes{i}-{direction}",
                                    (("demo", "subtype", "--classes", str(path),
                                      "--depth", "1", "--direction", direction),),
                                    classes))
        return reqs

    def errors(self, reqs, outputs):
        return {**self.check_order(reqs, outputs), **super().errors(reqs, outputs)}

    def expected(self, req) -> str:
        classes = req.payload
        edges = [(c["name"], c["superclass"]) for c in classes if c["superclass"]]
        types, intervals = universe(classes)
        direction = req.argvs[0][-1]
        if direction == "least":
            generics = [c["name"] for c in classes if c["generic"]]
            sub, cont = self.oracles.subtyping_saturation(edges, generics, types, intervals)
        else:
            sub, cont = greatest_subtyping(edges, types, intervals)
        return subtype_text(req.argvs[0][3], direction, types, intervals, sub, cont)

    def check_order(self, reqs, outputs):
        'The least subtype relation sits inside the greatest one, table by table.'
        errors = {}

        def pairs(text):
            return {ln.split(": ", 1)[1] for ln in text.splitlines() if ln.startswith("subtype[")}
        for req in reqs:
            twin = req.key[:-len("least")] + "greatest"
            if req.key.endswith("-least") and twin in outputs:
                if not pairs(outputs[req.key]) <= pairs(outputs[twin]):
                    errors[req.key] = "least subtypes are not inside the greatest ones"
        return errors
