"""Command line front end.

One command per process, plain text reports, one fact per line, no
timestamps, deterministic bytes for a fixed input and seed. Exit codes:
0 success, 1 a check or verification failed, 2 unusable input.
"""
from __future__ import annotations

import argparse
import functools

from . import solvers
from .demos import (StepBudgetExceeded, fixture_tables, parse_class_table_doc,
                    paulson_trio, solve_subtyping)
from .genfun import ContinuityMode, monotone_witness, pair_continuity_witness
from .lattice import CapacityError, NotALatticeError, NotAPosetError
from .solvers import NotMonotoneError
from .textio import (DocumentError, load_document, pair_from_lattices, parse_lattice_doc,
                     parse_pair_doc)
from .verifier import (FAMILIES, InstanceGenSpec, L4_SIZE_CAP, LEMMA_IDS, QUESTIONS,
                       check_lemma, mine_counterexample, render_finding_report,
                       render_lemma_report, split_seed)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2

# one lemma row per premise it is exercised under; row order fixes the
# seed split, so a filtered run sees the same instances as a full one
VERIFY_PLAN = (
    ("L1", "continuous"),
    ("L2", "monotone"),
    ("L2", "continuous"),
    ("L3", "monotone"),
    ("L4", "continuous"),
    ("L5", "continuous"),
    ("L6", "continuous"),
    ("L7", "monotone"),
    ("SFP", "monotone"),
)

# the solver names of each strategy, least first, looked up in solvers on
# every call; the Tarski oracle returns a bare point, the others a SolveResult
SOLVERS = {"direct": ("lsfp_direct", "gsfp_direct"),
           "product": ("lsfp_product", "gsfp_product"),
           "tarski": ("lsfp_tarski_oracle", "gsfp_tarski_oracle")}


def _subset_text(lat, ids) -> str:
    return "{" + ",".join(lat.label(i) for i in ids) + "}"


def cmd_check(args) -> int:
    mode = ContinuityMode(args.mode)
    worst = EXIT_OK
    for path in args.paths:
        print(f"check: {path}")
        obj = load_document(path)
        if not isinstance(obj, dict):
            raise DocumentError("top level must be an object")
        if "elements" in obj:
            worst = max(worst, EXIT_CHECK if _checked_lattice(obj) is None else EXIT_OK)
        elif "O" in obj:
            worst = max(worst, _check_pair_doc(obj, mode))
        elif "classes" in obj:
            parse_class_table_doc(obj)
            print("classes: ok")
        else:
            raise DocumentError("document shape not recognized "
                                "(expected a lattice, pair, or class table document)")
    return worst


def _checked_lattice(obj, prefix: str = ""):
    'Print the poset and lattice verdicts of a lattice document; the lattice, or None.'
    try:
        lat = parse_lattice_doc(obj)
    except NotAPosetError as exc:
        print(f"{prefix}poset: {exc}")
        return None
    except NotALatticeError as exc:
        print(f"{prefix}poset: ok")
        print(f"{prefix}lattice: {exc}")
        return None
    print(f"{prefix}poset: ok")
    print(f"{prefix}lattice: ok")
    return lat


def _check_pair_doc(obj, mode) -> int:
    if not isinstance(obj, dict) or set(obj) != {"O", "P", "F", "G"}:
        raise DocumentError('a pair document has exactly the keys "O", "P", "F", "G"')
    lats = [_checked_lattice(obj[side], f"{side}.") for side in ("O", "P")]
    if any(lat is None for lat in lats):
        return EXIT_CHECK
    ok = True
    mp = pair_from_lattices(obj, *lats)
    for name, fn in (("F", mp.f_fn), ("G", mp.g_fn)):
        w = monotone_witness(fn)
        if w is None:
            print(f"{name}.monotone: ok")
        else:
            a, b = (fn.dom.label(i) for i in w)
            print(f"{name}.monotone: breaks the order at ({a},{b})")
            ok = False
    w = pair_continuity_witness(mp, mode)
    if w is None:
        print(f"pair.continuous[{mode.kind}]: ok")
    else:
        side, law, subset = w
        dom = mp.dom_o if side == "F" else mp.dom_p
        print(f"pair.continuous[{mode.kind}]: {side} breaks {law} "
              f"preservation at {_subset_text(dom, subset)}")
        ok = False
    return EXIT_OK if ok else EXIT_CHECK


def cmd_solve(args) -> int:
    least = args.direction == "least"
    # a least solve reads only meet tables and a greatest one only joins, so
    # each lattice is proven on the side the solve reads and never builds the other
    mp = parse_pair_doc(load_document(args.path), "meet" if least else "join")
    lf, lg = ("muF", "muG") if least else ("nuF", "nuG")
    print(f"solve: {args.path}")
    print(f"direction: {args.direction}")
    results = []
    strategies = tuple(SOLVERS) if args.strategy == "all" else (args.strategy,)
    for strategy in strategies:
        print(f"strategy: {strategy}")
        res = getattr(solvers, SOLVERS[strategy][0 if least else 1])(mp)
        point = res if strategy == "tarski" else res.mu if least else res.nu
        print(f"{lf}: {mp.dom_o.label(point.o)}")
        print(f"{lg}: {mp.dom_p.label(point.p)}")
        if strategy != "tarski":
            print(f"iterations: {res.iterations}")
            for i, pt in enumerate(res.trace if args.trace else ()):
                print(f"trace[{i}]: ({mp.dom_o.label(pt.o)},{mp.dom_p.label(pt.p)})")
        results.append(point)
    if args.strategy == "all":
        agree = all(r == results[0] for r in results)
        print(f"agreement: {'AGREE' if agree else 'DISAGREE'}")
        if not agree:
            return EXIT_CHECK
    return EXIT_OK


def cmd_verify(args) -> int:
    mode = ContinuityMode(args.mode)
    # every row's input is checked before the first report is printed
    rows = [(lemma_id, InstanceGenSpec(seed=split_seed(args.seed, row_index),
                                       size_lo=args.size_lo, size_hi=args.size_hi,
                                       family=args.family, function_class=function_class,
                                       count=args.count))
            for row_index, (lemma_id, function_class) in enumerate(VERIFY_PLAN)
            if args.lemma in ("all", lemma_id)]
    if args.size_hi > L4_SIZE_CAP and any(lemma_id == "L4" for lemma_id, _ in rows):
        raise ValueError(f"L4 enumerates subsets, so --size-hi must be at most {L4_SIZE_CAP}")
    all_passed = True
    for lemma_id, spec in rows:
        report = check_lemma(lemma_id, spec, mode)
        print(render_lemma_report(report))
        all_passed = all_passed and report.passed
    print(f"verify: {'PASS' if all_passed else 'FAIL'}")
    return EXIT_OK if all_passed else EXIT_CHECK


def cmd_mine(args) -> int:
    mode = ContinuityMode(args.mode)
    spec = InstanceGenSpec(seed=args.seed, size_lo=2, size_hi=6,
                           family="mixed", function_class="monotone")
    report = mine_counterexample(args.question, spec, args.budget,
                                 args.max_size, mode)
    print(render_finding_report(report))
    return EXIT_OK


def cmd_demo(args) -> int:
    if args.demo == "paulson":
        if args.state and len(args.state) != 3:
            raise DocumentError("paulson takes zero or three integers")
        x, y, z = args.state or (0, 0, 0)
        result = paulson_trio(x, y, z, args.entry, args.budget)
        print(f"({result[0]},{result[1]},{result[2]})")
        return EXIT_OK
    if args.classes is None:
        table, source = fixture_tables()["basic"], "basic"
    else:
        table, source = parse_class_table_doc(load_document(args.classes)), args.classes
    state = solve_subtyping(table, args.depth, args.direction)
    print(f"classes: {source}")
    print(f"depth: {args.depth}")
    print(f"direction: {args.direction}")
    print(f"types: {len(state.types)}")
    print(f"intervals: {len(state.intervals)}")
    # the matrix with rows and columns in name order lists its pairs sorted
    names = [str(t) for t in state.types]
    order = sorted(range(len(names)), key=names.__getitem__)
    rows, cols = state.sub[order][:, order].nonzero()
    print(f"subtypes: {len(rows)}")
    for i, (a, b) in enumerate(zip(rows.tolist(), cols.tolist())):
        print(f"subtype[{i}]: ({names[order[a]]},{names[order[b]]})")
    print(f"containments: {state.cont.sum()}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared after:
    building it costs about as much as a small demo request, and parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="mucofix",
        description="construct, solve, and verify mutual induction and "
                    "coinduction on finite lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate lattice, pair, or class table documents")
    p.add_argument("paths", nargs="+", metavar="PATH")
    p.add_argument("--mode", default="binary",
                   help="continuity mode: binary or with-empty")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="solve a pair document for its fixed points")
    p.add_argument("path", metavar="PATH")
    p.add_argument("--direction", choices=("least", "greatest"), default="least")
    p.add_argument("--strategy", choices=("direct", "product", "tarski", "all"),
                   default="all")
    p.add_argument("--trace", action="store_true",
                   help="print the iterate trace (product strategy)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the lemma suite over generated instances")
    p.add_argument("--lemma", choices=("all",) + LEMMA_IDS, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--size-lo", type=int, default=2)
    p.add_argument("--size-hi", type=int, default=8)
    p.add_argument("--family", default="mixed", choices=FAMILIES)
    p.add_argument("--mode", default="binary")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mine", help="search for counterexamples to the open questions")
    p.add_argument("question", choices=tuple(QUESTIONS))
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--max-size", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", default="binary")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("demo", help="run a packaged demonstration")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    d = demo_sub.add_parser("paulson", help="mutually recursive integer trio")
    d.add_argument("state", nargs="*", type=int, metavar="N")
    d.add_argument("--entry", choices=("F", "G", "H"), default="F")
    d.add_argument("--budget", type=int, default=1_000_000)
    d.set_defaults(func=cmd_demo)
    d = demo_sub.add_parser("subtype", help="interval-bounded generic subtyping")
    d.add_argument("--classes", metavar="PATH", default=None,
                   help="class table document (default: a small built-in table)")
    d.add_argument("--depth", type=int, default=1)
    d.add_argument("--direction", choices=("least", "greatest"), default="least")
    d.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:    # argparse exits itself on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"input error: {exc}")
        return EXIT_INPUT
    except (NotAPosetError, NotALatticeError, NotMonotoneError,
            StepBudgetExceeded, CapacityError) as exc:
        print(str(exc))
        return EXIT_CHECK
    except ValueError as exc:
        print(f"input error: {exc}")
        return EXIT_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
