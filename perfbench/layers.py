"""Wrap the public functions of each mucofix module in tracer spans.

Nothing under src/ changes. A function is patched in every mucofix
module namespace that holds it, which covers both the defining module
(its own internal calls) and every module that bound the name through
``from .x import y``. Methods are patched on their class. restore() puts
every original back.
"""
from __future__ import annotations

import dataclasses
import functools
import sys

HOT = True

# (module, function, layer, hot); hot layers are called more than 10^5
# times per run and are counted per enclosing span instead of spanned
FUNCTIONS = (
    ("cli", "main", "cli.main", False),
    ("textio", "load_document", "textio.load_document", False),
    ("textio", "parse_pair_doc", "textio.parse_pair_doc", False),
    ("textio", "parse_lattice_doc", "textio.parse_lattice_doc", False),
    ("lattice", "validate_lattice", "lattice.validate_lattice", False),
    ("lattice", "product", "lattice.product", False),
    ("genfun", "monotone_witness", "genfun.monotone_witness", False),
    ("genfun", "meet_continuity_witness", "genfun.continuity_witness", False),
    ("genfun", "join_continuity_witness", "genfun.continuity_witness", False),
    ("simpoints", "component_sets", "simpoints.component_sets", False),
    ("simpoints", "prefp_fiber", "simpoints.fibers", False),
    ("simpoints", "postfp_fiber", "simpoints.fibers", False),
    ("simpoints", "is_sim_prefixed", "simpoints.point_tests", HOT),
    ("simpoints", "is_sim_postfixed", "simpoints.point_tests", HOT),
    ("simpoints", "is_sim_fixed", "simpoints.point_tests", HOT),
    ("solvers", "ensure_monotone", "solvers.ensure_monotone", False),
    ("solvers", "lsfp_direct", "solvers.direct", False),
    ("solvers", "gsfp_direct", "solvers.direct", False),
    ("solvers", "lsfp_product", "solvers.product", False),
    ("solvers", "gsfp_product", "solvers.product", False),
    ("solvers", "lsfp_tarski_oracle", "solvers.tarski_oracle", False),
    ("solvers", "gsfp_tarski_oracle", "solvers.tarski_oracle", False),
    ("solvers", "kleene_implicit", "solvers.kleene_implicit", False),
    ("verifier", "check_lemma", "verifier.check_lemma", False),
    ("verifier", "gen_lattice", "verifier.gen_lattice", False),
    ("verifier", "gen_monotone_pair", "verifier.gen_monotone_pair", False),
    ("verifier", "gen_continuous_pair", "verifier.gen_continuous_pair", False),
    ("verifier", "mine_counterexample", "verifier.mine_counterexample", False),
    ("demos", "parse_class_table_doc", "demos.parse_class_table_doc", False),
    ("demos", "build_universe", "demos.build_universe", False),
    ("demos", "subtype_generators", "demos.subtype_generators", False),
    ("demos", "solve_subtyping", "demos.solve_subtyping", False),
)

# (module, class, method, layer, hot)
METHODS = tuple(("lattice", "FiniteLattice", m, "lattice.bounds", HOT)
                for m in ("meet_set", "join_set", "sublattice_violation",
                          "is_complete_sublattice", "leq", "label")) + (
    ("genfun", "MutualPair", "__init__", "genfun.MutualPair", HOT),
)


def _check_lemma_name(args, kwargs):
    lemma_id = args[0] if args else kwargs["lemma_id"]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return f"verifier.check_lemma.{lemma_id}-{spec.function_class}"


def _after(layer: str, tracer, result):
    'Counts read off a result, and the wrapped generators of the subtype demo.'
    if layer in ("solvers.product", "solvers.kleene_implicit"):
        tracer.counts[layer + ".iterations"] += result.iterations
    elif layer == "verifier.mine_counterexample":
        tracer.counts[layer + ".tried"] += result.tried
        tracer.counts[layer + ".exhaustive_tried"] += result.tried - result.randomized
    elif layer == "demos.subtype_generators":
        return dataclasses.replace(
            result,
            f=_wrap(tracer, result.f, "demos.generator_f", False),
            g=_wrap(tracer, result.g, "demos.generator_g", False))
    return result


def _wrap(tracer, fn, layer: str, hot: bool):
    call = tracer.call
    if layer == "verifier.check_lemma":
        @functools.wraps(fn)
        def named(*args, **kwargs):
            return call(_check_lemma_name(args, kwargs), False, fn, args, kwargs)
        return named
    if layer in ("solvers.product", "solvers.kleene_implicit",
                 "verifier.mine_counterexample", "demos.subtype_generators"):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            return _after(layer, tracer, call(layer, hot, fn, args, kwargs))
        return observed

    @functools.wraps(fn)
    def plain(*args, **kwargs):
        return call(layer, hot, fn, args, kwargs)
    return plain


def _mucofix_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "mucofix" or name.startswith("mucofix."))]


class Patch:
    'Route every layer boundary of the loaded mucofix through one tracer.'

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved: list[tuple] = []

    def apply(self):
        modules = _mucofix_modules()
        by_name = {m.__name__: m for m in modules}
        for mod, attr, layer, hot in FUNCTIONS:
            original = getattr(by_name["mucofix." + mod], attr)
            wrapper = _wrap(self.tracer, original, layer, hot)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self.saved.append((m, name, original))
                        setattr(m, name, wrapper)
        for mod, cls_name, attr, layer, hot in METHODS:
            cls = getattr(by_name["mucofix." + mod], cls_name)
            original = cls.__dict__[attr]
            self.saved.append((cls, attr, original))
            setattr(cls, attr, _wrap(self.tracer, original, layer, hot))
        return self

    def restore(self):
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)
