"""Mutual induction and coinduction on finite complete lattices.

A mutual generator pair is two monotone table functions running in
opposite directions between two lattices. This package constructs the
lattices, classifies simultaneous pre-fixed, post-fixed, and fixed
pairs, solves for the least and greatest simultaneous fixed points by
independent strategies, applies both proof principles, and checks every
supporting lemma against seeded brute-force enumeration.
"""
from .lattice import (CapacityError, FiniteLattice, FinitePoset, LatticeError,
                      NotALatticeError, NotAPosetError, cover_edges, dual,
                      powerset_lattice, product, validate_lattice)
from .fixtures import chain, corpus, diamond, m3, n5
from .genfun import (BINARY, WITH_EMPTY, ContinuityMode, LatticeFn, MutualPair,
                     compose_fg, compose_gf, dual_pair, is_continuous_pair, is_monotone,
                     join_continuity_witness, meet_continuity_witness,
                     monotone_witness, pair_continuity_witness)
from .simpoints import (ComponentSets, PairPoint, component_sets,
                        enumerate_sim_fixed, is_sim_fixed, is_sim_postfixed,
                        is_sim_prefixed, point_masks, postfp_fiber, prefp_fiber)
from .solvers import (ImplicitMutualPair, KleeneRun, NotMonotoneError, SolveResult, Verdict,
                      check_mutual_coinduction, check_mutual_induction,
                      ensure_monotone, gsfp_direct, gsfp_product,
                      gsfp_tarski_oracle, kleene_implicit, lsfp_direct,
                      lsfp_product, lsfp_tarski_oracle, standard_embed)
from .textio import (DocumentError, emit_lattice_doc, emit_pair_doc, load_document,
                     pair_from_json, pair_to_json, parse_lattice_doc, parse_pair_doc)
from .verifier import (Finding, FindingReport, InstanceGenSpec, LemmaReport,
                       check_lemma, gen_continuous_pair, gen_lattice,
                       gen_monotone_pair, mine_counterexample, split_seed)
from .demos import (ClassDef, ClassTable, GroundType, IntervalType,
                    RelationPairState, StepBudgetExceeded, build_universe,
                    fixture_tables, parse_class_table_doc, paulson_trio, solve_subtyping,
                    subtype_generators)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
