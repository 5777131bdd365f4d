"""leaklab: information-leak checking for shared-variable concurrent programs.

The pipeline combines exhaustive-interleaving observation analysis under an
abstract clock with proof-outline verification conditions for leak
postulates, a dynamic-labelling pre-pass that locates sensitive public
statements, and a lattice-based information-flow state machine.
"""

from .assertions import (AnnotatedProgram, annotate_program, eval_assertion,
                         is_leaky_assertion, parse_assertion, resolve_assertion,
                         unparse_assertion)
from .dl import dl_certify, suggest_snapshot_pairs, synthesize_leaky_assertions
from .explorer import (ExploreBounds, KnowledgeReport, Observation,
                       duration_stats, explore, knowledge_partition)
from .ifc import (MachineState, check_concurrent_ni, check_sequential_ni,
                  indistinguishable, input_sequence, transition, view)
from .lang import Program, free_vars, label_statements, parse_program, unparse
from .lattice import SecurityLattice, build_lattice, load_lattice, two_point
from .proofs import (VC, check_proof, discharge_vc, emit_smtlib,
                     gen_interference_vcs, gen_leaky_vcs, gen_sequential_vcs)
from .semantics import (Configuration, CostModel, enabled, eval_expr,
                        run_deterministic, step)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedProgram", "Configuration", "CostModel", "ExploreBounds",
    "KnowledgeReport", "MachineState", "Observation", "Program",
    "SecurityLattice", "VC", "annotate_program", "build_lattice",
    "check_concurrent_ni", "check_proof", "check_sequential_ni",
    "discharge_vc", "dl_certify", "duration_stats", "emit_smtlib", "enabled",
    "eval_assertion", "eval_expr", "explore", "free_vars",
    "gen_interference_vcs", "gen_leaky_vcs", "gen_sequential_vcs",
    "indistinguishable", "input_sequence", "is_leaky_assertion",
    "knowledge_partition", "label_statements", "load_lattice",
    "parse_assertion", "parse_program", "resolve_assertion",
    "run_deterministic", "step", "suggest_snapshot_pairs",
    "synthesize_leaky_assertions", "transition", "two_point", "unparse",
    "unparse_assertion", "view",
]
