"""Past-present temporal logic programs over finite traces.

A library and CLI for a rule language whose heads speak about the
present and whose bodies may use arbitrary past temporal formulas.
It compiles programs into classical finite-trace formulas (temporal
completion, loop formulas, and the unitary-cycle regime that subsumes
completion), enumerates stable models and classical models with one
layered search, and machine-checks that the translations agree
with the stable-model semantics.
"""

from .syntax import (
    Always, And, Atom, AtomRef, ExtFormula, FALSUM, Falsum, FinalConst,
    FINAL_CONST, Iff, Implies, INITIAL_CONST, InitialConst, Not, Or,
    PastFormula, PptError, Previous, Program, Rule, RuleKind, Since, Trigger,
    VERUM, Verum, WeakNextAlways, atoms_of, format_formula, format_formulas,
    format_program, format_rule, head_disjunction, is_past_formula,
    positive_atoms,
)
from .parser import ParseError, RestrictionError, parse_formula, parse_program
from .progression import BudgetExceeded, DEFAULT_BUDGET, Trace
from .tht import (
    HTTrace, enumerate_ltlf_models, enumerate_ts_models, ht_sat, is_ht_model,
    ltlf_sat, rule_sat, three_valued,
)
from .transform import (
    DepGraph, SccTooLarge, completion, dependency_graph, enumerate_loops,
    external_support, is_tight, loop_formulas, program_as_ltlf,
    section_graphs, simplify, simplify_formulas, sourced_completion,
    sourced_loop_formulas, sourced_program_as_ltlf, support_transform,
)
from .verify import (
    GenConfig, MODES, PreconditionSkipped, Report, TraceMask,
    check_lemma_pastocc, check_lemma_support, mask_trace, random_httrace,
    random_past_formula, random_program, run_lemma_suite,
    run_correspondence_suite, run_semantics_suite, verify_correspondence,
)

__version__ = "0.1.0"
