"""Past-present temporal logic programs over finite traces.

A library and CLI for a rule language whose heads speak about the
present and whose bodies may use arbitrary past temporal formulas.
It compiles programs into classical finite-trace formulas (temporal
completion, loop formulas, and the unitary-cycle regime that subsumes
completion), enumerates stable models and classical models with one
state-by-state search, and machine-checks that the translations agree
with the stable-model semantics.
"""

from .errors import (
    BudgetExceeded, LengthMismatch, MixedSection, ParseError, PptError,
    RestrictionError, SccTooLarge, UnknownAtom,
)
from .syntax import (
    Always, And, Atom, AtomRef, ExtFormula, FALSUM, Falsum, FinalConst,
    FINAL_CONST, Iff, Implies, INITIAL_CONST, InitialConst, Not, Occurrence,
    Or, PastFormula, Previous, Program, Rule, RuleKind, Since, Trigger, VERUM,
    Verum, WeakNextAlways, atoms_of, classify_occurrences, format_formula,
    format_program, format_rule, head_disjunction, is_past_formula,
)
from .parser import parse_formula, parse_program
from .tht import (
    DEFAULT_BUDGET, HTTrace, Trace, enumerate_ts_models, ht_sat, is_ht_model,
    models_to_json, rule_sat, three_valued,
)
from .ltlf import enumerate_ltlf_models, ltlf_sat
from .depgraph import (
    DepGraph, dependency_graph, enumerate_loops, is_tight, section_graphs,
)
from .transform import (
    completion, completion_atom, external_support, loop_formulas,
    program_as_ltlf, simplify, sourced_completion, sourced_loop_formulas,
    sourced_program_as_ltlf, support_transform,
)
from .verify import (
    GenConfig, MODES, PreconditionSkipped, Report, TraceMask,
    check_lemma_pastocc, check_lemma_support, mask_trace, random_httrace,
    random_past_formula, random_program, run_lemma_suite,
    run_correspondence_suite, run_semantics_suite, verify_correspondence,
)

__version__ = "0.1.0"
