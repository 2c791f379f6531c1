"""Input checks that no other in-process test reaches: each bad input
raises its documented exception type with its message."""

import functools
import random
import re
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

import ppt
from ppt import (
    Always, And, AtomRef, DepGraph, FALSUM, HTTrace, Implies, Not, Or,
    ParseError, Previous, Program, Rule, RuleKind, Trace, WeakNextAlways,
    dependency_graph, enumerate_ltlf_models, enumerate_ts_models,
    external_support, format_formula, ht_sat, ltlf_sat, parse_formula,
    parse_program, simplify, simplify_formulas, support_transform,
    three_valued, verify_correspondence,
)
from ppt.progression import compile, compile_program, search
from ppt.syntax import CORE_TRUE, VERUM, format_nesting
from ppt.tht import formula_sat
from ppt.verify import (
    MODES, GenConfig, TraceMask, random_httrace, random_past_formula,
    run_correspondence_suite, run_lemma_suite, run_semantics_suite,
)

_ONE_POINT = HTTrace.total(Trace.of(["a"]))
_LOOP = "a :- b. b :- a."
# A positive cycle of 22 atoms, past the loop cap.
_CYCLE = "".join(f"a{i} :- a{(i + 1) % 22}.\n" for i in range(22))

# Each suite, run for one case at a given seed.
_SUITES = (
    ("correspondence", lambda seed: run_correspondence_suite(1, seed)),
    ("lemma", lambda seed: run_lemma_suite("support", 1, seed)),
    ("semantics", lambda seed: run_semantics_suite(1, seed)),
)

# (id, call, exception type, the whole message as a regular expression)
CASES = [
    ("rule-body-not-core",
     lambda: Rule(RuleKind.DYNAMIC, ("a",), Always(AtomRef("b"))),
     ValueError, re.escape("rule body must be a core past formula")),
    # A leaf outside the core language below the top.
    ("rule-body-not-core-below-top",
     lambda: Rule(RuleKind.DYNAMIC, ("a",),
                  And(AtomRef("b"), Previous(VERUM))),
     ValueError, re.escape("rule body must be a core past formula")),
    ("formula-trailing-input", lambda: parse_formula("a b"), ParseError,
     re.escape("line 1, column 3: expected end of input, found 'b'")),
    ("vertex-not-a-string", lambda: DepGraph({"a", 1}, []),
     ValueError, re.escape("invalid atom name: 1")),
    ("vertex-not-an-atom", lambda: DepGraph({"A", "b"}, [("A", "b")]),
     ValueError, re.escape("invalid atom name: 'A'")),
    ("edge-leaves-vertex-set",
     lambda: DepGraph(frozenset({"a"}), frozenset({("a", "b")})),
     ValueError, re.escape("edge (a, b) leaves the vertex set")),
    ("three-valued-point-past-end",
     lambda: three_valued(_ONE_POINT, 1, AtomRef("a")),
     IndexError, re.escape("time point 1 outside [0, 1)")),
    ("three-valued-negative-point",
     lambda: three_valued(_ONE_POINT, -1, AtomRef("a")),
     IndexError, re.escape("time point -1 outside [0, 1)")),
    ("support-transform-not-core",
     lambda: support_transform(Always(AtomRef("a")), {"a"}), ValueError,
     re.escape("not a core past formula: Always(arg=AtomRef(name='a'))")),
    # A non-core node under `not` or `prev` was passed through, as the
    # transformation never walks there.
    ("support-transform-verum-under-not",
     lambda: support_transform(Not(VERUM), {"a"}), ValueError,
     re.escape("not a core past formula: Verum()")),
    ("support-transform-none-under-prev",
     lambda: support_transform(Previous(None), {"a"}), ValueError,
     re.escape("not a core past formula: None")),
    ("support-transform-string-under-not-not",
     lambda: support_transform(Not(Not("junk")), {"a"}), ValueError,
     re.escape("not a core past formula: 'junk'")),
    # A bool or a float size was accepted, and a float failed later
    # inside `random_program` with a stray TypeError.
    ("gen-max-atoms-bool", lambda: GenConfig(max_atoms=True),
     ValueError, re.escape("max_atoms must be an int, not True")),
    ("gen-max-atoms-float", lambda: GenConfig(max_atoms=2.5),
     ValueError, re.escape("max_atoms must be an int, not 2.5")),
    ("gen-max-rules-bool", lambda: GenConfig(max_rules=True),
     ValueError, re.escape("max_rules must be an int, not True")),
    ("gen-max-rules-float", lambda: GenConfig(max_rules=2.5),
     ValueError, re.escape("max_rules must be an int, not 2.5")),
    ("gen-max-body-depth-bool", lambda: GenConfig(max_body_depth=True),
     ValueError, re.escape("max_body_depth must be an int, not True")),
    ("gen-max-body-depth-float", lambda: GenConfig(max_body_depth=2.5),
     ValueError, re.escape("max_body_depth must be an int, not 2.5")),
    ("gen-max-rules-high", lambda: GenConfig(max_rules=9),
     ValueError, re.escape("max_rules must be within [0, 8]")),
    ("gen-max-rules-negative", lambda: GenConfig(max_rules=-1),
     ValueError, re.escape("max_rules must be within [0, 8]")),
    ("gen-max-body-depth-high", lambda: GenConfig(max_body_depth=5),
     ValueError, re.escape("max_body_depth must be within [0, 4]")),
    ("gen-max-body-depth-negative", lambda: GenConfig(max_body_depth=-1),
     ValueError, re.escape("max_body_depth must be within [0, 4]")),
    ("mask-pivot-outside",
     lambda: TraceMask(frozenset(), 2, (frozenset(), frozenset())),
     ValueError, re.escape("pivot 2 outside the mask")),
    ("mask-pivot-negative", lambda: TraceMask(frozenset(), -1, (frozenset(),)),
     ValueError, re.escape("pivot -1 outside the mask")),
    ("unknown-lemma", lambda: run_lemma_suite("x"),
     ValueError, re.escape("unknown lemma 'x'")),
    ("ltlf-length-zero", lambda: enumerate_ltlf_models([], 0, []),
     ValueError, re.escape("trace length must be at least 1")),
    ("format-non-formula", lambda: format_formula(object()),
     ValueError, r"not a formula: <object object at 0x[0-9a-f]+>"),
    # What is no core formula counted as 0 levels of nesting.
    ("format-nesting-none", lambda: format_nesting(None),
     ValueError, re.escape("not a core past formula: None")),
    ("format-nesting-int", lambda: format_nesting(1),
     ValueError, re.escape("not a core past formula: 1")),
    ("format-nesting-extended-under-not", lambda: format_nesting(Not(VERUM)),
     ValueError, re.escape("not a core past formula: Verum()")),
    ("trace-state-not-an-atom", lambda: Trace.of(["A"]),
     ValueError, re.escape("invalid atom name: 'A'")),
    # A string where a collection of atoms is read: its letters are not
    # taken as one-letter atoms.
    ("trace-string-state", lambda: Trace(["ab", "c"]),
     ValueError, re.escape("a state is a collection of atoms, not a string")),
    ("trace-of-string-states", lambda: Trace.of("load", "dead"),
     ValueError, re.escape("a state is a collection of atoms, not a string")),
    ("program-string-alphabet", lambda: Program((), "ab"), ValueError,
     re.escape("an alphabet is a collection of atoms, not a string")),
    ("ltlf-string-alphabet", lambda: enumerate_ltlf_models([], 1, "load"),
     ValueError,
     re.escape("an alphabet is a collection of atoms, not a string")),
    ("vertex-set-string", lambda: DepGraph("ab", []), ValueError,
     re.escape("a vertex set is a collection of atoms, not a string")),
    ("random-httrace-string-pool",
     lambda: random_httrace(random.Random(1), "ab", 2), ValueError,
     re.escape("an atom pool is a collection of atoms, not a string")),
    ("random-formula-string-pool",
     lambda: random_past_formula(random.Random(1), "ab", 2), ValueError,
     re.escape("an atom pool is a collection of atoms, not a string")),
    ("httrace-string-sides", lambda: HTTrace(("a",), ("b",)),
     ValueError, re.escape("a state is a collection of atoms, not a string")),
    ("ltlf-sat-string-state", lambda: ltlf_sat(("ab",), 0, AtomRef("a")),
     ValueError, re.escape("a state is a collection of atoms, not a string")),
    ("rule-head-string",
     lambda: Rule(RuleKind.INITIAL, "load", CORE_TRUE), ValueError,
     re.escape("a rule head is a collection of atoms, not a string")),
    # A head refused before keeps its message.
    ("rule-head-string-bad-atom",
     lambda: Rule(RuleKind.INITIAL, "Load", CORE_TRUE),
     ValueError, re.escape("invalid atom name: 'L'")),
    # The first bad name in `repr` order, not in the given order.
    ("rule-head-bad-atoms",
     lambda: Rule(RuleKind.INITIAL, ("Cd", "Ab", "b"), CORE_TRUE),
     ValueError, re.escape("invalid atom name: 'Ab'")),
    ("support-transform-string-loop",
     lambda: support_transform(AtomRef("load"), "load"), ValueError,
     re.escape("a loop is a collection of atoms, not a string")),
    ("external-support-string-loop",
     lambda: external_support(parse_program("load."), RuleKind.INITIAL,
                              "load"), ValueError,
     re.escape("a loop is a collection of atoms, not a string")),
    ("mask-string-base", lambda: TraceMask("ab", 0, ("ab",)), ValueError,
     re.escape("a mask base is a collection of atoms, not a string")),
    ("mask-string-state", lambda: TraceMask(frozenset(), 0, ("ab",)),
     ValueError, re.escape("a state is a collection of atoms, not a string")),
    # A kind or section spelled as its string: the rule was built and
    # then dropped from `Program.initial`, or failed on `kind.value`.
    ("rule-string-kind",
     lambda: Rule("initial", ("a",), AtomRef("b")), ValueError,
     re.escape("a rule kind must be a RuleKind, not 'initial'")),
    ("rule-string-kind-dynamic",
     lambda: Rule("dynamic", ("a",), Previous(AtomRef("b"))), ValueError,
     re.escape("a rule kind must be a RuleKind, not 'dynamic'")),
    # The loop had no support, and the graph no edges.
    ("external-support-string-section",
     lambda: external_support(parse_program(_LOOP), "initial", {"a", "b"}),
     ValueError, re.escape("a section must be a RuleKind, not 'initial'")),
    ("dependency-graph-string-section",
     lambda: dependency_graph(parse_program(_LOOP), "initial"),
     ValueError, re.escape("a section must be a RuleKind, not 'initial'")),
    ("depgraph-string-section", lambda: DepGraph({"a"}, [], "dynamic"),
     ValueError, re.escape("a section must be a RuleKind, not 'dynamic'")),
    ("edge-unhashable-end", lambda: DepGraph({"a"}, [("a", ["b"])]),
     ValueError, re.escape("edge (a, ['b']) leaves the vertex set")),
    ("program-rule-not-a-rule", lambda: Program((5,)),
     ValueError, re.escape("a program rule must be a Rule, not 5")),
    # The search names every uncovered atom, sorted, not the first met.
    ("ltlf-alphabet-misses-atoms",
     lambda: enumerate_ltlf_models(
         [Or(AtomRef("c"), AtomRef("b")), AtomRef("a")], 1, ["a"]),
     ValueError, re.escape("alphabet does not cover atoms: b, c")),
    ("ltlf-wrapper-below-top",
     lambda: enumerate_ltlf_models(
         [And(AtomRef("a"), Always(AtomRef("a")))], 1, ["a"]),
     ValueError,
     re.escape("cannot evaluate Always below the top of a formula")),
    # Both faults: the wrapper is reported, whichever the walk meets first.
    ("ltlf-uncovered-atom-then-wrapper",
     lambda: enumerate_ltlf_models(
         [And(AtomRef("b"), Always(AtomRef("a")))], 1, ["a"]),
     ValueError,
     re.escape("cannot evaluate Always below the top of a formula")),
    ("ltlf-wrapper-then-uncovered-atom",
     lambda: enumerate_ltlf_models(
         [And(Always(AtomRef("a")), AtomRef("b"))], 1, ["a"]),
     ValueError,
     re.escape("cannot evaluate Always below the top of a formula")),
    # An object that is no formula node, at the top or below it, is
    # named as such; a wrapper below the top keeps its message in the
    # single-trace check as in the search.
    ("search-string-formula", lambda: search(compile(["a"], {"a"}), 1),
     ValueError, re.escape("not a formula: 'a'")),
    # The search reads a compiled value only.
    ("search-formula-list", lambda: search([], 1),
     ValueError, re.escape("search reads formulas compiled by "
                           "progression.compile, not a list")),
    # The stable side is compiled from a `Program` only, not its text.
    ("compile-program-text",
     lambda: compile_program("a :- b."),
     ValueError, re.escape("the program must be a Program, not 'a :- b.'")),
    ("ltlf-string-formula",
     lambda: enumerate_ltlf_models(["a"], 1, {"a"}),
     ValueError, re.escape("not a formula: 'a'")),
    ("ltlf-none-below-top",
     lambda: enumerate_ltlf_models([Always(Not(None))], 1, {"a"}),
     ValueError, re.escape("not a formula: None")),
    ("formula-sat-string-formula",
     lambda: formula_sat(_ONE_POINT, 0, "a"),
     ValueError, re.escape("not a formula: 'a'")),
    ("ltlf-sat-none-formula", lambda: ltlf_sat(Trace.of(["a"]), 0, None),
     ValueError, re.escape("not a formula: None")),
    ("ltlf-sat-string-below-top",
     lambda: ltlf_sat(Trace.of(["a"]), 0, Or(AtomRef("a"), "b")),
     ValueError, re.escape("not a formula: 'b'")),
    ("ltlf-sat-wrapper-below-top",
     lambda: ltlf_sat(Trace.of(["a"]), 0, Always(Always(AtomRef("a")))),
     ValueError,
     re.escape("cannot evaluate Always below the top of a formula")),
    ("formula-sat-wrapper-below-top",
     lambda: formula_sat(_ONE_POINT, 0, And(AtomRef("a"),
                                             WeakNextAlways(AtomRef("a")))),
     ValueError,
     re.escape("cannot evaluate WeakNextAlways below the top of a formula")),
    # `simplify` returned a non-formula unchanged, and one under a false
    # conjunct was dropped.
    ("simplify-none", lambda: simplify(None),
     ValueError, re.escape("not a formula: None")),
    ("simplify-formulas-int", lambda: simplify_formulas([1]),
     ValueError, re.escape("not a formula: 1")),
    ("simplify-string-beside-false",
     lambda: simplify(And("junk", FALSUM)),
     ValueError, re.escape("not a formula: 'junk'")),
    # The elements after a chain's absorbing constant are still read.
    ("simplify-string-after-false",
     lambda: simplify(And(FALSUM, "junk")),
     ValueError, re.escape("not a formula: 'junk'")),
    # A length or time point of the wrong type: a stray TypeError.
    ("ltlf-float-length", lambda: enumerate_ltlf_models([], 2.0, ["a"]),
     ValueError, re.escape("trace length must be an int, not 2.0")),
    ("ts-string-length",
     lambda: enumerate_ts_models(parse_program("a."), "3"),
     ValueError, re.escape("trace length must be an int, not '3'")),
    ("verify-float-length",
     lambda: verify_correspondence(Program(()), 1.5, "completion"),
     ValueError, re.escape("trace length must be an int, not 1.5")),
    ("ht-sat-float-point", lambda: ht_sat(_ONE_POINT, 0.0, AtomRef("a")),
     ValueError, re.escape("time point must be an int, not 0.0")),
    ("three-valued-float-point",
     lambda: three_valued(_ONE_POINT, 0.0, AtomRef("a")),
     ValueError, re.escape("time point must be an int, not 0.0")),
    ("ltlf-sat-string-point",
     lambda: ltlf_sat(Trace.of(["a"]), "0", AtomRef("a")),
     ValueError, re.escape("time point must be an int, not '0'")),
    # A bool is an int to `isinstance`: True was read as length 1 and
    # False as point 0.
    ("ts-bool-length",
     lambda: enumerate_ts_models(parse_program("a."), True),
     ValueError, re.escape("trace length must be an int, not True")),
    ("verify-bool-length",
     lambda: verify_correspondence(Program(()), True, "completion"),
     ValueError, re.escape("trace length must be an int, not True")),
    ("ht-sat-bool-point", lambda: ht_sat(_ONE_POINT, False, AtomRef("a")),
     ValueError, re.escape("time point must be an int, not False")),
    # The point is checked before the formula, as by `three_valued`.
    ("ht-sat-point-before-formula",
     lambda: ht_sat(_ONE_POINT, 5, Implies(AtomRef("a"), AtomRef("a"))),
     IndexError, re.escape("time point 5 outside [0, 1)")),
    # A budget that is not a nonnegative int: a BudgetExceeded naming
    # it, or a stray TypeError from the first charge.
    ("ts-negative-budget",
     lambda: enumerate_ts_models(parse_program("a."), 1, budget=-1),
     ValueError, re.escape("budget must be a nonnegative int, got -1")),
    ("ltlf-negative-budget",
     lambda: enumerate_ltlf_models([], 1, ["a"], -3),
     ValueError, re.escape("budget must be a nonnegative int, got -3")),
    ("ts-float-budget",
     lambda: enumerate_ts_models(parse_program("a."), 1, budget=2.5),
     ValueError, re.escape("budget must be a nonnegative int, got 2.5")),
    ("ltlf-string-budget",
     lambda: enumerate_ltlf_models([], 1, ["a"], "10"),
     ValueError, re.escape("budget must be a nonnegative int, got '10'")),
    # The length and budget are checked before the translation is
    # compiled: this was `SccTooLarge` on the cycle's component.
    ("verify-length-zero-before-cap",
     lambda: verify_correspondence(parse_program(_CYCLE), 0,
                                   "completion_loops"),
     ValueError, re.escape("trace length must be at least 1")),
    ("verify-negative-budget-before-cap",
     lambda: verify_correspondence(parse_program(_CYCLE), 1,
                                   "unitary_loops", -1),
     ValueError, re.escape("budget must be a nonnegative int, got -1")),
    # The same order on the classical side: compiling these lists would
    # refuse the string and the `None` below `not`.
    ("ltlf-length-zero-before-compile",
     lambda: enumerate_ltlf_models(["a"], 0, {"a"}),
     ValueError, re.escape("trace length must be at least 1")),
    ("ltlf-negative-budget-before-compile",
     lambda: enumerate_ltlf_models([Always(Not(None))], 1, {"a"}, -1),
     ValueError, re.escape("budget must be a nonnegative int, got -1")),
    ("verify-negative-budget",
     lambda: verify_correspondence(Program(()), 1, "completion", -1),
     ValueError, re.escape("budget must be a nonnegative int, got -1")),
    # A non-`Program` was refused by `compile_program` in `completion`
    # mode only: the loop modes built their loop formulas first and
    # failed there with an AttributeError.
    *((f"verify-string-program-{mode}",
       functools.partial(verify_correspondence, "x", 2, mode), ValueError,
       re.escape("the program must be a Program, not 'x'"))
      for mode in MODES),
    # A BudgetExceeded at the first charge: "the budget of False units".
    ("ts-bool-budget",
     lambda: enumerate_ts_models(parse_program("a."), 2, budget=False),
     ValueError, re.escape("budget must be a nonnegative int, got False")),
    # An IndexError from `rng.choice`.
    ("random-formula-empty-pool",
     lambda: random_past_formula(random.Random(1), [], 3), ValueError,
     re.escape("an atom pool must not be empty")),
    # A summary with a negative `cases` and a `skip_rate` of -0.0.
    ("correspondence-suite-negative-cases",
     lambda: run_correspondence_suite(-1), ValueError,
     re.escape("cases must be a nonnegative int, got -1")),
    ("lemma-suite-negative-cases", lambda: run_lemma_suite("support", -2),
     ValueError, re.escape("cases must be a nonnegative int, got -2")),
    ("semantics-suite-negative-cases", lambda: run_semantics_suite(-2),
     ValueError, re.escape("cases must be a nonnegative int, got -2")),
    # Run as one case and reported as `"cases": true`.
    ("correspondence-suite-bool-cases",
     lambda: run_correspondence_suite(True), ValueError,
     re.escape("cases must be a nonnegative int, got True")),
    # A seed of None drew a new program on each call, and a list failed
    # inside `random` with a TypeError.
    ("gen-seed-none", lambda: GenConfig(seed=None),
     ValueError, re.escape("seed must be an int, not None")),
    ("gen-seed-list", lambda: GenConfig(seed=[1]),
     ValueError, re.escape("seed must be an int, not [1]")),
    ("gen-seed-bool", lambda: GenConfig(seed=True),
     ValueError, re.escape("seed must be an int, not True")),
    # The suites ran, drawing from fresh entropy on None, and echoed the
    # seed in their summary.
    *((f"{name}-suite-{label}-seed", functools.partial(suite, seed),
       ValueError, re.escape(f"seed must be an int, not {seed!r}"))
      for name, suite in _SUITES
      for label, seed in (("none", None), ("bool", True), ("float", 1.5),
                          ("string", "x"))),
    # A float failed with a stray TypeError, and True was read as 1.
    ("mask-float-pivot",
     lambda: TraceMask(frozenset(), 1.0, (frozenset(), frozenset())),
     ValueError, re.escape("pivot must be an int, not 1.0")),
    ("mask-bool-pivot",
     lambda: TraceMask(frozenset(), True, (frozenset(), frozenset())),
     ValueError, re.escape("pivot must be an int, not True")),
    ("random-httrace-float-length",
     lambda: random_httrace(random.Random(1), ["a"], 2.0), ValueError,
     re.escape("trace length must be an int, not 2.0")),
    ("random-httrace-bool-length",
     lambda: random_httrace(random.Random(1), ["a"], True), ValueError,
     re.escape("trace length must be an int, not True")),
    ("random-formula-none-depth",
     lambda: random_past_formula(random.Random(1), ["a"], None), ValueError,
     re.escape("depth must be an int, not None")),
    ("random-formula-negative-depth",
     lambda: random_past_formula(random.Random(1), ["a", "b"], -3),
     ValueError, re.escape("depth must be at least 0")),
    ("random-formula-bool-depth",
     lambda: random_past_formula(random.Random(1), ["a"], True), ValueError,
     re.escape("depth must be an int, not True")),
]


@pytest.mark.parametrize("call, error, message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_bad_input_is_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert re.fullmatch(message, str(info.value))


def test_httrace_sides_are_traces():
    # Lists of sets were kept as given, and the HT-trace did not hash.
    m = HTTrace([{"a"}], [{"a", "b"}])
    assert type(m.h) is Trace and type(m.t) is Trace
    assert m == HTTrace(Trace.of(["a"]), Trace.of(["a", "b"]))
    assert hash(m) == hash(HTTrace(Trace.of(["a"]), Trace.of(["a", "b"])))


# Each call fails on one of three bad names in a set.
_SET_REFUSALS = [
    "from ppt import Program; Program((), {'Ab', 'Cd', 'Ef'})",
    "from ppt import DepGraph; DepGraph({'Ab', 'Cd', 'Ef'}, [])",
]


@pytest.mark.parametrize("code", _SET_REFUSALS, ids=["program", "depgraph"])
def test_refusal_names_the_same_atom_under_any_hash_seed(code):
    # The bad name reported was the first in the set's hash order.
    src = str(Path(ppt.__file__).resolve().parents[1])
    errs = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": src, "PYTHONHASHSEED": seed}).stderr
        for seed in ("1", "2")]
    assert errs[0] == errs[1]
    assert errs[0].splitlines()[-1] == "ValueError: invalid atom name: 'Ab'"


def test_refusal_shows_no_earlier_failure():
    # The names are checked in their given order first; the traceback of
    # the error raised in `repr` order must not show that first failure,
    # whose atom may follow the hash order.
    with pytest.raises(ValueError) as info:
        Rule(RuleKind.INITIAL, ("Cd", "Ab", "b"), CORE_TRUE)
    shown = "".join(traceback.format_exception(
        type(info.value), info.value, info.value.__traceback__))
    assert "'Ab'" in shown and "'Cd'" not in shown
