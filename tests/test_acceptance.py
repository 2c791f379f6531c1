"""Acceptance suite: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; the whole suite stays comfortably inside a two-minute budget.
"""

import time

from ppt import (
    And, AtomRef, FALSUM, Not, RuleKind, Trace, completion, dependency_graph,
    enumerate_loops, enumerate_ltlf_models, enumerate_ts_models,
    external_support, loop_formulas, program_as_ltlf, run_lemma_suite,
    run_correspondence_suite, run_semantics_suite, simplify,
)

from conftest import TARGET

LOOP = frozenset({"shoot", "dead"})


def verdict(number, ok, text):
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_p1_unique_stable_model(p1):
    start = time.perf_counter()
    models = enumerate_ts_models(p1, 2)
    elapsed = time.perf_counter() - start
    verdict(1, models == (TARGET,) and elapsed < 1.0,
            f"stable models of the gun program at length 2 "
            f"({elapsed * 1000:.0f} ms)")


def test_criterion_02_completion_p1_unique_model(p1):
    start = time.perf_counter()
    models = enumerate_ltlf_models(completion(p1), 2, p1.alphabet)
    elapsed = time.perf_counter() - start
    verdict(2, models == (TARGET,) and elapsed < 1.0,
            f"completion of the gun program has the same unique model "
            f"({elapsed * 1000:.0f} ms)")


def test_criterion_03_completion_alone_is_unsound_for_cycles(p2):
    stable = enumerate_ts_models(p2, 2)
    comp = enumerate_ltlf_models(completion(p2), 2, p2.alphabet)
    verdict(3, stable == () and TARGET in comp,
            "choice-free variant: no stable model, yet the completion "
            "still admits the trace")


def test_criterion_04_loop_inventories(p1):
    init_graph = dependency_graph(p1, RuleKind.INITIAL)
    dyn_graph = dependency_graph(p1, RuleKind.DYNAMIC)
    plain_init = set(enumerate_loops(init_graph))
    plain_dyn = set(enumerate_loops(dyn_graph))
    unitary_dyn = set(enumerate_loops(dyn_graph, unitary=True))
    ok = (plain_init == set()
          and plain_dyn == {LOOP}
          and unitary_dyn == {frozenset({"load"}), frozenset({"unload"}),
                              frozenset({"shoot"}), frozenset({"dead"}),
                              LOOP})
    verdict(4, ok, "loop inventories in both regimes")


def test_criterion_05_external_support_goldens(p1, p2):
    es2 = simplify(external_support(p2, RuleKind.DYNAMIC, LOOP))
    es1 = simplify(external_support(p1, RuleKind.DYNAMIC, LOOP))
    ok = (es2 == FALSUM
          and es1 == And(Not(AtomRef("load")), Not(AtomRef("unload"))))
    verdict(5, ok, "external support collapses to false / "
                   "to the choice-rule support")


def test_criterion_06_completion_plus_loops(p1, p2):
    with_loops_1 = enumerate_ltlf_models(
        completion(p1) + loop_formulas(p1), 2, p1.alphabet)
    with_loops_2 = enumerate_ltlf_models(
        completion(p2) + loop_formulas(p2), 2, p2.alphabet)
    verdict(6, with_loops_1 == (TARGET,) and with_loops_2 == (),
            "completion plus loop formulas matches the stable models")


def test_criterion_07_unitary_embedding(p1):
    models = enumerate_ltlf_models(
        program_as_ltlf(p1) + loop_formulas(p1, unitary=True),
        2, p1.alphabet)
    verdict(7, models == (TARGET,),
            "rules plus unitary-regime loop formulas match the stable models")


def test_criterion_08_randomized_correspondence_batch():
    out = run_correspondence_suite(cases=500, seed=20250809)
    ok = (out["cases"] == 500
          and out["completion_loops_failures"] == 0
          and out["unitary_loops_failures"] == 0
          and out["completion_tight_failures"] == 0
          and out["soundness_failures"] == 0)
    verdict(8, ok,
            f"500 random programs: completion+loops and unitary equalities, "
            f"tight-completion equality ({out['tight_cases']} tight cases), "
            f"soundness inclusion")


def test_criterion_09_lemma_fuzz():
    pastocc = run_lemma_suite("pastocc", cases=10_000, seed=20250809)
    support = run_lemma_suite("support", cases=10_000, seed=20250809)
    ok = (pastocc["failures"] == 0 and support["failures"] == 0
          and pastocc["skip_rate"] < 0.8 and support["skip_rate"] < 0.8)
    verdict(9, ok,
            f"masking lemmas on 10^4 instances each "
            f"(skip rates {pastocc['skip_rate']:.1%} / "
            f"{support['skip_rate']:.1%})")


def test_criterion_10_semantics_cross_checks():
    out = run_semantics_suite(cases=10_000, seed=20250809)
    ok = out["three_valued_failures"] == 0 and out["unfolding_failures"] == 0
    verdict(10, ok,
            "three-valued correspondence and unfolding identities "
            "on 10^4 pairs")
