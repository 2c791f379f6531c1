"""The state-by-state search, on both sides, against brute-force oracles."""

import random

import pytest

from ppt import (
    And, AtomRef, BudgetExceeded, Previous, Program, Rule, RuleKind, Trace,
    completion, enumerate_ltlf_models, enumerate_ts_models, loop_formulas,
    parse_program, program_as_ltlf,
)
from ppt.syntax import CORE_TRUE
from ppt.verify import GenConfig, random_program

from oracles import brute_force_ltlf_models, brute_force_ts_models

POOL = ("a", "b", "c", "d")


def _random_case(seed: int, max_candidate_bits: int):
    """A random program, an alphabet covering it and a length.

    Up to 4 atoms, 8 rules, body depth 4 and length 4; one alphabet in
    four is widened by atoms no rule mentions.  The length is capped so
    that the oracle tries at most 2^max_candidate_bits traces.
    """
    rng = random.Random(seed)
    cfg = GenConfig(seed=seed, max_atoms=rng.randint(1, 4),
                    max_rules=rng.randint(0, 8),
                    max_body_depth=rng.randint(0, 4))
    p = random_program(cfg)
    alphabet = set(p.alphabet)
    if rng.random() < 0.25:
        alphabet.update(POOL[:rng.randint(1, 4)])
    lam = rng.randint(1, 4)
    lam = max(1, min(lam, max_candidate_bits // max(1, len(alphabet))))
    return p, frozenset(alphabet), lam


def test_matches_oracle_on_random_programs():
    mismatches = []
    for seed in range(3000):
        p, alphabet, lam = _random_case(seed, max_candidate_bits=11)
        if enumerate_ts_models(Program(p.rules, alphabet), lam) != \
                brute_force_ts_models(p, lam, alphabet):
            mismatches.append(seed)
    assert mismatches == []


def test_classical_search_matches_oracle_on_random_programs():
    # Completion, completion plus loop formulas, and the rules plus
    # unitary loop formulas, on the programs of the test above.
    mismatches = []
    for seed in range(3000):
        p, alphabet, lam = _random_case(seed, max_candidate_bits=11)
        cf = completion(p)
        translations = [cf, cf + loop_formulas(p),
                        program_as_ltlf(p) + loop_formulas(p, unitary=True)]
        found = [enumerate_ltlf_models(fs, lam, alphabet)
                 for fs in translations]
        if found != brute_force_ltlf_models(translations, lam, alphabet):
            mismatches.append(seed)
    assert mismatches == []


@pytest.mark.parametrize("atoms, lam, cases",
                         [(3, 4, 24), (4, 3, 24), (4, 4, 4)])
def test_matches_oracle_at_the_largest_sizes(atoms, lam, cases):
    alphabet = frozenset(POOL[:atoms])
    for seed in range(cases):
        p = random_program(GenConfig(seed=seed, max_atoms=atoms, max_rules=8,
                                     max_body_depth=4))
        assert enumerate_ts_models(Program(p.rules, alphabet), lam) == \
            brute_force_ts_models(p, lam, alphabet)


def _both(text: str, lam: int, alphabet=None) -> set[Trace]:
    p = parse_program(text)
    models = enumerate_ts_models(Program(p.rules, alphabet), lam)
    assert models == brute_force_ts_models(p, lam, alphabet)
    return models


class TestEdgeCases:
    def test_prev_over_trigger_at_point_one(self):
        # The trigger carry starts true, so the trigger holds at point 0
        # exactly when c does, and prev reads that value at point 1.
        text = "#dynamic.\na :- prev (false trigger c).\n"
        assert _both("c.\n" + text, 2) == {Trace.of(["c"], ["a"])}
        assert _both(text, 2, {"a", "c"}) == {Trace.of([], [])}

    def test_prev_is_false_at_point_zero_under_since(self):
        # The since carry at point 1 holds the body of the since at
        # point 0, where prev is false even over a trigger.
        text = "#dynamic.\na :- eventually_before prev always_before c.\n"
        assert _both(text, 2, {"a", "c"}) == {Trace.of([], [])}

    def test_length_one(self):
        text = "a :- not b.\nb :- not a.\n#dynamic.\nc :- a.\n#final.\n:- b.\n"
        assert _both(text, 1) == {Trace.of(["a"])}

    def test_unmentioned_alphabet_atoms(self):
        models = _both("a.\n#dynamic.\nb :- prev a.\n", 3, {"a", "b", "z"})
        assert models == {Trace.of(["a"], ["b"], [])}

    def test_dynamic_section_of_constraints_only(self):
        text = "a | b.\n#dynamic.\n:- prev a.\n"
        assert _both(text, 2) == {Trace.of(["b"], [])}
        assert _both(text, 1) == {Trace.of(["a"]), Trace.of(["b"])}

    def test_budget_guard_is_unchanged(self):
        # Still 2^(n*lam) candidate traces, however few the search visits.
        p = parse_program("a | b.\n#dynamic.\nc :- prev a.\nd :- c.\n")
        for search in (enumerate_ts_models, brute_force_ts_models):
            with pytest.raises(BudgetExceeded):
                search(p, 3, budget=(1 << 12) - 1)
        assert enumerate_ts_models(p, 3, budget=1 << 12) == \
            brute_force_ts_models(p, 3, budget=1 << 12)

    def test_long_trace_over_empty_alphabet(self):
        assert enumerate_ts_models(Program(()), 5000) == {
            Trace(tuple(frozenset() for _ in range(5000)))}

    def test_deep_body_needs_no_recursion(self):
        body = CORE_TRUE
        for _ in range(5000):
            body = And(body, Previous(AtomRef("a")))
        p = Program((Rule(RuleKind.INITIAL, ("a",), CORE_TRUE, 0),
                     Rule(RuleKind.DYNAMIC, ("b",), body, 1)))
        assert enumerate_ts_models(p, 2) == {Trace.of(["a"], ["b"])}
