"""Semantics tests, cross-checked against a quantifier-form oracle.

The package evaluates since/trigger through their one-step recurrences;
the oracle below follows the quantified satisfaction clauses directly,
so the two implementations are independent routes to the same relation.
"""

import pickle
import random

import pytest

import ppt
from ppt import (
    And, AtomRef, BudgetExceeded, FALSUM, HTTrace, Not, Or, Previous,
    Program, Rule, RuleKind, Since, Trace, Trigger, enumerate_ts_models,
    format_formula, ht_sat, is_ht_model, ltlf_sat, parse_formula,
    parse_program, rule_sat, simplify, support_transform, three_valued,
)
from ppt.syntax import (
    Always, CORE_TRUE, Falsum, INITIAL_CONST, INITIAL_EXPANSION, Implies,
    VERUM, chain_elements,
)
from ppt.verify import (
    GenConfig, random_httrace, random_past_formula, random_program,
)

from conftest import TARGET
from oracles import rules_hold


def ht_sat_oracle(m: HTTrace, k: int, f) -> bool:
    """Direct recursion over the satisfaction clauses, no memoisation."""
    tp = type(f)
    if tp is Falsum:
        return False
    if tp is AtomRef:
        return f.name in m.h[k]
    if tp is Not:
        total = HTTrace.total(m.t)
        return not ht_sat_oracle(total, k, f.arg)
    if tp is And:
        return ht_sat_oracle(m, k, f.lhs) and ht_sat_oracle(m, k, f.rhs)
    if tp is Or:
        return ht_sat_oracle(m, k, f.lhs) or ht_sat_oracle(m, k, f.rhs)
    if tp is Previous:
        return k > 0 and ht_sat_oracle(m, k - 1, f.arg)
    if tp is Since:
        return any(
            ht_sat_oracle(m, j, f.rhs)
            and all(ht_sat_oracle(m, i, f.lhs) for i in range(j + 1, k + 1))
            for j in range(k + 1))
    if tp is Trigger:
        return all(
            ht_sat_oracle(m, j, f.rhs)
            or any(ht_sat_oracle(m, i, f.lhs) for i in range(j + 1, k + 1))
            for j in range(k + 1))
    raise TypeError(f)


class TestHtSat:
    def test_rule3_body_on_target(self):
        m = HTTrace.total(TARGET)
        body = parse_formula("shoot, (not unload since load)")
        assert ht_sat(m, 1, body) is True

    def test_previous_false_at_zero(self):
        m = HTTrace.total(Trace.of(["a"], ["a"]))
        assert ht_sat(m, 0, parse_formula("prev true")) is False

    def test_falsum(self):
        m = HTTrace.total(Trace.of([]))
        assert ht_sat(m, 0, FALSUM) is False

    def test_negation_evaluates_on_there(self):
        m = HTTrace(Trace.of([]), Trace.of(["a"]))
        assert ht_sat(m, 0, AtomRef("a")) is False
        # a holds on the total trace, so its negation fails here too.
        assert ht_sat(m, 0, Not(AtomRef("a"))) is False

    def test_index_errors(self):
        m = HTTrace.total(Trace.of(["a"]))
        with pytest.raises(IndexError):
            ht_sat(m, 1, AtomRef("a"))
        with pytest.raises(IndexError):
            ht_sat(m, -1, AtomRef("a"))

    # Nodes outside the core language, and places a walk that stopped
    # early could miss them: under a negation (read on the total side),
    # a previous (at point 0 too), a trigger's rhs, a false conjunct.
    @pytest.mark.parametrize("bad", [
        Implies(AtomRef("a"), FALSUM), VERUM, INITIAL_CONST,
        Always(AtomRef("a"))])
    @pytest.mark.parametrize("wrap", [
        lambda f: f, Not, Previous, lambda f: Trigger(AtomRef("a"), f),
        lambda f: Not(Previous(Trigger(FALSUM, f))),
        lambda f: And(FALSUM, f)])
    @pytest.mark.parametrize("m", [
        HTTrace.total(Trace.of(["a"])),
        HTTrace(Trace.of([], ["a"]), Trace.of(["a"], ["a"]))])
    def test_refuses_extended_nodes(self, bad, wrap, m):
        with pytest.raises(ValueError,
                           match="^ht_sat only accepts core past formulas$"):
            ht_sat(m, 0, wrap(bad))

    def test_oracle_agreement(self):
        rng = random.Random(42)
        for _ in range(400):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b", "c"), lam)
            f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 5))
            k = rng.randrange(lam)
            assert ht_sat(m, k, f) == ht_sat_oracle(m, k, f)

    def test_persistence(self):
        rng = random.Random(43)
        for _ in range(300):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b"), lam)
            f = random_past_formula(rng, ("a", "b"), rng.randint(0, 4))
            k = rng.randrange(lam)
            if ht_sat(m, k, f):
                assert ht_sat(HTTrace.total(m.t), k, f)


class TestRuleSat:
    def test_final_rule_on_target(self, p1):
        assert rule_sat(HTTrace.total(TARGET), p1.rules[4]) is True

    def test_final_rule_fails_without_dead(self, p1):
        m = HTTrace.total(Trace.of(["load"], ["load"]))
        assert rule_sat(m, p1.rules[4]) is False

    def test_dynamic_vacuous_at_length_one(self, p1):
        m = HTTrace.total(Trace.of([]))
        for rule in p1.dynamic:
            assert rule_sat(m, rule) is True

    def test_constraint_head_is_false(self):
        rule = parse_program(":- a.").rules[0]
        assert rule_sat(HTTrace.total(Trace.of(["a"])), rule) is False
        assert rule_sat(HTTrace.total(Trace.of([])), rule) is True


class TestIsModel:
    def test_target_is_model(self, p1):
        assert is_ht_model(HTTrace.total(TARGET), p1) is True

    def test_smaller_here_is_not_model(self, p1):
        m = HTTrace(Trace.of(["load"], ["shoot"]), TARGET)
        assert is_ht_model(m, p1) is False

    def test_empty_program(self):
        m = HTTrace.total(Trace.of(["a"], []))
        assert is_ht_model(m, Program(())) is True

    def test_each_trace_is_read_once(self, p1, monkeypatch):
        # Into bitmasks, for all formulas of the program together.
        read = []
        trace_bits = ppt.tht._trace_bits
        monkeypatch.setattr(ppt.tht, "_trace_bits",
                            lambda t: read.append(t) or trace_bits(t))
        assert is_ht_model(HTTrace.total(TARGET), p1) is True
        assert len(read) == 1
        read.clear()
        m = HTTrace(Trace.of(["load"], ["dead", "shoot"]),
                    Trace.of(["load"], ["dead", "load", "shoot"]))
        assert is_ht_model(m, p1) is True
        assert len(read) == 2

    def test_agrees_with_direct_rule_check(self):
        # The package reads each rule through its classical formula; the
        # oracle reads heads and bodies.
        rng = random.Random(53)
        disagreements = []
        for seed in range(1500):
            p = random_program(GenConfig(seed=seed, max_atoms=4, max_rules=8,
                                         max_body_depth=4))
            m = random_httrace(rng, ("a", "b", "c", "d"), rng.randint(1, 4))
            if rng.random() < 0.25:
                m = HTTrace.total(m.t)
            if is_ht_model(m, p) != rules_hold(m, p) or any(
                    rule_sat(m, r) != rules_hold(m, Program((r,)))
                    for r in p.rules):
                disagreements.append(seed)
        assert disagreements == []


class TestEvaluatorReuse:
    def test_one_evaluator_serves_formulas_freed_after_use(self):
        # Rebinding f frees the previous formula, so later formulas reuse
        # its nodes' ids; each must still get the bits of a fresh evaluator.
        rng = random.Random(5)
        atoms = ("a", "b", "c")
        m = random_httrace(rng, atoms, 4)
        assert m.h != m.t
        ev = ppt.tht.evaluator(m)
        stale = []
        for i in range(5000):
            f = random_past_formula(rng, atoms, rng.randint(0, 5))
            fresh = ppt.tht.evaluator(m)
            if any(ev.eval(f, total) != fresh.eval(f, total)
                   for total in (False, True)):
                stale.append(i)
        assert stale == []


class TestEnumerate:
    def test_p1_unique_model(self, p1):
        assert enumerate_ts_models(p1, 2) == (TARGET,)

    def test_p2_no_models(self, p2):
        assert enumerate_ts_models(p2, 2) == ()

    def test_single_fact(self):
        p = parse_program("a.")
        assert enumerate_ts_models(p, 1) == (Trace.of(["a"]),)

    def test_budget(self, p1):
        with pytest.raises(BudgetExceeded):
            enumerate_ts_models(p1, 2, budget=100)

    def test_alphabet_must_cover(self, p1):
        with pytest.raises(ValueError):
            Program(p1.rules, {"load"})

    def test_budget_is_keyword_only(self, p1):
        # The search's alphabet is the program's; only `budget` follows.
        with pytest.raises(TypeError):
            enumerate_ts_models(p1, 2, p1.alphabet)

    def test_stability_implies_modelhood(self, p1):
        for trace in enumerate_ts_models(p1, 3):
            assert is_ht_model(HTTrace.total(trace), p1)

    def test_minimality_rejects_supersets(self):
        # A choice program keeps only supported atoms.
        p = parse_program("a; b.")
        models = enumerate_ts_models(p, 1)
        assert models == (Trace.of(["a"]), Trace.of(["b"]))


def deep_chain(tp, past):
    """`a`, then 5,000 elements `prev past`, joined by `tp`: beyond
    Python's default recursion limit when read by recursion."""
    body = AtomRef("a")
    for _ in range(5000):
        body = tp(body, Previous(AtomRef(past)))
    return body


class TestDeepChain:
    """A rule body of 5,000 conjuncts or disjuncts: the single-trace
    checks, the support transformation, the printer and `simplify` read
    a chain in a loop, through `chain_elements`.  `a` decides either
    chain at point 1 of the traces below: every `prev a` of the
    conjunction holds there, and no `prev c` of the disjunction."""

    CHAINS = [(And, "a"), (Or, "c")]

    def test_single_trace_checks(self):
        for tp, past in self.CHAINS:
            body = deep_chain(tp, past)
            rule = Rule(RuleKind.DYNAMIC, ("b",), body)
            p = Program((Rule(RuleKind.INITIAL, ("a",), CORE_TRUE), rule))
            t = Trace.of(["a"], ["a", "b"])
            m = HTTrace.total(t)
            assert ht_sat(m, 1, body) is True
            assert three_valued(m, 1, body) == 2
            assert ltlf_sat(t, 1, body) is True
            assert rule_sat(m, rule) is True
            assert is_ht_model(m, p) is True
            here = HTTrace(Trace.of(["a"], ["b"]), t)
            assert ht_sat(here, 1, body) is False
            assert three_valued(here, 1, body) == 1
            assert rule_sat(here, rule) is True

    def test_compiler_layers(self):
        for tp, past in self.CHAINS:
            body = deep_chain(tp, past)
            rest = chain_elements(body, tp)[1:]
            joiner = " and " if tp is And else " or "
            assert format_formula(body) == joiner.join(
                ["a"] + [f"prev {past}"] * 5000)
            assert simplify(body) is body
            struck = support_transform(body, ["a"])
            assert chain_elements(struck, tp) == [FALSUM] + rest
            if tp is And:
                assert simplify(struck) == FALSUM
            else:
                assert chain_elements(simplify(struck), Or) == rest

    def test_values_compare_hash_and_print(self):
        for tp, past in self.CHAINS:
            body, twin = deep_chain(tp, past), deep_chain(tp, past)
            assert body == twin and hash(body) == hash(twin)
            assert body != tp(body.lhs, Previous(AtomRef("z")))
            element = f"Previous(arg=AtomRef(name='{past}'))"
            assert repr(body) == (
                f"{tp.__name__}(lhs=" * 5000 + "AtomRef(name='a')"
                + f", rhs={element})" * 5000)


class TestThreeValued:
    def test_atom_between(self):
        m = HTTrace(Trace.of([]), Trace.of(["a"]))
        assert three_valued(m, 0, AtomRef("a")) == 1

    def test_negation_of_between(self):
        m = HTTrace(Trace.of([]), Trace.of(["a"]))
        assert three_valued(m, 0, Not(AtomRef("a"))) == 0

    def test_refuses_extended_nodes(self):
        # At i = j the min/max clauses of since never read its lhs.
        m = HTTrace.total(Trace.of(["c"]))
        with pytest.raises(ValueError, match="three_valued only accepts"):
            three_valued(m, 0, Since(Implies(AtomRef("a"), AtomRef("b")),
                                     AtomRef("c")))

    def test_total_traces_never_give_one(self):
        rng = random.Random(44)
        for _ in range(200):
            lam = rng.randint(1, 3)
            m = random_httrace(rng, ("a", "b"), lam)
            total = HTTrace.total(m.t)
            f = random_past_formula(rng, ("a", "b"), rng.randint(0, 4))
            assert three_valued(total, rng.randrange(lam), f) in (0, 2)

    def test_correspondence(self):
        rng = random.Random(45)
        for _ in range(400):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b", "c"), lam)
            f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 5))
            k = rng.randrange(lam)
            value = three_valued(m, k, f)
            assert (value == 2) == ht_sat(m, k, f)
            assert (value != 0) == ht_sat(HTTrace.total(m.t), k, f)


class TestUnfolding:
    def test_identities(self):
        rng = random.Random(46)
        for _ in range(300):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b"), lam)
            k = rng.randrange(lam)
            lhs = random_past_formula(rng, ("a", "b"), rng.randint(0, 2))
            rhs = random_past_formula(rng, ("a", "b"), rng.randint(0, 2))
            since = Since(lhs, rhs)
            assert ht_sat(m, k, since) == ht_sat(
                m, k, Or(rhs, And(lhs, Previous(since))))
            trigger = Trigger(lhs, rhs)
            weak_prev = Or(Previous(trigger), INITIAL_EXPANSION)
            assert ht_sat(m, k, trigger) == ht_sat(
                m, k, And(rhs, Or(lhs, weak_prev)))


class TestTraces:
    def test_length_one_minimum(self):
        with pytest.raises(ValueError):
            Trace(())

    def test_is_a_tuple_of_frozensets(self):
        t = Trace.of(["a"], [], ["b", "c"])
        assert isinstance(t, tuple) and Trace.__slots__ == ()
        assert t == (frozenset({"a"}), frozenset(), frozenset({"b", "c"}))
        assert repr(t) == repr(tuple(t))
        assert not hasattr(t, "__dict__")

    def test_search_traces_equal_and_hash_like_built_ones(self):
        p = parse_program("a; b.\n#dynamic.\nc :- prev a.\n")
        built = (Trace.of(["a"], ["c"]), Trace.of(["b"], []))
        found = enumerate_ts_models(p, 2)
        assert found == built
        assert [hash(t) for t in found] == [hash(t) for t in built]
        assert set(found) == set(built)

    def test_states_are_coerced(self):
        want = Trace.of(["a"], ["a", "b"])
        assert Trace([["a"], ["b", "a"]]) == want
        assert Trace(state for state in (("a",), ["a", "b"])) == want
        assert all(type(state) is frozenset for state in Trace([["a"]]))
        assert Trace(want) is want

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        t = Trace.of(["a"], [], ["b", "c"])
        back = pickle.loads(pickle.dumps(t, protocol))
        assert type(back) is Trace and back == t

    def test_pickle_naming_tht_trace_still_loads(self):
        # Written at protocol 0 while `Trace` was defined in `ppt.tht`.
        old = (b"ccopy_reg\n_reconstructor\np0\n(cppt.tht\nTrace\np1\n"
               b"c__builtin__\ntuple\np2\n(c__builtin__\nfrozenset\np3\n"
               b"((lp4\nVa\np5\naVb\np6\natp7\nRp8\ng3\n((lp9\ntp10\n"
               b"Rp11\ntp12\ntp13\nRp14\n.")
        back = pickle.loads(old)
        assert type(back) is Trace and back == Trace.of(["a", "b"], [])
        assert ppt.tht.Trace is Trace is ppt.progression.Trace

    def test_canonical_order_needs_to_lists(self):
        # Tuple order compares states by inclusion: {b} and {a, c} are
        # incomparable, so `sorted` alone leaves them as given.
        ts = [Trace.of(["b"]), Trace.of(["a", "c"])]
        assert sorted(ts) == ts
        assert sorted(ts, key=Trace.to_lists) == ts[::-1]

    def test_ht_requires_subset(self):
        with pytest.raises(ValueError):
            HTTrace(Trace.of(["a"]), Trace.of([]))

    def test_ht_requires_equal_length(self):
        with pytest.raises(ValueError, match="here has length 1, there has length 2"):
            HTTrace(Trace.of([]), Trace.of([], []))
