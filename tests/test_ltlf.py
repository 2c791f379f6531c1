import random

import pytest

from ppt import (
    Always, AtomRef, FALSUM, HTTrace, Iff, Implies, Trace, WeakNextAlways,
    completion, enumerate_ltlf_models, ht_sat, ltlf_sat, parse_formula,
)
from ppt.syntax import And, FINAL_CONST, INITIAL_CONST, Not
from ppt.verify import random_httrace, random_past_formula

from conftest import TARGET


class TestLtlfSat:
    def test_initial_const(self):
        assert ltlf_sat(TARGET, 0, INITIAL_CONST) is True
        assert ltlf_sat(TARGET, 1, INITIAL_CONST) is False

    def test_final_const(self):
        assert ltlf_sat(TARGET, 1, FINAL_CONST) is True
        assert ltlf_sat(TARGET, 0, FINAL_CONST) is False

    def test_completion_biconditional_for_dead(self):
        body = parse_formula("shoot, (not unload since load)")
        f = Always(Iff(AtomRef("dead"), And(Not(INITIAL_CONST), body)))
        assert ltlf_sat(TARGET, 0, f) is True

    def test_weak_next_always_vacuous_on_singleton(self):
        assert ltlf_sat(Trace.of(["a"]), 0, WeakNextAlways(FALSUM)) is True

    def test_implication_classical(self):
        f = Implies(AtomRef("load"), AtomRef("shoot"))
        assert ltlf_sat(TARGET, 1, f) is True
        assert ltlf_sat(TARGET, 0, f) is False

    def test_always_from_k_on(self):
        t = Trace.of([], ["a"], ["a"])
        f = Always(AtomRef("a"))
        assert [ltlf_sat(t, k, f) for k in range(3)] == [False, True, True]

    def test_weak_next_always_after_k(self):
        t = Trace.of(["a"], [], ["a"], ["a"])
        f = WeakNextAlways(AtomRef("a"))
        assert [ltlf_sat(t, k, f) for k in range(4)] == [
            False, True, True, True]

    def test_wrappers_at_the_last_point(self):
        t = Trace.of(["a"], [])
        assert ltlf_sat(t, 1, Always(AtomRef("a"))) is False
        assert ltlf_sat(t, 1, Always(Not(AtomRef("a")))) is True
        assert ltlf_sat(t, 1, WeakNextAlways(FALSUM)) is True

    @pytest.mark.parametrize("wrapper", [Always, WeakNextAlways])
    def test_nested_wrapper_raises(self, wrapper):
        f = Implies(AtomRef("a"), wrapper(AtomRef("a")))
        with pytest.raises(ValueError):
            ltlf_sat(TARGET, 0, f)
        with pytest.raises(ValueError):
            ltlf_sat(TARGET, 0, Always(f))
        with pytest.raises(ValueError):
            enumerate_ltlf_models([f], 2, {"a"})

    def test_index_error(self):
        with pytest.raises(IndexError):
            ltlf_sat(TARGET, 2, FALSUM)


class TestAgreementWithHt:
    def test_total_traces_agree(self):
        rng = random.Random(47)
        for _ in range(300):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b", "c"), lam)
            f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 5))
            k = rng.randrange(lam)
            assert ltlf_sat(m.t, k, f) == ht_sat(HTTrace.total(m.t), k, f)


class TestEnumerate:
    def test_cf_p1(self, p1):
        assert enumerate_ltlf_models(completion(p1), 2, p1.alphabet) == (TARGET,)

    def test_cf_p2_has_spurious_model(self, p2):
        models = enumerate_ltlf_models(completion(p2), 2, p2.alphabet)
        assert TARGET in models

    def test_falsum_has_no_models(self):
        assert enumerate_ltlf_models([FALSUM], 2, {"a"}) == ()

    def test_empty_set_gives_all_traces(self):
        assert len(enumerate_ltlf_models([], 1, {"a", "b"})) == 4

    def test_conjunction_is_intersection(self, p1):
        rng = random.Random(48)
        fs = [random_past_formula(rng, ("a", "b"), rng.randint(0, 3))
              for _ in range(4)]
        both = enumerate_ltlf_models(fs, 2, {"a", "b"})
        left = enumerate_ltlf_models(fs[:2], 2, {"a", "b"})
        right = enumerate_ltlf_models(fs[2:], 2, {"a", "b"})
        assert both == tuple(t for t in left if t in right)

    def test_alphabet_must_cover_formulas(self):
        with pytest.raises(ValueError):
            enumerate_ltlf_models([AtomRef("z")], 1, {"a"})
