import random

import pytest

from ppt import (
    AtomRef, GenConfig, HTTrace, LengthMismatch, Not, PreconditionSkipped,
    Previous, Program, Trace, TraceMask, check_lemma_pastocc,
    check_lemma_support, format_program, mask_trace, parse_program,
    random_program, run_correspondence_suite, run_lemma_suite,
    run_semantics_suite,
    verify_correspondence,
)

from conftest import TARGET


class TestTraceMask:
    def test_basic_difference(self):
        m = HTTrace.total(Trace.of(["a"], ["a", "b"]))
        mask = TraceMask(frozenset({"b"}), 1, (frozenset(), frozenset({"b"})))
        got = mask_trace(m, mask)
        assert got.h == Trace.of(["a"], ["a"])
        assert got.t == m.t

    def test_empty_mask_is_identity(self):
        m = HTTrace.total(Trace.of(["a"], []))
        mask = TraceMask(frozenset(), 0, (frozenset(), frozenset()))
        assert mask_trace(m, mask) == m

    def test_absent_atom_is_noop(self):
        m = HTTrace(Trace.of(["a"], ["a"]), Trace.of(["a"], ["a", "b"]))
        mask = TraceMask(frozenset({"a"}), 1,
                         (frozenset(), frozenset({"a", "b"})))
        got = mask_trace(m, mask)
        assert got.h == Trace.of(["a"], [])

    def test_result_is_valid_httrace(self):
        rng = random.Random(54)
        from ppt.verify import random_httrace
        for _ in range(100):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b"), lam)
            pivot = rng.randrange(lam)
            extra = [frozenset()] * pivot + [
                frozenset(a for a in ("a", "b") if rng.random() < 0.5)
                for _ in range(lam - pivot)]
            mask = TraceMask(frozenset(), pivot, tuple(extra))
            out = mask_trace(m, mask)
            assert all(h <= t for h, t in zip(out.h, out.t))

    def test_length_mismatch(self):
        m = HTTrace.total(Trace.of(["a"]))
        mask = TraceMask(frozenset(), 0, (frozenset(), frozenset()))
        with pytest.raises(LengthMismatch):
            mask_trace(m, mask)

    def test_nonempty_before_pivot_rejected(self):
        with pytest.raises(ValueError):
            TraceMask(frozenset(), 1, (frozenset({"a"}), frozenset()))

    def test_base_must_be_included(self):
        with pytest.raises(ValueError):
            TraceMask(frozenset({"a"}), 0, (frozenset(),))


class TestLemmaCheckers:
    def test_loop_atom_both_sides_false(self):
        m = HTTrace.total(Trace.of(["a"]))
        mask = TraceMask(frozenset({"a"}), 0, (frozenset({"a"}),))
        assert check_lemma_support(AtomRef("a"), m, mask) is True

    def test_negated_atom_unaffected(self):
        m = HTTrace.total(Trace.of(["a"]))
        mask = TraceMask(frozenset(), 0, (frozenset({"a"}),))
        assert check_lemma_pastocc(Not(AtomRef("a")), m, mask) is True

    def test_past_occurrence_unaffected(self):
        m = HTTrace.total(Trace.of(["a"], []))
        mask = TraceMask(frozenset(), 1, (frozenset(), frozenset({"a"})))
        assert check_lemma_pastocc(Previous(AtomRef("a")), m, mask) is True

    def test_precondition_skip(self):
        m = HTTrace.total(Trace.of(["a"]))
        mask = TraceMask(frozenset(), 0, (frozenset({"a"}),))
        with pytest.raises(PreconditionSkipped):
            check_lemma_pastocc(AtomRef("a"), m, mask)

    def test_batches_find_no_counterexamples(self):
        for lemma in ("pastocc", "support"):
            out = run_lemma_suite(lemma, cases=800, seed=55)
            assert out["failures"] == 0
            assert out["checked"] + out["skipped"] == 800
            assert out["skip_rate"] < 0.8


class TestRandomProgram:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(seed=123)
        assert random_program(cfg) == random_program(cfg)

    def test_zero_rules(self):
        assert random_program(GenConfig(seed=1, max_rules=0)) == Program(())

    def test_round_trip_batch(self):
        for seed in range(500):
            p = random_program(GenConfig(seed=seed))
            assert parse_program(format_program(p)) == p

    def test_respects_bounds(self):
        for seed in range(50):
            p = random_program(GenConfig(seed=seed, max_rules=4, max_atoms=2))
            assert len(p.rules) <= 4
            assert p.alphabet <= {"a", "b"}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(max_atoms=9)


class TestVerifyCorrespondence:
    def test_p1_completion_equal_but_not_tight(self, p1):
        report = verify_correspondence(p1, 2, "completion")
        assert report.equal is True
        assert report.tight is False

    def test_p2_completion_mismatch_with_witness(self, p2):
        report = verify_correspondence(p2, 2, "completion")
        assert report.equal is False
        assert TARGET in report.witnesses
        assert report.lhs == ()

    def test_p2_loops_equal_empty(self, p2):
        report = verify_correspondence(p2, 2, "completion_loops")
        assert report.equal is True
        assert report.lhs == report.rhs == ()
        assert report.tight is None

    def test_witnesses_empty_iff_equal(self, p1, p2):
        for program in (p1, p2):
            for mode in ("completion", "completion_loops", "unitary_loops"):
                report = verify_correspondence(program, 2, mode)
                assert report.equal == (not report.witnesses)

    def test_report_json(self, p2):
        doc = verify_correspondence(p2, 2, "completion").to_json()
        assert doc["equal"] is False
        assert doc["mode"] == "completion"
        assert doc["witnesses"] == [[["load"], ["dead", "shoot"]]]
        assert isinstance(doc["program"], str)

    def test_unknown_mode(self, p1):
        with pytest.raises(ValueError):
            verify_correspondence(p1, 2, "bogus")


class TestSuites:
    def test_correspondence_suite_small(self):
        out = run_correspondence_suite(cases=40, seed=56)
        assert out["failures"] == 0
        assert out["cases"] == 40
        assert out["failing_seeds"] == []

    def test_semantics_suite_small(self):
        out = run_semantics_suite(cases=500, seed=57)
        assert out["failures"] == 0
