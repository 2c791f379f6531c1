import random
import subprocess
import sys
from pathlib import Path

import pytest

import ppt.transform
import ppt.verify

from ppt import (
    FALSUM, MODES, Always, AtomRef, GenConfig, HTTrace, Not,
    PreconditionSkipped, Previous, Program, Rule, RuleKind, Since, Trace,
    TraceMask, check_lemma_pastocc, check_lemma_support, completion,
    enumerate_ts_models, format_program, is_tight, mask_trace,
    parse_program, random_program, run_correspondence_suite,
    run_lemma_suite, run_semantics_suite, verify_correspondence,
)
from ppt.syntax import CORE_TRUE

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
        with pytest.raises(ValueError, match="mask has length 2, trace has length 1"):
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

    def test_unknown_mode(self, p1):
        with pytest.raises(ValueError):
            verify_correspondence(p1, 2, "bogus")

    def test_since_nest_past_the_recursion_limit(self):
        # The calls the README names as safe at any depth, on a body
        # 3,000 `since` nodes deep.  `(x since b) since b` is `x since
        # b`, so each result must be that of the one-node body.
        def program(depth):
            body = AtomRef("a")
            for _ in range(depth):
                body = Since(body, AtomRef("b"))
            return Program((Rule(RuleKind.INITIAL, ("b",), CORE_TRUE),
                            Rule(RuleKind.DYNAMIC, ("a",), body)))

        assert sys.getrecursionlimit() < 3000
        deep, shallow = program(3000), program(1)
        assert is_tight(deep) is is_tight(shallow) is False
        assert len(completion(deep)) == len(completion(shallow)) == 2
        assert enumerate_ts_models(deep, 3) == enumerate_ts_models(shallow, 3)
        report = verify_correspondence(deep, 3, "completion")
        assert report == verify_correspondence(shallow, 3, "completion")
        assert report.equal is False and len(report.witnesses) == 2


class TestSuites:
    def test_correspondence_suite_small(self):
        out = run_correspondence_suite(cases=40, seed=56)
        assert out["failures"] == 0
        assert out["cases"] == 40
        assert out["failing_seeds"] == []

    def test_semantics_suite_small(self):
        out = run_semantics_suite(cases=500, seed=57)
        assert out["failures"] == 0


# Counts of `run_correspondence_suite(cases=40, seed=56)` with a fault
# injected into a translation, recorded while the suite ran its own
# classical searches and comparisons.  Each fault must reach the
# counters it breaks and no other.
FAULTY_SUITE = {
    "no loop formulas": {
        "tight_cases": 17,
        "completion_loops_failures": 6,
        "unitary_loops_failures": 31,
        "completion_tight_failures": 0,
        "soundness_failures": 0,
        "failing_seeds": [
            4148591305, 3643475715, 2404133351, 49376573, 2034405272,
            2805054262, 2247468241, 1293391134, 3297074869, 1806315313,
            3037984277, 991863373, 1609270712, 2655218141, 290758416,
            1448938859, 2762608497, 2464443562, 889989492, 96192647,
            3260080042, 2459840080, 905852467, 3992853276, 2392234431,
            587649124, 1652065429, 2920185740, 130333116, 3985340767,
            668433591],
        "failures": 37,
    },
    "unsatisfiable completion": {
        "tight_cases": 17,
        "completion_loops_failures": 26,
        "unitary_loops_failures": 0,
        "completion_tight_failures": 12,
        "soundness_failures": 26,
        "failing_seeds": [
            4148591305, 2404133351, 49376573, 2034405272, 2805054262,
            2247468241, 3297074869, 1806315313, 3037984277, 1609270712,
            2655218141, 1448938859, 2762608497, 2464443562, 889989492,
            96192647, 3260080042, 2459840080, 905852467, 3992853276,
            587649124, 1652065429, 2920185740, 130333116, 3985340767,
            668433591],
        "failures": 64,
    },
}


@pytest.mark.parametrize("fault", sorted(FAULTY_SUITE))
def test_correspondence_suite_counts_injected_faults(monkeypatch, fault):
    if fault == "no loop formulas":
        # The suite takes both regimes from one call.
        monkeypatch.setattr(ppt.verify, "loop_formula_regimes",
                            lambda p: ([], []))
    else:
        completion = ppt.verify.completion
        monkeypatch.setattr(ppt.verify, "completion",
                            lambda p: completion(p) + [Always(FALSUM)])
    out = run_correspondence_suite(cases=40, seed=56)
    assert out == {"cases": 40, "seed": 56, **FAULTY_SUITE[fault]}


@pytest.mark.parametrize("fault", [None, "no loop formulas"])
def test_correspondence_suite_matches_the_public_path(monkeypatch, fault):
    # Each counter of the suite, recomputed case by case from
    # `verify_correspondence` in each mode and from `is_tight`; the
    # injected fault drops the loop formulas from both paths.
    if fault:
        monkeypatch.setattr(ppt.verify, "loop_formula_regimes",
                            lambda p: ([], []))
        monkeypatch.setattr(ppt.verify, "loop_formulas",
                            lambda p, unitary=False: [])
    want = {"cases": 100, "seed": 8, "tight_cases": 0,
            "completion_loops_failures": 0, "unitary_loops_failures": 0,
            "completion_tight_failures": 0, "soundness_failures": 0,
            "failing_seeds": []}
    rng = random.Random(8)
    for _ in range(100):
        case_seed = rng.getrandbits(32)
        cfg = GenConfig(seed=case_seed)
        p = random_program(cfg)
        p = Program(p.rules, frozenset("abcd"[:cfg.max_atoms]))
        lam = random.Random(case_seed ^ 0x5EED).randint(1, 3)
        completed, *looped = (verify_correspondence(p, lam, mode)
                              for mode in MODES)
        tight = is_tight(p)
        assert completed.tight is tight
        want["tight_cases"] += tight
        failed = [f"{mode}_failures"
                  for mode, r in zip(MODES[1:], looped) if not r.equal]
        if not set(completed.lhs) <= set(completed.rhs):
            failed.append("soundness_failures")
        if tight and not completed.equal:
            failed.append("completion_tight_failures")
        for key in failed:
            want[key] += 1
        if failed:
            want["failing_seeds"].append(case_seed)
    want["failures"] = sum(want[key] for key in want
                           if key.endswith("_failures"))
    assert (want["failures"] > 0) == bool(fault)
    assert run_correspondence_suite(cases=100, seed=8) == want


def _count_calls(monkeypatch, names):
    # Wraps each name of `ppt.verify` so that its calls are counted.
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(ppt.verify, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(ppt.verify, name, counted)
    return calls


def test_correspondence_suite_shares_its_work(monkeypatch):
    # Per case: one call for both loop regimes, the program and the
    # completion compiled once each, and three searches, plus one for
    # `completion_loops` when the default regime is nonempty.
    calls = _count_calls(monkeypatch, ("compile_program", "compile",
                                       "completion", "is_tight", "search"))
    regimes = ppt.verify.loop_formula_regimes
    nonempty = []

    def recorded(p):
        default, unitary = regimes(p)
        nonempty.append(bool(default))
        return default, unitary

    monkeypatch.setattr(ppt.verify, "loop_formula_regimes", recorded)
    run_correspondence_suite(cases=50, seed=3)
    assert len(nonempty) == 50 and 0 < sum(nonempty) < 50
    assert calls == {"compile_program": 50, "compile": 50, "completion": 50,
                     "is_tight": 50, "search": 150 + sum(nonempty)}


@pytest.mark.parametrize("mode", MODES)
def test_verify_correspondence_shares_its_work(monkeypatch, p1, mode):
    # The program is compiled once, for the stable side and as the base
    # of `unitary_loops`; the completion only for the other modes.
    calls = _count_calls(monkeypatch, ("compile_program", "compile",
                                       "completion", "search"))
    verify_correspondence(p1, 2, mode)
    compiled = int(mode != "unitary_loops")
    assert calls == {"compile_program": 1, "compile": compiled,
                     "completion": compiled, "search": 2}


def _masking_unchecked(f, m, mask):
    # Either lemma with no precondition and no loop struck: masked
    # satisfaction must equal plain satisfaction, which fails wherever a
    # masked atom has a positive present occurrence that matters.
    pivot = mask.pivot
    return ppt.verify.ht_sat(m, pivot, f) == ppt.verify.ht_sat(
        mask_trace(m, mask), pivot, f)


# `run_lemma_suite(lemma, 300, seed=3)` with `_masking_unchecked` in
# place of the lemma's check: every instance is checked, and the suite
# counts the counterexamples.  Unfaulted, the same runs skip 20 and 11
# instances and find no failure.
FAULTY_LEMMAS = {
    "pastocc": {"checked": 300, "skipped": 0, "failures": 7},
    "support": {"checked": 300, "skipped": 0, "failures": 29},
}


@pytest.mark.parametrize("lemma", sorted(FAULTY_LEMMAS))
def test_lemma_suite_counts_injected_faults(monkeypatch, lemma):
    assert run_lemma_suite(lemma, 300, seed=3)["failures"] == 0
    monkeypatch.setattr(ppt.verify, f"check_lemma_{lemma}", _masking_unchecked)
    out = run_lemma_suite(lemma, 300, seed=3)
    assert out == {"lemma": lemma, "cases": 300, "seed": 3,
                   **FAULTY_LEMMAS[lemma], "skip_rate": 0.0}


# `run_semantics_suite(300, seed=3)` with one fault each: the value 2
# (here true) read as 1, and the trigger unfolded with the strong
# previous, which is false at the first point, in `transform.unfold`,
# the unfolding the support transformation emits.  Each reaches its own
# counter and no other.
FAULTY_SEMANTICS = {
    "here read as total": {"three_valued_failures": 75,
                           "unfolding_failures": 0, "failures": 75},
    "strong previous": {"three_valued_failures": 0,
                        "unfolding_failures": 36, "failures": 36},
}


@pytest.mark.parametrize("fault", sorted(FAULTY_SEMANTICS))
def test_semantics_suite_counts_injected_faults(monkeypatch, fault):
    assert run_semantics_suite(300, seed=3)["failures"] == 0
    if fault == "here read as total":
        three_valued = ppt.verify.three_valued
        monkeypatch.setattr(ppt.verify, "three_valued",
                            lambda m, k, f: min(three_valued(m, k, f), 1))
    else:
        monkeypatch.setattr(ppt.transform, "INITIAL_EXPANSION", FALSUM)
    out = run_semantics_suite(300, seed=3)
    assert out == {"cases": 300, "seed": 3, **FAULTY_SEMANTICS[fault]}


_HTTRACES = """
import random
from ppt.verify import random_httrace
rng = random.Random(5)
for _ in range(200):
    m = random_httrace(rng, ("a", "b", "c"), 3)
    print(m.h.to_lists(), m.t.to_lists())
"""


def test_random_httrace_ignores_hash_seed():
    # `fuzz --seed S` must check the same instances in every process.
    src = str(Path(ppt.__file__).resolve().parents[1])
    outs = [subprocess.run(
        [sys.executable, "-c", _HTTRACES], check=True, capture_output=True,
        text=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")]
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 200
