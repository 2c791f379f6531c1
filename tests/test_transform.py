import random

import pytest
from hypothesis import given, settings, strategies as st

from ppt import (
    Always, And, AtomRef, FALSUM, HTTrace, Iff, Implies, Not, Or, Previous,
    Since, Trace, Trigger, VERUM, WeakNextAlways, completion,
    enumerate_ltlf_models, enumerate_ts_models, external_support,
    format_formula, ht_sat, loop_formulas, ltlf_sat, parse_formula,
    parse_program, positive_atoms, Program, program_as_ltlf, Rule, RuleKind,
    simplify, simplify_formulas, sourced_completion, sourced_loop_formulas,
    sourced_program_as_ltlf, support_transform,
)
from ppt.cli import main
from ppt.progression import compile, compile_program, search
from ppt.transform import (
    enumerate_loops, loop_formula_regimes, rule_formula, section_graphs,
)
from ppt.syntax import (
    CORE_TRUE, FINAL_CONST, INITIAL_CONST, Falsum, Value, format_formulas,
    format_rule, head_disjunction, or_chain,
)
from ppt.verify import (
    GenConfig, TraceMask, mask_trace, random_httrace, random_past_formula,
    random_program,
)

from conftest import TARGET
from oracles import completion_by_definition, external_support_by_definition

L = frozenset({"shoot", "dead"})


class TestSupportTransform:
    def test_loop_atom_becomes_false(self):
        assert support_transform(AtomRef("dead"), L) == FALSUM

    def test_free_atom_untouched(self):
        assert support_transform(AtomRef("a"), frozenset()) == AtomRef("a")

    def test_negation_untouched(self):
        f = Not(AtomRef("dead"))
        assert support_transform(f, L) == f

    def test_since_unfolds(self):
        since = Since(Not(AtomRef("unload")), AtomRef("load"))
        got = support_transform(since, L)
        assert got == Or(AtomRef("load"),
                         And(Not(AtomRef("unload")), Previous(since)))

    def test_trigger_unfolds_with_weak_previous(self):
        trig = Trigger(AtomRef("dead"), AtomRef("load"))
        got = support_transform(trig, L)
        # At the first point a trigger is just its right side, so the
        # unfolded past part must be true there.
        m = HTTrace.total(Trace.of(["load"]))
        assert ht_sat(m, 0, got) == ht_sat(m, 0, trig)

    def test_no_empty_transform_drift(self):
        # With an empty loop the transform is semantically the identity.
        rng = random.Random(50)
        for _ in range(200):
            lam = rng.randint(1, 4)
            m = random_httrace(rng, ("a", "b"), lam)
            f = random_past_formula(rng, ("a", "b"), rng.randint(0, 4))
            k = rng.randrange(lam)
            total = HTTrace.total(m.t)
            assert ltlf_sat(m.t, k, support_transform(f, frozenset())) \
                == ltlf_sat(m.t, k, f)
            assert ht_sat(total, k, support_transform(f, frozenset())) \
                == ht_sat(total, k, f)

    def test_loop_atoms_survive_only_under_negation_or_previous(self):
        rng = random.Random(51)
        for _ in range(200):
            f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 4))
            loop = frozenset(rng.sample(("a", "b", "c"), rng.randint(1, 3)))
            out = support_transform(f, loop)
            assert not positive_atoms(out, present_only=True) & loop


class TestExternalSupport:
    def test_p2_loop_has_no_support(self, p2):
        assert simplify(external_support(p2, RuleKind.DYNAMIC, L)) == FALSUM

    def test_p1_loop_supported_by_choice(self, p1):
        got = simplify(external_support(p1, RuleKind.DYNAMIC, L))
        assert got == And(Not(AtomRef("load")), Not(AtomRef("unload")))

    def test_disjoint_heads_give_false(self, p1):
        assert external_support(p1, RuleKind.DYNAMIC,
                                frozenset({"zzz"})) == FALSUM

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.data())
    def test_any_atom_set_matches_definition(self, seed, data):
        # Not only loops: any set, atoms outside the alphabet included.
        p = random_program(GenConfig(seed=seed, max_atoms=4, max_rules=8))
        atoms = st.sampled_from(sorted(p.alphabet | {"zzz"}))
        for section in (RuleKind.INITIAL, RuleKind.DYNAMIC):
            atom_set = data.draw(st.frozensets(atoms))
            assert external_support(p, section, atom_set) == \
                external_support_by_definition(p, section, atom_set)

    def test_disjuncts_follow_program_order(self):
        c = Rule(RuleKind.DYNAMIC, ("a",), AtomRef("c"))
        d = Rule(RuleKind.DYNAMIC, ("a",), AtomRef("d"))
        skipped = Rule(RuleKind.INITIAL, ("a",), AtomRef("e"))
        loop = frozenset({"a"})
        assert external_support(Program((d, skipped, c)), RuleKind.DYNAMIC,
                                loop) == Or(AtomRef("d"), AtomRef("c"))
        assert external_support(Program((c, skipped, d)), RuleKind.DYNAMIC,
                                loop) == Or(AtomRef("c"), AtomRef("d"))


def _atom_entry(p, atom):
    """The completion biconditional of one atom: its `atom x` entry."""
    (f,) = [f for f, source in sourced_completion(p)
            if source == f"atom {atom}"]
    return f


class TestCompletionAtom:
    def test_p1_dead(self, p1):
        body = parse_formula("shoot, (not unload since load)")
        got = _atom_entry(p1, "dead")
        assert got == Always(Iff(AtomRef("dead"),
                                 Or(FALSUM, And(Not(INITIAL_CONST), body))))

    def test_p2_unload_is_bare_false(self, p2):
        assert _atom_entry(p2, "unload") == Always(Iff(AtomRef("unload"),
                                                       FALSUM))

    def test_p2_load_simplifies_to_initial(self, p2):
        got = simplify(_atom_entry(p2, "load"))
        assert got == Always(Iff(AtomRef("load"), INITIAL_CONST))


class TestCompletion:
    def test_p1_shape(self, p1):
        formulas = completion(p1)
        assert len(formulas) == 5  # four biconditionals plus the final rule
        assert enumerate_ltlf_models(formulas, 2, p1.alphabet) == (TARGET,)

    def test_empty_program_forces_all_false(self):
        from ppt import Program
        p = Program((), frozenset({"a"}))
        formulas = completion(p)
        assert formulas == [Always(Iff(AtomRef("a"), FALSUM))]
        assert enumerate_ltlf_models(formulas, 2, {"a"}) == (
            Trace.of([], []),)

    def test_constraints_carried_over(self):
        p = parse_program("#dynamic. :- a.")
        formulas = completion(p)
        assert WeakNextAlways(Implies(AtomRef("a"), FALSUM)) in formulas


class TestLoopFormulas:
    def test_p1_plain(self, p1):
        (lf,) = loop_formulas(p1)
        want = WeakNextAlways(Implies(
            Or(AtomRef("dead"), AtomRef("shoot")),
            And(Not(AtomRef("load")), Not(AtomRef("unload")))))
        assert simplify(lf) == want

    def test_p2_plain(self, p2):
        (lf,) = loop_formulas(p2)
        assert simplify(lf) == WeakNextAlways(Implies(
            Or(AtomRef("dead"), AtomRef("shoot")), FALSUM))

    def test_p1_unitary_count(self, p1):
        formulas = loop_formulas(p1, unitary=True)
        assert len(formulas) == 9

    def test_p1_unitary_initial_singletons(self, p1):
        formulas = [simplify(f) for f in loop_formulas(p1, unitary=True)]
        assert Implies(AtomRef("load"), VERUM) in formulas
        assert Implies(AtomRef("unload"), FALSUM) in formulas

    def test_completion_plus_loops_matches_stable_models(self, p1, p2):
        cf1 = completion(p1) + loop_formulas(p1)
        assert enumerate_ltlf_models(cf1, 2, p1.alphabet) == (TARGET,)
        cf2 = completion(p2) + loop_formulas(p2)
        assert enumerate_ltlf_models(cf2, 2, p2.alphabet) == ()


class TestLoopFormulaRegimes:
    """Both regimes from one enumeration, against one call per regime."""

    # The cycle program of the hash-seed check: a 6-atom positive
    # component whose loops share terms, and atoms with no self-edge.
    CYCLE = """
        a | b :- c.  c :- a, not d.
        #dynamic.
        a | b :- f, not d.
        b :- a, (c since e).
        c | d :- b, prev f.
        d :- c, not a.
        e | x :- d, (f since prev a).
        f :- e; b, not x.
        a :- f, prev (a since b).
        x :- prev x.
    """

    @staticmethod
    def _check(p):
        default, unitary = loop_formula_regimes(p)
        assert default == loop_formulas(p)
        assert unitary == loop_formulas(p, unitary=True)
        # The default regime is a sublist of the unitary one, object for
        # object and in order.
        rest = iter(unitary)
        assert all(any(f is g for g in rest) for f in default)

    def test_random_programs(self):
        for seed in range(300):
            self._check(random_program(
                GenConfig(seed=seed, max_atoms=4, max_rules=8)))

    def test_examples_and_cycle(self, p1, p2):
        for p in (p1, p2, parse_program(self.CYCLE)):
            self._check(p)
        default, unitary = loop_formula_regimes(parse_program(self.CYCLE))
        assert 0 < len(default) < len(unitary)


class TestProgramAsLtlf:
    def test_fact_is_bare_head(self):
        p = parse_program("a.")
        assert program_as_ltlf(p) == [AtomRef("a")]

    def test_fact_with_a_fresh_body_is_bare_head(self):
        # A fact is told by its node types, not by the identity of the
        # parser's `CORE_TRUE`: both printers and the compiled rule
        # pairs agree.
        for kind, embedded in ((RuleKind.INITIAL, "a"),
                               (RuleKind.DYNAMIC, "wnext_always(a)")):
            rule = Rule(kind, ("a",), Not(Falsum()))
            p = Program((rule,))
            assert format_rule(rule) == "a."
            assert format_formula(rule_formula(rule)) == embedded
            assert format_formulas(program_as_ltlf(p)) == [embedded]
            assert [t for t in compile_program(p).rules if t] == [((0, None),)]

    def test_rule_shapes(self, p1):
        formulas = program_as_ltlf(p1)
        assert formulas[0] == AtomRef("load")
        assert formulas[1] == WeakNextAlways(Or(Or(AtomRef("shoot"),
                                                   AtomRef("load")),
                                                AtomRef("unload")))
        body = parse_formula("shoot, (not unload since load)")
        assert formulas[2] == WeakNextAlways(Implies(body, AtomRef("dead")))
        assert formulas[4] == Always(Implies(
            FINAL_CONST, Implies(Not(AtomRef("dead")), FALSUM)))

    def test_embedding_plus_unitary_loops_matches_stable_models(self, p1, p2):
        u1 = program_as_ltlf(p1) + loop_formulas(p1, unitary=True)
        assert enumerate_ltlf_models(u1, 2, p1.alphabet) == (TARGET,)
        u2 = program_as_ltlf(p2) + loop_formulas(p2, unitary=True)
        assert enumerate_ltlf_models(u2, 2, p2.alphabet) == \
            enumerate_ts_models(p2, 2)


class TestCompileProgram:
    """`compile_program` compiles the rules read as formulas, as
    `compile(program_as_ltlf(p), p.alphabet)` does, and reads the pairs
    of the least fixpoint from the same rules: per section, the initial
    and the dynamic rules that have a head, each as (head index, body
    slot), where the body is the very object left of the rule's `->`."""

    @staticmethod
    def _check(p, seen):
        compiled = compile_program(p)
        whole = compile(program_as_ltlf(p), p.alphabet)
        assert (compiled.nodes, compiled.at_start, compiled.later,
                compiled.carried) == (whole.nodes, whole.at_start,
                                      whole.later, whole.carried)
        assert whole.rules is None and len(compiled.rules) == 2
        for kind, pairs in zip((RuleKind.INITIAL, RuleKind.DYNAMIC),
                               compiled.rules):
            listed = [i for i, r in enumerate(p.rules)
                      if r.kind is kind and r.head]
            if any(len(p.rules[i].head) > 1 for i in listed):
                assert pairs is None
                seen["disjunctive"] += 1
                continue
            assert [head for head, _ in pairs] == \
                [compiled.index[p.rules[i].head[0]] for i in listed]
            for (_, body), i in zip(pairs, listed):
                f = compiled.formulas[i]
                if kind is RuleKind.DYNAMIC:
                    assert type(f) is WeakNextAlways
                    f = f.arg
                if body is None:
                    assert p.rules[i].body == CORE_TRUE
                    assert f == head_disjunction(p.rules[i])
                    seen["fact"] += 1
                else:
                    assert type(f) is Implies and f.lhs is p.rules[i].body
                    lhs = f.lhs
                    assert body == compiled.slots[
                        lhs.name if type(lhs) is AtomRef else id(lhs)]
                    seen["body"] += 1

    def test_random_programs(self):
        seen = dict.fromkeys(("disjunctive", "fact", "body"), 0)
        for seed in range(300):
            self._check(random_program(
                GenConfig(seed=seed, max_atoms=4, max_rules=8)), seen)
        # Each kind of phase and pair is met many times.
        assert min(seen.values()) > 20, seen

    def test_examples_and_cycle(self, p1, p2):
        seen = dict.fromkeys(("disjunctive", "fact", "body"), 0)
        for p in (p1, p2, parse_program(TestLoopFormulaRegimes.CYCLE)):
            self._check(p, seen)
        # P1's dynamic section has the disjunctive fact
        # `shoot | load | unload`.
        compiled = compile_program(p1)
        assert compiled.rules == (((compiled.index["load"], None),), None)

    def test_each_phase_reads_its_own_pairs(self):
        # Point 0 has no founded atom, and the dynamic facts found both
        # atoms at point 1.  All 4 states survive the total pass at point
        # 0, so it takes the fixpoint, which the dynamic pairs would
        # answer with {a, b}.
        p = parse_program("a :- a.\nb :- b.\n#dynamic.\na.\nb.\n")
        assert search(compile_program(p), 2) == (Trace.of([], ["a", "b"]),)

    def test_extensions_search_classically(self):
        # `a :- a.` has one stable model at length 1, the empty state,
        # and two classical ones; an empty extension is classical too.
        compiled = compile_program(parse_program("a :- a."))
        assert search(compiled, 1) == (Trace.of([]),)
        extended = compiled.extend([])
        assert extended.rules is None
        assert search(extended, 1) == (Trace.of([]), Trace.of(["a"]))
        assert search(compiled, 1) == (Trace.of([]),)
        for seed in range(100):
            p = random_program(GenConfig(seed=seed))
            classical = compile(program_as_ltlf(p), p.alphabet)
            for lam in (1, 2):
                assert search(compile_program(p).extend([]), lam) == \
                    search(classical, lam)


class TestSimplify:
    def test_false_or_collapse(self):
        f = Or(FALSUM, And(FALSUM, AtomRef("a")))
        assert simplify(f) == FALSUM

    def test_true_and_drop(self):
        f = And(And(VERUM, Not(AtomRef("load"))), Not(AtomRef("unload")))
        assert simplify(f) == And(Not(AtomRef("load")), Not(AtomRef("unload")))

    def test_atom_fixpoint(self):
        assert simplify(AtomRef("a")) == AtomRef("a")

    def test_not_false(self):
        assert simplify(CORE_TRUE) == VERUM

    def test_not_not_false(self):
        assert simplify(Not(Not(FALSUM))) == FALSUM

    @staticmethod
    def _translations(p):
        return {"completion": completion(p),
                "loops": completion(p) + loop_formulas(p),
                "unitary": program_as_ltlf(p) + loop_formulas(p, unitary=True)}

    def test_search_gives_the_same_models_on_examples(self, p1, p2):
        for p in (p1, p2):
            for fs in self._translations(p).values():
                for lam in (1, 2, 3):
                    assert enumerate_ltlf_models(
                        simplify_formulas(fs), lam, p.alphabet) == \
                        enumerate_ltlf_models(fs, lam, p.alphabet)

    def test_search_gives_the_same_models_on_random_programs(self):
        for seed in range(100):
            p = random_program(GenConfig(seed=seed, max_atoms=4, max_rules=8))
            lam = seed % 3 + 1
            for name, fs in self._translations(p).items():
                assert enumerate_ltlf_models(
                    simplify_formulas(fs), lam, p.alphabet) == \
                    enumerate_ltlf_models(fs, lam, p.alphabet), (seed, name)

    def test_preserves_semantics(self):
        rng = random.Random(52)
        for _ in range(300):
            lam = rng.randint(1, 3)
            m = random_httrace(rng, ("a", "b"), lam)
            f = random_past_formula(rng, ("a", "b"), rng.randint(0, 4))
            k = rng.randrange(lam)
            assert ltlf_sat(m.t, k, simplify(f)) == ltlf_sat(m.t, k, f)

    @staticmethod
    def _check_idempotent(fs):
        once = simplify_formulas(fs)
        twice = simplify_formulas(once)
        assert twice == once
        assert format_formulas(twice) == format_formulas(once)

    def test_idempotent_on_random_formulas(self):
        # Simplified loop formulas are built simplified, term by term, and
        # equal `simplify_formulas` of the unsimplified list only because a
        # simplified term simplifies to itself.
        rng = random.Random(53)
        b = AtomRef("b")
        for _ in range(500):
            f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 4))
            self._check_idempotent([f, Implies(f, b), Implies(b, f),
                                    Not(VERUM), And(f, VERUM), Or(f, VERUM),
                                    And(VERUM, Not(f))])

    def test_idempotent_on_compiled_programs(self):
        for seed in range(200):
            p = random_program(GenConfig(seed=seed, max_atoms=4, max_rules=8))
            self._check_idempotent(completion(p))
            for unitary in (False, True):
                self._check_idempotent(loop_formulas(p, unitary))


class TestSimplifiedLoopFormulas:
    """`sourced_loop_formulas(p, unitary, simplify=True)` builds what
    `simplify_formulas` makes of the unsimplified list, with the same
    sources."""

    @staticmethod
    def _check(p):
        for unitary in (False, True):
            plain = sourced_loop_formulas(p, unitary)
            want = simplify_formulas([f for f, _ in plain])
            built = sourced_loop_formulas(p, unitary, simplify=True)
            got = [f for f, _ in built]
            assert got == want
            assert format_formulas(got) == format_formulas(want)
            assert [s for _, s in built] == [s for _, s in plain]

    def test_random_programs(self):
        for seed in range(400):
            self._check(random_program(
                GenConfig(seed=seed, max_atoms=4, max_rules=8)))

    def test_examples_and_large_component(self, p1, p2):
        for p in (p1, p2, parse_program(TestLoopFormulaRegimes.CYCLE),
                  parse_program(TestSharedTerms.SEVEN)):
            self._check(p)

    def test_simplify_is_keyword_only_and_off_by_default(self, p1):
        assert sourced_loop_formulas(p1, simplify=False) == \
            sourced_loop_formulas(p1)
        with pytest.raises(TypeError):
            sourced_loop_formulas(p1, False, True)


class TestCompileUnit:
    def test_provenance_labels(self, p1):
        comp = sourced_completion(p1)
        assert len(comp) == 5
        assert len(sourced_loop_formulas(p1, unitary=True)) == 9
        assert len(sourced_program_as_ltlf(p1)) == 5
        labels = [source for _, source in comp]
        assert "atom dead" in labels
        assert "rule 4" in labels

    def test_formats_ascii(self, p1):
        texts = [format_formula(simplify(f)) for f in completion(p1)]
        assert "always(dead <-> not I and (shoot and (not unload since load)))" \
            in texts

    def test_plain_functions_drop_sources(self, p1):
        assert completion(p1) == [f for f, _ in sourced_completion(p1)]
        assert loop_formulas(p1, unitary=True) == [
            f for f, _ in sourced_loop_formulas(p1, unitary=True)]
        assert program_as_ltlf(p1) == [
            f for f, _ in sourced_program_as_ltlf(p1)]

    def test_identical_rules_keep_their_own_labels(self):
        p = parse_program(":- a.\n:- a.\nb :- a.")
        assert [s for _, s in sourced_completion(p)][-2:] == ["rule 0",
                                                               "rule 1"]

    def test_hand_built_program_labels_positions(self):
        p = Program((Rule(RuleKind.INITIAL, ("a",), CORE_TRUE),
                     Rule(RuleKind.DYNAMIC, ("b",), AtomRef("a"))))
        assert [s for _, s in sourced_program_as_ltlf(p)] == ["rule 0",
                                                               "rule 1"]

    def test_sliced_program_labels_new_positions(self):
        q = parse_program("a.\n:- a.")
        assert [s for _, s in sourced_completion(Program(q.rules[1:]))] == [
            "atom a", "rule 0"]


class TestLemmaSupportInstance:
    def test_masking_matches_transform(self):
        rng = random.Random(53)
        atoms = ("a", "b", "c")
        checked = 0
        for _ in range(500):
            lam = rng.randint(1, 3)
            m = random_httrace(rng, atoms, lam)
            f = random_past_formula(rng, atoms, rng.randint(0, 3))
            loop = frozenset(rng.sample(atoms, rng.randint(0, 2)))
            pivot = rng.randrange(lam)
            bad = positive_atoms(f) - loop
            candidates = sorted(frozenset(atoms) - loop - bad)
            pivot_set = loop | frozenset(
                rng.sample(candidates, rng.randint(0, len(candidates))))
            mask = TraceMask(loop, pivot,
                             tuple([frozenset()] * pivot + [pivot_set]
                                   + [frozenset()] * (lam - pivot - 1)))
            lhs = ht_sat(m, pivot, support_transform(f, loop))
            rhs = ht_sat(mask_trace(m, mask), pivot, f)
            assert lhs == rhs
            checked += 1
        assert checked == 500


def _unshared(f):
    """A copy of f in which no node object occurs twice."""
    if not isinstance(f, Value) or type(f) is AtomRef:
        return f
    return type(f)(*(_unshared(getattr(f, name))
                     for name in type(f).__match_args__))


def _compound_ids(f):
    """The id of each visit to a node of f that has subformulas, in a
    walk that enters a shared node once per occurrence."""
    ids, stack = [], [f]
    while stack:
        g = stack.pop()
        if type(g) is not AtomRef and type(g).__match_args__:
            ids.append(id(g))
            stack.extend(getattr(g, name) for name in type(g).__match_args__)
    return ids


class TestSharedTerms:
    """The compiler shares support terms between loops; sharing must
    give the same formulas, texts and simplifications as no sharing."""

    @staticmethod
    def _check_against_definition(p, unitary):
        want = []
        for graph in section_graphs(p):
            for loop in enumerate_loops(graph, unitary):
                f = Implies(or_chain([AtomRef(a) for a in sorted(loop)]),
                            external_support_by_definition(
                                p, graph.section, loop))
                if graph.section is RuleKind.DYNAMIC:
                    f = WeakNextAlways(f)
                want.append(f)
        got = [f for f, _ in sourced_loop_formulas(p, unitary)]
        assert got == want
        assert format_formulas(got) == [format_formula(f) for f in want]
        simplified = simplify_formulas(got)
        assert simplified == [simplify(f) for f in want]
        assert format_formulas(simplified) == [format_formula(simplify(f))
                                               for f in want]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_loop_formulas_match_one_loop_at_a_time(self, seed, unitary):
        p = random_program(GenConfig(seed=seed, max_atoms=4, max_rules=8))
        self._check_against_definition(p, unitary)

    # A 7-atom positive component (a to g) with disjunctive heads, an
    # atom x outside it that shares their heads, and since, prev and
    # not in the bodies; the initial section has a 2-atom loop.
    SEVEN = """
        a | b :- c.  c :- a, not d.
        #dynamic.
        a | b :- g, not d.
        b :- a, (c since e).
        c | d :- b, prev f.
        d :- c, not a.
        e | x :- d, (f since prev a).
        f :- e; g, not x.
        g | a :- f, (a trigger b).
        a :- g, prev (a since b).
        x :- prev x.
    """

    @pytest.mark.parametrize("unitary", [False, True])
    def test_loop_formulas_match_definition_on_a_large_component(
            self, unitary):
        p = parse_program(self.SEVEN)
        loops = enumerate_loops(section_graphs(p)[1])
        assert max(map(len, loops)) == 7
        self._check_against_definition(p, unitary)

    @staticmethod
    def _check_completion_against_definition(p):
        got = sourced_completion(p)
        want = completion_by_definition(p)
        assert got == want
        got = [f for f, _ in got]
        want = [f for f, _ in want]
        assert format_formulas(got) == [format_formula(f) for f in want]
        simplified = simplify_formulas(got)
        assert simplified == [simplify(f) for f in want]
        assert format_formulas(simplified) == [format_formula(simplify(f))
                                               for f in want]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans())
    def test_completion_matches_one_atom_at_a_time(self, seed, widen):
        p = random_program(GenConfig(seed=seed, max_atoms=4, max_rules=8))
        if widen:
            p = Program(p.rules, p.alphabet | {"idle"})
        self._check_completion_against_definition(p)

    def test_completion_matches_definition_on_the_examples(self, p1, p2):
        # P1's choice rule has an unsorted three-atom head.
        self._check_completion_against_definition(p1)
        self._check_completion_against_definition(p2)

    def test_completion_matches_definition_across_sections(self):
        # Sections interleave in program order, heads are unsorted, and
        # constraints of every kind sit between the rules.
        p = Program((
            Rule(RuleKind.DYNAMIC, ("c", "a"), AtomRef("b")),
            Rule(RuleKind.FINAL, (), AtomRef("a")),
            Rule(RuleKind.INITIAL, ("b", "a"), CORE_TRUE),
            Rule(RuleKind.DYNAMIC, (), Previous(AtomRef("c"))),
            Rule(RuleKind.INITIAL, ("a",), Not(AtomRef("c"))),
            Rule(RuleKind.INITIAL, (), AtomRef("b")),
            Rule(RuleKind.DYNAMIC, ("a", "b", "c"), Since(AtomRef("a"),
                                                          AtomRef("c"))),
        ), frozenset({"a", "b", "c", "d"}))
        self._check_completion_against_definition(p)
        assert [s for _, s in sourced_completion(p)] == [
            "atom a", "atom b", "atom c", "atom d",
            "rule 3", "rule 5", "rule 1"]

    # One object as an element of an `and` chain and of an `or` chain:
    # `a and b` is parenthesised in the first and bare in the second,
    # `a or b` the other way round only at the left of an `and`.
    CONJ = And(AtomRef("a"), Or(VERUM, AtomRef("b")))
    DISJ = Or(Not(FALSUM), AtomRef("b"))

    def _shared(self):
        c = AtomRef("c")
        return [And(c, self.CONJ), Or(c, self.CONJ), Or(self.CONJ, c),
                And(self.DISJ, c), Or(c, self.DISJ), And(c, self.DISJ),
                Implies(self.CONJ, Or(And(c, self.CONJ), self.DISJ))]

    def test_unshared_copies_every_compound_node(self):
        # The tests below check sharing against `_unshared` copies, so a
        # copy must equal its formula and share no compound node with it
        # or within itself, as the last formula here does.
        for f in self._shared():
            copy = _unshared(f)
            ids = _compound_ids(copy)
            assert copy == f and len(set(ids)) == len(ids)
            assert not set(ids) & set(_compound_ids(f))

    def test_render_per_context(self):
        shared = self._shared()
        copies = [_unshared(f) for f in shared]
        texts = format_formulas(shared)
        assert texts == format_formulas(copies)
        assert texts == [format_formula(f) for f in copies]
        assert texts[:2] == ["c and (a and (true or b))",
                             "c or a and (true or b)"]

    def test_simplify_shared_equals_copied(self):
        shared = self._shared()
        copies = [_unshared(f) for f in shared]
        got = simplify_formulas(shared)
        assert got == simplify_formulas(copies)
        assert got == [simplify(f) for f in copies]
        assert format_formulas(got) == [format_formula(simplify(f))
                                        for f in copies]

    def test_no_state_outlives_a_command(self, tmp_path, capsys):
        path = tmp_path / "p.ppt"
        path.write_text("#dynamic. a | b :- c, not d. c :- a. c :- b.\n"
                        "d :- c, (a since b).\n", encoding="utf-8")
        f = self._shared()[-1]
        before = format_formula(f), simplify(f), format_formula(simplify(f))
        for command in ("lf", "complete"):
            assert main([command, str(path), "--simplify", "--json"]) == 0
        assert main(["lf", str(path), "--unitary"]) == 0
        capsys.readouterr()
        assert (format_formula(f), simplify(f),
                format_formula(simplify(f))) == before
