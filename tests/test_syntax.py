import pytest
from hypothesis import given, strategies as st

from ppt import (
    AlwaysBefore, And, AtomRef, EventuallyBefore, FALSUM, Falsum, Not, Or,
    Previous, Program, Rule, RuleKind, Since, Trigger, Verum, WeakPrevious,
    atoms_of, classify_occurrences, expand_derived, format, format_formula,
    in_negation_scope, is_past_formula, parse_formula, parse_program,
)
from ppt.syntax import CORE_TRUE, INITIAL_EXPANSION, InitialConst

atoms = st.sampled_from(("a", "b", "c"))
leaves = st.one_of(st.builds(AtomRef, atoms), st.just(FALSUM))
past_formulas = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(Previous, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Since, kids, kids),
        st.builds(Trigger, kids, kids),
    ),
    max_leaves=8,
)
surface_formulas = st.recursive(
    st.one_of(leaves, st.just(Verum()), st.just(InitialConst())),
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(Previous, kids),
        st.builds(WeakPrevious, kids),
        st.builds(AlwaysBefore, kids),
        st.builds(EventuallyBefore, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Since, kids, kids),
        st.builds(Trigger, kids, kids),
    ),
    max_leaves=8,
)


class TestExpand:
    def test_verum(self):
        assert expand_derived(Verum()) == Not(FALSUM)

    def test_initially(self):
        assert expand_derived(InitialConst()) == Not(Previous(Not(FALSUM)))

    def test_always_before(self):
        a = AtomRef("a")
        assert expand_derived(AlwaysBefore(a)) == Trigger(FALSUM, a)

    def test_eventually_before(self):
        a = AtomRef("a")
        assert expand_derived(EventuallyBefore(a)) == Since(CORE_TRUE, a)

    def test_weak_previous(self):
        a = AtomRef("a")
        assert expand_derived(WeakPrevious(a)) == Or(Previous(a), INITIAL_EXPANSION)

    def test_identity_on_core_atom(self):
        assert expand_derived(AtomRef("a")) == AtomRef("a")

    @given(surface_formulas)
    def test_idempotent_and_core(self, f):
        once = expand_derived(f)
        assert is_past_formula(once)
        assert expand_derived(once) == once

    @given(surface_formulas)
    def test_core_formula_comes_back_as_the_same_object(self, f):
        once = expand_derived(f)
        assert expand_derived(once) is once

    def test_deep_formula_needs_no_recursion(self):
        core = surface = AtomRef("a")
        for _ in range(5000):
            core = And(core, INITIAL_EXPANSION)
            surface = And(surface, InitialConst())
        assert expand_derived(core) is core
        # Dataclass equality recurses, so compare along the left spine.
        node, depth = expand_derived(surface), 0
        while type(node) is And:
            assert node.rhs is INITIAL_EXPANSION
            node, depth = node.lhs, depth + 1
        assert (node, depth) == (AtomRef("a"), 5000)


class TestOccurrences:
    def test_rule3_body(self):
        body = parse_formula("shoot, (not unload since load)")
        occs = {(o.atom, o.polarity, o.presentness)
                for o in classify_occurrences(body)}
        assert occs == {
            ("shoot", "positive", "present"),
            ("unload", "negative", "present"),
            ("load", "positive", "present"),
        }

    def test_previous_makes_past(self):
        body = parse_formula("b, prev c")
        occs = {(o.atom, o.presentness) for o in classify_occurrences(body)}
        assert occs == {("b", "present"), ("c", "past")}

    def test_double_negation_positive_but_in_scope(self):
        f = Not(Not(AtomRef("a")))
        (occ,) = classify_occurrences(f)
        assert occ.polarity == "positive"
        assert occ.presentness == "present"
        assert in_negation_scope(f, occ)

    @given(past_formulas)
    def test_counts_leaves(self, f):
        def leaves_of(g):
            tp = type(g)
            if tp is AtomRef:
                return 1
            if tp is Falsum:
                return 0
            if tp in (Not, Previous):
                return leaves_of(g.arg)
            return leaves_of(g.lhs) + leaves_of(g.rhs)

        assert len(classify_occurrences(f)) == leaves_of(f)

    @given(past_formulas)
    def test_past_iff_path_crosses_previous(self, f):
        # Independent check: replay each path and look for Previous nodes.
        for occ in classify_occurrences(f):
            node = f
            crossed = False
            for idx in occ.path:
                if type(node) is Previous:
                    crossed = True
                node = (node.arg if type(node) in (Not, Previous)
                        else (node.lhs if idx == 0 else node.rhs))
            assert type(node) is AtomRef and node.name == occ.atom
            assert (occ.presentness == "past") == crossed


class TestFormat:
    def test_since_rendering(self):
        f = Since(Not(AtomRef("unload")), AtomRef("load"))
        assert format_formula(f) == "(not unload since load)"

    def test_rule_rendering(self, p1):
        assert format(p1.rules[2]) == "dead :- shoot, (not unload since load)."

    def test_final_constraint_rendering(self, p1):
        assert format(p1.rules[4]) == ":- not dead."

    def test_fact_rendering(self, p1):
        assert format(p1.rules[0]) == "load."

    def test_program_sections(self, p1):
        text = format(p1)
        assert text.splitlines()[1] == "#dynamic."
        assert "#final." in text

    @given(past_formulas)
    def test_formula_round_trip(self, f):
        assert parse_formula(format_formula(f)) == f


class TestProgramModel:
    def test_atoms_of_p1(self, p1):
        assert atoms_of(p1) == frozenset({"load", "unload", "shoot", "dead"})

    def test_atoms_of_empty(self):
        assert atoms_of(Program(())) == frozenset()

    def test_atoms_of_fact(self):
        assert atoms_of(parse_program("a.")) == frozenset({"a"})

    def test_partitions_preserve_order(self, p1):
        assert [r.source_index for r in p1.initial] == [0]
        assert [r.source_index for r in p1.dynamic] == [1, 2, 3]
        assert [r.source_index for r in p1.final] == [4]

    def test_head_order_is_source_order(self, p1):
        assert p1.rules[1].head == ("shoot", "load", "unload")

    def test_alphabet_must_cover_rules(self):
        rule = Rule(RuleKind.INITIAL, ("a",), CORE_TRUE, 0)
        with pytest.raises(ValueError):
            Program((rule,), frozenset({"b"}))

    def test_final_rule_head_rejected(self):
        with pytest.raises(ValueError):
            Rule(RuleKind.FINAL, ("a",), CORE_TRUE, 0)

    def test_initial_body_restriction(self):
        with pytest.raises(ValueError):
            Rule(RuleKind.INITIAL, ("a",), Since(AtomRef("b"), AtomRef("c")), 0)

    def test_bad_atom_name(self):
        with pytest.raises(ValueError):
            AtomRef("Bad")
