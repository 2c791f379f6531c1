import pytest
from hypothesis import given, strategies as st

from ppt import (
    And, AtomRef, FALSUM, Falsum, Not, Or, Previous, Program, Rule, RuleKind,
    Since, Trigger, atoms_of, classify_occurrences, format_formula,
    format_program, format_rule, is_past_formula, parse_formula,
    parse_program,
)
from ppt.syntax import CORE_TRUE, INITIAL_EXPANSION

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

# Pairs of (text with sugar, the same formula written by hand in core
# syntax), so the sugar tables of the parser are checked against an
# independent spelling.
_UNARY_SPELLING = {
    "not": "not ({})",
    "prev": "prev ({})",
    "wprev": "(prev ({}) or not prev not false)",
    "always_before": "(false trigger ({}))",
    "eventually_before": "(not false since ({}))",
}
_BINARY_WORDS = ("and", "or", "since", "trigger")
sugar_texts = st.recursive(
    st.one_of(
        atoms.map(lambda a: (a, a)),
        st.sampled_from([("false", "false"), ("true", "not false"),
                         ("initially", "not prev not false")]),
    ),
    lambda kids: st.one_of(
        st.builds(lambda word, kid: (f"{word} ({kid[0]})",
                                     _UNARY_SPELLING[word].format(kid[1])),
                  st.sampled_from(sorted(_UNARY_SPELLING)), kids),
        st.builds(lambda word, l, r: (f"({l[0]}) {word} ({r[0]})",
                                      f"({l[1]}) {word} ({r[1]})"),
                  st.sampled_from(_BINARY_WORDS), kids, kids),
    ),
    max_leaves=8,
)


class TestExpand:
    """The parser builds every sugar keyword in its core spelling."""

    def test_verum(self):
        assert parse_formula("true") == Not(FALSUM)

    def test_initially(self):
        assert parse_formula("initially") == Not(Previous(Not(FALSUM)))

    def test_always_before(self):
        assert parse_formula("always_before a") == Trigger(FALSUM, AtomRef("a"))

    def test_eventually_before(self):
        assert parse_formula("eventually_before a") == Since(CORE_TRUE,
                                                             AtomRef("a"))

    def test_weak_previous(self):
        assert parse_formula("wprev a") == Or(Previous(AtomRef("a")),
                                              INITIAL_EXPANSION)

    @given(sugar_texts)
    def test_sugar_text_parses_to_hand_expanded_core(self, pair):
        sugar, core = pair
        parsed = parse_formula(sugar)
        assert is_past_formula(parsed)
        assert parsed == parse_formula(core)

    def test_deep_formula_needs_no_recursion(self):
        parsed = parse_formula("a" + ", initially" * 5000)
        # Dataclass equality recurses, so compare along the left spine.
        node, depth = parsed, 0
        while type(node) is And:
            assert node.rhs == INITIAL_EXPANSION
            node, depth = node.lhs, depth + 1
        assert (node, depth) == (AtomRef("a"), 5000)


class TestOccurrences:
    def test_rule3_body(self):
        body = parse_formula("shoot, (not unload since load)")
        occs = {(o.atom, o.presentness, o.negated)
                for o in classify_occurrences(body)}
        assert occs == {
            ("shoot", "present", False),
            ("unload", "present", True),
            ("load", "present", False),
        }

    def test_previous_makes_past(self):
        body = parse_formula("b, prev c")
        occs = {(o.atom, o.presentness) for o in classify_occurrences(body)}
        assert occs == {("b", "present"), ("c", "past")}

    def test_double_negation_positive_but_in_scope(self):
        f = Not(Not(AtomRef("a")))
        (occ,) = classify_occurrences(f)
        assert occ.presentness == "present"
        assert occ.negated

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
        # Independent listing, by plain recursion over the tree, of every
        # occurrence with the negations and Previous nodes above it.
        def listing(g, negs, prevs):
            tp = type(g)
            if tp is AtomRef:
                return [(g.name, "past" if prevs else "present", negs > 0)]
            if tp is Falsum:
                return []
            if tp is Not:
                return listing(g.arg, negs + 1, prevs)
            if tp is Previous:
                return listing(g.arg, negs, prevs + 1)
            return listing(g.lhs, negs, prevs) + listing(g.rhs, negs, prevs)

        assert [(o.atom, o.presentness, o.negated)
                for o in classify_occurrences(f)] == listing(f, 0, 0)


class TestFormat:
    def test_since_rendering(self):
        f = Since(Not(AtomRef("unload")), AtomRef("load"))
        assert format_formula(f) == "(not unload since load)"

    def test_rule_rendering(self, p1):
        assert format_rule(p1.rules[2]) == "dead :- shoot, (not unload since load)."

    def test_final_constraint_rendering(self, p1):
        assert format_rule(p1.rules[4]) == ":- not dead."

    def test_fact_rendering(self, p1):
        assert format_rule(p1.rules[0]) == "load."

    def test_program_sections(self, p1):
        text = format_program(p1)
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
