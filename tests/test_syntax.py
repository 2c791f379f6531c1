import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from ppt import (
    Always, And, AtomRef, FALSUM, FINAL_CONST, Falsum, INITIAL_CONST, Iff,
    Implies, Not, Or, ParseError, Previous, Program, Rule, RuleKind, Since,
    Trigger, VERUM, WeakNextAlways, atoms_of, format_formula, format_program,
    format_rule, is_past_formula, parse_formula, parse_program,
    positive_atoms, random_past_formula,
)
from ppt.parser import MAX_NESTING
from ppt.syntax import (
    CORE_TRUE, INITIAL_EXPANSION, chain_elements, format_nesting,
)

from oracles import (
    core_atoms_by_definition, literal_conjunction_by_definition,
    nesting_by_spine, positive_present_by_definition,
)

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


class TestPositiveAtoms:
    def test_rule3_body(self):
        body = parse_formula("shoot, (not unload since load)")
        assert positive_atoms(body) == {"shoot", "load"}
        assert positive_atoms(body, present_only=True) == {"shoot", "load"}

    def test_previous_makes_past(self):
        body = parse_formula("b, prev c")
        assert positive_atoms(body) == {"b", "c"}
        assert positive_atoms(body, present_only=True) == {"b"}

    def test_double_negation_is_not_positive(self):
        assert positive_atoms(Not(Not(AtomRef("a")))) == frozenset()

    @pytest.mark.parametrize("f", [
        VERUM, And(AtomRef("a"), Not(Previous(INITIAL_CONST)))])
    def test_rejects_extended_nodes_under_negation_too(self, f):
        with pytest.raises(ValueError, match="not a core past formula"):
            positive_atoms(f)

    @given(past_formulas)
    def test_matches_recursive_listing(self, f):
        # Independent listing, by plain recursion over the tree, of every
        # occurrence with the numbers of negations and Previous nodes
        # above it.
        def listing(g, negs, prevs):
            tp = type(g)
            if tp is AtomRef:
                return [(g.name, negs, prevs)]
            if tp is Falsum:
                return []
            if tp is Not:
                return listing(g.arg, negs + 1, prevs)
            if tp is Previous:
                return listing(g.arg, negs, prevs + 1)
            return listing(g.lhs, negs, prevs) + listing(g.rhs, negs, prevs)

        occurrences = listing(f, 0, 0)
        assert positive_atoms(f) == {
            name for name, negs, _ in occurrences if negs == 0}
        assert positive_atoms(f, present_only=True) == {
            name for name, negs, prevs in occurrences
            if negs == 0 and prevs == 0}


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


class TestChainElements:
    def test_left_to_right(self):
        a, b, c, d = (AtomRef(x) for x in "abcd")
        f = Or(Or(Or(a, b), c), d)
        assert chain_elements(f, Or) == [a, b, c, d]

    def test_other_connective_is_one_element(self):
        a, b, c, d = (AtomRef(x) for x in "abcd")
        inner = Or(a, b)
        f = And(And(inner, c), Or(c, d))
        assert chain_elements(f, And) == [inner, c, Or(c, d)]
        assert chain_elements(f, Or) == [f]

    def test_non_chain_is_its_only_element(self):
        f = Since(AtomRef("a"), And(AtomRef("b"), AtomRef("c")))
        assert chain_elements(f, And) == [f]
        assert chain_elements(FALSUM, Or) == [FALSUM]


class TestFormatNesting:
    # (printed text, its levels of nesting)
    @pytest.mark.parametrize("text, levels", [
        # A chain whose first element is of the other connective.
        ("(a or b) and c", 1),
        ("(a or b) and (c or a) and b", 1),
        ("a and b or c", 0),
        ("(a or not b) and c", 2),
        ("not (a or b)", 2),
        ("not a or prev b", 1),
        ("((a since b) since c)", 2),
        ("(a since (b trigger prev c))", 3),
        ("(not (a or b) since c)", 3),
        # `wprev a` and `initially` in their core spelling.
        ("prev a or not prev not false", 3),
        ("not (prev a or not prev not false)", 5),
        ("not prev not false", 3),
    ])
    def test_hand_cases(self, text, levels):
        f = parse_formula(text)
        assert format_formula(f) == text
        assert format_nesting(f) == levels

    # Sugar at the parser's limit: `not` k times over `initially` nests
    # k + 3 levels when printed, over `wprev a` k + 4.
    @pytest.mark.parametrize("sugar, levels", [("initially", 3),
                                               ("wprev a", 4)])
    def test_sugar_near_the_limit(self, sugar, levels):
        text = "not " * (MAX_NESTING - levels) + sugar
        f = parse_formula(text)
        assert format_nesting(f) == MAX_NESTING
        assert format_nesting(Not(f)) == MAX_NESTING + 1
        with pytest.raises(ParseError, match="when printed"):
            parse_formula("not " + text)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 2**32))
    def test_matches_reference(self, seed):
        rng = random.Random(seed)
        f = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 6))
        assert format_nesting(f) == nesting_by_spine(f)

    @given(past_formulas)
    def test_matches_reference_on_any_shape(self, f):
        assert format_nesting(f) == nesting_by_spine(f)


# Nodes outside the core language, and places to put one below the top:
# under prev and on either side of since and trigger.
_EXTENDED = (VERUM, INITIAL_CONST, FINAL_CONST,
             Implies(AtomRef("a"), FALSUM), Iff(AtomRef("b"), AtomRef("d")),
             Always(AtomRef("d")), WeakNextAlways(Not(AtomRef("a"))))
_HOLDERS = (lambda x, g: Previous(x), lambda x, g: Since(x, g),
            lambda x, g: Since(g, x), lambda x, g: Trigger(x, g),
            lambda x, g: Trigger(g, x))


def _splice(rng, f, node):
    """`f` with one subformula, at a random depth, replaced by `node`."""
    names = [name for name in ("arg", "lhs", "rhs") if hasattr(f, name)]
    if not names or rng.random() < 0.3:
        return node
    name = rng.choice(names)
    return dataclasses.replace(
        f, **{name: _splice(rng, getattr(f, name), node)})


class TestOneWalk:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(0, 2**32))
    def test_rule_matches_reference(self, seed):
        rng = random.Random(seed)
        body = random_past_formula(rng, ("a", "b", "c"), rng.randint(0, 4))
        if rng.random() < 0.7:
            holder = rng.choice(_HOLDERS)
            node = holder(rng.choice(_EXTENDED), random_past_formula(
                rng, ("b", "c"), rng.randint(0, 2)))
            body = _splice(rng, body, node)
        head = tuple(rng.sample(("a", "d", "e"), rng.randint(0, 2)))
        expected = core_atoms_by_definition(body)
        assert is_past_formula(body) is (expected is not None)
        if expected is None:
            with pytest.raises(ValueError) as err:
                Rule(RuleKind.DYNAMIC, head, body)
            assert str(err.value) == "rule body must be a core past formula"
            return
        rule = Rule(RuleKind.DYNAMIC, head, body)
        assert rule.atoms == expected | set(head)
        assert rule.positive_present == positive_present_by_definition(body)
        assert Program((rule,)).alphabet == rule.atoms
        if literal_conjunction_by_definition(body):
            initial = Rule(RuleKind.INITIAL, head, body)
            assert (initial.atoms, initial.positive_present) == (
                rule.atoms, rule.positive_present)
        else:
            with pytest.raises(ValueError) as err:
                Rule(RuleKind.INITIAL, head, body)
            assert str(err.value) == ("initial rule bodies must be "
                                      "conjunctions of regular literals")


class TestProgramModel:
    def test_atoms_of_p1(self, p1):
        assert atoms_of(p1) == frozenset({"load", "unload", "shoot", "dead"})

    def test_atoms_of_empty(self):
        assert atoms_of(Program(())) == frozenset()

    def test_atoms_of_fact(self):
        assert atoms_of(parse_program("a.")) == frozenset({"a"})

    def test_partitions_preserve_order(self, p1):
        def at(*positions):
            return tuple(p1.rules[i] for i in positions)

        assert p1.initial == at(0)
        assert p1.dynamic == at(1, 2, 3)
        assert p1.final == at(4)

    def test_head_order_is_source_order(self, p1):
        assert p1.rules[1].head == ("shoot", "load", "unload")

    def test_alphabet_must_cover_rules(self):
        rule = Rule(RuleKind.INITIAL, ("a",), CORE_TRUE)
        with pytest.raises(ValueError):
            Program((rule,), frozenset({"b"}))

    def test_final_rule_head_rejected(self):
        with pytest.raises(ValueError):
            Rule(RuleKind.FINAL, ("a",), CORE_TRUE)

    def test_initial_body_restriction(self):
        with pytest.raises(ValueError):
            Rule(RuleKind.INITIAL, ("a",), Since(AtomRef("b"), AtomRef("c")))

    def test_bad_atom_name(self):
        with pytest.raises(ValueError):
            AtomRef("Bad")

    @pytest.mark.parametrize("word", ["since", "true", "not", "prev", "or"])
    def test_reserved_word_is_no_atom(self, word):
        # A reserved word as an atom would print text that does not
        # parse back.
        with pytest.raises(ValueError, match="reserved word"):
            AtomRef(word)
        with pytest.raises(ValueError, match="reserved word"):
            Rule(RuleKind.INITIAL, (word,), CORE_TRUE)
        with pytest.raises(ValueError, match="reserved word"):
            Program((), frozenset({"a", word}))
