import functools
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from ppt import (
    And, AtomRef, Not, Or, ParseError, Previous, Program, RestrictionError,
    Rule, RuleKind, Since, format_formula, format_program, parse_formula,
    parse_program,
)
from ppt.parser import (
    MAX_NESTING, _BINARY_OPS, _CONSTANTS, _Parser, _UNARY_OPS,
)
from ppt.syntax import CORE_TRUE, INITIAL_EXPANSION, RESERVED_WORDS, Falsum
from ppt.verify import GenConfig, random_program

from oracles import tokens_by_match

chain_operators = st.integers(1, MAX_NESTING).flatmap(
    lambda n: st.lists(st.sampled_from(("since", "trigger")),
                       min_size=n, max_size=n))

# Each wrapper puts a body one or more levels deeper; a list of them
# around a leaf reaches past the limit, mixing sugar, chains and groups.
_WRAPPERS = ("not {}", "prev {}", "wprev {}", "always_before {}",
             "eventually_before {}", "({})", "({}; a)", "b, ({})",
             "{} since b", "a trigger {}", "{} since b trigger c",
             "({} since b)")
deep_bodies = st.builds(
    lambda leaf, wrappers: functools.reduce(
        lambda text, wrapper: wrapper.format(text), wrappers, leaf),
    st.sampled_from(("a", "b", "true", "false", "initially")),
    st.integers(0, MAX_NESTING + 10).flatmap(
        lambda n: st.lists(st.sampled_from(_WRAPPERS), min_size=n,
                           max_size=n)))
wide_programs = st.lists(deep_bodies, min_size=1, max_size=12).map(
    lambda bodies: "a.\n#dynamic.\n" + "".join(
        f"h{i} | a :- {body}.\n" for i, body in enumerate(bodies))
    + "#final.\n:- not a, b.\n")


class TestProgramParsing:
    def test_p1_partition(self, p1):
        assert len(p1.initial) == 1
        assert len(p1.dynamic) == 3
        assert len(p1.final) == 1

    def test_dynamic_rule_shape(self):
        p = parse_program("#dynamic. dead :- shoot, (not unload since load).")
        (rule,) = p.rules
        assert rule.kind is RuleKind.DYNAMIC
        assert rule.head == ("dead",)
        assert rule.body == And(AtomRef("shoot"),
                                Since(Not(AtomRef("unload")), AtomRef("load")))

    def test_default_section_is_initial(self):
        p = parse_program("a.")
        assert p.rules[0].kind is RuleKind.INITIAL

    def test_fact_body_is_true(self):
        p = parse_program("a.")
        assert p.rules[0].body == CORE_TRUE

    def test_comment_and_blank_lines(self):
        p = parse_program("% leading comment\n\na.  % trailing\n")
        assert len(p.rules) == 1

    def test_byte_order_mark_dropped(self, p1):
        assert parse_program("\ufeff" + format_program(p1)) == p1
        assert parse_formula("\ufeffa since b") == parse_formula("a since b")

    def test_head_disjunction_synonyms(self):
        for sep in ("|", ";", "or"):
            p = parse_program(f"a {sep} b.")
            assert p.rules[0].head == ("a", "b")

    def test_body_connective_synonyms(self):
        assert parse_formula("a, b") == parse_formula("a and b")
        assert parse_formula("a; b") == parse_formula("a or b")

    def test_initial_since_rejected(self):
        with pytest.raises(RestrictionError):
            parse_program("#initial. a :- (b since c).")

    def test_initial_double_negation_rejected(self):
        with pytest.raises(RestrictionError):
            parse_program("a :- not not b.")

    def test_final_head_rejected(self):
        with pytest.raises(RestrictionError):
            parse_program("#final. a :- b.")

    def test_dynamic_constraint_allowed(self):
        p = parse_program("#dynamic. :- a, prev b.")
        assert p.rules[0].head == ()

    def test_restriction_error_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_program("#final. a :- b.")


class TestSharedAtoms:
    SRC = "a | b :- c, not a.\n#dynamic.\nc :- prev (a since c); b.\n"

    @staticmethod
    def _refs(p):
        out = []
        for r in p.rules:
            stack = [r.body]
            while stack:
                f = stack.pop()
                if type(f) is AtomRef:
                    out.append(f)
                stack.extend(getattr(f, name) for name in ("arg", "lhs", "rhs")
                             if hasattr(f, name))
        return out

    def test_one_object_per_atom_name(self):
        refs = self._refs(parse_program(self.SRC))
        assert len(refs) == 5
        assert len({id(ref) for ref in refs}) == 3

    def test_parses_share_no_atom(self):
        first, second = parse_program(self.SRC), parse_program(self.SRC)
        assert first == second
        assert not ({id(ref) for ref in self._refs(first)}
                    & {id(ref) for ref in self._refs(second)})

    def test_equal_to_built_and_pickled(self):
        p = parse_program(self.SRC)
        built = Program((
            Rule(RuleKind.INITIAL, ("a", "b"),
                 And(AtomRef("c"), Not(AtomRef("a")))),
            Rule(RuleKind.DYNAMIC, ("c",),
                 Or(Previous(Since(AtomRef("a"), AtomRef("c"))),
                    AtomRef("b")))))
        assert p == built
        copy = pickle.loads(pickle.dumps(p))
        assert copy == p
        assert len({id(ref) for ref in self._refs(copy)}) == 3
        assert format_program(copy) == self.SRC


class TestFormulaParsing:
    def test_since_precedence_under_not(self):
        assert parse_formula("not unload since load") == Since(
            Not(AtomRef("unload")), AtomRef("load"))

    def test_initially_expands(self):
        assert parse_formula("initially") == INITIAL_EXPANSION

    def test_false(self):
        assert parse_formula("false") == Falsum()

    def test_since_left_associative(self):
        a, b, c = AtomRef("a"), AtomRef("b"), AtomRef("c")
        assert parse_formula("a since b since c") == Since(Since(a, b), c)

    def test_precedence_or_and(self):
        f = parse_formula("a, b; c")
        g = parse_formula("(a and b) or c")
        assert f == g

    def test_parens_override(self):
        assert parse_formula("a, (b; c)") != parse_formula("a, b; c")

    def test_reserved_words_are_the_keywords(self):
        # Exactly the words the parser reads as keywords are reserved,
        # so that a keyword added to one of its tables is reserved too.
        assert RESERVED_WORDS == {*_UNARY_OPS, *_BINARY_OPS, *_CONSTANTS,
                                  "and", "or"}


class TestErrors:
    @pytest.mark.parametrize("src", [
        "a :- .", "a b.", ":-", "a.)", "#unknown.", "since.", "a :- since.",
        "Foo.", "_x.", "a | not b.", "a ::- b.",
    ])
    def test_bad_syntax(self, src):
        with pytest.raises(ParseError):
            parse_program(src)

    def test_position_points_at_token(self):
        with pytest.raises(ParseError) as err:
            parse_program("a :- b,\n  since c.")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_only_one_byte_order_mark_dropped(self):
        with pytest.raises(ParseError) as err:
            parse_program("\ufeff\ufeffa.")
        assert (err.value.line, err.value.column) == (1, 1)

    @pytest.mark.parametrize("src, kind, message, line, column", [
        ("a.\nb.\nc $.", ParseError, "unexpected character '$'", 3, 3),
        ("a.\r\nb.\r\nc $.", ParseError, "unexpected character '$'", 3, 3),
        ("a.\n\tb :-\n\t\tc, \x01.", ParseError,
         "unexpected character '\\x01'", 3, 6),
        ("% note $\na é.", ParseError, "unexpected character 'é'",
         2, 3),
        ("\ufeffa :- b $.", ParseError, "unexpected character '$'", 1, 8),
        ("a :- b", ParseError, "expected '.', found end of input", 1, 7),
        ("a :- b\n", ParseError, "expected '.', found end of input", 2, 1),
        ("a.\n#final.\n  b :- c.", RestrictionError,
         "final rules cannot have a head", 3, 3),
        ("a :-\n  prev b.", RestrictionError,
         "initial rule bodies must be conjunctions of regular literals",
         2, 3),
        ("#final.\n:- b,\n not not c.", RestrictionError,
         "final rule bodies must be conjunctions of regular literals", 2, 4),
        ("#dynamic.\nh :- " + "(" * (MAX_NESTING + 1) + "b"
         + ")" * (MAX_NESTING + 1) + ".", ParseError,
         f"formula nested deeper than {MAX_NESTING} levels", 2,
         6 + MAX_NESTING),
        ("#dynamic.\nh :-\n   " + "not " * (MAX_NESTING - 1) + "initially.",
         ParseError,
         f"formula nested deeper than {MAX_NESTING} levels when printed",
         3, 4),
    ])
    def test_error_position(self, src, kind, message, line, column):
        with pytest.raises(ParseError) as err:
            parse_program(src)
        assert type(err.value) is kind
        assert (err.value.message, err.value.line, err.value.column) == \
            (message, line, column)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from(("$", "\x01", "é")),
           st.booleans(), st.data())
    def test_inserted_character_position(self, seed, char, crlf, data):
        text = format_program(random_program(GenConfig(seed=seed)))
        if crlf:
            text = text.replace("\n", "\r\n")
        # Anywhere but inside `:-`, whose `:` would then come first.
        offset = data.draw(st.sampled_from([
            i for i in range(len(text) + 1) if text[i - 1:i + 1] != ":-"]))
        with pytest.raises(ParseError) as err:
            parse_program(text[:offset] + char + text[offset:])
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        assert type(err.value) is ParseError
        assert (err.value.message, err.value.line, err.value.column) == \
            (f"unexpected character {char!r}", line, column)

    def test_positions_within_bounds(self):
        sources = ["", "a", "a :-", "a :- b", "x.\ny.\nz", "(", "a :- (b."]
        for src in sources:
            try:
                parse_program(src)
            except ParseError as err:
                lines = src.split("\n") or [""]
                assert 1 <= err.line <= len(lines)
                assert 1 <= err.column <= len(lines[err.line - 1]) + 1

    def test_reserved_atom_message(self):
        with pytest.raises(ParseError) as err:
            parse_program("trigger.")
        assert "reserved" in err.value.message

    @pytest.mark.parametrize("src, kind", [
        ("a :- b", ParseError), ("#final. a :- b.", RestrictionError)])
    def test_pickle_round_trip(self, src, kind):
        with pytest.raises(kind) as err:
            parse_program(src)
        copy = pickle.loads(pickle.dumps(err.value))
        assert type(copy) is kind
        assert (copy.line, copy.column, copy.message) == \
            (err.value.line, err.value.column, err.value.message)
        assert str(copy) == str(err.value)


# Pieces of source text: tokens, whitespace that `\s` reads and the line
# count does not (`\x0c`, `\xa0`, `\u2028`), and comments with and
# without their newline.  Stray characters are inserted among them; a
# digit or `:` may join its neighbour into a token.
_FRAGMENTS = (
    "a", "b1", "_x", "Ab", "not", "since", ":-", ",", ";", "|", "(", ")",
    ".", "#", " ", "\n", "\r\n", "\t", "\x0c", "\xa0", "\u2028",
    "% note\n", "% a :- $", "%",
)
_STRAYS = ("$", "\x01", "é", "\ufeff", "1", ":", "-")


class TestTokenizer:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.booleans(), st.lists(st.sampled_from(_FRAGMENTS), max_size=24),
           st.lists(st.tuples(st.integers(0, 24), st.sampled_from(_STRAYS)),
                    max_size=2))
    def test_matches_one_token_at_a_time(self, bom, fragments, strays):
        for index, char in strays:
            fragments.insert(index, char)
        src = "\ufeff" * bom + "".join(fragments)
        texts, offsets, bad = tokens_by_match(src)
        text = src.removeprefix("\ufeff")

        def position(offset):
            return (text.count("\n", 0, offset) + 1,
                    offset - text.rfind("\n", 0, offset))

        if bad is None:
            parser = _Parser(src)
            assert parser.texts == texts
            assert [parser.token_position(i) for i in range(len(texts))] \
                == [position(offset) for offset in offsets]
        else:
            with pytest.raises(ParseError) as err:
                _Parser(src)
            assert (err.value.message, err.value.line, err.value.column) \
                == (f"unexpected character {text[bad]!r}", *position(bad))


class TestRoundTrip:
    def test_p1(self, p1):
        assert parse_program(format_program(p1)) == p1

    def test_interleaved_sections(self):
        text = "a.\n#dynamic.\nb :- prev a.\n#initial.\nc.\n"
        p = parse_program(text)
        assert parse_program(format_program(p)) == p

    def test_empty_program(self):
        assert parse_program("") == parse_program(format_program(parse_program("")))

    def test_body_with_true_conjunct(self):
        p = parse_program("a :- b, true.")
        assert parse_program(format_program(p)) == p

    @given(chain_operators)
    @example(["since"] * MAX_NESTING)
    def test_chain(self, operators):
        # The printer puts each operator in its own parentheses.
        f = parse_formula("a" + "".join(f" {op} b" for op in operators))
        assert parse_formula(format_formula(f)) == f

    @given(wide_programs)
    def test_deep_and_wide_programs(self, text):
        try:
            p = parse_program(text)
        except ParseError as err:
            assert "nested deeper than" in err.message
            return
        assert parse_program(format_program(p)) == p
