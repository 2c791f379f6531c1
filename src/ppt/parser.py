"""Parser for the `.ppt` concrete format.

A program is a sequence of rules grouped by section directives
(`#initial.`, `#dynamic.`, `#final.`); the section before any directive
is initial.  Rules are `head.`, `head :- body.` or `:- body.` where the
head is a `|`-separated atom disjunction.  `%` starts a line comment.
One leading byte-order mark (U+FEFF) is dropped before tokenizing, so
line-1 columns count as if it were absent.

Body grammar, in ascending precedence:

    disjunction   `or` or `;`
    conjunction   `and` or `,`
    temporal      `since`, `trigger`        (left-associative)
    unary         `not`, `prev`, `wprev`, `always_before`, `eventually_before`
    primary       atom, `true`, `false`, `initially`, `( body )`

Each sugar is built directly in its core spelling, so parsed bodies are
core formulas:

    true                  not false
    initially             not prev not false
    wprev f               prev f or initially
    always_before f       false trigger f
    eventually_before f   true since f

Parentheses, unary operators and the operators of a `since`/`trigger`
chain each count one level of nesting, up to `MAX_NESTING` levels;
deeper input raises :class:`ParseError` at the first token past the
limit.  A chain that opens a parenthesised group shares the group's
level with its first operator, so `(a since b)`, the printed form of a
since, costs one level like `a since b`.  A body whose printed text
would nest deeper (`syntax.format_nesting`) raises :class:`ParseError`
at its first token, so the text `format_formula` prints from a parsed
formula always parses back to it.  This happens where a chain has a
deep operand before its last operator, which the printer's parentheses
put deeper than the chain does, or where sugar sits near the limit and
its core spelling is deeper than the sugar (`initially` is three
levels).  Initial and final rule bodies must be conjunctions of regular
literals and final rules must have empty heads; violations raise
:class:`RestrictionError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, RestrictionError
from .syntax import (
    ATOM_RE, And, AtomRef, CORE_TRUE, FALSUM, INITIAL_EXPANSION, Not, Or,
    Previous, Program, Rule, RuleKind, Since, Trigger, format_nesting,
    is_literal_conjunction,
)

__all__ = ["MAX_NESTING", "parse_program", "parse_formula"]

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<arrow>:-)
      | (?P<punct>[,;|().#])
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_RESERVED = frozenset({
    "not", "prev", "wprev", "since", "trigger", "always_before",
    "eventually_before", "initially", "true", "false", "and", "or",
})

_UNARY_OPS = {
    "not": Not,
    "prev": Previous,
    "wprev": lambda f: Or(Previous(f), INITIAL_EXPANSION),
    "always_before": lambda f: Trigger(FALSUM, f),
    "eventually_before": lambda f: Since(CORE_TRUE, f),
}

_CONSTANTS = {
    "true": CORE_TRUE,
    "false": FALSUM,
    "initially": INITIAL_EXPANSION,
}

# Each level of nesting costs the recursive descent a few Python frames,
# and the printer and compiler recurse on it too; this bound keeps every
# one of them far below the interpreter's recursion limit.
MAX_NESTING = 100


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "arrow", "punct", "ident", "eof"
    text: str
    line: int
    column: int


def _tokenize(src: str) -> list[_Token]:
    src = src.removeprefix("\ufeff")
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(src)
    while pos < n:
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise ParseError(line, pos - line_start + 1,
                             f"unexpected character {src[pos]!r}")
        kind = match.lastgroup
        text = match.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, line, pos - line_start + 1))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            line_start = pos + text.rindex("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", line, n - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.text == text and tok.kind != "eof"

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def found(self) -> str:
        tok = self.peek()
        return "end of input" if tok.kind == "eof" else repr(tok.text)

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(tok.line, tok.column, message)

    def expect(self, text: str) -> _Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.found()}")
        return self.advance()

    def nested(self, parse):
        """Consume an opening token, then run `parse` one level deeper."""
        if self.depth == MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels")
        self.advance()
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    # -- grammar -----------------------------------------------------------

    def atom_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            self.fail(f"expected an atom, found {self.found()}")
        if tok.text in _RESERVED:
            self.fail(f"reserved word {tok.text!r} cannot be used as an atom")
        if not ATOM_RE.match(tok.text):
            self.fail(f"invalid atom name {tok.text!r} "
                      "(must match [a-z][A-Za-z0-9_]*)")
        self.advance()
        return tok.text

    def primary(self):
        tok = self.peek()
        if self.at("("):
            inner = self.nested(self.disjunction)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            if tok.text in _CONSTANTS:
                self.advance()
                return _CONSTANTS[tok.text]
            return AtomRef(self.atom_name())
        self.fail(f"expected a formula, found {self.found()}")

    def unary(self):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _UNARY_OPS:
            return _UNARY_OPS[tok.text](self.nested(self.unary))
        return self.primary()

    def body(self):
        start = self.peek()
        body = self.disjunction()
        if format_nesting(body) > MAX_NESTING:
            raise ParseError(start.line, start.column,
                             f"formula nested deeper than {MAX_NESTING} "
                             "levels when printed")
        return body

    def temporal(self):
        # A chain nests to the left, one level per operator, so each
        # operator counts against the limit until the chain ends.  A
        # chain that opens a group shares the group's level, as in the
        # printed `(a since b)`.
        opens_group = self.tokens[self.pos - 1].text == "("
        left = self.unary()
        outer = self.depth
        if opens_group:
            self.depth -= 1
        while self.at("since") or self.at("trigger"):
            op = Since if self.at("since") else Trigger
            left = op(left, self.nested(self.unary))
            self.depth += 1
        self.depth = outer
        return left

    def conjunction(self):
        left = self.temporal()
        while self.eat(",") or self.eat("and"):
            left = And(left, self.temporal())
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.eat(";") or self.eat("or"):
            left = Or(left, self.conjunction())
        return left

    def head(self) -> tuple[str, ...]:
        atoms = [self.atom_name()]
        while self.eat("|") or self.eat(";") or self.eat("or"):
            atoms.append(self.atom_name())
        return tuple(atoms)

    def directive(self) -> RuleKind:
        self.advance()  # the '#' that `program` saw
        tok = self.peek()
        names = {k.value: k for k in RuleKind}
        if tok.kind != "ident" or tok.text not in names:
            self.fail("expected a section name (initial, dynamic or final), "
                      f"found {self.found()}")
        self.advance()
        self.expect(".")
        return names[tok.text]

    def rule(self, section: RuleKind) -> Rule:
        start = self.peek()
        head: tuple[str, ...] = ()
        if not self.at(":-"):
            head = self.head()
        body_tok = self.peek()
        if self.eat(":-"):
            body_tok = self.peek()
            body = self.body()
        else:
            body = CORE_TRUE
        self.expect(".")

        if section is RuleKind.FINAL and head:
            raise RestrictionError(start.line, start.column,
                                   "final rules cannot have a head")
        if section is not RuleKind.DYNAMIC and not is_literal_conjunction(body):
            raise RestrictionError(
                body_tok.line, body_tok.column,
                f"{section.value} rule bodies must be conjunctions of "
                "regular literals")
        return Rule(section, head, body)

    def program(self) -> Program:
        rules: list[Rule] = []
        section = RuleKind.INITIAL
        while self.peek().kind != "eof":
            if self.at("#"):
                section = self.directive()
            else:
                rules.append(self.rule(section))
        return Program(tuple(rules))

    def formula(self):
        body = self.body()
        if self.peek().kind != "eof":
            self.fail(f"expected end of input, found {self.found()}")
        return body


def parse_program(src: str) -> Program:
    """Parse `.ppt` source text into a program."""
    return _Parser(src).program()


def parse_formula(src: str):
    """Parse a body formula; the result is a core formula."""
    return _Parser(src).formula()
