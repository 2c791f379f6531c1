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
levels).

A body of `n` tokens prints at most `6n - 1` levels deep, so only a
body with `6n > MAX_NESTING` is walked to count them.  Each level that
`format_nesting` counts belongs to a distinct node on one path from the
root to a leaf, and the leaf counts none, so the levels are fewer than
the nodes of the body.  Each token builds at most 6 nodes (`wprev`
builds an `or`, a `prev` and the 4 nodes of `initially`), so the body
has at most `6n`.

The tokenizer reads the source in one regex pass: one `findall` reads
the text of each token after any whitespace and comments, and a
character that starts no token is read as a text of its own, an error
raised at the first such text.  Whitespace and comments make no
tokens, and the end of input is the empty text.  The parser keeps
token indexes, not source offsets: an error finds its token's offset
by matching the tokens one at a time from the start, and its line and
column from that offset, only when it is raised.

A parse makes one `AtomRef` per atom name and returns it for every
occurrence of the name; parsed formulas still compare by structure.
The section restrictions (initial and final rule bodies are
conjunctions of regular literals, final rules have empty heads) are
decided by `syntax.Rule`: the parser raises its message as a
:class:`RestrictionError` at the rule for a final rule's head and at
the body otherwise.
"""

from __future__ import annotations

import re

from .syntax import (
    ATOM_RE, And, AtomRef, CORE_TRUE, FALSUM, INITIAL_EXPANSION, Not, Or,
    PptError, Previous, Program, RESERVED_WORDS, Rule, RuleKind, Since,
    Trigger, format_nesting,
)

__all__ = ["MAX_NESTING", "ParseError", "RestrictionError", "parse_program",
           "parse_formula"]


class ParseError(PptError):
    """Syntax error in a `.ppt` source text.

    `line` and `column` are 1-based and point at the first character of
    the offending token.  `message` says what was expected there and what
    was found, where the parser knows both.
    """

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")

    def __reduce__(self):
        # The inherited reduction would call __init__ with the one
        # formatted string above.
        return type(self), (self.line, self.column, self.message)


class RestrictionError(ParseError):
    """Well-formed syntax that violates a rule-form restriction.

    Raised when an initial or final rule body is not a conjunction of
    regular literals, or when a final rule has a nonempty head.
    """

_SPACE = r"\s+|%[^\n]*"
_TOKEN = r":-|[,;|().#]|[A-Za-z_][A-Za-z0-9_]*"
# A token is the text the group captures, after any whitespace and
# comments; where no token starts, the one character there is captured
# alone, and at the end of the input the group is empty.
_TOKEN_RE = re.compile(rf"(?:{_SPACE})*({_TOKEN}|.)?")
_IS_TOKEN = re.compile(_TOKEN).fullmatch

_UNARY_OPS = {
    "not": Not,
    "prev": Previous,
    "wprev": lambda f: Or(Previous(f), INITIAL_EXPANSION),
    "always_before": lambda f: Trigger(FALSUM, f),
    "eventually_before": lambda f: Since(CORE_TRUE, f),
}

_BINARY_OPS = {"since": Since, "trigger": Trigger}

_CONSTANTS = {
    "true": CORE_TRUE,
    "false": FALSUM,
    "initially": INITIAL_EXPANSION,
}

_SECTIONS = {k.value: k for k in RuleKind}

_AND_TEXTS = frozenset({",", "and"})
_OR_TEXTS = frozenset({";", "or"})

# Each level of nesting costs the recursive descent a few Python frames,
# and the printer and compiler recurse on it too; this bound keeps every
# one of them far below the interpreter's recursion limit.
MAX_NESTING = 100


class _Parser:
    def __init__(self, src: str):
        self.src = src = src.removeprefix("\ufeff")
        # The token texts, ending with one empty text at the end of the
        # input; trailing space or a comment makes a match of its own.
        self.texts: list[str] = _TOKEN_RE.findall(src)
        if len(self.texts) > 1 and not self.texts[-2]:
            self.texts.pop()
        strays = [text for text in set(self.texts)
                  if text and not _IS_TOKEN(text)]
        if strays:
            index = min(map(self.texts.index, strays))
            self.fail(f"unexpected character {self.texts[index]!r}", index)
        self.pos = 0
        self.depth = 0
        # One AtomRef per atom name: a name seen before was validated.
        self.refs: dict[str, AtomRef] = {}

    # -- token plumbing ----------------------------------------------------

    def eat(self, *texts: str) -> bool:
        if self.texts[self.pos] in texts:
            self.pos += 1
            return True
        return False

    def found(self) -> str:
        text = self.texts[self.pos]
        return repr(text) if text else "end of input"

    def token_position(self, index: int) -> tuple[int, int]:
        """The 1-based line and column of token `index`, found by
        matching the tokens before it one by one."""
        src, match = self.src, _TOKEN_RE.match
        pos = 0
        for _ in range(index):
            pos = match(src, pos).end()
        token = match(src, pos)
        offset = token.start(1) if token.lastindex else token.end()
        line_start = src.rfind("\n", 0, offset) + 1
        return src.count("\n", 0, offset) + 1, offset - line_start + 1

    def fail(self, message: str, index: int | None = None):
        """Raise `message` at token `index`, by default the current one."""
        raise ParseError(*self.token_position(
            self.pos if index is None else index), message)

    def expect(self, text: str) -> None:
        if not self.eat(text):
            self.fail(f"expected {text!r}, found {self.found()}")

    def nested(self, parse):
        """Consume an opening token, then run `parse` one level deeper."""
        if self.depth == MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels")
        self.pos += 1
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    # -- grammar -----------------------------------------------------------

    def atom_name(self) -> str:
        text = self.texts[self.pos]
        if text in self.refs:  # read as an atom before, and checked then
            self.pos += 1
            return text
        if not text.isidentifier():
            self.fail(f"expected an atom, found {self.found()}")
        if text in RESERVED_WORDS:
            self.fail(f"reserved word {text!r} cannot be used as an atom")
        if not ATOM_RE.match(text):
            self.fail(f"invalid atom name {text!r} "
                      "(must match [a-z][A-Za-z0-9_]*)")
        self.pos += 1
        return text

    def primary(self):
        text = self.texts[self.pos]
        ref = self.refs.get(text)
        if ref is not None:
            self.pos += 1
            return ref
        if text == "(":
            inner = self.nested(self.disjunction)
            self.expect(")")
            return inner
        if text in _CONSTANTS:
            self.pos += 1
            return _CONSTANTS[text]
        if text.isidentifier():
            ref = self.refs[text] = AtomRef(self.atom_name())
            return ref
        self.fail(f"expected a formula, found {self.found()}")

    def unary(self):
        op = _UNARY_OPS.get(self.texts[self.pos])
        if op is not None:
            return op(self.nested(self.unary))
        return self.primary()

    def body(self):
        start = self.pos
        body = self.disjunction()
        # A short body cannot print too deep: see the module docstring.
        if (6 * (self.pos - start) > MAX_NESTING
                and format_nesting(body) > MAX_NESTING):
            self.fail(f"formula nested deeper than {MAX_NESTING} levels "
                      "when printed", start)
        return body

    def temporal(self):
        # A chain nests to the left, one level per operator, so each
        # operator counts against the limit until the chain ends.  A
        # chain that opens a group shares the group's level, as in the
        # printed `(a since b)`.  An atom read before, with no chain
        # after it, is returned at once.
        texts, pos = self.texts, self.pos
        ref = self.refs.get(texts[pos])
        if ref is not None and texts[pos + 1] not in _BINARY_OPS:
            self.pos = pos + 1
            return ref
        opens_group = texts[pos - 1] == "("
        left = self.unary()
        outer = self.depth
        if opens_group:
            self.depth -= 1
        while (op := _BINARY_OPS.get(self.texts[self.pos])) is not None:
            left = op(left, self.nested(self.unary))
            self.depth += 1
        self.depth = outer
        return left

    def conjunction(self):
        left = self.temporal()
        while self.texts[self.pos] in _AND_TEXTS:
            self.pos += 1
            left = And(left, self.temporal())
        return left

    def disjunction(self):
        left = self.conjunction()
        while self.texts[self.pos] in _OR_TEXTS:
            self.pos += 1
            left = Or(left, self.conjunction())
        return left

    def head(self) -> tuple[str, ...]:
        atoms = [self.atom_name()]
        while self.eat("|", ";", "or"):
            atoms.append(self.atom_name())
        return tuple(atoms)

    def directive(self) -> RuleKind:
        self.pos += 1  # the '#' that `program` saw
        section = _SECTIONS.get(self.texts[self.pos])
        if section is None:
            self.fail("expected a section name (initial, dynamic or final), "
                      f"found {self.found()}")
        self.pos += 1
        self.expect(".")
        return section

    def rule(self, section: RuleKind) -> Rule:
        start = body_start = self.pos
        head: tuple[str, ...] = ()
        if self.texts[self.pos] != ":-":
            head = self.head()
        body = CORE_TRUE
        if self.eat(":-"):
            body_start = self.pos
            body = self.body()
        self.expect(".")
        try:
            return Rule(section, head, body)
        except ValueError as err:
            # A section restriction: `Rule` says which, the parser where.
            at = start if section is RuleKind.FINAL and head else body_start
            raise RestrictionError(*self.token_position(at),
                                   str(err)) from None

    def program(self) -> Program:
        rules: list[Rule] = []
        section = RuleKind.INITIAL
        while text := self.texts[self.pos]:
            if text == "#":
                section = self.directive()
            else:
                rules.append(self.rule(section))
        return Program(tuple(rules))

    def formula(self):
        body = self.body()
        if self.texts[self.pos]:
            self.fail(f"expected end of input, found {self.found()}")
        return body


def parse_program(src: str) -> Program:
    """Parse `.ppt` source text into a program."""
    return _Parser(src).program()


def parse_formula(src: str):
    """Parse a body formula; the result is a core formula."""
    return _Parser(src).formula()
