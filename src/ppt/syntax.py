"""Data model for past-present temporal logic programs.

There are two formula languages.  Core past formulas are exactly:
falsum, atoms, negation, conjunction, disjunction, previous, since and
trigger; every rule body is one.  The surface sugar of the concrete
syntax (``true``, ``initially``, ``wprev``, ``always_before``,
``eventually_before``) has no node of its own: the parser builds each
in its core spelling.

The extended formula language is what the compiler emits: core formulas
plus implication, biconditional, ``always``, ``wnext_always``, the
constant true and the initial/final point constants.  Extended
connectives never occur inside rule bodies; they are always evaluated
classically.

All node classes are immutable and hashable, so formulas can be shared,
memoised and used as dictionary keys freely.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Union

__all__ = [
    "ATOM_RE", "Atom", "validate_atom",
    "Falsum", "AtomRef", "Not", "And", "Or", "Previous", "Since", "Trigger",
    "Verum", "InitialConst", "FinalConst", "Implies", "Iff", "Always",
    "WeakNextAlways", "PastFormula", "ExtFormula",
    "FALSUM", "VERUM", "INITIAL_CONST", "FINAL_CONST", "CORE_TRUE",
    "INITIAL_EXPANSION",
    "RuleKind", "Rule", "Program",
    "Occurrence", "PRESENT", "PAST",
    "is_past_formula", "classify_occurrences", "formula_atoms", "atoms_of",
    "is_literal_conjunction", "head_disjunction", "or_chain",
    "format_formula", "format_rule", "format_program",
]

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

Atom = str


def validate_atom(name: str) -> str:
    """Check that `name` is a legal atom identifier and return it."""
    if not isinstance(name, str) or not ATOM_RE.match(name):
        raise ValueError(f"invalid atom name: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Falsum:
    """The constant false."""


@dataclass(frozen=True, slots=True)
class AtomRef:
    """An atom occurrence."""

    name: Atom

    def __post_init__(self) -> None:
        validate_atom(self.name)


@dataclass(frozen=True, slots=True)
class Not:
    arg: "PastFormula"


@dataclass(frozen=True, slots=True)
class And:
    lhs: "PastFormula"
    rhs: "PastFormula"


@dataclass(frozen=True, slots=True)
class Or:
    lhs: "PastFormula"
    rhs: "PastFormula"


@dataclass(frozen=True, slots=True)
class Previous:
    """True when the argument held at the preceding point; false at point 0."""

    arg: "PastFormula"


@dataclass(frozen=True, slots=True)
class Since:
    """lhs has held ever since a point where rhs held."""

    lhs: "PastFormula"
    rhs: "PastFormula"


@dataclass(frozen=True, slots=True)
class Trigger:
    """rhs has held from the start, or since just after lhs last held."""

    lhs: "PastFormula"
    rhs: "PastFormula"


# Extended connectives for the compiler output language.

@dataclass(frozen=True, slots=True)
class Verum:
    """The constant true; rule bodies spell it `not false`."""


@dataclass(frozen=True, slots=True)
class InitialConst:
    """Constant true exactly at the first point of a trace; prints as ``I``.

    Rule bodies spell it `not prev not false` (`INITIAL_EXPANSION`).
    """


@dataclass(frozen=True, slots=True)
class FinalConst:
    """Constant true exactly at the last point of a trace."""


@dataclass(frozen=True, slots=True)
class Implies:
    lhs: "ExtFormula"
    rhs: "ExtFormula"


@dataclass(frozen=True, slots=True)
class Iff:
    lhs: "ExtFormula"
    rhs: "ExtFormula"


@dataclass(frozen=True, slots=True)
class Always:
    """The argument holds from the evaluation point to the end of the trace."""

    arg: "ExtFormula"


@dataclass(frozen=True, slots=True)
class WeakNextAlways:
    """The argument holds at every point strictly after the evaluation point."""

    arg: "ExtFormula"


PastFormula = Union[Falsum, AtomRef, Not, And, Or, Previous, Since, Trigger]
ExtFormula = Union[PastFormula, Verum, InitialConst, FinalConst, Implies,
                   Iff, Always, WeakNextAlways]

FALSUM = Falsum()
VERUM = Verum()
INITIAL_CONST = InitialConst()
FINAL_CONST = FinalConst()

# Canonical core spellings of true and of the initial-point test.
CORE_TRUE = Not(FALSUM)
INITIAL_EXPANSION = Not(Previous(Not(FALSUM)))

_PAST_TYPES = (Falsum, AtomRef, Not, And, Or, Previous, Since, Trigger)
_UNARY_TYPES = (Not, Previous, Always, WeakNextAlways)
_BINARY_TYPES = (And, Or, Since, Trigger, Implies, Iff)


def _children(f) -> tuple:
    if isinstance(f, _UNARY_TYPES):
        return (f.arg,)
    if isinstance(f, _BINARY_TYPES):
        return (f.lhs, f.rhs)
    return ()


def is_past_formula(f) -> bool:
    """True when `f` uses only the core past connectives."""
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) not in _PAST_TYPES:
            return False
        stack.extend(_children(node))
    return True


def formula_atoms(f) -> frozenset[Atom]:
    """Atoms occurring anywhere in the formula."""
    names = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if type(node) is AtomRef:
            names.add(node.name)
        else:
            stack.extend(_children(node))
    return frozenset(names)


# ---------------------------------------------------------------------------
# Occurrence analysis
# ---------------------------------------------------------------------------

PRESENT = "present"
PAST = "past"


@dataclass(frozen=True, slots=True)
class Occurrence:
    """One atom occurrence inside a formula.

    Presentness is past exactly when the occurrence sits under a
    Previous node.  `negated` is true under at least one negation; the
    positive occurrences of the paper are exactly the ones that are not
    negated, whatever the number of enclosing negations.
    """

    atom: Atom
    presentness: str
    negated: bool


def classify_occurrences(f: PastFormula) -> tuple[Occurrence, ...]:
    """All atom occurrences of a core formula, in left-to-right order."""
    out: list[Occurrence] = []
    stack: list[tuple] = [(f, False, PRESENT)]
    while stack:
        node, negated, presentness = stack.pop()
        tp = type(node)
        if tp is AtomRef:
            out.append(Occurrence(node.name, presentness, negated))
        elif tp is Falsum:
            pass
        elif tp is Not:
            stack.append((node.arg, True, presentness))
        elif tp is Previous:
            stack.append((node.arg, negated, PAST))
        elif tp in (And, Or, Since, Trigger):
            stack.append((node.rhs, negated, presentness))
            stack.append((node.lhs, negated, presentness))
        else:
            raise ValueError(f"not a core past formula: {node!r}")
    return tuple(out)


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------

class RuleKind(Enum):
    INITIAL = "initial"
    DYNAMIC = "dynamic"
    FINAL = "final"


def is_literal_conjunction(f: PastFormula) -> bool:
    """True for conjunctions of regular literals (in core form).

    Accepted conjuncts are atoms, negated atoms and the core spelling of
    true (`not false`, the image of an empty body), so that formatting
    and re-parsing a restricted body never changes its status.
    """
    stack = [f]
    while stack:
        node = stack.pop()
        tp = type(node)
        if tp is And:
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif tp is AtomRef:
            pass
        elif tp is Not and type(node.arg) in (AtomRef, Falsum):
            pass
        else:
            return False
    return True


@dataclass(frozen=True, slots=True)
class Rule:
    """One past-present rule.

    The head is an ordered atom disjunction; an empty head denotes a
    constraint.  Initial and final rule bodies must be conjunctions of
    regular literals; dynamic bodies may be any core past formula.
    Final rules never have a head.
    """

    kind: RuleKind
    head: tuple[Atom, ...]
    body: PastFormula
    source_index: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "head", tuple(self.head))
        for name in self.head:
            validate_atom(name)
        if not is_past_formula(self.body):
            raise ValueError("rule body must be a core past formula")
        if self.kind is RuleKind.FINAL and self.head:
            raise ValueError("final rules cannot have a head")
        if self.kind is not RuleKind.DYNAMIC and not is_literal_conjunction(self.body):
            raise ValueError(
                f"{self.kind.value} rule bodies must be conjunctions of regular literals")


@dataclass(frozen=True, slots=True)
class Program:
    """An ordered list of rules plus the ambient alphabet.

    The alphabet defaults to the atoms occurring in the rules and may be
    widened explicitly; it can never be narrower than the occurring
    atoms.
    """

    rules: tuple[Rule, ...]
    alphabet: frozenset[Atom] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        occurring = atoms_of(self)
        if self.alphabet is None:
            object.__setattr__(self, "alphabet", occurring)
        else:
            object.__setattr__(self, "alphabet", frozenset(self.alphabet))
            for name in self.alphabet:
                validate_atom(name)
            if not occurring <= self.alphabet:
                missing = ", ".join(sorted(occurring - self.alphabet))
                raise ValueError(f"alphabet is missing occurring atoms: {missing}")

    @property
    def initial(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind is RuleKind.INITIAL)

    @property
    def dynamic(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind is RuleKind.DYNAMIC)

    @property
    def final(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.kind is RuleKind.FINAL)


def atoms_of(p: Program) -> frozenset[Atom]:
    """Exactly the atoms occurring in rule heads or bodies."""
    names: set[Atom] = set()
    for r in p.rules:
        names.update(r.head)
        names.update(formula_atoms(r.body))
    return frozenset(names)


def or_chain(parts: Iterable, empty) -> object:
    """Left-associated disjunction of `parts`; `empty` when there are none."""
    out = None
    for part in parts:
        out = part if out is None else Or(out, part)
    return empty if out is None else out


def head_disjunction(rule: Rule) -> ExtFormula:
    """The head read as a formula; false for constraints."""
    return or_chain([AtomRef(a) for a in rule.head], FALSUM)


# ---------------------------------------------------------------------------
# Canonical text
# ---------------------------------------------------------------------------

# Precedence levels used by the printer (higher binds tighter).  Since and
# trigger are always printed inside their own parentheses, so their
# rendered form behaves like a primary expression.
_PREC_IMPL = 1
_PREC_OR = 2
_PREC_AND = 3
_PREC_TEMPORAL = 4
_PREC_UNARY = 5
_PREC_PRIMARY = 6

_UNARY_KEYWORD = {Not: "not", Previous: "prev"}


def format_formula(f) -> str:
    """Canonical text of a formula.

    Core formulas re-parse to the same structure; extended connectives
    print in the ASCII output dialect (``I``, ``F``, ``->``, ``<->``,
    ``always(...)``, ``wnext_always(...)``) and are not re-parseable.
    """
    return _render(f, 0)


def _render(f, ctx: int) -> str:
    tp = type(f)
    if tp is AtomRef:
        return f.name
    if tp is Falsum:
        return "false"
    if tp is Verum:
        return "true"
    if tp is InitialConst:
        return "I"
    if tp is FinalConst:
        return "F"
    if tp is Always:
        return f"always({_render(f.arg, 0)})"
    if tp is WeakNextAlways:
        return f"wnext_always({_render(f.arg, 0)})"
    if tp in _UNARY_KEYWORD:
        return _wrap(f"{_UNARY_KEYWORD[tp]} {_render(f.arg, _PREC_UNARY)}",
                     _PREC_UNARY, ctx)
    if tp is Since or tp is Trigger:
        word = "since" if tp is Since else "trigger"
        return (f"({_render(f.lhs, _PREC_UNARY)} {word} "
                f"{_render(f.rhs, _PREC_UNARY)})")
    if tp is And or tp is Or:
        # A left-nested chain prints without parentheses, so its spine is
        # walked in a loop and long bodies need no recursion on length.
        prec = _PREC_AND if tp is And else _PREC_OR
        parts = []
        while type(f) is tp:
            parts.append(_render(f.rhs, prec + 1))
            f = f.lhs
        parts.append(_render(f, prec))
        parts.reverse()
        return _wrap((" and " if tp is And else " or ").join(parts), prec, ctx)
    if tp is Implies:
        text = f"{_render(f.lhs, _PREC_IMPL + 1)} -> {_render(f.rhs, _PREC_IMPL + 1)}"
        return _wrap(text, _PREC_IMPL, ctx)
    if tp is Iff:
        text = f"{_render(f.lhs, _PREC_IMPL + 1)} <-> {_render(f.rhs, _PREC_IMPL + 1)}"
        return _wrap(text, _PREC_IMPL, ctx)
    raise TypeError(f"cannot format {f!r}")


def _wrap(text: str, prec: int, ctx: int) -> str:
    return f"({text})" if prec < ctx else text


def _flatten_left(f, tp) -> list:
    parts = []
    while type(f) is tp:
        parts.append(f.rhs)
        f = f.lhs
    parts.append(f)
    parts.reverse()
    return parts


def _body_text(body: PastFormula) -> str:
    # Rule bodies print in clause style: `;` between disjuncts, `,`
    # between conjuncts, nested groups in the formula dialect.
    disjuncts = _flatten_left(body, Or)
    rendered = []
    for d in disjuncts:
        conjuncts = _flatten_left(d, And)
        rendered.append(", ".join(_render(c, _PREC_TEMPORAL) for c in conjuncts))
    return "; ".join(rendered)


def format_rule(rule: Rule) -> str:
    """Canonical one-line text of a rule (without its section directive)."""
    head_text = " | ".join(rule.head)
    if rule.body == CORE_TRUE and rule.head:
        return f"{head_text}."
    body_text = _body_text(rule.body)
    if not rule.head:
        return f":- {body_text}."
    return f"{head_text} :- {body_text}."


def format_program(p: Program) -> str:
    """Canonical text of a program, with section directives as needed."""
    lines: list[str] = []
    section = RuleKind.INITIAL
    for rule in p.rules:
        if rule.kind is not section:
            lines.append(f"#{rule.kind.value}.")
            section = rule.kind
        lines.append(format_rule(rule))
    return "\n".join(lines) + ("\n" if lines else "")
