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
memoised and used as dictionary keys freely.  They and the other value
classes of `ppt` (`Rule`, `Program`, `tht.HTTrace`, `transform.DepGraph`
and `verify`'s `TraceMask`, `GenConfig` and `Report`) are declared by
`value_class`, which reads a class's fields from its own annotations
and keeps them in slots.  They take `==`, `hash`, `repr`, immutability
and pickling from one hand-written base, `Value`, and write their own
`__init__` (`_node` makes a node's).  `dataclasses` is not used: its
code generator would compile and run the source of six methods per
class at import, and the module imports `inspect`, costs paid at the
start of every command.

One walk of a core formula (`_walk`) collects its atoms, positive
atoms and positive present atoms, tells whether it is a conjunction of
regular literals and refuses a node outside the core language.  A
`Rule` walks its body once; `positive_atoms`, `is_past_formula` and,
through `positive_atoms`, `transform.support_transform` run on it.

Every collection of atoms a caller gives (an alphabet, a trace state, a
rule head, a loop, a mask, a vertex set, an atom pool) is read by
`atom_tuple`, the one place that checks atom names and refuses a string
where its letters would be taken for one-letter atoms.  A rule kind, a
section or a program rule of another type is refused by `instance_of`,
a non-int count by `check_int`, and a value that is no formula node, or
a wrapper below the top, by `refuse_formula`, wherever a formula is
walked; `is_fact` is the one test of a fact, and `chain_elements` the
one reader of an `and`/`or` chain, in a loop at any length, and
`rule_formula` the one reading of a rule as a classical formula.  A bad
argument to a library function (an atom outside the alphabet, traces
of unequal length) raises the built-in `ValueError`; `PptError` is the
base of the exceptions each layer declares where it raises them:
`parser.ParseError` and `RestrictionError`, `progression.BudgetExceeded`
and `transform.SccTooLarge`.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import reduce
from operator import attrgetter
from typing import Iterable, Union

__all__ = [
    "PptError", "ATOM_RE", "RESERVED_WORDS", "Atom", "validate_atom",
    "atom_tuple", "instance_of",
    "Falsum", "AtomRef", "Not", "And", "Or", "Previous", "Since", "Trigger",
    "Verum", "InitialConst", "FinalConst", "Implies", "Iff", "Always",
    "WeakNextAlways", "PastFormula", "ExtFormula",
    "FALSUM", "VERUM", "INITIAL_CONST", "FINAL_CONST", "CORE_TRUE",
    "INITIAL_EXPANSION",
    "RuleKind", "Rule", "Program",
    "is_past_formula", "positive_atoms", "atoms_of",
    "head_disjunction", "or_chain",
    "format_formula", "format_formulas", "format_nesting", "format_rule",
    "format_program",
]

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

# Keywords of the concrete syntax; an atom so named would not parse back.
RESERVED_WORDS = frozenset({
    "not", "prev", "wprev", "since", "trigger", "always_before",
    "eventually_before", "initially", "true", "false", "and", "or",
})

Atom = str


class PptError(Exception):
    """Base class of the exception types this package defines."""


def validate_atom(name: str) -> str:
    """Check that `name` is a legal atom identifier and return it."""
    if not isinstance(name, str) or not ATOM_RE.match(name):
        raise ValueError(f"invalid atom name: {name!r}")
    if name in RESERVED_WORDS:
        raise ValueError(f"reserved word {name!r} cannot be used as an atom")
    return name


def atom_tuple(value: Iterable[Atom], what: str) -> tuple[Atom, ...]:
    """The atoms of `value` in their given order, each checked by
    `validate_atom`; a string `value` is then refused as `what`.

    The names are checked in their given order and, only when one
    fails, validated again in `repr` order, so that the error names the
    same atom whatever the hash seed and valid names are never sorted;
    no traceback shows the first failure, as its atom may follow it.
    """
    names = tuple(value)
    try:
        for name in names:
            validate_atom(name)
    except ValueError:
        for name in sorted(names, key=repr):
            try:
                validate_atom(name)
            except ValueError as error:
                raise error from None
    if isinstance(value, str):
        raise ValueError(f"{what} is a collection of atoms, not a string")
    return names


def instance_of(value, cls: type, what: str):
    """`value` when it is a `cls`; anything else is refused as `what`."""
    if not isinstance(value, cls):
        raise ValueError(f"{what} must be a {cls.__name__}, not {value!r}")
    return value


def check_int(value, what: str) -> int:
    """`value` when it is an int and no bool; else refused as `what`."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an int, not {value!r}")
    return value


def refuse_formula(value):
    """Refuse `value`, met where a formula node is read: a wrapper as
    below the top of a formula, anything else as no formula."""
    tp = type(value)
    if tp is Always or tp is WeakNextAlways:
        raise ValueError(
            f"cannot evaluate {tp.__name__} below the top of a formula")
    raise ValueError(f"not a formula: {value!r}")


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------

class Value:
    """The methods of every frozen value class of `ppt`, written once.

    `==` holds between two instances of one class whose compared fields
    (`__match_args__`: every field but those a class names in
    `_derived`) are equal as tuples (so an identical pair of fields is
    not compared again), `hash` is the hash of that tuple, and `repr`
    names the class and those fields, as a frozen dataclass would.  A
    node that heads a left run of its own class compares and hashes by
    the run's elements instead, and prints the same text in a loop
    (`_node`).  Assigning or deleting an attribute raises the
    `FrozenInstanceError` of `dataclasses`, imported only then, so
    a class's own `__init__` checks its arguments and then stores its
    fields with `__setstate__`, which calls the `__set__` of each
    field's slot descriptor, bound once per class in `_setters`; the
    `__init__` of a node or a `Program` calls those setters itself.
    Pickling and copying carry every field, derived ones too, and call
    no `__init__` but a binary node's (`_node`).
    """

    __slots__ = ()
    _derived = ()

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            return cls._key(self) == cls._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return [getattr(self, name) for name in self._state]

    def __setstate__(self, state):
        for set_field, value in zip(self._setters, state):
            set_field(self, value)


def value_class(cls):
    """Declare `cls`, a subclass of `Value`, a frozen value class.

    Its fields are the names its own annotations declare, in order.  The
    class is rebuilt with its fields as `__slots__`, as
    `dataclass(slots=True)` rebuilds one.  Then the tables the `Value`
    methods read are stored on the class: `__match_args__`, the compared
    fields, which `repr` shows and the constructor takes, `_key`, the
    function giving the tuple of their values, `_state`, every field
    name in order, and `_setters`, the `__set__` of each field's slot
    descriptor in that order.  The class writes its own `__init__`, or
    `_node` makes it.
    """
    names = tuple(cls.__annotations__)
    namespace = dict(vars(cls), __slots__=names)
    namespace.pop("__dict__", None)
    namespace.pop("__weakref__", None)
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    compared = tuple(name for name in names if name not in cls._derived)
    if len(compared) > 1:
        cls._key = attrgetter(*compared)
    elif compared:
        get = attrgetter(*compared)
        cls._key = lambda value: (get(value),)
    else:
        cls._key = lambda value: ()
    cls.__match_args__ = compared
    cls._state = names
    cls._setters = tuple(getattr(cls, name).__set__ for name in names)
    return cls


def _node(cls):
    """`value_class` of a formula node.  A node whose fields are `arg`,
    or `lhs` and `rhs`, gets an `__init__` that stores each argument
    through its field's setter in `_setters`.

    A node with `lhs` and `rhs` whose `lhs` is of its own class heads a
    left run, read by `chain_elements` in a loop: its compared tuple is
    the run's elements, first to last, its `repr` is written in one
    pass, and it pickles and copies as a left fold (`reduce`) of its
    class over those elements, so `==`, `hash`, `repr`, `pickle` and
    `copy` do not recurse on the run's length.  The text is the one
    field-by-field recursion writes."""
    cls = value_class(cls)
    if cls._state == ("arg",):
        set_arg, = cls._setters

        def __init__(self, arg):
            set_arg(self, arg)
    elif cls._state == ("lhs", "rhs"):
        set_lhs, set_rhs = cls._setters

        def __init__(self, lhs, rhs):
            set_lhs(self, lhs)
            set_rhs(self, rhs)

        def _key(self):
            lhs = self.lhs
            if type(lhs) is not cls:
                return lhs, self.rhs
            return tuple(chain_elements(self, cls))

        def __repr__(self):
            parts = chain_elements(self, cls)
            return (f"{cls.__qualname__}(lhs=" * (len(parts) - 1)
                    + repr(parts[0])
                    + "".join([f", rhs={g!r})" for g in parts[1:]]))

        def __reduce__(self):
            return reduce, (cls, tuple(chain_elements(self, cls)))
        cls._key = _key
        cls.__repr__ = __repr__
        cls.__reduce__ = __reduce__
    else:
        return cls
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = __init__
    return cls


# ---------------------------------------------------------------------------
# Formula nodes
# ---------------------------------------------------------------------------

@_node
class Falsum(Value):
    """The constant false."""


@_node
class AtomRef(Value):
    """An atom occurrence."""

    name: Atom

    def __init__(self, name: Atom) -> None:
        _set_name(self, validate_atom(name))


@_node
class Not(Value):
    """Negation: the argument is false on the total trace."""

    arg: "PastFormula"


@_node
class And(Value):
    """Conjunction."""

    lhs: "PastFormula"
    rhs: "PastFormula"


@_node
class Or(Value):
    """Disjunction."""

    lhs: "PastFormula"
    rhs: "PastFormula"


@_node
class Previous(Value):
    """True when the argument held at the preceding point; false at point 0."""

    arg: "PastFormula"


@_node
class Since(Value):
    """lhs has held ever since a point where rhs held."""

    lhs: "PastFormula"
    rhs: "PastFormula"


@_node
class Trigger(Value):
    """rhs has held from the start, or since just after lhs last held."""

    lhs: "PastFormula"
    rhs: "PastFormula"


# Extended connectives for the compiler output language.

@_node
class Verum(Value):
    """The constant true; rule bodies spell it `not false`."""


@_node
class InitialConst(Value):
    """Constant true exactly at the first point of a trace; prints as ``I``.

    Rule bodies spell it `not prev not false` (`INITIAL_EXPANSION`).
    """


@_node
class FinalConst(Value):
    """Constant true exactly at the last point of a trace."""


@_node
class Implies(Value):
    """Classical implication, in compiler output only."""

    lhs: "ExtFormula"
    rhs: "ExtFormula"


@_node
class Iff(Value):
    """Classical biconditional, in compiler output only."""

    lhs: "ExtFormula"
    rhs: "ExtFormula"


@_node
class Always(Value):
    """The argument holds from the evaluation point to the end of the trace."""

    arg: "ExtFormula"


@_node
class WeakNextAlways(Value):
    """The argument holds at every point strictly after the evaluation point."""

    arg: "ExtFormula"


_set_name, = AtomRef._setters

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

# Places in a walk of a body, strongest first.  `and` keeps its place;
# `or`, `since` and `trigger` leave the top conjunction spine, `prev`
# the present and `not` the positive part.
_SPINE, _PRESENT, _PAST, _NEGATED = 3, 2, 1, 0


def _walk(f) -> tuple[set[Atom], set[Atom], set[Atom], bool]:
    """The atoms of a core past formula, its positive atoms (under no
    `not`), its positive present atoms (under no `prev` as well), and
    whether it is a conjunction of regular literals: atoms, negated
    atoms and `not false`, the image of an empty body, so that
    re-parsing a formatted restricted body keeps its status.  Raises
    `ValueError` on the first node outside the core language."""
    names, positive, present = set(), set(), set()
    literal = True
    stack = [(f, _SPINE)]
    while stack:
        node, place = stack.pop()
        tp = type(node)
        if place == _SPINE and tp is not And and tp is not AtomRef:
            literal &= tp is Not and type(node.arg) in (AtomRef, Falsum)
        if tp is AtomRef:
            names.add(node.name)
            if place >= _PAST:
                positive.add(node.name)
            if place >= _PRESENT:
                present.add(node.name)
        elif tp is And:
            stack.append((node.lhs, place))
            stack.append((node.rhs, place))
        elif tp is Not:
            stack.append((node.arg, _NEGATED))
        elif tp is Previous:
            stack.append((node.arg, min(place, _PAST)))
        elif tp is Or or tp is Since or tp is Trigger:
            stack.append((node.lhs, min(place, _PRESENT)))
            stack.append((node.rhs, min(place, _PRESENT)))
        elif tp is not Falsum:
            raise ValueError(f"not a core past formula: {node!r}")
    return names, positive, present, literal


def is_past_formula(f) -> bool:
    """True when `f` uses only the core past connectives."""
    try:
        _walk(f)
    except ValueError:
        return False
    return True


def positive_atoms(f: PastFormula, present_only: bool = False) -> frozenset[Atom]:
    """Atoms with an occurrence in a core formula under no negation.

    These are the paper's positive occurrences, whatever the number of
    enclosing negations.  With `present_only` the occurrence must also
    be under no Previous node: the present and positive occurrences that
    a rule keeps as `Rule.positive_present`.  Raises `ValueError` on a node
    outside the core language anywhere in `f`, under a negation too.
    """
    _, positive, present, _ = _walk(f)
    return frozenset(present if present_only else positive)


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------

class RuleKind(Enum):
    INITIAL = "initial"
    DYNAMIC = "dynamic"
    FINAL = "final"


@value_class
class Rule(Value):
    """One past-present rule.

    The head is an ordered atom disjunction; an empty head denotes a
    constraint.  Initial and final rule bodies must be conjunctions of
    regular literals; dynamic bodies may be any core past formula.
    Final rules never have a head.  Within a program a rule is named by
    its index in `Program.rules`.

    `atoms` (of head and body) and `positive_present` (the body atoms
    under no `not` and no `prev`) come from the one walk of the body
    that also refuses a non-core node and decides the restriction of
    initial and final bodies; neither takes part in `repr`, `==`, `hash`.
    """

    kind: RuleKind
    head: tuple[Atom, ...]
    body: PastFormula
    atoms: frozenset[Atom]
    positive_present: frozenset[Atom]
    _derived = ("atoms", "positive_present")

    def __init__(self, kind: RuleKind, head: Iterable[Atom],
                 body: PastFormula) -> None:
        instance_of(kind, RuleKind, "a rule kind")
        head = atom_tuple(head, "a rule head")
        try:
            names, _, present, literal = _walk(body)
        except ValueError:
            raise ValueError("rule body must be a core past formula") from None
        if kind is RuleKind.FINAL and head:
            raise ValueError("final rules cannot have a head")
        if kind is not RuleKind.DYNAMIC and not literal:
            raise ValueError(
                f"{kind.value} rule bodies must be conjunctions of regular literals")
        names.update(head)
        self.__setstate__(
            (kind, head, body, frozenset(names), frozenset(present)))


@value_class
class Program(Value):
    """An ordered list of rules plus the ambient alphabet.

    The alphabet defaults to the atoms occurring in the rules and may be
    widened explicitly; it can never be narrower than the occurring
    atoms.
    """

    rules: tuple[Rule, ...]
    alphabet: frozenset[Atom]

    def __init__(self, rules: Iterable[Rule],
                 alphabet: Iterable[Atom] | None = None) -> None:
        set_rules, set_alphabet = self._setters
        set_rules(self, tuple(
            instance_of(r, Rule, "a program rule") for r in rules))
        occurring = atoms_of(self)
        if alphabet is None:
            alphabet = occurring
        else:
            alphabet = frozenset(atom_tuple(alphabet, "an alphabet"))
            if not occurring <= alphabet:
                missing = ", ".join(sorted(occurring - alphabet))
                raise ValueError(f"alphabet is missing occurring atoms: {missing}")
        set_alphabet(self, alphabet)

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
    return frozenset().union(*(r.atoms for r in p.rules))


def or_chain(parts: Iterable) -> object:
    """Left-associated disjunction of `parts`; `FALSUM` when there are none."""
    out = None
    for part in parts:
        out = part if out is None else Or(out, part)
    return FALSUM if out is None else out


def is_fact(rule: Rule) -> bool:
    """Whether `rule` is a head under the body `not false` (`CORE_TRUE`)."""
    body = rule.body
    return bool(rule.head) and type(body) is Not and type(body.arg) is Falsum


def head_disjunction(rule: Rule) -> ExtFormula:
    """The head read as a formula; false for constraints."""
    return or_chain([AtomRef(a) for a in rule.head])


def rule_formula(rule: Rule) -> ExtFormula:
    """One rule read as a classical formula, wrapped where it applies."""
    if rule.kind is RuleKind.FINAL:
        return Always(Implies(FINAL_CONST, Implies(rule.body, FALSUM)))
    head = head_disjunction(rule)
    core: ExtFormula = head if is_fact(rule) else Implies(rule.body, head)
    if rule.kind is RuleKind.DYNAMIC:
        return WeakNextAlways(core)
    return core


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

_UNARY_KEYWORD = {Not: "not", Previous: "prev"}
_CONSTANT_TEXT = {Falsum: "false", Verum: "true", InitialConst: "I",
                  FinalConst: "F"}
_WRAPPER_KEYWORD = {Always: "always", WeakNextAlways: "wnext_always"}


def format_formula(f) -> str:
    """Canonical text of a formula.

    Core formulas re-parse to the same structure; extended connectives
    print in the ASCII output dialect (``I``, ``F``, ``->``, ``<->``,
    ``always(...)``, ``wnext_always(...)``) and are not re-parseable.
    """
    return format_formulas([f])[0]


def format_formulas(fs: Iterable) -> list[str]:
    """`format_formula` of each formula, in order.

    A conjunction or disjunction object that sits as an element of a
    conjunction or disjunction chain is rendered once per call and
    context, however many formulas share it: the compiler shares its
    support terms there.  An atom element is written inline in the chain
    loop.  The memo is keyed by object identity and context and holds
    each object it keys, so no identity is reused while it lives.
    """
    memo: dict = {}
    return [_render(f, 0, memo) for f in fs]


def _render(f, ctx: int, memo: dict) -> str:
    tp = type(f)
    if tp is AtomRef:
        return f.name
    if tp in _CONSTANT_TEXT:
        return _CONSTANT_TEXT[tp]
    if tp in _WRAPPER_KEYWORD:
        return f"{_WRAPPER_KEYWORD[tp]}({_render(f.arg, 0, memo)})"
    if tp in _UNARY_KEYWORD:
        text = f"{_UNARY_KEYWORD[tp]} {_render(f.arg, _PREC_UNARY, memo)}"
        return _wrap(text, _PREC_UNARY, ctx)
    if tp is Since or tp is Trigger:
        word = "since" if tp is Since else "trigger"
        return (f"({_render(f.lhs, _PREC_UNARY, memo)} {word} "
                f"{_render(f.rhs, _PREC_UNARY, memo)})")
    if tp is And or tp is Or:
        # A left-nested chain prints without parentheses, so its elements
        # are read off the spine in a loop and long bodies need no
        # recursion on length.  Every element renders one level above the
        # chain's own, as `_nesting` counts it: the two levels differ only
        # for a node of the chain's connective, and the spine leaves none
        # as an element.  An atom is written inline, and a conjunction or
        # disjunction rendered once per (object, context).
        prec = _PREC_AND if tp is And else _PREC_OR
        inner = prec + 1
        parts = []
        for g in chain_elements(f, tp):
            tg = type(g)
            if tg is AtomRef:
                parts.append(g.name)
            elif tg is And or tg is Or:
                key = (id(g), inner)
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = (g, _render(g, inner, memo))
                parts.append(hit[1])
            else:
                parts.append(_render(g, inner, memo))
        return _wrap((" and " if tp is And else " or ").join(parts), prec, ctx)
    if tp is Implies or tp is Iff:
        arrow = "->" if tp is Implies else "<->"
        text = (f"{_render(f.lhs, _PREC_IMPL + 1, memo)} {arrow} "
                f"{_render(f.rhs, _PREC_IMPL + 1, memo)}")
        return _wrap(text, _PREC_IMPL, ctx)
    refuse_formula(f)


def _wrap(text: str, prec: int, ctx: int) -> str:
    return f"({text})" if prec < ctx else text


def format_nesting(f) -> int:
    """Levels of nesting in `format_formula(f)` of a core formula, as the
    parser counts them: a unary operator, a since or trigger inside its
    parentheses, and any other pair of parentheses each count one.  A
    node outside the core language raises `ValueError`."""
    return _nesting(f, 0)


def _nesting(f, ctx: int) -> int:
    # Follows `_render`, which puts parentheses where it does: every
    # element of a chain is counted one level above the chain's own.
    tp = type(f)
    if tp is Not or tp is Previous:
        return 1 + _nesting(f.arg, _PREC_UNARY)
    if tp is Since or tp is Trigger:
        return 1 + max(_nesting(f.lhs, _PREC_UNARY),
                       _nesting(f.rhs, _PREC_UNARY))
    if tp is And or tp is Or:
        prec = _PREC_AND if tp is And else _PREC_OR
        return (max([_nesting(g, prec + 1) for g in chain_elements(f, tp)])
                + (prec < ctx))
    if tp is AtomRef or tp is Falsum:
        return 0
    raise ValueError(f"not a core past formula: {f!r}")


def chain_elements(f, tp) -> list:
    """The elements of the left run of `tp` nodes at f, first to last,
    read in a loop at any length: [f] when f is no `tp` node.  `tp` is
    any node class with `lhs` and `rhs`; for `And` and `Or` this is the
    chain the printer writes without parentheses."""
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
    disjuncts = chain_elements(body, Or)
    rendered = []
    memo: dict = {}
    for d in disjuncts:
        conjuncts = chain_elements(d, And)
        rendered.append(", ".join(_render(c, _PREC_TEMPORAL, memo)
                                  for c in conjuncts))
    return "; ".join(rendered)


def format_rule(rule: Rule) -> str:
    """Canonical one-line text of a rule (without its section directive)."""
    head_text = " | ".join(rule.head)
    if is_fact(rule):
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
