"""Brute-force references for both sides of the correspondence.

`brute_force_ts_models` tests every total trace over the alphabet for
modelhood, and each model for minimality against every strictly smaller
here-trace (pointwise subsets), short-circuiting on the first smaller
model found.  It reads rules from their heads and bodies (`rules_hold`),
independently of `ppt.transform.rule_formula`, through which the
package reads them.

`brute_force_ltlf_models` tests every total trace against lists of
emitted formulas, reading the `always` and `wnext_always` wrappers
itself rather than through `ppt.progression.placement`.

Both share the bitmask evaluator with `ppt.tht` but none of the
state-by-state search of `ppt.progression`, which they check.

`external_support_by_definition` writes the external support of a loop
straight from the paper, with no index and no memo, for the compiler's
shared support terms to be checked against.  `completion_by_definition`
writes the temporal completion the same way, with no index, fresh
`AtomRef`s and the constraints read from each rule's head and body
rather than through `rule_formula`, for `sourced_completion`.

`tokens_by_match` tokenizes by matching one token at a time, for the
parser's two whole-source regex calls to be checked against.
`nesting_by_spine` counts the levels of nesting of a printed core
formula with the first element of a chain at the chain's own level and
every other element one above, for `syntax.format_nesting`, which
counts them all one above.
`core_atoms_by_definition`, `positive_present_by_definition` and
`literal_conjunction_by_definition` read a formula's nodes through
`dataclasses.fields`, for the one walk of a rule body in `syntax`.
`equal_by_fields` and `repr_by_fields` compare and print formulas by
recursion over `dataclasses.fields`, as a frozen dataclass does, for
the value classes, which read a run of one class in a loop.
"""

import dataclasses
import re

from ppt import (
    Always, And, AtomRef, BudgetExceeded, DEFAULT_BUDGET, FALSUM, FINAL_CONST,
    Falsum, HTTrace, Iff, Implies, INITIAL_CONST, Not, Or, Previous, Program,
    Rule, RuleKind, Since, Trace, Trigger, WeakNextAlways, support_transform,
)
from ppt.tht import _BitEvaluator, evaluator

# A token is the text the group captures, after any whitespace and
# comments; at a character no token starts with, the group is empty.
_TOKEN_RE = re.compile(
    r"(?:\s+|%[^\n]*)*(:-|[,;|().#]|[A-Za-z_][A-Za-z0-9_]*)?")

_CORE_TYPES = (Falsum, AtomRef, Not, And, Or, Previous, Since, Trigger)

# The printer's precedence levels (higher binds tighter).
_OR, _AND, _UNARY = 2, 3, 5


def tokens_by_match(src: str):
    """`(texts, offsets, bad)` of `src` after one leading byte-order
    mark: the token texts, ending with the empty text at the end of the
    input, and their offsets; `bad` is the offset of the first character
    no token starts with, and None when there is none."""
    src = src.removeprefix("\ufeff")
    texts, offsets = [], []
    pos = 0
    while True:
        token = _TOKEN_RE.match(src, pos)
        pos = token.end()
        if token.lastindex is None:
            break
        texts.append(token.group(1))
        offsets.append(token.start(1))
    texts.append("")
    offsets.append(pos)
    return texts, offsets, pos if pos < len(src) else None


def nesting_by_spine(f, ctx=0):
    """Levels of nesting in `format_formula(f)` of a core formula f at
    precedence `ctx`: a unary operator, a since or trigger inside its
    parentheses, and any other pair of parentheses each count one."""
    tp = type(f)
    if tp is Not or tp is Previous:
        return 1 + nesting_by_spine(f.arg, _UNARY)
    if tp is Since or tp is Trigger:
        return 1 + max(nesting_by_spine(f.lhs, _UNARY),
                       nesting_by_spine(f.rhs, _UNARY))
    if tp is And or tp is Or:
        prec = _AND if tp is And else _OR
        depth = 0
        while type(f) is tp:
            depth = max(depth, nesting_by_spine(f.rhs, prec + 1))
            f = f.lhs
        return max(depth, nesting_by_spine(f, prec)) + (prec < ctx)
    return 0


def equal_by_fields(x, y) -> bool:
    """Whether two formulas are of one class and equal in every compared
    field, by recursion over `dataclasses.fields`."""
    if type(x) is not type(y):
        return False
    if not dataclasses.is_dataclass(x):
        return x == y
    return all(equal_by_fields(getattr(x, field.name), getattr(y, field.name))
               for field in dataclasses.fields(x) if field.compare)


def repr_by_fields(x) -> str:
    """The `repr` a frozen dataclass gives a formula, by recursion over
    `dataclasses.fields`."""
    if not dataclasses.is_dataclass(x):
        return repr(x)
    shown = ", ".join(f"{field.name}={repr_by_fields(getattr(x, field.name))}"
                      for field in dataclasses.fields(x) if field.repr)
    return f"{type(x).__qualname__}({shown})"


def core_atoms_by_definition(f):
    """The set of atoms of `f` when every node of it is of a core past
    formula type, and None otherwise, read through each node's dataclass
    fields."""
    if type(f) not in _CORE_TYPES:
        return None
    if type(f) is AtomRef:
        return {f.name}
    atoms = set()
    for field in dataclasses.fields(f):
        sub = core_atoms_by_definition(getattr(f, field.name))
        if sub is None:
            return None
        atoms |= sub
    return atoms


def positive_present_by_definition(f, negated=False, past=False):
    """The atoms of a core formula with an occurrence under no `not`
    and no `prev`, read through each node's dataclass fields."""
    if type(f) is AtomRef:
        return set() if negated or past else {f.name}
    atoms = set()
    for field in dataclasses.fields(f):
        atoms |= positive_present_by_definition(
            getattr(f, field.name), negated or type(f) is Not,
            past or type(f) is Previous)
    return atoms


def literal_conjunction_by_definition(f):
    """Whether a core formula is a conjunction of regular literals: of
    atoms, negated atoms and `not false`."""
    if type(f) is And:
        return all(literal_conjunction_by_definition(getattr(f, field.name))
                   for field in dataclasses.fields(f))
    return type(f) is AtomRef or (type(f) is Not
                                  and type(f.arg) in (AtomRef, Falsum))


def external_support_by_definition(p: Program, section: RuleKind, loop):
    """The disjunction, left-nested and in program order, over the rules
    of the section whose head meets the loop, of the rule's body with
    the loop struck out, conjoined with `not h` for each head atom h
    outside the loop; false when no rule qualifies."""
    loop = frozenset(loop)
    out = None
    for r in p.rules:
        if r.kind is not section or not loop & set(r.head):
            continue
        term = support_transform(r.body, loop)
        for h in r.head:
            if h not in loop:
                term = And(term, Not(AtomRef(h)))
        out = term if out is None else Or(out, term)
    return FALSUM if out is None else out


def completion_by_definition(p: Program) -> list:
    """The temporal completion as (formula, source) pairs.

    For each alphabet atom x, in sorted order, `always(x <-> rhs)`
    sourced `atom x`.  A support of x is a rule with x in its head, in
    program order, read as its body conjoined, left-nested, with `not h`
    for each other head atom h in head order.  rhs is a plain false when
    x has no support; otherwise it is the left-nested disjunction of the
    initial supports, each as `I and support`, or of `not I and support`
    over the dynamic ones, each section's disjunction false when it has
    none.  Then each headless initial or dynamic rule i, in program
    order, sourced `rule i`: `body -> false`, under `wnext_always` when
    dynamic; then each final rule i as `always(F -> (body -> false))`.
    """
    out = []
    for x in sorted(p.alphabet):
        sides = []
        for section, guard in ((RuleKind.INITIAL, INITIAL_CONST),
                               (RuleKind.DYNAMIC, Not(INITIAL_CONST))):
            side = None
            for r in p.rules:
                if r.kind is not section or x not in r.head:
                    continue
                term = r.body
                for h in r.head:
                    if h != x:
                        term = And(term, Not(AtomRef(h)))
                term = And(guard, term)
                side = term if side is None else Or(side, term)
            sides.append(side)
        if sides == [None, None]:
            rhs = FALSUM
        else:
            rhs = Or(*(FALSUM if side is None else side for side in sides))
        out.append((Always(Iff(AtomRef(x), rhs)), f"atom {x}"))
    for final in (False, True):
        for i, r in enumerate(p.rules):
            if r.head or (r.kind is RuleKind.FINAL) is not final:
                continue
            f = Implies(r.body, FALSUM)
            if r.kind is RuleKind.DYNAMIC:
                f = WeakNextAlways(f)
            elif final:
                f = Always(Implies(FINAL_CONST, f))
            out.append((f, f"rule {i}"))
    return out


def _check_budget(n_atoms: int, lam: int, budget: int | None) -> None:
    budget = DEFAULT_BUDGET if budget is None else budget
    # The 2^e candidates exceed a budget b >= 1 exactly when
    # e >= b.bit_length(), so the count itself is never built to compare.
    exponent = n_atoms * lam
    if budget < 1 or exponent >= budget.bit_length():
        raise BudgetExceeded(
            f"2^{exponent} candidate traces exceed the budget of {budget}")


def _bits_to_trace(flat: int, atoms: tuple[str, ...], lam: int) -> Trace:
    states = []
    for k in range(lam):
        states.append(frozenset(
            atoms[j] for j in range(len(atoms)) if flat >> (j * lam + k) & 1))
    return Trace(tuple(states))


def _traces(atoms: tuple[str, ...], lam: int, budget: int | None):
    """Every trace as (flat, bits): bit j*lam + k of flat is atom j at k."""
    if lam < 1:
        raise ValueError("trace length must be at least 1")
    _check_budget(len(atoms), lam, budget)
    lam_mask = (1 << lam) - 1
    for flat in range(1 << (len(atoms) * lam)):
        yield flat, {a: (flat >> (j * lam)) & lam_mask
                     for j, a in enumerate(atoms)}


def _check_rule(ev: _BitEvaluator, rule: Rule, total_only: bool) -> bool:
    full = ev.full
    if rule.kind is RuleKind.FINAL:
        return not (ev.eval(rule.body, True) >> (ev.lam - 1)) & 1
    head_there = 0
    for atom in rule.head:
        head_there |= ev.t.get(atom, 0)
    impl = full & (~ev.eval(rule.body, True) | head_there)
    if not total_only:
        head_here = 0
        for atom in rule.head:
            head_here |= ev.h.get(atom, 0)
        impl &= full & (~ev.eval(rule.body, False) | head_here)
    if rule.kind is RuleKind.INITIAL:
        return impl & 1 == 1
    mask = full & ~1
    return impl & mask == mask


def rules_hold(m: HTTrace, p: Program) -> bool:
    """Every rule of p on the HT-trace, read from its head and body."""
    ev = evaluator(m)
    return all(_check_rule(ev, r, ev.h is ev.t) for r in p.rules)


def brute_force_ts_models(p: Program, lam: int, alphabet=None,
                          budget: int | None = None) -> set[Trace]:
    """All temporal stable models, by trying every candidate trace."""
    atoms = tuple(sorted(p.alphabet if alphabet is None else alphabet))
    rules = p.rules
    lam_mask = (1 << lam) - 1
    models: set[Trace] = set()
    for flat, t_bits in _traces(atoms, lam, budget):
        ev = _BitEvaluator(t_bits, t_bits, lam)
        if not all(_check_rule(ev, r, total_only=True) for r in rules):
            continue
        total_memo = ev.memo
        stable = True
        sub = flat
        while sub:
            sub = (sub - 1) & flat
            h_bits = {a: (sub >> (j * lam)) & lam_mask
                      for j, a in enumerate(atoms)}
            ev_h = _BitEvaluator(h_bits, t_bits, lam)
            ev_h.memo.update(total_memo)
            if all(_check_rule(ev_h, r, total_only=False) for r in rules):
                stable = False
                break
            if sub == 0:
                break
        if stable:
            models.add(_bits_to_trace(flat, atoms, lam))
    return models


def _holds_classically(ev: _BitEvaluator, f) -> bool:
    if type(f) is Always:
        return ev.eval(f.arg, True) == ev.full
    if type(f) is WeakNextAlways:
        return ev.eval(f.arg, True) | 1 == ev.full
    return ev.eval(f, True) & 1 == 1


def brute_force_ltlf_models(translations, lam: int, alphabet,
                            budget: int | None = None) -> list[set[Trace]]:
    """The total traces satisfying every formula of each list at point 0,
    one model set per list, by trying every candidate trace.

    One evaluator per trace serves all lists, so formulas they share
    are evaluated once.
    """
    atoms = tuple(sorted(alphabet))
    translations = [list(fs) for fs in translations]
    model_sets: list[set[Trace]] = [set() for _ in translations]
    for flat, t_bits in _traces(atoms, lam, budget):
        ev = _BitEvaluator(t_bits, t_bits, lam)
        for models, fs in zip(model_sets, translations):
            if all(_holds_classically(ev, f) for f in fs):
                models.add(_bits_to_trace(flat, atoms, lam))
    return model_sets
