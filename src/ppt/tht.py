"""Here-and-there semantics over finite traces, and the classical one.

Satisfaction is evaluated over HT-traces, pairs <H, T> of equal-length
traces with H_k a subset of T_k at every point.  Negation always
evaluates its argument on the total trace <T, T>; previous is false at
point 0; since and trigger quantify over points up to the evaluation
point.  On total traces the semantics collapses to the classical one.
Rule checks read each rule through its classical formula
(`syntax.rule_formula`), required on both sides.

A trace is a tuple of frozensets of atoms, a `Trace` of
`ppt.progression`, whose search builds each model once: compare traces
with `==`, sort them with `key=Trace.to_lists`.  `Trace`, `Trace.of`
and both sides of an `HTTrace` read each state with `syntax.atom_tuple`.

A total trace T over the program's alphabet is a temporal stable model
of the program when <T, T> is a model and no strictly smaller H yields
a model <H, T>; `enumerate_ts_models` finds them with the search of
`ppt.progression`, in the canonical order it emits.

The classical side, the models of the compiler output, is this one on
total traces <T, T>, with `I` true only at the first point and `F` only
at the last: `ltlf_sat` checks one trace through `formula_sat`, and
`enumerate_ltlf_models` keeps every trace the same search finds, with no
minimality test.  Both refuse a wrapper below the top of a formula.

The checks of one given trace evaluate formulas to time bitmasks (bit k
set when the formula holds at point k), since by its one-step
recurrence and trigger by the same on complements: bit-parallel over
the points of one trace, where the search is bit-parallel over
candidate states.  The three-valued valuation below, by contrast,
follows the quantified min/max presentation directly, so the two
routes stay structurally independent.  `ht_sat` and `three_valued`
check the time point, then refuse a formula outside the core language
with `is_past_formula`, before either evaluates it.
"""

from __future__ import annotations

from typing import Iterable

from .progression import (
    Trace, check_limits, compile, compile_program, placement, search,
)
from .syntax import (
    And, AtomRef, Falsum, FinalConst, Iff, Implies, InitialConst, Not, Or,
    Previous, Program, Rule, Since, Trigger, Value, Verum, chain_elements,
    check_int, is_past_formula, refuse_formula, rule_formula, value_class,
)

__all__ = [
    "Trace", "HTTrace",
    "ht_sat", "formula_sat", "ltlf_sat", "rule_sat", "is_ht_model",
    "enumerate_ts_models", "enumerate_ltlf_models", "three_valued",
]


@value_class
class HTTrace(Value):
    """An HT-trace: here and there traces with H_k a subset of T_k,
    each side built with `Trace`."""

    h: Trace
    t: Trace

    def __init__(self, h: Iterable, t: Iterable) -> None:
        h, t = Trace(h), Trace(t)
        if len(h) != len(t):
            raise ValueError(f"here has length {len(h)}, there has length {len(t)}")
        for k, (hk, tk) in enumerate(zip(h, t)):
            if not hk <= tk:
                raise ValueError(f"H_{k} is not a subset of T_{k}")
        self.__setstate__((h, t))

    @classmethod
    def total(cls, t: Trace) -> "HTTrace":
        return cls(t, t)

    def __len__(self) -> int:
        return len(self.h)


def _trace_bits(trace: Trace) -> dict[str, int]:
    bits: dict[str, int] = {}
    for k, state in enumerate(trace):
        mask = 1 << k
        for atom in state:
            bits[atom] = bits.get(atom, 0) | mask
    return bits


# ---------------------------------------------------------------------------
# Bitmask evaluation
# ---------------------------------------------------------------------------

class _BitEvaluator:
    """Evaluates a formula to a bitmask over time points.

    `eval(f, total)` returns an int whose bit k is the satisfaction of f
    at point k; `total` selects evaluation on <T, T> instead of <H, T>.
    Negation always recurses on the total side; the other extended
    connectives are classical on either side.  The wrappers `always`
    and `wnext_always` are read by `formula_sat`, not evaluated here.
    The memo holds each formula it keys by `id`, so no key goes stale.
    """

    __slots__ = ("h", "t", "lam", "full", "memo")

    def __init__(self, h_bits: dict[str, int], t_bits: dict[str, int],
                 lam: int):
        self.h = h_bits
        self.t = t_bits
        self.lam = lam
        self.full = (1 << lam) - 1
        self.memo = {}

    def eval(self, f, total: bool) -> int:
        key = (id(f), total)
        memo = self.memo
        hit = memo.get(key)
        if hit is not None:
            return hit[1]
        tp = type(f)
        if tp is And:
            # A chain is read by `chain_elements`, with no recursion on length.
            bits = self.full
            for g in chain_elements(f, And):
                bits &= self.eval(g, total)
        elif tp is Or:
            bits = 0
            for g in chain_elements(f, Or):
                bits |= self.eval(g, total)
        elif tp is AtomRef:
            bits = (self.t if total else self.h).get(f.name, 0)
        elif tp is Falsum:
            bits = 0
        elif tp is Not:
            bits = self.full & ~self.eval(f.arg, True)
        elif tp is Previous:
            bits = (self.eval(f.arg, total) << 1) & self.full
        elif tp is Since or tp is Trigger:
            # On one side, trigger is the pointwise dual of since: the
            # since recurrence on complemented arguments, complemented.
            flip = 0 if tp is Since else self.full
            a = self.eval(f.lhs, total) ^ flip
            b = self.eval(f.rhs, total) ^ flip
            bits = 0
            cur = 0
            for k in range(self.lam):
                cur = ((b >> k) | ((a >> k) & cur)) & 1
                bits |= cur << k
            bits ^= flip
        elif tp is Verum:
            bits = self.full
        elif tp is InitialConst:
            bits = 1
        elif tp is FinalConst:
            bits = 1 << (self.lam - 1)
        elif tp is Implies:
            bits = self.full & (~self.eval(f.lhs, total) | self.eval(f.rhs, total))
        elif tp is Iff:
            bits = self.full & ~(self.eval(f.lhs, total) ^ self.eval(f.rhs, total))
        else:
            refuse_formula(f)
        memo[key] = (f, bits)
        return bits


def evaluator(m: HTTrace) -> _BitEvaluator:
    """A bit evaluator of m.  Shared with `run_semantics_suite`, but no
    part of the interface (`__all__`)."""
    t_bits = _trace_bits(m.t)
    h_bits = t_bits if m.h == m.t else _trace_bits(m.h)
    return _BitEvaluator(h_bits, t_bits, len(m))


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def _check_point(m: HTTrace, k: int) -> None:
    if not 0 <= check_int(k, "time point") < len(m):
        raise IndexError(f"time point {k} outside [0, {len(m)})")


def ht_sat(m: HTTrace, k: int, f) -> bool:
    """Satisfaction of a core past formula at point k of an HT-trace;
    the point is checked before the formula, as by `three_valued`."""
    _check_point(m, k)
    if not is_past_formula(f):
        raise ValueError("ht_sat only accepts core past formulas")
    ev = evaluator(m)
    return bool(ev.eval(f, ev.h is ev.t) >> k & 1)


def formula_sat(m: HTTrace, k: int, f) -> bool:
    """Satisfaction of an emitted formula at point k of an HT-trace:
    its wrapper read by `progression.placement`, the connectives below
    classical, negation reading T, and both sides required."""
    _check_point(m, k)
    return _holds(evaluator(m), k, f)


def ltlf_sat(t: Trace, k: int, f) -> bool:
    """Satisfaction of an extended formula at point k of a total trace."""
    return formula_sat(HTTrace.total(t), k, f)


def _holds(ev: _BitEvaluator, k: int, f) -> bool:
    g, first, onward = placement(f)
    bits = ev.eval(g, True)
    if ev.h is not ev.t:
        bits &= ev.eval(g, False)
    j = k + first
    want = ev.full >> j << j if onward else 1 << j
    return bits & want == want


def rule_sat(m: HTTrace, rule: Rule) -> bool:
    """Satisfaction of one rule on an HT-trace, read through its formula
    (`syntax.rule_formula`): initial rules at point 0, dynamic rules
    from 1 on, final rules (body false on T) at the last point."""
    return formula_sat(m, 0, rule_formula(rule))


def is_ht_model(m: HTTrace, p: Program) -> bool:
    """True when the HT-trace satisfies every rule of the program."""
    ev = evaluator(m)
    return all(_holds(ev, 0, rule_formula(r)) for r in p.rules)


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------

def enumerate_ts_models(p: Program, lam: int, *,
                        budget: int | None = None) -> tuple[Trace, ...]:
    """All temporal stable models of the program at the given length,
    over its alphabet, in canonical order (each state read as its sorted
    tuple of atoms), from `progression.search` of `compile_program(p)`;
    the budget bounds the work units of its cost model.

    An atom no rule mentions is false in every stable model, so a wider
    alphabet, `Program(p.rules, alphabet)`, gives the same models at the
    cost of 2^n-state passes over a larger n.
    """
    return search(compile_program(p), lam, budget)


def enumerate_ltlf_models(fs: Iterable, lam: int, alphabet,
                          budget: int | None = None) -> tuple[Trace, ...]:
    """All total traces over the alphabet satisfying every formula at 0,
    in canonical order.  The length and budget are checked before the
    formulas are compiled."""
    check_limits(lam, budget)
    return search(compile(fs, alphabet), lam, budget)


# ---------------------------------------------------------------------------
# Three-valued valuation
# ---------------------------------------------------------------------------

def three_valued(m: HTTrace, k: int, f) -> int:
    """Truth value in {0, 1, 2} of a core past formula at point k.

    2 corresponds to satisfaction on <H, T>, any nonzero value to
    satisfaction on <T, T>.  Conjunction and disjunction are min and
    max; since and trigger follow the quantified min/max presentation.
    """
    _check_point(m, k)
    if not is_past_formula(f):
        raise ValueError("three_valued only accepts core past formulas")
    return _three_valued(m, f, k, {})


def _three_valued(m: HTTrace, g, j: int,
                  memo: dict[tuple[int, int], int]) -> int:
    # `three_valued` of g at point j, memoised by (id(g), j) for one call.
    # Module-level, as a recursive closure is a reference cycle.
    key = (id(g), j)
    hit = memo.get(key)
    if hit is not None:
        return hit
    tp = type(g)
    if tp is And or tp is Or:
        # A chain is read by `chain_elements`, as in `_BitEvaluator`.
        out = (min if tp is And else max)(
            [_three_valued(m, e, j, memo) for e in chain_elements(g, tp)])
    elif tp is Falsum:
        out = 0
    elif tp is AtomRef:
        if g.name in m.h[j]:
            out = 2
        elif g.name in m.t[j]:
            out = 1
        else:
            out = 0
    elif tp is Not:
        out = 2 if _three_valued(m, g.arg, j, memo) == 0 else 0
    elif tp is Previous:
        out = 0 if j == 0 else _three_valued(m, g.arg, j - 1, memo)
    elif tp is Since:
        out = max(
            min(_three_valued(m, g.rhs, i, memo),
                min((_three_valued(m, g.lhs, x, memo)
                     for x in range(i + 1, j + 1)), default=2))
            for i in range(j + 1))
    else:  # Trigger: `is_past_formula` admitted no other node
        out = min(
            max(_three_valued(m, g.rhs, i, memo),
                max((_three_valued(m, g.lhs, x, memo)
                     for x in range(i + 1, j + 1)), default=0))
            for i in range(j + 1))
    memo[key] = out
    return out
