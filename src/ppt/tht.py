"""Here-and-there semantics over finite traces.

Satisfaction is evaluated over HT-traces, pairs <H, T> of equal-length
traces with H_k a subset of T_k at every point.  Negation always
evaluates its argument on the total trace <T, T>; previous is false at
point 0; since and trigger quantify over points up to the evaluation
point.  On total traces the semantics collapses to the classical one.

A total trace T is a temporal stable model of a program when <T, T> is
a model and no strictly smaller H yields a model <H, T>.  Since heads
speak about the present and bodies about the past, both conditions can
be tested point by point: T is stable iff <T, T> is a model and no point
k has a smaller H_k that satisfies the rules of point k while H = T at
every other point (see `ppt.progression` for the proof).  Enumeration
builds traces one state at a time on that lemma, guarded by a candidate
budget.

Internally formulas are evaluated to time bitmasks (bit k set when the
formula holds at point k), with since/trigger computed by their
one-step recurrences; the quantified forms are kept as independent test
oracles.  The three-valued valuation below, by contrast, follows the
quantified min/max presentation directly, so the two routes stay
structurally independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import BudgetExceeded, LengthMismatch
from .progression import stable_states
from .syntax import (
    Always, And, AtomRef, AlwaysBefore, EventuallyBefore, Falsum, FinalConst,
    Iff, Implies, InitialConst, Not, Or, Previous, Program, Rule, RuleKind,
    Since, Trigger, Verum, WeakNextAlways, WeakPrevious, atoms_of,
    is_past_formula, validate_atom,
)

__all__ = [
    "DEFAULT_BUDGET", "Trace", "HTTrace",
    "ht_sat", "rule_sat", "is_ht_model", "enumerate_ts_models",
    "three_valued", "models_to_json",
]

DEFAULT_BUDGET = 1 << 24


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Trace:
    """A finite trace: a nonempty sequence of atom sets."""

    states: tuple[frozenset[str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states",
                           tuple(frozenset(s) for s in self.states))
        if not self.states:
            raise ValueError("traces must have length at least 1")

    @classmethod
    def of(cls, *states: Iterable[str]) -> "Trace":
        return cls(tuple(frozenset(s) for s in states))

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k: int) -> frozenset[str]:
        return self.states[k]

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self.states)

    def to_lists(self) -> list[list[str]]:
        return [sorted(state) for state in self.states]

    def sort_key(self) -> tuple:
        return tuple(tuple(sorted(state)) for state in self.states)


@dataclass(frozen=True, slots=True)
class HTTrace:
    """An HT-trace: here and there traces with H_k a subset of T_k."""

    h: Trace
    t: Trace

    def __post_init__(self) -> None:
        if len(self.h) != len(self.t):
            raise LengthMismatch(
                f"here has length {len(self.h)}, there has length {len(self.t)}")
        for k, (hk, tk) in enumerate(zip(self.h, self.t)):
            if not hk <= tk:
                raise ValueError(f"H_{k} is not a subset of T_{k}")

    @classmethod
    def total(cls, t: Trace) -> "HTTrace":
        return cls(t, t)

    @property
    def is_total(self) -> bool:
        return self.h == self.t

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
    Negation always recurses on the total side.  Extended connectives
    are classical and therefore only admitted when the two sides
    coincide (total traces).
    """

    __slots__ = ("h", "t", "lam", "full", "memo")

    def __init__(self, h_bits: dict[str, int], t_bits: dict[str, int],
                 lam: int, memo: dict | None = None):
        self.h = h_bits
        self.t = t_bits
        self.lam = lam
        self.full = (1 << lam) - 1
        self.memo = {} if memo is None else memo

    def eval(self, f, total: bool) -> int:
        key = (id(f), total)
        memo = self.memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        tp = type(f)
        if tp is AtomRef:
            bits = (self.t if total else self.h).get(f.name, 0)
        elif tp is Falsum:
            bits = 0
        elif tp is Not:
            bits = self.full & ~self.eval(f.arg, True)
        elif tp is And:
            bits = self.eval(f.lhs, total) & self.eval(f.rhs, total)
        elif tp is Or:
            bits = self.eval(f.lhs, total) | self.eval(f.rhs, total)
        elif tp is Previous:
            bits = (self.eval(f.arg, total) << 1) & self.full
        elif tp is Since:
            a = self.eval(f.lhs, total)
            b = self.eval(f.rhs, total)
            bits = 0
            cur = 0
            for k in range(self.lam):
                cur = ((b >> k) | ((a >> k) & cur)) & 1
                bits |= cur << k
        elif tp is Trigger:
            a = self.eval(f.lhs, total)
            b = self.eval(f.rhs, total)
            bits = 0
            cur = 1
            for k in range(self.lam):
                cur = ((b >> k) & ((a >> k) | cur)) & 1
                bits |= cur << k
        else:
            bits = self._eval_extended(f, tp, total)
        memo[key] = bits
        return bits

    def _eval_extended(self, f, tp, total: bool) -> int:
        if not total and self.h is not self.t:
            raise ValueError(
                f"{tp.__name__} is only evaluated classically on total traces")
        if tp is Verum:
            return self.full
        if tp is InitialConst:
            return 1
        if tp is FinalConst:
            return 1 << (self.lam - 1)
        if tp is Implies:
            return self.full & (~self.eval(f.lhs, total) | self.eval(f.rhs, total))
        if tp is Iff:
            return self.full & ~(self.eval(f.lhs, total) ^ self.eval(f.rhs, total))
        if tp is Always:
            x = self.eval(f.arg, total)
            bits = 0
            cur = 1
            for k in range(self.lam - 1, -1, -1):
                cur &= (x >> k) & 1
                bits |= cur << k
            return bits
        if tp is WeakNextAlways:
            x = self.eval(f.arg, total)
            bits = 1 << (self.lam - 1)
            cur = 1
            for k in range(self.lam - 1, 0, -1):
                cur &= (x >> k) & 1
                bits |= cur << (k - 1)
            return bits
        if tp is WeakPrevious:
            return ((self.eval(f.arg, total) << 1) | 1) & self.full
        if tp is AlwaysBefore:
            x = self.eval(f.arg, total)
            bits = 0
            cur = 1
            for k in range(self.lam):
                cur &= (x >> k) & 1
                bits |= cur << k
            return bits
        if tp is EventuallyBefore:
            x = self.eval(f.arg, total)
            bits = 0
            cur = 0
            for k in range(self.lam):
                cur |= (x >> k) & 1
                bits |= cur << k
            return bits
        raise TypeError(f"cannot evaluate {f!r}")


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


def _evaluator(m: HTTrace) -> _BitEvaluator:
    t_bits = _trace_bits(m.t)
    h_bits = t_bits if m.h == m.t else _trace_bits(m.h)
    return _BitEvaluator(h_bits, t_bits, len(m))


# ---------------------------------------------------------------------------
# Satisfaction
# ---------------------------------------------------------------------------

def ht_sat(m: HTTrace, k: int, f) -> bool:
    """Satisfaction of a core past formula at point k of an HT-trace."""
    if not 0 <= k < len(m):
        raise IndexError(f"time point {k} outside [0, {len(m)})")
    if not is_past_formula(f):
        raise ValueError("ht_sat only accepts core past formulas")
    ev = _evaluator(m)
    return bool(ev.eval(f, ev.h is ev.t) >> k & 1)


def rule_sat(m: HTTrace, rule: Rule) -> bool:
    """Satisfaction of one rule on an HT-trace.

    Initial rules require the implication at point 0, dynamic rules at
    every point from 1 on, both on the trace itself and on its total
    counterpart.  Final rules require the body to fail on the total
    trace at the last point.
    """
    ev = _evaluator(m)
    return _check_rule(ev, rule, total_only=ev.h is ev.t)


def is_ht_model(m: HTTrace, p: Program) -> bool:
    """True when the HT-trace satisfies every rule of the program."""
    ev = _evaluator(m)
    total_only = ev.h is ev.t
    return all(_check_rule(ev, rule, total_only) for rule in p.rules)


# ---------------------------------------------------------------------------
# Stable-model enumeration
# ---------------------------------------------------------------------------

def _check_budget(n_atoms: int, lam: int, budget: int | None) -> None:
    budget = DEFAULT_BUDGET if budget is None else budget
    candidates = 1 << (n_atoms * lam)
    if candidates > budget:
        raise BudgetExceeded(
            f"{candidates} candidate traces exceed the budget of {budget}")


def _resolve_alphabet(p: Program, alphabet) -> tuple[str, ...]:
    if alphabet is None:
        names = p.alphabet
    else:
        names = frozenset(alphabet)
        for name in names:
            validate_atom(name)
        if not atoms_of(p) <= names:
            missing = ", ".join(sorted(atoms_of(p) - names))
            raise ValueError(f"alphabet does not cover program atoms: {missing}")
    return tuple(sorted(names))


def enumerate_ts_models(p: Program, lam: int, alphabet=None,
                        budget: int | None = None) -> set[Trace]:
    """All temporal stable models of the program at the given length.

    Traces are built one state at a time.  By the lemma of
    `ppt.progression`, a prefix is dropped as soon as its last point
    breaks a rule of that point on the total trace, or admits a strictly
    smaller here-state that satisfies those rules while H = T at every
    other point; no extension of such a prefix can be stable.  The
    budget still bounds the 2^(n*lam) candidate traces, n the alphabet
    size.
    """
    if lam < 1:
        raise ValueError("trace length must be at least 1")
    atoms = _resolve_alphabet(p, alphabet)
    _check_budget(len(atoms), lam, budget)
    sets: dict[int, frozenset[str]] = {}
    models: set[Trace] = set()
    for states in stable_states(p.rules, atoms, lam):
        for s in states:
            if s not in sets:
                sets[s] = frozenset(
                    a for j, a in enumerate(atoms) if s >> j & 1)
        models.add(Trace(tuple(sets[s] for s in states)))
    return models


# ---------------------------------------------------------------------------
# Three-valued valuation
# ---------------------------------------------------------------------------

def three_valued(m: HTTrace, k: int, f) -> int:
    """Truth value in {0, 1, 2} of a core past formula at point k.

    2 corresponds to satisfaction on <H, T>, any nonzero value to
    satisfaction on <T, T>.  Conjunction and disjunction are min and
    max; since and trigger follow the quantified min/max presentation.
    """
    if not 0 <= k < len(m):
        raise IndexError(f"time point {k} outside [0, {len(m)})")
    if not is_past_formula(f):
        raise ValueError("three_valued only accepts core past formulas")
    memo: dict[tuple[int, int], int] = {}

    def val(g, j: int) -> int:
        key = (id(g), j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        tp = type(g)
        if tp is Falsum:
            out = 0
        elif tp is AtomRef:
            if g.name in m.h[j]:
                out = 2
            elif g.name in m.t[j]:
                out = 1
            else:
                out = 0
        elif tp is Not:
            out = 2 if val(g.arg, j) == 0 else 0
        elif tp is And:
            out = min(val(g.lhs, j), val(g.rhs, j))
        elif tp is Or:
            out = max(val(g.lhs, j), val(g.rhs, j))
        elif tp is Previous:
            out = 0 if j == 0 else val(g.arg, j - 1)
        elif tp is Since:
            out = max(
                min(val(g.rhs, i),
                    min((val(g.lhs, x) for x in range(i + 1, j + 1)), default=2))
                for i in range(j + 1))
        elif tp is Trigger:
            out = min(
                max(val(g.rhs, i),
                    max((val(g.lhs, x) for x in range(i + 1, j + 1)), default=0))
                for i in range(j + 1))
        else:
            raise ValueError(f"not a core past formula: {g!r}")
        memo[key] = out
        return out

    return val(f, k)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def models_to_json(models: Iterable[Trace], lam: int) -> dict:
    """JSON document for a model set, traces in canonical sorted order."""
    ordered = sorted(models, key=Trace.sort_key)
    return {"length": lam, "models": [t.to_lists() for t in ordered]}
