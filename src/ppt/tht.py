"""Here-and-there semantics over finite traces.

Satisfaction is evaluated over HT-traces, pairs <H, T> of equal-length
traces with H_k a subset of T_k at every point.  Negation always
evaluates its argument on the total trace <T, T>; previous is false at
point 0; since and trigger quantify over points up to the evaluation
point.  On total traces the semantics collapses to the classical one.
Rule checks read each rule through its classical formula
(`transform.rule_formula`), required on both sides.

A total trace T over the program's alphabet is a temporal stable model
of the program when <T, T> is a model and no strictly smaller H yields
a model <H, T>; `enumerate_ts_models` finds them with the search of
`ppt.progression`.

The checks of one given trace evaluate formulas to time bitmasks (bit k
set when the formula holds at point k), with since/trigger computed by
their one-step recurrences: bit-parallel over the points of one trace,
where the search is bit-parallel over candidate states.  The
three-valued valuation below, by contrast, follows the quantified
min/max presentation directly, so the two routes stay structurally
independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import LengthMismatch
from .progression import DEFAULT_BUDGET, placement, search
from .syntax import (
    And, AtomRef, Falsum, FinalConst, Iff, Implies, InitialConst, Not, Or,
    Previous, Program, Rule, Since, Trigger, Verum, is_past_formula,
)
from .transform import program_as_ltlf, rule_formula

__all__ = [
    "DEFAULT_BUDGET", "Trace", "HTTrace",
    "ht_sat", "formula_sat", "rule_sat", "is_ht_model",
    "enumerate_ts_models", "three_valued", "models_to_json",
]


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
        if tp is And or tp is Or:
            # The left spine of a chain is combined in a loop, innermost
            # node first, so that long chains need no recursion on length.
            spine = [f]
            f = f.lhs
            while (type(f) is And or type(f) is Or) and (id(f), total) not in memo:
                spine.append(f)
                f = f.lhs
            bits = self.eval(f, total)
            for node in reversed(spine):
                rhs = self.eval(node.rhs, total)
                bits = bits & rhs if type(node) is And else bits | rhs
                memo[(id(node), total)] = bits
            return bits
        if tp is AtomRef:
            bits = (self.t if total else self.h).get(f.name, 0)
        elif tp is Falsum:
            bits = 0
        elif tp is Not:
            bits = self.full & ~self.eval(f.arg, True)
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
        raise ValueError(
            f"cannot evaluate {tp.__name__} below the top of a formula")


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


def formula_sat(m: HTTrace, k: int, f) -> bool:
    """Satisfaction of an emitted formula at point k of an HT-trace:
    its wrapper read by `progression.placement`, the connectives below
    classical, negation reading T, and both sides required."""
    if not 0 <= k < len(m):
        raise IndexError(f"time point {k} outside [0, {len(m)})")
    ev = _evaluator(m)
    g, first, onward = placement(f)
    bits = ev.eval(g, True)
    if ev.h is not ev.t:
        bits &= ev.eval(g, False)
    j = k + first
    want = ev.full >> j << j if onward else 1 << j
    return bits & want == want


def rule_sat(m: HTTrace, rule: Rule) -> bool:
    """Satisfaction of one rule on an HT-trace, read through its formula
    (`transform.rule_formula`): initial rules at point 0, dynamic rules
    from 1 on, final rules (body false on T) at the last point."""
    return formula_sat(m, 0, rule_formula(rule))


def is_ht_model(m: HTTrace, p: Program) -> bool:
    """True when the HT-trace satisfies every rule of the program."""
    return all(formula_sat(m, 0, f) for f in program_as_ltlf(p))


# ---------------------------------------------------------------------------
# Stable-model enumeration
# ---------------------------------------------------------------------------

def enumerate_ts_models(p: Program, lam: int, *,
                        budget: int | None = None) -> set[Trace]:
    """All temporal stable models of the program at the given length,
    over its alphabet, from the search of `ppt.progression`; the budget
    bounds the 2^(n*lam) candidate traces, n the alphabet size.

    An atom no rule mentions is false in every stable model, so a wider
    alphabet, `Program(p.rules, alphabet)`, changes only the candidate
    count that the budget bounds.
    """
    return {Trace(states) for states in
            search(program_as_ltlf(p), lam, p.alphabet, budget, minimal=True)}


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
        if tp is And or tp is Or:
            # A chain's left spine is combined in a loop, as in
            # `_BitEvaluator.eval`.
            spine = [g]
            g = g.lhs
            while (type(g) is And or type(g) is Or) and (id(g), j) not in memo:
                spine.append(g)
                g = g.lhs
            out = val(g, j)
            for node in reversed(spine):
                rhs = val(node.rhs, j)
                out = min(out, rhs) if type(node) is And else max(out, rhs)
                memo[(id(node), j)] = out
            return out
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
