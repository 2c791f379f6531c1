"""One state-by-state model search for both sides of the correspondence.

It reads the formulas the compiler emits: past formulas in which `I`,
`F`, `true`, `->` and `<->` are classical, under a top wrapper read by
`placement`: `always(g)` holds g at every point, `wnext_always(g)` from
point 1 on, anything else at point 0.  A past formula at point k reads
only T[0..k], so traces grow one state at a time and a prefix is pruned
as soon as a formula required at its last point fails there.  The
classical side keeps every survivor.  The stable side searches the rules
read as formulas (`transform.program_as_ltlf`), the rules of point k
being the formulas required there, and also tests minimality:

    Lemma.  A total trace T is a temporal stable model iff <T, T> is a
    model and no point k has an H_k strictly inside T_k such that the
    rules of point k hold on <H, T>, where H = T at every other point.

Proof.  Heads speak about the present and bodies about the past.  A
point-local H of that kind is itself a smaller model: the points before
k see H = T, and at a later point j a body that holds on <H, T> also
holds on <T, T> (persistence), so the head holds in T_j = H_j.
Conversely, cut any smaller model <H', T> at the first point k where
H'_k differs from T_k; the rules of point k read only H'[0..k], which is
H restricted to that range, so they hold there.

A rule `body -> head` read classically on the here side, negation
reading T, holds exactly when it holds on <H, T>, as <T, T> is a model.
The test costs the sum over k of 2^|T_k| here-states, not 2^|T|.

All formulas are flattened once into one post-order node array.  The
value of a node at point k depends on its children at k and on total
values at k - 1.  Values are computed as ints over candidate states: in
the total pass bit s is the value when the state at k is s, for all
2^n states at once (n = alphabet size).  On the stable side each
surviving state s then gets one here pass over the 2^|s| subsets of s,
where atoms take their values from the subset, negation reads the total
values at k, and previous, since and trigger read the total values at
k - 1 (H = T before k).  Previous is false at point 0, but the trigger
carry starts out true.
"""

from __future__ import annotations

from typing import Iterable

from .errors import BudgetExceeded
from .syntax import (
    Always, And, AtomRef, Falsum, FinalConst, Iff, Implies, InitialConst,
    Not, Or, Previous, Since, Trigger, Verum, WeakNextAlways, formula_atoms,
    validate_atom,
)

__all__ = ["DEFAULT_BUDGET", "placement", "search"]

DEFAULT_BUDGET = 1 << 24

(_FALSE, _TRUE, _ATOM, _NOT, _AND, _OR, _PREV, _SINCE, _TRIGGER, _INITIAL,
 _FINAL, _IMPLIES, _IFF) = range(13)
_OPCODES = {Falsum: _FALSE, Verum: _TRUE, AtomRef: _ATOM, Not: _NOT,
            And: _AND, Or: _OR, Previous: _PREV, Since: _SINCE,
            Trigger: _TRIGGER, InitialConst: _INITIAL, FinalConst: _FINAL,
            Implies: _IMPLIES, Iff: _IFF}


def placement(f) -> tuple[object, int, bool]:
    """Read the top wrapper of an emitted formula as (g, first, onward).

    g is required `first` points after the evaluation point and, when
    `onward`, at every later point too.
    """
    tp = type(f)
    if tp is Always:
        return f.arg, 0, True
    if tp is WeakNextAlways:
        return f.arg, 1, True
    return f, 0, False


def _check_budget(n_atoms: int, lam: int, budget: int | None) -> None:
    budget = DEFAULT_BUDGET if budget is None else budget
    # The 2^e candidates exceed a budget b >= 1 exactly when
    # e >= b.bit_length(), so the count itself is never built to compare.
    exponent = n_atoms * lam
    if budget < 1 or exponent >= budget.bit_length():
        raise BudgetExceeded(
            f"2^{exponent} candidate traces exceed the budget of {budget}")


def _flatten(formulas: Iterable, index: dict[str, int]):
    """Post-order node array for all formulas, and the slot of each.

    A node is (opcode, a, b): the atom index in `a` for atoms, child
    slots in `a` (and `b` for binary nodes, lhs first) otherwise.
    Subformulas shared by identity get one slot.
    """
    slots: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = []
    roots = []
    for formula in formulas:
        stack = [(formula, False)]
        while stack:
            f, expanded = stack.pop()
            if id(f) in slots:
                continue
            op = _OPCODES.get(type(f))
            if op is None:
                raise ValueError(f"cannot evaluate {type(f).__name__} "
                                 "below the top of a formula")
            if op == _ATOM:
                node = (op, index[f.name], 0)
            elif op in (_FALSE, _TRUE, _INITIAL, _FINAL):
                node = (op, 0, 0)
            elif op == _NOT or op == _PREV:
                if not expanded:
                    stack += ((f, True), (f.arg, False))
                    continue
                node = (op, slots[id(f.arg)], 0)
            else:
                if not expanded:
                    stack += ((f, True), (f.rhs, False), (f.lhs, False))
                    continue
                node = (op, slots[id(f.lhs)], slots[id(f.rhs)])
            slots[id(f)] = len(nodes)
            nodes.append(node)
        roots.append(slots[id(formula)])
    return nodes, roots


def _atom_vectors(count: int, width: int) -> list[int]:
    """Bit s of vector j is set when state s contains atom j."""
    vectors = []
    for j in range(count):
        period = 2 << j
        vec = ((1 << (1 << j)) - 1) << (1 << j)
        while period < width:
            vec |= vec << period
            period <<= 1
        vectors.append(vec)
    return vectors


def _evaluate(nodes, atoms: list[int], full: int, before, there,
              at_end: bool) -> list[int]:
    """Node values over a set of candidate states at one point.

    `before` holds the total values at the previous point, or is None at
    point 0; `at_end` says whether this is the last point.  `there` is
    None in the total pass; in a here pass it holds the total values at
    this point, which negation reads.
    """
    vals: list[int] = []
    push = vals.append
    for i, (op, a, b) in enumerate(nodes):
        if op == _AND:
            push(vals[a] & vals[b])
        elif op == _ATOM:
            push(atoms[a])
        elif op == _NOT:
            if there is None:
                push(full ^ vals[a])
            else:
                push(0 if there[a] else full)
        elif op == _OR:
            push(vals[a] | vals[b])
        elif op == _IMPLIES:
            push((full ^ vals[a]) | vals[b])
        elif op == _PREV:
            push(full if before is not None and before[a] else 0)
        elif op == _SINCE:
            if before is not None and before[i]:
                push(vals[b] | vals[a])
            else:
                push(vals[b])
        elif op == _TRIGGER:
            if before is None or before[i]:
                push(vals[b])
            else:
                push(vals[b] & vals[a])
        elif op == _IFF:
            push(full ^ vals[a] ^ vals[b])
        elif op == _INITIAL:
            push(full if before is None else 0)
        elif op == _FINAL:
            push(full if at_end else 0)
        elif op == _TRUE:
            push(full)
        else:
            push(0)
    return vals


def _members(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1]
    return [s for s, digit in enumerate(digits) if digit == "1"]


def search(formulas: Iterable, lam: int, alphabet, budget: int | None = None,
           minimal: bool = False) -> list[tuple[frozenset[str], ...]]:
    """Every trace of length `lam` over the alphabet, as a tuple of states,
    that satisfies each formula where its wrapper requires it and, with
    `minimal` (the stable side), passes the minimality test.  The budget
    bounds the 2^(n*lam) candidate traces, n the alphabet size."""
    if lam < 1:
        raise ValueError("trace length must be at least 1")
    names = frozenset(alphabet)
    for name in names:
        validate_atom(name)
    atoms = tuple(sorted(names))
    placed = [placement(f) for f in formulas]
    try:
        nodes, roots = _flatten([g for g, _, _ in placed],
                                {name: j for j, name in enumerate(atoms)})
    except KeyError:
        used = frozenset().union(*(formula_atoms(g) for g, _, _ in placed))
        missing = ", ".join(sorted(used - names))
        raise ValueError(f"alphabet does not cover atoms: {missing}") from None
    _check_budget(len(atoms), lam, budget)
    # `placement` yields first = 1 only together with onward.
    at_start = [r for r, (_, first, _) in zip(roots, placed) if not first]
    later = [r for r, (_, _, onward) in zip(roots, placed) if onward]
    width = 1 << len(atoms)
    full = (1 << width) - 1
    atom_vecs = _atom_vectors(len(atoms), width)
    subset_atoms: dict[int, list[int]] = {}
    last = lam - 1

    def smaller_here_state(required, s: int, before, there,
                           at_end: bool) -> bool:
        # Atoms of s are ranked: bit r of a subset index stands for the
        # r-th atom of s, so the subset index all-ones is s itself.
        members = [j for j in range(len(atoms)) if s >> j & 1]
        size = len(members)
        ranked = subset_atoms.get(size)
        if ranked is None:
            ranked = subset_atoms[size] = _atom_vectors(size, 1 << size)
        here_atoms = [0] * len(atoms)
        for r, j in enumerate(members):
            here_atoms[j] = ranked[r]
        here_full = (1 << (1 << size)) - 1
        vals = _evaluate(nodes, here_atoms, here_full, before, there, at_end)
        ok = here_full >> 1
        for root in required:
            ok &= vals[root]
            if not ok:
                return False
        return True

    sets: dict[int, frozenset[str]] = {}
    found = []
    stack: list[tuple[int, object, object]] = [(0, None, None)]
    while stack:
        k, before, prefix = stack.pop()
        required = later if k else at_start
        at_end = k == last
        vals = _evaluate(nodes, atom_vecs, full, before, None, at_end)
        ok = full
        for root in required:
            ok &= vals[root]
        for s in _members(ok):
            there = [v >> s & 1 for v in vals]
            if minimal and s and smaller_here_state(required, s, before,
                                                    there, at_end):
                continue
            cell = (s, prefix)
            if k < last:
                stack.append((k + 1, there, cell))
                continue
            states = []
            while cell is not None:
                state = cell[0]
                if state not in sets:
                    sets[state] = frozenset(
                        a for j, a in enumerate(atoms) if state >> j & 1)
                states.append(sets[state])
                cell = cell[1]
            found.append(tuple(reversed(states)))
    return found
