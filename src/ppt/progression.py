"""State-by-state search for temporal stable models.

Rule heads speak only about the present and rule bodies only about the
past, so the rules that apply at point k (initial rules at 0, dynamic
rules from 1 on, final rules at the last point) read nothing beyond
T[0..k] and H[0..k].  This gives a point-local test of stability:

    Lemma.  A total trace T is a temporal stable model iff <T, T> is a
    model and no point k has an H_k strictly inside T_k such that the
    rules of point k hold on <H, T>, where H = T at every other point.

Proof.  A point-local H of that kind is itself a smaller model: the
points before k see H = T, and at a later point j a body that holds on
<H, T> also holds on <T, T> (persistence), so the head holds in
T_j = H_j.  Conversely, cut any smaller model <H', T> at the first point
k where H'_k differs from T_k; the rules of point k read only
H'[0..k], which is H restricted to that range, so they hold there.

So a prefix of T is pruned as soon as it fails modelhood at its last
point or has a smaller H_k there, and no extension of it is tried.  The
minimality test costs the sum over k of 2^|T_k| here-states instead of
2^|T| here-traces.

All rule bodies are flattened once into one post-order node array.  The
value of a node at point k depends on its children at k and on total
values at k - 1.  Values are computed as ints over candidate states: in
the total pass bit s is the value when the state at k is s, for all
2^n states at once (n = alphabet size).  Each surviving state s then
gets one here pass over the 2^|s| subsets of s, where atoms take their
values from the subset, negation reads the total values at k, and
previous, since and trigger read the total values at k - 1 (H = T
before k).  Previous is false at point 0, but the trigger carry starts
out true.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .syntax import (
    And, AtomRef, Falsum, Not, Or, Previous, Rule, RuleKind, Since, Trigger,
)

__all__ = ["stable_states"]

_FALSE, _ATOM, _NOT, _AND, _OR, _PREV, _SINCE, _TRIGGER = range(8)
_OPCODES = {Falsum: _FALSE, AtomRef: _ATOM, Not: _NOT, And: _AND, Or: _OR,
            Previous: _PREV, Since: _SINCE, Trigger: _TRIGGER}


def _flatten(bodies: Iterable, index: dict[str, int]):
    """Post-order node array for all bodies, and the slot of each body.

    A node is (opcode, a, b): the atom index in `a` for atoms, child
    slots in `a` (and `b` for binary nodes, lhs first) otherwise.
    Subformulas shared by identity get one slot.
    """
    slots: dict[int, int] = {}
    nodes: list[tuple[int, int, int]] = []
    roots = []
    for body in bodies:
        stack = [(body, False)]
        while stack:
            f, expanded = stack.pop()
            if id(f) in slots:
                continue
            op = _OPCODES[type(f)]
            if op == _ATOM:
                node = (op, index[f.name], 0)
            elif op == _FALSE:
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
        roots.append(slots[id(body)])
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


def _evaluate(nodes, atoms: list[int], full: int, before, there) -> list[int]:
    """Node values over a set of candidate states at one point.

    `before` holds the total values at the previous point, or is None at
    point 0.  `there` is None in the total pass; in a here pass it holds
    the total values at this point, which negation reads.
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
        else:
            push(0)
    return vals


def _members(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1]
    return [s for s, digit in enumerate(digits) if digit == "1"]


def stable_states(rules: tuple[Rule, ...], atoms: tuple[str, ...],
                  lam: int) -> Iterator[tuple[int, ...]]:
    """Yield every temporal stable model of length `lam` as a state tuple.

    A state is an int whose bit j is set when atoms[j] holds there.
    The alphabet must cover the atoms of the rules.
    """
    index = {name: j for j, name in enumerate(atoms)}
    nodes, roots = _flatten((r.body for r in rules), index)
    width = 1 << len(atoms)
    full = (1 << width) - 1
    atom_vecs = _atom_vectors(len(atoms), width)
    sections = {kind: [] for kind in RuleKind}
    for rule, root in zip(rules, roots):
        heads = [index[name] for name in rule.head]
        head_vec = 0
        for j in heads:
            head_vec |= atom_vecs[j]
        sections[rule.kind].append((root, heads, head_vec))
    final = [root for root, _, _ in sections[RuleKind.FINAL]]
    subset_atoms: dict[int, list[int]] = {}
    last = lam - 1

    def smaller_here_state(point_rules, s: int, before, there) -> bool:
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
        vals = _evaluate(nodes, here_atoms, here_full, before, there)
        ok = here_full >> 1
        for root, heads, _ in point_rules:
            head_vec = 0
            for j in heads:
                head_vec |= here_atoms[j]
            ok &= (here_full ^ vals[root]) | head_vec
            if not ok:
                return False
        return True

    stack: list[tuple[int, object, object]] = [(0, None, None)]
    while stack:
        k, before, prefix = stack.pop()
        point_rules = sections[RuleKind.INITIAL if k == 0 else RuleKind.DYNAMIC]
        vals = _evaluate(nodes, atom_vecs, full, before, None)
        ok = full
        for root, _, head_vec in point_rules:
            ok &= (full ^ vals[root]) | head_vec
        if k == last:
            for root in final:
                ok &= full ^ vals[root]
        for s in _members(ok):
            there = [v >> s & 1 for v in vals]
            if s and smaller_here_state(point_rules, s, before, there):
                continue
            cell = (s, prefix)
            if k < last:
                stack.append((k + 1, there, cell))
                continue
            states = []
            while cell is not None:
                states.append(cell[0])
                cell = cell[1]
            yield tuple(reversed(states))
