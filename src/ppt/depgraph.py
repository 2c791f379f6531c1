"""Positive dependency graphs, loops and tightness.

An edge (a, b) records that some rule can derive a from a positive,
present occurrence of b: a is in the rule head and b occurs in the body
outside every negation and outside every `prev`.  Initial and dynamic
sections have separate graphs; final rules have no heads and therefore
no graph of their own.

A loop is a nonempty atom set whose induced subgraph is strongly
connected, returned as a frozenset of atoms; its section is that of
its graph.  In the default regime singleton loops additionally need a
self-edge, while the unitary regime admits every singleton.  A program
is tight when neither section graph has a loop in the default regime,
that is neither a self-edge nor a strongly connected component of two
or more atoms (such a component is itself a loop).

Loop enumeration tries every subset of a component, so it refuses
components larger than the fixed `SCC_CAP`; tightness needs no
enumeration and has no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MixedSection, SccTooLarge
from .syntax import (
    Atom, Program, Rule, RuleKind, classify_occurrences, PRESENT,
)

__all__ = [
    "SCC_CAP", "DepGraph", "dependency_graph", "section_graphs",
    "enumerate_loops", "is_tight",
]

SCC_CAP = 20


@dataclass(frozen=True, slots=True)
class DepGraph:
    vertices: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]
    section: RuleKind | None = None

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise ValueError(f"edge ({a}, {b}) leaves the vertex set")


def dependency_graph(rules: Sequence[Rule], alphabet: Iterable[Atom] | None = None,
                     section: RuleKind | None = None) -> DepGraph:
    """Positive dependency graph of a single-section rule set.

    Vertices default to the atoms occurring in the rules; pass the
    program alphabet to make them the full alphabet.
    """
    kinds = {r.kind for r in rules}
    if len(kinds) > 1:
        names = ", ".join(sorted(k.value for k in kinds))
        raise MixedSection(f"rules come from multiple sections: {names}")
    if section is None and kinds:
        section = next(iter(kinds))

    vertices: set[Atom] = set() if alphabet is None else set(alphabet)
    edges: set[tuple[Atom, Atom]] = set()
    for rule in rules:
        vertices.update(rule.head)
        occurrences = classify_occurrences(rule.body)
        vertices.update(occ.atom for occ in occurrences)
        # Occurrences with zero enclosing negations are positive; only
        # those, and only present ones, support a derivation.
        supports = {occ.atom for occ in occurrences
                    if occ.presentness == PRESENT and not occ.negated}
        for head_atom in rule.head:
            for body_atom in supports:
                edges.add((head_atom, body_atom))
    return DepGraph(frozenset(vertices), frozenset(edges), section)


def section_graphs(p: Program) -> tuple[DepGraph, DepGraph]:
    """The initial and dynamic graphs of a program, over its alphabet."""
    return (dependency_graph(p.initial, p.alphabet, RuleKind.INITIAL),
            dependency_graph(p.dynamic, p.alphabet, RuleKind.DYNAMIC))


def _successors(g: DepGraph) -> dict[Atom, list[Atom]]:
    succ: dict[Atom, list[Atom]] = {v: [] for v in sorted(g.vertices)}
    for a, b in sorted(g.edges):
        succ[a].append(b)
    return succ


def _tarjan_sccs(succ: dict[Atom, list[Atom]]) -> list[list[Atom]]:
    # Iterative Tarjan; components come out in a deterministic order.
    index: dict[Atom, int] = {}
    lowlink: dict[Atom, int] = {}
    on_stack: set[Atom] = set()
    stack: list[Atom] = []
    counter = 0
    sccs: list[list[Atom]] = []

    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    advanced = True
                    break
                if w in on_stack:
                    lowlink[v] = min(lowlink[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    component.append(w)
                    if w == v:
                        break
                sccs.append(sorted(component))
    return sccs


def _strongly_connected(subset: tuple[Atom, ...],
                        succ: dict[Atom, list[Atom]],
                        pred: dict[Atom, list[Atom]]) -> bool:
    members = set(subset)
    start = subset[0]

    def reach(adj: dict[Atom, list[Atom]]) -> set[Atom]:
        seen = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w in members and w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen

    return reach(succ) == members and reach(pred) == members


def enumerate_loops(g: DepGraph,
                    unitary: bool = False) -> tuple[frozenset[Atom], ...]:
    """All loops of a graph as atom sets, in canonical order: sorted by
    their sorted atoms.

    Loops of size two or more are strongly connected subsets of a single
    SCC, which must not exceed the cap.  Singletons need a self-edge in
    the default regime and are unconditional in the unitary regime.
    """
    succ = _successors(g)
    pred: dict[Atom, list[Atom]] = {v: [] for v in succ}
    for a, b in sorted(g.edges):
        pred[b].append(a)
    sccs = _tarjan_sccs(succ)
    for component in sccs:
        if len(component) > SCC_CAP:
            raise SccTooLarge(
                f"component of size {len(component)} exceeds cap {SCC_CAP}")
    self_edges = {a for a, b in g.edges if a == b}
    loops = [frozenset((vertex,))
             for vertex in sorted(g.vertices)
             if unitary or vertex in self_edges]
    for component in sccs:
        if len(component) < 2:
            continue
        for mask in range(3, 1 << len(component)):
            subset = tuple(component[j] for j in range(len(component))
                           if mask >> j & 1)
            if len(subset) < 2:
                continue
            if _strongly_connected(subset, succ, pred):
                loops.append(frozenset(subset))
    return tuple(sorted(loops, key=sorted))


def is_tight(p: Program) -> bool:
    """True when neither section graph has a loop (default regime)."""
    for g in section_graphs(p):
        if any(a == b for a, b in g.edges):
            return False
        if any(len(c) > 1 for c in _tarjan_sccs(_successors(g))):
            return False
    return True
