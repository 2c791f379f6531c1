"""Positive dependency graphs, loops and tightness.

An edge (a, b) records that some rule can derive a from a positive,
present occurrence of b: a is in the rule head and b is in
`positive_atoms(body, present_only=True)`, that is b occurs in the body
outside every negation and outside every `prev`.  A graph belongs to
one section of one program: its vertices are the program alphabet and
its edges come from the rules of that section.  Initial and dynamic
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

from .errors import SccTooLarge
from .syntax import Atom, Program, RuleKind, positive_atoms

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
        if isinstance(self.vertices, str):
            raise ValueError("a vertex set is a collection of atoms, not a string")
        vertices = frozenset(self.vertices)
        edges = []
        for edge in self.edges:
            if isinstance(edge, str) or len(edge) != 2:
                raise ValueError(f"edge {edge!r} is not a pair of atoms")
            a, b = edge
            if a not in vertices or b not in vertices:
                raise ValueError(f"edge ({a}, {b}) leaves the vertex set")
            edges.append((a, b))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(edges))


def dependency_graph(p: Program, section: RuleKind) -> DepGraph:
    """Positive dependency graph of one section of a program, over its alphabet."""
    edges: set[tuple[Atom, Atom]] = set()
    for rule in p.rules:
        if rule.kind is section:
            supports = positive_atoms(rule.body, present_only=True)
            edges.update((h, b) for h in rule.head for b in supports)
    return DepGraph(p.alphabet, frozenset(edges), section)


def section_graphs(p: Program) -> tuple[DepGraph, DepGraph]:
    """The initial and dynamic graphs of a program."""
    return (dependency_graph(p, RuleKind.INITIAL),
            dependency_graph(p, RuleKind.DYNAMIC))


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


def _closure(start: int, adj: list[int], members: int) -> int:
    # The vertices of `members` reachable from the bit `start` along `adj`.
    seen = frontier = start
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & members & ~seen
        seen |= frontier
    return seen


def enumerate_loops(g: DepGraph,
                    unitary: bool = False) -> tuple[frozenset[Atom], ...]:
    """All loops of a graph as atom sets, in canonical order: sorted by
    their sorted atoms.

    Loops of size two or more are strongly connected subsets of a single
    SCC, which must not exceed the cap.  Singletons need a self-edge in
    the default regime and are unconditional in the unitary regime.
    Within a component of n atoms, a subset is an n-bit mask and each
    atom's successors and predecessors in the component are masks too:
    a subset is strongly connected when its lowest atom reaches all of
    it both forwards and backwards.
    """
    succ = _successors(g)
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
        position = {atom: j for j, atom in enumerate(component)}
        forward = [0] * len(component)
        backward = [0] * len(component)
        for j, atom in enumerate(component):
            for b in succ[atom]:
                k = position.get(b)
                if k is not None:
                    forward[j] |= 1 << k
                    backward[k] |= 1 << j
        for mask in range(3, 1 << len(component)):
            if mask & (mask - 1) == 0:
                continue
            start = mask & -mask
            if (_closure(start, forward, mask) == mask
                    and _closure(start, backward, mask) == mask):
                loops.append(frozenset(atom for j, atom in enumerate(component)
                                       if mask >> j & 1))
    return tuple(sorted(loops, key=sorted))


def is_tight(p: Program) -> bool:
    """True when neither section graph has a loop (default regime)."""
    for g in section_graphs(p):
        if any(a == b for a, b in g.edges):
            return False
        if any(len(c) > 1 for c in _tarjan_sccs(_successors(g))):
            return False
    return True
