"""Positive dependency graphs, loops and tightness.

An edge (a, b) records that some rule can derive a from a positive,
present occurrence of b: a is in the rule head and b is in
`Rule.positive_present`, that is b occurs in the body outside every
negation and outside every `prev`.  The rule found that set when it was
built, so no body is walked here.  A graph belongs to one section of
one program: its vertices are the program alphabet and its edges come
from the rules of that section.  Initial and dynamic sections have
separate graphs; final rules have no heads and therefore no graph of
their own.

A loop is a nonempty atom set whose induced subgraph is strongly
connected, returned as a frozenset of atoms; its section is that of
its graph.  In the default regime singleton loops additionally need a
self-edge, while the unitary regime admits every singleton.  A program
is tight when neither section graph has a loop in the default regime.

One walk serves loops and tightness: `_loops` tries the subsets of
each component, whole component first, as masks over the graph's own
vertex numbering, and tests them with `_closure`, the set of vertices
a bitmask reaches inside a member mask.  Components cost at most one
forward and one backward closure each.  Loop enumeration walks every
subset, so it refuses components larger than the fixed `SCC_CAP`.
Tightness stops at the first loop, and a component of two or more
atoms is itself the first loop of its walk, so it has no cap.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .syntax import (
    Atom, PptError, Program, RuleKind, Value, atom_tuple, instance_of,
    value_class,
)

__all__ = [
    "SCC_CAP", "SccTooLarge", "DepGraph", "dependency_graph", "section_graphs",
    "enumerate_loops", "is_tight",
]

SCC_CAP = 20


class SccTooLarge(PptError):
    """A strongly connected component exceeds the loop-enumeration cap."""


@value_class
class DepGraph(Value):
    """The positive dependency graph of one section of a program (or of
    no section): its vertices and its edges (a, b), each a pair of
    vertices."""

    vertices: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]
    section: RuleKind | None = None

    def __init__(self, vertices: Iterable[Atom],
                 edges: Iterable[tuple[Atom, Atom]],
                 section: RuleKind | None = None) -> None:
        vertices = frozenset(atom_tuple(vertices, "a vertex set"))
        if section is not None:
            instance_of(section, RuleKind, "a section")
        pairs = []
        for edge in edges:
            if not isinstance(edge, (tuple, list)) or len(edge) != 2:
                raise ValueError(f"edge {edge!r} is not a pair of atoms")
            a, b = edge
            # Every vertex is a str, so anything else, hashable or not,
            # is outside the set.
            if not (isinstance(a, str) and a in vertices
                    and isinstance(b, str) and b in vertices):
                raise ValueError(f"edge ({a}, {b}) leaves the vertex set")
            pairs.append((a, b))
        self.__setstate__((vertices, frozenset(pairs), section))


def dependency_graph(p: Program, section: RuleKind) -> DepGraph:
    """Positive dependency graph of one section of a program, over its alphabet."""
    edges: set[tuple[Atom, Atom]] = set()
    for rule in p.rules:
        if rule.kind is section:
            edges.update((h, b) for h in rule.head
                         for b in rule.positive_present)
    return DepGraph(p.alphabet, frozenset(edges), section)


def section_graphs(p: Program) -> tuple[DepGraph, DepGraph]:
    """The initial and dynamic graphs of a program."""
    return (dependency_graph(p, RuleKind.INITIAL),
            dependency_graph(p, RuleKind.DYNAMIC))


def _adjacency(g: DepGraph) -> tuple[list[Atom], list[int], list[int]]:
    # The sorted vertices, and for vertex j the masks of its successors
    # and of its predecessors over bit positions in that order.
    vertices = sorted(g.vertices)
    position = {atom: j for j, atom in enumerate(vertices)}
    forward = [0] * len(vertices)
    backward = [0] * len(vertices)
    for a, b in g.edges:
        forward[position[a]] |= 1 << position[b]
        backward[position[b]] |= 1 << position[a]
    return vertices, forward, backward


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


def _components(forward: list[int], backward: list[int]) -> list[int]:
    """The strongly connected components as vertex masks, in the order
    of their lowest vertices.

    Each step takes the lowest vertex v not yet placed, closes it
    forwards over the unplaced vertices U, and closes it backwards over
    that forward closure F.  This is v's component C exactly.  The
    placed vertices are whole components, so U is a union of
    components and contains C.  A path between two vertices of C runs
    inside C, since every vertex on it reaches and is reached by both
    ends; so C lies in F, and each w in C reaches v inside F.
    Conversely a vertex of the result is reached from v (it is in F)
    and reaches v, so it is in C.
    """
    components = []
    unplaced = (1 << len(forward)) - 1
    while unplaced:
        start = unplaced & -unplaced
        component = _closure(start, backward, _closure(start, forward, unplaced))
        components.append(component)
        unplaced ^= component
    return components


def _loops(forward: list[int], backward: list[int], components: list[int],
           unitary: bool) -> Iterator[int]:
    # Each component's loops as vertex masks, whole component first: a
    # singleton with a self-edge (any singleton if unitary), or a larger
    # subset whose lowest vertex reaches all of it both ways inside it.
    for scc in components:
        sub = scc
        while sub:
            start = sub & -sub
            if sub == start:
                if unitary or forward[start.bit_length() - 1] & start:
                    yield sub
            elif (_closure(start, forward, sub) == sub
                    and _closure(start, backward, sub) == sub):
                yield sub
            sub = (sub - 1) & scc


def enumerate_loops(g: DepGraph,
                    unitary: bool = False) -> tuple[frozenset[Atom], ...]:
    """All loops of a graph as atom sets, in canonical order: sorted by
    their sorted atoms.  Every loop lies inside one component, and no
    component may exceed the cap: the error names the first oversize
    component in the order of the components' smallest atoms."""
    vertices, forward, backward = _adjacency(g)
    components = _components(forward, backward)
    for scc in components:
        if scc.bit_count() > SCC_CAP:
            raise SccTooLarge(
                f"component of size {scc.bit_count()} exceeds cap {SCC_CAP}")
    # A loop's atoms, read off in bit order, are sorted already.
    loops = []
    for mask in _loops(forward, backward, components, unitary):
        atoms = []
        while mask:
            low = mask & -mask
            atoms.append(vertices[low.bit_length() - 1])
            mask ^= low
        loops.append(atoms)
    loops.sort()
    return tuple(map(frozenset, loops))


def is_tight(p: Program) -> bool:
    """True when neither section graph has a loop (default regime)."""
    return not any(
        any(_loops(forward, backward, _components(forward, backward), False))
        for _, forward, backward in map(_adjacency, section_graphs(p)))
