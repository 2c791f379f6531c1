"""Compilation of past-present programs into extended formulas, and
the dependency graphs and loops that the loop formulas are built from.

A section's dependency graph has the program alphabet as vertices and
an edge (a, b) where a rule of the section has a in its head and b in
`Rule.positive_present` (outside every `not` and `prev`, found when the
rule was built); final rules have no heads and no graph.  A loop is a
nonempty atom set whose atoms reach each other inside it, paths of
length 0 allowed, so every singleton is one (the unitary regime); in
the default regime a singleton needs a self-edge.  `_loops` decides the
regime once: its one walk, over each component's subsets as masks
(whole component first, tested with `_closure`), marks the
default-regime loops for `enumerate_loops`, `is_tight` and the loop
formulas.  A program is tight when no section graph has a marked loop.
Enumerating loops refuses a component past `SCC_CAP` (`SccTooLarge`);
tightness stops at the first marked loop, which a component of two or
more atoms is, so it has no cap.

Three translations are provided, all evaluated classically over total
traces:

* `completion`: one biconditional per alphabet atom gathering the
  supporting rule bodies, initial rules guarded by `I`, dynamic rules by
  `not I`; headless initial/dynamic rules and all final rules are
  carried over as constraints, read as `program_as_ltlf` reads them.
* `loop_formulas`: for every loop of a section graph, the loop
  disjunction implies its external support, the dynamic schema wrapped
  in `wnext_always`; the other two translations need no loops.
  `loop_formula_regimes` builds both regimes from one walk of the
  unitary loops and one support memo per section: the default regime
  is that list without the loops `_loops` left unmarked, and the two
  lists share their formula objects.
* `program_as_ltlf`: the rules read as formulas (`rule_formula`, from
  `ppt.syntax`), as `progression.compile_program` compiles them for the
  stable-model search and the rule checks of `ppt.tht` read them.

Each translation has one builder, a `sourced_*` function returning
(formula, source) pairs; the source names what produced the formula:
`atom x`, `rule i` (the rule at index i of `Program.rules`) or a loop
such as `initial loop {a, b}`.  The plain functions drop the sources,
and one atom's biconditional is the `atom x` entry of
`sourced_completion`.

Emission is canonical and unsimplified; `simplify` applies a fixed set
of truth-constant rewrites when shorter output is wanted.

Cost model.  A section with R rules and a loop set of N loops has up
to R*N support terms, one per loop and rule whose head meets the loop,
but far fewer distinct ones: `sourced_loop_formulas` builds the term
of rule r for loop L once per key (r, L & (P_r | head_r)), where P_r is
`r.positive_present`, and every later loop with that key reuses the
same object.  The key is exact:
`support_transform(B, L) = support_transform(B, L & P(B))`, since only
the positive present atoms of B are struck, and the negated head atoms
are those of head_r outside L, which depend only on L & head_r.  Atom
sets in keys are bitmasks, one bit per alphabet atom; an atom outside
the alphabet is in no P_r or head_r and gets no bit.  Rules are found
through an index by head atom built once per section, which
`sourced_completion` uses too, and the mask of P_r | head_r of each
rule is computed with it; one `AtomRef` per atom serves every formula
of a call.  `simplify_formulas` and `syntax.format_formulas`
then do the work for a shared term once per list of formulas.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .syntax import (
    Always, And, Atom, AtomRef, ExtFormula, FALSUM, Falsum, FinalConst,
    Iff, Implies, INITIAL_CONST, INITIAL_EXPANSION, InitialConst, Not, Or,
    PastFormula, PptError, Previous, Program, Rule, RuleKind, Since,
    Trigger, Value, Verum, VERUM, WeakNextAlways, atom_tuple,
    chain_elements, instance_of, or_chain, positive_atoms, refuse_formula,
    rule_formula, value_class,
)

__all__ = [
    "support_transform", "external_support", "rule_formula",
    "sourced_completion", "sourced_loop_formulas", "sourced_program_as_ltlf",
    "completion", "loop_formulas", "loop_formula_regimes", "program_as_ltlf",
    "simplify", "simplify_formulas", "SCC_CAP", "SccTooLarge", "DepGraph",
    "dependency_graph", "section_graphs", "enumerate_loops", "is_tight",
]

Sourced = list[tuple[ExtFormula, str]]

# The rules of one section in program order, and for each atom the
# positions in that list of the rules whose head holds it.
_Section = tuple[list[Rule], dict[Atom, list[int]]]


def support_transform(f: PastFormula, loop: Iterable[Atom]) -> PastFormula:
    """Strike the loop atoms out of the positive present part of f.

    Atoms in the loop become false; negated and previous subformulas are
    left untouched; since and trigger are unfolded one step so that only
    their present part is transformed.  The unfolded trigger keeps its
    past part under a weak previous (`prev ... or initially`): at the
    first point a trigger reduces to its right argument alone, and only
    the weak form preserves that, mirroring how the boundary value flips
    when conjunction and disjunction swap roles.  The since clause keeps
    the strong previous, whose conjoined unfolding is already exact.
    A node outside the core language anywhere in f is refused, as
    `syntax.positive_atoms` refuses it.
    """
    loop = frozenset(atom_tuple(loop, "a loop"))
    return _strike(f, loop & positive_atoms(f, present_only=True))


def _strike(f: PastFormula, loop: frozenset[Atom]) -> PastFormula:
    # `support_transform` of a core formula, its loop read by `atom_tuple`.
    def walk(g):
        tp = type(g)
        if tp is AtomRef:
            return FALSUM if g.name in loop else g
        if tp is Falsum or tp is Not or tp is Previous:
            return g
        if tp is And or tp is Or:
            # A chain is rebuilt from `chain_elements`, in a loop.
            first, *rest = chain_elements(g, tp)
            out = walk(first)
            for e in rest:
                out = tp(out, walk(e))
            return out
        return unfold(g, walk(g.lhs), walk(g.rhs))  # since or trigger

    return walk(f)


def unfold(g: Since | Trigger, lhs: PastFormula,
           rhs: PastFormula) -> PastFormula:
    """One step of the since or trigger `g`, with `lhs` and `rhs` at the
    present point; shared with `run_semantics_suite`, outside `__all__`."""
    if type(g) is Trigger:
        return And(rhs, Or(lhs, Or(Previous(g), INITIAL_EXPANSION)))
    return Or(rhs, And(lhs, Previous(g)))


def _support_term(rule: Rule, excluded: frozenset[Atom],
                  body: PastFormula,
                  refs: dict[Atom, AtomRef]) -> PastFormula:
    term = body
    for atom in rule.head:
        if atom not in excluded:
            term = And(term, Not(refs[atom]))
    return term


def _atom_refs(p: Program) -> dict[Atom, AtomRef]:
    # One AtomRef per alphabet atom, shared by the formulas of one call.
    return {atom: AtomRef(atom) for atom in p.alphabet}


def _by_head(p: Program, section: RuleKind) -> _Section:
    rules = [r for r in p.rules if r.kind is section]
    index: dict[Atom, list[int]] = {}
    for i, r in enumerate(rules):
        for atom in set(r.head):
            index.setdefault(atom, []).append(i)
    return rules, index


def _supports(p: Program, section: RuleKind, refs: dict[Atom, AtomRef]
              ) -> Callable[[frozenset[Atom]], PastFormula]:
    """The external support of a loop within one section, as a function
    of the loop (a frozenset); see the module docstring for its memo."""
    rules, index = _by_head(p, section)
    bit = {atom: 1 << j for j, atom in enumerate(sorted(p.alphabet))}
    # Per rule position: the mask of P_r | head_r, and the rule's terms
    # keyed by the loop's mask within it.
    strikable = [sum(bit[atom] for atom in r.positive_present.union(r.head))
                 for r in rules]
    terms: list[dict[int, PastFormula]] = [{} for _ in rules]

    def support(loop: frozenset[Atom]) -> PastFormula:
        mask = 0
        for atom in loop:
            mask |= bit.get(atom, 0)
        out = None
        for i in sorted(set().union(*(index.get(atom, ()) for atom in loop))):
            key = mask & strikable[i]
            term = terms[i].get(key)
            if term is None:
                r = rules[i]
                term = terms[i][key] = _support_term(
                    r, loop, _strike(r.body, loop), refs)
            out = term if out is None else Or(out, term)
        return FALSUM if out is None else out

    return support


def external_support(p: Program, section: RuleKind,
                     loop: Iterable[Atom]) -> PastFormula:
    """External support formula of an atom set within one section of a program.

    Disjunction, in program order, over the rules of that section whose
    head meets the loop, of the transformed body conjoined with the
    negations of the head atoms outside the loop; false when no rule
    qualifies.
    """
    instance_of(section, RuleKind, "a section")
    return _supports(p, section, _atom_refs(p))(
        frozenset(atom_tuple(loop, "a loop")))


def sourced_completion(p: Program) -> Sourced:
    """Temporal completion: atom biconditionals, then carried constraints.

    Each alphabet atom x, in sorted order, gets `always(x <-> rhs)`,
    sourced `atom x`.  The right-hand side disjoins the initial supports
    (guarded by `I`) and the dynamic supports (guarded by `not I`), in
    program order, a support being a rule body conjoined with `not h`
    for each other head atom h; a section with no supporting rule
    contributes false, and an atom with no supporting rule at all gets
    a plain false.  Headless initial and dynamic rules, then the final
    rules, follow as `rule i`, read as `rule_formula` reads them.
    """
    refs = _atom_refs(p)
    sections = ((INITIAL_CONST, _by_head(p, RuleKind.INITIAL)),
                (Not(INITIAL_CONST), _by_head(p, RuleKind.DYNAMIC)))
    out: Sourced = []
    for atom in sorted(p.alphabet):
        excluded = frozenset((atom,))
        initial, dynamic = (
            [And(guard, _support_term(rules[i], excluded, rules[i].body, refs))
             for i in index.get(atom, ())]
            for guard, (rules, index) in sections)
        rhs = (Or(or_chain(initial), or_chain(dynamic))
               if initial or dynamic else FALSUM)
        out.append((Always(Iff(refs[atom], rhs)), f"atom {atom}"))
    constraints = sorted(((i, r) for i, r in enumerate(p.rules) if not r.head),
                         key=lambda ir: ir[1].kind is RuleKind.FINAL)
    out.extend((rule_formula(r), f"rule {i}") for i, r in constraints)
    return out


def sourced_program_as_ltlf(p: Program) -> Sourced:
    """The rules themselves read classically, in program order."""
    return [(rule_formula(r), f"rule {i}") for i, r in enumerate(p.rules)]


def _loop_entries(p: Program, unitary: bool):
    # ((formula, source), default mark) per loop of the regime, from one
    # walk and one support memo per section.
    refs = _atom_refs(p)
    for graph in section_graphs(p):
        section = graph.section
        loops = _sorted_loops(graph, unitary)
        if not loops:
            continue
        support = _supports(p, section, refs)
        for atoms, default in loops:
            body = Implies(or_chain([refs[a] for a in atoms]),
                           support(frozenset(atoms)))
            if section is RuleKind.DYNAMIC:
                body = WeakNextAlways(body)
            yield ((body, f"{section.value} loop {{{', '.join(atoms)}}}"),
                   default)


def sourced_loop_formulas(p: Program, unitary: bool = False) -> Sourced:
    """One formula per loop: initial loops first, then dynamic loops.

    Loops come out in canonical order; each formula states that the loop
    disjunction implies the external support of the loop within its own
    section.
    """
    return [entry for entry, _ in _loop_entries(p, unitary)]


def loop_formula_regimes(p: Program
                         ) -> tuple[list[ExtFormula], list[ExtFormula]]:
    """`loop_formulas(p)` and `loop_formulas(p, unitary=True)`, from one
    enumeration of the unitary loops: the default regime is that list
    without the singletons that have no self-edge, and each of its
    formulas is the unitary regime's object."""
    default, unitary = [], []
    for (f, _), kept in _loop_entries(p, True):
        unitary.append(f)
        if kept:
            default.append(f)
    return default, unitary


def completion(p: Program) -> list[ExtFormula]:
    """The formulas of `sourced_completion`."""
    return [f for f, _ in sourced_completion(p)]


def program_as_ltlf(p: Program) -> list[ExtFormula]:
    """The formulas of `sourced_program_as_ltlf`."""
    return [f for f, _ in sourced_program_as_ltlf(p)]


def loop_formulas(p: Program, unitary: bool = False) -> list[ExtFormula]:
    """The formulas of `sourced_loop_formulas`."""
    return [f for f, _ in sourced_loop_formulas(p, unitary)]


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

def simplify(f: ExtFormula) -> ExtFormula:
    """Apply the truth-constant rewrites, bottom-up, to a fixpoint.

    Only these rules are used (plus their mirror images): false-and
    collapses, true-and drops, false-or drops, true-or collapses,
    not-false and not-true flip.  Everything else is preserved, so the
    result stays semantically equivalent connective by connective.  A
    value in f that is no formula node is refused with `ValueError`.
    """
    return simplify_formulas([f])[0]


def simplify_formulas(fs: Iterable[ExtFormula]) -> list[ExtFormula]:
    """`simplify` of each formula, in order.

    A conjunction or disjunction object that sits as an element of a
    conjunction or disjunction chain is simplified once per call,
    however many formulas share it, as the support terms of
    `sourced_loop_formulas` do; every later occurrence gets the same
    result object.  An atom or false element is its own result and is
    handled inline in the chain loop.  The memo is keyed by object
    identity and holds each object it keys, so no identity is reused
    while it lives.
    """
    memo: dict = {}
    return [_simplify(f, memo) for f in fs]


def _simplify(f: ExtFormula, memo: dict) -> ExtFormula:
    tp = type(f)
    if tp is AtomRef or tp is Falsum:
        return f
    if tp is And or tp is Or:
        # The left spine of a chain is walked in a loop, so that long
        # bodies need no recursion on length.  Its elements are folded
        # into the chain's unit (true for and, false for or), first
        # element first, and its absorbing constant (false for and, true
        # for or) absorbs the chain; a leaf is its own result, and a
        # conjunction or disjunction is looked up in the memo.  Elements
        # after the absorbing constant are still simplified, so that a
        # non-formula there is refused.  The spine is walked here rather
        # than read through `chain_elements`, because the walk keeps each
        # spine node and hands back an unchanged prefix as it is; a copy
        # reading `chain_elements` printed the same bytes but was slower
        # on `complete --simplify` (CHANGES.md).
        unit, zero = (VERUM, FALSUM) if tp is And else (FALSUM, VERUM)
        unit_tp, zero_tp = type(unit), type(zero)
        spine = []
        while type(f) is tp:
            spine.append(f)
            f = f.lhs
        spine.append(None)  # stands for the first element, f
        out = unit
        for node in reversed(spine):
            rhs = f if node is None else node.rhs
            rt = type(rhs)
            if rt is And or rt is Or:
                hit = memo.get(id(rhs))
                if hit is None:
                    hit = memo[id(rhs)] = (rhs, _simplify(rhs, memo))
                rhs = hit[1]
            elif rt is not AtomRef and rt is not Falsum:
                rhs = _simplify(rhs, memo)
            if type(out) is zero_tp or type(rhs) is zero_tp:
                out = zero
            elif type(out) is unit_tp:
                out = rhs
            elif type(rhs) is not unit_tp:
                out = (node if out is node.lhs and rhs is node.rhs
                       else tp(out, rhs))
        return out
    if tp is Not:
        arg = _simplify(f.arg, memo)
        if type(arg) is Falsum:
            return VERUM
        if type(arg) is Verum:
            return FALSUM
        return f if arg is f.arg else Not(arg)
    if tp in (Previous, Always, WeakNextAlways):
        arg = _simplify(f.arg, memo)
        return f if arg is f.arg else tp(arg)
    if tp in (Since, Trigger, Implies, Iff):
        lhs = _simplify(f.lhs, memo)
        rhs = _simplify(f.rhs, memo)
        return f if lhs is f.lhs and rhs is f.rhs else tp(lhs, rhs)
    if tp is Verum or tp is InitialConst or tp is FinalConst:
        return f
    refuse_formula(f)


# ---------------------------------------------------------------------------
# Dependency graphs and loops
# ---------------------------------------------------------------------------

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
    section: RuleKind | None

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


def _loops(forward: list[int], backward: list[int],
           components: list[int]) -> Iterator[tuple[int, bool]]:
    # Each component's unitary loops as vertex masks, whole component
    # first, each with its default mark: every singleton, marked when it
    # has a self-edge, and every larger subset whose lowest vertex
    # reaches all of it both ways inside it, always marked.
    for scc in components:
        sub = scc
        while sub:
            start = sub & -sub
            if sub == start:
                yield sub, bool(forward[start.bit_length() - 1] & start)
            elif (_closure(start, forward, sub) == sub
                    and _closure(start, backward, sub) == sub):
                yield sub, True
            sub = (sub - 1) & scc


def _sorted_loops(g: DepGraph, unitary: bool) -> list[tuple[list[Atom], bool]]:
    # The loops of a regime as (sorted atoms, default mark), sorted by
    # their atoms.  No component may exceed the cap: the error names the
    # first oversize one in the order of the components' smallest atoms.
    vertices, forward, backward = _adjacency(g)
    components = _components(forward, backward)
    for scc in components:
        if scc.bit_count() > SCC_CAP:
            raise SccTooLarge(
                f"component of size {scc.bit_count()} exceeds cap {SCC_CAP}")
    # A loop's atoms, read off in bit order, are sorted already.
    loops = []
    for mask, default in _loops(forward, backward, components):
        if unitary or default:
            atoms = []
            while mask:
                low = mask & -mask
                atoms.append(vertices[low.bit_length() - 1])
                mask ^= low
            loops.append((atoms, default))
    loops.sort()
    return loops


def enumerate_loops(g: DepGraph,
                    unitary: bool = False) -> tuple[frozenset[Atom], ...]:
    """All loops of a graph as atom sets, in canonical order: sorted by
    their sorted atoms.  Every loop lies inside one component, and a
    component past `SCC_CAP` raises `SccTooLarge`."""
    return tuple(frozenset(atoms) for atoms, _ in _sorted_loops(g, unitary))


def is_tight(p: Program) -> bool:
    """True when neither section graph has a default-regime loop."""
    return not any(
        default
        for _, forward, backward in map(_adjacency, section_graphs(p))
        for _, default in _loops(forward, backward,
                                 _components(forward, backward)))
