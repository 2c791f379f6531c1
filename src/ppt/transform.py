"""Compilation of past-present programs into extended formulas.

Three translations are provided, all evaluated classically over total
traces:

* `completion`: one biconditional per alphabet atom gathering the
  supporting rule bodies, initial rules guarded by `I`, dynamic rules by
  `not I`; headless initial/dynamic rules and all final rules are
  carried over as constraints, read as `program_as_ltlf` reads them.
* `loop_formulas`: for every loop of a section graph, the loop
  disjunction implies its external support, the dynamic schema wrapped
  in `wnext_always`.  Loops are enumerated per strongly connected
  component, which fails with `SccTooLarge` beyond the fixed
  `depgraph.SCC_CAP`; the other two translations need no loops.
* `program_as_ltlf`: the rules read as formulas (`rule_formula`), as
  the stable-model search and the rule checks of `ppt.tht` read them.

Each translation is written once, as a `sourced_*` function returning
(formula, source) pairs; the source names what produced the formula:
`atom x`, `rule i` (the rule at index i of `Program.rules`) or a loop
such as `initial loop {a, b}`.  The plain functions drop the sources.

Emission is canonical and unsimplified; `simplify` applies a fixed set
of truth-constant rewrites when shorter output is wanted.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import (
    Always, And, Atom, AtomRef, CORE_TRUE, ExtFormula, FALSUM, FINAL_CONST,
    Falsum, Iff, Implies, INITIAL_CONST, INITIAL_EXPANSION, Not, Or,
    PastFormula, Previous, Program, Rule, RuleKind, Since, Trigger, Verum,
    VERUM, WeakNextAlways, head_disjunction, or_chain,
)
from .depgraph import enumerate_loops, section_graphs

__all__ = [
    "support_transform", "external_support", "completion_atom",
    "rule_formula",
    "sourced_completion", "sourced_loop_formulas", "sourced_program_as_ltlf",
    "completion", "loop_formulas", "program_as_ltlf", "simplify",
]

Sourced = list[tuple[ExtFormula, str]]


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
    """
    loop = frozenset(loop)

    def walk(g):
        tp = type(g)
        if tp is AtomRef:
            return FALSUM if g.name in loop else g
        if tp is Falsum or tp is Not or tp is Previous:
            return g
        if tp is And or tp is Or:
            # Rebuild the left spine of a conjunction/disjunction chain
            # in a loop, so that long bodies need no recursion on length.
            spine = []
            while type(g) is And or type(g) is Or:
                spine.append(g)
                g = g.lhs
            out = walk(g)
            for node in reversed(spine):
                out = type(node)(out, walk(node.rhs))
            return out
        if tp is Trigger:
            return And(walk(g.rhs),
                       Or(walk(g.lhs), Or(Previous(g), INITIAL_EXPANSION)))
        if tp is Since:
            return Or(walk(g.rhs), And(walk(g.lhs), Previous(g)))
        raise ValueError(f"not a core past formula: {g!r}")

    return walk(f)


def _support_term(rule: Rule, excluded: frozenset[Atom],
                  body: PastFormula) -> PastFormula:
    term = body
    for atom in rule.head:
        if atom not in excluded:
            term = And(term, Not(AtomRef(atom)))
    return term


def external_support(p: Program, section: RuleKind,
                     loop: Iterable[Atom]) -> PastFormula:
    """External support formula of an atom set within one section of a program.

    Disjunction, in program order, over the rules of that section whose
    head meets the loop, of the transformed body conjoined with the
    negations of the head atoms outside the loop; false when no rule
    qualifies.
    """
    loop = frozenset(loop)
    disjuncts = [
        _support_term(r, loop, support_transform(r.body, loop))
        for r in p.rules
        if r.kind is section and loop.intersection(r.head)
    ]
    return or_chain(disjuncts, FALSUM)


def completion_atom(p: Program, atom: Atom) -> ExtFormula:
    """The completion biconditional of one alphabet atom.

    The right-hand side disjoins the initial supports (guarded by `I`)
    and the dynamic supports (guarded by `not I`), in program order; a
    section with no supporting rule contributes false, and an atom with
    no supporting rule at all gets a plain false.
    """
    if atom not in p.alphabet:
        raise ValueError(f"{atom!r} is not in the program alphabet")
    initial_parts = [
        And(INITIAL_CONST, _support_term(r, frozenset((atom,)), r.body))
        for r in p.initial if atom in r.head
    ]
    dynamic_parts = [
        And(Not(INITIAL_CONST), _support_term(r, frozenset((atom,)), r.body))
        for r in p.dynamic if atom in r.head
    ]
    if not initial_parts and not dynamic_parts:
        rhs: ExtFormula = FALSUM
    else:
        rhs = Or(or_chain(initial_parts, FALSUM),
                 or_chain(dynamic_parts, FALSUM))
    return Always(Iff(AtomRef(atom), rhs))


def rule_formula(rule: Rule) -> ExtFormula:
    """One rule read as a classical formula, wrapped where it applies."""
    if rule.kind is RuleKind.FINAL:
        return Always(Implies(FINAL_CONST, Implies(rule.body, FALSUM)))
    head = head_disjunction(rule)
    # Facts print as their bare head; `true -> h` adds nothing.
    if rule.head and rule.body == CORE_TRUE:
        core: ExtFormula = head
    else:
        core = Implies(rule.body, head)
    if rule.kind is RuleKind.DYNAMIC:
        return WeakNextAlways(core)
    return core


def sourced_completion(p: Program) -> Sourced:
    """Temporal completion: atom biconditionals, then carried constraints."""
    out = [(completion_atom(p, atom), f"atom {atom}")
           for atom in sorted(p.alphabet)]
    # Headless initial and dynamic rules, then the final rules.
    constraints = sorted(((i, r) for i, r in enumerate(p.rules) if not r.head),
                         key=lambda ir: ir[1].kind is RuleKind.FINAL)
    out.extend((rule_formula(r), f"rule {i}") for i, r in constraints)
    return out


def sourced_program_as_ltlf(p: Program) -> Sourced:
    """The rules themselves read classically, in program order."""
    return [(rule_formula(r), f"rule {i}") for i, r in enumerate(p.rules)]


def sourced_loop_formulas(p: Program, unitary: bool = False) -> Sourced:
    """One formula per loop: initial loops first, then dynamic loops.

    Loops come out in canonical order; each formula states that the loop
    disjunction implies the external support of the loop within its own
    section.
    """
    out: Sourced = []
    for graph in section_graphs(p):
        section = graph.section
        for loop in enumerate_loops(graph, unitary):
            atoms = sorted(loop)
            body = Implies(or_chain([AtomRef(a) for a in atoms], FALSUM),
                           external_support(p, section, loop))
            if section is RuleKind.DYNAMIC:
                body = WeakNextAlways(body)
            out.append((body, f"{section.value} loop {{{', '.join(atoms)}}}"))
    return out


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
    result stays semantically equivalent connective by connective.
    """
    tp = type(f)
    if tp is And or tp is Or:
        # The left spine of a chain is simplified in a loop, innermost
        # node first, so that long bodies need no recursion on length.
        spine = []
        while type(f) is And or type(f) is Or:
            spine.append(f)
            f = f.lhs
        out = simplify(f)
        for node in reversed(spine):
            rhs = simplify(node.rhs)
            if type(node) is And:
                if type(out) is Falsum or type(rhs) is Falsum:
                    out = FALSUM
                elif type(out) is Verum:
                    out = rhs
                elif type(rhs) is not Verum:
                    out = (node if out is node.lhs and rhs is node.rhs
                           else And(out, rhs))
            elif type(out) is Verum or type(rhs) is Verum:
                out = VERUM
            elif type(out) is Falsum:
                out = rhs
            elif type(rhs) is not Falsum:
                out = (node if out is node.lhs and rhs is node.rhs
                       else Or(out, rhs))
        return out
    if tp is Not:
        arg = simplify(f.arg)
        if type(arg) is Falsum:
            return VERUM
        if type(arg) is Verum:
            return FALSUM
        return f if arg is f.arg else Not(arg)
    if tp in (Previous, Always, WeakNextAlways):
        arg = simplify(f.arg)
        return f if arg is f.arg else tp(arg)
    if tp in (Since, Trigger, Implies, Iff):
        lhs = simplify(f.lhs)
        rhs = simplify(f.rhs)
        return f if lhs is f.lhs and rhs is f.rhs else tp(lhs, rhs)
    return f

