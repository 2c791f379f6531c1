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
  `loop_formula_regimes` builds both regimes from one enumeration of
  the unitary loops and one support memo per section: the default
  regime is that list without the singletons that have no self-edge,
  and the two lists share their formula objects.
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

from typing import Callable, Iterable

from .syntax import (
    Always, And, Atom, AtomRef, ExtFormula, FALSUM, Falsum, FinalConst,
    Iff, Implies, INITIAL_CONST, INITIAL_EXPANSION, InitialConst, Not, Or,
    PastFormula, Previous, Program, Rule, RuleKind, Since, Trigger, Verum,
    VERUM, WeakNextAlways, atom_tuple, chain_elements, instance_of,
    or_chain, positive_atoms, refuse_formula, rule_formula,
)
from .depgraph import enumerate_loops, section_graphs

__all__ = [
    "support_transform", "external_support", "rule_formula",
    "sourced_completion", "sourced_loop_formulas", "sourced_program_as_ltlf",
    "completion", "loop_formulas", "loop_formula_regimes", "program_as_ltlf",
    "simplify", "simplify_formulas",
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
        rhs = (Or(or_chain(initial, FALSUM), or_chain(dynamic, FALSUM))
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
    # ((formula, source), whether the loop is a default-regime loop) per
    # loop of the regime, from one enumeration and one support memo per
    # section; a default-regime enumeration yields only default loops.
    refs = _atom_refs(p)
    for graph in section_graphs(p):
        section = graph.section
        loops = enumerate_loops(graph, unitary)
        if not loops:
            continue
        support = _supports(p, section, refs)
        for loop in loops:
            atoms = sorted(loop)
            body = Implies(or_chain([refs[a] for a in atoms], FALSUM),
                           support(loop))
            if section is RuleKind.DYNAMIC:
                body = WeakNextAlways(body)
            yield ((body, f"{section.value} loop {{{', '.join(atoms)}}}"),
                   len(atoms) > 1 or (atoms[0], atoms[0]) in graph.edges)


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
