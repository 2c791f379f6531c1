"""One layered model search for both sides of the correspondence.

It reads the formulas the compiler emits: past formulas in which `I`,
`F`, `true`, `->` and `<->` are classical, under a top wrapper read by
`placement`: `always(g)` holds g at every point, `wnext_always(g)` from
point 1 on, anything else at point 0.  A past formula at point k reads
only T[0..k], so traces grow one state at a time and a prefix is pruned
as soon as a formula required at its last point fails there.  The
classical side keeps every survivor.  The stable side searches the rules
read as formulas (`compile_program`), the rules of point k being the
formulas required there, and also tests minimality:

    Lemma 1.  A total trace T is a temporal stable model iff <T, T> is a
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

Prefixes that share their past are merged.  The carried slots are the
argument of each `prev` node and each `since` and `trigger` node itself:
the values at point k that point k + 1 reads.  The carried vector of a
prefix is the total value of each carried slot at its last point.

    Lemma 2.  Which states may follow a nonempty prefix, which of them
    pass the minimality test, and the carried vector each gives, depend
    only on the prefix's carried vector and on whether the next point
    is the last.  So the models that extend a prefix of length k + 1
    depend only on k and its carried vector.

Proof.  At point k + 1 a node's value is computed from its children
there, the state there and, for `prev`, `since` and `trigger` only, the
total values at k of the carried slots; `I` is false there and `F`
reads whether k + 1 is the last point.  By induction over the node
array, the total values at k + 1 are functions of the state, the
carried vector at k and that bit, and so are the survivors (the
required formulas hold) and their carried vectors.  The minimality
test at k + 1 reads the same slots at k (H = T before k + 1) and,
through negation, the total values at k + 1, so its verdict is such a
function too.  The second sentence follows by induction on the number
of points left.

So the search is a forward pass over layers: layer k holds the carried
vectors reachable at point k, and the moves out of a vector are
computed once per vector and phase (middle or last point) and shared by
every layer.  A backward pass drops the moves that cannot reach the
last point, copying only a list that loses one, and one read-off takes
the paths as models: each is built once, as a `Trace`, and both
enumerators of `ppt.tht` return its tuple as it is.

The moves out of a vector are sorted by their states, each read as its
sorted tuple of atoms, and the read-off walks them depth first.  A
trace determines its path, as a state and the carried vector before it
give the carried vector after it, so the paths are distinct, and
paths of equal length visited that way come out in lexicographic
order: the canonical order of model sets, with no sort.

Where each rule of a point has one head atom, minimality is a least
fixpoint: the temporal form of "a stable model of a normal program is
the least model of its reduct" (Gelfond and Lifschitz, ICLP 1988).  The
rules of each point come from the `Rule` objects that `compile_program`
compiles, those that have a head: of `Program.initial` at point 0 and
of `Program.dynamic` later, each as (head, body slot), with body None
for a fact; constraints and final rules enter no fixpoint, and every
body is core, as `Rule` checks.  A point with a rule of another head,
such as `a | b`, keeps the subset pass.

    Lemma 3.  Let each rule of point k have one head atom, T a trace
    on which the formulas required at k hold there, and H = T before
    k.  Then T_k passes the test of Lemma 1 iff T_k is the least
    fixpoint of the map G that takes H_k to the facts of point k and
    the heads of its rules whose body holds at k on <H, T>.

Proof.  The here-value at k of a core past body is monotone in H_k:
atoms read H_k, `and`, `or`, `since` and `trigger` are monotone in
their arguments at k, negation reads T, and `prev` and the carries of
`since` and `trigger` read T before k.  So G is monotone and has a
least fixpoint, reached from the empty state.  A constraint that holds
on <T, T> holds on <H, T> for every H_k within T_k, by persistence.
So for such H_k the rules of point k hold on <H, T> iff G(H_k) is
within H_k, and these states are closed under intersection.  The least
fixpoint is the least state whose image lies within it (Knaster and
Tarski), and G(T_k) is within T_k, as the rules hold on <T, T>; so some
H_k strictly inside T_k passes iff the least fixpoint is not T_k.

The fixpoint runs over all 2^n candidate states at once, with one int
H_j per atom whose bit s says whether atom j is in the iterate at
candidate s.  H_j starts at 0; each round is one `_evaluate` with the
H ints as atom values and negation reading the total pass, and sets
H_j to the OR of the bodies of the rules with head j (all ones for a
fact), until no H_j changes.  An iterate grows at most n times, so at
most n + 1 rounds run.  The survivors that pass are those where every
H_j equals the atom vector of j, and only they are read out.

So a point runs a total pass over the 2^n states, then the minimality
test that `Compiled.rules` gives its phase: none on the classical side,
where `rules` is None and every survivor is kept; `least_fixpoint`
where the phase has pairs; else `subset_pass` (Lemma 1, state by
state).  Each test takes the mask of the survivors of the total pass
and returns the mask of those that pass.  A fixpoint round costs what
one survivor's subset pass does, so a point with at most n + 1
survivors, as where a chain of positive rules leaves one state, takes
`subset_pass` even where it has pairs (`_fixpoint_pays`).

With c carried slots there are at most 1 + 2^(c+1) total passes,
however many prefixes share a vector; the layers cost lam times the
moves of one layer, and reading off costs the size of the output.  The
budget counts work units before the work is done: lam up front, one per
layer; 2^n per total pass; one per move walked into a layer; lam per
model, before it is read off; and what the tests charge, where 2^n per
state pays for reading its carried bits out of 2^n-bit values:

    no test         2^n per survivor (the classical side);
    subset_pass     2^n per survivor, before its passes over the 2^|s|
                    subsets of each survivor s, up to 3^n in all;
    least_fixpoint  2^n per round, then 2^n per state it keeps.

A count of the 2^(n*lam) candidate traces would refuse long traces
that the layers make cheap, yet admit a short trace over a wide
alphabet whose survivors each cost 2^n.

The formulas are compiled by one walk into one post-order node array,
which `search` reads as a `Compiled` value.  `compile` runs the walk
once per base, and `Compiled.extend` continues it over more formulas on
copies, so a base that several searches extend, such as the rules or
the completion of a program under their loop formulas, is walked once;
an extension is searched classically.  The walk reads each wrapper with
`placement` and keys atoms by name, so one node serves every `AtomRef`
object of an atom, and other nodes by identity, as `compile_program`
finds each rule body.  It emits the node at the top of its stack once
the children have slots, else pushes them over it, so no depth
recurses.  A wrapper below the top, or an object that
is no formula node, is refused there and then; the atoms the alphabet
does not cover are named, sorted, once the walk ends, so a formula list
with both faults reports the wrapper.  The value of a node at point k
depends on its children at k and on total values at k - 1.  Values are
computed as ints over candidate states: in the total pass bit s is the
value when the state at k is s, for all 2^n states at once.  A fixpoint
round computes values over the same candidates, and a subset pass over
the subsets of one state: atoms take their values from the iterate or
the subset, negation reads the total values at k as `full ^ there[a]`,
and previous, since and trigger read the total values at k - 1 (H = T
before k).  The subset pass hands `there` as all ones or 0 per node,
the total bit of its state.  Previous is false at point 0, but the
trigger carry starts out true.
"""

from __future__ import annotations

from operator import itemgetter
from types import MappingProxyType
from typing import Iterable

from .syntax import (
    Always, And, AtomRef, Falsum, FinalConst, Iff, Implies, InitialConst,
    Not, Or, PptError, Previous, Program, Since, Trigger, Verum,
    WeakNextAlways, atom_tuple, atom_vectors, check_int, instance_of,
    is_fact, refuse_formula, rule_formula,
)

__all__ = ["BudgetExceeded", "DEFAULT_BUDGET", "Compiled", "Trace",
           "compile", "compile_program", "placement", "search"]

DEFAULT_BUDGET = 1 << 24


class BudgetExceeded(PptError):
    """A model search needs more work units than its budget; the message
    names the point it had reached."""

(_FALSE, _TRUE, _ATOM, _NOT, _AND, _OR, _PREV, _SINCE, _TRIGGER, _INITIAL,
 _FINAL, _IMPLIES, _IFF) = range(13)
# Atoms are read before this table, by name.
_OPCODES = {Falsum: _FALSE, Verum: _TRUE, Not: _NOT, And: _AND, Or: _OR,
            Previous: _PREV, Since: _SINCE, Trigger: _TRIGGER,
            InitialConst: _INITIAL, FinalConst: _FINAL, Implies: _IMPLIES,
            Iff: _IFF}
_BINARY = frozenset((_AND, _OR, _SINCE, _TRIGGER, _IMPLIES, _IFF))


class Trace(tuple):
    """A finite trace: a nonempty tuple of frozensets of atoms, equal to,
    hashing like and printed as the plain tuple.  `<` compares states by
    inclusion, so sort with `key=Trace.to_lists`.  Each state is read
    by `syntax.atom_tuple`."""

    __slots__ = ()

    def __new__(cls, states: Iterable[Iterable[str]]) -> "Trace":
        if type(states) is cls:
            # Checked when built and immutable: as `tuple(t)` is t.
            return states
        states = tuple(frozenset(atom_tuple(state, "a state"))
                       for state in states)
        if not states:
            raise ValueError("traces must have length at least 1")
        return super().__new__(cls, states)

    @classmethod
    def of(cls, *states: Iterable[str]) -> "Trace":
        return cls(states)

    def to_lists(self) -> list[list[str]]:
        return [sorted(state) for state in self]


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


class Compiled(tuple):
    """Formulas compiled for `search` by one walk (see the module
    docstring), made by `compile` or `compile_program` and continued by
    `extend`.

    A tuple of its fields, in this order: `atoms`, the alphabet sorted,
    and `index`, the position of each atom; `formulas`, every formula
    compiled; `nodes`, the post-order node array; `at_start`, the roots
    required at point 0, and `later`, those required from point 1 on;
    `carried`, the carried slots, ascending; `slots`, the slot of each
    node by its key; and `rules`, None on the classical side, else the
    pairs of `compile_program`.

    A node is (opcode, a, b): the atom index in `a` for atoms, child
    slots in `a` (and `b` for binary nodes, lhs first) otherwise.
    Atoms of one name get one slot, and so do subformulas shared by
    identity.  Slots are keyed by name for atoms and by `id` for other
    nodes, so the value holds every formula it compiled: one freed could
    hand its address to a later node.  No field can change, so `extend`
    walks on copies and the value it extends stays as it was.
    """

    __slots__ = ()
    (atoms, index, formulas, nodes, at_start, later, carried, slots,
     rules) = (property(itemgetter(i)) for i in range(9))

    def extend(self, more: Iterable) -> "Compiled":
        """The formulas of this value followed by `more`, compiled as one
        walk over all of them would compile them, for the classical side
        (`rules` None, `more` empty or not); the objects already compiled
        keep their slots.

        A wrapper below the top of a formula, or an object that is no
        formula node, is refused where the walk meets it; the atoms the
        alphabet does not cover are named, sorted, once the walk ends.
        """
        more = tuple(more)
        if not more and self.rules is None:
            return self
        atoms, index, formulas, nodes, at_start, later, carried, slots, _ = (
            self)
        slots = slots.copy()
        nodes, at_start, later = list(nodes), list(at_start), list(later)
        carried = set(carried)
        missing = []
        for formula in more:
            g, first, onward = placement(formula)
            stack = [g]
            while stack:
                # The top is emitted once its children have slots; until
                # then they are pushed over it, lhs on top.
                f = stack[-1]
                if type(f) is AtomRef:
                    stack.pop()
                    if f.name not in slots:
                        slots[f.name] = len(nodes)
                        nodes.append((_ATOM, index.get(f.name), 0))
                        if f.name not in index:
                            missing.append(f.name)
                    continue
                key = id(f)
                if key in slots:
                    stack.pop()
                    continue
                op = _OPCODES.get(type(f))
                if op in _BINARY:
                    lhs, rhs = f.lhs, f.rhs
                    a = slots.get(
                        lhs.name if type(lhs) is AtomRef else id(lhs))
                    b = slots.get(
                        rhs.name if type(rhs) is AtomRef else id(rhs))
                    if a is None or b is None:
                        if b is None:
                            stack.append(rhs)
                        if a is None:
                            stack.append(lhs)
                        continue
                    node = (op, a, b)
                    if op == _SINCE or op == _TRIGGER:
                        carried.add(len(nodes))
                elif op == _NOT or op == _PREV:
                    arg = f.arg
                    a = slots.get(
                        arg.name if type(arg) is AtomRef else id(arg))
                    if a is None:
                        stack.append(arg)
                        continue
                    node = (op, a, 0)
                    if op == _PREV:
                        carried.add(a)
                elif op is None:
                    refuse_formula(f)
                else:
                    node = (op, 0, 0)
                stack.pop()
                slots[key] = len(nodes)
                nodes.append(node)
            root = slots[g.name if type(g) is AtomRef else id(g)]
            # `placement` yields first = 1 only together with onward.
            if not first:
                at_start.append(root)
            if onward:
                later.append(root)
        if missing:
            raise ValueError(
                "alphabet does not cover atoms: " + ", ".join(sorted(missing)))
        return tuple.__new__(Compiled, (
            atoms, index, formulas + more, tuple(nodes), tuple(at_start),
            tuple(later), tuple(sorted(carried)), MappingProxyType(slots),
            None))


def compile(formulas: Iterable, alphabet) -> Compiled:
    """The emitted formulas compiled for `search` over the alphabet, in
    the walk of `Compiled.extend`, with its refusals."""
    atoms = tuple(sorted(frozenset(atom_tuple(alphabet, "an alphabet"))))
    index = MappingProxyType({name: j for j, name in enumerate(atoms)})
    empty = tuple.__new__(Compiled, (atoms, index, (), (), (), (), (),
                                     MappingProxyType({}), None))
    return empty.extend(formulas)


def compile_program(p: Program) -> Compiled:
    """`compile` of the rules of `p` read as formulas (`rule_formula`),
    for the stable side.  `rules` holds, for point 0 and for the later
    points, the (head index, body slot) of each rule with a head, in
    program order, body None for a fact; or None where one has several
    head atoms (Lemma 3).  A body is the object left of the `->`."""
    instance_of(p, Program, "the program")
    compiled = compile([rule_formula(r) for r in p.rules], p.alphabet)
    index, slots = compiled.index, compiled.slots
    rules = []
    for phase in (p.initial, p.dynamic):
        headed = [r for r in phase if r.head]
        rules.append(None if any(len(r.head) > 1 for r in headed) else tuple(
            (index[r.head[0]], None if is_fact(r) else slots[
                r.body.name if type(r.body) is AtomRef else id(r.body)])
            for r in headed))
    return tuple.__new__(Compiled, (*compiled[:8], tuple(rules)))


def _evaluate(nodes, atoms, full: int, before, there,
              at_end: bool) -> list[int]:
    """Node values over a set of candidate states at one point.

    `before` maps each carried slot to its total value at the previous
    point, or is None at point 0; `at_end` says whether this is the last
    point.  `there` is None in the total pass; in a here pass it holds
    the total values at this point over the same candidates, which
    negation reads.
    """
    vals: list[int] = []
    push = vals.append
    negated = vals if there is None else there
    for i, (op, a, b) in enumerate(nodes):
        if op == _AND:
            push(vals[a] & vals[b])
        elif op == _ATOM:
            push(atoms[a])
        elif op == _NOT:
            push(full ^ negated[a])
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


def _fixpoint_pays(survivors: int, n: int) -> bool:
    """Whether a point of one-head rules takes the least fixpoint rather
    than the subset pass: when its survivors outnumber the n + 1 rounds
    that the fixpoint runs at most, as each round is charged what one
    survivor's subset pass is."""
    return survivors > n + 1


def _members(mask: int) -> list[int]:
    """Positions of the set bits of a nonnegative int, ascending."""
    digits = bin(mask)[:1:-1]
    return [s for s, digit in enumerate(digits) if digit == "1"]


def check_limits(lam: int, budget: int | None) -> int:
    """`budget`, or `DEFAULT_BUDGET` when it is None, for a search of
    length `lam`; refuses a bad length or budget.  Shared with
    `verify.verify_correspondence` and `tht.enumerate_ltlf_models`, which
    check before they compile, but no part of the interface (`__all__`)."""
    if check_int(lam, "trace length") < 1:
        raise ValueError("trace length must be at least 1")
    if budget is None:
        return DEFAULT_BUDGET
    if type(budget) is not int or budget < 0:
        raise ValueError(f"budget must be a nonnegative int, got {budget!r}")
    return budget


def search(compiled: Compiled, lam: int,
           budget: int | None = None) -> tuple[Trace, ...]:
    """Every trace of length `lam` over the alphabet of `compiled` that
    satisfies each formula compiled where its wrapper requires it and,
    where `compiled.rules` is not None (a `compile_program` value, not
    extended), passes the minimality test.

    The traces come in canonical order, each state read as its sorted
    tuple of atoms.  The budget bounds the work units of the cost model
    in the module docstring; past it, `BudgetExceeded` names the point
    reached.
    """
    budget = check_limits(lam, budget)
    if type(compiled) is not Compiled:
        raise ValueError(
            "search reads formulas compiled by progression.compile, not a "
            + type(compiled).__name__)
    atoms, _, _, nodes, at_start, later, carried, _, rules = compiled
    spent = 0
    found: list[Trace] = []
    last = lam - 1

    def charge(units: int, point: int) -> None:
        # Called before the work it pays for, so that no 2^n-bit value
        # is built past the budget.
        nonlocal spent
        spent += units
        if spent > budget:
            raise BudgetExceeded(
                f"search work exceeds the budget of {budget} units at "
                f"point {point} of {lam}, with {len(found)} models read off")

    charge(lam, 0)
    width = 1 << len(atoms)

    # The minimality tests and their charges (see the module docstring).
    def subset_pass(ok, required, before, total, at_end, point):
        # Lemma 1, state by state.  The empty state has no smaller
        # here-state.  Atoms of s are ranked: bit r of a subset index
        # stands for the r-th atom of s, so the index all-ones is s.
        charge(width * ok.bit_count(), point)
        for s in _members(ok & -2):
            members = _members(s)
            here_atoms = [0] * len(atoms)
            for j, vec in zip(members, atom_vectors(len(members))):
                here_atoms[j] = vec
            here_full = (1 << (1 << len(members))) - 1
            there = [here_full if v >> s & 1 else 0 for v in total]
            here_vals = _evaluate(nodes, here_atoms, here_full, before,
                                  there, at_end)
            smaller = here_full >> 1
            for root in required:
                smaller &= here_vals[root]
            if smaller:
                ok ^= 1 << s
        return ok

    def least_fixpoint(ok, pairs, before, total, at_end, point):
        # Lemma 3: bit s of here[j] is set when atom j is in the least
        # here-state of the rules at candidate s.  G is monotone, so the
        # iterates settle within n + 1 rounds.
        full = (1 << width) - 1
        here = [0] * len(atoms)
        for _ in range(len(atoms) + 1):
            charge(width, point)
            here_vals = _evaluate(nodes, here, full, before, total, at_end)
            heads = [0] * len(atoms)
            for j, body in pairs:
                heads[j] |= full if body is None else here_vals[body]
            if heads == here:
                break
            here = heads
        for h, vec in zip(here, atom_vectors(len(atoms))):
            ok &= ~(h ^ vec)
        charge(width * ok.bit_count(), point)
        return ok

    sets: dict[int, tuple[tuple[str, ...], frozenset[str]]] = {}
    moves: dict[tuple[object, bool], list] = {}

    def step(key, at_end: bool, point: int) -> list[tuple]:
        # (atom tuple, state, carried vector) of each state that may
        # follow a point with carried vector `key`, or start the trace
        # when key is None, in the order of the atom tuples.
        charge(width, point)
        before = None if key is None else dict(zip(carried, key))
        required = at_start if key is None else later
        full = (1 << width) - 1
        vals = _evaluate(nodes, atom_vectors(len(atoms)), full, before, None,
                         at_end)
        ok = full
        for root in required:
            ok &= vals[root]
        pairs = None if rules is None else rules[key is not None]
        if rules is None:
            charge(width * ok.bit_count(), point)
        elif pairs is not None and _fixpoint_pays(ok.bit_count(), len(atoms)):
            ok = least_fixpoint(ok, pairs, before, vals, at_end, point)
        else:
            ok = subset_pass(ok, required, before, vals, at_end, point)
        carried_vals = [vals[slot] for slot in carried]
        out = []
        for s in _members(ok):
            if s not in sets:
                state = tuple([atoms[j] for j in _members(s)])
                sets[s] = state, frozenset(state)
            out.append((*sets[s], tuple([v >> s & 1 for v in carried_vals])))
        out.sort(key=lambda move: move[0])
        return out

    # Forward: layer k maps each carried vector reachable at point k to
    # its moves, computed once per vector and phase (Lemma 2).
    layers = [{None: step(None, last == 0, 0)}]
    for k in range(1, lam):
        at_end = k == last
        layer: dict[tuple, list] = {}
        for out in layers[-1].values():
            charge(len(out), k)
            for _, _, key in out:
                if key not in layer:
                    if (key, at_end) not in moves:
                        moves[key, at_end] = step(key, at_end, k)
                    layer[key] = moves[key, at_end]
        layers.append(layer)
    # Backward: keep only the moves into vectors that reach the last point.
    live = {key for key, out in layers[last].items() if out}
    for layer in reversed(layers[:last]):
        for key, out in layer.items():
            kept = [move for move in out if move[2] in live]
            layer[key] = kept if len(kept) < len(out) else out
        live = {key for key, out in layer.items() if out}

    # The models are the paths, read depth first over sorted moves: in
    # lexicographic order, as equal-length paths are.
    path: list[frozenset[str]] = []
    todo = [iter(layers[0][None])]
    while todo:
        move = next(todo[-1], None)
        if move is None:
            todo.pop()
            continue
        _, state, key = move
        k = len(todo) - 1
        path[k:] = [state]
        if k < last:
            todo.append(iter(layers[k + 1][key]))
        else:
            charge(lam, last)
            # The path holds the frozensets of `sets` and lam >= 1, so
            # `Trace.__new__` would have nothing to coerce or check.
            found.append(tuple.__new__(Trace, path))
    return tuple(found)
