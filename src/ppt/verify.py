"""Machine checks of the compilation correspondences and masking lemmas.

`verify_correspondence` compares the stable models of a program against
the classical models of one of its translations:

* `completion`: agreement is guaranteed for tight programs, and the
  stable models are always a subset of the completion models.
* `completion_loops`: completion plus loop formulas, always an equality.
* `unitary_loops`: the rules read classically plus unitary-regime loop
  formulas, always an equality.

The lemma checkers validate the two masking facts behind the loop
machinery: removing atoms from the here-trace does not change
satisfaction when the removed atoms only occur negated.  Each
precondition is a `syntax.positive_atoms` query: no masked atom may be
in `positive_atoms(f, present_only=True)` for the plain lemma, and no
masked atom outside the loop in `positive_atoms(f)` for the support
lemma.

The random generators are deterministic per seed, and the `run_*_suite`
helpers drive seeded batches for the command line and the test suite.
`verify_correspondence` compiles the program once
(`progression.compile_program`), for the stable side and as the base
of `unitary_loops`, then builds its mode's loop formulas, and compiles
the completion (`compile`) only for the other two modes; it searches
the program and its mode's base extended by the loop formulas.
`run_correspondence_suite` takes both loop regimes from one
`loop_formula_regimes` call per case, compiles the program and the
completion once each, searches the program, the completion, the
completion extended by the default regime (when that regime is
nonempty) and the program extended by the unitary regime, and counts
its verdicts from the model tuples.  The test
`test_correspondence_suite_matches_the_public_path` pins the suite's
counters to `verify_correspondence` in each mode.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from .syntax import (
    And, Atom, AtomRef, CORE_TRUE, FALSUM, Not, Or, PastFormula, Previous,
    Program, Rule, RuleKind, Since, Trigger, Value, atom_tuple, check_int,
    positive_atoms, value_class,
)
from .progression import Trace, check_limits, compile, compile_program, search
from .tht import HTTrace, evaluator, ht_sat, three_valued
from .transform import (
    completion, is_tight, loop_formula_regimes, loop_formulas,
    support_transform, unfold,
)

__all__ = [
    "PreconditionSkipped", "TraceMask", "Report", "GenConfig",
    "MODES", "verify_correspondence", "mask_trace",
    "check_lemma_support", "check_lemma_pastocc",
    "random_program", "random_httrace", "random_past_formula",
    "run_correspondence_suite", "run_lemma_suite", "run_semantics_suite",
]

MODES = ("completion", "completion_loops", "unitary_loops")

MAX_WITNESSES = 5


class PreconditionSkipped(Exception):
    """A lemma instance whose syntactic precondition does not hold.

    Not a failure; batch drivers count these separately.
    """


# ---------------------------------------------------------------------------
# Trace masking
# ---------------------------------------------------------------------------

@value_class
class TraceMask(Value):
    """Atoms to strike from the here-trace, pinned at a pivot point.

    The mask is empty strictly before the pivot and contains at least
    `base` at the pivot; points after the pivot are unconstrained (a
    past formula at the pivot never looks there).
    """

    base: frozenset[Atom]
    pivot: int
    extra: tuple[frozenset[Atom], ...]

    def __init__(self, base: Iterable[Atom], pivot: int,
                 extra: Iterable[Iterable[Atom]]) -> None:
        base = frozenset(atom_tuple(base, "a mask base"))
        extra = tuple(frozenset(atom_tuple(s, "a state")) for s in extra)
        check_int(pivot, "pivot")
        if not 0 <= pivot < len(extra):
            raise ValueError(f"pivot {pivot} outside the mask")
        for t in range(pivot):
            if extra[t]:
                raise ValueError(f"mask must be empty before the pivot (point {t})")
        if not base <= extra[pivot]:
            raise ValueError("mask at the pivot must contain the base set")
        self.__setstate__((base, pivot, extra))


def mask_trace(m: HTTrace, mask: TraceMask) -> HTTrace:
    """Remove the masked atoms from the here-trace, pointwise."""
    if len(mask.extra) != len(m):
        raise ValueError(
            f"mask has length {len(mask.extra)}, trace has length {len(m)}")
    return HTTrace([hk - xk for hk, xk in zip(m.h, mask.extra)], m.t)


def check_lemma_support(f: PastFormula, m: HTTrace, mask: TraceMask) -> bool:
    """Masked satisfaction of f versus satisfaction of its support form,
    the loop being the mask's base.

    Requires every positive occurrence of a masked atom outside the loop
    to sit under a negation; otherwise the instance is skipped.
    """
    checked = mask.extra[mask.pivot] - mask.base
    if positive_atoms(f) & checked:
        raise PreconditionSkipped
    lhs = ht_sat(m, mask.pivot, support_transform(f, mask.base))
    rhs = ht_sat(mask_trace(m, mask), mask.pivot, f)
    return lhs == rhs


def check_lemma_pastocc(f: PastFormula, m: HTTrace, mask: TraceMask) -> bool:
    """Masked satisfaction of f versus plain satisfaction.

    Requires every present and positive occurrence of a masked atom to
    sit under a negation; otherwise the instance is skipped.
    """
    if positive_atoms(f, present_only=True) & mask.extra[mask.pivot]:
        raise PreconditionSkipped
    lhs = ht_sat(m, mask.pivot, f)
    rhs = ht_sat(mask_trace(m, mask), mask.pivot, f)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

_ATOM_POOL = ("a", "b", "c", "d")

# Node class weights for random bodies, `None` for a leaf; temporal
# operators are favoured so since/trigger/previous get real coverage.
_WEIGHTS = (
    (Since, 2), (Trigger, 2), (Previous, 2), (And, 1), (Or, 1), (Not, 1),
    (None, 1),
)

# At most this many negations on any path of a random body.
_MAX_NEGATIONS = 2

# The classes a random body may pick, and their cumulative weights, with
# and without `Not` (past the negation limit).
_OPTIONS = tuple(cls for cls, _ in _WEIGHTS)
_CUM_WEIGHTS = tuple(itertools.accumulate(w for _, w in _WEIGHTS))
_OPTIONS_NO_NOT = tuple(cls for cls in _OPTIONS if cls is not Not)
_CUM_WEIGHTS_NO_NOT = tuple(itertools.accumulate(
    w for cls, w in _WEIGHTS if cls is not Not))


@value_class
class GenConfig(Value):
    """Deterministic program-generator settings."""

    seed: int
    max_atoms: int
    max_rules: int
    max_body_depth: int

    def __init__(self, seed: int = 0, max_atoms: int = 3, max_rules: int = 6,
                 max_body_depth: int = 3) -> None:
        check_int(seed, "seed")
        for name, value, low, high in (
                ("max_atoms", max_atoms, 1, 4), ("max_rules", max_rules, 0, 8),
                ("max_body_depth", max_body_depth, 0, 4)):
            check_int(value, name)
            if not low <= value <= high:
                raise ValueError(f"{name} must be within [{low}, {high}]")
        self.__setstate__((seed, max_atoms, max_rules, max_body_depth))


def random_past_formula(rng: random.Random, atoms, depth: int) -> PastFormula:
    """A random core past formula of at most the given depth."""
    atoms = atom_tuple(atoms, "an atom pool")
    if not atoms:
        raise ValueError("an atom pool must not be empty")
    if check_int(depth, "depth") < 0:
        raise ValueError("depth must be at least 0")

    def leaf() -> PastFormula:
        if rng.random() < 0.08:
            return FALSUM
        return AtomRef(rng.choice(atoms))

    def build(d: int, negs: int) -> PastFormula:
        if d <= 0:
            return leaf()
        if negs < _MAX_NEGATIONS:
            pick = rng.choices(_OPTIONS, cum_weights=_CUM_WEIGHTS)[0]
        else:
            pick = rng.choices(_OPTIONS_NO_NOT,
                               cum_weights=_CUM_WEIGHTS_NO_NOT)[0]
        if pick is None:
            return leaf()
        if pick is Not or pick is Previous:
            return pick(build(d - 1, negs + (pick is Not)))
        return pick(build(d - 1, negs), build(d - 1, negs))

    return build(depth, 0)


def _random_literal_body(rng: random.Random, atoms) -> PastFormula:
    count = rng.choice((0, 1, 1, 2, 2, 3))
    body: PastFormula | None = None
    for _ in range(count):
        literal: PastFormula = AtomRef(rng.choice(atoms))
        if rng.random() < 0.4:
            literal = Not(literal)
        body = literal if body is None else And(body, literal)
    return CORE_TRUE if body is None else body


def random_program(cfg: GenConfig) -> Program:
    """A random well-formed past-present program, deterministic per seed."""
    rng = random.Random(cfg.seed)
    atoms = _ATOM_POOL[:cfg.max_atoms]
    count = 0 if cfg.max_rules == 0 else rng.randint(1, cfg.max_rules)
    rules = []
    for _ in range(count):
        kind = rng.choices(
            (RuleKind.INITIAL, RuleKind.DYNAMIC, RuleKind.FINAL),
            (35, 50, 15))[0]
        if kind is RuleKind.FINAL:
            head: tuple[str, ...] = ()
        else:
            size = rng.choices((0, 1, 2), (15, 60, 25))[0]
            head = tuple(sorted(rng.sample(atoms, min(size, len(atoms)))))
        if kind is RuleKind.DYNAMIC:
            body = random_past_formula(
                rng, atoms, rng.randint(0, cfg.max_body_depth))
        else:
            body = _random_literal_body(rng, atoms)
        rules.append(Rule(kind, head, body))
    return Program(tuple(rules))


def random_httrace(rng: random.Random, atoms, lam: int) -> HTTrace:
    """A random HT-trace over the atoms, uniform pointwise H within T."""
    atoms = atom_tuple(atoms, "an atom pool")
    check_int(lam, "trace length")
    there = []
    here = []
    for _ in range(lam):
        tk = frozenset(a for a in atoms if rng.random() < 0.5)
        # Sorted: a frozenset's order follows the hash seed.
        hk = frozenset(a for a in sorted(tk) if rng.random() < 0.6)
        there.append(tk)
        here.append(hk)
    return HTTrace(here, there)


# ---------------------------------------------------------------------------
# Correspondence reports
# ---------------------------------------------------------------------------

@value_class
class Report(Value):
    """Outcome of one correspondence check: its results only, as the
    caller holds the program, length and mode it asked about."""

    lhs: tuple[Trace, ...]
    rhs: tuple[Trace, ...]
    equal: bool
    witnesses: tuple[Trace, ...]
    tight: bool | None

    def __init__(self, lhs: tuple[Trace, ...], rhs: tuple[Trace, ...],
                 equal: bool, witnesses: tuple[Trace, ...],
                 tight: bool | None = None) -> None:
        self.__setstate__((lhs, rhs, equal, witnesses, tight))


def verify_correspondence(p: Program, lam: int, mode: str,
                          budget: int | None = None) -> Report:
    """Compare stable models against the chosen translation's models.
    The length and budget are checked first, then the mode, then the
    program, which is compiled before the mode's loop formulas are
    built: a non-`Program` is refused alike in every mode, and a loop
    component past the cap fails before either search can exceed its
    budget."""
    check_limits(lam, budget)
    if mode not in MODES:
        raise ValueError(
            f"unknown mode {mode!r} (choose from {', '.join(MODES)})")
    rules = compile_program(p)
    loops = ([] if mode == "completion"
             else loop_formulas(p, mode == "unitary_loops"))
    base = (rules if mode == "unitary_loops"
            else compile(completion(p), p.alphabet))
    lhs = search(rules, lam, budget)
    rhs = search(base.extend(loops), lam, budget)
    witnesses = sorted(set(lhs) ^ set(rhs), key=Trace.to_lists)
    return Report(
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        witnesses=tuple(witnesses[:MAX_WITNESSES]),
        tight=is_tight(p) if mode == "completion" else None,
    )


# ---------------------------------------------------------------------------
# Batch suites
# ---------------------------------------------------------------------------

def _check_suite(cases: int, seed: int) -> None:
    if type(cases) is not int or cases < 0:
        raise ValueError(f"cases must be a nonnegative int, got {cases!r}")
    check_int(seed, "seed")


def run_correspondence_suite(cases: int = 500, seed: int = 0) -> dict:
    """Seeded correspondence batch over random programs.

    Checks, per case and per mode: stable models always within the
    completion models, completion equality whenever the program is
    tight, and equality for the two loop-formula modes.
    """
    _check_suite(cases, seed)
    rng = random.Random(seed)
    summary = {
        "cases": cases,
        "seed": seed,
        "tight_cases": 0,
        "completion_loops_failures": 0,
        "unitary_loops_failures": 0,
        "completion_tight_failures": 0,
        "soundness_failures": 0,
        "failing_seeds": [],
    }
    for case in range(cases):
        case_seed = rng.getrandbits(32)
        cfg = GenConfig(seed=case_seed)
        p = random_program(cfg)
        p = Program(p.rules, frozenset(_ATOM_POOL[:cfg.max_atoms]))
        lam = random.Random(case_seed ^ 0x5EED).randint(1, 3)

        default, unitary = loop_formula_regimes(p)
        rules = compile_program(p)
        completed = compile(completion(p), p.alphabet)
        stable = search(rules, lam)
        models = search(completed, lam)
        # Tightness is computed apart from the loop builder, not read as
        # `not default`, so that a fault in the builder shows up as a
        # loop-mode failure and not as a tightness failure.
        tight = is_tight(p)
        summary["tight_cases"] += tight
        # Without loop formulas, `completion_loops` is the completion.
        looped = search(completed.extend(default), lam) if default else models
        failed = []
        if looped != stable:
            failed.append("completion_loops_failures")
        if search(rules.extend(unitary), lam) != stable:
            failed.append("unitary_loops_failures")
        if not set(stable) <= set(models):
            failed.append("soundness_failures")
        if tight and models != stable:
            failed.append("completion_tight_failures")
        for key in failed:
            summary[key] += 1
        if failed:
            summary["failing_seeds"].append(case_seed)
    summary["failures"] = sum(count for key, count in summary.items()
                              if key.endswith("_failures"))
    return summary


def _pick_mask_atoms(rng: random.Random, f: PastFormula, atoms,
                     base: frozenset[Atom], present_only: bool) -> frozenset[Atom]:
    # Mix construction strategies so that most instances meet the lemma
    # precondition while some exercise the skip path: the base alone, the
    # base and atoms the precondition allows, or the base and any atoms.
    roll = rng.random()
    if roll < 0.35:
        return base
    pool = frozenset(atoms) - base
    if roll < 0.85:
        pool -= positive_atoms(f, present_only)
    pool = sorted(pool)
    return base | frozenset(rng.sample(pool, rng.randint(0, len(pool))))


def _random_mask(rng: random.Random, atoms, lam: int, pivot: int,
                 pivot_atoms: frozenset[Atom],
                 base: frozenset[Atom]) -> TraceMask:
    atoms = tuple(atoms)
    extra = [frozenset()] * pivot + [pivot_atoms]
    for _ in range(pivot + 1, lam):
        extra.append(frozenset(a for a in atoms if rng.random() < 0.3))
    return TraceMask(base, pivot, tuple(extra))


def run_lemma_suite(lemma: str, cases: int = 10_000, seed: int = 0) -> dict:
    """Seeded batch for one of the masking lemmas.

    `lemma` is "support" or "pastocc".  Returns checked/skipped/failure
    counts; a failure is a genuine counterexample.
    """
    if lemma not in ("support", "pastocc"):
        raise ValueError(f"unknown lemma {lemma!r}")
    _check_suite(cases, seed)
    support = lemma == "support"
    check = check_lemma_support if support else check_lemma_pastocc
    rng = random.Random(seed)
    atoms = _ATOM_POOL[:3]
    summary = {"lemma": lemma, "cases": cases, "seed": seed,
               "checked": 0, "skipped": 0, "failures": 0}
    for _ in range(cases):
        lam = rng.randint(1, 3)
        m = random_httrace(rng, atoms, lam)
        f = random_past_formula(rng, atoms, rng.randint(0, 4))
        pivot = rng.randrange(lam)
        # The support lemma masks a random loop; the past-occurrence
        # lemma has no loop, so its mask base is empty.
        base = frozenset()
        if support:
            base = frozenset(rng.sample(atoms, rng.randint(0, len(atoms))))
        pivot_atoms = _pick_mask_atoms(rng, f, atoms, base,
                                       present_only=not support)
        mask = _random_mask(rng, atoms, lam, pivot, pivot_atoms, base)
        try:
            ok = check(f, m, mask)
        except PreconditionSkipped:
            summary["skipped"] += 1
            continue
        summary["checked"] += 1
        if not ok:
            summary["failures"] += 1
    summary["skip_rate"] = summary["skipped"] / cases if cases else 0.0
    return summary


def run_semantics_suite(cases: int = 10_000, seed: int = 0) -> dict:
    """Three-valued correspondence and since/trigger unfolding batch.

    Per case: the three-valued value must be 2 exactly on here
    satisfaction and nonzero exactly on total satisfaction, and the
    one-step unfoldings of since (with previous) and trigger (with weak
    previous) that the support transformation emits (`transform.unfold`)
    must agree with the direct connectives.
    """
    _check_suite(cases, seed)
    rng = random.Random(seed)
    atoms = _ATOM_POOL[:3]
    summary = {"cases": cases, "seed": seed,
               "three_valued_failures": 0, "unfolding_failures": 0}
    for _ in range(cases):
        lam = rng.randint(1, 4)
        m = random_httrace(rng, atoms, lam)
        k = rng.randrange(lam)
        # One evaluator of m serves every formula of the case;
        # `eval(g, True)` reads <T, T>.
        ev = evaluator(m)
        bit = 1 << k
        f = random_past_formula(rng, atoms, rng.randint(0, 5))
        value = three_valued(m, k, f)
        if ((value == 2) != bool(ev.eval(f, False) & bit)
                or (value != 0) != bool(ev.eval(f, True) & bit)):
            summary["three_valued_failures"] += 1
        lhs = random_past_formula(rng, atoms, rng.randint(0, 2))
        rhs = random_past_formula(rng, atoms, rng.randint(0, 2))
        since = Since(lhs, rhs)
        since_unfolded = unfold(since, lhs, rhs)
        trigger = Trigger(lhs, rhs)
        trigger_unfolded = unfold(trigger, lhs, rhs)
        if any(((ev.eval(since, total) ^ ev.eval(since_unfolded, total))
                | (ev.eval(trigger, total) ^ ev.eval(trigger_unfolded, total)))
               & bit for total in (False, True)):
            summary["unfolding_failures"] += 1
    summary["failures"] = sum(count for key, count in summary.items()
                              if key.endswith("_failures"))
    return summary
