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
satisfaction when the removed atoms only occur negated (present and
positive occurrences for the plain lemma, positive occurrences outside
the loop for the support lemma).

The random generators are deterministic per seed, and the `run_*_suite`
helpers drive seeded batches for the command line and the test suite.
`verify_correspondence` and `run_correspondence_suite` both take each
mode's translation from `_target_formulas`, which looks the translation
functions up by name at call time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import LengthMismatch
from .syntax import (
    And, Atom, AtomRef, CORE_TRUE, FALSUM, INITIAL_EXPANSION, Not, Or,
    PastFormula, Previous, Program, Rule, RuleKind, Since, Trigger,
    classify_occurrences, format_program, PRESENT,
)
from .tht import HTTrace, Trace, enumerate_ts_models, ht_sat, three_valued
from .ltlf import enumerate_ltlf_models
from .depgraph import is_tight
from .transform import completion, loop_formulas, program_as_ltlf, support_transform

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

@dataclass(frozen=True, slots=True)
class TraceMask:
    """Atoms to strike from the here-trace, pinned at a pivot point.

    The mask is empty strictly before the pivot and contains at least
    `base` at the pivot; points after the pivot are unconstrained (a
    past formula at the pivot never looks there).
    """

    base: frozenset[Atom]
    pivot: int
    extra: tuple[frozenset[Atom], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", frozenset(self.base))
        object.__setattr__(self, "extra",
                           tuple(frozenset(s) for s in self.extra))
        if not 0 <= self.pivot < len(self.extra):
            raise ValueError(f"pivot {self.pivot} outside the mask")
        for t in range(self.pivot):
            if self.extra[t]:
                raise ValueError(f"mask must be empty before the pivot (point {t})")
        if not self.base <= self.extra[self.pivot]:
            raise ValueError("mask at the pivot must contain the base set")


def mask_trace(m: HTTrace, mask: TraceMask) -> HTTrace:
    """Remove the masked atoms from the here-trace, pointwise."""
    if len(mask.extra) != len(m):
        raise LengthMismatch(
            f"mask has length {len(mask.extra)}, trace has length {len(m)}")
    here = Trace(tuple(hk - xk for hk, xk in zip(m.h, mask.extra)))
    return HTTrace(here, m.t)


def _violations(f: PastFormula, atoms: frozenset[Atom],
                present_only: bool) -> set[Atom]:
    bad = set()
    for occ in classify_occurrences(f):
        if occ.atom not in atoms:
            continue
        if present_only and occ.presentness != PRESENT:
            continue
        if not occ.negated:
            bad.add(occ.atom)
    return bad


def check_lemma_support(f: PastFormula, m: HTTrace, mask: TraceMask) -> bool:
    """Masked satisfaction of f versus satisfaction of its support form,
    the loop being the mask's base.

    Requires every positive occurrence of a masked atom outside the loop
    to sit under a negation; otherwise the instance is skipped.
    """
    checked = mask.extra[mask.pivot] - mask.base
    if _violations(f, checked, present_only=False):
        raise PreconditionSkipped
    lhs = ht_sat(m, mask.pivot, support_transform(f, mask.base))
    rhs = ht_sat(mask_trace(m, mask), mask.pivot, f)
    return lhs == rhs


def check_lemma_pastocc(f: PastFormula, m: HTTrace, mask: TraceMask) -> bool:
    """Masked satisfaction of f versus plain satisfaction.

    Requires every present and positive occurrence of a masked atom to
    sit under a negation; otherwise the instance is skipped.
    """
    if _violations(f, mask.extra[mask.pivot], present_only=True):
        raise PreconditionSkipped
    lhs = ht_sat(m, mask.pivot, f)
    rhs = ht_sat(mask_trace(m, mask), mask.pivot, f)
    return lhs == rhs


# ---------------------------------------------------------------------------
# Random generation
# ---------------------------------------------------------------------------

_ATOM_POOL = ("a", "b", "c", "d")

# Connective weights for random bodies; temporal operators are favoured
# so since/trigger/previous get real coverage.
_WEIGHTS = (
    ("since", 2), ("trigger", 2), ("prev", 2), ("and", 1), ("or", 1),
    ("not", 1), ("leaf", 1),
)

# At most this many negations on any path of a random body.
_MAX_NEGATIONS = 2


@dataclass(frozen=True)
class GenConfig:
    """Deterministic program-generator settings."""

    seed: int = 0
    max_atoms: int = 3
    max_rules: int = 6
    max_body_depth: int = 3

    def __post_init__(self) -> None:
        if not 1 <= self.max_atoms <= 4:
            raise ValueError("max_atoms must be within [1, 4]")
        if not 0 <= self.max_rules <= 8:
            raise ValueError("max_rules must be within [0, 8]")
        if not 0 <= self.max_body_depth <= 4:
            raise ValueError("max_body_depth must be within [0, 4]")


def random_past_formula(rng: random.Random, atoms, depth: int) -> PastFormula:
    """A random core past formula of at most the given depth."""
    atoms = tuple(atoms)
    names = [name for name, _ in _WEIGHTS]
    table = dict(_WEIGHTS)

    def leaf() -> PastFormula:
        if rng.random() < 0.08:
            return FALSUM
        return AtomRef(rng.choice(atoms))

    def build(d: int, negs: int) -> PastFormula:
        if d <= 0:
            return leaf()
        options = [n for n in names
                   if n != "not" or negs < _MAX_NEGATIONS]
        pick = rng.choices(options, [table[n] for n in options])[0]
        if pick == "leaf":
            return leaf()
        if pick == "not":
            return Not(build(d - 1, negs + 1))
        if pick == "prev":
            return Previous(build(d - 1, negs))
        if pick == "and":
            return And(build(d - 1, negs), build(d - 1, negs))
        if pick == "or":
            return Or(build(d - 1, negs), build(d - 1, negs))
        if pick == "since":
            return Since(build(d - 1, negs), build(d - 1, negs))
        return Trigger(build(d - 1, negs), build(d - 1, negs))

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
    for index in range(count):
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
        rules.append(Rule(kind, head, body, index))
    return Program(tuple(rules))


def random_httrace(rng: random.Random, atoms, lam: int) -> HTTrace:
    """A random HT-trace over the atoms, uniform pointwise H within T."""
    atoms = tuple(atoms)
    there = []
    here = []
    for _ in range(lam):
        tk = frozenset(a for a in atoms if rng.random() < 0.5)
        hk = frozenset(a for a in tk if rng.random() < 0.6)
        there.append(tk)
        here.append(hk)
    return HTTrace(Trace(tuple(here)), Trace(tuple(there)))


# ---------------------------------------------------------------------------
# Correspondence reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """Outcome of one correspondence check."""

    program: Program
    length: int
    mode: str
    lhs: tuple[Trace, ...]
    rhs: tuple[Trace, ...]
    equal: bool
    witnesses: tuple[Trace, ...]
    tight: bool | None = None

    def to_json(self) -> dict:
        return {
            "program": format_program(self.program),
            "length": self.length,
            "mode": self.mode,
            "tight": self.tight,
            "equal": self.equal,
            "ts_models": [t.to_lists() for t in self.lhs],
            "ltlf_models": [t.to_lists() for t in self.rhs],
            "witnesses": [t.to_lists() for t in self.witnesses],
        }


def _target_formulas(p: Program, mode: str) -> list:
    if mode == "completion":
        return completion(p)
    if mode == "completion_loops":
        return completion(p) + loop_formulas(p, unitary=False)
    if mode == "unitary_loops":
        return program_as_ltlf(p) + loop_formulas(p, unitary=True)
    raise ValueError(f"unknown mode {mode!r} (choose from {', '.join(MODES)})")


def verify_correspondence(p: Program, lam: int, mode: str,
                          budget: int | None = None) -> Report:
    """Compare stable models against the chosen translation's models."""
    formulas = _target_formulas(p, mode)
    lhs = enumerate_ts_models(p, lam, budget=budget)
    rhs = enumerate_ltlf_models(formulas, lam, p.alphabet, budget)
    witnesses = sorted(lhs ^ rhs, key=Trace.sort_key)[:MAX_WITNESSES]
    return Report(
        program=p,
        length=lam,
        mode=mode,
        lhs=tuple(sorted(lhs, key=Trace.sort_key)),
        rhs=tuple(sorted(rhs, key=Trace.sort_key)),
        equal=lhs == rhs,
        witnesses=tuple(witnesses),
        tight=is_tight(p) if mode == "completion" else None,
    )


# ---------------------------------------------------------------------------
# Batch suites
# ---------------------------------------------------------------------------

def run_correspondence_suite(cases: int = 500, seed: int = 0,
                             budget: int | None = None) -> dict:
    """Seeded correspondence batch over random programs.

    Checks, per case and per mode: stable models always within the
    completion models, completion equality whenever the program is
    tight, and equality for the two loop-formula modes.
    """
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

        ts = enumerate_ts_models(p, lam, budget=budget)
        tight = is_tight(p)
        if tight:
            summary["tight_cases"] += 1
        failed = []
        for mode in MODES:
            models = enumerate_ltlf_models(
                _target_formulas(p, mode), lam, p.alphabet, budget)
            if mode != "completion":
                if ts != models:
                    failed.append(f"{mode}_failures")
                continue
            if not ts <= models:
                failed.append("soundness_failures")
            if tight and ts != models:
                failed.append("completion_tight_failures")
        for key in failed:
            summary[key] += 1
        if failed:
            summary["failing_seeds"].append(case_seed)
    summary["failures"] = (
        summary["completion_loops_failures"]
        + summary["unitary_loops_failures"]
        + summary["completion_tight_failures"]
        + summary["soundness_failures"])
    return summary


def _pick_mask_atoms(rng: random.Random, f: PastFormula, atoms,
                     base: frozenset[Atom], present_only: bool) -> frozenset[Atom]:
    # Mix construction strategies so that most instances meet the lemma
    # precondition while some exercise the skip path.
    atoms = frozenset(atoms)
    roll = rng.random()
    if roll < 0.35:
        return base
    if roll < 0.85:
        unsafe = _violations(f, atoms - base, present_only)
        safe = sorted(atoms - base - unsafe)
        picked = rng.sample(safe, rng.randint(0, len(safe)))
        return base | frozenset(picked)
    extras = sorted(atoms - base)
    picked = rng.sample(extras, rng.randint(0, len(extras)))
    return base | frozenset(picked)


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
    support = lemma == "support"
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
            if support:
                ok = check_lemma_support(f, m, mask)
            else:
                ok = check_lemma_pastocc(f, m, mask)
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
    previous) must agree with the direct connectives.
    """
    rng = random.Random(seed)
    atoms = _ATOM_POOL[:3]
    summary = {"cases": cases, "seed": seed,
               "three_valued_failures": 0, "unfolding_failures": 0}
    for _ in range(cases):
        lam = rng.randint(1, 4)
        m = random_httrace(rng, atoms, lam)
        total = HTTrace.total(m.t)
        k = rng.randrange(lam)
        f = random_past_formula(rng, atoms, rng.randint(0, 5))
        value = three_valued(m, k, f)
        if ((value == 2) != ht_sat(m, k, f)
                or (value != 0) != ht_sat(total, k, f)):
            summary["three_valued_failures"] += 1
        lhs = random_past_formula(rng, atoms, rng.randint(0, 2))
        rhs = random_past_formula(rng, atoms, rng.randint(0, 2))
        since = Since(lhs, rhs)
        since_unfolded = Or(rhs, And(lhs, Previous(since)))
        trigger = Trigger(lhs, rhs)
        trigger_unfolded = And(rhs, Or(lhs, Or(Previous(trigger),
                                               INITIAL_EXPANSION)))
        for probe in (m, total):
            if (ht_sat(probe, k, since) != ht_sat(probe, k, since_unfolded)
                    or ht_sat(probe, k, trigger)
                    != ht_sat(probe, k, trigger_unfolded)):
                summary["unfolding_failures"] += 1
                break
    summary["failures"] = (summary["three_valued_failures"]
                           + summary["unfolding_failures"])
    return summary
