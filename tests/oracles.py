"""Brute-force reference for temporal stable models.

Every total trace over the alphabet is tested for modelhood, and each
model is tested for minimality against every strictly smaller
here-trace (pointwise subsets), short-circuiting on the first smaller
model found.  It shares the bitmask evaluator with `ppt.tht` but none
of the state-by-state search of `ppt.progression`, which it checks.
"""

from ppt import Program, Trace
from ppt.tht import (
    _BitEvaluator, _check_budget, _check_rule, _resolve_alphabet,
)


def _bits_to_trace(flat: int, atoms: tuple[str, ...], lam: int) -> Trace:
    states = []
    for k in range(lam):
        states.append(frozenset(
            atoms[j] for j in range(len(atoms)) if flat >> (j * lam + k) & 1))
    return Trace(tuple(states))


def brute_force_ts_models(p: Program, lam: int, alphabet=None,
                          budget: int | None = None) -> set[Trace]:
    """All temporal stable models, by trying every candidate trace."""
    if lam < 1:
        raise ValueError("trace length must be at least 1")
    atoms = _resolve_alphabet(p, alphabet)
    _check_budget(len(atoms), lam, budget)
    rules = p.rules
    lam_mask = (1 << lam) - 1
    models: set[Trace] = set()
    for flat in range(1 << (len(atoms) * lam)):
        t_bits = {a: (flat >> (j * lam)) & lam_mask
                  for j, a in enumerate(atoms)}
        ev = _BitEvaluator(t_bits, t_bits, lam)
        if not all(_check_rule(ev, r, total_only=True) for r in rules):
            continue
        total_memo = ev.memo
        stable = True
        sub = flat
        while sub:
            sub = (sub - 1) & flat
            h_bits = {a: (sub >> (j * lam)) & lam_mask
                      for j, a in enumerate(atoms)}
            ev_h = _BitEvaluator(h_bits, t_bits, lam, dict(total_memo))
            if all(_check_rule(ev_h, r, total_only=False) for r in rules):
                stable = False
                break
            if sub == 0:
                break
        if stable:
            models.add(_bits_to_trace(flat, atoms, lam))
    return models
