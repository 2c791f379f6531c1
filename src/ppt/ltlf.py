"""Classical models of the compiler output over total finite traces.

The target side of the compilation, two-valued: past connectives read as
on total HT-traces, `I` true only at the first point, `F` only at the
last.  Models come from the search of `ppt.progression` without its
minimality test, in its canonical order; `ltlf_sat` checks one trace
through `tht.formula_sat`.
Both reject an `always` or `wnext_always` below the top of a formula.
"""

from __future__ import annotations

from typing import Iterable

from .progression import Trace, check_limits, compile, search
from .tht import HTTrace, formula_sat

__all__ = ["ltlf_sat", "enumerate_ltlf_models"]


def ltlf_sat(t: Trace, k: int, f) -> bool:
    """Satisfaction of an extended formula at point k of a total trace."""
    return formula_sat(HTTrace.total(t), k, f)


def enumerate_ltlf_models(fs: Iterable, lam: int, alphabet,
                          budget: int | None = None) -> tuple[Trace, ...]:
    """All total traces over the alphabet satisfying every formula at 0,
    in canonical order.  The length and budget are checked before the
    formulas are compiled."""
    check_limits(lam, budget)
    return search(compile(fs, alphabet), lam, budget)
