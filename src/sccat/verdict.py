"""Three-valued verdicts and search budgets.

Every decision procedure in this package returns a :class:`Verdict`.  A
definite answer (yes/no) always carries a payload that an independent
verifier can re-check; an unknown answer names the reason the search gave
up.  Aggregation order is fixed: a definite "no" dominates "unknown",
which dominates "yes", so a composite check never masks a counterexample.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

# reasons an Unknown verdict may carry
BUDGET = "budget-exhausted"
UNDECIDED_GROUP = "undecided-group"

_REASONS = (BUDGET, UNDECIDED_GROUP)


@dataclass(frozen=True)
class Verdict:
    kind: str
    witness: Any = None
    reason: str | None = None
    qualifier: dict = field(default_factory=dict)

    @staticmethod
    def yes(witness: Any = None, **qualifier) -> "Verdict":
        return Verdict(YES, witness=witness, qualifier=qualifier)

    @staticmethod
    def no(witness: Any = None, **qualifier) -> "Verdict":
        return Verdict(NO, witness=witness, qualifier=qualifier)

    @staticmethod
    def unknown(reason: str, witness: Any = None, **qualifier) -> "Verdict":
        if reason not in _REASONS:
            raise ValueError(f"unknown reason {reason!r}")
        return Verdict(UNKNOWN, witness=witness, reason=reason, qualifier=qualifier)

    @property
    def is_yes(self) -> bool:
        return self.kind == YES

    @property
    def is_no(self) -> bool:
        return self.kind == NO

    @property
    def is_definite(self) -> bool:
        return self.kind != UNKNOWN

    def __bool__(self) -> bool:  # guard against accidental truthiness tests
        raise TypeError("Verdict is three-valued; test .is_yes / .is_no explicitly")


def aggregate(verdicts: Iterable[Verdict], witness_on_yes: Any = None, **qualifier) -> Verdict:
    """Combine sub-verdicts; no > unknown > yes.  A yes keeps the smallest
    ``checked_max_dim`` of the sub-verdicts and the caller, so a check
    truncated at some dimension never reads as a plain yes."""
    pending_unknown = None
    dims = [qualifier["checked_max_dim"]] if "checked_max_dim" in qualifier else []
    for v in verdicts:
        if v.is_no:
            return Verdict(NO, witness=v.witness, qualifier={**v.qualifier, **qualifier})
        if v.kind == UNKNOWN and pending_unknown is None:
            pending_unknown = v
        if "checked_max_dim" in v.qualifier:
            dims.append(v.qualifier["checked_max_dim"])
    if pending_unknown is not None:
        return Verdict(UNKNOWN, witness=pending_unknown.witness,
                       reason=pending_unknown.reason,
                       qualifier={**pending_unknown.qualifier, **qualifier})
    if dims:
        qualifier["checked_max_dim"] = min(dims)
    return Verdict(YES, witness=witness_on_yes, qualifier=qualifier)


@dataclass(frozen=True)
class Budget:
    """Caps on the exhaustive searches.

    max_dim bounds the dimension of generating maps tried: the Kan,
    acyclic-fibration and fibration checks and route (b) read it, while
    ``factor_bounded`` (whose generators fix their own dimensions) and the
    DK-equivalence check do not.  max_words bounds the number of
    adjoined-generator letters in a composite word and the number of cells
    ``factor_bounded`` attaches, max_steps the number of steps a
    :class:`_Steps` counter allows: search nodes, join steps, pushout word
    extensions or coset-table rows.  For ``is_kan_fibration`` and
    ``is_acyclic_fibration_sset``, max_steps is one total per top-level call
    over all horns or boundaries, for ``is_fibration`` one total over the
    horns of every hom map, and for route (b) and ``factor_bounded`` one
    total over the hom-wise lifting checks of the whole call; naming a
    counterexample square charges nothing, nor does a failed test of a map
    for a bijection on a cell's levels n - 1 and n: a size mismatch costs one
    comparison, else the join that follows charges at least |X_{n-1}|.  A
    test that passes replaces the join and charges |X_{n-1}| + |X_n|, a step
    per simplex read, never more than the join; so it only turns unknowns
    into definite answers.  Each functor search (as in ``solve_lifting``) and
    each pushout gets max_steps of its own, and the coset table of each
    ``is_trivial_group`` call min(max_steps, 20 000) rows of its own.
    """
    max_dim: int = 4
    max_words: int = 64
    max_steps: int = 10**6

    def __post_init__(self):
        if any(type(v) is not int or v <= 0 for v in vars(self).values()):
            raise ValueError("budget fields must be positive ints")


def _budget(budget) -> Budget:
    """What a ``budget=`` slot holds, checked on entry: None is the default
    Budget, a Budget is used as given, and anything else an InputError."""
    if budget is None:
        return Budget()
    if not isinstance(budget, Budget):
        raise InputError(f"budget must be a Budget or None, got {budget!r}")
    return budget


class BudgetExceeded(Exception):
    """The one budget signal: a search, join, coset table or pushout ran out
    of its budget.  Decision procedures catch it and answer unknown."""


class _Steps:
    """The one step counter of every engine: ``charge(n)`` counts n steps and
    raises BudgetExceeded once the count passes ``cap``, never when ``cap``
    is None.  One counter may be shared by the sub-checks of a whole call;
    coset-table rows count on one of their own, capped at min(max_steps,
    20 000) by ``is_trivial_group``."""

    def __init__(self, cap: int | None):
        self.left = float("inf") if cap is None else cap

    def charge(self, n: int = 1) -> None:
        self.left -= n
        if self.left < 0:
            raise BudgetExceeded("step budget exhausted")


class InputError(ValueError):
    """Malformed or mismatched inputs to an operation."""


class StructureError(ValueError):
    """An object failed a structural invariant it was assumed to satisfy."""
