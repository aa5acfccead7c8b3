"""Node budgets that keep exhaustive searches from hanging."""

from __future__ import annotations

import os

from .errors import SearchBudgetExceeded

__all__ = ["DEFAULT_SEARCH_BUDGET", "SearchBudget", "resolve_budget"]

DEFAULT_SEARCH_BUDGET = 10_000_000
ENV_VAR = "SYMQ_BUDGET"


def resolve_budget(value: int | None = None) -> int:
    """Pick the budget: explicit value, then SYMQ_BUDGET, then the default.

    A budget that is not an integer, or is negative, is refused with a
    ValueError naming its source; 0 is valid and lets only search-free work
    finish.  As for `perms.as_permutation`, digit strings and integral
    numbers (3.0) are read as numbers, but a bool or a number that int()
    would change (2.7) is refused.
    """
    source, raw = "node budget", value
    if value is None:
        source, raw = ENV_VAR, os.environ.get(ENV_VAR, DEFAULT_SEARCH_BUDGET)
    not_integer = f"{source} is not an integer: {raw!r}"
    try:
        budget = int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(not_integer) from None
    if isinstance(raw, bool) or (raw != budget and not isinstance(raw, (str, bytes))):
        raise ValueError(not_integer)
    if budget < 0:
        raise ValueError(f"{source} is negative: {raw!r}")
    return budget


class SearchBudget:
    """Counts search nodes and raises once the limit is crossed."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit = resolve_budget(limit)
        self.used = 0

    def spend(self, nodes: int = 1) -> None:
        self.used += nodes
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.limit)
