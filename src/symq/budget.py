"""Node budgets that keep exhaustive searches from hanging."""

from __future__ import annotations

import os

from .errors import SearchBudgetExceeded

DEFAULT_SEARCH_BUDGET = 10_000_000
ENV_VAR = "SYMQ_BUDGET"


def resolve_budget(value: int | None = None) -> int:
    """Pick the budget: explicit value, then SYMQ_BUDGET, then the default.

    A budget that is not an integer, or is negative, is refused with a
    ValueError naming its source; 0 is valid and lets only search-free work
    finish.
    """
    source, raw = "node budget", value
    if value is None:
        source, raw = ENV_VAR, os.environ.get(ENV_VAR, DEFAULT_SEARCH_BUDGET)
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"{source} is not an integer: {raw!r}") from None
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
