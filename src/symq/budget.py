"""Node budgets that keep exhaustive searches from hanging."""

from __future__ import annotations

from .errors import SearchBudgetExceeded
from .perms import is_int

__all__ = ["DEFAULT_SEARCH_BUDGET", "SearchBudget", "resolve_budget"]

DEFAULT_SEARCH_BUDGET = 10_000_000


def resolve_budget(value: int | None = None) -> int:
    """The budget `value` names, or DEFAULT_SEARCH_BUDGET when it is None.

    A budget that is not `perms.is_int` (a bool, 3.0, "12"), or is negative,
    is refused with a ValueError; 0 lets only search-free work finish.
    """
    if value is None:
        return DEFAULT_SEARCH_BUDGET
    if not is_int(value):
        raise ValueError(f"node budget is not an integer: {value!r}")
    if value < 0:
        raise ValueError(f"node budget is negative: {value!r}")
    return value


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
