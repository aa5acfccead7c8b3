"""Node budgets that keep exhaustive searches from hanging."""

from __future__ import annotations

from .errors import SearchBudgetExceeded

__all__ = ["DEFAULT_SEARCH_BUDGET", "SearchBudget", "resolve_budget"]

DEFAULT_SEARCH_BUDGET = 10_000_000


def resolve_budget(value: int | None = None) -> int:
    """The budget `value` names, or DEFAULT_SEARCH_BUDGET when it is None.

    A budget that is not an integer, or is negative, is refused with a
    ValueError; 0 is valid and lets only search-free work finish.  As for
    `perms.as_permutation`, digit strings and integral numbers (3.0) are
    read as numbers, but a bool or a number that int() would change (2.7)
    is refused.
    """
    if value is None:
        return DEFAULT_SEARCH_BUDGET
    not_integer = f"node budget is not an integer: {value!r}"
    try:
        budget = int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(not_integer) from None
    if isinstance(value, bool) or (value != budget and not isinstance(value, (str, bytes))):
        raise ValueError(not_integer)
    if budget < 0:
        raise ValueError(f"node budget is negative: {value!r}")
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
