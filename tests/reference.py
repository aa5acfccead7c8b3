"""Plain-filter reference for the good-involution oracle, used only by tests.

It shares nothing with the package's search: it walks every involutive
permutation and keeps those that pass `check_good_involution`, the
definition read condition by condition.
"""

from __future__ import annotations

from collections.abc import Iterator

import symq

# The plain filter walks every involutive permutation; past this order the
# count explodes and the search-based enumerator must be used.
_FILTER_MAX_ORDER = 12


def involutions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield every involutive permutation of 0..n-1 in lexicographic order.

    The smallest unplaced point is either fixed or paired with a larger
    point, smallest partner first, which makes the output order lexicographic.
    """
    perm = list(range(n))
    used = [False] * n

    def rec(start: int) -> Iterator[tuple[int, ...]]:
        i = start
        while i < n and used[i]:
            i += 1
        if i == n:
            yield tuple(perm)
            return
        used[i] = True
        yield from rec(i + 1)  # i stays fixed
        for j in range(i + 1, n):
            if used[j]:
                continue
            used[j] = True
            perm[i], perm[j] = j, i
            yield from rec(i + 1)
            used[j] = False
            perm[i], perm[j] = i, j
        used[i] = False

    yield from rec(0)


def enumerate_good_involutions_by_filter(
    q: symq.FiniteQuandle,
) -> list[symq.SymmetricQuandle]:
    """Self-test oracle: filter every involutive permutation directly."""
    if q.order > _FILTER_MAX_ORDER:
        raise ValueError(
            f"plain filter only runs up to order {_FILTER_MAX_ORDER}, got {q.order}"
        )
    return [
        symq.SymmetricQuandle(quandle=q, rho=p)
        for p in involutions(q.order)
        if symq.check_good_involution(q, p) is None
    ]
