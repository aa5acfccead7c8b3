"""Helpers for permutations given in one-line notation on 0..n-1."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from operator import itemgetter

from .errors import MalformedPermutation


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def is_int(x: object) -> bool:
    """An int (or int subclass) but not a bool: the one rule, with no conversion,
    for every integer a caller hands the library."""
    return isinstance(x, int) and not isinstance(x, bool)


def int_fault(x: object, fault: str) -> str:
    """What a refusal says of `x`: `fault`, the wording for an int, when `x`
    is_int, and "is not an integer" otherwise."""
    return fault if is_int(x) else "is not an integer"


def as_permutation(seq: Iterable[int], n: int) -> tuple[int, ...]:
    """The entries of `seq`, each `is_int` (a bool, 2.0 or "2" is refused), as a
    tuple verified to permute 0..n-1."""
    perm = tuple(seq)
    if not set(map(type, perm)) <= {int}:  # an all-int input skips the scan
        for x in perm:
            if not is_int(x):
                raise MalformedPermutation(f"non-integer entry: {x!r}")
    if len(perm) != n:
        raise MalformedPermutation(f"expected length {n}, got {len(perm)}")
    if sorted(perm) != list(range(n)):
        raise MalformedPermutation("entries are not a rearrangement of 0..n-1")
    return perm


def invert(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, v in enumerate(perm):
        inv[v] = i
    return tuple(inv)


def gather(indices: Sequence[int]):
    """Map a row r to tuple(r[i] for i in indices) at C speed; itemgetter of
    one index returns the bare item, but a one-entry row is its own gather."""
    return itemgetter(*indices) if len(indices) > 1 else tuple


def first_mismatch(
    t1: Sequence[Sequence[int]], t2: Sequence[Sequence[int]],
    p: Sequence[int], q: Sequence[int], rows: Iterable[int] | None = None,
) -> tuple[int, int] | None:
    """The first (x, y), row by row, with p[t1[x][y]] != t2[p[x]][q[y]], or None:
    the identity p(x * y) = p(x) *' q(y), checked one whole row per two gathers,
    on the rows x of `rows` in their order, or on every row of t1.  When q is
    the identity, a row of t2 is compared as it stands, which saves the
    second gather: half of an associativity scan."""
    by_q = tuple if tuple(q) == identity_perm(len(q)) else gather(q)
    for x in range(len(t1)) if rows is None else rows:
        lhs, rhs = gather(t1[x])(p), by_q(t2[p[x]])
        if lhs != rhs:
            return x, next(y for y, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return None


def cycle_type(perm: Sequence[int]) -> tuple[int, ...]:
    """Multiset of cycle lengths, sorted ascending."""
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))
