"""Helpers for permutations given in one-line notation on 0..n-1."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .errors import MalformedPermutation


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def as_permutation(seq: Iterable[int], n: int) -> tuple[int, ...]:
    """Coerce to a tuple and verify it permutes 0..n-1."""
    try:
        perm = tuple(int(x) for x in seq)
    except (TypeError, ValueError) as exc:
        raise MalformedPermutation(f"non-integer entry: {exc}") from None
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


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Composition p after q: x -> p[q[x]]."""
    return tuple(p[x] for x in q)


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
