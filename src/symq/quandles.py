"""Finite quandles, twisted-conjugation constructions, and their maps.

A quandle of order n is stored as two n x n tables: `op[x][y]` for x ^ y and
`inv_op[x][y]` for the column-inverse operation x ^ (y inverse).  Everything
is immutable once built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import perms
from .budget import SearchBudget
from .errors import (
    InternalConsistencyError,
    NotCentralizing,
    NotConnected,
    NotGalexOrigin,
    NotMultiplicative,
    NotOpPreserving,
    BadElement,
    Q1Violation,
    Q2Violation,
    Q3Violation,
)
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    OrbitPartition,
    _check_table_shape,
    orbits_under,
    validate_automorphism,
)

__all__ = [
    "GalexOrigin",
    "FiniteQuandle",
    "QuandleMap",
    "validate_quandle",
    "galex",
    "is_kei",
    "kei_witness",
    "is_connected",
    "inner_orbits",
    "quandle_map",
    "quandle_isomorphisms",
    "quandle_automorphisms",
    "f_sharp",
    "affine_automorphism",
]


@dataclass(frozen=True)
class GalexOrigin:
    """Construction record: which (group, automorphism) pair built a quandle."""

    group: FiniteGroup
    aut: GroupAutomorphism


@dataclass(frozen=True)
class FiniteQuandle:
    order: int
    op: tuple[tuple[int, ...], ...]
    inv_op: tuple[tuple[int, ...], ...]
    origin: GalexOrigin | None = None

    def column(self, y: int) -> tuple[int, ...]:
        """The inner permutation x -> x ^ y."""
        return tuple(self.op[x][y] for x in range(self.order))


@dataclass(frozen=True)
class QuandleMap:
    """Operation-preserving bijection between two quandles of equal order."""

    source: FiniteQuandle
    target: FiniteQuandle
    perm: tuple[int, ...]

    def apply(self, x: int) -> int:
        return self.perm[x]


def validate_quandle(op_table: Sequence[Sequence[int]]) -> FiniteQuandle:
    """Verify the three quandle axioms and derive the inverse operation.

    Check order is fixed: shape, idempotence, column bijectivity (which
    yields inv_op), then right self-distributivity.  Witness indices are the
    smallest in scan order.
    """
    rows = _check_table_shape(op_table)
    n = len(rows)
    for x in range(n):
        if rows[x][x] != x:
            raise Q1Violation(x)

    inv_cols = []
    for y in range(n):
        col = [rows[x][y] for x in range(n)]
        if sorted(col) != list(range(n)):
            raise Q2Violation(y)
        inv_cols.append(perms.invert(col))
    inv_rows = [[inv_cols[y][x] for y in range(n)] for x in range(n)]

    for x in range(n):
        for y in range(n):
            xy = rows[x][y]
            for z in range(n):
                if rows[xy][z] != rows[rows[x][z]][rows[y][z]]:
                    raise Q3Violation(x, y, z)

    return FiniteQuandle(
        order=n,
        op=tuple(tuple(r) for r in rows),
        inv_op=tuple(tuple(r) for r in inv_rows),
    )


def galex(group: FiniteGroup, phi: GroupAutomorphism) -> FiniteQuandle:
    """Twisted-conjugation quandle on a group: x ^ y = phi(x) phi(y^-1) y.

    The inverse operation is x ^ (y^-1) = phi^-1(x) phi^-1(y^-1) y, the unique
    column inverse the axioms admit; construction cross-checks that the two
    tables really invert each other column by column.
    """
    if phi.group != group:
        raise ValueError("automorphism belongs to a different group")
    n = group.order
    p = group.product
    ginv = group.inverse
    f = phi.perm
    finv = perms.invert(f)

    op = []
    inv_op = []
    for x in range(n):
        fx = f[x]
        gx = finv[x]
        op.append(tuple(p[p[fx][f[ginv[y]]]][y] for y in range(n)))
        inv_op.append(tuple(p[p[gx][finv[ginv[y]]]][y] for y in range(n)))

    for y in range(n):
        col = [op[x][y] for x in range(n)]
        back = [inv_op[x][y] for x in range(n)]
        if perms.invert(col) != tuple(back):
            raise InternalConsistencyError(
                f"inverse operation is not the column inverse at column {y}"
            )

    return FiniteQuandle(
        order=n,
        op=tuple(op),
        inv_op=tuple(inv_op),
        origin=GalexOrigin(group=group, aut=phi),
    )


def kei_witness(q: FiniteQuandle) -> tuple[int, int] | None:
    """Smallest (x, y) where the operation and its inverse differ, if any."""
    for x in range(q.order):
        row, inv_row = q.op[x], q.inv_op[x]
        for y in range(q.order):
            if row[y] != inv_row[y]:
                return (x, y)
    return None


def is_kei(q: FiniteQuandle) -> bool:
    return kei_witness(q) is None


def inner_orbits(q: FiniteQuandle) -> OrbitPartition:
    """Orbits of the group generated by all inner permutations."""
    return orbits_under([q.column(y) for y in range(q.order)], q.order)


def is_connected(q: FiniteQuandle) -> bool:
    return inner_orbits(q).count == 1


def quandle_map(
    source: FiniteQuandle, target: FiniteQuandle, perm: Sequence[int]
) -> QuandleMap:
    """Build a QuandleMap after verifying bijectivity and op-preservation."""
    p = perms.as_permutation(perm, source.order)
    if target.order != source.order:
        raise NotOpPreserving(0, 0)
    for x in range(source.order):
        for y in range(source.order):
            if p[source.op[x][y]] != target.op[p[x]][p[y]]:
                raise NotOpPreserving(x, y)
    return QuandleMap(source=source, target=target, perm=p)


# -- isomorphism search ---------------------------------------------------------

def _iso_search(
    q1: FiniteQuandle,
    q2: FiniteQuandle,
    *,
    find_all: bool,
    budget: SearchBudget,
    rho1: Sequence[int] | None = None,
    rho2: Sequence[int] | None = None,
) -> list[tuple[int, ...]]:
    """Backtracking search for op-preserving bijections q1 -> q2.

    Candidate images are pruned by inner-permutation cycle type (preserved by
    any isomorphism) and, when the rho pair is given, by the equivariance
    constraint f(rho1(x)) = rho2(f(x)).  Variables are assigned in ascending
    element order with ascending candidate values, so results come out in
    lexicographic order and a self-search always reports the identity first.
    One budget node is charged per candidate tried.  Each assignment a -> b
    implies f(a ^ c) = b ^ f(c) and f(c ^ a) = f(c) ^ b for every element c
    that already has an image; an implied pair whose left side already has
    an image is checked in place, and only pairs for unassigned elements are
    queued.  The closure is the same in any processing order, so the search
    tree does not depend on it.
    """
    n = q1.order
    if q2.order != n:
        return []
    op1, op2 = q1.op, q2.op
    # columns: cols[a][c] = c ^ a
    cols1 = tuple(zip(*op1))
    cols2 = cols1 if q2 is q1 else tuple(zip(*op2))
    prof1 = [perms.cycle_type(col) for col in cols1]
    prof2 = prof1 if q2 is q1 else [perms.cycle_type(col) for col in cols2]
    if sorted(prof1) != sorted(prof2):
        return []

    equivariant = rho1 is not None and rho2 is not None
    cand: list[tuple[int, ...]] = []
    for x in range(n):
        options = [v for v in range(n) if prof2[v] == prof1[x]]
        if equivariant:
            fixed = rho1[x] == x
            options = [v for v in options if (rho2[v] == v) == fixed]
        if not options:
            return []
        cand.append(tuple(options))
    cand_sets = [frozenset(c) for c in cand]

    img = [-1] * n
    used = [False] * n
    done: list[int] = []  # the elements with an image, in assignment order
    results: list[tuple[int, ...]] = []

    def assign(x: int, v: int) -> bool:
        stack = [(x, v)]
        while stack:
            a, b = stack.pop()
            if img[a] >= 0:
                if img[a] != b:
                    return False
                continue
            if used[b] or b not in cand_sets[a]:
                return False
            img[a] = b
            used[b] = True
            done.append(a)
            if equivariant:
                stack.append((rho1[a], rho2[b]))
            row1, col1, row2, col2 = op1[a], cols1[a], op2[b], cols2[b]
            # the implied pairs (a ^ c, b ^ f(c)) and (c ^ a, f(c) ^ b)
            for c in done:
                ic = img[c]
                t, u = row1[c], row2[ic]
                it = img[t]
                if it < 0:
                    if used[u]:
                        return False
                    stack.append((t, u))
                elif it != u:
                    return False
                t, u = col1[c], col2[ic]
                it = img[t]
                if it < 0:
                    if used[u]:
                        return False
                    stack.append((t, u))
                elif it != u:
                    return False
        return True

    def undo(mark: int) -> None:
        while len(done) > mark:
            a = done.pop()
            used[img[a]] = False
            img[a] = -1

    def search(x: int) -> bool:
        while x < n and img[x] >= 0:
            x += 1
        if x == n:
            results.append(tuple(img))
            return not find_all
        for v in cand[x]:
            if used[v]:
                continue
            budget.spend()
            mark = len(done)
            if assign(x, v) and search(x + 1):
                return True
            undo(mark)
        return False

    try:
        search(0)
    finally:
        # search reaches itself through its closure; clearing the name breaks
        # that cycle, so the search state is freed on return instead of
        # piling up until a full garbage collection
        del search
    return results


def quandle_isomorphisms(
    q1: FiniteQuandle,
    q2: FiniteQuandle,
    find_all: bool = True,
    budget: int | None = None,
) -> list[QuandleMap]:
    """All (or the first) operation-preserving bijections q1 -> q2.

    An empty list is conclusive: the search is exhaustive up to its budget.
    """
    tracker = SearchBudget(budget)
    found = _iso_search(q1, q2, find_all=find_all, budget=tracker)
    return [QuandleMap(source=q1, target=q2, perm=p) for p in found]


def quandle_automorphisms(
    q: FiniteQuandle, budget: int | None = None
) -> list[QuandleMap]:
    return quandle_isomorphisms(q, q, find_all=True, budget=budget)


# -- structure maps of twisted-conjugation quandles -----------------------------

def _require_origin(q: FiniteQuandle) -> GalexOrigin:
    if q.origin is None:
        raise NotGalexOrigin(
            "quandle was not built from a (group, automorphism) pair"
        )
    return q.origin


def f_sharp(q: FiniteQuandle, f: QuandleMap) -> GroupAutomorphism:
    """Normalize a quandle automorphism to the group automorphism x -> f(x) f(e)^-1.

    Requires a connected quandle with a recorded construction pair.  The
    result is re-validated and must commute with the twisting automorphism;
    a failure of either is a consistency bug, not a caller error.
    """
    origin = _require_origin(q)
    if f.source != q or f.target != q:
        raise ValueError("map is not an automorphism of this quandle")
    if not is_connected(q):
        raise NotConnected("normalization is only meaningful on connected quandles")
    group = origin.group
    fe_inv = group.inverse[f.perm[group.identity]]
    candidate = [group.product[f.perm[x]][fe_inv] for x in range(group.order)]
    try:
        sharp = validate_automorphism(group, candidate)
    except NotMultiplicative as exc:
        raise InternalConsistencyError(
            f"normalized map is not a group automorphism: {exc}"
        ) from None
    phi = origin.aut.perm
    if perms.compose(sharp.perm, phi) != perms.compose(phi, sharp.perm):
        raise InternalConsistencyError(
            "normalized automorphism does not commute with the twisting map"
        )
    return sharp


def affine_automorphism(
    q: FiniteQuandle, psi: GroupAutomorphism, c: int
) -> QuandleMap:
    """The quandle automorphism x -> psi(x) c for psi centralizing the twist."""
    origin = _require_origin(q)
    group = origin.group
    if psi.group != group:
        raise ValueError("automorphism belongs to a different group")
    if not 0 <= c < group.order:
        raise BadElement(c, group.order)
    phi = origin.aut.perm
    if perms.compose(psi.perm, phi) != perms.compose(phi, psi.perm):
        raise NotCentralizing(
            "automorphism does not commute with the twisting map"
        )
    perm = [group.product[psi.perm[x]][c] for x in range(group.order)]
    try:
        return quandle_map(q, q, perm)
    except NotOpPreserving as exc:
        raise InternalConsistencyError(
            f"affine map failed to preserve the operation: {exc}"
        ) from None
