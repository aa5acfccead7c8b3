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
    _check_same_group,
    _check_table_shape,
    _iso_search,
    orbits_under,
    validate_automorphism,
)

__all__ = [
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
class FiniteQuandle:
    order: int
    op: tuple[tuple[int, ...], ...]
    inv_op: tuple[tuple[int, ...], ...]
    # the twist phi that galex built this quandle from; phi.group is the group
    origin: GroupAutomorphism | None = None


@dataclass(frozen=True)
class QuandleMap:
    """Operation-preserving bijection between two quandles of equal order."""

    source: FiniteQuandle
    target: FiniteQuandle
    perm: tuple[int, ...]


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
    column inverse the axioms admit.  By the associativity that every group
    constructor and `validate_group` guarantee, row x of op is row phi(x) of
    the product gathered at c_y = phi(y^-1) y, and row x of inv_op is row
    phi^-1(x) gathered at d_y = phi^-1(y^-1) y.  phi, a plain container, is
    validated first, and the two tables are checked to invert each other
    column by column.
    """
    _check_same_group(group, phi)
    validate_automorphism(group, phi.perm)
    n = group.order
    p = group.product
    ginv = group.inverse
    f = phi.perm
    finv = perms.invert(f)
    by_c = perms.gather([p[f[ginv[y]]][y] for y in range(n)])
    by_d = perms.gather([p[finv[ginv[y]]][y] for y in range(n)])
    op = tuple(by_c(p[fx]) for fx in f)
    inv_op = tuple(by_d(p[gx]) for gx in finv)

    # back o col = id on a finite set exactly when back is col's inverse
    identity = tuple(range(n))
    for y, (col, back) in enumerate(zip(zip(*op), zip(*inv_op))):
        if perms.gather(col)(back) != identity:
            raise InternalConsistencyError(
                f"inverse operation is not the column inverse at column {y}"
            )

    return FiniteQuandle(order=n, op=op, inv_op=inv_op, origin=phi)


def kei_witness(q: FiniteQuandle) -> tuple[int, int] | None:
    """Smallest (x, y) where the operation and its inverse differ, if any."""
    for x, (row, inv_row) in enumerate(zip(q.op, q.inv_op)):
        if row != inv_row:
            return (x, next(y for y, (a, b) in enumerate(zip(row, inv_row)) if a != b))
    return None


def is_kei(q: FiniteQuandle) -> bool:
    return kei_witness(q) is None


def inner_orbits(q: FiniteQuandle) -> OrbitPartition:
    """Orbits of the group generated by all inner permutations x -> x ^ y."""
    return orbits_under(tuple(zip(*q.op)), q.order)


def _generating_set(q: FiniteQuandle) -> tuple[int, ...]:
    """Greedy ascending generators of q: y joins when the subquandle that the
    earlier ones generate misses it.

    The subquandle a set A generates is A's orbit under A's columns
    S_a: c -> c ^ a.  That orbit is closed under ^, since z = s(a) for s in
    the group they generate gives S_z = s . S_a . s^-1, and under ^-1, since
    a column's inverse is a power of it.  One walk list holds the orbit and
    each generator keeps a cursor into it, so every generator maps every
    walked element once: O(nk) in all for k generators.
    """
    op = q.op
    seen = [False] * q.order
    walk: list[int] = []
    gens: list[int] = []
    cursors: list[int] = []
    for y in range(q.order):
        if seen[y]:
            continue
        seen[y] = True
        walk.append(y)
        gens.append(y)
        cursors.append(0)
        grew = True
        while grew:  # until every cursor stands at the walk's end
            grew = False
            for i, g in enumerate(gens):
                c = cursors[i]
                while c < len(walk):  # the walk grows as it goes
                    z = op[walk[c]][g]
                    c += 1
                    if not seen[z]:
                        seen[z] = True
                        walk.append(z)
                        grew = True
                cursors[i] = c
    return tuple(gens)


def is_connected(q: FiniteQuandle) -> bool:
    return inner_orbits(q).count == 1


def quandle_map(
    source: FiniteQuandle, target: FiniteQuandle, perm: Sequence[int]
) -> QuandleMap:
    """Build a QuandleMap after verifying bijectivity and op-preservation."""
    if target.order != source.order:
        raise ValueError(
            f"source has order {source.order} but target has order {target.order}"
        )
    p = perms.as_permutation(perm, source.order)
    witness = perms.first_mismatch(source.op, target.op, p, p)
    if witness is not None:
        raise NotOpPreserving(*witness)
    return QuandleMap(source=source, target=target, perm=p)


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
    found = _iso_search(q1.op, q2.op, find_all=find_all, budget=tracker)
    return [QuandleMap(source=q1, target=q2, perm=p) for p in found]


def quandle_automorphisms(
    q: FiniteQuandle, budget: int | None = None
) -> list[QuandleMap]:
    return quandle_isomorphisms(q, q, find_all=True, budget=budget)


# -- structure maps of twisted-conjugation quandles -----------------------------

def _require_origin(q: FiniteQuandle) -> GroupAutomorphism:
    if q.origin is None:
        raise NotGalexOrigin(
            "quandle was not built from a (group, automorphism) pair"
        )
    return q.origin


def f_sharp(q: FiniteQuandle, f: QuandleMap) -> GroupAutomorphism:
    """Normalize a quandle automorphism to the group automorphism x -> f(x) f(e)^-1.

    Requires a connected quandle with a recorded construction pair.  f, a
    plain container, is checked with `quandle_map` first.  The result is
    re-validated and must commute with the twisting automorphism; a failure
    of either is a consistency bug, not a caller error.
    """
    origin = _require_origin(q)
    if f.source != q or f.target != q:
        raise ValueError("map is not an automorphism of this quandle")
    quandle_map(q, q, f.perm)
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
    phi = origin.perm
    if perms.compose(sharp.perm, phi) != perms.compose(phi, sharp.perm):
        raise InternalConsistencyError(
            "normalized automorphism does not commute with the twisting map"
        )
    return sharp


def affine_automorphism(
    q: FiniteQuandle, psi: GroupAutomorphism, c: int
) -> QuandleMap:
    """The quandle automorphism x -> psi(x) c for psi centralizing the twist;
    psi, a plain container, is validated first."""
    origin = _require_origin(q)
    group = origin.group
    _check_same_group(group, psi)
    validate_automorphism(group, psi.perm)
    if not 0 <= c < group.order:
        raise BadElement(c, group.order)
    phi = origin.perm
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
