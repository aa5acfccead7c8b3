"""Finite groups as Cayley tables, their automorphisms, and orbit machinery.

The backtracking search for operation-preserving bijections between two
tables lives here, the lowest module, because both group automorphisms and
quandle isomorphisms are found with it.

Elements are 0-based indices into an order-n multiplication table.  All types
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from . import perms
from .budget import SearchBudget
from .errors import (
    MalformedPermutation,
    MalformedTable,
    NoIdentity,
    NoInverse,
    NotAbelian,
    NotAssociative,
    NotBijective,
    NotMultiplicative,
    UnsupportedOrder,
)

__all__ = [
    "FiniteGroup",
    "GroupAutomorphism",
    "OrbitPartition",
    "validate_group",
    "is_abelian",
    "inversion_automorphism",
    "identity_automorphism",
    "validate_automorphism",
    "enumerate_automorphisms",
    "centralizer_in_aut",
    "fixed_two_torsion",
    "orbits_under",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "alternating_group",
    "quaternion_group",
    "direct_product",
]

@dataclass(frozen=True)
class FiniteGroup:
    """Order-n group: multiplication table, identity index, inverse table."""

    order: int
    product: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]


@dataclass(frozen=True)
class GroupAutomorphism:
    """Multiplicative bijection of a group's element indices."""

    group: FiniteGroup
    perm: tuple[int, ...]

    def is_identity(self) -> bool:
        return self.perm == perms.identity_perm(self.group.order)


@dataclass(frozen=True)
class OrbitPartition:
    """Partition of 0..n-1 into orbits, sorted by smallest member."""

    orbits: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.orbits)


# -- validation ---------------------------------------------------------------

def _check_table_shape(table: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(table)
    if n == 0:
        raise MalformedTable("table is empty")
    rows: list[list[int]] = []
    for i, raw in enumerate(table):
        row = list(raw)
        if len(row) != n:
            raise MalformedTable(f"row {i} has {len(row)} entries, expected {n}")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
                raise MalformedTable(f"entry ({i}, {j}) = {x!r} out of range 0..{n - 1}")
        rows.append(row)
    return rows


def validate_group(product_table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Certify a multiplication table and derive identity and inverses.

    Checks run in a fixed order so that a broken table always reports the
    same first failure: shape, row/column permutations, identity, inverses,
    associativity.  A row or column with a repeated entry means the
    corresponding element cannot be cancelled, which is reported as
    NoInverse for that index.
    """
    rows = _check_table_shape(product_table)
    n = len(rows)
    full = set(range(n))
    for i, row in enumerate(rows):
        if set(row) != full:
            raise NoInverse(i, "row is not a permutation")
    for j in range(n):
        if {rows[i][j] for i in range(n)} != full:
            raise NoInverse(j, "column is not a permutation")

    identity = None
    for c in range(n):
        if all(rows[c][i] == i and rows[i][c] == i for i in range(n)):
            identity = c
            break
    if identity is None:
        raise NoIdentity()

    inverse = []
    for i in range(n):
        j = next(
            (j for j in range(n) if rows[i][j] == identity and rows[j][i] == identity),
            None,
        )
        if j is None:
            raise NoInverse(i)
        inverse.append(j)

    for i in range(n):
        for j in range(n):
            ij = rows[i][j]
            row_i = rows[i]
            for k in range(n):
                if rows[ij][k] != row_i[rows[j][k]]:
                    raise NotAssociative(i, j, k)

    return FiniteGroup(
        order=n,
        product=tuple(tuple(row) for row in rows),
        identity=identity,
        inverse=tuple(inverse),
    )


# -- constructors ---------------------------------------------------------------

def _group_from_rows(rows: list[list[int]]) -> FiniteGroup:
    """The group of a table whose identity is index 0."""
    n = len(rows)
    inverse = [0] * n
    for i in range(n):
        inverse[i] = rows[i].index(0)
    return FiniteGroup(
        order=n,
        product=tuple(tuple(row) for row in rows),
        identity=0,
        inverse=tuple(inverse),
    )


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedOrder(f"cyclic group needs order >= 1, got {n}")
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return _group_from_rows(rows)


def dihedral_group(m: int) -> FiniteGroup:
    """Symmetries of a regular m-gon, order 2m.

    Index f*m + i encodes s^f r^i; rotations come first, so the identity
    sits at index 0 and indices m..2m-1 are the m reflections.
    """
    if m < 1:
        raise UnsupportedOrder(f"dihedral group needs m >= 1, got {m}")
    n = 2 * m

    def mul(a: int, b: int) -> int:
        f1, i1 = divmod(a, m)
        f2, i2 = divmod(b, m)
        if f2 == 0:
            return f1 * m + (i1 + i2) % m
        return (f1 ^ 1) * m + (i2 - i1) % m

    rows = [[mul(a, b) for b in range(n)] for a in range(n)]
    return _group_from_rows(rows)


def _perm_table(elements: list[tuple[int, ...]]) -> FiniteGroup:
    index = {p: i for i, p in enumerate(elements)}
    rows = [
        [index[perms.compose(p, q)] for q in elements]
        for p in elements
    ]
    return _group_from_rows(rows)


def symmetric_group(k: int) -> FiniteGroup:
    """All permutations of k points in lexicographic order; order k!."""
    if k < 1:
        raise UnsupportedOrder(f"symmetric group needs k >= 1, got {k}")
    elements = sorted(permutations(range(k)))
    return _perm_table(elements)


def alternating_group(k: int) -> FiniteGroup:
    """Even permutations of k points in lexicographic order."""
    if k < 3:
        raise UnsupportedOrder(f"alternating group needs k >= 3, got {k}")
    elements = sorted(p for p in permutations(range(k)) if _is_even(p))
    return _perm_table(elements)


def _is_even(perm: tuple[int, ...]) -> bool:
    transpositions = sum(length - 1 for length in perms.cycle_type(perm))
    return transpositions % 2 == 0


def quaternion_group() -> FiniteGroup:
    """The order-8 quaternion group; index f*4 + i encodes b^f a^i."""
    def mul(x: int, y: int) -> int:
        f1, i1 = divmod(x, 4)
        f2, i2 = divmod(y, 4)
        if f1 == 0:
            return f2 * 4 + (i1 + i2) % 4
        if f2 == 0:
            return 4 + (i1 - i2) % 4
        return (i1 - i2 + 2) % 4

    rows = [[mul(a, b) for b in range(8)] for a in range(8)]
    return _group_from_rows(rows)


def direct_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product with mixed-radix index packing, leftmost factor first."""
    if len(factors) < 2:
        raise UnsupportedOrder("direct product needs at least two factors")
    group = factors[0]
    for rhs in factors[1:]:
        group = _product_of_two(group, rhs)
    return group


def _product_of_two(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    # identity and inverses from the factors: a file table's identity may sit anywhere
    n2 = g2.order
    pairs = [divmod(x, n2) for x in range(g1.order * n2)]
    return FiniteGroup(
        order=len(pairs),
        product=tuple(
            tuple(g1.product[a1][b1] * n2 + g2.product[a2][b2] for b1, b2 in pairs)
            for a1, a2 in pairs
        ),
        identity=g1.identity * n2 + g2.identity,
        inverse=tuple(g1.inverse[a1] * n2 + g2.inverse[a2] for a1, a2 in pairs),
    )


# -- predicates and automorphisms ---------------------------------------------

def is_abelian(group: FiniteGroup) -> bool:
    p = group.product
    n = group.order
    return all(p[i][j] == p[j][i] for i in range(n) for j in range(i + 1, n))


def inversion_automorphism(group: FiniteGroup) -> GroupAutomorphism:
    """The map g -> g^-1, which is an automorphism exactly on abelian groups."""
    if not is_abelian(group):
        raise NotAbelian("inversion is not multiplicative on a nonabelian group")
    return GroupAutomorphism(group=group, perm=group.inverse)


def identity_automorphism(group: FiniteGroup) -> GroupAutomorphism:
    return GroupAutomorphism(group=group, perm=perms.identity_perm(group.order))


def _check_same_group(group: FiniteGroup, aut: GroupAutomorphism) -> None:
    if aut.group != group:
        raise ValueError("automorphism belongs to a different group")


def validate_automorphism(
    group: FiniteGroup, perm: Sequence[int]
) -> GroupAutomorphism:
    """Verify bijectivity and multiplicativity of a candidate automorphism."""
    n = group.order
    try:
        p = perms.as_permutation(perm, n)
    except MalformedPermutation as exc:
        raise NotBijective(str(exc)) from None
    table = group.product
    for i in range(n):
        for j in range(n):
            if p[table[i][j]] != table[p[i]][p[j]]:
                raise NotMultiplicative(i, j)
    return GroupAutomorphism(group=group, perm=p)


# -- isomorphism search (shared with the quandle side) ----------------------------

def _iso_search(
    op1: Sequence[Sequence[int]] | None = None,
    op2: Sequence[Sequence[int]] | None = None,
    *,
    find_all: bool,
    budget: SearchBudget,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
    candidates: Sequence[Sequence[int]] | None = None,
    involutive: bool = False,
) -> list[tuple[int, ...]]:
    """Backtracking search for bijections f with f(x * y) = f(x) * f(y).

    The one backtracking search of the package.  With op1 = op2 a group
    table it lists the automorphisms, and with the pair (phi, phi) those
    that commute with phi.  Between quandle operations it lists the
    isomorphisms, and with the pair (rho1, rho2) the symmetric-quandle ones.
    Without tables it lists the bijections of 0..n-1 (n = len(candidates))
    that meet the candidates and the pairs alone: involutive, with the
    column condition as candidates and each column as the pair (column,
    column), these are the good involutions, by their definition.

    Each pair (p1, p2) asks for f(p1(x)) = p2(f(x)); with `involutive`
    each assignment a -> b also asks for b -> a.  The candidate images of x
    are `candidates[x]` as given, or else the v whose column c -> c * v has
    the cycle type of x's (preserved by any isomorphism; on a group table it
    is the element order) and that each pair's p2 fixes exactly when its p1
    fixes x.  Variables are assigned in ascending element order with
    ascending candidate values, so results come out in lexicographic order
    and a self-search always reports the identity first.  One budget node
    is charged per candidate tried.  With tables, each assignment a -> b
    implies f(a * c) = b * f(c) and f(c * a) = f(c) * b for every element
    c that already has an image; an implied pair whose left side already
    has an image is checked in place, and only pairs for unassigned
    elements are queued.  The closure is the same in any processing order,
    so the search tree does not depend on it.  Passing the same table
    object twice marks a self-search, whose column data is computed once.
    """
    if op1 is None:
        n = len(candidates)
    else:
        n = len(op1)
        if len(op2) != n:
            return []
        # columns: cols[a][c] = c * a
        cols1 = tuple(zip(*op1))
        cols2 = cols1 if op2 is op1 else tuple(zip(*op2))
    if candidates is None:
        prof1 = [perms.cycle_type(col) for col in cols1]
        prof2 = prof1 if op2 is op1 else [perms.cycle_type(col) for col in cols2]
        if sorted(prof1) != sorted(prof2):
            return []
        candidates = []
        for x in range(n):
            options = [v for v in range(n) if prof2[v] == prof1[x]]
            for p1, p2 in pairs:
                fixed = p1[x] == x
                options = [v for v in options if (p2[v] == v) == fixed]
            candidates.append(options)
    if not all(candidates):
        return []
    cand = [tuple(options) for options in candidates]
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
            if involutive:
                stack.append((b, a))
            for p1, p2 in pairs:
                stack.append((p1[a], p2[b]))
            if op1 is None:
                continue
            row1, col1, row2, col2 = op1[a], cols1[a], op2[b], cols2[b]
            # the implied pairs (a * c, b * f(c)) and (c * a, f(c) * b)
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


def enumerate_automorphisms(
    group: FiniteGroup, budget: int | None = None
) -> list[GroupAutomorphism]:
    """All automorphisms, in lexicographic order of their one-line notation."""
    table = group.product
    found = _iso_search(table, table, find_all=True, budget=SearchBudget(budget))
    return [GroupAutomorphism(group=group, perm=p) for p in found]


def centralizer_in_aut(
    group: FiniteGroup, phi: GroupAutomorphism, budget: int | None = None
) -> list[GroupAutomorphism]:
    """Automorphisms commuting with phi, a subgroup containing id and phi."""
    _check_same_group(group, phi)
    table = group.product
    found = _iso_search(
        table, table, find_all=True, budget=SearchBudget(budget),
        pairs=[(phi.perm, phi.perm)],
    )
    return [GroupAutomorphism(group=group, perm=p) for p in found]


def fixed_two_torsion(
    group: FiniteGroup, phi: GroupAutomorphism
) -> tuple[int, ...]:
    """Elements fixed by phi whose square is the identity, ascending; always
    contains e."""
    _check_same_group(group, phi)
    return tuple(
        r
        for r in range(group.order)
        if phi.perm[r] == r and group.product[r][r] == group.identity
    )


def orbits_under(maps: Sequence[Sequence[int]], n: int) -> OrbitPartition:
    """Finest partition of 0..n-1 closed under the given permutations.

    Closure under a permutation and its inverse coincide, so plain
    union-find over x ~ map(x) suffices.  Orbits are sorted by smallest
    member.
    """
    checked = [perms.as_permutation(m, n) for m in maps]
    parent = list(range(n))
    for m in checked:
        for x in range(n):
            _join(parent, x, m[x])
    return OrbitPartition(orbits=_blocks(parent))


# -- union-find over 0..n-1, shared by the orbit and class partitions -----------

def _root(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(parent: list[int], x: int, y: int) -> None:
    """Merge the blocks of x and y; a root is always its block's smallest member."""
    rx, ry = _root(parent, x), _root(parent, y)
    if rx != ry:
        parent[max(rx, ry)] = min(rx, ry)


def _blocks(parent: list[int]) -> tuple[tuple[int, ...], ...]:
    """The blocks as ascending tuples, ordered by smallest member."""
    blocks: dict[int, list[int]] = {}
    # ascending x meets each block first at its smallest member
    for x in range(len(parent)):
        blocks.setdefault(_root(parent, x), []).append(x)
    return tuple(tuple(members) for members in blocks.values())
