"""Finite groups as Cayley tables, their automorphisms, and orbit machinery.

The backtracking search for operation-preserving bijections between two
tables lives here, the lowest module, because both group automorphisms and
quandle isomorphisms are found with it.

Elements are 0-based indices into an order-n multiplication table.  All types
are immutable after construction and safe to share between threads, and a
search changes no interpreter setting, so threads may search at once.  A
fact derived from a table, such as its column cycle types, is computed on
first use and kept on the object; computing it is idempotent, so two threads
that race on it compute the same value twice and one of the two is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    SearchBudgetExceeded,
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

    @cached_property
    def column_types(self) -> tuple[tuple[int, ...], ...]:
        """The cycle type of each column c -> c * a: a's order, n / order times."""
        return tuple(perms.cycle_type(col) for col in zip(*self.product))


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

    ident = perms.identity_perm(n)
    for i, row in enumerate(rows):  # i(jk) = (ij)k: p is left multiplication by i
        witness = perms.first_mismatch(rows, rows, row, ident)
        if witness is not None:
            raise NotAssociative(i, *witness)

    return FiniteGroup(
        order=n,
        product=tuple(tuple(row) for row in rows),
        identity=identity,
        inverse=tuple(inverse),
    )


# -- constructors ---------------------------------------------------------------

def _group_from_rows(rows: list[list[int]]) -> FiniteGroup:
    """The group of a table whose identity is index 0."""
    return FiniteGroup(
        order=len(rows),
        product=tuple(tuple(row) for row in rows),
        identity=0,
        inverse=tuple(row.index(0) for row in rows),
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
    return _perm_table(sorted(permutations(range(k))))


def alternating_group(k: int) -> FiniteGroup:
    """Even permutations of k points in lexicographic order."""
    if k < 3:
        raise UnsupportedOrder(f"alternating group needs k >= 3, got {k}")
    return _perm_table(sorted(p for p in permutations(range(k)) if _is_even(p)))


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
    try:
        p = perms.as_permutation(perm, group.order)
    except MalformedPermutation as exc:
        raise NotBijective(str(exc)) from None
    witness = perms.first_mismatch(group.product, group.product, p, p)
    if witness is not None:
        raise NotMultiplicative(*witness)
    return GroupAutomorphism(group=group, perm=p)


# -- isomorphism search (shared with the quandle side) ----------------------------

def _candidates(
    types1: Sequence[tuple[int, ...]],
    types2: Sequence[tuple[int, ...]],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
) -> list[Sequence[int]]:
    """Each x's candidate images in a search between two tables whose columns
    have these cycle types: the v, ascending, whose column has x's cycle type
    and that each pair's p2 fixes exactly when its p1 fixes x.

    When the two multisets of types differ no isomorphism exists, and no x
    has a candidate.
    """
    if sorted(types1) != sorted(types2):
        return [()] * len(types1)
    having: dict[tuple, list[int]] = {}
    for v, profile in enumerate(types2):
        having.setdefault((profile, *[p2[v] == v for _, p2 in pairs]), []).append(v)
    return [
        having.get((profile, *[p1[x] == x for p1, _ in pairs]), ())
        for x, profile in enumerate(types1)
    ]


def _iso_search(
    op1: Sequence[Sequence[int]] | None = None,
    op2: Sequence[Sequence[int]] | None = None,
    *,
    find_all: bool,
    budget: SearchBudget,
    candidates: Sequence[Sequence[int]],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
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
    each assignment a -> b also asks for b -> a.  With tables, p1 and p2
    must each be an automorphism of its table, as (phi, phi) is, or a good
    involution of it, as (rho1, rho2) is; without tables they may be any
    permutations.  The candidate images of x are `candidates[x]`, and the
    search is exhaustive over them.  Between two tables they come from
    `_candidates` on the tables' kept column cycle types (preserved by any
    isomorphism; on a group table the element order), or from a finer
    invariant, as in the partition; unequal orders or multisets of types
    leave some x with none, and the search returns at once.  Variables are
    assigned in ascending element order with ascending candidate values, so
    results come out in lexicographic order and a self-search always
    reports the identity first.  One budget node is charged per candidate
    tried, counted locally and added to `budget` on exit.  One frame loop
    makes every step, undo included; its levels are frames on an explicit
    stack, so depth n is bounded in memory, not by the recursion limit.

    The tables are both groups or both quandles.  An element whose image
    comes from the branch, a pair or the swap is a generator; one whose
    image comes from an edge t -> t * g, for a mapped t and a generator g,
    is not.  A generator's assignment a -> b implies f(c * a) = f(c) * b
    and f(a * c) = b * f(c) for every mapped c, a included; any other
    implies f(a * g) = b * f(g) for every generator g.  An implied pair
    whose left side already has that image is dropped in place; the others
    are mapped in turn, and one sure to fail is pushed last, so that the
    next pop fails the assignment.  With `involutive`, the swap b -> a of
    a -> b is pushed only when b has no image (not for a -> a, nor for an
    image from the swap).  The mapped elements are then those the generators
    generate, as a quandle or a group: each is a left-normed product
    g0 * g1 * ... * gk of generators (a quandle's x *^-1 g is
    x * g * ... * g, as g's column has finite order; a group's products
    regroup by associativity).  Induction on that form of y, with right
    self-distributivity, or associativity, in both tables, turns
    f(t * g) = f(t) * f(g) on every edge into f(x * y) = f(x) * f(y) for
    all mapped x and y.  So each assignment succeeds exactly when checking
    every pair of mapped elements would let it, and the tree is the same,
    at O(nk) checks per completed map for k generators instead of O(n^2).

    With tables, only a generator's assignment a -> b pushes the pair's
    image (p1(a), p2(b)); without them every element is a generator.  That
    is exact under the precondition above.  Induction on the left-normed
    form y = w * g gives f(p1(y)) = p2(f(y)) for every mapped y, with
    p1(y) mapped, from the same at w and at the generator g: an
    automorphism has p1(w * g) = p1(w) * p1(g), and p1(g) is mapped since
    g pushed it; a good involution has p1(w * g) = p1(w) * g (rho(x * y) =
    rho(x) * y).  As f preserves the operation on the mapped elements and
    p2 has the same property in its table, f(p1(w * g)) = p2(f(w)) * p2(f(g)),
    or p2(f(w)) * f(g), which is p2(f(w * g)).  So the mapped set and each
    assignment's outcome are those that pushing every element's pair gives.
    The closure is the same in any processing order, so the search tree
    does not depend on it.
    """
    n = len(candidates)
    if not all(candidates):
        return []
    cand_sets = [frozenset(c) for c in candidates]

    if n == 0:
        return [()]  # the empty map
    img = [-1] * n
    used = [False] * n
    done: list[int] = []  # the elements with an image, in assignment order
    gens: list[int] = []  # the mapped generators, in assignment order
    stack = []  # images from the branch, a pair or the swap
    edges = []  # images from an edge t -> t * g, taken first
    results: list[tuple[int, ...]] = []
    # a frame is (x, x's candidate iterator, len(done) before x's branch);
    # the frames of the levels above x wait on the stack
    frames = []
    x, options, mark = 0, iter(candidates[0]), 0
    nodes, room = 0, budget.limit - budget.used
    try:
        while True:
            if len(done) > mark:
                # roll back to the state before x's branch; every candidate
                # tried breaks out of the loop below to come back here
                for a in done[mark:]:
                    used[img[a]] = False
                    img[a] = -1
                del done[mark:]
                # the generators that lost their image are the last ones
                while gens and img[gens[-1]] < 0:
                    gens.pop()
            for v in options:
                if used[v]:
                    continue
                nodes += 1
                if nodes > room:
                    raise SearchBudgetExceeded(budget.limit)
                # assign x -> v and all it implies; a failed check breaks out
                a, b, generator = x, v, True
                while a >= 0:
                    ia = img[a]
                    if ia < 0:
                        if used[b] or b not in cand_sets[a]:
                            break
                        img[a] = b
                        used[b] = True
                        done.append(a)
                        if involutive:
                            ib = img[b]
                            if ib < 0:
                                stack.append((b, a))
                            elif ib != a:
                                break
                        if generator:
                            for p1, p2 in pairs:
                                stack.append((p1[a], p2[b]))
                        if op1 is not None:
                            # a generator checks c -> c * a and a -> a * c for
                            # every mapped c, any other a its edges a -> a * g
                            row1, row2 = op1[a], op2[b]
                            if generator:
                                gens.append(a)
                            for c in done if generator else gens:
                                ic = img[c]
                                t, u = row1[c], row2[ic]
                                it = img[t]
                                if it != u:
                                    edges.append((t, u))
                                    if it >= 0 or used[u]:
                                        break
                                if generator:
                                    t, u = op1[c][a], op2[ic][b]
                                    it = img[t]
                                    if it != u:
                                        edges.append((t, u))
                                        if it >= 0 or used[u]:
                                            break
                    elif ia != b:
                        break
                    generator = not edges
                    a, b = edges.pop() if edges else stack.pop() if stack else (-1, -1)
                else:
                    # every implied image holds: open the next level or record f
                    y = x + 1
                    while y < n and img[y] >= 0:
                        y += 1
                    if y < n:
                        frames.append((x, options, mark))
                        x, options, mark = y, iter(candidates[y]), len(done)
                    else:
                        results.append(tuple(img))
                        if not find_all:
                            return results
                    break
                stack.clear()
                edges.clear()
                break
            else:
                if not frames:
                    return results
                x, options, mark = frames.pop()
    finally:
        budget.used += nodes


# -- automorphism lists, fixed elements and orbits --------------------------------

def _automorphism_search(
    group: FiniteGroup,
    budget: SearchBudget,
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
) -> list[tuple[int, ...]]:
    """The automorphisms of group that meet the pairs, as `_iso_search` lists
    them, with candidates from the group's cached column cycle types."""
    types = group.column_types
    return _iso_search(
        group.product, group.product, find_all=True, budget=budget, pairs=pairs,
        candidates=_candidates(types, types, pairs),
    )


def enumerate_automorphisms(
    group: FiniteGroup, budget: int | None = None
) -> list[GroupAutomorphism]:
    """All automorphisms, in lexicographic order of their one-line notation."""
    found = _automorphism_search(group, SearchBudget(budget))
    return [GroupAutomorphism(group=group, perm=p) for p in found]


def centralizer_in_aut(
    group: FiniteGroup, phi: GroupAutomorphism, budget: int | None = None
) -> list[GroupAutomorphism]:
    """Automorphisms commuting with phi, a subgroup containing id and phi.

    The search pushes (phi, phi) at generators only, which is exact only for
    an automorphism, so phi, a plain container, is validated first.
    """
    _check_same_group(group, phi)
    validate_automorphism(group, phi.perm)
    found = _automorphism_search(group, SearchBudget(budget), [(phi.perm, phi.perm)])
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

    Every map is checked to be a permutation of 0..n-1.  Closure under a
    permutation and its inverse coincide on a finite set, so each orbit is
    what a breadth-first walk along the maps reaches from its smallest
    member; the starts ascend, so orbits come out sorted by smallest member.
    """
    checked = [perms.as_permutation(m, n) for m in maps]
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for x in orbit:  # the list grows as the walk goes
            for m in checked:
                y = m[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        orbits.append(tuple(sorted(orbit)))
    return OrbitPartition(orbits=tuple(orbits))

