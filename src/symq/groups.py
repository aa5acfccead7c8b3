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
from operator import eq
from typing import Sequence

from . import perms
from .budget import SearchBudget
from .errors import (
    BadElement,
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
    """Order-n group as `validate_group` makes it: table, identity, inverses."""

    order: int
    product: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]

    @cached_property
    def column_types(self) -> tuple[tuple[int, ...], ...]:
        """The cycle type of each column c -> c * a: a's order, n / order times."""
        return tuple(perms.cycle_type(col) for col in zip(*self.product))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The greedy ascending generating set of `_generating_set`."""
        return _generating_set(self.product)


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


# -- generating sets and validation -----------------------------------------------

def _generating_set(table: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Greedy ascending generators of a table: y joins when the walk from the
    earlier ones misses it.

    The walk appends w * g = table[w][g] for every walked w and generator g,
    until nothing new comes.  So every element is a generator or w * g for
    an earlier walked w and a generator g, whatever the table; each
    validator's closure argument is an induction along this walk.  On a
    group table the walk from a set A is the submonoid A generates, which
    in a finite group is the subgroup.  On a quandle table it is the
    subquandle A generates: A's orbit under A's columns S_a: c -> c ^ a is
    closed under ^, since z = s(a) for s in the group they generate gives
    S_z = s . S_a . s^-1, and under ^-1, since a column's inverse is a
    power of it.  One walk list holds the orbit and each generator keeps a
    cursor into it, so every generator maps every walked element once:
    O(nk) in all for k generators.
    """
    seen = [False] * len(table)
    walk: list[int] = []
    gens: list[int] = []
    cursors: list[int] = []
    for y in range(len(table)):
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
                    z = table[walk[c]][g]
                    c += 1
                    if not seen[z]:
                        seen[z] = True
                        walk.append(z)
                        grew = True
                cursors[i] = c
    return tuple(gens)


def _check_table_shape(table: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    n = len(table)
    if n == 0:
        raise MalformedTable("table is empty")
    rows: list[tuple[int, ...]] = []
    for i, raw in enumerate(table):
        row = tuple(raw)
        if len(row) != n:
            raise MalformedTable(f"row {i} has {len(row)} entries, expected {n}")
        # a row of plain ints in range passes at C speed; any other row is
        # checked entry by entry by `perms.is_int`, naming the first bad one
        if not (set(map(type, row)) == {int} and min(row) >= 0 and max(row) < n):
            for j, x in enumerate(row):
                if not perms.is_int(x) or not 0 <= x < n:
                    fault = perms.int_fault(x, f"out of range 0..{n - 1}")
                    raise MalformedTable(f"entry ({i}, {j}) = {x!r} {fault}")
        rows.append(row)
    return tuple(rows)


def validate_group(product_table: Sequence[Sequence[int]]) -> FiniteGroup:
    """Certify a multiplication table and derive identity and inverses.

    Checks run in a fixed order so that a broken table always reports the
    same first failure: shape, row/column permutations, identity, inverses,
    associativity.  A row or column with a repeated entry means the
    corresponding element cannot be cancelled, which is reported as
    NoInverse for that index.  The identity is the first index whose row
    and column are both the identity permutation.  Once rows are
    permutations, row i holds the identity exactly once, at j; i has an
    inverse exactly when j * i is the identity too, read off column i.

    Associativity is decided by Light's test on the rows of the table's
    generators (`_generating_set`), one row scan of n^2 cells each.  Let
    L be the set of i with i(jk) = (ij)k for all j and k.  If a and b are
    in L, so is ab: (ab)(xy) = a(b(xy)) = a((bx)y) = (a(bx))y = ((ab)x)y,
    each step by a or b in L, and no associativity is assumed.  Every
    element is a generator or w * g for an earlier walked w and a
    generator g, so when the generators are in L, every element is.  That
    is O(n^2 k) for k generators instead of O(n^3).  The generators' rows
    are scanned in ascending order, and the first that fails holds the
    least failing (i, j, k): an element i that is not a generator was
    walked from the generators below it, which are in L when every row
    below i is, and then so is i.
    """
    rows = _check_table_shape(product_table)
    n = len(rows)
    cols = tuple(zip(*rows))
    full = set(range(n))
    for i, row in enumerate(rows):
        if set(row) != full:
            raise NoInverse(i, "row is not a permutation")
    for j, col in enumerate(cols):
        if set(col) != full:
            raise NoInverse(j, "column is not a permutation")

    ident = perms.identity_perm(n)
    identity = next(
        (c for c, (row, col) in enumerate(zip(rows, cols)) if row == col == ident),
        None,
    )
    if identity is None:
        raise NoIdentity()

    inverse = tuple(row.index(identity) for row in rows)
    for i, (j, col) in enumerate(zip(inverse, cols)):
        if col[j] != identity:
            raise NoInverse(i)

    group = FiniteGroup(order=n, product=rows, identity=identity, inverse=inverse)
    for i in group.generators:  # i(jk) = (ij)k: p is left multiplication by i
        witness = perms.first_mismatch(rows, rows, rows[i], ident)
        if witness is not None:
            raise NotAssociative(i, *witness)
    return group


# -- constructors ---------------------------------------------------------------

# Guard against materializing a table too large to be useful; everything
# downstream is desk-scale anyway.
MAX_BUILT_ORDER = 1024


def _capped_product(factors) -> int:
    """Product of the factors, cut short once it passes MAX_BUILT_ORDER."""
    out = 1
    for f in factors:
        out *= f
        if out > MAX_BUILT_ORDER:
            break
    return out


def _check_build_cap(subject: str, order: int) -> None:
    """Refuse, before building, what `subject` names if `order` passes
    MAX_BUILT_ORDER; every build-cap refusal in the package is this one."""
    if order > MAX_BUILT_ORDER:
        raise UnsupportedOrder(f"{subject} above the build cap of {MAX_BUILT_ORDER}")


def _check_least(subject: str, name: str, value: object, least: int) -> None:
    """Refuse `value` as the `name` of what `subject` names unless it is an int
    of at least `least`; `perms.int_fault` words a value that is no int."""
    if not perms.is_int(value) or value < least:
        named = subject if perms.is_int(value) else f"{subject} {name} {value!r}"
        fault = perms.int_fault(value, f"needs {name} >= {least}, got {value!r}")
        raise UnsupportedOrder(f"{named} {fault}")


def cyclic_group(n: int) -> FiniteGroup:
    _check_least("cyclic group", "order", n, 1)
    _check_build_cap("cyclic group has order", n)
    rows = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_group(rows)


def dihedral_group(m: int) -> FiniteGroup:
    """Symmetries of a regular m-gon, order 2m.

    Index f*m + i encodes s^f r^i; rotations come first, so the identity
    sits at index 0 and indices m..2m-1 are the m reflections.
    """
    _check_least("dihedral group", "m", m, 1)
    n = 2 * m
    _check_build_cap("dihedral group has order", n)

    def mul(a: int, b: int) -> int:
        f1, i1 = divmod(a, m)
        f2, i2 = divmod(b, m)
        if f2 == 0:
            return f1 * m + (i1 + i2) % m
        return (f1 ^ 1) * m + (i2 - i1) % m

    rows = [[mul(a, b) for b in range(n)] for a in range(n)]
    return validate_group(rows)


def _perm_table(elements: list[tuple[int, ...]]) -> FiniteGroup:
    """Row p, column q holds p after q, which q's gather makes from p."""
    index = {p: i for i, p in enumerate(elements)}
    after = [perms.gather(q) for q in elements]
    rows = [[index[by_q(p)] for by_q in after] for p in elements]
    return validate_group(rows)


def symmetric_group(k: int) -> FiniteGroup:
    """All permutations of k points in lexicographic order; order k!."""
    _check_least("symmetric group", "k", k, 1)
    _check_build_cap("symmetric group has order", _capped_product(range(2, k + 1)))
    return _perm_table(sorted(permutations(range(k))))


def alternating_group(k: int) -> FiniteGroup:
    """Even permutations of k points in lexicographic order."""
    _check_least("alternating group", "k", k, 3)
    _check_build_cap("alternating group has order", _capped_product(range(3, k + 1)))
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
    return validate_group(rows)


def direct_product(factors: Sequence[FiniteGroup]) -> FiniteGroup:
    """Direct product with mixed-radix index packing, leftmost factor first."""
    if len(factors) < 2:
        raise UnsupportedOrder("direct product needs at least two factors")
    _check_build_cap("direct product has order", _capped_product(f.order for f in factors))
    table = factors[0].product
    for rhs in factors[1:]:
        n2 = rhs.order
        pairs = [divmod(x, n2) for x in range(len(table) * n2)]
        table = [[table[a1][b1] * n2 + rhs.product[a2][b2] for b1, b2 in pairs]
                 for a1, a2 in pairs]
    return validate_group(table)


# -- predicates and automorphisms ---------------------------------------------

def is_abelian(group: FiniteGroup) -> bool:
    """Whether the table equals its transpose."""
    return group.product == tuple(zip(*group.product))


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


def _check_element(group: FiniteGroup, x: int) -> None:
    if not perms.is_int(x) or not 0 <= x < group.order:
        raise BadElement(x, group.order)


def validate_automorphism(
    group: FiniteGroup, perm: Sequence[int]
) -> GroupAutomorphism:
    """Verify bijectivity and multiplicativity of a candidate automorphism.

    f(g * x) = f(g) * f(x) is checked for every x on the rows of the group's
    generators only.  The g that pass are closed under the product: if a
    and b pass, f((ab)x) = f(a(bx)) = f(a) f(bx) = f(a) f(b) f(x) =
    f(ab) f(x), by associativity and x = b in a's row.  Every element is a
    generator or w * g for a walked w and a generator g, so every row
    passes when the generators' rows do: O(nk) cells for k generators
    instead of n^2.  The rows are the group's own, so no transposed table
    is kept.  The generators' rows are scanned in ascending order, and the
    first that fails holds the least failing (x, y): an x that is not a
    generator was walked from the generators below it, and passes when
    every row below x does.
    """
    try:
        p = perms.as_permutation(perm, group.order)
    except MalformedPermutation as exc:
        raise NotBijective(str(exc)) from None
    table = group.product
    witness = perms.first_mismatch(table, table, p, p, group.generators)
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
    and that each pair's p2 fixes exactly when its p1 fixes x.  They meet the
    precondition of `_iso_search`, which checks them only where it branches.

    When the two multisets of types differ no isomorphism exists, and no x
    has a candidate; a self-search passes one list as both, which needs no
    comparison.
    """
    if types1 is not types2 and sorted(types1) != sorted(types2):
        return [()] * len(types1)
    points = range(len(types1))
    having: dict[tuple, list[int]] = {}
    for v, key in enumerate(zip(types2, *[map(eq, p2, points) for _, p2 in pairs])):
        having.setdefault(key, []).append(v)
    return [
        having.get(key, ())
        for key in zip(types1, *[map(eq, p1, points) for p1, _ in pairs])
    ]


def _iso_search(
    op1: Sequence[Sequence[int]] | None = None,
    op2: Sequence[Sequence[int]] | None = None,
    *,
    find_all: bool,
    budget: SearchBudget,
    candidates: Sequence[Sequence[int]],
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = (),
) -> list[tuple[int, ...]]:
    """Backtracking search for bijections f with f(x * y) = f(x) * f(y).

    The one backtracking search of the package.  With op1 = op2 a group
    table it lists the automorphisms, with the pair (phi, phi) those
    that commute with phi, and with the left translations (l_s, l_r) beside
    it those that also map s to r (psi . l_s = l_r . psi exactly when
    psi(s) = r).  Between quandle operations it lists the
    isomorphisms, and with the pair (rho1, rho2) the symmetric-quandle ones.
    Without tables it lists the involutions of 0..n-1 (n = len(candidates))
    that meet the candidates and the pairs alone: with the column condition
    as candidates and each column as the pair (column, column), these are
    the good involutions, by their definition.

    Each pair (p1, p2) asks for f(p1(x)) = p2(f(x)); without tables each
    assignment a -> b also asks for b -> a.  With tables, p1 and p2
    must each be an automorphism of its table, as (phi, phi) is, a good
    involution of it, as (rho1, rho2) is, or a left translation x -> s * x
    of a group table, as (l_s, l_r) is; without tables they may be any
    permutations.  The candidate images of x are `candidates[x]`; only the
    branch reads them, and an image that propagation implies is not checked
    against them (the last paragraph says why that is exact).  Unequal
    orders or multisets of types leave some x with none, and the search
    returns at once.  Variables are assigned in ascending element order
    with ascending candidate values, so results come out in lexicographic
    order and a self-search always reports the identity first.  There is
    at least one element, since every validator and constructor refuses an
    empty table.  One budget node is charged per candidate tried, counted
    locally and added to `budget` on exit.  One frame loop makes every
    step, undo included; its levels are frames on an explicit stack, so
    depth n is bounded in memory, not by the recursion limit.

    The tables are both groups or both quandles.  An element whose image
    comes from the branch, a pair or the swap is a generator; one whose
    image comes from an edge t -> t * g, for a mapped t and a generator g,
    is not.  A generator's assignment a -> b implies f(c * a) = f(c) * b
    and f(a * c) = b * f(c) for every mapped c, a included; any other
    implies f(a * g) = b * f(g) for every generator g.  An implied pair
    whose left side already has that image is dropped in place; the others
    are mapped in turn, and one sure to fail is pushed last, so that the
    next pop fails the assignment.  Without tables, an assignment a -> b
    with b != a makes its swap b -> a at once, and pushes both their pair
    images.  The mapped elements are then those the generators
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
    rho(x) * y), and so has a left translation (s * (w * g) = (s * w) * g,
    by associativity).  As f preserves the operation on the mapped elements
    and p2 has the same property in its table, f(p1(w * g)) =
    p2(f(w)) * p2(f(g)), or p2(f(w)) * f(g), which is p2(f(w * g)).  So the
    mapped set and each assignment's outcome are those that pushing every
    element's pair gives.
    The closure is the same in any processing order, so the search tree
    does not depend on it.

    Without tables, img is an involution on the mapped set after every
    step: each assignment a -> b with b != a assigns the swap b -> a beside
    it.  So an element is used exactly when it is mapped.  An assignment
    a -> b that passes the `used[b]` test finds b unmapped, and a was
    unmapped, so unused: the swap needs no test and cannot fail.  An
    assignment a -> b whose b is mapped to another element, which no
    involution extends, is refused by that same test.  Each node's closure
    is the one that pushing the swap and popping it later gives, so it
    succeeds or fails alike, and the tree and the node count are the same.

    Candidates bind only at the branch, which is exact under a precondition
    every caller meets: `candidates[x]` is the set of elements that share
    x's invariants, namely the column cycle type and fixedness under each
    pair (`_candidates`; on a group table the type is the element order),
    the partition's five values, or the oracle's column condition.  The
    theorem route's witness searches take the candidates of (phi, phi)
    alone: a left translation by an element other than the identity fixes
    no element, so its pair would change no candidate set.  The one
    exception is element 0, branched first, which the partition cuts to
    orbit minima; no image of it is ever implied.  Propagation keeps those
    invariants.  Between quandles, an edge's implied image t -> u has S_t
    conjugate to an already mapped column by an inner automorphism that
    commutes with rho (S_(x ^ y) = S_y S_x S_y^-1, Joyce), and S_u conjugate
    to that column's image in the same way.  A pair's image has a conjugate
    column, or for a good involution the inverse column.  The oracle's swap
    b -> a meets the column condition when a -> b does.  On a group table,
    a closure that completes is an injective homomorphism of the generated
    subgroup, so it keeps element orders and fixed points.  So checking an
    implied image against its candidates could fail only inside a closure
    that fails anyway, and as nodes are counted per branch candidate, the
    tree and the node count are the same.
    """
    n = len(candidates)
    involutive = op1 is None
    if not all(candidates):
        return []
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
                        if used[b]:
                            break
                        img[a] = b
                        used[b] = True
                        done.append(a)
                        if generator:
                            for p1, p2 in pairs:
                                stack.append((p1[a], p2[b]))
                        if involutive and a != b:
                            # the swap b -> a: b was unused, so unmapped, and
                            # a was unmapped, so unused
                            img[b] = a
                            used[a] = True
                            done.append(b)
                            for p1, p2 in pairs:
                                stack.append((p1[b], p2[a]))
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

