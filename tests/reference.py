"""References that only tests use.

The plain filter for the good-involution oracle shares nothing with the
package's search: it walks every involutive permutation and keeps those that
pass `check_good_involution`, the definition read condition by condition.
The automorphism-orbit classes check the isomorphism partition against the
group action that defines it, without its invariants or symmetry cuts.
The partition's five values are computed here at every element by their
full formula, and the orbits of a set of permutations by union-find, so
tests can check the package's per-orbit values and closure walk against
them.
`galex_tables` computes a twisted-conjugation quandle cell by cell from
its defining formula, for tests to compare the package's row gathers with.
`generated_subquandle` closes a set under both operations by multiplying
every pair, for tests to check the package's generating-set walk with.
`write_table` writes the table files that the CLI and spec tests read.
`q3_witness_by_triples`, `identity_by_scan` and `inverses_by_scan` are the
table validators' axiom loops read cell by cell, for tests to compare the
package's row and column scans with, and `multiplicative_witness_by_cells`
is the automorphism check's loop, `associativity_witness_by_triples` the
group check's and `kei_witness_by_cells` the kei test's.
`compose` multiplies permutations entry by entry, independently of the
package's row gathers, for tests to build and check permutation tables with.
`candidates_by_filter` computes a search's candidate images afresh from
two tables' columns, for tests to compare `_candidates` with.
`drop_last_of_largest` takes one member out of a partition, for tests to
feed the agreement rule a closed form that misses a good involution.
`entry_report` analyses one catalog entry afresh, sharing no table with any
other, for tests to compare the catalog's reused analyses with.
PSL(2,7) is built here, from its Moebius maps, because no group spec names
it, and so is the disconnected S4 kei that two tests pin.  `run_with_exact_budget` pins the nodes a search spends.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import permutations
from pathlib import Path
from typing import TypeVar

import pytest

import symq
from symq import errors
from symq.catalog import _entry_analysis
from symq.perms import cycle_type, invert
from symq.report import _analysis_report
from symq.tableio import format_table
from symq.torus import Transvection

T = TypeVar("T")

# The plain filter walks every involutive permutation; past this order the
# count explodes and the search-based enumerator must be used.
_FILTER_MAX_ORDER = 12


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Composition p after q: x -> p[q[x]]."""
    return tuple(p[x] for x in q)


def candidates_by_filter(
    op1, op2, pairs: Sequence[tuple[Sequence[int], Sequence[int]]] = ()
) -> list[list[int]]:
    """Each x's candidate images in a search from op1 to op2, from the cycle
    types of their columns computed afresh: none for any x when the two
    multisets of types differ, else the v whose column has x's type, then
    filtered pair by pair on p2 fixing v exactly when p1 fixes x."""
    types1 = [cycle_type(column) for column in zip(*op1)]
    types2 = [cycle_type(column) for column in zip(*op2)]
    if sorted(types1) != sorted(types2):
        return [[] for _ in types1]
    candidates = []
    for x, profile in enumerate(types1):
        options = [v for v, other in enumerate(types2) if other == profile]
        for p1, p2 in pairs:
            options = [v for v in options if (p2[v] == v) == (p1[x] == x)]
        candidates.append(options)
    return candidates


def drop_last_of_largest(
    blocks: tuple[tuple[int, ...], ...],
) -> tuple[tuple[int, ...], ...]:
    """The blocks with the last member of the first largest one removed."""
    largest = max(blocks, key=len)
    return tuple(block[:-1] if block is largest else block for block in blocks)


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


def automorphism_orbit_classes(
    q: symq.FiniteQuandle, rhos: list[tuple[int, ...]]
) -> tuple[tuple[int, ...], ...]:
    """Orbits of Aut(q) acting on `rhos` by f . rho . f^-1, as index tuples.

    Two good involutions give isomorphic symmetric quandles exactly when
    an automorphism of q conjugates one onto the other, so these are the
    brute-force classes, ordered by smallest member.
    """
    index = {p: i for i, p in enumerate(rhos)}
    maps = [(f.perm, invert(f.perm)) for f in symq.quandle_automorphisms(q)]
    classes = []
    seen = set()
    for i, rho in enumerate(rhos):
        if i in seen:
            continue
        # Aut(q) is a group, so one pass over it is the whole orbit
        orbit = {index[compose(compose(f, rho), f_inv)] for f, f_inv in maps}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return tuple(classes)


def partition_values(
    q: symq.FiniteQuandle, rho: tuple[int, ...]
) -> list[tuple]:
    """The isomorphism partition's five values at every element x.

    The cycle type of x's column S_x, whether rho fixes x, whether rho(x)
    lies in x's inner orbit, the cycle type of S_x . rho, and the number of
    y with x ^ y = rho(x).
    """
    orbit_of = {x: orbit[0] for orbit in symq.inner_orbits(q).orbits for x in orbit}
    columns = list(zip(*q.op))
    return [
        (
            cycle_type(column),
            rho[x] == x,
            orbit_of[rho[x]] == orbit_of[x],
            cycle_type([column[r] for r in rho]),
            q.op[x].count(rho[x]),
        )
        for x, column in enumerate(columns)
    ]


def orbits_by_union_find(maps: list, n: int) -> tuple[tuple[int, ...], ...]:
    """Orbits of 0..n-1 under the maps, by joining x and m(x) for every m.

    Each root is its block's smallest member; the blocks come out as
    ascending tuples ordered by smallest member.
    """
    parent = list(range(n))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for m in maps:
        for x in range(n):
            rx, ry = root(x), root(m[x])
            parent[max(rx, ry)] = min(rx, ry)
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(root(x), []).append(x)
    return tuple(tuple(members) for members in blocks.values())


def galex_tables(
    group: symq.FiniteGroup, phi: symq.GroupAutomorphism
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(op, inv_op) of GAlex(group, phi), each cell by its formula.

    x ^ y = phi(x) phi(y^-1) y and x ^ (y^-1) = phi^-1(x) phi^-1(y^-1) y,
    multiplied left to right.
    """
    p, ginv, f = group.product, group.inverse, phi.perm
    finv = invert(f)
    cells = range(group.order)
    op = tuple(tuple(p[p[f[x]][f[ginv[y]]]][y] for y in cells) for x in cells)
    inv_op = tuple(
        tuple(p[p[finv[x]][finv[ginv[y]]]][y] for y in cells) for x in cells
    )
    return op, inv_op


def generated_subquandle(q: symq.FiniteQuandle, members) -> set[int]:
    """The smallest set holding `members` and closed under ^ and ^-1."""
    closed = set(members)
    while True:
        new = {
            table[x][y] for table in (q.op, q.inv_op) for x in closed for y in closed
        } - closed
        if not new:
            return closed
        closed |= new


def q3_witness_by_triples(op) -> tuple[int, int, int] | None:
    """The first (x, y, z) in lexicographic order with
    (x ^ y) ^ z != (x ^ z) ^ (y ^ z), or None."""
    n = len(op)
    for x in range(n):
        for y in range(n):
            xy = op[x][y]
            for z in range(n):
                if op[xy][z] != op[op[x][z]][op[y][z]]:
                    return x, y, z
    return None


def multiplicative_witness_by_cells(
    product, perm, rows: Sequence[int] | None = None
) -> tuple[int, int] | None:
    """The first (x, y), x in `rows` (every row when None) and y ascending,
    with perm(x * y) != perm(x) * perm(y), or None."""
    n = len(product)
    for x in range(n) if rows is None else rows:
        for y in range(n):
            if perm[product[x][y]] != product[perm[x]][perm[y]]:
                return x, y
    return None


def associativity_witness_by_triples(product) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with
    i * (j * k) != (i * j) * k, or None."""
    n = len(product)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if product[i][product[j][k]] != product[product[i][j]][k]:
                    return i, j, k
    return None


def kei_witness_by_cells(op, inv_op) -> tuple[int, int] | None:
    """The first (x, y), row by row, with x ^ y != x ^-1 y, or None."""
    n = len(op)
    for x in range(n):
        for y in range(n):
            if op[x][y] != inv_op[x][y]:
                return x, y
    return None


def identity_by_scan(product) -> int | None:
    """The first c with c * i = i * c = i for every i, or None."""
    n = len(product)
    for c in range(n):
        if all(product[c][i] == i and product[i][c] == i for i in range(n)):
            return c
    return None


def inverses_by_scan(product, identity: int) -> list[int | None]:
    """Each i's first j with i * j = j * i = identity, or None if it has none."""
    n = len(product)
    return [
        next(
            (j for j in range(n)
             if product[i][j] == identity and product[j][i] == identity),
            None,
        )
        for i in range(n)
    ]


def all_transvections(n: int) -> list[Transvection]:
    """Every shear E_ij of F_2^n, i != j."""
    return [Transvection(i, j) for i in range(n) for j in range(n) if i != j]


def entry_report(entry: symq.CatalogEntry, budget: int | None = None) -> dict:
    """Full cross-checked report for one (group, automorphism) pair.

    Budget exhaustion never raises out of here; it leaves the route fields
    null and explains itself in the notes.  Its elapsed_ms is null, as in
    `run_catalog`.
    """
    return _analysis_report(_entry_analysis(entry, budget), entry.label, None)


def write_table(path, table) -> None:
    """Write a table file in the canonical form that `tableio.read_table` reads."""
    Path(path).write_text(format_table(table), encoding="ascii", newline="\n")


def run_with_exact_budget(nodes: int, call: Callable[[int], T]) -> T:
    """call(nodes), after checking that one node fewer runs out."""
    with pytest.raises(errors.SearchBudgetExceeded):
        call(nodes - 1)
    return call(nodes)


def disconnected_s4_kei() -> symq.FiniteQuandle:
    """S4 twisted by conjugation with the double transposition (1 0 3 2).

    A disconnected kei with six inner orbits of four, 8,000 good involutions
    and 253 classes.
    """
    g = symq.symmetric_group(4)
    c = sorted(permutations(range(4))).index((1, 0, 3, 2))
    phi = symq.validate_automorphism(
        g, [g.product[g.product[c][x]][c] for x in range(g.order)]
    )
    return symq.galex(g, phi)


def psl27() -> symq.FiniteGroup:
    """PSL(2,7) as the closure of x+1, 2x and -1/x acting on P^1(F_7).

    A map is the tuple of images of 0..6 and of infinity, written 7.  The
    168 maps are sorted, so the identity has index 0, and the table
    multiplies by composition.
    """
    inf = 7

    def mobius(f: Callable[[int], int]) -> tuple[int, ...]:
        return tuple(f(x) for x in range(8))

    generators = [
        mobius(lambda x: inf if x == inf else (x + 1) % 7),
        mobius(lambda x: inf if x == inf else 2 * x % 7),
        # -1/x: 0 and infinity swap, and 1/x = x^5 in F_7
        mobius(lambda x: 0 if x == inf else inf if x == 0 else -pow(x, 5, 7) % 7),
    ]
    found = {tuple(range(8))}
    frontier = list(found)
    while frontier:
        p = frontier.pop()
        for g in generators:
            pg = compose(p, g)
            if pg not in found:
                found.add(pg)
                frontier.append(pg)
    elements = sorted(found)
    index = {p: i for i, p in enumerate(elements)}
    return symq.validate_group(
        [[index[compose(p, q)] for q in elements] for p in elements]
    )
