"""The table checks decide on the rows or columns of a generating set.

`validate_group`, `validate_automorphism`, `validate_quandle` and
`kei_witness` check only the rows or columns of the table's greedy
generators (`groups._generating_set`) when the table passes.  The first
two need nothing more to name the first failure, since the least failing
row is a generator's; the other two scan every column or row to name it.
Seeded corrupted automorphism candidates for groups of orders 13-60, and
corrupted group tables of orders 13-30, also under a random relabelling,
are compared with the cell-by-cell loops in `tests/reference.py`, and a
recording `perms.first_mismatch` counts the scans each check makes.
"""

import random

import pytest

import symq
from symq import errors, perms

from reference import (
    associativity_witness_by_triples,
    kei_witness_by_cells,
    multiplicative_witness_by_cells,
    q3_witness_by_triples,
)
from test_table_checks import _relabel, _switch_intercalate

SEED = 20311
SPECS = (
    "cyclic:13", "dihedral:7", "product:cyclic:2,cyclic:2,cyclic:4",
    "product:cyclic:3,symmetric:3", "symmetric:4", "dihedral:15", "cyclic:60",
    "alternating:5",
)
CASES = 400


def _outcome(call, *args):
    try:
        return call(*args)
    except errors.SymqError as exc:
        return f"{type(exc).__name__}: {exc}"


def _corrupt(rng, group, perm):
    """An automorphism's one-line notation, kept or corrupted at random."""
    n = group.order
    r = rng.random()
    if r < 0.15:
        return perm
    if r < 0.5:  # swap two images
        a, b = rng.sample(range(n), 2)
        perm[a], perm[b] = perm[b], perm[a]
    elif r < 0.65:  # follow with a right translation
        c = rng.randrange(n)
        perm = [group.product[v][c] for v in perm]
    elif r < 0.8:  # precede with a 3-cycle
        a, b, c = rng.sample(range(n), 3)
        perm[a], perm[b], perm[c] = perm[b], perm[c], perm[a]
    elif r < 0.9:  # no longer a bijection
        a, b = rng.sample(range(n), 2)
        perm[a] = perm[b]
    else:
        rng.shuffle(perm)
    return perm


def test_automorphism_checks_match_the_cell_loop():
    rng = random.Random(SEED)
    groups = []
    for spec in SPECS:
        group = symq.build_group(spec)
        groups += [group, symq.validate_group(_relabel(rng, group.product))]
    pools = [(g, symq.enumerate_automorphisms(g)) for g in groups]
    kinds = set()
    for _ in range(CASES):
        group, auts = rng.choice(pools)
        perm = _corrupt(rng, group, list(rng.choice(auts).perm))
        got = _outcome(symq.validate_automorphism, group, perm)
        if sorted(perm) != list(range(group.order)):
            assert isinstance(got, str) and got.startswith("NotBijective: ")
            kinds.add("not bijective")
            continue
        witness = multiplicative_witness_by_cells(group.product, perm)
        if witness is None:
            assert isinstance(got, symq.GroupAutomorphism)
            assert got.perm == tuple(perm)
            kinds.add("ok")
            continue
        assert got == f"NotMultiplicative: {errors.NotMultiplicative(*witness)}"
        failing = [
            g for g in group.generators
            if multiplicative_witness_by_cells(group.product, perm, [g]) is not None
        ]
        # the closure argument: the least failing row is a generator's
        assert witness[0] == failing[0]
        if len(failing) == 1:
            kinds.add("one generator row")
            if failing[0] == group.generators[-1]:
                kinds.add("only the last generator's row")
        if failing[0] != group.generators[0]:
            kinds.add("first generator passes")
    assert kinds == {
        "ok", "not bijective", "one generator row", "only the last generator's row",
        "first generator passes",
    }


def test_associativity_witnesses_match_the_triple_loop():
    # a switched 2x2 subsquare keeps a Latin square; those that keep the
    # identity and the inverses reach the associativity check
    rng = random.Random(SEED)
    specs = ("cyclic:13", "dihedral:7", "product:cyclic:2,cyclic:2,cyclic:4",
             "product:cyclic:3,symmetric:3", "symmetric:4", "dihedral:15")
    groups = [symq.build_group(spec) for spec in specs]
    reached = set()
    for _ in range(CASES // 2):
        rows = [list(row) for row in rng.choice(groups).product]
        if rng.random() < 0.8:
            _switch_intercalate(rng, rows)
        if rng.random() < 0.5:
            rows = _relabel(rng, rows)
        got = _outcome(symq.validate_group, rows)
        if isinstance(got, str) and not got.startswith("NotAssociative"):
            continue
        witness = associativity_witness_by_triples(rows)
        if witness is None:
            assert isinstance(got, symq.FiniteGroup)
            reached.add("ok")
            continue
        assert got == f"NotAssociative: {errors.NotAssociative(*witness)}"
        gens = symq.groups._generating_set(rows)
        assert witness[0] in gens
        reached.add("first generator" if witness[0] == gens[0] else "later generator")
    assert reached == {"ok", "first generator", "later generator"}


@pytest.fixture
def scans(monkeypatch):
    """The `rows` argument of every `perms.first_mismatch` call, None for a
    scan of every row."""
    scan = perms.first_mismatch
    calls = []

    def recording(t1, t2, p, q, rows=None):
        calls.append(rows)
        return scan(t1, t2, p, q, rows)

    monkeypatch.setattr(perms, "first_mismatch", recording)
    return calls


def test_valid_tables_scan_only_their_generators(scans):
    # C2^10: the identity, then one generator per factor
    c2_10 = symq.build_group("product:" + ",".join(["cyclic:2"] * 10))
    scans.clear()  # the constructors' own checks
    group = symq.validate_group(c2_10.product)
    assert group.generators == (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    assert len(scans) <= 11 and scans == [None] * len(group.generators)

    # a valid A5 map checks its generators' rows in one scan and no full one
    a5 = symq.alternating_group(5)
    phi = symq.enumerate_automorphisms(a5)[7]
    scans.clear()
    symq.validate_automorphism(a5, phi.perm)
    symq.galex(a5, phi)
    assert scans == [a5.generators] * 2 and len(a5.generators) < 5

    # the dihedral quandle x ^ y = 2y - x mod 63 has the generators 0 and 1
    n = 63
    scans.clear()
    q = symq.validate_quandle([[(2 * y - x) % n for y in range(n)] for x in range(n)])
    assert q.generators == (0, 1) and scans == [None, None]


def test_a_failure_is_named_without_a_scan_past_the_generators(scans):
    a5 = symq.alternating_group(5)
    perm = list(symq.enumerate_automorphisms(a5)[7].perm)
    perm[30], perm[31] = perm[31], perm[30]
    scans.clear()  # the constructor's own check
    with pytest.raises(errors.NotMultiplicative) as info:
        symq.validate_automorphism(a5, perm)
    assert scans == [a5.generators]
    assert info.value.pair == multiplicative_witness_by_cells(a5.product, perm)


def test_a_failure_on_the_last_generator_alone_is_found():
    # Q1 and Q2 hold, and the generators are 0, 1 and 2; of their columns
    # only the last one's breaks Q3, and the least failing triple lies in
    # column 3, which is no generator
    rows = [[0, 0, 0, 0], [1, 1, 3, 2], [2, 2, 2, 1], [3, 3, 1, 3]]
    assert symq.groups._generating_set(rows) == (0, 1, 2)
    failing = [
        z for z in range(4)
        if any(
            rows[rows[x][y]][z] != rows[rows[x][z]][rows[y][z]]
            for x in range(4) for y in range(4)
        )
    ]
    assert failing == [2, 3]
    with pytest.raises(errors.Q3Violation) as info:
        symq.validate_quandle(rows)
    assert info.value.witness == q3_witness_by_triples(rows) == (1, 2, 3)

    # 0, 1 and 2 act trivially, and 3 moves them round a 3-cycle: a quandle
    # whose generators are every element, and only the last one's column is
    # not an involution
    q = symq.validate_quandle([[0, 0, 0, 1], [1, 1, 1, 2], [2, 2, 2, 0], [3, 3, 3, 3]])
    assert q.generators == (0, 1, 2, 3)
    assert symq.kei_witness(q) == kei_witness_by_cells(q.op, q.inv_op) == (0, 3)


def test_the_least_kei_witness_may_lie_off_the_generators():
    # In the conjugation quandle x ^ y = y^-1 x y of S4, the z with
    # S_z^2(a) = a need not be closed under ^, though the involutive columns
    # are.  Label such an a first, then the rest of those z, then one element
    # they generate outside them: row 0 first fails in that element's
    # column, which is no generator, so the generators' columns alone would
    # name a later one.
    s4 = symq.symmetric_group(4)
    p, inv = s4.product, s4.inverse
    n = s4.order
    op = [[p[p[inv[y]][x]][y] for y in range(n)] for x in range(n)]
    columns = symq.validate_quandle(op).columns

    def fixing(a):
        return [z for z in range(n) if columns[z][columns[z][a]] == a]

    a, outside = next(
        (a, sorted({columns[g][w] for w in fixing(a) for g in fixing(a)} - set(fixing(a))))
        for a in range(n)
        if {columns[g][w] for w in fixing(a) for g in fixing(a)} - set(fixing(a))
    )
    order = [a] + [z for z in fixing(a) if z != a] + outside[:1]
    order += [z for z in range(n) if z not in order]
    label = {old: new for new, old in enumerate(order)}
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            rows[label[x]][label[y]] = label[op[x][y]]
    q = symq.validate_quandle(rows)
    witness = symq.kei_witness(q)
    assert witness == kei_witness_by_cells(q.op, q.inv_op)
    assert witness[1] not in q.generators
    on_generators = min(
        (x, y) for y in q.generators for x in range(n) if q.op[x][y] != q.inv_op[x][y]
    )
    assert witness < on_generators
