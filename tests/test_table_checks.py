"""The table validators' row and column scans against their cell-by-cell loops.

`validate_quandle` finds its Q3 witness as the least of one row scan's
first failure per column, and `validate_group` reads the identity and the
inverses off the rows and columns.  Seeded corrupted tables of orders 13-40,
past the witness corpus's order 12, go through both, and each outcome is
compared with the loops kept in `tests/reference.py`.
"""

import random

import symq
from symq import errors, perms

from reference import identity_by_scan, inverses_by_scan, q3_witness_by_triples

SEED = 20241
CASES = 160  # per validator


def _outcome(call, *args):
    try:
        return call(*args)
    except errors.SymqError as exc:
        return f"{type(exc).__name__}: {exc}"


def _describe(exc: errors.SymqError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _relabel(rng, rows):
    """The same table under a random relabelling pi: pi(a) * pi(b) = pi(a * b)."""
    n = len(rows)
    pi = list(range(n))
    rng.shuffle(pi)
    out = [[0] * n for _ in range(n)]
    for a, row in enumerate(rows):
        for b, c in enumerate(row):
            out[pi[a]][pi[b]] = pi[c]
    return out


def _swap_in_column(rng, rows):
    """Swap two off-diagonal cells of one column: Q1 and Q2 still hold."""
    n = len(rows)
    z, a, b = rng.sample(range(n), 3)
    rows[a][z], rows[b][z] = rows[b][z], rows[a][z]


def _swap_in_row(rng, rows):
    """Swap two cells of one row: the row stays a permutation, columns break."""
    row = rng.choice(rows)
    i, j = rng.sample(range(len(row)), 2)
    row[i], row[j] = row[j], row[i]


def _switch_intercalate(rng, rows):
    """Switch a random 2x2 subsquare on two symbols, if one is found; a Latin
    square stays one."""
    n = len(rows)
    for _ in range(4 * n):
        i, k = rng.sample(range(n), 2)
        j = rng.randrange(n)
        l = rows[i].index(rows[k][j]) if rows[k][j] in rows[i] else j
        if l != j and rows[k][l] == rows[i][j]:
            rows[i][j], rows[i][l] = rows[i][l], rows[i][j]
            rows[k][j], rows[k][l] = rows[k][l], rows[k][j]
            return


def _one_sided_inverse(rng, n):
    """Z_n, n even, with the subsquare on rows i, i + n/2 and columns -i,
    -i + n/2 switched: 0 stays the identity, i * (-i + n/2) = 0 but
    (-i + n/2) * i = n/2, so i has only a right inverse."""
    h = n // 2
    i = rng.choice([i for i in range(1, n) if 2 * i % n not in (0, h)])
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    for r in (i, (i + h) % n):
        c1, c2 = -i % n, (-i + h) % n
        rows[r][c1], rows[r][c2] = rows[r][c2], rows[r][c1]
    assert rows[i][(-i + h) % n] == 0 and rows[(-i + h) % n][i] == h
    return rows


def test_quandle_validation_matches_the_triple_loop():
    rng = random.Random(SEED)
    specs = ("cyclic:13", "cyclic:25", "dihedral:9", "symmetric:4", "dihedral:20")
    quandles = []
    for spec in specs:
        g = symq.build_group(symq.parse_group_spec(spec))
        phis = symq.enumerate_automorphisms(g)
        quandles += [symq.galex(g, phi) for phi in rng.sample(phis, 3)]
    kinds = set()
    for _ in range(CASES):
        rows = [list(row) for row in rng.choice(quandles).op]
        r = rng.random()
        if r < 0.15:
            rows = _relabel(rng, rows)
        elif r < 0.8:
            for _ in range(rng.randint(1, 3)):
                _swap_in_column(rng, rows)
        else:
            rng.choice((_swap_in_row, _switch_intercalate))(rng, rows)
        n = len(rows)
        got = _outcome(symq.validate_quandle, rows)
        bad_q1 = [x for x in range(n) if rows[x][x] != x]
        bad_q2 = [y for y in range(n) if sorted(r[y] for r in rows) != list(range(n))]
        if bad_q1:
            assert got == _describe(errors.Q1Violation(bad_q1[0]))
        elif bad_q2:
            assert got == _describe(errors.Q2Violation(bad_q2[0]))
        else:
            witness = q3_witness_by_triples(rows)
            if witness is not None:
                assert got == _describe(errors.Q3Violation(*witness))
            else:
                assert isinstance(got, symq.FiniteQuandle)
                assert got.op == tuple(map(tuple, rows))
                assert all(
                    rows[got.inv_op[x][y]][y] == x for x in range(n) for y in range(n)
                )
        kind = got.split(":")[0] if isinstance(got, str) else "ok"
        if kind == "Q3Violation" and not got.endswith(", 0)"):
            kind = "Q3 past column 0"
        kinds.add(kind)
    assert kinds >= {"ok", "Q1Violation", "Q2Violation", "Q3Violation", "Q3 past column 0"}


def test_q3_scans_later_columns_only_up_to_the_failing_row(monkeypatch):
    # passes Q1 and Q2; column 0 fails Q3 at row 0, so columns 1-3 need only
    # row 0 to tell whether they fail at a smaller (x, y)
    rows = [[0, 3, 0, 0], [2, 1, 3, 2], [3, 0, 2, 1], [1, 2, 1, 3]]
    scan = perms.first_mismatch
    scanned = []

    def recording(t1, *args):
        scanned.append(len(t1))
        return scan(t1, *args)

    monkeypatch.setattr(perms, "first_mismatch", recording)
    got = _outcome(symq.validate_quandle, rows)
    assert got == _describe(errors.Q3Violation(0, 1, 0))
    assert q3_witness_by_triples(rows) == (0, 1, 0)
    assert scanned == [4, 1, 1, 1]


def test_group_validation_matches_the_identity_and_inverse_scans():
    rng = random.Random(SEED)
    specs = ("cyclic:13", "cyclic:14", "dihedral:9", "symmetric:4", "cyclic:40")
    groups = [symq.build_group(symq.parse_group_spec(spec)) for spec in specs]
    reached = set()
    for _ in range(CASES):
        r = rng.random()
        if r < 0.2:
            rows = _one_sided_inverse(rng, rng.choice((14, 16, 26, 40)))
        else:
            rows = [list(row) for row in rng.choice(groups).product]
            if r < 0.6:
                rng.choice((_swap_in_row, _switch_intercalate))(rng, rows)
        if rng.random() < 0.7:
            rows = _relabel(rng, rows)
        n = len(rows)
        got = _outcome(symq.validate_group, rows)
        latin = all(sorted(row) == list(range(n)) for row in rows) and all(
            sorted(col) == list(range(n)) for col in zip(*rows)
        )
        if not latin:
            assert isinstance(got, str) and got.startswith("NoInverse") and "permutation" in got
            reached.add("not latin")
            continue
        identity = identity_by_scan(rows)
        if identity is None:
            assert got == _describe(errors.NoIdentity())
            reached.add("no identity")
            continue
        inverses = inverses_by_scan(rows, identity)
        if None in inverses:
            i = inverses.index(None)
            assert got == _describe(errors.NoInverse(i))
            assert rows[i].index(identity) != [row[i] for row in rows].index(identity)
            reached.add("one-sided inverse")
        elif isinstance(got, symq.FiniteGroup):
            assert got.identity == identity and list(got.inverse) == inverses
            abelian = all(rows[i][j] == rows[j][i] for i in range(n) for j in range(n))
            assert symq.is_abelian(got) == abelian
            reached.add("identity off 0" if identity else "identity at 0")
        else:
            assert got.startswith("NotAssociative")
            reached.add("not associative")
    assert reached == {
        "not latin", "no identity", "one-sided inverse", "identity off 0",
        "identity at 0", "not associative",
    }
