"""A digest of the first failure every table check reports on corrupted input.

A seeded corpus of corrupted group tables, candidate automorphisms, quandle
tables, quandle maps and involution candidates over C6, S3, D4, Q8 and A4
goes through `validate_group`, `validate_automorphism`, `validate_quandle`,
`quandle_map` and `check_good_involution`.  Each case's outcome is its
exception class and message, its `InvolutionViolation` repr, or "ok", and
the sha256 of all of them pins every error class, message and witness.
"""

import hashlib
import random

import symq
from symq import errors

SEED = 20231
GROUPS = ("cyclic:6", "symmetric:3", "dihedral:4", "quaternion", "alternating:4")
CASES_PER_KIND = 600  # per group and per kind
CORPUS_SHA256 = (
    "ddd9064ca5f1912101e25725ebeff3ab5fd2d67f60de8907474408c84a2da4ec"
)


def _outcome(call, *args) -> str:
    try:
        result = call(*args)
    except (errors.SymqError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, symq.InvolutionViolation):
        return repr(result)
    return "ok"


def _swap_cells(rng, rows):
    """Swap two cells of one row: a row stays a permutation, columns break."""
    row = rng.choice(rows)
    i, j = rng.sample(range(len(row)), 2)
    row[i], row[j] = row[j], row[i]


def _switch_intercalate(rng, rows):
    """Switch a random 2x2 subsquare on two symbols; a Latin square stays one."""
    n = len(rows)
    for _ in range(4 * n):
        i, k = rng.sample(range(n), 2)
        j = rng.randrange(n)
        l = rows[i].index(rows[k][j]) if rows[k][j] in rows[i] else j
        if l != j and rows[k][l] == rows[i][j]:
            rows[i][j], rows[i][l] = rows[i][l], rows[i][j]
            rows[k][j], rows[k][l] = rows[k][l], rows[k][j]
            return


def _relabel_entries(rng, rows):
    """Apply a random permutation to the entries only: still a Latin square."""
    pi = list(range(len(rows)))
    rng.shuffle(pi)
    for row in rows:
        row[:] = [pi[v] for v in row]


def _corrupt(rng, table):
    rows = [list(row) for row in table]
    for _ in range(rng.randint(0, 2)):
        rng.choice((_swap_cells, _relabel_entries) + (_switch_intercalate,) * 4)(rng, rows)
    return rows


def _near(rng, perm):
    """perm, or perm after a random transposition of its values."""
    out = list(perm)
    if rng.random() < 0.8:
        i, j = rng.sample(range(len(out)), 2)
        out[i], out[j] = out[j], out[i]
    return out


def _random_perm(rng, n):
    out = list(range(n))
    rng.shuffle(out)
    return out


def _random_involution(rng, n):
    out = list(range(n))
    points = list(range(n))
    rng.shuffle(points)
    for a, b in zip(points[::2], points[1::2]):
        if rng.random() < 0.6:
            out[a], out[b] = b, a
    return out


def _corpus_outcomes():
    rng = random.Random(SEED)
    for spec in GROUPS:
        g = symq.build_group(symq.parse_group_spec(spec))
        n = g.order
        phis = symq.enumerate_automorphisms(g)
        auts = [phi.perm for phi in phis]
        quandles = [symq.galex(g, phi) for phi in phis]
        # every involution of a trivial quandle is good: the random ones cover it
        goods = [
            [] if phi.is_identity() else
            [s.rho for s in symq.enumerate_good_involutions(q)]
            for phi, q in zip(phis, quandles)
        ]
        for _ in range(CASES_PER_KIND):
            yield _outcome(symq.validate_group, _corrupt(rng, g.product))
        for _ in range(CASES_PER_KIND):
            r = rng.random()
            if r < 0.05:
                perm = _random_perm(rng, n)[:-1]
            elif r < 0.4:
                perm = _random_perm(rng, n)
            else:
                perm = _near(rng, rng.choice(auts))
            yield _outcome(symq.validate_automorphism, g, perm)
        for _ in range(CASES_PER_KIND):
            yield _outcome(symq.validate_quandle, _corrupt(rng, rng.choice(quandles).op))
        for _ in range(CASES_PER_KIND):
            source, target = rng.choice(quandles), rng.choice(quandles)
            if rng.random() < 0.6:
                target = source
            if rng.random() < 0.4:
                perm = _random_perm(rng, n)
            else:
                perm = _near(rng, rng.choice(auts))
            yield _outcome(symq.quandle_map, source, target, perm)
        for _ in range(CASES_PER_KIND):
            i = rng.randrange(len(quandles))
            r = rng.random()
            if r < 0.1:
                rho = _random_perm(rng, n)
            elif r < 0.5:
                rho = _random_involution(rng, n)
            elif r < 0.75:
                rho = list(range(n))  # equivariant; fails the column condition off a kei
            else:
                rho = _near(rng, rng.choice(goods[i])) if goods[i] else _random_involution(rng, n)
            yield _outcome(symq.check_good_involution, quandles[i], rho)


def test_first_failures_digest():
    outcomes = list(_corpus_outcomes())
    kinds = {line.split(":")[0].split("(")[0] for line in outcomes}
    # the corpus reaches every check it pins, and their later conditions
    assert {
        "ok", "NoInverse", "NoIdentity", "NotAssociative", "NotBijective",
        "NotMultiplicative", "Q1Violation", "Q2Violation", "Q3Violation",
        "NotOpPreserving", "InvolutionViolation",
    } <= kinds, kinds
    conditions = {line.split("'")[1] for line in outcomes if line.startswith("Inv")}
    assert conditions == {"involution", "equivariance", "column"}
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (len(outcomes), digest) == (len(GROUPS) * 5 * CASES_PER_KIND, CORPUS_SHA256)
