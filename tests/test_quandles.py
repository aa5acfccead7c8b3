import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symq
from symq import errors
from symq.budget import SearchBudget
from symq.perms import compose, invert
from symq.groups import FiniteGroup, GroupAutomorphism, _candidates, _iso_search
from symq.quandles import _generating_set

from reference import (
    disconnected_s4_kei,
    galex_tables,
    generated_subquandle,
    orbits_by_union_find,
    run_with_exact_budget,
)


def r3_table():
    return [[(-x + 2 * y) % 3 for y in range(3)] for x in range(3)]


def trivial_table(n):
    return [[x] * n for x in range(n)]


def maps_by_filter(q1, q2):
    """Every permutation that `quandle_map` accepts from q1 to q2, ascending."""
    found = []
    for p in permutations(range(q1.order)):
        try:
            symq.quandle_map(q1, q2, p)
        except errors.NotOpPreserving:
            continue
        found.append(p)
    return found


# -- validate_quandle -------------------------------------------------------------


def test_validate_trivial_one_element():
    q = symq.validate_quandle([[0]])
    assert q.order == 1
    assert q.inv_op == ((0,),)


def test_validate_r3_formula_table():
    q = symq.validate_quandle(r3_table())
    assert q.order == 3
    assert symq.is_kei(q)


def test_validate_detects_broken_column():
    table = r3_table()
    table[0][1] = 0  # duplicates an entry in column 1
    with pytest.raises(errors.Q2Violation) as exc:
        symq.validate_quandle(table)
    assert exc.value.witness == 1


def test_validate_detects_non_idempotent():
    with pytest.raises(errors.Q1Violation) as exc:
        symq.validate_quandle([[1, 0], [1, 0]])
    assert exc.value.witness == 0


def test_validate_detects_distributivity_failure():
    # columns are permutations fixing the diagonal, but the two nontrivial
    # columns fail to intertwine, so Q3 breaks
    table = [
        [0, 2, 0, 0],
        [1, 1, 1, 1],
        [3, 0, 2, 2],
        [2, 3, 3, 3],
    ]
    with pytest.raises(errors.Q3Violation):
        symq.validate_quandle(table)


def test_validate_malformed():
    with pytest.raises(errors.MalformedTable):
        symq.validate_quandle([[0, 1], [0]])
    with pytest.raises(errors.MalformedTable):
        symq.validate_quandle([])


# -- galex --------------------------------------------------------------------------


def test_galex_z4_inversion_formula(z4):
    q = symq.galex(z4, symq.inversion_automorphism(z4))
    for x in range(4):
        for y in range(4):
            assert q.op[x][y] == (-x + 2 * y) % 4
    assert q.op[1][0] == 3


def test_galex_z5_doubling_formulas(q5):
    for x in range(5):
        for y in range(5):
            assert q5.op[x][y] == (2 * x - y) % 5
            assert q5.inv_op[x][y] == (3 * x - 2 * y) % 5
    assert q5.op[0][1] == 4
    assert q5.inv_op[0][1] == 3


def test_galex_trivial_group():
    g = symq.cyclic_group(1)
    q = symq.galex(g, symq.identity_automorphism(g))
    assert q.order == 1
    assert symq.is_kei(q)
    assert symq.is_connected(q)


def test_galex_satisfies_axioms_across_catalog(small_family):
    for label, g in small_family:
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            validated = symq.validate_quandle(q.op)
            assert validated.inv_op == q.inv_op, label


def test_galex_rows_match_cell_formula():
    # cyclic:1 is in the family: its rows are gathered at a single index
    family = symq.catalog_family(12, include_extras=True)
    assert family[0][0] == "cyclic:1"
    for label, g in family + [("alternating:5", symq.alternating_group(5))]:
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            assert (q.op, q.inv_op) == galex_tables(g, phi), (label, phi.perm)
            assert q.origin == phi


def test_galex_column_check_catches_non_associative_loop():
    # a loop of order 5 in which every element is its own inverse; the
    # row gathers need associativity, so the column check must catch it
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(errors.NotAssociative):
        symq.validate_group(table)
    loop = FiniteGroup(order=5, product=table, identity=0, inverse=(0, 1, 2, 3, 4))
    phi = GroupAutomorphism(group=loop, perm=(0, 1, 3, 4, 2))
    with pytest.raises(errors.InternalConsistencyError, match="at column 2$"):
        symq.galex(loop, phi)


def test_galex_refuses_a_hand_built_non_automorphism():
    # a bijection of S3 that fixes the identity but is not multiplicative;
    # the row gathers would build a table that fails Q1 at element 2
    g = symq.symmetric_group(3)
    phi = GroupAutomorphism(group=g, perm=(0, 1, 4, 5, 2, 3))
    with pytest.raises(errors.NotMultiplicative, match=r"at \(2, 2\)$"):
        symq.galex(g, phi)
    with pytest.raises(errors.NotMultiplicative, match=r"at \(2, 2\)$"):
        symq.cross_check_sq(g, phi)


def test_galex_q2_roundtrip(q5):
    n = q5.order
    for x in range(n):
        for y in range(n):
            assert q5.op[q5.inv_op[x][y]][y] == x
            assert q5.inv_op[q5.op[x][y]][y] == x


# -- kei and connectivity --------------------------------------------------------------


def test_is_kei(r4, q5):
    assert symq.is_kei(r4)
    assert symq.kei_witness(q5) == (0, 1)
    assert symq.is_kei(symq.validate_quandle([[0]]))


def test_inversion_always_gives_kei(small_family):
    for label, g in small_family:
        if not symq.is_abelian(g):
            continue
        q = symq.galex(g, symq.inversion_automorphism(g))
        assert symq.is_kei(q), label


def test_is_connected(r3, r4):
    assert not symq.is_connected(r4)
    assert symq.is_connected(r3)
    assert symq.is_connected(symq.validate_quandle([[0]]))


def test_connectivity_is_isomorphism_invariant(r3, r4, q5):
    for q1, q2 in [(r3, r4), (r3, q5), (r4, q5)]:
        if symq.quandle_isomorphisms(q1, q2, find_all=False):
            assert symq.is_connected(q1) == symq.is_connected(q2)


def _checked_generating_set(q):
    """The greedy generating set, checked against closures by brute force:
    it generates q, and y is a generator exactly when the generators below
    y miss it."""
    gens = _generating_set(q)
    assert list(gens) == sorted(gens)
    # closure of each prefix; the generators below y are a prefix
    prefixes = [generated_subquandle(q, gens[:i]) for i in range(len(gens) + 1)]
    assert prefixes[-1] == set(range(q.order))
    for y in range(q.order):
        below = sum(g < y for g in gens)
        assert (y in gens) == (y not in prefixes[below]), y
    return gens


def test_generating_set_of_trivial_quandles():
    # every subquandle of a trivial quandle is its own set
    assert _checked_generating_set(symq.validate_quandle([[0]])) == (0,)
    trivial = symq.validate_quandle([[x] * 5 for x in range(5)])
    assert _checked_generating_set(trivial) == (0, 1, 2, 3, 4)


def test_generating_set_of_r4(r4):
    # inner orbits {0, 2} and {1, 3}: 0 alone generates {0}, and 0 ^ 1 = 2,
    # 1 ^ 0 = 3
    assert [set(o) for o in symq.inner_orbits(r4).orbits] == [{0, 2}, {1, 3}]
    assert _checked_generating_set(r4) == (0, 1)


def test_generating_set_of_an_a5_connected_kei(a5_connected_keis):
    # greedy ascending is not minimal: six generators, though their columns
    # take only four of the kei's ten distinct values
    _, q = a5_connected_keis[0]
    gens = _checked_generating_set(q)
    columns = tuple(zip(*q.op))
    assert len(gens) == 6
    assert (len({columns[y] for y in gens}), len(set(columns))) == (4, 10)


def _connected_keis(group):
    for phi in symq.enumerate_automorphisms(group):
        q = symq.galex(group, phi)
        if symq.is_kei(q) and symq.is_connected(q):
            yield q


def test_inner_orbits_equal_union_find_over_every_column():
    # inner_orbits walks only the generators' columns; the orbits are those
    # of all columns on every table of the extended catalog, the 31 A4 and
    # A5 connected keis, a disconnected kei and a trivial table
    quandles = [
        symq.galex(group, phi)
        for _, group in symq.catalog_family(12, include_extras=True)
        for phi in symq.enumerate_automorphisms(group)
    ]
    keis = [
        q
        for group in (symq.alternating_group(4), symq.alternating_group(5))
        for q in _connected_keis(group)
    ]
    assert len(quandles) == 412 and len(keis) == 31
    quandles += keis
    quandles += [disconnected_s4_kei(), symq.validate_quandle(trivial_table(7))]
    for q in quandles:
        want = orbits_by_union_find(list(zip(*q.op)), q.order)
        assert symq.inner_orbits(q).orbits == want
    assert [symq.inner_orbits(q).count for q in quandles[-2:]] == [6, 7]


def test_inner_orbits_check_the_generator_columns():
    # a hand-built table whose column 0, a generator's, maps 0 and 1 to 0
    q = symq.FiniteQuandle(order=2, op=((0, 0), (0, 1)), inv_op=((0, 0), (0, 1)))
    assert q.generators == (0, 1)
    with pytest.raises(errors.MalformedPermutation):
        symq.inner_orbits(q)


# -- isomorphism search ------------------------------------------------------------------


def test_isomorphisms_of_singleton():
    q = symq.validate_quandle([[0]])
    maps = symq.quandle_isomorphisms(q, q)
    assert len(maps) == 1
    assert maps[0].perm == (0,)


def test_r3_automorphisms_match_brute_force(r3):
    brute = sorted(
        p
        for p in permutations(range(3))
        if all(
            p[r3.op[x][y]] == r3.op[p[x]][p[y]]
            for x in range(3)
            for y in range(3)
        )
    )
    found = [m.perm for m in symq.quandle_automorphisms(r3)]
    assert found == brute
    assert len(found) == 6


def test_r3_not_isomorphic_to_trivial(r3):
    trivial = symq.validate_quandle(trivial_table(3))
    assert symq.quandle_isomorphisms(r3, trivial) == []


def test_self_search_reports_identity_first(r4):
    first = symq.quandle_isomorphisms(r4, r4, find_all=False)
    assert first[0].perm == (0, 1, 2, 3)


def test_rho_search_matches_filter_small_keis():
    # for every kei of order <= 6 and every pair (a, b) of its good
    # involutions, the search lists exactly the automorphisms f with
    # f . a = b . f, in lexicographic order
    seen = set()
    for entry in symq.catalog_entries(6):
        q = symq.galex(entry.group, entry.aut)
        if not symq.is_kei(q) or q.op in seen:
            continue
        seen.add(q.op)
        auts = maps_by_filter(q, q)
        rhos = [g.rho for g in symq.enumerate_good_involutions(q)]
        for a in rhos:
            # f . a = b . f exactly when b = f . a . f^-1
            by_b = {}
            for f in auts:
                by_b.setdefault(compose(compose(f, a), invert(f)), []).append(f)
            for b in rhos:
                pairs = [(a, b)]
                found = _iso_search(
                    q.op, q.op, find_all=True, budget=SearchBudget(), pairs=pairs,
                    candidates=_candidates(q.column_types, q.column_types, pairs),
                )
                assert found == by_b.get(b, []), (entry.label, a, b)
    assert len(seen) == 18


def test_isomorphisms_across_tables_match_filter():
    # every quandle table of the order <= 5 catalog, kei or not, and every
    # trivial quandle of order <= 5, against a random relabelling of itself:
    # the search crosses two tables and lists exactly the maps the filter
    # accepts, in lexicographic order
    tables = {symq.galex(e.group, e.aut).op for e in symq.catalog_entries(5)}
    tables |= {tuple(map(tuple, trivial_table(n))) for n in range(1, 6)}
    rng = random.Random(14)
    for op in sorted(tables):
        q = symq.validate_quandle(op)
        n = q.order
        s = list(range(n))
        rng.shuffle(s)
        # x * y = z in q is s[x] * s[y] = s[z] in the relabelled table
        t = invert(s)
        relabeled = symq.validate_quandle(
            [[s[op[t[x]][t[y]]] for y in range(n)] for x in range(n)]
        )
        found = [m.perm for m in symq.quandle_isomorphisms(q, relabeled)]
        assert found == maps_by_filter(q, relabeled), op
        assert tuple(s) in found
    assert len(tables) == 14


# Nodes each search needs.  The search tree fixes them, and with them every
# budget outcome.


@pytest.mark.parametrize("index, classes, nodes", [(0, 2, 135), (4, 3, 31)])
def test_bruteforce_node_count_a5(a5_connected_keis, index, classes, nodes):
    q = a5_connected_keis[index][1]
    result = run_with_exact_budget(
        nodes, lambda b: symq.classify_sq_bruteforce(q, budget=b)
    )
    assert (len(result.good_involutions), result.bruteforce_count) == (4, classes)


def test_bruteforce_node_count_trivial_order_8():
    q = symq.validate_quandle(trivial_table(8))
    result = run_with_exact_budget(
        3_023, lambda b: symq.classify_sq_bruteforce(q, budget=b)
    )
    assert (len(result.good_involutions), result.bruteforce_count) == (764, 5)


def test_bruteforce_node_count_disconnected_s4_kei():
    # the twist is conjugation by the double transposition (1 0 3 2): a
    # disconnected kei with six inner orbits of four, 8,000 good involutions
    # and 253 classes.  Pairwise searches without the partition's invariants
    # and inner-orbit cut do not finish within the default 10^7 nodes
    q = disconnected_s4_kei()
    assert symq.is_kei(q) and len(symq.inner_orbits(q).orbits) == 6
    result = run_with_exact_budget(
        30_567, lambda b: symq.classify_sq_bruteforce(q, budget=b)
    )
    assert (len(result.good_involutions), result.bruteforce_count) == (8_000, 253)


def test_isomorphisms_node_count_a4_kei():
    g = symq.alternating_group(4)
    phi = symq.validate_automorphism(g, [0, 2, 1, 3, 5, 4, 9, 10, 11, 6, 7, 8])
    q = symq.galex(g, phi)
    # the same quandle with its labels reversed, so the search crosses tables
    n = q.order
    flipped = symq.validate_quandle(
        [[n - 1 - q.op[n - 1 - x][n - 1 - y] for y in range(n)] for x in range(n)]
    )
    maps = run_with_exact_budget(
        864, lambda b: symq.quandle_isomorphisms(q, flipped, find_all=True, budget=b)
    )
    assert len(maps) == 48
    assert maps[0].perm == (0, 4, 6, 3, 10, 2, 7, 5, 11, 1, 9, 8)


def test_quandle_map_factory_rejects_bad_maps(r3):
    with pytest.raises(errors.NotOpPreserving):
        # a transposition that is not op-preserving on the trivial 3-quandle
        # paired with r3's op is caught pair by pair
        symq.quandle_map(r3, symq.validate_quandle(trivial_table(3)), [0, 1, 2])
    with pytest.raises(errors.MalformedPermutation):
        symq.quandle_map(r3, r3, [0, 0, 1])


def test_quandle_map_names_both_orders_when_they_differ(r3):
    with pytest.raises(ValueError, match="source has order 3 but target has order 4"):
        symq.quandle_map(r3, symq.validate_quandle(trivial_table(4)), [0, 1, 2])


@given(st.permutations(list(range(3))))
@settings(max_examples=30, deadline=None)
def test_quandle_map_factory_matches_predicate(perm):
    r3 = symq.validate_quandle(r3_table())
    ok = all(
        perm[r3.op[x][y]] == r3.op[perm[x]][perm[y]]
        for x in range(3)
        for y in range(3)
    )
    if ok:
        assert symq.quandle_map(r3, r3, perm).perm == tuple(perm)
    else:
        with pytest.raises(errors.NotOpPreserving):
            symq.quandle_map(r3, r3, perm)


# -- f_sharp ---------------------------------------------------------------------------


def test_f_sharp_identity(r3):
    ident = symq.quandle_map(r3, r3, [0, 1, 2])
    assert symq.f_sharp(r3, ident).is_identity()


def test_f_sharp_right_translation_is_trivial(r3, z3):
    # x -> x + c is op-preserving on any twisted-conjugation quandle and
    # normalizes to the identity automorphism
    for c in range(3):
        perm = [z3.product[x][c] for x in range(3)]
        f = symq.quandle_map(r3, r3, perm)
        assert symq.f_sharp(r3, f).is_identity()


def test_f_sharp_negation_example(r3):
    f = symq.quandle_map(r3, r3, [0, 2, 1])
    assert symq.f_sharp(r3, f).perm == (0, 2, 1)


def test_f_sharp_requires_connected(r4):
    ident = symq.quandle_map(r4, r4, [0, 1, 2, 3])
    with pytest.raises(errors.NotConnected):
        symq.f_sharp(r4, ident)


def test_f_sharp_requires_origin():
    q = symq.validate_quandle(r3_table())
    ident = symq.quandle_map(q, q, [0, 1, 2])
    with pytest.raises(errors.NotGalexOrigin):
        symq.f_sharp(q, ident)


def test_f_sharp_refuses_a_hand_built_non_map(z5):
    # a caller's map that does not preserve the operation is the caller's
    # error, not a consistency bug
    r5 = symq.galex(z5, symq.inversion_automorphism(z5))
    f = symq.QuandleMap(source=r5, target=r5, perm=(0, 2, 1, 4, 3))
    with pytest.raises(errors.NotOpPreserving, match=r"at \(0, 1\)$"):
        symq.f_sharp(r5, f)


# -- affine_automorphism ------------------------------------------------------------------


def test_affine_identity_is_identity_map(r3, z3):
    f = symq.affine_automorphism(r3, symq.identity_automorphism(z3), 0)
    assert f.perm == (0, 1, 2)


def test_affine_translations_on_r4(r4, z4):
    for c in range(4):
        f = symq.affine_automorphism(r4, symq.identity_automorphism(z4), c)
        assert f.perm == tuple((x + c) % 4 for x in range(4))


def test_affine_negation_roundtrip(r3, z3):
    neg = symq.inversion_automorphism(z3)
    f = symq.affine_automorphism(r3, neg, 0)
    assert symq.f_sharp(r3, f).perm == neg.perm


def test_affine_rejects_non_centralizing():
    g = symq.direct_product([symq.cyclic_group(2)] * 3)
    auts = symq.enumerate_automorphisms(g)
    from symq.perms import compose

    phi = next(a for a in auts if compose(a.perm, a.perm) == tuple(range(8)) and not a.is_identity())
    q = symq.galex(g, phi)
    psi = next(
        a
        for a in auts
        if compose(a.perm, phi.perm) != compose(phi.perm, a.perm)
    )
    with pytest.raises(errors.NotCentralizing):
        symq.affine_automorphism(q, psi, 0)


def test_affine_refuses_a_hand_built_non_automorphism(z5):
    # (1 2)(3 4) commutes with inversion on Z/5 but is not multiplicative
    r5 = symq.galex(z5, symq.inversion_automorphism(z5))
    psi = GroupAutomorphism(group=z5, perm=(0, 2, 1, 4, 3))
    with pytest.raises(errors.NotMultiplicative, match=r"at \(1, 1\)$"):
        symq.affine_automorphism(r5, psi, 0)


def test_affine_bad_translation_index(r3, z3):
    with pytest.raises(errors.BadElement):
        symq.affine_automorphism(r3, symq.identity_automorphism(z3), 7)


def test_affine_f_sharp_bijection_small_catalog(small_family):
    # On connected quandles the affine maps are exactly the automorphisms:
    # (psi, c) -> psi(x) c is injective and f -> (f_sharp, f(e)) undoes it.
    from symq.perms import compose

    for label, g in small_family:
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            if not symq.is_connected(q):
                continue
            centralizer = symq.centralizer_in_aut(g, phi)
            built = {}
            for psi in centralizer:
                for c in range(g.order):
                    f = symq.affine_automorphism(q, psi, c)
                    assert f.perm not in built, label
                    built[f.perm] = (psi.perm, c)
            autos = symq.quandle_automorphisms(q)
            assert len(autos) == len(built), label
            for f in autos:
                sharp = symq.f_sharp(q, f)
                e_image = f.perm[g.identity]
                assert built[f.perm] == (sharp.perm, e_image), label
