from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symq
from symq import errors
from symq.budget import SearchBudget
from symq.perms import compose, invert
from symq.groups import _iso_search


def r3_table():
    return [[(-x + 2 * y) % 3 for y in range(3)] for x in range(3)]


def trivial_table(n):
    return [[x] * n for x in range(n)]


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
        auts = []
        for p in permutations(range(q.order)):
            try:
                symq.quandle_map(q, q, p)
            except errors.NotOpPreserving:
                continue
            auts.append(p)
        rhos = [g.rho for g in symq.enumerate_good_involutions(q)]
        for a in rhos:
            # f . a = b . f exactly when b = f . a . f^-1
            by_b = {}
            for f in auts:
                by_b.setdefault(compose(compose(f, a), invert(f)), []).append(f)
            for b in rhos:
                found = _iso_search(
                    q.op, q.op, find_all=True, budget=SearchBudget(), pairs=[(a, b)]
                )
                assert found == by_b.get(b, []), (entry.label, a, b)
    assert len(seen) == 18


# Nodes each search needs.  The search tree fixes them, and with them every
# budget outcome.


def run_with_exact_budget(nodes, call):
    """call(nodes), after checking that one node fewer runs out."""
    with pytest.raises(errors.SearchBudgetExceeded):
        call(nodes - 1)
    return call(nodes)


@pytest.mark.parametrize("index, classes, nodes", [(0, 2, 135), (4, 3, 33_031)])
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
