import gc
import hashlib
import sys
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symq
from symq import errors
from symq.budget import SearchBudget
from symq.groups import _candidates, _iso_search
from symq.perms import invert

from reference import (
    automorphism_orbit_classes,
    compose,
    disconnected_s4_kei,
    drop_last_of_largest,
    enumerate_good_involutions_by_filter,
    involutions,
    orbits_by_union_find,
    partition_values,
    run_with_exact_budget,
    write_table,
)


def rhos_of(good_involutions):
    return [g.rho for g in good_involutions]


# -- is_good_involution -------------------------------------------------------------


def test_identity_is_good_on_any_kei(r3, r4):
    for q in (r3, r4):
        assert symq.is_good_involution(q, list(range(q.order)))


def test_identity_fails_column_condition_off_kei(q5):
    violation = symq.check_good_involution(q5, [0, 1, 2, 3, 4])
    assert violation is not None
    assert violation.condition == "column"
    assert violation.witness == (0, 1)


def test_shift_by_two_is_good_on_r4(r4):
    assert symq.is_good_involution(r4, [2, 3, 0, 1])


def test_non_involution_rejected(r4):
    violation = symq.check_good_involution(r4, [1, 2, 3, 0])
    assert violation.condition == "involution"
    assert violation.witness == (0,)


def test_malformed_permutation(r4):
    with pytest.raises(errors.MalformedPermutation):
        symq.check_good_involution(r4, [0, 0, 1, 2])


# -- enumeration -----------------------------------------------------------------------


def test_r4_has_exactly_four(r4):
    found = rhos_of(symq.enumerate_good_involutions(r4))
    assert found == [(0, 1, 2, 3), (0, 3, 2, 1), (2, 1, 0, 3), (2, 3, 0, 1)]


def test_r3_has_only_identity(r3):
    # independent oracle: filter the involutions of a 3-set directly
    brute = [
        p
        for p in involutions(3)
        if symq.check_good_involution(r3, p) is None
    ]
    assert rhos_of(symq.enumerate_good_involutions(r3)) == brute == [(0, 1, 2)]


def test_non_kei_has_none(q5):
    assert symq.enumerate_good_involutions(q5) == []


def test_enumerator_matches_plain_filter(small_family):
    for label, g in small_family:
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            fast = rhos_of(symq.enumerate_good_involutions(q))
            plain = rhos_of(enumerate_good_involutions_by_filter(q))
            assert fast == plain, label


@pytest.mark.parametrize("m, count", [(3, 1), (5, 1), (6, 8)])
def test_conjugation_quandles_are_non_keis_with_good_involutions(m, count):
    # x ^ y = y^-1 x y on the dihedral group of order 2m: the inverse
    # operation differs from the operation, yet x -> x^-1 is good
    g = symq.dihedral_group(m)
    p, inv = g.product, g.inverse
    q = symq.validate_quandle(
        [[p[p[inv[y]][x]][y] for y in range(g.order)] for x in range(g.order)]
    )
    assert not symq.is_kei(q)
    found = rhos_of(symq.enumerate_good_involutions(q))
    assert found == rhos_of(enumerate_good_involutions_by_filter(q))
    assert len(found) == count and inv in found


def test_enumerator_budget(r4):
    with pytest.raises(errors.SearchBudgetExceeded):
        symq.enumerate_good_involutions(r4, budget=1)


def test_enumerator_budget_near_build_cap(monkeypatch):
    # on the trivial quandle of order 1,000 the first involution, the
    # identity, is 1,000 branching levels deep; the search keeps them on its
    # own stack and never touches the recursion limit, so the budget is what
    # stops it
    def refuse(limit):
        pytest.fail(f"the search set the recursion limit to {limit}")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    rows = tuple((x,) * 1_000 for x in range(1_000))
    q = symq.FiniteQuandle(order=1_000, op=rows, inv_op=rows)
    with pytest.raises(errors.SearchBudgetExceeded):
        symq.enumerate_good_involutions(q, budget=3_000)
    assert sys.getrecursionlimit() == limit


def test_searches_leave_no_garbage_cycles():
    # the state of a search, and of the catalog's divisor-chain builder,
    # must be freed when the call returns, not left in reference cycles
    # until the next full collection
    a4 = symq.alternating_group(4)
    kei = next(
        q for q in (symq.galex(a4, phi) for phi in symq.enumerate_automorphisms(a4))
        if symq.is_kei(q) and symq.is_connected(q)
    )
    rho, other = rhos_of(symq.enumerate_good_involutions(kei))[:2]
    gc.collect()
    gc.disable()
    try:
        types = a4.column_types
        _iso_search(
            a4.product, a4.product, find_all=True, budget=SearchBudget(),
            candidates=_candidates(types, types),
        )
        pairs = [(rho, other)]
        _iso_search(
            kei.op, kei.op, find_all=False, budget=SearchBudget(), pairs=pairs,
            candidates=_candidates(kei.column_types, kei.column_types, pairs),
        )
        symq.enumerate_good_involutions(kei)
        symq.catalog_family(12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_exists_iff_kei(z4, z5, doubling_aut):
    assert symq.exists_good_involution_galex(z4, symq.inversion_automorphism(z4))
    assert not symq.exists_good_involution_galex(z5, doubling_aut)
    g1 = symq.cyclic_group(1)
    assert symq.exists_good_involution_galex(g1, symq.identity_automorphism(g1))


# -- closed form -----------------------------------------------------------------------


def test_rho_r_identity_element(z4):
    inv = symq.inversion_automorphism(z4)
    assert symq.rho_r(z4, inv, 0) == (0, 1, 2, 3)


def test_rho_r_shift(z4):
    inv = symq.inversion_automorphism(z4)
    assert symq.rho_r(z4, inv, 2) == (2, 3, 0, 1)


def test_rho_r_rejects_outsiders(z3):
    inv = symq.inversion_automorphism(z3)
    with pytest.raises(errors.NotFixedTwoTorsion):
        symq.rho_r(z3, inv, 1)


def test_rho_r_refuses_an_element_that_is_not_an_int():
    # False == 0, the identity, but False is not an element index
    c5 = symq.cyclic_group(5)
    inv = symq.inversion_automorphism(c5)
    for r in (False, 0.0):
        with pytest.raises(errors.NotFixedTwoTorsion) as exc:
            symq.rho_r(c5, inv, r)
        assert str(exc.value) == f"element {r} is not an integer"


def test_closed_form_r3(z3):
    inv = symq.inversion_automorphism(z3)
    found = symq.good_involutions_closed_form(z3, inv)
    assert rhos_of(found) == [(0, 1, 2)]


def test_closed_form_refuses_disconnected(z4):
    inv = symq.inversion_automorphism(z4)
    with pytest.raises(errors.HypothesisNotMet) as exc:
        symq.good_involutions_closed_form(z4, inv)
    assert exc.value.hypothesis == "connected"


def test_closed_form_refuses_non_kei(z5, doubling_aut):
    with pytest.raises(errors.HypothesisNotMet) as exc:
        symq.good_involutions_closed_form(z5, doubling_aut)
    assert exc.value.hypothesis == "kei"


def test_closed_form_odd_order():
    g = symq.cyclic_group(7)
    found = symq.good_involutions_closed_form(g, symq.inversion_automorphism(g))
    assert len(found) == 1


def test_closed_form_ascends_on_a_group_file_with_the_identity_elsewhere(tmp_path):
    # A4 relabelled so that its identity sits at index 7: the fixed
    # self-inverse elements are 2 and 7, and row 2 sorts after row 7, so
    # the translations ascend, as the oracle's list does, only once sorted
    sigma = [7, 11, 0, 8, 5, 6, 3, 10, 4, 1, 9, 2]  # old -> new
    a4 = symq.alternating_group(4)
    moved = [[0] * 12 for _ in range(12)]
    for i in range(12):
        for j in range(12):
            moved[sigma[i]][sigma[j]] = sigma[a4.product[i][j]]
    path = tmp_path / "a4_moved.txt"
    write_table(path, moved)
    g = symq.build_group(f"file:{path}")
    phi = symq.validate_automorphism(g, (3, 6, 2, 0, 8, 11, 1, 7, 4, 10, 9, 5))
    assert symq.fixed_two_torsion(g, phi) == (2, 7) and g.product[2] > g.product[7]
    found = rhos_of(symq.good_involutions_closed_form(g, phi))
    assert found == [g.product[7], g.product[2]]
    assert found == rhos_of(symq.enumerate_good_involutions(symq.galex(g, phi)))


# -- symmetric quandle isomorphism --------------------------------------------------------


def test_self_isomorphism_is_identity(r4):
    a = symq.symmetric_quandle(r4, (0, 1, 2, 3))
    w = symq.symmetric_quandle_isomorphic(a, a)
    assert w is not None and w.perm == (0, 1, 2, 3)


def test_r4_identity_vs_shift_not_isomorphic(r4):
    a = symq.symmetric_quandle(r4, (0, 1, 2, 3))
    b = symq.symmetric_quandle(r4, (2, 3, 0, 1))
    assert symq.symmetric_quandle_isomorphic(a, b) is None


def test_r4_swap_pair_isomorphic(r4):
    a = symq.symmetric_quandle(r4, (0, 3, 2, 1))
    b = symq.symmetric_quandle(r4, (2, 1, 0, 3))
    w = symq.symmetric_quandle_isomorphic(a, b)
    assert w is not None
    # the witness really intertwines the two involutions
    assert compose(w.perm, (0, 3, 2, 1)) == compose((2, 1, 0, 3), w.perm)


def test_different_orders_never_isomorphic(r3, q5):
    a = symq.symmetric_quandle(r3, (0, 1, 2))
    b = symq.SymmetricQuandle(quandle=q5, rho=(0, 1, 2, 3, 4))
    assert symq.symmetric_quandle_isomorphic(a, b) is None


def test_isomorphic_refuses_a_hand_built_involution_that_is_not_good(r3, r4):
    # the search pushes the pair at generators only, which is exact for good
    # involutions alone; a SymmetricQuandle is built here without the check
    good = symq.symmetric_quandle(r3, (0, 1, 2))
    swap = symq.SymmetricQuandle(quandle=r3, rho=(0, 2, 1))
    assert symq.check_good_involution(r3, swap.rho) is not None
    for a, b in [(good, swap), (swap, good)]:
        with pytest.raises(errors.MalformedPermutation, match="not a good involution"):
            symq.symmetric_quandle_isomorphic(a, b)
    shift = symq.SymmetricQuandle(quandle=r4, rho=(1, 2, 3, 0))
    with pytest.raises(errors.MalformedPermutation, match="involution fails"):
        symq.symmetric_quandle_isomorphic(shift, shift)


def test_symmetric_quandle_stores_the_validated_permutation(r3):
    with pytest.raises(errors.MalformedPermutation, match="^non-integer entry: '0'$"):
        symq.symmetric_quandle(r3, ["0", "1", "2"])
    a = symq.symmetric_quandle(r3, iter([0, 1, 2]))
    assert a.rho == (0, 1, 2)
    b = symq.symmetric_quandle(r3, [0, 1, 2])
    assert symq.symmetric_quandle_isomorphic(a, b) is not None


def test_symmetric_quandle_factory_rejects_bad_rho(q5):
    with pytest.raises(errors.MalformedPermutation):
        symq.symmetric_quandle(q5, (0, 1, 2, 3, 4))


# -- classification -------------------------------------------------------------------------


def test_classify_non_kei_is_empty(q5):
    result = symq.classify_sq_bruteforce(q5)
    assert result.good_involutions == ()
    assert result.classes_bruteforce == ()


def test_classify_r3_single_class(r3):
    result = symq.classify_sq_bruteforce(r3)
    assert result.bruteforce_count == 1


def test_classify_r4_three_classes(r4):
    result = symq.classify_sq_bruteforce(r4)
    assert len(result.good_involutions) == 4
    # identity alone, the two one-orbit swaps together, the shift alone
    assert result.classes_bruteforce == ((0,), (1, 2), (3,))


def test_classify_trivial_quandle_by_cycle_type(klein):
    # phi = id gives the trivial quandle: every involution is good and two
    # are equivalent exactly when they share a cycle type
    result = symq.cross_check_sq(klein, symq.identity_automorphism(klein))
    assert len(result.good_involutions) == 10
    assert result.bruteforce_count == 3
    assert result.classes_theorem is None
    assert any("not connected" in note for note in result.notes)


@pytest.mark.parametrize("n, involutions, classes", [(1, 1, 1), (2, 2, 2), (3, 4, 2)])
def test_classify_trivial_quandle_small_orders(n, involutions, classes):
    # order 1 has one permutation, order 2 two of different cycle types, and
    # order 3 needs one witness conjugation to join the three swaps
    g = symq.cyclic_group(n)
    result = symq.classify_sq_bruteforce(symq.galex(g, symq.identity_automorphism(g)))
    assert len(result.good_involutions) == involutions
    assert result.bruteforce_count == classes


@pytest.mark.parametrize("n", range(1, 9))
def test_classify_trivial_quandle_by_two_cycles(n):
    # on a trivial quandle every involution is good, and an isomorphism is any
    # permutation, so the classes are the conjugacy classes of involutions in
    # S_n: the involutions grouped by their number of 2-cycles
    g = symq.cyclic_group(n)
    result = symq.classify_sq_bruteforce(symq.galex(g, symq.identity_automorphism(g)))
    assert list(result.good_involutions) == sorted(involutions(n))
    by_swaps = {}
    for i, p in enumerate(result.good_involutions):
        by_swaps.setdefault(sum(p[x] > x for x in range(n)), []).append(i)
    expected = sorted(tuple(members) for members in by_swaps.values())
    assert list(result.classes_bruteforce) == expected


def test_trivial_order_10_pinned():
    # the tableless involutive search and the partition on the trivial
    # table of order 10: every involution of S_10 is good, and class k holds
    # the C(10, 2k) (2k - 1)!! involutions with k 2-cycles
    from symq.involutions import _good_involutions, _partition_by_isomorphism

    g = symq.cyclic_group(10)
    q = symq.galex(g, symq.identity_automorphism(g))
    budget = SearchBudget()
    rhos = _good_involutions(q, budget)
    oracle = budget.used
    classes = _partition_by_isomorphism(q, rhos, budget, symq.inner_orbits(q))
    assert (len(rhos), oracle, budget.used - oracle) == (9_496, 21_361, 15_224)
    assert tuple(map(len, classes)) == (1, 45, 630, 3150, 4725, 945)


def test_partition_raises_on_a_missing_conjugate(klein):
    # with (3 2 1 0) left out of the trivial quandle's list, a witness
    # conjugates another double transposition onto it, which the
    # partition reports instead of leaving out
    from symq.budget import SearchBudget
    from symq.involutions import _partition_by_isomorphism

    q = symq.galex(klein, symq.identity_automorphism(klein))
    rhos = rhos_of(symq.enumerate_good_involutions(q))
    assert rhos[-1] == (3, 2, 1, 0)
    with pytest.raises(errors.InternalConsistencyError, match="missing"):
        _partition_by_isomorphism(q, rhos[:-1], SearchBudget(), symq.inner_orbits(q))


def test_partition_matches_automorphism_orbits():
    # the brute-force classes are the orbits of Aut(q) acting on the good
    # involutions by conjugation, on every kei of order <= 6 (the trivial
    # quandles among them) and on every connected kei of A4
    quandles = {}
    for n in range(1, 7):
        trivial = symq.validate_quandle([[x] * n for x in range(n)])
        quandles[trivial.op] = trivial
    for entry in symq.catalog_entries(6):
        q = symq.galex(entry.group, entry.aut)
        if symq.is_kei(q):
            quandles.setdefault(q.op, q)
    a4 = symq.alternating_group(4)
    connected = 0
    for phi in symq.enumerate_automorphisms(a4):
        q = symq.galex(a4, phi)
        if symq.is_kei(q) and symq.is_connected(q):
            quandles.setdefault(q.op, q)
            connected += 1
    assert (len(quandles), connected) == (24, 6)
    for q in quandles.values():
        result = symq.classify_sq_bruteforce(q)
        rhos = list(result.good_involutions)
        assert result.classes_bruteforce == automorphism_orbit_classes(q, rhos)


@pytest.mark.parametrize("index, classes", [(3, 2), (4, 3)])
def test_partition_matches_automorphism_orbits_a5(a5_connected_keis, index, classes):
    # one connected kei of A5 from each of its two kinds: the twist is
    # conjugation by a transposition (10 keis, 2 classes) or by a double
    # transposition (15 keis, 3 classes).  Listing Aut(q) for all 25 takes
    # tens of seconds; test_cross_check_every_a5_connected_kei checks all 25
    # partitions against the theorem route instead
    q = a5_connected_keis[index][1]
    result = symq.classify_sq_bruteforce(q)
    assert result.bruteforce_count == classes
    rhos = list(result.good_involutions)
    assert result.classes_bruteforce == automorphism_orbit_classes(q, rhos)


def test_partition_values_constant_on_inner_orbits(a5_connected_keis):
    # the partition computes its five values at each inner orbit's smallest
    # member and keeps them once for the whole orbit, which is exact only
    # if the values, computed at every element by the full formula, agree
    # along each orbit
    quandles = {}
    for entry in symq.catalog_entries(8):
        q = symq.galex(entry.group, entry.aut)
        quandles.setdefault(q.op, q)
    a4 = symq.alternating_group(4)
    connected = []
    for phi in symq.enumerate_automorphisms(a4):
        q = symq.galex(a4, phi)
        if symq.is_kei(q) and symq.is_connected(q):
            connected.append(q)
    assert len(connected) == 6
    rhos_seen = 0
    for q in [*quandles.values(), *connected, a5_connected_keis[0][1]]:
        orbits = symq.inner_orbits(q).orbits
        for rho in rhos_of(symq.enumerate_good_involutions(q)):
            values = partition_values(q, rho)
            for orbit in orbits:
                assert {values[x] for x in orbit} == {values[orbit[0]]}
            rhos_seen += 1
    assert (len(quandles), rhos_seen) == (226, 1_956)


def test_cross_check_node_total_over_connected_a4_a5_keis(a5_connected_keis):
    # the nodes that cross_check_sq spends on the 31 connected keis of A4
    # and A5, both routes under one budget; a change to the invariants, the
    # candidates or the search order moves this total
    from symq.involutions import _analyze

    a4 = symq.alternating_group(4)
    keis = [
        q for q in (symq.galex(a4, phi) for phi in symq.enumerate_automorphisms(a4))
        if symq.is_kei(q) and symq.is_connected(q)
    ]
    keis += [q for _, q in a5_connected_keis]
    budget = SearchBudget()
    for q in keis:
        result = _analyze(q, budget, oracle=True, theorem=True, classify=True)
        assert result.agreement is True
    assert (len(keis), budget.used) == (31, 2_747)


@pytest.mark.parametrize(
    "mutate",
    [drop_last_of_largest, lambda classes: (tuple(sorted(sum(classes, ()))),)],
    ids=["drops_a_member", "merges_all"],
)
def test_agreement_fails_on_wrong_theorem_classes(monkeypatch, a5_connected_keis, mutate):
    # the routes agree only when the partitions are equal.  An orbit short of
    # one member leaves the counts equal and each orbit inside one class, so
    # only the equality sees that a good involution is no translation
    from symq import involutions as module

    theorem_classes = module._theorem_classes
    monkeypatch.setattr(
        module, "_theorem_classes", lambda *args: mutate(theorem_classes(*args))
    )
    agreements = [
        symq.cross_check_sq(phi.group, phi).agreement for phi, _ in a5_connected_keis
    ]
    assert agreements == [False] * 25


def test_agreement_fails_when_every_search_stops_at_one_result(
    monkeypatch, a5_connected_keis
):
    # a search weakened for every caller: the oracle, the partition and the
    # centralizer each keep at most their first result
    from symq import groups
    from symq import involutions as module

    a4 = symq.alternating_group(4)
    a4_quandles = [symq.galex(a4, phi) for phi in symq.enumerate_automorphisms(a4)]
    twists = [q.origin for q in a4_quandles if symq.is_kei(q) and symq.is_connected(q)]
    twists += [phi for phi, _ in a5_connected_keis]
    search = groups._iso_search

    def first_only(*args, **kwargs):
        return search(*args, **kwargs)[:1]

    monkeypatch.setattr(groups, "_iso_search", first_only)
    monkeypatch.setattr(module, "_iso_search", first_only)
    agreements = [symq.cross_check_sq(phi.group, phi).agreement for phi in twists]
    assert agreements == [False] * 31


def test_agreement_fails_when_the_oracle_misses_a_translation(monkeypatch):
    from symq import involutions as module

    good_involutions = module._good_involutions
    monkeypatch.setattr(
        module, "_good_involutions", lambda q, budget: good_involutions(q, budget)[:-1]
    )
    g = symq.alternating_group(5)
    result = symq.cross_check_sq(g, symq.parse_aut_spec("conj:3", g))
    assert len(result.good_involutions) == 3 and len(result.fixed_two_torsion) == 4
    assert result.agreement is False


def test_theorem_classes_refuse_a_fixed_set_the_centralizer_moves(monkeypatch):
    # the fixed self-inverse elements of A5's conj:3 twist are 0, 3, 8 and
    # 11, and the witness that joins 11 to 8 moves 59 off that set; with 59
    # added the set is not stable
    from symq import involutions as module

    fixed_two_torsion = module.fixed_two_torsion
    monkeypatch.setattr(
        module, "fixed_two_torsion", lambda g, phi: fixed_two_torsion(g, phi) + (59,)
    )
    g = symq.alternating_group(5)
    with pytest.raises(
        errors.InternalConsistencyError,
        match="^fixed self-inverse set is not stable under the centralizer$",
    ):
        symq.cross_check_sq(g, symq.parse_aut_spec("conj:3", g))


def test_theorem_classes_are_the_centralizer_orbits(small_family, psl27_automorphisms):
    # one witness search per tested pair gives the orbits of the whole
    # centralizer, on every twist of the order <= 8 family, A4 and A5, and on
    # PSL(2,7)'s 49 involutive twists.  Their centralizers are read off
    # Aut(PSL(2,7)) by the definition psi . phi = phi . psi, which
    # `test_centralizer_matches_direct_filter` shows is what
    # `centralizer_in_aut` lists, at a third of its time here
    from symq.involutions import _theorem_classes

    centralizers = [
        (phi, [psi.perm for psi in symq.centralizer_in_aut(g, phi)])
        for _, g in [*small_family, ("A4", symq.alternating_group(4)),
                     ("A5", symq.alternating_group(5))]
        for phi in symq.enumerate_automorphisms(g)
    ]
    auts = [psi.perm for psi in psl27_automorphisms]
    identity = auts[0]
    involutive = [
        phi for phi in psl27_automorphisms
        if phi.perm != identity and compose(phi.perm, phi.perm) == identity
    ]
    assert len(involutive) == 49
    for phi in involutive:
        after_phi = itemgetter(*phi.perm)
        centralizers.append(
            (phi, [psi for psi in auts if after_phi(psi) == itemgetter(*psi)(phi.perm)])
        )
    class_counts = Counter()
    for phi, centralizer in centralizers:
        fixed = symq.fixed_two_torsion(phi.group, phi)
        position = {r: i for i, r in enumerate(fixed)}
        orbits = orbits_by_union_find(
            [[position[psi[r]] for r in fixed] for psi in centralizer], len(fixed)
        )
        expected = tuple(tuple(fixed[i] for i in orbit) for orbit in orbits)
        assert _theorem_classes(phi, fixed, SearchBudget()) == expected
        class_counts[len(expected)] += 1
    assert len(centralizers) == 248 + 24 + 120 + 49
    assert class_counts[3] > 0


def test_theorem_route_nodes_on_a5_conj3():
    # A5's conj:3 twist fixes the involutions 3, 8 and 11: two searches
    # separate 3 from 8 and 11, and a third finds the witness joining them
    from symq.involutions import _theorem_classes

    g = symq.alternating_group(5)
    phi = symq.parse_aut_spec("conj:3", g)
    fixed = symq.fixed_two_torsion(g, phi)
    classes = run_with_exact_budget(
        46, lambda b: _theorem_classes(phi, fixed, SearchBudget(b))
    )
    assert classes == ((0,), (3,), (8, 11))


def test_theorem_route_alone_checks_each_translation(monkeypatch):
    # without the oracle, each translation is checked against the definition;
    # element 1 of A5 is not self-inverse, so its translation is no involution
    from symq import involutions as module

    fixed_two_torsion = module.fixed_two_torsion
    monkeypatch.setattr(
        module, "fixed_two_torsion", lambda g, phi: fixed_two_torsion(g, phi) + (1,)
    )
    g = symq.alternating_group(5)
    with pytest.raises(
        errors.InternalConsistencyError,
        match=r"^translation by 1 is not a good involution: "
        r"InvolutionViolation\(condition='involution', witness=\(0,\)\)$",
    ):
        symq.classify_sq_theorem(g, symq.parse_aut_spec("conj:3", g))


def test_inner_orbits_run_once_per_analysis(monkeypatch):
    # the partition takes the orbits the analysis computed for its facts
    from symq import involutions as module

    calls = []

    def counted(q):
        calls.append(q)
        return symq.inner_orbits(q)

    monkeypatch.setattr(module, "inner_orbits", counted)
    g = symq.alternating_group(4)
    phi = symq.validate_automorphism(g, [0, 2, 1, 3, 5, 4, 9, 10, 11, 6, 7, 8])
    result = symq.cross_check_sq(g, phi)
    assert result.agreement is True and len(calls) == 1


def test_a5_columns_are_typed_once_across_its_cross_checks(
    monkeypatch, a5_connected_keis
):
    # the group keeps its column cycle types, so the 25 theorem routes on
    # one A5 object type each of its 60 columns once between them.  Columns
    # are tuples; the partition types each S_x . rho as a list, which under
    # an inner twist can equal a column, so lists are not counted
    from symq import perms

    group = symq.alternating_group(5)
    columns = set(zip(*group.product))
    typed = Counter()
    cycle_type = perms.cycle_type

    def counted(perm):
        if isinstance(perm, tuple) and perm in columns:
            typed[perm] += 1
        return cycle_type(perm)

    monkeypatch.setattr(perms, "cycle_type", counted)
    for phi, _ in a5_connected_keis:
        result = symq.cross_check_sq(group, symq.GroupAutomorphism(group, phi.perm))
        assert result.agreement is True
    assert len(a5_connected_keis) == 25
    assert typed == Counter(dict.fromkeys(columns, 1))


def test_oracle_node_total_over_catalog_family_9():
    # the oracle searches the definition alone: involutive bijections that
    # meet the column condition and commute with every column.  Its node
    # total over the distinct tables up to order 9 is the one it had while
    # it also propagated every assignment through the table, so that
    # propagation pruned nothing
    from symq.budget import SearchBudget
    from symq.involutions import _good_involutions

    tables = {}
    for _, g in symq.catalog_family(9):
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            tables.setdefault(q.op, q)
    budget = SearchBudget()
    for q in tables.values():
        _good_involutions(q, budget)
    assert (len(tables), budget.used) == (277, 9_847)


def test_partition_membership_pinned(a5_connected_keis):
    # sha256 over the involution list and the brute-force classes of every
    # distinct table of catalog_family(9), then the 25 A5 connected keis,
    # then the disconnected S4 kei.
    # Reports carry only the class count, so this pins which involutions
    # each class holds
    tables = {}
    for _, g in symq.catalog_family(9):
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            tables.setdefault(q.op, q)
    quandles = [*tables.values(), *(q for _, q in a5_connected_keis)]
    quandles.append(disconnected_s4_kei())
    digest = hashlib.sha256()
    for q in quandles:
        result = symq.classify_sq_bruteforce(q)
        digest.update(repr((result.good_involutions, result.classes_bruteforce)).encode())
    assert len(quandles) == 303
    assert digest.hexdigest() == (
        "7540ebe7c1894dbe8027f7f4aa47d3e85b084713aede884e05daf7374a3d9678"
    )


def test_reuse_charges_the_recorded_nodes(klein):
    # a second analysis of the same table takes the stored involutions and
    # classes and is charged the nodes the first one spent
    from symq.budget import SearchBudget
    from symq.involutions import _analyze

    q = symq.galex(klein, symq.identity_automorphism(klein))
    routes = dict(oracle=True, classify=True)
    reuse = {}
    first, second = SearchBudget(), SearchBudget()
    a = _analyze(q, first, **routes, reuse=reuse)
    b = _analyze(q, second, **routes, reuse=reuse)
    assert a == b and a.bruteforce_count == 3
    assert second.used == first.used > 0
    assert list(reuse) == [q.op]
    # one node fewer runs out on a hit as on a fresh search, and a search
    # cut short is not stored
    short = first.used - 1
    with pytest.raises(errors.SearchBudgetExceeded):
        _analyze(q, SearchBudget(short), **routes, reuse=reuse)
    fresh = {}
    with pytest.raises(errors.SearchBudgetExceeded):
        _analyze(q, SearchBudget(short), **routes, reuse=fresh)
    assert fresh == {}


@pytest.mark.parametrize("classify", [
    lambda q, budget: symq.classify_sq_bruteforce(q, budget),
    lambda q, budget: symq.cross_check_sq(q.origin.group, q.origin, budget),
], ids=["bruteforce", "crosscheck"])
def test_budget_hit_surfaces_the_search_exception(a5_connected_keis, classify):
    # the exception that the search which ran out raised reaches the caller
    # itself, with its traceback, not a copy made after the analysis returned
    q = a5_connected_keis[0][1]
    with pytest.raises(errors.SearchBudgetExceeded) as excinfo:
        classify(q, 100)
    assert excinfo.traceback[-1].name == "_iso_search"
    assert str(excinfo.value).startswith("search exceeded the node budget of 100;")


def test_classify_theorem_r3(z3):
    inv = symq.inversion_automorphism(z3)
    result = symq.classify_sq_theorem(z3, inv)
    assert result.theorem_count == 1
    assert result.classes_theorem[0][0] == 0


def test_classify_theorem_z9():
    g = symq.cyclic_group(9)
    result = symq.classify_sq_theorem(g, symq.inversion_automorphism(g))
    assert result.theorem_count == 1


def test_classify_theorem_refuses_r4(z4):
    with pytest.raises(errors.HypothesisNotMet) as exc:
        symq.classify_sq_theorem(z4, symq.inversion_automorphism(z4))
    assert exc.value.hypothesis == "connected"


def test_cross_check_z3(z3):
    result = symq.cross_check_sq(z3, symq.inversion_automorphism(z3))
    assert result.agreement is True
    assert result.bruteforce_count == result.theorem_count == 1


def test_cross_check_non_kei_notes(z5, doubling_aut):
    result = symq.cross_check_sq(z5, doubling_aut)
    assert result.bruteforce_count == 0
    assert result.classes_theorem is None
    assert result.agreement is None
    assert any("not a kei" in note for note in result.notes)


def test_cross_check_alternating_multi_class():
    # conjugating the even permutations on four points by a transposition is
    # an involutive automorphism whose quandle is a connected kei with a
    # two-element fixed set: the smallest case where both routes produce
    # more than one class
    g = symq.alternating_group(4)
    phi = symq.validate_automorphism(g, [0, 2, 1, 3, 5, 4, 9, 10, 11, 6, 7, 8])
    q = symq.galex(g, phi)
    assert symq.is_kei(q) and symq.is_connected(q)
    assert len(symq.fixed_two_torsion(g, phi)) == 2
    result = symq.cross_check_sq(g, phi)
    assert len(result.good_involutions) == 2
    assert result.bruteforce_count == result.theorem_count == 2
    assert result.agreement is True


def test_cross_check_every_a5_connected_kei(a5_connected_keis):
    # the routes agree on all 25 connected keis of A5, where the four fixed
    # self-inverse elements fall into two or three classes
    pairs = Counter()
    for phi, _ in a5_connected_keis:
        g = phi.group
        assert len(symq.fixed_two_torsion(g, phi)) >= 2
        result = symq.cross_check_sq(g, phi)
        assert result.agreement is True
        pairs[len(result.good_involutions), result.bruteforce_count] += 1
    assert len(a5_connected_keis) >= 25
    assert pairs == Counter({(4, 2): 10, (4, 3): 15})


# -- structural properties ---------------------------------------------------------------


def test_trace_identity_for_all_found(small_family):
    # every good involution of a twisted-conjugation quandle satisfies
    # phi(rho(x)^-1) rho(x) = phi(x^-1) x
    for label, g in small_family:
        p, inv = g.product, g.inverse
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            f = phi.perm
            for good in symq.enumerate_good_involutions(q):
                rho = good.rho
                for x in range(g.order):
                    lhs = p[f[inv[rho[x]]]][rho[x]]
                    rhs = p[f[inv[x]]][x]
                    assert lhs == rhs, label


def test_conjugation_preserves_goodness(r4):
    rhos = rhos_of(symq.enumerate_good_involutions(r4))
    for f in symq.quandle_automorphisms(r4):
        fi = invert(f.perm)
        for rho in rhos:
            conj = tuple(f.perm[rho[fi[x]]] for x in range(4))
            assert symq.is_good_involution(r4, conj)


def test_centralizer_element_is_witness(small_family):
    # if psi centralizes phi and maps r1 to r2, it intertwines the two
    # translation involutions
    for label, g in small_family:
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            if not (symq.is_kei(q) and symq.is_connected(q)):
                continue
            fixed = symq.fixed_two_torsion(g, phi)
            for psi in symq.centralizer_in_aut(g, phi):
                for r1 in fixed:
                    r2 = psi.perm[r1]
                    rho1 = symq.rho_r(g, phi, r1)
                    rho2 = symq.rho_r(g, phi, r2)
                    assert compose(psi.perm, rho1) == compose(rho2, psi.perm), label


def test_identity_always_found_on_keis(small_family):
    for label, g in small_family:
        for phi in symq.enumerate_automorphisms(g):
            q = symq.galex(g, phi)
            if symq.is_kei(q):
                found = rhos_of(symq.enumerate_good_involutions(q))
                assert tuple(range(g.order)) in found, label


@given(st.integers(min_value=1, max_value=5), st.data())
@settings(max_examples=40, deadline=None)
def test_random_involutions_on_trivial_quandle_are_good(n, data):
    # the trivial quandle imposes no constraint beyond being an involution
    q = symq.validate_quandle([[x] * n for x in range(n)])
    all_invs = list(involutions(n))
    rho = data.draw(st.sampled_from(all_invs))
    assert symq.is_good_involution(q, rho)


@given(st.permutations(list(range(4))))
@settings(max_examples=60, deadline=None)
def test_checker_matches_textbook_conditions(perm):
    z4 = symq.cyclic_group(4)
    r4 = symq.galex(z4, symq.inversion_automorphism(z4))
    op, iop = r4.op, r4.inv_op
    expected = (
        all(perm[perm[x]] == x for x in range(4))
        and all(
            perm[op[x][y]] == op[perm[x]][y] for x in range(4) for y in range(4)
        )
        and all(
            op[x][perm[y]] == iop[x][y] for x in range(4) for y in range(4)
        )
    )
    assert symq.is_good_involution(r4, perm) == expected


def test_good_involutions_of_a4_and_a5_pinned():
    # sha256 over every good involution of every non-identity automorphism
    # of A4 then A5, in enumeration order, with b"|" closing each automorphism
    digest = hashlib.sha256()
    for k in (4, 5):
        g = symq.alternating_group(k)
        for phi in symq.enumerate_automorphisms(g):
            if phi.is_identity():
                continue
            for good in symq.enumerate_good_involutions(symq.galex(g, phi)):
                digest.update(bytes(good.rho))
            digest.update(b"|")
    assert digest.hexdigest() == (
        "2e9036b4918359152444780f51d224d43882bc5dfbadd700272cac03cd314f83"
    )


def test_repeated_searches_type_each_column_once(a5_connected_keis, monkeypatch):
    # the quandle keeps its column cycle types, so neither isomorphism
    # search types a column again, however often it runs
    phi = a5_connected_keis[0][0]
    q = symq.galex(phi.group, phi)  # a fresh quandle: nothing kept yet
    rho, other = rhos_of(symq.enumerate_good_involutions(q))[:2]
    a, b = symq.symmetric_quandle(q, rho), symq.symmetric_quandle(q, other)
    typed = Counter()
    cycle_type = symq.perms.cycle_type

    def counting(perm):
        typed[tuple(perm)] += 1
        return cycle_type(perm)

    monkeypatch.setattr(symq.perms, "cycle_type", counting)
    for _ in range(3):
        assert symq.quandle_isomorphisms(q, q, find_all=False)
        assert symq.symmetric_quandle_isomorphic(a, a) is not None
        symq.symmetric_quandle_isomorphic(a, b)
    assert sum(typed.values()) == q.order
    assert set(typed) == set(q.columns)
