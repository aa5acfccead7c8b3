import pickle
import time
from functools import partial
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symq
from symq import errors
from symq.budget import SearchBudget, resolve_budget
from symq.groups import _candidates, _check_build_cap, _iso_search

from reference import (
    candidates_by_filter,
    compose,
    involutions,
    orbits_by_union_find,
    run_with_exact_budget,
)

# Latin square with identity 0 and two-sided inverses that is not associative.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


# -- validate_group -------------------------------------------------------------


def test_validate_trivial_group():
    g = symq.validate_group([[0]])
    assert g.order == 1
    assert g.identity == 0
    assert g.inverse == (0,)


def test_validate_z3_derives_inverses():
    g = symq.validate_group(cyclic_table(3))
    assert g.identity == 0
    assert g.inverse == (0, 2, 1)


def test_mutated_z4_fires_row_permutation_check():
    # Overwriting product[1][1] duplicates an entry in row 1, so the first
    # check to fire (in the documented order) reports element 1 as
    # non-invertible.
    table = cyclic_table(4)
    table[1][1] = 1
    with pytest.raises(errors.NoInverse) as exc:
        symq.validate_group(table)
    assert exc.value.element == 1


def test_nonassociative_loop_reports_first_triple():
    with pytest.raises(errors.NotAssociative) as exc:
        symq.validate_group(NONASSOC_LOOP)
    assert exc.value.triple == (1, 1, 2)


def test_malformed_tables():
    with pytest.raises(errors.MalformedTable):
        symq.validate_group([[0, 1], [1]])
    with pytest.raises(errors.MalformedTable):
        symq.validate_group([[0, 2], [2, 0]])
    with pytest.raises(errors.MalformedTable):
        symq.validate_group([])


@pytest.mark.parametrize("table, message", [
    ([[0, 1], [1, 2]], "entry (1, 1) = 2 out of range 0..1"),
    ([[0, 1], [-1, 0]], "entry (1, 0) = -1 out of range 0..1"),
    ([[0, True], [1, 0]], "entry (0, 1) = True out of range 0..1"),
    ([[0, 1.0], [1, 0]], "entry (0, 1) = 1.0 out of range 0..1"),
    ([[0, "1"], [1, 0]], "entry (0, 1) = '1' out of range 0..1"),
    ([[0, 1, 2], [1, 7, -1], [2, 0, 1]], "entry (1, 1) = 7 out of range 0..2"),
    ([[0, 1, 3], [1, 0], [2, 0, 1]], "entry (0, 2) = 3 out of range 0..2"),
    ([[0, 1, 2], [1, 0], [2, 0, 1]], "row 1 has 2 entries, expected 3"),
])
def test_malformed_table_names_its_first_bad_entry(table, message):
    # rows are checked in order, and within a row the least bad column is
    # named, whether the row is refused by length or by an entry
    with pytest.raises(errors.MalformedTable) as exc:
        symq.validate_group(table)
    assert str(exc.value) == message


def test_table_entries_may_be_an_int_subclass():
    class Label(int):
        pass

    group = symq.validate_group([[Label(0), Label(1)], [Label(1), Label(0)]])
    assert group.product == ((0, 1), (1, 0))


def test_no_identity():
    # Latin square with a left identity (row 0) but no two-sided identity.
    table = [[(2 * i + j) % 5 for j in range(5)] for i in range(5)]
    with pytest.raises(errors.NoIdentity):
        symq.validate_group(table)


# -- constructors ---------------------------------------------------------------


def test_build_group_cyclic4():
    g = symq.build_group("cyclic:4")
    assert g.order == 4
    assert g.product[1][3] == 0


def test_build_group_klein_every_element_self_inverse():
    g = symq.build_group("product:cyclic:2,cyclic:2")
    assert g.order == 4
    assert all(g.product[i][i] == 0 for i in range(4))


def test_build_group_dihedral3():
    g = symq.build_group("dihedral:3")
    symq.validate_group(g.product)  # full axiom check
    order_two = [i for i in range(6) if i != 0 and g.product[i][i] == 0]
    assert len(order_two) == 3


def test_quaternion_group_structure():
    g = symq.quaternion_group()
    symq.validate_group(g.product)
    # exactly one element of order two (the central one)
    order_two = [i for i in range(8) if i != 0 and g.product[i][i] == 0]
    assert len(order_two) == 1


def test_symmetric_group_3():
    g = symq.symmetric_group(3)
    assert g.order == 6
    symq.validate_group(g.product)


def test_alternating_group_4():
    g = symq.alternating_group(4)
    assert g.order == 12
    symq.validate_group(g.product)


def test_permutation_tables_compose_point_by_point():
    # row p, column q holds p after q; the lists are lexicographic, the
    # alternating ones keeping the permutations with evenly many inversions
    def even(p):
        return sum(a > b for i, a in enumerate(p) for b in p[i + 1:]) % 2 == 0

    for k in range(1, 6):
        every = sorted(permutations(range(k)))
        pairs = [(symq.symmetric_group(k), every)]
        if k >= 3:
            pairs.append((symq.alternating_group(k), [p for p in every if even(p)]))
        for group, elements in pairs:
            index = {p: i for i, p in enumerate(elements)}
            assert group.product == tuple(
                tuple(index[compose(p, q)] for q in elements) for p in elements
            ), (k, group.order)


def test_direct_product_needs_two_factors():
    with pytest.raises(errors.UnsupportedOrder, match="at least two factors"):
        symq.direct_product([symq.cyclic_group(2)])


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: symq.cyclic_group(1025), "cyclic group"),
        (lambda: symq.cyclic_group(10**5000), "cyclic group"),
        (lambda: symq.dihedral_group(513), "dihedral group"),
        (lambda: symq.symmetric_group(7), "symmetric group"),
        (lambda: symq.symmetric_group(10**6), "symmetric group"),
        (lambda: symq.alternating_group(7), "alternating group"),
        (lambda: symq.direct_product([symq.cyclic_group(33)] * 2), "direct product"),
        (lambda: symq.direct_product([symq.cyclic_group(2)] * 11), "direct product"),
    ],
    ids=["c1025", "c_giant", "d513", "s7", "s_giant", "a7", "c33_squared", "c2_to_11"],
)
def test_constructors_refuse_an_order_above_the_cap_before_building(build, name):
    # the order is computed capped, as for a spec, so neither k! nor the
    # table is formed: each refusal takes milliseconds, where S7's table
    # alone would hold 5,040 x 5,040 cells
    start = time.perf_counter()
    with pytest.raises(errors.UnsupportedOrder) as exc:
        build()
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == f"{name} has order above the build cap of 1024"
    # the cap itself is admitted (building a table of 1,024 rows takes 0.3 s)
    _check_build_cap(name, 1024)


@pytest.mark.parametrize("value", [True, 4.0, "4"])
@pytest.mark.parametrize(
    "build", [symq.cyclic_group, symq.dihedral_group, symq.symmetric_group, symq.alternating_group]
)
def test_constructors_refuse_an_order_that_is_not_an_int(build, value):
    # True would otherwise build cyclic_group(1), and 4.0 fail inside range()
    with pytest.raises(errors.UnsupportedOrder, match=f"got {value!r}$"):
        build(value)


def test_group_invariants_across_builtins(small_family):
    for label, g in small_family:
        validated = symq.validate_group(g.product)
        assert validated.identity == g.identity, label
        assert validated.inverse == g.inverse, label


def test_validate_s4_order_24():
    g = symq.symmetric_group(4)
    assert symq.validate_group(g.product).order == 24


# -- is_abelian / inversion -------------------------------------------------------


def test_is_abelian(z5, d3):
    assert symq.is_abelian(z5)
    assert not symq.is_abelian(d3)
    assert symq.is_abelian(symq.cyclic_group(1))


def test_noncommuting_pair_exists(d3):
    pairs = [
        (i, j)
        for i in range(6)
        for j in range(6)
        if d3.product[i][j] != d3.product[j][i]
    ]
    assert pairs


def test_inversion_automorphism(z4, klein, d3):
    assert symq.inversion_automorphism(z4).perm == (0, 3, 2, 1)
    assert symq.inversion_automorphism(klein).perm == (0, 1, 2, 3)
    with pytest.raises(errors.NotAbelian):
        symq.inversion_automorphism(d3)


# -- validate_automorphism --------------------------------------------------------


def test_validate_automorphism_doubling(z5):
    aut = symq.validate_automorphism(z5, [0, 2, 4, 1, 3])
    assert aut.perm == (0, 2, 4, 1, 3)


def test_validate_automorphism_rejects_non_identity_fixing(z4):
    with pytest.raises(errors.NotMultiplicative):
        symq.validate_automorphism(z4, [1, 0, 3, 2])


def test_validate_automorphism_identity_always_valid(d3):
    aut = symq.validate_automorphism(d3, list(range(6)))
    assert aut.is_identity()


def test_validate_automorphism_rejects_non_bijection(z4):
    with pytest.raises(errors.NotBijective):
        symq.validate_automorphism(z4, [0, 0, 1, 2])
    with pytest.raises(errors.NotBijective):
        symq.validate_automorphism(z4, [0, 1, 2])


@pytest.mark.parametrize("perm", [[0, 1.7, 2.2], [0, 1, 2.9], [0.5, 1, 2]])
def test_validate_automorphism_refuses_fractional_entries(perm):
    # int() would truncate these to a permutation; they are refused instead
    with pytest.raises(errors.NotBijective, match="non-integer entry"):
        symq.validate_automorphism(symq.cyclic_group(3), perm)


def test_as_permutation_refuses_digit_strings_and_whole_numbers():
    # an entry is an int that is not a bool, as in a table; nothing is
    # converted, so "1" and 1.0 are refused like 1.7
    from symq.perms import as_permutation

    for entries, bad in [
        (["0", "1", "2"], "'0'"), ([0, 1.0, 2], "1.0"), ([0, float("inf"), 2], "inf"),
    ]:
        with pytest.raises(errors.MalformedPermutation, match=f"^non-integer entry: {bad}$"):
            as_permutation(entries, 3)
    assert as_permutation(iter([2, 0, 1]), 3) == (2, 0, 1)


def test_permutation_inputs_keep_an_int_subclass_entry_as_tables_do():
    class Index(int):
        pass

    one = Index(1)
    assert symq.validate_group([[0, one], [one, 0]]).product[0][1] is one
    assert symq.validate_automorphism(symq.cyclic_group(2), [0, one]).perm[1] is one


def test_permutation_inputs_refuse_bools():
    # True == 1 and False == 0, but a table entry refuses bools too
    with pytest.raises(errors.MalformedPermutation, match="non-integer entry: True"):
        symq.orbits_under([[0, True, 2]], 3)
    with pytest.raises(errors.NotBijective, match="non-integer entry: False"):
        symq.validate_automorphism(symq.cyclic_group(2), [False, True])
    with pytest.raises(errors.MalformedTable):
        symq.validate_group([[False, True], [True, False]])


# -- enumerate_automorphisms ------------------------------------------------------


def brute_force_automorphisms(g):
    """Independent oracle: filter all permutations by multiplicativity."""
    out = []
    for perm in permutations(range(g.order)):
        if all(
            perm[g.product[i][j]] == g.product[perm[i]][perm[j]]
            for i in range(g.order)
            for j in range(g.order)
        ):
            out.append(perm)
    return sorted(out)


@pytest.mark.parametrize(
    "spec,count",
    [("cyclic:4", 2), ("product:cyclic:2,cyclic:2", 6), ("cyclic:1", 1)],
)
def test_automorphism_counts(spec, count):
    g = symq.build_group(spec)
    auts = symq.enumerate_automorphisms(g)
    assert len(auts) == count
    assert [a.perm for a in auts] == brute_force_automorphisms(g)


@pytest.mark.parametrize(
    "builder,count",
    [
        (lambda: symq.cyclic_group(9), 6),
        (lambda: symq.cyclic_group(12), 4),
        (lambda: symq.direct_product([symq.cyclic_group(3)] * 2), 48),
        (lambda: symq.dihedral_group(6), 12),
        (lambda: symq.dihedral_group(5), 20),
    ],
)
def test_automorphism_counts_above_scan_threshold(builder, count):
    # too large for the brute-force filter; counts are the classical values
    # for the automorphism groups in question
    assert len(symq.enumerate_automorphisms(builder())) == count


def test_automorphisms_match_brute_force(small_family):
    for label, g in small_family:
        got = [a.perm for a in symq.enumerate_automorphisms(g)]
        assert got == brute_force_automorphisms(g), label


def test_aut_group_closure(d3):
    auts = [a.perm for a in symq.enumerate_automorphisms(d3)]
    from symq.perms import identity_perm, invert

    assert identity_perm(6) in auts
    for a in auts:
        assert invert(a) in auts
        for b in auts:
            assert compose(a, b) in auts


def test_budget_exhaustion():
    g = symq.direct_product([symq.cyclic_group(2)] * 3)
    with pytest.raises(errors.SearchBudgetExceeded):
        symq.enumerate_automorphisms(g, budget=5)


def _s3_automorphism_search():
    """`_iso_search` for the automorphisms of S3, awaiting find_all and budget."""
    s3 = symq.symmetric_group(3)
    types = s3.column_types
    return partial(
        _iso_search, s3.product, s3.product, candidates=_candidates(types, types)
    )


def test_search_charges_the_candidates_it_tries():
    # Aut(S3) with find_all=False: 0 -> 0, 1 -> 1, then 2 -> 1 is skipped
    # as used, which costs nothing, and 2 -> 2 completes the identity
    search = _s3_automorphism_search()
    budget = SearchBudget()
    found = search(find_all=False, budget=budget)
    assert found == [tuple(range(6))] and budget.used == 3
    # a second search on the same budget adds its nodes to the first's
    alone = SearchBudget()
    assert len(search(find_all=True, budget=alone)) == 6
    search(find_all=True, budget=budget)
    assert budget.used == 3 + alone.used


def test_search_out_of_budget_leaves_one_node_past_the_limit():
    # the search counts its nodes locally and writes them back on exit: one
    # that runs out has charged the node that crossed the limit, as
    # SearchBudget.spend does, also when an earlier search spent part of it
    search = _s3_automorphism_search()
    nodes = SearchBudget()
    search(find_all=True, budget=nodes)
    for limit in range(nodes.used):
        for spent in (0, limit // 2):
            budget = SearchBudget(limit)
            budget.spend(spent)
            with pytest.raises(errors.SearchBudgetExceeded):
                search(find_all=True, budget=budget)
            assert budget.used == limit + 1
    budget = SearchBudget(nodes.used)
    search(find_all=True, budget=budget)
    assert budget.used == budget.limit


def test_search_with_an_element_without_candidates_returns_at_once():
    # candidates bind only where the search branches, so the early return is
    # the only guard: without it 0 -> 1 would imply the swap 1 -> 0, unchecked,
    # and 2 -> 2 would complete the map (1, 0, 2) after one node
    budget = SearchBudget()
    assert _iso_search(find_all=True, budget=budget, candidates=[(1,), (), (2,)]) == []
    assert budget.used == 0


@st.composite
def pairs_on_points(draw):
    """(n, pairs): 1 <= n <= 7 and up to two pairs of permutations of 0..n-1.

    A random pair is seldom met by any involution, so the first pair's p2
    may be f . p1 . f for a drawn involution f, which f meets.
    """
    n = draw(st.integers(1, 7))
    perm = st.permutations(list(range(n)))
    pairs = draw(st.lists(st.tuples(perm, perm), max_size=2))
    if pairs and draw(st.booleans()):
        f = draw(st.sampled_from(list(involutions(n))))
        p1 = pairs[0][0]
        pairs[0] = (p1, [f[p1[f[x]]] for x in range(n)])
    return n, pairs


@given(pairs_on_points())
@settings(max_examples=300, deadline=None)
def test_table_free_search_lists_the_involutions_that_meet_the_pairs(case):
    # without tables, with every element a candidate for every x, the search
    # lists the involutions f with f . p1 = p2 . f for each pair, in
    # lexicographic order; it assigns each swap b -> a beside a -> b, and a
    # swap it dropped or made twice would change the list
    n, pairs = case
    want = [
        f for f in involutions(n)
        if all(f[p1[x]] == p2[f[x]] for p1, p2 in pairs for x in range(n))
    ]
    search = partial(
        _iso_search, budget=SearchBudget(), candidates=[range(n)] * n, pairs=pairs
    )
    assert search(find_all=True) == want
    assert search(find_all=False) == want[:1]


@pytest.mark.parametrize("value", [2.7, True, False, -0.5, float("inf"), float("nan"), [3]])
def test_budget_refuses_a_bool_or_a_fractional_number(value):
    with pytest.raises(ValueError, match=r"^node budget is not an integer: "):
        resolve_budget(value)


def test_budget_refuses_integral_numbers_and_digit_strings():
    c5 = symq.cyclic_group(5)
    inv = symq.inversion_automorphism(c5)
    for value in (3.0, "12"):
        refusal = f"^node budget is not an integer: {value!r}$"
        for call in (resolve_budget, SearchBudget, lambda v: symq.cross_check_sq(c5, inv, budget=v)):
            with pytest.raises(ValueError, match=refusal):
                call(value)


def test_cross_check_refuses_a_bool_budget():
    # True would otherwise run the cross-check under a one-node budget
    c5 = symq.cyclic_group(5)
    inv = symq.inversion_automorphism(c5)
    with pytest.raises(ValueError, match=r"^node budget is not an integer: True$"):
        symq.cross_check_sq(c5, inv, budget=True)


# -- centralizer ------------------------------------------------------------------


def test_centralizer_of_inversion(z4):
    inv = symq.inversion_automorphism(z4)
    cz = symq.centralizer_in_aut(z4, inv)
    assert len(cz) == 2  # whole automorphism group, which is abelian


def test_centralizer_of_identity_is_everything(klein):
    ident = symq.identity_automorphism(klein)
    assert len(symq.centralizer_in_aut(klein, ident)) == 6


def test_centralizer_refuses_a_hand_built_non_automorphism():
    # (0 1 2 4 5 3) fixes S3's identity and transpositions and is a
    # bijection, but not multiplicative; the search, which pushes its pair at
    # generators only, would list two maps where the filter finds one
    g = symq.symmetric_group(3)
    phi = symq.GroupAutomorphism(group=g, perm=(0, 1, 2, 4, 5, 3))
    with pytest.raises(errors.NotMultiplicative):
        symq.centralizer_in_aut(g, phi)


def _centralizer_by_filter(auts, phi):
    """The permutations in `auts` that commute with the permutation phi."""
    return [a for a in auts if all(a[phi[x]] == phi[a[x]] for x in range(len(phi)))]


def test_centralizer_matches_direct_filter(small_family):
    # the search finds the centralizer directly; filtering the whole
    # automorphism group is the reference
    groups = [g for _, g in small_family] + [symq.alternating_group(4)]
    for g in groups:
        auts = symq.enumerate_automorphisms(g)
        for phi in auts:
            got = [a.perm for a in symq.centralizer_in_aut(g, phi)]
            assert got == _centralizer_by_filter([a.perm for a in auts], phi.perm)
            assert phi.perm in got


def _a5_conjugations():
    """Aut(A5) as S5 acting by conjugation, built without the package.

    The elements are the even permutations of five points in lexicographic
    order, as `alternating_group(5)` lists them; conjugation x -> s x s^-1
    is multiplicative whichever way permutations are composed.  Sorted, so
    in the order `enumerate_automorphisms` promises.
    """
    def even(p):
        return sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0

    elements = [p for p in permutations(range(5)) if even(p)]
    index = {p: i for i, p in enumerate(elements)}
    auts = []
    for s in permutations(range(5)):
        s_inv = tuple(s.index(i) for i in range(5))
        auts.append(
            tuple(index[tuple(s[x[s_inv[i]]] for i in range(5))] for x in elements)
        )
    return sorted(auts)


def test_a5_automorphisms_are_conjugations():
    # the brute-force filter cannot reach order 60; conjugation can
    reference = _a5_conjugations()
    assert len(set(reference)) == 120
    got = symq.enumerate_automorphisms(symq.alternating_group(5))
    assert [a.perm for a in got] == reference


def test_centralizer_matches_direct_filter_a5():
    g = symq.alternating_group(5)
    reference = _a5_conjugations()
    for perm in reference:
        phi = symq.GroupAutomorphism(group=g, perm=perm)
        got = [a.perm for a in symq.centralizer_in_aut(g, phi)]
        assert got == _centralizer_by_filter(reference, perm)


def _all_centralizers(group, budget):
    """The centralizer of every automorphism of group, under one budget."""
    table, types = group.product, group.column_types
    shared = SearchBudget(budget)
    return [
        psi
        for phi in symq.enumerate_automorphisms(group)
        for pairs in [[(phi.perm, phi.perm)]]
        for psi in _iso_search(
            table, table, find_all=True, budget=shared, pairs=pairs,
            candidates=_candidates(types, types, pairs),
        )
    ]


@pytest.mark.parametrize(
    "build, search, maps, nodes",
    [
        (lambda: symq.alternating_group(5), symq.enumerate_automorphisms, 120, 1_761),
        (lambda: symq.symmetric_group(4), symq.enumerate_automorphisms, 24, 226),
        (
            lambda: symq.direct_product([symq.cyclic_group(2)] * 3),
            symq.enumerate_automorphisms,
            168,
            218,
        ),
        (lambda: symq.alternating_group(4), _all_centralizers, 120, 248),
        (lambda: symq.alternating_group(5), _all_centralizers, 840, 7_674),
    ],
    ids=["aut_a5", "aut_s4", "aut_c2_cubed", "centralizers_a4", "centralizers_a5"],
)
def test_automorphism_node_count(build, search, maps, nodes):
    # the nodes the search spends, which fix its budget outcomes
    group = build()
    found = run_with_exact_budget(nodes, lambda b: search(group, budget=b))
    assert len(found) == maps


# -- facts kept on a table -------------------------------------------------------


def _as_lists(candidates):
    return [list(options) for options in candidates]


def test_cached_candidates_equal_fresh_ones():
    # for Aut(G) and for the centralizer of every automorphism of every
    # catalog group and of A5
    groups = [g for _, g in symq.catalog_family(12)] + [symq.alternating_group(5)]
    for group in groups:
        table, types = group.product, group.column_types
        assert _candidates(types, types) == candidates_by_filter(table, table)
        for phi in symq.enumerate_automorphisms(group):
            pairs = [(phi.perm, phi.perm)]
            want = candidates_by_filter(table, table, pairs)
            assert _candidates(types, types, pairs) == want
            # an equal copy of the types takes the multiset comparison
            assert _candidates(types, list(types), pairs) == want
    # C4 and C2 x C2 differ in their element orders: no element has a candidate
    c4, klein = symq.cyclic_group(4), symq.direct_product([symq.cyclic_group(2)] * 2)
    assert _candidates(c4.column_types, klein.column_types) == [()] * 4
    assert candidates_by_filter(c4.product, klein.product) == [[]] * 4


def test_candidates_between_keis_equal_fresh_ones(a5_connected_keis):
    # a cross-table search between two distinct A5 keis whose column types
    # have one multiset, with and without a pair of good involutions, and a
    # pair of two different good involutions on one kei
    keis = [q for _, q in a5_connected_keis]
    q1 = keis[0]
    q2 = next(
        q for q in keis[1:]
        if q.op != q1.op and sorted(q.column_types) == sorted(q1.column_types)
    )
    rhos1 = [g.rho for g in symq.enumerate_good_involutions(q1)]
    rhos2 = [g.rho for g in symq.enumerate_good_involutions(q2)]
    types1, types2 = q1.column_types, q2.column_types
    got = _candidates(types1, types2)
    assert _as_lists(got) == candidates_by_filter(q1.op, q2.op)
    for pairs in ([(rho1, rho2)] for rho1 in rhos1 for rho2 in rhos2):
        want = candidates_by_filter(q1.op, q2.op, pairs)
        assert _as_lists(_candidates(types1, types2, pairs)) == want
    emptied = 0
    for pairs in ([(rho1, rho2)] for rho1 in rhos1 for rho2 in rhos1 if rho1 != rho2):
        want = candidates_by_filter(q1.op, q1.op, pairs)
        assert _as_lists(_candidates(types1, types1, pairs)) == want
        assert _as_lists(_candidates(types1, list(types1), pairs)) == want
        emptied += [] in want
    # some pairs of involutions with different fixed points leave an
    # element without a candidate
    assert emptied > 0


def test_cached_facts_leave_equality_hash_and_pickle_alone():
    # the facts are kept beside the fields, not in them: an object that has
    # computed them equals, hashes and round-trips like one that has not
    group, plain = symq.alternating_group(4), symq.alternating_group(4)
    phi = symq.validate_automorphism(group, [0, 2, 1, 3, 5, 4, 9, 10, 11, 6, 7, 8])
    table = symq.galex(plain, phi).op
    quandle, bare = symq.validate_quandle(table), symq.validate_quandle(table)
    facts = [
        (group, plain, lambda g: g.column_types),
        (quandle, bare, lambda q: (q.columns, q.generators)),
    ]
    for obj, twin, fact in facts:
        before = (hash(obj), repr(obj), pickle.dumps(obj))
        value = fact(obj)
        assert "column_types" not in vars(twin) and "columns" not in vars(twin)
        assert obj == twin and (hash(obj), repr(obj)) == before[:2]
        for copy in (pickle.loads(pickle.dumps(obj)), pickle.loads(before[2])):
            assert copy == obj and hash(copy) == hash(obj) and fact(copy) == value


def test_psl27_automorphisms(psl27_automorphisms):
    # |Aut(PSL(2,7))| = |PGL(2,7)| = 336; its involutions are the 21 inner
    # ones and the 28 of PGL(2,7) outside PSL(2,7)
    g = psl27_automorphisms[0].group
    auts = run_with_exact_budget(
        10_137, lambda b: symq.enumerate_automorphisms(g, budget=b)
    )
    assert auts == psl27_automorphisms and len(auts) == 336
    identity = tuple(range(g.order))
    involutive = [
        a for a in auts if a.perm != identity and compose(a.perm, a.perm) == identity
    ]
    assert len(involutive) == 49


@pytest.mark.parametrize(
    "call",
    [
        symq.centralizer_in_aut,
        symq.fixed_two_torsion,
        lambda group, phi: symq.rho_r(group, phi, 0),
        symq.galex,
        symq.cross_check_sq,
        symq.classify_sq_theorem,
    ],
    ids=[
        "centralizer_in_aut", "fixed_two_torsion", "rho_r",
        "galex", "cross_check_sq", "classify_sq_theorem",
    ],
)
def test_automorphism_of_another_group_is_refused(z4, klein, call):
    # one of C3 would index past C4's table; one of C2 x C2 (the same
    # order) would silently compute with the wrong map
    for foreign in (
        symq.identity_automorphism(symq.cyclic_group(3)),
        symq.inversion_automorphism(klein),
    ):
        with pytest.raises(ValueError, match="different group"):
            call(z4, foreign)


# -- fixed_two_torsion --------------------------------------------------------------


def test_fixed_two_torsion_z4(z4):
    inv = symq.inversion_automorphism(z4)
    assert symq.fixed_two_torsion(z4, inv) == (0, 2)


def test_fixed_two_torsion_z3(z3):
    inv = symq.inversion_automorphism(z3)
    assert symq.fixed_two_torsion(z3, inv) == (0,)


def test_fixed_two_torsion_klein_identity(klein):
    ident = symq.identity_automorphism(klein)
    assert symq.fixed_two_torsion(klein, ident) == (0, 1, 2, 3)


def test_fixed_set_stable_under_centralizer(small_family):
    for label, g in small_family:
        for phi in symq.enumerate_automorphisms(g):
            fixed = set(symq.fixed_two_torsion(g, phi))
            for psi in symq.centralizer_in_aut(g, phi):
                assert {psi.perm[r] for r in fixed} == fixed, label


# -- orbits_under -------------------------------------------------------------------


def test_orbits_no_maps():
    part = symq.orbits_under([], 3)
    assert part.orbits == ((0,), (1,), (2,))


def test_orbits_single_transposition():
    part = symq.orbits_under([[1, 0, 2]], 3)
    assert part.orbits == ((0, 1), (2,))


def test_orbits_transvections_on_four_points():
    # bit-shear maps on two coordinates: 0 fixed, everything else one orbit
    e12 = [0, 1, 3, 2]
    e21 = [0, 3, 2, 1]
    part = symq.orbits_under([e12, e21], 4)
    assert part.orbits == ((0,), (1, 2, 3))


@st.composite
def maps_on_points(draw):
    """(maps, n): up to four permutations of 0..n-1, as lists or as tuples."""
    n = draw(st.integers(0, 9))
    maps = draw(st.lists(st.permutations(list(range(n))), max_size=4))
    if draw(st.booleans()):
        maps = [tuple(m) for m in maps]
    return maps, n


@given(maps_on_points())
@settings(max_examples=200, deadline=None)
def test_orbits_match_union_find(case):
    # the closure walk gives the partition that joining x and m(x) for
    # every map m gives
    maps, n = case
    assert symq.orbits_under(maps, n).orbits == orbits_by_union_find(maps, n)


def test_orbits_rejects_non_permutation():
    with pytest.raises(errors.MalformedPermutation):
        symq.orbits_under([[0, 0, 1]], 3)
    with pytest.raises(errors.MalformedPermutation):
        symq.orbits_under([[0, True, 2.9]], 3)


@given(
    st.lists(st.permutations(list(range(6))), max_size=3),
    st.permutations(list(range(6))),
)
@settings(max_examples=50, deadline=None)
def test_orbits_idempotent(maps, extra):
    part = symq.orbits_under(maps, 6)
    for orbit in part.orbits:
        # restricting the same maps to one orbit yields a single orbit
        relabel = {x: i for i, x in enumerate(orbit)}
        restricted = [
            [relabel[m[x]] for x in orbit]
            for m in maps
        ]
        sub = symq.orbits_under(restricted, len(orbit))
        assert sub.count == 1
