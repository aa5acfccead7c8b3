import json
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symq
from symq import errors
from symq.cli import main
from symq.torus import (
    MAX_DIMENSION,
    Transvection,
    _class_count_with_generators,
    _orbit_bitmap,
    _shear_moves,
    adjacent_transvections,
    all_transvections,
)


def bits_of(vectors):
    return [v.bits for v in vectors]


def test_two_torsion_n1():
    assert bits_of(symq.two_torsion_set(1)) == [0, 1]


def test_two_torsion_n2():
    assert bits_of(symq.two_torsion_set(2)) == [0, 1, 2, 3]


def test_two_torsion_size_is_power_of_two():
    for n in range(1, 11):
        assert len(symq.two_torsion_set(n)) == 2**n


def test_dimension_bounds():
    with pytest.raises(errors.DimensionTooLarge):
        symq.two_torsion_set(0)
    with pytest.raises(errors.DimensionTooLarge):
        symq.two_torsion_set(21)


def test_orbit_of_zero_is_zero():
    for n in (1, 2, 5):
        orbit = symq.transvection_orbit(n, symq.BitVector(n, 0))
        assert bits_of(orbit) == [0]


def test_orbit_refuses_a_vector_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 2 given for dimension 3"):
        symq.transvection_orbit(3, symq.BitVector(2, 0b10))
    with pytest.raises(ValueError, match="dimension 3 given for dimension 2"):
        symq.transvection_orbit(2, symq.BitVector(3, 4))


def test_orbit_n2_from_e1():
    # e1 = "10"; shears reach "11" and then "01"
    orbit = symq.transvection_orbit(2, symq.BitVector(2, 0b10))
    assert bits_of(orbit) == [1, 2, 3]


def test_orbit_n1_is_fixed():
    orbit = symq.transvection_orbit(1, symq.BitVector(1, 1))
    assert bits_of(orbit) == [1]


def test_orbit_of_e1_covers_nonzero():
    for n in range(2, 9):
        e1 = symq.BitVector(n, 1 << (n - 1))
        orbit = symq.transvection_orbit(n, e1)
        assert bits_of(orbit) == list(range(1, 2**n))


def test_class_count_examples():
    assert symq.torus_sq_class_count(1) == 2
    assert symq.torus_sq_class_count(3) == 2
    assert symq.torus_sq_class_count(6) == 2


def test_class_count_all_small():
    for n in range(1, 11):
        assert symq.torus_sq_class_count(n) == 2


def test_model_inconsistency_fires_on_crippled_generators():
    with pytest.raises(errors.ModelInconsistency):
        _class_count_with_generators(2, [])


def test_model_inconsistency_reports_partial_orbit():
    # E_01 never touches e1 = "100" (its coordinate 1 is clear): 1 of 7 covered.
    with pytest.raises(errors.ModelInconsistency, match="covers 1 of 7 nonzero vectors"):
        _class_count_with_generators(3, [Transvection(0, 1)])


def reference_orbit(n, v):
    """Breadth-first closure of v under every shear, one `apply` per step."""
    seen = {v.bits}
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for t in all_transvections(n):
            w = t.apply(u)
            if w.bits not in seen:
                seen.add(w.bits)
                queue.append(w)
    return seen


def test_adjacent_closure_matches_all_shears_and_reference_bfs():
    for n in range(1, 9):
        assert len(adjacent_transvections(n)) == 2 * (n - 1)
        adjacent = _shear_moves(n, adjacent_transvections(n))
        every = _shear_moves(n, all_transvections(n))
        reference = {}
        for v in symq.two_torsion_set(n):
            if v.bits not in reference:
                # An orbit of a group action is the orbit of each of its points.
                orbit = reference_orbit(n, v)
                reference.update(dict.fromkeys(orbit, orbit))
            expected = sum(1 << p for p in reference[v.bits])
            assert _orbit_bitmap(v.bits, adjacent) == expected, (n, v.bits)
            assert _orbit_bitmap(v.bits, every) == expected, (n, v.bits)
            assert bits_of(symq.transvection_orbit(n, v)) == sorted(reference[v.bits])


def test_torus_cli_at_max_dimension(capsys):
    start = time.monotonic()
    code = main(["torus", "--n", str(MAX_DIMENSION)])
    elapsed = time.monotonic() - start
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["two_torsion_size"] == 2**MAX_DIMENSION
    assert report["class_count"] == 2
    assert report["orbit_check_passed"] is True
    assert elapsed < 3.0


def test_report_notes_degenerate_dimension():
    assert symq.torus_report_data(1)["notes"]
    assert symq.torus_report_data(2)["notes"] == []


def test_bitvector_printing():
    v = symq.BitVector(4, 0b1010)
    assert str(v) == "1010"
    assert v.coord(0) == 1 and v.coord(1) == 0


def test_transvection_requires_distinct_indices():
    with pytest.raises(ValueError):
        Transvection(1, 1)


@given(
    st.integers(min_value=2, max_value=10),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_transvections_are_involutions(n, data):
    bits = data.draw(st.integers(min_value=0, max_value=2**n - 1))
    t = data.draw(st.sampled_from(all_transvections(n)))
    v = symq.BitVector(n, bits)
    assert t.apply(t.apply(v)) == v


@given(st.integers(min_value=1, max_value=8))
@settings(max_examples=20, deadline=None)
def test_orbits_partition_the_set(n):
    seen: set[int] = set()
    for v in symq.two_torsion_set(n):
        if v.bits in seen:
            continue
        orbit = bits_of(symq.transvection_orbit(n, v))
        assert seen.isdisjoint(orbit)
        seen.update(orbit)
    assert seen == set(range(2**n))
