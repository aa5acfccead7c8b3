import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symq
from symq import errors
from symq.tableio import format_table, parse_table_text, read_table

from reference import write_table


# -- group specs ---------------------------------------------------------------


def test_parse_cyclic():
    spec = symq.parse_group_spec("cyclic:4")
    assert spec.kind == "cyclic"
    assert spec.number == 4


def test_parse_product():
    spec = symq.parse_group_spec("product:cyclic:2,cyclic:4")
    assert spec.kind == "product"
    assert [p.kind for p in spec.parts] == ["cyclic", "cyclic"]
    assert [p.number for p in spec.parts] == [2, 4]


def test_parse_negative_order_is_a_parse_error():
    with pytest.raises(errors.SpecParseError) as exc:
        symq.parse_group_spec("cyclic:-1")
    assert exc.value.offset == 7


@pytest.mark.parametrize(
    "spec, message",
    [("cyclic5", "expected ':' (at offset 6)"),
     ("file:", "expected a file path (at offset 5)")],
)
def test_parse_error_messages(spec, message):
    with pytest.raises(errors.SpecParseError) as exc:
        symq.parse_group_spec(spec)
    assert str(exc.value) == message


def test_parse_unknown_kind():
    with pytest.raises(errors.SpecParseError):
        symq.parse_group_spec("sporadic:1")


def test_parse_trailing_garbage():
    with pytest.raises(errors.SpecParseError):
        symq.parse_group_spec("cyclic:4!")


def test_parse_product_needs_two_factors():
    with pytest.raises(errors.SpecParseError):
        symq.parse_group_spec("product:cyclic:2")


def test_build_dihedral_zero_unsupported():
    with pytest.raises(errors.UnsupportedOrder):
        symq.build_group("dihedral:0")


def test_build_cap_on_huge_orders():
    with pytest.raises(errors.UnsupportedOrder):
        symq.build_group("symmetric:7")


@pytest.mark.parametrize(
    "spec",
    ["symmetric:100000", "alternating:1000000", "product:symmetric:100000,cyclic:0"],
)
def test_build_cap_never_forms_the_giant_order(spec):
    # the order stops growing at the cap: no K!, and no giant integer in
    # the message (formatting one would raise ValueError past 4300 digits)
    from symq.specs import _spec_order

    assert _spec_order(symq.parse_group_spec(spec)).bit_length() < 64
    with pytest.raises(errors.UnsupportedOrder) as exc:
        symq.build_group(spec)
    assert "above the build cap of 1024" in str(exc.value)
    assert len(str(exc.value)) < 200


def test_parse_integer_past_digit_limit_is_a_parse_error():
    with pytest.raises(errors.SpecParseError) as exc:
        symq.parse_group_spec("cyclic:" + "9" * 5000)
    assert exc.value.offset == 7


def _parse_aut(spec):
    return symq.parse_aut_spec(spec, symq.cyclic_group(3))


@pytest.mark.parametrize("parse, spec, message", [
    # superscript two, fullwidth three and Arabic-Indic three
    (symq.parse_group_spec, "cyclic:\u00b2", "expected an unsigned integer (at offset 7)"),
    (symq.parse_group_spec, "cyclic:\uff13", "expected an unsigned integer (at offset 7)"),
    (symq.parse_group_spec, "cyclic:\u0663", "expected an unsigned integer (at offset 7)"),
    (symq.parse_group_spec, "cyclic:1\u0663", "unexpected trailing characters (at offset 8)"),
    # the automorphism specs share the integer parser
    (_parse_aut, "conj:\uff13", "expected an unsigned integer (at offset 5)"),
    (_parse_aut, "perm:0,\u00b2", "expected an unsigned integer (at offset 7)"),
], ids=["superscript", "fullwidth", "arabic_indic", "trailing", "conj", "perm"])
def test_spec_integers_are_ascii_digits_only(parse, spec, message):
    with pytest.raises(errors.SpecParseError) as exc:
        parse(spec)
    assert str(exc.value) == message


def test_build_quaternion():
    assert symq.build_group("quaternion").order == 8


def test_build_from_file(tmp_path):
    path = tmp_path / "z3.txt"
    g = symq.cyclic_group(3)
    write_table(path, g.product)
    loaded = symq.build_group(f"file:{path}")
    assert loaded.product == g.product


def test_file_identity_detected_anywhere(tmp_path):
    # a relabelled Z3 whose identity lands at index 2 is accepted from file
    relabel = [2, 0, 1]  # old -> new
    g = symq.cyclic_group(3)
    moved = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            moved[relabel[i]][relabel[j]] = relabel[g.product[i][j]]
    path = tmp_path / "moved.txt"
    write_table(path, moved)
    loaded = symq.build_group(f"file:{path}")
    assert loaded.identity == 2


def test_product_of_file_and_builtin(tmp_path):
    path = tmp_path / "z2.txt"
    write_table(path, symq.cyclic_group(2).product)
    g = symq.build_group(f"product:file:{path},cyclic:3")
    assert g.order == 6
    assert symq.is_abelian(g)


def test_product_takes_identity_and_inverses_from_a_file_factor(tmp_path):
    # Z2 stored with its identity at index 1, so the product's sits at 2
    path = tmp_path / "z2_moved.txt"
    write_table(path, [[1, 0], [0, 1]])
    g = symq.build_group(f"product:file:{path},cyclic:2")
    validated = symq.validate_group(g.product)
    assert (g.identity, g.inverse) == (validated.identity, validated.inverse)
    assert g.identity == 2
    # with phi = id the quandle is trivial: every element is a fixed
    # self-inverse one, and all 10 involutions of 4 points are good
    result = symq.cross_check_sq(g, symq.identity_automorphism(g))
    assert result.fixed_two_torsion == (0, 1, 2, 3)
    assert len(result.good_involutions) == 10


def test_build_cap_on_file_tables(tmp_path):
    # a table read from file is refused above the cap before validation,
    # whose associativity check is cubic in the order: this one is no group
    # at all, so validating it first would raise NoInverse
    big = tmp_path / "zeros1025.txt"
    write_table(big, [[0] * 1025] * 1025)
    with pytest.raises(errors.UnsupportedOrder) as exc:
        symq.build_group(f"file:{big}")
    assert "above the build cap of 1024" in str(exc.value)
    # a product is refused when its factors as read pass the cap
    small = tmp_path / "c33.txt"
    write_table(small, symq.cyclic_group(33).product)
    with pytest.raises(errors.UnsupportedOrder):
        symq.build_group(f"product:file:{small},file:{small}")


def test_nested_product_is_flattened_by_hand():
    # direct-product packing is associative, so the flattened spec covers
    # what a nested one would mean
    flat = symq.build_group("product:cyclic:2,cyclic:2,cyclic:3")
    paired = symq.direct_product(
        [symq.direct_product([symq.cyclic_group(2)] * 2), symq.cyclic_group(3)]
    )
    assert flat.product == paired.product


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_group_spec_parsing_is_total(text):
    # arbitrary input either parses or raises a positioned error, never crashes
    try:
        symq.parse_group_spec(text)
    except errors.SpecParseError as exc:
        assert 0 <= exc.offset <= len(text)


# -- automorphism specs -----------------------------------------------------------


def test_aut_inv_on_z4(z4):
    assert symq.parse_aut_spec("inv", z4).perm == (0, 3, 2, 1)


def test_aut_id(d3):
    assert symq.parse_aut_spec("id", d3).is_identity()


def test_aut_perm_doubling(z5):
    assert symq.parse_aut_spec("perm:0,2,4,1,3", z5).perm == (0, 2, 4, 1, 3)


def test_aut_inv_rejects_nonabelian(d3):
    with pytest.raises(errors.NotAbelian):
        symq.parse_aut_spec("inv", d3)


def test_aut_perm_rejects_non_automorphism(z4):
    with pytest.raises(errors.NotMultiplicative):
        symq.parse_aut_spec("perm:1,0,3,2", z4)


def test_aut_conj(d3):
    aut = symq.parse_aut_spec("conj:3", d3)
    # conjugation by a reflection has order two
    from symq.perms import compose

    assert compose(aut.perm, aut.perm) == tuple(range(6))


def test_aut_conj_bad_element(d3):
    with pytest.raises(errors.BadElement):
        symq.parse_aut_spec("conj:9", d3)


def test_aut_spec_parse_errors(z4):
    with pytest.raises(errors.SpecParseError):
        symq.parse_aut_spec("twist", z4)
    with pytest.raises(errors.SpecParseError):
        symq.parse_aut_spec("perm:", z4)
    with pytest.raises(errors.SpecParseError):
        symq.parse_aut_spec("id2", z4)


@given(st.text(max_size=30))
@settings(max_examples=200, deadline=None)
def test_aut_spec_parsing_is_total(text):
    z4 = symq.cyclic_group(4)
    try:
        symq.parse_aut_spec(text, z4)
    except errors.SymqError:
        pass


# -- table files --------------------------------------------------------------------


def test_table_roundtrip(tmp_path):
    g = symq.dihedral_group(3)
    path = tmp_path / "d3.txt"
    write_table(path, g.product)
    assert read_table(path) == [list(r) for r in g.product]


def test_table_comments_and_whitespace():
    text = "# a comment\n3\n0 1 2  # trailing\n1 2 0\n2 0 1\n"
    assert parse_table_text(text) == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_table_flexible_token_layout():
    assert parse_table_text("2 0 1 1 0") == [[0, 1], [1, 0]]


def test_table_errors():
    with pytest.raises(errors.MalformedTable):
        parse_table_text("")
    with pytest.raises(errors.MalformedTable):
        parse_table_text("2 0 1 1")
    with pytest.raises(errors.MalformedTable):
        parse_table_text("x 0")
    with pytest.raises(errors.MalformedTable):
        parse_table_text("-1")


def test_table_format_is_canonical():
    assert format_table([[0, 1], [1, 0]]) == "2\n0 1\n1 0\n"
