import json
import time

import pytest

import symq
from symq.cli import main
from symq.report import _analysis_report, emit_report, emit_reports, to_json, to_text

from reference import write_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- group commands ----------------------------------------------------------------


def test_group_build_writes_table(capsys):
    code, out, _ = run(capsys, "group", "build", "--group", "cyclic:3")
    assert code == 0
    assert out == "3\n0 1 2\n1 2 0\n2 0 1\n"


def test_group_build_to_file(tmp_path, capsys):
    path = tmp_path / "k4.txt"
    code, out, _ = run(
        capsys, "group", "build", "--group", "product:cyclic:2,cyclic:2",
        "--out", str(path),
    )
    assert code == 0 and out == ""
    assert path.read_text().startswith("4\n")


def test_group_build_oversize_spec_fails_cleanly(capsys):
    code, out, err = run(capsys, "group", "build", "--group", "symmetric:100000")
    assert code == 1 and out == ""
    assert err == (
        "error: spec 'symmetric:100000' names a group of order above "
        "the build cap of 1024\n"
    )


def test_group_check(capsys):
    report = run_json(capsys, "group", "check", "--group", "dihedral:3")
    assert report["order"] == 6
    assert report["abelian"] is False
    assert report["valid"] is True


def test_group_check_validates_a_file_table_once(tmp_path, capsys, monkeypatch):
    # the cubic associativity check runs once per table: in build_group for
    # a file table, in the command for a built-in spec
    import symq.cli as cli
    import symq.specs as specs

    calls = []

    def counting(table):
        calls.append(len(table))
        return symq.validate_group(table)

    monkeypatch.setattr(cli, "validate_group", counting)
    monkeypatch.setattr(specs, "validate_group", counting)
    path = tmp_path / "z5.txt"
    write_table(path, symq.cyclic_group(5).product)
    report = run_json(capsys, "group", "check", "--group", f"file:{path}")
    assert report["order"] == 5 and calls == [5]
    calls.clear()
    report = run_json(capsys, "group", "check", "--group", "dihedral:3")
    assert report["order"] == 6 and calls == [6]


def test_group_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "group", "build", "--group", "cyclic:-1")
    assert code == 1
    assert "offset" in err


# -- quandle commands ---------------------------------------------------------------


def test_quandle_galex_table(capsys):
    code, out, _ = run(
        capsys, "quandle", "galex", "--group", "cyclic:3", "--aut", "inv"
    )
    assert code == 0
    assert out == "3\n0 2 1\n2 1 0\n1 0 2\n"


def test_quandle_check_roundtrip(tmp_path, capsys):
    path = tmp_path / "r3.txt"
    code, out, _ = run(
        capsys, "quandle", "galex", "--group", "cyclic:3", "--aut", "inv",
        "--out", str(path),
    )
    assert code == 0
    report = run_json(capsys, "quandle", "check", "--table", str(path))
    assert report["is_kei"] is True
    assert report["is_connected"] is True
    assert report["good_involutions"] is None


def test_quandle_check_rejects_broken_table(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("3\n0 0 1\n2 1 0\n1 0 2\n")  # column 1 repeats an entry
    code, _, err = run(capsys, "quandle", "check", "--table", str(path))
    assert code == 1
    assert "column" in err


def test_table_above_cap_is_refused_before_validation(tmp_path, capsys):
    # a valid trivial quandle (x ^ y = x) whose cubic axiom check would run
    # for minutes: it is refused as soon as its declared order is read
    path = tmp_path / "trivial1025.txt"
    write_table(path, [[x] * 1025 for x in range(1025)])
    for argv in (("quandle", "check"), ("sq", "enumerate")):
        code, out, err = run(capsys, *argv, "--table", str(path))
        assert code == 1 and out == "", argv
        assert "above the build cap of 1024" in err, argv


# -- sq commands ----------------------------------------------------------------------


def test_sq_enumerate_r4(capsys):
    report = run_json(
        capsys, "sq", "enumerate", "--group", "cyclic:4", "--aut", "inv"
    )
    assert len(report["good_involutions"]) == 4
    assert report["fixed_two_torsion"] == [0, 2]
    assert report["is_kei"] is True
    assert report["is_connected"] is False


def test_sq_enumerate_from_table(tmp_path, capsys):
    q = symq.galex(
        symq.cyclic_group(3),
        symq.inversion_automorphism(symq.cyclic_group(3)),
    )
    path = tmp_path / "r3.txt"
    write_table(path, q.op)
    report = run_json(capsys, "sq", "enumerate", "--table", str(path))
    assert report["good_involutions"] == [[0, 1, 2]]
    assert report["group_spec"] is None
    assert report["fixed_two_torsion"] is None


def test_sq_enumerate_closed_form_hypothesis_exit(capsys):
    code, _, err = run(
        capsys, "sq", "enumerate", "--group", "cyclic:4", "--aut", "inv",
        "--closed-form",
    )
    assert code == 2
    assert "connected" in err


def test_sq_enumerate_closed_form_ok(capsys):
    code, out, _ = run(
        capsys, "sq", "enumerate", "--group", "cyclic:7", "--aut", "inv",
        "--closed-form",
    )
    assert code == 0
    assert json.loads(out)["good_involutions"] == [[0, 1, 2, 3, 4, 5, 6]]


def test_sq_classify_brute(capsys):
    report = run_json(
        capsys, "sq", "classify", "--group", "cyclic:4", "--aut", "inv"
    )
    assert report["sq_classes_bruteforce"] == 3
    assert report["sq_classes_theorem"] is None


def test_sq_classify_theorem_exit_code(capsys):
    code, _, _ = run(
        capsys, "sq", "classify", "--group", "cyclic:4", "--aut", "inv",
        "--theorem",
    )
    assert code == 2


def test_sq_crosscheck_agreement(capsys):
    report = run_json(
        capsys, "sq", "crosscheck", "--group", "cyclic:9", "--aut", "inv"
    )
    assert report["agreement"] is True
    assert report["sq_classes_bruteforce"] == 1
    assert report["sq_classes_theorem"] == 1


def test_sq_table_input_refuses_the_closed_form_routes(tmp_path, capsys):
    path = tmp_path / "r3.txt"
    write_table(path, symq.galex(
        symq.cyclic_group(3), symq.inversion_automorphism(symq.cyclic_group(3))
    ).op)
    for argv in (("enumerate", "--closed-form"), ("classify", "--theorem")):
        code, out, err = run(capsys, "sq", argv[0], "--table", str(path), argv[1])
        assert code == 1 and out == "", argv
        assert f"{argv[1]} needs --group/--aut input" in err, argv


def test_sq_crosscheck_disagreement_exits_three(capsys, monkeypatch):
    import symq.cli as cli
    from dataclasses import replace

    analyze = cli._analyze
    monkeypatch.setattr(
        cli, "_analyze",
        lambda *args, **kw: replace(analyze(*args, **kw), agreement=False),
    )
    code, out, err = run(
        capsys, "sq", "crosscheck", "--group", "cyclic:9", "--aut", "inv"
    )
    assert code == 3
    assert json.loads(out)["agreement"] is False
    assert err == "classification routes disagree\n"


def test_sq_crosscheck_alternating_spec(capsys):
    # the catalog names this group "alternating:4"; the CLI takes it back
    report = run_json(
        capsys, "sq", "crosscheck", "--group", "alternating:4",
        "--aut", "perm:0,2,1,3,5,4,9,10,11,6,7,8",
    )
    assert report["group_spec"] == "alternating:4"
    assert report["sq_classes_bruteforce"] == report["sq_classes_theorem"] == 2
    assert report["agreement"] is True


def test_sq_budget_bounds_whole_crosscheck(capsys):
    # the oracle, the partition and the theorem route's automorphism search
    # all charge one budget: N nodes bound their sum, not each of them
    from symq.budget import SearchBudget
    from symq.involutions import _analyze

    g = symq.alternating_group(4)
    phi = symq.validate_automorphism(g, [0, 2, 1, 3, 5, 4, 9, 10, 11, 6, 7, 8])
    q = symq.galex(g, phi)
    oracle_only = SearchBudget(10**9)
    _analyze(q, oracle_only, oracle=True, classify=True)
    whole = SearchBudget(10**9)
    _analyze(q, whole, oracle=True, theorem=True, classify=True)
    assert oracle_only.used < whole.used
    argv = ["sq", "crosscheck", "--group", "alternating:4",
            "--aut", "perm:0,2,1,3,5,4,9,10,11,6,7,8", "--budget"]
    report = run_json(capsys, *argv, str(whole.used))
    assert report["agreement"] is True
    code, _, err = run(capsys, *argv, str(whole.used - 1))
    assert code == 1
    assert "budget" in err
    with pytest.raises(symq.SearchBudgetExceeded):
        symq.cross_check_sq(g, phi, budget=whole.used - 1)


def test_sq_usage_errors(capsys):
    code, _, _ = run(capsys, "sq", "enumerate", "--group", "cyclic:3")
    assert code == 1
    code, _, _ = run(
        capsys, "sq", "enumerate", "--group", "cyclic:3", "--aut", "inv",
        "--table", "x.txt",
    )
    assert code == 1


def test_sq_budget_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SYMQ_BUDGET", "1")
    code, _, _ = run(
        capsys, "sq", "enumerate", "--group", "cyclic:4", "--aut", "inv",
        "--budget", "100000",
    )
    assert code == 0


def test_sq_env_budget_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SYMQ_BUDGET", "abc")
    code, out, err = run(
        capsys, "sq", "enumerate", "--group", "cyclic:4", "--aut", "inv"
    )
    assert code == 1 and out == ""
    assert err == "error: SYMQ_BUDGET is not an integer: 'abc'\n"


@pytest.mark.parametrize("argv, env, err", [
    (("catalog", "--max-order", "3", "--budget", "-1"), None,
     "error: node budget is negative: -1\n"),
    (("sq", "enumerate", "--group", "cyclic:3", "--aut", "inv", "--budget", "-1"),
     None, "error: node budget is negative: -1\n"),
    (("catalog", "--max-order", "3"), "-1", "error: SYMQ_BUDGET is negative: '-1'\n"),
    (("sq", "enumerate", "--group", "cyclic:3", "--aut", "inv"), "-1",
     "error: SYMQ_BUDGET is negative: '-1'\n"),
], ids=["catalog_flag", "sq_flag", "catalog_env", "sq_env"])
def test_negative_budget_is_refused(capsys, monkeypatch, argv, env, err):
    # a negative budget is an input error, not a budget hit or a budget note
    if env is None:
        monkeypatch.delenv("SYMQ_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SYMQ_BUDGET", env)
    assert run(capsys, *argv) == (1, "", err)


def test_sq_env_budget_applies(capsys, monkeypatch):
    monkeypatch.setenv("SYMQ_BUDGET", "1")
    code, _, err = run(
        capsys, "sq", "enumerate", "--group", "cyclic:4", "--aut", "inv"
    )
    assert code == 1
    assert "budget" in err


# -- catalog ---------------------------------------------------------------------------


def test_catalog_small_run(tmp_path, capsys):
    path = tmp_path / "cat.jsonl"
    code, _, err = run(
        capsys, "catalog", "--max-order", "4", "--out", str(path)
    )
    assert code == 0
    assert "0 agreement failures" in err
    lines = path.read_text().splitlines()
    reports = [json.loads(line) for line in lines]
    specs = {r["group_spec"] for r in reports}
    assert specs == {"cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4",
                     "product:cyclic:2,cyclic:2"}
    # one entry per automorphism: 1 + 1 + 2 + 2 + 6
    assert len(reports) == 12
    assert all(r["elapsed_ms"] is None for r in reports)


def test_catalog_includes_family_at_six(capsys):
    code, out, _ = run(capsys, "catalog", "--max-order", "6")
    assert code == 0
    specs = [json.loads(line)["group_spec"] for line in out.splitlines()]
    for expected in ("cyclic:5", "cyclic:6", "dihedral:3", "symmetric:3"):
        assert expected in specs


def test_catalog_determinism(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert run(capsys, "catalog", "--max-order", "5", "--out", str(a))[0] == 0
    assert run(capsys, "catalog", "--max-order", "5", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_catalog_extras_degrade_gracefully(capsys):
    # the two heavyweight extra groups join the family and their oversized
    # entries abort into notes instead of failing the sweep
    code, out, err = run(
        capsys, "catalog", "--max-order", "12", "--extras",
        "--budget", "20000",
    )
    assert code == 0
    specs = {json.loads(line)["group_spec"] for line in out.splitlines()}
    assert {"alternating:4", "symmetric:4"} <= specs
    assert "budget notes" in err


def test_catalog_above_build_cap_fails_before_building(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "catalog", "--max-order", "1025")
    assert time.monotonic() - start < 1
    assert code == 1 and out == ""
    assert err == "error: catalog max order 1025 is above the build cap of 1024\n"


@pytest.mark.parametrize("max_order", [0, -3])
def test_catalog_below_order_one_fails(capsys, max_order):
    code, out, err = run(capsys, "catalog", "--max-order", str(max_order))
    assert code == 1 and out == ""
    assert err == f"error: catalog max order {max_order} is below 1\n"


# -- torus ------------------------------------------------------------------------------


def test_torus_cli(capsys):
    report = run_json(capsys, "torus", "--n", "3")
    assert report["two_torsion_size"] == 8
    assert report["class_count"] == 2


def test_torus_degenerate_note(capsys):
    report = run_json(capsys, "torus", "--n", "1")
    assert report["class_count"] == 2
    assert report["notes"]


def test_torus_model_failure_is_exit_three(capsys, monkeypatch):
    import symq.cli as cli
    from symq.errors import ModelInconsistency

    def broken(n):
        raise ModelInconsistency("shear maps moved the zero vector")

    monkeypatch.setattr(cli, "torus_report_data", broken)
    code, out, err = run(capsys, "torus", "--n", "3")
    assert code == 3 and out == ""
    assert err == "internal consistency failure: shear maps moved the zero vector\n"


def test_torus_dimension_error(capsys):
    code, _, _ = run(capsys, "torus", "--n", "0")
    assert code == 1


# -- output plumbing ---------------------------------------------------------------------


def test_text_format(capsys):
    code, out, _ = run(
        capsys, "sq", "enumerate", "--group", "cyclic:4", "--aut", "inv",
        "--format", "text",
    )
    assert code == 0
    assert "fixed_two_torsion: [0, 2]" in out
    assert "\n  0 1 2 3\n" in out  # involutions printed one per line


def test_json_reports_round_trip():
    z3 = symq.cyclic_group(3)
    result = symq.cross_check_sq(z3, symq.inversion_automorphism(z3))
    report = _analysis_report(result, "cyclic:3", 7)
    assert report == {
        "tool_version": symq.__version__,
        "group_spec": "cyclic:3",
        "order": 3,
        "automorphism": [0, 2, 1],
        "is_kei": True,
        "kei_witness": None,
        "is_connected": True,
        "orbit_count": 1,
        "good_involutions": [[0, 1, 2]],
        "fixed_two_torsion": [0],
        "sq_classes_bruteforce": 1,
        "sq_classes_theorem": 1,
        "agreement": True,
        "notes": [],
        "elapsed_ms": 7,
    }
    emitted = to_json(report)
    assert to_json(json.loads(emitted)) == emitted


# the key list of the README's "Report fields"
REPORT_KEYS = {
    "tool_version", "group_spec", "order", "automorphism", "is_kei",
    "kei_witness", "is_connected", "orbit_count", "good_involutions",
    "fixed_two_torsion", "sq_classes_bruteforce", "sq_classes_theorem",
    "agreement", "notes", "elapsed_ms",
}


def test_every_quandle_report_has_the_fixed_keys(tmp_path, capsys):
    z3 = symq.cyclic_group(3)
    table = tmp_path / "r3.txt"
    write_table(table, symq.galex(z3, symq.inversion_automorphism(z3)).op)
    pair = ("--group", "cyclic:3", "--aut", "inv")
    commands = [
        ("sq", "enumerate", *pair),
        ("sq", "enumerate", *pair, "--closed-form"),
        ("sq", "enumerate", "--table", str(table)),
        ("sq", "classify", *pair),
        ("sq", "classify", *pair, "--theorem"),
        ("sq", "classify", "--table", str(table)),
        ("sq", "crosscheck", *pair),
        # the theorem route skipped with a note: C4 is not connected
        ("sq", "crosscheck", "--group", "cyclic:4", "--aut", "inv"),
        ("quandle", "check", "--table", str(table)),
    ]
    for argv in commands:
        assert set(run_json(capsys, *argv)) == REPORT_KEYS, argv
    code, out, _ = run(capsys, "catalog", "--max-order", "4")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports
    for report in reports:
        assert set(report) == REPORT_KEYS, report["group_spec"]


def test_catalog_stream_round_trips_byte_identical(capsys):
    for argv in [
        ("--max-order", "4"),
        # the five phi = id entries of order 8 share one involution list
        ("--max-order", "8"),
        # budget placeholders, whose good_involutions are null
        ("--max-order", "4", "--budget", "10"),
    ]:
        code, out, _ = run(capsys, "catalog", *argv)
        assert code == 0
        for line in out.splitlines():
            assert to_json(json.loads(line)) == line + "\n"


@pytest.mark.parametrize("fmt, render, sep", [("json", to_json, ""), ("text", to_text, "\n")])
def test_emit_reports_equals_one_report_at_a_time(fmt, render, sep):
    # emit_reports renders each involution list object once and splices it
    # into the first null slot of good_involutions in each report's
    # rendering; only these keys sort before it, and none holds a string
    assert sorted(REPORT_KEYS)[:5] == [
        "agreement", "automorphism", "elapsed_ms", "fixed_two_torsion",
        "good_involutions",
    ]
    real, _ = symq.run_catalog(3)
    shared = [[0, 1, 2], [0, 2, 1]]
    slots = '"good_involutions":null good_involutions: null'
    placeholders, _ = symq.run_catalog(4, budget=10)
    assert any(r["good_involutions"] is None for r in placeholders)
    streams = [
        [{**real[0], "good_involutions": shared}, {**real[1], "good_involutions": shared}],
        [{**real[0], "good_involutions": shared},
         {**real[1], "good_involutions": [list(row) for row in shared]}],
        placeholders,
        [{"order": 1}, {**real[2], "good_involutions": []}],
        [{**real[2], "group_spec": slots, "notes": slots.split(" ", 1),
          "good_involutions": shared}],
        [],
    ]
    for reports in streams:
        assert emit_reports(reports, fmt) == sep.join(render(r) for r in reports)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report({"a": 1}, "yaml")
    with pytest.raises(ValueError):  # also when there is nothing to render
        emit_reports([], "yaml")


def test_usage_error_is_exit_one(capsys):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "sq", "enumerate", "--group")[0] == 1


def test_exit_code_mapping_for_internal_failure(monkeypatch, capsys):
    import symq.cli as cli
    from symq.errors import InternalConsistencyError

    def boom(args):
        raise InternalConsistencyError("routes disagree")

    monkeypatch.setattr(cli, "cmd_torus", boom)
    assert cli.main(["torus", "--n", "1"]) == 3
    assert "internal consistency" in capsys.readouterr().err
