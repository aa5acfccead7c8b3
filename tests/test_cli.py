import hashlib
import json
import re
import time

import pytest

import symq
from symq.budget import SearchBudget
from symq.cli import main
from symq.involutions import _analyze
from symq.report import _analysis_report, emit_report, emit_reports, to_json, to_text

from reference import drop_last_of_largest, write_table


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
    # the cubic associativity check runs once per table, where the table is
    # made: in build_group for a file table, in the constructor for a
    # built-in one, and for a product in each factor's constructor and then
    # once on the product's table; the command adds no check of its own
    import symq.groups as groups
    import symq.specs as specs

    path = tmp_path / "z5.txt"
    write_table(path, symq.cyclic_group(5).product)
    calls = []

    def counting(table):
        calls.append(len(table))
        return symq.validate_group(table)

    monkeypatch.setattr(groups, "validate_group", counting)
    monkeypatch.setattr(specs, "validate_group", counting)
    report = run_json(capsys, "group", "check", "--group", f"file:{path}")
    assert report["order"] == 5 and calls == [5]
    calls.clear()
    report = run_json(capsys, "group", "check", "--group", "dihedral:3")
    assert report["order"] == 6 and calls == [6]
    calls.clear()
    report = run_json(capsys, "group", "check", "--group", "product:cyclic:2,dihedral:3")
    assert report["order"] == 12 and calls == [2, 6, 12]


def test_group_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "group", "build", "--group", "cyclic:-1")
    assert code == 1
    assert "offset" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cyclic:0", "cyclic group needs order >= 1, got 0"),
        ("symmetric:0", "symmetric group needs k >= 1, got 0"),
        ("alternating:2", "alternating group needs k >= 3, got 2"),
    ],
)
def test_group_build_refuses_what_the_constructor_refuses(capsys, spec, message):
    code, out, err = run(capsys, "group", "build", "--group", spec)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


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


def test_sq_table_input_excludes_group_and_aut(tmp_path, capsys):
    path = tmp_path / "r3.txt"
    write_table(path, symq.galex(
        symq.cyclic_group(3), symq.inversion_automorphism(symq.cyclic_group(3))
    ).op)
    for command in ("enumerate", "classify"):
        for flags in (
            ("--group", "cyclic:3"), ("--aut", "inv"), ("--group", "cyclic:3", "--aut", "inv"),
        ):
            code, out, err = run(capsys, "sq", command, "--table", str(path), *flags)
            assert (code, out, err) == (1, "", "error: --table excludes --group/--aut\n"), flags


def test_sq_inv_on_a_nonabelian_group_prints_the_constructor_refusal(capsys):
    code, out, err = run(capsys, "sq", "crosscheck", "--group", "quaternion", "--aut", "inv")
    assert (code, out) == (1, "")
    assert err == "error: inversion is not multiplicative on a nonabelian group\n"


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


def test_sq_crosscheck_exits_three_on_a_short_theorem_class(capsys, monkeypatch):
    # the real comparison, not a patched result: the largest centralizer
    # orbit loses its last member, so one good involution is no translation
    from symq import involutions

    theorem_classes = involutions._theorem_classes
    monkeypatch.setattr(
        involutions, "_theorem_classes",
        lambda *args: drop_last_of_largest(theorem_classes(*args)),
    )
    code, out, err = run(
        capsys, "sq", "crosscheck", "--group", "alternating:5", "--aut", "conj:3"
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
    # the oracle, the partition and the theorem route's witness searches
    # all charge one budget: N nodes bound their sum, not each of them.  A5's
    # conj:3 twist has four fixed self-inverse elements, so its route searches
    from symq.budget import SearchBudget
    from symq.involutions import _analyze

    g = symq.alternating_group(5)
    phi = symq.parse_aut_spec("conj:3", g)
    q = symq.galex(g, phi)
    oracle_only = SearchBudget(10**9)
    _analyze(q, oracle_only, oracle=True, classify=True)
    whole = SearchBudget(10**9)
    _analyze(q, whole, oracle=True, theorem=True, classify=True)
    assert oracle_only.used < whole.used
    argv = [
        "sq", "crosscheck", "--group", "alternating:5", "--aut", "conj:3", "--budget"
    ]
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


@pytest.mark.parametrize("argv, err", [
    (("catalog", "--max-order", "3", "--budget", "-1"),
     "error: node budget is negative: -1\n"),
    (("sq", "enumerate", "--group", "cyclic:3", "--aut", "inv", "--budget", "-1"),
     "error: node budget is negative: -1\n"),
], ids=["catalog_flag", "sq_flag"])
def test_negative_budget_is_refused(capsys, argv, err):
    # a negative budget is an input error, not a budget hit or a budget note
    assert run(capsys, *argv) == (1, "", err)


@pytest.mark.parametrize("env", ["1", "abc", "-1"])
@pytest.mark.parametrize("argv", [
    ("sq", "enumerate", "--group", "cyclic:4", "--aut", "inv"),
    ("catalog", "--max-order", "3"),
], ids=["sq", "catalog"])
def test_budget_environment_variable_is_ignored(capsys, monkeypatch, argv, env):
    # a budget comes from --budget alone: an exported SYMQ_BUDGET, a number
    # or not, changes no exit code and no byte of either stream
    monkeypatch.delenv("SYMQ_BUDGET", raising=False)
    want = run(capsys, *argv)
    monkeypatch.setenv("SYMQ_BUDGET", env)
    assert want[0] == 0 and run(capsys, *argv) == want


# -- catalog ---------------------------------------------------------------------------


def test_catalog_counts_agreement_failures_and_exits_three(capsys, monkeypatch):
    # the theorem route loses a class member on every hypothesis-met entry:
    # each is counted as a failure, and `catalog` exits 3
    from symq import involutions

    theorem_classes = involutions._theorem_classes
    monkeypatch.setattr(
        involutions, "_theorem_classes",
        lambda *args: drop_last_of_largest(theorem_classes(*args)),
    )
    code, out, err = run(capsys, "catalog", "--max-order", "5")
    assert code == 3
    agreements = [json.loads(line)["agreement"] for line in out.splitlines()]
    assert agreements.count(False) == 3 and agreements.count(True) == 0
    assert err == (
        "catalog: 16 entries, 3 hypothesis-met, 3 agreement failures, 0 budget notes\n"
    )


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


def analysis_commands(tmp_path):
    """Every analysis subcommand on every input kind and route switch, each
    argv reporting one quandle; the table is R3's, written under tmp_path."""
    z3 = symq.cyclic_group(3)
    table = tmp_path / "r3.txt"
    write_table(table, symq.galex(z3, symq.inversion_automorphism(z3)).op)
    pair = ("--group", "cyclic:3", "--aut", "inv")
    return [
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


def test_every_quandle_report_has_the_fixed_keys(tmp_path, capsys):
    for argv in analysis_commands(tmp_path):
        assert set(run_json(capsys, *argv)) == REPORT_KEYS, argv
    code, out, _ = run(capsys, "catalog", "--max-order", "4")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert reports
    for report in reports:
        assert set(report) == REPORT_KEYS, report["group_spec"]


# sha256 over the exit code, stdout and stderr of every argv of
# test_analysis_commands_keep_their_bytes, elapsed_ms read as 0
ANALYSIS_COMMANDS_DIGEST = "3d9883c92e66803cb5a2991234de5257d6f3ea18be10ab8d18f9620b84de4e17"


def test_analysis_commands_keep_their_bytes(tmp_path, capsys):
    # every analysis report in both formats, among them the closed form's
    # note, and each refusal of the analysis subcommands: the input checks,
    # the route switches on table input (exit 1), the closed form on a
    # disconnected kei (exit 2) and a budget hit (exit 1)
    commands = analysis_commands(tmp_path)
    table = commands[2][-1]
    refusals = [
        ("sq", "enumerate", "--table", table, "--closed-form"),
        ("sq", "classify", "--table", table, "--theorem"),
        ("sq", "enumerate", "--group", "cyclic:4", "--aut", "inv", "--closed-form"),
        ("sq", "enumerate", "--table", table, "--group", "cyclic:3"),
        ("sq", "classify", "--table", table, "--aut", "inv"),
        ("sq", "enumerate", "--group", "cyclic:3"),
        ("sq", "classify", "--group", "cyclic:3"),
        ("sq", "crosscheck", "--group", "cyclic:3"),
        ("sq", "crosscheck", "--group", "alternating:5", "--aut", "id", "--budget", "1000"),
    ]
    digest = hashlib.sha256()
    for argv in [(*argv, "--format", fmt) for argv in commands for fmt in ("json", "text")] + refusals:
        code, out, err = run(capsys, *argv)
        out = re.sub(r'(elapsed_ms"?: ?)[0-9]+', r"\g<1>0", out)
        digest.update(f"{argv[:2]} {code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == ANALYSIS_COMMANDS_DIGEST


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


@pytest.fixture(scope="module")
def trivial_table_reports():
    """The oracle's reports on the trivial tables of orders 1, 2, 10, 11 and
    12, analysed once for both formats of the test below."""
    analysed = []
    for n in (1, 2, 10, 11, 12):
        g = symq.cyclic_group(n)
        q = symq.galex(g, symq.identity_automorphism(g))
        result = _analyze(q, SearchBudget(None), oracle=True)
        analysed.append(_analysis_report(result, f"cyclic:{n}", None))
    return analysed


@pytest.mark.parametrize("fmt, render, sep", [("json", to_json, ""), ("text", to_text, "\n")])
def test_emit_reports_equals_one_report_at_a_time(fmt, render, sep, trivial_table_reports):
    # emit_reports renders each involution list object once and splices it
    # into the first null slot of good_involutions in each report's
    # rendering; only these keys sort before it, and none holds a string.
    # The lists of analysis reports, whose rows permute range(order), are
    # rendered from a digit table (orders 10 to 12 have two-digit entries);
    # any other list, one a caller built, goes through json.dumps, so a bool
    # stays `true` and a string keeps its quotes
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
    analysed = trivial_table_reports
    assert [len(r["good_involutions"]) for r in analysed] == [1, 2, 9496, 35696, 140152]
    built = [
        [[True, False], [False, True]],
        [[-1, 0], [0, -2]],
        [[0.5, 1.0], [1.0, 0.0]],
        [["0", "1"], ["a", "b"]],
        [[0, 1, 2], [1, 0]],
        [[0], [0]],
        [[], []],
    ]
    plain = [{**analysed[1], "good_involutions": rows} for rows in built]
    streams += [analysed, [plain[0], analysed[1], plain[0]], plain]
    for reports in streams:
        assert emit_reports(reports, fmt) == sep.join(render(r) for r in reports)


def test_unknown_format_rejected(capsys):
    with pytest.raises(ValueError):
        emit_report({"a": 1}, "yaml")
    # also when there is nothing to render
    with pytest.raises(ValueError, match=r"^unknown format 'xml'$"):
        emit_reports([], "xml")
    # the CLI's choices are the report module's formats
    assert run(capsys, "catalog", "--max-order", "1", "--format", "xml") == (
        1, "", "error: argument --format: invalid choice: 'xml' (choose from 'json', 'text')\n",
    )


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
