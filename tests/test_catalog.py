import hashlib

import pytest

import symq
from symq.budget import DEFAULT_SEARCH_BUDGET, SearchBudget

from reference import entry_report


def test_invariant_chains_small_orders():
    assert symq.abelian_invariant_chains(1) == [()]
    assert symq.abelian_invariant_chains(4) == [(2, 2), (4,)]
    assert symq.abelian_invariant_chains(8) == [(2, 2, 2), (2, 4), (8,)]
    assert symq.abelian_invariant_chains(12) == [(2, 6), (12,)]
    # chains respect divisibility: (3, 4) is not a valid chain for 12
    assert (3, 4) not in symq.abelian_invariant_chains(12)


def test_family_labels_order_12():
    labels = [label for label, _ in symq.catalog_family(12)]
    assert labels.count("cyclic:12") == 1
    assert "product:cyclic:2,cyclic:6" in labels
    assert "dihedral:6" in labels
    assert "quaternion" in labels
    assert "symmetric:3" in labels
    assert "alternating:4" not in labels  # extras only
    assert "dihedral:1" not in labels and "dihedral:2" not in labels


def test_family_extras():
    labels = [label for label, _ in symq.catalog_family(12, include_extras=True)]
    assert "alternating:4" in labels
    assert "symmetric:4" in labels


def test_family_labels_round_trip_through_specs():
    # every label a report carries as its group_spec names the same table
    for label, group in symq.catalog_family(12, include_extras=True):
        assert symq.build_group(label).product == group.product, label


def test_family_is_sorted_by_order():
    orders = [g.order for _, g in symq.catalog_family(10)]
    assert orders == sorted(orders)
    # the extras too, once the family passes symmetric:4's order 24
    orders = [g.order for _, g in symq.catalog_family(26, include_extras=True)]
    assert orders == sorted(orders)


@pytest.mark.parametrize("max_order", [True, 3.0])
def test_family_refuses_a_max_order_that_is_not_an_int(max_order):
    # True would otherwise list the order-1 family
    refusal = f"^catalog max order {max_order!r} is not an integer$"
    with pytest.raises(symq.errors.UnsupportedOrder, match=refusal):
        symq.catalog_family(max_order)


def test_entry_count_max_order_four():
    # 1 + 1 + 2 + (2 + 6) automorphisms
    assert len(symq.catalog_entries(4)) == 12


def test_entry_report_budget_note_never_raises(z4):
    inv = symq.inversion_automorphism(z4)
    entry = symq.CatalogEntry(label="cyclic:4", group=z4, aut=inv)
    report = entry_report(entry, budget=1)
    assert report["good_involutions"] is None
    assert any("aborted" in n for n in report["notes"])


def test_entry_budget_outcome_at_the_trivial_order_8_pin():
    # the partition of the order-8 trivial table, oracle included, spends
    # 3,023 nodes, and the theorem route is skipped on a disconnected kei;
    # one node fewer gives outcome "budget", no route fields and the search's
    # own message, whether the nodes are spent afresh or charged on a reuse hit
    from symq.catalog import _entry_analysis

    g = symq.cyclic_group(8)
    entry = symq.CatalogEntry("cyclic:8", g, symq.identity_automorphism(g))
    reuse = {}
    full = _entry_analysis(entry, 3_023, reuse)
    assert full.outcome == "ok" and full.bruteforce_count == 5
    assert list(reuse) == [symq.galex(g, entry.aut).op]
    for table in (reuse, {}):
        short = _entry_analysis(entry, 3_022, table)
        assert short.outcome == "budget" and short.good_involutions is None
        assert short.classes_bruteforce is short.classes_theorem is None
        assert short.notes == (
            "cross-check aborted: search exceeded the node budget of 3022; "
            "raise it via --budget",
        )
        # the facts that need no search are those of the full analysis
        assert (short.kei_witness, short.orbit_count, short.fixed_two_torsion) == (
            full.kei_witness, full.orbit_count, full.fixed_two_torsion
        )
    report = entry_report(entry, 3_022)
    assert report["good_involutions"] is None and report["orbit_count"] == 8


def test_run_catalog_summary_counts():
    reports, summary = symq.run_catalog(6)
    assert summary["entries"] == len(reports) == 30
    assert summary["agreement_failures"] == 0
    assert summary["budget_notes"] == 0
    met = [r for r in reports if r["agreement"] is not None]
    assert len(met) == summary["hypothesis_met"]
    assert all(r["agreement"] for r in met)


def test_run_catalog_budget_notes_recorded():
    # a tiny budget cannot abort the sweep: every group still yields at least
    # a placeholder report with a budget note
    reports, summary = symq.run_catalog(4, budget=10)
    assert summary["budget_notes"] > 0
    labels = {r["group_spec"] for r in reports}
    assert labels == {"cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4",
                      "product:cyclic:2,cyclic:2"}


def test_run_catalog_counts_budget_placeholders():
    # under a one-node budget every group of order 2 to 4 runs out while
    # listing its automorphisms and gets one placeholder report whose is_kei
    # is null; the trivial group's one automorphism is listed, and its
    # analysis, one oracle node and no theorem search (its only fixed
    # self-inverse element is e), finishes
    reports, summary = symq.run_catalog(4, budget=1)
    assert [(r["group_spec"], r["is_kei"]) for r in reports] == [
        ("cyclic:1", True),
        ("cyclic:2", None),
        ("cyclic:3", None),
        ("product:cyclic:2,cyclic:2", None),
        ("cyclic:4", None),
    ]
    assert [r["good_involutions"] for r in reports] == [[[0]]] + [None] * 4
    assert reports[0]["notes"] == []
    assert [r["notes"][0].split(":")[0] for r in reports[1:]] == (
        ["automorphism enumeration aborted"] * 4
    )
    assert len(symq.emit_reports(reports, "json").splitlines()) == 5
    assert summary == {
        "entries": 5, "hypothesis_met": 1, "agreement_failures": 0, "budget_notes": 4
    }
    # two nodes list C2's one automorphism, and its analysis runs out instead
    reports, summary = symq.run_catalog(4, budget=2)
    assert [(r["group_spec"], r["is_kei"]) for r in reports[:2]] == [
        ("cyclic:1", True), ("cyclic:2", True)
    ]
    assert reports[1]["good_involutions"] is None
    assert [r["notes"][0].split(":")[0] for r in reports[1:]] == (
        ["cross-check aborted"] + ["automorphism enumeration aborted"] * 3
    )
    assert summary["budget_notes"] == 4


def test_budget_environment_variable_is_ignored(monkeypatch):
    # a budget comes from `budget=` or --budget alone: an exported
    # SYMQ_BUDGET=1 leaves the default, and the sweep takes no budget note
    monkeypatch.setenv("SYMQ_BUDGET", "1")
    assert SearchBudget().limit == DEFAULT_SEARCH_BUDGET
    reports, summary = symq.run_catalog(4)
    assert summary == {
        "entries": 12, "hypothesis_met": 2, "agreement_failures": 0, "budget_notes": 0
    }
    assert all(r["good_involutions"] is not None for r in reports)


@pytest.mark.parametrize("max_order, budget", [(9, None), (8, 3_023), (8, 3_022)])
def test_run_catalog_reuse_changes_nothing(max_order, budget):
    # entries with equal tables share one oracle run and one partition, yet
    # each report equals a fresh analysis of that entry alone.  The five
    # phi = id entries of order 8 share the trivial table, whose oracle and
    # partition spend exactly 3,023 nodes: they all fit, or none does.
    reports, _ = symq.run_catalog(max_order, budget=budget)
    entries = symq.catalog_entries(max_order, budget=budget)
    assert reports == [entry_report(e, budget) for e in entries]
    trivial = [
        report["good_involutions"] is not None
        for e, report in zip(entries, reports)
        if e.group.order == 8 and e.aut.is_identity()
    ]
    assert len(trivial) == 5
    if budget is not None:
        assert trivial == [budget == 3_023] * 5


def test_run_catalog_reports_share_equal_involution_lists():
    # the five phi = id entries of order 8 share the trivial table, so their
    # reports hold one list object rather than five equal copies
    reports, _ = symq.run_catalog(8)
    entries = symq.catalog_entries(8)
    trivial = [
        report["good_involutions"]
        for e, report in zip(entries, reports)
        if e.group.order == 8 and e.aut.is_identity()
    ]
    assert len(trivial) == 5 and len(trivial[0]) == 764
    assert all(rhos is trivial[0] for rhos in trivial)


@pytest.mark.parametrize("fmt, size, digest", [
    ("json", 318_709, "5464c9f678b60fc23c49769a0cdbc546bef2913e2b0d995aed6c2e4cfaac559a"),
    ("text", 316_320, "b6dac814ba266dc8c8cd09f5309d2ec52d9c802ad53977b9c4cad9522bf2cfd5"),
])
def test_catalog_stream_digest_order_9(fmt, size, digest):
    # pinned from the rendering of one report at a time; the five phi = id
    # entries of order 8 share one list of 764 involutions, rendered once
    reports, _ = symq.run_catalog(9)
    stream = symq.emit_reports(reports, fmt).encode("ascii")
    assert len(stream) == size
    assert hashlib.sha256(stream).hexdigest() == digest


@pytest.mark.parametrize("fmt, size, digest", [
    ("json", 1_641_703, "36c8d7b81443274f2105f3c3b583fd6fdf2900f9d7fbb8128849a5e82ba4d927"),
    ("text", 1_639_124, "5f0f3477a038d8dbbbaacd4e2df3e687b1a76ed141d437ac17d3df5c1012863f"),
])
def test_catalog_stream_digest_order_11(fmt, size, digest):
    # pinned from json.dumps and str() of each element; order 10 is the
    # first whose rows hold a two-digit element
    reports, _ = symq.run_catalog(11)
    stream = symq.emit_reports(reports, fmt).encode("ascii")
    assert len(stream) == size
    assert hashlib.sha256(stream).hexdigest() == digest


def test_catalog_stream_digest_order_12_under_a_small_budget():
    # a 5,000-node budget leaves 8 entries with a budget note, the phi = id
    # entries of orders 9 to 12, whose trivial tables have the most involutions
    reports, summary = symq.run_catalog(12, budget=5_000)
    assert summary == {
        "entries": 364,
        "hypothesis_met": 7,
        "agreement_failures": 0,
        "budget_notes": 8,
    }
    stream = symq.emit_reports(reports, "json").encode("ascii")
    assert hashlib.sha256(stream).hexdigest() == (
        "47c0f05339a1b6196cabaae3c64133e1fb3cebde3e16d18772f8f559f684cb20"
    )
