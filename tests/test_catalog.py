import pytest

import symq
from symq.catalog import entry_report


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


def test_entry_count_max_order_four():
    # 1 + 1 + 2 + (2 + 6) automorphisms
    assert len(symq.catalog_entries(4)) == 12


def test_entry_report_budget_note_never_raises(z4):
    inv = symq.inversion_automorphism(z4)
    entry = symq.CatalogEntry(label="cyclic:4", group=z4, aut=inv)
    report = entry_report(entry, budget=1)
    assert report["good_involutions"] is None
    assert any("aborted" in n for n in report["notes"])


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


@pytest.mark.parametrize("max_order, budget", [(9, None), (8, 6_341), (8, 6_340)])
def test_run_catalog_reuse_changes_nothing(max_order, budget):
    # entries with equal tables share one oracle run and one partition, yet
    # each report equals a fresh analysis of that entry alone.  The five
    # phi = id entries of order 8 share the trivial table, whose oracle and
    # partition spend exactly 6,341 nodes: they all fit, or none does.
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
        assert trivial == [budget == 6_341] * 5


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
