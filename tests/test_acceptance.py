"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavy shared computation is the full sweep at max order 12 (every
family group with every automorphism, both classification routes); it runs
once as a session fixture and most criteria read from it.
"""

import hashlib
import json
import time

import pytest

import symq
from symq.cli import main
from symq.perms import compose
from symq.tableio import read_table, write_table

from reference import enumerate_good_involutions_by_filter


def announce(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {description}")


@pytest.fixture(scope="session")
def sweep12():
    """Cross-checked classification for every catalog entry at max order 12."""
    start = time.monotonic()
    entries = symq.catalog_entries(12)
    results = []
    for entry in entries:
        q = symq.galex(entry.group, entry.aut)
        results.append(
            {
                "entry": entry,
                "quandle": q,
                "kei": symq.is_kei(q),
                "connected": symq.is_connected(q),
                "result": symq.cross_check_sq(entry.group, entry.aut),
            }
        )
    elapsed = time.monotonic() - start
    return {"results": results, "elapsed_s": elapsed}


def connected_kei_entries(sweep):
    return [r for r in sweep["results"] if r["kei"] and r["connected"]]


def test_criterion_1_r4_regression(capsys):
    start = time.monotonic()
    code = main(["sq", "enumerate", "--group", "cyclic:4", "--aut", "inv"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert len(report["good_involutions"]) == 4
    assert report["fixed_two_torsion"] == [0, 2]
    assert elapsed < 1.0
    with capsys.disabled():
        announce(1, f"R4: 4 good involutions vs fixed set of 2, {elapsed:.3f}s")


def test_criterion_2_existence_iff_kei(sweep12):
    counterexamples = [
        r["entry"].label
        for r in sweep12["results"]
        if (len(r["result"].good_involutions) > 0) != r["kei"]
    ]
    assert counterexamples == []
    assert sweep12["elapsed_s"] < 300.0
    announce(
        2,
        f"existence matches kei on all {len(sweep12['results'])} entries "
        f"({sweep12['elapsed_s']:.1f}s sweep)",
    )


def test_criterion_3_closed_form_matches_oracle(sweep12):
    checked = 0
    for r in connected_kei_entries(sweep12):
        entry = r["entry"]
        fixed = symq.fixed_two_torsion(entry.group, entry.aut)
        translations = sorted(
            symq.rho_r(entry.group, entry.aut, t) for t in fixed
        )
        assert list(r["result"].good_involutions) == translations, entry.label
        checked += 1
    assert checked > 0
    announce(3, f"oracle equals translation set on {checked} connected keis")


def test_criterion_4_orbit_classes_match_bruteforce(sweep12):
    checked = 0
    for r in connected_kei_entries(sweep12):
        entry = r["entry"]
        result = r["result"]
        assert result.classes_theorem is not None, entry.label
        assert result.theorem_count == result.bruteforce_count, entry.label
        # independent correspondence check: translations from one orbit land
        # in one brute-force class, distinct orbits in distinct classes
        rho_index = {p: i for i, p in enumerate(result.good_involutions)}
        member_class = {}
        for label, members in enumerate(result.classes_bruteforce):
            for i in members:
                member_class[i] = label
        seen = set()
        for cls in result.classes_theorem:
            labels = {
                member_class[rho_index[symq.rho_r(entry.group, entry.aut, t)]]
                for t in cls
            }
            assert len(labels) == 1, entry.label
            label = labels.pop()
            assert label not in seen, entry.label
            seen.add(label)
        assert result.agreement is True, entry.label
        checked += 1
    announce(4, f"class correspondence holds on {checked} connected keis")


def test_criterion_5_non_kei_entries_are_empty(sweep12):
    checked = 0
    for r in sweep12["results"]:
        if r["kei"]:
            continue
        assert r["result"].good_involutions == (), r["entry"].label
        assert r["result"].classes_bruteforce == (), r["entry"].label
        checked += 1
    assert checked > 0
    announce(5, f"all {checked} non-kei entries report zero involutions")


def test_criterion_6_torus_model(capsys):
    start = time.monotonic()
    for k in range(1, 11):
        code = main(["torus", "--n", str(k)])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["two_torsion_size"] == 2**k
        assert report["class_count"] == 2
        assert report["orbit_check_passed"] is True
        if k >= 2:
            e1 = symq.BitVector(k, 1 << (k - 1))
            orbit = {v.bits for v in symq.transvection_orbit(k, e1)}
            assert orbit == set(range(1, 2**k))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    with capsys.disabled():
        announce(6, f"torus sizes 2^k and class count 2 for k=1..10, {elapsed:.3f}s")


def test_criterion_7_oracle_self_test(sweep12, tmp_path):
    corpus = []
    seen = set()
    for r in sweep12["results"]:
        q = r["quandle"]
        if q.order <= 8 and q.op not in seen:
            seen.add(q.op)
            corpus.append(q)
    # non-galex members: trivial tables and a file-loaded dihedral-type table
    for n in (1, 2, 3, 5):
        corpus.append(symq.validate_quandle([[x] * n for x in range(n)]))
    path = tmp_path / "r5.txt"
    write_table(path, [[(-x + 2 * y) % 5 for y in range(5)] for x in range(5)])
    corpus.append(symq.validate_quandle(read_table(path)))
    checked = 0
    for q in corpus:
        fast = [g.rho for g in symq.enumerate_good_involutions(q)]
        plain = [g.rho for g in enumerate_good_involutions_by_filter(q)]
        assert fast == plain
        checked += 1
    announce(7, f"search enumerator equals plain filter on {checked} quandles")


def test_criterion_8_normalization_roundtrip(sweep12):
    checked_entries = 0
    checked_maps = 0
    for r in sweep12["results"]:
        if not r["connected"]:
            continue
        entry = r["entry"]
        q = r["quandle"]
        phi = entry.aut
        autos = symq.quandle_automorphisms(q)
        for f in autos:
            sharp = symq.f_sharp(q, f)  # validates and checks commuting
            assert compose(sharp.perm, phi.perm) == compose(phi.perm, sharp.perm)
            rebuilt = symq.affine_automorphism(
                q, sharp, f.perm[entry.group.identity]
            )
            assert rebuilt.perm == f.perm, entry.label
            checked_maps += 1
        checked_entries += 1
    assert checked_entries > 0
    announce(
        8,
        f"normalization reconstructs all {checked_maps} automorphisms "
        f"across {checked_entries} connected entries",
    )


def test_criterion_9_trace_identity(sweep12):
    checked = 0
    for r in sweep12["results"]:
        entry = r["entry"]
        group = entry.group
        p, ginv, f = group.product, group.inverse, entry.aut.perm
        order = group.order
        for rho in r["result"].good_involutions:
            for x in range(order):
                rx = rho[x]
                assert p[f[ginv[rx]]][rx] == p[f[ginv[x]]][x], entry.label
            checked += 1
    announce(9, f"trace identity holds for all {checked} found involutions")


# The report stream of `catalog --max-order 12` for symq 0.1.0, the same
# digest the benchmark pins; a version bump or a change to a report re-pins it.
CATALOG12_SHA256 = "03b12598194d49b17e0295417de28b42daa24bc81529259d71e6facdf66479cf"
CATALOG12_SUMMARY = (
    "catalog: 364 entries, 7 hypothesis-met, 0 agreement failures, 0 budget notes\n"
)


def test_criterion_10_catalog_determinism(tmp_path, capsys):
    a = tmp_path / "run_a.jsonl"
    b = tmp_path / "run_b.jsonl"
    assert main(["catalog", "--max-order", "12", "--out", str(a)]) == 0
    assert main(["catalog", "--max-order", "12", "--out", str(b)]) == 0
    err = capsys.readouterr().err
    assert err == CATALOG12_SUMMARY * 2
    bytes_a = a.read_bytes()
    assert bytes_a == b.read_bytes()
    assert hashlib.sha256(bytes_a).hexdigest() == CATALOG12_SHA256
    with capsys.disabled():
        announce(10, f"two full catalog runs byte-identical ({len(bytes_a)} bytes)")
