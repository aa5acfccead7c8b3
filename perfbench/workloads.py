"""The benchmark's workloads: inputs, the timed pass, output checks, traced replay.

Each workload is a closed loop with one caller that uses the `symq` library
in-process, through names the package exports.  A workload offers:

- `setup(seed)`: build the inputs (the part `setup_s` measures);
- `run_pass(state, probe)`: the timed pass, returning its outputs and the
  `hostspeed.Span` of every request in it (one request is what one CLI call
  would do), each cut out of the pass by `probe`;
- `check(state, output)`: `(attempted, failed)` requests of that pass;
- `replay(state, output, tracer)`: re-run each request through the layer
  functions inside tracer spans, and compare with the timed pass's outputs,
  returning `(attempted, failed)` like `check`.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from contextlib import contextmanager
from typing import NamedTuple

import symq

# Pinned from `emit_reports(run_catalog(12)[0])` of symq 0.1.0: a version bump
# or any change to a report re-pins it.
CATALOG12_SHA256 = "03b12598194d49b17e0295417de28b42daa24bc81529259d71e6facdf66479cf"
CATALOG12_SUMMARY = {
    "entries": 364,
    "hypothesis_met": 7,
    "agreement_failures": 0,
    "budget_notes": 0,
}
CATALOG12_INVOLUTIONS = 488_119

# (good involutions, isomorphism classes) of each connected-kei entry, in the
# order A4 then A5, automorphisms in `enumerate_automorphisms` order.
CONNECTED_KEI_PAIRS = (
    [(2, 2)] * 6
    + [(4, 2)] * 4
    + [(4, 3)] * 3
    + [(4, 2), (4, 3), (4, 3), (4, 2), (4, 2)]
    + [(4, 3)] * 5
    + [(4, 2), (4, 3), (4, 3), (4, 3), (4, 2), (4, 3), (4, 2), (4, 3)]
)

TORUS_DIMENSIONS = range(1, 17)


class Span(NamedTuple):
    request: int  # index of the request in its pass; -1 for a whole pass
    name: str
    start: float
    end: float


class Tracer:
    """Spans around library calls, kept in memory, plus counts by name.

    `duration(start, end)` gives a span's time in seconds.
    """

    def __init__(self, duration) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.duration = duration

    @contextmanager
    def span(self, request: int, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(Span(request, name, start, time.perf_counter()))

    def total(self, name: str) -> float:
        return sum(self.duration(s.start, s.end) for s in self.spans if s.name == name)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer busy time and work counts, as (value, unit).

        The partition runs inside `classify_sq_bruteforce` after the oracle,
        and the theorem route calls `centralizer_in_aut`, so each is that
        call's time minus its paired call on the same input.
        """
        t, n = self.total, self.counts
        return {
            "groups.aut_s": (t("enumerate_automorphisms") + t("centralizer_in_aut"), "s"),
            "groups.auts": (n["auts"], "count"),
            "quandles.galex_s": (t("galex"), "s"),
            "quandles.props_s": (t("kei_witness") + t("inner_orbits"), "s"),
            "involutions.oracle_s": (t("enumerate_good_involutions"), "s"),
            "involutions.rhos": (n["rhos"], "count"),
            "involutions.partition_s": (
                t("classify_sq_bruteforce") - t("enumerate_good_involutions"), "s"
            ),
            "involutions.classes": (n["classes"], "count"),
            "involutions.theorem_s": (
                t("classify_sq_theorem") - t("centralizer_in_aut"), "s"
            ),
            "report.serialize_s": (t("emit_reports"), "s"),
            "report.bytes": (n["bytes"], "bytes"),
            "torus.bfs_s": (t("torus_sq_class_count") + t("transvection_orbit"), "s"),
            "torus.vectors": (n["vectors"], "count"),
        }


def _replay_quandle(tracer: Tracer, request: int, group, aut):
    """One (group, automorphism) pair through every quandle and involution layer.

    The theorem route runs only on connected keis, as in `cross_check_sq`.
    """
    with tracer.span(request, "galex"):
        q = symq.galex(group, aut)
    with tracer.span(request, "kei_witness"):
        witness = symq.kei_witness(q)
    with tracer.span(request, "inner_orbits"):
        orbits = symq.inner_orbits(q)
    with tracer.span(request, "enumerate_good_involutions"):
        rhos = [g.rho for g in symq.enumerate_good_involutions(q)]
    with tracer.span(request, "classify_sq_bruteforce"):
        brute = symq.classify_sq_bruteforce(q)
    tracer.counts["rhos"] += len(rhos)
    tracer.counts["classes"] += brute.bruteforce_count
    theorem_count = None
    if witness is None and orbits.count == 1:
        with tracer.span(request, "centralizer_in_aut"):
            centralizer = symq.centralizer_in_aut(group, aut)
        with tracer.span(request, "classify_sq_theorem"):
            theorem_count = symq.classify_sq_theorem(group, aut).theorem_count
        tracer.counts["auts"] += len(centralizer)
    ok = list(brute.good_involutions) == rhos
    return witness, orbits.count, rhos, brute.bruteforce_count, theorem_count, ok


class Catalog12:
    """`run_catalog(12)` then `emit_reports`: the paper's default sweep."""

    def setup(self, seed: int) -> list:
        # The family is fixed by the paper; the seed is recorded and ignored.
        return symq.catalog_entries(12)

    def run_pass(self, entries, probe):
        mark = probe.mark()
        reports, summary = symq.run_catalog(12)
        stream = symq.emit_reports(reports)
        return (reports, summary, stream), [probe.span(mark)]

    def check(self, entries, output) -> tuple[int, int]:
        reports, summary, stream = output
        ok = (
            len(entries) == CATALOG12_SUMMARY["entries"]
            and summary == CATALOG12_SUMMARY
            and sum(len(r["good_involutions"]) for r in reports) == CATALOG12_INVOLUTIONS
            and hashlib.sha256(stream.encode("ascii")).hexdigest() == CATALOG12_SHA256
        )
        return 1, 0 if ok else 1

    def replay(self, entries, output, tracer: Tracer) -> tuple[int, int]:
        reports, _, stream = output
        groups = {}
        for entry in entries:
            groups.setdefault(entry.label, entry.group)
        auts = []
        for label, group in groups.items():
            with tracer.span(-1, "enumerate_automorphisms"):
                found = symq.enumerate_automorphisms(group)
            tracer.counts["auts"] += len(found)
            auts.extend((label, a) for a in found)
        failed = len(reports) != len(entries)
        for request, (entry, report) in enumerate(zip(entries, reports)):
            witness, orbit_count, rhos, brute, theorem, ok = _replay_quandle(
                tracer, request, entry.group, entry.aut
            )
            ok = ok and (
                report["group_spec"] == entry.label
                and report["automorphism"] == list(entry.aut.perm)
                and report["kei_witness"] == (None if witness is None else list(witness))
                and report["orbit_count"] == orbit_count
                and report["good_involutions"] == [list(p) for p in rhos]
                and report["sq_classes_bruteforce"] == brute
                and report["sq_classes_theorem"] == theorem
            )
            failed += not ok
        with tracer.span(-1, "emit_reports"):
            replayed = symq.emit_reports(reports)
        tracer.counts["bytes"] += len(replayed)
        # The last request is the stream as a whole: entry order and bytes.
        failed += replayed != stream or [(e.label, e.aut) for e in entries] != auts
        return len(entries) + 1, failed


def _connected_keis(groups) -> list[tuple]:
    entries = []
    for group in groups:
        for aut in symq.enumerate_automorphisms(group):
            q = symq.galex(group, aut)
            if symq.is_kei(q) and symq.is_connected(q):
                entries.append((group, aut))
    return entries


def _relabel(group, rng: random.Random):
    """The same group with its elements renamed by a random permutation."""
    n = group.order
    sigma = list(range(n))
    rng.shuffle(sigma)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[sigma[a]][sigma[b]] = sigma[group.product[a][b]]
    return symq.validate_group(table)


class ConnectedKei:
    """`cross_check_sq` on every connected-kei (group, automorphism) of A4 and A5."""

    def setup(self, seed: int):
        groups = [symq.alternating_group(4), symq.alternating_group(5)]
        return seed, groups, _connected_keis(groups)

    def run_pass(self, state, probe):
        results, spans = [], []
        for group, aut in state[2]:
            mark = probe.mark()
            try:
                result = symq.cross_check_sq(group, aut)
            except symq.SymqError:
                result = None
            spans.append(probe.span(mark))
            results.append(result)
        return results, spans

    @staticmethod
    def _pair(result):
        if result is None or result.agreement is not True:
            return None
        return len(result.good_involutions), result.bruteforce_count

    def check(self, state, results) -> tuple[int, int]:
        pairs = [self._pair(r) for r in results]
        wrong = sum(p != want for p, want in zip(pairs, CONNECTED_KEI_PAIRS))
        missing = abs(len(pairs) - len(CONNECTED_KEI_PAIRS))
        return max(len(pairs), len(CONNECTED_KEI_PAIRS)), wrong + missing

    def replay(self, state, results, tracer: Tracer) -> tuple[int, int]:
        seed, groups, entries = state
        failed = 0
        for request, ((group, aut), result) in enumerate(zip(entries, results)):
            _, _, rhos, brute, theorem, ok = _replay_quandle(tracer, request, group, aut)
            failed += not (
                ok
                and result is not None
                and list(result.good_involutions) == rhos
                and result.bruteforce_count == brute
                and result.theorem_count == theorem
            )
        # Renaming the elements changes the search order but not the answers:
        # the relabeled groups must give the same multiset of results.
        # Its span belongs to no layer.
        rng = random.Random(seed)
        with tracer.span(-1, "relabeled_cross_check"):
            relabeled = _connected_keis([_relabel(g, rng) for g in groups])
            pairs = []
            for group, aut in relabeled:
                try:
                    pairs.append(self._pair(symq.cross_check_sq(group, aut)))
                except symq.SymqError:
                    pairs.append(None)
        failed += Counter(pairs) != Counter(CONNECTED_KEI_PAIRS)
        return len(entries) + 1, failed


class Torus:
    """`torus_sq_class_count(n)` and `transvection_orbit(n, e1)` for n = 1..16.

    The request is the whole sweep over n, as `scripts/torus_sweep.py` makes it.
    """

    def setup(self, seed: int):
        # The model's only input is n; the seed is recorded and ignored.
        return [(n, symq.BitVector(n, 1 << (n - 1))) for n in TORUS_DIMENSIONS]

    def run_pass(self, inputs, probe):
        mark = probe.mark()
        try:
            results = [
                (symq.torus_sq_class_count(n), symq.transvection_orbit(n, e1))
                for n, e1 in inputs
            ]
        except symq.SymqError:
            results = None
        return results, [probe.span(mark)]

    @staticmethod
    def _ok(n: int, count: int, orbit) -> bool:
        return count == 2 and [v.bits for v in orbit] == list(range(1, 1 << n))

    def check(self, inputs, results) -> tuple[int, int]:
        ok = results is not None and all(
            self._ok(n, *result) for (n, _), result in zip(inputs, results)
        )
        return 1, 0 if ok else 1

    def replay(self, inputs, results, tracer: Tracer) -> tuple[int, int]:
        failed = 0
        for request, ((n, e1), result) in enumerate(zip(inputs, results or [None] * len(inputs))):
            with tracer.span(request, "torus_sq_class_count"):
                count = symq.torus_sq_class_count(n)
            with tracer.span(request, "transvection_orbit"):
                orbit = symq.transvection_orbit(n, e1)
            tracer.counts["vectors"] += len(orbit)
            failed += not (self._ok(n, count, orbit) and result == (count, orbit))
        return len(inputs), failed


WORKLOADS = {
    "catalog12": Catalog12,
    "connected_kei": ConnectedKei,
    "torus": Torus,
}
