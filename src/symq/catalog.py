"""Sweep families of small groups and cross-check both classification routes.

The family for a maximum order N: every abelian group of order <= N (one
per invariant-factor chain), the proper dihedral groups with 2M <= N, the
quaternion group once N >= 8, and the symmetric group on three points once
N >= 6.  Isomorphic entries coming from different constructors are kept,
deduplication would need isomorphism testing which this tool does not do.
The two order-12-and-up heavyweights (symmetric and alternating on four
points) join only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .budget import SearchBudget, resolve_budget
from .errors import SearchBudgetExceeded, UnsupportedOrder
from .groups import (
    FiniteGroup, GroupAutomorphism, _check_build_cap, enumerate_automorphisms
)
from .involutions import SqClassification, _analyze
from .perms import int_fault, is_int
from .quandles import galex
from .report import _analysis_report
from .specs import build_group

__all__ = [
    "CatalogEntry",
    "catalog_entries",
    "catalog_family",
    "abelian_invariant_chains",
    "run_catalog",
]


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    group: FiniteGroup
    aut: GroupAutomorphism


def abelian_invariant_chains(order: int) -> list[tuple[int, ...]]:
    """Divisor chains d1 | d2 | ... with product `order`, each di >= 2."""
    chains: list[tuple[int, ...]] = []
    # (the part of `order` left to factor, the cap on the next factor, the
    # factors so far, largest last)
    stack = [(order, order, ())]
    while stack:
        remaining, cap, chain = stack.pop()
        if remaining == 1:
            chains.append(chain)
            continue
        for d in range(2, min(cap, remaining) + 1):
            if remaining % d == 0 and cap % d == 0:
                stack.append((remaining // d, d, (d,) + chain))
    chains.sort()
    return chains


def _abelian_spec(chain: tuple[int, ...]) -> str:
    if not chain:
        return "cyclic:1"
    if len(chain) == 1:
        return f"cyclic:{chain[0]}"
    return "product:" + ",".join(f"cyclic:{d}" for d in chain)


def catalog_family(
    max_order: int, include_extras: bool = False
) -> list[tuple[str, FiniteGroup]]:
    """Deterministic (label, group) list for the sweep, ascending by order."""
    if not is_int(max_order) or max_order < 1:
        fault = int_fault(max_order, "is below 1")
        raise UnsupportedOrder(f"catalog max order {max_order!r} {fault}")
    _check_build_cap(f"catalog max order {max_order} is", max_order)
    labels: list[str] = []
    for order in range(1, max_order + 1):
        labels.extend(_abelian_spec(chain) for chain in abelian_invariant_chains(order))
        if order % 2 == 0 and order >= 6:
            labels.append(f"dihedral:{order // 2}")
        if order == 6:
            labels.append("symmetric:3")
        if order == 8:
            labels.append("quaternion")
        if order == 12 and include_extras:
            labels.append("alternating:4")
        # symmetric:4 (order 24) joins from max order 12, last until order 24
        if include_extras and order == min(max_order, 24) >= 12:
            labels.append("symmetric:4")
    return [(label, build_group(label)) for label in labels]


def catalog_entries(
    max_order: int, include_extras: bool = False, budget: int | None = None
) -> list[CatalogEntry]:
    entries = []
    for label, group in catalog_family(max_order, include_extras):
        for aut in enumerate_automorphisms(group, budget):
            entries.append(CatalogEntry(label=label, group=group, aut=aut))
    return entries


def _entry_analysis(
    entry: CatalogEntry, budget: int | None, reuse: dict | None = None
) -> SqClassification:
    """Both routes on the entry's quandle; a budget hit becomes the one kind of
    report that says so: outcome "budget", the facts that a routes-free
    analysis computes without a search node, and the hit as its note."""
    q = galex(entry.group, entry.aut)
    routes = dict(oracle=True, theorem=True, classify=True, reuse=reuse)
    try:
        return _analyze(q, SearchBudget(budget), **routes)
    except SearchBudgetExceeded as exc:
        note = f"cross-check aborted: {exc}"
        return replace(_analyze(q, SearchBudget(0)), outcome="budget", notes=(note,))


def run_catalog(
    max_order: int = 12,
    *,
    include_extras: bool = False,
    budget: int | None = None,
) -> tuple[list[dict], dict]:
    """Reports for every family entry plus a summary of the cross-checks.

    Per-entry elapsed_ms is null so that two identical runs emit identical
    bytes; wall-clock time belongs to the caller.  Any disagreement between
    the two classification routes is counted, never swallowed.  A group
    whose automorphisms exhaust the budget gets one placeholder report.
    Entries with the same quandle table share one oracle run and one
    partition, and each entry is charged their nodes as if it had run them.
    Their reports hold one `good_involutions` list object between them, so
    reports are read-only: change one and the others change with it.  Those
    shared objects are what make the stream cheap: `emit_reports` renders
    each list object once, with the bytes unchanged.
    """
    resolved = resolve_budget(budget)
    reports = []
    hypothesis_met = 0
    failures = 0
    budget_notes = 0
    order = None
    for label, group in catalog_family(max_order, include_extras):
        if group.order != order:
            # the family ascends by order and tables of different orders
            # never match; holding one order's results keeps the peak memory
            # of a sweep below what recomputing them costs
            order, reuse, lists = group.order, {}, {}
        try:
            auts = enumerate_automorphisms(group, resolved)
        except SearchBudgetExceeded as exc:
            analyses = [
                SqClassification(
                    order=group.order,
                    origin=None,
                    outcome="budget",
                    notes=(f"automorphism enumeration aborted: {exc}",),
                )
            ]
        else:
            analyses = (
                _entry_analysis(CatalogEntry(label, group, aut), resolved, reuse)
                for aut in auts
            )
        for result in analyses:
            # one list for equal involution lists: the three order-12
            # trivial tables hold 140,152 involutions each
            reports.append(_analysis_report(result, label, None, lists))
            if result.agreement is not None:
                hypothesis_met += 1
                failures += result.agreement is False
            budget_notes += result.outcome == "budget"
    summary = {
        "entries": len(reports),
        "hypothesis_met": hypothesis_met,
        "agreement_failures": failures,
        "budget_notes": budget_notes,
    }
    return reports, summary
