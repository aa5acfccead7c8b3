"""Deterministic JSON and text reports.

Every quandle report carries the same fixed key set; a field that does not
apply is explicitly null, never missing.  JSON rendering sorts keys and uses
fixed separators so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json

from . import __about__
from .involutions import SqClassification
from .perms import gather

__all__ = ["emit_report", "emit_reports"]


class _Rows(list):
    """A report's good involutions: rows that each permute range(len(row)).

    `emit_reports` renders such a list from a table of the digit strings
    of those indices, which covers every entry only because the rows are the
    analysis's own permutations and reports are read-only.
    """


def _analysis_report(
    result: SqClassification,
    group_spec: str | None,
    elapsed_ms: int | None,
    lists: dict | None = None,
) -> dict:
    """The fixed-key report of one analysis; every quandle report is made here.

    The good involutions become a `_Rows` list, built once per involution
    tuple: reports made with one `lists` dict (id of an involution tuple ->
    the tuple and its rows, so the id stays the tuple's) share one list
    between them.  `_analyze` gives every repeat of a table one tuple, so
    the tuples are never hashed.  `emit_reports` renders a `_Rows` list
    from a digit table, which relies on the rows being read-only; any other
    value, a list a caller built among them, is rendered whole by `to_json`
    or `to_text`.
    """
    known = result.orbit_count is not None
    witness = result.kei_witness
    rhos = result.good_involutions
    if rhos is not None:
        lists = {} if lists is None else lists
        hit = lists.get(id(rhos))
        if hit is None:
            hit = lists[id(rhos)] = rhos, _Rows(map(list, rhos))
        rhos = hit[1]
    fixed = result.fixed_two_torsion
    return {
        "tool_version": __about__.__version__,
        "group_spec": group_spec,
        "order": result.order,
        "automorphism": None if result.origin is None else list(result.origin.perm),
        "is_kei": witness is None if known else None,
        "kei_witness": None if witness is None else list(witness),
        "is_connected": result.orbit_count == 1 if known else None,
        "orbit_count": result.orbit_count,
        "good_involutions": rhos,
        "fixed_two_torsion": None if fixed is None else list(fixed),
        "sq_classes_bruteforce": result.bruteforce_count,
        "sq_classes_theorem": result.theorem_count,
        "agreement": result.agreement,
        "notes": list(result.notes),
        "elapsed_ms": elapsed_ms,
    }


def to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _render_value(value) -> str:
    if isinstance(value, list) and value and isinstance(value[0], list):
        lines = [""]
        lines.extend("  " + " ".join(str(x) for x in row) for row in value)
        return "\n".join(lines)
    return json.dumps(value)


def to_text(report: dict) -> str:
    lines = [f"{key}: {_render_value(report[key])}" for key in sorted(report)]
    return "\n".join(lines) + "\n"


# per format: report renderer, the rendering of a null good_involutions,
# the text between two reports of a stream, and the text that opens a
# `_Rows` list, parts two rows, parts two entries of a row and closes the list
_FORMATS = {
    "json": (to_json, '"good_involutions":null', "", ("[[", "],[", ",", "]]")),
    "text": (to_text, "good_involutions: null", "\n", ("\n  ", "\n  ", " ", "")),
}


def _render_rows(rows: _Rows, syntax: tuple[str, str, str, str]) -> str:
    """The rendering of a non-empty `_Rows` list: each row is its entries'
    digit strings joined, gathered at C speed, so no int is converted."""
    head, between, sep, tail = syntax
    digits = [str(i) for i in range(len(rows[0]))]
    return head + between.join([sep.join(gather(row)(digits)) for row in rows]) + tail


def emit_report(report: dict, fmt: str = "json") -> str:
    """Render one report; permutation lists appear one per line in text mode."""
    return emit_reports([report], fmt)


def emit_reports(reports: list[dict], fmt: str = "json") -> str:
    """Render a report stream: JSON lines, or text blocks split by blank lines.

    The bytes are those of `to_json` or `to_text` on each report in turn.
    A report whose `good_involutions` is a non-empty `_Rows` list, which
    `_analysis_report` built, is rendered with that field null, and the
    list's rendering is spliced into the first null slot of the field.
    That slot is the field's own, since every key that sorts before it in a
    report (agreement, automorphism, elapsed_ms, fixed_two_torsion) holds no
    string.  Each `_Rows` object is rendered once, however many reports
    hold it (`run_catalog` gives equal lists one object), in one pass that
    joins the digit strings of 0..n-1, n the length of a row: the bytes
    `json.dumps` and `str` give for its entries, since its rows are
    read-only permutations of range(order).  Every other report, an empty
    list or one a caller built among them, is rendered whole.
    """
    try:
        render, slot, sep, syntax = _FORMATS[fmt]  # an empty stream checks fmt too
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None
    cut = len(slot) - len("null")
    rendered = {}  # id of a `_Rows` list -> its rendering; `reports` keeps each alive
    pieces = []
    for i, report in enumerate(reports):
        if i:
            pieces.append(sep)
        rhos = report.get("good_involutions")
        if type(rhos) is not _Rows or not rhos:
            pieces.append(render(report))
            continue
        value = rendered.get(id(rhos))
        if value is None:
            value = rendered[id(rhos)] = _render_rows(rhos, syntax)
        text = render({**report, "good_involutions": None})
        at = text.index(slot)
        pieces += (text[: at + cut], value, text[at + len(slot):])
    return "".join(pieces)
