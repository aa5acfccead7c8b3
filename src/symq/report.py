"""Deterministic JSON and text reports.

Every quandle report carries the same fixed key set; a field that does not
apply is explicitly null, never missing.  JSON rendering sorts keys and uses
fixed separators so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json

from . import __about__
from .involutions import SqClassification


def _analysis_report(
    result: SqClassification,
    group_spec: str | None,
    elapsed_ms: int | None,
    lists: dict | None = None,
) -> dict:
    """The fixed-key report of one analysis; every quandle report is made here.

    Reports made with one `lists` dict (involution tuple -> report list)
    share one list, built once, between equal involution lists.
    """
    known = result.orbit_count is not None
    witness = result.kei_witness
    rhos = result.good_involutions
    if rhos is not None:
        lists = {} if lists is None else lists
        rows = lists.get(rhos)
        if rows is None:
            rows = lists[rhos] = [list(p) for p in rhos]
        rhos = rows
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


def _json_value(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def to_json(report: dict) -> str:
    return _json_value(report) + "\n"


def _render_value(value) -> str:
    if isinstance(value, list) and value and isinstance(value[0], list):
        lines = [""]
        lines.extend("  " + " ".join(str(x) for x in row) for row in value)
        return "\n".join(lines)
    return json.dumps(value)


def to_text(report: dict) -> str:
    lines = [f"{key}: {_render_value(report[key])}" for key in sorted(report)]
    return "\n".join(lines) + "\n"


# per format: report renderer, value renderer, the rendering of a null
# good_involutions, and the text between two reports of a stream
_FORMATS = {
    "json": (to_json, _json_value, '"good_involutions":null', ""),
    "text": (to_text, _render_value, "good_involutions: null", "\n"),
}


def _format(fmt: str) -> tuple:
    try:
        return _FORMATS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}") from None


def emit_report(report: dict, fmt: str = "json") -> str:
    """Render one report; permutation lists appear one per line in text mode."""
    return _format(fmt)[0](report)


def emit_reports(reports: list[dict], fmt: str = "json") -> str:
    """Render a report stream: JSON lines, or text blocks split by blank lines.

    The bytes are those of `emit_report` on each report in turn, but each
    `good_involutions` list object is rendered once, however many reports
    hold it: a report is rendered with that field null, and the list's
    rendering is spliced into the first null slot of the field.  That slot
    is the field's own, since every key that sorts before it in a report
    (agreement, automorphism, elapsed_ms, fixed_two_torsion) holds no
    string.  `run_catalog` gives equal lists one object, so each distinct
    list of a sweep is rendered once.
    """
    render, render_value, slot, sep = _format(fmt)  # an empty stream checks fmt too
    cut = len(slot) - len("null")
    rendered = {}  # id of a list -> its rendering; `reports` keeps each list alive
    pieces = []
    for i, report in enumerate(reports):
        if i:
            pieces.append(sep)
        rhos = report.get("good_involutions")
        if not isinstance(rhos, list):
            pieces.append(render(report))
            continue
        value = rendered.get(id(rhos))
        if value is None:
            value = rendered[id(rhos)] = render_value(rhos)
        text = render({**report, "good_involutions": None})
        at = text.index(slot)
        pieces += (text[: at + cut], value, text[at + len(slot):])
    return "".join(pieces)
