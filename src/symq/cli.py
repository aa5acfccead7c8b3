"""Command-line front end.

Exit codes: 0 success, 1 usage or input error (including exhausted search
budgets), 2 a requested closed-form route is inapplicable, 3 internal
consistency failure such as the two classification routes disagreeing.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from .budget import SearchBudget
from .catalog import run_catalog
from .errors import (
    HypothesisNotMet,
    InternalConsistencyError,
    SymqError,
)
from .groups import is_abelian, validate_group
from .involutions import _analyze
from .quandles import galex, validate_quandle
from .report import _FORMATS, _analysis_report, emit_report, emit_reports
from .specs import build_group, parse_aut_spec
from .tableio import format_table, read_table
from .torus import torus_report_data
from .__about__ import __version__


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are code 1
        raise _UsageError(message)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)


def _galex_from_args(args):
    group = build_group(args.group)
    return galex(group, parse_aut_spec(args.aut, group))


def _write_report(args, result, start: float) -> None:
    """Serialize one analysis; the group spec is null for table input."""
    elapsed_ms = int((time.monotonic() - start) * 1000)
    report = _analysis_report(result, getattr(args, "group", None), elapsed_ms)
    _write(emit_report(report, args.format), args.out)


def cmd_group_build(args) -> int:
    group = build_group(args.group)
    _write(format_table(group.product), args.out)
    return 0


def cmd_group_check(args) -> int:
    group = build_group(args.group)
    if not args.group.startswith("file:"):  # build_group validated a file table
        group = validate_group(group.product)
    report = {
        "tool_version": __version__,
        "group_spec": args.group,
        "order": group.order,
        "identity": group.identity,
        "abelian": is_abelian(group),
        "valid": True,
    }
    _write(emit_report(report, args.format), args.out)
    return 0


def cmd_quandle_galex(args) -> int:
    _write(format_table(_galex_from_args(args).op), args.out)
    return 0


def cmd_quandle_check(args) -> int:
    start = time.monotonic()
    q = validate_quandle(read_table(args.table))
    # no route runs, so no search node may be spent
    _write_report(args, _analyze(q, SearchBudget(0)), start)
    return 0


def _load_quandle(args):
    """The quandle of a (group, aut) pair, which records its origin, or of a table."""
    if args.table is not None:
        if args.group is not None or args.aut is not None:
            raise _UsageError("--table excludes --group/--aut")
        return validate_quandle(read_table(args.table))
    if args.group is None or args.aut is None:
        raise _UsageError("need --group and --aut, or --table")
    return _galex_from_args(args)


def cmd_sq_enumerate(args) -> int:
    start = time.monotonic()
    q = _load_quandle(args)
    if args.closed_form:
        if q.origin is None:
            raise _UsageError("--closed-form needs --group/--aut input")
        result = _analyze(q, SearchBudget(args.budget), theorem=True)
        result = replace(
            result,
            notes=("closed form: left translations by fixed self-inverse elements",),
        )
    else:
        result = _analyze(q, SearchBudget(args.budget), oracle=True)
    _write_report(args, result, start)
    return 0


def cmd_sq_classify(args) -> int:
    start = time.monotonic()
    q = _load_quandle(args)
    if args.theorem and q.origin is None:
        raise _UsageError("--theorem needs --group/--aut input")
    result = _analyze(
        q, SearchBudget(args.budget), oracle=not args.theorem, theorem=args.theorem,
        classify=True,
    )
    _write_report(args, result, start)
    return 0


def cmd_sq_crosscheck(args) -> int:
    start = time.monotonic()
    q = _galex_from_args(args)
    result = _analyze(
        q, SearchBudget(args.budget), oracle=True, theorem=True, classify=True
    )
    _write_report(args, result, start)
    if result.agreement is False:
        sys.stderr.write("classification routes disagree\n")
        return 3
    return 0


def cmd_catalog(args) -> int:
    reports, summary = run_catalog(
        args.max_order, include_extras=args.extras, budget=args.budget
    )
    _write(emit_reports(reports, args.format), args.out)
    sys.stderr.write(
        "catalog: {entries} entries, {hypothesis_met} hypothesis-met, "
        "{agreement_failures} agreement failures, {budget_notes} budget notes\n".format(
            **summary
        )
    )
    return 3 if summary["agreement_failures"] else 0


def cmd_torus(args) -> int:
    data = torus_report_data(args.n)
    report = {"tool_version": __version__, **data}
    _write(emit_report(report, args.format), args.out)
    return 0


def _add_common(parser, *, budget=False, fmt=True, out=True):
    if budget:
        parser.add_argument("--budget", type=int, default=None, metavar="NODES")
    if fmt:
        parser.add_argument("--format", choices=tuple(_FORMATS), default="json")
    if out:
        parser.add_argument("--out", default=None, metavar="PATH")


def _add_quandle_inputs(parser):
    parser.add_argument("--group", default=None, metavar="SPEC")
    parser.add_argument("--aut", default=None, metavar="SPEC")
    parser.add_argument("--table", default=None, metavar="PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="symq", description=__doc__)
    parser.add_argument("--version", action="version", version=f"symq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    group = sub.add_parser("group", help="build or validate groups")
    gsub = group.add_subparsers(dest="subcommand", required=True)
    g_build = gsub.add_parser("build", help="write a multiplication table")
    g_build.add_argument("--group", required=True, metavar="SPEC")
    _add_common(g_build, fmt=False)
    g_build.set_defaults(func=cmd_group_build)
    g_check = gsub.add_parser("check", help="validate the group axioms")
    g_check.add_argument("--group", required=True, metavar="SPEC")
    _add_common(g_check)
    g_check.set_defaults(func=cmd_group_check)

    quandle = sub.add_parser("quandle", help="build or validate quandles")
    qsub = quandle.add_subparsers(dest="subcommand", required=True)
    q_galex = qsub.add_parser(
        "galex", help="build the twisted-conjugation quandle table"
    )
    q_galex.add_argument("--group", required=True, metavar="SPEC")
    q_galex.add_argument("--aut", required=True, metavar="SPEC")
    _add_common(q_galex, fmt=False)
    q_galex.set_defaults(func=cmd_quandle_galex)
    q_check = qsub.add_parser("check", help="validate the quandle axioms")
    q_check.add_argument("--table", required=True, metavar="PATH")
    _add_common(q_check)
    q_check.set_defaults(func=cmd_quandle_check)

    sq = sub.add_parser("sq", help="good involutions and their classes")
    ssub = sq.add_subparsers(dest="subcommand", required=True)
    s_enum = ssub.add_parser("enumerate", help="list all good involutions")
    _add_quandle_inputs(s_enum)
    s_enum.add_argument(
        "--closed-form",
        action="store_true",
        help="use the translation description (connected keis only)",
    )
    _add_common(s_enum, budget=True)
    s_enum.set_defaults(func=cmd_sq_enumerate)
    s_cls = ssub.add_parser("classify", help="partition involutions into classes")
    _add_quandle_inputs(s_cls)
    s_cls.add_argument(
        "--theorem",
        action="store_true",
        help="use centralizer orbits (connected keis only)",
    )
    _add_common(s_cls, budget=True)
    s_cls.set_defaults(func=cmd_sq_classify)
    s_cross = ssub.add_parser("crosscheck", help="run both routes and compare")
    s_cross.add_argument("--group", required=True, metavar="SPEC")
    s_cross.add_argument("--aut", required=True, metavar="SPEC")
    _add_common(s_cross, budget=True)
    s_cross.set_defaults(func=cmd_sq_crosscheck)

    cat = sub.add_parser("catalog", help="sweep small groups and cross-check")
    cat.add_argument("--max-order", type=int, default=12, metavar="N")
    cat.add_argument(
        "--extras",
        action="store_true",
        help="include the symmetric and alternating groups on four points",
    )
    _add_common(cat, budget=True)
    cat.set_defaults(func=cmd_catalog)

    torus = sub.add_parser("torus", help="order-2 torus model for one dimension")
    torus.add_argument("--n", type=int, required=True)
    _add_common(torus)
    torus.set_defaults(func=cmd_torus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except HypothesisNotMet as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InternalConsistencyError as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except (_UsageError, SymqError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
