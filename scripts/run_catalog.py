#!/usr/bin/env python3
"""Sweep the small-group catalog and print a per-order summary table.

Usage: python scripts/run_catalog.py [MAX_ORDER] [--extras] [--out PATH]

The summary line ends with the wall time of the sweep and, under --out, of
rendering and writing the JSON report stream.
"""

import argparse
import sys
import time
from collections import defaultdict

import symq


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("max_order", nargs="?", type=int, default=12)
    parser.add_argument("--extras", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    start = time.monotonic()
    reports, summary = symq.run_catalog(
        args.max_order, include_extras=args.extras
    )
    times = f"sweep {time.monotonic() - start:.2f}s"

    if args.out:
        start = time.monotonic()
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(symq.emit_reports(reports, "json"))
        times += f", emit {time.monotonic() - start:.2f}s"

    by_order = defaultdict(lambda: [0, 0, 0, 0])  # entries, keis, connected keis, invs
    for r in reports:
        row = by_order[r["order"]]
        row[0] += 1
        # a group whose automorphisms ran out of budget gets one placeholder
        # report with is_kei null; it counts as neither kind of kei
        row[1] += bool(r["is_kei"])
        row[2] += bool(r["is_kei"] and r["is_connected"])
        if r["good_involutions"] is not None:
            row[3] += len(r["good_involutions"])

    print(f"{'order':>5} {'entries':>8} {'keis':>6} {'conn.keis':>10} {'involutions':>12}")
    for order in sorted(by_order):
        entries, keis, ck, invs = by_order[order]
        print(f"{order:>5} {entries:>8} {keis:>6} {ck:>10} {invs:>12}")
    print(
        f"\n{summary['entries']} entries, {summary['hypothesis_met']} hypothesis-met, "
        f"{summary['agreement_failures']} agreement failures, "
        f"{summary['budget_notes']} budget notes, {times}"
    )
    return 3 if summary["agreement_failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
