#!/usr/bin/env python3
"""Measure two checkouts with the repository's benchmark and write them side by side.

Usage: python scripts/bench.py BASE HEAD --out BENCH_N.json [--seed N]

BASE and HEAD are the roots of two checkouts.  For every workload that
`BENCHMARK.json` (read from HEAD) lists, this runs the benchmark command
from each checkout root in turn: twice with `--trace 0`, the first round
BASE first and the second HEAD first, then `TRACED_RUNS` (4) times with
`--trace 1`, again alternating which side goes first, starting with BASE.
Every run gets the file's `run_seconds`.  The output holds, per workload,
each end-to-end metric's runs, medians, relative change and whether the
change is worse than the metric's bound, the number of timed passes of
each `--trace 0` run (in the order of the metric's runs), and each
per-layer metric's traced runs, medians and relative change.  Every
end-to-end and per-layer row also has `resolved`: true only when every
HEAD run reads better than every BASE run, or every one reads worse, so
the two sides' ranges do not overlap; a change whose row is not resolved
is not told apart from noise by these runs.  Beside it, `chance` is the
probability that an unchanged metric reads resolved all the same: with a
and b runs per side in random order, 2 of the C(a + b, a) equally likely
orderings separate the sides, so 2 / C(a + b, a), which is 1/3 for the two
untraced runs per side and 2/70 (2.9 %) for the four traced ones.  Next to
each side's `revision` it records `src_lines`, the total line count of
that checkout's `src/symq/*.py` as `wc -l` counts it.  Before the
workloads it runs the Tier-1 test command (`python -m pytest -q
--continue-on-collection-errors` with `src` on PYTHONPATH) once from each
checkout root and records, under `tier1`, its raw wall time in seconds
(not scaled to a reference speed), exit code and the counts of its pytest
summary line.  Exit code 0 when
both Tier-1 runs exited 0 and every benchmark run reported correct
outputs, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
# traced runs per side; one cannot tell a few per cent from noise, and four
# let an unchanged layer read resolved by chance 2.9 % of the time, three 10 %
TRACED_RUNS = 4


def _revision(root: Path) -> str | None:
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else None


def _src_lines(root: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in (root / "src/symq").glob("*.py"))


def _run(root: Path, command: list[str], workload: str, seed: int, seconds: int,
         trace: int) -> dict:
    """One benchmark run from `root`; its last stdout line is the result object.

    `timed_passes` is the number of passes on the run's `timed passes [...]`
    line, since a peak memory figure grows with the passes a run fits in.
    """
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": done.stderr.strip()[-500:], "metrics": {}}
    result = json.loads(lines[-1])
    walls = re.search(r"timed passes \[([^\]]*)\]", done.stdout)
    if walls is not None:
        result["timed_passes"] = len(walls.group(1).split(","))
    return result


def _tier1(root: Path) -> dict:
    """Run the Tier-1 tests from `root` once: wall time, exit code, summary counts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", os.environ.get("PYTHONPATH")])
    )
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=root, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    counts = {"passed": 0, "failed": 0}
    pattern = r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)"
    counts.update((kind, int(k)) for k, kind in re.findall(pattern, summary))
    return {"wall_s": round(wall, 2), "returncode": done.returncode,
            "summary": summary, **counts}


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def _compare(spec: dict, base: list[float], head: list[float]) -> dict:
    row = {"unit": spec["unit"], "better": spec["better"], "base": base, "head": head}
    if base and head:
        b, h = statistics.median(base), statistics.median(head)
        row["base_median"], row["head_median"] = b, h
        row["change"] = (h - b) / b if b else None
        row["resolved"] = max(head) < min(base) or min(head) > max(base)
        row["chance"] = 2 / math.comb(len(base) + len(head), len(base))
        if "bound" in spec and row["change"] is not None:
            worse = row["change"] if spec["better"] == "lower" else -row["change"]
            row["bound"] = spec["bound"]
            row["worse_than_bound"] = worse > spec["bound"]
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    base, head = args.base.resolve(), args.head.resolve()
    bench = json.loads((head / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    result = {
        "base": {"revision": _revision(base), "src_lines": _src_lines(base)},
        "head": {"revision": _revision(head), "src_lines": _src_lines(head)},
        "seed": args.seed,
        "run_seconds": seconds,
        "host": {
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    result["tier1"] = {}
    for side, root in (("base", base), ("head", head)):
        print(f"tier1: {side}", file=sys.stderr, flush=True)
        result["tier1"][side] = _tier1(root)
    all_correct = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {"base": [], "head": []}
        for order in (("base", "head"), ("head", "base")):
            for side in order:
                root = base if side == "base" else head
                print(f"{workload}: {side} --trace 0", file=sys.stderr, flush=True)
                runs[side].append(_run(root, bench["command"], workload, args.seed,
                                       seconds, 0))
        traced = {"base": [], "head": []}
        for i in range(TRACED_RUNS):
            for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                root = base if side == "base" else head
                print(f"{workload}: {side} --trace 1", file=sys.stderr, flush=True)
                traced[side].append(_run(root, bench["command"], workload, args.seed,
                                         seconds, 1))
        correct = {
            side: [r["correct"] for r in runs[side] + traced[side]] for side in runs
        }
        all_correct &= all(correct["base"]) and all(correct["head"])
        result["workloads"][workload] = {
            "correct": correct,
            "timed_passes": {
                side: [r.get("timed_passes") for r in runs[side]] for side in runs
            },
            "end_to_end": {
                spec["name"]: _compare(
                    spec, _values(runs["base"], spec["name"]),
                    _values(runs["head"], spec["name"]),
                )
                for spec in bench["end_to_end"]
            },
            "per_layer": {
                spec["name"]: _compare(
                    spec, _values(traced["base"], spec["name"]),
                    _values(traced["head"], spec["name"]),
                )
                for spec in bench["per_layer"]
            },
        }
        args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    tests_pass = all(run["returncode"] == 0 for run in result["tier1"].values())
    return 0 if tests_pass and all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
