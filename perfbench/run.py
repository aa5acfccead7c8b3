#!/usr/bin/env python3
"""Benchmark of the symq workbench: one workload per run, timed or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from `src/` of the checkout, so the run fails (exit
2, no result) where it is missing.  `SYMQ_BUDGET` is unset and no budget is
passed, so every search runs under the default budget of 10^7 nodes.

With `--trace 0` the run repeats whole timed passes until S seconds have
passed (at least one) and reports the end-to-end metrics, its times scaled
to the reference speed that `hostspeed.py` samples; `setup_s` is the median
over several fresh interpreters.  With `--trace 1` it makes one timed
pass, then replays every request through the layer functions inside spans,
checks the replay against the timed pass, and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 120


def load(name: str, seed: int):
    """Import the library and build the workload's inputs."""
    sys.path.insert(0, str(SRC_DIR))
    import symq
    import workloads

    if not Path(symq.__file__).resolve().is_relative_to(SRC_DIR):
        raise ImportError(f"symq was imported from {symq.__file__}, not {SRC_DIR}")
    workload = workloads.WORKLOADS[name]()
    state = workload.setup(seed)
    return workloads, workload, state


def timed_load(name: str, seed: int):
    """`load`, and its time in seconds at the reference speed.

    Set-up is mostly shorter than a few probe intervals, so samples taken
    right after it help scale it.
    """
    with hostspeed.SpeedProbe() as probe:
        mark = probe.mark()
        loaded = load(name, seed)
        span = probe.span(mark)
        probe.take(hostspeed.WINDOW)
    return *loaded, probe.scaled_s(span)


def fresh_setup_seconds(name: str, seed: int) -> float:
    """Scaled set-up time of the workload in a new interpreter, import included."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(done.stdout.split()[-1])


def timed_passes(workload, state, seconds: float):
    """Whole passes that fit in `seconds`, at least one; each pass is checked.

    A pass starts only if one more pass as long as the last still fits, so a
    run lasts about `seconds` whatever the length of its pass.  Passes run
    under a `SpeedProbe`, returned with the `hostspeed.Span` of every pass
    and request.
    """
    deadline = time.perf_counter() + seconds
    passes, requests, attempted, failed = [], [], 0, 0
    output = None
    with hostspeed.SpeedProbe() as probe:
        while not passes or time.perf_counter() + passes[-1].wall_s <= deadline:
            output = None  # let the previous pass's outputs go before the next
            mark = probe.mark()
            output, spans = workload.run_pass(state, probe)
            passes.append(probe.span(mark))
            requests.extend(spans)
            a, f = workload.check(state, output)
            attempted += a
            failed += f
    return passes, requests, attempted, failed, output, probe


def end_to_end(name: str, seed: int, seconds: float, workload, state, setup_s: float):
    setups = [setup_s] + [fresh_setup_seconds(name, seed) for _ in range(SETUP_RUNS - 1)]
    passes, requests, attempted, failed, _, probe = timed_passes(workload, state, seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    walls = [p.wall_s for p in passes]
    print(f"{name}: timed passes {[round(w, 3) for w in walls]} s, {len(requests)} requests, "
          f"{len(probe.samples)} speed samples (median "
          f"{statistics.median(probe.samples) * 1000:.3f} ms, "
          f"reference {hostspeed.REFERENCE_S * 1000:.3f} ms)")
    print(f"{name}: wall_s {statistics.median(walls):.6f} s, "
          f"entry_p50_ms {statistics.median(r.wall_s for r in requests) * 1000:.3f} ms, "
          f"error_rate {failed / attempted} ({failed}/{attempted})")
    metrics = {
        "wall_scaled_s": (statistics.median(probe.scaled_s(p) for p in passes), "s"),
        "entry_p50_scaled_ms": (
            statistics.median(probe.scaled_s(r) for r in requests) * 1000, "ms"
        ),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return attempted, failed, metrics


def traced(name: str, workloads, workload, state):
    passes, _, attempted, failed, output, probe = timed_passes(workload, state, 0)
    # The timed pass's outputs stay alive for the comparison.  Frozen, they
    # are not scanned by every full collection during the replay, as they
    # were not while the timed pass built them.
    gc.freeze()
    try:
        with hostspeed.SpeedProbe() as replay_probe:
            tracer = workloads.Tracer(
                lambda start, end: replay_probe.scaled_s(hostspeed.Span(start, end))
            )
            mark = replay_probe.mark()
            a, f = workload.replay(state, output, tracer)
            replay = replay_probe.span(mark)
    finally:
        gc.unfreeze()
    metrics = tracer.layer_metrics()
    layer_time = sum(v for v, unit in metrics.values() if unit == "s")
    span_time = sum(tracer.duration(s.start, s.end) for s in tracer.spans)
    print(f"{name}: traced replay of {a} requests, {f} differ from the timed pass")
    metrics["catalog.self_s"] = (probe.scaled_s(passes[0]) - layer_time, "s")
    metrics["trace.overhead_s"] = (replay_probe.scaled_s(replay) - span_time, "s")
    return attempted + a, failed + f, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # An override in the environment must not change the work measured.
    os.environ.pop("SYMQ_BUDGET", None)
    try:
        workloads, workload, state, setup_s = timed_load(args.workload, args.seed)
    except (ImportError, KeyError) as exc:
        print(f"perfbench: cannot set up {args.workload!r}: {exc!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_s)
        return 0

    if args.trace:
        attempted, failed, metrics = traced(args.workload, workloads, workload, state)
    else:
        attempted, failed, metrics = end_to_end(
            args.workload, args.seed, args.seconds, workload, state, setup_s
        )
    for key, (value, unit) in metrics.items():
        print(f"  {key:<24} {value:>14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
