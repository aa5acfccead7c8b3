#!/usr/bin/env python3
"""Tabulate the order-2 torus model across dimensions.

Usage: python scripts/torus_sweep.py [MAX_N]

MAX_N defaults to symq.torus.MAX_DIMENSION, the largest dimension the model takes.
"""

import sys
import time

import symq


def main() -> int:
    max_n = int(sys.argv[1]) if len(sys.argv) > 1 else symq.torus.MAX_DIMENSION
    print(f"{'n':>3} {'2-torsion':>10} {'classes':>8} {'orbit(e1)':>10} {'ms':>7}")
    for n in range(1, max_n + 1):
        start = time.monotonic()
        size = len(symq.two_torsion_set(n))
        count = symq.torus_sq_class_count(n)
        e1 = symq.BitVector(n, 1 << (n - 1))
        orbit = len(symq.transvection_orbit(n, e1))
        ms = (time.monotonic() - start) * 1000
        print(f"{n:>3} {size:>10} {count:>8} {orbit:>10} {ms:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
