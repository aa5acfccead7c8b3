"""Exact model of the n-torus example through its order-2 subgroup.

The elements of the torus fixed by negation with 2r = 0 form a copy of
F_2^n; the shear maps E_ij restrict there to single-bit XOR updates.  That
finite picture is enough to reproduce both counts the continuous example
pins down: 2^n good involutions, and exactly two classes (the zero vector,
and everything else in one shear orbit).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionTooLarge, ModelInconsistency

__all__ = [
    "BitVector",
    "Transvection",
    "two_torsion_set",
    "transvection_orbit",
    "torus_sq_class_count",
    "torus_report_data",
    "MAX_DIMENSION",
]

MAX_DIMENSION = 20


@dataclass(frozen=True)
class BitVector:
    """Point of F_2^n; bit n-1-i of `bits` holds coordinate i (leftmost first)."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits {self.bits} out of range for dimension {self.n}")

    def coord(self, i: int) -> int:
        return (self.bits >> (self.n - 1 - i)) & 1

    def __str__(self) -> str:
        return format(self.bits, f"0{self.n}b")


@dataclass(frozen=True)
class Transvection:
    """Shear adding coordinate j into coordinate i; self-inverse over F_2."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("shear indices must differ")

    def apply_bits(self, n: int, bits: int) -> int:
        if (bits >> (n - 1 - self.j)) & 1:
            return bits ^ (1 << (n - 1 - self.i))
        return bits

    def apply(self, v: BitVector) -> BitVector:
        return BitVector(v.n, self.apply_bits(v.n, v.bits))


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise DimensionTooLarge(n, MAX_DIMENSION)


def two_torsion_set(n: int) -> list[BitVector]:
    """All 2^n order-2 points, ordered by integer value."""
    _check_dimension(n)
    return [BitVector(n, bits) for bits in range(1 << n)]


def all_transvections(n: int) -> list[Transvection]:
    return [Transvection(i, j) for i in range(n) for j in range(n) if i != j]


def _orbit_bits(n: int, start: int, gens: list[Transvection]) -> set[int]:
    """Closure of one point, as an int bit pattern, under the given shears."""
    seen = {start}
    frontier = [start]
    while frontier:
        bits = frontier.pop()
        for t in gens:
            nxt = t.apply_bits(n, bits)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def transvection_orbit(n: int, v: BitVector) -> list[BitVector]:
    """Closure of v under every shear map, ordered by integer value."""
    _check_dimension(n)
    orbit = _orbit_bits(n, v.bits, all_transvections(n))
    return [BitVector(n, bits) for bits in sorted(orbit)]


def _class_count_with_generators(n: int, gens: list[Transvection]) -> int:
    """Orbit count of the generated action, with the orbit equality verified.

    The model stands on the equality orbit(e1) = all nonzero vectors; if a
    generator set fails it, the count is meaningless and we refuse loudly.
    """
    seen = _orbit_bits(n, 1 << (n - 1), gens)
    if seen != set(range(1, 1 << n)):
        raise ModelInconsistency(
            f"orbit of the first basis vector covers {len(seen)} of "
            f"{(1 << n) - 1} nonzero vectors"
        )
    # Orbits overall: {0} is fixed by every linear map, the rest is one orbit.
    if _orbit_bits(n, 0, gens) != {0}:
        raise ModelInconsistency("shear maps moved the zero vector")
    return 2


def torus_sq_class_count(n: int) -> int:
    """Number of shear orbits on the order-2 points: two for every n."""
    _check_dimension(n)
    return _class_count_with_generators(n, all_transvections(n))


def torus_report_data(n: int) -> dict:
    """Everything the CLI prints for one dimension."""
    _check_dimension(n)
    notes = []
    if n == 1:
        notes.append(
            "degenerate dimension: no shear maps exist, the two classes "
            "come from direct inspection"
        )
    count = torus_sq_class_count(n)
    return {
        "model": "torus",
        "n": n,
        "two_torsion_size": 1 << n,
        "class_count": count,
        "orbit_check_passed": True,
        "notes": notes,
    }
