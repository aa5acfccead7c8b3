"""Exact model of the n-torus example through its order-2 subgroup.

The elements of the torus fixed by negation with 2r = 0 form a copy of
F_2^n; a shear map E_ij restricts there to "flip bit i when bit j is set".
That finite picture is enough to reproduce both counts the continuous
example pins down: 2^n good involutions, and exactly two classes (the zero
vector, and everything else in one shear orbit).

Orbits are closed a whole set at a time: a set of points is one int of 2^n
bits, and a shear moves it with two masked shifts.  The 2(n-1) adjacent
shears E_{i,i+1} and E_{i+1,i} suffice, since E_ij = [E_ik, E_kj] for
distinct i, j, k makes them generate SL_n(F_2) (R. Steinberg, "Lectures on
Chevalley groups", 1967).
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class Transvection:
    """Shear adding coordinate j into coordinate i; self-inverse over F_2."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i == self.j:
            raise ValueError("shear indices must differ")

    def apply(self, v: BitVector) -> BitVector:
        if v.coord(self.j):
            return BitVector(v.n, v.bits ^ (1 << (v.n - 1 - self.i)))
        return v


def _check_dimension(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise DimensionTooLarge(n, MAX_DIMENSION)


def two_torsion_set(n: int) -> list[BitVector]:
    """All 2^n order-2 points, ordered by integer value."""
    _check_dimension(n)
    return [BitVector(n, bits) for bits in range(1 << n)]


def all_transvections(n: int) -> list[Transvection]:
    return [Transvection(i, j) for i in range(n) for j in range(n) if i != j]


def adjacent_transvections(n: int) -> list[Transvection]:
    """E_{i,i+1} and E_{i+1,i}: 2(n-1) shears that generate SL_n(F_2)."""
    return [Transvection(i, j) for k in range(n - 1) for i, j in ((k, k + 1), (k + 1, k))]


def _shear_moves(n: int, gens: list[Transvection]) -> list[tuple[int, int, int]]:
    """(shift, up, down) per shear, acting on bitmaps of points of F_2^n.

    Bit p of a bitmap stands for the point with bits p.  E_ij flips bit
    i' = n-1-i of the points with bit j' = n-1-j set, so it moves the points
    in `up` (bit j' set, bit i' clear) 2^i' places up the bitmap and those in
    `down` (both set) as many places down.
    """
    size = 1 << n
    has_bit = []
    for b in range(n):
        # Period 2^(b+1): 2^b points with bit b clear, then 2^b with it set.
        width = 2 << b
        mask = ((1 << (1 << b)) - 1) << (1 << b)
        while width < size:
            mask |= mask << width
            width <<= 1
        has_bit.append(mask)
    moves = []
    for t in gens:
        col, row = has_bit[n - 1 - t.j], has_bit[n - 1 - t.i]
        down = col & row
        moves.append((1 << (n - 1 - t.i), col ^ down, down))
    return moves


def _orbit_bitmap(start: int, moves: list[tuple[int, int, int]]) -> int:
    """Bitmap of the closure of point `start` under the shears of `moves`."""
    orbit = 1 << start
    while True:
        grown = orbit
        for shift, up, down in moves:
            grown |= ((grown & up) << shift) | ((grown & down) >> shift)
        if grown == orbit:
            return orbit
        orbit = grown


def transvection_orbit(n: int, v: BitVector) -> list[BitVector]:
    """Closure of v under every shear map, ordered by integer value."""
    _check_dimension(n)
    if v.n != n:
        raise ValueError(f"vector of dimension {v.n} given for dimension {n}")
    orbit = _orbit_bitmap(v.bits, _shear_moves(n, adjacent_transvections(n)))
    # bin() reversed puts the character for point p at index p.
    return [BitVector(n, p) for p, bit in enumerate(bin(orbit)[:1:-1]) if bit == "1"]


def _class_count_with_generators(n: int, gens: list[Transvection]) -> int:
    """Orbit count of the generated action, with the orbit equality verified.

    The model stands on the equality orbit(e1) = all nonzero vectors; if a
    generator set fails it, the count is meaningless and we refuse loudly.
    """
    moves = _shear_moves(n, gens)
    seen = _orbit_bitmap(1 << (n - 1), moves)
    if seen != (1 << (1 << n)) - 2:
        raise ModelInconsistency(
            f"orbit of the first basis vector covers {seen.bit_count()} of "
            f"{(1 << n) - 1} nonzero vectors"
        )
    # Orbits overall: {0} is fixed by every linear map, the rest is one orbit.
    if _orbit_bitmap(0, moves) != 1:
        raise ModelInconsistency("shear maps moved the zero vector")
    return 2


def torus_sq_class_count(n: int) -> int:
    """Number of shear orbits on the order-2 points: two for every n."""
    _check_dimension(n)
    return _class_count_with_generators(n, adjacent_transvections(n))


def torus_report_data(n: int) -> dict:
    """Everything the CLI prints for one dimension."""
    count = torus_sq_class_count(n)  # refuses an unsupported dimension first
    notes = []
    if n == 1:
        notes.append(
            "degenerate dimension: no shear maps exist, the two classes "
            "come from direct inspection"
        )
    return {
        "model": "torus",
        "n": n,
        "two_torsion_size": 1 << n,
        "class_count": count,
        "orbit_check_passed": True,
        "notes": notes,
    }
