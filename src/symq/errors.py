"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "SymqError",
    "MalformedTable",
    "MalformedPermutation",
    "NotAssociative",
    "NoIdentity",
    "NoInverse",
    "NotBijective",
    "NotMultiplicative",
    "NotAbelian",
    "Q1Violation",
    "Q2Violation",
    "Q3Violation",
    "NotOpPreserving",
    "NotGalexOrigin",
    "NotConnected",
    "NotCentralizing",
    "NotFixedTwoTorsion",
    "HypothesisNotMet",
    "BadElement",
    "SearchBudgetExceeded",
    "SpecParseError",
    "UnsupportedOrder",
    "DimensionTooLarge",
    "InternalConsistencyError",
    "ModelInconsistency",
]


class SymqError(Exception):
    """Base class for every error raised by this package."""


# -- malformed inputs ---------------------------------------------------------

class MalformedTable(SymqError):
    """Operation table is ragged, empty, or has an out-of-range entry."""


class MalformedPermutation(SymqError):
    """Sequence is not a permutation of 0..n-1."""


# -- group validation ---------------------------------------------------------

class NotAssociative(SymqError):
    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"product is not associative at ({i}, {j}, {k})")


class NoIdentity(SymqError):
    def __init__(self) -> None:
        super().__init__("table has no two-sided identity element")


class NoInverse(SymqError):
    def __init__(self, element: int, detail: str = ""):
        self.element = element
        msg = f"element {element} has no two-sided inverse"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class NotBijective(SymqError):
    """Candidate automorphism is not a bijection on the element indices."""


class NotMultiplicative(SymqError):
    def __init__(self, i: int, j: int):
        self.pair = (i, j)
        super().__init__(f"map does not preserve products at ({i}, {j})")


class NotAbelian(SymqError):
    """Operation is only defined for abelian groups."""


# -- quandle validation -------------------------------------------------------

class Q1Violation(SymqError):
    def __init__(self, x: int):
        self.witness = x
        super().__init__(f"idempotence fails at element {x}")


class Q2Violation(SymqError):
    def __init__(self, y: int):
        self.witness = y
        super().__init__(f"column {y} is not a permutation")


class Q3Violation(SymqError):
    def __init__(self, x: int, y: int, z: int):
        self.witness = (x, y, z)
        super().__init__(f"self-distributivity fails at ({x}, {y}, {z})")


class NotOpPreserving(SymqError):
    def __init__(self, x: int, y: int):
        self.pair = (x, y)
        super().__init__(f"map does not preserve the quandle operation at ({x}, {y})")


# -- domain hypotheses --------------------------------------------------------

class NotGalexOrigin(SymqError):
    """Quandle was not built from a (group, automorphism) pair."""


class NotConnected(SymqError):
    """Operation requires a connected quandle."""


class NotCentralizing(SymqError):
    """Group automorphism does not commute with the quandle's twisting map."""


class NotFixedTwoTorsion(SymqError):
    def __init__(self, element: int):
        from .perms import int_fault  # perms imports this module

        self.element = element
        fault = int_fault(element, "is not a fixed self-inverse element")
        super().__init__(f"element {element} {fault}")


class HypothesisNotMet(SymqError):
    """Closed-form path is inapplicable; `hypothesis` names the failed one."""

    def __init__(self, hypothesis: str, detail: str = ""):
        self.hypothesis = hypothesis
        msg = f"hypothesis not met: {hypothesis}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class BadElement(SymqError):
    def __init__(self, element: int, order: int):
        from .perms import int_fault  # perms imports this module

        self.element = element
        fault = int_fault(element, f"out of range 0..{order - 1}")
        super().__init__(f"element index {element} {fault}")


# -- search control -----------------------------------------------------------

class SearchBudgetExceeded(SymqError):
    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(
            f"search exceeded the node budget of {limit}; raise it via --budget"
        )


# -- spec strings -------------------------------------------------------------

class SpecParseError(SymqError):
    def __init__(self, message: str, offset: int):
        self.offset = offset
        super().__init__(f"{message} (at offset {offset})")


class UnsupportedOrder(SymqError):
    """Spec or table file names a structure the tool cannot or will not build."""


# -- torus model --------------------------------------------------------------

class DimensionTooLarge(SymqError):
    def __init__(self, n: int, cap: int):
        from .perms import int_fault  # perms imports this module

        fault = int_fault(n, f"outside supported range 1..{cap}")
        super().__init__(f"dimension {n} {fault}")


# -- cross-checks -------------------------------------------------------------

class InternalConsistencyError(SymqError):
    """A verified mathematical identity failed; this signals a tool bug."""


class ModelInconsistency(InternalConsistencyError):
    """A structural equality the torus model relies on failed to hold."""
