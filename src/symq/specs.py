"""Mini-languages naming groups and automorphisms on the command line.

Group specs:   cyclic:N | product:<spec>,<spec>[,...] | dihedral:M
               | symmetric:K | alternating:K | quaternion | file:PATH
Aut specs:     id | inv | perm:i,j,... | conj:g

Parsing is total: any input yields either a value or a positioned
SpecParseError, never a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAbelian, SpecParseError, UnsupportedOrder
from .groups import (
    FiniteGroup,
    GroupAutomorphism,
    alternating_group,
    cyclic_group,
    dihedral_group,
    direct_product,
    identity_automorphism,
    inversion_automorphism,
    is_abelian,
    quaternion_group,
    symmetric_group,
    validate_automorphism,
    validate_group,
)
from .errors import BadElement
from .tableio import MAX_BUILT_ORDER, read_table

__all__ = [
    "GroupSpec",
    "parse_group_spec",
    "parse_aut_spec",
    "build_group",
    "MAX_BUILT_ORDER",
]

# numbered kind -> (the order that number K names, see _spec_order; constructor)
_NUMBERED = {
    "cyclic": (lambda k: k, cyclic_group),
    "dihedral": (lambda k: 2 * k, dihedral_group),
    "symmetric": (lambda k: _capped_product(range(2, k + 1)), symmetric_group),
    "alternating": (lambda k: _capped_product(range(3, k + 1)), alternating_group),
}
_KINDS = (*_NUMBERED, "product", "quaternion", "file")


@dataclass(frozen=True)
class GroupSpec:
    raw: str
    kind: str
    number: int | None = None
    parts: tuple["GroupSpec", ...] = field(default=())
    path: str | None = None


class _Cursor:
    __slots__ = ("text", "pos")

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str) -> SpecParseError:
        return SpecParseError(message, self.pos)

    def take_keyword(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected a group kind")
        return self.text[start : self.pos]

    def expect(self, char: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != char:
            raise self.fail(f"expected {char!r}")
        self.pos += 1

    def take_int(self) -> int:
        start = self.pos
        # ASCII digits only: str.isdigit also takes "²", "３" and "٣"
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected an unsigned integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past the interpreter's digit limit
            self.pos = start
            raise self.fail("integer has too many digits") from None

    def take_path(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != ",":
            self.pos += 1
        if self.pos == start:
            raise self.fail("expected a file path")
        return self.text[start : self.pos]

    def peek(self) -> str | None:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def done(self) -> bool:
        return self.pos >= len(self.text)


def _parse_spec(cur: _Cursor) -> GroupSpec:
    start = cur.pos
    kind = cur.take_keyword()
    if kind not in _KINDS:
        cur.pos = start
        raise cur.fail(f"unknown group kind {kind!r}")
    if kind == "quaternion":
        return GroupSpec(raw=cur.text[start : cur.pos], kind=kind)
    cur.expect(":")
    if kind == "file":
        path = cur.take_path()
        return GroupSpec(raw=cur.text[start : cur.pos], kind=kind, path=path)
    if kind == "product":
        parts = [_parse_spec(cur)]
        while cur.peek() == ",":
            cur.expect(",")
            parts.append(_parse_spec(cur))
        if len(parts) < 2:
            raise cur.fail("product needs at least two factors")
        return GroupSpec(
            raw=cur.text[start : cur.pos], kind=kind, parts=tuple(parts)
        )
    number = cur.take_int()
    return GroupSpec(raw=cur.text[start : cur.pos], kind=kind, number=number)


def parse_group_spec(spec: str) -> GroupSpec:
    cur = _Cursor(spec)
    parsed = _parse_spec(cur)
    if not cur.done():
        raise cur.fail("unexpected trailing characters")
    return parsed


def _capped_product(factors) -> int:
    """Product of the factors, cut short once it passes MAX_BUILT_ORDER."""
    out = 1
    for f in factors:
        out *= f
        if out > MAX_BUILT_ORDER:
            break
    return out


def _spec_order(spec: GroupSpec) -> int:
    """The order a spec names, or a number past MAX_BUILT_ORDER if it is larger.

    Factorials and products stop growing at the cap, so a spec such as
    symmetric:1000000 is refused at once instead of after computing K!.
    """
    if spec.kind in _NUMBERED:
        return _NUMBERED[spec.kind][0](spec.number)
    if spec.kind == "quaternion":
        return 8
    if spec.kind == "product":
        return _capped_product(_spec_order(part) for part in spec.parts)
    return 1  # file: at least 1; read_table refuses an order above the cap


def _realize(spec: GroupSpec) -> FiniteGroup:
    if spec.kind in _NUMBERED:
        return _NUMBERED[spec.kind][1](spec.number)
    if spec.kind == "quaternion":
        return quaternion_group()
    if spec.kind == "product":
        parts = [_realize(part) for part in spec.parts]
        _check_cap(spec, _capped_product(part.order for part in parts))
        return direct_product(parts)
    return validate_group(read_table(spec.path))


def _check_cap(spec: GroupSpec, order: int) -> None:
    if order > MAX_BUILT_ORDER:
        raise UnsupportedOrder(
            f"spec {spec.raw!r} names a group of order above "
            f"the build cap of {MAX_BUILT_ORDER}"
        )


def build_group(spec: str | GroupSpec) -> FiniteGroup:
    """Build the group a spec string names; file-loaded tables keep their
    identity wherever it sits, products pack their factors' identities, and
    every other built-in constructor puts it at index 0."""
    parsed = parse_group_spec(spec) if isinstance(spec, str) else spec
    _check_cap(parsed, _spec_order(parsed))
    return _realize(parsed)


def parse_aut_spec(spec: str, group: FiniteGroup) -> GroupAutomorphism:
    """Resolve an automorphism spec against an already-built group.

    The whole spec is parsed first, so a syntax error is reported before
    any error about the group.
    """
    cur = _Cursor(spec)
    kind = cur.take_keyword()
    values = []
    if kind in ("perm", "conj"):
        cur.expect(":")
        values.append(cur.take_int())
        while kind == "perm" and cur.peek() == ",":
            cur.expect(",")
            values.append(cur.take_int())
    elif kind not in ("id", "inv"):
        cur.pos = 0
        raise cur.fail(f"unknown automorphism kind {kind!r}")
    if not cur.done():
        raise cur.fail("unexpected trailing characters")

    if kind == "id":
        return identity_automorphism(group)
    if kind == "inv":
        if not is_abelian(group):
            raise NotAbelian("spec 'inv' requires an abelian group")
        return inversion_automorphism(group)
    if kind == "perm":
        return validate_automorphism(group, values)
    g = values[0]
    if not 0 <= g < group.order:
        raise BadElement(g, group.order)
    ginv = group.inverse[g]
    perm = [group.product[group.product[g][x]][ginv] for x in range(group.order)]
    return validate_automorphism(group, perm)
