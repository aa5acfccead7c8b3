"""Plain-text table files.

Format shared by group and quandle tables: '#' starts a comment, the first
token is the order n, then n*n whitespace-separated indices follow (written
canonically as n rows).  All files are ASCII with LF line endings.
"""

from __future__ import annotations

from pathlib import Path

from .errors import MalformedTable
from .groups import _check_build_cap


def _tokens(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        body = line.split("#", 1)[0]
        out.extend(body.split())
    return out


def _ints(tokens: list[str]) -> list[int]:
    """Token values; as in specs, ASCII digits only: no sign, '_' or other script."""
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise MalformedTable(f"non-integer token {token!r}")
    try:
        return [int(t) for t in tokens]
    except ValueError:  # past the interpreter's digit limit
        raise MalformedTable("integer token has too many digits") from None


def parse_table_text(text: str) -> list[list[int]]:
    """The rows of a table; an order above MAX_BUILT_ORDER is refused before
    the entries are converted, so no caller validates a giant table."""
    tokens = _tokens(text)
    if not tokens:
        raise MalformedTable("file contains no data")
    (n,) = _ints(tokens[:1])
    _check_build_cap(f"table declares order {n},", n)
    body = _ints(tokens[1:])
    if n < 1:
        raise MalformedTable(f"declared order {n} is not positive")
    if len(body) != n * n:
        raise MalformedTable(f"expected {n * n} entries for order {n}, found {len(body)}")
    return [body[i * n : (i + 1) * n] for i in range(n)]


def read_table(path: str | Path) -> list[list[int]]:
    return parse_table_text(Path(path).read_text(encoding="ascii"))


def format_table(table: list[list[int]] | tuple) -> str:
    n = len(table)
    lines = [str(n)]
    lines.extend(" ".join(str(x) for x in row) for row in table)
    return "\n".join(lines) + "\n"
