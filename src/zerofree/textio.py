"""Plain-text matrix serialization: one row-major integer vector per line.

Lines of whitespace- or comma-separated integers round-trip bit-exactly;
'#' starts a comment, so enumeration headers never break a parser that just
wants the matrices.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, fields

from .matrix import IntMatrix


class MatrixParseError(ValueError):
    """Malformed matrix line; message carries the line number when known."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _integer(value, name: str) -> int:
    """A JSON integer field as an int, by operator.index; a JSON boolean,
    which operator.index would read as 0 or 1, is not one."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise MatrixParseError(f"{name} is not an integer: {value!r}") from None


@dataclass(frozen=True)
class MatrixRecord:
    """One enumerated class as it appears on the wire."""

    n: int
    alpha: int
    beta: int
    positive: bool
    entries: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "alpha": self.alpha,
                "beta": self.beta,
                "positive": self.positive,
                "entries": list(self.entries),
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MatrixRecord":
        """The record to_json wrote, checked whole: a JSON object with
        exactly its five keys; n, alpha, beta and the entries read through
        operator.index, as IntMatrix reads entries, and positive a JSON
        boolean; n*n entries, alpha their largest magnitude and positive
        whether every entry is positive.  Any other document raises
        MatrixParseError instead of being coerced or passed on."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError(f"invalid JSON: {exc}") from None
        keys = [f.name for f in fields(cls)]
        if not isinstance(raw, dict) or set(raw) != set(keys):
            raise MatrixParseError(f"not a JSON object with the keys {keys}")
        n, alpha, beta = (_integer(raw[key], key) for key in ("n", "alpha", "beta"))
        positive, entries = raw["positive"], raw["entries"]
        if not isinstance(positive, bool):
            raise MatrixParseError(f"positive is not a boolean: {positive!r}")
        if not isinstance(entries, list):
            raise MatrixParseError(f"entries is not a list: {entries!r}")
        entries = tuple(_integer(x, "entry") for x in entries)
        if n < 1 or len(entries) != n * n:
            raise MatrixParseError(f"{len(entries)} entries for n = {n}")
        if alpha != max(map(abs, entries)):
            raise MatrixParseError(f"alpha {alpha} is not the largest entry magnitude")
        if positive != (min(entries) > 0):
            raise MatrixParseError(f"positive is {positive}, but the entries say otherwise")
        return cls(n, alpha, beta, positive, entries)

    def matrix(self) -> IntMatrix:
        return IntMatrix(self.n, self.entries)


def format_matrix_line(m: IntMatrix) -> str:
    return str(m)


def parse_matrix_line(
    text: str,
    *,
    line_no: int | None = None,
    expect_n: int | None = None,
    require_nonzero: bool = False,
) -> IntMatrix:
    """Parse one row-major vector into a square matrix.

    Every token is an optional sign and ASCII digits.  The dimension is
    inferred as the integer square root of the token count unless expect_n
    pins it.  Distinct diagnostics cover malformed tokens, non-square
    counts, and zero entries in zerofree contexts.
    """
    tokens = text.replace(",", " ").split()
    if not text.isascii() or "_" in text:
        # int() also reads digit-group underscores and non-ASCII digits,
        # which the writer never writes
        for tok in tokens:
            if not tok.isascii() or "_" in tok:
                raise MatrixParseError(f"not an integer: {tok!r}", line_no)
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise MatrixParseError(f"not an integer: {tok!r}", line_no) from None
    if not values:
        raise MatrixParseError("empty matrix line", line_no)
    if expect_n is not None:
        n = expect_n
        if len(values) != n * n:
            raise MatrixParseError(
                f"expected {n * n} entries for n={n}, got {len(values)}", line_no
            )
    else:
        n = math.isqrt(len(values))
        if n * n != len(values):
            raise MatrixParseError(
                f"{len(values)} entries do not form a square matrix", line_no
            )
    if require_nonzero and 0 in values:
        raise MatrixParseError("zero entry in a zerofree context", line_no)
    return IntMatrix(n, tuple(values))


def iter_matrix_lines(lines, *, require_nonzero: bool = False):
    """Yield (line_no, IntMatrix) for every non-comment, non-blank line."""
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, parse_matrix_line(stripped, line_no=line_no, require_nonzero=require_nonzero)
