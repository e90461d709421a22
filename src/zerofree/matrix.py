"""Exact integer matrices: determinants, adjugate inverses, zerofree classification.

Everything here is pure integer arithmetic.  A matrix is accepted only inside
a regime where every (n-1)x(n-1) minor provably fits in a signed 64-bit word,
so downstream vectorized code (numpy int64) can never overflow silently.
Python-level computations use plain ints and are exact regardless.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from math import factorial

MAX_DIM = 8
MAX_ENTRY = 2**31
_INT64_MAX = 2**63 - 1


class RegimeError(ValueError):
    """Input outside the supported exact-arithmetic regime."""


class NotUnimodularError(ValueError):
    """Matrix determinant is not +1 or -1."""


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Square integer matrix, row-major entries, immutable.

    Entries are bounded so that all minors of size n-1 stay below 2**63:
    (n-1)! * max_abs**(n-1) must fit, which every supported search regime
    (max_abs <= 64, n <= 8) satisfies with a wide margin.  Entries must be
    integers: each is stored as an int (operator.index), so numpy integers
    and bools are converted and floats raise TypeError.
    """

    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DIM:
            raise RegimeError(f"dimension {self.n} outside supported range 1..{MAX_DIM}")
        entries = tuple(map(operator.index, self.entries))
        object.__setattr__(self, "entries", entries)
        if len(entries) != self.n * self.n:
            raise ValueError(f"expected {self.n * self.n} entries, got {len(entries)}")
        amax = max(map(abs, entries), default=0)
        if amax > MAX_ENTRY:
            raise RegimeError(f"entry magnitude {amax} exceeds {MAX_ENTRY}")
        if factorial(self.n - 1) * max(amax, 1) ** (self.n - 1) > _INT64_MAX:
            raise RegimeError(
                f"minor bound (n-1)! * {amax}**{self.n - 1} overflows 64-bit range"
            )

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [tuple(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("rows must form a square matrix")
        return cls(n, tuple(itertools.chain.from_iterable(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.n + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.n : (i + 1) * self.n]

    def rows(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.n)]

    def transpose(self) -> "IntMatrix":
        n = self.n
        return IntMatrix(n, tuple(self.entries[j * n + i] for i in range(n) for j in range(n)))

    def has_zero(self) -> bool:
        return 0 in self.entries

    def max_abs(self) -> int:
        return max(abs(e) for e in self.entries)

    def is_positive(self) -> bool:
        return all(e > 0 for e in self.entries)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        a, b = self.entries, other.entries
        out = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                out[i * n + j] = sum(a[i * n + k] * b[k * n + j] for k in range(n))
        return IntMatrix(n, tuple(out))

    def __str__(self) -> str:
        return " ".join(str(e) for e in self.entries)


def det_cofactor(m: IntMatrix) -> int:
    """Determinant by recursive cofactor expansion along the first row."""
    return _det_cofactor_rows([list(r) for r in m.rows()])


def _det_cofactor_rows(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    sign = 1
    for c, pivot in enumerate(rows[0]):
        if pivot:
            sub = [r[:c] + r[c + 1 :] for r in rows[1:]]
            total += sign * pivot * _det_cofactor_rows(sub)
        sign = -sign
    return total


def det_bareiss(m: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination; exact over ints."""
    n = m.n
    a = [list(r) for r in m.rows()]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division is guaranteed by the Bareiss identity
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det(m: IntMatrix) -> int:
    """Exact determinant; cofactor expansion for n <= 3, Bareiss beyond."""
    if m.n <= 3:
        return det_cofactor(m)
    return det_bareiss(m)


def adjugate_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix via its adjugate.

    Raises NotUnimodularError unless det(m) is +1 or -1.
    """
    d = det(m)
    if d not in (1, -1):
        raise NotUnimodularError(f"determinant is {d}, not +-1")
    n = m.n
    if n == 1:
        return IntMatrix(1, (d,))
    rows = m.rows()
    inv = [0] * (n * n)
    for i in range(n):
        minor_rows = [list(rows[r]) for r in range(n) if r != i]
        for j in range(n):
            sub = [r[:j] + r[j + 1 :] for r in minor_rows]
            cof = (-1) ** (i + j) * _det_cofactor_rows(sub)
            # adjugate transposes the cofactor matrix
            inv[j * n + i] = cof * d
    return IntMatrix(n, tuple(inv))


@dataclass(frozen=True, slots=True)
class ClassStats:
    """Attained entry maxima and sign data for a unimodular zerofree matrix.

    `positive` records whether the classified matrix itself has all entries
    positive; on a canonical representative this is the positivity of the
    whole equivalence class.
    """

    alpha: int
    beta: int
    det_sign: int
    positive: bool


def classify(m: IntMatrix) -> ClassStats | None:
    """Stats of m if it is unimodular and zerofree (in m and its inverse).

    Returns None whenever m has a zero entry, |det| != 1, or the exact
    inverse contains a zero entry.
    """
    if m.has_zero():
        return None
    d = det(m)
    if d not in (1, -1):
        return None
    inv = adjugate_inverse(m)
    if inv.has_zero():
        return None
    return ClassStats(
        alpha=m.max_abs(),
        beta=inv.max_abs(),
        det_sign=d,
        positive=m.is_positive(),
    )


@dataclass(frozen=True)
class Prop0Report:
    """Exhaustive check that n x n sign matrices have determinant = 0 mod 2^(n-1)."""

    n: int
    matrices_checked: int
    modulus: int
    all_divisible: bool
    det_values: tuple[int, ...]


def verify_prop0(n: int) -> Prop0Report:
    """Check every matrix with entries in {-1,+1}: det divisible by 2^(n-1).

    In particular no such matrix is unimodular for n > 1, so any n x n
    unimodular matrix has an entry of magnitude >= 2, and (applying the same
    to the inverse) so does its inverse.  Exhaustion over 2^(n*n) matrices
    is only feasible for n <= 4.
    """
    if not 2 <= n <= 4:
        raise ValueError("exhaustive sign-matrix check supported only for 2 <= n <= 4")
    import numpy as np

    nn = n * n
    count = 1 << nn
    bits = (np.arange(count, dtype=np.int64)[:, None] >> np.arange(nn)) & 1
    mats = (2 * bits - 1).astype(np.int64)  # rows of {-1,+1} entries
    dets = np.zeros(count, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        sign = _perm_sign(perm)
        prod = np.ones(count, dtype=np.int64)
        for i, j in enumerate(perm):
            prod *= mats[:, i * n + j]
        dets += sign * prod
    modulus = 1 << (n - 1)
    all_divisible = bool(np.all(dets % modulus == 0))
    values = tuple(sorted(int(v) for v in np.unique(dets)))
    return Prop0Report(n, count, modulus, all_divisible, values)


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
