"""The engine's one Laplace rule against determinants of column subsets.

Every minor, determinant and cofactor the engine computes comes from
`engine._laplace`.  The references here are `matrix.det` on the column
subsets of seeded random integer blocks, indexed in itertools.combinations
order, and never an engine table.
"""

import itertools

import numpy as np
import pytest

from zerofree.engine import _cofactor_matrix, _grow_minors, _laplace, _pair_minors, _prepend_row
from zerofree.matrix import IntMatrix, det


def minors(rows, n: int, size: int) -> np.ndarray:
    """The size-column minors of a block of `size` rows, one per subset."""
    out = []
    for cols in itertools.combinations(range(n), size):
        sub = [[int(row[c]) for c in cols] for row in rows]
        out.append(det(IntMatrix.from_rows(sub)) if sub else 1)
    return np.array(out, dtype=np.int64)


@pytest.mark.parametrize("n", range(1, 8))
def test_expansion_of_a_stacked_block_gives_its_minors(n):
    rng = np.random.default_rng(1000 + n)
    for a in range(n + 1):
        for b in range(n + 1 - a):
            top_rows = rng.integers(-3, 4, (a, n))
            bottom_rows = rng.integers(-3, 4, (b, n))
            top_m, bottom_m = minors(top_rows, n, a), minors(bottom_rows, n, b)
            expected = minors(np.vstack([top_rows, bottom_rows]), n, a + b)
            top, bottom, full, sign = _laplace(n, a, b)
            got = np.zeros_like(expected)
            np.add.at(got, full, sign * top_m[top] * bottom_m[bottom])
            assert got.tolist() == expected.tolist(), (n, a, b)
            # the engine's three readers of the rule
            if b == 1:
                grown = _grow_minors(n, a, top_m, bottom_rows.T)
                assert grown[:, 0].tolist() == expected.tolist(), (n, a)
            if a == 1:
                assert (bottom_m @ _prepend_row(n, b, top_rows[0])).tolist() == expected.tolist()
            if a == b == 1:
                pair = np.kron(top_rows[0], bottom_rows[0]) @ _pair_minors(n)
                assert pair.tolist() == expected.tolist()


@pytest.mark.parametrize("n", range(1, 8))
def test_cofactor_matrix_gives_signed_complementary_minors(n):
    rng = np.random.default_rng(2000 + n)
    m = rng.integers(-3, 4, (n, n))
    for i in range(n):
        cofactors = minors(m[i + 1 :], n, n - 1 - i) @ _cofactor_matrix(n, i, minors(m[:i], n, i))
        expected = []
        for j in range(n):
            sub = np.delete(np.delete(m, i, axis=0), j, axis=1)
            expected.append((-1) ** (i + j) * (det(IntMatrix.from_rows(sub)) if n > 1 else 1))
        assert cofactors.tolist() == expected, (n, i)
