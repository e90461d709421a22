"""Exact linear algebra: determinants, adjugate inverses, classification."""

import random

import numpy as np
import pytest

from zerofree.canonical import canonical_form
from zerofree.matrix import (
    ClassStats,
    IntMatrix,
    NotUnimodularError,
    RegimeError,
    adjugate_inverse,
    classify,
    det,
    det_bareiss,
    det_cofactor,
    verify_prop0,
)


def det2_oracle(m: IntMatrix) -> int:
    (a, b), (c, d) = m.rows()
    return a * d - b * c


def det3_oracle(m: IntMatrix) -> int:
    r = m.rows()
    return (
        r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
        - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
        + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0])
    )


def random_matrix(rng, n, lo=-5, hi=5):
    return IntMatrix(n, tuple(rng.randint(lo, hi) for _ in range(n * n)))


# -- determinant -----------------------------------------------------------


def test_det_identity():
    assert det(IntMatrix.identity(3)) == 1


def test_det_2x2_matches_formula():
    m = IntMatrix.from_rows([[1, 1], [1, 2]])
    assert det2_oracle(m) == 1
    assert det(m) == 1


def test_det_3x3_matches_expansion():
    m = IntMatrix.from_rows([[1, 2, 2], [2, 1, 2], [2, 2, 3]])
    assert det3_oracle(m) == -1
    assert det(m) == -1


def test_det_routes_agree_on_random_matrices():
    rng = random.Random(101)
    for n in range(1, 7):
        for _ in range(60):
            m = random_matrix(rng, n)
            assert det_bareiss(m) == det_cofactor(m)


def test_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(102)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = random_matrix(rng, n, -9, 9)
            expected = int(sympy.Matrix(n, n, list(m.entries)).det())
            assert det(m) == expected


# -- adjugate inverse ------------------------------------------------------


def test_inverse_identity():
    assert adjugate_inverse(IntMatrix.identity(4)) == IntMatrix.identity(4)


def test_inverse_2x2():
    m = IntMatrix.from_rows([[1, 1], [1, 2]])
    assert adjugate_inverse(m).rows() == [(2, -1), (-1, 1)]


def test_inverse_3x3():
    m = IntMatrix.from_rows([[1, 2, 2], [2, 1, 2], [2, 2, 3]])
    inv = adjugate_inverse(m)
    assert inv.rows() == [(1, 2, -2), (2, 1, -2), (-2, -2, 3)]
    assert inv.max_abs() == 3


@pytest.mark.parametrize("d", [1, -1])
def test_inverse_1x1(d):
    assert adjugate_inverse(IntMatrix(1, (d,))) == IntMatrix(1, (d,))


def test_inverse_requires_unimodular():
    with pytest.raises(NotUnimodularError):
        adjugate_inverse(IntMatrix.from_rows([[2, 0], [0, 1]]))


def test_inverse_times_matrix_is_identity():
    rng = random.Random(103)
    seen = 0
    while seen < 100:
        n = rng.randint(2, 5)
        m = random_matrix(rng, n, -3, 3)
        if det(m) in (1, -1):
            assert m @ adjugate_inverse(m) == IntMatrix.identity(n)
            assert adjugate_inverse(m) @ m == IntMatrix.identity(n)
            seen += 1


# -- classification --------------------------------------------------------


def test_classify_unique_2x2():
    stats = classify(IntMatrix.from_rows([[1, 1], [1, 2]]))
    assert stats == ClassStats(alpha=2, beta=2, det_sign=1, positive=True)


def test_classify_rejects_zero_entries():
    # unimodular with alpha = beta = 2 but not zerofree
    assert classify(IntMatrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 1, 2]])) is None


def test_classify_alpha3_beta3():
    stats = classify(IntMatrix.from_rows([[1, 1], [2, 3]]))
    assert stats is not None
    assert (stats.alpha, stats.beta) == (3, 3)


def test_classify_rejects_non_unimodular():
    assert classify(IntMatrix.from_rows([[1, 1], [1, 3]])) is None


def test_classify_rejects_zero_in_inverse():
    # unimodular and zero-free itself, but the inverse contains a zero
    m = IntMatrix.from_rows([[1, 1, 1], [1, 2, 1], [1, 1, 2]])
    assert det(m) == 1
    inv = adjugate_inverse(m)
    assert inv.has_zero()
    assert classify(m) is None


def test_classify_of_inverse_swaps_alpha_beta():
    rng = random.Random(104)
    seen = 0
    while seen < 60:
        n = rng.randint(2, 4)
        m = random_matrix(rng, n, -4, 4)
        stats = classify(m)
        if stats is None:
            continue
        inv_stats = classify(adjugate_inverse(m))
        assert inv_stats is not None
        assert (inv_stats.alpha, inv_stats.beta) == (stats.beta, stats.alpha)
        seen += 1


# -- regime checks ---------------------------------------------------------


def test_rejects_oversized_dimension():
    with pytest.raises(RegimeError):
        IntMatrix(9, tuple(1 for _ in range(81)))


def test_rejects_oversized_entries():
    with pytest.raises(RegimeError):
        IntMatrix(2, (2**31 + 1, 1, 1, 1))


def test_rejects_minor_overflow_regime():
    # 7! * (2**9)**7 exceeds the 64-bit minor bound for n = 8
    with pytest.raises(RegimeError):
        IntMatrix(8, (512,) * 64)


def test_square_count_enforced():
    with pytest.raises(ValueError):
        IntMatrix(2, (1, 2, 3))


@pytest.mark.parametrize("entries", [(2.5, 1, 1, 1), (2.0, 1, 1, 1)], ids=["2.5", "2.0"])
def test_float_entries_are_rejected(entries):
    with pytest.raises(TypeError):
        IntMatrix(2, entries)
    with pytest.raises(TypeError):
        IntMatrix.from_rows([entries[:2], entries[2:]])


def test_numpy_integer_entries_are_stored_as_ints():
    m = IntMatrix(2, tuple(np.array([2, 1, 1, 1])))
    assert all(type(e) is int for e in m.entries)
    assert m == IntMatrix(2, (2, 1, 1, 1))
    stats = classify(m)
    assert all(type(v) is int for v in (stats.alpha, stats.beta, stats.det_sign))
    assert canonical_form(m) == canonical_form(IntMatrix(2, (2, 1, 1, 1)))


def test_bool_entries_are_stored_as_ints():
    m = IntMatrix(2, (True, False, False, True))
    assert all(type(e) is int for e in m.entries)
    assert m == IntMatrix.identity(2) and hash(m) == hash(IntMatrix.identity(2))


def test_from_rows_rejects_ragged_rows():
    # four entries would fill a 2x2 matrix, but the rows are not square
    with pytest.raises(ValueError, match="rows must form a square matrix"):
        IntMatrix.from_rows([(1, 2, 3), (4,)])


# -- sign-matrix determinant sweep -----------------------------------------


def test_prop0_n2():
    report = verify_prop0(2)
    assert report.matrices_checked == 16
    assert report.modulus == 2
    assert report.all_divisible
    assert report.det_values == (-2, 0, 2)


def test_prop0_n3():
    report = verify_prop0(3)
    assert report.matrices_checked == 512
    assert report.modulus == 4
    assert report.all_divisible
    assert all(v % 4 == 0 for v in report.det_values)


def test_prop0_n4():
    report = verify_prop0(4)
    assert report.matrices_checked == 65536
    assert report.modulus == 8
    assert report.all_divisible


def test_prop0_rejects_n1():
    with pytest.raises(ValueError):
        verify_prop0(1)


def test_prop0_rejects_large_n():
    with pytest.raises(ValueError):
        verify_prop0(5)


@pytest.mark.parametrize("a, b", [(1, 2), (3, 2)])
def test_product_of_different_dimensions_is_rejected(a, b):
    with pytest.raises(ValueError, match="dimension mismatch"):
        IntMatrix.identity(a) @ IntMatrix.identity(b)
