"""Totient, the 2x2 diagonal count formula, and the labeled construction."""

import math

import pytest

from zerofree.canonical import canonical_form
from zerofree.closedform import Prop5Label, prop5_count, prop5_enumerate, totient
from zerofree.engine import ClassQuery, enumerate_classes
from zerofree.matrix import classify, det

from known_values import DIAGONAL_2X2, PROP5_K5_TABLE


def totient_oracle(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def test_totient_small_values():
    assert totient(1) == 1
    assert totient(5) == 4
    assert totient(12) == 4


def test_totient_matches_gcd_count():
    for k in range(1, 200):
        assert totient(k) == totient_oracle(k)


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)


def test_count_formula():
    assert prop5_count(2) == 1
    assert prop5_count(5) == 7
    assert prop5_count(12) == 7
    with pytest.raises(ValueError):
        prop5_count(1)


@pytest.mark.parametrize("k", [1, 0, -3])
def test_enumeration_rejects_k_below_2(k):
    with pytest.raises(ValueError, match="k >= 2"):
        prop5_enumerate(k)


def test_count_is_odd():
    for k in range(2, 60):
        assert prop5_count(k) % 2 == 1


def test_diagonal_sequence_matches_formula():
    assert [prop5_count(k) for k in range(2, 31)] == DIAGONAL_2X2


def test_k5_label_table():
    labeled = prop5_enumerate(5)
    assert len(labeled) == 7
    got = {(lab.epsilon, lab.b): (m[0, 0], m[1, 0]) for lab, m in labeled}
    assert got == PROP5_K5_TABLE
    by_label = {(lab.epsilon, lab.b): m for lab, m in labeled}
    assert by_label[(-1, 4)].rows() == [(3, 4), (4, 5)]
    assert by_label[(1, 1)].rows() == [(1, 1), (4, 5)]


def test_excluded_label():
    labels = {(lab.epsilon, lab.b) for lab, _ in prop5_enumerate(5)}
    assert (-1, 1) not in labels
    with pytest.raises(ValueError):
        Prop5Label(-1, 1, 5)


def test_label_validation():
    with pytest.raises(ValueError):
        Prop5Label(1, 2, 4)  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        Prop5Label(2, 1, 5)  # epsilon not a sign
    with pytest.raises(ValueError):
        Prop5Label(1, 5, 5)  # residue out of range


def test_normal_form_shape():
    for k in range(2, 20):
        labeled = prop5_enumerate(k)
        assert len(labeled) == prop5_count(k)
        for lab, m in labeled:
            (a, b), (c, d) = m.rows()
            assert det(m) == lab.epsilon
            assert min(a, b, c, d) >= 1
            assert d == k > max(a, b, c)
            stats = classify(m)
            assert stats is not None
            assert (stats.alpha, stats.beta) == (k, k)


def test_construction_classes_are_distinct():
    for k in (5, 8, 12):
        reps = {canonical_form(m).entries for _, m in prop5_enumerate(k)}
        assert len(reps) == prop5_count(k)


@pytest.mark.parametrize("k", list(range(2, 13)))
def test_construction_matches_search(k):
    constructed = {canonical_form(m).entries for _, m in prop5_enumerate(k)}
    searched = {
        c.rep.entries for c in enumerate_classes(ClassQuery(2, k, k)).classes
    }
    assert constructed == searched
