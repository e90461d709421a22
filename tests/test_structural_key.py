"""Properties of the one structural key: canonical forms where the key width
steps, and the canonicality test against canonical_form and, on blocks with
zero entries, against minimize_rows."""

import pytest

from zerofree.canonical import canonical_form, canonical_form_oracle, minimize_rows
from zerofree.matrix import IntMatrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Magnitudes on both sides of the steps of the derived key width (7 to 8 bits
# around 128, 32 to 33 bits around 2**31).  The regime bounds
# (n-1)! * max|entry|**(n-1) below 2**63, which allows 2**31 at n = 2 and
# 2**31 - 1 at n = 3.
STEPS = [1, 2, 127, 128, 129, 2**31 - 1, 2**31]
REGIME_MAX = {2: 2**31, 3: 2**31 - 1}


@st.composite
def step_matrices(draw):
    n = draw(st.sampled_from(sorted(REGIME_MAX)))
    values = [v for v in STEPS if v <= REGIME_MAX[n]]
    entry = st.builds(lambda v, s: v * s, st.sampled_from(values), st.sampled_from([1, -1]))
    return IntMatrix(n, tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n))))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(m=step_matrices())
@hypothesis.example(m=IntMatrix(2, (2**31, -(2**31), -(2**31), 2**31)))
@hypothesis.example(m=IntMatrix(3, (-129, 128, -127) * 3))
def test_canonical_form_at_key_width_steps(m):
    c = canonical_form(m)
    assert c == canonical_form_oracle(m)
    assert canonical_form(c) == c
    assert minimize_rows(c.rows(), m.n, True) == c.rows()


@st.composite
def zerofree_matrices(draw):
    n = draw(st.integers(1, 4))
    entry = st.builds(lambda v, s: v * s, st.integers(1, 9), st.sampled_from([1, -1]))
    m = IntMatrix(n, tuple(draw(st.lists(entry, min_size=n * n, max_size=n * n))))
    # half of the draws are canonical, so both verdicts occur
    return canonical_form(m) if draw(st.booleans()) else m


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(m=zerofree_matrices())
def test_canonicality_test_agrees_with_canonical_form(m):
    verdict = minimize_rows(m.rows(), m.n, True)
    assert (verdict is not None) == (canonical_form(m) == m)
    assert verdict is None or verdict == m.rows()


@st.composite
def blocks_with_zeros(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n))
    alpha = draw(st.integers(1, 3))
    row = st.lists(st.integers(-alpha, alpha), min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(row, min_size=k, max_size=k))
    # half of the draws are minimal, so both verdicts occur
    return n, minimize_rows(rows, n) if draw(st.booleans()) else rows


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(case=blocks_with_zeros())
def test_canonicality_test_agrees_with_minimize_rows_on_blocks_with_zeros(case):
    n, rows = case
    verdict = minimize_rows(rows, n, True)
    assert (verdict is not None) == (minimize_rows(rows, n) == rows)
    assert verdict is None or verdict == rows
