"""Structural ordering, group action, and canonical representatives."""

import collections
import itertools
import math
import random

import numpy as np
import pytest

from zerofree import canonical
from zerofree.canonical import (
    CanonicalClass,
    GroupElement,
    ZeroEntryError,
    apply,
    canonical_children,
    canonical_form,
    canonical_form_oracle,
    children_verdicts,
    extend_ties,
    flatten_key,
    inverse_class,
    key_big,
    minimize_rows,
    orbit_equivalent,
    prefix_ties,
    random_zerofree_matrix,
    structural_cmp,
    structural_key,
)
from zerofree.matrix import IntMatrix, adjugate_inverse, classify, det

from known_values import KNOWN_CLASSES


def brute_force_canonical_2x2(m: IntMatrix) -> IntMatrix:
    """Independent n=2 oracle: scan all (2^2 * 2!)^2 = 64 group elements."""
    best = None
    for rp in itertools.permutations(range(2)):
        for rs in itertools.product((1, -1), repeat=2):
            for cp in itertools.permutations(range(2)):
                for cs in itertools.product((1, -1), repeat=2):
                    g = GroupElement(rp, rs, cp, cs)
                    cand = apply(g, m)
                    key = flatten_key(cand)
                    if best is None or key < best[0]:
                        best = (key, cand)
    return best[1]


# -- structural ordering ---------------------------------------------------


@pytest.mark.parametrize(
    "a,b,expected",
    [(1, 2, -1), (5, -1, -1), (-1, -2, -1), (3, 3, 0), (2, 1, 1), (-3, -2, 1), (-1, 5, 1)],
)
def test_structural_cmp(a, b, expected):
    assert structural_cmp(a, b) == expected


def test_structural_cmp_rejects_zero():
    with pytest.raises(ZeroEntryError):
        structural_cmp(0, 1)
    with pytest.raises(ZeroEntryError):
        structural_key(0)


def test_structural_order_chain():
    chain = [1, 2, 3, 4, 5, -1, -2, -3, -4, -5]
    assert sorted(chain, key=structural_key) == chain


# -- group action ----------------------------------------------------------


def test_apply_identity():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert apply(GroupElement.identity(2), m) == m


def test_apply_row_swap():
    g = GroupElement((1, 0), (1, 1), (0, 1), (1, 1))
    m = IntMatrix.from_rows([[1, 1], [1, 2]])
    assert apply(g, m).rows() == [(1, 2), (1, 1)]


def test_apply_sign_flips():
    # negate row 2 and column 2: the (2,2) entry is negated twice
    g = GroupElement((0, 1), (1, -1), (0, 1), (1, -1))
    m = IntMatrix.from_rows([[1, 1], [1, 2]])
    assert apply(g, m).rows() == [(1, -1), (-1, 2)]


def test_group_axioms_on_random_samples():
    rng = random.Random(2001)
    for _ in range(50):
        n = rng.randint(2, 5)
        g = GroupElement.random(n, rng)
        h = GroupElement.random(n, rng)
        k = GroupElement.random(n, rng)
        m = random_zerofree_matrix(n, rng)
        # composition agrees with sequential application
        assert apply(g.compose(h), m) == apply(g, apply(h, m))
        # associativity
        assert g.compose(h).compose(k) == g.compose(h.compose(k))
        # identity and inverses
        assert g.compose(g.inverse()) == GroupElement.identity(n)
        assert g.inverse().compose(g) == GroupElement.identity(n)
        assert apply(g.inverse(), apply(g, m)) == m


def test_action_determinant_sign():
    rng = random.Random(2002)
    for _ in range(40):
        n = rng.randint(2, 4)
        g = GroupElement.random(n, rng)
        m = random_zerofree_matrix(n, rng)
        assert abs(det(apply(g, m))) == abs(det(m))


def test_action_preserves_classification():
    rng = random.Random(2003)
    seen = 0
    while seen < 40:
        n = rng.randint(2, 3)
        m = random_zerofree_matrix(n, rng, max_abs=2)
        g = GroupElement.random(n, rng)
        stats = classify(m)
        moved = classify(apply(g, m))
        if stats is None:
            assert moved is None
        else:
            assert moved is not None
            assert (moved.alpha, moved.beta) == (stats.alpha, stats.beta)
            seen += 1


# -- canonical form --------------------------------------------------------


def test_canonical_form_simple():
    m = IntMatrix.from_rows([[2, 1], [1, 1]])
    expected = IntMatrix.from_rows([[1, 1], [1, 2]])
    assert canonical_form(m) == expected
    assert brute_force_canonical_2x2(m) == expected


def test_canonical_form_negated_rows():
    assert canonical_form(IntMatrix.from_rows([[-1, -1], [-1, -2]])) == IntMatrix.from_rows(
        [[1, 1], [1, 2]]
    )


def test_canonical_form_fixed_point():
    m = IntMatrix.from_rows([[1, 2], [2, 3]])
    assert canonical_form(m) == m


def test_canonical_form_rejects_zero():
    with pytest.raises(ZeroEntryError):
        canonical_form(IntMatrix.from_rows([[1, 0], [1, 1]]))


def test_canonical_matches_2x2_brute_force():
    rng = random.Random(2004)
    for _ in range(200):
        m = random_zerofree_matrix(2, rng)
        assert canonical_form(m) == brute_force_canonical_2x2(m)


def test_canonical_idempotent():
    rng = random.Random(2005)
    for n in (2, 3, 4):
        for _ in range(50):
            c = canonical_form(random_zerofree_matrix(n, rng))
            assert canonical_form(c) == c


def test_canonical_constant_on_orbits():
    rng = random.Random(2006)
    for n in (2, 3, 4):
        for _ in range(40):
            m = random_zerofree_matrix(n, rng)
            g = GroupElement.random(n, rng)
            assert canonical_form(apply(g, m)) == canonical_form(m)


def test_canonical_minimality():
    rng = random.Random(2007)
    for n in (2, 3, 4):
        for _ in range(60):
            m = random_zerofree_matrix(n, rng)
            c = canonical_form(m)
            assert flatten_key(c) <= flatten_key(m)
            if flatten_key(c) == flatten_key(m):
                assert c == m


def test_abs_multiset_is_orbit_invariant():
    rng = random.Random(2008)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = random_zerofree_matrix(n, rng)
        c = canonical_form(m)
        assert sorted(abs(e) for e in c.entries) == sorted(abs(e) for e in m.entries)


# -- brute-force oracle ----------------------------------------------------


def test_oracle_small_fixed_points():
    m = IntMatrix.from_rows([[1, 1], [1, 2]])
    assert canonical_form_oracle(m) == m
    unique_3x3 = IntMatrix.from_rows([[1, 2, 2], [2, 1, 2], [2, 2, 3]])
    assert canonical_form_oracle(unique_3x3) == unique_3x3


def test_oracle_agreement_1000_random_3x3():
    rng = random.Random(2009)
    for _ in range(1000):
        m = random_zerofree_matrix(3, rng)
        assert canonical_form(m) == canonical_form_oracle(m)


def test_oracle_rejects_large_n():
    with pytest.raises(ValueError):
        canonical_form_oracle(IntMatrix(6, (1,) * 36))


@pytest.mark.long_run
def test_oracle_agreement_spot_samples_5x5():
    rng = random.Random(2010)
    for _ in range(5):
        m = random_zerofree_matrix(5, rng)
        assert canonical_form(m) == canonical_form_oracle(m)


# Symmetric 1/2 patterns: their automorphisms keep many interchangeable tie
# states at every level, which the search merges.  Each also comes with its
# first entry negated: that keeps much of the symmetry but makes the signs
# matter, so a merge that confuses states differing in signs shows.
def _circulant(n, offsets):
    entries = (2 if (j - i) % n in offsets else 1 for i in range(n) for j in range(n))
    return IntMatrix(n, tuple(entries))


def _blocks(n):
    h = n // 2
    return IntMatrix(n, tuple(2 if (i < h) == (j < h) else 1 for i in range(n) for j in range(n)))


def _symmetric_patterns(n):
    offsets = [(), (0,), (0, 1), (0, 2)]
    plain = [_circulant(n, o) for o in offsets] + [_blocks(n)]
    return plain + [IntMatrix(n, (-p.entries[0],) + p.entries[1:]) for p in plain]


@pytest.mark.parametrize("n", [3, 4])
def test_oracle_agreement_on_signed_images_of_symmetric_patterns(n):
    rng = random.Random(2013 + n)
    for pattern in _symmetric_patterns(n):
        for _ in range(8):
            m = apply(GroupElement.random(n, rng), pattern)
            assert canonical_form(m) == canonical_form_oracle(m)


@pytest.mark.long_run
def test_oracle_agreement_on_signed_images_of_symmetric_patterns_5x5():
    # every image of a pattern lies in one orbit, so one oracle call serves all
    rng = random.Random(2018)
    for pattern in _symmetric_patterns(5):
        images = [apply(GroupElement.random(5, rng), pattern) for _ in range(4)]
        expected = canonical_form_oracle(images[0])
        assert all(canonical_form(m) == expected for m in images)


def test_merge_keeps_one_tie_state_per_level_on_2i_plus_j_and_j(monkeypatch):
    # unmerged, 2I+J and J keep n!/(n-d)! states after level d, one per
    # arrangement; every such state is interchangeable with every other
    kept = []
    merge = canonical._merge_ties

    def counted(states, rows):
        out = merge(states, rows)
        kept.append(len(out))
        return out

    monkeypatch.setattr(canonical, "_merge_ties", counted)
    rng = random.Random(2019)
    for n in (6, 7):
        for offsets in ((0,), ()):
            kept.clear()
            canonical_form(apply(GroupElement.random(n, rng), _circulant(n, offsets)))
            assert kept and set(kept) == {1}
    # the Fano circulant: 7, 42 and 168 states unmerged after levels 0..2
    kept.clear()
    canonical_form(apply(GroupElement.random(7, rng), _circulant(7, (0, 1, 3))))
    assert kept and max(kept) <= 7


def _unmerged(states, rows):
    return states


def _random_block(n, k, rng, zeros):
    values = [x for x in range(-3, 4) if x or zeros]
    rows = []
    while len(rows) < k:
        row = tuple(rng.choice(values) for _ in range(n))
        if any(row):
            rows.append(row)
    return rows


def _symmetric_blocks(n, rng):
    """Signed images of the symmetric patterns and of their 0/1 versions
    (1 -> 0, 2 -> 1), which hold zeros as the engine's blocks do."""
    for pattern in _symmetric_patterns(n):
        zeroed = IntMatrix(n, tuple(x - 1 if x > 0 else x + 1 for x in pattern.entries))
        for m in (pattern, zeroed):
            rows = apply(GroupElement.random(n, rng), m).rows()
            if all(map(any, rows)):
                yield rows
                yield rows[: rng.randint(1, n - 1)]


def _assert_merge_keeps_the_search(monkeypatch, rows, n):
    big = key_big(max(map(abs, itertools.chain.from_iterable(rows))))
    best = canonical._level_search(rows, n, False, big)
    searches = [(rows, False), (rows, True), (best, True)]
    merged = [canonical._level_search(r, n, test, big) for r, test in searches]
    with monkeypatch.context() as patch:
        patch.setattr(canonical, "_merge_ties", _unmerged)
        assert [canonical._level_search(r, n, test, big) for r, test in searches] == merged
    assert merged[2] == best


def _merge_sweep(monkeypatch, seed, per_shape, whole_up_to):
    """Random blocks for n = 3..7, then the symmetric ones; whole symmetric
    blocks only up to n = whole_up_to, since unmerged, the 7x7 identity
    alone takes seconds."""
    rng = random.Random(seed)
    for n in range(3, 8):
        for _ in range(per_shape):
            for zeros in (False, True):
                rows = _random_block(n, rng.randint(1, n), rng, zeros)
                _assert_merge_keeps_the_search(monkeypatch, rows, n)
        for rows in _symmetric_blocks(n, rng):
            if len(rows) < n or n <= whole_up_to:
                _assert_merge_keeps_the_search(monkeypatch, rows, n)


def test_merged_level_search_equals_the_unmerged_one(monkeypatch):
    # n >= 6 has no oracle, so the unmerged search is the reference there
    _merge_sweep(monkeypatch, 2020, 40, 6)


@pytest.mark.long_run
def test_merged_level_search_equals_the_unmerged_one_sweep(monkeypatch):
    for seed in range(2021, 2024):
        _merge_sweep(monkeypatch, seed, 200, 7)


def test_prefix_ties_records_unmerged_levels(monkeypatch):
    # a child's new row is not among the block's rows, so no state may merge
    recorded = []
    search = canonical._level_search

    def recording(rows, ncols, test, big, levels=None):
        out = search(rows, ncols, test, big, levels)
        recorded.append([len(states) for states in levels])
        return out

    def merge(states, rows):
        raise AssertionError("prefix_ties merged tie states")

    shapes = ((5, 3), (5, 4), (6, 5))
    blocks = [(n, k, canonical_form(_circulant(n, (0,))).rows()[:k]) for n, k in shapes]
    monkeypatch.setattr(canonical, "_level_search", recording)
    monkeypatch.setattr(canonical, "_merge_ties", merge)
    for n, k, rows in blocks:
        recorded.clear()
        prefix_ties(rows, n, key_big(2))
        assert recorded == [[math.perm(k, d) for d in range(k)] + [math.factorial(k)]]


# -- tie records carried down the descent ----------------------------------


def _placement_rows(ties):
    return sorted(map(tuple, ties.table.tolist()))


def _children(rows, n, rng, zeros, count):
    """Random candidate rows, and signed column moves of the block's rows,
    which tie with them at some level."""
    values = [x for x in range(-3, 4) if x or zeros]
    cand = [tuple(rng.choice(values) for _ in range(n)) for _ in range(count)]
    if not rows:  # and each one's canonical form, a first row that passes
        cand += [minimize_rows([c], n)[0] for c in cand if any(c)]
    for r in rows:
        for _ in range(count // 4 + 1):
            cand.append(tuple(rng.choice((1, -1)) * r[c] for c in rng.sample(range(n), n)))
    return [c for c in cand if any(c)]


def _assert_derived_records(ties, n, rng, zeros, count, depth, met):
    """Every non-beaten child's record derived from `ties` (extend_ties)
    equals the one prefix_ties searches from scratch, for passed and open
    children alike: the same states per level, the same placements, and so
    the same verdicts on the child's own children; canonical_children gives
    every child minimize_rows' verdict.  The derived records of the first
    canonical children are checked `depth` levels further down the same
    way.  `met`, a Counter, counts the passed and open children."""
    rows = list(ties.rows)
    cand = _children(rows, n, rng, zeros, count)
    block = np.array(cand, dtype=np.int64).reshape(-1, n)
    beaten, open_ = children_verdicts(ties, block)
    searched = children_verdicts(prefix_ties(rows, n, ties.big), block)
    assert (beaten == searched[0]).all() and (open_ == searched[1]).all()
    truth = [minimize_rows(rows + [r], n, True) is not None for r in cand]
    assert canonical_children(ties, block).tolist() == truth
    followed = 0
    for r, b, o, canonical in zip(cand, beaten.tolist(), open_.tolist(), truth):
        if b:
            continue
        met["open" if o else "passed"] += 1
        derived = extend_ties(ties, r)
        # the continued search is an open child's canonicality test, and a
        # passed child is canonical
        assert (derived is not None) == canonical
        assert canonical or o
        if derived is None:
            continue
        scratch = prefix_ties(rows + [r], n, ties.big)
        assert derived.rows == scratch.rows
        assert [len(states) for states in derived.levels] == [len(s) for s in scratch.levels]
        assert [set(states) for states in derived.levels] == [set(s) for s in scratch.levels]
        assert _placement_rows(derived) == _placement_rows(scratch)
        if depth and len(rows) + 2 < n and followed < 2:
            followed += 1
            _assert_derived_records(derived, n, rng, zeros, count, depth - 1, met)


def _derived_sweep(seed, per_shape, count, whole_up_to):
    """Random blocks with and without zeros for n = 3..7, from the empty
    block on, then the symmetric ones; symmetric blocks of more than 4 rows
    only up to n = whole_up_to, since their unmerged levels grow as k!.
    The sweep meets passed and open children."""
    rng = random.Random(seed)
    big = key_big(3)
    met = collections.Counter()
    for n in range(3, 8):
        for zeros in (False, True):
            _assert_derived_records(prefix_ties([], n, big), n, rng, zeros, count, 1, met)
            for _ in range(per_shape):
                block = _random_block(n, rng.randint(1, n - 1), rng, zeros)
                rows = minimize_rows(block, n)
                _assert_derived_records(prefix_ties(rows, n, big), n, rng, zeros, count, 1, met)
        for block in _symmetric_blocks(n, rng):
            rows = minimize_rows(block[: n - 1], n)
            if len(rows) <= 4 or n <= whole_up_to:
                _assert_derived_records(prefix_ties(rows, n, big), n, rng, True, count, 1, met)
    assert met["passed"] and met["open"], met


def test_derived_tie_records_equal_the_searched_ones():
    _derived_sweep(2030, 4, 12, 5)


@pytest.mark.long_run
def test_derived_tie_records_equal_the_searched_ones_sweep():
    # at n = 7 a symmetric block of 5 or 6 rows keeps up to 6! states a
    # level unmerged, and the scratch search of each child takes seconds
    for seed in range(2031, 2034):
        _derived_sweep(seed, 20, 20, 6)


# -- orbit equivalence -----------------------------------------------------


def test_orbit_equivalent_by_construction():
    rng = random.Random(2011)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = random_zerofree_matrix(n, rng)
        g = GroupElement.random(n, rng)
        assert orbit_equivalent(m, apply(g, m))
        assert orbit_equivalent(m, m)


def test_distinct_classes_not_equivalent():
    a = IntMatrix.from_rows([[1, 2], [2, 3]])
    b = IntMatrix.from_rows([[1, 2], [1, 3]])
    assert not orbit_equivalent(a, b)


def test_transpose_not_in_group():
    a = IntMatrix.from_rows(KNOWN_CLASSES[(7, 2, 2)][0])
    b = IntMatrix.from_rows(KNOWN_CLASSES[(7, 2, 2)][1])
    assert a.transpose().entries == b.entries
    assert not orbit_equivalent(a, b)


# -- inverse classes -------------------------------------------------------


def test_inverse_class_pairs():
    c = CanonicalClass.from_matrix(IntMatrix.from_rows([[1, 1, 1], [1, 2, 3], [1, 3, 4]]))
    assert (c.stats.alpha, c.stats.beta) == (4, 3)
    inv = inverse_class(c)
    assert inv.rep == IntMatrix.from_rows([[1, 1, 1], [1, 2, -1], [2, 3, -1]])
    assert (inv.stats.alpha, inv.stats.beta) == (3, 4)

    c = CanonicalClass.from_matrix(IntMatrix.from_rows([[2, 2, 3], [2, 3, 4], [3, 4, 5]]))
    inv = inverse_class(c)
    assert inv.rep == IntMatrix.from_rows([[1, 1, 2], [1, -2, -2], [2, -2, -1]])


def test_inverse_class_self_paired():
    c = CanonicalClass.from_matrix(IntMatrix.from_rows([[1, 1], [1, 2]]))
    assert inverse_class(c) == c
    # cross-check by brute force on the raw inverse
    raw_inv = adjugate_inverse(c.rep)
    assert brute_force_canonical_2x2(raw_inv) == c.rep


def test_inverse_class_is_involution():
    rng = random.Random(2012)
    seen = 0
    while seen < 30:
        n = rng.randint(2, 4)
        m = random_zerofree_matrix(n, rng, max_abs=2)
        if classify(m) is None:
            continue
        c = CanonicalClass.from_matrix(m)
        assert inverse_class(inverse_class(c)) == c
        assert (inverse_class(c).stats.alpha, inverse_class(c).stats.beta) == (
            c.stats.beta,
            c.stats.alpha,
        )
        seen += 1


def test_canonical_class_requires_zerofree_unimodular():
    with pytest.raises(ValueError):
        CanonicalClass.from_matrix(IntMatrix.from_rows([[1, 1], [1, 3]]))


def test_canonical_class_positivity():
    c = CanonicalClass.from_matrix(IntMatrix.from_rows([[-1, -1], [-1, -2]]))
    assert c.stats.positive  # the representative is positive even if the input is not


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: GroupElement((0, 1), (1,), (0, 1), (1, 1)), "lengths disagree", id="lengths"
        ),
        pytest.param(
            lambda: GroupElement((0, 0), (1, 1), (0, 1), (1, 1)), "permutations", id="perm"
        ),
        pytest.param(lambda: GroupElement((0, 1), (1, 2), (0, 1), (1, 1)), "signs", id="signs"),
        pytest.param(
            lambda: GroupElement.identity(2).compose(GroupElement.identity(3)),
            "dimension mismatch",
            id="compose",
        ),
        pytest.param(
            lambda: apply(GroupElement.identity(2), IntMatrix.identity(3)), "applied", id="apply"
        ),
        pytest.param(
            lambda: orbit_equivalent(IntMatrix(1, (1,)), IntMatrix(2, (1, 1, 1, 2))),
            "different dimension",
            id="orbit_equivalent",
        ),
        pytest.param(
            lambda: canonical_form_oracle(IntMatrix(2, (0, 1, 1, 1))), "zero", id="oracle_zero"
        ),
        pytest.param(lambda: prefix_ties([(2, 1)], 2, key_big(2)), "not canonical", id="ties"),
    ],
)
def test_malformed_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
