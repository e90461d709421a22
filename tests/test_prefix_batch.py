"""The batched prefix-canonicality test against the scalar one: every child
of a canonical prefix gets the verdict of minimize_rows, directly or through
the scalar fallback for children that tie below the last level, which
continues the prefix's level search (extend_ties).  canonical_children runs
both."""

import collections
import itertools

import numpy as np
import pytest

from zerofree import canonical, engine
from zerofree.canonical import (
    canonical_children,
    children_verdicts,
    extend_ties,
    key_big,
    minimize_rows,
    prefix_ties,
)
from zerofree.engine import _Generator, _SearchParams

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _values(alpha, zeros):
    return ([0] if zeros else []) + list(range(1, alpha + 1)) + list(range(-1, -alpha - 1, -1))


def _generator(n, alpha, zeros):
    return _Generator(_SearchParams(n, alpha, None, zerofree=not zeros))


def _check(n, alpha, zeros, rows, cand):
    """Compare the batch verdict and canonical_children with minimize_rows,
    child by child; return the open children and which of them are
    canonical."""
    assert minimize_rows(rows, n, True) == rows
    ties = prefix_ties(rows, n, key_big(alpha))
    beaten, open_ = children_verdicts(ties, cand)
    truth = np.array([minimize_rows(rows + [tuple(r)], n, True) is not None for r in cand.tolist()])
    assert not (beaten & open_).any()
    assert not truth[beaten].any()
    assert truth[~beaten & ~open_].all()
    assert (canonical.canonical_children(ties, cand) == truth).all()
    return open_, truth[open_]


@st.composite
def prefixes_with_children(draw):
    n = draw(st.integers(2, 6))
    alpha = draw(st.sampled_from([2, 3]))
    zeros = draw(st.booleans())
    entry = st.sampled_from(_values(alpha, zeros))
    row = st.lists(entry, min_size=n, max_size=n).map(tuple)
    k = draw(st.integers(1, n - 1))
    rows = minimize_rows(draw(st.lists(row, min_size=k, max_size=k)), n)
    if n <= 3:
        cand = list(itertools.product(_values(alpha, zeros), repeat=n))
    else:
        cand = draw(st.lists(row, min_size=1, max_size=40))
    # signed column moves of the prefix rows tie with them at some level
    moves = st.tuples(
        st.integers(0, k - 1),
        st.permutations(range(n)),
        st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n),
    )
    for i, perm, signs in draw(st.lists(moves, max_size=30)):
        cand.append(tuple(s * rows[i][c] for c, s in zip(perm, signs)))
    return n, alpha, zeros, rows, np.array(cand, dtype=np.int64)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(case=prefixes_with_children())
@hypothesis.example(case=(3, 2, False, [(1, 1, 2), (1, 2, -1)], np.array([[1, -2, 1]])))
@hypothesis.example(case=(3, 2, True, [(0, 1, 2)], np.array([[2, 0, 1], [2, 1, 0]])))
def test_batched_verdict_matches_the_scalar_test(case):
    _check(*case)


# Symmetric prefixes tie with many of their children: all-ones rows,
# circulant and block patterns of 1 and 2.
SYMMETRIC = [
    (3, 2, False, [(1, 1, 1)]),
    (3, 2, False, [(1, 1, 1), (1, 1, 1)]),
    (3, 2, False, [(1, 1, 2), (1, 2, 1)]),
    (3, 2, True, [(0, 1, 2)]),
    (4, 2, False, [(1, 1, 1, 2), (1, 1, 2, 1), (1, 2, 1, 1)]),
    (4, 2, False, [(1, 1, 2, 2), (1, 1, 2, 2)]),
    (4, 3, True, [(0, 1, 1, 1), (1, 0, 1, 1)]),
    (5, 2, False, [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1)]),
    (5, 2, False, [(1, 1, 1, 2, 2), (1, 1, 2, 1, 2), (1, 2, 1, 1, 2)]),
    (6, 2, False, [(1, 1, 1, 2, 2, 2), (1, 1, 1, 2, 2, 2)]),
]


def test_symmetric_prefixes_take_the_scalar_fallback(monkeypatch):
    # the scalar fallback of an open child continues the prefix's level
    # search (extend_ties); canonical_children never searches a child from
    # scratch
    continued, scratch, deciding = [], [], []
    level_search = canonical._level_search

    def counted(ties, row):
        continued.append(len(ties.rows))
        return extend_ties(ties, row)

    def watched(ties, cand):
        deciding.append(True)
        try:
            return canonical_children(ties, cand)
        finally:
            deciding.pop()

    def from_scratch(*args):
        if deciding:
            scratch.append(args)
        return level_search(*args)

    monkeypatch.setattr(canonical, "extend_ties", counted)
    monkeypatch.setattr(canonical, "canonical_children", watched)
    monkeypatch.setattr(canonical, "_level_search", from_scratch)
    opened, open_canonical = 0, 0
    for n, alpha, zeros, block in SYMMETRIC:
        rows = minimize_rows(block, n)
        values = _values(alpha, zeros)
        if n <= 4:
            cand = np.array(list(itertools.product(values, repeat=n)), dtype=np.int64)
        else:
            # every signed column move of every prefix row, and a spread of others
            moves = {
                tuple(s * r[c] for c, s in zip(perm, signs))
                for r in rows
                for perm in itertools.permutations(range(n))
                for signs in itertools.product((1, -1), repeat=n)
            }
            space = _generator(n, alpha, zeros).cols.T.astype(np.int64)
            cand = np.array(sorted(moves) + space[:: len(space) // 200].tolist())
        before = len(continued)
        open_, kept = _check(n, alpha, zeros, rows, cand)
        assert continued[before:] == [len(rows)] * int(open_.sum())
        opened += int(open_.sum())
        open_canonical += int(kept.sum())
    assert opened > 0 and len(continued) == opened and not scratch
    # open children go both ways, so neither verdict is a safe default
    assert 0 < open_canonical < opened


def _enumerate(n, alpha, beta):
    return lambda: engine.enumerate_classes(engine.ClassQuery(n, alpha, beta, thread_budget=1))


def _max_beta(n, alpha, mode):
    return lambda: engine.max_beta_search(n, alpha, mode, thread_budget=1)


@pytest.mark.parametrize(
    "search, n, runs, leaves",
    [
        pytest.param(_enumerate(1, 1, 1), 1, 1, 1, id="enumerate_1_1_1"),
        pytest.param(_enumerate(2, 3, 3), 2, 1, 8, id="enumerate_2_3_3"),
        pytest.param(_enumerate(3, 3, (2, 9)), 3, 1, 204, id="enumerate_3_3_2-9"),
        pytest.param(_enumerate(4, 3, 3), 4, 1, 710, id="enumerate_4_3_3"),
        # the zerofree floor pass, then the unrestricted search; a value-only
        # search tests its one witness, not its leaves
        pytest.param(_max_beta(3, 2, "unrestricted"), 3, 2, 1, id="max_beta_3_2_unrestricted"),
        pytest.param(_max_beta(4, 2, "zerofree"), 4, 1, 1, id="max_beta_4_2_zerofree"),
    ],
)
def test_a_search_runs_one_level_search_from_scratch(monkeypatch, search, n, runs, leaves):
    # the empty prefix's tie record is searched from scratch once per run
    # (every other prefix's record is derived from its parent's; at n = 1
    # the empty prefix's children are leaves, so it has none), and every
    # other from-scratch level search is minimize_rows on a finished
    # matrix: an enumeration leaf or max-beta's witness, never a prefix
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def whole(rows, ncols, test=False):
        assert len(rows) == ncols == n and test
        counts["minimize_rows"] += 1
        return minimize_rows(rows, ncols, test)

    monkeypatch.setattr(canonical, "_level_search", counting("scratch", canonical._level_search))
    monkeypatch.setattr(engine, "prefix_ties", counting("prefix_ties", engine.prefix_ties))
    monkeypatch.setattr(engine, "minimize_rows", whole)
    monkeypatch.setattr(engine, "_run_search", counting("runs", engine._run_search))
    search()
    assert (counts["runs"], counts["prefix_ties"]) == (runs, runs if n > 1 else 0)
    assert (counts["scratch"], counts["minimize_rows"]) == (counts["prefix_ties"] + leaves, leaves)


def test_every_placement_table_the_engine_builds_has_distinct_rows(monkeypatch):
    # placements are not deduplicated: the engine's prefixes pass the gcd
    # test, so their rows are independent, and no two states of one level
    # agree in profiles and signs
    tables = []
    build = canonical.placement_table

    def recorded(ties):
        tables.append(build(ties))
        return tables[-1]

    monkeypatch.setattr(canonical, "placement_table", recorded)
    engine.enumerate_classes(engine.ClassQuery(4, 3, 3, thread_budget=1))
    engine.max_beta_search(4, 2, "unrestricted", thread_budget=1)
    assert len(tables) > 100
    for t in tables:
        assert len(np.unique(t, axis=0)) == len(t)
