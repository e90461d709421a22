"""The interior candidate filter against the gather-first filter it replaced."""

import numpy as np
import pytest

from zerofree import engine
from zerofree.engine import (
    ClassQuery,
    _grow_minors,
    _jacobi_cap,
    enumerate_classes,
    max_beta_search,
)


def gather_first_candidates(gen, rows, minors, base_mask, start):
    """The reference filter: gather every row that passes the masks, grow
    their minors, then run the cap, zero and gcd tests on them."""
    n = gen.n
    depth = len(rows)
    mask = base_mask[start:].copy()
    for c in engine._agreeing(rows, n):
        mask &= gen._in_order(slice(start, None), c)
    idx = np.flatnonzero(mask) + start
    grown = _grow_minors(n, depth, minors, gen.cols[:, idx])
    cap = _jacobi_cap(n, depth + 1, gen.p.alpha, gen.p.beta_cap)
    zero = depth + 1 == n - 1 and gen.p.zerofree
    if cap is not None or zero:
        size = np.abs(grown)
        keep = size.max(axis=0) <= cap if cap is not None else np.ones(len(idx), dtype=bool)
        if zero:
            keep &= size.min(axis=0) > 0
        idx, grown = idx[keep], grown[:, keep]
    grown = grown.astype(np.int64)
    keep = np.gcd.reduce(np.abs(grown), axis=0) == 1
    return idx[keep], grown[:, keep].T


def _compare_filters(monkeypatch, search) -> set[str]:
    """Run `search` with every _candidates call checked against the
    reference; returns which branches ran: "test" for a depth with a cap or
    zero test, "gather" for the others."""
    real = engine._Generator._candidates
    branches = set()

    def checked(gen, rows, minors, base_mask, start):
        got = real(gen, rows, minors, base_mask, start)
        want = gather_first_candidates(gen, rows, minors, base_mask, start)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert np.array_equal(g, w)
        depth = len(rows)
        tested = (
            _jacobi_cap(gen.n, depth + 1, gen.p.alpha, gen.p.beta_cap) is not None
            or (depth + 1 == gen.n - 1 and gen.p.zerofree)
        )
        branches.add("test" if tested else "gather")
        return got

    monkeypatch.setattr(engine._Generator, "_candidates", checked)
    search()
    return branches


def _enumeration(n, alpha, beta, units=None):
    query = ClassQuery(n, alpha, beta, long_run=True, thread_budget=1)
    return lambda: enumerate_classes(query, _stop_after_units=units)


def _max_beta(mode):
    return lambda: max_beta_search(4, 2, mode, thread_budget=1)


SEARCHES = {
    "4_3_3-cap-and-zero": (_enumeration(4, 3, 3), {"test", "gather"}),
    "maxbeta4-zerofree-zero-only": (_max_beta("zerofree"), {"test", "gather"}),
    # no test at any depth, after a zerofree pass that finds the floor
    "maxbeta4-unrestricted-no-test": (_max_beta("unrestricted"), {"test", "gather"}),
    "3_3_5": (_enumeration(3, 3, 5), {"test", "gather"}),
    # the benchmark's slice_5x5 workload; its first unit alone holds 12,449 nodes
    "5_3_3-first-two-units": (_enumeration(5, 3, 3, units=2), {"test", "gather"}),
}


@pytest.mark.parametrize("name", SEARCHES)
def test_candidates_match_the_gather_first_filter(monkeypatch, name):
    search, branches = SEARCHES[name]
    assert _compare_filters(monkeypatch, search) == branches


LONG_SEARCHES = {
    # depths 0 and 1 of n = 7 have no test: the gather branch on the largest slices
    "7_3_3-stage-1": (_enumeration(7, 3, 3, units=0), {"gather"}),
    "6_2_2-first-unit": (_enumeration(6, 2, 2, units=1), {"test", "gather"}),
}


@pytest.mark.long_run
@pytest.mark.parametrize("name", LONG_SEARCHES)
def test_candidates_match_the_gather_first_filter_on_large_searches(monkeypatch, name):
    search, branches = LONG_SEARCHES[name]
    assert _compare_filters(monkeypatch, search) == branches
