"""Soundness of the max-beta branch-and-bound: the bound the engine puts on a
child of an (n-2)-row prefix is never below the beta of a unimodular
completion of that child.

The oracle shares nothing with the engine's minor tables or inverse
assembly: minors and adjugates come from numpy determinants of submatrices,
and each child's best completion is confirmed with matrix.adjugate_inverse.

The bound has one place: the filter that keeps the final-depth children of
a prefix (_Generator._survivors) applies it, from the forms of the prefix
that it builds once, before the canonicality test.  Counting wrappers check
that.
"""

import collections
import itertools

import numpy as np
import pytest

from zerofree import engine
from zerofree.engine import (
    ClassQuery,
    _beta_reach,
    _cofactor_matrix,
    _pair_forms,
    enumerate_classes,
    max_beta_search,
)
from zerofree.matrix import IntMatrix, adjugate_inverse


def _space(n, alpha, zeros):
    values = ([0] if zeros else []) + [v for a in range(1, alpha + 1) for v in (a, -a)]
    return np.array(list(itertools.product(values, repeat=n)), dtype=np.int64)


def _dets(stack):
    """Exact determinants of a stack of small integer matrices."""
    if stack.shape[-1] == 0:
        return np.ones(stack.shape[0], dtype=np.int64)
    return np.rint(np.linalg.det(stack.astype(float))).astype(np.int64)


def _column_minors(block, k):
    """Determinants of `block`'s columns T, T over the k-subsets in order."""
    subsets = list(itertools.combinations(range(block.shape[-1]), k))
    return np.stack([_dets(block[..., list(t)]) for t in subsets], axis=-1)


def _betas(mats):
    """max |adj(M)| for a stack of matrices, one n-1 minor at a time."""
    n = mats.shape[-1]
    out = np.zeros(len(mats), dtype=np.int64)
    for i, j in itertools.product(range(n), repeat=2):
        sub = np.delete(np.delete(mats, i, axis=1), j, axis=2)
        out = np.maximum(out, np.abs(_dets(sub)))
    return out


def _check_prefix(alpha, space, prefix):
    """Bound every child of `prefix` (all rows of the space) and compare it
    with the beta of each of its unimodular completions.  Returns the number
    of completions checked."""
    n = space.shape[1]
    q = np.array(prefix, dtype=np.int64).reshape(n - 2, n)
    ladder = [_column_minors(q[:k][None], k)[0] for k in range(n - 1)]
    pairs = np.concatenate([np.broadcast_to(q, (len(space), n - 2, n)), space[:, None]], axis=1)
    grown = _column_minors(pairs, n - 1)
    # the prefix's forms, as the final depth builds them once per batch
    zmap = _cofactor_matrix(n, n - 2, ladder[n - 2]).T
    forms = _pair_forms(n, [tuple(r) for r in q.tolist()], ladder).T
    bound = _beta_reach(alpha, zmap, forms, space, grown)
    # det [q; y; x] is x . c(y), with c(y) the signed cofactors of the last row
    cof = grown[:, ::-1] * np.array([(-1) ** (n - 1 + j) for j in range(n)])
    ys, xs = np.nonzero(np.abs(cof @ space.T) == 1)
    if not len(ys):
        return 0
    mats = np.concatenate([pairs[ys], space[xs][:, None]], axis=1)
    assert (np.abs(_dets(mats)) == 1).all()
    betas = _betas(mats)
    assert (betas <= bound[ys]).all(), "bound below the beta of a completion"
    # the best completion of each child, checked with the exact adjugate
    order = np.lexsort((-betas, ys))
    firsts = order[np.r_[True, ys[order][1:] != ys[order][:-1]]]
    for k in firsts:
        m = IntMatrix(n, tuple(mats[k].ravel().tolist()))
        assert adjugate_inverse(m).max_abs() == betas[k] <= bound[ys[k]]
    return len(ys)


@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("mode", ["zerofree", "unrestricted"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_bound_covers_every_unimodular_completion(n, mode, alpha):
    space = _space(n, alpha, mode == "unrestricted")
    rng = np.random.default_rng(1000 * n + 10 * alpha + (mode == "unrestricted"))
    prefixes, checked = 0, 0
    while prefixes < (1 if n == 2 else 3):
        prefix = space[rng.choice(len(space), n - 2, replace=False)]
        done = _check_prefix(alpha, space, prefix)
        prefixes += done > 0
        checked += done
    assert checked


@pytest.mark.parametrize("mode", ["zerofree", "unrestricted"])
def test_bound_covers_the_whole_n3_space(mode):
    space = _space(3, 2, mode == "unrestricted")
    checked = sum(_check_prefix(2, space, row[None]) for row in space)
    assert checked


def _count_calls(monkeypatch):
    """Count the calls of the final-depth batch, of the filter that keeps
    its children, of its completions and of the two builders of the
    prefix's forms.  A call is also counted under the wrapped call it runs
    in (`"_pair_forms in _survivors"`), and "expanding" counts the
    _completions calls that yield a completion passing inverse column n-2."""
    calls = collections.Counter()
    running = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if running:
                calls[f"{name} in {running[-1]}"] += 1
            running.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                running.pop()

        return wrapper

    for name in ("_pair_forms", "_beta_reach", "canonical_children"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    for name in ("_accept_batch", "_survivors"):
        method = counting(name, getattr(engine._Generator, name))
        monkeypatch.setattr(engine._Generator, name, method)
    completions = engine._Generator._completions

    def flagged(pieces, seen):
        for piece in pieces:
            if len(piece[1]) and not seen:
                seen.append(True)
                calls["expanding"] += 1
            yield piece

    def counted_completions(self, *args):
        calls["_completions"] += 1
        seen = []
        for c0, nodes, pieces in completions(self, *args):
            yield c0, nodes, flagged(pieces, seen)

    monkeypatch.setattr(engine._Generator, "_completions", counted_completions)
    return calls


@pytest.mark.parametrize(
    "n, alpha, mode", [(1, 1, "unrestricted"), (3, 2, "unrestricted"), (4, 2, "unrestricted")]
)
def test_the_final_depth_batch_alone_bounds_from_forms_built_once(monkeypatch, n, alpha, mode):
    # the final-depth filter, _survivors, is the bound's one home: one bound
    # and one set of bilinear forms per call, none elsewhere.  At n = 4 every
    # final-depth batch filters its children; at n <= 3 stage 1 filters the
    # units of n-1 rows, and a unit's batch builds its forms only when it
    # expands a completion.  n = 1 has no child to filter.  Some batches
    # lose every child to the filter and never reach _completions.
    calls = _count_calls(monkeypatch)
    max_beta_search(n, alpha, mode, thread_budget=1)
    assert calls["_accept_batch"] > 0
    assert calls["_beta_reach"] == calls["_beta_reach in _survivors"] == calls["_survivors"]
    assert calls["_pair_forms in _survivors"] == calls["_survivors"]
    assert calls["_pair_forms in _accept_batch"] == (calls["expanding"] if n == 3 else 0)
    if n == 4:
        assert calls["_survivors"] == calls["_survivors in _accept_batch"] == calls["_accept_batch"]
        assert calls["_completions"] < calls["_accept_batch"]
        # a batch with no child left skips the canonicality test
        assert calls["canonical_children in _survivors"] < calls["_survivors"]
    else:
        assert calls["_survivors in _accept_batch"] == 0
    assert (calls["_survivors"] > 0) == (n > 1)


def test_an_enumeration_is_not_bounded(monkeypatch):
    # every batch filters its children, by canonicality alone, and builds
    # its bilinear forms only when some completion passes column n-2
    calls = _count_calls(monkeypatch)
    enumerate_classes(ClassQuery(4, 3, 3, thread_budget=1))
    assert calls["_accept_batch"] == calls["_survivors in _accept_batch"]
    assert calls["_pair_forms"] == calls["_pair_forms in _accept_batch"] == calls["expanding"] > 0
    assert calls["expanding"] < calls["_completions"] < calls["_accept_batch"]
    assert calls["_beta_reach"] == 0


@pytest.mark.parametrize("mode", ["zerofree", "unrestricted"])
def test_canonicality_sees_only_the_children_the_bound_keeps(monkeypatch, mode):
    # each final-depth batch bounds its children first; the canonicality
    # test then gets exactly the children whose bound reaches the best at
    # the start of the batch, in search order
    n, bounded, best, seen = 4, [], [], collections.Counter()

    def reach(alpha, zmap, forms, cand, grown):
        out = _beta_reach(alpha, zmap, forms, cand, grown)
        bounded.append((cand, out))
        return out

    survivors, canonical_children = engine._Generator._survivors, engine.canonical_children

    def started(self, *args):
        best.append(self.best_beta)
        return survivors(self, *args)

    def checked(ties, cand):
        if len(ties.rows) == n - 2:
            ys, out = bounded[-1]
            assert np.array_equal(cand, ys[out >= best[-1]])
            seen["tested"] += 1
            seen["children"] += len(cand)
        return canonical_children(ties, cand)

    monkeypatch.setattr(engine, "_beta_reach", reach)
    monkeypatch.setattr(engine._Generator, "_survivors", started)
    monkeypatch.setattr(engine, "canonical_children", checked)
    res = max_beta_search(n, 2, mode, thread_budget=1)
    assert res.beta_max == {"zerofree": 26, "unrestricted": 30}[mode]
    assert seen["tested"] > 0
    if mode == "unrestricted":
        # the bound drops children, and whole batches, before the test
        assert seen["tested"] < len(bounded)
        assert seen["children"] < sum(len(ys) for ys, _ in bounded)


def _beta_reach_int64(alpha, zmap, forms, cand, grown):
    """The bound as an int64 product, which numpy runs without BLAS."""
    m, n = cand.shape
    shared = alpha * np.abs(zmap).sum(axis=1).max()
    coef = np.abs(cand @ forms.reshape(-1, n, n).transpose(1, 0, 2).reshape(n, -1))
    bilinear = alpha * coef.reshape(m, -1, n).sum(axis=2).max(axis=1, initial=0)
    return np.maximum(np.abs(grown).max(axis=1), np.maximum(bilinear, shared))


def test_the_float64_bound_equals_the_int64_one_on_every_batch(monkeypatch):
    # the maxbeta_4x4 benchmark's search: every bound is an integer far
    # below 2^53, so the float64 product gives it exactly
    batches = []

    def compared(alpha, zmap, forms, cand, grown):
        out = _beta_reach(alpha, zmap, forms, cand, grown)
        assert out.dtype == np.float64
        assert np.array_equal(out, _beta_reach_int64(alpha, zmap, forms, cand, grown))
        batches.append(len(cand))
        return out

    monkeypatch.setattr(engine, "_beta_reach", compared)
    assert max_beta_search(4, 2, "unrestricted", thread_budget=1).beta_max == 30
    assert len(batches) > 300 and sum(batches) > 40_000
