"""Soundness of the max-beta branch-and-bound: the bound the engine puts on a
child of an (n-2)-row prefix is never below the beta of a unimodular
completion of that child.

The oracle shares nothing with the engine's minor tables or inverse
assembly: minors and adjugates come from numpy determinants of submatrices,
and each child's best completion is confirmed with matrix.adjugate_inverse.

The bound has one place: the one child filter (_Generator._survivors)
applies it to the children of every prefix of n-2 rows, from the forms of
the prefix that it builds once, before the canonicality test, and the
final-depth batch gets only the children it keeps.  Counting wrappers check
that.
"""

import collections
import itertools

import numpy as np
import pytest

from zerofree import engine
from zerofree.canonical import minimize_rows
from zerofree.engine import (
    ClassQuery,
    _beta_reach,
    _cofactor_matrix,
    _pair_forms,
    _zmap,
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
    """Count the calls of the child filter, of the tie records it derives,
    of the final-depth batch and its completions, and of the builders of
    the prefix's forms.  A call is also counted under the wrapped call it
    runs in (`"_pair_forms in _survivors"`).  For the filter calls on
    prefixes of n-2 rows, "last prefixes" counts them, "bounded" those
    that ran the bound, "kept prefixes" those with some child left and
    "kept children" those children.  "expanding" counts the _completions
    calls that yield a completion passing inverse column n-2.

    Every batch is checked as it starts: its rows are a prefix of n-2 rows,
    and every child it gets is canonical and, in a value-only search, has a
    bound, recomputed here, that reaches the running best: a batch runs
    right after its filter, or is a unit that starts at the floor."""
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

    survivors, accept = engine._Generator._survivors, engine._Generator._accept_batch

    def filtered(self, rows, ladder, cand, grown, parent):
        keep, ties, bound = survivors(self, rows, ladder, cand, grown, parent)
        if len(rows) + 2 == self.n:
            calls["last prefixes"] += 1
            calls["bounded"] += bound is not None
            calls["kept prefixes"] += bool(keep.any())
            calls["kept children"] += int(keep.sum())
        return keep, ties, bound

    def checked(self, rows, ladder, idx, grown, base_mask, bound=None):
        n = self.n
        assert len(rows) == max(n - 2, 0) and len(idx)
        if n > 1:
            ys = self._rows(idx)
            for y in ys.tolist():
                assert minimize_rows(rows + [tuple(y)], n, True) is not None
            if self.p.beta_cap is None:
                forms = _pair_forms(n, rows, ladder).T
                reach = _beta_reach(self.p.alpha, _zmap(n, ladder), forms, ys, grown)
                assert (reach >= self.best_beta).all()
                assert bound is None or np.array_equal(bound[0], reach)
        return accept(self, rows, ladder, idx, grown, base_mask, bound)

    for name in ("_zmap", "_pair_forms", "_beta_reach", "canonical_children"):
        monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
    for name, method in (
        ("_survivors", filtered),
        ("_accept_batch", checked),
        ("_ties", engine._Generator._ties),
    ):
        monkeypatch.setattr(engine._Generator, name, counting(name, method))
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


def _assert_one_child_filter(calls, n):
    """The filter alone derives tie records and tests canonicality, a
    record only for a prefix with some child left, and every batch it
    keeps is finished once: below each prefix of n-2 rows with a child
    left at n = 4, as each unit, one kept child, at n = 3, and as the
    empty prefix's one unit per search at n = 1."""
    assert calls["_ties"] == calls["_ties in _survivors"] == calls["canonical_children"]
    assert calls["canonical_children"] == calls["canonical_children in _survivors"]
    assert calls["_completions"] == calls["_accept_batch"] > 0
    assert (calls["_survivors"] > 0) == (n > 1)
    if n == 4:
        assert calls["_accept_batch"] == calls["kept prefixes"] < calls["last prefixes"]
    if n == 3:
        assert calls["_accept_batch"] == calls["kept children"]


@pytest.mark.parametrize(
    "n, alpha, mode", [(1, 1, "unrestricted"), (3, 2, "unrestricted"), (4, 2, "unrestricted")]
)
def test_the_final_depth_batch_alone_bounds_from_forms_built_once(monkeypatch, n, alpha, mode):
    # the child filter is the bound's one home: one bound and one build of
    # each form per prefix of n-2 rows.  A batch the filter bounded reuses
    # the forms; a unit of n-1 rows (n = 3) builds zmap, and its bilinear
    # forms only when it expands a completion.  n = 1 has no child to filter.
    calls = _count_calls(monkeypatch)
    max_beta_search(n, alpha, mode, thread_budget=1)
    _assert_one_child_filter(calls, n)
    assert calls["_beta_reach"] == calls["_beta_reach in _survivors"] == calls["bounded"]
    assert calls["_pair_forms in _survivors"] == calls["_zmap in _survivors"] == calls["bounded"]
    assert calls["bounded"] == calls["last prefixes"]
    if n == 4:
        # some batch loses every child to the bound: no record, no test
        assert calls["_ties"] < calls["_survivors"]
        assert calls["_pair_forms in _accept_batch"] == calls["_zmap in _accept_batch"] == 0
    if n == 3:
        assert calls["_pair_forms in _accept_batch"] == calls["expanding"] > 0
        assert calls["_zmap in _accept_batch"] == calls["_accept_batch"]


def test_an_enumeration_is_not_bounded(monkeypatch):
    # every filter call tests canonicality alone, and every batch builds
    # zmap, and its bilinear forms only when some completion passes column
    # n-2 (n = 1 takes stand-ins for both)
    for n, alpha, beta in [(1, 1, 1), (3, 3, 5), (4, 3, 3)]:
        with monkeypatch.context() as patch:
            calls = _count_calls(patch)
            enumerate_classes(ClassQuery(n, alpha, beta, thread_budget=1))
        _assert_one_child_filter(calls, n)
        assert calls["_beta_reach"] == calls["bounded"] == 0
        assert calls["_ties"] == calls["_survivors"]
        if n > 1:
            assert calls["_pair_forms"] == calls["_pair_forms in _accept_batch"]
            assert calls["_pair_forms"] == calls["expanding"] > 0
            assert calls["_zmap"] == calls["_zmap in _accept_batch"] == calls["_accept_batch"]
        else:
            assert calls["_pair_forms"] == calls["_zmap"] == 0


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
