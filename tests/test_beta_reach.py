"""Soundness of the max-beta branch-and-bound: the bound the engine puts on a
child of an (n-2)-row prefix is never below the beta of a unimodular
completion of that child.

The oracle shares nothing with the engine's minor tables or inverse
assembly: minors and adjugates come from numpy determinants of submatrices,
and each child's best completion is confirmed with matrix.adjugate_inverse.
"""

import itertools

import numpy as np
import pytest

from zerofree.engine import _beta_reach
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
    bound = _beta_reach(alpha, [tuple(r) for r in q.tolist()], ladder, space, grown)
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
