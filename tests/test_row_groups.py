"""The final depth groups candidate last rows by the cofactors of row n-2.

det(prefix; y; x) = y . z(x), where z(x) holds the cofactors of y's row; z is
linear in x, and (z_i, z_j) at the two columns outside a nonzero
(n-2)-minor of the prefix tells its values apart.  A child's node count is
summed over the groups it hits.  These tests check the identity, the key and
the counts against computations that do not group.
"""

import hashlib
import itertools
import json
from math import factorial

import numpy as np
import pytest

from zerofree import engine
from zerofree.canonical import entry_key
from zerofree.engine import (
    MAX_SEARCH_ALPHA,
    MAX_SEARCH_DIM,
    _cofactor_matrix,
    _Generator,
    _key_columns,
    _ladder,
    _run_search,
    _SearchParams,
)
from zerofree.matrix import IntMatrix, det


def _key_forms(n: int, ladder):
    """The prefix's map x -> z(x) and its key columns, as the final depth
    builds them."""
    zmap = _cofactor_matrix(n, n - 2, ladder[n - 2]).T
    return zmap, _key_columns(n, int(np.flatnonzero(ladder[n - 2])[0]))


def _random_prefix(rng, n: int, zeros: bool):
    """n-2 random rows with entries in -3..3 (0 only if `zeros`) and a
    nonzero (n-2)-minor, with their minor ladder."""
    values = [v for v in range(-3, 4) if zeros or v]
    while True:
        rows = [tuple(int(v) for v in rng.choice(values, n)) for _ in range(n - 2)]
        ladder = _ladder(n, rows)
        if ladder[n - 2].any():
            return rows, ladder, values


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("n", range(2, 8))
def test_row_cofactors_give_the_determinant_and_the_key_tells_them_apart(n, zeros):
    rng = np.random.default_rng(100 * n + zeros)
    for _ in range(4):
        rows, ladder, values = _random_prefix(rng, n, zeros)
        zmap, pick = _key_forms(n, ladder)
        for _ in range(10):
            y, x = rng.choice(values, n), rng.choice(values, n)
            expected = det(IntMatrix.from_rows(rows + [tuple(y.tolist()), tuple(x.tolist())]))
            assert int(y @ zmap @ x) == expected
        assert len(set(pick)) == 2
        # rows that differ by prefix rows share z; mix them with random rows
        xs = rng.choice(values, (300, n))
        prefix = np.array(rows, dtype=np.int64).reshape(n - 2, n)
        shifts = rng.integers(-2, 3, (300, n - 2)) @ prefix
        xs = np.concatenate([xs, xs + shifts])
        z = xs @ zmap.T
        seen = {}
        for key, value in zip(map(tuple, z[:, list(pick)].tolist()), map(tuple, z.tolist())):
            assert seen.setdefault(key, value) == value
        assert len(seen) == len(set(map(tuple, z.tolist())))
        # the prefix rows span the kernel: x plus prefix rows keeps z
        assert (z[:300] == z[300:]).all()


def _bare_generator(space):
    """A _Generator over the rows of `space` alone, whose entries stand in
    for their structural keys."""
    gen = object.__new__(_Generator)
    gen.n, gen.cols, gen.keys_arr = space.shape[1], space.T.astype(float), space
    return gen


def _grouped(space, row, ys):
    """The groups of the rows of `space` below the prefix [row], for the
    children `ys`: their rows' indices in group order, each group's z, and
    the order bits (None if no child needs any)."""
    gen = _bare_generator(space)
    zmap, pick = _key_forms(gen.n, _ladder(gen.n, [row]))
    idx = np.zeros(len(ys), dtype=np.int64)
    z, _, _, ends, xs, first, order = gen._groups(
        [row], zmap, pick, idx, np.array(ys), np.ones(len(space), dtype=bool)
    )
    assert (first == 0).all()
    return [g.tolist() for g in np.split(xs, ends[:-1])], z.T.tolist(), order


def test_groups_rank_keys_too_wide_to_pack_beside_a_place():
    # Below the prefix row (1, 0, 0), z(x) = (0, x2, -x1) and the key is
    # (z_1, z_2).  Rows a and b below have keys 2^31 - 1 and 2^62 + 2^31 - 1:
    # shifted by the two bits a place needs, they would wrap to one word.
    # Ranking the keys first keeps them apart.  The child repeats no pair
    # on which the prefix agrees, so no order bits join the key.
    big = 1 << 31
    space = np.array([[0, 0, 0], [0, big - 1, 0], [0, 0, big]])  # a, then b last
    assert _key_columns(3, int(np.flatnonzero(_ladder(3, [(1, 0, 0)])[1])[0])) == (1, 2)
    groups, z, order = _grouped(space, (1, 0, 0), [(1, 2, 3)])
    assert groups == [[1], [0], [2]]
    assert z == [[0, 0, -(big - 1)], [0, 0, 0], [0, big, 0]]
    assert order is None


def test_groups_rank_keys_too_wide_to_pack_beside_order_bits_and_a_place():
    # Below the prefix row (1, 1, 1) both pairs of neighbouring columns
    # agree, and the child (2, 2, 2) repeats both, so two in-order bits join
    # each key.  The key of the last row, about 2^59, fits beside the two
    # bits a place of 3 rows needs, but not beside two order bits as well:
    # unranked, its word would wrap to a negative number and its group
    # would sort first.
    big = (1 << 30) + 5
    space = np.array([[0, 0, 0], [0, (1 << 29) - 1, 0], [0, 0, big]])
    groups, z, order = _grouped(space, (1, 1, 1), [(2, 2, 2)])
    assert groups == [[1], [0], [2]]
    assert [sum(row) for row in z] == [0, 0, 0]
    bits, need = order
    # row 1 breaks the order of columns 1, 2 only; the child needs both pairs
    assert bits.tolist() == [0b10, 0b11, 0b11]
    assert need.tolist() == [0b11]


def _brute_force_count(space, keys, mags, rows, y_index, tests):
    """Completions x of rows + [y], y = space[y_index], counted with numpy's
    determinant.  x passes the first-row cut, comes at or after y and keeps
    in structural order the columns that agree on rows + [y]; `tests` names
    the ones that apply.  `keys` and `mags` hold the rows' entry keys and
    sorted magnitude keys."""
    n = space.shape[1]
    y = space[y_index]
    ok = np.ones(len(space), dtype=bool)
    if "after" in tests:
        ok[:y_index] = False
    if "first" in tests:
        bound = [entry_key(v) for v in sorted(abs(v) for v in rows[0])]
        ok &= [m >= bound for m in mags]
    if "order" in tests:
        for c in range(n - 1):
            if all(r[c] == r[c + 1] for r in rows) and y[c] == y[c + 1]:
                ok &= keys[:, c] <= keys[:, c + 1]
    stacked = np.broadcast_to(np.array(rows + [tuple(y)], dtype=float), (len(space), n - 1, n))
    full = np.concatenate([stacked, space[:, None, :].astype(float)], axis=1)
    return int(np.count_nonzero(ok & (np.abs(np.rint(np.linalg.det(full))) == 1)))


def _run_batches(p, prefixes, wanted):
    """(rows, {child index: node count}) for the first `wanted` final-depth
    batches below `prefixes`, taken spread out over the list."""
    batches = []
    for rows, first, last, parent in prefixes[:: max(1, len(prefixes) // (50 * wanted))]:
        gen = _Generator(p)
        completions = gen._completions

        def record(rows, zmap, pick, idx, ys, base_mask):
            for c0, nodes, pieces in completions(rows, zmap, pick, idx, ys, base_mask):
                batches.append((rows, dict(zip(idx[c0:].tolist(), nodes.tolist()))))
                yield c0, nodes, pieces

        gen._completions = record
        gen.run_subtree(rows, first, last, parent)
        if len(batches) >= wanted:
            break
    assert len(batches) == wanted
    return batches


# In a zerofree search no child repeats a pair of columns on which its prefix
# agrees: the minors of rows + [y] over both columns vanish, and they are
# inverse column n-1.  So only searches with zeros ask x for a column order.
@pytest.mark.parametrize(
    "n, alpha, beta_cap, zeros, wanted, moving",
    [
        (4, 3, 3, False, 30, {"after", "first"}),
        (4, 2, None, True, 30, {"after", "first", "order"}),
        (5, 2, 3, False, 8, {"after", "first"}),
    ],
)
def test_node_counts_match_a_brute_force_count(n, alpha, beta_cap, zeros, wanted, moving):
    p = _SearchParams(n, alpha, beta_cap, zerofree=not zeros)
    prefixes = _Generator(p).run_prefixes(n - 2)
    def repeats_a_pair(unit):
        return any(all(r[c] == r[c + 1] for r in unit[0]) for c in range(n - 1))

    # half the batches lie below prefixes with a pair of equal columns, which
    # children that repeat the pair must keep in structural order
    paired = [u for u in prefixes if repeats_a_pair(u)]
    rest = [u for u in prefixes if not repeats_a_pair(u)]
    batches = _run_batches(p, paired, wanted // 2) + _run_batches(p, rest, wanted - wanted // 2)
    space = _Generator(p).cols.T.astype(np.int64)
    keys = np.vectorize(entry_key)(space)
    mags = np.vectorize(entry_key)(np.sort(np.abs(space), axis=1)).tolist()
    # the tests in `moving` each change some count in these batches
    every = {"after", "first", "order"}
    moved = dict.fromkeys(moving, False)
    for rows, counts in batches:
        for y_index, count in counts.items():
            assert count == _brute_force_count(space, keys, mags, rows, y_index, every)
            for test in moved:
                if not moved[test]:
                    fewer = _brute_force_count(space, keys, mags, rows, y_index, every - {test})
                    moved[test] = count != fewer
    assert all(moved.values()), moved


def test_group_keys_fit_an_int64_on_every_admitted_space():
    # |z_i| <= (n-1)! * alpha^(n-1), so the shifted pair (z_i, z_j) packs into
    # fewer than (2 (n-1)! alpha^(n-1) + 1)^2 values on every space _space
    # admits; wider keys are ranked before the order bits and a row's place
    # join them
    worst = 0
    for n in range(1, MAX_SEARCH_DIM + 1):
        for alpha in range(1, MAX_SEARCH_ALPHA + 1):
            for zeros, positive_only in itertools.product([False, True], repeat=2):
                if ((1 if positive_only else 2) * alpha + zeros) ** n <= engine._MAX_SPACE:
                    worst = max(worst, (2 * factorial(max(n - 1, 0)) * alpha ** (n - 1) + 1) ** 2)
    assert worst < 2**63


@pytest.mark.parametrize("thread_budget", [1, 2])
def test_first_three_units_of_the_5_2_value_search_with_zeros(thread_budget):
    # The unrestricted max-beta search is where children repeat a pair of
    # columns that their prefix agrees on, so the last row must keep it in
    # structural order: 252 of the 2,565 final-depth children of these units
    # do.  The digest of the kept buckets was taken before the order joined
    # the group keys.
    p = _SearchParams(5, 2, None, zerofree=False)
    result = _run_search(p, thread_budget=thread_budget, stop_after_units=3)
    assert result.nodes == 540_623
    assert not result.complete
    assert sorted(result.buckets) == [(2, 26), (2, 52), (2, 78)]
    assert hashlib.sha256(json.dumps(sorted(result.buckets.items())).encode()).hexdigest() == (
        "b852ed61e5c5ad5b80078e44ed2e6c04f9ad2aa53eb2358571375859a8b059d9"
    )
