"""Search engine: class enumeration, scans, extremal searches, checkpoints."""

import concurrent.futures
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
from concurrent.futures import Executor, Future
from dataclasses import replace
from math import factorial

import numpy as np
import pytest

from zerofree import engine
from zerofree.canonical import canonical_form, entry_key, flatten_key, inverse_class, minimize_rows
from zerofree.engine import (
    MAX_SEARCH_ALPHA,
    MAX_SEARCH_DIM,
    CheckpointError,
    ClassQuery,
    IncompleteSearchError,
    TierGateError,
    _Generator,
    _SearchParams,
    _space,
    enumerate_classes,
    load_checkpoint,
    max_beta_search,
    save_checkpoint,
    sequence_scan,
    theoretical_beta_bound,
    verify_conjecture,
)
from zerofree.matrix import IntMatrix, RegimeError, adjugate_inverse, classify, det

from known_values import (
    BETA_THEORETICAL,
    FIVE_TWO_FOUR_HEAD,
    FIVE_TWO_FOUR_VECTORS,
    KNOWN_CLASSES,
    KNOWN_COUNTS,
    SCAN_3_3,
    SCAN_4_2,
)
from semi_oracle import semi_canonical


def naive_classes(n: int, alpha: int) -> dict[tuple[int, int], set]:
    """Completeness oracle: enumerate every entry tuple, filter, canonicalize,
    deduplicate.  Only feasible for tiny (n, alpha)."""
    values = [v for v in range(-alpha, alpha + 1) if v != 0]
    buckets: dict[tuple[int, int], set] = {}
    for entries in itertools.product(values, repeat=n * n):
        m = IntMatrix(n, entries)
        stats = classify(m)
        if stats is None:
            continue
        rep = canonical_form(m)
        buckets.setdefault((stats.alpha, stats.beta), set()).add(rep.entries)
    return buckets


def class_entry_set(result) -> set:
    return {c.rep.entries for c in result.classes}


def as_entry_set(rows_lists) -> set:
    return {IntMatrix.from_rows(rows).entries for rows in rows_lists}


# -- enumeration against reference lists -----------------------------------


@pytest.mark.parametrize(
    "key",
    [(2, 2, 2), (2, 3, 3), (2, 4, 4), (2, 5, 5), (2, 6, 6),
     (3, 3, 3), (3, 3, 4), (3, 4, 3), (3, 2, 5), (3, 5, 2),
     (3, 3, 5), (3, 4, 4), (3, 3, 6), (3, 4, 5),
     (4, 2, 2), (4, 2, 4), (4, 2, 5), (4, 2, 6)],
)
def test_enumerate_matches_reference(key):
    n, alpha, beta = key
    result = enumerate_classes(ClassQuery(n, alpha, beta))
    assert result.complete
    assert class_entry_set(result) == as_entry_set(KNOWN_CLASSES[key])
    assert result.total_count == len(KNOWN_CLASSES[key])


def test_five_by_five_tables_match_an_independent_canonicalizer():
    # (5,2,3) and (5,2,4) are the cheapest 5x5 tables; every emitted
    # representative is also checked against the engine-independent oracle
    small = enumerate_classes(ClassQuery(5, 2, 3, long_run=True))
    assert small.complete
    assert class_entry_set(small) == as_entry_set(KNOWN_CLASSES[(5, 2, 3)])
    large = enumerate_classes(ClassQuery(5, 2, 4, long_run=True))
    assert large.complete
    assert class_entry_set(large) == as_entry_set(FIVE_TWO_FOUR_HEAD) | {
        tuple(v) for v in FIVE_TWO_FOUR_VECTORS
    }
    assert (large.total_count, large.positive_count) == KNOWN_COUNTS[(5, 2, 4)]
    for cls in small.classes + large.classes:
        assert semi_canonical(cls.rep) == cls.rep


def test_empty_cases():
    assert enumerate_classes(ClassQuery(3, 2, 2)).total_count == 0
    assert enumerate_classes(ClassQuery(3, 2, 3)).total_count == 0
    assert enumerate_classes(ClassQuery(3, 2, 4)).total_count == 0


def test_enumerate_n1():
    result = enumerate_classes(ClassQuery(1, 1, 1))
    assert result.total_count == 1
    assert result.classes[0].rep == IntMatrix(1, (1,))
    assert result.nodes_explored == 1


def test_every_emitted_class_is_sound():
    result = enumerate_classes(ClassQuery(3, 3, 5))
    for cls in result.classes:
        assert canonical_form(cls.rep) == cls.rep
        stats = classify(cls.rep)
        assert stats is not None
        assert (stats.alpha, stats.beta) == (3, 5)
        assert stats.positive == cls.stats.positive
        assert adjugate_inverse(cls.rep).max_abs() == 5


def test_output_is_sorted_by_flattening():
    result = enumerate_classes(ClassQuery(3, 4, 4))
    keys = [flatten_key(c.rep) for c in result.classes]
    assert keys == sorted(keys)


def test_count_only_suppresses_matrices():
    full = enumerate_classes(ClassQuery(3, 3, 5))
    counted = enumerate_classes(ClassQuery(3, 3, 5, count_only=True))
    assert counted.classes == ()
    assert counted.total_count == full.total_count == 6
    assert counted.positive_count == full.positive_count


def test_positive_only_restriction():
    full = enumerate_classes(ClassQuery(4, 2, 2))
    positive = enumerate_classes(ClassQuery(4, 2, 2, positive_only=True))
    assert positive.total_count == positive.positive_count == full.positive_count == 1
    assert class_entry_set(positive) == {
        c.rep.entries for c in full.classes if c.stats.positive
    }


# -- completeness oracle ---------------------------------------------------


def test_naive_oracle_agreement_n2():
    for alpha in (2, 3, 4, 5):
        naive = naive_classes(2, alpha)
        for beta in range(2, 2 * alpha * alpha + 1):
            expected = {e for e in naive.get((alpha, beta), set())}
            got = class_entry_set(enumerate_classes(ClassQuery(2, alpha, beta)))
            assert got == expected, (alpha, beta)


def test_naive_oracle_agreement_n3_alpha2():
    naive = naive_classes(3, 2)
    for beta in range(2, 9):
        got = class_entry_set(enumerate_classes(ClassQuery(3, 2, beta)))
        assert got == naive.get((2, beta), set()), beta


@pytest.mark.long_run
def test_naive_oracle_agreement_n3_alpha3():
    naive = naive_classes(3, 3)
    for beta in range(3, 16):
        got = class_entry_set(enumerate_classes(ClassQuery(3, 3, beta)))
        assert got == naive.get((3, beta), set()), beta


# -- scans -------------------------------------------------------------


def test_scan_3_3():
    rows = sequence_scan(3, 3, (3, 15))
    assert [beta for beta, _, _ in rows] == list(range(3, 16))
    assert [count for _, count, _ in rows] == SCAN_3_3


def test_scan_4_2():
    rows = sequence_scan(4, 2, (4, 26))
    assert [count for _, count, _ in rows] == SCAN_4_2


def test_scan_2x2_diagonal_prefix():
    counts = [enumerate_classes(ClassQuery(2, k, k)).total_count for k in range(2, 8)]
    assert counts == [1, 3, 3, 7, 3, 11]


def test_scan_includes_zero_rows():
    rows = sequence_scan(3, 2, (2, 4))
    assert rows == [(2, 0, 0), (3, 0, 0), (4, 0, 0)]


# -- theoretical bound and extremal searches --------------------------------


def test_theoretical_beta_bound_values():
    for n, value in BETA_THEORETICAL.items():
        assert theoretical_beta_bound(n) == value


def test_theoretical_beta_bound_range():
    with pytest.raises(ValueError):
        theoretical_beta_bound(1)
    with pytest.raises(RegimeError):
        theoretical_beta_bound(21)


def test_max_beta_zerofree_n3():
    res = max_beta_search(3, 2, "zerofree")
    assert res.beta_max == 5
    assert res.certified
    stats = classify(res.witness)
    assert stats is not None
    assert (stats.alpha, stats.beta) == (2, 5)


def test_max_beta_unrestricted_n3():
    res = max_beta_search(3, 2, "unrestricted")
    assert res.beta_max == 6
    assert res.certified
    assert det(res.witness) in (1, -1)
    assert res.witness.max_abs() == 2
    assert adjugate_inverse(res.witness).max_abs() == 6


def test_max_beta_unrestricted_2x2_brute_force():
    # independent oracle: scan every 2x2 with entries in -2..2
    best = 0
    for entries in itertools.product(range(-2, 3), repeat=4):
        m = IntMatrix(2, entries)
        if m.max_abs() != 2 or det(m) not in (1, -1):
            continue
        best = max(best, adjugate_inverse(m).max_abs())
    res = max_beta_search(2, 2, "unrestricted")
    assert res.beta_max == best == 2


# (n, mode, beta_max, nodes_explored, witness) at alpha = the witness's
# largest |entry|.  The witness is the first canonical maximiser in search
# order; a process pool must reproduce the serial result exactly.
# Unrestricted nodes include the zerofree pass that sets the pruning floor.
MAX_BETA_WITNESSES = [
    (2, "unrestricted", 2, 19, "0 1 1 2"),
    (2, "zerofree", 2, 4, "1 1 1 2"),
    (3, "zerofree", 5, 42, "1 1 2 1 -2 -2 2 -2 -1"),
    (3, "unrestricted", 6, 555, "0 0 1 0 1 2 1 2 -2"),
    (3, "zerofree", 15, 891, "1 1 2 1 3 3 2 -3 2"),
    (3, "zerofree", 28, 5338, "1 1 2 1 4 3 3 -4 4"),
    (3, "unrestricted", 15, 3802, "0 0 1 1 2 3 1 3 -3"),
    (3, "unrestricted", 28, 13740, "0 0 1 1 3 4 1 4 -4"),
    (4, "zerofree", 26, 4970, "1 1 1 2 1 2 2 1 1 2 -2 -2 2 2 -1 2"),
    (4, "unrestricted", 30, 71372, "0 0 1 1 0 1 2 2 1 2 1 -2 1 -2 2 -2"),
    (2, "zerofree", 3, 12, "1 1 2 3"),
    (2, "unrestricted", 3, 39, "0 1 1 3"),
    (2, "zerofree", 5, 38, "1 1 4 5"),
    (2, "unrestricted", 5, 99, "0 1 1 5"),
    # alpha = 1: the zerofree floor pass finds no leaf, so the floor is 0
    (2, "unrestricted", 1, 9, "0 1 1 0"),
    (3, "unrestricted", 2, 75, "0 0 1 0 1 1 1 1 -1"),
    (4, "unrestricted", 4, 1246, "0 0 0 1 0 0 1 1 0 1 1 -1 1 1 -1 1"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, mode, beta, nodes, witness", MAX_BETA_WITNESSES)
def test_max_beta_witness_regression(n, mode, beta, nodes, witness, threads):
    entries = tuple(int(x) for x in witness.split())
    res = max_beta_search(n, max(map(abs, entries)), mode, thread_budget=threads)
    assert (res.beta_max, res.nodes_explored, res.witness.entries) == (beta, nodes, entries)
    assert res.certified
    assert minimize_rows(res.witness.rows(), n, True) is not None


# (n, alpha, work units of both passes, nodes_explored, witness) of the
# unrestricted search.  At n <= 3 the units hold n-1 rows, and stage 1 keeps
# them by the same filter as a final-depth batch: the bound against the
# floor, then canonicality.  A unit below the floor is never stored or run
# (parent counts without the stage-1 bound: 56, 8,188 and 19,266 units).
@pytest.mark.parametrize(
    "n, alpha, units, nodes, witness",
    [
        (3, 2, 49, 555, "0 0 1 0 1 2 1 2 -2"),
        (3, 5, 5271, 52913, "0 0 1 1 4 5 1 5 -5"),
        pytest.param(3, 6, 11282, 119953, "0 0 1 1 5 6 1 6 -6", marks=pytest.mark.long_run),
    ],
)
def test_stage_1_runs_no_unit_below_the_floor(monkeypatch, n, alpha, units, nodes, witness):
    ran = []
    run_subtree = engine._Generator.run_subtree

    def counted(self, *prefix):
        ran.append(prefix)
        return run_subtree(self, *prefix)

    monkeypatch.setattr(engine._Generator, "run_subtree", counted)
    res = max_beta_search(n, alpha, "unrestricted", thread_budget=1)
    assert (len(ran), res.nodes_explored) == (units, nodes)
    assert res.witness.entries == tuple(int(x) for x in witness.split())
    assert res.certified


@pytest.mark.parametrize("mode", ["zerofree", "unrestricted"])
def test_max_beta_n1(mode):
    res = max_beta_search(1, 1, mode)
    nodes = 1 if mode == "zerofree" else 2  # the zerofree floor pass and its own
    assert (res.beta_max, res.witness.entries, res.nodes_explored) == (1, (1,), nodes)
    assert res.certified


@pytest.mark.parametrize("n", [2, 3, 4])
def test_max_beta_zerofree_alpha_1_has_no_matrix(n):
    # every +-1 matrix with n >= 2 has an even determinant
    with pytest.raises(ValueError, match="no unimodular matrix"):
        max_beta_search(n, 1, "zerofree")


@pytest.mark.parametrize("mode", ["zerofree", "unrestricted"])
def test_value_only_unit_payload_is_one_bucket_in_search_order(mode):
    # a search with no beta cap keeps, per unit, the leaves tied at its best
    # beta, as one "alpha,beta" bucket of (entries, positive, det)
    n, alpha = 3, 2
    p = _SearchParams(n, alpha, None, zerofree=(mode == "zerofree"))
    best = max_beta_search(n, alpha, mode).beta_max
    betas = []
    for prefix in _Generator(p).run_prefixes(2):
        payload = engine._run_unit(p, prefix, None)
        assert set(payload) == {"nodes", "found"}
        assert len(payload["found"]) <= 1
        for key, hits in payload["found"].items():
            a, beta = map(int, key.split(","))
            assert a == alpha and hits
            for entries, positive, d in hits:
                m = IntMatrix(n, tuple(entries))
                assert (m.max_abs(), adjugate_inverse(m).max_abs()) == (alpha, beta)
                assert (positive, d) == (min(entries) > 0, det(m))
            keys = [[entry_key(x) for x in entries] for entries, _, _ in hits]
            assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)
            betas.append(beta)
        # a unit starting from a floor above every beta keeps nothing
        assert engine._run_unit(replace(p, floor=best + 1), prefix, None)["found"] == {}
    assert max(betas) == best


def test_max_beta_requires_best_effort_for_large_n():
    with pytest.raises(TierGateError):
        max_beta_search(6, 2, "zerofree")
    with pytest.raises(TierGateError):
        max_beta_search(6, 2, "zerofree", best_effort=True)  # still needs a node limit


def test_max_beta_bound_consistency():
    res = max_beta_search(3, 2, "zerofree")
    unrestricted = max_beta_search(3, 2, "unrestricted")
    assert res.beta_max <= unrestricted.beta_max <= theoretical_beta_bound(3)


def test_max_beta_rejects_unknown_mode():
    with pytest.raises(ValueError):
        max_beta_search(3, 2, "both")


# -- conjecture reports ------------------------------------------------------


def test_conjecture_1():
    report = verify_conjecture(1)
    assert report.confirmed
    assert report.complete
    assert report.cases == ((3, 2, 2, 0), (3, 2, 3, 0), (3, 2, 4, 0))
    assert report.nodes_explored > 0


def test_conjecture_2():
    report = verify_conjecture(2)
    assert report.confirmed
    assert report.cases == ((4, 2, 3, 0),)


def test_conjecture_3():
    report = verify_conjecture(3)
    assert report.confirmed
    assert report.cases == ((5, 2, 2, 0),)


def test_conjecture_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify_conjecture(4)


# -- inverse-class duality ---------------------------------------------------


@pytest.mark.parametrize("pair", [((3, 3, 4), (3, 4, 3)), ((3, 2, 5), (3, 5, 2)), ((3, 3, 5), (3, 5, 3))])
def test_duality_between_swapped_queries(pair):
    (n, a, b), (n2, b2, a2) = pair
    forward = enumerate_classes(ClassQuery(n, a, b))
    backward = enumerate_classes(ClassQuery(n2, b2, a2))
    assert forward.total_count == backward.total_count
    mapped = {inverse_class(c).rep.entries for c in forward.classes}
    assert mapped == class_entry_set(backward)


# -- node limits, tiers, determinism, checkpoints ----------------------------


def test_node_limit_marks_incomplete():
    full = enumerate_classes(ClassQuery(3, 3, 5))
    limited = enumerate_classes(ClassQuery(3, 3, 5, node_limit=10))
    assert not limited.complete
    assert limited.nodes_explored <= full.nodes_explored


# (4,3,3) spends 80,032 nodes in all: stage 1 alone exceeds 1 and 10, and
# 80,031 stops inside the last unit that spends any.  A truncated result,
# stage 1 included, never reports more nodes than its limit.
@pytest.mark.parametrize("limit", [1, 10, 2400, 5000, 20000, 80031, 80032])
def test_truncation_is_independent_of_thread_budget(limit):
    results = [
        enumerate_classes(ClassQuery(4, 3, 3, thread_budget=threads, node_limit=limit))
        for threads in (1, 2)
    ]
    one, two = (
        (r.nodes_explored, [c.rep.entries for c in r.classes], r.complete) for r in results
    )
    assert one == two
    nodes, classes, complete = one
    assert nodes <= limit
    assert complete == (limit == 80032)
    if complete:
        assert len(classes) == 163


def test_scan_refuses_truncated_counts():
    with pytest.raises(IncompleteSearchError):
        sequence_scan(3, 3, (3, 15), node_limit=10)


def test_tier3_requires_long_run_flag():
    with pytest.raises(TierGateError):
        enumerate_classes(ClassQuery(5, 2, 3))
    with pytest.raises(TierGateError):
        enumerate_classes(ClassQuery(4, 3, 4))
    # a node limit is an acceptable substitute
    result = enumerate_classes(ClassQuery(5, 2, 3, node_limit=5))
    assert not result.complete


def test_gate_lets_only_quick_queries_run_without_long_run_or_a_node_limit():
    grid = itertools.product(range(1, 7), (2, 3, 4), ((2, 2), (3, 3), (3, 4), (2, 5)))
    for n, alpha, beta in grid:
        q = ClassQuery(n, alpha, beta)
        quick = n <= 3 or (n == 4 and (alpha <= 2 or (alpha, beta) == (3, (3, 3))))
        if quick:
            engine._gate(q)
        else:
            with pytest.raises(TierGateError):
                engine._gate(q)
        engine._gate(replace(q, long_run=True))
        engine._gate(replace(q, node_limit=1))


def test_infeasible_regimes_rejected():
    with pytest.raises(RegimeError):
        ClassQuery(8, 2, 2)
    with pytest.raises(RegimeError):
        ClassQuery(4, 65, 65)
    with pytest.raises(RegimeError):
        enumerate_classes(ClassQuery(7, 12, 12, long_run=True))
    with pytest.raises(ValueError):
        ClassQuery(3, 1, 2)


def test_an_empty_beta_range_is_rejected():
    with pytest.raises(ValueError, match="empty beta range"):
        ClassQuery(3, 3, (5, 3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ClassQuery(3, 3, 5.5),
        lambda: ClassQuery(3, 3, (2, 5.0)),
        lambda: ClassQuery(3, 3.0, 5),
        lambda: ClassQuery(3.0, 3, 5),
        lambda: ClassQuery(3, 3, 5, node_limit=10.5),
        lambda: ClassQuery(3, 3, 5, thread_budget=1.0),
        lambda: max_beta_search(3, 2.0),
        lambda: max_beta_search(3.0, 2),
        lambda: max_beta_search(3, 2, best_effort=True, node_limit=10.5),
    ],
    ids=[
        "beta", "beta-range", "alpha", "n", "node-limit", "threads",
        "max-beta-alpha", "max-beta-n", "max-beta-node-limit",
    ],
)
def test_float_search_parameters_are_rejected_before_any_search(monkeypatch, call):
    def searched(*args, **kwargs):
        raise AssertionError("a float parameter reached the search")

    monkeypatch.setattr(engine, "_run_search", searched)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


def test_numpy_integer_search_parameters_are_stored_as_ints():
    beta = (np.int32(2), np.int32(5))
    q = ClassQuery(np.int64(3), np.int64(3), beta, node_limit=np.int64(10**6))
    assert (q.n, q.alpha, q.beta, q.node_limit) == (3, 3, (2, 5), 10**6)
    assert all(type(v) is int for v in (q.n, q.alpha, *q.beta, q.node_limit))
    plain = enumerate_classes(ClassQuery(3, 3, (2, 5)))
    assert [c.rep for c in enumerate_classes(q).classes] == [c.rep for c in plain.classes]
    assert max_beta_search(np.int64(3), np.int64(2)) == max_beta_search(3, 2)


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("n", range(1, 8))
def test_space_rows_follow_the_zero_first_order(n, alpha, zeros):
    # uncached: the n = 7 spaces are large
    cols, _, packed = _space.__wrapped__(n, alpha, zeros, False)[:3]
    rows = cols.T.astype(np.int64)
    assert (rows == cols.T).all()
    order = ([0] if zeros else []) + list(range(1, alpha + 1)) + list(range(-1, -alpha - 1, -1))
    rank_of = np.full(2 * alpha + 1, -1)
    rank_of[np.array(order) + alpha] = np.arange(len(order))
    rank = rank_of[rows + alpha]
    assert rows.shape == (len(order) ** n, n)
    assert (rank >= 0).all()
    # consecutive rows increase strictly at their first differing entry
    before, after = rank[:-1], rank[1:]
    differs = before != after
    assert differs.any(axis=1).all()
    first = differs.argmax(axis=1)
    pairs = np.arange(len(first))
    assert (before[pairs, first] < after[pairs, first]).all()
    assert (np.diff(packed) > 0).all()


# -- the final depth against leaves computed one at a time --------------------


def _keys(row):
    return [entry_key(x) for x in row]


def _final_depth_reference(p: _SearchParams, space, rows):
    """Below one (n-1)-row prefix: the batch of unimodular completions with
    their determinants, the survivors of the inverse column n-2 test with
    that column's largest magnitude, and the leaves that pass every filter
    as (matrix, det, beta).  `space` lists every row with its entry keys and
    sorted magnitudes.  Each completion goes through matrix.det and
    adjugate_inverse on its own."""
    n = p.n
    equal_cols = [c for c in range(n - 1) if all(r[c] == r[c + 1] for r in rows)]

    def fails(magnitudes):
        return (p.zerofree and min(magnitudes) == 0) or (
            p.beta_cap is not None and max(magnitudes) > p.beta_cap
        )

    batch, survivors, leaves = [], [], []
    for row, keys, mags in space:
        if (
            keys < _keys(rows[-1])  # rows of a canonical matrix never decrease
            or mags < _keys(rows[0])  # no row can move before the first
            or any(keys[c] > keys[c + 1] for c in equal_cols)
        ):
            continue
        m = IntMatrix.from_rows(rows + [row])
        d = det(m)
        if abs(d) != 1:
            continue
        batch.append((row, d))
        absinv = [abs(x) for x in adjugate_inverse(m).entries]
        if fails(absinv[n - 2 :: n]):  # inverse column n-2
            continue
        survivors.append((row, d, max(absinv[n - 2 :: n])))
        if fails(absinv):
            continue
        leaves.append((m, d, max(absinv)))
    return batch, survivors, leaves


def _found_reference(p: _SearchParams, value_only: bool, leaves):
    """What the search keeps of the leaves of one batch, in search order:
    the canonical ones, or for a value-only search every leaf attaining
    alpha and the batch's best beta."""
    if value_only:
        attaining = [leaf for leaf in leaves if max(map(abs, leaf[0].entries)) == p.alpha]
        best = max((beta for _, _, beta in attaining), default=0)
        leaves = [leaf for leaf in attaining if leaf[2] == best]
    found = {}
    for m, d, beta in leaves:
        if value_only or canonical_form(m) == m:
            key = f"{max(map(abs, m.entries))},{beta}"
            found.setdefault(key, []).append([list(m.entries), min(m.entries) > 0, d])
    return found


def _final_depth_engine(p: _SearchParams, prefix):
    """Run the search below `prefix` and record, for every child of its
    final-depth batches, its n-1 rows, its node count and its completions
    whose inverse column n-2 passes, with their determinants and that
    column's largest magnitude (all from _completions).  Returns the
    children in search order and the leaves the search keeps."""
    gen = _Generator(p)
    completions = gen._completions
    children = []

    def record(rows, zmap, pick, idx, ys, base_mask):
        for c0, nodes, pieces in completions(rows, zmap, pick, idx, ys, base_mask):
            pieces = list(pieces)
            for k, count in enumerate(nodes.tolist(), c0):
                head = rows + [tuple(ys[k].tolist())]
                survivors = sorted(
                    (x, d, mid)
                    for piece in pieces
                    for c, x, d, mid in zip(*(a.tolist() for a in piece))
                    if c == k
                )
                rows_of = gen._rows([x for x, _, _ in survivors]).tolist()
                survivors = [(tuple(r), d, mid) for r, (_, d, mid) in zip(rows_of, survivors)]
                children.append((head, count, survivors))
            yield c0, nodes, iter(pieces)

    gen._completions = record
    gen.run_subtree(*prefix)
    return children, gen.found


@pytest.mark.parametrize(
    "n, alpha, beta_cap, zeros, value_only",
    [
        (3, 3, 8, False, False),
        (3, 4, 3, False, False),  # a cap below alpha
        (4, 3, 3, False, False),
        (3, 2, None, False, True),
        (3, 2, None, True, True),
        (4, 2, None, False, True),
        (4, 2, None, True, True),
    ],
)
def test_final_depth_matches_leaves_computed_one_by_one(n, alpha, beta_cap, zeros, value_only):
    # a search with no beta cap is the value-only search
    p = _SearchParams(n, alpha, beta_cap, zerofree=not zeros)
    values = ([0] if zeros else []) + [v for a in range(1, alpha + 1) for v in (a, -a)]
    space = [(r, _keys(r), sorted(map(abs, r))) for r in itertools.product(values, repeat=n)]
    space.sort(key=lambda entry: entry[1])
    # prefixes of n-1 rows are batches of one child; prefixes of n-2 rows
    # batch every canonical child of the prefix
    units = _Generator(p).run_prefixes(n - 1)
    prefixes = _Generator(p).run_prefixes(n - 2)
    assert units and prefixes
    sample = units[:: max(1, len(units) // 40)]
    sample += prefixes[1:2] + prefixes[:: max(1, len(prefixes) // 3)]
    filtered = kept = widest = 0
    for prefix in sample:
        children, found = _final_depth_engine(p, prefix)
        leaves = []
        for head, count, survivors in children:
            batch, expected, head_leaves = _final_depth_reference(p, space, head)
            expected = [(r, d, float(mid)) for r, d, mid in expected]
            assert (count, survivors) == (len(batch), expected), head
            filtered += count - len(survivors)
            leaves += head_leaves
        assert found == _found_reference(p, value_only, leaves)
        kept += bool(found)
        widest = max(widest, len(children))
    # the column n-2 test has something to reject exactly when leaves are filtered
    assert (filtered > 0) == (not zeros)
    assert kept
    # some batch spans several children, and so several rows of one product
    assert widest >= 5


def test_float64_products_are_exact_on_every_admitted_space():
    # Every product of the search is a Laplace expansion of a minor of at
    # most n rows with entries within alpha, so its terms sum to at most
    # n! * alpha^n in magnitude.  _space must reject every space above
    # _MAX_SPACE rows, and every space it may admit keeps that sum below
    # 2^53, where float64 sums of integers are exact.
    worst = 0
    for n in range(1, MAX_SEARCH_DIM + 1):
        for alpha in range(1, MAX_SEARCH_ALPHA + 1):
            for zeros, positive_only in itertools.product([False, True], repeat=2):
                if ((1 if positive_only else 2) * alpha + zeros) ** n > engine._MAX_SPACE:
                    with pytest.raises(RegimeError):
                        _space.__wrapped__(n, alpha, zeros, positive_only)
                else:
                    worst = max(worst, factorial(n) * alpha**n)
    assert worst == factorial(7) * 9**7  # n = 7, alpha = 9, positive entries only
    assert worst < 2**53


def test_first_two_units_of_the_5_3_3_table():
    # the benchmark's slice_5x5 workload; the digest of its representatives
    # was taken before the final depth was batched per prefix
    result = enumerate_classes(ClassQuery(5, 3, 3, long_run=True), _stop_after_units=2)
    assert (result.nodes_explored, result.total_count, result.positive_count) == (3_329_184, 57, 8)
    assert not result.complete
    assert all((c.stats.alpha, c.stats.beta) == (3, 3) for c in result.classes)
    reps = json.dumps([list(c.rep.entries) for c in result.classes])
    assert hashlib.sha256(reps.encode()).hexdigest() == (
        "5eeb13dcb746714e308711dbc7b5f548314c8d1c0008f1ae8178f5b6b3f9100f"
    )


@pytest.mark.long_run
def test_first_three_units_of_the_6_2_2_table():
    # n = 6 batches are where grouping last rows by their cofactors merges
    # most; the digest was taken before the final depth grouped its rows
    result = enumerate_classes(ClassQuery(6, 2, 2, long_run=True), _stop_after_units=3)
    counts = (result.nodes_explored, result.total_count, result.positive_count)
    assert counts == (11_642_944, 60, 0)
    assert not result.complete
    reps = json.dumps([list(c.rep.entries) for c in result.classes])
    assert hashlib.sha256(reps.encode()).hexdigest() == (
        "ac115ae2c43fbeff6e7f714a1df2e9a67875ea488f7d1579b1bd0472d4812731"
    )


def _final_depth_outputs(threads: int):
    """Class lists and nodes of searches that cross many final-depth chunks:
    (4,3,3) whole and truncated, (5,2,2), and max-beta for n = 4."""
    out = []
    for q in [ClassQuery(4, 3, 3), ClassQuery(5, 2, 2, long_run=True)] + [
        ClassQuery(4, 3, 3, node_limit=limit) for limit in (2400, 5000, 20000, 80031, 80032)
    ]:
        r = enumerate_classes(replace(q, thread_budget=threads))
        out.append((r.nodes_explored, r.complete, [c.rep.entries for c in r.classes]))
    for mode in ("zerofree", "unrestricted"):
        r = max_beta_search(4, 2, mode, thread_budget=threads)
        out.append((r.beta_max, r.witness.entries, r.nodes_explored))
    return out


@pytest.fixture(scope="module")
def default_final_depth_outputs():
    return _final_depth_outputs(1)


@pytest.mark.parametrize("cells", [1, 1 << 40], ids=["one-child-a-chunk", "unbounded"])
def test_outputs_do_not_depend_on_the_chunk_bound(monkeypatch, default_final_depth_outputs, cells):
    monkeypatch.setattr(engine, "_CELLS", cells)
    for threads in (1, 2):
        assert _final_depth_outputs(threads) == default_final_depth_outputs


def test_one_unit_starts_no_pool(monkeypatch):
    # n = 1 is one work unit, which a pool could only run serially
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    result = enumerate_classes(ClassQuery(1, 1, 1, thread_budget=2))
    assert result.complete and result.total_count == 1


@pytest.mark.parametrize(
    "params, units",
    [(_SearchParams(4, 3, 3, zerofree=True), 1148), (_SearchParams(3, 5, None, zerofree=False), 5107)],
    ids=["4-3-3", "3-5-unrestricted"],
)
def test_stage_1_units_cross_the_pool_boundary_as_plain_python(params, units):
    # a pool pickles every unit with its parent's tie record: the record
    # holds no array, and a unit rebuilt from its pickle runs as the original
    prefixes = _Generator(params).run_prefixes(min(2, params.n - 1))
    assert len(prefixes) == units
    pickled = [pickle.dumps(unit) for unit in prefixes]
    assert not any(b"numpy" in blob for blob in pickled)
    for pos in range(0, units, units // 12):
        copy = pickle.loads(pickled[pos])
        assert engine._run_unit(params, copy, None) == engine._run_unit(params, prefixes[pos], None)


@pytest.mark.parametrize(
    "cpus, affinity, started",
    [(3, None, [3]), (None, None, []), (3, {0}, []), (3, {0, 1}, [2])],
    ids=["3-started0", "None-started1", "affinity1", "affinity2"],
)
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, cpus, affinity, started):
    # the cap is the CPUs the process may run on where os reports them,
    # os.cpu_count() otherwise
    # a fake pool that runs each unit at submission, so no process starts
    pools = []

    class SerialExecutor(Executor):
        def __init__(self, max_workers):
            pools.append(max_workers)

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    serial = enumerate_classes(ClassQuery(3, 3, 5, thread_budget=1))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialExecutor)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    if affinity is None:
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: affinity, raising=False)
    capped = enumerate_classes(ClassQuery(3, 3, 5, thread_budget=1000))
    assert pools == started
    assert capped.nodes_explored == serial.nodes_explored
    assert [c.rep.entries for c in capped.classes] == [c.rep.entries for c in serial.classes]


def test_determinism_across_thread_budgets():
    one = enumerate_classes(ClassQuery(3, 3, 5, thread_budget=1))
    two = enumerate_classes(ClassQuery(3, 3, 5, thread_budget=2))
    assert [c.rep.entries for c in one.classes] == [c.rep.entries for c in two.classes]
    assert one.total_count == two.total_count
    assert one.nodes_explored == two.nodes_explored


def test_checkpoint_resume_bit_identical(tmp_path):
    path = str(tmp_path / "search.ckpt")
    q = ClassQuery(3, 3, 5)
    partial = enumerate_classes(q, checkpoint_path=path, _stop_after_units=3)
    assert not partial.complete
    cp = load_checkpoint(path)
    assert 0 < len(cp.completed) <= 3
    resumed = enumerate_classes(q, checkpoint_path=path, resume=True)
    fresh = enumerate_classes(q)
    assert resumed.complete
    assert [c.rep.entries for c in resumed.classes] == [c.rep.entries for c in fresh.classes]
    assert resumed.nodes_explored == fresh.nodes_explored
    assert resumed.total_count == fresh.total_count


def test_a_search_without_checkpoint_leaves_openssl_unloaded():
    # hashlib loads OpenSSL, about 3.5 MB resident; only journals need it
    code = (
        "import sys; from zerofree import enumerate_classes, ClassQuery; "
        "enumerate_classes(ClassQuery(3, 3, 3, thread_budget=1)); "
        "print('hashlib' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_importing_zerofree_leaves_multiprocessing_unloaded():
    # only a search that starts a pool loads it
    code = (
        "import sys, zerofree; "
        "print(any(m in sys.modules for m in ('multiprocessing', 'concurrent.futures.process')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_checkpoint_round_trip(tmp_path):
    path = str(tmp_path / "a.ckpt")
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=path)
    cp = load_checkpoint(path)
    assert cp.total_units == len(cp.completed)
    # round-trip through JSON is exact
    from zerofree.engine import SearchCheckpoint

    again = SearchCheckpoint.from_json(cp.to_json())
    assert again == cp


def test_checkpoint_rejects_other_query(tmp_path):
    path = str(tmp_path / "b.ckpt")
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=path)
    with pytest.raises(CheckpointError):
        enumerate_classes(ClassQuery(2, 4, 4), checkpoint_path=path, resume=True)


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "c.ckpt"
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=str(path))
    text = path.read_text().replace('"nodes": ', '"nodes": 9')
    path.write_text(text)
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def _unit_record(index, payload):
    """One journal line, written from the format's definition."""
    body = {"index": index, "payload": payload}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    return json.dumps({"digest": digest, **body}, sort_keys=True) + "\n"


def _journal_lines(path):
    return path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize(
    "tear",
    [
        lambda text: text[:-20],  # the last record cut mid-line
        lambda text: text + '{"digest": "12\n',  # a last line that is not JSON
    ],
    ids=["cut", "unparseable"],
)
def test_torn_last_line_resumes_like_a_fresh_run(tmp_path, tear):
    path = tmp_path / "torn.ckpt"
    q = ClassQuery(3, 3, 5)
    enumerate_classes(q, checkpoint_path=str(path), _stop_after_units=5)
    path.write_text(tear(path.read_text()))
    torn = load_checkpoint(str(path))
    assert torn.torn_tail > 0 and 4 <= len(torn.completed) <= 5
    resumed = enumerate_classes(q, checkpoint_path=str(path), resume=True)
    fresh_path = tmp_path / "fresh.ckpt"
    fresh = enumerate_classes(q, checkpoint_path=str(fresh_path))
    assert resumed.complete
    assert [c.rep.entries for c in resumed.classes] == [c.rep.entries for c in fresh.classes]
    assert resumed.nodes_explored == fresh.nodes_explored
    after = load_checkpoint(str(path))
    assert after.torn_tail == 0
    assert after.completed == load_checkpoint(str(fresh_path)).completed


def test_resume_only_appends(tmp_path):
    path = tmp_path / "append.ckpt"
    q = ClassQuery(3, 3, 5)
    enumerate_classes(q, checkpoint_path=str(path), _stop_after_units=3)
    before = path.read_bytes()
    enumerate_classes(q, checkpoint_path=str(path), resume=True)
    after = path.read_bytes()
    assert len(after) > len(before) and after.startswith(before)
    # a finished journal is its header plus one line per unit, in unit order,
    # the same bytes an uninterrupted run writes
    cp = load_checkpoint(str(path))
    assert len(_journal_lines(path)) == 1 + cp.total_units == 1 + len(cp.completed)
    fresh_path = tmp_path / "fresh.ckpt"
    enumerate_classes(q, checkpoint_path=str(fresh_path))
    assert fresh_path.read_bytes() == after


def test_fresh_run_replaces_the_journal(tmp_path):
    path = tmp_path / "replace.ckpt"
    enumerate_classes(ClassQuery(3, 3, 5), checkpoint_path=str(path))
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=str(path), _stop_after_units=2)
    cp = load_checkpoint(str(path))
    assert cp.query["n"] == 2 and len(cp.completed) == 2
    assert len(_journal_lines(path)) == 3


def _replace_last_nodes(lines):
    lines[-1] = lines[-1].replace('"nodes": 0', '"nodes": 7')


def _duplicate_last(lines):
    lines.append(lines[-1])


def _index_out_of_range(lines):
    lines.append(_unit_record(4, {"found": {}, "nodes": 0}))


def _unit_missing(lines):
    del lines[2]


def _units_swapped(lines):
    lines[2], lines[3] = lines[3], lines[2]


def _record_extra_key(lines):
    # the digest covers only the index and the payload, so it still matches
    record = json.loads(lines[1])
    record["extra"] = [1, 2, 3]
    lines[1] = json.dumps(record, sort_keys=True) + "\n"


def _bad_line_before_the_last(lines):
    lines.insert(2, "not json\n")


def _drop_header(lines):
    del lines[0]


def _bad_line_before_a_cut_one(lines):
    lines[-1] = "not json\n" + lines[-1][:-20]


def _header_without_newline(lines):
    del lines[1:]
    lines[0] = lines[0].rstrip("\n")


def _header_extra_key(lines):
    header = json.loads(lines[0])
    header["digest"] = ""
    lines[0] = json.dumps(header, sort_keys=True) + "\n"


def _header_not_json(lines):
    lines[0] = "{format_version: 2\n"


def _header_a_json_array(lines):
    lines[0] = json.dumps([json.loads(lines[0])]) + "\n"


def _record_without_digest(lines):
    record = json.loads(lines[1])
    del record["digest"]
    lines[1] = json.dumps(record, sort_keys=True) + "\n"


def _record_not_an_object(lines):
    lines[1] = json.dumps([json.loads(lines[1])]) + "\n"


# Records with a valid digest but not a work unit's form replace unit 1.
def _index_a_bool(lines):
    lines[2] = _unit_record(True, json.loads(lines[1])["payload"])


def _header_total_units_a_bool(lines):
    del lines[2:]
    lines[0] = lines[0].replace('"total_units": 4', '"total_units": true')


def _malformed_payload(payload):
    def corrupt(lines):
        lines[2] = _unit_record(1, payload)

    return corrupt


def _malformed_hit(hit, key="3,3"):
    return _malformed_payload({"found": {key: [hit]}, "nodes": 4})


# A record of a work unit's form whose leaf cannot be a leaf of the (2,3,3)
# query replaces unit 1; a header query not of _SearchParams.query's form.
def _positive_only_header_and_a_negative_leaf(lines):
    lines[0] = lines[0].replace('"positive_only": false', '"positive_only": true')
    _malformed_hit([[1, -1, 2, 3], False, 1])(lines)


def _header_query_beta_cap_a_string(lines):
    lines[0] = lines[0].replace('"beta_cap": 3', '"beta_cap": "3"')


def _header_query_without_n(lines):
    lines[0] = lines[0].replace('"n": 2, ', "")


@pytest.mark.parametrize(
    "corrupt",
    [
        _replace_last_nodes,
        _duplicate_last,
        _index_out_of_range,
        _unit_missing,
        _units_swapped,
        _record_extra_key,
        _bad_line_before_the_last,
        _bad_line_before_a_cut_one,
        _drop_header,
        _header_without_newline,
        _header_extra_key,
        _header_not_json,
        _header_a_json_array,
        _record_without_digest,
        _record_not_an_object,
        _index_a_bool,
        _header_total_units_a_bool,
        *(
            pytest.param(_malformed_payload(payload), id=name)
            for name, payload in [
                ("_negative_nodes", {"found": {}, "nodes": -100}),
                ("_nodes_a_bool", {"found": {}, "nodes": True}),
                ("_payload_without_nodes", {"found": {}}),
                ("_payload_extra_key", {"found": {}, "nodes": 4, "wall": 0}),
                ("_payload_a_json_array", []),
                ("_found_a_json_array", {"found": [], "nodes": 4}),
                ("_bucket_key_not_two_ints", {"found": {"x": []}, "nodes": 4}),
                ("_bucket_key_three_ints", {"found": {"3,3,3": []}, "nodes": 4}),
                ("_bucket_not_a_list", {"found": {"3,3": {}}, "nodes": 4}),
            ]
        ),
        *(
            pytest.param(_malformed_hit(hit), id=name)
            for name, hit in [
                ("_hit_of_two", [[1, 1, 2, 3], True]),
                ("_hit_entry_a_float", [[1, 1, 2.0, 3], True, 1]),
                ("_hit_positive_an_int", [[1, 1, 2, 3], 1, 1]),
                ("_hit_det_2", [[1, 1, 2, 3], True, 2]),
                ("_hit_det_a_bool", [[1, 1, 2, 3], True, True]),
            ]
        ),
        *(
            pytest.param(_malformed_hit(hit, key), id=name)
            for name, key, hit in [
                ("_leaf_entries_above_alpha", "3,3", [[9, 9, 9, 9], True, 1]),
                ("_leaf_entry_4_in_bucket_4", "4,3", [[1, 1, 3, 4], True, 1]),
                ("_leaf_of_three_entries", "3,3", [[1, 2, 3], True, 1]),
                ("_leaf_of_nine_entries", "3,3", [[1, 1, 1, 1, 1, 1, 1, 2, 3], True, 1]),
                ("_leaf_with_a_zero", "3,3", [[0, 1, 2, 3], False, 1]),
                ("_leaf_below_its_bucket_alpha", "3,3", [[1, 1, 1, 2], True, 1]),
                ("_leaf_above_its_bucket_alpha", "2,3", [[1, 1, 2, 3], True, 1]),
                ("_leaf_beta_above_the_cap", "3,4", [[1, 1, 2, 3], True, 1]),
                ("_leaf_beta_0", "3,0", [[1, 1, 2, 3], True, 1]),
                ("_leaf_positive_entries_flagged_not_positive", "3,3", [[1, 1, 2, 3], False, 1]),
                ("_leaf_negative_entry_flagged_positive", "3,3", [[1, -1, 2, 3], True, 1]),
                ("_leaf_singular", "3,3", [[3, 3, 3, 3], True, 1]),
                ("_leaf_det_of_the_wrong_sign", "3,3", [[1, 1, 2, 3], True, -1]),
            ]
        ),
        _positive_only_header_and_a_negative_leaf,
        _header_query_beta_cap_a_string,
        _header_query_without_n,
    ],
)
def test_journal_corruption_is_not_a_torn_tail(tmp_path, corrupt):
    path = tmp_path / "bad.ckpt"
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=str(path))
    lines = _journal_lines(path)
    assert len(lines) == 5  # (2,3,3) has 4 units
    corrupt(lines)
    path.write_text("".join(lines))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(path))


def test_a_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "whole.ckpt"
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=str(path))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(engine.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        save_checkpoint(str(path), load_checkpoint(str(path)))
    assert [p.name for p in tmp_path.iterdir()] == ["whole.ckpt"]
    assert path.read_bytes() == before


def test_resume_rejects_a_header_for_another_unit_count(tmp_path):
    path = tmp_path / "count.ckpt"
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=str(path))
    lines = _journal_lines(path)
    lines[0] = lines[0].replace('"total_units": 4', '"total_units": 5')
    path.write_text("".join(lines))
    with pytest.raises(CheckpointError, match="unit count"):
        enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=str(path), resume=True)


def test_checkpoint_rejects_version_1_files(tmp_path):
    path = tmp_path / "v1.ckpt"
    v1 = {
        "completed": {},
        "digest": hashlib.sha256(b"{}").hexdigest(),
        "format_version": 1,
        "query": {},
        "total_units": 4,
    }
    path.write_text(json.dumps(v1, sort_keys=True))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(str(path))


def test_resume_requires_checkpoint_path():
    with pytest.raises(CheckpointError):
        enumerate_classes(ClassQuery(2, 3, 3), resume=True)


def test_resume_checks_the_file_before_stage_one_can_stop(tmp_path):
    # node_limit=1 stops stage 1 at its first node, so these checks must come first
    q = ClassQuery(4, 3, 3, node_limit=1)
    with pytest.raises(CheckpointError):
        enumerate_classes(q, resume=True)
    with pytest.raises(FileNotFoundError):
        enumerate_classes(q, checkpoint_path=str(tmp_path / "missing.ckpt"), resume=True)
    other = str(tmp_path / "other.ckpt")
    enumerate_classes(ClassQuery(2, 3, 3), checkpoint_path=other)
    with pytest.raises(CheckpointError, match="different query"):
        enumerate_classes(q, checkpoint_path=other, resume=True)


def test_n1_is_one_work_unit(tmp_path):
    # the empty prefix is n = 1's single unit: journaled and resumed like any other
    path, fresh_path = tmp_path / "one.ckpt", tmp_path / "fresh.ckpt"
    q = ClassQuery(1, 1, 1)
    stopped = enumerate_classes(q, checkpoint_path=str(path), _stop_after_units=0)
    assert not stopped.complete and stopped.total_count == 0
    cp = load_checkpoint(str(path))
    assert (cp.total_units, cp.completed) == (1, [])
    resumed = enumerate_classes(q, checkpoint_path=str(path), resume=True)
    fresh = enumerate_classes(q, checkpoint_path=str(fresh_path))
    for result in (resumed, fresh):
        assert result.complete
        assert [c.rep for c in result.classes] == [IntMatrix(1, (1,))]
        assert result.nodes_explored == 1
    assert path.read_bytes() == fresh_path.read_bytes()
    assert len(load_checkpoint(str(path)).completed) == 1
    with pytest.raises(CheckpointError):
        enumerate_classes(q, resume=True)


# total_units and nodes_explored of the stage-1 unit lists
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "n, alpha, beta, units, nodes",
    [
        (1, 1, 1, 1, 1),
        (2, 3, 3, 4, 12),
        (3, 3, 5, 36, 419),
        (3, 4, 4, 35, 961),
        (4, 3, 3, 1148, 80032),
    ],
)
def test_stage_one_unit_list(tmp_path, n, alpha, beta, units, nodes, threads):
    path = str(tmp_path / "search.ckpt")
    q = ClassQuery(n, alpha, beta, thread_budget=threads)
    result = enumerate_classes(q, checkpoint_path=path)
    cp = load_checkpoint(path)
    assert (cp.total_units, len(cp.completed)) == (units, units)
    assert result.nodes_explored == nodes
