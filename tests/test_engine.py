"""Search engine: class enumeration, scans, extremal searches, checkpoints."""

import hashlib
import itertools
import json

import numpy as np
import pytest

from zerofree.canonical import canonical_form, entry_key, flatten_key, inverse_class
from zerofree.engine import (
    CheckpointError,
    ClassQuery,
    IncompleteSearchError,
    TierGateError,
    _Generator,
    _is_canonical,
    _SearchParams,
    _space,
    enumerate_classes,
    load_checkpoint,
    max_beta_search,
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


# (n, mode, beta_max, nodes_explored, witness) at alpha = 2.  The witness is
# the first canonical maximiser in search order; a process pool must
# reproduce the serial result exactly.
MAX_BETA_WITNESSES = [
    (2, "unrestricted", 2, 15, "0 1 1 2"),
    (2, "zerofree", 2, 4, "1 1 1 2"),
    (3, "zerofree", 5, 42, "1 1 2 1 -2 -2 2 -2 -1"),
    (3, "unrestricted", 6, 687, "0 0 1 0 1 2 1 2 -2"),
    (4, "zerofree", 26, 5404, "1 1 1 2 1 2 2 1 1 2 -2 -2 2 2 -1 2"),
    (4, "unrestricted", 30, 288752, "0 0 1 1 0 1 2 2 1 2 1 -2 1 -2 2 -2"),
]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n, mode, beta, nodes, witness", MAX_BETA_WITNESSES)
def test_max_beta_witness_regression(n, mode, beta, nodes, witness, threads):
    res = max_beta_search(n, 2, mode, thread_budget=threads)
    entries = tuple(int(x) for x in witness.split())
    assert (res.beta_max, res.nodes_explored, res.witness.entries) == (beta, nodes, entries)
    assert res.certified
    assert _is_canonical(entries, n)


@pytest.mark.parametrize("mode", ["zerofree", "unrestricted"])
def test_max_beta_n1(mode):
    res = max_beta_search(1, 1, mode)
    assert (res.beta_max, res.witness.entries, res.nodes_explored) == (1, (1,), 1)
    assert res.certified


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


def test_infeasible_regimes_rejected():
    with pytest.raises(RegimeError):
        ClassQuery(8, 2, 2)
    with pytest.raises(RegimeError):
        ClassQuery(4, 65, 65)
    with pytest.raises(RegimeError):
        enumerate_classes(ClassQuery(7, 12, 12, long_run=True))
    with pytest.raises(ValueError):
        ClassQuery(3, 1, 2)


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("alpha", [2, 3])
@pytest.mark.parametrize("n", range(1, 8))
def test_space_rows_follow_the_zero_first_order(n, alpha, zeros):
    # uncached: the n = 7 spaces are large
    rows, _, packed = _space.__wrapped__(n, alpha, zeros, False)[:3]
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


def _final_depth_reference(p: _SearchParams, value_only: bool, space, rows):
    """Below one (n-1)-row prefix: the batch of unimodular completions with
    their determinants, the survivors of the inverse column n-2 test, and
    what the search keeps.  Each completion goes through matrix.det and
    adjugate_inverse on its own."""
    n = p.n
    equal_cols = [c for c in range(n - 1) if all(r[c] == r[c + 1] for r in rows)]

    def fails(magnitudes):
        return (p.require_zerofree and min(magnitudes) == 0) or (
            p.beta_cap is not None and max(magnitudes) > p.beta_cap
        )

    batch, survivors, leaves = [], [], []
    for row in space:
        if (
            _keys(row) < _keys(rows[-1])  # rows of a canonical matrix never decrease
            or sorted(map(abs, row)) < _keys(rows[0])  # no row can move before the first
            or any(entry_key(row[c]) > entry_key(row[c + 1]) for c in equal_cols)
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
        survivors.append((row, d))
        if fails(absinv):
            continue
        leaves.append((m, d, max(absinv)))
    if value_only:
        attaining = [(m, beta) for m, _, beta in leaves if max(map(abs, m.entries)) == p.alpha]
        best = max((beta for _, beta in attaining), default=0)
        return batch, survivors, (best, [list(m.entries) for m, beta in attaining if beta == best])
    found = {}
    for m, d, beta in leaves:
        if canonical_form(m) == m:
            key = (max(map(abs, m.entries)), beta)
            found.setdefault(key, []).append((m.entries, min(m.entries) > 0, d))
    return batch, survivors, found


def _final_depth_engine(p: _SearchParams, value_only: bool, prefix):
    """The same three things from the engine, recorded at its final-depth calls."""
    gen = _Generator(p, value_only)
    batch, survivors = [], []
    accept_batch, accept_leaves = gen._accept_batch, gen._accept_leaves

    def record_batch(rows, ladder, idx, dets):
        batch.extend(zip(map(tuple, gen.rows_arr[idx].tolist()), dets.tolist()))
        accept_batch(rows, ladder, idx, dets)

    def record_leaves(rows, ladder, cand, dets):
        survivors.extend(zip(map(tuple, cand.tolist()), dets.tolist()))
        accept_leaves(rows, ladder, cand, dets)

    gen._accept_batch, gen._accept_leaves = record_batch, record_leaves
    gen.run_subtree(*prefix)
    kept = (gen.best_beta, gen.tied) if value_only else gen.found
    return batch, survivors, kept


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
    p = _SearchParams(n, alpha, beta_cap, zeros, False, require_zerofree=not zeros)
    prefixes = _Generator(p, value_only).run_prefixes(n - 1)
    assert prefixes
    values = ([0] if zeros else []) + [v for a in range(1, alpha + 1) for v in (a, -a)]
    space = sorted(itertools.product(values, repeat=n), key=_keys)
    filtered = kept = 0
    for prefix in prefixes[:: max(1, len(prefixes) // 40)]:
        expected = _final_depth_reference(p, value_only, space, prefix[0])
        assert _final_depth_engine(p, value_only, prefix) == expected
        filtered += len(expected[0]) - len(expected[1])
        kept += bool(expected[2][0] if value_only else expected[2])
    # the column n-2 test has something to reject exactly when leaves are filtered
    assert (filtered > 0) == (not zeros)
    assert kept


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
    assert cp.query["n"] == 2 and sorted(cp.completed) == [0, 1]
    assert len(_journal_lines(path)) == 3


def _replace_last_nodes(lines):
    lines[-1] = lines[-1].replace('"nodes": 0', '"nodes": 7')


def _duplicate_last(lines):
    lines.append(lines[-1])


def _index_out_of_range(lines):
    lines.append(_unit_record(4, {"found": {}, "nodes": 0}))


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


@pytest.mark.parametrize(
    "corrupt",
    [
        _replace_last_nodes,
        _duplicate_last,
        _index_out_of_range,
        _bad_line_before_the_last,
        _bad_line_before_a_cut_one,
        _drop_header,
        _header_without_newline,
        _header_extra_key,
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


def test_n1_is_one_work_unit(tmp_path):
    # the empty prefix is n = 1's single unit: journaled and resumed like any other
    path, fresh_path = tmp_path / "one.ckpt", tmp_path / "fresh.ckpt"
    q = ClassQuery(1, 1, 1)
    stopped = enumerate_classes(q, checkpoint_path=str(path), _stop_after_units=0)
    assert not stopped.complete and stopped.total_count == 0
    cp = load_checkpoint(str(path))
    assert (cp.total_units, cp.completed) == (1, {})
    resumed = enumerate_classes(q, checkpoint_path=str(path), resume=True)
    fresh = enumerate_classes(q, checkpoint_path=str(fresh_path))
    for result in (resumed, fresh):
        assert result.complete
        assert [c.rep for c in result.classes] == [IntMatrix(1, (1,))]
        assert result.nodes_explored == 1
    assert path.read_bytes() == fresh_path.read_bytes()
    assert list(load_checkpoint(str(path)).completed) == [0]
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
