"""Acceptance criteria, one test per criterion, with a printed verdict line.

Tier 1 and Tier 2 run by default (seconds and minutes respectively); Tier 3
carries the long_run marker and is selected with `pytest -m long_run`.
Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import itertools
import random

import pytest

from zerofree.canonical import (
    canonical_form,
    canonical_form_oracle,
    flatten_key,
    inverse_class,
    minimize_rows,
    random_zerofree_matrix,
)
from zerofree.closedform import prop5_count
from zerofree.engine import (
    ClassQuery,
    enumerate_classes,
    max_beta_search,
    sequence_scan,
    theoretical_beta_bound,
    verify_conjecture,
)
from zerofree.matrix import IntMatrix, adjugate_inverse, classify, det, verify_prop0

from known_values import (
    BETA_THEORETICAL,
    BETA_UNRESTRICTED,
    BETA_ZEROFREE,
    DIAGONAL_2X2,
    FIVE_TWO_FOUR_HEAD,
    FIVE_TWO_FOUR_VECTORS,
    KNOWN_CLASSES,
    KNOWN_COUNTS,
    SCAN_3_3,
    SCAN_4_2,
    SIX_TWO_THREE_POSITIVE_VERIFIED,
    SIX_TWO_TWO_POSITIVE,
)

ORACLE_SEED = 424242


def report(name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{verdict}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def entry_sets(result):
    return {c.rep.entries for c in result.classes}


def reference_set(rows_lists):
    return {IntMatrix.from_rows(rows).entries for rows in rows_lists}


# ---------------------------------------------------------------- Tier 1 --


def test_t1_diagonal_counts_match_formula_and_sequence():
    engine = [enumerate_classes(ClassQuery(2, k, k)).total_count for k in range(2, 31)]
    formula = [prop5_count(k) for k in range(2, 31)]
    report(
        "n=2 diagonal k=2..30 equals reference sequence and 2*phi(k)-1",
        engine == DIAGONAL_2X2 == formula,
        f"engine={engine[:8]}...",
    )


def test_t1_2x2_representative_lists():
    ok = True
    for key in ((2, 3, 3), (2, 4, 4), (2, 5, 5), (2, 6, 6)):
        got = entry_sets(enumerate_classes(ClassQuery(*key)))
        ok &= got == reference_set(KNOWN_CLASSES[key])
    report("2x2 representatives for alpha=beta=3,4,5,6 match the reference lists", ok)


def test_t1_3x3_classes():
    ok = True
    detail = []
    for key in ((3, 3, 3), (3, 3, 4), (3, 4, 3), (3, 2, 5), (3, 5, 2)):
        got = entry_sets(enumerate_classes(ClassQuery(*key)))
        ok &= got == reference_set(KNOWN_CLASSES[key])
        detail.append(f"{key}:{len(got)}")
    for key, count in (((3, 3, 5), 6), ((3, 4, 4), 6), ((3, 3, 6), 7), ((3, 4, 5), 4)):
        result = enumerate_classes(ClassQuery(*key))
        ok &= result.total_count == count
        ok &= entry_sets(result) == reference_set(KNOWN_CLASSES[key])
        detail.append(f"{key}:{result.total_count}")
    report("3x3 classes match the reference tables", ok, " ".join(detail))


def test_t1_3x3_scan_sequence():
    counts = [c for _, c, _ in sequence_scan(3, 3, (3, 15))]
    report("scan n=3 alpha=3 beta=3..15 equals reference sequence", counts == SCAN_3_3, str(counts))


def test_t1_conjecture_1():
    rep = verify_conjecture(1)
    report(
        "conjecture 1: no (3,2,beta) classes for beta=2..4",
        rep.confirmed and rep.complete and rep.cases == ((3, 2, 2, 0), (3, 2, 3, 0), (3, 2, 4, 0)),
        f"nodes={rep.nodes_explored}",
    )


def test_t1_oracle_agreement():
    mismatches = 0
    for n in (2, 3, 4):
        rng = random.Random(ORACLE_SEED + n)
        for _ in range(1000):
            m = random_zerofree_matrix(n, rng)
            if canonical_form(m).entries != canonical_form_oracle(m).entries:
                mismatches += 1
    report(
        "canonical_form equals full-orbit oracle on 1000 random matrices per n=2,3,4",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_t1_sign_matrix_determinants():
    ok = True
    for n in (2, 3, 4):
        rep = verify_prop0(n)
        ok &= rep.all_divisible and rep.matrices_checked == 1 << (n * n)
    report("all +-1 matrices for n=2,3,4 have det divisible by 2^(n-1)", ok)


def test_t1_max_beta_n3_and_theoretical_bounds():
    zf = max_beta_search(3, 2, "zerofree")
    un = max_beta_search(3, 2, "unrestricted")
    bounds = [theoretical_beta_bound(n) for n in range(3, 8)]
    report(
        "max inverse entry for n=3 alpha=2: zerofree 5, unrestricted 6; bounds n=3..7",
        zf.beta_max == 5
        and un.beta_max == 6
        and zf.certified
        and un.certified
        and bounds == [BETA_THEORETICAL[n] for n in range(3, 8)],
        f"zerofree={zf.beta_max} unrestricted={un.beta_max} bounds={bounds}",
    )


# ---------------------------------------------------------------- Tier 2 --


def test_t2_4x4_alpha2_classes():
    ok = True
    detail = []
    for key in ((4, 2, 2), (4, 2, 4), (4, 2, 5), (4, 2, 6)):
        result = enumerate_classes(ClassQuery(*key))
        ok &= entry_sets(result) == reference_set(KNOWN_CLASSES[key])
        detail.append(f"{key}:{result.total_count}")
    rep = verify_conjecture(2)
    ok &= rep.confirmed and rep.cases == ((4, 2, 3, 0),)
    report("4x4 alpha=2 classes match; conjecture 2 (4,2,3) empty", ok, " ".join(detail))


def test_t2_4x4_alpha2_scan():
    counts = [c for _, c, _ in sequence_scan(4, 2, (4, 26))]
    report("scan n=4 alpha=2 beta=4..26 equals reference sequence", counts == SCAN_4_2, str(counts))


def test_t2_163_classes():
    result = enumerate_classes(ClassQuery(4, 3, 3))
    want = KNOWN_COUNTS[(4, 3, 3)]
    report(
        "(4,3,3) counts",
        (result.total_count, result.positive_count) == want,
        f"got {result.total_count}/{result.positive_count}, expected {want[0]}/{want[1]}",
    )


def test_t2_max_beta_n4():
    zf = max_beta_search(4, 2, "zerofree")
    un = max_beta_search(4, 2, "unrestricted")
    report(
        "max inverse entry for n=4 alpha=2: zerofree 26, unrestricted 30",
        zf.beta_max == BETA_ZEROFREE[4] and un.beta_max == BETA_UNRESTRICTED[4],
        f"zerofree={zf.beta_max} unrestricted={un.beta_max}",
    )


# ---------------------------------------------------------------- Tier 3 --


@pytest.mark.long_run
def test_t3_conjecture_3():
    rep = verify_conjecture(3)
    report(
        "conjecture 3: no (5,2,2) classes",
        rep.confirmed and rep.complete,
        f"nodes={rep.nodes_explored}",
    )


def check_max_beta_witness(res, alpha: int, entries: str):
    """The witness is the pinned matrix, and it checks out independently of
    the search: unimodular, max |entry| alpha, beta_max from its adjugate,
    and its own canonical form.  canonical_form takes zerofree matrices
    only, so the form is read from minimize_rows, which it is built on and
    which sorts zero keys first."""
    w = res.witness
    assert w.entries == tuple(int(x) for x in entries.split())
    assert det(w) in (1, -1)
    assert w.max_abs() == alpha
    assert adjugate_inverse(w).max_abs() == res.beta_max
    assert tuple(itertools.chain.from_iterable(minimize_rows(w.rows(), w.n))) == w.entries


@pytest.mark.long_run
def test_t3_max_beta_n5_zerofree():
    res = max_beta_search(5, 2, "zerofree")
    report(
        "max inverse entry for n=5 alpha=2 zerofree: 182, certified",
        res.beta_max == BETA_ZEROFREE[5] and res.certified,
        f"beta_max={res.beta_max} certified={res.certified} nodes={res.nodes_explored}",
    )
    check_max_beta_witness(res, 2, "1 1 1 1 2 1 1 2 -2 2 1 2 2 2 -1 1 -2 2 -2 -2 2 -2 1 2 2")


@pytest.mark.long_run
def test_t3_max_beta_n5_unrestricted():
    res = max_beta_search(5, 2, "unrestricted")
    report(
        "max inverse entry for n=5 alpha=2 unrestricted: 182, certified",
        res.beta_max == BETA_UNRESTRICTED[5] and res.certified,
        f"beta_max={res.beta_max} certified={res.certified} nodes={res.nodes_explored}",
    )
    check_max_beta_witness(res, 2, "0 0 0 1 1 0 1 2 2 -2 1 2 2 -2 2 1 2 -1 2 2 1 2 -2 -1 -2")


@pytest.mark.long_run
def test_t3_5x5_classes():
    result = enumerate_classes(ClassQuery(5, 2, 3, long_run=True))
    ok = entry_sets(result) == reference_set(KNOWN_CLASSES[(5, 2, 3)])
    detail = [f"(5,2,3):{result.total_count}"]

    result = enumerate_classes(ClassQuery(5, 2, 4, long_run=True))
    expected = reference_set(FIVE_TWO_FOUR_HEAD) | {tuple(v) for v in FIVE_TWO_FOUR_VECTORS}
    ok &= entry_sets(result) == expected
    ok &= (result.total_count, result.positive_count) == KNOWN_COUNTS[(5, 2, 4)]
    detail.append(f"(5,2,4):{result.total_count}/{result.positive_count}")

    result = enumerate_classes(ClassQuery(5, 3, 3, long_run=True, count_only=True))
    ok &= (result.total_count, result.positive_count) == KNOWN_COUNTS[(5, 3, 3)]
    detail.append(f"(5,3,3):{result.total_count}/{result.positive_count}")
    report("5x5 classes match reference lists and counts", ok, " ".join(detail))


@pytest.mark.long_run
def test_t3_6x6_classes():
    result = enumerate_classes(ClassQuery(6, 2, 2, long_run=True))
    got_positive = {c.rep.entries for c in result.classes if c.stats.positive}
    ok_pos = got_positive == reference_set(SIX_TWO_TWO_POSITIVE)
    report(
        "(6,2,2) positives are the four reference matrices",
        ok_pos,
        f"positive={result.positive_count}",
    )
    want = KNOWN_COUNTS[(6, 2, 2)]
    report(
        "(6,2,2) counts",
        (result.total_count, result.positive_count) == want,
        f"got {result.total_count}/{result.positive_count}, expected {want[0]}/{want[1]}",
    )


@pytest.mark.long_run
def test_t3_6x6_beta3_classes():
    result = enumerate_classes(ClassQuery(6, 2, 3, long_run=True))
    got_positive = {c.rep.entries for c in result.classes if c.stats.positive}
    # the published six-row table misfiles four (6,2,2) matrices; only its
    # two genuinely (2,3) rows can be asserted (see the verified subset)
    ok = reference_set(SIX_TWO_THREE_POSITIVE_VERIFIED) <= got_positive
    want = KNOWN_COUNTS[(6, 2, 3)]
    report(
        "(6,2,3) counts and verified positive members",
        ok and (result.total_count, result.positive_count) == want,
        f"got {result.total_count}/{result.positive_count}, expected {want[0]}/{want[1]}",
    )


@pytest.mark.long_run
def test_t3_7x7_positive_pair():
    result = enumerate_classes(ClassQuery(7, 2, 2, positive_only=True, long_run=True))
    got = entry_sets(result)
    expected = reference_set(KNOWN_CLASSES[(7, 2, 2)])
    report(
        "(7,2,2) positive classes are exactly the transpose pair",
        got == expected and result.total_count == 2,
        f"count={result.total_count}",
    )
    # the negative-entry census at (7,2,2) is open; report without asserting
    print("[INFO] (7,2,2) full negative-entry count left unasserted (open question)")


# ------------------------------------------------------------- backstops --


def test_backstop_determinism_across_thread_budgets():
    base = enumerate_classes(ClassQuery(3, 4, 4, thread_budget=1))
    threaded = enumerate_classes(ClassQuery(3, 4, 4, thread_budget=2))
    report(
        "identical results across thread budgets",
        [c.rep.entries for c in base.classes] == [c.rep.entries for c in threaded.classes]
        and base.nodes_explored == threaded.nodes_explored,
    )


def test_backstop_checkpoint_split(tmp_path):
    path = str(tmp_path / "acc.ckpt")
    q = ClassQuery(3, 3, 6)
    enumerate_classes(q, checkpoint_path=path, _stop_after_units=2)
    resumed = enumerate_classes(q, checkpoint_path=path, resume=True)
    fresh = enumerate_classes(q)
    report(
        "checkpoint split/resume is bit-identical to an uninterrupted run",
        resumed.complete
        and [c.rep.entries for c in resumed.classes] == [c.rep.entries for c in fresh.classes]
        and resumed.nodes_explored == fresh.nodes_explored,
    )


def test_backstop_inverse_class_bijections():
    ok = True
    pairs = [((2, 5, 5), (2, 5, 5)), ((3, 3, 4), (3, 4, 3)), ((3, 2, 5), (3, 5, 2)),
             ((3, 3, 5), (3, 5, 3)), ((3, 4, 5), (3, 5, 4))]
    for key_ab, key_ba in pairs:
        forward = enumerate_classes(ClassQuery(*key_ab))
        backward = enumerate_classes(ClassQuery(*key_ba))
        mapped = {inverse_class(c).rep.entries for c in forward.classes}
        ok &= mapped == entry_sets(backward)
        ok &= forward.total_count == backward.total_count
    report("inverse_class maps each (n,a,b) class set onto the (n,b,a) set", ok)


def test_backstop_emitted_classes_are_canonical_with_exact_stats():
    ok = True
    for key in ((2, 6, 6), (3, 3, 6), (4, 2, 5)):
        result = enumerate_classes(ClassQuery(*key))
        for cls in result.classes:
            ok &= canonical_form(cls.rep) == cls.rep
            stats = classify(cls.rep)
            ok &= stats is not None and (stats.alpha, stats.beta) == key[1:]
            ok &= cls.stats.positive == all(e > 0 for e in cls.rep.entries)
        keys = [flatten_key(c.rep) for c in result.classes]
        ok &= keys == sorted(keys)
    report("every emitted representative is a canonical fixed point with exact stats", ok)
