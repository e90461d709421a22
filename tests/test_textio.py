"""Matrix line parsing and record serialization."""

import json

import pytest

import zerofree
from zerofree.engine import ClassQuery, enumerate_classes
from zerofree.matrix import IntMatrix, classify
from zerofree.textio import (
    MatrixParseError,
    MatrixRecord,
    format_matrix_line,
    iter_matrix_lines,
    parse_matrix_line,
)

from known_values import FIVE_TWO_FOUR_VECTORS


def test_parse_simple():
    assert parse_matrix_line("1 1 1 2") == IntMatrix.from_rows([[1, 1], [1, 2]])


def test_parse_comma_separated_reference_vector():
    line = (
        "1, 1, 1, 1, 2, 1, 1, 2, 2, 2, 1, -2, 1, 2, 1, 2, -1, 2, 2, 2, 2, -2,"
        " 1, 2, 2"
    )
    m = parse_matrix_line(line)
    assert m.n == 5
    assert list(m.entries) == FIVE_TWO_FOUR_VECTORS[0]
    stats = classify(m)
    assert stats is not None
    assert (stats.alpha, stats.beta) == (2, 4)
    assert sum(1 for e in m.entries if e < 0) == 3


def test_parse_rejects_non_square():
    with pytest.raises(MatrixParseError, match="square"):
        parse_matrix_line("1 2 3")


def test_parse_rejects_bad_token():
    with pytest.raises(MatrixParseError, match="not an integer"):
        parse_matrix_line("1 x 1 2", line_no=7)
    try:
        parse_matrix_line("1 x 1 2", line_no=7)
    except MatrixParseError as exc:
        assert "line 7" in str(exc)
        assert exc.line_no == 7


@pytest.mark.parametrize("token", ["1_0", "\uff11", "\u0661"])
def test_parse_rejects_what_int_reads_but_does_not_write(token):
    # int() reads digit-group underscores and non-ASCII digits, which would
    # not round-trip: an entry is an optional sign and ASCII digits
    with pytest.raises(MatrixParseError, match="not an integer"):
        parse_matrix_line(f"{token} 2 3 4")
    assert parse_matrix_line("+1 2 3 -4") == IntMatrix.from_rows([[1, 2], [3, -4]])


def test_parse_rejects_zero_in_zerofree_context():
    with pytest.raises(MatrixParseError, match="zero"):
        parse_matrix_line("1 0 1 2", require_nonzero=True)
    assert parse_matrix_line("1 0 1 2").has_zero()


def test_parse_rejects_empty():
    with pytest.raises(MatrixParseError, match="empty"):
        parse_matrix_line("   ")


def test_parse_with_expected_dimension():
    with pytest.raises(MatrixParseError, match="expected 9"):
        parse_matrix_line("1 1 1 2", expect_n=3)


def test_iter_skips_comments_and_blanks():
    lines = ["# header", "", "1 1 1 2", "  ", "1 2 2 3"]
    parsed = list(iter_matrix_lines(lines))
    assert [ln for ln, _ in parsed] == [3, 5]
    assert parsed[0][1] == IntMatrix.from_rows([[1, 1], [1, 2]])


def test_round_trip_enumeration_output():
    result = enumerate_classes(ClassQuery(3, 3, 5))
    for cls in result.classes:
        line = format_matrix_line(cls.rep)
        assert parse_matrix_line(line) == cls.rep


def test_readme_library_block():
    # the values README's Library example states, through the package's exports
    m = zerofree.IntMatrix.from_rows([[2, 1], [1, 1]])
    assert zerofree.canonical_form(m) == zerofree.IntMatrix.from_rows([[1, 1], [1, 2]])
    assert zerofree.classify(zerofree.canonical_form(m)) == zerofree.ClassStats(2, 2, 1, True)
    result = zerofree.enumerate_classes(zerofree.ClassQuery(n=3, alpha=3, beta=5))
    assert [str(c.rep) for c in result.classes] == [
        "1 1 1 1 2 3 1 -1 -2",
        "1 1 1 1 2 -1 1 3 -2",
        "1 1 1 1 2 -2 2 3 -2",
        "1 1 2 1 2 3 1 -2 -2",
        "1 2 2 2 2 3 3 1 3",
        "1 2 2 3 1 2 3 2 3",
    ]
    assert all(str(c.rep) == format_matrix_line(c.rep) for c in result.classes)
    best = zerofree.max_beta_search(3, 2, "unrestricted")
    assert (best.beta_max, best.certified) == (6, True)
    assert best.witness.entries == (0, 0, 1, 0, 1, 2, 1, 2, -2)


def test_record_json_round_trip():
    rec = MatrixRecord(n=2, alpha=3, beta=3, positive=True, entries=(1, 2, 2, 3))
    again = MatrixRecord.from_json(rec.to_json())
    assert again == rec
    assert again.matrix() == IntMatrix.from_rows([[1, 2], [2, 3]])


def test_record_json_refuses_what_it_would_have_coerced():
    # int() and bool() read this record as alpha 2, positive True and
    # entries (1, 1, 1, 2)
    text = '{"n": 2, "alpha": 2.9, "beta": 2, "positive": "false", "entries": [1, 1, 1, 2.5]}'
    with pytest.raises(MatrixParseError):
        MatrixRecord.from_json(text)
    good = {"n": 2, "alpha": 3, "beta": 3, "positive": True, "entries": [1, 2, 2, 3]}
    bad = [
        ("alpha", 2.9, "alpha"),
        ("n", 2.0, "n"),
        ("beta", "3", "beta"),
        ("n", True, "n"),
        ("positive", "false", "positive"),
        ("positive", 0, "positive"),
        ("entries", [1, 1, 1, 2.5], "entry"),
        ("entries", [1, 2, 2, False], "entry"),
    ]
    for key, value, field in bad:
        with pytest.raises(MatrixParseError, match=field):
            MatrixRecord.from_json(json.dumps({**good, key: value}))
    assert MatrixRecord.from_json(json.dumps(good)).entries == (1, 2, 2, 3)


def test_record_json_checks_the_whole_record():
    # a document that is not a whole record raises MatrixParseError, never
    # KeyError or TypeError, and yields no record
    good = {"n": 2, "alpha": 3, "beta": 3, "positive": True, "entries": [1, 2, 2, 3]}
    texts = [
        "not json",
        "[1, 2, 2, 3]",
        "null",
        json.dumps({k: v for k, v in good.items() if k != "beta"}),
        json.dumps({**good, "det": 1}),
        json.dumps({**good, "entries": [1, 2, 2]}),
        json.dumps({**good, "entries": [1, 2, 2, 3, 3]}),
        json.dumps({**good, "n": 0, "entries": []}),
        json.dumps({**good, "entries": 1}),
        json.dumps({**good, "alpha": 7}),
        json.dumps({**good, "alpha": 2}),
        json.dumps({**good, "entries": [1, 2, -2, 3]}),
        json.dumps({**good, "positive": False}),
    ]
    for text in texts:
        with pytest.raises(MatrixParseError):
            MatrixRecord.from_json(text)
    assert MatrixRecord.from_json(json.dumps({**good, "positive": False, "entries": [1, 2, -2, 3]}))
