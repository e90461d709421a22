"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import json

import pytest

from zerofree.cli import main
from zerofree.engine import default_thread_budget

from known_values import DIAGONAL_2X2


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_unique_2x2(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--alpha", "2", "--beta", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# n=2 alpha=2 beta=2 count=1 positive=1"
    assert lines[1:] == ["1 1 1 2"]


def test_enumerate_jsonl(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--n", "2", "--alpha", "3", "--beta", "3", "--format", "jsonl",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()[1:]]
    assert len(records) == 3
    assert all(rec["alpha"] == rec["beta"] == 3 for rec in records)
    assert records[0]["entries"] == [1, 1, 2, 3]


def test_enumerate_count_only(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--n", "3", "--alpha", "3", "--beta", "5", "--count-only",
    )
    assert code == 0
    lines = out.strip().splitlines()
    # counting still happens, only the matrix listing is suppressed
    assert lines == ["# n=3 alpha=3 beta=5 count=6 positive=2"]


def test_enumerate_node_limit_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--n", "3", "--alpha", "3", "--beta", "5", "--node-limit", "5",
    )
    assert code == 3
    assert "INCOMPLETE" in out


def test_enumerate_tier_gate(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "5", "--alpha", "2", "--beta", "3")
    assert code == 2
    assert "long-running" in err


def test_scan_csv(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--n", "3", "--alpha", "2", "--beta-min", "2", "--beta-max", "5",
    )
    assert code == 0
    assert out.strip().splitlines() == ["2,0,0", "3,0,0", "4,0,0", "5,1,0"]


def test_scan_jsonl(capsys):
    code, out, _ = run(
        capsys,
        "scan", "--n", "2", "--alpha", "3", "--beta-min", "2", "--beta-max", "3",
        "--format", "jsonl",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows == [
        {"beta": 2, "count": 0, "positive": 0},
        {"beta": 3, "count": 3, "positive": 3},
    ]


def test_canon_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1 1 1\n# comment\n-1 -1 -1 -2\n"))
    code, out, _ = run(capsys, "canon")
    assert code == 0
    assert out.strip().splitlines() == ["1 1 1 2", "1 1 1 2"]


def test_canon_prints_each_line_before_reading_the_next(capsys, monkeypatch):
    printed = []

    def lines():
        for text in ("2 1 1 1\n", "-1 -1 -1 -2\n"):
            yield text
            printed.append(capsys.readouterr().out)

    monkeypatch.setattr("sys.stdin", lines())
    code, out, _ = run(capsys, "canon")
    assert code == 0
    assert printed == ["1 1 1 2\n", "1 1 1 2\n"]


def test_canon_file(capsys, tmp_path):
    path = tmp_path / "mats.txt"
    path.write_text("1 2 2 3\n")
    code, out, _ = run(capsys, "canon", "--input", str(path))
    assert code == 0
    assert out.strip() == "1 2 2 3"


def test_canon_missing_input_file_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "canon", "--input", str(tmp_path / "missing.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing.txt" in err


@pytest.mark.parametrize("line", ["1\u00a02 3 4", "\u30001 2 3 4", "1\x1c2 3 4"])
def test_canon_rejects_separators_that_are_not_ascii_whitespace(capsys, monkeypatch, line):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "canon")
    assert (code, out) == (2, "")
    assert "not an integer" in err


def test_canon_accepts_tab_cr_and_ff_separators(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2\t1\r1\f1\n"))
    code, out, _ = run(capsys, "canon")
    assert (code, out) == (0, "1 1 1 2\n")


def test_canon_rejects_zero_entry(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("1 0 1 2\n"))
    code, _, err = run(capsys, "canon")
    assert code == 2
    assert "zero" in err


def test_maxbeta(capsys):
    code, out, _ = run(capsys, "maxbeta", "--n", "3", "--alpha", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("beta_max=5 n=3 alpha=2 mode=zerofree")
    assert "lower-bound" not in lines[0]
    code, out, _ = run(capsys, "maxbeta", "--n", "3", "--alpha", "2", "--unrestricted")
    assert code == 0
    assert out.splitlines()[0].startswith("beta_max=6")


# Stage 1 of this search spends 788 nodes: the limits stop it there and
# inside the first work unit, before any leaf is reached.  Pool workers get
# the same budget, so two threads stop as quickly.
@pytest.mark.parametrize(
    "limit, threads",
    [
        pytest.param("100", "1", id="100"),
        pytest.param("2000", "1", id="2000"),
        pytest.param("2000", "2", id="2000-threads2"),
    ],
)
def test_maxbeta_truncated_without_result_is_incomplete(capsys, limit, threads):
    code, out, err = run(
        capsys,
        "maxbeta", "--n", "6", "--alpha", "2", "--best-effort", "--node-limit", limit,
        "--threads", threads,
    )
    assert code == 3
    assert out == ""
    assert "no unimodular matrix" not in err


# Each of these is outside the limits every search shares; enumerate and scan
# already refused them, and maxbeta now refuses them the same way.
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["--n", "3", "--alpha", "65"], id="alpha65"),
        pytest.param(["--n", "3", "--alpha", "2", "--threads", "0"], id="threads0"),
        pytest.param(["--n", "3", "--alpha", "2", "--threads", "-3"], id="threads-3"),
        pytest.param(["--n", "3", "--alpha", "2", "--node-limit", "0"], id="node-limit0"),
        pytest.param(["--n", "0", "--alpha", "2"], id="n0"),
        pytest.param(
            ["--n", "8", "--alpha", "2", "--best-effort", "--node-limit", "100"], id="n8"
        ),
    ],
)
def test_maxbeta_rejects_inputs_outside_the_search_regime(capsys, argv):
    code, out, err = run(capsys, "maxbeta", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "no unimodular matrix" not in err


def test_n2_table(capsys):
    code, out, _ = run(capsys, "n2", "--kmax", "7")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == DIAGONAL_2X2[:6]
    assert all(r[1] == r[2] for r in rows)


def test_n2_reports_a_mismatch(capsys, monkeypatch):
    from zerofree import closedform

    count = closedform.prop5_count
    monkeypatch.setattr(closedform, "prop5_count", lambda k: count(k) + (k == 3))
    code, out, _ = run(capsys, "n2", "--kmax", "4")
    assert code == 1
    flagged = [line.split()[0] for line in out.splitlines() if line.endswith("MISMATCH")]
    assert flagged == ["3"]


def test_verify_prop0(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop0")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.endswith("OK") for line in lines)
    assert "16 sign matrices" in lines[0]


def test_verify_prop5_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "prop5", "--kmax", "8")
    assert code == 0
    assert all(line.endswith("OK") for line in out.strip().splitlines())


def test_verify_oracle_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--samples", "25")
    assert code == 0
    assert all("0 mismatches: OK" in line for line in out.strip().splitlines())


def test_verify_oracle_fails_when_the_oracle_disagrees(capsys, monkeypatch):
    from zerofree import cli
    from zerofree.matrix import IntMatrix

    monkeypatch.setattr(cli, "canonical_form_oracle", lambda m: IntMatrix.identity(m.n))
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--samples", "3")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 3 and all(line.endswith("FAILED") for line in lines)


@pytest.mark.long_run
def test_verify_conjectures_confirms_all_three(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "conjectures")
    assert code == 0
    lines = out.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == [f"conjecture {i}" for i in (1, 2, 3)]
    assert all(line.split()[2] == "confirmed" for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "prop5", "--kmax", "1"),
        ("--suite", "prop5", "--kmax", "-3"),
        ("--suite", "oracle", "--samples", "0"),
        ("--suite", "oracle", "--samples", "-5"),
    ],
)
def test_verify_suite_with_nothing_to_check_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --")


@pytest.mark.parametrize("kmax", ["1", "-3"])
def test_n2_with_nothing_to_check_is_a_usage_error(capsys, kmax):
    code, out, err = run(capsys, "n2", "--kmax", kmax)
    assert (code, out, err) == (2, "", "error: --kmax must be at least 2\n")


@pytest.mark.parametrize("value", ["0", "-3", "two", "1.5"])
def test_invalid_thread_variable_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("ZEROFREE_THREADS", value)
    code, out, err = run(capsys, "enumerate", "--n", "3", "--alpha", "3", "--beta", "5")
    assert code == 2
    assert out == ""
    assert "ZEROFREE_THREADS" in err and repr(value) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--n", "3", "--alpha", "3", "--beta", "5", "--node-limit", "1"],
        ["scan", "--n", "3", "--alpha", "3", "--beta-min", "2", "--beta-max", "5"],
        ["maxbeta", "--n", "3", "--alpha", "2"],
        ["maxbeta", "--n", "3", "--alpha", "2", "--unrestricted"],
    ],
    ids=["enumerate-stopped-in-stage-1", "scan", "maxbeta", "maxbeta-unrestricted"],
)
def test_every_search_rejects_an_invalid_thread_variable(capsys, monkeypatch, argv):
    # read before the search runs, so a node limit that stops stage 1 first
    # does not skip it
    monkeypatch.setenv("ZEROFREE_THREADS", "0")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "ZEROFREE_THREADS" in err


def test_empty_thread_variable_counts_as_unset(capsys, monkeypatch):
    monkeypatch.setenv("ZEROFREE_THREADS", "")
    code, out, _ = run(capsys, "enumerate", "--n", "2", "--alpha", "2", "--beta", "2")
    assert code == 0
    assert out.splitlines()[1:] == ["1 1 1 2"]


@pytest.mark.parametrize("value, workers", [("2", 2), (" 3 ", 3)])
def test_a_valid_thread_variable_sets_the_worker_count(monkeypatch, value, workers):
    monkeypatch.setenv("ZEROFREE_THREADS", value)
    assert default_thread_budget() == workers


def test_thread_variable_is_not_read_when_threads_is_given(capsys, monkeypatch):
    monkeypatch.setenv("ZEROFREE_THREADS", "two")
    code, _, _ = run(
        capsys, "enumerate", "--n", "2", "--alpha", "2", "--beta", "2", "--threads", "1"
    )
    assert code == 0


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "2"])  # missing required arguments
    assert exc.value.code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explore"])
    assert exc.value.code == 2


def test_checkpoint_flow(capsys, tmp_path):
    path = str(tmp_path / "run.ckpt")
    code, out1, _ = run(
        capsys,
        "enumerate", "--n", "3", "--alpha", "3", "--beta", "5", "--checkpoint", path,
    )
    assert code == 0
    code, out2, _ = run(
        capsys,
        "enumerate", "--n", "3", "--alpha", "3", "--beta", "5",
        "--checkpoint", path, "--resume",
    )
    assert code == 0
    assert out1 == out2


def test_a_malformed_journal_record_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "run.ckpt"
    argv = ["enumerate", "--n", "2", "--alpha", "3", "--beta", "3", "--checkpoint", str(path)]
    assert run(capsys, *argv)[0] == 0
    # unit 1 without its node count, under a digest that matches
    body = {"index": 1, "payload": {"found": {}}}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = json.dumps({"digest": digest, **body}, sort_keys=True) + "\n"
    path.write_text("".join(lines))
    code, out, err = run(capsys, *argv, "--resume")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "line 3" in err


def test_a_journaled_leaf_outside_the_query_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "forged.ckpt"
    argv = ["enumerate", "--n", "2", "--alpha", "3", "--beta", "3", "--checkpoint", str(path)]
    assert run(capsys, *argv)[0] == 0
    # unit 1 holds a leaf with entries above alpha = 3, under a digest that matches
    body = {"index": 1, "payload": {"found": {"3,3": [[[9, 9, 9, 9], True, 1]]}, "nodes": 1}}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    head = "".join(path.read_text().splitlines(keepends=True)[:2])
    path.write_text(head + json.dumps({"digest": digest, **body}, sort_keys=True) + "\n")
    code, out, err = run(capsys, *argv, "--resume")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "unit 1" in err


def test_a_journaled_singular_leaf_is_a_usage_error(capsys, tmp_path):
    # every cheap leaf rule passes 3 3 3 3, so only its determinant, 0
    # against the recorded 1, keeps it from printing as a class
    path = tmp_path / "forged.ckpt"
    argv = ["enumerate", "--n", "2", "--alpha", "3", "--beta", "3", "--checkpoint", str(path)]
    assert run(capsys, *argv)[0] == 0
    body = {"index": 1, "payload": {"found": {"3,3": [[[3, 3, 3, 3], True, 1]]}, "nodes": 1}}
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    head = "".join(path.read_text().splitlines(keepends=True)[:2])
    path.write_text(head + json.dumps({"digest": digest, **body}, sort_keys=True) + "\n")
    code, out, err = run(capsys, *argv, "--resume")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "unit 1" in err


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_checkpoint_in_missing_directory_is_a_usage_error(capsys, tmp_path, resume):
    path = str(tmp_path / "missing" / "x.json")
    argv = ["enumerate", "--n", "3", "--alpha", "3", "--beta", "5", "--checkpoint", path]
    code, out, err = run(capsys, *argv, *(["--resume"] if resume else []))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err
