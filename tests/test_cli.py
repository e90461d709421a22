"""Command-line interface: subcommands, formats, exit codes."""

import json

import pytest

from zerofree.cli import main

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


def test_canon_file(capsys, tmp_path):
    path = tmp_path / "mats.txt"
    path.write_text("1 2 2 3\n")
    code, out, _ = run(capsys, "canon", "--input", str(path))
    assert code == 0
    assert out.strip() == "1 2 2 3"


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
