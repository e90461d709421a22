"""Checkpoint journals against committed golden files.

tests/data holds journals written by an earlier engine: the complete
(2,3,3) and (3,3,5) journals and the first 50 of the 1,148 units of
(4,3,3); (3,3,5) pins the units of n-1 rows that n <= 3 searches store.
A journal's header query and record bytes are a file format, so a change
to either shows here even when the writer and the reader change together.
"""

import shutil
from pathlib import Path

import pytest

from zerofree.cli import main
from zerofree.engine import CheckpointError, ClassQuery, enumerate_classes, load_checkpoint

DATA = Path(__file__).parent / "data"


def test_a_fresh_journal_equals_its_golden_file(tmp_path):
    path = tmp_path / "fresh.ckpt"
    enumerate_classes(ClassQuery(2, 3, 3, thread_budget=1), checkpoint_path=str(path))
    assert path.read_bytes() == (DATA / "journal_2_3_3.jsonl").read_bytes()


def test_a_fresh_n3_journal_equals_its_golden_file(tmp_path):
    path = tmp_path / "fresh.ckpt"
    enumerate_classes(ClassQuery(3, 3, 5, thread_budget=1), checkpoint_path=str(path))
    assert path.read_bytes() == (DATA / "journal_3_3_5.jsonl").read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_cut_n3_journal_resumes_to_its_golden_file(tmp_path, threads):
    golden = (DATA / "journal_3_3_5.jsonl").read_bytes()
    path = tmp_path / "cut.ckpt"
    # the header and the first 10 of the 36 units
    path.write_bytes(b"".join(golden.splitlines(keepends=True)[:11]))
    assert sorted(load_checkpoint(str(path)).completed) == list(range(10))
    q = ClassQuery(3, 3, 5, thread_budget=threads)
    resumed = enumerate_classes(q, checkpoint_path=str(path), resume=True)
    assert resumed.complete
    assert (resumed.total_count, resumed.nodes_explored) == (6, 419)
    assert path.read_bytes() == golden


def test_a_journal_with_a_gap_is_rejected(tmp_path, capsys):
    # units 0, 1 and 8 of (3,3,5): a journal holds units 0..k-1, so unit 8
    # cannot follow unit 1, and a resume under a node limit that would keep
    # the journal's units out of unit order refuses it
    golden = (DATA / "journal_3_3_5.jsonl").read_bytes().splitlines(keepends=True)
    path = tmp_path / "gap.ckpt"
    path.write_bytes(b"".join(golden[i] for i in (0, 1, 2, 9)))
    with pytest.raises(CheckpointError, match="unit 8 out of unit order on line 4"):
        load_checkpoint(str(path))
    argv = ["--n", "3", "--alpha", "3", "--beta", "5", "--node-limit", "200"]
    code = main(["enumerate", *argv, "--checkpoint", str(path), "--resume"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "out of unit order" in err


@pytest.fixture(scope="module")
def fresh_4_3_3(tmp_path_factory):
    path = tmp_path_factory.mktemp("fresh") / "fresh.ckpt"
    result = enumerate_classes(ClassQuery(4, 3, 3, thread_budget=1), checkpoint_path=str(path))
    return result, path.read_bytes()


@pytest.mark.parametrize("threads", [1, 2])
def test_a_golden_partial_journal_resumes_to_the_fresh_one(tmp_path, fresh_4_3_3, threads):
    fresh, fresh_bytes = fresh_4_3_3
    path = tmp_path / "golden.ckpt"
    shutil.copyfile(DATA / "journal_4_3_3_first50.jsonl", path)
    assert sorted(load_checkpoint(str(path)).completed) == list(range(50))
    q = ClassQuery(4, 3, 3, thread_budget=threads)
    resumed = enumerate_classes(q, checkpoint_path=str(path), resume=True)
    assert resumed.complete and fresh.complete
    assert (resumed.total_count, resumed.nodes_explored) == (163, 80_032)
    assert [c.rep for c in resumed.classes] == [c.rep for c in fresh.classes]
    assert path.read_bytes() == fresh_bytes
