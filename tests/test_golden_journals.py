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

from zerofree.engine import ClassQuery, enumerate_classes, load_checkpoint

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
