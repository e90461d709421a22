"""Properties: every stop/resume split and every node limit of a checkpointed
search, at any worker count, resumes to the result and the journal of one
uninterrupted serial run, and a split resumed under a node limit gives the
result of a fresh run under that limit."""

import os
import tempfile

import pytest

from zerofree.engine import ClassQuery, enumerate_classes, load_checkpoint

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# (3,3,5) has 36 work units and 419 nodes, and runs in milliseconds.
QUERY = (3, 3, 5)
UNITS = 36
NODES = 419


def _outcome(result, path):
    return (
        [c.rep.entries for c in result.classes],
        result.nodes_explored,
        load_checkpoint(path).completed,
    )


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("serial") / "run.ckpt")
    result = enumerate_classes(ClassQuery(*QUERY, thread_budget=1), checkpoint_path=path)
    assert result.complete and result.nodes_explored == NODES
    assert len(load_checkpoint(path).completed) == UNITS
    return _outcome(result, path)


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    stop=st.integers(0, UNITS),
    first=st.sampled_from([1, 2]),
    second=st.sampled_from([1, 2]),
)
def test_any_split_resumes_to_the_uninterrupted_run(uninterrupted, stop, first, second):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "split.ckpt")
        enumerate_classes(
            ClassQuery(*QUERY, thread_budget=first), checkpoint_path=path, _stop_after_units=stop
        )
        assert len(load_checkpoint(path).completed) == stop
        resumed = enumerate_classes(
            ClassQuery(*QUERY, thread_budget=second), checkpoint_path=path, resume=True
        )
        assert resumed.complete
        assert _outcome(resumed, path) == uninterrupted


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(limit=st.integers(1, NODES + 10), threads=st.sampled_from([1, 2]))
def test_any_node_limit_truncates_alike_and_resumes(uninterrupted, limit, threads):
    serial = enumerate_classes(ClassQuery(*QUERY, thread_budget=1, node_limit=limit))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "limit.ckpt")
        cut = enumerate_classes(
            ClassQuery(*QUERY, thread_budget=threads, node_limit=limit), checkpoint_path=path
        )
        assert [c.rep.entries for c in cut.classes] == [c.rep.entries for c in serial.classes]
        assert cut.nodes_explored == serial.nodes_explored <= limit
        assert cut.complete == (limit >= NODES)
        if not os.path.exists(path):
            # the limit stopped stage 1, before the unit list and the journal
            assert not cut.classes
            return
        resumed = enumerate_classes(
            ClassQuery(*QUERY, thread_budget=threads), checkpoint_path=path, resume=True
        )
        assert _outcome(resumed, path) == uninterrupted


@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(
    stop=st.integers(0, UNITS),
    first=st.sampled_from([1, 2]),
    second=st.sampled_from([1, 2]),
    limit=st.integers(1, NODES + 10),
)
# the whole journal outweighs the limit: no unit of it may count
@hypothesis.example(stop=UNITS, first=1, second=1, limit=100)
def test_resuming_under_a_node_limit_equals_a_fresh_run_under_it(stop, first, second, limit):
    fresh = enumerate_classes(ClassQuery(*QUERY, thread_budget=1, node_limit=limit))
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "split.ckpt")
        enumerate_classes(
            ClassQuery(*QUERY, thread_budget=first), checkpoint_path=path, _stop_after_units=stop
        )
        resumed = enumerate_classes(
            ClassQuery(*QUERY, thread_budget=second, node_limit=limit),
            checkpoint_path=path,
            resume=True,
        )
    assert [c.rep.entries for c in resumed.classes] == [c.rep.entries for c in fresh.classes]
    assert (resumed.nodes_explored, resumed.complete) == (fresh.nodes_explored, fresh.complete)
    assert resumed.nodes_explored <= limit
