"""Tests of the benchmark's own machinery: span arithmetic, output checks, inputs.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from zerofree import ClassQuery, IntMatrix, enumerate_classes
from zerofree.engine import MaxBetaResult

# A maximiser of max_beta_search(4, 2, "unrestricted"): beta = 30.
WITNESS_4X4 = (0, 0, 1, 1, 0, 1, 2, 2, 1, 2, 1, -2, 1, -2, 2, -2)


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 100) holds a [10, 40) and a second span of the same name
    # [50, 90); the first holds b [15, 25) and c [30, 38); c holds b [31, 33).
    names = ["root", "a", "b", "c"]
    spans = [  # name id, start, end, parent
        (0, 0, 100, -1),
        (1, 10, 40, 0),
        (2, 15, 25, 1),
        (3, 30, 38, 1),
        (2, 31, 33, 3),
        (1, 50, 90, 0),
    ]
    name, start, end, parent = (np.array(col) for col in zip(*spans))
    selfs = tracing.self_times(name, start, end, parent, len(names)) * 1e9
    assert selfs.tolist() == pytest.approx([30, 12 + 40, 10 + 2, 6])
    assert selfs.sum() == pytest.approx(100)
    assert tracing.call_counts(name, len(names)).tolist() == [1, 2, 2, 1]


def test_tracer_self_times_cover_the_root_span():
    tracer = tracing.Tracer("test")
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    with tracer.span("outer"):
        for _ in range(3):
            inner(10_000)
    columns = tracer.columns()
    selfs = tracing.self_times(*columns, len(tracer.names))
    _, start, end, parent = columns
    assert parent.tolist() == [-1, 0, 0, 0]
    assert selfs.sum() == pytest.approx((end[0] - start[0]) / 1e9)


def test_instrument_restores_the_entry_points():
    originals = [owner.__dict__[attr] for _, owner, attr in tracing._ENTRY_POINTS]
    with tracing.Tracer("test").instrument():
        assert all(
            owner.__dict__[attr] is not orig
            for (_, owner, attr), orig in zip(tracing._ENTRY_POINTS, originals)
        )
    assert [owner.__dict__[attr] for _, owner, attr in tracing._ENTRY_POINTS] == originals


def _maxbeta_result(beta_max, witness=WITNESS_4X4):
    return MaxBetaResult(4, 2, "unrestricted", beta_max, IntMatrix(4, witness), True, 288752)


def test_maxbeta_check_accepts_the_answer_and_rejects_a_wrong_beta():
    workload = workloads.MaxBeta4x4(1, Path("."))
    good = workloads.Checks()
    workload.check(_maxbeta_result(30), good)
    assert good.attempted > 0 and good.failed == 0

    wrong = workloads.Checks()
    workload.check(_maxbeta_result(29), wrong)
    assert wrong.failed >= 2  # the tabulated value and the witness's beta


@pytest.fixture(scope="module")
def classes_433():
    return enumerate_classes(ClassQuery(4, 3, 3, thread_budget=1))


def test_checkpoint_check_rejects_a_dropped_class(classes_433, tmp_path):
    workload = workloads.Checkpoint4x4(1, tmp_path)
    good = workloads.Checks()
    workload.check((classes_433, classes_433), good)
    assert good.attempted > 0 and good.failed == 0, good.failures

    dropped = dataclasses.replace(
        classes_433,
        classes=classes_433.classes[:-1],
        total_count=classes_433.total_count - 1,
    )
    bad = workloads.Checks()
    workload.check((classes_433, dropped), bad)
    assert "resumed counts" in bad.failures
    assert "resume gives the same classes" in bad.failures

    bad = workloads.Checks()
    workload.check((dropped, dropped), bad)
    assert "first counts" in bad.failures


def test_canon_stream_input_is_a_function_of_the_seed(tmp_path):
    text = workloads.canon_input(7)
    assert workloads.canon_input(7) == text
    assert workloads.canon_input(8) != text
    workload = workloads.CanonStream(7, tmp_path)
    assert workload.path.read_bytes() == text.encode()
    lines = text.splitlines()
    assert len(lines) == workloads.CANON_RANDOM + workloads.CANON_SYMMETRIC
    assert {len(line.split()) for line in lines} == {n * n for n in range(3, 8)}


def test_benchmark_json_names_the_metrics_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
