"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def S(sid, parent, start, end, name="x"):
    return spans.Span(sid, parent, 0, name, start, end)


def test_self_time_subtracts_direct_children_only():
    tree = [S(0, None, 0.0, 10.0), S(1, 0, 1.0, 4.0), S(2, 1, 2.0, 3.0), S(3, 0, 5.0, 9.0)]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [S(0, None, 0.0, 10.0), S(1, 0, 1.0, 5.0), S(2, 0, 3.0, 6.0), S(3, 0, 9.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_scaled_self_times_sum_by_name_with_each_operations_factor():
    rec = spans.Recorder(True)
    rec.spans = [spans.Span(0, None, 0, "op", 0.0, 10.0), spans.Span(1, 0, 0, "a", 1.0, 4.0),
                 spans.Span(2, None, 1, "op", 10.0, 12.0), spans.Span(3, 2, 1, "a", 10.0, 11.0)]
    batch = run.Batch()
    batch.factors = [1.0, 0.5]
    assert run.scaled_self_times(rec, batch) == {"op": 7.0 + 0.5, "a": 3.0 + 0.5}


def test_speed_factors_use_the_local_median_reference():
    factors = run.speed_factors([0.002] * 10 + [0.004] * 10)
    assert factors[0] == factors[6] == 1.0
    assert factors[-1] == factors[-7] == 0.5


def test_recorder_survives_a_round_trip_through_json():
    rec = spans.Recorder(True)
    with rec.span("op", op=0):
        rec.count("n", 3)
    back = spans.Recorder.load(json.loads(json.dumps(rec.dump())), True)
    assert back.spans == rec.spans and back.counts == rec.counts


def test_recorder_nests_spans_and_tags_the_operation():
    tr = spans.Recorder(True)
    with tr.span("op", op=7):
        with tr.span("a"):
            with tr.span("b"):
                pass
        with tr.span("c"):
            pass
    by_name = {s.name: s for s in tr.spans}
    assert by_name["op"].parent is None
    assert by_name["a"].parent == by_name["c"].parent == by_name["op"].sid
    assert by_name["b"].parent == by_name["a"].sid
    assert {s.op for s in tr.spans} == {7}
    assert len({s.sid for s in tr.spans}) == 4
    own = spans.self_times(tr.spans)
    root = by_name["op"]
    covered = sum(s.end - s.start for s in (by_name["a"], by_name["c"]))
    assert own[root.sid] == pytest.approx(root.end - root.start - covered)


@pytest.mark.parametrize("samples, expected", [
    (10, [50]), (99, [50]), (100, [50, 90]), (999, [50, 90]),
    (1000, [50, 90, 99]), (10000, [50, 90, 99, 99.9]),
])
def test_highest_percentile_has_ten_samples_beyond_it(samples, expected):
    assert run.reportable_percentiles(samples) == expected


def test_percentile_of_a_known_sample():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50.5
    assert run.percentile(values, 90) == pytest.approx(90.1)


SEEDED = ["corrupt_campaign", "exact_tails", "cube_sweeps"]


@pytest.mark.parametrize("name", SEEDED)
def test_generators_are_deterministic_per_seed_and_differ_across_seeds(name):
    batch = workloads.WORKLOADS[name].batch
    assert batch(1, 0) == batch(1, 0)
    assert batch(1, 1) == batch(1, 1)
    assert batch(1, 0) != batch(2, 0)
    assert batch(1, 0) != batch(1, 1)


def test_suite_takes_no_seed():
    batch = workloads.WORKLOADS["suite"].batch
    assert batch(1, 0) == batch(2, 0) == list(range(10))


def test_exact_tails_never_repeats_n_within_150_batches():
    ns = [q.n for b in range(150) for q in workloads.tails_batch(3, b)]
    assert len(ns) == len(set(ns))
    assert min(ns) >= 512 and max(ns) <= 2048


def test_cube_sweeps_batches_share_one_mix():
    def mix(ops):
        return sorted((op.kind, op.n if op.kind in ("kernels", "keylemma") else 0) for op in ops)
    assert mix(workloads.cube_batch(1, 0)) == mix(workloads.cube_batch(5, 3))


def test_tail_row_matches_math_comb():
    from math import comb
    row = workloads.tail_row(20)
    assert row == [sum(comb(20, i) for i in range(k + 1)) for k in range(21)]


def _cheap_ops():
    ctx = workloads.Context(HERE.parent / ".bench_out")
    yield workloads.WORKLOADS["cube_sweeps"], workloads.CubeOp("harper", 4, (5, 1)), ctx
    yield workloads.WORKLOADS["exact_tails"], workloads.TailQuery(64, 30, 5, "01100000"), ctx


def test_tracing_off_records_no_spans():
    for wl, spec, ctx in _cheap_ops():
        tr = spans.Recorder(False)
        batch = run.run_batch(wl, [spec], ctx, tr)
        assert batch.failed == 0 and tr.spans == [] and not tr.counts


def test_tracing_on_records_the_layer_spans():
    wl, spec, ctx = next(_cheap_ops())
    tr = spans.Recorder(True)
    run.run_batch(wl, [spec], ctx, tr)
    assert [s.name for s in tr.spans] == ["cube.harper", "op", "check"]


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
