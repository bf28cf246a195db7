"""Self-tests of the benchmark (outside tier-1's ``testpaths``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_selfcheck.py -q
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

from benchmarks.e2e import compare, gen, spans, stats

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(REPO, "benchmarks", "e2e", "run.py")

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    CONTRACT = json.load(_fh)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


# -- the percentile rule ------------------------------------------------------


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.percentile([5], 99) == 5
    assert stats.percentile(range(101), 90) == 90


@pytest.mark.parametrize("nsamples, expected", [
    (10, None),  # 2.5 samples beyond p75
    (39, None),
    (40, 75.0),  # exactly 10 beyond p75
    (99, 75.0),
    (100, 90.0),
    (200, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(
        nsamples, expected):
    assert stats.tail_percentile(nsamples) == expected


def test_class_balanced_median_ignores_the_mix():
    cheap, dear = [("a", 1.0)] * 5, [("b", 9.0)] * 5
    assert stats.class_balanced_median(cheap + dear) == 5.0
    # One more cheap op would flip a plain median to 1.0.
    assert stats.class_balanced_median(cheap + dear + [("a", 1.0)]) == 5.0
    assert stats.class_balanced_median([("a", v) for v in (1, 2, 6)]) == 2


def test_spread_matches_the_acceptance_formula():
    import statistics

    values = [10.0, 10.2, 9.9, 10.4, 10.1, 9.8, 10.0, 10.3, 9.7, 10.2]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / q2


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    rec = spans.Recorder(True)
    root = rec.add("root", 0.0, 10.0)
    rec.add("a", 1.0, 4.0, parent=root)
    rec.add("b", 3.0, 6.0, parent=root)  # overlaps a by 1
    rec.add("c", 9.0, 12.0, parent=root)  # sticks out by 2
    own = spans.self_times(rec.spans)
    assert own[root] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0)  # leaves keep their duration


def test_spans_nest_per_thread_and_inherit_the_op():
    rec = spans.Recorder(True)
    with rec.span("outer", op=7) as outer:
        with rec.span("inner") as inner:
            pass
    assert rec.spans[inner].parent == outer
    assert rec.spans[inner].op == 7
    assert rec.spans[outer].start <= rec.spans[inner].start
    assert rec.spans[inner].end <= rec.spans[outer].end


def test_disabled_recorder_records_nothing():
    rec = spans.Recorder(False)
    with rec.span("x") as span_id:
        assert span_id is None
    assert rec.add("y", 0.0, 1.0) is None
    assert rec.spans == []


def test_trace_export_is_trace_event_json():
    rec = spans.Recorder(True)
    with rec.span("service.http.submit", op=1):
        pass
    doc = json.loads(json.dumps(spans.to_trace_events(rec.spans)))
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["name"] for e in complete] == ["service.http.submit"]
    assert {"ts", "dur", "pid", "tid", "cat", "args"} <= set(complete[0])


# -- generators ---------------------------------------------------------------


def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("stream", [
    gen.sim_payloads, gen.scaling_payloads, gen.full_payloads])
def test_same_seed_same_inputs_and_never_a_repeat(stream):
    from repro.service import payload_key

    first, again = _take(stream(3), 400), _take(stream(3), 400)
    assert first == again
    assert _take(stream(4), 400) != first
    payloads = [p[1] if isinstance(p, tuple) else p for p in first]
    keys = {payload_key("sim", p) for p in payloads}
    assert len(keys) == len(payloads)


def test_full_stream_keeps_the_papers_iteration_counts():
    for nnodes, payload in _take(gen.full_payloads(1), 20):
        cfg = gen.perf_config(payload)
        assert cfg.nblocks == {1: 500, 8: 1414}[nnodes]


def test_hpl_configs_are_seeded_and_distinct():
    first = [c.seed for c in _take(gen.hpl_configs(5), 50)]
    assert first == [c.seed for c in _take(gen.hpl_configs(5), 50)]
    assert len(set(first)) == 50


# -- compare ------------------------------------------------------------------


@pytest.mark.parametrize("base, change, better, expected", [
    ([10, 10.1, 9.9, 10], [10, 10.05, 9.95, 10.02], "lower", "same"),
    ([10, 10.1, 9.9, 10], [12, 12.1, 11.9, 12], "lower", "worse"),
    ([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "lower", "better"),
    ([10, 10.1, 9.9, 10], [8, 8.1, 7.9, 8], "higher", "worse"),
    ([10, 14, 7, 12], [11, 13, 8, 9], "lower", "unresolved"),
])
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, better, 0.1) == expected


# -- smoke: the command itself ------------------------------------------------


def _run(*argv) -> dict:
    done = subprocess.run([sys.executable, RUN, *argv], cwd=REPO,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for spec in declared:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"], spec["name"]
        assert isinstance(got["value"], (int, float)), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _run("--workload", workload, "--seed", "1",
                  "--window-s", "2", "--trace", "0")
    _assert_metrics(result, CONTRACT["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_emits_every_layer_metric_and_a_trace():
    result = _run("--workload", "fig8_sweep", "--seed", "1",
                  "--window-s", "2", "--trace", "1")
    _assert_metrics(result, CONTRACT["per_layer"])
    path = os.path.join(REPO, "benchmarks", "e2e", "out",
                        "trace_fig8_sweep.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert any(e["name"] == "perf.simulate_run.fast"
               for e in doc["traceEvents"])


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: exit non-zero."""
    import shutil

    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(REPO, "benchmarks", "e2e"),
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig8_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
