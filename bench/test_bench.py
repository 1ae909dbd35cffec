"""Tests of the benchmark itself (``python -m pytest bench/ -q``).

Not collected by the repo's tier-1 suite (``testpaths = ["tests"]``).
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


# -- span self-time arithmetic ----------------------------------------------


def test_self_time_nested_children():
    rows = [["root", 0.0, 10.0, -1, 0],
            ["child", 1.0, 7.0, 0, 0],
            ["grandchild", 2.0, 5.0, 1, 0]]
    assert spans.self_times(rows) == [4.0, 3.0, 3.0]


def test_self_time_sibling_children():
    rows = [["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 3.0, 0, 0],
            ["b", 4.0, 8.0, 0, 0]]
    assert spans.self_times(rows) == [4.0, 2.0, 4.0]


def test_self_time_child_overrunning_parent_is_clipped():
    rows = [["root", 0.0, 10.0, -1, 0],
            ["late", 8.0, 13.0, 0, 0],
            ["early", -2.0, 1.0, 0, 0]]
    assert spans.self_times(rows)[0] == 7.0


def test_self_time_overlapping_children_are_merged():
    rows = [["root", 0.0, 10.0, -1, 0],
            ["a", 1.0, 6.0, 0, 0],
            ["b", 4.0, 8.0, 0, 0]]
    assert spans.self_times(rows)[0] == 3.0


def test_aggregate_counts_outermost_total_once():
    rows = [["run", 0.0, 10.0, -1, 0],
            ["run", 2.0, 6.0, 0, 0],
            ["other", 3.0, 4.0, 1, 0]]
    agg = spans.aggregate(rows)
    assert agg["run"] == {"calls": 2, "total": 10.0, "self": 9.0}
    assert agg["other"]["self"] == 1.0


def test_under_keeps_only_the_named_trees():
    rows = [["build", 0.0, 1.0, -1, 0], ["x", 0.1, 0.2, 0, 0],
            ["pass", 1.0, 3.0, -1, 0], ["y", 1.5, 2.0, 2, 7]]
    assert spans.under(rows, "pass") == [["pass", 1.0, 3.0, -1, 0],
                                         ["y", 1.5, 2.0, 0, 7]]


def test_recorder_wraps_records_and_restores():
    class Layer:
        def entry(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

    original = Layer.__dict__["entry"]
    seen = []
    recorder = spans.SpanRecorder()
    recorder.wrap(Layer, "entry", "layer.entry", new_op=True,
                  after=lambda result, *args: seen.append(result))
    recorder.wrap(Layer, "inner", "layer.inner")
    with recorder.span("root"):
        assert Layer().entry(3) == 7
    recorder.restore()
    assert Layer.__dict__["entry"] is original
    assert seen == [7]
    names = [(row[spans.NAME], row[spans.PARENT], row[spans.OP])
             for row in recorder.spans]
    assert names == [("root", -1, 0), ("layer.entry", 0, 1),
                     ("layer.inner", 1, 1)]


def test_recorder_stands_in_for_the_phase_profiler_and_leaves():
    from repro.obs.profile import PROFILER
    recorder = spans.SpanRecorder()
    recorder.adopt_profiler(PROFILER)
    with PROFILER.phase("some.phase"):
        pass
    recorder.restore()
    assert not PROFILER.enabled and "phase" not in vars(PROFILER)
    assert [row[spans.NAME] for row in recorder.spans] == ["some.phase"]


# -- the latency tail rule ----------------------------------------------------


@pytest.mark.parametrize("samples, expected", [
    (100_000, 99.0), (1000, 99.0), (999, 98.0), (500, 98.0), (499, 95.0),
    (200, 95.0), (199, 90.0), (100, 90.0), (99, 80.0), (50, 80.0),
    (49, None)])
def test_highest_percentile_with_ten_samples_beyond(samples, expected):
    assert metrics.tail_percentile(samples) == expected


def test_latency_summary_steps_down_and_says_which():
    summary = metrics.latency_summary([float(i) for i in range(1, 201)])
    assert summary == {"samples": 200, "p50": 100.0, "tail": 190.0,
                       "tail_pct": 95.0}
    assert "tail" not in metrics.latency_summary([1.0] * 20)


# -- compare verdicts -----------------------------------------------------------


def test_verdict_logic():
    rel = ("rel", 0.10)
    assert compare.verdict("ops_per_s", 100.0, 95.0, rel, 0.03) == "ok"
    assert compare.verdict("ops_per_s", 100.0, 120.0, rel, 0.03) == "ok"
    assert compare.verdict("ops_per_s", 100.0, 85.0, rel, 0.03) == "regressed"
    # Noisier than the bound: cannot call it unchanged, nor regressed
    # when the delta is inside the noise.
    assert compare.verdict("ops_per_s", 100.0, 95.0, rel, 0.2) == "unresolved"
    assert compare.verdict("ops_per_s", 100.0, 85.0, rel, 0.2) == "unresolved"
    assert compare.verdict("setup_s", 1.0, 1.2, rel, 0.0) == "regressed"
    assert compare.verdict("setup_s", 1.0, None, rel, 0.0) == "unresolved"
    absolute = ("abs", 0.02)
    assert compare.verdict("stale_frac", 0.10, 0.11, absolute, 0.0) == "ok"
    assert compare.verdict("stale_frac", 0.10, 0.13, absolute,
                           0.0) == "regressed"
    assert compare.verdict("check_fail", 0.0, 1.0, ("abs", 0.0),
                           0.0) == "regressed"


def _result(ops_per_s, digest="d", stale=0.1, spread=0.02, seed=7):
    cell = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    return {"seed": seed, "smoke": False, "workloads": {"kv_live": {
        "stat_digest": digest,
        "harness": {"bench.pass_spread_frac": spread, "bench.cpu_frac": 0.99},
        "end_to_end": {"ops_per_s": cell(ops_per_s, "ops/s"),
                       "stale_frac": cell(stale, "ratio")}}}}


def test_compare_flags_a_changed_digest_and_counts_regressions():
    lines, regressed = compare.compare(_result(100.0), _result(99.0))
    assert regressed == 0 and not any("changed" in line for line in lines)
    lines, regressed = compare.compare(
        _result(100.0), _result(70.0, digest="e", stale=0.2))
    assert regressed == 2
    assert any("simulated behaviour changed" in line for line in lines)
    # Different seeds: digests differ by construction, nothing to flag.
    lines, _ = compare.compare(_result(100.0),
                               _result(100.0, digest="e", seed=8))
    assert not any("changed" in line for line in lines)


# -- BENCHMARK.json against the catalogues ----------------------------------------


def test_benchmark_json_matches_the_catalogues():
    from layers import LAYER_INDEX
    from workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    for spec in declared["end_to_end"]:
        unit, better, bound, _, _ = metrics.END_TO_END[spec["name"]]
        assert (spec["unit"], spec["better"]) == (unit, better)
        assert bound is None and 0 < spec["bound"] <= 0.25
    assert "setup_s" in {spec["name"] for spec in declared["end_to_end"]}
    assert [(s["name"], s["unit"], s["better"])
            for s in declared["per_layer"]] == [
        (name, unit, better)
        for name, (unit, better, _, _) in LAYER_INDEX.items()]
    assert len(declared["per_layer"]) <= 128


# -- the command, at smoke scale ---------------------------------------------------


def _run(tmp_path, *args):
    out = tmp_path / "result.json"
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
         "--out", str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return done.stdout.splitlines(), json.load(handle)


def _sim_cells(row):
    return {name: cell["value"] for name, cell in row["end_to_end"].items()
            if metrics.END_TO_END[name][3]}


def test_smoke_kv_live_twice_gives_identical_sim_metrics(tmp_path):
    lines_a, first = _run(tmp_path, "--workload", "kv_live")
    _, second = _run(tmp_path, "--workload", "kv_live")
    row_a, row_b = (r["workloads"]["kv_live"] for r in (first, second))
    assert row_a["stat_digest"] == row_b["stat_digest"]
    assert _sim_cells(row_a) == _sim_cells(row_b)
    assert len(_sim_cells(row_a)) >= 6
    line = json.loads(lines_a[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = [s["name"] for s in json.load(handle)["end_to_end"]]
    assert list(line["metrics"]) == declared
    assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_smoke_full_command_checks_every_workload(tmp_path):
    lines, result = _run(tmp_path)
    assert json.loads(lines[-1])["claim"] is None
    assert list(result)[-1] == "claim" and result["claim"] is None
    assert result["check_fail"] == 0
    assert result["manifest"]["seed"] == 7
    assert len(result["workloads"]) == 7
    for name, row in result["workloads"].items():
        cells = row["end_to_end"]
        assert cells["check_fail"]["value"] == 0, name
        assert {"setup_s", "ops_per_s", "peak_rss_mb", "fail_frac",
                "hit_ratio", "sim_p50_s"} <= set(cells), name
        assert all(cell["value"] == cell["value"] for cell in cells.values())
    kernel = result["workloads"]["kv_kernel"]["end_to_end"]
    assert "msgs_per_op" not in kernel and "model_gap" in kernel


def test_smoke_traced_pass_attributes_the_wall_and_restores(tmp_path):
    lines, result = _run(tmp_path, "--workload", "mobile_walk", "--trace", "1")
    row = result["workloads"]["mobile_walk"]
    assert not row["check_fail"]  # includes "wrappers not restored"
    layer = row["per_layer"]
    assert layer["bench.unattributed_frac"]["value"] < 0.05
    assert "bench.trace_overhead_frac" in layer
    assert not any(name.startswith("kvstore.") for name in layer)
    shares = row["traced"]["self_share"]
    assert abs(sum(shares.values()) - 1.0) < 1e-6
    assert max(shares, key=shares.get) == "kernel.batch_pass"
    assert (tmp_path / row["traced"]["spans_file"]).exists()
    line = json.loads(lines[-1])
    assert line["metrics"]["kvstore.get_calls"]["value"] == 0
    assert line["metrics"]["geometry.rebuild_s"]["value"] > 0
