"""Run observatory: manifests, phase profiler, offline trace analysis.

Covers the provenance manifest schema, the nested phase profiler
(including pool-worker merging), the streaming ``repro obs`` queries
(summarize / timeline / diff), and a pool sweep's trace assembled from
its tasks' segments.
"""

import json
import math
import random
import time

import pytest

from repro.config import RunConfig, current_run, run_scope
from repro.core import RandomStrategy
from repro.experiments.runner import run_sweep
from repro.membership import FullMembership
from repro.obs import (
    MANIFEST_SCHEMA,
    EventTrace,
    Histogram,
    PhaseProfiler,
    RunManifest,
    access_timeline,
    collect_manifest,
    diff_summaries,
    render_diff,
    render_summary,
    render_timeline,
    summarize_trace,
    summary_to_jsonable,
)
from repro.obs.profile import PROFILER, profiled
from repro.simnet import NetworkConfig, SimNetwork


def make_net(n=100, seed=0, **kw):
    return SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed, **kw))


def probe_for(targets, value="v"):
    hit_set = set(targets)

    def probe(node):
        return value if node in hit_set else None

    return probe


def run_traced_accesses(net, seed=7, n_keys=4, n_lookups=10):
    """A small advertise+lookup workload (trace/metrics both populated)."""
    strategy = RandomStrategy(FullMembership(net))
    rng = random.Random(seed)
    stored = []
    for _ in range(n_keys):
        origin = net.random_alive_node(rng)
        strategy.advertise(net, origin, stored.append, target_size=6)
    targets = set(stored)
    for _ in range(n_lookups):
        origin = net.random_alive_node(rng)
        strategy.lookup(net, origin, probe_for(targets), target_size=6)


# ---------------------------------------------------------------------------
# RunManifest
# ---------------------------------------------------------------------------


class TestManifest:
    def test_collect_snapshots_environment(self):
        manifest = collect_manifest(
            "fig8", params={"n": 200}, seed=11, jobs=4,
            trace_path="t.jsonl")
        assert manifest.command == "fig8"
        assert manifest.params == {"n": 200}
        assert manifest.seed == 11
        assert manifest.jobs == 4
        assert manifest.trace_path == "t.jsonl"
        assert manifest.schema == MANIFEST_SCHEMA == 3
        # Schema 3: no field claims a backend the run could not select.
        assert not any("backend" in name for name in manifest.to_dict())
        assert manifest.python_version.count(".") == 2
        assert manifest.numpy_version
        assert manifest.started_at.endswith("+00:00")
        assert manifest.wall_time_s is None  # caller stamps it

    def test_git_provenance_present(self):
        manifest = collect_manifest("bench")
        # The repo is git-initialised, so the rev must resolve.
        assert len(manifest.git_rev) == 40
        assert manifest.git_dirty in (True, False)

    def test_write_roundtrip(self, tmp_path):
        manifest = collect_manifest("sweep", params={"points": 3}, seed=1)
        manifest.wall_time_s = 1.25
        path = tmp_path / "run.manifest.json"
        manifest.write(str(path))
        loaded = json.loads(path.read_text())
        assert loaded == manifest.to_dict()
        assert RunManifest(**loaded).seed == 1


# ---------------------------------------------------------------------------
# PhaseProfiler
# ---------------------------------------------------------------------------


class TestPhaseProfiler:
    def test_disabled_records_nothing(self):
        profiler = PhaseProfiler(enabled=False)
        with profiler.phase("anything"):
            pass
        assert profiler.snapshot() == {}

    def test_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert not RunConfig.from_env().profile
        for value, enabled in (("0", False), ("", False), ("1", True),
                               ("yes", True)):
            monkeypatch.setenv("REPRO_PROFILE", value)
            assert RunConfig.from_env().profile == enabled

    def test_nested_self_attribution(self):
        profiler = PhaseProfiler(enabled=True)
        with profiler.phase("outer"):
            time.sleep(0.01)
            with profiler.phase("inner"):
                time.sleep(0.02)
        snap = profiler.snapshot()
        assert snap["outer"]["calls"] == 1
        assert snap["inner"]["calls"] == 1
        # outer's cumulative covers inner, but its self time does not.
        assert snap["outer"]["cumulative"] >= snap["inner"]["cumulative"]
        assert snap["outer"]["self"] == pytest.approx(
            snap["outer"]["cumulative"] - snap["inner"]["cumulative"])
        assert snap["inner"]["self"] >= 0.015

    def test_merge_accumulates(self):
        profiler = PhaseProfiler(enabled=True)
        with profiler.phase("p"):
            pass
        profiler.merge({"p": {"calls": 3, "cumulative": 1.0, "self": 0.5},
                        "q": {"calls": 1, "cumulative": 0.1, "self": 0.1}})
        snap = profiler.snapshot()
        assert snap["p"]["calls"] == 4
        assert snap["p"]["self"] == pytest.approx(
            0.5, abs=0.1)  # own span is ~instant
        assert snap["q"]["calls"] == 1

    def test_decorator_respects_global_toggle(self, monkeypatch):
        calls = []

        @profiled("test.decorated")
        def work(x):
            calls.append(x)
            return x + 1

        monkeypatch.setattr(PROFILER, "enabled", False)
        monkeypatch.setattr(PROFILER, "_stats", {})
        assert work(1) == 2
        assert PROFILER.snapshot() == {}
        monkeypatch.setattr(PROFILER, "enabled", True)
        assert work(2) == 3
        assert PROFILER.snapshot()["test.decorated"]["calls"] == 1
        assert calls == [1, 2]

    def test_render_table(self):
        profiler = PhaseProfiler(enabled=True)
        with profiler.phase("alpha"):
            with profiler.phase("beta"):
                pass
        table = profiler.render()
        assert "phase" in table and "self %" in table
        assert "alpha" in table and "beta" in table
        assert PhaseProfiler().render() == (
            "phase profiler: no phases recorded")

    def test_instrumented_phases_fire(self, monkeypatch):
        monkeypatch.setattr(PROFILER, "enabled", True)
        monkeypatch.setattr(PROFILER, "_stats", {})
        monkeypatch.setattr(PROFILER, "_stack", [])
        net = make_net(n=50)
        run_traced_accesses(net, n_keys=2, n_lookups=4)
        snap = PROFILER.snapshot()
        assert snap["access.advertise"]["calls"] == 2
        assert snap["access.lookup"]["calls"] == 4
        assert "routing.discover" in snap
        assert "neighbor.rebuild" in snap

    def test_run_sweep_merges_worker_profiles(self, monkeypatch):
        monkeypatch.setattr(PROFILER, "enabled", True)
        monkeypatch.setattr(PROFILER, "_stats", {})
        monkeypatch.setattr(PROFILER, "_stack", [])
        results = run_sweep([1, 2, 3], _profiled_task, jobs=2, base_seed=0)
        assert [r.value for r in results] == [2, 4, 6]
        # Forked workers ran the phase; their deltas merged back here.
        assert PROFILER.snapshot()["sweep.task"]["calls"] == 3


@profiled("sweep.task")
def _profiled_task(point, seed):  # module-level for pool picklability
    return point * 2


# ---------------------------------------------------------------------------
# Empty-histogram semantics (satellite)
# ---------------------------------------------------------------------------


class TestEmptyHistogram:
    def test_empty_statistics_are_nan(self):
        h = Histogram("empty")
        assert math.isnan(h.mean)
        assert math.isnan(h.min)
        assert math.isnan(h.max)
        assert math.isnan(h.percentile(50))
        assert math.isnan(h.percentile(99))
        assert h.count == 0 and h.sum == 0

    def test_percentile_still_validates_range(self):
        h = Histogram("empty")
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_registry_snapshot_with_empty_histogram(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.histogram("access.lookup.latency")
        snap = registry.snapshot()
        assert math.isnan(snap["access.lookup.latency"]["p50"])
        assert registry.render()  # must not raise on nan


# ---------------------------------------------------------------------------
# summarize (the acceptance criterion: trace summary == live metrics)
# ---------------------------------------------------------------------------


class TestSummarize:
    def test_summary_matches_in_process_metrics(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        net = make_net(n=80, seed=3)
        run_traced_accesses(net, seed=7, n_keys=4, n_lookups=10)
        net.trace.close()

        live = net.metrics.snapshot()
        offline = summarize_trace(str(path)).snapshot()

        access_keys = [k for k in live if k.startswith("access.")]
        assert access_keys, "workload must have produced access metrics"
        for key in access_keys:
            expected = live[key]
            if isinstance(expected, dict):
                for stat, value in expected.items():
                    assert offline[key][stat] == pytest.approx(
                        value, rel=1e-6, abs=1e-6, nan_ok=True), (key, stat)
            else:
                assert offline[key] == expected, key
        # Keys the live registry lazily omitted (no drops) must be zero.
        for key in set(offline) - set(live):
            assert offline[key] == 0, key

    def test_summary_totals_and_kinds(self, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        net = make_net(n=60, seed=1)
        run_traced_accesses(net, n_keys=2, n_lookups=5)
        net.trace.close()
        summary = summarize_trace(str(path))
        assert summary.corrupt_lines == 0
        assert summary.open_accesses == 0
        assert summary.kind_counts["access-start"] == 7
        assert summary.kind_counts["access-end"] == 7
        assert summary.traced_messages > 0
        assert summary.t_max >= summary.t_min
        text = render_summary(summary)
        assert "access.advertise" in text and "access.lookup" in text

    def test_corrupt_lines_counted_not_fatal(self):
        lines = [
            '{"kind":"hop","seq":0,"t":0.1,"src":1,"dst":2}',
            '{"kind":"hop","seq":1,"t":0.2,"src":2,"ds',  # truncated tail
            "not json at all",
            '["a","list"]',  # parseable but not an event
            '{"kind":"reply","seq":2,"t":0.3,"success":true}',
        ]
        summary = summarize_trace(lines)
        assert summary.events == 2
        assert summary.corrupt_lines == 3
        assert summary.traced_messages == 1
        assert summary.replies_delivered == 1

    def test_zero_lookup_trace_renders_nan_cleanly(self):
        lines = [
            '{"kind":"access-start","seq":0,"t":1.0,"strategy":"RANDOM",'
            '"access":"advertise","origin":0,"target_size":2}',
            '{"kind":"access-end","seq":1,"t":1.5,"strategy":"RANDOM",'
            '"access":"advertise","origin":0,"messages":4,"routing":2,'
            '"success":true,"found":false,"reply":null,"quorum":2}',
        ]
        summary = summarize_trace(lines)
        text = render_summary(summary)
        assert "access.advertise" in text
        payload = summary_to_jsonable(summary)
        json.dumps(payload)  # NaN must have been nulled out
        assert payload["metrics"]["access.advertise.latency"]["p50"] == 0.5

    def test_jsonable_summary_has_no_nan(self, tmp_path):
        lines = ['{"kind":"access-end","seq":0,"t":1.0,"access":"lookup",'
                 '"strategy":"R","origin":1,"messages":1,"routing":0}']
        payload = summary_to_jsonable(summarize_trace(lines))
        text = json.dumps(payload)
        assert "NaN" not in text
        # The unpaired end produced no latency sample: stats are null.
        assert payload["metrics"]["access.lookup.latency"]["mean"] is None

    def test_interleaved_end_is_unmatched(self):
        # Two writers' accesses interleaved: the advertise's end does not
        # close the innermost open start (the lookup), so it pairs with
        # nothing and its start stays open.
        lines = [
            '{"kind":"access-start","seq":0,"t":1.0,"strategy":"R",'
            '"access":"advertise","origin":3}',
            '{"kind":"access-start","seq":1,"t":2.0,"strategy":"R",'
            '"access":"lookup","origin":5}',
            '{"kind":"access-end","seq":2,"t":3.0,"strategy":"R",'
            '"access":"advertise","origin":3,"messages":1,"routing":0}',
            '{"kind":"access-end","seq":3,"t":4.5,"strategy":"R",'
            '"access":"lookup","origin":5,"messages":2,"routing":0}',
        ]
        summary = summarize_trace(lines)
        advertise, lookup = (summary.access["advertise"],
                             summary.access["lookup"])
        assert (advertise.unmatched, advertise.latency.count) == (1, 0)
        assert (lookup.unmatched, lookup.latency.count) == (0, 1)
        assert lookup.latency.max == 2.5
        assert summary.open_accesses == 1


# ---------------------------------------------------------------------------
# timeline
# ---------------------------------------------------------------------------


def _two_access_trace():
    return [
        '{"kind":"access-start","seq":0,"t":1.0,"strategy":"R",'
        '"access":"advertise","origin":3,"target_size":2}',
        '{"kind":"hop","seq":1,"t":1.1,"src":3,"dst":4}',
        '{"kind":"access-end","seq":2,"t":1.2,"strategy":"R",'
        '"access":"advertise","origin":3,"messages":1,"routing":0}',
        '{"kind":"access-start","seq":3,"t":2.0,"strategy":"R",'
        '"access":"lookup","origin":5,"target_size":2}',
        '{"kind":"probe","seq":4,"t":2.1,"node":6,"hit":true}',
        '{"kind":"access-end","seq":5,"t":2.2,"strategy":"R",'
        '"access":"lookup","origin":5,"messages":2,"routing":0}',
    ]


class TestTimeline:
    def test_slices_one_access(self):
        events = access_timeline(_two_access_trace(), 1)
        assert [e["kind"] for e in events] == [
            "access-start", "probe", "access-end"]
        assert events[0]["origin"] == 5

    def test_includes_nested_accesses(self):
        lines = [
            '{"kind":"access-start","seq":0,"t":1.0,"strategy":"R",'
            '"access":"lookup","origin":1}',
            '{"kind":"access-start","seq":1,"t":1.1,"strategy":"D",'
            '"access":"advertise","origin":2}',
            '{"kind":"access-end","seq":2,"t":1.2,"strategy":"D",'
            '"access":"advertise","origin":2}',
            '{"kind":"access-end","seq":3,"t":1.3,"strategy":"R",'
            '"access":"lookup","origin":1}',
        ]
        events = access_timeline(lines, 0)
        assert len(events) == 4  # the nested access rides along

    def test_missing_access_raises(self):
        with pytest.raises(ValueError, match="no access #7"):
            access_timeline(_two_access_trace(), 7)
        with pytest.raises(ValueError):
            access_timeline(_two_access_trace(), -1)

    def test_render(self):
        events = access_timeline(_two_access_trace(), 0)
        text = render_timeline(events, 0)
        assert text.startswith("access #0: R advertise from node 3")
        assert "hop" in text


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------


class TestDiff:
    def test_identical_traces_diff_empty(self):
        a = summarize_trace(_two_access_trace())
        b = summarize_trace(_two_access_trace())
        changes = diff_summaries(a, b)
        assert changes == []
        assert "no differences" in render_diff(changes, "a", "b")

    def test_changed_totals_surface(self):
        lines = _two_access_trace()
        modified = [line.replace('"messages":2', '"messages":9')
                    for line in lines]
        changes = diff_summaries(summarize_trace(lines),
                                 summarize_trace(modified))
        names = {name for name, _, _ in changes}
        assert "access.lookup.messages" in names
        text = render_diff(changes, "base", "cand")
        assert "access.lookup.messages" in text

    def test_nan_equal_is_not_a_diff(self):
        # Neither trace has latency samples for the unpaired kind.
        lines = ['{"kind":"access-end","seq":0,"t":1.0,"access":"lookup",'
                 '"strategy":"R","origin":1,"messages":1,"routing":0}']
        changes = diff_summaries(summarize_trace(lines),
                                 summarize_trace(lines))
        assert changes == []


# ---------------------------------------------------------------------------
# One writer per trace: pool tasks write segments, the sweep appends them
# ---------------------------------------------------------------------------


def _append_events(worker, seed, count=200):
    # A sweep task (module-level for pool picklability) tracing to the
    # path its run config names.
    trace = EventTrace().enable(memory=False,
                                jsonl_path=current_run().trace)
    for i in range(count):
        # A fat payload makes torn or interleaved lines likely if two
        # processes wrote one file.
        trace.record("hop", float(i), src=worker, dst=i, blob="x" * 512)
    trace.close()
    return worker


class TestSweepTraceSegments:
    def test_pool_segments_land_whole_in_task_order(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        workers, per_worker = 4, 200
        with run_scope(RunConfig(trace=path)):
            results = run_sweep(list(range(workers)), _append_events,
                                jobs=2)
        assert [r.value for r in results] == list(range(workers))
        summary = summarize_trace(path)
        assert summary.corrupt_lines == 0
        assert summary.events == workers * per_worker
        # Each task's segment whole, the segments in task order.
        with open(path) as handle:
            order = [(json.loads(line)["src"], json.loads(line)["seq"])
                     for line in handle]
        assert order == [(w, i) for w in range(workers)
                         for i in range(per_worker)]


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


class TestObsCli:
    def _trace_file(self, tmp_path, name="t.jsonl", mutate=None):
        lines = _two_access_trace()
        if mutate:
            lines = [mutate(line) for line in lines]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_summarize_command(self, tmp_path, capsys):
        from repro.cli import main

        path = self._trace_file(tmp_path)
        assert main(["obs", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "access.advertise" in out and "access.lookup" in out

    def test_summarize_json(self, tmp_path, capsys):
        from repro.cli import main

        path = self._trace_file(tmp_path)
        assert main(["obs", "summarize", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["access.lookup.count"] == 1

    def test_timeline_command(self, tmp_path, capsys):
        from repro.cli import main

        path = self._trace_file(tmp_path)
        assert main(["obs", "timeline", path, "--access", "1"]) == 0
        assert "access #1" in capsys.readouterr().out
        assert main(["obs", "timeline", path, "--access", "9"]) == 2

    def test_diff_command_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        a = self._trace_file(tmp_path, "a.jsonl")
        b = self._trace_file(
            tmp_path, "b.jsonl",
            mutate=lambda ln: ln.replace('"messages":2', '"messages":9'))
        assert main(["obs", "diff", a, a, "--fail-on-change"]) == 0
        assert main(["obs", "diff", a, b]) == 0  # report-only by default
        assert main(["obs", "diff", a, b, "--fail-on-change"]) == 1
        assert "access.lookup.messages" in capsys.readouterr().out

    def test_list_documents_obs_and_env(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("summarize", "timeline", "diff", "REPRO_PROFILE",
                      "REPRO_TRACE", "REPRO_AUDIT", "REPRO_JOBS"):
            assert token in out

    def test_figure_run_writes_manifest(self, tmp_path, monkeypatch,
                                        capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TRACE", "sentinel")  # restored after
        trace = str(tmp_path / "fig.jsonl")
        assert main(["fig5", "--n", "60", "--trace", trace]) == 0
        manifest = json.loads((tmp_path / "fig.jsonl.manifest.json")
                              .read_text())
        assert manifest["command"] == "fig5"
        assert manifest["params"]["n"] == 60
        assert manifest["trace_path"] == trace
        assert manifest["wall_time_s"] > 0
        assert manifest["schema"] == MANIFEST_SCHEMA

    def test_explicit_manifest_path(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_TRACE", "sentinel")
        out = str(tmp_path / "explicit.json")
        assert main(["fig3", "--n", "100", "--manifest", out]) == 0
        assert json.loads(open(out).read())["command"] == "fig3"
