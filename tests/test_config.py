"""Run configuration: ``RunConfig.from_env`` parsing, ``run_scope``, and
the CLI running each command in its own scope without touching the
process environment."""

import json
import os
from dataclasses import fields

import pytest

from repro.cli import main
from repro.config import (
    ENV_VARS,
    WATCH_ALL,
    RunConfig,
    current_run,
    run_ledger,
    run_scope,
)
from repro.experiments.runner import run_sweep
from repro.simnet import NetworkConfig, SimNetwork


@pytest.fixture
def clean_env(monkeypatch):
    """No ``REPRO_*`` run variable set (the suite may run under one)."""
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)
    return monkeypatch


def _repro_keys():
    return {key for key in os.environ if key.startswith("REPRO_")}


class TestFromEnv:
    def test_six_fields_one_variable_each(self):
        assert [f.name for f in fields(RunConfig)] == [
            "trace", "audit", "watch", "slo", "profile", "jobs"]
        assert sorted(ENV_VARS) == sorted(
            f"REPRO_{f.name.upper()}" for f in fields(RunConfig))

    def test_unset_environment_is_the_default(self, clean_env):
        assert RunConfig.from_env() == RunConfig()

    def test_every_variable_parses(self, clean_env):
        clean_env.setenv("REPRO_TRACE", "t.jsonl")
        clean_env.setenv("REPRO_AUDIT", " Strict ")
        clean_env.setenv("REPRO_WATCH", "conservation, slo,")
        clean_env.setenv("REPRO_SLO", " spec.json ")
        clean_env.setenv("REPRO_PROFILE", "1")
        clean_env.setenv("REPRO_JOBS", "3")
        assert RunConfig.from_env() == RunConfig(
            trace="t.jsonl", audit="strict", watch=("conservation", "slo"),
            slo="spec.json", profile=True, jobs=3)

    @pytest.mark.parametrize("raw", ["1", "true", "all", "builtin"])
    def test_watch_all_spellings(self, clean_env, raw):
        clean_env.setenv("REPRO_WATCH", raw)
        assert RunConfig.from_env().watch == WATCH_ALL

    @pytest.mark.parametrize("raw,mode", [("record", "record"),
                                          ("STRICT", "strict"), ("", None)])
    def test_audit_modes(self, clean_env, raw, mode):
        clean_env.setenv("REPRO_AUDIT", raw)
        assert RunConfig.from_env().audit == mode

    @pytest.mark.parametrize("raw", ["stric", "yes", "1"])
    def test_unknown_audit_mode_raises(self, clean_env, raw):
        # A typo must not silently run without the audit.
        clean_env.setenv("REPRO_AUDIT", raw)
        with pytest.raises(ValueError, match="REPRO_AUDIT") as info:
            RunConfig.from_env()
        assert repr(raw) in str(info.value)
        assert "strict" in str(info.value) and "record" in str(info.value)


class TestScope:
    def test_outside_a_scope_the_environment_decides(self, clean_env):
        assert run_ledger() is None
        clean_env.setenv("REPRO_JOBS", "4")
        assert current_run().jobs == 4

    def test_scope_installs_and_restores(self, clean_env):
        outer, inner = RunConfig(jobs=2), RunConfig(audit="record")
        with run_scope(outer) as outer_ledger:
            assert current_run() is outer
            assert run_ledger() is outer_ledger == []
            with run_scope(inner) as inner_ledger:
                assert current_run() is inner
                assert inner_ledger is not outer_ledger
            assert current_run() is outer
        assert current_run() == RunConfig()
        assert run_ledger() is None

    def test_network_reads_the_installed_config(self, clean_env, tmp_path):
        path = tmp_path / "net.jsonl"
        with run_scope(RunConfig(trace=str(path), audit="record",
                                 watch=("monotonicity",))):
            net = SimNetwork(NetworkConfig(n=30, seed=3))
        assert net.auditor is not None and not net.auditor.strict
        assert {w.name for w in net.watch_hub.watchers} == {
            "monotonicity", "conservation"}
        net.flood(0, ttl=2)
        net.trace.close()
        assert path.read_text()
        assert "REPRO_TRACE" not in os.environ

    def test_pool_workers_run_under_the_parent_config(self, clean_env,
                                                      tmp_path):
        traces = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            with run_scope(RunConfig(trace=str(path))):
                run_sweep([30, 40], _flood_point, replications=2, jobs=jobs,
                          base_seed=5)
            traces[jobs] = path.read_bytes()
        # Segments are appended in task order: the same bytes, not only
        # the same lines.
        assert traces[1] and traces[1] == traces[2]


def _flood_point(n, seed):  # module-level for pool picklability
    net = SimNetwork(NetworkConfig(n=n, avg_degree=10, seed=seed))
    net.flood(0, ttl=2)
    net.trace.close()
    return n


class TestCliLeavesNoTrace:
    def test_figure_flags_do_not_leak(self, clean_env, tmp_path, capsys):
        before = _repro_keys()
        trace = str(tmp_path / "fig5.jsonl")
        assert main(["fig5", "--n", "60", "--watch", "--trace", trace]) == 0
        assert main(["faults", "run", "--campaign", "smoke", "--n", "40",
                     "--lookups", "5", "--trace",
                     str(tmp_path / "c.jsonl")]) == 0
        assert _repro_keys() == before
        net = SimNetwork(NetworkConfig(n=30, seed=3))
        assert not net.trace.enabled
        assert net.watch_hub is None

    def test_violations_stay_with_their_command(self, clean_env, tmp_path,
                                                capsys):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps(
            [{"metric": "lookup.latency", "max": 0.0, "window": 2}]))
        assert main(["fig8", "--n", "25", "--keys", "2", "--lookups", "8",
                     "--slo", str(spec)]) == 0
        assert "slo-violation" in capsys.readouterr().err
        assert main(["fig5", "--n", "60", "--watch"]) == 0
        err = capsys.readouterr().err
        assert "[watch] clean" in err and "slo-violation" not in err

    def test_manifest_records_the_config(self, clean_env, tmp_path, capsys):
        clean_env.setenv("REPRO_AUDIT", "record")
        trace = str(tmp_path / "fig5.jsonl")
        assert main(["fig5", "--n", "60", "--watch", "--trace", trace]) == 0
        manifest = json.loads((tmp_path / "fig5.jsonl.manifest.json")
                              .read_text())
        assert manifest["config"] == {
            "trace": trace, "audit": "record", "watch": list(WATCH_ALL),
            "slo": None, "profile": False, "jobs": 1}


class TestTraceTruncation:
    """A command empties its ``--trace`` path once, at its start."""

    FIG8 = ["fig8", "--n", "25", "--keys", "2", "--lookups", "8"]

    def test_a_second_run_replaces_the_trace(self, clean_env, tmp_path,
                                             capsys):
        path = tmp_path / "t.jsonl"
        runs = []
        for jobs in ("1", "1", "2"):
            assert main(self.FIG8 + ["--jobs", jobs,
                                     "--trace", str(path)]) == 0
            runs.append(path.read_bytes())
        # The pool's segments still append within the one command.
        assert runs[0] == runs[1] == runs[2]
        assert runs[0].count(b"\n") == 2336

    def test_faults_run_replaces_its_trace(self, clean_env, tmp_path,
                                           capsys):
        path = tmp_path / "c.jsonl"
        runs = []
        for _ in range(2):
            assert main(["faults", "run", "--campaign", "smoke", "--n",
                         "40", "--lookups", "5", "--trace", str(path)]) == 0
            runs.append(path.read_bytes())
        assert runs[0] == runs[1] and runs[0]

    def test_an_obs_command_reads_its_trace_untouched(self, clean_env,
                                                      tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        assert main(self.FIG8 + ["--trace", str(path)]) == 0
        recorded = path.read_bytes()
        assert main(["obs", "summarize", str(path)]) == 0
        assert path.read_bytes() == recorded


class TestPoolSweeps:
    """A ``--jobs N`` figure run reports what its ``--jobs 1`` run does."""

    FIG8 = ["fig8", "--n", "25", "--keys", "2", "--lookups", "8"]

    def test_pool_violations_reach_the_command(self, clean_env, tmp_path,
                                               capsys):
        spec = tmp_path / "slo.json"
        spec.write_text(json.dumps(
            [{"metric": "lookup.latency", "max": 0.0, "window": 2}]))
        reports = {}
        for jobs in ("1", "2"):
            assert main(self.FIG8 + ["--slo", str(spec), "--jobs", jobs,
                                     "--fail-on-violation"]) == 1
            reports[jobs] = capsys.readouterr().err
        assert "slo-violation" in reports["1"]
        assert reports["1"] == reports["2"]

    def test_pool_trace_replays_clean(self, clean_env, tmp_path, capsys):
        traces = {}
        for jobs in ("1", "2"):
            path = tmp_path / f"jobs{jobs}.jsonl"
            assert main(self.FIG8 + ["--watch", "--fail-on-violation",
                                     "--jobs", jobs,
                                     "--trace", str(path)]) == 0
            assert "[watch] clean" in capsys.readouterr().err
            traces[jobs] = path.read_bytes()
        assert traces["1"] == traces["2"]
