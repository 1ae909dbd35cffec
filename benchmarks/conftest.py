"""Shared helpers for the per-figure benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and records
the data series under ``benchmarks/results/`` so EXPERIMENTS.md can cite
paper-vs-measured numbers.  Set ``REPRO_BENCH_FULL=1`` to run at the
paper's full scale (n up to 800, more replications); the default scale
completes the whole suite in a few minutes on a laptop.

One environment knob selects the performance configuration:
``REPRO_BENCH_JOBS`` — process-pool workers for the parameter sweeps
(forwarded as ``jobs=`` to the experiment drivers).

Every run also wall-clocks each bench and merges the timings into
``BENCH_simnet.json`` at the repository root, keyed by job count, so
perf PRs can track the speedup trajectory over time.  Each run
entry carries a ``manifest`` block (git rev, toolchain versions, seed
policy, host) so a recorded number can always be traced back to the code
and configuration that produced it; with ``REPRO_PROFILE=1`` the
session's per-phase profiler table lands in
``benchmarks/results/PROFILE_bench.txt``.
"""

import json
import os
import sys
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent
# The identity gates compare against the oracles in tests/reference.
sys.path.insert(0, str(REPO_ROOT / "tests"))
BENCH_TIMINGS_PATH = REPO_ROOT / "BENCH_simnet.json"

FULL_SCALE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: Network sizes for sweeps (the paper uses 50..800).
SIZES = (50, 100, 200, 400, 800) if FULL_SCALE else (50, 100, 200)
#: Default single-network size (the paper's headline figures use 800).
N_DEFAULT = 800 if FULL_SCALE else 200
#: Advertisements / lookups per scenario (paper: 100 / 1000).
N_KEYS = 100 if FULL_SCALE else 12
N_LOOKUPS = 1000 if FULL_SCALE else 60

#: Parallel sweep workers for the experiment drivers.
JOBS = max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


def record_result(name: str, text: str) -> None:
    """Persist a figure's regenerated data for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")


@pytest.fixture
def record():
    return record_result


# -- perf trajectory: wall-clock every bench into BENCH_simnet.json ----------

_TIMINGS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    start = time.perf_counter()
    yield
    _TIMINGS[item.nodeid.split("::")[-1]] = round(
        time.perf_counter() - start, 3)


def _session_manifest(total_seconds: float) -> dict:
    # By session finish the bench modules have imported repro already,
    # so this resolves through the same sys.path the benches used.
    from repro.config import current_run
    from repro.obs.manifest import collect_manifest

    run = current_run()
    manifest = collect_manifest(
        command="bench",
        params={"n_default": N_DEFAULT, "n_keys": N_KEYS,
                "n_lookups": N_LOOKUPS, "full_scale": FULL_SCALE},
        jobs=JOBS,
        trace_path=run.trace,
        config=run,
    )
    manifest.wall_time_s = round(total_seconds, 3)
    return manifest.to_dict()


def _record_profile_table() -> None:
    from repro.obs.profile import PROFILER

    if PROFILER.enabled and PROFILER.snapshot():
        record_result("PROFILE_bench", PROFILER.render())


def pytest_sessionfinish(session, exitstatus):
    if not _TIMINGS:
        return
    payload = {}
    if BENCH_TIMINGS_PATH.exists():
        try:
            payload = json.loads(BENCH_TIMINGS_PATH.read_text())
        except (json.JSONDecodeError, OSError):
            payload = {}
    run_key = f"jobs{JOBS}" + ("-full" if FULL_SCALE else "")
    runs = payload.setdefault("runs", {})
    run = runs.setdefault(run_key, {
        "jobs": JOBS,
        "n_default": N_DEFAULT,
        "full_scale": FULL_SCALE,
        "benches": {},
    })
    run["benches"].update(_TIMINGS)
    run["total_seconds"] = round(sum(run["benches"].values()), 3)
    run["manifest"] = _session_manifest(run["total_seconds"])
    BENCH_TIMINGS_PATH.write_text(json.dumps(payload, indent=2,
                                             sort_keys=True) + "\n")
    _record_profile_table()
