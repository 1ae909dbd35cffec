"""Parallel sweep engine for the paper's parameter sweeps.

Every figure is a sweep: a list of parameter points, each evaluated by an
independent simulation (often several replications per point).  Points
share no state — a network is constructed from scratch per evaluation —
so they parallelize perfectly across a process pool.

:func:`run_sweep` is the one entry point.  Its contract:

* **Determinism** — each (point index, replication) task gets a seed
  derived through :class:`~repro.sim.rng.RngRegistry` from ``base_seed``
  alone, independent of worker scheduling; results are returned in point
  order.  ``jobs=N`` is therefore bit-identical to ``jobs=1``.
* **Picklability** — with ``jobs > 1`` the worker function must be
  defined at module level (a ``functools.partial`` over one is fine);
  :func:`~repro.experiments.figures.run_point` follows this shape.
* **Aggregation** — :func:`merge_scenario_stats` pools a point's
  replicated :class:`~repro.experiments.common.ScenarioStats` bundles.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, List, Optional, Sequence

from repro.obs.manifest import RunManifest, collect_manifest
from repro.obs.profile import PROFILER
from repro.sim.rng import RngRegistry

#: Provenance of the most recent :func:`run_sweep` batch in this process
#: (also written to ``$REPRO_MANIFEST_DIR`` when that is set).
last_sweep_manifest: Optional[RunManifest] = None

_manifest_counter = 0


def default_jobs() -> int:
    """Job count from ``REPRO_JOBS`` (default 1); a non-integer raises."""
    try:
        return max(1, int(raw := os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        raise ValueError(f"REPRO_JOBS={raw!r} is not an integer") from None


def derive_task_seed(base_seed: int, index: int, replication: int) -> int:
    """Deterministic per-task seed, independent of execution order."""
    return RngRegistry(base_seed).fork(f"sweep:{index}", replication).master_seed


@dataclass
class SweepResult:
    """All replication results for one sweep point."""

    point: Any
    results: List[Any] = field(default_factory=list)

    @property
    def value(self) -> Any:
        """The single result (convenience for ``replications=1``)."""
        if len(self.results) != 1:
            raise ValueError(
                f"point has {len(self.results)} results; use .results")
        return self.results[0]


def _evaluate(fn: Callable[[Any, int], Any], point: Any, seed: int) -> Any:
    # Module-level trampoline so the pool pickles (fn, point, seed) only.
    return fn(point, seed)


def _evaluate_profiled(fn: Callable[[Any, int], Any], point: Any,
                       seed: int) -> Any:
    """Pool trampoline that ships the worker's profiler delta back.

    Each worker process has its own :data:`~repro.obs.profile.PROFILER`;
    snapshotting before/after the task isolates this task's phases so
    the parent can merge a complete per-phase table for ``jobs > 1``.
    """
    before = PROFILER.snapshot()
    result = fn(point, seed)
    after = PROFILER.snapshot()
    delta = {}
    for name, stat in after.items():
        prior = before.get(name, {"calls": 0, "cumulative": 0.0,
                                  "self": 0.0})
        delta[name] = {key: stat[key] - prior[key] for key in stat}
    return result, delta


def _sweep_manifest(n_points: int, replications: int, jobs: int,
                    base_seed: int, fn: Callable,
                    wall_time_s: float) -> RunManifest:
    """Record (and optionally persist) one sweep batch's provenance."""
    global last_sweep_manifest, _manifest_counter
    target = getattr(fn, "func", fn)  # unwrap functools.partial
    manifest = collect_manifest(
        command="sweep",
        params={
            "fn": f"{getattr(target, '__module__', '?')}."
                  f"{getattr(target, '__qualname__', repr(target))}",
            "points": n_points,
            "replications": replications,
        },
        seed=base_seed,
        jobs=jobs,
        trace_path=os.environ.get("REPRO_TRACE"),
    )
    manifest.wall_time_s = round(wall_time_s, 6)
    last_sweep_manifest = manifest
    out_dir = os.environ.get("REPRO_MANIFEST_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _manifest_counter += 1
        manifest.write(os.path.join(
            out_dir, f"sweep-{os.getpid()}-{_manifest_counter}"
                     f".manifest.json"))
    return manifest


def run_sweep(
    points: Sequence[Any],
    fn: Callable[[Any, int], Any],
    replications: int = 1,
    jobs: Optional[int] = None,
    base_seed: int = 0,
) -> List[SweepResult]:
    """Evaluate ``fn(point, seed)`` for every point x replication.

    Returns one :class:`SweepResult` per point, in point order.  ``jobs`` > 1
    fans tasks out over a process pool; ``jobs=None`` reads the
    ``REPRO_JOBS`` environment variable.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    started = time.perf_counter()
    tasks = [
        (index, rep, derive_task_seed(base_seed, index, rep))
        for index in range(len(points))
        for rep in range(replications)
    ]
    outputs: dict = {}
    if jobs == 1 or len(tasks) <= 1:
        for index, rep, seed in tasks:
            outputs[(index, rep)] = fn(points[index], seed)
    else:
        # With profiling on, workers return (result, profiler delta) so
        # the parent's table covers the whole fan-out.
        trampoline = (_evaluate_profiled if PROFILER.enabled
                      else _evaluate)
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                (index, rep): pool.submit(trampoline, fn, points[index],
                                          seed)
                for index, rep, seed in tasks
            }
            for key, future in futures.items():
                value = future.result()
                if trampoline is _evaluate_profiled:
                    value, profile_delta = value
                    PROFILER.merge(profile_delta)
                outputs[key] = value
    _sweep_manifest(len(points), replications, jobs, base_seed, fn,
                    time.perf_counter() - started)
    return [
        SweepResult(point=point,
                    results=[outputs[(i, r)] for r in range(replications)])
        for i, point in enumerate(points)
    ]


def merge_scenario_stats(stats_list: Sequence[Any]) -> Any:
    """Merge replicated ``ScenarioStats`` into one aggregate bundle.

    Counters sum and sample lists concatenate, so ratio/average properties
    weight every replication by its own operation count.  ``n`` is averaged
    (replications of one point may differ slightly under churn).
    """
    if not stats_list:
        raise ValueError("nothing to merge")
    first = stats_list[0]
    if len(stats_list) == 1:
        return first
    merged = replace(first)
    for f in fields(first):
        values = [getattr(s, f.name) for s in stats_list]
        if f.name == "n":
            setattr(merged, f.name, round(sum(values) / len(values)))
        elif isinstance(values[0], list):
            combined: List[Any] = []
            for v in values:
                combined.extend(v)
            setattr(merged, f.name, combined)
        else:
            setattr(merged, f.name, sum(values))
    return merged
