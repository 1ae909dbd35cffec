"""Parallel sweep engine for the paper's parameter sweeps.

Every figure is a sweep: a list of parameter points, each evaluated by an
independent simulation (often several replications per point).  Points
share no state — a network is constructed from scratch per evaluation —
so they parallelize perfectly across a process pool.

:func:`run_sweep` is the one entry point.  Its contract:

* **Determinism** — each (point index, replication) task gets a seed
  derived through :class:`~repro.sim.rng.RngRegistry` from ``base_seed``
  alone, independent of worker scheduling; results are returned in point
  order.  ``jobs=N`` is therefore bit-identical to ``jobs=1``: results,
  trace file, violation ledger and phase-profile calls alike.
* **Picklability** — with ``jobs > 1`` the worker function must be
  defined at module level (a ``functools.partial`` over one is fine);
  :func:`~repro.experiments.figures.run_point` follows this shape.
* **Aggregation** — :func:`merge_scenario_stats` pools a point's
  replicated :class:`~repro.experiments.common.ScenarioStats` bundles.
"""

from __future__ import annotations

import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from tempfile import TemporaryDirectory
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.config import RunConfig, current_run, run_ledger, run_scope
from repro.obs.profile import PROFILER
from repro.sim.rng import RngRegistry


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


def _evaluate(fn: Callable[[Any, int], Any], point: Any, seed: int,
              config: RunConfig) -> Tuple[Any, List[Any], Optional[dict]]:
    """Pool trampoline: one task under ``config`` in its own run scope.

    Returns the task's value, its violation ledger and, when profiling
    is on, its profiler delta (each worker process has its own
    :data:`~repro.obs.profile.PROFILER`), so the parent holds the whole
    fan-out's ledger and phase table.
    """
    profiling = PROFILER.enabled
    before = PROFILER.snapshot() if profiling else {}
    with run_scope(config) as ledger:
        value = fn(point, seed)
    if not profiling:
        return value, ledger, None
    zero = {"calls": 0, "cumulative": 0.0, "self": 0.0}
    delta = {name: {key: stat[key] - before.get(name, zero)[key]
                    for key in stat}
             for name, stat in PROFILER.snapshot().items()}
    return value, ledger, delta


def run_sweep(
    points: Sequence[Any],
    fn: Callable[[Any, int], Any],
    replications: int = 1,
    jobs: Optional[int] = None,
    base_seed: int = 0,
) -> List[SweepResult]:
    """Evaluate ``fn(point, seed)`` for every point x replication.

    Returns one :class:`SweepResult` per point, in point order.  ``jobs`` > 1
    fans tasks out over a process pool; ``jobs=None`` takes the run
    config's ``jobs`` (``REPRO_JOBS``).  Each pool task runs under this
    run's config with its trace pointed at a private segment file; in
    task order the parent appends every segment to the run's trace and
    takes over the task's violations and profile, so the trace, ledger
    and phase table equal the ``jobs=1`` run's and every trace file has
    one writer at a time.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    run = current_run()
    jobs = run.jobs if jobs is None else max(1, int(jobs))
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
        ledger = run_ledger()
        with TemporaryDirectory(prefix="repro-sweep-") as segments, \
                ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = []
            for index, rep, seed in tasks:
                segment = os.path.join(segments, f"{len(futures)}.jsonl")
                config = (run if run.trace is None
                          else replace(run, trace=segment))
                futures.append(((index, rep), segment, pool.submit(
                    _evaluate, fn, points[index], seed, config)))
            for key, segment, future in futures:
                outputs[key], violations, profile = future.result()
                if ledger is not None:
                    ledger.extend(violations)
                if profile is not None:
                    PROFILER.merge(profile)
                if run.trace is not None and os.path.exists(segment):
                    with open(segment, "rb") as part, \
                            open(run.trace, "ab") as trace:
                        shutil.copyfileobj(part, trace)
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
