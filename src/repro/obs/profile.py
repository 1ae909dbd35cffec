"""Phase profiler: nested wall-clock timers for the simulator's hot paths.

Answers "where does fig8 spend its time" with one table.  A small, fixed
catalogue of phases (see DESIGN.md, Observability layer) instruments the
chunky operations — neighbor-table rebuilds, the batched kernel pass,
mobility position evaluation, strategy advertise/lookup, routing
discovery, reply delivery, churn patches — and aggregates per-phase
*calls*, *cumulative* (wall time inside the phase, children included)
and *self* (cumulative minus time spent in nested phases).

Profiling is **off by default** and near-zero cost when disabled: call
sites either get the shared no-op context manager back (one attribute
check + one call) or, via the :func:`profiled` decorator, skip straight
to the wrapped function after a single ``enabled`` check.  It starts
as the run's config says (``REPRO_PROFILE=1``, any value other than
``0``/empty); set ``PROFILER.enabled`` to switch it in-process.

The profiler is process-local.  The sweep runner
(:func:`repro.experiments.runner.run_sweep`) ships each pool worker's
snapshot back with its result and merges them, so ``--jobs N`` runs
still produce one complete table.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Callable, Dict, List

from repro.config import current_run


class _NullSpan:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live phase activation (a frame on the profiler's stack)."""

    __slots__ = ("profiler", "name", "start", "child")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self.profiler = profiler
        self.name = name
        self.child = 0.0
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.profiler._stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self.start
        stack = self.profiler._stack
        stack.pop()
        stat = self.profiler._stats.get(self.name)
        if stat is None:
            stat = self.profiler._stats[self.name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[1] += elapsed
        stat[2] += elapsed - self.child
        if stack:
            stack[-1].child += elapsed


class PhaseProfiler:
    """Aggregating nested wall-clock phase timer.

    ``phase(name)`` opens a span; spans nest, and a child's elapsed time
    is subtracted from its parent's *self* time.  A phase that re-enters
    itself recursively double-counts its cumulative time (the catalogue
    phases do not self-nest except for nested daemon accesses, which are
    rare enough not to matter for attribution).
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._stack: List[_Span] = []
        # name -> [calls, cumulative_seconds, self_seconds]
        self._stats: Dict[str, List[float]] = {}

    # -- recording ---------------------------------------------------------

    def phase(self, name: str):
        """Context manager timing one phase activation."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- aggregation --------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """``{phase: {calls, cumulative, self}}`` with times in seconds."""
        return {
            name: {"calls": int(stat[0]), "cumulative": stat[1],
                   "self": stat[2]}
            for name, stat in self._stats.items()
        }

    def merge(self, snapshot: Dict[str, Dict[str, float]]) -> None:
        """Fold another profiler's snapshot in (e.g. a pool worker's)."""
        for name, stat in snapshot.items():
            mine = self._stats.get(name)
            if mine is None:
                mine = self._stats[name] = [0, 0.0, 0.0]
            mine[0] += int(stat.get("calls", 0))
            mine[1] += float(stat.get("cumulative", 0.0))
            mine[2] += float(stat.get("self", 0.0))

    def render(self) -> str:
        """Aligned per-phase table, heaviest *self* time first."""
        if not self._stats:
            return "phase profiler: no phases recorded"
        rows = sorted(self._stats.items(), key=lambda kv: -kv[1][2])
        total_self = sum(stat[2] for _, stat in rows) or 1.0
        width = max(len("phase"), max(len(name) for name, _ in rows))
        lines = [f"{'phase'.ljust(width)}  {'calls':>8}  {'cum s':>10}  "
                 f"{'self s':>10}  {'self %':>6}"]
        for name, (calls, cum, self_s) in rows:
            lines.append(
                f"{name.ljust(width)}  {int(calls):>8}  {cum:>10.4f}  "
                f"{self_s:>10.4f}  {100.0 * self_s / total_self:>5.1f}%")
        return "\n".join(lines)


#: The process-wide profiler every call site shares.
PROFILER = PhaseProfiler(enabled=current_run().profile)


def profiled(name: str) -> Callable:
    """Decorator timing every call of the wrapped function as ``name``.

    When profiling is disabled the wrapper is a single truthiness check
    on top of the call, so it is safe on warm (but not per-hop-hot)
    paths.
    """
    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not PROFILER.enabled:
                return fn(*args, **kwargs)
            with PROFILER.phase(name):
                return fn(*args, **kwargs)
        return wrapper
    return decorate
