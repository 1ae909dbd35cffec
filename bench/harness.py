"""One benchmark instance: what a child process of ``run.py`` does.

Protocol: import the program, build the deployment and run one untimed
warm-up pass at 1/10 scale — all of that, from the moment the parent
spawned the child, is ``setup_s``.  Then timed passes, each on a freshly
built deployment with the same seed, wall-clocked as a whole with
``perf_counter`` and with tracing and profiling off, until the time
budget is spent (at least two).  The simulated statistics of all passes
must be identical (``stat_digest``).  A traced instance then runs one
more pass under the span recorder for the per-layer numbers.
"""

from __future__ import annotations

import gc
import os
import resource
import time
from statistics import median
from typing import Any, Dict, List

from repro.simnet.network import SimNetwork

from layers import (
    LAYER_INDEX,
    Tally,
    instrument,
    layer_metrics,
    layer_share,
    self_share,
)
from metrics import pass_spread, stat_digest
from spans import SpanRecorder, durations, under
from workloads import WORKLOADS

MIN_PASSES = 2


def run_instance(name: str, seed: int, scale: float, budget: float,
                 spawned_at: float, traced: bool, out_dir: str) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    ctx = workload.prepare(seed, workload.warmup_scale * scale)
    workload.finish(ctx, workload.run(ctx))
    gc.collect()
    ctx = workload.prepare(seed, scale)
    setup_s = time.time() - spawned_at

    check_fail: List[str] = []
    walls: List[float] = []
    cpu_fracs: List[float] = []
    digests: List[str] = []
    measuring_since = time.perf_counter()
    while True:
        wall_0, cpu_0 = time.perf_counter(), time.process_time()
        raw = workload.run(ctx)
        wall = time.perf_counter() - wall_0
        cpu_fracs.append((time.process_time() - cpu_0) / wall)
        walls.append(wall)
        sim = workload.finish(ctx, raw)
        digests.append(stat_digest(sim["stats"]))
        if (len(walls) >= MIN_PASSES
                and time.perf_counter() - measuring_since >= budget):
            break
        del raw
        gc.collect()
        ctx = workload.prepare(seed, scale)
    check_fail.extend(sim["violations"])
    if len(set(digests)) != 1:
        check_fail.append(f"stat_digest differs across passes: {digests}")

    result: Dict[str, Any] = {
        "seed": seed,
        "setup_s": setup_s,
        "walls": walls,
        "cpu_frac": median(cpu_fracs),
        "pass_spread_frac": pass_spread(walls),
        "stat_digest": digests[0],
        "sim": {key: value for key, value in sim.items()
                if key not in ("violations", "layer")},
    }
    if traced:
        result["traced"] = _traced_pass(workload, seed, scale, ctx,
                                        median(walls), digests[0],
                                        check_fail, out_dir)
        metrics = result["traced"]["metrics"]
        metrics["bench.cpu_frac"] = result["cpu_frac"]
        metrics["bench.pass_spread_frac"] = result["pass_spread_frac"]
        result["traced"]["metrics"] = {
            key: {"value": value, "unit": LAYER_INDEX[key][0],
                  "source": LAYER_INDEX[key][2]}
            for key, value in metrics.items()}
    result["check_fail"] = check_fail
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return result


def _traced_pass(workload: Any, seed: int, scale: float,
                 last_ctx: Dict[str, Any], untraced_wall: float,
                 untraced_digest: str, check_fail: List[str],
                 out_dir: str) -> Dict[str, Any]:
    extra: Dict[str, float] = {}
    if "watch" in last_ctx:
        # What the watchers cost: the same pass, untraced, without them.
        gc.collect()
        ctx = workload.prepare(seed, scale)
        ctx["watch"] = False
        start = time.perf_counter()
        raw = workload.run(ctx)
        extra["obs.watch_overhead_frac"] = (
            untraced_wall / (time.perf_counter() - start) - 1.0)
        workload.finish(ctx, raw)
        del raw

    gc.collect()
    original_route = SimNetwork.__dict__["route"]
    recorder = SpanRecorder()
    tally = Tally()
    instrument(recorder, tally)
    try:
        with recorder.span("bench.build"):
            ctx = workload.prepare(seed, scale)
        cpu_0 = time.process_time()
        with recorder.span("bench.pass"):
            raw = workload.run(ctx)
        cpu = time.process_time() - cpu_0
    finally:
        recorder.restore()
    if SimNetwork.__dict__["route"] is not original_route:
        check_fail.append("wrappers not restored after the traced pass")
    sim = workload.finish(ctx, raw)
    if stat_digest(sim["stats"]) != untraced_digest:
        check_fail.append("the traced pass changed the simulated statistics")

    spans = recorder.spans
    sim.setdefault("layer", {}).update(extra)
    metrics = layer_metrics(spans, tally, sim)
    traced_wall = durations(spans, "bench.pass")[0]
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"{workload.name}.spans.jsonl")
    recorder.write_jsonl(spans_path)
    span_share = self_share(under(spans, "bench.pass"))
    return {
        "metrics": metrics,
        "self_share": span_share,
        "layer_share": layer_share(span_share),
        "traced_wall_s": traced_wall,
        "traced_cpu_frac": cpu / traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans": len(spans),
        "spans_file": os.path.basename(spans_path),  # next to --out
    }
