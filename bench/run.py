#!/usr/bin/env python3
"""The repo's benchmark: seven workloads, end-to-end + per-layer metrics.

    python3 bench/run.py [--workload NAME] [--seed 7] [--seconds 8]
                         [--trace 0|1] [--smoke] [--out FILE]

Every workload runs in child processes of its own, one at a time, single
threaded.  A run of one workload is five *instances* — five children,
each with a seed derived from ``--seed``, each doing its own set-up and
then timed passes for a fifth of ``--seconds``; the run's numbers pool
the five (see ``metrics.pool_instances``).  ``--trace 1`` runs one
instance with one extra pass under the span recorder and reports the
per-layer metrics instead of the end-to-end ones.  Every metric is
printed by name with its unit, the outputs are checked, and the exit
code is non-zero if a check fails.  With ``--workload`` the last line of
standard output is the driver's result object; the full result (with
provenance) is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"bench: no program to measure ({SRC}/repro is missing)")
sys.path.insert(0, SRC)

from metrics import END_TO_END, pool_instances  # noqa: E402

INSTANCES = 5
SMOKE_SCALE = 0.25
CHILD_TIMEOUT_S = 170

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    #: What the driver was told: workload names, run length, metric lists.
    DECLARED = json.load(_handle)


def child_main(spec: Dict[str, Any]) -> None:
    from harness import run_instance
    result = run_instance(**spec)
    print(json.dumps(result, default=repr))


def spawn_instance(name: str, seed: int, scale: float, budget: float,
                   traced: bool, out_dir: str) -> Dict[str, Any]:
    """Run one instance in a fresh single-threaded child process."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[knob] = "1"
    spec = {"name": name, "seed": seed, "scale": scale, "budget": budget,
            "spawned_at": time.time(), "traced": traced, "out_dir": out_dir}
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child",
         json.dumps(spec)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{name}: child exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, out_dir: str) -> Dict[str, Any]:
    count = 1 if (smoke or trace) else INSTANCES
    scale = SMOKE_SCALE if smoke else 1.0
    budget = 0.0 if smoke else seconds / INSTANCES
    instances = [spawn_instance(name, seed * INSTANCES + index, scale,
                                budget, trace, out_dir)
                 for index in range(count)]
    check_fail = [f"{name}: {line}" for inst in instances
                  for line in inst["check_fail"]]
    row: Dict[str, Any] = {
        "instances": instances,
        "check_fail": check_fail,
        "stat_digest": "-".join(inst["stat_digest"][:16]
                                for inst in instances),
        "attempted": sum(inst["sim"]["ops"] * len(inst["walls"])
                         for inst in instances),
    }
    if trace:
        row["traced"] = instances[0].pop("traced")
        row["per_layer"] = row["traced"].pop("metrics")
    else:
        pooled = pool_instances(instances)
        row["end_to_end"] = {key: {"value": value, "unit": END_TO_END[key][0]}
                             for key, value in pooled.items()}
        tails = {inst["sim"]["latency"].get("tail_pct") for inst in instances}
        if "sim_p99_s" in row["end_to_end"]:
            row["end_to_end"]["sim_p99_s"]["percentile"] = min(tails)
        # Read these before believing a host number: the widest pass
        # spread and the lowest CPU share among the instances.
        row["harness"] = {
            "bench.pass_spread_frac": max(i["pass_spread_frac"]
                                          for i in instances),
            "bench.cpu_frac": min(i["cpu_frac"] for i in instances),
        }
    return row


def print_row(name: str, row: Dict[str, Any]) -> None:
    metrics = row.get("end_to_end") or row["per_layer"]
    for key, cell in metrics.items():
        note = ""
        if "percentile" in cell:
            note = f"  (p{cell['percentile']:g} of the simulated latencies)"
        if "source" in cell:
            note = f"  [{cell['source']}]"
        print(f"{name:17s} {key:34s} {cell['value']:>14.6g} "
              f"{cell['unit']}{note}")
    for key, value in row.get("harness", {}).items():
        print(f"{name:17s} {key:34s} {value:>14.6g} ratio")
    if "traced" in row:
        for kind in ("layer_share", "self_share"):
            shares = list(row["traced"][kind].items())[:6]
            print(f"{name:17s} {kind}: " + ", ".join(
                f"{key} {100 * share:.1f}%" for key, share in shares))
    print(f"{name:17s} stat_digest {row['stat_digest']}")


def driver_line(row: Dict[str, Any], trace: bool) -> str:
    """The driver's result object: exactly the metrics BENCHMARK.json
    declares (a per-layer metric of a layer the workload never entered
    reads 0)."""
    cells = row["per_layer"] if trace else row["end_to_end"]
    metrics = {}
    for spec in DECLARED["per_layer" if trace else "end_to_end"]:
        cell = cells.get(spec["name"])
        if cell is None and not trace:
            raise KeyError(f"end-to-end metric {spec['name']} not produced")
        metrics[spec["name"]] = {
            "value": cell["value"] if cell else 0, "unit": spec["unit"]}
    return json.dumps({
        "correct": not row["check_fail"],
        "attempted": row["attempted"],
        "failed": len(row["check_fail"]),
        "metrics": metrics,
    })


def main(argv: List[str]) -> int:
    if argv[:1] == ["--child"]:
        child_main(json.loads(argv[1]))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [spec["name"] for spec in DECLARED["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=DECLARED["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=os.path.join(
        BENCH_DIR, "out", "latest.json"))
    args = parser.parse_args(argv)

    from repro.obs.manifest import collect_manifest
    started = time.perf_counter()
    if args.workload:
        names = [args.workload]
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    manifest = collect_manifest(
        "bench", seed=args.seed, jobs=1,
        params={"seconds": args.seconds, "trace": args.trace,
                "smoke": args.smoke, "instances": INSTANCES,
                "nproc": os.cpu_count(), "workloads": names})
    rows = {}
    for name in names:
        rows[name] = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), args.smoke, out_dir)
        print_row(name, rows[name])
    check_fail = [line for row in rows.values() for line in row["check_fail"]]
    for line in check_fail:
        print(f"CHECK FAILED {line}", file=sys.stderr)
    manifest.wall_time_s = time.perf_counter() - started
    with open(args.out, "w") as handle:
        json.dump({"schema": 1, "manifest": manifest.to_dict(),
                   "seed": args.seed, "trace": args.trace,
                   "smoke": args.smoke, "workloads": rows,
                   "check_fail": len(check_fail), "claim": None},
                  handle, indent=1)
        handle.write("\n")
    if args.workload:
        print(driver_line(rows[args.workload], bool(args.trace)))
    else:
        print(json.dumps({"workloads": len(rows),
                          "check_fail": len(check_fail),
                          "out": os.path.relpath(args.out, ROOT),
                          "claim": None}))
    return 1 if check_fail else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
