"""Command-line interface: regenerate any of the paper's figures.

Usage::

    python -m repro list
    python -m repro fig10 --n 200 --lookups 100
    python -m repro fig7 --epsilon 0.05
    python -m repro quickstart

plus the offline trace analysis tools::

    python -m repro fig8 --trace t.jsonl
    python -m repro obs summarize t.jsonl
    python -m repro obs timeline t.jsonl --access 0
    python -m repro obs diff a.jsonl b.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional

from repro.config import ENV_VARS, WATCH_ALL, RunConfig, current_run, run_scope
from repro.experiments.figures import FIGURES, render_figure
from repro.quorum import BUILTIN_SYSTEMS, OBJECTIVES


#: argparse options of every flag a figure can read (``FigureSpec.flags``,
#: plus :data:`COMMON_FLAGS`); the option string of ``name`` is
#: ``--name`` with dashes for underscores.
FLAGS: Dict[str, dict] = {
    "n": dict(type=int, default=200,
              help="network size (default 200; paper uses 800)"),
    "keys": dict(type=int, default=10, help="number of advertisements"),
    "lookups": dict(type=int, default=60, help="number of lookups"),
    "jobs": dict(type=int, default=None,
                 help="parallel sweep workers (default: REPRO_JOBS env var, "
                      "else 1)"),
    "walks": dict(type=int, default=8, help="walks per PCT point"),
    "trials": dict(type=int, default=400, help="Monte-Carlo trials"),
    "epsilon": dict(type=float, default=0.05,
                    help="initial epsilon (target non-intersection "
                         "probability)"),
    "mobility": dict(choices=("static", "waypoint"), default="static"),
    "reps": dict(type=int, default=1,
                 help="Monte-Carlo replicas per sweep point; with reps > 1 "
                      "tables report mean±CI (default 1, which reproduces "
                      "the historical single-run numbers exactly)"),
    "ci": dict(type=float, default=None, metavar="DELTA",
               help="sequential stopping: add replicas (beyond --reps, up "
                    "to 8x) until the hit-ratio CI half-width drops below "
                    "DELTA"),
    "trace": dict(metavar="PATH", default=None,
                  help="stream simulation events as JSONL to PATH (with "
                       "--jobs N the file equals the --jobs 1 trace)"),
    "manifest": dict(metavar="PATH", default=None,
                     help="write a provenance manifest to PATH (default: "
                          "<trace>.manifest.json when --trace is given)"),
    "watch": dict(action="store_true",
                  help="attach the live invariant watchers to every network "
                       "the command builds"),
    "slo": dict(metavar="FILE", default=None,
                help="JSON SLO spec file evaluated live by the watchers "
                     "(REPRO_SLO)"),
    "fail_on_violation": dict(action="store_true",
                              help="exit 1 when a watcher reports a "
                                   "violation"),
    "byz_fractions": dict(type=float, nargs="+", metavar="F",
                          default=[0.0, 0.02, 0.05, 0.1],
                          help="byzantine (lying replica) fractions to "
                               "sweep (0..1)"),
    "byz_b": dict(type=int, default=None, metavar="B",
                  help="masking budget b for the defended legs (default: "
                       "ceil(max fraction * n))"),
    "kv_backend": dict(choices=("batched", "sequential"), default="batched",
                       help="workload engine: batched numpy kernel (~1M ops "
                            "in seconds) or the live QuorumKVStore service"),
    "strategies": dict(nargs="+", metavar="NAME", default=["random"],
                       help="sequential-backend access strategies (random, "
                            "masking:<b>); the batched backend always "
                            "models uniform quorums"),
    "ttl": dict(type=float, nargs="+", metavar="SEC",
                default=[5.0, 20.0, 80.0],
                help="lease TTLs to sweep; 0 derives the TTL from the churn "
                     "rate via the lease analysis"),
    "rate": dict(type=float, nargs="+", metavar="OPS", default=[2000.0],
                 help="open-loop arrival rates (ops per simulated second)"),
    "ops": dict(type=int, default=200_000,
                help="operations per sweep point"),
    "read_fraction": dict(type=float, default=0.92,
                          help="fraction of ops that are reads"),
    "cas_fraction": dict(type=float, default=0.05,
                         help="fraction of the write share issued as "
                              "compare-and-swap"),
    "zipf": dict(type=float, default=0.99,
                 help="Zipf key-popularity exponent"),
    "churn_rate": dict(type=float, default=0.01,
                       help="node churn events per node-second"),
    "seed": dict(type=int, default=7, help="master seed"),
    "systems": dict(nargs="+", metavar="NAME", choices=sorted(BUILTIN_SYSTEMS),
                    default=["majority", "grid"],
                    help="algebraic systems to sweep "
                         f"({', '.join(sorted(BUILTIN_SYSTEMS))})"),
    "optimize": dict(choices=OBJECTIVES, default="load",
                     help="strategy objective (default load)"),
    "read_fractions": dict(type=float, nargs="+", metavar="FR",
                           default=[0.0, 0.25, 0.5, 0.75, 1.0],
                           help="read fractions to sweep (0..1)"),
    "quorum_nodes": dict(type=int, default=9, metavar="M",
                         help="replicas in the algebraic system (rounded to "
                              "the system's natural shape)"),
}

#: Flags every figure command accepts.
COMMON_FLAGS = ("n", "trace", "manifest", "watch", "slo", "fail_on_violation")

#: The figure commands: every spec in the table with a description.
COMMANDS = {name: spec.description for name, spec in FIGURES.items()
            if spec.description}


def collect_report(results_dir: str) -> str:
    """Aggregate all recorded benchmark tables into one report."""
    from pathlib import Path

    directory = Path(results_dir)
    if not directory.is_dir():
        return (f"no results at {directory} — run "
                "`pytest benchmarks/ --benchmark-only` first")
    sections = []
    for path in sorted(directory.glob("*.txt")):
        sections.append(f"## {path.stem}\n\n{path.read_text().rstrip()}")
    if not sections:
        return f"no recorded results in {directory}"
    header = ("# Regenerated evaluation — Probabilistic Quorum Systems "
              "in Wireless Ad Hoc Networks\n")
    return header + "\n\n".join(sections) + "\n"


OBS_COMMANDS = {
    "summarize": "per-access-kind counts and latency percentiles",
    "timeline": "ordered events of one access (--access N)",
    "diff": "compare two trace summaries",
    "watch": "replay a trace through the invariant watchers / SLO monitor",
}

FAULTS_COMMANDS = {
    "run": "run a workload under a seeded fault campaign",
    "list": "list builtin campaigns",
    "show": "print a campaign's JSON schema",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from 'Probabilistic quorum systems "
                    "in wireless ad hoc networks' (Friedman, Kliot, Avin).",
        epilog="environment variables: " + "; ".join(
            f"{name} ({desc})" for name, desc in ENV_VARS.items()))
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("list", help="list available figures and obs tools")
    obs = sub.add_parser(
        "obs", help="offline trace analysis (summarize / timeline / diff)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize", help=OBS_COMMANDS["summarize"])
    summarize.add_argument("trace",
                           help="JSONL trace file (from --trace), or - "
                                "to read a piped trace from stdin")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON instead of a table")
    timeline = obs_sub.add_parser("timeline", help=OBS_COMMANDS["timeline"])
    timeline.add_argument("trace", help="JSONL trace file, or - for stdin")
    timeline.add_argument("--access", type=int, required=True,
                          metavar="N", help="0-based access ordinal")
    diff = obs_sub.add_parser("diff", help=OBS_COMMANDS["diff"])
    diff.add_argument("trace_a", help="baseline JSONL trace")
    diff.add_argument("trace_b", help="candidate JSONL trace")
    diff.add_argument("--fail-on-change", action="store_true",
                      help="exit 1 when the summaries differ")
    watch = obs_sub.add_parser("watch", help=OBS_COMMANDS["watch"])
    watch.add_argument("trace", help="JSONL trace file, or - for stdin")
    watch.add_argument("--slo", metavar="FILE", default=None,
                       help="JSON SLO spec file to evaluate alongside the "
                            "invariant watchers")
    watch.add_argument("--n", type=int, default=None,
                       help="network size for the quorum-intersection "
                            "watcher (default: the trace's sibling "
                            "manifest, params.n)")
    watch.add_argument("--fail-on-violation", action="store_true",
                       help="exit 1 when any watcher reports a violation")
    watch.add_argument("--report", metavar="PATH", default=None,
                       help="write the machine-readable verdict report "
                            "here (default: <trace>.verdict.json; pass "
                            "'none' to skip)")
    watch.add_argument("--json", action="store_true",
                       help="print the verdict as JSON instead of text")
    faults = sub.add_parser(
        "faults", help="deterministic fault-injection campaigns")
    faults_sub = faults.add_subparsers(dest="faults_command", required=True)
    frun = faults_sub.add_parser("run", help=FAULTS_COMMANDS["run"])
    frun.add_argument("--campaign", default="smoke",
                      help="builtin campaign name or JSON schema path")
    frun.add_argument("--n", **dict(FLAGS["n"], default=100,
                                    help="network size (default 100)"))
    _add_flags(frun, ("seed", "keys", "lookups"))
    frun.add_argument("--workload", choices=("location", "kv"),
                      default="location",
                      help="service under test: the location service "
                           "lookup workload (default) or the quorum "
                           "key-value store with timed leases and the "
                           "consistency-history checker")
    frun.add_argument("--kv-ops", type=int, default=200, metavar="OPS",
                      help="kv workload: operations spread over the "
                           "campaign (--workload kv)")
    frun.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                      help="kv workload: fixed lease TTL in seconds "
                           "(default: adaptive, derived from observed "
                           "churn)")
    frun.add_argument("--refresh", choices=("adaptive", "static", "off"),
                      default="adaptive", help="refresh daemon mode")
    frun.add_argument("--masking-b", type=int, default=None, metavar="B",
                      help="run the workload over b-masking quorums "
                           "(vote-filtered lookups sized for the "
                           "hypergeometric masking bound) — the defended "
                           "mode for campaigns with byzantine injections")
    _add_flags(frun, ("trace", "watch", "slo", "fail_on_violation"))
    faults_sub.add_parser("list", help=FAULTS_COMMANDS["list"])
    fshow = faults_sub.add_parser("show", help=FAULTS_COMMANDS["show"])
    fshow.add_argument("campaign", help="builtin name or JSON schema path")
    report = sub.add_parser(
        "report", help="aggregate benchmarks/results/ into one document")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    for name, description in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=description),
                   COMMON_FLAGS + FIGURES[name].flags)
    return parser


def _add_flags(parser: argparse.ArgumentParser, names) -> None:
    """Add the :data:`FLAGS` entries ``names`` to ``parser``."""
    for flag in names:
        parser.add_argument("--" + flag.replace("_", "-"), **FLAGS[flag])


def _trace_output(args) -> Optional[str]:
    """The ``--trace`` path the command writes: a figure's or ``faults
    run``'s (an ``obs`` command's trace is its input)."""
    if (args.command in COMMANDS
            or getattr(args, "faults_command", None) == "run"):
        return args.trace
    return None


def _run_config(args) -> RunConfig:
    """``RunConfig.from_env()`` with the command's flags on top (only
    ``--trace`` for ``faults run``: its campaign attaches its own hub)."""
    overlay: dict = {}
    figure = args.command in COMMANDS
    if _trace_output(args):
        overlay["trace"] = args.trace
    if figure:
        if getattr(args, "jobs", None) is not None:
            overlay["jobs"] = max(1, args.jobs)
        if args.watch or args.slo:
            overlay["watch"] = WATCH_ALL
        if args.slo:
            overlay["slo"] = args.slo
    return replace(RunConfig.from_env(), **overlay)


def _run_obs_watch(args) -> int:
    from repro.obs.query import check_trace_schema
    from repro.obs.slo import load_slo_specs, verdict_path_for, write_verdict_report
    from repro.obs.watch import replay_trace, resolve_trace_n

    check_trace_schema(args.trace)
    n = args.n
    if n is None and args.trace != "-":
        n = resolve_trace_n(args.trace)
    try:
        slo_specs = load_slo_specs(args.slo) if args.slo else None
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad SLO spec {args.slo}: {exc}", file=sys.stderr)
        return 2
    try:
        result = replay_trace(args.trace, n=n, slo_specs=slo_specs)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_jsonable(), indent=2, sort_keys=True))
    else:
        print(result.report())
    report_path = args.report
    if report_path != "none" and (report_path or args.trace != "-"):
        report_path = report_path or verdict_path_for(args.trace)
        write_verdict_report(report_path, result.to_jsonable())
        print(f"[verdict] report written to {report_path}", file=sys.stderr)
    if args.fail_on_violation and not result.clean:
        return 1
    return 0


def _run_obs(args) -> int:
    from repro.obs.query import (
        access_timeline,
        check_trace_schema,
        diff_summaries,
        render_diff,
        render_summary,
        render_timeline,
        summarize_trace,
        summary_to_jsonable,
    )

    if args.obs_command == "watch":
        return _run_obs_watch(args)
    if args.obs_command == "summarize":
        check_trace_schema(args.trace)
        summary = summarize_trace(args.trace)
        if args.json:
            print(json.dumps(summary_to_jsonable(summary), indent=2,
                             sort_keys=True))
        else:
            print(render_summary(summary))
        return 0
    if args.obs_command == "timeline":
        check_trace_schema(args.trace)
        try:
            events = access_timeline(args.trace, args.access)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(render_timeline(events, args.access))
        return 0
    # diff
    changes = diff_summaries(summarize_trace(args.trace_a),
                             summarize_trace(args.trace_b))
    print(render_diff(changes, args.trace_a, args.trace_b))
    if changes and args.fail_on_change:
        return 1
    return 0


def _run_faults(args) -> int:
    from repro.faults import BUILTIN_CAMPAIGNS, load_campaign, run_fault_campaign
    from repro.obs.audit import AuditError

    if args.faults_command == "list":
        print("builtin campaigns:")
        for name, campaign in sorted(BUILTIN_CAMPAIGNS.items()):
            print(f"  {name:12} {len(campaign.injections)} injections over "
                  f"{campaign.duration:.4g}s")
        return 0
    if args.faults_command == "show":
        try:
            campaign = load_campaign(args.campaign)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(campaign.to_dict(), indent=2))
        return 0
    # run
    from repro.obs.slo import load_slo_specs
    try:
        slo_specs = load_slo_specs(args.slo) if args.slo else None
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad SLO spec {args.slo}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.workload == "kv":
            from repro.faults import run_kv_fault_campaign
            report = run_kv_fault_campaign(
                campaign=args.campaign, n=args.n, seed=args.seed,
                n_keys=args.keys, n_ops=args.kv_ops,
                lease_ttl=args.lease_ttl,
                watch=args.watch, slo_specs=slo_specs,
                masking_b=args.masking_b)
        else:
            report = run_fault_campaign(
                campaign=args.campaign, n=args.n, seed=args.seed,
                n_keys=args.keys, n_lookups=args.lookups,
                refresh=args.refresh,
                watch=args.watch, slo_specs=slo_specs,
                masking_b=args.masking_b)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AuditError as exc:
        # REPRO_AUDIT=strict turns the first watcher violation into a
        # raise mid-campaign; surface it as the gate it is.
        print(f"watch violation (strict audit): {exc}", file=sys.stderr)
        return 1
    print("\n".join(report.lines()))
    if args.trace:
        print(f"[trace] events written to {args.trace}", file=sys.stderr)
    if (args.workload == "kv" and args.fail_on_violation
            and not report.clean):
        print("kv consistency checker reported violations", file=sys.stderr)
        return 1
    if report.watch is not None:
        from repro.obs.slo import verdict_path_for, write_verdict_report
        payload = dict(report.watch)
        payload["violations"] = [str(v) for v in report.watch_violations]
        payload["ok"] = report.watch_clean
        if args.trace:
            path = verdict_path_for(args.trace)
            write_verdict_report(path, payload)
            print(f"[verdict] report written to {path}", file=sys.stderr)
        if args.fail_on_violation and not report.watch_clean:
            return 1
    return 0


def _write_figure_manifest(args, wall_time_s: float) -> str:
    from repro.obs.manifest import collect_manifest

    path = args.manifest or (args.trace + ".manifest.json")
    params = {
        key: getattr(args, key)
        for key in ("n", "keys", "lookups", "walks", "trials", "epsilon",
                    "mobility", "reps", "ci")
        if getattr(args, key, None) is not None
    }
    manifest = collect_manifest(
        command=args.command,
        params=params,
        seed=None,
        jobs=getattr(args, "jobs", None),
        trace_path=args.trace,
        config=current_run(),
    )
    manifest.wall_time_s = round(wall_time_s, 6)
    manifest.write(path)
    return path


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    trace = _trace_output(args)
    if trace:
        # One command, one trace: every network and sweep segment of
        # the command appends to the file this empties.
        open(trace, "w").close()
    with run_scope(_run_config(args)) as ledger:
        return _run_command(args, ledger)


def _run_command(args, ledger: list) -> int:
    if args.command in (None, "list"):
        print("available figures:")
        for name, desc in COMMANDS.items():
            print(f"  {name:7} {desc}")
        print("\ntrace analysis (python -m repro obs <cmd>):")
        for name, desc in OBS_COMMANDS.items():
            print(f"  {name:10} {desc}")
        print("\nfault campaigns (python -m repro faults <cmd>):")
        for name, desc in FAULTS_COMMANDS.items():
            print(f"  {name:10} {desc}")
        print("\nenvironment variables:")
        for name, desc in ENV_VARS.items():
            print(f"  {name:24} {desc}")
        print("\nexample: python -m repro fig10 --n 200 --lookups 100")
        return 0
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "report":
        text = collect_report(args.results_dir)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"wrote {args.output}")
        else:
            print(text)
        return 0
    # A figure command: every network it builds reads the installed
    # config; run_sweep hands each pool task the same config with a
    # private trace segment and collects segments and violations.
    started = time.perf_counter()
    print(render_figure(args.command, args))
    wall = time.perf_counter() - started
    if args.trace:
        print(f"\n[trace] events written to {args.trace}", file=sys.stderr)
    if args.manifest or args.trace:
        path = _write_figure_manifest(args, wall)
        print(f"[manifest] run provenance written to {path}",
              file=sys.stderr)
    rc = 0
    if args.watch or args.slo:
        rc = _report_live_watch(args, ledger)
    from repro.obs.profile import PROFILER
    if PROFILER.enabled:
        print(f"\n{PROFILER.render()}", file=sys.stderr)
    return rc


def _report_live_watch(args, ledger: list) -> int:
    """Post-run verdict for a figure run under ``--watch``/``--slo``.

    Live violations, pool tasks' included, land on the command's
    ledger; with ``--trace`` the recorded file is also replayed through
    fresh watchers, whose verdict file is written beside the manifest.
    """
    violations = [str(v) for v in ledger]
    if args.trace:
        from repro.obs.slo import load_slo_specs, verdict_path_for, write_verdict_report
        from repro.obs.watch import replay_trace, resolve_trace_n

        slo_specs = load_slo_specs(args.slo) if args.slo else None
        result = replay_trace(args.trace, n=resolve_trace_n(args.trace),
                              slo_specs=slo_specs)
        payload = result.to_jsonable()
        payload["live_violations"] = violations
        violations = violations + [v for v in payload["violations"]
                                   if v not in violations]
        path = verdict_path_for(args.trace)
        write_verdict_report(path, payload)
        print(f"[verdict] report written to {path}", file=sys.stderr)
    if violations:
        print(f"[watch] {len(violations)} violation(s):", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        if args.fail_on_violation:
            return 1
    else:
        print("[watch] clean", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
