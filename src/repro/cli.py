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
import os
import sys
import time
from typing import Callable, Dict, List

import repro.experiments as ex
from repro.analysis import figure3_table, figure6_table
from repro.experiments import format_pm, format_table
from repro.quorum import BUILTIN_SYSTEMS, OBJECTIVES


def _rep_kwargs(args) -> dict:
    """Replication options shared by every replication-aware figure."""
    return {
        "reps": getattr(args, "reps", 1),
        "ci_target": getattr(args, "ci", None),
    }


def _pm(point, mean_value: float, metric: str) -> str:
    """``mean ± half-width`` cell for a replicated sweep point."""
    return format_pm(mean_value, point.ci.get(metric))


def _fig3(args) -> str:
    rows = figure3_table(args.n)
    return "Figure 3 (asymptotic strategy comparison)\n" + format_table(
        ["strategy", "accessed", "cost", "routing?", "membership?",
         "replies", "early halt?"],
        [(r["strategy"], r["accessed_nodes"], r["cost_rgg"],
          r["needs_routing"], r["needs_membership"], r["lookup_replies"],
          r["early_halting"]) for r in rows])


def _fig4(args) -> str:
    points = ex.pct_by_network_size(sizes=(args.n // 2, args.n),
                                    walks=args.walks)
    points += ex.pct_by_density(densities=(7, 10, 20), n=args.n,
                                walks=args.walks)
    return "Figure 4 (partial cover time)\n" + format_table(
        ["n", "d_avg", "target", "self-avoiding", "steps/unique"],
        [(p.n, p.avg_degree, p.unique_target, p.unique, p.steps_per_unique)
         for p in points])


def _fig5(args) -> str:
    points = ex.flooding_coverage(n=args.n, ttls=tuple(range(1, 6)))
    return "Figure 5 (flooding coverage)\n" + format_table(
        ["n", "ttl", "coverage", "messages", "CG"],
        [(p.n, p.ttl, p.coverage, p.messages, p.granularity)
         for p in points])


def _fig6(args) -> str:
    combos = figure6_table(args.n)
    return "Figure 6 (combination costs)\n" + format_table(
        ["advertise", "lookup", "adv cost", "lookup cost", "combined"],
        [(c.advertise, c.lookup, c.advertise_cost, c.lookup_cost, c.combined)
         for c in combos])


def _fig7(args) -> str:
    points = ex.degradation_curves(epsilon=args.epsilon, n=args.n,
                                   trials=args.trials)
    return "Figure 7 (degradation under churn)\n" + format_table(
        ["mode", "f", "analytic", "simulated"],
        [(p.mode, p.f, p.analytic_intersection, p.simulated_intersection)
         for p in points])


def _fig8(args) -> str:
    rep = _rep_kwargs(args)
    adv = ex.random_advertise_cost(sizes=(args.n,), n_keys=args.keys,
                                   jobs=args.jobs, **rep)
    look = ex.random_lookup_hit_ratio(sizes=(args.n,), n_keys=args.keys,
                                      n_lookups=args.lookups, jobs=args.jobs,
                                      **rep)
    out = "Figure 8(a,b) (RANDOM advertise cost)\n" + format_table(
        ["n", "|Qa|", "msgs", "routing", "latency"],
        [(p.n, p.quorum_size,
          _pm(p, p.avg_messages, "avg_advertise_messages"),
          _pm(p, p.avg_routing, "avg_advertise_routing"),
          _pm(p, p.avg_latency, "avg_advertise_latency"))
         for p in adv])
    out += "\n\nFigure 8(c) (RANDOM lookup hit ratio)\n" + format_table(
        ["n", "|Ql|", "factor", "hit", "msgs", "latency"],
        [(p.n, p.lookup_size, p.lookup_size_factor,
          _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.avg_messages, "avg_lookup_messages"),
          _pm(p, p.avg_latency, "avg_lookup_latency")) for p in look])
    return out


def _fig9(args) -> str:
    points = ex.random_opt_lookup(n=args.n, mobility=args.mobility,
                                  n_keys=args.keys, n_lookups=args.lookups,
                                  jobs=args.jobs, **_rep_kwargs(args))
    return "Figure 9 (RANDOM-OPT lookup)\n" + format_table(
        ["n", "X", "hit", "msgs", "routing", "probed"],
        [(p.n, p.initiations, _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.avg_messages, "avg_lookup_messages"),
          _pm(p, p.avg_routing, "avg_lookup_routing"),
          p.avg_quorum_size) for p in points])


def _fig10(args) -> str:
    from repro.experiments.ascii_plot import render_series

    points = ex.unique_path_lookup(n=args.n, mobility=args.mobility,
                                   n_keys=args.keys, n_lookups=args.lookups,
                                   jobs=args.jobs, **_rep_kwargs(args))
    table = format_table(
        ["n", "|Ql|", "factor", "hit", "msgs", "msgs(hit)", "msgs(miss)",
         "latency"],
        [(p.n, p.lookup_size, p.lookup_size_factor,
          _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.avg_messages, "avg_lookup_messages"),
          _pm(p, p.avg_messages_on_hit, "avg_lookup_messages_on_hit"),
          _pm(p, p.avg_messages_on_miss, "avg_lookup_messages_on_miss"),
          _pm(p, p.avg_latency, "avg_lookup_latency")) for p in points])
    chart = render_series(
        {"hit ratio": [(p.lookup_size_factor, p.hit_ratio) for p in points]},
        x_label="|Ql| / sqrt(n)", y_label="hit ratio")
    return f"Figure 10 (UNIQUE-PATH lookup)\n{table}\n\n{chart}"


def _fig11(args) -> str:
    points = ex.flooding_lookup(n=args.n, mobility=args.mobility,
                                n_keys=args.keys, n_lookups=args.lookups,
                                jobs=args.jobs, **_rep_kwargs(args))
    return "Figure 11 (FLOODING lookup)\n" + format_table(
        ["n", "ttl", "hit", "msgs", "coverage"],
        [(p.n, p.ttl, _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.avg_messages, "avg_lookup_messages"), p.avg_coverage)
         for p in points])


def _fig12(args) -> str:
    points = ex.path_x_path(n=args.n, n_keys=args.keys,
                            n_lookups=args.lookups, jobs=args.jobs,
                            **_rep_kwargs(args))
    return "Figure 12 (UNIQUE-PATH x UNIQUE-PATH)\n" + format_table(
        ["n", "|Q|/side", "combined/n", "hit", "adv msgs", "lookup msgs"],
        [(p.n, p.quorum_size, p.combined_fraction,
          _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.avg_advertise_messages, "avg_advertise_messages"),
          _pm(p, p.avg_lookup_messages, "avg_lookup_messages"))
         for p in points])


def _fig13(args) -> str:
    points = ex.mobility_sweep(n=args.n, local_repair=False,
                               n_keys=args.keys, n_lookups=args.lookups,
                               jobs=args.jobs, **_rep_kwargs(args))
    return "Figure 13 (fast mobility, no repair)\n" + format_table(
        ["speed", "hit", "intersection", "drops", "msgs"],
        [(p.max_speed, _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.intersection_ratio, "intersection_ratio"),
          _pm(p, p.reply_drop_ratio, "reply_drop_ratio"),
          _pm(p, p.avg_messages, "avg_lookup_messages")) for p in points])


def _fig14(args) -> str:
    rep = _rep_kwargs(args)
    points = ex.mobility_sweep(n=args.n, local_repair=True,
                               n_keys=args.keys, n_lookups=args.lookups,
                               jobs=args.jobs, **rep)
    churn = ex.churn_sweep(n=args.n, n_keys=args.keys,
                           n_lookups=args.lookups, jobs=args.jobs, **rep)
    out = "Figure 14(a-d) (reply-path repair)\n" + format_table(
        ["speed", "hit", "drops", "msgs", "routing"],
        [(p.max_speed, _pm(p, p.hit_ratio, "hit_ratio"),
          _pm(p, p.reply_drop_ratio, "reply_drop_ratio"),
          _pm(p, p.avg_messages, "avg_lookup_messages"),
          _pm(p, p.avg_routing, "avg_lookup_routing")) for p in points])
    out += "\n\nFigure 14(f) (churn)\n" + format_table(
        ["f", "hit", "analytic floor"],
        [(p.churn_fraction, _pm(p, p.hit_ratio, "hit_ratio"),
          p.analytic_floor) for p in churn])
    return out


def _fig15(args) -> str:
    from repro.experiments.ascii_plot import render_series

    curves = ex.lookup_tradeoff_curves(n=args.n, n_keys=args.keys,
                                       n_lookups=args.lookups)
    rows = []
    for name, points in curves.items():
        rows.extend((name, p.knob, p.hit_ratio, p.avg_messages,
                     p.avg_routing) for p in points)
    table = format_table(
        ["strategy", "knob", "hit", "msgs", "routing"], rows)
    chart = render_series(
        {name: [(p.avg_messages, p.hit_ratio) for p in points]
         for name, points in curves.items()},
        x_label="messages/lookup", y_label="hit ratio")
    return f"Figure 15 (lookup strategy comparison)\n{table}\n\n{chart}"


def _fig16(args) -> str:
    rows = ex.summary_table(n=args.n, n_keys=args.keys,
                            n_lookups=args.lookups)
    return "Figure 16 (summary)\n" + ex.render_summary(rows)


def _maint(args) -> str:
    from repro.experiments.ascii_plot import render_series

    points = ex.maintenance_curves(n=args.n, epsilon=args.epsilon,
                                   n_keys=args.keys)
    table = format_table(
        ["refresh", "t", "n", "intersection", "rounds"],
        [(p.refresh, p.t, p.n_alive, p.intersection, p.refresh_rounds)
         for p in points])
    chart = render_series(
        {f"refresh {mode}": [(p.t, p.intersection) for p in points
                             if p.refresh == mode]
         for mode in ("off", "on")},
        x_label="sim time (s)", y_label="intersection")
    return (f"Maintenance degradation under churn (Section 6.1)\n"
            f"{table}\n\n{chart}")


def _quorum(args) -> str:
    from repro.experiments.ascii_plot import render_series

    points = ex.quorum_load_sweep(
        systems=tuple(args.systems),
        read_fractions=tuple(args.read_fractions),
        n=args.n, m=args.quorum_nodes, optimize=args.optimize,
        reps=args.reps, ops=args.lookups)
    table = format_table(
        ["system", "fr", "pred load", "bound", "sim load", "gap", "CI ok",
         "E|Qr|", "E|Qw|", "hit"],
        [(p.system, p.read_fraction, p.predicted_load, p.load_lower_bound,
          format_pm(p.simulated_load, p.simulated_load_hw), p.max_gap,
          ("yes" if p.within_ci else "NO") if p.feasible else "-",
          p.expected_read_size, p.expected_write_size, p.hit_ratio)
         for p in points])
    series = {}
    for system in dict.fromkeys(p.system for p in points):
        mine = [p for p in points if p.system == system and p.feasible]
        series[f"{system} predicted"] = [
            (p.read_fraction, p.predicted_load) for p in mine]
        series[f"{system} simulated"] = [
            (p.read_fraction, p.simulated_load) for p in mine]
    chart = render_series(series, x_label="read fraction",
                          y_label="system load")
    return (f"Quorum algebra ({args.optimize}-optimized strategy vs "
            f"simulation)\n{table}\n\n{chart}")


def _byz(args) -> str:
    from repro.experiments.ascii_plot import render_series

    points = ex.byzantine_sweep(
        n=args.n, fractions=tuple(args.byz_fractions), b=args.byz_b,
        epsilon=args.epsilon, n_keys=args.keys, n_lookups=args.lookups)
    table = format_table(
        ["mode", "f", "liars", "b", "q", "hit", "masked", "corrupt",
         "pred", "caught", "load", "pred load"],
        [(p.mode, p.byz_fraction, p.liars,
          "-" if p.b is None else p.b, p.quorum_size,
          p.hit_ratio, p.masked_lookups, p.corrupt_fraction,
          p.predicted_corrupt, p.caught, p.per_node_load,
          p.predicted_load) for p in points])
    chart = render_series(
        {mode: [(p.byz_fraction, p.corrupt_fraction) for p in points
                if p.mode == mode]
         for mode in ("undefended", "masked")},
        x_label="byzantine fraction", y_label="corrupt reads")
    return ("Byzantine sweep (masking quorums vs undefended RANDOM)\n"
            f"{table}\n\n{chart}")


def _kv(args) -> str:
    from repro.experiments.ascii_plot import render_series

    cells = ex.kv_sweep(
        backend=args.kv_backend, strategies=tuple(args.strategies),
        ttls=tuple(args.ttl), rates=tuple(args.rate), ops=args.ops,
        n=args.n, n_keys=args.keys, read_fraction=args.read_fraction,
        cas_fraction=args.cas_fraction, zipf_s=args.zipf,
        churn_rate=args.churn_rate, epsilon=args.epsilon,
        reps=args.reps, jobs=args.jobs, seed=args.seed)
    table = format_table(
        ["strategy", "ttl", "rate", "p50", "p99", "p999", "stale",
         "pred", "avail", "cas ok", "viol", "ok"],
        [(c.point.strategy, round(c.point.effective_ttl, 2), c.point.rate,
          c.p50, c.p99, c.p999,
          format_pm(c.stale, c.stale_hw), c.predicted, c.availability,
          c.cas_ok, c.violations,
          {True: "yes", False: "NO", None: "-"}[c.tracks_prediction])
         for c in cells])
    series = {}
    for rate in dict.fromkeys(c.point.rate for c in cells):
        mine = [c for c in cells if c.point.rate == rate]
        series[f"stale rate={rate:g}"] = [
            (c.point.effective_ttl, c.stale) for c in mine]
        if any(c.predicted == c.predicted for c in mine):
            series[f"analytic rate={rate:g}"] = [
                (c.point.effective_ttl, c.predicted) for c in mine
                if c.predicted == c.predicted]
    chart = render_series(series, x_label="lease TTL (s)",
                          y_label="stale-read fraction")
    dirty = sum(c.violations for c in cells)
    verdict = ("consistency checker: clean" if dirty == 0
               else f"consistency checker: {dirty} VIOLATIONS")
    return (f"KV serving benchmark ({args.kv_backend} backend, "
            f"{args.ops} ops/point, churn {args.churn_rate}/node-s)\n"
            f"{table}\n\n{chart}\n\n{verdict}")


FIGURES: Dict[str, Callable] = {
    "fig3": _fig3, "fig4": _fig4, "fig5": _fig5, "fig6": _fig6,
    "fig7": _fig7, "fig8": _fig8, "fig9": _fig9, "fig10": _fig10,
    "fig11": _fig11, "fig12": _fig12, "fig13": _fig13, "fig14": _fig14,
    "fig15": _fig15, "fig16": _fig16, "maint": _maint,
    "quorum": _quorum, "byz": _byz, "kv": _kv,
}

DESCRIPTIONS = {
    "fig3": "asymptotic strategy comparison table",
    "fig4": "random-walk partial cover time",
    "fig5": "flooding coverage vs TTL",
    "fig6": "strategy combination costs",
    "fig7": "intersection degradation under churn",
    "fig8": "RANDOM advertise cost / lookup hit ratio",
    "fig9": "RANDOM-OPT lookup",
    "fig10": "UNIQUE-PATH lookup (headline result)",
    "fig11": "FLOODING lookup",
    "fig12": "UNIQUE-PATH x UNIQUE-PATH",
    "fig13": "fast mobility without reply repair",
    "fig14": "reply-path repair + churn",
    "fig15": "lookup strategy trade-off curves",
    "fig16": "summary cost table",
    "maint": "maintenance degradation, refresh off vs adaptive",
    "quorum": "algebraic quorum systems: optimized strategy vs simulation",
    "byz": "byzantine sweep: masking quorums vs undefended RANDOM",
    "kv": "replicated kv serving benchmark: leases, latency, staleness",
}


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


ENV_VARS = {
    "REPRO_TRACE": "stream simulation events as JSONL to this path",
    "REPRO_AUDIT": "accounting audit mode: strict (raise) or record",
    "REPRO_WATCH": "1 attaches every live invariant watcher; a comma "
                   "list (e.g. conservation,slo) selects a subset",
    "REPRO_SLO": "JSON SLO spec file evaluated live by the watchers",
    "REPRO_PROFILE": "1 enables the phase profiler (table on stderr)",
    "REPRO_JOBS": "default parallel sweep workers",
    "REPRO_MANIFEST_DIR": "directory for per-sweep provenance manifests",
}

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
    frun.add_argument("--n", type=int, default=100, help="network size")
    frun.add_argument("--seed", type=int, default=7, help="master seed")
    frun.add_argument("--keys", type=int, default=10,
                      help="number of advertisements")
    frun.add_argument("--lookups", type=int, default=60,
                      help="number of lookups spread over the campaign")
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
    frun.add_argument("--trace", metavar="PATH", default=None,
                      help="stream simulation events as JSONL to PATH")
    frun.add_argument("--watch", action="store_true",
                      help="run every live invariant watcher on the "
                           "campaign's trace stream")
    frun.add_argument("--slo", metavar="FILE", default=None,
                      help="JSON SLO spec file evaluated live")
    frun.add_argument("--fail-on-violation", action="store_true",
                      help="exit 1 when a watcher reports a violation")
    faults_sub.add_parser("list", help=FAULTS_COMMANDS["list"])
    fshow = faults_sub.add_parser("show", help=FAULTS_COMMANDS["show"])
    fshow.add_argument("campaign", help="builtin name or JSON schema path")
    report = sub.add_parser(
        "report", help="aggregate benchmarks/results/ into one document")
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    for name in FIGURES:
        p = sub.add_parser(name, help=DESCRIPTIONS[name])
        p.add_argument("--n", type=int, default=200,
                       help="network size (default 200; paper uses 800)")
        p.add_argument("--keys", type=int, default=10,
                       help="number of advertisements")
        p.add_argument("--lookups", type=int, default=60,
                       help="number of lookups")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel sweep workers (default: REPRO_JOBS "
                            "env var, else 1)")
        p.add_argument("--walks", type=int, default=8,
                       help="walks per PCT point (fig4)")
        p.add_argument("--trials", type=int, default=400,
                       help="Monte-Carlo trials (fig7)")
        p.add_argument("--epsilon", type=float, default=0.05,
                       help="initial epsilon (fig7)")
        p.add_argument("--mobility", choices=("static", "waypoint"),
                       default="static")
        p.add_argument("--reps", type=int, default=1,
                       help="Monte-Carlo replicas per sweep point; with "
                            "reps > 1 tables report mean±CI (default 1, "
                            "which reproduces the historical single-run "
                            "numbers exactly)")
        p.add_argument("--ci", type=float, default=None, metavar="DELTA",
                       help="sequential stopping: add replicas (beyond "
                            "--reps, up to 8x) until the hit-ratio CI "
                            "half-width drops below DELTA")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="stream simulation events as JSONL to PATH "
                            "(with --jobs > 1, pool workers append to the "
                            "same file; writes are flock-serialized)")
        p.add_argument("--manifest", metavar="PATH", default=None,
                       help="write a provenance manifest to PATH (default: "
                            "<trace>.manifest.json when --trace is given)")
        p.add_argument("--watch", action="store_true",
                       help="attach the live invariant watchers to every "
                            "network the figure builds (REPRO_WATCH=1)")
        p.add_argument("--slo", metavar="FILE", default=None,
                       help="JSON SLO spec file evaluated live by the "
                            "watchers (REPRO_SLO)")
        p.add_argument("--fail-on-violation", action="store_true",
                       help="exit 1 when a watcher reports a violation")
        if name == "byz":
            p.add_argument("--byz-fractions", type=float, nargs="+",
                           metavar="F", default=[0.0, 0.02, 0.05, 0.1],
                           help="byzantine (lying replica) fractions to "
                                "sweep (0..1)")
            p.add_argument("--byz-b", type=int, default=None, metavar="B",
                           help="masking budget b for the defended legs "
                                "(default: ceil(max fraction * n))")
        if name == "kv":
            p.add_argument("--kv-backend", choices=("batched", "sequential"),
                           default="batched",
                           help="workload engine: batched numpy kernel "
                                "(~1M ops in seconds) or the live "
                                "QuorumKVStore service")
            p.add_argument("--strategies", nargs="+", metavar="NAME",
                           default=["random"],
                           help="sequential-backend access strategies "
                                "(random, masking:<b>); the batched "
                                "backend always models uniform quorums")
            p.add_argument("--ttl", type=float, nargs="+", metavar="SEC",
                           default=[5.0, 20.0, 80.0],
                           help="lease TTLs to sweep; 0 derives the TTL "
                                "from the churn rate via the lease "
                                "analysis")
            p.add_argument("--rate", type=float, nargs="+", metavar="OPS",
                           default=[2000.0],
                           help="open-loop arrival rates (ops per "
                                "simulated second)")
            p.add_argument("--ops", type=int, default=200_000,
                           help="operations per sweep point")
            p.add_argument("--read-fraction", type=float, default=0.92,
                           help="fraction of ops that are reads")
            p.add_argument("--cas-fraction", type=float, default=0.05,
                           help="fraction of the write share issued as "
                                "compare-and-swap")
            p.add_argument("--zipf", type=float, default=0.99,
                           help="Zipf key-popularity exponent")
            p.add_argument("--churn-rate", type=float, default=0.01,
                           help="node churn events per node-second")
            p.add_argument("--seed", type=int, default=7,
                           help="master seed")
        if name == "quorum":
            p.add_argument("--systems", nargs="+", metavar="NAME",
                           choices=sorted(BUILTIN_SYSTEMS),
                           default=["majority", "grid"],
                           help="algebraic systems to sweep "
                                f"({', '.join(sorted(BUILTIN_SYSTEMS))})")
            p.add_argument("--optimize", choices=OBJECTIVES, default="load",
                           help="strategy objective (default load)")
            p.add_argument("--read-fractions", type=float, nargs="+",
                           metavar="FR",
                           default=[0.0, 0.25, 0.5, 0.75, 1.0],
                           help="read fractions to sweep (0..1)")
            p.add_argument("--quorum-nodes", type=int, default=9,
                           metavar="M",
                           help="replicas in the algebraic system "
                                "(rounded to the system's natural shape)")
    return parser


def _run_obs_watch(args) -> int:
    from repro.obs.query import check_trace_schema
    from repro.obs.slo import load_slo_specs, verdict_path_for, write_verdict_report
    from repro.obs.watch import replay_trace, resolve_trace_n

    check_trace_schema(args.trace)
    n = args.n
    if n is None and args.trace != "-":
        n = resolve_trace_n(args.trace)
    slo_specs = None
    if args.slo:
        try:
            slo_specs = load_slo_specs(args.slo)
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
    if args.trace:
        os.environ["REPRO_TRACE"] = args.trace
    slo_specs = None
    if args.slo:
        from repro.obs.slo import load_slo_specs
        try:
            slo_specs = load_slo_specs(args.slo)
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
        jobs=args.jobs,
        trace_path=getattr(args, "trace", None),
    )
    manifest.wall_time_s = round(wall_time_s, 6)
    manifest.write(path)
    return path


def main(argv: List[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in (None, "list"):
        print("available figures:")
        for name, desc in DESCRIPTIONS.items():
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
    if getattr(args, "trace", None):
        # Picked up by every SimNetwork built from here on — including
        # the ones constructed inside sweep pool workers, which inherit
        # the environment and append to the same flock-serialized file.
        os.environ["REPRO_TRACE"] = args.trace
    watching = getattr(args, "watch", False) or getattr(args, "slo", None)
    if watching:
        # Same mechanism: every network (pool workers included) attaches
        # the watchers from the environment.
        os.environ["REPRO_WATCH"] = "1"
        if getattr(args, "slo", None):
            os.environ["REPRO_SLO"] = args.slo
    started = time.perf_counter()
    print(FIGURES[args.command](args))
    wall = time.perf_counter() - started
    if getattr(args, "trace", None):
        print(f"\n[trace] events written to {args.trace}", file=sys.stderr)
    if getattr(args, "manifest", None) or getattr(args, "trace", None):
        path = _write_figure_manifest(args, wall)
        print(f"[manifest] run provenance written to {path}",
              file=sys.stderr)
    rc = 0
    if watching:
        rc = _report_live_watch(args)
    from repro.obs.profile import PROFILER
    if PROFILER.enabled:
        print(f"\n{PROFILER.render()}", file=sys.stderr)
    return rc


def _report_live_watch(args) -> int:
    """Post-run verdict for a figure run under ``--watch``/``--slo``.

    In-process violations land on the session ledger; with ``--trace``
    the recorded file is additionally replayed through fresh watchers —
    the cross-process collector for pool workers — and the verdict is
    written beside the manifest.
    """
    from repro.obs.watch import SESSION_VIOLATIONS

    violations = [str(v) for v in SESSION_VIOLATIONS]
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs.slo import load_slo_specs, verdict_path_for, write_verdict_report
        from repro.obs.watch import replay_trace, resolve_trace_n

        slo_specs = (load_slo_specs(args.slo)
                     if getattr(args, "slo", None) else None)
        result = replay_trace(trace_path, n=resolve_trace_n(trace_path),
                              slo_specs=slo_specs)
        payload = result.to_jsonable()
        payload["live_violations"] = violations
        violations = violations + [v for v in payload["violations"]
                                   if v not in violations]
        path = verdict_path_for(trace_path)
        write_verdict_report(path, payload)
        print(f"[verdict] report written to {path}", file=sys.stderr)
    if violations:
        print(f"[watch] {len(violations)} violation(s):", file=sys.stderr)
        for line in violations:
            print(f"  {line}", file=sys.stderr)
        if getattr(args, "fail_on_violation", False):
            return 1
    else:
        print("[watch] clean", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
