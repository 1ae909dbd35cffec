"""Figures as data: the paper's evaluation as one table of specs.

The Section 8 scenario figures (Figs. 8-16) run one experiment shape many
times: an RGG deployment with RANDOM membership, an advertise/lookup
strategy pair sized as factor * sqrt(n), and one swept axis.  A
:class:`FigureSpec` writes that shape down once per figure.
:func:`run_point` evaluates one point of any spec under
:func:`~repro.experiments.montecarlo.run_replicated`, and
:func:`run_figure` sweeps a spec's axis through
:func:`~repro.experiments.runner.run_sweep`.  Every point comes back as a
:class:`FigureRow`, which maps each metric to (mean, CI half-width).

The analytic and self-contained figures (3-7, ``maint``, ``quorum``,
``byz``, ``kv``) register in the same :data:`FIGURES` table with their own
renderer.  The table is also the CLI's command list: a spec with a
``description`` is the command ``repro NAME``, which accepts ``--n`` plus
exactly the flags named in its ``flags``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis import figure3_table, figure6_table
from repro.core.biquorum import ProbabilisticBiquorum
from repro.core.strategies import (
    AccessStrategy,
    FloodingStrategy,
    RandomOptStrategy,
    RandomStrategy,
    UniquePathStrategy,
)
from repro.experiments.ascii_plot import render_series
from repro.experiments.common import (
    ScenarioStats,
    format_pm,
    format_table,
    make_membership,
    run_scenario,
    scenario_config,
)
from repro.experiments.fig4_pct import pct_by_density, pct_by_network_size
from repro.experiments.fig5_flooding import flooding_coverage
from repro.experiments.fig7_degradation import degradation_curves
from repro.experiments.fig_byz import byzantine_sweep
from repro.experiments.fig_kv import kv_sweep
from repro.experiments.fig_maintenance import maintenance_curves
from repro.experiments.fig_quorum import quorum_load_sweep
from repro.experiments.montecarlo import SCENARIO_METRICS, run_replicated
from repro.experiments.runner import run_sweep
from repro.services.location import LocationService
from repro.simnet.churn import apply_churn

@dataclass(frozen=True)
class SweepPoint:
    """One sweep point, as a spec's callables read it."""

    n: int
    x: Any                      # the swept axis value
    mobility: str
    n_keys: int
    n_lookups: int
    miss_fraction: float
    toggles: Dict[str, Any]     # the spec's toggles, overrides applied


@dataclass(frozen=True)
class FigureRow:
    """One evaluated point: metric -> (mean, CI half-width).

    Every scenario metric is recorded, plus ``avg_lookup_quorum_size``
    over the replicas' pooled lookups.  The half-width is None where no
    interval is defined: below two replicas, or for the pooled metric.
    """

    point: SweepPoint
    qa: int                     # advertise quorum size
    ql: int                     # lookup quorum size
    metrics: Dict[str, Tuple[float, Optional[float]]]

    def __getitem__(self, metric: str) -> float:
        return self.metrics[metric][0]


def _scenario(net, seed: int, spec: "FigureSpec", p: SweepPoint, qa: int,
              ql: int) -> ScenarioStats:
    """The paper's scenario: advertisements, then lookups."""
    membership = make_membership(net, "random")
    return run_scenario(
        net, advertise_strategy=spec.advertise(membership, p),
        lookup_strategy=spec.lookup(membership, p),
        advertise_size=qa, lookup_size=ql, n_keys=p.n_keys,
        n_lookups=0 if spec.advertise_only else p.n_lookups,
        miss_fraction=p.miss_fraction, seed=seed)


@dataclass(frozen=True)
class FigureSpec:
    """One figure: a scenario sweep, or a self-contained renderer.

    ``description`` makes the spec a CLI command; a spec without one is a
    panel that another spec lists in ``panels``.  ``render(args)`` draws a
    self-contained figure.  A scenario spec instead builds
    ``scenario_config(n, **network(point))`` for each point of ``axis``.
    It sizes the quorums with ``sizes(point) -> (|Qa|, |Ql|)`` and builds
    the strategies with ``advertise(membership, point)`` and
    ``lookup(membership, point)``, which share the deployment's RANDOM
    membership.  Each replica runs ``replica``, which defaults to the
    paper's advertise-then-lookup scenario.  The
    ``columns`` are the reported metrics, each a (header, cell) pair.
    """

    description: str = ""
    flags: Tuple[str, ...] = ()
    render: Optional[Callable[[Any], str]] = None
    title: str = ""
    axis: Tuple[Any, ...] = ()
    sizes: Optional[Callable[[SweepPoint], Tuple[int, int]]] = None
    advertise: Optional[Callable[[Any, SweepPoint], AccessStrategy]] = None
    lookup: Optional[Callable[[Any, SweepPoint], AccessStrategy]] = None
    network: Callable[[SweepPoint], Dict[str, Any]] = (
        lambda p: {"mobility": p.mobility})
    replica: Callable[..., ScenarioStats] = _scenario
    advertise_only: bool = False    # no lookups at all (Fig. 8(a,b))
    miss_fraction: float = 0.0      # lookups of never-advertised keys
    toggles: Dict[str, Any] = field(default_factory=dict)  # ablations
    columns: Tuple[Tuple[str, Callable[[FigureRow], Any]], ...] = ()
    chart: Optional[Callable[[List[FigureRow]], str]] = None
    panels: Tuple[str, ...] = ()    # further specs the command prints


def run_point(point: Tuple[int, Any], task_seed: int, *, name: str,
              mobility: str, n_keys: int, n_lookups: int,
              miss_fraction: float, toggles: Dict[str, Any], seed: int,
              reps: int, ci_target: Optional[float]) -> FigureRow:
    """Evaluate spec ``name`` at ``point = (n, x)`` (the sweep worker).

    The worker gets the spec's name and looks it up in :data:`FIGURES`,
    so specs may hold lambdas and still run under a process pool.
    """
    spec = FIGURES[name]
    n, x = point
    p = SweepPoint(n, x, mobility, n_keys, n_lookups, miss_fraction, toggles)
    qa, ql = spec.sizes(p)
    outcome = run_replicated(
        scenario_config(n, seed=seed, **spec.network(p)),
        lambda net, rep_seed: spec.replica(net, rep_seed, spec, p, qa, ql),
        base_seed=seed, reps=reps, target_halfwidth=ci_target)
    metrics = {}
    for metric in SCENARIO_METRICS:
        hw = outcome.halfwidth(metric)
        metrics[metric] = (outcome.mean(metric), hw if hw == hw else None)
    metrics["avg_lookup_quorum_size"] = (
        outcome.merged.avg_lookup_quorum_size, None)
    return FigureRow(p, qa, ql, metrics)


def run_figure(name: str, n: Union[int, Sequence[int]] = 200,
               axis: Optional[Sequence[Any]] = None, *,
               mobility: str = "static", n_keys: int = 10,
               n_lookups: int = 60, miss_fraction: Optional[float] = None,
               seed: int = 0, jobs: Optional[int] = None, reps: int = 1,
               ci_target: Optional[float] = None,
               **toggles: Any) -> List[FigureRow]:
    """Sweep spec ``name`` over ``axis`` (default: the spec's) at each ``n``.

    ``toggles`` override the spec's ablation switches.  ``jobs > 1``
    fans the points out over a process pool with identical results.
    """
    spec = FIGURES[name]
    if spec.sizes is None:
        raise ValueError(f"{name} is not a scenario figure")
    unknown = sorted(set(toggles) - set(spec.toggles))
    if unknown:
        raise TypeError(f"{name} has no toggle {', '.join(unknown)}")
    sizes = (n,) if isinstance(n, int) else tuple(n)
    grid = [(size, x) for size in sizes
            for x in (spec.axis if axis is None else axis)]
    worker = partial(
        run_point, name=name, mobility=mobility, n_keys=n_keys,
        n_lookups=n_lookups,
        miss_fraction=(spec.miss_fraction if miss_fraction is None
                       else miss_fraction),
        toggles={**spec.toggles, **toggles}, seed=seed, reps=reps,
        ci_target=ci_target)
    return [result.value
            for result in run_sweep(grid, worker, jobs=jobs, base_seed=seed)]


def figure_table(name: str, rows: List[FigureRow]) -> str:
    """Spec ``name``'s columns over ``rows`` as an ASCII table."""
    columns = FIGURES[name].columns
    return format_table([header for header, _ in columns],
                        [tuple(cell(row) for _, cell in columns)
                         for row in rows])


def _panel(name: str, args: Any) -> str:
    spec = FIGURES[name]
    rows = run_figure(name, args.n,
                      mobility=getattr(args, "mobility", "static"),
                      n_keys=args.keys, n_lookups=args.lookups,
                      jobs=getattr(args, "jobs", None),
                      reps=getattr(args, "reps", 1),
                      ci_target=getattr(args, "ci", None))
    text = f"{spec.title}\n{figure_table(name, rows)}"
    return text if spec.chart is None else f"{text}\n\n{spec.chart(rows)}"


def render_figure(name: str, args: Any) -> str:
    """What ``repro NAME`` prints; ``args`` holds the flags the spec reads."""
    spec = FIGURES[name]
    if spec.render is not None:
        return spec.render(args)
    return "\n\n".join(_panel(panel, args) for panel in (name,) + spec.panels)


# -- the scenario figures' parts --------------------------------------------


def _root(n: int, factor: float) -> int:
    """A quorum of ``factor * sqrt(n)`` nodes (at least one)."""
    return max(1, int(round(factor * math.sqrt(n))))


def _random(membership, p: SweepPoint) -> AccessStrategy:
    return RandomStrategy(membership)


def _unique_path(membership, p: SweepPoint) -> AccessStrategy:
    return UniquePathStrategy()


def _pm(metric: str) -> Callable[[FigureRow], str]:
    """Cell: ``mean ± half-width`` of ``metric``."""
    return lambda row: format_pm(*row.metrics[metric])


def _mean(metric: str) -> Callable[[FigureRow], float]:
    """Cell: the plain mean of ``metric``."""
    return lambda row: row[metric]


def _x(header: str) -> Tuple[str, Callable[[FigureRow], Any]]:
    """Column: the swept axis value."""
    return header, lambda row: row.point.x


_N = ("n", lambda row: row.point.n)
_SWEEP = ("keys", "lookups", "jobs", "reps", "ci")


def _fig15_lookup(membership, p: SweepPoint) -> AccessStrategy:
    strategy, knob = p.x
    if strategy == "RANDOM-OPT":
        return RandomOptStrategy(membership, initiations=knob)
    if strategy == "FLOODING":
        return FloodingStrategy(ttl=knob)
    return UniquePathStrategy()


def _fig15_chart(rows: List[FigureRow]) -> str:
    series: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        series.setdefault(row.point.x[0], []).append(
            (row["avg_lookup_messages"], row["hit_ratio"]))
    return render_series(series, x_label="messages/lookup",
                         y_label="hit ratio")


def _fig16_strategy(name: str, membership, p: SweepPoint) -> AccessStrategy:
    if name == "RANDOM":
        return RandomStrategy(membership)
    if name == "RANDOM-OPT":
        return RandomOptStrategy(membership)
    if name == "FLOODING":
        return FloodingStrategy()
    return UniquePathStrategy(local_repair=p.x[2] == "waypoint")


def _fig16_sizes(p: SweepPoint) -> Tuple[int, int]:
    """|Qa| = 2 sqrt(n), |Ql| = 1.15 sqrt(n) (intersection 0.9); the
    UP x UP mix uses the crossing-time sizes ~1.5 n / ln n."""
    if p.x[:2] == ("UNIQUE-PATH", "UNIQUE-PATH"):
        q = max(2, int(round(1.5 * p.n / math.log(p.n))))
        return q, q
    return _root(p.n, 2.0), _root(p.n, 1.15)


def _churn(net, seed: int, spec: FigureSpec, p: SweepPoint, qa: int,
           ql: int) -> ScenarioStats:
    """Fig. 14(f): advertise, churn a fraction ``x`` of the nodes (fail +
    join), then look up with |Ql| re-sized to the new network size."""
    membership = make_membership(net, "random")
    rng = random.Random(seed)
    biquorum = ProbabilisticBiquorum(
        net, advertise=spec.advertise(membership, p),
        lookup=spec.lookup(membership, p), advertise_size=qa,
        lookup_size=ql, adjust_to_network_size=False)
    service = LocationService(biquorum)
    keys = [f"key-{i}" for i in range(p.n_keys)]
    for key in keys:
        service.advertise(net.random_alive_node(rng), key, key)
    apply_churn(net, fail_fraction=p.x, join_fraction=p.x, rng=rng,
                keep_connected=True)
    membership.refresh()
    # Section 6.1: keep |Ql| / sqrt(n) as the network size moves.
    biquorum.set_sizes(lookup_size=_root(net.n_alive, ql / math.sqrt(p.n)))
    hits = 0
    for _ in range(p.n_lookups):
        looker = net.random_alive_node(rng)
        hits += bool(service.lookup(looker, rng.choice(keys)).found)
    return ScenarioStats(n=net.n_alive, lookups=p.n_lookups, hits=hits)


#: Fig. 14(f)'s miss probability eps: both quorums start at
#: ceil(sqrt(n ln(1/eps))) nodes, and eps^(1-f) is the analytic floor.
_CHURN_EPSILON = 0.05

# Figs. 13 and 14: lookups under fast waypoint mobility (max speed swept).
_MOBILITY = FigureSpec(
    flags=_SWEEP, axis=(2.0, 5.0, 10.0, 20.0),
    # The per-hop MAC/queueing delay under load (~50 ms) gives mobility
    # time to break the reverse path while a walk and its reply fly.
    network=lambda p: {"mobility": "waypoint", "max_speed": p.x,
                       "hop_latency": 0.05},
    sizes=lambda p: (_root(p.n, p.toggles["advertise_factor"]),
                     _root(p.n, 1.15)),
    advertise=_random,
    lookup=lambda m, p: UniquePathStrategy(
        salvation=p.toggles["salvation"],
        local_repair=p.toggles["local_repair"],
        allow_global_repair=p.toggles["local_repair"]),
    toggles={"advertise_factor": 2.0, "salvation": True,
             "local_repair": False})


# -- the table --------------------------------------------------------------


def _fig3(args) -> str:
    rows = figure3_table(args.n)
    return "Figure 3 (asymptotic strategy comparison)\n" + format_table(
        ["strategy", "accessed", "cost", "routing?", "membership?",
         "replies", "early halt?"],
        [(r["strategy"], r["accessed_nodes"], r["cost_rgg"],
          r["needs_routing"], r["needs_membership"], r["lookup_replies"],
          r["early_halting"]) for r in rows])


def _fig4(args) -> str:
    points = pct_by_network_size(sizes=(args.n // 2, args.n),
                                 walks=args.walks)
    points += pct_by_density(densities=(7, 10, 20), n=args.n,
                             walks=args.walks)
    return "Figure 4 (partial cover time)\n" + format_table(
        ["n", "d_avg", "target", "self-avoiding", "steps/unique"],
        [(p.n, p.avg_degree, p.unique_target, p.unique, p.steps_per_unique)
         for p in points])


def _fig5(args) -> str:
    points = flooding_coverage(n=args.n, ttls=tuple(range(1, 6)))
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
    points = degradation_curves(epsilon=args.epsilon, n=args.n,
                                trials=args.trials)
    return "Figure 7 (degradation under churn)\n" + format_table(
        ["mode", "f", "analytic", "simulated"],
        [(p.mode, p.f, p.analytic_intersection, p.simulated_intersection)
         for p in points])


def _maint(args) -> str:
    points = maintenance_curves(n=args.n, epsilon=args.epsilon,
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
    points = quorum_load_sweep(
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
    points = byzantine_sweep(
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
    cells = kv_sweep(
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


FIGURES: Dict[str, FigureSpec] = {
    "fig3": FigureSpec("asymptotic strategy comparison table", render=_fig3),
    "fig4": FigureSpec("random-walk partial cover time", ("walks",),
                       render=_fig4),
    "fig5": FigureSpec("flooding coverage vs TTL", render=_fig5),
    "fig6": FigureSpec("strategy combination costs", render=_fig6),
    "fig7": FigureSpec("intersection degradation under churn",
                       ("trials", "epsilon"), render=_fig7),
    # Advertise cost ~ |Q| sqrt(n) / ln(n), flattening at the 2 sqrt(n)
    # membership view, plus a dramatic AODV routing overhead.
    "fig8": FigureSpec(
        "RANDOM advertise cost / lookup hit ratio", _SWEEP,
        title="Figure 8(a,b) (RANDOM advertise cost)", panels=("fig8c",),
        axis=(0.5, 1.0, 1.5, 2.0, 2.5), advertise_only=True,
        sizes=lambda p: (_root(p.n, p.x), 1),
        advertise=_random, lookup=_random,
        columns=(_N, ("|Qa|", lambda row: row.qa),
                 ("msgs", _pm("avg_advertise_messages")),
                 ("routing", _pm("avg_advertise_routing")),
                 ("latency", _pm("avg_advertise_latency")))),
    # RANDOM lookup reaches 0.9 hit ratio at |Ql| ~ 1.15 sqrt(n) (Lemma 5.1).
    "fig8c": FigureSpec(
        title="Figure 8(c) (RANDOM lookup hit ratio)",
        axis=(0.25, 0.5, 0.75, 1.0, 1.15, 1.5, 2.0),
        sizes=lambda p: (_root(p.n, 2.0), _root(p.n, p.x)),
        advertise=_random, lookup=_random,
        columns=(_N, ("|Ql|", lambda row: row.ql), _x("factor"),
                 ("hit", _pm("hit_ratio")),
                 ("msgs", _pm("avg_lookup_messages")),
                 ("latency", _pm("avg_lookup_latency")))),
    # ~ln(n) routed initiations give 0.9: every en-route node probes, so
    # the effective quorum is ~sqrt(n ln n).
    "fig9": FigureSpec(
        "RANDOM-OPT lookup", _SWEEP + ("mobility",),
        title="Figure 9 (RANDOM-OPT lookup)", axis=(1, 2, 3, 4, 6, 8),
        sizes=lambda p: (_root(p.n, 2.0), _root(p.n, 2.0)),
        advertise=_random,
        lookup=lambda m, p: RandomOptStrategy(m, initiations=p.x),
        columns=(_N, _x("X"), ("hit", _pm("hit_ratio")),
                 ("msgs", _pm("avg_lookup_messages")),
                 ("routing", _pm("avg_lookup_routing")),
                 ("probed", _pm("avg_lookup_quorum_size")))),
    # The headline: 0.9 at |Ql| ~ 1.15 sqrt(n) with fewer than |Ql|
    # messages per hit (early halting, reply-path reduction).
    "fig10": FigureSpec(
        "UNIQUE-PATH lookup (headline result)", _SWEEP + ("mobility",),
        title="Figure 10 (UNIQUE-PATH lookup)",
        axis=(0.25, 0.5, 0.75, 1.0, 1.15, 1.5, 2.0), miss_fraction=0.15,
        sizes=lambda p: (_root(p.n, 2.0), _root(p.n, p.x)),
        advertise=_random,
        lookup=lambda m, p: UniquePathStrategy(
            early_halting=p.toggles["early_halting"],
            reply_reduction=p.toggles["reply_reduction"]),
        toggles={"early_halting": True, "reply_reduction": True},
        columns=(_N, ("|Ql|", lambda row: row.ql), _x("factor"),
                 ("hit", _pm("hit_ratio")),
                 ("msgs", _pm("avg_lookup_messages")),
                 ("msgs(hit)", _pm("avg_lookup_messages_on_hit")),
                 ("msgs(miss)", _pm("avg_lookup_messages_on_miss")),
                 ("latency", _pm("avg_lookup_latency"))),
        chart=lambda rows: render_series(
            {"hit ratio": [(row.point.x, row["hit_ratio"]) for row in rows]},
            x_label="|Ql| / sqrt(n)", y_label="hit ratio")),
    # Hit ratio grows superlinearly with TTL; 0.9 needs a TTL step whose
    # message cost is disproportionate (coarse coverage granularity).
    "fig11": FigureSpec(
        "FLOODING lookup", _SWEEP + ("mobility",),
        title="Figure 11 (FLOODING lookup)", axis=(1, 2, 3, 4, 5),
        sizes=lambda p: (_root(p.n, 2.0), _root(p.n, 2.0)),
        advertise=_random, lookup=lambda m, p: FloodingStrategy(ttl=p.x),
        columns=(_N, _x("ttl"), ("hit", _pm("hit_ratio")),
                 ("msgs", _pm("avg_lookup_messages")),
                 ("coverage", _pm("avg_lookup_quorum_size")))),
    # The routing-free symmetric mix: 0.9 needs a combined walk of ~n/2
    # (the crossing-time bound, Theorem 5.5); x is |Q| per side / n.
    "fig12": FigureSpec(
        "UNIQUE-PATH x UNIQUE-PATH", _SWEEP + ("mobility",),
        title="Figure 12 (UNIQUE-PATH x UNIQUE-PATH)",
        axis=(0.05, 0.1, 0.15, 0.2, 0.25, 0.3),
        sizes=lambda p: (max(2, int(round(p.x * p.n))),) * 2,
        advertise=_unique_path, lookup=_unique_path,
        columns=(_N, ("|Q|/side", lambda row: row.qa),
                 ("combined/n", lambda row: (row.qa + row.ql) / row.point.n),
                 ("hit", _pm("hit_ratio")),
                 ("adv msgs", _pm("avg_advertise_messages")),
                 ("lookup msgs", _pm("avg_lookup_messages")))),
    # Without repair the hit ratio falls with speed but the intersection
    # does not (RW salvation): the loss is replies dropped on the way back.
    "fig13": replace(
        _MOBILITY, description="fast mobility without reply repair",
        title="Figure 13 (fast mobility, no repair)",
        columns=(_x("speed"), ("hit", _pm("hit_ratio")),
                 ("intersection", _pm("intersection_ratio")),
                 ("drops", _pm("reply_drop_ratio")),
                 ("msgs", _pm("avg_lookup_messages")))),
    # Reply-path local repair (TTL 3 + global fallback) restores the hit
    # ratio, paid for in repair routing.
    "fig14": replace(
        _MOBILITY, description="reply-path repair + churn",
        title="Figure 14(a-d) (reply-path repair)", panels=("fig14f",),
        toggles={**_MOBILITY.toggles, "local_repair": True},
        columns=(_x("speed"), ("hit", _pm("hit_ratio")),
                 ("drops", _pm("reply_drop_ratio")),
                 ("msgs", _pm("avg_lookup_messages")),
                 ("routing", _pm("avg_lookup_routing")))),
    # After batch churn (fail + join) with |Ql| re-sized, intersection
    # degrades slowly towards the eps^(1-f) floor.
    "fig14f": FigureSpec(
        title="Figure 14(f) (churn)", axis=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
        network=lambda p: {"avg_degree": 15.0}, replica=_churn,
        sizes=lambda p: (math.ceil(math.sqrt(
            p.n * math.log(1.0 / _CHURN_EPSILON))),) * 2,
        advertise=_random, lookup=_unique_path,
        columns=(_x("f"), ("hit", _pm("hit_ratio")),
                 ("analytic floor",
                  lambda row: 1.0 - _CHURN_EPSILON ** (1.0 - row.point.x)))),
    # UNIQUE-PATH dominates at high intersection targets, FLOODING wins
    # only at low ones, RANDOM-OPT is inferior even before routing.
    "fig15": FigureSpec(
        "lookup strategy trade-off curves", ("keys", "lookups", "jobs"),
        title="Figure 15 (lookup strategy comparison)",
        axis=(tuple(("UNIQUE-PATH", f)
                    for f in (0.25, 0.5, 0.75, 1.0, 1.15, 1.5))
              + tuple(("RANDOM-OPT", x) for x in (1, 2, 3, 4, 6))
              + tuple(("FLOODING", ttl) for ttl in (1, 2, 3, 4))),
        sizes=lambda p: (_root(p.n, 2.0), _root(p.n, p.x[1])
                         if p.x[0] == "UNIQUE-PATH" else 1),
        advertise=_random, lookup=_fig15_lookup,
        columns=(("strategy", lambda row: row.point.x[0]),
                 ("knob", lambda row: row.point.x[1]),
                 ("hit", _mean("hit_ratio")),
                 ("msgs", _mean("avg_lookup_messages")),
                 ("routing", _mean("avg_lookup_routing"))),
        chart=_fig15_chart),
    # The summary at intersection 0.9; x is (advertise, lookup, mobility).
    "fig16": FigureSpec(
        "summary cost table", ("keys", "lookups", "jobs"),
        title="Figure 16 (summary)", miss_fraction=0.25,
        axis=tuple(combo + (mobility,) for mobility in ("static", "waypoint")
                   for combo in (("RANDOM", "RANDOM"),
                                 ("RANDOM", "RANDOM-OPT"),
                                 ("RANDOM", "UNIQUE-PATH"),
                                 ("RANDOM", "FLOODING"),
                                 ("UNIQUE-PATH", "UNIQUE-PATH"))),
        network=lambda p: {"mobility": p.x[2]}, sizes=_fig16_sizes,
        advertise=lambda m, p: _fig16_strategy(p.x[0], m, p),
        lookup=lambda m, p: _fig16_strategy(p.x[1], m, p),
        columns=(("advertise", lambda row: row.point.x[0]),
                 ("lookup", lambda row: row.point.x[1]),
                 ("mobility", lambda row: row.point.x[2]),
                 ("adv msgs", _mean("avg_advertise_messages")),
                 ("adv routing", _mean("avg_advertise_routing")),
                 ("lookup hit", _mean("avg_lookup_messages_on_hit")),
                 ("lookup miss", _mean("avg_lookup_messages_on_miss")),
                 ("hit ratio", _mean("hit_ratio")))),
    "maint": FigureSpec("maintenance degradation, refresh off vs adaptive",
                        ("keys", "epsilon"), render=_maint),
    "quorum": FigureSpec(
        "algebraic quorum systems: optimized strategy vs simulation",
        ("lookups", "reps", "systems", "optimize", "read_fractions",
         "quorum_nodes"), render=_quorum),
    "byz": FigureSpec(
        "byzantine sweep: masking quorums vs undefended RANDOM",
        ("keys", "lookups", "epsilon", "byz_fractions", "byz_b"),
        render=_byz),
    "kv": FigureSpec(
        "replicated kv serving benchmark: leases, latency, staleness",
        ("keys", "epsilon", "reps", "jobs", "kv_backend", "strategies",
         "ttl", "rate", "ops", "read_fraction", "cas_fraction", "zipf",
         "churn_rate", "seed"), render=_kv),
}
