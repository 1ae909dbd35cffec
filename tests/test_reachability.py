"""Reachability census: every module under ``src/repro`` is part of the
system, or is kept for a reason written down here.

The system is what its entry points reach: ``repro.cli``,
``repro.__main__`` and every ``repro`` import in ``bench/*.py``.  The
census is a static scan with :mod:`ast`.  From each reached module it
follows every import, lazy ones inside functions included:

* ``from pkg import Name`` reaches the submodule that defines ``Name``
  (through the package's re-exports), never the whole package;
* ``import repro.pkg as alias`` (or plain ``import repro.pkg``) reaches,
  for each ``alias.Name`` use, the submodule that defines ``Name``;
* a package ``__init__`` is reached when anything under it is, but its
  own re-export lines are not followed, so a re-export alone is not
  reach.

A module outside the reached set must be listed in :data:`KEEP` with a
one-line reason, and no ``KEEP`` entry may be reached, so the list
cannot go stale.  The name and option censuses further down apply the
same rule to every public function, class and method, and to every
defaulted parameter.  Run this file with ``python
tests/test_reachability.py`` to print all three tables.
"""

from __future__ import annotations

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Set, Tuple)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = ROOT / "bench"

ENTRY_MODULES = ("repro.cli", "repro.__main__")

#: Paper content outside the reached set, kept on purpose.
KEEP: Dict[str, str] = {
    "repro.core.gossip":
        "paper §4.4: gossip flooding, the second FLOODING variant",
    "repro.membership.estimation":
        "paper §6.3: network size estimation",
    "repro.analysis.resilience":
        "connectivity theory behind the §6.3 estimator; ROADMAP item 2(a)",
    "repro.analysis.empirical":
        "paper §4, §5: empirical validation of Theorems 4.1 and 5.5",
    "repro.geometry.rgg":
        "paper §2.3: the random geometric graph model that "
        "repro.analysis.empirical validates against",
}


def _module_paths() -> Dict[str, Path]:
    paths = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        paths[".".join(parts)] = path
    return paths


MODULES = _module_paths()
PACKAGES = {name for name, path in MODULES.items()
            if path.name == "__init__.py"}


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _absolute(module: str, node: ast.ImportFrom) -> str:
    """The absolute module a (possibly relative) ``from`` import names."""
    if not node.level:
        return node.module or ""
    base = module if module in PACKAGES else module.rpartition(".")[0]
    for _ in range(node.level - 1):
        base = base.rpartition(".")[0]
    return f"{base}.{node.module}" if node.module else base


@lru_cache(maxsize=None)
def _exports(package: str) -> Dict[str, Tuple[str, str]]:
    """Re-exported name -> (source module, source name) of a package."""
    exports = {}
    for node in _tree(MODULES[package]).body:
        if isinstance(node, ast.ImportFrom):
            source = _absolute(package, node)
            for alias in node.names:
                exports[alias.asname or alias.name] = (source, alias.name)
    return exports


def resolve(module: str, name: str) -> str:
    """The module that ``from module import name`` reaches."""
    sub = f"{module}.{name}"
    if sub in MODULES:
        return sub
    if module in PACKAGES and name in _exports(module):
        return resolve(*_exports(module)[name])
    return module


def _chain(node: ast.Attribute) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None unless it ends in a Name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def imports_of(tree: ast.Module, module: str = "") -> Iterator[str]:
    """Every ``repro`` module an AST imports, resolved as described above."""
    bound: Dict[str, str] = {}  # local name -> package it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            for alias in node.names:
                target = resolve(source, alias.name)
                yield target
                if target in PACKAGES:
                    bound[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = head
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        parts = _chain(node)
        if not parts or parts[0] not in bound:
            continue
        target = bound[parts[0]]
        for attr in parts[1:]:
            if target not in PACKAGES:
                break
            target = resolve(target, attr)
        yield target


def _roots(*files: Path) -> FrozenSet[str]:
    roots = set(ENTRY_MODULES)
    for path in [*sorted(BENCH.glob("*.py")), *files]:
        roots.update(imports_of(_tree(path)))
    return frozenset(roots)


@lru_cache(maxsize=None)
def census(roots: Optional[FrozenSet[str]] = None) -> Set[str]:
    """Every ``repro`` module the entry points (``roots``: the imports of
    ``repro.cli``, ``repro.__main__`` and ``bench/``) reach."""
    reached: Set[str] = set()
    todo = [m for m in (roots or _roots()) if m in MODULES]
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        parent = module.rpartition(".")[0]
        if parent:
            todo.append(parent)
        if module in PACKAGES:
            continue  # re-exports alone are not reach
        todo.extend(m for m in imports_of(_tree(MODULES[module]), module)
                    if m in MODULES)
    return reached


def table() -> List[Tuple[str, str, str]]:
    """(module, verdict, reason) for every module outside the system."""
    reached = census()
    return [(m, "keep", KEEP[m]) if m in KEEP else (m, "UNREACHED", "")
            for m in sorted(MODULES) if m not in reached]


def test_every_module_is_reached_or_kept():
    unreached = [m for m, verdict, _ in table() if verdict == "UNREACHED"]
    assert not unreached, (
        "modules no entry point reaches; delete them, or list them in "
        f"KEEP with a reason: {unreached}")


def test_no_keep_entry_is_reached():
    stale = sorted(set(KEEP) & census())
    assert not stale, f"KEEP entries the system now reaches: {stale}"


def test_keep_entries_name_modules():
    assert set(KEEP) <= set(MODULES)


def test_reexport_resolves_to_the_defining_module():
    assert resolve("repro.core", "GossipFloodStrategy") == "repro.core.gossip"
    assert resolve("repro", "GossipFloodStrategy") == "repro.core.gossip"
    assert resolve("repro.experiments", "workload") == (
        "repro.experiments.workload")
    assert resolve("repro.core.strategies", "RandomStrategy") == (
        "repro.core.strategies")


def test_package_alias_uses_resolve_per_name():
    tree = ast.parse("import repro.experiments as ex\n"
                     "ex.generate_operations\n")
    assert set(imports_of(tree)) == {"repro.experiments",
                                     "repro.experiments.workload"}


# -- name and option census -------------------------------------------------
#
# The module census cannot see a dead method or a never-set option inside
# a module it reaches.  These two scans can.
#
# *Names.*  A public function, class or method under ``src/repro`` is
# reached when an entry file (``bench/``, ``examples/``, ``benchmarks/``)
# or a module they or the CLI reach refers to it outside its own
# definition, by a ``Name``, an ``Attribute`` (so an override is
# reached wherever its method name is used) or a string constant equal to
# it (``getattr`` dispatch, names bound by string in ``bench/``).  An
# ``__all__`` list is a re-export and does not count.
#
# *Options.*  A parameter with a default, on a public function or method
# that is reached or kept, is exercised when a call outside ``tests/``
# passes it: by keyword, by ``**kwargs``, or positionally at or past its
# index.  The callee is resolved by name only, and a class name (or a
# subclass's name, or ``super().__init__`` in a subclass) calls
# ``__init__``.  A name collision counts as exercised.  For a kept name,
# whose reason to exist is that tests pin it, calls in ``tests/`` count as
# well.
#
# Unreached names and unexercised options must be listed in
# :data:`KEEP_NAMES` / :data:`KEEP_OPTIONS` with a reason that cites a
# paper section or a ROADMAP item, and no entry may be reached.

#: Directories outside ``src/`` whose files are entry points.
ENTRY_DIRS = ("bench", "examples", "benchmarks")

#: Everything under this prefix is the paper's closed-form theory; an
#: unreached name there is kept when a test pins it, and its parameters
#: are the paper's.
ANALYSIS = "repro.analysis."

#: Paper content no entry point reaches.  An entry for a class covers its
#: methods.
KEEP_NAMES: Dict[str, str] = {
    "repro.core.strategies.RandomSamplingStrategy":
        "paper §4.1: sampling-based RANDOM (random walks, no membership "
        "service); no figure runs it (ROADMAP item 12)",
    "repro.experiments.workload.TauEstimator":
        "paper §5.4: the sliding-window tau estimator behind Lemma 5.6's "
        "asymmetric sizing; ROADMAP 5(d) decides whether it stays",
    "repro.geometry.rgg.connected_components":
        "paper §2.3: an RGG measurement the model section states",
    "repro.geometry.rgg.diameter":
        "paper §2.3: the hop diameter that theoretical_diameter_hops "
        "estimates",
    "repro.geometry.rgg.shortest_path":
        "paper §2.3: hop paths of the RGG model, held to bfs_distances",
    "repro.geometry.rgg.theoretical_diameter_hops":
        "paper §2.3: the Theta(1/r) hop diameter of the scaled RGG",
    "repro.geometry.space.critical_range_for_connectivity":
        "paper §6.1: the Gupta-Kumar connectivity radius the failure "
        "analysis assumes (docs/THEORY.md)",
    "repro.membership.estimation.NetworkSizeEstimator":
        "paper §6.3: random-walk network size estimation",
    "repro.membership.estimation.SizeEstimate":
        "paper §6.3: the estimator's result",
    "repro.phy.pathloss.InversePowerLaw":
        "paper §2.3: the 1/d^alpha path loss of the physical (SINR) model "
        "the analysis states; the §8 simulations use TwoRayGround",
    "repro.simnet.churn.ChurnProcess":
        "paper §6: continuous Poisson failure/join churn, the process "
        "analysis.degradation models; campaigns inject churn as waves "
        "instead (ROADMAP 9(f))",
}

#: ``module.qualname(option)`` -> reason.
KEEP_OPTIONS: Dict[str, str] = {
    **{f"repro.core.biquorum.ProbabilisticBiquorum.__init__({o})":
       "paper §5.4, Lemma 5.6: |Ql|/|Qa| = (1/tau) Cost_a/Cost_l; "
       "ROADMAP 5(a) wires it into the kv service"
       for o in ("tau", "cost_a", "cost_l")},
    "repro.core.biquorum.ProbabilisticBiquorum.set_sizes(advertise_size)":
        "ROADMAP 5(a): the kv service re-plans both sides through set_sizes",
    "repro.core.strategies.RandomStrategy.__init__(serial_lookup)":
        "paper §4.1: the serial, early-halting RANDOM lookup; no figure "
        "runs it (ROADMAP item 12)",
    "repro.core.strategies.RandomStrategy.__init__(adaptation_retries)":
        "paper §6.2: RANDOM replaces an unreachable member with a fresh "
        "draw, within this budget",
    "repro.core.strategies.FloodingStrategy.__init__(expanding_ring)":
        "paper §4.4: expanding-ring FLOODING; no figure runs it (ROADMAP "
        "item 12)",
    "repro.experiments.fig_quorum.quorum_load_point(faulty)":
        "ROADMAP 2(d): an all-faulted system gives a NaN row, not a crash",
    "repro.experiments.figures.run_figure(seed)":
        "ROADMAP 12(a): the paper-scale claims run each point across seeds",
    "repro.geometry.rgg.rgg_for_density(torus)":
        "paper §2.3: the analysis uses the torus, the simulations the plane",
    "repro.geometry.rgg.is_connected(ignore)":
        "paper §6.1: connectivity of the survivors after failures",
    "repro.membership.service.FullMembership.__init__(refresh_interval)":
        "paper §4.1: RANDOM's membership service refreshes its views "
        "periodically",
    "repro.membership.service.RandomMembership.__init__(refresh_interval)":
        "paper §4.1: RANDOM's membership service refreshes its views "
        "periodically",
    "repro.membership.service.FullMembership.view(node_id)":
        "paper §4.1: a node's membership view; the full service answers "
        "every node alike, so both services share one signature",
    "repro.phy.channel.ProtocolChannel.__init__(delta)":
        "paper §2.3: the protocol model's guard-zone factor Delta",
    "repro.quorum.algebra.QuorumSystem.__init__(writes)":
        "ROADMAP 9(c): quoracle's read/write QuorumSystem API (SNIPPETS.md)",
    "repro.randomwalk.walker.max_degree_walk_sample(max_degree)":
        "paper §6.3: a RaWMS max-degree walk takes the degree bound d_max",
    **{f"repro.services.kvstore.QuorumKVStore.__init__({o})":
       "ROADMAP 2(a): lease expiry (analysis.leases) derives the TTL from "
       "a churn rate, clamped to [min_ttl, max_ttl]"
       for o in ("churn_rate", "min_ttl", "max_ttl")},
    "repro.services.location.LocationService.__init__(cache_capacity)":
        "paper §7.1: owner/bystander caching, bounded per node",
    **{f"repro.services.maintenance.RefreshDaemon.__init__({o})":
       "paper §6.1: the refresh interval derived from a churn rate, "
       "clamped to [min_interval, max_interval]"
       for o in ("churn_fraction_per_second", "min_interval",
                 "max_interval")},
    "repro.simnet.churn.apply_churn(protected)":
        "paper §6.1: the maintenance experiments fail nodes other than "
        "the data owner",
    "repro.simnet.network.SimNetwork.join_node(position)":
        "ROADMAP 10: a waypoint deployment takes no positions, so the "
        "mobile range-predicate test places its joiners at the radius",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
#: Nodes with nothing below them that the census reads.
_LEAVES = (ast.Load, ast.Store, ast.Del, ast.alias)


def definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST,
                                                    Optional[ast.ClassDef]]]:
    """(qualname, node, owning class) of each top-level function and
    class, and of each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, _DEFS[:2]):
                    yield f"{node.name}.{sub.name}", sub, node


def _public(qualname: str) -> bool:
    return not any(part.startswith("_") for part in qualname.split("."))


def _identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()):
        return node.value
    return None


def _children(node: ast.AST) -> Iterator[ast.AST]:
    """:func:`ast.iter_child_nodes`, inlined: the census walks every
    node of every file, so the generator's overhead shows."""
    for name in node._fields:
        value = getattr(node, name, None)
        if isinstance(value, list):
            for item in value:
                if isinstance(item, ast.AST):
                    yield item
        elif isinstance(value, ast.AST):
            yield value


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


class Scan:
    """What a set of files refers to and calls, from one pass over each.

    References: how many there are per identifier, and how many sit
    inside the definition (same module, same qualname) they name.  Calls:
    keyed by the name they resolve to, ``f(...)`` and ``x.f(...)`` to
    ``f``, ``partial(f, ...)`` to ``f``, ``cls(...)`` in class ``C`` to
    ``C`` and ``super().__init__(...)`` in class ``C`` to ``super:C``.
    """

    def __init__(self) -> None:
        self.total: Counter = Counter()
        self.inside: Counter = Counter()
        # key -> (positional count, first starred index, keywords, **kw)
        self.calls: Dict[str, List[Tuple[int, Optional[int], Set[str],
                                         bool]]] = {}

    def add(self, module: str, tree: ast.Module) -> "Scan":
        self._scan(tree, module, (), "", "")
        return self

    def update(self, other: "Scan") -> "Scan":
        self.total.update(other.total)
        self.inside.update(other.inside)
        for key, calls in other.calls.items():
            self.calls.setdefault(key, []).extend(calls)
        return self

    def _scan(self, node: ast.AST, module: str, enclosing: Tuple[str, ...],
              prefix: Optional[str], owner: str) -> None:
        for child in _children(node):
            kind = type(child)
            if kind is ast.Name or kind is ast.Constant:
                ident = _identifier(child)
                if ident is not None:
                    self._count(ident, module, enclosing)
                continue  # leaves: nothing below but a context
            if kind in _LEAVES or _is_all(child):
                continue
            inner, child_prefix, child_owner = enclosing, None, owner
            if prefix is not None and kind in _DEFS:
                qualname = prefix + child.name
                inner = enclosing + (qualname,)
                if kind is ast.ClassDef and not prefix:
                    child_prefix = qualname + "."
                    child_owner = child.name
            elif kind is ast.Attribute:
                self._count(child.attr, module, enclosing)
            elif kind is ast.Call:
                self._record(child, owner)
            self._scan(child, module, inner, child_prefix, child_owner)

    def _count(self, ident: str, module: str,
               enclosing: Tuple[str, ...]) -> None:
        self.total[ident] += 1
        for qualname in enclosing:
            if qualname.rpartition(".")[2] == ident:
                self.inside[module, qualname] += 1

    def _record(self, call: ast.Call, owner: str) -> None:
        func, args = call.func, list(call.args)
        if isinstance(func, ast.Name) and func.id == "partial" and args:
            func = args.pop(0)
        key = _identifier(func) if not isinstance(func, ast.Constant) else None
        if key == "cls" and owner:
            key = owner
        elif key == "__init__":
            key = f"super:{owner}"
        if key is None:
            return
        starred = next((i for i, a in enumerate(args)
                        if isinstance(a, ast.Starred)), None)
        self.calls.setdefault(key, []).append((
            len(args), starred, {k.arg for k in call.keywords if k.arg},
            any(k.arg is None for k in call.keywords)))

    def reaches(self, module: str, qualname: str) -> bool:
        short = qualname.rpartition(".")[2]
        return self.total[short] > self.inside[module, qualname]

    def passes(self, keys: Iterable[str], option: str,
               index: Optional[int]) -> bool:
        """Whether a call to one of ``keys`` passes ``option`` (positional
        ``index``, None for keyword-only)."""
        for key in keys:
            for npos, starred, keywords, spread in self.calls.get(key, ()):
                if option in keywords or spread:
                    return True
                if index is not None and (
                        npos > index
                        or (starred is not None and starred <= index)):
                    return True
        return False


@lru_cache(maxsize=None)
def _file_scan(path: Path, module: str) -> Scan:
    return Scan().add(module, _tree(path))


def options(node: ast.AST, owner: Optional[ast.ClassDef]
            ) -> Iterator[Tuple[str, Optional[int]]]:
    """(name, call-site positional index or None) of each defaulted
    parameter; a method's index does not count ``self``."""
    a = node.args
    positional = a.posonlyargs + a.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in node.decorator_list)
    shift = 1 if owner is not None and not static else 0
    first = len(positional) - len(a.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - shift
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _subclasses(trees: Iterable[ast.Module]) -> Dict[str, Set[str]]:
    """Class name -> it and every class (by name) that derives from it."""
    bases: Dict[str, Set[str]] = {}
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    b for b in map(_identifier, node.bases) if b)
    derived = {name: {name} for name in bases}
    changed = True
    while changed:
        changed = False
        for name, own in bases.items():
            for base in own:
                for family in derived.values():
                    if base in family and name not in family:
                        family.add(name)
                        changed = True
    return derived


def _files(*dirs: str) -> List[Path]:
    return [p for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _source_modules() -> List[Tuple[str, ast.Module]]:
    return [(m, _tree(p)) for m, p in sorted(MODULES.items())
            if m not in PACKAGES]


def _kept(key: str) -> Optional[str]:
    """The KEEP_NAMES entry covering ``module.qualname``, if any."""
    module_qual = key
    while module_qual:
        if module_qual in KEEP_NAMES:
            return module_qual
        module_qual = module_qual.rpartition(".")[0]
    return None


def _merged(paths: Iterable[Tuple[Path, str]]) -> Scan:
    merged = Scan()
    for path, module in paths:
        merged.update(_file_scan(path, module))
    return merged


@lru_cache(maxsize=None)
def _scans() -> Tuple[Scan, Scan, Scan]:
    """References from the system, calls from outside ``tests/`` and
    both from ``tests/``."""
    entries = [(p, str(p)) for p in _files(*ENTRY_DIRS)]
    reached = census(_roots(*_files(*ENTRY_DIRS[1:])))
    system = _merged([(MODULES[m], m) for m in sorted(reached)] + entries)
    callers = _merged([(p, m) for m, p in sorted(MODULES.items())] + entries)
    tests = _merged((p, str(p)) for p in _files("tests"))
    return system, callers, tests


@lru_cache(maxsize=None)
def _names() -> Dict[str, bool]:
    """``module.qualname`` -> reached, for every public name."""
    system = _scans()[0]
    return {f"{module}.{qualname}": system.reaches(module, qualname)
            for module, tree in _source_modules()
            for qualname, _, _ in definitions(tree) if _public(qualname)}


def name_table() -> List[Tuple[str, str, str]]:
    """(name, verdict, reason) for every public name no entry point
    reaches."""
    tests = _scans()[2]
    rows = []
    for key, reached in sorted(_names().items()):
        if reached:
            continue
        kept = _kept(key)
        if kept:
            rows.append((key, "keep", KEEP_NAMES[kept]))
        elif key.startswith(ANALYSIS) and tests.total[
                key.rpartition(".")[2]]:
            rows.append((key, "keep", "paper closed form pinned by tests"))
        else:
            rows.append((key, "UNREACHED", ""))
    return rows


@lru_cache(maxsize=None)
def option_table() -> List[Tuple[str, str, str]]:
    """(``module.qualname(option)``, verdict, reason) for every
    unexercised option of a reached or kept public callable."""
    names = _names()
    _, calls, tests = _scans()
    modules = _source_modules()
    family = _subclasses(tree for _, tree in modules)
    rows = []
    for module, tree in modules:
        if module.startswith(ANALYSIS):
            continue
        for qualname, node, owner in definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            head, _, last = qualname.rpartition(".")
            if not _public(head) or not (_public(last) or last == "__init__"):
                continue
            key = f"{module}.{qualname}"
            kept = _kept(key)
            if not kept and not names.get(key, names.get(f"{module}.{head}")):
                continue
            if last == "__init__":
                keys = {k for cls in family.get(head, {head})
                        for k in (cls, f"super:{cls}")}
            else:
                keys = {last}
            for option, index in options(node, owner):
                if calls.passes(keys, option, index) or (
                        kept and tests.passes(keys, option, index)):
                    continue
                entry = f"{key}({option})"
                rows.append((entry, "keep", KEEP_OPTIONS[entry])
                            if entry in KEEP_OPTIONS
                            else (entry, "UNEXERCISED", ""))
    return rows


def _cites(reason: str) -> bool:
    return "§" in reason or "ROADMAP" in reason


def test_every_public_name_is_reached_or_kept():
    unreached = [k for k, verdict, _ in name_table()
                 if verdict == "UNREACHED"]
    assert not unreached, (
        "public names only tests (or nothing) reach; delete them, or list "
        f"them in KEEP_NAMES with a reason: {unreached}")


def test_every_option_is_exercised_or_kept():
    dead = [k for k, verdict, _ in option_table() if verdict != "keep"]
    assert not dead, (
        "options no call outside tests/ passes; make them constants, or "
        f"list them in KEEP_OPTIONS with a reason: {dead}")


def stale_keeps(keep: Dict[str, str], names: Dict[str, bool]) -> List[str]:
    """KEEP entries that name nothing, or that the system reaches."""
    return sorted(k for k in keep if names.get(k, True))


def test_no_keep_name_or_option_is_reached():
    stale = stale_keeps(KEEP_NAMES, _names())
    assert not stale, f"KEEP_NAMES entries gone or now reached: {stale}"
    listed = {k for k, _, _ in option_table()}
    stale = sorted(set(KEEP_OPTIONS) - listed)
    assert not stale, f"KEEP_OPTIONS entries now exercised or gone: {stale}"


def test_every_keep_reason_cites_the_paper_or_the_roadmap():
    for table in (KEEP, KEEP_NAMES, KEEP_OPTIONS):
        uncited = [k for k, reason in table.items() if not _cites(reason)]
        assert not uncited, uncited


# -- the census's own rules, on in-memory fixtures --------------------------


def _fixture(**modules: str) -> Scan:
    scan = Scan()
    for module, source in modules.items():
        scan.add(module, ast.parse(source))
    return scan


def test_a_string_constant_reaches_a_name():
    assert _fixture(user='getattr(obj, "helper")\n').reaches("lib", "helper")
    assert not _fixture(user='"a helper"\n').reaches("lib", "helper")


def test_a_package_reexport_does_not_reach():
    scan = _fixture(pkg='from .lib import helper\n__all__ = ["helper"]\n')
    assert not scan.reaches("lib", "helper")


def test_a_reference_inside_its_own_body_does_not_reach():
    lib = ("def helper():\n    return helper()\n"
           "class C:\n    def m(self):\n        return self.m()\n")
    assert not _fixture(lib=lib).reaches("lib", "helper")
    assert not _fixture(lib=lib).reaches("lib", "C.m")
    assert _fixture(lib=lib, user="helper()\n").reaches("lib", "helper")
    assert _fixture(lib=lib, user="obj.m()\n").reaches("lib", "C.m")


def test_a_positional_pass_exercises_options_at_or_before_it():
    lib = ast.parse("def f(a, b=1, c=2): pass\n"
                    "class C:\n    def m(self, x=1, y=2): pass\n")
    found = {q: dict(options(node, owner))
             for q, node, owner in definitions(lib) if q != "C"}
    assert found == {"f": {"b": 1, "c": 2}, "C.m": {"x": 0, "y": 1}}
    calls = _fixture(user="f(0, 5)\nobj.m(3)\n")
    assert calls.passes({"f"}, "b", 1)
    assert not calls.passes({"f"}, "c", 2)
    assert calls.passes({"m"}, "x", 0)
    assert not calls.passes({"m"}, "y", 1)
    assert _fixture(user="f(0, c=3)\n").passes({"f"}, "c", 2)


def test_a_reached_keep_entry_fails():
    names = {"lib.helper": True, "lib.kept": False}
    assert stale_keeps({"lib.kept": "§1"}, names) == []
    assert stale_keeps({"lib.helper": "§1"}, names) == ["lib.helper"]
    assert stale_keeps({"lib.gone": "§1"}, names) == ["lib.gone"]


if __name__ == "__main__":
    reached = census()
    print(f"{len(MODULES)} modules, {len(reached)} reached")
    for row in table() + name_table() + option_table():
        print(" | ".join(row))
