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
cannot go stale.  Run this file with ``python tests/test_reachability.py``
to print the census table.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

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
        "empirical validation of Theorems 4.1 and 5.5",
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


def _roots() -> Set[str]:
    roots = set(ENTRY_MODULES)
    for path in sorted(BENCH.glob("*.py")):
        roots.update(imports_of(_tree(path)))
    return roots


def census() -> Set[str]:
    """Every ``repro`` module the entry points reach."""
    reached: Set[str] = set()
    todo = [m for m in _roots() if m in MODULES]
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


if __name__ == "__main__":
    reached = census()
    print(f"{len(MODULES)} modules, {len(reached)} reached")
    for row in table():
        print(" | ".join(row))
