"""Run manifests: provenance for every figure run, sweep, and bench.

A :class:`RunManifest` records *which* code, configuration, and seed
produced a result — git revision (+ dirty flag), interpreter and numpy
versions, host/platform, the experiment parameters, the job count,
and the wall time — so a number in ``BENCH_simnet.json`` or a trace on
disk can always be tied back to the exact run that produced it.  The
schema is documented in DESIGN.md (Observability layer).

Producers:

* the CLI writes ``<trace>.manifest.json`` next to every ``--trace``
  output (or wherever ``--manifest PATH`` points);
* :func:`repro.experiments.runner.run_sweep` records one manifest per
  sweep batch (written to ``$REPRO_MANIFEST_DIR`` when set, and always
  kept in ``runner.last_sweep_manifest``);
* the benchmark harness attaches a ``manifest`` block to each run key
  of ``BENCH_simnet.json``.
"""

from __future__ import annotations

import functools
import json
import platform
import socket
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Optional

from repro.obs.trace import TRACE_SCHEMA

#: Bumped when the manifest layout changes incompatibly.
#: History: 1 = PR 4 layout; 2 = adds ``trace_schema``; 3 = drops the
#: two backend fields (the knobs they recorded are gone).
MANIFEST_SCHEMA = 3


@functools.lru_cache(maxsize=1)
def _git_info() -> Dict[str, Any]:
    """``{rev, dirty}`` for the repo containing this package (cached)."""
    root = Path(__file__).resolve()
    for parent in root.parents:
        if (parent / ".git").exists():
            try:
                rev = subprocess.run(
                    ["git", "-C", str(parent), "rev-parse", "HEAD"],
                    capture_output=True, text=True, timeout=10,
                ).stdout.strip()
                status = subprocess.run(
                    ["git", "-C", str(parent), "status", "--porcelain",
                     "--untracked-files=no"],
                    capture_output=True, text=True, timeout=10,
                ).stdout.strip()
                if rev:
                    return {"rev": rev, "dirty": bool(status)}
            except (OSError, subprocess.SubprocessError):
                break
            break
    return {"rev": "unknown", "dirty": None}


def _numpy_version() -> Optional[str]:
    try:
        import numpy
        return numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep today
        return None


@dataclass
class RunManifest:
    """Provenance record for one run (figure, sweep batch, or bench)."""

    command: str                              # "fig8", "sweep", "bench", ...
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    jobs: Optional[int] = None
    trace_path: Optional[str] = None
    git_rev: str = "unknown"
    git_dirty: Optional[bool] = None
    python_version: str = ""
    numpy_version: Optional[str] = None
    platform: str = ""
    host: str = ""
    started_at: str = ""                      # UTC ISO-8601
    wall_time_s: Optional[float] = None
    schema: int = MANIFEST_SCHEMA
    #: Version of the traced event vocabulary the run emitted (see
    #: :data:`repro.obs.trace.TRACE_SCHEMA`); ``obs`` tools compare it
    #: against their own and warn before diagnosing an old trace.
    trace_schema: int = TRACE_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          default=str) + "\n"

    def write(self, path: str) -> str:
        """Write the manifest as JSON; returns the path written."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path


def collect_manifest(
    command: str,
    params: Optional[Dict[str, Any]] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    trace_path: Optional[str] = None,
) -> RunManifest:
    """Snapshot the environment into a :class:`RunManifest`.

    ``wall_time_s`` is left unset; the caller stamps it when the run
    finishes.  Parameters must be JSON-serializable (dataclass configs
    can be passed through :func:`dataclasses.asdict` first).
    """
    git = _git_info()
    return RunManifest(
        command=command,
        params=dict(params or {}),
        seed=seed,
        jobs=jobs,
        trace_path=trace_path,
        git_rev=git["rev"],
        git_dirty=git["dirty"],
        python_version=sys.version.split()[0],
        numpy_version=_numpy_version(),
        platform=platform.platform(),
        host=socket.gethostname(),
        started_at=datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
    )
