"""Run configuration: the one reader of the ``REPRO_*`` environment.

:meth:`RunConfig.from_env` is the only code in the package that reads
``os.environ``; nothing writes it.  The CLI overlays its flags on that
config and runs each command inside :func:`run_scope`.  What a run
builds — ``SimNetwork.__init__``, ``run_sweep`` and its pool workers,
the phase profiler — reads :func:`current_run`, which outside any scope
is a fresh ``RunConfig.from_env()``.  Stdlib only: every layer may
import it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

#: One variable per :class:`RunConfig` field; ``repro list`` prints it.
ENV_VARS = {
    "REPRO_TRACE": "stream simulation events as JSONL to this path",
    "REPRO_AUDIT": "accounting audit mode: strict (raise) or record",
    "REPRO_WATCH": "1 attaches every live invariant watcher; a comma "
                   "list (e.g. conservation,slo) selects a subset",
    "REPRO_SLO": "JSON SLO spec file evaluated live by the watchers",
    "REPRO_PROFILE": "1 enables the phase profiler (table on stderr)",
    "REPRO_JOBS": "default parallel sweep workers",
}

#: The ``watch`` value that selects every builtin watcher.
WATCH_ALL = ("all",)


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run (see :data:`ENV_VARS`)."""

    trace: Optional[str] = None   # JSONL path every network streams to
    audit: Optional[str] = None   # "strict" | "record" | None (no audit)
    watch: Tuple[str, ...] = ()   # (), WATCH_ALL, or watcher names / "slo"
    slo: Optional[str] = None     # SLO spec file the live monitor reads
    profile: bool = False         # the phase profiler starts enabled
    jobs: int = 1                 # sweep workers when a caller passes none

    @classmethod
    def from_env(cls) -> "RunConfig":
        """Parse ``REPRO_*``; a bad value raises :class:`ValueError`."""
        env = os.environ
        raw_audit = env.get("REPRO_AUDIT", "")
        audit = raw_audit.strip().lower() or None
        if audit not in (None, "strict", "record"):
            raise ValueError(f"REPRO_AUDIT={raw_audit!r} is not an audit "
                             "mode; valid: strict, record (or unset)")
        try:
            jobs = max(1, int(raw_jobs := env.get("REPRO_JOBS", "1")))
        except ValueError:
            raise ValueError(f"REPRO_JOBS={raw_jobs!r} is not an integer") from None
        spec = env.get("REPRO_WATCH", "").strip()
        watch = (WATCH_ALL if spec in ("1", "true", "all", "builtin") else
                 tuple(x.strip() for x in spec.split(",") if x.strip()))
        return cls(trace=env.get("REPRO_TRACE") or None, audit=audit,
                   watch=watch, slo=env.get("REPRO_SLO", "").strip() or None,
                   profile=env.get("REPRO_PROFILE", "").strip() not in ("", "0"),
                   jobs=jobs)


#: The installed run: its config and its violation ledger.
_installed: Optional[Tuple[RunConfig, List[Any]]] = None


@contextmanager
def run_scope(config: RunConfig) -> Iterator[List[Any]]:
    """Install ``config`` for one command (or one sweep pool task);
    yields its violation ledger."""
    global _installed
    previous = _installed
    _installed = (config, [])
    try:
        yield _installed[1]
    finally:
        _installed = previous


def current_run() -> RunConfig:
    """The installed config, else ``RunConfig.from_env()``."""
    return _installed[0] if _installed is not None else RunConfig.from_env()


def run_ledger() -> Optional[List[Any]]:
    """The installed run's violation ledger (None outside a scope)."""
    return _installed[1] if _installed is not None else None
