"""Accounting auditor: the violation ledger behind ``REPRO_AUDIT``.

The paper's evaluation (Sections 3, 8) stands on per-access accounting —
messages, routing overhead, replies.  The check itself streams: the
:class:`~repro.obs.watch.ConservationWatcher` balances what every
``access-end`` event claims against the events traced inside that
access's own span (messages, routing cost, replies, probe hits).  A
network built under ``REPRO_AUDIT`` always runs that watcher and routes
its violations here, as it does every other watcher's and the biquorum
and quorum-load cross-checks'.

Set ``REPRO_AUDIT=strict`` to make every violation raise
:class:`AuditError` (the CI mode); ``REPRO_AUDIT=record`` collects
violations without raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


class AuditError(RuntimeError):
    """A strict-mode accounting violation."""


@dataclass
class AuditViolation:
    """One failed accounting invariant."""

    code: str        # e.g. "conservation-messages"
    message: str     # human-readable description
    strategy: str = "?"
    kind: str = "?"

    def __str__(self) -> str:
        return f"[{self.code}] {self.strategy}/{self.kind}: {self.message}"


class AccountingAuditor:
    """Collects (and in strict mode raises on) accounting violations."""

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.violations: List[AuditViolation] = []

    def flag(self, code: str, message: str, strategy: str = "?",
             kind: str = "?") -> None:
        """Report one violation; raises :class:`AuditError` when strict."""
        violation = AuditViolation(code=code, message=message,
                                   strategy=strategy, kind=kind)
        self.violations.append(violation)
        if self.strict:
            raise AuditError(str(violation))

    @property
    def clean(self) -> bool:
        return not self.violations

    def report(self) -> str:
        if self.clean:
            return "audit clean"
        lines = [f"audit: {len(self.violations)} violations"]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)
