"""The kv history checker (the serving-workload correctness oracle).

:class:`KVHistoryChecker` records every ``put``/``get``/``cas`` of the
replicated key-value service (:mod:`repro.services.kvstore`) and
verifies reads against the per-key sequential spec; :func:`check_kv_batch`
checks the batch kernel's whole history at once.  Two failure classes
are kept strictly apart:

* **stale reads / stale cas** — a quorum pair that missed its
  intersection returns an out-of-date (but once-committed) version.
  Probabilistically *expected* at rate ~epsilon; counted and compared
  against the analytic prediction, never treated as a violation.
* **violations** — events the spec makes impossible regardless of
  quorum luck: a read returning a version never committed for its key
  (``fabricated-read``), or newer than the latest commit preceding it
  (``future-read``), or whose lease had already expired at read start
  (``expired-read``); two commits claiming the same per-key version
  (``duplicate-version``); a cas reporting success without storing
  anywhere (``cas-lost``).  Any of these means a bug, so the fault-
  campaign and workload gates can require **zero** without flaking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: The hard violation classes (see the module docstring).
KV_VIOLATION_KINDS = (
    "duplicate-version",
    "fabricated-read",
    "future-read",
    "expired-read",
    "cas-lost",
)

#: Violation examples retained per report (the counts are complete).
_MAX_EXAMPLES = 8


@dataclass
class KVOpRecord:
    """One completed kv operation, as the checker saw it."""

    index: int
    kind: str                    # "put" | "get" | "cas"
    key: Any
    origin: int
    started_at: float
    value: Any = None
    version: Any = None          # Timestamp of the written/returned entry
    ok: bool = False             # put committed / get found / cas succeeded
    expected_version: Any = None  # cas: version the success was based on
    committed: bool = True       # put/cas: stored at >= 1 replica
    expires_at: Optional[float] = None  # get: lease expiry of the reply


@dataclass
class KVConsistencyReport:
    """Verdict over a recorded kv history: counts, staleness, violations."""

    ops: int = 0
    reads: int = 0
    writes: int = 0
    cas_attempts: int = 0
    cas_successes: int = 0
    stale_reads: int = 0         # expected at ~epsilon; not violations
    stale_cas: int = 0           # cas that succeeded off a stale view
    missed_reads: int = 0        # found nothing though the key had data
    violations: Dict[str, int] = field(default_factory=dict)
    examples: List[str] = field(default_factory=list)
    _found_reads: int = 0        # reads that returned a value

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    @property
    def clean(self) -> bool:
        return self.total_violations == 0

    @property
    def stale_fraction(self) -> float:
        """Stale reads per read; NaN with no reads (an empty history
        carries no evidence either way, which 0.0 would misreport as
        "perfectly consistent")."""
        if self.reads == 0:
            return math.nan
        return self.stale_reads / self.reads

    @property
    def availability(self) -> float:
        """Fraction of reads-of-written-keys that returned a value."""
        eligible = self.reads - self._absent_reads()
        if eligible <= 0:
            return math.nan
        return 1.0 - self.missed_reads / eligible

    def _absent_reads(self) -> int:
        # Reads of never-written keys are neither hits nor misses; the
        # recorders only bump missed_reads for keys with committed data,
        # so reads - (hits + missed) is the absent-read count.  Kept as
        # a method so array- and record-built reports agree.
        return max(0, self.reads - self.missed_reads
                   - self._found_reads)

    def lines(self) -> List[str]:
        out = [
            f"kv history: ops={self.ops} reads={self.reads} "
            f"writes={self.writes} cas={self.cas_successes}/"
            f"{self.cas_attempts}",
            f"staleness: stale_reads={self.stale_reads} "
            f"stale_cas={self.stale_cas} missed={self.missed_reads}",
            f"violations: {self.total_violations}"
            + ("" if self.clean else " " + str(dict(self.violations))),
        ]
        out.extend(f"  {example}" for example in self.examples)
        return out


class KVHistoryChecker:
    """Records every kv op and verifies the per-key sequential spec.

    Wired into :class:`~repro.services.kvstore.QuorumKVStore` (pass one
    as ``checker=``); every workload run then doubles as a correctness
    oracle.  The history is sequential (this simulator executes one op
    at a time), so "latest committed at op start" is simply the latest
    version recorded before the current call.
    """

    def __init__(self) -> None:
        self.history: List[KVOpRecord] = []
        self._ops = 0
        # key -> {version: value} of committed writes, and the latest.
        self._committed: Dict[Any, Dict[Any, Any]] = {}
        self._latest: Dict[Any, Any] = {}
        self.report_state = KVConsistencyReport()

    # -- recording ---------------------------------------------------------

    def _record(self, record: KVOpRecord) -> None:
        self._ops += 1
        self.report_state.ops = self._ops
        self.history.append(record)

    def _violate(self, kind: str, record: KVOpRecord, detail: str) -> None:
        report = self.report_state
        report.violations[kind] = report.violations.get(kind, 0) + 1
        if len(report.examples) < _MAX_EXAMPLES:
            report.examples.append(
                f"{kind}: op #{record.index} {record.kind} "
                f"key={record.key!r} {detail}")

    def _commit(self, record: KVOpRecord) -> None:
        """Register a committed write; flags ``duplicate-version``."""
        versions = self._committed.setdefault(record.key, {})
        if record.version in versions:
            self._violate("duplicate-version", record,
                          f"version {record.version} committed twice")
        versions[record.version] = record.value
        latest = self._latest.get(record.key)
        if latest is None or latest < record.version:
            self._latest[record.key] = record.version

    def record_put(self, key: Any, origin: int, version: Any, value: Any,
                   started_at: float, committed: bool = True) -> None:
        record = KVOpRecord(
            index=self._ops, kind="put", key=key, origin=origin,
            started_at=started_at, value=value, version=version,
            ok=committed, committed=committed)
        self.report_state.writes += 1
        if committed:
            self._commit(record)
        self._record(record)

    def record_get(self, key: Any, origin: int, found: bool, value: Any,
                   version: Any, started_at: float,
                   expires_at: Optional[float] = None) -> None:
        record = KVOpRecord(
            index=self._ops, kind="get", key=key, origin=origin,
            started_at=started_at, value=value, version=version, ok=found,
            expires_at=expires_at)
        report = self.report_state
        report.reads += 1
        latest = self._latest.get(key)
        if found:
            report._found_reads += 1
            versions = self._committed.get(key, {})
            if version not in versions:
                self._violate("fabricated-read", record,
                              f"version {version} never committed")
            elif versions[version] != value:
                self._violate(
                    "fabricated-read", record,
                    f"version {version} holds {versions[version]!r}, "
                    f"read returned {value!r}")
            elif latest is not None and latest < version:
                self._violate("future-read", record,
                              f"version {version} newer than latest "
                              f"committed {latest}")
            elif latest is not None and version < latest:
                report.stale_reads += 1
            if expires_at is not None and expires_at <= started_at:
                self._violate(
                    "expired-read", record,
                    f"lease expired at {expires_at:.6g} but read started "
                    f"at {started_at:.6g}")
        elif latest is not None:
            report.missed_reads += 1
        self._record(record)

    def record_cas(self, key: Any, origin: int, success: bool,
                   version: Any, value: Any, expected_version: Any,
                   started_at: float, committed: bool = True) -> None:
        """``expected_version`` is the version the cas compared against
        (what its query phase returned); success off a view older than
        the latest commit is a *stale* cas, not a violation."""
        record = KVOpRecord(
            index=self._ops, kind="cas", key=key, origin=origin,
            started_at=started_at, value=value, version=version,
            ok=success, expected_version=expected_version,
            committed=committed)
        report = self.report_state
        report.cas_attempts += 1
        if success:
            report.cas_successes += 1
            if not committed:
                self._violate("cas-lost", record,
                              "success reported but stored nowhere")
            else:
                latest = self._latest.get(key)
                if latest is not None and (expected_version is None
                                           or expected_version < latest):
                    report.stale_cas += 1
                self._commit(record)
        self._record(record)

    # -- reporting ---------------------------------------------------------

    def latest_committed(self, key: Any) -> Any:
        """The newest committed version for ``key`` (None if none)."""
        return self._latest.get(key)

    def report(self) -> KVConsistencyReport:
        return self.report_state


def check_kv_batch(
    read_time: Any,
    read_version: Any,
    read_latest: Any,
    read_expiry: Any,
    *,
    writes: int = 0,
    cas_attempts: int = 0,
    cas_successes: int = 0,
) -> KVConsistencyReport:
    """Vectorized spec check over a batched workload's read arrays.

    Array-per-field mirror of :class:`KVHistoryChecker` for the
    million-op kernel (:mod:`repro.experiments.workload`): ``read_version``
    holds the per-key version *counter* each read returned (``-1`` =
    found nothing), ``read_latest`` the latest committed counter at the
    read's start (``-1`` = key never written), ``read_expiry`` the lease
    expiry of the returned entry (``+inf`` when absent).  Counters come
    from the kernel's committed-write ledger, so a returned counter
    above the latest is ``future-read`` and any committed-but-older
    counter is a stale read.

    The write side needs no check: in the kernel a cas commits only when
    its view saw the key's latest version, and every commit takes
    ``latest + 1``, per key in time order.  So stale cas, duplicate
    versions and lost cas are zero by construction.
    """
    import numpy as np

    read_time = np.asarray(read_time, dtype=np.float64)
    read_version = np.asarray(read_version, dtype=np.int64)
    read_latest = np.asarray(read_latest, dtype=np.int64)
    read_expiry = np.asarray(read_expiry, dtype=np.float64)
    found = read_version >= 0
    has_data = read_latest >= 0
    fabricated = int(np.count_nonzero(found & ~has_data))
    future = int(np.count_nonzero(found & has_data
                                  & (read_version > read_latest)))
    expired = int(np.count_nonzero(found & (read_expiry <= read_time)))
    stale = int(np.count_nonzero(found & has_data
                                 & (read_version < read_latest)))
    missed = int(np.count_nonzero(~found & has_data))
    report = KVConsistencyReport(
        ops=int(read_version.size) + writes + cas_attempts,
        reads=int(read_version.size),
        writes=writes,
        cas_attempts=cas_attempts,
        cas_successes=cas_successes,
        stale_reads=stale,
        missed_reads=missed,
    )
    report._found_reads = int(np.count_nonzero(found))
    for kind, count in (("fabricated-read", fabricated),
                        ("future-read", future),
                        ("expired-read", expired)):
        if count:
            report.violations[kind] = count
            if len(report.examples) < _MAX_EXAMPLES:
                report.examples.append(f"{kind}: {count} batch read(s)")
    return report
