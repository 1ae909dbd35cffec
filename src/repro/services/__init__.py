"""Applications built on probabilistic biquorums: location service,
read/write register, key-value store with timed-quorum leases, and the
refresh daemon."""

from repro.core.leases import ZERO_TS, Timestamp
from repro.services.consistency import (
    KVConsistencyReport,
    KVHistoryChecker,
    KVOpRecord,
    check_kv_batch,
)
from repro.services.kvstore import KVOpResult, QuorumKVStore
from repro.services.location import (
    AdvertiseReceipt,
    LocationService,
    LookupReceipt,
)
from repro.services.maintenance import RefreshDaemon, RefreshStats
from repro.services.register import ProbabilisticRegister, RegisterOpResult

__all__ = [
    "KVConsistencyReport",
    "KVHistoryChecker",
    "KVOpRecord",
    "KVOpResult",
    "QuorumKVStore",
    "check_kv_batch",
    "AdvertiseReceipt",
    "LocationService",
    "LookupReceipt",
    "RefreshDaemon",
    "RefreshStats",
    "ProbabilisticRegister",
    "RegisterOpResult",
    "Timestamp",
    "ZERO_TS",
]
