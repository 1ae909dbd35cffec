"""Applications built on probabilistic biquorums: location service,
read/write register, key-value store with timed-quorum leases, and the
refresh daemon."""

from repro.services.consistency import (
    CheckedRegister,
    ConsistencyReport,
    KVConsistencyReport,
    KVHistoryChecker,
    KVOpRecord,
    OpRecord,
    check_kv_batch,
)
from repro.services.kvstore import KVOpResult, QuorumKVStore
from repro.services.location import (
    AdvertiseReceipt,
    LocationService,
    LookupReceipt,
    StoredEntry,
)
from repro.services.maintenance import RefreshDaemon, RefreshStats
from repro.services.register import (
    ProbabilisticRegister,
    RegisterOpResult,
    Timestamp,
    ZERO_TS,
)

__all__ = [
    "CheckedRegister",
    "ConsistencyReport",
    "KVConsistencyReport",
    "KVHistoryChecker",
    "KVOpRecord",
    "KVOpResult",
    "OpRecord",
    "QuorumKVStore",
    "check_kv_batch",
    "AdvertiseReceipt",
    "LocationService",
    "LookupReceipt",
    "StoredEntry",
    "RefreshDaemon",
    "RefreshStats",
    "ProbabilisticRegister",
    "RegisterOpResult",
    "Timestamp",
    "ZERO_TS",
]
