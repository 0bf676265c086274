"""Log analysis utilities: what is in the WAL, and who wrote it.

Operational tooling over the log — record/byte histograms by type, per-
transaction footprints, and an end-to-end summary. Benchmark R9 uses the
byte accounting; the introspection examples print the summaries; tests
use the per-transaction footprint to assert logging behaviour precisely.
"""

from repro.wal.records import RecordType


def records_by_type(log):
    """Record counts per :class:`RecordType` (zero-count types omitted)."""
    counts = {}
    for record in log.records():
        counts[record.type] = counts.get(record.type, 0) + 1
    return counts


def bytes_by_type(log):
    """Bytes per record type: the length of each record's one encoding
    (:meth:`~repro.wal.records.LogRecord.encode`), as summed by
    ``LogManager.bytes_estimate``."""
    sizes = {}
    for record in log.records():
        size = len(record.encode())
        sizes[record.type] = sizes.get(record.type, 0) + size
    return sizes


def txn_footprint(log, txn_id):
    """One transaction's full log footprint.

    Returns a dict with the record count, byte estimate, touched index
    names, and lifecycle flags (committed / aborted / ended).
    """
    count = 0
    size = 0
    indexes = set()
    committed = aborted = ended = False
    for record in log.records():
        if record.txn_id != txn_id:
            continue
        count += 1
        size += len(record.encode())
        index_name = getattr(record, "index_name", None)
        if index_name is not None:
            indexes.add(index_name)
        if record.type is RecordType.COMMIT:
            committed = True
        elif record.type is RecordType.ABORT:
            aborted = True
        elif record.type is RecordType.END:
            ended = True
    return {
        "txn_id": txn_id,
        "records": count,
        "bytes": size,
        "indexes": sorted(indexes),
        "committed": committed,
        "aborted": aborted,
        "ended": ended,
    }


def summarize(log):
    """A one-stop summary for reports and debugging."""
    type_counts = records_by_type(log)
    txn_ids = set()
    for record in log.records():
        if record.txn_id is not None:
            txn_ids.add(record.txn_id)
    return {
        "total_records": len(log),
        "total_bytes": log.bytes_estimate,
        "flushed_lsn": log.flushed_lsn,
        "transactions_seen": len(txn_ids),
        "commits": type_counts.get(RecordType.COMMIT, 0),
        "aborts": type_counts.get(RecordType.ABORT, 0),
        "clrs": type_counts.get(RecordType.CLR, 0),
        "checkpoints": type_counts.get(RecordType.CHECKPOINT, 0),
        "by_type": {t.value: n for t, n in sorted(type_counts.items(), key=lambda i: i[0].value)},
    }


def maintenance_share(log):
    """What fraction of data records (and bytes) are view maintenance?

    Heuristic by index name: records touching an index that is not a base
    table look like maintenance. The caller supplies no schema — the
    split is by record type instead: escrow deltas and counter images are
    always maintenance; inserts/updates/ghosts may be either, so this
    reports them separately.
    """
    maintenance_types = {RecordType.ESCROW_DELTA, RecordType.COUNTER_IMAGE}
    data_types = maintenance_types | {
        RecordType.INSERT,
        RecordType.UPDATE,
        RecordType.DELETE,
        RecordType.GHOST,
        RecordType.REVIVE,
        RecordType.CLEANUP,
    }
    data = 0
    pure_maintenance = 0
    for record in log.records():
        if record.type in data_types:
            data += 1
            if record.type in maintenance_types:
                pure_maintenance += 1
    return {
        "data_records": data,
        "counter_maintenance_records": pure_maintenance,
        "counter_maintenance_fraction": (
            pure_maintenance / data if data else 0.0
        ),
    }
