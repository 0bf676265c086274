"""The log manager.

Assigns LSNs, maintains each transaction's backchain (``prev_lsn``),
tracks the flushed prefix, and simulates crashes by discarding the
unflushed suffix. The log lives in memory as record objects; its durable
form is the segment chain of :mod:`repro.wal.segments`.

Flushing policy: :meth:`LogManager.flush` advances ``flushed_lsn`` to the
log tail. Without group commit the engine forces a flush inside every
commit (WAL commit rule); with group commit on, the
:class:`~repro.wal.group_commit.GroupCommitCoordinator` batches many
commits behind one flush and observes durability progress through the
``flush_listener`` hook. A simulated crash (:meth:`LogManager.crash`)
truncates everything beyond the flushed prefix — exactly what a real
power failure does to an OS page cache.
"""

import json

from repro.common import FaultInjected, WalError
from repro.faults import NULL_INJECTOR
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.wal.records import CheckpointRecord


class LogManager:
    """Append-only log with per-transaction backchains."""

    def __init__(self, tracer=NULL_TRACER, faults=None, checksums=True):
        self._records = []
        self._next_lsn = 1
        self._txn_last_lsn = {}
        self._txn_bytes = {}  # txn_id -> estimated bytes appended
        self.flushed_lsn = 0
        self.flush_count = 0
        self.flush_records = Histogram()  # records made durable per flush
        self.bytes_estimate = 0
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: stamp a CRC on every record as it becomes durable, so the
        #: salvage scan (repro.wal.recovery.salvage) can detect a
        #: corrupted durable stream. EngineConfig(wal_checksums=False)
        #: turns this off — the negative control for salvage honesty.
        self.checksums = checksums
        #: record lines a segment-chain load could not trust (a torn or
        #: lost segment); reported by the salvage pass, never silently
        #: dropped.
        self.undecodable_tail = 0
        #: called with the new ``flushed_lsn`` after every advance; the
        #: group-commit coordinator hangs off this to settle tickets even
        #: when the flush was triggered elsewhere (checkpoint, dump).
        self.flush_listener = None
        #: called with every record the moment it enters the append
        #: stream (LSN assigned, backchain linked) — the page mirror
        #: (repro.storage.bufferpool.PageManager) replays data records
        #: through this so page images track the log exactly.
        self.append_listener = None

    def __len__(self):
        return len(self._records)

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def append(self, record):
        """Assign an LSN, link the backchain, and append ``record``."""
        if record.lsn is not None:
            raise WalError(f"record already has LSN {record.lsn}")
        fail_after_append = False
        if self.faults.active and record.is_undoable():
            # Fault sites gate on undoable (data) records only: protocol
            # records (BEGIN/COMMIT/ABORT/END/CLR) must never fail here,
            # or abort itself could not be made to succeed.
            record_name = type(record).__name__
            if self.faults.fires(
                "wal.append.lost", txn_id=record.txn_id, detail=record_name
            ) is not None:
                # Unsound by design: the mutation happened (or will), the
                # evidence is gone. Exists so the chaos oracle can prove
                # it detects corruption. The record gets no LSN.
                return None
            fail_after_append = self.faults.fires(
                "wal.append", txn_id=record.txn_id, detail=record_name
            ) is not None
        record.lsn = self._next_lsn
        self._next_lsn += 1
        if record.txn_id is not None:
            record.prev_lsn = self._txn_last_lsn.get(record.txn_id)
            self._txn_last_lsn[record.txn_id] = record.lsn
        self._records.append(record)
        size = self._estimate_size(record)
        self.bytes_estimate += size
        if record.txn_id is not None:
            self._txn_bytes[record.txn_id] = (
                self._txn_bytes.get(record.txn_id, 0) + size
            )
        if self.tracer.enabled:
            self.tracer.emit(
                "wal_append", txn_id=record.txn_id, lsn=record.lsn,
                record=type(record).__name__, bytes=size,
            )
        if self.append_listener is not None:
            # Before the fault raise below: the record *is* in the append
            # stream, so the page mirror must reflect it — rollback will
            # walk through it and compensate via a CLR, which also lands
            # here and keeps the mirror balanced.
            self.append_listener(record)
        if fail_after_append:
            # The record made it into the append stream before the device
            # failed on the acknowledgement, so rollback can walk through
            # it — failing *before* the append would strand any mutation
            # the caller already applied.
            raise FaultInjected("wal.append", record.txn_id)
        return record.lsn

    @staticmethod
    def _estimate_size(record):
        """A stable proxy for on-disk record size: the length of the JSON
        encoding. Benchmarks use it to compare log volume across logging
        strategies without caring about a real binary format."""
        return len(json.dumps(record.to_dict(), default=str))

    def last_lsn_of(self, txn_id):
        return self._txn_last_lsn.get(txn_id)

    def bytes_of(self, txn_id):
        """Estimated bytes of every record ``txn_id`` has appended."""
        return self._txn_bytes.get(txn_id, 0)

    def tail_lsn(self):
        return self._next_lsn - 1

    # ------------------------------------------------------------------
    # flushing and crash simulation
    # ------------------------------------------------------------------

    def flush(self, up_to_lsn=None):
        """Make the prefix up to ``up_to_lsn`` (default: everything)
        durable."""
        target = self.tail_lsn() if up_to_lsn is None else min(up_to_lsn, self.tail_lsn())
        if target > self.flushed_lsn and self.faults.active:
            if self.faults.fires("wal.torn_tail") is not None:
                # Torn write: everything but the final record lands.
                self._advance_flushed(target - 1)
                raise FaultInjected("wal.torn_tail")
            if self.faults.fires("wal.flush") is not None:
                raise FaultInjected("wal.flush")
        self._advance_flushed(target)

    def _advance_flushed(self, target):
        """Advance the durable boundary, record the batch size, and notify
        the flush listener (group-commit settling)."""
        if target <= self.flushed_lsn:
            return
        previous = self.flushed_lsn
        advanced = target - previous
        self.flushed_lsn = target
        if self.checksums or self.faults.active:
            self._harden_records(previous, target)
        self.flush_count += 1
        self.flush_records.observe(advanced)
        if self.tracer.enabled:
            self.tracer.emit(
                "wal_flush", flushed_lsn=target, records=advanced
            )
        if self.flush_listener is not None:
            self.flush_listener(target)

    def _harden_records(self, previous, target):
        """Stamp the checksum of every record that just became durable
        (``previous < lsn <= target``) and evaluate the ``wal.corrupt``
        fault site on each — a fired site flips the record's payload
        *after* the stamp, modelling a bit flip in the durable stream."""
        newly = []
        for record in reversed(self._records):
            if record.lsn > target:
                continue
            if record.lsn <= previous:
                break
            newly.append(record)
        for record in reversed(newly):
            if self.checksums:
                record.stored_crc = record.checksum()
            if self.faults.active and self.faults.fires(
                "wal.corrupt", txn_id=record.txn_id,
                detail=type(record).__name__,
            ) is not None:
                self._corrupt_record(record)

    def _corrupt_record(self, record):
        """Flip the record's payload in place, leaving any checksum stamp
        stale. Numeric payload fields get +1000 (silently poisonous when
        checksums are off); records with no mutable numeric payload get a
        damaged stamp instead (detectable, never silently wrong)."""
        deltas = getattr(record, "deltas", None)
        if deltas:
            column = sorted(deltas)[0]
            deltas[column] += 1000
            return
        for attr in ("row", "after", "new_row", "before", "ghost_row"):
            row = getattr(record, attr, None)
            if row is None:
                continue
            for column in row:
                value = row[column]
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    continue
                setattr(record, attr, row.replace(**{column: value + 1000}))
                return
        if record.stored_crc is not None:
            record.stored_crc ^= 0x5A5A5A5A

    def corrupt(self, lsn):
        """Deliberately corrupt the durable record at ``lsn`` (test /
        harness helper; the ``wal.corrupt`` fault site does the same from
        a seeded schedule)."""
        self._corrupt_record(self.record_at(lsn))

    def truncate_from(self, lsn):
        """Drop every record with ``lsn >= lsn`` — the salvage cut after
        a failed checksum. Returns the dropped records (newest-last).
        LSNs restart at the cut, exactly as after :meth:`crash`."""
        dropped = [r for r in self._records if r.lsn >= lsn]
        self._records = [r for r in self._records if r.lsn < lsn]
        self._next_lsn = lsn
        if self.flushed_lsn >= lsn:
            self.flushed_lsn = lsn - 1
        self._txn_last_lsn = {}
        for record in self._records:
            if record.txn_id is not None:
                self._txn_last_lsn[record.txn_id] = record.lsn
        return dropped

    def flush_for_writeback(self, up_to_lsn):
        """WAL-before-write: make the prefix up to ``up_to_lsn`` durable
        so a dirty page whose ``page_lsn`` lies inside it may be written
        back. Skips the retryable flush fault sites — a page writeback
        is engine housekeeping, not a commit, and surfacing a retryable
        fault from inside an eviction would strand the caller's
        statement mid-mutation."""
        self._advance_flushed(min(up_to_lsn, self.tail_lsn()))

    def flush_no_faults(self):
        """Advance durability to the tail without evaluating the flush
        fault sites. Recovery hardens its CLRs through this: a crashed
        recovery is *re-entered*, never retried, so surfacing a
        retryable flush fault from inside it would be meaningless."""
        self._advance_flushed(self.tail_lsn())

    def crash(self):
        """Discard the unflushed suffix, as a power failure would.

        Returns the list of discarded records (for test assertions).
        """
        survivors = [r for r in self._records if r.lsn <= self.flushed_lsn]
        lost = [r for r in self._records if r.lsn > self.flushed_lsn]
        self._records = survivors
        self._next_lsn = self.flushed_lsn + 1
        # Rebuild backchain heads from the surviving records.
        self._txn_last_lsn = {}
        for record in survivors:
            if record.txn_id is not None:
                self._txn_last_lsn[record.txn_id] = record.lsn
        return lost

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def records(self, from_lsn=1):
        """Iterate records with ``lsn >= from_lsn`` in LSN order."""
        for record in self._records:
            if record.lsn >= from_lsn:
                yield record

    def record_at(self, lsn):
        """Fetch one record by LSN (binary-search-free: LSNs are dense
        except after truncation, so scan from an estimate)."""
        for record in self._records:
            if record.lsn == lsn:
                return record
        raise WalError(f"no record with LSN {lsn}")

    def latest_checkpoint(self):
        """The newest checkpoint record, or ``None``."""
        for record in reversed(self._records):
            if isinstance(record, CheckpointRecord):
                return record
        return None

    def records_by_type(self, record_type):
        return [r for r in self._records if r.type is record_type]
