"""The log manager.

Assigns LSNs, maintains each transaction's backchain (``prev_lsn``),
tracks the flushed prefix, and simulates crashes by discarding the
unflushed suffix. The log lives in memory as record objects, dense in
LSN from a base (1, or the head of a loaded segment chain), so reading
a record by LSN is an index and reading from an LSN is a slice; its
durable form is the segment chain of :mod:`repro.wal.segments`.

Each record is encoded once, at append (:meth:`LogRecord.encode`): the
length of that encoding is the record's logged size and its CRC-32 the
checksum stamp the salvage pass verifies. Stamping at append rather
than at flush changes nothing observable — an unflushed record dies at
:meth:`LogManager.crash` with its stamp.

Flushing policy: :meth:`LogManager.flush` advances ``flushed_lsn`` to the
log tail. Without group commit the engine forces a flush inside every
commit (WAL commit rule); with group commit on, the
:class:`~repro.wal.group_commit.GroupCommitCoordinator` batches many
commits behind one flush and observes durability progress through the
``flush_listener`` hook. A simulated crash (:meth:`LogManager.crash`)
truncates everything beyond the flushed prefix — exactly what a real
power failure does to an OS page cache.
"""

from repro.common import FaultInjected, WalError
from repro.faults import NULL_INJECTOR
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.wal.records import CheckpointRecord, crc


class LogManager:
    """Append-only log with per-transaction backchains."""

    def __init__(self, tracer=NULL_TRACER, faults=None, checksums=True):
        self._records = []  # _records[i].lsn == _base_lsn + i
        self._base_lsn = 1
        self._txn_last_lsn = {}
        self._txn_bytes = {}  # txn_id -> encoded bytes appended
        self.flushed_lsn = 0
        self.flush_count = 0
        self.flush_records = Histogram()  # records made durable per flush
        self.bytes_estimate = 0
        self.tracer = tracer
        self.faults = faults if faults is not None else NULL_INJECTOR
        #: stamp a CRC on every record as it is appended, so the
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
        record.lsn = self._base_lsn + len(self._records)
        if record.txn_id is not None:
            record.prev_lsn = self._txn_last_lsn.get(record.txn_id)
            self._txn_last_lsn[record.txn_id] = record.lsn
        self._records.append(record)
        encoded = record.encode()
        if self.checksums:
            record.stored_crc = crc(encoded)
        size = len(encoded)
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

    def last_lsn_of(self, txn_id):
        return self._txn_last_lsn.get(txn_id)

    def bytes_of(self, txn_id):
        """Encoded bytes of every record ``txn_id`` has appended."""
        return self._txn_bytes.get(txn_id, 0)

    def tail_lsn(self):
        return self._base_lsn + len(self._records) - 1

    # ------------------------------------------------------------------
    # flushing and crash simulation
    # ------------------------------------------------------------------

    def _flush_target(self, up_to_lsn):
        tail = self.tail_lsn()
        return tail if up_to_lsn is None else min(up_to_lsn, tail)

    def flush(self, up_to_lsn=None):
        """Make the prefix up to ``up_to_lsn`` (default: everything)
        durable."""
        target = self._flush_target(up_to_lsn)
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
        if self.faults.active:
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
        """Evaluate the ``wal.corrupt`` fault site on every record that
        just became durable (``previous < lsn <= target``) — a fired site
        flips the record's payload *after* its append-time stamp,
        modelling a bit flip in the durable stream."""
        base = self._base_lsn
        newly = self._records[max(previous + 1 - base, 0):target + 1 - base]
        for record in newly:
            if self.faults.fires(
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
        cut = max(lsn - self._base_lsn, 0)
        dropped = self._records[cut:]
        del self._records[cut:]
        if self.flushed_lsn >= lsn:
            self.flushed_lsn = lsn - 1
        # Re-point the backchain head of every transaction in the dropped
        # suffix at its newest survivor: the prev_lsn of its oldest
        # dropped record, which the newest-first walk visits last.
        for record in reversed(dropped):
            if record.txn_id is None:
                continue
            head = record.prev_lsn
            if head is None or head < self._base_lsn:
                self._txn_last_lsn.pop(record.txn_id, None)
            else:
                self._txn_last_lsn[record.txn_id] = head
        return dropped

    def flush_no_faults(self, up_to_lsn=None):
        """Make the prefix up to ``up_to_lsn`` (default: everything)
        durable without evaluating the retryable flush fault sites.

        Recovery hardens its CLRs through this: a crashed recovery is
        *re-entered*, never retried, so a retryable flush fault from
        inside it would be meaningless. The buffer pool's WAL-before-write
        bounds it by a dirty page's ``page_lsn``: a page writeback is
        engine housekeeping, not a commit, and a retryable fault from
        inside an eviction would strand the caller's statement
        mid-mutation."""
        self._advance_flushed(self._flush_target(up_to_lsn))

    def crash(self):
        """Discard the unflushed suffix, as a power failure would.

        Returns the list of discarded records (for test assertions).
        """
        return self.truncate_from(self.flushed_lsn + 1)

    def restore(self, records):
        """Install ``records`` — a run with dense, ascending LSNs, such as
        a decoded segment chain — as the whole log, all of it durable."""
        if records and records[-1].lsn - records[0].lsn + 1 != len(records):
            raise WalError("restored records are not dense in LSN")
        self._records = list(records)
        self._txn_last_lsn = {}
        for record in self._records:
            if record.txn_id is not None:
                self._txn_last_lsn[record.txn_id] = record.lsn
        if self._records:
            self._base_lsn = self._records[0].lsn
            self.flushed_lsn = self._records[-1].lsn

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def records(self, from_lsn=1):
        """Iterate records with ``lsn >= from_lsn`` in LSN order (over a
        snapshot: appends during the iteration are not seen)."""
        return iter(self._records[max(from_lsn - self._base_lsn, 0):])

    def record_at(self, lsn):
        """Fetch one record by LSN — an index, since the in-memory log is
        dense in LSN. Never returns ``None``: an LSN outside the log
        raises :class:`~repro.common.WalError`."""
        index = lsn - self._base_lsn
        if 0 <= index < len(self._records):
            return self._records[index]
        raise WalError(f"no record with LSN {lsn}")

    def latest_checkpoint(self):
        """The newest checkpoint record, or ``None``."""
        for record in reversed(self._records):
            if isinstance(record, CheckpointRecord):
                return record
        return None

    def records_by_type(self, record_type):
        return [r for r in self._records if r.type is record_type]
