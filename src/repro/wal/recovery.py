"""Crash recovery: analysis, repeat-history redo, loser undo.

The engine's tables are in-memory, so a crash loses *all* data state and
recovery rebuilds it from the durable log prefix (or from the latest sharp
checkpoint snapshot). The three ARIES phases survive intact:

1. **Analysis** — scan the log; transactions with a COMMIT record are
   winners, everything else still open at the crash is a loser. System
   transactions commit independently of their parents (multi-level
   recovery): a ghost-cleanup that committed stays committed even if the
   user transaction whose delete produced the ghost aborts.
2. **Redo** — repeat history: every data record (including CLRs, including
   losers' records) is re-applied in LSN order.
3. **Undo** — losers are rolled back by walking their backchains newest-
   first, honouring ``undo_next_lsn`` in CLRs so partially rolled-back
   transactions are not compensated twice. Undo writes fresh CLRs so a
   crash *during recovery* is itself recoverable.

The escrow point: :class:`~repro.wal.records.EscrowDeltaRecord` redo/undo
are relative (+delta / -delta), so the interleaved histories that escrow
locking permits recover to exactly the committed sums. Physical
before/after-image records cannot promise that — the R4 experiment runs
both through this same recovery driver and shows the divergence.

Two hardening layers sit on top of the classic pipeline:

* **Salvage** (:func:`salvage`) runs before analysis: it scans the
  durable prefix for the first record whose checksum stamp no longer
  matches its payload, truncates the log there, and classifies the loss
  — committed transactions whose COMMIT fell past the cut
  (``lost_commits``) versus uncommitted tail garbage. The loss is never
  silent: it lands in ``RecoveryReport.salvage`` (or, under
  ``salvage_policy="strict"``, in a raised
  :class:`~repro.common.errors.WalCorruptionError`).
* **Restartability**: each phase evaluates a per-record crash fault site
  (``recovery.analysis`` / ``recovery.redo`` / ``recovery.undo``), and
  undo hardens every CLR it writes (``durable=True``), so a crash *inside
  recovery* is survivable — the next attempt repeats history and resumes
  rollback from the durable CLRs' ``undo_next_lsn`` chain instead of
  compensating twice. Repeated partial recoveries converge to the same
  state as one uninterrupted run.
"""

from repro.wal.records import (
    AbortRecord,
    BeginRecord,
    CommitRecord,
    CompensationRecord,
    EndRecord,
    PrepareRecord,
    RecordType,
)


class RecoveryTarget:
    """The interface recovery (and online rollback) drives.

    The engine's :class:`~repro.core.database.Database` implements these
    as direct index manipulations that bypass locking — recovery runs
    single-threaded before transactions restart, and online rollback runs
    under the aborting transaction's own locks.
    """

    def recovery_insert(self, index_name, key, row, is_ghost=False):
        raise NotImplementedError

    def recovery_delete(self, index_name, key):
        raise NotImplementedError

    def recovery_update(self, index_name, key, row):
        raise NotImplementedError

    def recovery_set_ghost(self, index_name, key, ghost):
        raise NotImplementedError

    def recovery_revive(self, index_name, key, row):
        raise NotImplementedError

    def recovery_escrow_apply(self, index_name, key, deltas):
        raise NotImplementedError


class RecoveryReport:
    """What recovery did — asserted on by tests, printed by benches."""

    def __init__(self):
        self.winners = set()
        self.losers = set()
        self.redo_count = 0
        self.undo_count = 0
        self.clrs_written = 0
        self.analyzed_records = 0
        #: data records the page-LSN gate proved already reflected in the
        #: durable page images (fuzzy-checkpoint recovery only).
        self.redo_skipped = 0
        #: durable page images loaded to seed state before redo.
        self.pages_loaded = 0
        #: salvage report dict from the pre-analysis checksum scan, or
        #: ``None`` when the durable log was clean (see :func:`salvage`).
        self.salvage = None
        #: recovery attempts that crashed before this one completed — 0
        #: for a single-shot recovery, N after a crash storm of N.
        self.restarts = 0
        #: transactions with a durable PREPARE record but no decision:
        #: redone (repeat history) but *not* undone — they await the
        #: coordinator's verdict, holding their locks until resolved.
        self.in_doubt = set()

    def as_dict(self):
        return {
            "winners": sorted(self.winners),
            "losers": sorted(self.losers),
            "in_doubt": sorted(self.in_doubt),
            "redo_count": self.redo_count,
            "undo_count": self.undo_count,
            "clrs_written": self.clrs_written,
            "analyzed_records": self.analyzed_records,
            "redo_skipped": self.redo_skipped,
            "pages_loaded": self.pages_loaded,
            "salvage": self.salvage,
            "restarts": self.restarts,
        }


_DATA_TYPES = {
    RecordType.INSERT,
    RecordType.UPDATE,
    RecordType.DELETE,
    RecordType.GHOST,
    RecordType.REVIVE,
    RecordType.CLEANUP,
    RecordType.ESCROW_DELTA,
    RecordType.COUNTER_IMAGE,
    RecordType.CLR,
}


def salvage(log, verify=True):
    """Pre-analysis checksum scan: truncate at the first bad record.

    Scans the log for the first record whose payload no longer matches
    its durable checksum stamp and truncates the log there (recovery must
    not replay garbage, and nothing after a corrupt record can be
    trusted). Returns a report dict classifying the loss, or ``None``
    when there was nothing to salvage:

    * ``truncated_lsn`` / ``corrupt_record`` — where the cut happened and
      the record type found corrupt (``None`` if only the dumped chain
      lost records);
    * ``dropped_records`` — records discarded by the cut;
    * ``lost_commits`` — txn ids whose COMMIT record fell past the cut:
      *committed work was rolled back*, the honest-loss case;
    * ``tail_garbage`` — dropped records belonging to no lost commit
      (uncommitted tail work recovery would have undone anyway);
    * ``undecodable_lines`` — record lines
      :func:`~repro.wal.segments.load_segments` could not trust (a torn,
      CRC-failed or lost segment of a dumped chain).

    With ``verify=False`` (checksums disabled) the scan is skipped — the
    negative control proving corruption then goes undetected here and
    must be caught downstream by the integrity checker.
    """
    bad = None
    if verify:
        for record in log.records():
            if not record.verify_checksum():
                bad = record
                break
    if bad is None and not log.undecodable_tail:
        return None
    report = {
        "truncated_lsn": None,
        "corrupt_record": None,
        "dropped_records": 0,
        "lost_commits": [],
        "tail_garbage": 0,
        "undecodable_lines": log.undecodable_tail,
    }
    if bad is not None:
        dropped = log.truncate_from(bad.lsn)
        lost = {
            r.txn_id for r in dropped
            if isinstance(r, CommitRecord) and r.txn_id is not None
        }
        report["truncated_lsn"] = bad.lsn
        report["corrupt_record"] = type(bad).__name__
        report["dropped_records"] = len(dropped)
        report["lost_commits"] = sorted(lost)
        report["tail_garbage"] = sum(
            1 for r in dropped if r.txn_id not in lost
        )
    return report


def analyze(log, from_lsn=1, faults=None):
    """Phase 1: classify transactions.

    Returns ``(winners, losers, count, in_doubt)`` where ``losers`` maps
    txn_id -> the LSN to start undo from (its last log record), and
    ``in_doubt`` is the set of transactions with a durable PREPARE record
    but no commit/abort outcome — they are open but must *not* be undone
    (presumed abort resolves them later, from the coordinator's decision
    log, not from this partition's local knowledge).
    """
    winners = set()
    open_txns = {}
    prepared = set()
    count = 0
    for record in log.records(from_lsn):
        if faults is not None and faults.active:
            faults.maybe_crash(
                "recovery.analysis", txn_id=record.txn_id,
                detail=type(record).__name__,
            )
        count += 1
        if isinstance(record, BeginRecord):
            open_txns[record.txn_id] = record.lsn
        elif isinstance(record, CommitRecord):
            winners.add(record.txn_id)
            open_txns.pop(record.txn_id, None)
            prepared.discard(record.txn_id)
        elif isinstance(record, PrepareRecord):
            prepared.add(record.txn_id)
            open_txns[record.txn_id] = record.lsn
        elif isinstance(record, (AbortRecord, EndRecord)):
            # An abort record alone does not finish rollback; only END
            # means every undo was applied and logged. A transaction with
            # ABORT but no END is still a loser with work to do.
            if record.type is RecordType.END:
                open_txns.pop(record.txn_id, None)
            else:
                open_txns[record.txn_id] = record.lsn
            # A logged abort (even unfinished) revokes the prepare vote:
            # the coordinator already decided, or the branch aborted
            # before voting completed — either way it rolls back locally.
            prepared.discard(record.txn_id)
        elif record.txn_id is not None:
            open_txns.setdefault(record.txn_id, record.lsn)
            open_txns[record.txn_id] = record.lsn
    in_doubt = {t for t in open_txns if t in prepared}
    losers = {}
    for txn_id in open_txns:
        if txn_id not in in_doubt:
            losers[txn_id] = log.last_lsn_of(txn_id)
    return winners, losers, count, in_doubt


def redo(log, target, from_lsn=1, report=None, faults=None, pages=None):
    """Phase 2: repeat history — replay every data record in LSN order.

    When ``pages`` (a :class:`~repro.storage.bufferpool.PageManager`
    seeded from durable page images) is supplied, redo is *gated*: a
    record whose effect the page mirror already carries — the mirrored
    entry's LSN is at or past the record's LSN — is skipped instead of
    re-applied. That is what makes fuzzy-checkpoint recovery sound for
    non-idempotent escrow deltas: a delta flushed to disk before the
    crash must not be added twice. Skipped records still count into
    ``report.redo_skipped``.
    """
    for record in log.records(from_lsn):
        if record.type in _DATA_TYPES:
            if faults is not None and faults.active:
                faults.maybe_crash(
                    "recovery.redo", txn_id=record.txn_id,
                    detail=type(record).__name__,
                )
            if pages is not None and not pages.needs_redo(record):
                if report is not None:
                    report.redo_skipped += 1
                continue
            record.redo(target)
            if pages is not None:
                pages.apply(record)
            if report is not None:
                report.redo_count += 1


def undo(log, target, losers, report=None, write_clrs=True, faults=None,
         durable=False):
    """Phase 3: roll back losers, newest record first across all losers
    (single combined pass in descending LSN order, as ARIES does).

    ``durable=True`` (recovery's setting) flushes each CLR / END as it is
    written, bypassing the flush fault sites (a crashed recovery is
    re-entered, never retried) — the point of CLRs is lost if a crash
    mid-undo discards them and the next attempt compensates twice.
    Online rollback leaves ``durable=False``: its CLRs ride the normal
    commit-time flush.
    """
    # Each loser's cursor: the LSN of the next record to examine.
    cursors = {t: lsn for t, lsn in losers.items() if lsn is not None}
    while cursors:
        txn_id, lsn = max(cursors.items(), key=lambda item: item[1])
        record = log.record_at(lsn)
        if faults is not None and faults.active:
            faults.maybe_crash(
                "recovery.undo", txn_id=txn_id,
                detail=type(record).__name__,
            )
        if isinstance(record, CompensationRecord):
            # Already-compensated work: skip to undo_next.
            next_lsn = record.undo_next_lsn
        elif record.is_undoable():
            record.undo(target)
            if report is not None:
                report.undo_count += 1
            if write_clrs:
                clr = CompensationRecord(
                    txn_id,
                    compensated_lsn=record.lsn,
                    undo_next_lsn=record.prev_lsn,
                    action=record,
                )
                log.append(clr)
                if report is not None:
                    report.clrs_written += 1
                if durable:
                    log.flush_no_faults()
            next_lsn = record.prev_lsn
        else:
            next_lsn = record.prev_lsn
        if next_lsn is None:
            if write_clrs:
                log.append(EndRecord(txn_id))
                if durable:
                    log.flush_no_faults()
            del cursors[txn_id]
        else:
            cursors[txn_id] = next_lsn


def _prepared_on_backchain(log, last_lsn):
    """True when the backchain starting at ``last_lsn`` carries a PREPARE
    record — used to classify transactions that were active at a
    checkpoint and silent afterwards, whose prepare (if any) predates the
    analysis window."""
    lsn = last_lsn
    while lsn is not None:
        record = log.record_at(lsn)
        if isinstance(record, PrepareRecord):
            return True
        lsn = record.prev_lsn
    return False


def recover(log, target, faults=None, salvage_report=None, pages=None):
    """Run full recovery against ``target``; returns a RecoveryReport.

    If a sharp checkpoint exists, the caller is expected to have restored
    the snapshot into ``target`` already; redo then starts just after the
    checkpoint. With ``pages`` (a page mirror seeded from durable page
    images — the fuzzy-checkpoint path), analysis still starts at the
    checkpoint but redo rewinds to ``min(recLSN)`` of the checkpoint's
    dirty-page table: the oldest change that might not have reached disk.
    ``faults`` (when armed) exposes the per-record crash sites
    ``recovery.analysis`` / ``recovery.redo`` / ``recovery.undo``;
    ``salvage_report`` — the result of the caller's :func:`salvage` pass
    — is carried through onto the returned report.
    """
    report = RecoveryReport()
    report.salvage = salvage_report
    checkpoint = log.latest_checkpoint()
    # A checkpoint only shortcuts recovery when the state it summarizes
    # is actually available: a sharp checkpoint's snapshot (restored by
    # the caller) or a fuzzy checkpoint's durable page images (``pages``).
    # A fuzzy checkpoint with no trustworthy pages — a torn page, or a
    # fresh process that never had the page store — falls back to full
    # log replay from LSN 1, exactly as if no checkpoint existed.
    trusted = checkpoint is not None and (
        checkpoint.snapshot is not None or pages is not None
    )
    from_lsn = checkpoint.lsn + 1 if trusted else 1
    winners, losers, analyzed, in_doubt = analyze(log, from_lsn, faults=faults)
    if trusted:
        # Transactions active at the checkpoint may have no records after
        # it; they are losers unless a later COMMIT appeared — or
        # in-doubt, if their backchain carries a PREPARE the truncated
        # analysis window never saw.
        for txn_id, last_lsn in checkpoint.active_txns.items():
            if (
                txn_id in winners or txn_id in losers or txn_id in in_doubt
            ):
                continue
            tail = log.last_lsn_of(txn_id) or last_lsn
            if _prepared_on_backchain(log, tail):
                in_doubt.add(txn_id)
            else:
                losers[txn_id] = tail
    report.winners = winners
    report.losers = set(losers)
    report.in_doubt = in_doubt
    report.analyzed_records = analyzed
    redo_from = from_lsn
    if pages is not None and trusted and checkpoint.dirty_pages:
        # Fuzzy checkpoint: dirty pages' oldest unflushed change may
        # predate the checkpoint record itself.
        redo_from = min([from_lsn] + list(checkpoint.dirty_pages.values()))
    redo(log, target, redo_from, report, faults=faults, pages=pages)
    undo(log, target, losers, report, faults=faults, durable=True)
    # Recovery's own durability point bypasses the flush fault sites:
    # nothing retries a failed recovery flush, it just re-enters.
    log.flush_no_faults()
    return report
