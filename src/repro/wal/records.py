"""Log record types.

Two families of data records coexist, and the difference between them is
one of the paper's main points:

* **Physiological records** (insert / update / delete / ghost / revive /
  cleanup) carry before/after images. Their undo *restores the before
  image* — correct for exclusively locked rows, and catastrophically wrong
  for escrow-locked counters, where the before image observed by one
  transaction interleaves with other transactions' committed increments.

* **Logical escrow records** (:class:`EscrowDeltaRecord`) carry only the
  delta. Redo applies ``+delta``; undo applies ``-delta`` *to the current
  value*. Because increments commute, redo and undo are correct under any
  interleaving of escrow holders — this is what makes E locks recoverable.

Every record is serializable to a plain dict (JSON-safe when rows hold
JSON-safe values) so the log can be persisted and replayed.

Compensation records (:class:`CompensationRecord`) wrap the undo of another
record; they are redo-only and carry ``undo_next_lsn`` so that a rollback
interrupted by a crash resumes where it left off, ARIES-style.
"""

import enum
import json
import zlib

from repro.common import WalError
from repro.common.rows import Row


class RecordType(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    END = "end"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    GHOST = "ghost"
    REVIVE = "revive"
    CLEANUP = "cleanup"
    ESCROW_DELTA = "escrow_delta"
    COUNTER_IMAGE = "counter_image"
    CLR = "clr"
    CHECKPOINT = "checkpoint"
    PREPARE = "prepare"
    DECISION = "decision"


class LogRecord:
    """Base class: LSN plus the per-transaction backchain.

    ``stored_crc`` is the checksum the durable stream carries for this
    record: the log manager stamps it when the record becomes durable
    (and the segment chain round-trips it), so any later divergence
    between the payload and the stamp — a bit flip "on disk" — is
    detectable by :meth:`verify_checksum` during the salvage scan.
    """

    __slots__ = ("lsn", "txn_id", "prev_lsn", "stored_crc")

    type = None  # overridden

    def __init__(self, txn_id):
        self.lsn = None  # assigned by the log manager
        self.txn_id = txn_id
        self.prev_lsn = None  # assigned by the log manager
        self.stored_crc = None  # stamped at flush / loaded from disk

    def __repr__(self):
        return (
            f"{type(self).__name__}(lsn={self.lsn}, txn={self.txn_id}"
            f"{self._extra_repr()})"
        )

    def _extra_repr(self):
        return ""

    # -- undo/redo contract --------------------------------------------

    def is_undoable(self):
        return False

    def redo(self, target):
        """Apply the logged effect to ``target`` (a RecoveryTarget)."""

    def undo(self, target):
        """Apply the inverse effect. Only called if :meth:`is_undoable`."""
        raise WalError(f"{type(self).__name__} is not undoable")

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        d = {
            "type": self.type.value,
            "lsn": self.lsn,
            "txn_id": self.txn_id,
            "prev_lsn": self.prev_lsn,
        }
        d.update(self._payload())
        return d

    def _payload(self):
        return {}

    def checksum(self):
        """CRC-32 over the canonical JSON encoding (lsn, backchain, and
        payload — everything :meth:`to_dict` covers, which is everything
        recovery consumes)."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, default=str)
        return zlib.crc32(canonical.encode("utf-8"))

    def verify_checksum(self):
        """True when the stored checksum matches the payload (records
        that were never stamped — e.g. with checksums disabled — are
        vacuously valid; nothing can vouch for them)."""
        return self.stored_crc is None or self.stored_crc == self.checksum()

    @staticmethod
    def from_dict(d):
        cls = _RECORD_CLASSES[RecordType(d["type"])]
        record = cls._from_payload(d)
        record.lsn = d["lsn"]
        record.prev_lsn = d["prev_lsn"]
        record.stored_crc = d.get("crc")
        return record


def _row_to_plain(row):
    return None if row is None else row.as_dict()


def _row_from_plain(data):
    return None if data is None else Row(data)


class BeginRecord(LogRecord):
    type = RecordType.BEGIN
    __slots__ = ("is_system",)

    def __init__(self, txn_id, is_system=False):
        super().__init__(txn_id)
        self.is_system = is_system

    def _payload(self):
        return {"is_system": self.is_system}

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"], d["is_system"])


class CommitRecord(LogRecord):
    type = RecordType.COMMIT
    __slots__ = ("commit_ts",)

    def __init__(self, txn_id, commit_ts):
        super().__init__(txn_id)
        self.commit_ts = commit_ts

    def _extra_repr(self):
        return f", ts={self.commit_ts}"

    def _payload(self):
        return {"commit_ts": self.commit_ts}

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"], d["commit_ts"])


class AbortRecord(LogRecord):
    type = RecordType.ABORT

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"])


class EndRecord(LogRecord):
    type = RecordType.END

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"])


class InsertRecord(LogRecord):
    """A new key inserted into an index. Undo removes it."""

    type = RecordType.INSERT
    __slots__ = ("index_name", "key", "row")

    def __init__(self, txn_id, index_name, key, row):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.row = row

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_insert(self.index_name, self.key, self.row)

    def undo(self, target):
        target.recovery_delete(self.index_name, self.key)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "row": _row_to_plain(self.row),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"], d["index"], tuple(d["key"]), _row_from_plain(d["row"]))


class UpdateRecord(LogRecord):
    """In-place row replacement with before/after images.

    This is the *physical* logging strategy. Using it for escrow-locked
    counters is the anomaly experiment R4 demonstrates — undo restores a
    before image that may predate other transactions' committed deltas.
    """

    type = RecordType.UPDATE
    __slots__ = ("index_name", "key", "before", "after")

    def __init__(self, txn_id, index_name, key, before, after):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.before = before
        self.after = after

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_update(self.index_name, self.key, self.after)

    def undo(self, target):
        target.recovery_update(self.index_name, self.key, self.before)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "before": _row_to_plain(self.before),
            "after": _row_to_plain(self.after),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(
            d["txn_id"],
            d["index"],
            tuple(d["key"]),
            _row_from_plain(d["before"]),
            _row_from_plain(d["after"]),
        )


class DeleteRecord(LogRecord):
    """Outright key removal (base tables without ghosts). Undo re-inserts
    the before image."""

    type = RecordType.DELETE
    __slots__ = ("index_name", "key", "before")

    def __init__(self, txn_id, index_name, key, before):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.before = before

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_delete(self.index_name, self.key)

    def undo(self, target):
        target.recovery_insert(self.index_name, self.key, self.before)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "before": _row_to_plain(self.before),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(
            d["txn_id"], d["index"], tuple(d["key"]), _row_from_plain(d["before"])
        )


class GhostRecord(LogRecord):
    """Logical deletion: the key stays, the record becomes a ghost.
    Undo revives it with the logged row."""

    type = RecordType.GHOST
    __slots__ = ("index_name", "key", "row")

    def __init__(self, txn_id, index_name, key, row):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.row = row

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_set_ghost(self.index_name, self.key, True)

    def undo(self, target):
        target.recovery_revive(self.index_name, self.key, self.row)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "row": _row_to_plain(self.row),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"], d["index"], tuple(d["key"]), _row_from_plain(d["row"]))


class ReviveRecord(LogRecord):
    """An insert that landed on an existing ghost and revived it.
    Undo re-ghosts the record (restoring the ghost's old row image)."""

    type = RecordType.REVIVE
    __slots__ = ("index_name", "key", "new_row", "ghost_row")

    def __init__(self, txn_id, index_name, key, new_row, ghost_row):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.new_row = new_row
        self.ghost_row = ghost_row

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_revive(self.index_name, self.key, self.new_row)

    def undo(self, target):
        target.recovery_update(self.index_name, self.key, self.ghost_row)
        target.recovery_set_ghost(self.index_name, self.key, True)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "new_row": _row_to_plain(self.new_row),
            "ghost_row": _row_to_plain(self.ghost_row),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(
            d["txn_id"],
            d["index"],
            tuple(d["key"]),
            _row_from_plain(d["new_row"]),
            _row_from_plain(d["ghost_row"]),
        )


class CleanupRecord(LogRecord):
    """Physical removal of a ghost by the cleaner (a system transaction).
    Undo re-inserts the ghost — needed only if the system transaction
    itself rolls back, which is rare but possible."""

    type = RecordType.CLEANUP
    __slots__ = ("index_name", "key", "ghost_row")

    def __init__(self, txn_id, index_name, key, ghost_row):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.ghost_row = ghost_row

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_delete(self.index_name, self.key)

    def undo(self, target):
        target.recovery_insert(self.index_name, self.key, self.ghost_row, is_ghost=True)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "ghost_row": _row_to_plain(self.ghost_row),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(
            d["txn_id"], d["index"], tuple(d["key"]), _row_from_plain(d["ghost_row"])
        )


class EscrowDeltaRecord(LogRecord):
    """Logical logging of a commutative counter update.

    ``deltas`` maps column name -> signed amount. Redo adds the deltas to
    the current row; undo subtracts them from the current row. Neither
    direction references an absolute value, so concurrent escrow
    transactions recover correctly in any order.
    """

    type = RecordType.ESCROW_DELTA
    __slots__ = ("index_name", "key", "deltas")

    def __init__(self, txn_id, index_name, key, deltas):
        super().__init__(txn_id)
        self.index_name = index_name
        self.key = key
        self.deltas = dict(deltas)

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r} {self.deltas!r}"

    def is_undoable(self):
        return True

    def redo(self, target):
        target.recovery_escrow_apply(self.index_name, self.key, self.deltas)

    def undo(self, target):
        negated = {c: -d for c, d in self.deltas.items()}
        target.recovery_escrow_apply(self.index_name, self.key, negated)

    def _payload(self):
        return {
            "index": self.index_name,
            "key": list(self.key),
            "deltas": dict(self.deltas),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"], d["index"], tuple(d["key"]), d["deltas"])


class CounterImageRecord(UpdateRecord):
    """Physical (before/after image) logging of an escrow counter update —
    the **unsound** strategy experiment R4 exists to demonstrate.

    Normal processing keeps escrow deltas off the row until commit, so
    online rollback must not apply this record's before image (the
    transaction manager skips it, as it does EscrowDeltaRecord). Crash
    recovery, however, treats it physically: redo installs the after
    image, undo restores the before image — and under interleaved escrow
    holders those images are mutually stale, which is precisely the
    corruption the paper's logical logging avoids.
    """

    type = RecordType.COUNTER_IMAGE
    __slots__ = ()


class CompensationRecord(LogRecord):
    """A CLR: the redo-only record of having undone ``compensated_lsn``.

    ``undo_next_lsn`` points at the next record of the same transaction
    still awaiting undo, so rollback never repeats work after a crash.
    The CLR embeds the compensated record; *redoing the CLR applies that
    record's undo* — for escrow deltas this stays relative (-delta), for
    physical records it restores the before image.
    """

    type = RecordType.CLR
    __slots__ = ("compensated_lsn", "undo_next_lsn", "action")

    def __init__(self, txn_id, compensated_lsn, undo_next_lsn, action):
        super().__init__(txn_id)
        self.compensated_lsn = compensated_lsn
        self.undo_next_lsn = undo_next_lsn
        self.action = action  # the compensated LogRecord (embedded copy)

    def _extra_repr(self):
        return f", compensates={self.compensated_lsn}"

    def redo(self, target):
        self.action.undo(target)

    def _payload(self):
        action_dict = self.action.to_dict()
        return {
            "compensated_lsn": self.compensated_lsn,
            "undo_next_lsn": self.undo_next_lsn,
            "action": action_dict,
        }

    @classmethod
    def _from_payload(cls, d):
        action = LogRecord.from_dict(d["action"])
        return cls(d["txn_id"], d["compensated_lsn"], d["undo_next_lsn"], action)


class PrepareRecord(LogRecord):
    """A participant's phase-1 vote in two-phase commit.

    Logged (and flushed) by a partition engine when the coordinator asks
    it to prepare the branch of global transaction ``gid``. Once this
    record is durable the branch is **in-doubt**: recovery redoes its
    effects (repeat history) but must not undo them, and the branch's
    locks stay held until the coordinator's decision arrives. A branch
    with no durable prepare record is presumed aborted.
    """

    type = RecordType.PREPARE
    __slots__ = ("gid",)

    def __init__(self, txn_id, gid):
        super().__init__(txn_id)
        self.gid = gid

    def _extra_repr(self):
        return f", gid={self.gid!r}"

    def _payload(self):
        return {"gid": self.gid}

    @classmethod
    def _from_payload(cls, d):
        return cls(d["txn_id"], d["gid"])


class DecisionRecord(LogRecord):
    """The coordinator's phase-2 outcome for global transaction ``gid``.

    Lives only in the coordinator's decision log (never in a partition
    WAL); ``txn_id`` is None because the record belongs to the global
    transaction, not any branch. The decision is binding once this
    record is *durable* — an unflushed decision lost to a coordinator
    crash leaves the gid undecided, and presumed abort applies.
    """

    type = RecordType.DECISION
    __slots__ = ("gid", "decision", "participants")

    def __init__(self, gid, decision, participants):
        super().__init__(txn_id=None)
        self.gid = gid
        self.decision = decision  # "commit" | "abort"
        self.participants = list(participants)

    def _extra_repr(self):
        return f", gid={self.gid!r}, decision={self.decision}"

    def _payload(self):
        return {
            "gid": self.gid,
            "decision": self.decision,
            "participants": list(self.participants),
        }

    @classmethod
    def _from_payload(cls, d):
        return cls(d["gid"], d["decision"], d["participants"])


class CheckpointRecord(LogRecord):
    """A checkpoint, in one of two flavours (``kind``):

    * ``"sharp"`` — the active-transaction table plus an opaque snapshot
      handle holding every index's full contents; recovery restores the
      snapshot and replays only the suffix.
    * ``"fuzzy"`` — the ARIES checkpoint: the active-transaction table
      plus the **dirty-page table** (``page_id -> recLSN``) as it stood
      at the checkpoint, with *no* data snapshot. Analysis starts just
      after the checkpoint; redo starts at ``min(recLSN)`` and is gated
      per entry against the durable page images (``docs/STORAGE.md``).
    """

    type = RecordType.CHECKPOINT
    __slots__ = ("active_txns", "snapshot", "dirty_pages", "kind")

    def __init__(self, active_txns, snapshot=None, dirty_pages=None,
                 kind="sharp"):
        super().__init__(txn_id=None)
        self.active_txns = dict(active_txns)  # txn_id -> last_lsn
        self.snapshot = snapshot
        self.dirty_pages = dict(dirty_pages or {})  # page_id -> recLSN
        self.kind = kind

    def _extra_repr(self):
        return f", kind={self.kind}, active={sorted(self.active_txns)}"

    def _payload(self):
        return {
            "active_txns": {str(k): v for k, v in self.active_txns.items()},
            "snapshot": self.snapshot,
            "dirty_pages": {str(k): v for k, v in self.dirty_pages.items()},
            "kind": self.kind,
        }

    @classmethod
    def _from_payload(cls, d):
        active = {int(k): v for k, v in d["active_txns"].items()}
        dirty = {int(k): v for k, v in d.get("dirty_pages", {}).items()}
        return cls(active, d["snapshot"], dirty, d.get("kind", "sharp"))


_RECORD_CLASSES = {
    RecordType.BEGIN: BeginRecord,
    RecordType.COMMIT: CommitRecord,
    RecordType.ABORT: AbortRecord,
    RecordType.END: EndRecord,
    RecordType.INSERT: InsertRecord,
    RecordType.UPDATE: UpdateRecord,
    RecordType.DELETE: DeleteRecord,
    RecordType.GHOST: GhostRecord,
    RecordType.REVIVE: ReviveRecord,
    RecordType.CLEANUP: CleanupRecord,
    RecordType.ESCROW_DELTA: EscrowDeltaRecord,
    RecordType.COUNTER_IMAGE: CounterImageRecord,
    RecordType.CLR: CompensationRecord,
    RecordType.CHECKPOINT: CheckpointRecord,
    RecordType.PREPARE: PrepareRecord,
    RecordType.DECISION: DecisionRecord,
}
