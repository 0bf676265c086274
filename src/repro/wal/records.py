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

Compensation records (:class:`CompensationRecord`) wrap the undo of another
record; they are redo-only and carry ``undo_next_lsn`` so that a rollback
interrupted by a crash resumes where it left off, ARIES-style.

Each record class declares its payload exactly once, as an ordered
``_fields`` tuple of :class:`Field` entries (attribute, JSON key, codec);
a subclass's fields extend its base's. The constructor, ``__slots__``,
:meth:`LogRecord.to_dict`, :meth:`LogRecord.from_dict` and the one
encoding :meth:`LogRecord.encode` — whose length is the record's logged
size and whose CRC-32 is its durable checksum — are all derived from it:

>>> from repro.common.rows import Row
>>> record = InsertRecord(7, "sales", (1,), Row(id=1, amount=5))
>>> record.lsn = 3
>>> record.to_dict()  # doctest: +NORMALIZE_WHITESPACE
{'type': 'insert', 'lsn': 3, 'txn_id': 7, 'prev_lsn': None,
 'index': 'sales', 'key': [1], 'row': {'id': 1, 'amount': 5}}
>>> copy = LogRecord.from_dict(record.to_dict())
>>> (copy.key, copy.row) == ((1,), Row(id=1, amount=5))
True
>>> copy.encode() == record.encode()
True
>>> len(record.encode())
120
"""

import enum
import json
import zlib
from collections import namedtuple

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


def _same(value):
    return value


def _int_keyed(mapping):
    return {int(k): v for k, v in (mapping or {}).items()}


#: How one payload attribute travels: ``init`` normalizes the constructor
#: argument, ``encode`` maps the attribute to its JSON value, ``decode``
#: maps the JSON value back.
Codec = namedtuple("Codec", ("init", "encode", "decode"))

PLAIN = Codec(_same, _same, _same)
#: plain, but the record keeps its own copy of a caller's container
DICT = Codec(dict, dict, _same)
LIST = Codec(list, list, _same)
#: an index key: a tuple in memory, a list in JSON
KEY = Codec(_same, list, tuple)
#: a row image, or ``None``
ROW = Codec(
    _same,
    lambda row: None if row is None else row.as_dict(),
    lambda data: None if data is None else Row(data),
)
#: ``{int: value}`` in memory, string keys in JSON
INT_KEYED = Codec(
    _int_keyed, lambda m: {str(k): v for k, v in m.items()}, _int_keyed
)
#: an embedded record (a CLR's compensated action)
RECORD = Codec(
    _same, lambda record: record.to_dict(), lambda d: LogRecord.from_dict(d)
)

_REQUIRED = object()

_ENCODER = json.JSONEncoder(default=str)


def crc(encoded):
    """CRC-32 of a record encoding (:meth:`LogRecord.encode`)."""
    return zlib.crc32(encoded.encode("utf-8"))


class Field(namedtuple("Field", ("attr", "key", "codec", "default"))):
    """One payload attribute: its name, its JSON key (the attribute name
    unless given) and its :data:`Codec`. A field with a ``default`` is an
    optional constructor argument, and ``from_dict`` tolerates its key
    being absent."""

    __slots__ = ()

    def __new__(cls, attr, key=None, codec=PLAIN, default=_REQUIRED):
        return super().__new__(cls, attr, key or attr, codec, default)


#: RecordType -> record class, filled in as the classes are defined
_RECORD_CLASSES = {}


class _RecordMeta(type):
    """Derives a record class's ``__slots__`` from the fields it declares,
    extends its base's ``_fields`` with them, and registers the class
    under the ``type`` it declares."""

    def __new__(mcs, name, bases, namespace):
        own = namespace.get("_fields", ())
        namespace.setdefault("__slots__", tuple(f.attr for f in own))
        cls = super().__new__(mcs, name, bases, namespace)
        inherited = getattr(bases[0], "_fields", ()) if bases else ()
        cls._fields = inherited + tuple(own)
        txn = ("txn_id",) if cls._takes_txn_id else ()
        cls._params = txn + tuple(f.attr for f in cls._fields)
        cls._required = txn + tuple(
            f.attr for f in cls._fields if f.default is _REQUIRED
        )
        if namespace.get("type") is not None:
            _RECORD_CLASSES[cls.type] = cls
        return cls


class LogRecord(metaclass=_RecordMeta):
    """Base class: LSN plus the per-transaction backchain.

    ``stored_crc`` is the checksum the durable stream carries for this
    record: the log manager stamps it at append, from the same encoding
    that sizes the record (and the segment chain round-trips it), so any
    later divergence between the payload and the stamp — a bit flip "on
    disk" — is detectable by :meth:`verify_checksum` during the salvage
    scan.

    The constructor takes ``txn_id`` (unless the class sets
    ``_takes_txn_id = False``) followed by the ``_fields`` attributes,
    positionally or by name.
    """

    __slots__ = ("lsn", "txn_id", "prev_lsn", "stored_crc")

    type = None  # overridden
    _takes_txn_id = True
    _fields = ()

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        params = self._params
        if len(args) > len(params):
            raise TypeError(f"{name}() takes at most {len(params)} arguments")
        values = dict(zip(params, args))
        for param, value in kwargs.items():
            if param not in params or param in values:
                raise TypeError(
                    f"{name}() got an unexpected or repeated argument {param!r}"
                )
            values[param] = value
        missing = [param for param in self._required if param not in values]
        if missing:
            raise TypeError(f"{name}() missing arguments {missing}")
        self.lsn = None  # assigned by the log manager
        self.txn_id = values.get("txn_id")
        self.prev_lsn = None  # assigned by the log manager
        self.stored_crc = None  # stamped at append / loaded from disk
        for field in self._fields:
            value = values.get(field.attr, field.default)
            setattr(self, field.attr, field.codec.init(value))

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
        for field in self._fields:
            d[field.key] = field.codec.encode(getattr(self, field.attr))
        return d

    def encode(self):
        """The record's one JSON encoding: its length is the logged size
        (``LogManager.bytes_estimate``) and its CRC-32 the durable
        checksum. It covers the lsn, the backchain and the payload —
        everything :meth:`to_dict` covers, which is everything recovery
        consumes."""
        return _ENCODER.encode(self.to_dict())

    def checksum(self):
        """CRC-32 over :meth:`encode`."""
        return crc(self.encode())

    def verify_checksum(self):
        """True when the stored checksum matches the payload (records
        that were never stamped — e.g. with checksums disabled — are
        vacuously valid; nothing can vouch for them)."""
        return self.stored_crc is None or self.stored_crc == self.checksum()

    @staticmethod
    def from_dict(d):
        cls = _RECORD_CLASSES[RecordType(d["type"])]
        record = cls.__new__(cls)
        record.lsn = d["lsn"]
        record.txn_id = d["txn_id"]
        record.prev_lsn = d["prev_lsn"]
        record.stored_crc = d.get("crc")
        for field in cls._fields:
            if field.default is _REQUIRED:
                value = d[field.key]
            else:
                value = d.get(field.key, field.default)
            setattr(record, field.attr, field.codec.decode(value))
        return record


class BeginRecord(LogRecord):
    type = RecordType.BEGIN
    _fields = (Field("is_system", default=False),)


class CommitRecord(LogRecord):
    type = RecordType.COMMIT
    _fields = (Field("commit_ts"),)

    def _extra_repr(self):
        return f", ts={self.commit_ts}"


class AbortRecord(LogRecord):
    type = RecordType.ABORT


class EndRecord(LogRecord):
    type = RecordType.END


class _IndexRecord(LogRecord):
    """A data record against one key of one index; every one is undoable."""

    _fields = (Field("index_name", "index"), Field("key", codec=KEY))

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r}"

    def is_undoable(self):
        return True


class InsertRecord(_IndexRecord):
    """A new key inserted into an index. Undo removes it."""

    type = RecordType.INSERT
    _fields = (Field("row", codec=ROW),)

    def redo(self, target):
        target.recovery_insert(self.index_name, self.key, self.row)

    def undo(self, target):
        target.recovery_delete(self.index_name, self.key)


class UpdateRecord(_IndexRecord):
    """In-place row replacement with before/after images.

    This is the *physical* logging strategy. Using it for escrow-locked
    counters is the anomaly experiment R4 demonstrates — undo restores a
    before image that may predate other transactions' committed deltas.
    """

    type = RecordType.UPDATE
    _fields = (Field("before", codec=ROW), Field("after", codec=ROW))

    def redo(self, target):
        target.recovery_update(self.index_name, self.key, self.after)

    def undo(self, target):
        target.recovery_update(self.index_name, self.key, self.before)


class DeleteRecord(_IndexRecord):
    """Outright key removal (base tables without ghosts). Undo re-inserts
    the before image."""

    type = RecordType.DELETE
    _fields = (Field("before", codec=ROW),)

    def redo(self, target):
        target.recovery_delete(self.index_name, self.key)

    def undo(self, target):
        target.recovery_insert(self.index_name, self.key, self.before)


class GhostRecord(_IndexRecord):
    """Logical deletion: the key stays, the record becomes a ghost.
    Undo revives it with the logged row."""

    type = RecordType.GHOST
    _fields = (Field("row", codec=ROW),)

    def redo(self, target):
        target.recovery_set_ghost(self.index_name, self.key, True)

    def undo(self, target):
        target.recovery_revive(self.index_name, self.key, self.row)


class ReviveRecord(_IndexRecord):
    """An insert that landed on an existing ghost and revived it.
    Undo re-ghosts the record (restoring the ghost's old row image)."""

    type = RecordType.REVIVE
    _fields = (Field("new_row", codec=ROW), Field("ghost_row", codec=ROW))

    def redo(self, target):
        target.recovery_revive(self.index_name, self.key, self.new_row)

    def undo(self, target):
        target.recovery_update(self.index_name, self.key, self.ghost_row)
        target.recovery_set_ghost(self.index_name, self.key, True)


class CleanupRecord(_IndexRecord):
    """Physical removal of a ghost by the cleaner (a system transaction).
    Undo re-inserts the ghost — needed only if the system transaction
    itself rolls back, which is rare but possible."""

    type = RecordType.CLEANUP
    _fields = (Field("ghost_row", codec=ROW),)

    def redo(self, target):
        target.recovery_delete(self.index_name, self.key)

    def undo(self, target):
        target.recovery_insert(self.index_name, self.key, self.ghost_row, is_ghost=True)


class EscrowDeltaRecord(_IndexRecord):
    """Logical logging of a commutative counter update.

    ``deltas`` maps column name -> signed amount. Redo adds the deltas to
    the current row; undo subtracts them from the current row. Neither
    direction references an absolute value, so concurrent escrow
    transactions recover correctly in any order.
    """

    type = RecordType.ESCROW_DELTA
    _fields = (Field("deltas", codec=DICT),)

    def _extra_repr(self):
        return f", {self.index_name}{self.key!r} {self.deltas!r}"

    def redo(self, target):
        target.recovery_escrow_apply(self.index_name, self.key, self.deltas)

    def undo(self, target):
        negated = {c: -d for c, d in self.deltas.items()}
        target.recovery_escrow_apply(self.index_name, self.key, negated)


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


class CompensationRecord(LogRecord):
    """A CLR: the redo-only record of having undone ``compensated_lsn``.

    ``undo_next_lsn`` points at the next record of the same transaction
    still awaiting undo, so rollback never repeats work after a crash.
    The CLR embeds the compensated record (``action``); *redoing the CLR
    applies that record's undo* — for escrow deltas this stays relative
    (-delta), for physical records it restores the before image.
    """

    type = RecordType.CLR
    _fields = (
        Field("compensated_lsn"),
        Field("undo_next_lsn"),
        Field("action", codec=RECORD),
    )

    def _extra_repr(self):
        return f", compensates={self.compensated_lsn}"

    def redo(self, target):
        self.action.undo(target)


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
    _fields = (Field("gid"),)

    def _extra_repr(self):
        return f", gid={self.gid!r}"


class DecisionRecord(LogRecord):
    """The coordinator's phase-2 outcome (``decision``: ``"commit"`` or
    ``"abort"``) for global transaction ``gid``.

    Lives only in the coordinator's decision log (never in a partition
    WAL); ``txn_id`` is None because the record belongs to the global
    transaction, not any branch. The decision is binding once this
    record is *durable* — an unflushed decision lost to a coordinator
    crash leaves the gid undecided, and presumed abort applies.
    """

    type = RecordType.DECISION
    _takes_txn_id = False
    _fields = (Field("gid"), Field("decision"), Field("participants", codec=LIST))

    def _extra_repr(self):
        return f", gid={self.gid!r}, decision={self.decision}"


class CheckpointRecord(LogRecord):
    """A checkpoint, in one of two flavours (``kind``):

    * ``"sharp"`` — the active-transaction table (``txn_id -> last_lsn``)
      plus an opaque snapshot handle holding every index's full contents;
      recovery restores the snapshot and replays only the suffix.
    * ``"fuzzy"`` — the ARIES checkpoint: the active-transaction table
      plus the **dirty-page table** (``page_id -> recLSN``) as it stood
      at the checkpoint, with *no* data snapshot. Analysis starts just
      after the checkpoint; redo starts at ``min(recLSN)`` and is gated
      per entry against the durable page images (``docs/STORAGE.md``).
    """

    type = RecordType.CHECKPOINT
    _takes_txn_id = False
    _fields = (
        Field("active_txns", codec=INT_KEYED),
        Field("snapshot", default=None),
        Field("dirty_pages", codec=INT_KEYED, default=None),
        Field("kind", default="sharp"),
    )

    def _extra_repr(self):
        return f", kind={self.kind}, active={sorted(self.active_txns)}"

