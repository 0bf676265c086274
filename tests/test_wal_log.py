"""Tests for log records and the log manager."""

import pytest

from repro.common import Row, WalError
from repro.wal import (
    BeginRecord,
    CheckpointRecord,
    CommitRecord,
    CompensationRecord,
    DeleteRecord,
    EscrowDeltaRecord,
    GhostRecord,
    InsertRecord,
    LogManager,
    LogRecord,
    RecordType,
    ReviveRecord,
    UpdateRecord,
)
from repro.wal.segments import dump_segments, load_segments


class TestAppend:
    def test_lsns_monotonic(self):
        log = LogManager()
        lsns = [log.append(BeginRecord(i)) for i in range(1, 4)]
        assert lsns == [1, 2, 3]
        assert log.tail_lsn() == 3

    def test_backchain_per_txn(self):
        log = LogManager()
        b1 = BeginRecord(1)
        b2 = BeginRecord(2)
        i1 = InsertRecord(1, "t", (1,), Row(a=1))
        i2 = InsertRecord(2, "t", (2,), Row(a=2))
        i1b = InsertRecord(1, "t", (3,), Row(a=3))
        for r in (b1, b2, i1, i2, i1b):
            log.append(r)
        assert b1.prev_lsn is None
        assert i1.prev_lsn == b1.lsn
        assert i1b.prev_lsn == i1.lsn
        assert i2.prev_lsn == b2.lsn
        assert log.last_lsn_of(1) == i1b.lsn

    def test_double_append_rejected(self):
        log = LogManager()
        r = BeginRecord(1)
        log.append(r)
        with pytest.raises(WalError):
            log.append(r)

    def test_checkpoint_has_no_txn_chain(self):
        log = LogManager()
        cp = CheckpointRecord({1: 5})
        log.append(cp)
        assert cp.prev_lsn is None

    def test_bytes_estimate_grows(self):
        log = LogManager()
        log.append(InsertRecord(1, "t", (1,), Row(a=1)))
        first = log.bytes_estimate
        log.append(InsertRecord(1, "t", (2,), Row(a=2, b="x" * 50)))
        assert log.bytes_estimate > first * 1.5


class TestFlushAndCrash:
    def test_flush_advances(self):
        log = LogManager()
        log.append(BeginRecord(1))
        log.append(InsertRecord(1, "t", (1,), Row(a=1)))
        assert log.flushed_lsn == 0
        log.flush()
        assert log.flushed_lsn == 2
        assert log.flush_count == 1

    def test_flush_partial(self):
        log = LogManager()
        for i in range(5):
            log.append(BeginRecord(i))
        log.flush(up_to_lsn=3)
        assert log.flushed_lsn == 3

    def test_flush_idempotent(self):
        log = LogManager()
        log.append(BeginRecord(1))
        log.flush()
        log.flush()
        assert log.flush_count == 1

    def test_crash_discards_unflushed(self):
        log = LogManager()
        log.append(BeginRecord(1))
        log.flush()
        log.append(InsertRecord(1, "t", (1,), Row(a=1)))
        lost = log.crash()
        assert len(lost) == 1
        assert log.tail_lsn() == 1
        assert list(log.records()) != []
        assert log.last_lsn_of(1) == 1

    def test_crash_then_append_continues_lsns(self):
        log = LogManager()
        log.append(BeginRecord(1))
        log.flush()
        log.append(BeginRecord(2))
        log.crash()
        lsn = log.append(BeginRecord(3))
        assert lsn == 2


class TestReading:
    def test_records_from_lsn(self):
        log = LogManager()
        for i in range(1, 6):
            log.append(BeginRecord(i))
        assert [r.txn_id for r in log.records(from_lsn=3)] == [3, 4, 5]

    def test_record_at(self):
        log = LogManager()
        log.append(BeginRecord(7))
        assert log.record_at(1).txn_id == 7
        with pytest.raises(WalError):
            log.record_at(99)

    def test_latest_checkpoint(self):
        log = LogManager()
        assert log.latest_checkpoint() is None
        log.append(CheckpointRecord({}))
        cp2 = CheckpointRecord({1: 1})
        log.append(BeginRecord(1))
        log.append(cp2)
        assert log.latest_checkpoint() is cp2

    def test_records_by_type(self):
        log = LogManager()
        log.append(BeginRecord(1))
        log.append(CommitRecord(1, 10))
        assert len(log.records_by_type(RecordType.COMMIT)) == 1


class TestSerialization:
    def roundtrip(self, record):
        record.lsn = record.lsn or 1
        return LogRecord.from_dict(record.to_dict())

    def test_insert_roundtrip(self):
        r = self.roundtrip(InsertRecord(1, "t", (1, "a"), Row(a=1, b="x")))
        assert r.index_name == "t"
        assert r.key == (1, "a")
        assert r.row == Row(a=1, b="x")

    def test_update_roundtrip(self):
        r = self.roundtrip(UpdateRecord(1, "t", (1,), Row(v=1), Row(v=2)))
        assert r.before == Row(v=1)
        assert r.after == Row(v=2)

    def test_delete_roundtrip(self):
        r = self.roundtrip(DeleteRecord(1, "t", (1,), Row(v=1)))
        assert r.before == Row(v=1)

    def test_ghost_and_revive_roundtrip(self):
        g = self.roundtrip(GhostRecord(1, "t", (1,), Row(v=1)))
        assert g.row == Row(v=1)
        rv = self.roundtrip(ReviveRecord(1, "t", (1,), Row(v=2), Row(v=1)))
        assert rv.new_row == Row(v=2)
        assert rv.ghost_row == Row(v=1)

    def test_escrow_roundtrip(self):
        r = self.roundtrip(EscrowDeltaRecord(1, "v", (3,), {"cnt": 1, "total": -5}))
        assert r.deltas == {"cnt": 1, "total": -5}

    def test_commit_roundtrip(self):
        r = self.roundtrip(CommitRecord(4, 99))
        assert r.commit_ts == 99
        assert r.txn_id == 4

    def test_clr_roundtrip(self):
        inner = EscrowDeltaRecord(1, "v", (3,), {"cnt": 2})
        inner.lsn = 5
        clr = CompensationRecord(1, compensated_lsn=5, undo_next_lsn=2, action=inner)
        clr.lsn = 9
        got = LogRecord.from_dict(clr.to_dict())
        assert got.compensated_lsn == 5
        assert got.undo_next_lsn == 2
        assert got.action.deltas == {"cnt": 2}

    def test_checkpoint_roundtrip(self):
        cp = CheckpointRecord({3: 7, 4: 9}, snapshot="snap-1")
        cp.lsn = 1
        got = LogRecord.from_dict(cp.to_dict())
        assert got.active_txns == {3: 7, 4: 9}
        assert got.snapshot == "snap-1"

    def test_dump_and_load(self, tmp_path):
        log = LogManager()
        log.append(BeginRecord(1))
        log.append(InsertRecord(1, "t", (1,), Row(a=1)))
        log.append(CommitRecord(1, 5))
        log.flush()
        path = tmp_path / "wal"
        dump_segments(log, path)
        loaded = load_segments(path)
        assert loaded.tail_lsn() == 3
        assert loaded.flushed_lsn == 3
        types = [r.type for r in loaded.records()]
        assert types == [RecordType.BEGIN, RecordType.INSERT, RecordType.COMMIT]

    def test_dump_excludes_unflushed(self, tmp_path):
        log = LogManager()
        log.append(BeginRecord(1))
        log.flush()
        log.append(BeginRecord(2))
        path = tmp_path / "wal"
        dump_segments(log, path)
        assert load_segments(path).tail_lsn() == 1
