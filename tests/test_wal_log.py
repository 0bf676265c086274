"""Tests for log records and the log manager."""

import json

import pytest

from repro.common import Row, WalError
from repro.wal import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    CleanupRecord,
    CommitRecord,
    CompensationRecord,
    DecisionRecord,
    DeleteRecord,
    EndRecord,
    EscrowDeltaRecord,
    GhostRecord,
    InsertRecord,
    LogManager,
    LogRecord,
    PrepareRecord,
    RecordType,
    ReviveRecord,
    UpdateRecord,
    bytes_by_type,
    txn_footprint,
)
from repro.wal.records import CounterImageRecord
from repro.wal.segments import dump_segments, load_segments, recycle_segments


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

    def test_bytes_estimate_is_the_json_length_of_every_record(self):
        log = interleaved_log()
        log.append(CheckpointRecord({1: 3}, dirty_pages={4: 2}, kind="fuzzy"))
        inner = log.record_at(3)
        log.append(CompensationRecord(1, 3, inner.prev_lsn, inner))
        sizes = [
            len(json.dumps(r.to_dict(), default=str)) for r in log.records()
        ]
        assert log.bytes_estimate == sum(sizes)
        assert sum(bytes_by_type(log).values()) == sum(sizes)
        assert txn_footprint(log, 2)["bytes"] == log.bytes_of(2) == sum(
            size for size, r in zip(sizes, log.records()) if r.txn_id == 2
        )

    def test_records_are_stamped_at_append(self):
        log = LogManager()
        record = InsertRecord(1, "t", (1,), Row(a=1))
        log.append(record)
        assert record.stored_crc == record.checksum()
        unstamped = LogManager(checksums=False)
        other = InsertRecord(1, "t", (1,), Row(a=1))
        unstamped.append(other)
        assert other.stored_crc is None

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

    def test_flush_no_faults_respects_the_bound(self):
        log = LogManager()
        for i in range(5):
            log.append(BeginRecord(i))
        log.flush_no_faults(up_to_lsn=2)
        assert log.flushed_lsn == 2
        log.flush_no_faults(up_to_lsn=99)
        assert log.flushed_lsn == 5

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


def interleaved_log():
    """Three transactions interleaved record by record, with a
    checkpoint (no backchain) in the middle; everything unflushed."""
    log = LogManager()
    for txn in (1, 2, 3):
        log.append(BeginRecord(txn))
    for i in range(1, 4):
        for txn in (1, 2, 3):
            if (txn, i) == (2, 2):
                log.append(CheckpointRecord({1: 4, 2: 5, 3: 6}))
            log.append(InsertRecord(txn, "t", (txn, i), Row(a=i)))
    log.append(CommitRecord(1, 1))
    log.append(EscrowDeltaRecord(3, "v", (3,), {"n": 1}))
    log.append(AbortRecord(2))
    return log


def brute_force_heads(log):
    heads = {}
    for record in log.records():
        if record.txn_id is not None:
            heads[record.txn_id] = record.lsn
    return heads


def assert_indexed(log, first_lsn):
    """The log is dense from ``first_lsn`` to its tail, indexed by LSN,
    and its backchain heads match a rebuild from the survivors."""
    tail = log.tail_lsn()
    assert [r.lsn for r in log.records()] == list(range(first_lsn, tail + 1))
    for lsn in range(first_lsn, tail + 1):
        assert log.record_at(lsn).lsn == lsn
        assert [r.lsn for r in log.records(lsn)] == list(range(lsn, tail + 1))
    for outside in (first_lsn - 1, tail + 1):
        with pytest.raises(WalError):
            log.record_at(outside)
    heads = brute_force_heads(log)
    for txn in (1, 2, 3):
        assert log.last_lsn_of(txn) == heads.get(txn)


class TestLsnIndex:
    def test_truncate_from_every_cut_point(self):
        tail = interleaved_log().tail_lsn()
        for cut in range(1, tail + 2):
            log = interleaved_log()
            dropped = log.truncate_from(cut)
            assert [r.lsn for r in dropped] == list(range(cut, tail + 1))
            assert log.tail_lsn() == cut - 1
            assert_indexed(log, 1)
            # the next append lands at the cut and links to the survivor
            lsn = log.append(BeginRecord(2))
            assert lsn == cut
            assert log.record_at(cut).prev_lsn == brute_force_heads(
                interleaved_log_prefix(cut)
            ).get(2)
            assert_indexed(log, 1)

    def test_crash_at_every_flush_point(self):
        tail = interleaved_log().tail_lsn()
        for flushed in range(0, tail + 1):
            log = interleaved_log()
            log.flush(up_to_lsn=flushed)
            lost = log.crash()
            assert [r.lsn for r in lost] == list(range(flushed + 1, tail + 1))
            assert log.flushed_lsn == log.tail_lsn() == flushed
            assert_indexed(log, 1)

    def test_loaded_chain_with_a_recycled_head(self, tmp_path):
        log = interleaved_log()
        log.flush()
        tail = log.tail_lsn()
        dump_segments(log, tmp_path, segment_bytes=150)
        assert recycle_segments(tmp_path, keep_from_lsn=6)
        base = load_segments(tmp_path)._records[0].lsn
        assert 1 < base <= 6
        for cut in range(base, tail + 2):
            loaded = load_segments(tmp_path)
            assert loaded.undecodable_tail == 0
            assert_indexed(loaded, base)
            loaded.truncate_from(cut)
            assert loaded.tail_lsn() == cut - 1
            assert_indexed(loaded, base)
            loaded.append(BeginRecord(4))
            assert loaded.record_at(cut).lsn == cut
        loaded = load_segments(tmp_path)
        loaded.crash()  # everything loaded is durable: nothing is lost
        assert loaded.tail_lsn() == tail
        assert_indexed(loaded, base)


def interleaved_log_prefix(cut):
    log = interleaved_log()
    log.truncate_from(cut)
    return log


def _sample(record, lsn=4, prev_lsn=2):
    record.lsn, record.prev_lsn = lsn, prev_lsn
    return record


#: one instance of every record type, with every optional field set
SAMPLES = {
    "begin": BeginRecord(1),
    "begin-system": BeginRecord(9, is_system=True),
    "commit": CommitRecord(4, 99),
    "abort": AbortRecord(4),
    "end": EndRecord(4),
    "insert": InsertRecord(1, "t", (1, "a"), Row(a=1, b="x")),
    "update": UpdateRecord(1, "t", (1,), Row(v=1), Row(v=2)),
    "delete": DeleteRecord(1, "t", (1,), Row(v=1)),
    "ghost": GhostRecord(1, "t", (1,), Row(v=1)),
    "revive": ReviveRecord(1, "t", (1,), Row(v=2), Row(v=1)),
    "cleanup": CleanupRecord(9, "t", (1,), Row(v=1)),
    "escrow-delta": EscrowDeltaRecord(1, "v", (3,), {"cnt": 1, "total": -5}),
    "counter-image": CounterImageRecord(1, "v", (3,), Row(cnt=1), Row(cnt=2)),
    "clr": CompensationRecord(
        1, 4, 2, _sample(EscrowDeltaRecord(1, "v", (3,), {"cnt": 2}))
    ),
    "checkpoint-sharp": CheckpointRecord(
        {3: 7, 4: 9}, snapshot={"t": [[[1], {"a": 1}, False]]}
    ),
    "checkpoint-fuzzy": CheckpointRecord(
        {3: 7}, dirty_pages={5: 2, 6: 3}, kind="fuzzy"
    ),
    "prepare": PrepareRecord(1, "G1.0"),
    "decision": DecisionRecord("G1.0", "commit", [0, 2]),
}


def test_samples_cover_every_record_type():
    assert {r.type for r in SAMPLES.values()} == set(RecordType)


class TestSerialization:
    @pytest.mark.parametrize("record", SAMPLES.values(), ids=SAMPLES.keys())
    def test_every_record_type_roundtrips(self, record):
        record = _sample(record, lsn=7, prev_lsn=record.txn_id and 5)
        got = LogRecord.from_dict(json.loads(record.encode()))
        assert type(got) is type(record)
        assert got.to_dict() == record.to_dict()
        assert got.encode() == record.encode()
        for field in type(record)._fields:
            if field.attr != "action":
                assert getattr(got, field.attr) == getattr(record, field.attr)
        assert repr(got) == repr(record)


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
