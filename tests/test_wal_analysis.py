"""Tests for WAL analysis utilities and B-tree bulk loading."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import StorageError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.storage import BPlusTree
from repro.views import AggregateView
from repro.wal import RecordType
from repro.wal.analysis import (
    bytes_by_type,
    maintenance_share,
    records_by_type,
    summarize,
    txn_footprint,
)


def busy_db():
    db = Database(EngineConfig(aggregate_strategy="escrow"))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v", "sales", group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    t1 = db.begin()
    db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 5})
    db.insert(t1, "sales", {"id": 2, "product": "a", "amount": 7})
    db.commit(t1)
    t2 = db.begin()
    db.insert(t2, "sales", {"id": 3, "product": "b", "amount": 1})
    db.abort(t2)
    return db, t1.txn_id, t2.txn_id


class TestLogAnalysis:
    def test_records_by_type(self):
        db, _, _ = busy_db()
        counts = records_by_type(db.log)
        assert counts[RecordType.BEGIN] == 2
        assert counts[RecordType.COMMIT] == 1
        assert counts[RecordType.ABORT] == 1
        assert counts[RecordType.ESCROW_DELTA] >= 2
        assert counts[RecordType.CLR] >= 1

    def test_bytes_by_type_sums_to_estimate(self):
        db, _, _ = busy_db()
        assert sum(bytes_by_type(db.log).values()) == db.log.bytes_estimate

    def test_txn_footprint_committed(self):
        db, committed_id, _ = busy_db()
        fp = txn_footprint(db.log, committed_id)
        assert fp["committed"] and fp["ended"] and not fp["aborted"]
        assert "sales" in fp["indexes"]
        assert "v" in fp["indexes"]
        assert fp["records"] >= 6  # begin,2 inserts,2 deltas(+create),commit,end

    def test_txn_footprint_aborted(self):
        db, _, aborted_id = busy_db()
        fp = txn_footprint(db.log, aborted_id)
        assert fp["aborted"] and fp["ended"] and not fp["committed"]

    def test_summarize(self):
        db, _, _ = busy_db()
        summary = summarize(db.log)
        assert summary["transactions_seen"] == 2
        assert summary["commits"] == 1
        assert summary["aborts"] == 1
        assert summary["total_records"] == len(db.log)
        assert summary["by_type"]["begin"] == 2

    def test_maintenance_share(self):
        db, _, _ = busy_db()
        share = maintenance_share(db.log)
        assert share["counter_maintenance_records"] >= 2
        assert 0 < share["counter_maintenance_fraction"] < 1


class TestBulkBuild:
    def test_basic(self):
        t = BPlusTree(order=4)
        t.bulk_build([((i,), i * 10) for i in range(100)])
        t.check_invariants()
        assert len(t) == 100
        assert t.get((42,)) == 420
        assert list(t.keys()) == [(i,) for i in range(100)]

    def test_empty(self):
        t = BPlusTree(order=4)
        t.bulk_build([])
        assert len(t) == 0

    def test_single(self):
        t = BPlusTree(order=4)
        t.bulk_build([((1,), "a")])
        t.check_invariants()
        assert t.get((1,)) == "a"

    def test_replaces_existing_contents(self):
        t = BPlusTree(order=4)
        t.insert((99,), "old")
        t.bulk_build([((1,), "new")])
        assert t.get((99,)) is None
        assert len(t) == 1

    def test_unsorted_rejected(self):
        t = BPlusTree(order=4)
        with pytest.raises(StorageError):
            t.bulk_build([((2,), 1), ((1,), 1)])

    def test_duplicates_rejected(self):
        t = BPlusTree(order=4)
        with pytest.raises(StorageError):
            t.bulk_build([((1,), 1), ((1,), 2)])

    def test_mutations_after_bulk_build(self):
        t = BPlusTree(order=4)
        t.bulk_build([((i,), i) for i in range(0, 100, 2)])
        for i in range(1, 100, 2):
            t.insert((i,), i)
        for i in range(0, 100, 4):
            t.delete((i,))
        t.check_invariants()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sets(st.integers(min_value=0, max_value=500), max_size=150),
        st.sampled_from([4, 5, 8, 32]),
    )
    def test_matches_incremental_build(self, keys, order):
        items = [((k,), k) for k in sorted(keys)]
        bulk = BPlusTree(order=order)
        bulk.bulk_build(items)
        bulk.check_invariants()
        incremental = BPlusTree(order=order)
        for key, value in items:
            incremental.insert(key, value)
        assert list(bulk.items()) == list(incremental.items())
        # navigation primitives agree too
        for probe in (0, 37, 250, 501):
            assert bulk.next_key((probe,)) == incremental.next_key((probe,))
            assert bulk.prev_key((probe,)) == incremental.prev_key((probe,))
