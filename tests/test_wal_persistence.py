"""Durability across process restarts: dump the WAL segment chain,
rebuild elsewhere."""

import pytest

from repro.common import Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView


def build_schema(strategy="escrow"):
    db = Database(EngineConfig(aggregate_strategy=strategy))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("total", "amount"),
        ],
    ))
    return db


class TestWalDumpRestore:
    def test_roundtrip(self, tmp_path):
        db = build_schema()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.insert(txn, "sales", {"id": 2, "product": "ant", "amount": 12})
        db.commit(txn)
        path = tmp_path / "wal"
        db.dump_wal_segments(path)

        fresh = build_schema()  # a new process: schema first, then restore
        report = fresh.load_wal_segments_and_recover(path)
        assert report.winners
        assert fresh.read_committed("sales", (1,)) == Row(
            id=1, product="ant", amount=30
        )
        assert fresh.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=2, total=42
        )
        assert fresh.check_all_views() == []

    def test_open_txn_rolled_back_on_restore(self, tmp_path):
        db = build_schema()
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(t1)
        t2 = db.begin()
        db.insert(t2, "sales", {"id": 2, "product": "ant", "amount": 99})
        path = tmp_path / "wal"
        db.dump_wal_segments(path)  # flushes, so t2's records are in the dump

        fresh = build_schema()
        report = fresh.load_wal_segments_and_recover(path)
        assert report.losers
        assert fresh.read_committed("sales", (2,)) is None
        assert fresh.read_committed("by_product", ("ant",))["total"] == 30
        assert fresh.check_all_views() == []

    def test_restored_db_continues_working(self, tmp_path):
        db = build_schema()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(txn)
        path = tmp_path / "wal"
        db.dump_wal_segments(path)

        fresh = build_schema()
        fresh.load_wal_segments_and_recover(path)
        # transaction ids and timestamps continue past the restored log
        t2 = fresh.begin()
        fresh.insert(t2, "sales", {"id": 2, "product": "ant", "amount": 12})
        fresh.commit(t2)
        assert fresh.read_committed("by_product", ("ant",))["total"] == 42
        # and the extended log can round-trip again
        path2 = tmp_path / "wal2"
        fresh.dump_wal_segments(path2)
        third = build_schema()
        third.load_wal_segments_and_recover(path2)
        assert third.read_committed("by_product", ("ant",))["total"] == 42
        assert third.check_all_views() == []

    def test_snapshot_reads_work_after_restore(self, tmp_path):
        db = build_schema()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
        db.commit(txn)
        path = tmp_path / "wal"
        db.dump_wal_segments(path)
        fresh = build_schema()
        fresh.load_wal_segments_and_recover(path)
        reader = fresh.begin(isolation="snapshot")
        assert fresh.read(reader, "by_product", ("ant",))["total"] == 30
        fresh.commit(reader)

    def test_restore_with_checkpoint(self, tmp_path):
        db = build_schema()
        for i in range(20):
            txn = db.begin()
            db.insert(txn, "sales", {"id": i, "product": "p", "amount": 1})
            db.commit(txn)
        db.take_checkpoint()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 99, "product": "p", "amount": 1})
        db.commit(txn)
        path = tmp_path / "wal"
        db.dump_wal_segments(path)
        fresh = build_schema()
        report = fresh.load_wal_segments_and_recover(path)
        assert fresh.read_committed("by_product", ("p",))["n"] == 21
        assert report.analyzed_records < len(fresh.log)
        assert fresh.check_all_views() == []


class TestVersionPruning:
    def test_prune_drops_invisible_versions(self):
        db = build_schema()
        for i in range(5):
            txn = db.begin()
            db.insert(txn, "sales", {"id": i, "product": "ant", "amount": 1})
            db.commit(txn)
        record = db.index("by_product").get_record(("ant",))
        assert record.version_count() == 5
        dropped = db.prune_versions()
        assert dropped > 0
        assert record.version_count() == 1
        # the surviving version is still readable
        assert db.read_committed("by_product", ("ant",))["n"] == 5

    def test_prune_respects_active_snapshots(self):
        db = build_schema()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 1})
        db.commit(txn)
        reader = db.begin(isolation="snapshot")
        for i in range(2, 5):
            t = db.begin()
            db.insert(t, "sales", {"id": i, "product": "ant", "amount": 1})
            db.commit(t)
        db.prune_versions()
        # the reader's snapshot must still be answerable
        assert db.read(reader, "by_product", ("ant",))["n"] == 1
        db.commit(reader)
        db.prune_versions()
        record = db.index("by_product").get_record(("ant",))
        assert record.version_count() == 1
