"""Deferred maintenance across every view kind."""

import pytest

from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, col_ge
from repro.views import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
)


def full_schema_db(mode="deferred"):
    db = Database(EngineConfig(maintenance_mode=mode))
    db.create_table("customers", ("cid", "region"), ("cid",))
    db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
    txn = db.begin()
    db.insert(txn, "customers", {"cid": 1, "region": "eu"})
    db.insert(txn, "customers", {"cid": 2, "region": "us"})
    db.commit(txn)
    db.create_view(AggregateView(
        "by_cust", "orders", group_by=("cid",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    db.create_view(JoinView(
        "named", "orders", "customers", on=[("cid", "cid")],
        left_pk=("oid",), right_pk=("cid",),
        columns=("oid", "cid", "amount", "region"),
    ))
    db.create_view(JoinAggregateView(
        "by_region", "orders", "customers", on=[("cid", "cid")],
        left_pk=("oid",), right_pk=("cid",),
        group_by=("region",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    db.create_view(ProjectionView(
        "big", "orders", ("oid",), columns=("oid", "amount"),
        where=col_ge("amount", 50),
    ))
    return db


class TestDeferredAllKinds:
    def test_all_views_stale_then_fresh(self):
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.insert(txn, "orders", {"oid": 11, "cid": 2, "amount": 10})
        db.commit(txn)
        # everything is stale
        assert db.read_committed("by_cust", (1,)) is None
        assert db.read_committed("named", (10, 1)) is None
        assert db.read_committed("by_region", ("eu",)) is None
        assert db.read_committed("big", (10,)) is None
        assert db.deferred.pending_count() == 8  # 2 changes x 4 views
        applied = db.refresh_all_views()
        assert applied == 8
        # everything is fresh and matches the oracle
        assert db.read_committed("by_cust", (1,))["t"] == 100
        assert db.read_committed("named", (10, 1))["region"] == "eu"
        assert db.read_committed("by_region", ("eu",))["t"] == 100
        assert db.read_committed("big", (10,)) is not None
        assert db.read_committed("big", (11,)) is None
        assert db.check_all_views() == []

    def test_deferred_updates_and_deletes(self):
        db = full_schema_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.commit(txn)
        db.refresh_all_views()
        txn = db.begin()
        db.update(txn, "orders", (10,), {"amount": 20})  # leaves 'big'
        db.commit(txn)
        txn = db.begin()
        db.delete(txn, "orders", (10,))
        db.commit(txn)
        db.refresh_all_views()
        db.run_ghost_cleanup()
        assert db.check_all_views() == []
        assert db.read_committed("by_region", ("eu",)) is None

    def test_refresh_limit(self):
        db = full_schema_db()
        for oid in range(5):
            txn = db.begin()
            db.insert(txn, "orders", {"oid": oid, "cid": 1, "amount": 1})
            db.commit(txn)
        assert db.deferred.pending_count("by_cust") == 5
        applied = db.refresh_view("by_cust", limit=2)
        assert applied == 2
        assert db.deferred.pending_count("by_cust") == 3
        db.refresh_all_views()
        assert db.check_all_views() == []

    def test_immediate_mode_has_no_backlog(self):
        db = full_schema_db(mode="immediate")
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 100})
        db.commit(txn)
        assert db.deferred.pending_count() == 0
        assert db.check_all_views() == []
