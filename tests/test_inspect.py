"""Tests for the introspection module."""

from repro.core import Database, EngineConfig
from repro.core.inspect import (
    health_report,
    lock_table,
    render_lock_table,
    render_transactions,
    storage_report,
    transaction_report,
    waits_for_edges,
)
from repro.query import AggregateSpec
from repro.views import AggregateView


def make_db():
    db = Database(EngineConfig())
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product", "sales", group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    return db


class TestLockTable:
    def test_empty_when_idle(self):
        assert lock_table(make_db()) == []

    def test_shows_holders_and_waiters(self):
        from repro.locking import LockMode

        db = make_db()
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 1})
        t2 = db.begin()
        db.locks.request(t2.txn_id, ("key", "sales", (1,)), LockMode.S)
        table = lock_table(db)
        assert any(
            entry["resource"] == ("key", "sales", (1,)) and entry["waiters"]
            for entry in table
        )
        db.locks.cancel_wait(t2.txn_id)
        db.abort(t2)
        db.commit(t1)

    def test_render(self):
        db = make_db()
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 1})
        text = render_lock_table(db)
        assert "lock table" in text
        assert "txn" in text
        db.commit(t1)


class TestWaitsFor:
    def test_no_edges_without_waiters(self):
        assert waits_for_edges(make_db()) == []

    def test_edge_appears(self):
        from repro.locking import LockMode

        db = make_db()
        t1 = db.begin()
        t1.acquire(("r",), LockMode.X)
        t2 = db.begin()
        db.locks.request(t2.txn_id, ("r",), LockMode.X)
        assert (t2.txn_id, t1.txn_id) in waits_for_edges(db)
        db.locks.cancel_wait(t2.txn_id)
        db.abort(t2)
        db.abort(t1)


class TestTransactionReport:
    def test_reports_active(self):
        db = make_db()
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 1, "product": "a", "amount": 1})
        report = transaction_report(db)
        assert len(report) == 1
        entry = report[0]
        assert entry["txn_id"] == t1.txn_id
        assert entry["state"] == "active"
        assert entry["locks_held"] > 0
        assert entry["escrow_accounts_touched"] == 2  # n and t
        db.commit(t1)
        assert transaction_report(db) == []

    def test_render(self):
        db = make_db()
        t1 = db.begin()
        text = render_transactions(db)
        assert "active transactions" in text
        db.commit(t1)


class TestStorageAndHealth:
    def test_storage_report(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 1})
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        report = {r["index"]: r for r in storage_report(db)}
        assert report["sales"]["ghosts"] == 1
        assert report["sales"]["live"] == 0
        assert report["by_product"]["versions"] >= 1

    def test_health_report(self):
        db = make_db()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 1})
        db.commit(txn)
        health = health_report(db)
        assert health["committed"] == 1
        assert health["log_records"] > 0
        assert health["active_transactions"] == 0
        assert health["cleanup_backlog"] == 0
        assert "requests" in health["lock_stats"]
