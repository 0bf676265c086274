"""Session API: explicit transactions and autocommit statements."""

import pytest

from repro.common import Row, StorageError, TransactionStateError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView


def sales_db():
    db = Database(EngineConfig())
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v", "sales", group_by=("product",),
        aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
    ))
    return db


class TestAutocommit:
    def test_each_statement_commits(self):
        db = sales_db()
        session = db.session()
        session.insert("sales", {"id": 1, "product": "a", "amount": 5})
        assert db.read_committed("sales", (1,)) is not None
        assert not session.in_transaction()
        assert db.committed_count == 1

    def test_failed_statement_leaves_nothing(self):
        db = sales_db()
        session = db.session()
        session.insert("sales", {"id": 1, "product": "a", "amount": 5})
        with pytest.raises(StorageError):
            session.insert("sales", {"id": 1, "product": "b", "amount": 1})
        assert db.read_committed("sales", (1,))["product"] == "a"
        assert db.active_transactions() == []

    def test_reads_and_scans(self):
        db = sales_db()
        session = db.session()
        session.insert("sales", {"id": 1, "product": "a", "amount": 5})
        assert session.read("v", ("a",))["t"] == 5
        assert len(session.scan("sales")) == 1


class TestExplicitTransactions:
    def test_begin_commit(self):
        db = sales_db()
        session = db.session()
        session.begin()
        session.insert("sales", {"id": 1, "product": "a", "amount": 5})
        session.insert("sales", {"id": 2, "product": "a", "amount": 7})
        # not visible to others yet
        assert db.read_committed("sales", (1,)) is None
        session.commit()
        assert db.read_committed("v", ("a",)) == Row(product="a", n=2, t=12)

    def test_rollback(self):
        db = sales_db()
        session = db.session()
        session.begin()
        session.insert("sales", {"id": 1, "product": "a", "amount": 5})
        session.rollback()
        assert db.read_committed("sales", (1,)) is None
        assert not session.in_transaction()

    def test_savepoints_through_session(self):
        db = sales_db()
        session = db.session()
        session.begin()
        session.insert("sales", {"id": 1, "product": "a", "amount": 5})
        sp = session.savepoint()
        session.insert("sales", {"id": 2, "product": "a", "amount": 99})
        session.rollback_to(sp)
        session.commit()
        assert db.read_committed("v", ("a",)) == Row(product="a", n=1, t=5)

    def test_double_begin_rejected(self):
        session = sales_db().session()
        session.begin()
        with pytest.raises(TransactionStateError):
            session.begin()
        session.rollback()

    def test_commit_without_begin_rejected(self):
        session = sales_db().session()
        with pytest.raises(TransactionStateError):
            session.commit()

    def test_rollback_without_begin_rejected(self):
        session = sales_db().session()
        with pytest.raises(TransactionStateError):
            session.rollback()

    def test_savepoint_needs_transaction(self):
        session = sales_db().session()
        with pytest.raises(TransactionStateError):
            session.savepoint()


class TestSessionIsolation:
    def test_snapshot_session(self):
        db = sales_db()
        writer = db.session()
        writer.insert("sales", {"id": 1, "product": "a", "amount": 5})
        reader = db.session(isolation="snapshot")
        reader.begin()
        assert reader.read("v", ("a",))["n"] == 1
        writer.insert("sales", {"id": 2, "product": "a", "amount": 5})
        assert reader.read("v", ("a",))["n"] == 1  # stable snapshot
        reader.commit()

    def test_snapshot_session_autocommit_sql_reads_past_writer(self):
        db = sales_db()
        writer = db.session()
        writer.insert("sales", {"id": 1, "product": "a", "amount": 5})
        writer.begin()
        writer.update("sales", (1,), {"amount": 9})  # holds the X lock
        reader = db.session(isolation="snapshot")
        rows = reader.execute("SELECT amount FROM sales WHERE id = 1")
        assert [dict(r) for r in rows] == [{"amount": 5}]
        writer.commit()

    def test_autocommit_sql_uses_session_policy(self):
        from repro.txn.transaction import LockPolicy

        db = sales_db()
        opened = []
        begin = db.begin

        def recording_begin(**kwargs):
            opened.append(kwargs)
            return begin(**kwargs)

        db.begin = recording_begin
        session = db.session(
            isolation="snapshot", policy=LockPolicy.COOPERATIVE
        )
        session.execute("SELECT * FROM sales WHERE id = 1")
        assert opened == [
            {"policy": LockPolicy.COOPERATIVE, "isolation": "snapshot"}
        ]

    def test_two_sessions_conflict_like_transactions(self):
        from repro.common import LockTimeoutError

        db = sales_db()
        s1, s2 = db.session(), db.session()
        s1.insert("sales", {"id": 1, "product": "a", "amount": 5})
        s1.begin()
        s1.update("sales", (1,), {"amount": 9})
        s2.begin()
        with pytest.raises(LockTimeoutError):
            s2.update("sales", (1,), {"amount": 3})
        s2.rollback()
        s1.commit()
        assert db.read_committed("sales", (1,))["amount"] == 9

    def test_repr(self):
        session = sales_db().session()
        assert "idle" in repr(session)
        session.begin()
        assert "active" in repr(session)
        session.rollback()
