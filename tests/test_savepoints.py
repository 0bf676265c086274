"""Savepoints: partial rollback through the undo machinery."""

import pytest

from repro.common import Row, TransactionStateError
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView


def sales_db(strategy="escrow"):
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


def add(db, txn, sale_id, product, amount):
    db.insert(txn, "sales", {"id": sale_id, "product": product, "amount": amount})


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
class TestSavepointBasics:
    def test_rollback_to_savepoint_keeps_prefix(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add(db, txn, 1, "ant", 10)
        sp = db.savepoint(txn)
        add(db, txn, 2, "ant", 99)
        add(db, txn, 3, "bee", 5)
        db.rollback_to(txn, sp)
        db.commit(txn)
        assert db.read_committed("sales", (1,)) is not None
        assert db.read_committed("sales", (2,)) is None
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=10
        )
        assert db.read_committed("by_product", ("bee",)) is None
        assert db.check_all_views() == []

    def test_work_after_partial_rollback(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add(db, txn, 1, "ant", 10)
        sp = db.savepoint(txn)
        add(db, txn, 2, "ant", 99)
        db.rollback_to(txn, sp)
        add(db, txn, 3, "ant", 7)  # keep working after the rollback
        db.commit(txn)
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=2, total=17
        )
        assert db.check_all_views() == []

    def test_full_abort_after_partial_rollback(self, strategy):
        db = sales_db(strategy)
        seed = db.begin()
        add(db, seed, 1, "ant", 10)
        db.commit(seed)
        txn = db.begin()
        add(db, txn, 2, "ant", 20)
        sp = db.savepoint(txn)
        add(db, txn, 3, "ant", 30)
        db.rollback_to(txn, sp)
        db.abort(txn)  # must not double-compensate record 3
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=10
        )
        assert db.check_all_views() == []

    def test_nested_savepoints(self, strategy):
        db = sales_db(strategy)
        txn = db.begin()
        add(db, txn, 1, "a", 1)
        sp1 = db.savepoint(txn)
        add(db, txn, 2, "a", 2)
        sp2 = db.savepoint(txn)
        add(db, txn, 3, "a", 4)
        db.rollback_to(txn, sp2)  # undoes id=3
        add(db, txn, 4, "a", 8)
        db.rollback_to(txn, sp1)  # undoes id=4 and id=2
        db.commit(txn)
        assert db.read_committed("by_product", ("a",)) == Row(
            product="a", n=1, total=1
        )
        assert db.check_all_views() == []

    def test_savepoint_of_other_txn_rejected(self, strategy):
        db = sales_db(strategy)
        t1 = db.begin()
        t2 = db.begin()
        sp = db.savepoint(t1)
        with pytest.raises(TransactionStateError):
            db.rollback_to(t2, sp)
        db.abort(t1)
        db.abort(t2)

    def test_rollback_of_delete(self, strategy):
        db = sales_db(strategy)
        seed = db.begin()
        add(db, seed, 1, "ant", 10)
        db.commit(seed)
        txn = db.begin()
        sp = db.savepoint(txn)
        db.delete(txn, "sales", (1,))
        db.rollback_to(txn, sp)
        db.commit(txn)
        assert db.read_committed("sales", (1,)) is not None
        assert db.read_committed("by_product", ("ant",))["n"] == 1
        db.run_ghost_cleanup()
        assert db.check_all_views() == []

    def test_rollback_of_update(self, strategy):
        db = sales_db(strategy)
        seed = db.begin()
        add(db, seed, 1, "ant", 10)
        db.commit(seed)
        txn = db.begin()
        sp = db.savepoint(txn)
        db.update(txn, "sales", (1,), {"amount": 99})
        db.rollback_to(txn, sp)
        db.commit(txn)
        assert db.read_committed("sales", (1,))["amount"] == 10
        assert db.read_committed("by_product", ("ant",))["total"] == 10
        assert db.check_all_views() == []


class TestSavepointEscrowInteraction:
    def test_partial_rollback_releases_escrow_reservation(self):
        """After rolling back past an escrow reservation, another
        transaction's bound check sees the reservation gone."""
        db = sales_db("escrow")
        seed = db.begin()
        add(db, seed, 1, "hot", 10)
        db.commit(seed)
        txn = db.begin()
        sp = db.savepoint(txn)
        add(db, txn, 2, "hot", 50)
        account = db.escrow.existing(("by_product", ("hot",), "total"))
        assert account.pending_of(txn.txn_id) == 50
        db.rollback_to(txn, sp)
        assert account.pending_of(txn.txn_id) == 0
        db.commit(txn)
        assert db.read_committed("by_product", ("hot",))["total"] == 10
        assert db.check_all_views() == []

    def test_crash_after_partial_rollback(self):
        db = sales_db("escrow")
        txn = db.begin()
        add(db, txn, 1, "ant", 10)
        sp = db.savepoint(txn)
        add(db, txn, 2, "ant", 99)
        db.rollback_to(txn, sp)
        db.commit(txn)
        db.simulate_crash_and_recover()
        assert db.read_committed("by_product", ("ant",)) == Row(
            product="ant", n=1, total=10
        )
        assert db.check_all_views() == []

    def test_crash_with_open_txn_after_partial_rollback(self):
        db = sales_db("escrow")
        txn = db.begin()
        add(db, txn, 1, "ant", 10)
        sp = db.savepoint(txn)
        add(db, txn, 2, "ant", 99)
        db.rollback_to(txn, sp)
        add(db, txn, 3, "bee", 5)
        db.log.flush()  # durable but uncommitted
        db.simulate_crash_and_recover()
        assert db.read_committed("sales", (1,)) is None
        assert db.read_committed("by_product", ("ant",)) is None
        assert db.check_all_views() == []


class TestTransactionContextManager:
    def test_commit_on_success(self):
        db = sales_db()
        with db.transaction() as txn:
            add(db, txn, 1, "ant", 10)
        assert db.read_committed("sales", (1,)) is not None

    def test_abort_on_exception(self):
        db = sales_db()
        with pytest.raises(RuntimeError):
            with db.transaction() as txn:
                add(db, txn, 1, "ant", 10)
                raise RuntimeError("boom")
        assert db.read_committed("sales", (1,)) is None
        assert db.check_all_views() == []

    def test_snapshot_isolation_option(self):
        db = sales_db()
        with db.transaction() as txn:
            add(db, txn, 1, "ant", 10)
        with db.transaction(isolation="snapshot") as txn:
            assert db.read(txn, "by_product", ("ant",))["n"] == 1

    def test_already_aborted_txn_tolerated(self):
        db = sales_db()
        with db.transaction() as txn:
            add(db, txn, 1, "ant", 10)
            db.abort(txn)  # user resolved it inside the block
        assert db.read_committed("sales", (1,)) is None
