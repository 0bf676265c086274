"""Ghost records and the asynchronous cleaner."""

import pytest

from repro.common import Row
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


def one_sale_then_delete(db):
    txn = db.begin()
    db.insert(txn, "sales", {"id": 1, "product": "hot", "amount": 10})
    db.commit(txn)
    t2 = db.begin()
    db.delete(t2, "sales", (1,))
    db.commit(t2)


class TestGhostCreation:
    def test_escrow_strategy_leaves_zero_row_until_cleanup(self):
        db = sales_db("escrow")
        one_sale_then_delete(db)
        record = db.index("by_product").get_record(("hot",), include_ghost=True)
        assert record is not None
        assert not record.is_ghost  # zero-count, still live, queued
        assert record.current_row["n"] == 0
        assert ("by_product", ("hot",)) in db.cleanup.snapshot()

    def test_xlock_strategy_ghosts_inline(self):
        db = sales_db("xlock")
        one_sale_then_delete(db)
        record = db.index("by_product").get_record(("hot",), include_ghost=True)
        assert record is not None
        assert record.is_ghost

    def test_base_delete_ghosts_base_row(self):
        db = sales_db()
        one_sale_then_delete(db)
        record = db.index("sales").get_record((1,), include_ghost=True)
        assert record is not None and record.is_ghost


class TestCleaner:
    @pytest.mark.parametrize("strategy", ["escrow", "xlock"])
    def test_cleanup_removes_everything(self, strategy):
        db = sales_db(strategy)
        one_sale_then_delete(db)
        removed = db.run_ghost_cleanup()
        assert removed >= 2  # the base row's ghost and the view row
        assert db.index("by_product").total_entries() == 0
        assert db.index("sales").total_entries() == 0
        assert len(db.cleanup) == 0
        db.index("by_product").check_invariants()

    def test_cleanup_drops_escrow_accounts(self):
        db = sales_db("escrow")
        one_sale_then_delete(db)
        assert db.escrow.existing(("by_product", ("hot",), "n")) is not None
        db.run_ghost_cleanup()
        assert db.escrow.existing(("by_product", ("hot",), "n")) is None

    def test_cleanup_skips_revived_group(self):
        db = sales_db("escrow")
        one_sale_then_delete(db)
        txn = db.begin()
        db.insert(txn, "sales", {"id": 2, "product": "hot", "amount": 5})
        db.commit(txn)
        removed = db.run_ghost_cleanup()
        # base ghost for key (1,) goes; the view group must survive
        assert db.read_committed("by_product", ("hot",)) == Row(
            product="hot", n=1, total=5
        )
        assert removed >= 1
        assert db.check_all_views() == []

    def test_cleanup_requeues_on_contention(self):
        db = sales_db("escrow")
        one_sale_then_delete(db)
        blocker = db.begin()
        # hold an S lock on the zero-count view row
        db.read(blocker, "by_product", ("hot",))  # returns None but locks
        before = len(db.cleanup)
        db.run_ghost_cleanup()
        # the view candidate was requeued, not silently dropped
        assert ("by_product", ("hot",)) in db.cleanup.snapshot()
        assert db.cleaner.requeued >= 1
        db.commit(blocker)
        db.run_ghost_cleanup()
        assert ("by_product", ("hot",)) not in db.cleanup.snapshot()
        assert before >= 1

    def test_cleanup_survives_crash(self):
        """Cleanup commits as a system transaction: once done, a crash and
        recovery must not resurrect the ghost."""
        db = sales_db("escrow")
        one_sale_then_delete(db)
        db.run_ghost_cleanup()
        db.simulate_crash_and_recover()
        assert db.index("by_product").total_entries() == 0
        assert db.check_all_views() == []

    def test_limit_respected(self):
        db = sales_db("escrow")
        txn = db.begin()
        for i in range(5):
            db.insert(txn, "sales", {"id": i, "product": f"p{i}", "amount": 1})
        db.commit(txn)
        t2 = db.begin()
        for i in range(5):
            db.delete(t2, "sales", (i,))
        db.commit(t2)
        assert len(db.cleanup) == 10  # 5 base ghosts + 5 view candidates
        removed = db.run_ghost_cleanup(limit=3)
        assert removed <= 3
        assert len(db.cleanup) >= 7


class TestCleanupQueue:
    def test_dedup(self):
        from repro.core import CleanupQueue

        q = CleanupQueue()
        q.enqueue("i", (1,))
        q.enqueue("i", (1,))
        assert len(q) == 1

    def test_cancel(self):
        from repro.core import CleanupQueue

        q = CleanupQueue()
        q.enqueue("i", (1,))
        q.cancel("i", (1,))
        assert q.pop() is None

    def test_fifo_pop(self):
        from repro.core import CleanupQueue

        q = CleanupQueue()
        q.enqueue("i", (1,))
        q.enqueue("i", (2,))
        assert q.pop() == ("i", (1,))
        assert q.pop() == ("i", (2,))
        assert q.pop() is None
