"""Multi-granularity intention locks and lock escalation."""

import pytest

from repro.common import LockTimeoutError
from repro.core import Database, EngineConfig
from repro.locking import LockMode
from repro.locking.escalation import intent_for
from repro.locking.modes import RangeMode
from repro.query import AggregateSpec
from repro.common import ReproError
from repro.views import AggregateView


def sales_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
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


def load(db, n, product="p"):
    txn = db.begin()
    for i in range(n):
        db.insert(txn, "sales", {"id": i, "product": f"{product}{i}", "amount": 1})
    db.commit(txn)


class TestIntentFor:
    def test_read_modes_need_is(self):
        assert intent_for(LockMode.S) is LockMode.IS
        assert intent_for(LockMode.U) is LockMode.IS
        assert intent_for(RangeMode.RANGE_S_S) is LockMode.IS

    def test_write_modes_need_ix(self):
        assert intent_for(LockMode.X) is LockMode.IX
        assert intent_for(LockMode.E) is LockMode.IX
        assert intent_for(RangeMode.RANGE_I_N) is LockMode.IX
        assert intent_for(RangeMode.RANGE_X_X) is LockMode.IX


class TestIntentionLocks:
    def test_key_read_takes_table_is(self):
        db = sales_db()
        load(db, 3)
        txn = db.begin()
        db.read(txn, "sales", (1,))
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
        db.commit(txn)

    def test_view_maintenance_takes_table_ix_on_view(self):
        db = sales_db()
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 1})
        assert db.locks.held_mode(txn.txn_id, ("table", "by_product")) is LockMode.IX
        db.commit(txn)

    def test_intent_conflicts_protect_table_locks(self):
        """A transaction holding table X blocks fine-grained users."""
        db = sales_db()
        load(db, 3)
        t1 = db.begin()
        t1.acquire(("table", "sales"), LockMode.X)
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.read(t2, "sales", (1,))  # IS vs X conflicts
        db.abort(t2)
        db.commit(t1)


class TestEscalation:
    def test_scan_escalates_to_table_s(self):
        db = sales_db(escalation_threshold=5)
        load(db, 20)
        txn = db.begin()
        db.scan(txn, "sales")
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.S
        assert db.escalation.escalations >= 1
        # well under 20 key locks were taken
        key_locks = [
            r for r, _ in db.locks.locks_of(txn.txn_id) if r[0] == "key"
        ]
        assert len(key_locks) <= 5
        db.commit(txn)

    def test_writes_escalate_to_table_x(self):
        db = sales_db(escalation_threshold=3)
        load(db, 10)
        txn = db.begin()
        for i in range(8):
            db.update(txn, "sales", (i,), {"amount": 2})
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.X
        db.commit(txn)
        assert db.check_all_views() == []

    def test_escalated_table_s_upgrades_on_write(self):
        db = sales_db(escalation_threshold=3)
        load(db, 10)
        txn = db.begin()
        db.scan(txn, "sales")  # escalates to table S
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.S
        db.update(txn, "sales", (1,), {"amount": 9})
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.X
        db.commit(txn)
        assert db.check_all_views() == []

    def test_escalated_lock_blocks_other_writers(self):
        db = sales_db(escalation_threshold=2)
        load(db, 10)
        t1 = db.begin()
        db.scan(t1, "sales")  # table S held
        t2 = db.begin()
        with pytest.raises(LockTimeoutError):
            db.update(t2, "sales", (9,), {"amount": 5})  # IX vs S conflicts
        db.abort(t2)
        db.commit(t1)

    def test_no_escalation_when_disabled(self):
        db = sales_db()  # threshold None
        load(db, 20)
        txn = db.begin()
        db.scan(txn, "sales")
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
        assert db.escalation.escalations == 0
        db.commit(txn)

    def test_results_identical_with_and_without_escalation(self):
        def run(threshold):
            db = sales_db(escalation_threshold=threshold)
            load(db, 15)
            txn = db.begin()
            for i in range(10):
                db.update(txn, "sales", (i,), {"amount": i * 2})
            db.commit(txn)
            t2 = db.begin()
            rows = db.scan(t2, "by_product")
            db.commit(t2)
            assert db.check_all_views() == []
            return rows

        assert run(None) == run(3)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(escalation_threshold=0)

    def test_escalation_counts_per_index(self):
        """Locks on different indexes do not pool toward one threshold."""
        db = sales_db(escalation_threshold=4)
        load(db, 3)  # 3 products in view, 3 sales rows
        txn = db.begin()
        db.read(txn, "sales", (0,))
        db.read(txn, "sales", (1,))
        db.read(txn, "by_product", ("p0",))
        db.read(txn, "by_product", ("p1",))
        # neither index crossed the threshold of 4
        assert db.locks.held_mode(txn.txn_id, ("table", "sales")) is LockMode.IS
        assert db.locks.held_mode(txn.txn_id, ("table", "by_product")) is LockMode.IS
        db.commit(txn)
