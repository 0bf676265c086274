"""Join-aggregate views: SELECT g, COUNT, SUM FROM A JOIN B GROUP BY g."""

import pytest

from repro.common import CatalogError, LockTimeoutError, Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, col_ge
from repro.views import JoinAggregateView


def rev_db(strategy="escrow", where=None, **config_kwargs):
    db = Database(EngineConfig(aggregate_strategy=strategy, **config_kwargs))
    db.create_table("customers", ("cid", "region", "tier"), ("cid",))
    db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
    txn = db.begin()
    for cid, region, tier in [(1, "eu", "gold"), (2, "us", "basic"), (3, "eu", "basic")]:
        db.insert(txn, "customers", {"cid": cid, "region": region, "tier": tier})
    db.commit(txn)
    db.create_view(JoinAggregateView(
        "rev_by_region",
        "orders",
        "customers",
        on=[("cid", "cid")],
        left_pk=("oid",), right_pk=("cid",),
        group_by=("region",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("rev", "amount"),
        ],
        where=where,
    ))
    return db


def order(db, txn, oid, cid, amount):
    db.insert(txn, "orders", {"oid": oid, "cid": cid, "amount": amount})


class TestDefinition:
    def test_extremes_rejected(self):
        db = Database()
        db.create_table("a", ("x", "y"), ("x",))
        db.create_table("b", ("y", "g"), ("y",))
        with pytest.raises(CatalogError):
            db.create_view(JoinAggregateView(
                "v", "a", "b", on=[("y", "y")],
                left_pk=("x",), right_pk=("y",), group_by=("g",),
                aggregates=[
                    AggregateSpec.count("n"),
                    AggregateSpec.min_of("m", "x"),
                ],
            ))

    def test_count_required(self):
        db = Database()
        db.create_table("a", ("x", "y"), ("x",))
        db.create_table("b", ("y", "g"), ("y",))
        with pytest.raises(CatalogError):
            db.create_view(JoinAggregateView(
                "v", "a", "b", on=[("y", "y")],
                left_pk=("x",), right_pk=("y",), group_by=("g",),
                aggregates=[AggregateSpec.sum_of("s", "x")],
            ))


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
class TestMaintenance:
    def test_left_inserts_aggregate_through_join(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        order(db, txn, 11, 3, 50)  # also eu
        order(db, txn, 12, 2, 7)
        db.commit(txn)
        assert db.read_committed("rev_by_region", ("eu",)) == Row(
            region="eu", n=2, rev=150
        )
        assert db.read_committed("rev_by_region", ("us",)) == Row(
            region="us", n=1, rev=7
        )
        assert db.check_all_views() == []

    def test_orphan_order_contributes_nothing(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 99, 100)  # no such customer
        db.commit(txn)
        assert len(db.index("rev_by_region")) == 0
        assert db.check_all_views() == []

    def test_left_delete(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        order(db, txn, 11, 1, 50)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "orders", (10,))
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",)) == Row(
            region="eu", n=1, rev=50
        )
        assert db.check_all_views() == []

    def test_left_update_amount(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "orders", (10,), {"amount": 60})
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 60
        assert db.check_all_views() == []

    def test_left_update_fk_moves_groups(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)  # eu
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "orders", (10,), {"cid": 2})  # now us
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",)) is None
        assert db.read_committed("rev_by_region", ("us",))["rev"] == 100
        assert db.check_all_views() == []

    def test_right_insert_backfills(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 7, 100)  # customer 7 does not exist yet
        db.commit(txn)
        assert db.read_committed("rev_by_region", ("eu",)) is None
        t2 = db.begin()
        db.insert(t2, "customers", {"cid": 7, "region": "eu", "tier": "gold"})
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 100
        assert db.check_all_views() == []

    def test_right_delete_removes_contributions(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        order(db, txn, 11, 3, 50)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "customers", (1,))
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",)) == Row(
            region="eu", n=1, rev=50
        )
        assert db.check_all_views() == []

    def test_right_update_moves_all_children(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        order(db, txn, 11, 1, 50)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "customers", (1,), {"region": "apac"})
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",)) is None
        assert db.read_committed("rev_by_region", ("apac",)) == Row(
            region="apac", n=2, rev=150
        )
        assert db.check_all_views() == []

    def test_right_update_irrelevant_column_is_noop(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        db.commit(txn)
        log_len = len(db.log)
        t2 = db.begin()
        db.update(t2, "customers", (1,), {"tier": "platinum"})
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 100
        assert db.check_all_views() == []

    def test_abort_rolls_back(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        db.commit(txn)
        t2 = db.begin()
        order(db, t2, 11, 1, 999)
        db.abort(t2)
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 100
        assert db.check_all_views() == []

    def test_crash_recovery(self, strategy):
        db = rev_db(strategy)
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        db.commit(txn)
        db.simulate_crash_and_recover()
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 100
        t2 = db.begin()
        order(db, t2, 11, 1, 1)
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 101
        assert db.check_all_views() == []

    def test_materialize_over_existing_data(self, strategy):
        db = Database(EngineConfig(aggregate_strategy=strategy))
        db.create_table("customers", ("cid", "region"), ("cid",))
        db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
        txn = db.begin()
        db.insert(txn, "customers", {"cid": 1, "region": "eu"})
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 5})
        db.commit(txn)
        db.create_view(JoinAggregateView(
            "v", "orders", "customers", on=[("cid", "cid")],
            left_pk=("oid",), right_pk=("cid",),
            group_by=("region",),
            aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("s", "amount")],
        ))
        assert db.read_committed("v", ("eu",)) == Row(region="eu", n=1, s=5)
        assert db.check_all_views() == []


class TestFilteredJoinAggregate:
    def test_predicate_on_joined_row(self):
        db = rev_db(where=col_ge("amount", 50))
        txn = db.begin()
        order(db, txn, 10, 1, 100)  # in
        order(db, txn, 11, 1, 10)  # filtered out
        db.commit(txn)
        assert db.read_committed("rev_by_region", ("eu",)) == Row(
            region="eu", n=1, rev=100
        )
        t2 = db.begin()
        db.update(t2, "orders", (11,), {"amount": 70})  # crosses boundary
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",))["n"] == 2
        assert db.check_all_views() == []


class TestJoinAggregateConcurrency:
    def test_escrow_concurrency_on_hot_group(self):
        """The point of the composition: concurrent order entry for the
        same region does not conflict under escrow."""
        db = rev_db("escrow")
        t0 = db.begin()
        order(db, t0, 1, 1, 10)
        db.commit(t0)
        t1 = db.begin()
        t2 = db.begin()
        order(db, t1, 10, 1, 100)  # eu via customer 1
        order(db, t2, 11, 3, 50)  # eu via customer 3 — same group!
        db.commit(t1)
        db.commit(t2)
        assert db.read_committed("rev_by_region", ("eu",)) == Row(
            region="eu", n=3, rev=160
        )

    def test_xlock_strategy_conflicts(self):
        db = rev_db("xlock")
        t0 = db.begin()
        order(db, t0, 1, 1, 10)
        db.commit(t0)
        t1 = db.begin()
        t2 = db.begin()
        order(db, t1, 10, 1, 100)
        with pytest.raises(LockTimeoutError):
            order(db, t2, 11, 3, 50)
        db.abort(t2)
        db.commit(t1)
        assert db.check_all_views() == []

    def test_commit_fold_mode(self):
        db = rev_db("escrow", maintenance_mode="commit_fold")
        txn = db.begin()
        order(db, txn, 10, 1, 100)
        order(db, txn, 11, 3, 50)
        assert db.index("rev_by_region").get_record(("eu",)) is None
        db.commit(txn)
        assert db.read_committed("rev_by_region", ("eu",))["rev"] == 150
        assert db.check_all_views() == []
