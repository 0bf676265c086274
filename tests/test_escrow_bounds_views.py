"""Declarative escrow bounds on view counters, and the hot-spot report."""

import pytest

from repro.common import CatalogError, EscrowViolationError, LockTimeoutError
from repro.core import Database, EngineConfig
from repro.core.inspect import hot_resources, render_hot_resources
from repro.query import AggregateSpec
from repro.views import AggregateView, JoinAggregateView


def reserve_bank(reserve=50):
    """Branch totals may never drop below the reserve requirement."""
    db = Database(EngineConfig(aggregate_strategy="escrow"))
    db.create_table("accounts", ("aid", "branch", "balance"), ("aid",))
    db.create_view(AggregateView(
        "branch_totals",
        "accounts",
        group_by=("branch",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("total", "balance"),
        ],
        bounds={"total": (reserve, None)},
    ))
    txn = db.begin()
    db.insert(txn, "accounts", {"aid": 1, "branch": "b", "balance": 60})
    db.insert(txn, "accounts", {"aid": 2, "branch": "b", "balance": 40})
    db.commit(txn)
    return db


class TestViewBounds:
    def test_unknown_bound_column_rejected(self):
        db = Database()
        db.create_table("t", ("id", "g", "x"), ("id",))
        with pytest.raises(CatalogError):
            db.create_view(AggregateView(
                "v", "t", group_by=("g",),
                aggregates=[AggregateSpec.count("n")],
                bounds={"nope": (0, None)},
            ))

    def test_bounds_for_defaults(self):
        db = reserve_bank()
        view = db.catalog.view("branch_totals")
        assert view.bounds_for("total") == (50, None)
        assert view.bounds_for("n") == (0, None)  # implicit COUNT bound

    def test_withdrawal_within_reserve_allowed(self):
        db = reserve_bank(reserve=50)
        txn = db.begin()
        db.update(txn, "accounts", (1,), {"balance": 20})  # total 100 -> 60
        db.commit(txn)
        assert db.read_committed("branch_totals", ("b",))["total"] == 60

    def test_withdrawal_below_reserve_rejected(self):
        db = reserve_bank(reserve=50)
        txn = db.begin()
        with pytest.raises(EscrowViolationError):
            db.update(txn, "accounts", (1,), {"balance": 0})  # total -> 40
        db.abort(txn)
        assert db.read_committed("branch_totals", ("b",))["total"] == 100

    def test_worst_case_across_transactions(self):
        """Two withdrawals that are individually fine but jointly break
        the reserve: the second is rejected before any wait — this is
        the escrow test operating across in-flight transactions."""
        db = reserve_bank(reserve=50)
        t1 = db.begin()
        t2 = db.begin()
        db.update(t1, "accounts", (1,), {"balance": 30})  # pending total -30
        with pytest.raises(EscrowViolationError):
            db.update(t2, "accounts", (2,), {"balance": 10})  # -30 more: 40 < 50
        db.abort(t2)
        db.commit(t1)
        assert db.read_committed("branch_totals", ("b",))["total"] == 70

    def test_pending_deposit_cannot_fund_withdrawal(self):
        """A concurrent uncommitted deposit may abort, so it cannot be
        counted toward the reserve."""
        db = reserve_bank(reserve=50)
        t1 = db.begin()
        db.insert(t1, "accounts", {"aid": 3, "branch": "b", "balance": 100})
        t2 = db.begin()
        with pytest.raises(EscrowViolationError):
            # without t1's pending +100, total would drop to 40
            db.update(t2, "accounts", (1,), {"balance": 0})
        db.abort(t2)
        db.abort(t1)

    def test_group_creation_respects_bounds(self):
        db = Database(EngineConfig(aggregate_strategy="escrow"))
        db.create_table("accounts", ("aid", "branch", "balance"), ("aid",))
        db.create_view(AggregateView(
            "branch_totals", "accounts", group_by=("branch",),
            aggregates=[AggregateSpec.count("n"),
                        AggregateSpec.sum_of("total", "balance")],
            bounds={"total": (0, 1000)},
        ))
        txn = db.begin()
        with pytest.raises(EscrowViolationError):
            db.insert(txn, "accounts", {"aid": 1, "branch": "x", "balance": 5000})
        db.abort(txn)
        db.run_ghost_cleanup()
        assert db.check_all_views() == []

    def test_join_aggregate_bounds(self):
        db = Database(EngineConfig(aggregate_strategy="escrow"))
        db.create_table("customers", ("cid", "region"), ("cid",))
        db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
        txn = db.begin()
        db.insert(txn, "customers", {"cid": 1, "region": "eu"})
        db.commit(txn)
        db.create_view(JoinAggregateView(
            "v", "orders", "customers", on=[("cid", "cid")],
            left_pk=("oid",), right_pk=("cid",),
            group_by=("region",),
            aggregates=[AggregateSpec.count("n"),
                        AggregateSpec.sum_of("rev", "amount")],
            bounds={"rev": (None, 100)},
        ))
        t = db.begin()
        db.insert(t, "orders", {"oid": 1, "cid": 1, "amount": 80})
        with pytest.raises(EscrowViolationError):
            db.insert(t, "orders", {"oid": 2, "cid": 1, "amount": 80})
        db.abort(t)
        assert db.check_all_views() == []


class TestHotSpotReport:
    def test_contention_ranked(self):
        db = Database(EngineConfig(aggregate_strategy="xlock"))
        db.create_table("sales", ("id", "product", "amount"), ("id",))
        db.create_view(AggregateView(
            "v", "sales", group_by=("product",),
            aggregates=[AggregateSpec.count("n")],
        ))
        t0 = db.begin()
        db.insert(t0, "sales", {"id": 1, "product": "hot", "amount": 1})
        db.commit(t0)
        # generate waits on the hot view row
        t1 = db.begin()
        db.insert(t1, "sales", {"id": 2, "product": "hot", "amount": 1})
        for i in range(3):
            t2 = db.begin()
            with pytest.raises(LockTimeoutError):
                db.insert(t2, "sales", {"id": 10 + i, "product": "hot", "amount": 1})
            db.abort(t2)
        db.commit(t1)
        top = hot_resources(db, top_n=3)
        assert top
        assert top[0][0] == ("key", "v", ("hot",))
        assert top[0][1] >= 3
        text = render_hot_resources(db)
        assert "hottest lock resources" in text

    def test_empty_when_no_waits(self):
        db = Database()
        assert hot_resources(db) == []
