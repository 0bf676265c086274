"""MIN/MAX aggregate views — the non-commutative extension.

These tests document both the functionality and the cost: extreme views
are maintained under X locks (no escrow concurrency) and deleting the
current extreme rescans the group.
"""

import pytest

from repro.common import CatalogError, LockTimeoutError, Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.query.aggregates import AggFunc
from repro.views import AggregateView


def minmax_db(strategy="escrow"):
    db = Database(EngineConfig(aggregate_strategy=strategy))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "price_stats",
        "sales",
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("total", "amount"),
            AggregateSpec.min_of("cheapest", "amount"),
            AggregateSpec.max_of("priciest", "amount"),
        ],
    ))
    return db


def add(db, txn, sale_id, product, amount):
    db.insert(txn, "sales", {"id": sale_id, "product": product, "amount": amount})


class TestSpecValidation:
    def test_min_max_constructors(self):
        assert AggregateSpec.min_of("m", "x").func is AggFunc.MIN
        assert AggregateSpec.max_of("m", "x").func is AggFunc.MAX

    def test_extreme_needs_source(self):
        with pytest.raises(CatalogError):
            AggregateSpec("m", AggFunc.MIN)

    def test_delta_for_rejected_on_extremes(self):
        with pytest.raises(CatalogError):
            AggregateSpec.min_of("m", "x").delta_for(Row(x=1), 1)

    def test_fold_extreme(self):
        mn = AggregateSpec.min_of("m", "x")
        mx = AggregateSpec.max_of("m", "x")
        assert mn.fold_extreme(None, 5) == 5
        assert mn.fold_extreme(5, 7) == 5
        assert mn.fold_extreme(5, 3) == 3
        assert mx.fold_extreme(5, 7) == 7
        assert mx.fold_extreme(5, 3) == 5

    def test_initial_values(self):
        assert AggregateSpec.min_of("m", "x").initial_value() is None
        assert AggregateSpec.count("n").initial_value() == 0


class TestExtremeMaintenance:
    def test_insert_tracks_extremes(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        add(db, txn, 2, "ant", 10)
        add(db, txn, 3, "ant", 50)
        db.commit(txn)
        row = db.read_committed("price_stats", ("ant",))
        assert row == Row(product="ant", n=3, total=90, cheapest=10, priciest=50)

    def test_delete_non_extreme_no_rescan(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        add(db, txn, 2, "ant", 10)
        add(db, txn, 3, "ant", 50)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))  # 30 is neither min nor max
        db.commit(t2)
        row = db.read_committed("price_stats", ("ant",))
        assert row["cheapest"] == 10 and row["priciest"] == 50
        assert db.counters.get("agg.extreme_rescans") == 0

    def test_delete_min_triggers_rescan(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        add(db, txn, 2, "ant", 10)
        add(db, txn, 3, "ant", 50)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (2,))  # deletes the minimum
        db.commit(t2)
        row = db.read_committed("price_stats", ("ant",))
        assert row["cheapest"] == 30
        assert db.counters.get("agg.extreme_rescans") >= 1
        assert db.check_all_views() == []

    def test_delete_last_row_removes_group(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        assert db.read_committed("price_stats", ("ant",)) is None
        assert db.check_all_views() == []

    def test_update_moves_extreme(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        add(db, txn, 2, "ant", 10)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "sales", (2,), {"amount": 99})
        db.commit(t2)
        row = db.read_committed("price_stats", ("ant",))
        assert row == Row(product="ant", n=2, total=129, cheapest=30, priciest=99)
        assert db.check_all_views() == []

    def test_update_within_range(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        add(db, txn, 2, "ant", 10)
        add(db, txn, 3, "ant", 50)
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "sales", (1,), {"amount": 40})
        db.commit(t2)
        row = db.read_committed("price_stats", ("ant",))
        assert row["cheapest"] == 10 and row["priciest"] == 50
        assert row["total"] == 100
        assert db.check_all_views() == []

    def test_abort_restores_extremes(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        db.commit(txn)
        t2 = db.begin()
        add(db, t2, 2, "ant", 1)
        db.abort(t2)
        row = db.read_committed("price_stats", ("ant",))
        assert row["cheapest"] == 30
        assert db.check_all_views() == []

    def test_group_revival(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        db.delete(txn, "sales", (1,))
        add(db, txn, 2, "ant", 7)
        db.commit(txn)
        row = db.read_committed("price_stats", ("ant",))
        assert row == Row(product="ant", n=1, total=7, cheapest=7, priciest=7)

    def test_crash_recovery(self):
        db = minmax_db()
        txn = db.begin()
        add(db, txn, 1, "ant", 30)
        add(db, txn, 2, "ant", 10)
        db.commit(txn)
        db.simulate_crash_and_recover()
        row = db.read_committed("price_stats", ("ant",))
        assert row["cheapest"] == 10 and row["priciest"] == 30
        assert db.check_all_views() == []


class TestExtremeConcurrencyCost:
    def test_extreme_views_forfeit_escrow(self):
        """Even under the escrow strategy, a MIN/MAX view serializes
        concurrent writers of one group — the reason SQL Server excludes
        these aggregates from indexed views."""
        db = minmax_db("escrow")
        t0 = db.begin()
        add(db, t0, 1, "hot", 10)
        db.commit(t0)
        t1 = db.begin()
        t2 = db.begin()
        add(db, t1, 2, "hot", 20)
        with pytest.raises(LockTimeoutError):
            add(db, t2, 3, "hot", 30)
        db.abort(t2)
        db.commit(t1)
        assert db.check_all_views() == []

    def test_pure_counter_view_unaffected(self):
        """A second, counter-only view on the same table still enjoys
        escrow concurrency — the X cost is per-view, not per-table."""
        db = minmax_db("escrow")
        db.create_view(AggregateView(
            "counts_only",
            "sales",
            group_by=("product",),
            aggregates=[AggregateSpec.count("n2")],
        ))
        t0 = db.begin()
        add(db, t0, 1, "hot", 10)
        db.commit(t0)
        # concurrent writers conflict on price_stats (X) but would not on
        # counts_only: verify by checking lock modes taken
        t1 = db.begin()
        add(db, t1, 2, "hot", 20)
        from repro.locking import LockMode

        held = dict(db.locks.locks_of(t1.txn_id))
        assert held[("key", "counts_only", ("hot",))].key_mode is LockMode.E
        assert held[("key", "price_stats", ("hot",))].key_mode is LockMode.X
        db.commit(t1)
        assert db.check_all_views() == []


class TestExtremePropertyStyle:
    def test_random_mix_matches_oracle(self):
        from repro.common import DeterministicRng

        rng = DeterministicRng(123)
        db = minmax_db()
        live = {}
        next_id = 1
        for _ in range(120):
            action = rng.choice(["insert", "insert", "delete", "update"])
            txn = db.begin()
            if action == "insert" or not live:
                amount = rng.randint(1, 50)
                add(db, txn, next_id, f"p{rng.randint(0, 3)}", amount)
                live[next_id] = True
                next_id += 1
            elif action == "delete":
                victim = rng.choice(sorted(live))
                db.delete(txn, "sales", (victim,))
                del live[victim]
            else:
                target = rng.choice(sorted(live))
                db.update(txn, "sales", (target,), {"amount": rng.randint(1, 50)})
            db.commit(txn)
        db.run_ghost_cleanup()
        assert db.check_all_views() == []
