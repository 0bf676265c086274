"""Engine-level tests for join and projection views."""

import pytest

from repro.common import Row
from repro.core import Database, EngineConfig
from repro.query import col_ge
from repro.views import (
    AggregateView,
    JoinView,
    ProjectionView,
    leftfk_index_name,
    secondary_index_name,
)


def orders_db(**config_kwargs):
    db = Database(EngineConfig(**config_kwargs))
    db.create_table("customers", ("cid", "name", "tier"), ("cid",))
    db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
    txn = db.begin()
    db.insert(txn, "customers", {"cid": 1, "name": "alice", "tier": "gold"})
    db.insert(txn, "customers", {"cid": 2, "name": "bob", "tier": "basic"})
    db.commit(txn)
    db.create_view(JoinView(
        "orders_named",
        "orders",
        "customers",
        on=[("cid", "cid")],
        left_pk=("oid",), right_pk=("cid",),
        columns=("oid", "cid", "amount", "name"),
    ))
    return db


class TestJoinView:
    def test_left_insert_creates_join_row(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.commit(txn)
        assert db.read_committed("orders_named", (10, 1)) == Row(
            oid=10, cid=1, amount=99, name="alice"
        )

    def test_left_insert_without_match(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 99, "amount": 5})
        db.commit(txn)
        assert len(db.index("orders_named")) == 0
        assert db.check_all_views() == []

    def test_right_insert_backfills(self):
        """A late-arriving parent joins pre-existing children."""
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 7, "amount": 5})
        db.insert(txn, "orders", {"oid": 11, "cid": 7, "amount": 6})
        db.commit(txn)
        assert len(db.index("orders_named")) == 0
        t2 = db.begin()
        db.insert(t2, "customers", {"cid": 7, "name": "gina", "tier": "gold"})
        db.commit(t2)
        assert db.read_committed("orders_named", (10, 7))["name"] == "gina"
        assert db.read_committed("orders_named", (11, 7))["name"] == "gina"
        assert db.check_all_views() == []

    def test_left_delete_removes_join_row(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "orders", (10,))
        db.commit(t2)
        assert db.read_committed("orders_named", (10, 1)) is None
        assert db.check_all_views() == []

    def test_right_delete_removes_all_children(self):
        db = orders_db()
        txn = db.begin()
        for oid in (10, 11, 12):
            db.insert(txn, "orders", {"oid": oid, "cid": 1, "amount": 1})
        db.insert(txn, "orders", {"oid": 13, "cid": 2, "amount": 1})
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "customers", (1,))
        db.commit(t2)
        for oid in (10, 11, 12):
            assert db.read_committed("orders_named", (oid, 1)) is None
        assert db.read_committed("orders_named", (13, 2)) is not None
        assert db.check_all_views() == []

    def test_left_update_nonjoin_column_patches(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "orders", (10,), {"amount": 5})
        db.commit(t2)
        assert db.read_committed("orders_named", (10, 1))["amount"] == 5
        assert db.check_all_views() == []

    def test_left_update_join_column_moves(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "orders", (10,), {"cid": 2})
        db.commit(t2)
        assert db.read_committed("orders_named", (10, 1)) is None
        assert db.read_committed("orders_named", (10, 2))["name"] == "bob"
        assert db.check_all_views() == []

    def test_right_update_propagates(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "customers", (1,), {"name": "alicia"})
        db.commit(t2)
        assert db.read_committed("orders_named", (10, 1))["name"] == "alicia"
        assert db.check_all_views() == []

    def test_abort_rolls_back_join_rows(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.abort(txn)
        assert db.read_committed("orders_named", (10, 1)) is None
        assert db.check_all_views() == []

    def test_secondary_index_in_sync(self):
        db = orders_db()
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 99})
        db.commit(txn)
        sec = db.index(secondary_index_name("orders_named"))
        assert sec.get_row((1, 10)) is not None
        fk = db.index(leftfk_index_name("orders_named"))
        assert fk.get_row((1, 10)) is not None

    def test_materialize_over_existing_data(self):
        db = Database()
        db.create_table("customers", ("cid", "name"), ("cid",))
        db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
        txn = db.begin()
        db.insert(txn, "customers", {"cid": 1, "name": "alice"})
        db.insert(txn, "orders", {"oid": 10, "cid": 1, "amount": 5})
        db.commit(txn)
        db.create_view(JoinView(
            "v", "orders", "customers", on=[("cid", "cid")],
            left_pk=("oid",), right_pk=("cid",),
            columns=("oid", "cid", "amount", "name"),
        ))
        assert db.read_committed("v", (10, 1))["name"] == "alice"
        assert db.check_all_views() == []

    def test_filtered_join_view(self):
        db = Database()
        db.create_table("customers", ("cid", "name"), ("cid",))
        db.create_table("orders", ("oid", "cid", "amount"), ("oid",))
        txn = db.begin()
        db.insert(txn, "customers", {"cid": 1, "name": "alice"})
        db.commit(txn)
        db.create_view(JoinView(
            "big", "orders", "customers", on=[("cid", "cid")],
            left_pk=("oid",), right_pk=("cid",),
            columns=("oid", "cid", "amount", "name"),
            where=col_ge("amount", 50),
        ))
        txn = db.begin()
        db.insert(txn, "orders", {"oid": 1, "cid": 1, "amount": 10})
        db.insert(txn, "orders", {"oid": 2, "cid": 1, "amount": 90})
        db.commit(txn)
        assert db.read_committed("big", (1, 1)) is None
        assert db.read_committed("big", (2, 1)) is not None
        assert db.check_all_views() == []


def people_db(**config_kwargs):
    db = Database(EngineConfig(**config_kwargs))
    db.create_table("people", ("pid", "name", "age"), ("pid",))
    db.create_view(ProjectionView(
        "adults", "people", ("pid",), columns=("pid", "name"),
        where=col_ge("age", 18),
    ))
    return db


class TestDeclaredKeys:
    def test_wrong_left_pk_rejected(self):
        from repro.common import CatalogError

        db = orders_db()
        with pytest.raises(CatalogError, match="declares primary key"):
            db.create_view(JoinView(
                "v", "orders", "customers", on=[("cid", "cid")],
                left_pk=("cid",), right_pk=("cid",),
                columns=("oid", "cid", "amount", "name"),
            ))
        assert not db.catalog.has_view("v")

    def test_wrong_projection_pk_rejected(self):
        from repro.common import CatalogError

        db = orders_db()
        with pytest.raises(CatalogError, match="declares primary key"):
            db.create_view(ProjectionView(
                "p", "orders", ("cid",), columns=("oid", "cid")
            ))


class TestProjectionView:
    def test_qualifying_insert(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "al", "age": 30})
        db.insert(txn, "people", {"pid": 2, "name": "kid", "age": 10})
        db.commit(txn)
        assert db.read_committed("adults", (1,)) == Row(pid=1, name="al")
        assert db.read_committed("adults", (2,)) is None

    def test_delete_removes(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "al", "age": 30})
        db.commit(txn)
        t2 = db.begin()
        db.delete(t2, "people", (1,))
        db.commit(t2)
        assert db.read_committed("adults", (1,)) is None
        assert db.check_all_views() == []

    def test_update_enters_view(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "kid", "age": 17})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"age": 18})
        db.commit(t2)
        assert db.read_committed("adults", (1,)) is not None
        assert db.check_all_views() == []

    def test_update_leaves_view(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "al", "age": 20})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"age": 2})
        db.commit(t2)
        assert db.read_committed("adults", (1,)) is None
        assert db.check_all_views() == []

    def test_update_inside_view_patches(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "al", "age": 20})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"name": "albert"})
        db.commit(t2)
        assert db.read_committed("adults", (1,))["name"] == "albert"
        assert db.check_all_views() == []

    def test_update_outside_view_is_noop(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "kid", "age": 5})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"name": "kiddo"})
        db.commit(t2)
        assert db.read_committed("adults", (1,)) is None
        assert db.check_all_views() == []

    def test_abort_restores(self):
        db = people_db()
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "al", "age": 20})
        db.commit(txn)
        t2 = db.begin()
        db.update(t2, "people", (1,), {"age": 3})
        db.abort(t2)
        assert db.read_committed("adults", (1,)) is not None
        assert db.check_all_views() == []

    def test_materialize_over_existing(self):
        db = Database()
        db.create_table("people", ("pid", "name", "age"), ("pid",))
        txn = db.begin()
        db.insert(txn, "people", {"pid": 1, "name": "al", "age": 30})
        db.commit(txn)
        db.create_view(ProjectionView(
            "adults", "people", ("pid",), columns=("pid", "name"),
            where=col_ge("age", 18),
        ))
        assert db.read_committed("adults", (1,)) is not None


class TestMultipleViewsOneTable:
    def test_all_maintained(self):
        db = Database()
        db.create_table("sales", ("id", "product", "region", "amount"), ("id",))
        from repro.query import AggregateSpec

        db.create_view(AggregateView(
            "by_product", "sales", group_by=("product",),
            aggregates=[AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")],
        ))
        db.create_view(AggregateView(
            "by_region", "sales", group_by=("region",),
            aggregates=[AggregateSpec.count("n")],
        ))
        db.create_view(ProjectionView(
            "big", "sales", ("id",), columns=("id", "amount"),
            where=col_ge("amount", 50),
        ))
        txn = db.begin()
        db.insert(txn, "sales", {"id": 1, "product": "a", "region": "eu", "amount": 80})
        db.insert(txn, "sales", {"id": 2, "product": "a", "region": "us", "amount": 20})
        db.commit(txn)
        assert db.read_committed("by_product", ("a",))["n"] == 2
        assert db.read_committed("by_region", ("eu",))["n"] == 1
        assert db.read_committed("big", (1,)) is not None
        assert db.read_committed("big", (2,)) is None
        t2 = db.begin()
        db.delete(t2, "sales", (1,))
        db.commit(t2)
        assert db.check_all_views() == []
