"""The supported API surface: the ``repro.api`` facade, the unified
transaction entry points, and the ``create_view`` keyword tail.

``begin()`` is the transaction primitive; ``session()`` and
``transaction()`` open their transactions through it. ``create_view``
takes every view kind with ``unique=`` / ``deferred=`` and returns the
:class:`~repro.views.definition.ViewDefinition`. ``examples/`` and
``benchmarks/`` may import only ``repro`` / ``repro.api`` — a rule
``benchmarks/check_results.py`` enforces and this module re-checks.
"""

import pathlib
import sys

from repro.core import Database, EngineConfig
from repro.core.session import Session
from repro.query import AggregateSpec
from repro.txn.transaction import LockPolicy
from repro.views import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
)
from repro.views.definition import ViewDefinition

REPO = pathlib.Path(__file__).resolve().parent.parent


def sales_db(**config_kwargs):
    db = Database(EngineConfig(**config_kwargs))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_table("products", ("product", "name"), ("product",))
    return db


AGGS = [AggregateSpec.count("n"), AggregateSpec.sum_of("t", "amount")]


class TestFacade:
    def test_all_names_resolve(self):
        import repro.api as api

        missing = [n for n in api.__all__ if not hasattr(api, n)]
        assert missing == []

    def test_core_names_are_the_engine_objects(self):
        import repro.api as api

        assert api.Database is Database
        assert api.Session is Session
        assert api.LockPolicy is LockPolicy

    def test_import_surface_clean(self):
        sys.path.insert(0, str(REPO / "benchmarks"))
        try:
            import check_results
        finally:
            sys.path.pop(0)
        assert check_results.check_import_surface(REPO) == []


class TestEntryPoints:
    def test_begin_honours_isolation(self):
        db = sales_db()
        txn = db.begin(isolation="snapshot")
        assert txn.isolation == "snapshot"
        db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 3})
        db.commit(txn)
        assert db.read_committed("sales", (1,)) is not None

    def test_transaction_routes_through_session(self):
        db = sales_db()
        with db.transaction(isolation="read_committed") as txn:
            assert txn.isolation == "read_committed"
            db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 3})
        assert db.read_committed("sales", (1,)) is not None

    def test_transaction_aborts_on_exception(self):
        db = sales_db()
        try:
            with db.transaction() as txn:
                db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 1})
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert db.read_committed("sales", (1,)) is None

    def test_uniform_keywords(self):
        """All three entry points accept the same isolation=/policy=
        pair, in either order."""
        db = sales_db()
        for opener in (db.begin, db.session):
            handle = opener(
                policy=LockPolicy.COOPERATIVE, isolation="snapshot"
            )
            txn = handle if not isinstance(handle, Session) else handle.begin()
            assert txn.isolation == "snapshot"
            assert txn.policy is LockPolicy.COOPERATIVE
            db.abort(txn)


class TestViewDdlKeywordTail:
    def test_all_four_return_view_definition(self):
        db = sales_db()
        views = [
            db.create_view(AggregateView(
                "agg", "sales", group_by=("product",), aggregates=AGGS
            )),
            db.create_view(JoinView(
                "join", "sales", "products",
                on=[("product", "product")],
                left_pk=("id",), right_pk=("product",),
                columns=("id", "product", "name"),
            )),
            db.create_view(ProjectionView("proj", "sales", ("id",), ("id",))),
            db.create_view(JoinAggregateView(
                "joinagg", "sales", "products",
                on=[("product", "product")],
                left_pk=("id",), right_pk=("product",), group_by=("name",),
                aggregates=AGGS,
            )),
        ]
        for view in views:
            assert isinstance(view, ViewDefinition)
            assert view.unique is True
            assert view.deferred is False

    def test_unique_and_deferred_flags_recorded(self):
        db = sales_db()
        view = db.create_view(
            ProjectionView("proj", "sales", ("id",), ("id",)),
            unique=False, deferred=True,
        )
        assert view.unique is False
        assert view.deferred is True

    def test_per_view_deferred_under_immediate_mode(self):
        """``deferred=True`` on one view defers just that view, even when
        the engine-wide maintenance mode is immediate."""
        db = sales_db()  # maintenance_mode defaults to immediate
        db.create_view(
            AggregateView(
                "lazy", "sales", group_by=("product",), aggregates=AGGS
            ),
            deferred=True,
        )
        db.create_view(AggregateView(
            "eager", "sales", group_by=("product",), aggregates=AGGS,
        ))
        session = db.session()
        session.insert("sales", {"id": 1, "product": "ant", "amount": 3})
        assert db.read_committed("eager", ("ant",)) is not None
        assert db.read_committed("lazy", ("ant",)) is None
        assert db.deferred.pending_count("lazy") == 1
        db.refresh_all_views()
        assert db.read_committed("lazy", ("ant",)) is not None
        assert db.check_all_views() == []
