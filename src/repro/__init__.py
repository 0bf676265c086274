"""repro — Transaction support for indexed views.

A from-scratch reproduction of Graefe & Zwilling, "Transaction support for
indexed views" (SIGMOD 2004): an in-memory transactional storage engine
whose materialized (indexed) views are maintained *inside* user
transactions, with the full concurrency-control and recovery stack that
makes that safe and fast:

* escrow (increment/decrement) locks on aggregate view rows,
* key-range locking on view B-trees for serializability,
* ghost records with asynchronous system-transaction cleanup,
* logical (delta) logging with ARIES-style recovery,
* multi-version snapshot reads,
* a deterministic discrete-event concurrency simulator for evaluation.

Quickstart::

    from repro import AggregateSpec, AggregateView, Database

    db = Database()
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product", "sales", group_by=("product",),
        aggregates=[AggregateSpec.count("n"),
                    AggregateSpec.sum_of("total", "amount")],
    ))
    txn = db.begin()
    db.insert(txn, "sales", {"id": 1, "product": "ant", "amount": 30})
    db.commit(txn)
    print(db.read_committed("by_product", ("ant",)))
"""

from repro.common import KeyRange, Row
from repro.core import Database, EngineConfig
from repro.query import AggregateSpec, col_between, col_eq, col_gt, col_in
from repro.txn import LockPolicy
from repro.views import AggregateView, JoinAggregateView, JoinView, ProjectionView

__version__ = "1.0.0"

__all__ = [
    "AggregateSpec",
    "AggregateView",
    "Database",
    "EngineConfig",
    "JoinAggregateView",
    "JoinView",
    "KeyRange",
    "LockPolicy",
    "ProjectionView",
    "Row",
    "col_between",
    "col_eq",
    "col_gt",
    "col_in",
    "__version__",
]
