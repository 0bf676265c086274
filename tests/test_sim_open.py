"""Open-system scheduler mode: arrivals, response times, determinism."""

from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.sim import Scheduler
from repro.views import AggregateView
from repro.workload import BY_PRODUCT, SALES, OrderEntryWorkload


def store(strategy="escrow"):
    db = Database(EngineConfig(aggregate_strategy=strategy))
    workload = OrderEntryWorkload(db, n_products=5, zipf_theta=1.0, seed=3)
    db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
    db.create_table("products", ("product", "name", "category"), ("product",))
    workload.db = db
    db.create_view(AggregateView(
        BY_PRODUCT, SALES, group_by=("product",),
        aggregates=[
            AggregateSpec.count("n_sales"),
            AggregateSpec.sum_of("revenue", "amount"),
        ],
    ))
    return db, workload


class TestOpenSystem:
    def test_all_arrivals_complete(self):
        db, workload = store()
        scheduler = Scheduler(db)
        result = scheduler.run_open(
            workload.new_sale_program(items=1), arrival_rate=0.05,
            duration=1000, seed=7,
        )
        assert result.committed > 10
        assert result.response_time.count == result.committed
        assert db.check_all_views() == []

    def test_response_time_includes_service(self):
        db, workload = store()
        scheduler = Scheduler(db)
        result = scheduler.run_open(
            workload.new_sale_program(items=1), arrival_rate=0.02,
            duration=500, seed=7,
        )
        # begin(1) + write(2) + commit(5) = 8 ticks minimum
        assert result.response_time.min_value >= 8

    def test_deterministic(self):
        outcomes = []
        for _ in range(2):
            db, workload = store()
            scheduler = Scheduler(db)
            result = scheduler.run_open(
                workload.new_sale_program(items=2), arrival_rate=0.1,
                duration=800, seed=11,
            )
            outcomes.append(
                (result.committed, result.ticks, result.response_time.mean())
            )
        assert outcomes[0] == outcomes[1]

    def test_contention_raises_response_time(self):
        means = {}
        for strategy in ("escrow", "xlock"):
            db, workload = store(strategy)
            workload.seed_groups()
            scheduler = Scheduler(db)
            result = scheduler.run_open(
                workload.new_sale_program(items=2), arrival_rate=0.25,
                duration=1500, seed=5,
            )
            means[strategy] = result.response_time.mean()
            assert db.check_all_views() == []
        assert means["xlock"] > means["escrow"]

    def test_zero_arrivals(self):
        db, workload = store()
        scheduler = Scheduler(db)
        result = scheduler.run_open(
            workload.new_sale_program(items=1), arrival_rate=0.001,
            duration=10, seed=1,
        )
        assert result.committed == 0
        assert result.response_time.count == 0
