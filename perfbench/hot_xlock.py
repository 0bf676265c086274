"""hot_xlock: an open-loop simulator run against an X-locked hot view.

``Scheduler.run_open`` drives Poisson arrivals at 0.4 transactions per
simulated tick for 500 ticks against a ``Database`` whose aggregate view
uses the ``xlock`` strategy. Each transaction inserts two sales over 10
products at Zipf 1.2, so about two in three touch the hottest view row,
and the arrival rate is about twice what that row's exclusive lock can
serve. View groups are seeded before the run, and the engine is crashed
and recovered after it.

It is the only workload with deep lock queues and repeated deadlock
searches, and it does little per-transaction work in storage or the
log. Its simulated results (commits, ticks, response ticks) are a
deterministic function of the seed that no performance change may move.
"""

from repro.api import Database, EngineConfig, OrderEntryWorkload, Scheduler

import spans
from common import perf_counter, timed_parse

N_PRODUCTS = 10
ZIPF_THETA = 1.2
ITEMS = 2
ARRIVAL_RATE = 0.4
TICKS = 500

SCHEMA = (
    "CREATE TABLE sales (id, product, customer, amount, PRIMARY KEY (id));"
    "CREATE UNIQUE INDEXED VIEW sales_by_product AS "
    "SELECT product, COUNT(*) AS n_sales, SUM(amount) AS revenue "
    "FROM sales GROUP BY product"
)


class HotXlock:
    """One round: a fresh engine (set up in the constructor) and one
    open-loop run of a fixed number of simulated ticks."""

    def __init__(self, seed):
        self.seed = seed
        self.db = Database(EngineConfig(aggregate_strategy="xlock"))
        self.db.execute(SCHEMA)
        self.workload = OrderEntryWorkload(
            self.db, n_products=N_PRODUCTS, zipf_theta=ZIPF_THETA, seed=seed
        )
        self.workload.seed_groups()

    def engines(self):
        return [self.db]

    def run(self, tally, rec=None):
        db = self.db
        commits = []
        aborts = []
        _time_commits(db, commits)
        _time_aborts(db, tally, aborts)
        scheduler = Scheduler(db)
        if rec is not None:
            timed_parse(rec, SCHEMA)
            spans.install_engine(rec, db)
            spans.install_scheduler(rec, scheduler)
            before = spans.layer_counters(rec, self.engines())
        start = perf_counter()
        result = scheduler.run_open(
            self.workload.new_sale_program(items=ITEMS),
            arrival_rate=ARRIVAL_RATE, duration=TICKS, seed=self.seed,
        )
        tally.txn_seconds += perf_counter() - start
        recoveries = []
        start = perf_counter()
        report = db.simulate_crash_and_recover()
        tally.recovered(report, perf_counter() - start, recoveries)
        tally.recover_ms.append(recoveries)
        if rec is not None:
            tally.add_counts(spans.delta(
                before, spans.layer_counters(rec, self.engines())
            ))
            tally.add_counts({"sim.commits": result.committed})
        # every arrival is one attempted transaction: it commits or gives
        # up after the scheduler's retries
        tally.attempted += result.committed + result.gave_up
        tally.committed += result.committed
        tally.failed += result.gave_up
        tally.commit_us.extend(commits)
        tally.abort_us.append(aborts)
        responses = result.response_time
        tally.sim_resp_p50.append(responses.percentile(50))
        tally.sim_resp_p95.append(responses.percentile(95))
        tally.sim_outcomes.append((
            self.seed, result.committed, result.gave_up, result.ticks,
            result.lock_stats["deadlocks"], responses.count, responses.mean(),
        ))
        tally.check(
            db.check_all_views() == [],
            "hot_xlock: views differ after the run and recovery",
        )


def _time_commits(db, durations):
    """Record the wall time of every ``db.commit`` call, in microseconds.
    The simulator interleaves transactions, so begin-to-commit wall time
    is not one transaction's latency; the commit call itself is."""
    commit = db.commit

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return commit(*args, **kwargs)
        finally:
            durations.append(1e6 * (perf_counter() - start))

    db.commit = timed


def _time_aborts(db, tally, series):
    """Record every deadlock victim's rollback per undone log record."""
    abort = db.abort

    def timed(*args, **kwargs):
        records = len(db.log)
        start = perf_counter()
        try:
            return abort(*args, **kwargs)
        finally:
            # one ABORT and one END record besides the compensation
            # records; re-aborting an aborted victim logs nothing
            tally.aborted(
                series, perf_counter() - start, len(db.log) - records - 2
            )

    db.abort = timed
