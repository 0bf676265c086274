"""sharded_bank: accounts on a four-partition ShardedDatabase.

The Python statement API, on a quiet network with no fault site armed.
Each partition holds 600 account rows against a buffer pool of eight
1 KiB pages, so its write path overflows the pool. An escrow view keeps
per-branch totals. About 70 % of transactions read one account for
update and change its balance (one partition); about 30 % transfer money
between accounts on two partitions and commit by two-phase commit. About
5 % end in a planned abort. Each partition takes a fuzzy checkpoint
every 50 of its commits, and after every 250 transactions one partition,
in rotation, is crashed and recovered.

It is the only workload that uses ``repro.dist``. Its log grows through
the round, so abort and recovery times show whether their cost tracks
the work or the history. It has no SQL beyond the view's DDL.
"""

from repro.api import (
    DeterministicRng,
    EngineConfig,
    ReproError,
    ShardedDatabase,
    check_conservation,
)

import spans
from common import perf_counter, timed_parse

PARTITIONS = 4
ACCOUNTS_PER_PARTITION = 600
BRANCHES = 8
INITIAL_BALANCE = 1000
POOL_FRAMES = 8
PAGE_SIZE = 1024
CHECKPOINT_EVERY = 50
TXNS = 2000
CRASH_EVERY = 250
TWO_PARTITION_SHARE = 0.30
ABORT_SHARE = 0.05

VIEW = (
    "CREATE UNIQUE INDEXED VIEW branch_totals AS "
    "SELECT branch, COUNT(*) AS n_accounts, SUM(balance) AS total "
    "FROM accounts GROUP BY branch"
)


class ShardedBank:
    """One round: a fresh fleet (set up in the constructor) and a fixed
    number of seeded transactions."""

    def __init__(self, seed):
        self.rng = DeterministicRng(seed)
        config = EngineConfig(
            buffer_pool_frames=POOL_FRAMES, page_size=PAGE_SIZE,
            checkpoint_interval=CHECKPOINT_EVERY,
        )
        self.db = ShardedDatabase(
            [ACCOUNTS_PER_PARTITION * p + 1 for p in range(1, PARTITIONS)],
            config=config,
        )
        self.db.create_table("accounts", ("aid", "branch", "balance"), ("aid",))
        self.db.create_view(VIEW)
        #: the client's copy of every committed balance
        self.balances = {}
        for pid in range(PARTITIONS):
            dtxn = self.db.begin()
            for aid in self._accounts_of(pid):
                self.db.insert(dtxn, "accounts", {
                    "aid": aid, "branch": aid % BRANCHES,
                    "balance": INITIAL_BALANCE,
                })
                self.balances[aid] = INITIAL_BALANCE
            self.db.commit(dtxn)

    def engines(self):
        return [self.db.partition(pid) for pid in range(PARTITIONS)]

    def _log_records(self):
        return sum(len(engine.log) for engine in self.engines())

    @staticmethod
    def _accounts_of(pid):
        first = ACCOUNTS_PER_PARTITION * pid + 1
        return range(first, first + ACCOUNTS_PER_PARTITION)

    def _account(self, pid):
        accounts = self._accounts_of(pid)
        return accounts[self.rng.randint(0, len(accounts) - 1)]

    def _change(self, dtxn, aid, delta, pending, tally):
        """Read one account for update, check it against the model, and
        write its new balance."""
        balance = pending.get(aid, self.balances[aid])
        row = self.db.read(dtxn, "accounts", (aid,), for_update=True)
        tally.check(
            row is not None and row["balance"] == balance,
            f"sharded_bank: account {aid} read {row!r}, expected {balance}",
        )
        self.db.update(dtxn, "accounts", (aid,), {"balance": balance + delta})
        pending[aid] = balance + delta

    # ------------------------------------------------------------------

    def run(self, tally, rec=None):
        db = self.db
        if rec is not None:
            timed_parse(rec, VIEW)
            spans.install_sharded(rec, db)
            before = self._counters(rec)
        aborts = []
        recoveries = []
        for i in range(TXNS):
            tally.probe.tick()
            if rec is not None:
                rec.txn = i
            two_partition = self.rng.random() < TWO_PARTITION_SHARE
            abort = self.rng.random() < ABORT_SHARE
            pid = self.rng.randint(0, PARTITIONS - 1)
            pending = {}
            tally.attempted += 1
            start = perf_counter()
            dtxn = db.begin()
            try:
                if two_partition:
                    other = (pid + self.rng.randint(1, PARTITIONS - 1)) % PARTITIONS
                    amount = self.rng.randint(1, 50)
                    self._change(dtxn, self._account(pid), -amount, pending, tally)
                    self._change(dtxn, self._account(other), amount, pending, tally)
                else:
                    delta = self.rng.randint(-50, 50)
                    self._change(dtxn, self._account(pid), delta, pending, tally)
                if abort:
                    branches = len(dtxn.branches)
                    records = self._log_records()
                    abort_start = perf_counter()
                    db.abort(dtxn)
                    end = perf_counter()
                    # each branch logs one ABORT and one END record besides
                    # its compensation records
                    tally.aborted(
                        aborts, end - abort_start,
                        self._log_records() - records - 2 * branches,
                    )
                else:
                    decision = db.commit(dtxn)
                    end = perf_counter()
                    tally.check(
                        decision == "commit",
                        f"sharded_bank: commit decided {decision!r}",
                    )
                    (tally.twopc_us if two_partition else tally.commit_us).append(
                        1e6 * (end - start)
                    )
                    tally.committed += 1
                    self.balances.update(pending)
            except ReproError as exc:
                end = perf_counter()
                tally.unplanned("sharded_bank", exc)
                if dtxn.state == "active":
                    db.abort(dtxn)
            tally.txn_seconds += end - start
            if (i + 1) % CRASH_EVERY == 0:
                self._crash_and_recover(
                    (i // CRASH_EVERY) % PARTITIONS, tally, recoveries
                )
        tally.abort_us.append(aborts)
        tally.recover_ms.append(recoveries)
        if rec is not None:
            tally.add_counts(spans.delta(before, self._counters(rec)))
        self._check_final(tally)

    def _counters(self, rec):
        counters = spans.layer_counters(rec, self.engines())
        net = self.db.stats()["net"]
        counters["net.messages"] = net["messages"]
        counters["net.retries"] = net["retries"]
        return counters

    def _crash_and_recover(self, pid, tally, recoveries):
        db = self.db
        db.crash_partition(pid)
        start = perf_counter()
        report = db.recover_partition(pid)
        tally.recovered(report, perf_counter() - start, recoveries)
        tally.check(
            db.partition(pid).check_all_views() == [],
            f"sharded_bank: partition {pid} views differ after recovery",
        )
        tally.check(
            db.down_partitions() == [] and db.in_doubt_total() == 0,
            f"sharded_bank: partition {pid} did not rejoin cleanly",
        )

    def _check_final(self, tally):
        db = self.db
        for pid, engine in enumerate(self.engines()):
            tally.check(
                engine.check_all_views() == [],
                f"sharded_bank: partition {pid} views differ",
            )
        tally.check(
            check_conservation(db) == [],
            "sharded_bank: folded branch totals differ from the accounts",
        )
        for aid, balance in self.balances.items():
            row = db.read_committed("accounts", (aid,))
            if row is None or row["balance"] != balance:
                tally.problems.append(
                    f"sharded_bank: account {aid} holds {row!r}, "
                    f"expected {balance}"
                )
                break
        for branch in range(BRANCHES):
            expected = sum(
                balance for aid, balance in self.balances.items()
                if aid % BRANCHES == branch
            )
            row = db.read_folded("branch_totals", (branch,))
            tally.check(
                row is not None and row["total"] == expected,
                f"sharded_bank: branch {branch} total {row!r}, "
                f"expected {expected}",
            )
