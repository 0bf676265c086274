"""The sharded engine and its two-phase commit (``repro.dist``).

The contract under test (``docs/ARCHITECTURE.md`` §9): N independent
engines behind one facade; cross-partition transactions commit by 2PC
with presumed abort; a partition can die mid-protocol and the fleet
degrades instead of dying — the survivors keep committing, the in-doubt
branch blocks only the keys it touched, and recovery resolves it from
the coordinator's durable decision log. The recurring oracle is
conservation: folded per-partition sub-counters must equal a
recomputation over the union of base rows.
"""

import pytest

from repro.common import (
    CatalogError,
    PartitionUnavailableError,
    TransactionAborted,
    TransactionStateError,
)
from repro.core import Database, EngineConfig
from repro.dist import RangePartitioner, ShardedDatabase, check_conservation
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.views import AggregateView

BOUNDS = (250, 500, 750)  # 4 partitions
ACCOUNTS = "accounts"
TOTALS = "totals"


def fleet(boundaries=BOUNDS, **config_kwargs):
    db = ShardedDatabase(
        boundaries, EngineConfig(aggregate_strategy="escrow", **config_kwargs)
    )
    db.create_table(ACCOUNTS, ("id", "region", "amount"), ("id",))
    db.create_view(AggregateView(
        TOTALS, ACCOUNTS, ("region",),
        [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
    ))
    return db


def deposit(db, key, region, amount):
    """One single-partition committed insert."""
    txn = db.begin()
    db.insert(txn, ACCOUNTS, {"id": key, "region": region, "amount": amount})
    assert db.commit(txn) == "commit"
    return txn


def move(db, src, dst, region, amount):
    """A cross-partition pair: +amount at dst, -amount at src — the
    conservation-friendly global transaction."""
    txn = db.begin()
    db.insert(txn, ACCOUNTS, {"id": dst, "region": region, "amount": amount})
    db.insert(txn, ACCOUNTS, {"id": src, "region": region, "amount": -amount})
    return txn


class TestPartitioner:
    def test_ranges_and_bounds(self):
        p = RangePartitioner([10, 20])
        assert p.partitions == 3
        assert [p.partition_of((k,)) for k in (0, 9, 10, 19, 20, 999)] == \
            [0, 0, 1, 1, 2, 2]

    def test_rejects_bad_boundaries(self):
        with pytest.raises(CatalogError):
            RangePartitioner([])
        with pytest.raises(CatalogError):
            RangePartitioner([5, 5])
        with pytest.raises(CatalogError):
            RangePartitioner([9, 3])


class TestRouting:
    def test_rows_land_on_their_partition(self):
        db = fleet()
        for key, pid in ((0, 0), (249, 0), (250, 1), (600, 2), (900, 3)):
            deposit(db, key, "r", 1)
            assert db.partition(pid).read_committed(ACCOUNTS, (key,)) is not None
            for other in range(db.partitions):
                if other != pid:
                    assert db.partition(other).read_committed(
                        ACCOUNTS, (key,)
                    ) is None

    def test_join_views_are_rejected(self):
        db = fleet()
        db.create_table("branches", ("region", "city"), ("region",))
        with pytest.raises(CatalogError, match="not supported in dist mode"):
            db.create_view(
                "CREATE UNIQUE INDEXED VIEW j AS "
                "SELECT id, accounts.region, amount, city "
                "FROM accounts JOIN branches "
                "ON accounts.region = branches.region"
            )

    def test_transactional_read_routes(self):
        db = fleet()
        deposit(db, 600, "r", 7)
        txn = db.begin()
        assert db.read(txn, ACCOUNTS, (600,))["amount"] == 7
        db.commit(txn)


class TestCommitPaths:
    def test_single_partition_fast_path_skips_coordinator(self):
        db = fleet()
        deposit(db, 1, "w", 10)
        stats = db.stats()["dist"]
        assert stats["single_partition_commits"] == 1
        assert stats["two_phase_commits"] == 0
        assert db.coordinator.stats()["log_records"] == 0

    def test_cross_partition_commit_folds(self):
        db = fleet()
        db.tracer.enable()
        txn = move(db, 10, 600, "w", 100)
        assert db.commit(txn) == "commit"
        folded = db.read_folded(TOTALS, ("w",))
        assert folded["row_count"] == 2 and folded["total"] == 0
        assert check_conservation(db) == []
        votes = [e for e in db.tracer.events(name="2pc_prepare")]
        assert len(votes) == 2
        assert all(e.fields["vote"] == "yes" for e in votes)
        decide = db.tracer.events(name="2pc_decide")[-1]
        assert decide.fields["decision"] == "commit"
        assert decide.fields["durable"] is True

    def test_empty_global_txn_commits_trivially(self):
        db = fleet()
        assert db.commit(db.begin()) == "commit"

    def test_abort_rolls_back_every_branch(self):
        db = fleet()
        txn = move(db, 10, 600, "w", 5)
        db.abort(txn)
        assert db.read_folded(TOTALS, ("w",)) is None
        assert db.partition(0).read_committed(ACCOUNTS, (10,)) is None
        assert db.partition(2).read_committed(ACCOUNTS, (600,)) is None
        with pytest.raises(TransactionStateError):
            db.insert(txn, ACCOUNTS, {"id": 1, "region": "w", "amount": 1})

    def test_min_max_fold_across_partitions(self):
        db = fleet()
        db.create_view(AggregateView(
            "extremes", ACCOUNTS, ("region",),
            [AggregateSpec.count(), AggregateSpec.min_of("lo", "amount"),
             AggregateSpec.max_of("hi", "amount")],
        ))
        deposit(db, 10, "w", 5)
        deposit(db, 600, "w", 90)
        deposit(db, 900, "w", -3)
        folded = db.read_folded("extremes", ("w",))
        assert folded["lo"] == -3 and folded["hi"] == 90


class TestPrepareFailures:
    def test_crash_before_vote_aborts_globally(self):
        """``prepare:<pid>`` kills the partition before its PREPARE is
        durable: a plain loser, nothing in doubt, global abort."""
        db = fleet()
        inj = FaultInjector(seed=3)
        db.install_fault_injector(inj)
        inj.arm("dist.partition_crash", match="prepare:0", times=1)
        txn = move(db, 10, 600, "w", 4)
        with pytest.raises(TransactionAborted):
            db.commit(txn)
        assert db.down_partitions() == [0]
        # The surviving branch was rolled back by phase 2.
        assert db.partition(2).read_committed(ACCOUNTS, (600,)) is None
        inj.disarm()
        report = db.recover_partition(0)
        assert report.in_doubt == set()
        assert db.down_partitions() == []
        assert db.read_folded(TOTALS, ("w",)) is None
        assert check_conservation(db) == []

    def test_prepare_lost_decides_abort_durably(self):
        """A lost yes vote reads as no: the coordinator decides abort
        *durably*, the prepared branch aborts through its live handle."""
        db = fleet()
        inj = FaultInjector(seed=3)
        db.install_fault_injector(inj)
        inj.arm("dist.prepare_lost", match="0", times=1)
        txn = move(db, 10, 600, "w", 4)
        with pytest.raises(TransactionAborted):
            db.commit(txn)
        inj.disarm()
        assert db.down_partitions() == []
        assert db.coordinator.decided["abort"] == 1
        assert db.read_folded(TOTALS, ("w",)) is None
        assert check_conservation(db) == []


class TestPartialFailure:
    """The headline: ``dist.partition_crash`` at the decide step — one
    partition dies holding a durably-prepared branch while the rest of
    the fleet keeps serving."""

    def crash_mid_2pc(self, db, seed=1):
        inj = FaultInjector(seed=seed)
        db.install_fault_injector(inj)
        inj.arm("dist.partition_crash", match="decide:2", times=1)
        txn = move(db, 10, 600, "e", 40)
        assert db.commit(txn) == "commit"  # decision is durable
        inj.disarm()
        assert db.down_partitions() == [2]
        return txn

    def test_survivors_keep_committing(self):
        db = fleet()
        self.crash_mid_2pc(db)
        for key, pid in ((20, 0), (300, 1), (901, 3)):
            deposit(db, key, "s", 1)
            assert db.partition(pid).read_committed(ACCOUNTS, (key,)) is not None
        # Routing at the dead partition is a retryable denial.
        txn = db.begin()
        with pytest.raises(PartitionUnavailableError) as exc:
            db.insert(txn, ACCOUNTS, {"id": 700, "region": "s", "amount": 1})
        assert isinstance(exc.value, TransactionAborted)
        assert exc.value.partition == 2

    def test_degraded_fold_skips_down_partition(self):
        db = fleet()
        self.crash_mid_2pc(db)
        # Only the src partition is up: the fold covers its -40 leg.
        folded = db.read_folded(TOTALS, ("e",))
        assert folded["row_count"] == 1 and folded["total"] == -40
        assert db.stats()["dist"]["down"] == [2]

    def test_recovery_resolves_in_doubt_commit(self):
        db = fleet()
        db.tracer.enable()
        self.crash_mid_2pc(db)
        report = db.recover_partition(2)
        assert len(report.in_doubt) == 1
        folded = db.read_folded(TOTALS, ("e",))
        assert folded["row_count"] == 2 and folded["total"] == 0
        assert check_conservation(db) == []
        assert db.stats()["dist"]["in_doubt_resolved"]["commit"] == 1
        event = db.tracer.events(name="partition_recovered")[-1]
        assert event.fields["partition"] == 2
        assert event.fields["resolved_commit"] == 1

    def test_crashed_engine_keeps_branch_in_doubt_until_resolution(self):
        """Engine-level view of the same story: after ARIES recovery the
        branch is registered in-doubt, visible (prepared = commit-
        visible), and excluded from losers."""
        db = fleet()
        self.crash_mid_2pc(db)
        engine = db.partition(2)
        report = engine.simulate_crash_and_recover()
        assert len(report.in_doubt) == 1
        assert not report.losers
        (txn_id,) = report.in_doubt
        assert engine.in_doubt_transactions() == {txn_id: "G1"}
        # Prepared means commit-visible: redo put the delta on the row.
        assert engine.read_committed(ACCOUNTS, (600,))["amount"] == 40
        decision = db.coordinator.durable_decision("G1")
        assert decision == "commit"
        engine.resolve_in_doubt(txn_id, decision)
        assert engine.in_doubt_transactions() == {}


class TestPresumedAbort:
    def test_lost_decision_resolves_to_abort(self):
        db = fleet()
        inj = FaultInjector(seed=5)
        db.install_fault_injector(inj)
        inj.arm("dist.decision_lost", times=1)
        txn = move(db, 10, 600, "n", 9)
        assert db.commit(txn) == "in_doubt"
        inj.disarm()
        assert db.stats()["dist"]["lost_decisions"] == 1
        assert db.resolve(txn) == "abort"
        assert db.stats()["dist"]["presumed_aborts"] == 1
        assert db.read_folded(TOTALS, ("n",)) is None
        assert db.partition(0).read_committed(ACCOUNTS, (10,)) is None
        assert check_conservation(db) == []

    def test_coordinator_crash_resolves_to_abort(self):
        db = fleet()
        inj = FaultInjector(seed=5)
        db.install_fault_injector(inj)
        inj.arm("dist.coordinator_crash", times=1)
        txn = move(db, 10, 600, "n", 9)
        assert db.commit(txn) == "in_doubt"
        inj.disarm()
        assert db.resolve(txn) == "abort"
        assert db.read_folded(TOTALS, ("n",)) is None
        assert check_conservation(db) == []

    def test_resolve_requires_in_doubt_state(self):
        db = fleet()
        txn = move(db, 10, 600, "n", 1)
        db.commit(txn)
        with pytest.raises(TransactionStateError):
            db.resolve(txn)


class TestInDoubtLockScope:
    """An in-doubt branch blocks exactly the keys and escrow
    sub-counters it touched — not the partition."""

    def engine_with_in_doubt(self):
        db = Database(EngineConfig(aggregate_strategy="escrow"))
        db.create_table(ACCOUNTS, ("id", "region", "amount"), ("id",))
        db.create_view(AggregateView(
            TOTALS, ACCOUNTS, ("region",),
            [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
        ))
        for key, region in ((1, "a"), (2, "b")):
            with db.transaction() as seed:
                db.insert(seed, ACCOUNTS, {"id": key, "region": region,
                                           "amount": 10})
        txn = db.begin()
        db.update(txn, ACCOUNTS, (1,), {"amount": 25})
        db.prepare(txn, "G9")
        db.simulate_crash_and_recover()
        return db, txn.txn_id

    def test_untouched_keys_stay_writable(self):
        db, _ = self.engine_with_in_doubt()
        with db.transaction() as txn:
            db.update(txn, ACCOUNTS, (2,), {"amount": 11})
        assert db.read_committed(ACCOUNTS, (2,))["amount"] == 11

    def test_touched_key_blocks_until_resolution(self):
        db, txn_id = self.engine_with_in_doubt()
        blocked = db.begin()
        with pytest.raises(TransactionAborted):
            db.update(blocked, ACCOUNTS, (1,), {"amount": 99})
        db.resolve_in_doubt(txn_id, "commit")
        assert db.read_committed(ACCOUNTS, (1,))["amount"] == 25
        with db.transaction() as txn:
            db.update(txn, ACCOUNTS, (1,), {"amount": 30})
        assert db.read_committed(ACCOUNTS, (1,))["amount"] == 30
        assert db.check_all_views() == []

    def test_abort_resolution_reverts_and_restamps(self):
        db, txn_id = self.engine_with_in_doubt()
        db.resolve_in_doubt(txn_id, "abort")
        assert db.read_committed(ACCOUNTS, (1,))["amount"] == 10
        assert db.check_all_views() == []

    def test_resolution_survives_another_crash(self):
        """COMMIT/ABORT + END logged by resolution are durable: a second
        crash after resolving must not resurrect the branch."""
        db, txn_id = self.engine_with_in_doubt()
        db.resolve_in_doubt(txn_id, "commit")
        report = db.simulate_crash_and_recover()
        assert report.in_doubt == set()
        assert db.read_committed(ACCOUNTS, (1,))["amount"] == 25
        assert db.check_all_views() == []

    def test_unknown_decision_rejected(self):
        db, txn_id = self.engine_with_in_doubt()
        with pytest.raises(TransactionStateError):
            db.resolve_in_doubt(txn_id, "maybe")
        # The entry survives a bad call and still resolves.
        db.resolve_in_doubt(txn_id, "abort")


class TestRecycleFloorInDoubt:
    """Satellite: segment recycling must never discard the PREPARE
    evidence an unresolved in-doubt branch needs (regression for the
    ``wal_recycle_floor`` in-doubt clause)."""

    def test_floor_pins_in_doubt_first_lsn(self, tmp_path):
        db = fleet(checkpoint_interval=None, wal_segment_bytes=1024)
        inj = FaultInjector(seed=7)
        db.install_fault_injector(inj)
        inj.arm("dist.decision_lost", times=1)
        txn = move(db, 10, 600, "z", 15)
        assert db.commit(txn) == "in_doubt"
        inj.disarm()

        engine = db.partition(0)
        engine.simulate_crash_and_recover()
        (txn_id,) = engine.in_doubt_transactions()
        first_lsn = engine._in_doubt[txn_id]["first_lsn"]
        # Churn plus a checkpoint would otherwise advance the floor far
        # past the prepared branch's records.
        for key in range(20, 60):
            with engine.transaction() as t:
                engine.insert(t, ACCOUNTS, {"id": key, "region": "q",
                                            "amount": 1})
        engine.take_checkpoint()
        assert engine.wal_recycle_floor() <= first_lsn

        wal_dir = tmp_path / "wal"
        engine.dump_wal_segments(wal_dir)
        engine.recycle_wal_segments(wal_dir)
        # Reload from the recycled chain: the in-doubt branch must
        # survive with its resources intact and still resolve cleanly.
        restored = Database(EngineConfig(aggregate_strategy="escrow"))
        restored.create_table(ACCOUNTS, ("id", "region", "amount"), ("id",))
        restored.create_view(AggregateView(
            TOTALS, ACCOUNTS, ("region",),
            [AggregateSpec.count(), AggregateSpec.sum_of("total", "amount")],
        ))
        report = restored.load_wal_segments_and_recover(wal_dir)
        assert report.salvage is None or report.salvage["lost_commits"] == []
        assert txn_id in report.in_doubt
        restored.resolve_in_doubt(txn_id, "commit")
        assert restored.read_committed(ACCOUNTS, (10,))["amount"] == -15
        assert restored.check_all_views() == []


class TestFleetChaosLeg:
    """The acceptance scenario: 4 partitions, a crash armed mid-2PC,
    three survivors carrying traffic, recovery resolving everything,
    conservation exactly zero."""

    def test_crash_recover_conserves_every_delta(self):
        db = fleet()
        db.tracer.enable()
        inj = FaultInjector(seed=11)
        db.install_fault_injector(inj)
        for key in (5, 255, 505, 755):
            deposit(db, key, "seed", 100)
        assert db.commit(move(db, 20, 270, "m", 30)) == "commit"
        inj.arm("dist.partition_crash", match="decide:3", times=1)
        assert db.commit(move(db, 21, 760, "m", 12)) == "commit"
        inj.disarm()
        assert db.down_partitions() == [3]
        # The surviving three keep absorbing single-partition commits.
        for key in (30, 280, 530):
            deposit(db, key, "live", 4)
        report = db.recover_partition(3)
        assert len(report.in_doubt) == 1
        assert db.down_partitions() == []
        folded = db.read_folded(TOTALS, ("m",))
        assert folded["row_count"] == 4 and folded["total"] == 0
        assert check_conservation(db) == []
        stats = db.stats()["dist"]
        assert stats["in_doubt"] == 0
        assert stats["in_doubt_resolved"]["commit"] == 1
        # Per-partition engines stayed internally consistent too.
        for pid in range(db.partitions):
            assert db.partition(pid).check_all_views() == []
