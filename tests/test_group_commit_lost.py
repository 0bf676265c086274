"""The LOST branch of group commit, directly.

``Database._on_group_flush_failure`` picks between two outcomes when the
batched flush dies: *retract* (inline micro-crash, members retryable)
when rollback provably reaches everything, else *escalate* (tickets
LOST, ``SimulatedCrash``, full recovery). ``tests/test_group_commit.py``
covers the retraction machinery end-to-end; these tests pin the
escalation branch itself — ticket states, counters, and the rule that
*any* active transaction (including a live 2PC-prepared branch, which
stays active until its decision arrives) forbids retraction.
"""

import pytest

from repro.common import FaultInjected, SimulatedCrash
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal import CommitTicket

SALES = "sales"


def grouped_db(size=2):
    db = Database(EngineConfig(
        aggregate_strategy="escrow", group_commit="size",
        group_commit_size=size,
    ))
    db.create_table(SALES, ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "by_product", SALES, ("product",),
        [AggregateSpec.count(), AggregateSpec.sum_of("revenue", "amount")],
    ))
    with db.transaction() as seed:
        db.insert(seed, SALES, {"id": 1, "product": "ant", "amount": 10})
    db.flush_group_commit()
    inj = FaultInjector(seed=0)
    db.install_fault_injector(inj)
    return db, inj


def commit_one(db, i):
    session = db.session()
    txn = session.begin()
    db.insert(txn, SALES, {"id": i, "product": "ant", "amount": 10})
    session.commit()
    return txn


class TestEscalation:
    def test_active_txn_marks_tickets_lost_before_crash(self):
        """With a bystander active at flush-failure time, every group
        member's ticket flips to LOST (reason = the fault site) *before*
        the SimulatedCrash propagates — nothing can wait on them."""
        db, inj = grouped_db(size=2)
        bystander = db.begin()
        db.insert(db.begin(), SALES, {"id": 90, "product": "bee",
                                      "amount": 1})
        inj.arm("wal.group_flush", times=1)
        first = commit_one(db, 10)
        with pytest.raises(SimulatedCrash):
            commit_one(db, 11)  # fills the group; the flush dies
        assert first.commit_ticket.state == CommitTicket.LOST
        assert first.commit_ticket.reason == "wal.group_flush"
        gc = db.stats()["group_commit"]
        assert gc["lost_txns"] == 2
        assert gc["crash_escalations"] == 1
        assert gc["retracted_txns"] == 0
        db.simulate_crash_and_recover()
        # Recovery rolled the lost members (and the bystander) back.
        for key in (10, 11, 90):
            assert db.read_committed(SALES, (key,)) is None
        assert db.read_committed(SALES, (1,)) is not None
        assert db.check_all_views() == []
        assert bystander.txn_id not in {
            t.txn_id for t in db.active_transactions()
        }

    def test_no_active_txns_retracts_instead(self):
        """The contrast case: same fault, no bystander — the engine
        retracts inline and never escalates."""
        db, inj = grouped_db(size=2)
        inj.arm("wal.group_flush", times=1)
        first = commit_one(db, 10)
        with pytest.raises(FaultInjected):
            commit_one(db, 11)
        assert first.commit_ticket.state == CommitTicket.RETRACTED
        gc = db.stats()["group_commit"]
        assert gc["retracted_txns"] == 2
        assert gc["crash_escalations"] == 0
        assert db.read_committed(SALES, (10,)) is None
        assert db.check_all_views() == []

    def test_live_prepared_branch_forces_escalation(self):
        """A 2PC-prepared branch is still an active transaction — its
        outcome belongs to the coordinator, so the engine cannot prove
        an inline retraction reaches everything and must escalate."""
        db, inj = grouped_db(size=2)
        branch = db.begin()
        db.insert(branch, SALES, {"id": 80, "product": "cat", "amount": 5})
        db.prepare(branch, "G7")
        inj.arm("wal.group_flush", times=1)
        first = commit_one(db, 10)
        with pytest.raises(SimulatedCrash):
            commit_one(db, 11)
        assert first.commit_ticket.state == CommitTicket.LOST
        assert db.stats()["group_commit"]["crash_escalations"] == 1
        report = db.simulate_crash_and_recover()
        # The group members died as losers; the prepared branch did not —
        # it is in-doubt, awaiting the coordinator, and resolves cleanly.
        assert branch.txn_id in report.in_doubt
        assert db.read_committed(SALES, (10,)) is None
        db.resolve_in_doubt(branch.txn_id, "commit")
        assert db.read_committed(SALES, (80,))["amount"] == 5
        assert db.check_all_views() == []

    def test_prepare_flush_never_rides_the_commit_group(self):
        """``prepare`` flushes the WAL immediately: its durability must
        not wait on a group whose flush the decision itself gates on.
        After prepare, nothing of the branch sits in the volatile
        suffix."""
        db, _ = grouped_db(size=8)
        branch = db.begin()
        db.insert(branch, SALES, {"id": 80, "product": "cat", "amount": 5})
        db.prepare(branch, "G7")
        assert db.log.flushed_lsn == len(db.log)
        assert db.group_commit.pending_count() == 0
