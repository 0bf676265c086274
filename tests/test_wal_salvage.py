"""Checksummed WAL + the salvage pass.

The contract under test (docs/ROBUSTNESS.md, "Recovery hardening"):
every durable record carries a CRC over its canonical serialization;
recovery runs a salvage scan first, truncates the log at the first bad
checksum, and classifies the loss — committed work rolled back
(``lost_commits``) is *never* silent, uncommitted debris is honest
``tail_garbage``. A negative control with checksums disabled proves the
integrity checker is a real oracle, not a tautology.
"""

import json
import pathlib
import zlib

import pytest

from repro.common import ReproError, WalCorruptionError
from repro.core import Database, EngineConfig
from repro.faults import FaultInjector
from repro.obs import validate_recovery_report
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal import RecordType, salvage
from repro.wal.segments import load_segments
from repro.workload import BY_PRODUCT, SALES


def sales_db(**kwargs):
    db = Database(EngineConfig(**kwargs))
    db.create_table(SALES, ("id", "product", "customer", "amount"), ("id",))
    db.create_view(AggregateView(
        BY_PRODUCT,
        SALES,
        group_by=("product",),
        aggregates=[
            AggregateSpec.count("n_sales"),
            AggregateSpec.sum_of("revenue", "amount"),
        ],
    ))
    return db


def sale(i, product="ant", amount=10):
    return {"id": i, "product": product, "customer": 1, "amount": amount}


def commit_sales(db, ids, **kw):
    for i in ids:
        with db.transaction() as txn:
            db.insert(txn, SALES, sale(i, **kw))


class TestChecksums:
    def test_flushed_records_are_stamped(self):
        db = sales_db()
        commit_sales(db, range(1, 4))
        for record in db.log.records():
            if record.lsn <= db.log.flushed_lsn:
                assert record.stored_crc is not None
                assert record.verify_checksum()

    def test_unstamped_record_verifies_vacuously(self):
        db = sales_db(wal_checksums=False)
        commit_sales(db, [1])
        record = next(iter(db.log.records()))
        assert record.stored_crc is None
        assert record.verify_checksum()

    def test_dump_load_round_trip_preserves_crc(self, tmp_path):
        db = sales_db()
        commit_sales(db, range(1, 4))
        path = tmp_path / "wal"
        db.dump_wal_segments(path)
        loaded = load_segments(path)
        assert len(loaded) == len(db.log)
        for record in loaded.records():
            assert record.stored_crc is not None
            assert record.verify_checksum()
        assert salvage(loaded) is None

    def test_corruption_helper_breaks_verification(self):
        db = sales_db()
        commit_sales(db, [1])
        victim = list(db.log.records())[2]
        assert victim.verify_checksum()
        db.log.corrupt(victim.lsn)
        assert not victim.verify_checksum()


class TestSalvage:
    def test_clean_log_salvages_to_none(self):
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.log.flush()
        assert salvage(db.log) is None

    def test_lost_commit_is_classified(self):
        """Corrupting a committed transaction's record drops its COMMIT:
        the loss is committed work and must be named."""
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.log.flush()
        # corrupt the BEGIN of the *last* committed transaction
        begins = db.log.records_by_type(RecordType.BEGIN)
        victim = begins[-1]
        db.log.corrupt(victim.lsn)
        report = salvage(db.log)
        assert report is not None
        assert report["truncated_lsn"] == victim.lsn
        assert report["corrupt_record"] == "BeginRecord"
        assert report["lost_commits"] == [victim.txn_id]
        assert report["dropped_records"] > 0
        assert report["tail_garbage"] == 0
        # the log was actually cut there
        assert db.log.tail_lsn() == victim.lsn - 1

    def test_uncommitted_tail_is_garbage_not_loss(self):
        db = sales_db()
        commit_sales(db, [1])
        t = db.begin()
        db.insert(t, SALES, sale(2))
        db.log.flush()  # loser's records are durable, COMMIT never written
        inserts = db.log.records_by_type(RecordType.INSERT)
        victim = inserts[-1]
        assert victim.txn_id == t.txn_id
        db.log.corrupt(victim.lsn)
        report = salvage(db.log)
        assert report["lost_commits"] == []
        assert report["tail_garbage"] == report["dropped_records"] > 0

    def test_salvage_with_verify_false_only_reports_undecodable(self):
        db = sales_db()
        commit_sales(db, [1])
        db.log.flush()
        db.log.corrupt(next(iter(db.log.records())).lsn)
        assert salvage(db.log, verify=False) is None


class TestRecoveryIntegration:
    def crash_with_corruption(self, **config):
        db = sales_db(**config)
        commit_sales(db, range(1, 4), product="ant", amount=10)
        db.log.flush()
        begins = db.log.records_by_type(RecordType.BEGIN)
        victim = begins[-1]
        db.log.corrupt(victim.lsn)
        return db, victim

    def test_recovery_reports_salvage_and_stays_consistent(self):
        db, victim = self.crash_with_corruption()
        db.tracer.enable()
        report = db.simulate_crash_and_recover()
        assert report.salvage is not None
        assert report.salvage["lost_commits"] == [victim.txn_id]
        assert victim.txn_id not in report.winners
        # honest loss: the surviving state is consistent without it
        assert db.check_all_views() == []
        assert db.read_committed(BY_PRODUCT, ("ant",))["n_sales"] == 2
        assert validate_recovery_report(report.as_dict()) == []
        events = db.tracer.events(name="wal_salvage")
        assert len(events) == 1
        assert events[0].fields["lost_commits"] == [victim.txn_id]
        assert db.counters.get("wal.salvage") == 1

    def test_strict_policy_raises_on_committed_loss(self):
        db, victim = self.crash_with_corruption(salvage_policy="strict")
        with pytest.raises(WalCorruptionError) as exc:
            db.simulate_crash_and_recover()
        assert exc.value.salvage["lost_commits"] == [victim.txn_id]
        # the log is already truncated; a second attempt completes and
        # still carries the salvage report (the loss is not forgotten)
        report = db.simulate_crash_and_recover()
        assert report.salvage["lost_commits"] == [victim.txn_id]
        assert db.check_all_views() == []

    def test_strict_policy_ignores_pure_tail_garbage(self):
        db = sales_db(salvage_policy="strict")
        commit_sales(db, [1])
        t = db.begin()
        db.insert(t, SALES, sale(2))
        db.log.flush()
        db.log.corrupt(db.log.records_by_type(RecordType.INSERT)[-1].lsn)
        report = db.simulate_crash_and_recover()  # must not raise
        assert report.salvage["lost_commits"] == []
        assert db.check_all_views() == []

    def test_unknown_salvage_policy_rejected(self):
        with pytest.raises(ReproError):
            EngineConfig(salvage_policy="panic")

    def test_dump_load_with_tampered_line(self, tmp_path):
        """On-disk tampering that stays valid JSON is caught by the
        record CRC, even when the segment trailer is re-sealed over it."""
        db = sales_db()
        commit_sales(db, range(1, 4))
        path = tmp_path / "wal"
        (segment,) = db.dump_wal_segments(path)
        header, *body, trailer = pathlib.Path(segment).read_text().splitlines()
        doc = json.loads(body[5])
        assert doc["lsn"] == 6 and doc["crc"] is not None
        doc["txn_id"] = 999  # payload edit without re-stamping the CRC
        body[5] = json.dumps(doc)
        payload = "\n".join(body) + "\n"
        seal = json.loads(trailer)
        seal["crc"] = zlib.crc32(payload.encode("utf-8"))
        pathlib.Path(segment).write_text(
            header + "\n" + payload + json.dumps(seal) + "\n"
        )
        fresh = sales_db()
        report = fresh.load_wal_segments_and_recover(path)
        assert report.salvage is not None
        assert report.salvage["truncated_lsn"] == 6
        assert fresh.check_all_views() == []

    def test_undecodable_tail_is_counted(self, tmp_path):
        db = sales_db(wal_segment_bytes=1024)
        commit_sales(db, range(1, 9))
        path = tmp_path / "wal"
        segments = db.dump_wal_segments(path)
        assert len(segments) > 1
        last = pathlib.Path(segments[-1])
        torn = last.read_text()
        last.write_text(torn[: len(torn) // 2])  # torn final segment
        fresh = sales_db()
        report = fresh.load_wal_segments_and_recover(path)
        assert report.salvage is not None
        assert report.salvage["undecodable_lines"] >= 1
        assert report.salvage["truncated_lsn"] is None
        assert fresh.check_all_views() == []
        # the intact segments before the tear still recover
        assert fresh.read_committed(SALES, (1,)) is not None


class TestCorruptFaultSite:
    def test_seeded_corruption_detected_end_to_end(self):
        db = sales_db()
        injector = db.install_fault_injector(FaultInjector(seed=7))
        injector.arm("wal.corrupt", after=10, times=1)
        commit_sales(db, range(1, 6))
        db.log.flush()
        assert injector.fired.get("wal.corrupt") == 1
        report = db.simulate_crash_and_recover()
        assert report.salvage is not None
        assert report.salvage["dropped_records"] > 0
        assert db.check_all_views() == []

    def test_match_targets_record_type(self):
        db = sales_db()
        injector = db.install_fault_injector(FaultInjector())
        injector.arm("wal.corrupt", match="CommitRecord", times=1)
        commit_sales(db, range(1, 4))
        db.log.flush()
        report = db.simulate_crash_and_recover()
        assert report.salvage["corrupt_record"] == "CommitRecord"


class TestNegativeControl:
    """With checksums off, corruption *does* flow through silently —
    proving the salvage oracle is load-bearing — and the independent
    integrity checker still catches the damage."""

    def test_checksums_off_means_silent_corruption(self):
        db = sales_db(wal_checksums=False)
        commit_sales(db, range(1, 4))
        db.log.flush()
        # flip a committed escrow delta; without checksums nothing can
        # notice at recovery time
        deltas = db.log.records_by_type(RecordType.ESCROW_DELTA)
        db.log.corrupt(deltas[0].lsn)
        report = db.simulate_crash_and_recover()
        assert report.salvage is None  # recovery had no idea
        # ...but the online checker recomputes from base tables and sees it
        integrity = db.check_integrity()
        assert not integrity.clean
        assert BY_PRODUCT in integrity.damaged_views()

    def test_checksums_on_catches_the_same_corruption(self):
        db = sales_db()
        commit_sales(db, range(1, 4))
        db.log.flush()
        deltas = db.log.records_by_type(RecordType.ESCROW_DELTA)
        db.log.corrupt(deltas[0].lsn)
        report = db.simulate_crash_and_recover()
        assert report.salvage is not None  # loudly reported
        assert db.check_integrity().clean  # surviving prefix consistent
