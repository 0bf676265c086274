"""Crash-at-every-LSN sweep: recovery correctness at *every* possible
crash point.

A fixed workload runs to completion with the log fully flushed. Then,
for every prefix of the log, a fresh database recovers from exactly that
prefix and must satisfy the consistency oracle: every view equals the
recomputation over the recovered base tables, and committed-transaction
durability is exact (a transaction is recovered iff its COMMIT record is
inside the prefix). This is the brute-force version of the targeted
recovery tests — if any single log boundary were unsafe, this finds it.
"""

import pytest

from repro.core import Database, EngineConfig
from repro.query import AggregateSpec
from repro.views import AggregateView
from repro.wal import RecordType
from repro.wal.segments import load_segments


def build_schema(strategy):
    db = Database(EngineConfig(aggregate_strategy=strategy))
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v", "sales", group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("t", "amount"),
        ],
    ))
    return db


def run_workload(db):
    """A scenario touching every mechanism: inserts, hot-group escrow,
    deletes to zero, revival, update moving groups, an abort, cleanup."""
    with db.transaction() as txn:
        db.insert(txn, "sales", {"id": 1, "product": "a", "amount": 10})
        db.insert(txn, "sales", {"id": 2, "product": "a", "amount": 20})
        db.insert(txn, "sales", {"id": 3, "product": "b", "amount": 5})
    t_abort = db.begin()
    db.insert(t_abort, "sales", {"id": 4, "product": "a", "amount": 99})
    db.abort(t_abort)
    with db.transaction() as txn:
        db.delete(txn, "sales", (3,))  # empties group b
    with db.transaction() as txn:
        db.insert(txn, "sales", {"id": 5, "product": "b", "amount": 7})  # revives
    with db.transaction() as txn:
        db.update(txn, "sales", (1,), {"product": "b"})  # moves groups
    db.run_ghost_cleanup()
    db.log.flush()


def committed_ids_in_prefix(log, limit_lsn):
    return {
        r.txn_id
        for r in log.records()
        if r.type is RecordType.COMMIT and r.lsn <= limit_lsn
    }


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_correct_at_every_crash_point(strategy, tmp_path):
    reference = build_schema(strategy)
    run_workload(reference)
    path = tmp_path / "wal"
    reference.dump_wal_segments(path)
    full_log = load_segments(path)
    tail = full_log.tail_lsn()
    # sanity: the scenario produced a meaningful log
    assert tail > 30

    for crash_lsn in range(0, tail + 1):
        db = build_schema(strategy)
        db.log = load_segments(path)
        db.log.flushed_lsn = crash_lsn
        db.log.crash()  # discard everything past the crash point
        report = db._rebuild_from_log()
        # durability is exact: winners = commits inside the prefix
        expected_winners = committed_ids_in_prefix(full_log, crash_lsn)
        assert report.winners == expected_winners, f"lsn={crash_lsn}"
        # every view matches the recomputation over recovered base data
        problems = db.check_all_views()
        assert problems == [], f"lsn={crash_lsn}: {problems[:2]}"
        # and the recovered engine still works
        with db.transaction() as txn:
            db.insert(txn, "sales", {"id": 900, "product": "z", "amount": 1})
        assert db.read_committed("v", ("z",))["n"] == 1


def build_fuzzy_schema(strategy):
    """Same schema, but on a paged engine small enough to churn: auto
    fuzzy checkpoints every 2 commits, 4 frames, 256-byte pages."""
    db = Database(
        EngineConfig(
            aggregate_strategy=strategy,
            checkpoint_interval=2,
            buffer_pool_frames=4,
            page_size=256,
        )
    )
    db.create_table("sales", ("id", "product", "amount"), ("id",))
    db.create_view(AggregateView(
        "v", "sales", group_by=("product",),
        aggregates=[
            AggregateSpec.count("n"),
            AggregateSpec.sum_of("t", "amount"),
        ],
    ))
    return db


def base_table_in_prefix(log, limit_lsn):
    """Oracle: the committed contents of the ``sales`` base index after
    recovering from exactly this log prefix — winners' data records
    applied in LSN order, losers absent entirely."""
    winners = committed_ids_in_prefix(log, limit_lsn)
    rows = {}
    for r in log.records():
        if r.lsn > limit_lsn:
            break
        if r.txn_id not in winners or getattr(r, "index_name", None) != "sales":
            continue
        if r.type is RecordType.INSERT:
            rows[r.key] = dict(r.row.as_dict())
        elif r.type is RecordType.UPDATE:
            rows[r.key] = dict(r.after.as_dict())
        elif r.type in (RecordType.DELETE, RecordType.GHOST):
            # a ghost is the *visible* removal; the later CLEANUP only
            # reclaims the slot, which a ghost-excluding scan never sees
            rows.pop(r.key, None)
    return rows


def fuzzy_sweep(strategy, tmp_path, workload):
    """Crash-at-every-LSN sweep harness over the paged engine: at every
    crash boundary the surviving device state is the log prefix PLUS
    every page image written back before that point (reconstructed from
    a ``PageStore.write_listener`` timeline). Asserts full consistency
    at each boundary; returns ``(reference_db, seeded_points,
    redo_skipped_total)`` so callers can check the machinery engaged."""
    reference = build_fuzzy_schema(strategy)
    timeline = []  # (log tail at write time, page_id, raw image)
    reference._store.write_listener = lambda pid, data: timeline.append(
        (reference.log.tail_lsn(), pid, data)
    )
    workload(reference)
    reference.take_checkpoint(kind="fuzzy")
    reference.log.flush()
    path = tmp_path / "wal"
    reference.dump_wal_segments(path)
    full_log = load_segments(path)
    tail = full_log.tail_lsn()
    checkpoints = [
        r.lsn for r in full_log.records()
        if r.type is RecordType.CHECKPOINT
    ]
    assert checkpoints, "the workload must cross at least one fuzzy checkpoint"
    assert timeline, "the workload must write pages back"

    seeded_points = 0
    redo_skipped_total = 0
    for crash_lsn in range(0, tail + 1):
        db = build_fuzzy_schema(strategy)
        db.log = load_segments(path)
        db.log.flushed_lsn = crash_lsn
        db.log.crash()
        # reconstruct the device: last image per page written while the
        # log tail was still inside the surviving prefix
        images = {}
        for written_at, page_id, data in timeline:
            if written_at <= crash_lsn:
                images[page_id] = data
        db._store.restore(images)
        report = db._rebuild_from_log()
        # analysis starts at the last checkpoint inside the prefix, so
        # the report's winners are the commits after that point
        ckpt_lsn = max((c for c in checkpoints if c <= crash_lsn), default=0)
        expected_winners = {
            t
            for t in committed_ids_in_prefix(full_log, crash_lsn)
            if t not in committed_ids_in_prefix(full_log, ckpt_lsn)
        }
        assert report.winners == expected_winners, f"lsn={crash_lsn}"
        # data-level durability is exact across the *whole* prefix,
        # checkpoint or not: the recovered base table equals the oracle
        recovered = {
            key: dict(rec.current_row.as_dict())
            for key, rec in db._indexes["sales"].scan()
        }
        assert recovered == base_table_in_prefix(full_log, crash_lsn), (
            f"lsn={crash_lsn}"
        )
        problems = db.check_all_views()
        assert problems == [], f"lsn={crash_lsn}: {problems[:2]}"
        assert db.check_integrity().clean, f"lsn={crash_lsn}"
        seeded_points += report.pages_loaded > 0
        redo_skipped_total += report.redo_skipped
        with db.transaction() as txn:
            db.insert(txn, "sales", {"id": 900, "product": "z", "amount": 1})
        assert db.read_committed("v", ("z",))["n"] == 1
    return reference, seeded_points, redo_skipped_total


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_correct_at_every_crash_point_across_fuzzy_checkpoints(
    strategy, tmp_path
):
    """The full sweep again, but across *fuzzy* checkpoints on a paged
    engine. The page-seeded, redo-gated recovery must be exactly as
    correct as pure log replay — and the sweep must prove the gate
    actually engages (pages seeded, redo skipped) at some boundaries.

    With a checkpoint in the prefix, analysis starts there, so
    ``report.winners`` only names commits *after* it; pre-checkpoint
    durability is asserted at the data level against the replay oracle
    (:func:`base_table_in_prefix`)."""
    _, seeded_points, redo_skipped_total = fuzzy_sweep(
        strategy, tmp_path, run_workload
    )
    # the sweep exercised the ARIES machinery, not just full replay
    assert seeded_points > 0
    assert redo_skipped_total > 0


def run_growth_workload(db):
    """Rows whose payloads widen step by step, so mirrored entries
    outgrow their slots and move between pages (leaving superseded
    stale copies behind). Every committed fact must survive recovery
    no matter which of the two pages involved in a move was the one
    that reached the store before the crash."""
    with db.transaction() as txn:
        for i in range(1, 4):
            db.insert(txn, "sales", {"id": i, "product": "p", "amount": i})
    for width in (8, 24, 56, 120):
        # each step widens the row for key 2 and moves it to a new view
        # group, churning both the base entry and the group entries
        with db.transaction() as txn:
            db.update(txn, "sales", (2,), {"product": "g" * width})
    with db.transaction() as txn:
        db.delete(txn, "sales", (3,))
    db.run_ghost_cleanup()
    db.log.flush()


@pytest.mark.parametrize("strategy", ["escrow", "xlock"])
def test_recovery_correct_when_entries_move_between_pages(strategy, tmp_path):
    """Crash sweep across page-to-page entry moves: the winner election
    over durable pages must never lose a committed key to a superseded
    copy — at every boundary, whatever subset of pages the timeline
    says was durable. (Regression for the tombstone-on-move bug: a
    same-LSN tombstone could gate out the very record that moved the
    entry, silently dropping the key.)"""
    reference, seeded_points, _ = fuzzy_sweep(
        strategy, tmp_path, run_growth_workload
    )
    # the workload genuinely forced entries to move between pages
    assert reference._pages.moves > 0
    assert seeded_points > 0
