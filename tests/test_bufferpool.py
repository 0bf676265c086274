"""Buffer-pool properties: pins protect frames, eviction respects
WAL-before-write, and the engine keeps both under memory pressure.

The two contracted behaviours (``docs/STORAGE.md`` §2):

* a pinned page is **never** evicted — an exhausted pool raises instead;
* evicting a dirty page forces the WAL durable up to the page's
  ``pageLSN`` before the image reaches the store.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Row, StorageError
from repro.core import Database, EngineConfig
from repro.obs import Tracer
from repro.query import AggregateSpec
from repro.storage.bufferpool import BufferPool, PageStore
from repro.storage.pages import SlottedPage
from repro.views import AggregateView
from repro.wal import LogManager
from repro.wal.records import InsertRecord

PAGE_SIZE = 128


def make_pool(capacity, log=None, tracer=None):
    store = PageStore()
    pool = BufferPool(
        store, capacity=capacity, log=log,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    return store, pool


def add_pages(pool, n, start=1):
    for pid in range(start, start + n):
        pool.add_page(SlottedPage(pid, page_size=PAGE_SIZE))


class TestPinsProtectFrames:
    def test_pinned_page_survives_any_amount_of_pressure(self):
        tracer = Tracer()
        tracer.enable(categories=("storage",))
        store, pool = make_pool(3, tracer=tracer)
        add_pages(pool, 3)
        pool.pin(1)
        add_pages(pool, 20, start=10)  # far beyond capacity
        evicted = {
            e.fields["page_id"]
            for e in tracer.events()
            if e.name == "page_evicted"
        }
        assert evicted  # pressure really happened
        assert 1 not in evicted
        assert pool.page(1).page_id == 1  # still resident, still pinned
        assert pool.stats()["resident"] <= 3

    def test_exhausted_pool_raises_instead_of_evicting_a_pin(self):
        store, pool = make_pool(2)
        add_pages(pool, 2)
        pool.pin(1)
        pool.pin(2)
        with pytest.raises(StorageError, match="exhausted"):
            pool.add_page(SlottedPage(3, page_size=PAGE_SIZE))

    def test_unpin_makes_the_frame_evictable_again(self):
        store, pool = make_pool(2)
        add_pages(pool, 2)
        pool.pin(1)
        pool.pin(2)
        pool.unpin(1)
        pool.add_page(SlottedPage(3, page_size=PAGE_SIZE))  # now fits
        assert pool.stats()["resident"] == 2

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)), max_size=40))
    def test_random_op_sequences_never_evict_a_pinned_page(self, script):
        """Property: across arbitrary add/touch/pin/unpin interleavings
        on a tiny pool, no ``page_evicted`` event ever names a page that
        was pinned at that moment."""
        tracer = Tracer()
        tracer.enable(categories=("storage",))
        store, pool = make_pool(2, tracer=tracer)
        known, pins = set(), set()
        seen = 0
        for op, pid in script:
            try:
                if op == 0:  # admit a page (or touch it if known)
                    if pid in known:
                        pool.page(pid)
                    else:
                        pool.add_page(SlottedPage(pid, page_size=PAGE_SIZE))
                        known.add(pid)
                elif op == 1 and pid in known:  # touch / read through
                    pool.page(pid)
                elif op == 2 and pid in known:  # pin
                    pool.pin(pid)
                    pins.add(pid)
                elif op == 3 and pid in pins:  # unpin once
                    pool.unpin(pid)
                    pins.discard(pid)
            except StorageError as err:
                assert "exhausted" in str(err)
                continue
            for event in tracer.events()[seen:]:
                if event.name == "page_evicted":
                    assert event.fields["page_id"] not in pins
            seen = len(tracer.events())
            assert pool.stats()["resident"] <= 2
            for pinned in pins:
                # a pinned page is always resident: requesting it is a hit
                before = pool.misses
                pool.page(pinned)
                assert pool.misses == before


class TestWalBeforeWrite:
    def _log_with_records(self, n):
        log = LogManager()
        for i in range(1, n + 1):
            log.append(InsertRecord(1, "t", (i,), Row({"id": i})))
        return log

    def test_dirty_eviction_flushes_the_wal_to_page_lsn(self):
        log = self._log_with_records(5)
        assert log.flushed_lsn == 0  # nothing durable yet
        store, pool = make_pool(2, log=log)
        add_pages(pool, 2)
        pool.record_insert(1, b"x" * 8, lsn=4)  # page 1 dirty at pageLSN 4
        pool.record_insert(2, b"y" * 8, lsn=5)  # no clean victim available
        pool.add_page(SlottedPage(3, page_size=PAGE_SIZE))  # evicts page 1
        assert pool.dirty_evictions == 1
        assert pool.forced_wal_flushes == 1
        # WAL-before-write: the flush covered the page's LSN first
        assert log.flushed_lsn >= 4
        assert store.read_page(1).page_lsn == 4

    def test_clean_eviction_never_touches_the_wal(self):
        log = self._log_with_records(3)
        store, pool = make_pool(2, log=log)
        add_pages(pool, 2)
        pool.flush_dirty()
        flushed_before = log.flushed_lsn
        add_pages(pool, 3, start=10)
        assert pool.forced_wal_flushes == 0
        assert log.flushed_lsn == flushed_before

    def test_flush_target_is_min_of_page_lsn_and_tail(self):
        log = self._log_with_records(3)
        store, pool = make_pool(4, log=log)
        add_pages(pool, 1)
        pool.record_insert(1, b"y" * 4, lsn=2)
        pool.flush_page(1)
        assert log.flushed_lsn >= 2
        assert store.read_page(1).page_lsn == 2


class TestEntryMovesSurviveCrashes:
    """A mirrored entry that outgrows its page is re-placed elsewhere.
    The superseded copy must stay behind as a stale (lower-LSN) fact:
    whichever subset of pages reaches the store before a crash, the
    per-key winner election plus gated redo must reconstruct every
    committed row. (Regression: the old tombstone-on-move scheme could
    elect a same-LSN tombstone and skip the move record entirely.)"""

    def build(self):
        db = Database(EngineConfig(buffer_pool_frames=8, page_size=256))
        db.create_table("t", ("id", "data"), ("id",))
        return db

    def grow_until_moved(self, db):
        """Widen row (1,) until its mirror entry moves pages; returns
        ``(old_location, new_location, final_data_value)``."""
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1, "data": "x"})
        old_loc = db._pages._slots[("t", (1,))]
        width, last = 8, "x"
        while db._pages.moves == 0:
            assert width < 100_000, "entry never moved pages"
            last = "x" * width
            with db.transaction() as txn:
                db.update(txn, "t", (1,), {"data": last})
            width *= 2
        new_loc = db._pages._slots[("t", (1,))]
        assert new_loc[0] != old_loc[0]
        return old_loc, new_loc, last

    def test_move_with_only_the_old_page_durable_keeps_the_key(self):
        """The reviewer scenario: the page the entry moved OFF is the
        only one the store saw. The stale copy there is the key's only
        durable trace — recovery must seed it and redo the move."""
        db = self.build()
        old_loc, _, last = self.grow_until_moved(db)
        db.log.flush()
        db._pool.flush_page(old_loc[0])
        assert db._store.page_ids() == [old_loc[0]]
        report = db.simulate_crash_and_recover()
        assert report.pages_loaded == 1
        record = db._indexes["t"].get_record((1,))
        assert record is not None
        assert record.current_row["data"] == last

    def test_move_with_both_pages_durable_elects_the_newest_copy(self):
        db = self.build()
        old_loc, new_loc, last = self.grow_until_moved(db)
        db.log.flush()
        db._pool.flush_dirty()
        report = db.simulate_crash_and_recover()
        assert report.pages_loaded >= 2
        record = db._indexes["t"].get_record((1,))
        assert record.current_row["data"] == last  # stale copy lost
        # and the winner is gated: the old records were not re-applied
        assert report.redo_skipped > 0

    def test_delete_tombstone_still_wins_when_durable(self):
        db = self.build()
        with db.transaction() as txn:
            db.insert(txn, "t", {"id": 1, "data": "x"})
        with db.transaction() as txn:
            db.delete(txn, "t", (1,))
        db.run_ghost_cleanup()
        db.log.flush()
        db._pool.flush_dirty()
        db.simulate_crash_and_recover()
        assert db._indexes["t"].get_record((1,)) is None

    def test_checkpoint_reclaims_the_stale_copy(self):
        db = self.build()
        old_loc, _, last = self.grow_until_moved(db)
        assert db._pages._stale  # the move left a superseded copy
        db.take_checkpoint(kind="fuzzy")
        assert db._pages._stale == []  # checkpoint swept it
        # the old slot is actually dead on its page now
        with pytest.raises(StorageError):
            db._pool.page(old_loc[0]).read_record(old_loc[1])
        # and a crash at any later point still recovers the key
        db.simulate_crash_and_recover()
        record = db._indexes["t"].get_record((1,))
        assert record.current_row["data"] == last


class TestEngineUnderMemoryPressure:
    """A whole engine on a tiny pool: evictions mid-transaction force
    WAL flushes, and nothing the views promise is lost."""

    def build(self):
        db = Database(
            EngineConfig(
                buffer_pool_frames=2, page_size=128, checkpoint_interval=3
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

    def test_pressure_run_stays_consistent_and_flushes_early(self):
        db = self.build()
        # one big transaction: pages dirtied at unflushed LSNs get evicted
        # mid-transaction, so the write-back must flush the WAL first
        with db.transaction() as txn:
            for i in range(1, 25):
                db.insert(
                    txn, "sales",
                    {"id": i, "product": f"p{i % 5}", "amount": i},
                )
        storage = db.stats()["storage"]
        assert storage["pool"]["evictions"] > 0
        assert storage["pool"]["dirty_evictions"] > 0
        assert storage["pool"]["forced_wal_flushes"] > 0
        assert db.check_all_views() == []
        assert db.check_integrity().clean

    def test_recovery_after_pressure_run(self):
        db = self.build()
        for i in range(1, 25):
            with db.transaction() as txn:
                db.insert(
                    txn, "sales",
                    {"id": i, "product": f"p{i % 5}", "amount": i},
                )
        report = db.simulate_crash_and_recover()
        assert report.pages_loaded > 0  # durable pages seeded recovery
        assert db.check_all_views() == []
        assert db.read_committed("v", ("p1",))["n"] == 5
