"""The buffer pool: fixed frames, pin/unpin, LRU eviction, dirty-page
table, and the write-ahead rule at the page boundary.

Three layers live here (the pinned contract is ``docs/STORAGE.md``):

* :class:`PageStore` — the simulated durable device. It holds the last
  written image of every page and survives a crash; the
  ``page.torn_write`` fault site corrupts an image *in flight* so the
  CRC check in :meth:`~repro.storage.pages.SlottedPage.from_bytes`
  trips at the next read.
* :class:`BufferPool` — a fixed number of frames over the store.
  Fetching a non-resident page evicts the least-recently-used unpinned
  frame (clean frames preferred); a **pinned page is never evicted**,
  and evicting a dirty page first forces the WAL out to the page's
  ``page_lsn`` (WAL-before-write), then writes the image, then emits the
  ``page_evicted`` event — which the WAL-rule sanitizer checks against
  the durable log boundary.
* :class:`PageManager` — the engine's write-through mirror. Hooked in as
  the log's append listener, it re-applies every data record (including
  CLRs, whose redo is the compensated record's undo) to a slotted-page
  image of each index, stamping every entry with the LSN that produced
  it. The dirty-page table it feeds is what a fuzzy checkpoint snapshots
  and what bounds ARIES redo after a crash.

Entries are stored one per key as JSON payloads
``[index, key, row, is_ghost, lsn, dead]``. A delete leaves a *dead*
entry (tombstone) in place rather than reclaiming the slot, and an
entry that outgrows its page is re-placed elsewhere with the superseded
copy left behind as a *stale* fact — every durable entry is therefore a
true logical state of its key as of its LSN, and the newest one wins
recovery's per-key election no matter which subset of pages reached the
store before the crash. Stale copies are erased only once their
replacement is durable (:meth:`PageManager.reclaim_stale`, run after a
checkpoint's ``flush_dirty``); erasing them earlier could leave a crash
with no durable trace of the key at all. Recovery gates redo per key: a
live winner covers records up to and including its own LSN, while a
dead winner covers only strictly older ones, so the record that
produced a tombstone is always redone (deletes are idempotent).

>>> from repro.storage.pages import SlottedPage
>>> store = PageStore()
>>> pool = BufferPool(store, capacity=2)
>>> for pid in (1, 2, 3):
...     _ = pool.add_page(SlottedPage(pid, page_size=128))
...     _ = pool.record_insert(pid, b"x" * 8)
>>> pool.stats()["evictions"], sorted(store.page_ids())
(1, [1])
>>> pool.flush_dirty()
2
>>> pool.page(1).read_record(0)
b'xxxxxxxx'
>>> pool.pin(2); pool.unpin(2)
"""

import json

from repro.common import StorageError
from repro.faults import NULL_INJECTOR
from repro.obs.tracer import NULL_TRACER
from repro.storage.pages import PAGE_HEADER, PAGE_SLOT, MAX_PAGE_SIZE, SlottedPage

#: log record types the page mirror replays (by RecordType value, so the
#: storage layer needs no import from repro.wal)
_MIRRORED = frozenset({
    "insert", "update", "delete", "ghost", "revive", "cleanup",
    "escrow_delta", "counter_image", "clr",
})


class PageStore:
    """The durable side of the page world: last-written image per page.

    A crash loses every buffer-pool frame but none of these images —
    recovery seeds its redo gate from them. ``write_listener`` (when
    set) observes every completed write, corrupted or not, so crash
    harnesses can reconstruct the exact device state at any boundary.
    """

    def __init__(self, faults=None):
        self._images = {}  # page_id -> bytes
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.writes = 0
        self.reads = 0
        self.torn_writes = 0
        self.write_listener = None

    def __len__(self):
        return len(self._images)

    def write_page(self, page):
        """Write ``page``'s image; the ``page.torn_write`` fault site
        corrupts the image in flight (detected at the next read)."""
        data = page.to_bytes()
        if self.faults.active and self.faults.fires(
            "page.torn_write", detail=str(page.page_id)
        ) is not None:
            torn = bytearray(data)
            torn[len(torn) // 2] ^= 0xFF
            data = bytes(torn)
            self.torn_writes += 1
        self.writes += 1
        self._images[page.page_id] = data
        if self.write_listener is not None:
            self.write_listener(page.page_id, data)

    def read_page(self, page_id):
        """Rebuild the page at ``page_id`` (CRC verified; a torn write
        surfaces here as a StorageError)."""
        data = self._images.get(page_id)
        if data is None:
            raise StorageError(f"no durable image for page {page_id}")
        self.reads += 1
        return SlottedPage.from_bytes(data)

    def page_ids(self):
        return list(self._images)

    def has_page(self, page_id):
        return page_id in self._images

    def snapshot(self):
        """Copy of the current device state (crash-harness helper)."""
        return dict(self._images)

    def restore(self, images):
        """Replace the device state wholesale (crash-harness helper)."""
        self._images = dict(images)


class _Frame:
    __slots__ = ("page", "pin_count", "dirty", "rec_lsn")

    def __init__(self, page):
        self.page = page
        self.pin_count = 0
        self.dirty = False
        self.rec_lsn = None


class BufferPool:
    """Fixed-frame cache over a :class:`PageStore` with LRU eviction.

    ``log`` (a :class:`~repro.wal.log.LogManager`, optional) is the
    WAL-before-write dependency: a dirty page's image may only reach the
    store once the log is durable up to the page's ``page_lsn``.
    """

    def __init__(self, store, capacity=64, log=None, tracer=NULL_TRACER):
        if capacity < 2:
            raise StorageError("buffer pool needs at least 2 frames")
        self.store = store
        self.capacity = capacity
        self.log = log
        self.tracer = tracer
        self._frames = {}  # page_id -> _Frame, insertion order = LRU order
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.forced_wal_flushes = 0

    # ------------------------------------------------------------------
    # fetch / admit
    # ------------------------------------------------------------------

    def page(self, page_id, pin=False):
        """The page at ``page_id``, reading it from the store when not
        resident (evicting as needed). ``pin=True`` pins it."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.hits += 1
            self._touch(page_id)
        else:
            self.misses += 1
            frame = self._admit(self.store.read_page(page_id))
        if pin:
            frame.pin_count += 1
        return frame.page

    def add_page(self, page):
        """Admit a freshly allocated page (not yet in the store)."""
        self._admit(page)
        return page

    def _touch(self, page_id):
        self._frames[page_id] = self._frames.pop(page_id)  # move to MRU

    def _admit(self, page):
        while len(self._frames) >= self.capacity:
            self._evict_one()
        frame = _Frame(page)
        self._frames[page.page_id] = frame
        return frame

    def _evict_one(self):
        victim = None
        for page_id, frame in self._frames.items():  # LRU first
            if frame.pin_count > 0:
                continue
            if not frame.dirty:
                victim = page_id
                break
            if victim is None:
                victim = page_id  # oldest unpinned dirty, if no clean one
        if victim is None:
            raise StorageError("buffer pool exhausted: every frame is pinned")
        frame = self._frames.pop(victim)
        was_dirty = frame.dirty
        if was_dirty:
            self._write_back(frame)
            self.dirty_evictions += 1
        elif not self.store.has_page(victim):
            # A freshly admitted page that was never dirtied has no
            # durable image yet — eviction must not lose the only copy.
            # Its page_lsn is 0 (no mutations), so WAL-before-write is
            # trivially satisfied.
            self._write_back(frame)
        self.evictions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "page_evicted", page_id=victim, dirty=was_dirty,
                page_lsn=frame.page.page_lsn,
            )

    def _write_back(self, frame):
        """WAL-before-write: the log must be durable up to the page's
        ``page_lsn`` before the image may hit the store."""
        page = frame.page
        if self.log is not None and page.page_lsn > self.log.flushed_lsn:
            self.log.flush_no_faults(page.page_lsn)
            self.forced_wal_flushes += 1
        self.store.write_page(page)
        frame.dirty = False
        frame.rec_lsn = None

    # ------------------------------------------------------------------
    # pinning and the dirty-page table
    # ------------------------------------------------------------------

    def pin(self, page_id):
        self.page(page_id, pin=True)

    def unpin(self, page_id):
        frame = self._frames.get(page_id)
        if frame is None or frame.pin_count == 0:
            raise StorageError(f"page {page_id} is not pinned")
        frame.pin_count -= 1

    def mark_dirty(self, page_id, rec_lsn):
        """Record a mutation: the frame joins the dirty-page table with
        ``recLSN = rec_lsn`` (kept at the *first* dirtying LSN)."""
        frame = self._frames[page_id]
        if not frame.dirty:
            frame.dirty = True
            frame.rec_lsn = rec_lsn
        return frame

    def dirty_page_table(self):
        """``{page_id: recLSN}`` for every dirty frame — what a fuzzy
        checkpoint snapshots and where ARIES redo starts."""
        return {
            page_id: frame.rec_lsn
            for page_id, frame in self._frames.items()
            if frame.dirty
        }

    def flush_page(self, page_id):
        frame = self._frames.get(page_id)
        if frame is not None and frame.dirty:
            self._write_back(frame)
            return True
        return False

    def flush_dirty(self):
        """Write back every dirty frame (the collapsed background
        writer, run after a fuzzy checkpoint); returns pages written."""
        written = 0
        for page_id in list(self._frames):
            if self.flush_page(page_id):
                written += 1
        return written

    # ------------------------------------------------------------------
    # record mutation helpers (the only mutation path outside this file)
    # ------------------------------------------------------------------

    def record_insert(self, page_id, payload, lsn=0):
        page = self.page(page_id)
        slot = page.insert_record(payload)
        self._stamp(page_id, page, lsn)
        return slot

    def record_update(self, page_id, slot, payload, lsn=0):
        page = self.page(page_id)
        page.update_record(slot, payload)
        self._stamp(page_id, page, lsn)

    def record_delete(self, page_id, slot, lsn=0):
        page = self.page(page_id)
        page.delete_record(slot)
        self._stamp(page_id, page, lsn)

    def _stamp(self, page_id, page, lsn):
        page.set_page_lsn(max(page.page_lsn, lsn))
        self.mark_dirty(page_id, lsn)

    def stats(self):
        return {
            "frames": self.capacity,
            "resident": len(self._frames),
            "pinned": sum(
                1 for f in self._frames.values() if f.pin_count > 0
            ),
            "dirty": sum(1 for f in self._frames.values() if f.dirty),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "dirty_evictions": self.dirty_evictions,
            "forced_wal_flushes": self.forced_wal_flushes,
        }


class PageManager:
    """The write-through page mirror of every index.

    Subscribed as ``LogManager.append_listener``, it replays each data
    record into the slotted-page image the moment the record enters the
    append stream — online rollback stays consistent for free, because a
    CLR's redo *is* the compensated record's undo. During crash
    recovery the same object seeds state from the durable store and
    gates redo per key (:meth:`needs_redo`).
    """

    def __init__(self, pool, page_size=4096):
        self.pool = pool
        self.page_size = page_size
        self._slots = {}    # (index, key) -> (page_id, slot)
        self._key_lsn = {}  # (index, key) -> LSN of last applied record
        self._open = {}     # index -> page_id currently taking new entries
        self._stale = []    # superseded (page_id, slot) pairs, reclaimable
                            # once their replacements are durable
        self._dead_seeds = set()  # locators whose seeded winner is a tombstone
        self._next_page_id = 1
        self._lsn = 0
        self.applied = 0
        self.moves = 0

    # ------------------------------------------------------------------
    # the append listener / redo mirror
    # ------------------------------------------------------------------

    def apply(self, record):
        """Replay one log record into the page image (append listener,
        also called for every non-skipped record during ARIES redo)."""
        if record.lsn is None or record.type.value not in _MIRRORED:
            return
        self._lsn = record.lsn
        record.redo(self)
        self.applied += 1

    @staticmethod
    def _locus(record):
        inner = record.action if record.type.value == "clr" else record
        return inner.index_name, tuple(inner.key)

    def needs_redo(self, record):
        """Redo gate: skip the record iff the mirrored entry for its key
        already reflects it.

        A live seeded entry is a full row image, so it covers every
        record up to and including its own LSN. A seeded *tombstone*
        covers only strictly older records: redoing the delete that
        produced it is idempotent, and a tombstone must never suppress a
        same-LSN record whose effect it does not actually carry.
        """
        index_name, key = self._locus(record)
        locator = (index_name, key)
        entry_lsn = self._key_lsn.get(locator, 0)
        if locator in self._dead_seeds:
            return entry_lsn <= record.lsn
        return entry_lsn < record.lsn

    def entry_count(self):
        return len(self._key_lsn)

    # -- RecoveryTarget-shaped mutators --------------------------------

    def recovery_insert(self, index_name, key, row, is_ghost=False):
        self._write(index_name, tuple(key), _plain(row), is_ghost)

    def recovery_delete(self, index_name, key):
        self._write(index_name, tuple(key), None, False, dead=True)

    def recovery_update(self, index_name, key, row):
        entry = self._entry(index_name, tuple(key))
        ghost = bool(entry[3]) if entry is not None and not entry[5] else False
        self._write(index_name, tuple(key), _plain(row), ghost)

    def recovery_set_ghost(self, index_name, key, ghost):
        entry = self._entry(index_name, tuple(key))
        row = entry[2] if entry is not None and not entry[5] else None
        self._write(index_name, tuple(key), row, bool(ghost))

    def recovery_revive(self, index_name, key, row):
        self._write(index_name, tuple(key), _plain(row), False)

    def recovery_escrow_apply(self, index_name, key, deltas):
        entry = self._entry(index_name, tuple(key))
        live = entry is not None and not entry[5]
        row = dict(entry[2]) if live and entry[2] is not None else {}
        for column, delta in deltas.items():
            row[column] = row.get(column, 0) + delta
        ghost = bool(entry[3]) if live else False
        self._write(index_name, tuple(key), row, ghost)

    # ------------------------------------------------------------------
    # entry plumbing
    # ------------------------------------------------------------------

    def _entry(self, index_name, key):
        loc = self._slots.get((index_name, key))
        if loc is None:
            return None
        page_id, slot = loc
        return json.loads(self.pool.page(page_id).read_record(slot))

    def _encode(self, index_name, key, row, is_ghost, dead):
        return json.dumps(
            [index_name, list(key), row, is_ghost, self._lsn, dead],
            default=str,
        ).encode("utf-8")

    def _write(self, index_name, key, row, is_ghost, dead=False):
        lsn = self._lsn
        locator = (index_name, key)
        payload = self._encode(index_name, key, row, is_ghost, dead)
        loc = self._slots.get(locator)
        if loc is not None:
            page_id, slot = loc
            try:
                self.pool.record_update(page_id, slot, payload, lsn)
            except StorageError:
                # The entry outgrew its page. The old copy must stay put
                # untouched: it is the key's newest durable fact until
                # the new page reaches the store, and erasing or
                # tombstoning it here could leave a crash with no
                # recoverable trace of the key (the gate would skip the
                # move record as already covered). It loses the winner
                # election on LSN and is reclaimed after the next
                # checkpoint makes the replacement durable.
                self._stale.append((page_id, slot))
                self.moves += 1
                self._place(locator, payload, lsn)
        else:
            self._place(locator, payload, lsn)
        previous = self._key_lsn.get(locator, 0)
        self._key_lsn[locator] = max(previous, lsn)
        self._dead_seeds.discard(locator)

    def _place(self, locator, payload, lsn):
        index_name = locator[0]
        page_id = self._open.get(index_name)
        page = self.pool.page(page_id) if page_id is not None else None
        if page is None or not page.has_room_for(payload):
            page = self._allocate_page(index_name, len(payload))
            page_id = page.page_id
        slot = self.pool.record_insert(page_id, payload, lsn)
        self._slots[locator] = (page_id, slot)

    def _allocate_page(self, index_name, payload_len):
        size = self.page_size
        if payload_len > SlottedPage.capacity(size):
            # one oversized entry gets its own right-sized page
            size = payload_len + PAGE_HEADER.size + PAGE_SLOT.size
            if size > MAX_PAGE_SIZE:
                raise StorageError(
                    f"record of {payload_len} bytes exceeds the maximum "
                    f"page size ({MAX_PAGE_SIZE})"
                )
        page = SlottedPage(self._next_page_id, page_size=size)
        self._next_page_id += 1
        self.pool.add_page(page)
        if size == self.page_size:
            self._open[index_name] = page.page_id
        return page

    # ------------------------------------------------------------------
    # recovery: seed from the durable store
    # ------------------------------------------------------------------

    def load_durable_pages(self):
        """Rebuild the mirror from the page store after a crash.

        Returns ``(pages_loaded, torn_pages, seeds)``: ``seeds`` is the
        newest live entry per key (``[(index, key, row, is_ghost)]``),
        or ``None`` when a torn page makes the store untrustworthy and
        the caller must fall back to full-log replay.
        """
        winners = {}  # locator -> (lsn, row, ghost, dead, page_id, slot)
        found = []    # every decoded (locator, page_id, slot)
        pages_loaded = 0
        torn = 0
        for page_id in sorted(self.store_page_ids()):
            self._next_page_id = max(self._next_page_id, page_id + 1)
            try:
                page = self.pool.page(page_id)
            except StorageError:
                torn += 1
                continue
            pages_loaded += 1
            for slot, payload in page.records():
                index_name, key_list, row, ghost, lsn, dead = json.loads(
                    payload
                )
                locator = (index_name, tuple(key_list))
                found.append((locator, page_id, slot))
                current = winners.get(locator)
                if (
                    current is None
                    or lsn > current[0]
                    or (lsn == current[0] and page_id > current[4])
                ):
                    winners[locator] = (lsn, row, ghost, dead, page_id, slot)
        if torn:
            return pages_loaded, torn, None
        seeds = []
        for locator, (lsn, row, ghost, dead, page_id, slot) in winners.items():
            self._slots[locator] = (page_id, slot)
            self._key_lsn[locator] = lsn
            if dead:
                self._dead_seeds.add(locator)
            elif row is not None:
                seeds.append((locator[0], locator[1], row, ghost))
        # every non-winning copy is a superseded stale fact; it is safe
        # to reclaim because the fact that beat it is already durable
        for locator, page_id, slot in found:
            if (page_id, slot) != winners[locator][4:6]:
                self._stale.append((page_id, slot))
        return pages_loaded, torn, seeds

    def reclaim_stale(self):
        """Erase superseded entry copies left behind by page-to-page
        moves (and recovery's losing duplicates); returns the count.

        Only safe once every superseding entry is durable — the engine
        calls this right after a checkpoint's ``flush_dirty`` — because
        until then the stale copy may be the key's only durable trace.
        """
        reclaimed = 0
        for page_id, slot in self._stale:
            try:
                self.pool.record_delete(page_id, slot, self._lsn)
            except StorageError:
                continue  # page unreadable or slot already dead
            reclaimed += 1
        self._stale = []
        return reclaimed

    def store_page_ids(self):
        return self.pool.store.page_ids()

    def bootstrap(self, entries, lsn):
        """Materialize the mirror from live engine state (post-recovery
        resynchronization): every entry is written as of ``lsn``."""
        self._lsn = lsn
        for index_name, key, row, is_ghost in entries:
            self._write(index_name, tuple(key), _plain(row), is_ghost)

    def iter_entries(self):
        """Yield ``(index, key, row, is_ghost)`` for every live mirrored
        entry (integrity-checker sweep)."""
        for (index_name, key), (page_id, slot) in sorted(
            self._slots.items(), key=repr
        ):
            payload = json.loads(self.pool.page(page_id).read_record(slot))
            if not payload[5]:
                yield index_name, key, payload[2], payload[3]


def _plain(row):
    if row is None:
        return None
    return row.as_dict() if hasattr(row, "as_dict") else dict(row)
