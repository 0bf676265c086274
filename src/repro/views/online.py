"""Online view creation: build an indexed view without stopping writers.

``CREATE INDEXED VIEW ... WITH (online = true)`` must not hold base
tables locked for the duration of a full scan. The build instead runs in
three phases inside **one system transaction**:

1. **snapshot** — scan the base tables *as of* the build's start
   timestamp (the version chains provide the consistent picture; no base
   locks taken) and compute the view's contents from that snapshot.
   Writers keep committing; their maintenance of the half-built view is
   *suppressed* (see ``MaintenanceEngine.suppressed``), so nothing races
   the build's inserts.
2. **catchup** — find every transaction that committed after the
   snapshot timestamp, walk its log backchain for base-table changes,
   and re-apply them to the view through the ordinary maintainers (the
   same delta programs immediate maintenance uses — escrow and all).
   Repeatable until the gap is drained.
3. **flip** — take a short S lock on each base table and X on the view
   (quiescing writers for the handoff only), drain the last gap, verify
   the contents against a fresh recomputation, and commit. From the
   commit on, the view is ordinarily maintained.

Crash safety falls out of transaction atomicity: the whole build is one
transaction, so a crash before the durable commit makes recovery undo
every view insert — the half-built view then **vanishes** (catalog and
indexes dropped, never half-maintained). A crash after the durable
commit replays the build as a winner and the view **completes on
recovery**. ``Database._resolve_online_builds`` applies that verdict;
the ``view_online_build`` trace event records each phase.

Reads of a building view are refused (:class:`~repro.common.CatalogError`)
— it does not logically exist until the flip commits.
"""

from repro.common import (
    CatalogError,
    IntegrityError,
    SimulatedCrash,
    TransactionAborted,
)
from repro.locking import LockMode
from repro.locking.keyrange import locks_for_insert, table_resource
from repro.query.executor import (
    recompute_aggregate_view,
    recompute_join_aggregate_view,
    recompute_join_view,
    recompute_projection_view,
)
from repro.views.actions import run_actions
from repro.views.definition import is_aggregate_kind
from repro.views.join import leftfk_index_name, secondary_index_name
from repro.wal.records import (
    CommitRecord,
    CompensationRecord,
    DeleteRecord,
    GhostRecord,
    InsertRecord,
    ReviveRecord,
    UpdateRecord,
)

FAULT_SITE = "view.online_build"


class OnlineBuildRegistry:
    """Views currently being built online: ``view name -> build state``.

    Plain Python state, deliberately *not* reset by recovery (like the
    catalog): after a crash the registry is exactly the list of builds
    whose fate recovery must resolve — completed (durable commit) or
    vanished (loser).
    """

    def __init__(self):
        self._building = {}

    @property
    def active(self):
        return bool(self._building)

    def is_building(self, view_name):
        return view_name in self._building

    def register(self, view_name, txn_id):
        self._building[view_name] = {"txn_id": txn_id}

    def remove(self, view_name):
        self._building.pop(view_name, None)

    def pending(self):
        return dict(self._building)


class OnlineViewBuilder:
    """Drives one online build; see the module docstring for the phases.

    :meth:`run` does the whole dance; tests drive :meth:`start` /
    :meth:`catch_up` / :meth:`finish` separately to interleave writers
    between phases.
    """

    def __init__(self, db, view, unique=True):
        if view.has_extremes():
            raise CatalogError(
                f"view {view.name!r}: MIN/MAX views cannot be built "
                "online — extremes are not delta-maintainable, so the "
                "catch-up phase could not replay writer deletes"
            )
        if getattr(view, "deferred", False):
            raise CatalogError(
                f"view {view.name!r}: online build and deferred "
                "maintenance are mutually exclusive"
            )
        self.db = db
        self.view = view
        self.unique = unique
        self.txn = None
        self.build_ts = None
        self._applied_txns = set()

    def _emit(self, phase, rows=0, txns=0):
        if self.db.tracer.enabled:
            self.db.tracer.emit(
                "view_online_build",
                txn_id=self.txn.txn_id if self.txn is not None else None,
                view=self.view.name, phase=phase, rows=rows, txns=txns,
            )

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------

    def run(self):
        """start -> catch_up -> finish; returns the view definition.

        Any failure short of a crash makes the half-built view vanish
        before the error propagates; a :class:`SimulatedCrash` leaves the
        state exactly as-is for recovery to settle."""
        try:
            self.start()
            self.catch_up()
            self.finish()
        except SimulatedCrash:
            raise
        except BaseException:
            self._vanish()  # idempotent — finish() may already have
            raise
        return self.view

    def start(self):
        """Register the view (suppressed + unreadable), then populate it
        from a snapshot of the base tables at the build timestamp."""
        db, view = self.db, self.view
        if view.name in db._indexes:
            # Validate *before* mutating anything: a duplicate name must
            # not register a build (else _vanish would drop the storage
            # of the existing view/table that owns the name).
            raise CatalogError(f"name {view.name!r} already in use")
        view.unique = self.unique
        view.deferred = False
        self.txn = db.begin_system()
        self._applied_txns.add(self.txn.txn_id)
        # Suppression first: from the instant the view is visible to
        # writers' maintenance compilation, it must be skipped.
        db.online_builds.register(view.name, self.txn.txn_id)
        db.catalog.add_view(view)
        db._create_view_indexes(view)
        self.build_ts = db.clock.now()
        rows = self._build_snapshot()
        self._emit("snapshot", rows=rows)
        return self

    def _snapshot_rows(self, table):
        """The committed rows of ``table`` as of the build timestamp."""
        rows = []
        for _, record in self.db.index(table).scan(include_ghosts=True):
            row = record.read_as_of(self.build_ts)
            if row is not None:
                rows.append(row)
        return rows

    def _build_snapshot(self):
        db, view, txn = self.db, self.view, self.txn
        if view.kind == "aggregate":
            expected = recompute_aggregate_view(
                self._snapshot_rows(view.base), view
            )
        elif view.kind == "projection":
            expected = recompute_projection_view(
                self._snapshot_rows(view.base), view
            )
        else:
            left_rows = self._snapshot_rows(view.left)
            right_rows = self._snapshot_rows(view.right)
            if view.kind == "join":
                expected = recompute_join_view(left_rows, right_rows, view)
            else:
                expected = recompute_join_aggregate_view(
                    left_rows, right_rows, view
                )
        count = 0
        join_maintainer = db.maintenance.join
        for key, row in expected.items():
            if db.faults.active:
                db.faults.maybe_crash(
                    FAULT_SITE, txn_id=txn.txn_id,
                    detail=f"snapshot:{count}",
                )
            self._build_insert(view.name, key, row)
            if view.kind == "join":
                skey = join_maintainer._secondary_key(db, view, row)
                self._build_insert(secondary_index_name(view.name), skey, row)
            count += 1
        if view.kind in ("join", "join_aggregate"):
            fk_name = leftfk_index_name(view.name)
            fk_index = db.index(fk_name)
            for left_row in self._snapshot_rows(view.left):
                key = view.left_fk_of(left_row) + db.table_key(
                    view.left, left_row
                )
                self._build_insert(
                    fk_name, key, left_row.project(fk_index.key_columns)
                )
        return count

    def _build_insert(self, index_name, key, row):
        """One logged, locked insert into a view index under the build
        transaction (undone wholesale if the build loses)."""
        db, txn = self.db, self.txn
        index = db.index(index_name)
        db.acquire_plan(
            txn, locks_for_insert(index, key, db.config.serializable)
        )
        record = index.insert(key, row)
        db.log.append(InsertRecord(txn.txn_id, index_name, key, row))
        txn.touch_record(record)

    def catch_up(self):
        """Replay base-table changes of every transaction that committed
        after the build timestamp and has not been applied yet. Returns
        the number of transactions caught up; call repeatedly."""
        db, view = self.db, self.view
        committed = []
        for record in db.log.records():
            if (
                isinstance(record, CommitRecord)
                and record.commit_ts > self.build_ts
                and record.txn_id not in self._applied_txns
            ):
                committed.append((record.commit_ts, record.txn_id))
        committed.sort()
        bases = set(view.base_tables())
        for _commit_ts, txn_id in committed:
            if db.faults.active:
                db.faults.maybe_crash(
                    FAULT_SITE, txn_id=self.txn.txn_id,
                    detail=f"catchup:{txn_id}",
                )
            for table, op, before, after in self._base_changes(txn_id, bases):
                actions = db.maintenance._compile_one(
                    db, self.txn, view, table, op, before, after
                )
                run_actions(db, self.txn, actions)
            self._applied_txns.add(txn_id)
        if committed:
            self._emit("catchup", txns=len(committed))
        return len(committed)

    def _base_changes(self, txn_id, bases):
        """One committed transaction's base-table changes, in log order.

        Walks the undo backchain; a CLR's ``undo_next_lsn`` jumps over
        the compensated record, so partially-rolled-back work nets out
        to exactly what survived — the same skip rule ARIES undo uses.
        """
        changes = []
        lsn = self.db.log.last_lsn_of(txn_id)
        while lsn is not None:
            record = self.db.log.record_at(lsn)
            if isinstance(record, CompensationRecord):
                lsn = record.undo_next_lsn
                continue
            index_name = getattr(record, "index_name", None)
            if index_name in bases:
                if isinstance(record, InsertRecord):
                    changes.append((index_name, "insert", None, record.row))
                elif isinstance(record, ReviveRecord):
                    changes.append(
                        (index_name, "insert", None, record.new_row)
                    )
                elif isinstance(record, UpdateRecord):
                    changes.append(
                        (index_name, "update", record.before, record.after)
                    )
                elif isinstance(record, GhostRecord):
                    changes.append((index_name, "delete", record.row, None))
                elif isinstance(record, DeleteRecord):
                    changes.append(
                        (index_name, "delete", record.before, None)
                    )
                # CleanupRecord: physical removal of an already-ghosted
                # row — no logical change, nothing to replay.
            lsn = record.prev_lsn
        changes.reverse()
        return changes

    def finish(self):
        """Flip: quiesce writers with short table locks, drain the last
        gap, verify against recomputation, commit durably."""
        db, view, txn = self.db, self.view, self.txn
        try:
            for table in view.base_tables():
                txn.acquire(table_resource(table), LockMode.S)
            txn.acquire(table_resource(view.name), LockMode.X)
        except TransactionAborted:
            # NOWAIT lost against a live writer: completes-or-vanishes
            # means vanish here; the caller may rebuild later.
            self._vanish()
            raise
        self.catch_up()
        problems = self._verify()
        if problems:
            self._vanish()
            raise IntegrityError(
                f"online build of {view.name!r} failed verification: "
                + "; ".join(problems)
            )
        if db.faults.active:
            db.faults.maybe_crash(
                FAULT_SITE, txn_id=txn.txn_id, detail="flip"
            )
        db.commit(txn)
        db.ensure_durable(txn)
        if db.faults.active:
            db.faults.maybe_crash(
                FAULT_SITE, txn_id=txn.txn_id, detail="post_commit",
                committed=True,
            )
        db.online_builds.remove(view.name)
        self._emit("completed")
        return view

    def _verify(self):
        """Diff the built contents (pending escrow folded in) against a
        fresh recomputation from the live base tables."""
        db, view = self.db, self.view
        if view.kind == "aggregate":
            expected = recompute_aggregate_view(
                list(db.index(view.base).rows()), view
            )
        elif view.kind == "projection":
            expected = recompute_projection_view(
                list(db.index(view.base).rows()), view
            )
        elif view.kind == "join":
            expected = recompute_join_view(
                list(db.index(view.left).rows()),
                list(db.index(view.right).rows()),
                view,
            )
        else:
            expected = recompute_join_aggregate_view(
                list(db.index(view.left).rows()),
                list(db.index(view.right).rows()),
                view,
            )
        actual = {}
        counter_cols = (
            view.counter_columns() if is_aggregate_kind(view) else ()
        )
        for key, record in db.index(view.name).scan():
            row = record.current_row
            for column in counter_cols:
                account = db.escrow.existing((view.name, key, column))
                if account is not None:
                    row = row.replace(**{column: account.read_inclusive()})
            if counter_cols and row[view.count_column] == 0:
                continue  # logically deleted, awaiting cleanup
            actual[key] = row
        problems = []
        for key in sorted(set(expected) | set(actual), key=repr):
            exp, act = expected.get(key), actual.get(key)
            if exp != act:
                problems.append(f"{key!r}: expected {exp!r}, got {act!r}")
        return problems

    # ------------------------------------------------------------------
    # failure paths
    # ------------------------------------------------------------------

    def _vanish(self):
        """Remove every trace of the unfinished view (indexes, catalog,
        cleanup candidates); abort the build transaction if still live."""
        from repro.txn.transaction import TxnState

        db, view = self.db, self.view
        if self.txn is not None and self.txn.state is TxnState.ACTIVE:
            db.abort(self.txn, reason="online build abandoned")
        if not db.online_builds.is_building(view.name):
            return  # never registered (or already vanished/completed)
        _drop_view_storage(db, view)
        db.online_builds.remove(view.name)
        self._emit("vanished")


def _drop_view_storage(db, view):
    """Drop the view's catalog entry and every index it owns."""
    if db.catalog.has_view(view.name):
        db.catalog.drop_view(view.name)
    doomed = [view.name]
    if view.kind == "join":
        doomed.append(secondary_index_name(view.name))
    if view.kind in ("join", "join_aggregate"):
        doomed.append(leftfk_index_name(view.name))
    for index_name in doomed:
        db._indexes.pop(index_name, None)
        db._index_views.pop(index_name, None)
        db.cleanup.drop_index(index_name)


def resolve_after_recovery(db):
    """Settle every build interrupted by a crash: a durable COMMIT for
    the build transaction means the view completed (recovery already
    replayed it as a winner); anything else vanishes (recovery already
    undid it as a loser). Called by ``Database._rebuild_from_log`` before
    ``_post_recovery`` stamps versions and enqueues cleanup."""
    resolutions = []
    for view_name, info in sorted(db.online_builds.pending().items()):
        committed = any(
            isinstance(record, CommitRecord)
            and record.txn_id == info["txn_id"]
            for record in db.log.records()
        )
        view = db.catalog.view(view_name)
        if committed:
            db.online_builds.remove(view_name)
            phase = "completed_on_recovery"
        else:
            _drop_view_storage(db, view)
            db.online_builds.remove(view_name)
            phase = "vanished"
        resolutions.append((view_name, phase))
        if db.tracer.enabled:
            db.tracer.emit(
                "view_online_build", view=view_name, phase=phase,
                rows=0, txns=0,
            )
    return resolutions
