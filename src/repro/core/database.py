"""The engine facade: schema, transactions, DML, reads, recovery.

:class:`Database` wires every subsystem together and is the public API a
downstream user programs against. The canonical surface is SQL
(``docs/SQL.md``)::

    db = Database()
    db.execute("CREATE TABLE sales (id, product, amount, PRIMARY KEY (id))")
    db.execute(
        "CREATE UNIQUE INDEXED VIEW sales_by_product AS "
        "SELECT product, COUNT(*) AS n, SUM(amount) AS total "
        "FROM sales GROUP BY product"
    )
    db.execute("INSERT INTO sales (id, product, amount) VALUES (1, 'ant', 30)")
    db.read_committed("sales_by_product", ("ant",))   # Row(product='ant', n=1, total=30)

The Python statement API underneath (``begin``/``insert``/``commit``,
``create_view`` with a constructed ``ViewDefinition``) remains fully
supported; ``execute`` compiles to exactly those calls.

Every statement follows the lock-first / mutate-second discipline (see
:mod:`repro.views.actions`): the statement compiles into actions, all lock
plans are acquired, then all mutations apply and log. Under the
cooperative policy a lock wait aborts the statement run with
:class:`~repro.txn.transaction.WouldWait` and the simulator re-runs it.
"""

from repro.catalog import Catalog, TableSchema
from repro.common import (
    CatalogError,
    DeterministicRng,
    FaultInjected,
    LogicalClock,
    Row,
    SimulatedCrash,
    StorageError,
    TransactionAborted,
    TransactionStateError,
    UnsupportedSqlError,
    WalCorruptionError,
)
from repro.common.keys import KeyRange
from repro.faults import NULL_INJECTOR
from repro.locking import EscrowRegistry, LatchSet, LockManager, LockMode
from repro.locking.keyrange import (
    key_resource,
    locks_for_logical_delete,
    locks_for_insert,
    locks_for_point_read,
    locks_for_range_scan,
    locks_for_update,
    table_resource,
)
from repro.obs import Counters, EngineMetrics, RetryStats, Tracer
from repro.storage import Index
from repro.storage.bufferpool import BufferPool, PageManager, PageStore
from repro.storage.records import VersionedRecord
from repro.txn import LockPolicy, SnapshotRegistry, TransactionManager
from repro.views.actions import Action, run_actions
from repro.views.definition import is_aggregate_kind
from repro.views.deferred import DeferredMaintainer
from repro.views.delta import TxnViewDeltas
from repro.views.join import leftfk_index_name, secondary_index_name
from repro.views.maintenance import MaintenanceEngine
from repro.views.online import (
    OnlineBuildRegistry,
    OnlineViewBuilder,
    resolve_after_recovery,
)
from repro.core.cleanup import CleanupQueue, GhostCleaner
from repro.core.secondary import SecondaryIndexManager
from repro.core.config import EngineConfig
from repro.query.executor import (
    recompute_aggregate_view,
    recompute_join_aggregate_view,
    recompute_join_view,
    recompute_projection_view,
)
from repro.wal import (
    CheckpointRecord,
    CommitTicket,
    GroupCommitCoordinator,
    LogManager,
    recover,
    salvage,
)
from repro.wal.records import (
    AbortRecord,
    CommitRecord,
    CompensationRecord,
    EndRecord,
    GhostRecord,
    InsertRecord,
    PrepareRecord,
    UpdateRecord,
)
from repro.wal.recovery import RecoveryTarget
from repro.wal.segments import dump_segments, load_segments, recycle_segments


class Database(RecoveryTarget):
    """An in-memory transactional engine with indexed views."""

    def __init__(self, config=None):
        self.config = config or EngineConfig()
        self.clock = LogicalClock()
        self.tracer = Tracer(clock=self.clock)  # disabled until .enable()
        self.metrics = EngineMetrics()
        self.faults = NULL_INJECTOR  # see install_fault_injector()
        self.retries = RetryStats()
        self._retry_rng = DeterministicRng(self.config.retry_seed)
        self.log = LogManager(
            tracer=self.tracer, faults=self.faults,
            checksums=self.config.wal_checksums,
        )
        self.locks = LockManager(
            tracer=self.tracer, clock=self.clock,
            timeout=self.config.lock_wait_timeout, faults=self.faults,
        )
        self.latches = LatchSet()
        self.escrow = EscrowRegistry()
        self.snapshots = SnapshotRegistry(self.clock)
        self.catalog = Catalog()
        self.counters = Counters()
        self.cleanup = CleanupQueue()
        self.cleaner = GhostCleaner(self)
        self.deferred = DeferredMaintainer(self.clock)
        self.maintenance = MaintenanceEngine(
            self.catalog,
            aggregate_strategy=self.config.aggregate_strategy,
            deferred=self.deferred,
        )
        self._txns = TransactionManager(
            self.clock, self.log, self.locks, self.escrow, self.snapshots,
            undo_target=self, tracer=self.tracer, metrics=self.metrics,
            faults=self.faults,
        )
        self._txns.commit_listener = self._on_commit
        self.group_commit = GroupCommitCoordinator(
            self.log, self.clock,
            policy=self.config.group_commit,
            size=self.config.group_commit_size,
            latency=self.config.group_commit_latency,
            tracer=self.tracer, faults=self.faults,
        )
        self.group_commit.failure_handler = self._on_group_flush_failure
        self.log.flush_listener = self.group_commit.on_flushed
        self._txns.group_commit = self.group_commit
        #: the page world: a durable page store (survives crashes), a
        #: fixed-frame buffer pool over it, and the slotted-page mirror
        #: that subscribes to the log's append stream (docs/STORAGE.md).
        self._store = PageStore(faults=self.faults)
        self._pool = BufferPool(
            self._store, capacity=self.config.buffer_pool_frames,
            log=self.log, tracer=self.tracer,
        )
        self._pages = PageManager(self._pool, page_size=self.config.page_size)
        self.log.append_listener = self._pages.apply
        self._commits_since_checkpoint = 0
        self._indexes = {}
        self._index_views = {}  # index name -> owning view definition
        self.secondary = SecondaryIndexManager(self)
        from repro.integrity import QuarantineManager

        #: damaged-view registry; reads on quarantined views degrade to
        #: recomputation and their maintenance pauses until rebuild.
        self.quarantine = QuarantineManager(self)
        #: views mid online build; their maintenance is suppressed (the
        #: build's catch-up phase owns their deltas) and reads refuse them.
        self.online_builds = OnlineBuildRegistry()
        self.maintenance.suppressed = self._maintenance_suppressed
        #: recovery attempts since the last completed recovery — nonzero
        #: while a crash storm is interrupting recovery itself.
        self._recovery_attempts = 0
        self._pending_salvage = None  # carried across recovery re-entries
        #: post-recovery in-doubt registry: txn_id -> {"gid", "first_lsn",
        #: "last_lsn", "resources"} for prepared branches awaiting the
        #: coordinator's decision (see :meth:`resolve_in_doubt`). Live
        #: prepared branches are *not* here — they are ordinary active
        #: transactions until a crash severs them from their handle.
        self._in_doubt = {}
        self._integrity_checks = 0
        self._integrity_damage = 0
        from repro.locking.escalation import EscalationPolicy

        self.escalation = EscalationPolicy(
            self.config.escalation_threshold, tracer=self.tracer
        )
        #: live protocol checkers (EngineConfig(sanitizers=True)), else None
        self.sanitizers = None
        if self.config.sanitizers:
            from repro.analysis import SanitizerSuite

            self.sanitizers = SanitizerSuite(
                group_commit=self.config.group_commit is not None
            )
            # Sanitizers need the whole stream: every category, every
            # event at emit time (the ring may evict, listeners see all).
            self.tracer.enable()
            self.tracer.listeners.append(self.sanitizers.observe)

    # ==================================================================
    # fault injection
    # ==================================================================

    def install_fault_injector(self, injector):
        """Thread a :class:`~repro.faults.FaultInjector` through every
        fault site (WAL, lock manager, transaction manager, maintenance,
        cleaner). Pass ``None`` to restore the inert null injector.

        The injector survives :meth:`simulate_crash_and_recover` — real
        flaky hardware does too. Recovery evaluates its own crash sites
        (``recovery.analysis`` / ``recovery.redo`` / ``recovery.undo``)
        and the log evaluates ``wal.corrupt`` at the durability boundary,
        so a crash storm can interrupt recovery itself; re-enter by
        calling :meth:`simulate_crash_and_recover` again. The retryable
        flush/append sites are never evaluated from inside recovery.
        """
        self.faults = injector if injector is not None else NULL_INJECTOR
        self.faults.tracer = self.tracer
        self.log.faults = self.faults
        self.locks.faults = self.faults
        self._txns.faults = self.faults
        self.group_commit.faults = self.faults
        self._store.faults = self.faults
        return self.faults

    # ==================================================================
    # schema
    # ==================================================================

    def create_table(self, name, columns, primary_key):
        """Register a table and build its primary-key index."""
        schema = self.catalog.add_table(TableSchema(name, columns, primary_key))
        self._indexes[name] = Index(
            name,
            schema.primary_key,
            order=self.config.btree_order,
            latch_set=self.latches,
        )
        return schema

    def create_secondary_index(self, table, name, columns, unique=False):
        """Create a secondary index on a base table; ``unique=True``
        enforces the constraint (see :mod:`repro.core.secondary`)."""
        return self.secondary.create(table, name, columns, unique=unique)

    def lookup(self, txn, table, index_name, values):
        """Fetch base rows via a secondary index probe."""
        txn.require_active()
        return self.secondary.lookup(txn, table, index_name, values)

    def create_view(self, view, *, unique=True, deferred=False,
                    online=False):
        """Register a view, build its index(es), and materialize it over
        any existing base data. Returns the definition.

        ``view`` is either a :class:`~repro.views.definition.ViewDefinition`
        or a ``CREATE [UNIQUE] INDEXED VIEW ... AS SELECT ...`` SQL string
        (compiled through :func:`repro.sql.compile_view`; the statement's
        ``UNIQUE`` and ``WITH (...)`` options override the keyword
        arguments). ``unique`` records the (always-satisfied)
        key-uniqueness of the view index for parity with
        :meth:`create_secondary_index`; ``deferred=True`` routes this one
        view's maintenance through the deferred maintainer even when the
        global ``maintenance_mode`` is immediate (refresh with
        :meth:`refresh_view`). ``online=True`` builds the view without
        blocking writers: snapshot scan, WAL catch-up, then a short
        lock-protected flip (see :mod:`repro.views.online`).

        DDL is not logged: recovery re-creates the schema from the
        catalog, then replays the data log — except an *online* build,
        whose view inserts run in a logged system transaction precisely
        so recovery can settle an interrupted build (complete it when the
        build commit is durable, make it vanish otherwise).
        """
        if not hasattr(view, "kind"):  # SQL text or a parsed statement
            from repro.sql import bind_options

            stmt, view = self._compile_view_sql(view, "create_view")
            opts = bind_options(stmt)
            unique = stmt.unique
            deferred = opts.get("deferred", deferred)
            online = opts.get("online", online)
        if online:
            if deferred:
                raise CatalogError(
                    f"view {view.name!r}: online build and deferred "
                    "maintenance are mutually exclusive"
                )
            return OnlineViewBuilder(self, view, unique=unique).run()
        view.unique = unique
        view.deferred = deferred
        self.catalog.add_view(view)
        self._create_view_indexes(view)
        self._materialize(view)
        return view

    def begin_online_build(self, view, *, unique=True):
        """An un-run :class:`~repro.views.online.OnlineViewBuilder` for
        ``view`` (definition or CREATE INDEXED VIEW SQL) — callers drive
        ``start`` / ``catch_up`` / ``finish`` themselves, interleaving
        writers between phases; :meth:`create_view` with ``online=True``
        is the one-shot form."""
        if not hasattr(view, "kind"):
            stmt, view = self._compile_view_sql(view, "begin_online_build")
            unique = stmt.unique
        return OnlineViewBuilder(self, view, unique=unique)

    def _compile_view_sql(self, view, caller):
        """Parse (unless already parsed) and compile CREATE INDEXED VIEW
        SQL for ``caller``; returns ``(statement, definition)``."""
        from repro.sql import ast as sql_ast
        from repro.sql import compile_view, parse_one

        stmt = parse_one(view) if isinstance(view, str) else view
        if not isinstance(stmt, sql_ast.CreateView):
            raise UnsupportedSqlError(
                f"{caller} expects a CREATE INDEXED VIEW statement; "
                f"got {type(stmt).__name__}", *stmt.pos
            )
        return stmt, compile_view(stmt, self.catalog)

    def _create_view_indexes(self, view):
        """Build the (empty) index family a view owns: its primary view
        index, plus the secondary and left-FK auxiliaries for joins."""
        order = self.config.btree_order
        self._indexes[view.name] = Index(
            view.name, view.key_columns, order=order, latch_set=self.latches
        )
        self._index_views[view.name] = view
        if view.kind == "join":
            sec = secondary_index_name(view.name)
            sec_key = tuple(view.right_pk) + tuple(
                c for c in view.left_pk if c not in view.right_pk
            )
            self._indexes[sec] = Index(
                sec, sec_key, order=order, latch_set=self.latches
            )
            self._index_views[sec] = view
        if view.kind in ("join", "join_aggregate"):
            fk = leftfk_index_name(view.name)
            fk_key = tuple(lc for lc, _ in view.on) + tuple(view.left_pk)
            self._indexes[fk] = Index(
                fk, fk_key, order=order, latch_set=self.latches
            )
            self._index_views[fk] = view

    def _maintenance_suppressed(self, view_name):
        """Maintenance skips quarantined views (damaged; rebuilt on
        demand) and views mid online build (the build's catch-up phase
        replays their deltas from the log instead)."""
        return (
            self.quarantine.is_quarantined(view_name)
            or self.online_builds.is_building(view_name)
        )

    def _materialize(self, view):
        """Fill a freshly created view from current base contents.

        Aggregate-shaped and projection views use the bottom-up bulk
        index build; join views insert per row because two indexes must
        stay aligned.
        """
        ts = self.clock.now()
        if view.kind == "aggregate":
            base_rows = list(self._indexes[view.base].rows())
            expected = recompute_aggregate_view(base_rows, view)
            self._indexes[view.name].bulk_load(expected.items(), stamp_ts=ts)
        elif view.kind == "projection":
            base_rows = list(self._indexes[view.base].rows())
            expected = recompute_projection_view(base_rows, view)
            self._indexes[view.name].bulk_load(expected.items(), stamp_ts=ts)
        elif view.kind == "join_aggregate":
            left_rows = list(self._indexes[view.left].rows())
            right_rows = list(self._indexes[view.right].rows())
            expected = recompute_join_aggregate_view(left_rows, right_rows, view)
            self._indexes[view.name].bulk_load(expected.items(), stamp_ts=ts)
            self._materialize_leftfk(view, left_rows, ts)
        else:  # join
            left_rows = list(self._indexes[view.left].rows())
            right_rows = list(self._indexes[view.right].rows())
            maintainer = self.maintenance.join
            for vkey, row in recompute_join_view(left_rows, right_rows, view).items():
                self._bulk_insert(view.name, vkey, row, ts)
                skey = maintainer._secondary_key(self, view, row)
                self._bulk_insert(secondary_index_name(view.name), skey, row, ts)
            self._materialize_leftfk(view, left_rows, ts)

    def _materialize_leftfk(self, view, left_rows, ts):
        fk_name = leftfk_index_name(view.name)
        fk_index = self._indexes[fk_name]
        for left_row in left_rows:
            key = view.left_fk_of(left_row) + self.table_key(view.left, left_row)
            ref = left_row.project(fk_index.key_columns)
            self._bulk_insert(fk_name, key, ref, ts)

    def _bulk_insert(self, index_name, key, row, ts):
        record = self._indexes[index_name].insert(key, row)
        record.stamp_version(ts)
        return record

    # ==================================================================
    # lookups other layers use
    # ==================================================================

    def index(self, name):
        try:
            return self._indexes[name]
        except KeyError:
            raise StorageError(f"no index named {name!r}") from None

    def index_names(self):
        return sorted(self._indexes)

    def table_key(self, table, row):
        return self.catalog.table(table).key_of(row)

    def table_pk(self, table):
        return self.catalog.table(table).primary_key

    def view_of_index(self, index_name):
        return self._index_views.get(index_name)

    def acquire_plan(self, txn, plan):
        """Acquire a key-lock plan through the multi-granularity /
        escalation policy (intention locks injected, escalation applied
        past the configured threshold)."""
        self.escalation.acquire_plan(txn, plan)

    # ==================================================================
    # SQL surface
    # ==================================================================

    def execute(self, sql, txn=None, *, _policy=LockPolicy.NOWAIT,
                _isolation="serializable"):
        """Execute a SQL script; returns the last statement's result.

        The canonical surface: DDL (``CREATE TABLE``, ``CREATE INDEXED
        VIEW`` — including ``WITH (online = true)``) routes through
        :meth:`create_table` / :meth:`create_view`; DML and ``SELECT``
        compile to the same engine calls the Python API makes (see
        ``docs/SQL.md`` for the statement-to-engine-call contract).

        With ``txn=None`` each DML/SELECT statement autocommits in its
        own transaction; pass an open transaction to run the script
        inside it (DDL always runs outside any transaction — it is not
        logged and cannot roll back). ``_policy`` / ``_isolation`` are the
        autocommit transactions' :meth:`begin` arguments; a
        :class:`~repro.core.session.Session` passes its own.
        """
        from repro.sql import ast as sql_ast
        from repro.sql import execute_statement, parse

        result = None
        for stmt in parse(sql):
            if isinstance(stmt, sql_ast.CreateTable):
                result = self.create_table(
                    stmt.name, stmt.columns, stmt.primary_key
                )
            elif isinstance(stmt, sql_ast.CreateView):
                result = self.create_view(stmt)
            elif isinstance(stmt, sql_ast.CheckView):
                result = self.check_view_static(stmt.name)
            elif isinstance(stmt, sql_ast.Explain):
                result = self.explain(stmt.statement)
            elif txn is not None:
                txn.require_active()
                result = execute_statement(self, txn, stmt)
            else:
                result = self._execute_autocommit(stmt, _policy, _isolation)
        return result

    def _execute_autocommit(self, stmt, policy, isolation):
        from repro.sql import execute_statement
        from repro.txn.transaction import TxnState

        txn = self.begin(policy=policy, isolation=isolation)
        try:
            result = execute_statement(self, txn, stmt)
            self.commit(txn)
            self.ensure_durable(txn)
            return result
        except SimulatedCrash:
            raise
        except BaseException:
            if txn.state is TxnState.ACTIVE:
                self.abort(txn)
            raise

    def _static_analyzer(self):
        from repro.analysis.static import StaticAnalyzer

        return StaticAnalyzer(
            self.catalog,
            strategy=self.config.aggregate_strategy,
            serializable=self.config.serializable,
        )

    def _trace_static_check(self, subject, kind, diagnostics):
        if not self.tracer.enabled:
            return
        by_severity = {"error": 0, "warning": 0, "info": 0}
        for diagnostic in diagnostics:
            by_severity[diagnostic.severity] += 1
        self.tracer.emit(
            "static_check",
            subject=subject,
            kind=kind,
            errors=by_severity["error"],
            warnings=by_severity["warning"],
            notes=by_severity["info"],
        )

    def check_view_static(self, name):
        """``CHECK VIEW name``: run the static analyzer over one
        registered view — escrow-eligibility proofs, worst-case lock
        footprints, deadlock-order and predicate diagnostics. Touches
        no data; see ``docs/ANALYSIS.md`` for the diagnostic codes."""
        report = self._static_analyzer().check_view(name)
        self._trace_static_check(name, "check_view", report.diagnostics)
        return report

    def explain(self, statement):
        """``EXPLAIN <stmt>``: infer the statement's lock footprint
        (including view-maintenance fan-out) without executing it.

        ``statement`` is a parsed AST statement; ``EXPLAIN CREATE
        ... VIEW`` analyzes the would-be view against a scratch copy of
        the catalog without registering it.
        """
        from repro.sql import ast as sql_ast
        from repro.sql import compile_view

        analyzer = self._static_analyzer()
        if isinstance(statement, sql_ast.Insert):
            report = analyzer.explain("insert", statement.table)
        elif isinstance(statement, sql_ast.Update):
            report = analyzer.explain("update", statement.table)
        elif isinstance(statement, sql_ast.Delete):
            report = analyzer.explain("delete", statement.table)
        elif isinstance(statement, sql_ast.Select):
            report = analyzer.explain("select", statement.table.name)
        elif isinstance(statement, sql_ast.CreateView):
            definition = compile_view(statement, self.catalog)
            scratch = Catalog()
            for schema in self.catalog.tables():
                scratch.add_table(schema)
            for registered in self.catalog.views():
                scratch.add_view(registered)
            scratch.add_view(definition)
            scratch_analyzer = type(analyzer)(
                scratch,
                strategy=self.config.aggregate_strategy,
                serializable=self.config.serializable,
            )
            check = scratch_analyzer.check_view(definition.name)
            from repro.analysis.static.analyzer import ExplainReport

            report = ExplainReport(
                f"create view {definition.name}",
                check.footprints,
                check.diagnostics,
            )
        else:
            raise UnsupportedSqlError(
                f"EXPLAIN has no plan for "
                f"{type(statement).__name__} statements"
            )
        self._trace_static_check(report.label, "explain", report.diagnostics)
        return report

    # ==================================================================
    # transactions
    # ==================================================================

    def session(self, isolation="serializable", policy=LockPolicy.NOWAIT):
        """A connection-like wrapper with an implicit current transaction
        and autocommit statements (see :mod:`repro.core.session`). It
        accepts the same ``policy=`` / ``isolation=`` keywords as
        :meth:`begin`, which it calls to open its transactions."""
        from repro.core.session import Session

        return Session(self, isolation=isolation, policy=policy)

    def begin(self, policy=LockPolicy.NOWAIT, isolation="serializable"):
        """Start and return a bare transaction handle — the transaction
        primitive every other entry point (:meth:`session`,
        :meth:`transaction`, :meth:`run_transaction`, autocommit
        :meth:`execute`, the simulator) opens its transactions with."""
        return self._txns.begin(policy=policy, isolation=isolation)

    def begin_system(self):
        return self._txns.begin_system()

    def commit(self, txn):
        """Apply any commit-folded view deltas, then commit."""
        txn.require_active()
        self._apply_commit_folds(txn)
        result = self._txns.commit(txn)
        self._maybe_auto_checkpoint()
        return result

    def abort(self, txn, reason="user"):
        self._txns.abort(txn, reason)
        TxnViewDeltas.clear(txn)

    # ==================================================================
    # two-phase commit: the participant side
    # ==================================================================

    def prepare(self, txn, gid):
        """Phase 1 of two-phase commit: vote yes on this branch of global
        transaction ``gid``.

        Applies any commit-folded view deltas (they must be locked and
        logged before the vote — nothing may fail after it), appends a
        durable :class:`~repro.wal.records.PrepareRecord`, and leaves the
        transaction ACTIVE with every lock held. From here the branch can
        only be finished by the coordinator's decision (``commit`` /
        ``abort`` on the live handle) — or, after a crash, by
        :meth:`resolve_in_doubt` once recovery re-lists it. A flush
        failure here propagates as a retryable fault: the vote never
        became durable, so the coordinator counts it as a no.
        """
        txn.require_active()
        self._apply_commit_folds(txn)
        self.log.append(PrepareRecord(txn.txn_id, gid))
        # The prepare promise is per-branch and unconditional: it cannot
        # wait for a commit group that the decision itself will ride.
        self.log.flush()
        txn.scratch["2pc_gid"] = gid
        self.counters.incr("dist.prepares")
        return txn

    def in_doubt_transactions(self):
        """Post-recovery in-doubt registry: ``txn_id -> gid`` for every
        prepared branch recovery found undecided. Empty on a healthy
        engine — live prepared branches are ordinary active transactions
        until a crash severs them from their handles."""
        return {
            txn_id: info["gid"] for txn_id, info in self._in_doubt.items()
        }

    def in_doubt_resources(self, txn_id):
        """The ``(index, key)`` pairs an in-doubt branch still holds X
        locks on — exactly what stays blocked until resolution."""
        return list(self._in_doubt[txn_id]["resources"])

    def resolve_in_doubt(self, txn_id, decision):
        """Finish a recovered in-doubt branch per the coordinator's
        ``decision`` (``"commit"`` or ``"abort"`` — an undecided gid is
        resolved ``"abort"``, the presumed-abort rule).

        Recovery already repeated the branch's history (its escrow deltas
        and row images are in the recovered state), so commit is pure
        bookkeeping: log COMMIT + END durably and release the locks.
        Abort physically reverses the branch record-by-record through
        CLRs — unlike online rollback, the deltas *are* on the rows here.
        """
        if txn_id not in self._in_doubt:
            raise TransactionStateError(
                f"transaction {txn_id} is not in doubt"
            )
        info = self._in_doubt.pop(txn_id)
        if decision == "commit":
            commit_ts = self.clock.tick()
            self.log.append(CommitRecord(txn_id, commit_ts))
            self.log.append(EndRecord(txn_id))
            self.log.flush_no_faults()
            self._txns.committed_count += 1
            self.counters.incr("dist.in_doubt_committed")
        elif decision == "abort":
            self.log.append(AbortRecord(txn_id))
            lsn = info["last_lsn"]
            while lsn is not None:
                record = self.log.record_at(lsn)
                if isinstance(record, CompensationRecord):
                    lsn = record.undo_next_lsn
                    continue
                if record.is_undoable():
                    clr = CompensationRecord(
                        txn_id,
                        compensated_lsn=record.lsn,
                        undo_next_lsn=record.prev_lsn,
                        action=record,
                    )
                    self.log.append(clr)
                    record.undo(self)
                lsn = record.prev_lsn
            self.log.append(EndRecord(txn_id))
            self.log.flush_no_faults()
            # Re-stamp the reverted rows: recovery's baseline versions
            # carried the in-doubt deltas (prepared = commit-visible), so
            # committed readers need a fresh version without them.
            ts = self.clock.tick()
            for index_name, key in info["resources"]:
                index = self._indexes.get(index_name)
                record = (
                    index.get_record(tuple(key), include_ghost=True)
                    if index is not None else None
                )
                if record is not None:
                    record.stamp_version(ts)
            self._txns.aborted_count += 1
            self.counters.incr("dist.in_doubt_aborted")
        else:
            self._in_doubt[txn_id] = info
            raise TransactionStateError(
                f"unknown 2PC decision {decision!r} for transaction {txn_id}"
            )
        self.locks.release_all(txn_id)
        return decision

    def savepoint(self, txn):
        """Mark the current point in ``txn`` for partial rollback."""
        return self._txns.savepoint(txn)

    def rollback_to(self, txn, savepoint):
        """Undo everything ``txn`` did after ``savepoint``; the
        transaction stays active with its locks retained."""
        self._txns.rollback_to(txn, savepoint)

    def run_transaction(self, fn, retries=3, policy=LockPolicy.NOWAIT,
                        isolation="serializable"):
        """Run ``fn(txn)`` in a transaction, automatically re-executing it
        when it aborts for a retryable reason (deadlock, lock timeout,
        injected fault — anything raising
        :class:`~repro.common.TransactionAborted`).

        ``retries`` bounds *re*-executions: ``retries=3`` allows up to 4
        attempts. Between attempts the logical clock advances by a seeded
        exponential backoff with jitter (``docs/ROBUSTNESS.md``), so a
        herd of retriers decorrelates deterministically. ``fn`` must be
        safe to re-run from scratch (each attempt gets a fresh
        transaction). A :class:`~repro.common.SimulatedCrash` is never
        retried — nothing is running after a crash.

        Returns ``fn``'s result from the successful attempt; commits for
        ``fn`` unless ``fn`` already resolved the transaction itself.
        """
        from repro.txn.transaction import TxnState

        attempt = 0
        while True:
            attempt += 1
            txn = self.begin(policy=policy, isolation=isolation)
            try:
                result = fn(txn)
                if txn.state is TxnState.ACTIVE:
                    self.commit(txn)
                # With group commit on, wait out the batched flush: a
                # retracted group surfaces here as a retryable
                # FaultInjected, so run_transaction re-runs exactly the
                # members whose COMMIT records never became durable.
                self.ensure_durable(txn)
                self.retries.observe_run(attempt, success=True)
                return result
            except TransactionAborted as aborted:
                if txn.state is TxnState.ACTIVE:
                    self.abort(txn, reason=aborted.reason or "aborted")
                if attempt > retries:
                    self.retries.observe_run(attempt, success=False)
                    raise
                backoff = self._retry_backoff(attempt)
                self.retries.observe_backoff(backoff)
                if self.tracer.enabled:
                    self.tracer.emit(
                        "txn_retry", txn_id=txn.txn_id, attempt=attempt,
                        backoff=backoff, reason=aborted.reason or "aborted",
                    )
                self.clock.tick(backoff)
            except SimulatedCrash:
                raise  # volatile state is gone; only recovery may follow
            except BaseException:
                if txn.state is TxnState.ACTIVE:
                    self.abort(txn, reason="error")
                raise

    def _retry_backoff(self, attempt):
        """Backoff before re-running attempt ``attempt + 1``, in ticks:
        ``min(cap, base * 2**(attempt-1))`` plus jitter in ``[0, base]``."""
        base = self.config.retry_backoff_base
        cap = self.config.retry_backoff_cap
        return min(cap, base * 2 ** (attempt - 1)) + self._retry_rng.randint(0, base)

    def transaction(self, policy=LockPolicy.NOWAIT, isolation="serializable"):
        """Context manager: commit on clean exit, abort on exception.
        :meth:`run_transaction` is the retry-safe form.

        >>> db = Database(); _ = db.create_table("t", ("a",), ("a",))
        >>> with db.transaction() as txn:
        ...     db.insert(txn, "t", {"a": 1})
        (1,)
        >>> db.read_committed("t", (1,))
        Row(a=1)
        """
        return _TransactionContext(
            self.session(isolation=isolation, policy=policy)
        )

    @property
    def committed_count(self):
        return self._txns.committed_count

    @property
    def aborted_count(self):
        return self._txns.aborted_count

    def active_transactions(self):
        return self._txns.active_transactions()

    # ==================================================================
    # group commit (durability control)
    # ==================================================================

    def ensure_durable(self, txn):
        """Block until ``txn``'s COMMIT record is durable.

        A no-op without group commit (the commit already flushed). With
        grouping on, a still-pending ticket makes this caller the flush
        leader for the open group. Raises
        :class:`~repro.common.FaultInjected` (retryable) when the
        group was retracted before this member reached durability, and
        :class:`~repro.common.SimulatedCrash` when the flush failure had
        to escalate.
        """
        ticket = getattr(txn, "commit_ticket", None)
        if ticket is None:
            return True
        if ticket.state == CommitTicket.PENDING:
            self.group_commit.flush(leader=txn.txn_id)
        if ticket.state == CommitTicket.DURABLE:
            return True
        raise FaultInjected(ticket.reason or "wal.group_flush", txn.txn_id)

    def group_commit_deadline(self):
        """Tick at which the open commit group must flush (latency
        policy), or ``None``. The simulator's scheduler watches this."""
        return self.group_commit.next_deadline()

    def poll_group_commit(self):
        """Fire the group flush deadline if it has passed; returns True
        when a flush ran."""
        return self.group_commit.poll(self.clock.now())

    def flush_group_commit(self):
        """Force the open commit group out (quiescence / shutdown);
        returns the number of members flushed."""
        return self.group_commit.flush_pending()

    def _on_group_flush_failure(self, tickets, member_ids, fault):
        """The group flush failed before ``tickets`` reached durability.

        Preferred outcome: *retract* the group — discard the unflushed
        log suffix (a bounded, inline micro-crash: ``log.crash()`` plus
        an ARIES restart from the durable prefix) and mark every
        non-durable member aborted-retryable. That is only sound when
        rollback provably reaches everything the group touched: no
        transaction is active, and every unflushed record belongs to a
        group member. Otherwise a reader could have consumed a retracted
        member's writes under early lock release, so the failure
        escalates to :class:`~repro.common.SimulatedCrash` — recovery
        then aborts those dependents wholesale, exactly the
        dependent-abort story the commit-flush comment in
        ``txn/manager.py`` documents.
        """
        from repro.txn.transaction import TxnState

        if not tickets:
            return
        if not self._group_retractable(member_ids):
            # The members' COMMIT records die with the volatile log; mark
            # their tickets lost now so nothing waits on them forever.
            now = self.clock.now()
            for ticket in tickets:
                ticket.state = CommitTicket.LOST
                ticket.reason = fault.site
                ticket.resolved_at = now
            self.group_commit.lost_txns += len(tickets)
            self.group_commit.crash_escalations += 1
            self.counters.incr("group_commit.crash_escalations")
            raise SimulatedCrash(fault.site, committed=False) from fault
        self.log.crash()
        self._rebuild_from_log()
        now = self.clock.now()
        for ticket in tickets:
            ticket.state = CommitTicket.RETRACTED
            ticket.reason = fault.site
            ticket.resolved_at = now
            # Idempotent abort paths (scheduler, run_transaction) see the
            # member as already rolled back — which recovery just did.
            ticket.txn.state = TxnState.ABORTED
        self.group_commit.retracted_txns += len(tickets)
        self.counters.incr("group_commit.retractions", len(tickets))
        if self.sanitizers is not None:
            # Redundant with the notice_crash inside _rebuild_from_log
            # for the durability ledger, but the explicit retraction also
            # excises the members from the committed history.
            self.sanitizers.notice_retraction(member_ids)

    def _group_retractable(self, member_ids):
        """True when discarding the unflushed suffix undoes *only* the
        failed group: no active transactions, and every unflushed record
        belongs to a group member. (Durable members can only have END
        records past the boundary — losing an END is always safe.)"""
        if self._txns.active_transactions():
            return False
        for record in self.log.records(self.log.flushed_lsn + 1):
            if record.txn_id is None or record.txn_id not in member_ids:
                return False
        return True

    def stats(self):
        """One nested dict of everything the engine measures.

        Schema documented in ``docs/OBSERVABILITY.md`` (and pinned by
        ``tests/test_obs.py``): named counters, lock-manager totals,
        transaction outcomes, WAL volume, group-commit batching,
        per-transaction histograms, tracer buffer health, and cleaner
        progress.
        """
        return {
            "counters": self.counters.as_dict(),
            "lock": self.locks.stats.as_dict(),
            "txns": {
                "committed": self.committed_count,
                "aborted": self.aborted_count,
                "active": len(self._txns.active_transactions()),
            },
            "wal": {
                "records": len(self.log),
                "bytes": self.log.bytes_estimate,
                "flushes": self.log.flush_count,
                "flushed_lsn": self.log.flushed_lsn,
                "records_per_flush": self.log.flush_records.as_dict(),
            },
            "group_commit": self.group_commit.stats(),
            "storage": {
                "pool": self._pool.stats(),
                "store_pages": len(self._store),
                "store_writes": self._store.writes,
                "store_reads": self._store.reads,
                "torn_writes": self._store.torn_writes,
                "mirrored_entries": self._pages.entry_count(),
                "applied_records": self._pages.applied,
            },
            "per_txn": self.metrics.as_dict(),
            "tracer": self.tracer.summary(),
            "cleanup": {
                "backlog": len(self.cleanup),
                "removed": self.cleaner.cleaned,
                "requeued": self.cleaner.requeued,
                "skipped_live": self.cleaner.skipped_live,
            },
            "escalations": self.escalation.escalations,
            "retries": self.retries.as_dict(),
            "faults": self.faults.counts(),
            "integrity": {
                "checks": self._integrity_checks,
                "damage_found": self._integrity_damage,
                "quarantined": self.quarantine.quarantined(),
                "degraded_reads": self.quarantine.degraded_reads,
                "rebuilds": self.quarantine.rebuilds,
            },
        }

    def _apply_commit_folds(self, txn):
        """commit_fold mode: apply the transaction's accumulated aggregate
        deltas now, one group at a time. Idempotent across WouldWait
        re-runs: applied groups are remembered in the txn's scratch."""
        nets = txn.scratch.get(TxnViewDeltas.SCRATCH_KEY)
        if not nets:
            return
        applied = txn.scratch.setdefault("folds_applied", set())
        maintainer = self.maintenance.aggregate
        for view_name in sorted(nets):
            if self.quarantine.is_quarantined(view_name):
                # Quarantined mid-transaction: deltas accumulated before
                # the quarantine are dropped — the rebuild recomputes.
                continue
            view = self.catalog.view(view_name)
            for group_key, deltas in nets[view_name].items():
                tag = (view_name, group_key)
                if tag in applied:
                    continue
                action = maintainer.compile_group_delta(
                    self, txn, view, group_key, deltas
                )
                self.acquire_plan(txn, action.lock_plan)
                action.apply(self, txn)
                applied.add(tag)

    def _on_commit(self, txn, commit_ts):
        """Commit listener: fold escrow deltas into rows, stamp versions,
        queue newly empty groups for cleanup."""
        records_to_stamp = list(txn.touched_records)
        for resource in sorted(txn.escrow_touched, key=repr):
            account = txn.escrow_touched[resource]
            index_name, key, column = resource
            new_value = account.commit(txn.txn_id)
            index = self._indexes.get(index_name)
            if index is None:
                continue
            record = index.get_record(key, include_ghost=True)
            if record is None:
                continue
            record.current_row = record.current_row.replace(**{column: new_value})
            records_to_stamp.append(record)
            view = self.view_of_index(index_name)
            if (
                view is not None
                and is_aggregate_kind(view)
                and column == view.count_column
                and new_value == 0
                and not record.is_ghost
            ):
                self.cleanup.enqueue(index_name, key)
                self.counters.incr("agg.group_emptied_at_commit")
        stamped = set()
        for record in records_to_stamp:
            if id(record) in stamped:
                continue
            stamped.add(id(record))
            record.stamp_version(commit_ts)

    # ==================================================================
    # DML
    # ==================================================================

    def insert(self, txn, table, values):
        """Insert one row, maintaining every view on ``table``."""
        txn.require_active()
        schema = self.catalog.table(table)
        row = values if isinstance(values, Row) else Row(values)
        schema.validate_row(row)
        key = schema.key_of(row)
        txn.acquire(table_resource(table), LockMode.IX)
        index = self._indexes[table]
        base_plan = locks_for_insert(index, key, self.config.serializable)
        # Duplicate check happens in apply (under the key's X lock), but a
        # pre-check gives a cleaner error without burning a lock wait.
        existing = index.get_record(key)
        if existing is not None:
            raise StorageError(f"duplicate primary key {key!r} in {table!r}")

        def apply_base(d, t):
            current = index.get_record(key, include_ghost=True)
            if current is not None and not current.is_ghost:
                raise StorageError(f"duplicate primary key {key!r} in {table!r}")
            if current is not None:
                ghost_row = current.current_row
                index.insert(key, row)
                from repro.wal.records import ReviveRecord

                d.log.append(ReviveRecord(t.txn_id, table, key, row, ghost_row))
                d.cleanup.cancel(table, key)
                t.touch_record(current)
            else:
                record = index.insert(key, row)
                d.log.append(InsertRecord(t.txn_id, table, key, row))
                t.touch_record(record)
            t.stats.writes += 1
            d.counters.incr("dml.insert")

        base_action = Action(f"base-insert {table}{key!r}", base_plan, apply_base)
        view_actions = self.maintenance.compile(self, txn, table, "insert", after=row)
        index_actions = self.secondary.compile(table, "insert", None, row)
        run_actions(self, txn, [base_action] + index_actions + view_actions)
        return key

    def delete(self, txn, table, key):
        """Delete (ghost) the row at ``key``, maintaining views."""
        txn.require_active()
        key = tuple(key)
        txn.acquire(table_resource(table), LockMode.IX)
        index = self._indexes[table]
        # Lock before reading the before-image (compile-phase acquire).
        self.acquire_plan(txn, locks_for_logical_delete(index, key))
        before = index.get_row(key)
        if before is None:
            raise StorageError(f"no row with key {key!r} in {table!r}")

        def apply_base(d, t):
            record = index.get_record(key)
            index.logical_delete(key)
            d.log.append(GhostRecord(t.txn_id, table, key, record.current_row))
            t.touch_record(record)
            d.cleanup.enqueue(table, key)
            t.stats.writes += 1
            d.counters.incr("dml.delete")

        base_action = Action(f"base-delete {table}{key!r}", [], apply_base)
        view_actions = self.maintenance.compile(
            self, txn, table, "delete", before=before
        )
        index_actions = self.secondary.compile(table, "delete", before, None)
        run_actions(self, txn, [base_action] + index_actions + view_actions)
        return before

    def update(self, txn, table, key, changes):
        """Update non-key columns of the row at ``key``."""
        txn.require_active()
        key = tuple(key)
        schema = self.catalog.table(table)
        bad = [c for c in changes if c in schema.primary_key]
        if bad:
            raise StorageError(
                f"primary-key columns {bad!r} are immutable; delete+insert instead"
            )
        unknown = [c for c in changes if c not in schema.columns]
        if unknown:
            raise StorageError(f"unknown columns {unknown!r} for table {table!r}")
        txn.acquire(table_resource(table), LockMode.IX)
        index = self._indexes[table]
        self.acquire_plan(txn, locks_for_update(index, key))
        before = index.get_row(key)
        if before is None:
            raise StorageError(f"no row with key {key!r} in {table!r}")
        after = before.replace(**changes)
        if after == before:
            return after

        def apply_base(d, t):
            record = index.get_record(key)
            d.log.append(UpdateRecord(t.txn_id, table, key, record.current_row, after))
            record.current_row = after
            t.touch_record(record)
            t.stats.writes += 1
            d.counters.incr("dml.update")

        base_action = Action(f"base-update {table}{key!r}", [], apply_base)
        view_actions = self.maintenance.compile(
            self, txn, table, "update", before=before, after=after
        )
        index_actions = self.secondary.compile(table, "update", before, after)
        run_actions(self, txn, [base_action] + index_actions + view_actions)
        return after

    # ==================================================================
    # reads
    # ==================================================================

    def _visible(self, name, row):
        """Zero-count aggregate groups are logically deleted even before
        the ghost cleaner physically removes them."""
        if row is None:
            return None
        view = self.view_of_index(name)
        if (
            view is not None
            and is_aggregate_kind(view)
            and name == view.name
            and row[view.count_column] == 0
        ):
            return None
        return row

    def read(self, txn, name, key, for_update=False):
        """Point read of a table or view row.

        Serializable transactions take an S (or U) key lock — which waits
        behind in-flight escrow writers. Snapshot transactions read the
        version chain at their read timestamp, lock-free.

        A quarantined view answers from a fresh recomputation of its base
        tables instead of its (presumed damaged) maintained index.
        """
        txn.require_active()
        key = tuple(key)
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn
            )
            txn.stats.reads += 1
            return contents.get(key)
        index = self.index(name)
        if txn.isolation in ("snapshot", "read_committed"):
            # snapshot: frozen at the transaction's start timestamp.
            # read_committed: latest committed state per statement —
            # never blocks, admits non-repeatable reads.
            as_of = txn.read_ts if txn.isolation == "snapshot" else self.clock.now()
            record = index.get_record(key, include_ghost=True)
            txn.stats.reads += 1
            row = record.read_as_of(as_of) if record is not None else None
            return self._visible(name, row)
        mode = LockMode.U if for_update else LockMode.S
        self.acquire_plan(txn, locks_for_point_read(index, key, mode))
        txn.stats.reads += 1
        return self._visible(name, index.get_row(key))

    def read_exact(self, txn, name, key):
        """Read a view row including the transaction's *own* pending
        escrow deltas. Requires excluding other escrow holders, so the S
        request converts any E the reader holds into X (E ∨ S = X)."""
        txn.require_active()
        key = tuple(key)
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            # Quarantine pauses the view's maintenance, so this txn holds
            # no pending escrow deltas against it — the degraded
            # recomputation already is the exact answer.
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn
            )
            txn.stats.reads += 1
            return contents.get(key)
        index = self.index(name)
        self.acquire_plan(txn, locks_for_point_read(index, key))
        txn.stats.reads += 1
        row = index.get_row(key)
        if row is None:
            return None
        view = self.view_of_index(name)
        if view is not None and is_aggregate_kind(view) and name == view.name:
            changes = {}
            for column in view.counter_columns():
                account = self.escrow.existing((name, key, column))
                if account is not None:
                    changes[column] = account.read_exact(txn.txn_id)
            if changes:
                row = row.replace(**changes)
        return row

    def scan(self, txn, name, key_range=None):
        """Range scan of a table or view, in key order.

        Serializable transactions take key-range locks on every key in
        range plus the fence above it (no phantoms); snapshot transactions
        read versions lock-free.
        """
        txn.require_active()
        if key_range is None:
            key_range = KeyRange.all()
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), txn
            )
            rows = [
                contents[key] for key in sorted(contents)
                if key_range.contains(key)
            ]
            txn.stats.reads += len(rows)
            return rows
        index = self.index(name)
        if txn.isolation in ("snapshot", "read_committed"):
            as_of = txn.read_ts if txn.isolation == "snapshot" else self.clock.now()
            rows = []
            for _, record in index.scan(key_range, include_ghosts=True):
                row = self._visible(name, record.read_as_of(as_of))
                if row is not None:
                    rows.append(row)
            txn.stats.reads += len(rows)
            return rows
        plan = locks_for_range_scan(
            index, key_range, serializable=self.config.serializable
        )
        self.acquire_plan(txn, plan)
        rows = [
            row for row in index.rows(key_range)
            if self._visible(name, row) is not None
        ]
        txn.stats.reads += len(rows)
        return rows

    def _deny_building(self, name):
        """A view mid online build does not logically exist yet — its
        contents are a moving target until the flip commits."""
        if self.online_builds.active and self.online_builds.is_building(name):
            raise CatalogError(
                f"view {name!r} is being built online and is not yet "
                "readable"
            )

    def read_committed(self, name, key):
        """Latest committed row outside any transaction (convenience for
        tests and examples; equivalent to a fresh snapshot read)."""
        self._deny_building(name)
        if self.quarantine.active and self.quarantine.is_quarantined(name):
            contents = self.quarantine.degraded_contents(
                self.catalog.view(name), None
            )
            return contents.get(tuple(key))
        record = self.index(name).get_record(tuple(key), include_ghost=True)
        if record is None:
            return None
        return self._visible(name, record.read_as_of(self.clock.now()))

    # ==================================================================
    # maintenance utilities
    # ==================================================================

    def run_ghost_cleanup(self, limit=None):
        """Run the ghost cleaner; returns keys physically removed."""
        return self.cleaner.run(limit)

    def refresh_view(self, view_name, limit=None):
        """Apply pending deferred maintenance for one view."""
        return self.deferred.refresh(self, view_name, limit)

    def refresh_all_views(self):
        return self.deferred.refresh_all(self)

    def prune_versions(self):
        """Drop row versions no active snapshot can see; returns count."""
        horizon = self.snapshots.horizon()
        dropped = 0
        for index in self._indexes.values():
            for _, record in index.scan(include_ghosts=True):
                dropped += record.prune_versions(horizon)
        return dropped

    def check_view_consistency(self, view_name):
        """Recompute ``view_name`` from its base tables and diff against
        the maintained contents. Returns a list of discrepancy strings
        (empty = consistent). Only meaningful at quiescence (no active
        transactions)."""
        if self.online_builds.is_building(view_name):
            return []  # not yet logically a view; the build verifies it
        view = self.catalog.view(view_name)
        index = self._indexes[view.name]
        actual = {key: record.current_row for key, record in index.scan()}
        if view.kind == "aggregate":
            base_rows = list(self._indexes[view.base].rows())
            expected = recompute_aggregate_view(base_rows, view)
        elif view.kind == "projection":
            base_rows = list(self._indexes[view.base].rows())
            expected = recompute_projection_view(base_rows, view)
        elif view.kind == "join_aggregate":
            expected = recompute_join_aggregate_view(
                list(self._indexes[view.left].rows()),
                list(self._indexes[view.right].rows()),
                view,
            )
        else:
            expected = recompute_join_view(
                list(self._indexes[view.left].rows()),
                list(self._indexes[view.right].rows()),
                view,
            )
        problems = []
        if is_aggregate_kind(view):
            # Maintained views may legitimately hold zero-count groups not
            # yet cleaned; treat them as absent.
            actual = {
                k: r for k, r in actual.items() if r[view.count_column] != 0
            }
        for key in sorted(set(expected) | set(actual), key=repr):
            exp, act = expected.get(key), actual.get(key)
            if exp != act:
                problems.append(f"{view_name}{key!r}: expected {exp!r}, got {act!r}")
        return problems

    def check_all_views(self):
        problems = []
        for view in self.catalog.views():
            problems.extend(self.check_view_consistency(view.name))
        return problems

    # ==================================================================
    # integrity: check, quarantine, rebuild
    # ==================================================================

    def check_integrity(self, quarantine=False):
        """Run the online integrity checker (see
        :mod:`repro.integrity.checker`): B-tree structural invariants of
        every index, secondary-index agreement with the heap, and every
        view against fresh recomputation. Returns the
        :class:`~repro.integrity.IntegrityReport`.

        ``quarantine=True`` additionally quarantines every view the
        checker found damaged, flipping its reads to degraded
        recomputation until :meth:`rebuild_view`. Only meaningful at
        quiescence, like :meth:`check_view_consistency`.
        """
        from repro.integrity import check_database

        report = check_database(self)
        self._integrity_checks += 1
        self._integrity_damage += len(report.damage)
        self.counters.incr("integrity.checks")
        if self.tracer.enabled:
            self.tracer.emit(
                "integrity_check", indexes=report.indexes_checked,
                views=report.views_checked, damage=len(report.damage),
            )
        if quarantine:
            for view_name in report.damaged_views():
                if not self.quarantine.is_quarantined(view_name):
                    self.quarantine.quarantine(
                        view_name, reason=report.reason_for(view_name)
                    )
        return report

    def quarantine_view(self, view_name, reason="operator"):
        """Quarantine one view by hand (reads degrade, maintenance
        pauses); :meth:`check_integrity(quarantine=True)` is the
        automatic route."""
        return self.quarantine.quarantine(view_name, reason=reason)

    def rebuild_view(self, view_name):
        """Online rebuild of a quarantined view: one system transaction
        re-materializes it from the base tables under locks and lifts the
        quarantine. Returns the number of corrections applied."""
        return self.quarantine.rebuild(view_name)

    # ==================================================================
    # checkpoints, crash, recovery
    # ==================================================================

    def take_checkpoint(self, kind="sharp"):
        """Write a checkpoint record; flushes the log.

        ``kind="sharp"`` (default, the pre-page-world behaviour) logs a
        full snapshot of every index with pending escrow deltas folded
        in (loser undo subtracts them back), plus the active-transaction
        table — recovery then replays only the log suffix.

        ``kind="fuzzy"`` is the ARIES checkpoint: no data snapshot, just
        the active-transaction table and the buffer pool's dirty-page
        table, followed by a background-writer sweep
        (:meth:`~repro.storage.bufferpool.BufferPool.flush_dirty`).
        Recovery seeds from the durable page images and redoes only from
        ``min(recLSN)`` — cost bounded by the checkpoint interval, not
        the log length. ``EngineConfig(checkpoint_interval=N)`` takes
        one automatically every N commits.
        """
        if kind == "fuzzy":
            return self._take_fuzzy_checkpoint()
        snapshot = {}
        for name, index in self._indexes.items():
            entries = []
            view = self.view_of_index(name)
            counter_cols = (
                view.counter_columns()
                if view is not None and is_aggregate_kind(view) and name == view.name
                else ()
            )
            for key, record in index.scan(include_ghosts=True):
                row = record.current_row
                for column in counter_cols:
                    account = self.escrow.existing((name, key, column))
                    if account is not None:
                        row = row.replace(**{column: account.read_inclusive()})
                entries.append([list(key), row.as_dict(), record.is_ghost])
            snapshot[name] = entries
        record = CheckpointRecord(self._checkpoint_att(), snapshot)
        self.log.append(record)
        self.log.flush()
        self.counters.incr("checkpoint.taken")
        if self.tracer.enabled:
            self.tracer.emit(
                "checkpoint_taken", kind="sharp", lsn=record.lsn,
                active_txns=len(record.active_txns), dirty_pages=0,
            )
        return record

    def _take_fuzzy_checkpoint(self):
        dirty = self._pool.dirty_page_table()
        record = CheckpointRecord(
            self._checkpoint_att(), None, dirty, kind="fuzzy"
        )
        self.log.append(record)
        # Runs inside the commit path when auto-triggered: the scheduled
        # flush fault sites belong to statement-level retries, not to a
        # background checkpointer, so they are not consumed here.
        self.log.flush_no_faults()
        self._pool.flush_dirty()
        # Every mirrored entry is durable now, so the superseded copies
        # that page-to-page moves left behind can finally be erased.
        self._pages.reclaim_stale()
        self.counters.incr("checkpoint.taken")
        self.counters.incr("checkpoint.fuzzy")
        if self.tracer.enabled:
            self.tracer.emit(
                "checkpoint_taken", kind="fuzzy", lsn=record.lsn,
                active_txns=len(record.active_txns),
                dirty_pages=len(dirty),
            )
        return record

    def _checkpoint_att(self):
        """The active-transaction table a checkpoint must record: live
        transactions plus recovered in-doubt branches — a checkpoint taken
        while a branch awaits its 2PC decision must not let the next
        recovery forget it."""
        att = self._txns.active_txn_table()
        for txn_id, info in self._in_doubt.items():
            att[txn_id] = info["last_lsn"] or 0
        return att

    def _maybe_auto_checkpoint(self):
        interval = self.config.checkpoint_interval
        if interval is None:
            return
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint >= interval:
            self._commits_since_checkpoint = 0
            self.take_checkpoint(kind="fuzzy")

    def simulate_crash_and_recover(self):
        """Lose all volatile state, then rebuild from the durable log.

        Returns the :class:`~repro.wal.recovery.RecoveryReport`.

        Re-entrant: if an armed ``recovery.*`` site crashes recovery
        itself (:class:`~repro.common.SimulatedCrash` propagates), call
        this again — repeated partial recoveries converge because undo's
        CLRs are hardened as written. The completed report's
        ``restarts`` counts the interrupted attempts.
        """
        self.log.crash()
        return self._rebuild_from_log()

    def dump_wal_segments(self, directory):
        """Persist the flushed log prefix as a chain of fixed-size
        segment files with CRC trailers (``wal.NNNNN.seg``; see
        :mod:`repro.wal.segments`). Returns the written paths."""
        self.log.flush()
        return dump_segments(
            self.log, directory,
            segment_bytes=self.config.wal_segment_bytes,
            faults=self.faults,
        )

    def load_wal_segments_and_recover(self, directory):
        """Rebuild all state from a segment chain written by
        :meth:`dump_wal_segments`. DDL is not logged (see
        :meth:`create_view`), so the receiving database must already have
        the same tables and views registered — build the schema first,
        then restore. A broken chain (bad trailer CRC, lost segment) is
        truncated at the break and the loss lands in the salvage report.
        """
        self.log = load_segments(
            directory, checksums=self.config.wal_checksums
        )
        return self._rebuild_from_log()

    def wal_recycle_floor(self):
        """First LSN the log must retain — the ARIES truncation point:
        ``min(checkpoint LSN, min recLSN over dirty pages, first LSN of
        any active transaction, first LSN of any in-doubt branch)``.
        Without a checkpoint nothing is recyclable (returns 1).

        The in-doubt clause is what lets segment recycling coexist with
        two-phase commit: a prepared branch whose decision was lost may
        wait arbitrarily long for resolution, and its records (including
        the PREPARE itself) must survive recycling or the branch could
        never be resolved after another crash."""
        checkpoint = self.log.latest_checkpoint()
        if checkpoint is None:
            return 1
        candidates = [checkpoint.lsn]
        if checkpoint.dirty_pages:
            candidates.append(min(checkpoint.dirty_pages.values()))
        dirty = self._pool.dirty_page_table()
        if dirty:
            candidates.append(min(dirty.values()))
        active = set(self._txns.active_txn_table())
        if active:
            for record in self.log.records():
                if record.txn_id in active:
                    candidates.append(record.lsn)
                    break
        for info in self._in_doubt.values():
            if info["first_lsn"] is not None:
                candidates.append(info["first_lsn"])
        return min(candidates)

    def recycle_wal_segments(self, directory):
        """Delete dumped segments that lie wholly below
        :meth:`wal_recycle_floor`; returns the removed paths."""
        return recycle_segments(directory, self.wal_recycle_floor())

    def _rebuild_from_log(self):
        restarted = self._recovery_attempts > 0
        self._recovery_attempts += 1
        if restarted:
            self.counters.incr("recovery.restarts")
            if self.tracer.enabled:
                self.tracer.emit(
                    "recovery_restarted", attempt=self._recovery_attempts
                )
        if self.sanitizers is not None:
            # Before recovery appends anything: the volatile suffix is
            # gone, LSNs legally rewind to flushed_lsn + 1, and commit-
            # visible-but-not-durable transactions are rolled back.
            self.sanitizers.notice_crash()
        # Salvage before anything reads the log: a corrupt record's
        # payload (even its txn_id) cannot be trusted. On re-entry after a
        # mid-recovery crash the log is already clean; the first attempt's
        # report is carried in _pending_salvage so the loss still lands on
        # the completed report.
        fresh = salvage(self.log, verify=self.log.checksums)
        if fresh is not None:
            self._pending_salvage = fresh
            self.counters.incr("wal.salvage")
            if self.tracer.enabled:
                self.tracer.emit(
                    "wal_salvage",
                    truncated_lsn=fresh["truncated_lsn"],
                    dropped=fresh["dropped_records"],
                    lost_commits=fresh["lost_commits"],
                    tail_garbage=fresh["tail_garbage"],
                )
            if fresh["lost_commits"] and self.config.salvage_policy == "strict":
                # The log is already truncated (garbage must never be
                # replayed); the loss is in the raised error. A subsequent
                # recovery call proceeds and still carries the report.
                raise WalCorruptionError(
                    "durable log corrupt: committed transactions "
                    f"{fresh['lost_commits']} lost past LSN "
                    f"{fresh['truncated_lsn']}",
                    salvage=fresh,
                )
        max_txn = 0
        max_commit_ts = 0
        for record in self.log.records():
            if record.txn_id is not None:
                max_txn = max(max_txn, record.txn_id)
            commit_ts = getattr(record, "commit_ts", None)
            if commit_ts is not None:
                max_commit_ts = max(max_commit_ts, commit_ts)
        self.clock.advance_to(max_commit_ts)
        self._reset_volatile()
        self._txns._next_txn_id = max(self._txns._next_txn_id, max_txn + 1)
        checkpoint = self.log.latest_checkpoint()
        pages_gate = None
        pages_loaded = 0
        if checkpoint is not None and checkpoint.snapshot is not None:
            # Sharp checkpoint: the snapshot already folds everything in;
            # redo the suffix ungated.
            self._load_snapshot(checkpoint.snapshot)
        elif len(self._store):
            # Fuzzy / no checkpoint, but durable page images exist: seed
            # state from them and gate redo per key on the entry LSNs.
            pages_gate, pages_loaded = self._seed_from_pages()
        report = recover(
            self.log, self, faults=self.faults,
            salvage_report=self._pending_salvage, pages=pages_gate,
        )
        report.pages_loaded = pages_loaded
        self._register_in_doubt(report.in_doubt)
        # Settle interrupted online builds before versions are stamped:
        # a vanished build's view must be gone before _post_recovery
        # walks the index registry.
        resolve_after_recovery(self)
        self._post_recovery()
        self._rebuild_page_mirror()
        report.restarts = self._recovery_attempts - 1
        self._recovery_attempts = 0
        self._pending_salvage = None
        self.counters.incr("recovery.runs")
        return report

    def _register_in_doubt(self, in_doubt):
        """Rebuild the in-doubt registry from recovery's verdict and
        re-acquire each branch's locks on the fresh lock manager.

        Recovery repeated the branches' history, so their effects are in
        the recovered state; what keeps that sound is that *only* the
        rows they touched are blocked — IX on each touched index, X on
        each touched key — until :meth:`resolve_in_doubt` settles them.
        Runs single-threaded before transactions restart, so every
        request is granted immediately."""
        self._in_doubt = {}
        for txn_id in sorted(in_doubt):
            last_lsn = self.log.last_lsn_of(txn_id)
            gid = None
            first_lsn = last_lsn
            resources = set()
            lsn = last_lsn
            while lsn is not None:
                record = self.log.record_at(lsn)
                first_lsn = record.lsn
                if isinstance(record, PrepareRecord):
                    gid = record.gid
                index_name = getattr(record, "index_name", None)
                if index_name is not None:
                    resources.add((index_name, tuple(record.key)))
                lsn = record.prev_lsn
            self._in_doubt[txn_id] = {
                "gid": gid,
                "first_lsn": first_lsn,
                "last_lsn": last_lsn,
                "resources": sorted(resources, key=repr),
            }
            for index_name, key in sorted(resources, key=repr):
                self.locks.request(
                    txn_id, table_resource(index_name), LockMode.IX
                )
                self.locks.request(
                    txn_id, key_resource(index_name, key), LockMode.X
                )

    def _reset_volatile(self):
        next_txn_id = self._txns._next_txn_id
        self.locks = LockManager(
            tracer=self.tracer, clock=self.clock,
            timeout=self.config.lock_wait_timeout, faults=self.faults,
        )
        self.latches = LatchSet()
        self.escrow = EscrowRegistry()
        self.snapshots = SnapshotRegistry(self.clock)
        self.cleanup = CleanupQueue()
        self.cleaner = GhostCleaner(self)
        self.log.tracer = self.tracer  # a loaded WAL starts with NULL_TRACER
        self.log.faults = self.faults
        self._txns = TransactionManager(
            self.clock, self.log, self.locks, self.escrow, self.snapshots,
            undo_target=self, tracer=self.tracer, metrics=self.metrics,
            faults=self.faults,
        )
        self._txns._next_txn_id = next_txn_id
        self._txns.commit_listener = self._on_commit
        self._txns.group_commit = self.group_commit
        # A crash destroys the open commit group: its members' COMMIT
        # records were in the lost suffix, so recovery rolls them back as
        # losers; anyone still waiting on a ticket learns it is lost.
        # (During a group *retraction* the pending list is already empty,
        # so this is a no-op there.)
        self.group_commit.abandon_pending()
        self.group_commit.log = self.log
        self.log.flush_listener = self.group_commit.on_flushed
        # The buffer pool's frames are volatile — gone with the crash —
        # but the page store survives. Recovery decides whether to trust
        # it (_seed_from_pages) or discard it (_rebuild_page_mirror).
        self._store.faults = self.faults
        self._pool = BufferPool(
            self._store, capacity=self.config.buffer_pool_frames,
            log=self.log, tracer=self.tracer,
        )
        self._pages = PageManager(self._pool, page_size=self.config.page_size)
        self.log.append_listener = self._pages.apply
        self._commits_since_checkpoint = 0
        for name, index in list(self._indexes.items()):
            self._indexes[name] = Index(
                name,
                index.key_columns,
                order=self.config.btree_order,
                latch_set=self.latches,
            )

    def _load_snapshot(self, snapshot):
        for name, entries in snapshot.items():
            index = self._indexes.get(name)
            if index is None:
                continue
            for key_list, row_dict, is_ghost in entries:
                record = VersionedRecord(tuple(key_list), Row(row_dict), is_ghost)
                index.physical_insert(record)

    def _seed_from_pages(self):
        """Load the durable page images into the fresh mirror and insert
        the newest live entry per key into the live indexes. Returns
        ``(pages_gate, pages_loaded)`` — the gate is ``None`` when a
        torn page makes the store untrustworthy, in which case the
        mirror is discarded and redo replays the whole log ungated."""
        loaded, torn, seeds = self._pages.load_durable_pages()
        if seeds is None:
            self.counters.incr("storage.torn_pages", torn)
            self._fresh_mirror()
            return None, loaded
        for index_name, key, row, is_ghost in seeds:
            self.recovery_insert(index_name, key, Row(row), is_ghost=is_ghost)
        return self._pages, loaded

    def _fresh_mirror(self):
        """Brand-new empty page world (store included), attached to the
        current log's append stream."""
        self._store = PageStore(faults=self.faults)
        self._pool = BufferPool(
            self._store, capacity=self.config.buffer_pool_frames,
            log=self.log, tracer=self.tracer,
        )
        self._pages = PageManager(self._pool, page_size=self.config.page_size)
        self.log.append_listener = self._pages.apply

    def _rebuild_page_mirror(self):
        """Resynchronize the page mirror with the recovered live state.

        Recovery can reach here through paths the mirror cannot track
        exactly (sharp snapshots, torn-page fallback, salvage cuts), so
        every path converges the same way: rebuild the mirror wholesale
        from the live indexes as of the log tail, then flush it — the
        durable pages and the recovered state agree from here on."""
        self._fresh_mirror()
        entries = []
        for name, index in self._indexes.items():
            for key, record in index.scan(include_ghosts=True):
                entries.append(
                    (name, key, record.current_row, record.is_ghost)
                )
        self._pages.bootstrap(entries, self.log.tail_lsn())
        self._pool.flush_dirty()

    def _post_recovery(self):
        """Stamp baseline versions and rebuild the cleanup work list."""
        ts = self.clock.tick()
        for name, index in self._indexes.items():
            view = self.view_of_index(name)
            is_agg = (
                view is not None
                and is_aggregate_kind(view)
                and name == view.name  # aux indexes carry no counters
            )
            for key, record in index.scan(include_ghosts=True):
                record.stamp_version(ts)
                if record.is_ghost:
                    self.cleanup.enqueue(name, key)
                elif is_agg and record.current_row[view.count_column] == 0:
                    self.cleanup.enqueue(name, key)

    # ==================================================================
    # RecoveryTarget implementation (also used by online rollback)
    # ==================================================================

    def recovery_insert(self, index_name, key, row, is_ghost=False):
        index = self._indexes.get(index_name)
        if index is None:
            return
        record = VersionedRecord(tuple(key), row, is_ghost)
        index.physical_insert(record)
        if is_ghost:
            self.cleanup.enqueue(index_name, tuple(key))

    def recovery_delete(self, index_name, key):
        index = self._indexes.get(index_name)
        if index is None:
            return
        if index.get_record(tuple(key), include_ghost=True) is not None:
            index.physical_delete(tuple(key))

    def recovery_update(self, index_name, key, row):
        index = self._indexes.get(index_name)
        if index is None:
            return
        record = index.get_record(tuple(key), include_ghost=True)
        if record is None:
            record = VersionedRecord(tuple(key), row)
            index.physical_insert(record)
        else:
            record.current_row = row

    def recovery_set_ghost(self, index_name, key, ghost):
        index = self._indexes.get(index_name)
        if index is None:
            return
        record = index.get_record(tuple(key), include_ghost=True)
        if record is None:
            return
        if ghost:
            if not record.is_ghost:
                index.logical_delete(tuple(key))
            self.cleanup.enqueue(index_name, tuple(key))
        elif record.is_ghost:
            index.insert(tuple(key), record.current_row)
            self.cleanup.cancel(index_name, tuple(key))

    def recovery_revive(self, index_name, key, row):
        index = self._indexes.get(index_name)
        if index is None:
            return
        record = index.get_record(tuple(key), include_ghost=True)
        if record is None:
            index.physical_insert(VersionedRecord(tuple(key), row))
        elif record.is_ghost:
            index.insert(tuple(key), row)
        else:
            record.current_row = row
        self.cleanup.cancel(index_name, tuple(key))

    def recovery_escrow_apply(self, index_name, key, deltas):
        index = self._indexes.get(index_name)
        if index is None:
            return
        record = index.get_record(tuple(key), include_ghost=True)
        if record is None:
            return
        row = record.current_row
        changes = {c: row[c] + d for c, d in deltas.items()}
        record.current_row = row.replace(**changes)


class _TransactionContext:
    """``with db.transaction() as txn`` — commit or abort automatically.

    A thin adapter over a :class:`~repro.core.session.Session`, so the
    three entry points share one code path."""

    __slots__ = ("_session", "_txn")

    def __init__(self, session):
        self._session = session
        self._txn = None

    def __enter__(self):
        self._txn = self._session.begin()
        return self._txn

    def __exit__(self, exc_type, exc, tb):
        from repro.txn.transaction import TxnState

        if self._txn.state is not TxnState.ACTIVE:
            # already resolved (e.g. aborted as a deadlock victim)
            return False
        if exc_type is None:
            self._session.commit()
        else:
            self._session.rollback()
        return False
