"""The supported public surface, in one import.

``repro.api`` re-exports everything a downstream caller — an application,
an example, a benchmark — should need, so nothing outside ``src/repro``
has to reach into deep modules (``repro.core.database``,
``repro.obs.schema``, …). ``benchmarks/check_results.py`` enforces this:
``examples/`` and ``benchmarks/`` may import ``repro`` or ``repro.api``
only. The deep modules stay importable for the engine's own tests, but
their layout is not a compatibility promise; this module's names are.

Grouped by concern:

* **engine** — :class:`Database`, :class:`EngineConfig`,
  :class:`Session`, :class:`LockPolicy`, :class:`Row`,
  :class:`KeyRange`;
* **SQL** — :func:`parse`, :func:`compile_view`, :func:`render_view`,
  :func:`plan_signature`, and the SQL error branch (:class:`SqlError`,
  :class:`ParseError`, :class:`BindError`,
  :class:`UnsupportedSqlError`); ``Database.execute`` /
  ``Session.execute`` are the canonical way to drive the engine (see
  ``docs/SQL.md``);
* **views and queries** — the ``ViewDefinition`` family,
  :class:`AggregateSpec`, and the column predicates (``col_eq`` …);
* **errors** — the :class:`ReproError` hierarchy plus
  :class:`SimulatedCrash`;
* **fault injection** — :class:`FaultInjector`, :class:`FaultSpec`,
  :data:`FAULT_SITES`;
* **integrity and recovery hardening** — the online checker
  (:class:`IntegrityReport`, :class:`Damage`), the recovery report and
  its pinned schema (:class:`RecoveryReport`,
  :func:`validate_recovery_report`), and the corruption error
  (:class:`WalCorruptionError`); see ``docs/ROBUSTNESS.md``;
* **simulation** — :class:`Scheduler`, :class:`CostModel`,
  :class:`SimResult`, and the packaged workloads;
* **observability** — :class:`Tracer`, :data:`EVENT_TYPES`, the result
  schema (:func:`validate_result`), metrics primitives, and the
  ``repro.core.inspect`` report helpers;
* **analysis** — the protocol sanitizers (:class:`SanitizerSuite`,
  :func:`check_trace`, :class:`History`), the lint gate
  (:func:`lint_paths`, :func:`check_import_surface`), and the static
  view-program analyzer (:class:`StaticAnalyzer`, :class:`Diagnostic`,
  :func:`validate_static_report`, ``CHECK VIEW`` / ``EXPLAIN`` in
  SQL); see ``docs/ANALYSIS.md``;
* **distribution** — the sharded fleet (:class:`ShardedDatabase`,
  :class:`RangePartitioner`, :class:`TwoPhaseCoordinator`,
  :func:`check_conservation`) and its retryable routing error
  (:class:`PartitionUnavailableError`); see ``docs/ARCHITECTURE.md`` §9.
"""

from repro.analysis import History, SanitizerSuite, Violation, check_trace
from repro.analysis.lint import check_import_surface, lint_paths
from repro.analysis.static import Diagnostic, StaticAnalyzer
from repro.common import (
    BindError,
    CatalogError,
    DeadlockError,
    DeterministicRng,
    EscrowViolationError,
    FaultInjected,
    IntegrityError,
    KeyRange,
    LockTimeoutError,
    ParseError,
    PartitionUnavailableError,
    ReproError,
    Row,
    SerializationError,
    SimulatedCrash,
    SqlError,
    StorageError,
    TransactionAborted,
    TransactionStateError,
    UnsupportedSqlError,
    WalCorruptionError,
    WouldWait,
    WalError,
    ZipfGenerator,
)
from repro.core.config import EngineConfig
from repro.core.database import Database
from repro.core.inspect import (
    health_report,
    hot_resources,
    lock_table,
    render_hot_resources,
    render_lock_table,
    render_transactions,
    storage_report,
    trace_tail,
    transaction_report,
    wait_graph_snapshot,
)
from repro.core.session import Session
from repro.dist import (
    DistTransaction,
    FailureDetector,
    RangePartitioner,
    ShardedDatabase,
    TwoPhaseCoordinator,
    check_conservation,
)
from repro.faults import FAULT_SITES, FaultInjector, FaultSpec
from repro.integrity import Damage, IntegrityReport, check_database
from repro.obs import (
    EVENT_TYPES,
    NET_STATS_FIELDS,
    RECOVERY_REPORT_FIELDS,
    RESULT_SCHEMA_VERSION,
    SALVAGE_REPORT_FIELDS,
    STATIC_REPORT_FIELDS,
    Counters,
    EngineMetrics,
    Histogram,
    Tracer,
    format_table,
    validate_recovery_report,
    validate_result,
    validate_static_report,
)
from repro.query import (
    AggregateSpec,
    col_between,
    col_eq,
    col_ge,
    col_gt,
    col_in,
    col_le,
    col_lt,
    col_ne,
)
from repro.sim import CostModel, Scheduler, SimResult
from repro.sql import (
    compile_view,
    parse,
    parse_one,
    plan_signature,
    render_view,
)
from repro.txn import LockPolicy
from repro.views.definition import (
    AggregateView,
    JoinAggregateView,
    JoinView,
    ProjectionView,
    ViewDefinition,
)
from repro.wal import CommitTicket, GroupCommitCoordinator, RecoveryReport
from repro.workload import (
    ACCOUNTS,
    BRANCH_TOTALS,
    BY_PRODUCT,
    PRODUCTS,
    SALES,
    SALES_NAMED,
    BankingWorkload,
    OrderEntryWorkload,
)

__all__ = [
    # engine
    "Database",
    "EngineConfig",
    "Session",
    "LockPolicy",
    "Row",
    "KeyRange",
    "DeterministicRng",
    "ZipfGenerator",
    # SQL
    "parse",
    "parse_one",
    "compile_view",
    "render_view",
    "plan_signature",
    # views and queries
    "ViewDefinition",
    "AggregateView",
    "JoinView",
    "JoinAggregateView",
    "ProjectionView",
    "AggregateSpec",
    "col_between",
    "col_eq",
    "col_ge",
    "col_gt",
    "col_in",
    "col_le",
    "col_lt",
    "col_ne",
    # errors
    "ReproError",
    "CatalogError",
    "StorageError",
    "WalError",
    "TransactionAborted",
    "TransactionStateError",
    "DeadlockError",
    "LockTimeoutError",
    "SerializationError",
    "EscrowViolationError",
    "SqlError",
    "ParseError",
    "BindError",
    "UnsupportedSqlError",
    "FaultInjected",
    "IntegrityError",
    "PartitionUnavailableError",
    "SimulatedCrash",
    "WalCorruptionError",
    "WouldWait",
    # fault injection
    "FaultInjector",
    "FaultSpec",
    "FAULT_SITES",
    # integrity and recovery hardening
    "Damage",
    "IntegrityReport",
    "check_database",
    "RecoveryReport",
    "RECOVERY_REPORT_FIELDS",
    "SALVAGE_REPORT_FIELDS",
    "validate_recovery_report",
    # group commit
    "CommitTicket",
    "GroupCommitCoordinator",
    # simulation and workloads
    "Scheduler",
    "CostModel",
    "SimResult",
    "BankingWorkload",
    "OrderEntryWorkload",
    "ACCOUNTS",
    "BRANCH_TOTALS",
    "BY_PRODUCT",
    "PRODUCTS",
    "SALES",
    "SALES_NAMED",
    # observability
    "Tracer",
    "EVENT_TYPES",
    "EngineMetrics",
    "RESULT_SCHEMA_VERSION",
    "validate_result",
    "Counters",
    "Histogram",
    "format_table",
    # inspect helpers
    "health_report",
    "hot_resources",
    "lock_table",
    "render_hot_resources",
    "render_lock_table",
    "render_transactions",
    "storage_report",
    "trace_tail",
    "transaction_report",
    "wait_graph_snapshot",
    # analysis
    "History",
    "SanitizerSuite",
    "Violation",
    "check_trace",
    "check_import_surface",
    "lint_paths",
    "Diagnostic",
    "StaticAnalyzer",
    "STATIC_REPORT_FIELDS",
    "validate_static_report",
    # distribution
    "DistTransaction",
    "FailureDetector",
    "NET_STATS_FIELDS",
    "RangePartitioner",
    "ShardedDatabase",
    "TwoPhaseCoordinator",
    "check_conservation",
]
