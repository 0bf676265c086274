"""Wall-clock spans around the engine's layer entry points.

The recorder wraps bound methods on live instances that the ``repro.api``
objects expose (``db.locks.request``, ``db.log.append``,
``db.maintenance.compile``, ``sharded.net.request``, ...). Nothing in the
engine is edited: a wrapper is an instance attribute that shadows the
class method, so every caller that holds the same object goes through it.

Each span records its name, start, end, parent span and transaction id.
Spans nest on one stack (the benchmark is single-threaded); a span's self
time is its duration minus the time its child spans cover. Per-name
totals are aggregated as spans close, and the first ``KEEP`` spans are
kept verbatim so they can be written out when the run ends.
"""

import json
import time

perf_counter = time.perf_counter

#: spans kept verbatim for the span dump (totals cover every span)
KEEP = 20000

#: index point operations timed as ``storage.index``.
INDEX_METHODS = ("get_record", "get_row", "insert", "update", "logical_delete")

#: Database statement methods timed as ``core.<method>``.
CORE_METHODS = ("insert", "update", "delete", "read", "scan")

#: ShardedDatabase facade methods timed as ``dist.<method>``.
DIST_METHODS = ("begin", "read", "update", "commit", "abort")


class SpanRecorder:
    """Collects spans and per-name totals across a run's traced rounds."""

    def __init__(self):
        self.kept = []  # (span_id, name, start, end, parent_id, txn_id)
        #: name -> [count, total seconds, self seconds]
        self.totals = {}
        #: layer -> self seconds
        self.layer_self = {}
        #: (parent name, child name) -> [count, seconds]
        self.nested = {}
        #: free-form counts gathered at the same boundaries
        self.counts = {}
        #: transaction tag for spans opened outside any engine call that
        #: names its transaction (the closed-loop client sets it)
        self.txn = None
        self._stack = []  # open spans: [span_id, name, start, child, txn]
        self._next_id = 1

    # ------------------------------------------------------------------

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, name):
        """True while a span called ``name`` is open."""
        return any(frame[1] == name for frame in self._stack)

    def wrap(self, owner, attr, name, layer, on_result=None):
        """Shadow ``owner.attr`` with a span-recording wrapper.

        ``name`` is a string or a callable taking the call's arguments;
        ``on_result(result, args)`` sees each return value. Wrapping an
        attribute that is already wrapped is a no-op, so re-installing
        after a recovery only reaches the objects recovery replaced.
        """
        fn = getattr(owner, attr)
        if getattr(fn, "_span_layer", None) is not None:
            return
        stack = self._stack
        totals = self.totals
        layer_self = self.layer_self
        nested = self.nested
        kept = self.kept
        dynamic = callable(name)

        def wrapper(*args, **kwargs):
            span_name = name(args) if dynamic else name
            if stack:
                parent = stack[-1]
                parent_id, txn = parent[0], parent[4]
            else:
                parent_id = None
                txn = getattr(args[0], "txn_id", None) if args else None
                if txn is None:
                    txn = self.txn
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, span_name, perf_counter(), 0.0, txn]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                own = duration - frame[3]
                if stack:
                    parent = stack[-1]
                    parent[3] += duration
                    pair = nested.get((parent[1], span_name))
                    if pair is None:
                        pair = nested[(parent[1], span_name)] = [0, 0.0]
                    pair[0] += 1
                    pair[1] += duration
                entry = totals.get(span_name)
                if entry is None:
                    entry = totals[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += own
                layer_self[layer] = layer_self.get(layer, 0.0) + own
                if len(kept) < KEEP:
                    kept.append(
                        (span_id, span_name, frame[2], end, parent_id, txn)
                    )
            if on_result is not None:
                on_result(result, args)
            return result

        wrapper._span_layer = layer
        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------

    def mean_us(self, name, field=1):
        """Mean duration (``field=1``) or self time (``field=2``) of one
        span name in microseconds; 0.0 when it never ran."""
        entry = self.totals.get(name)
        if not entry or not entry[0]:
            return 0.0
        return 1e6 * entry[field] / entry[0]

    def calls(self, name):
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    def total_s(self, name, field=1):
        entry = self.totals.get(name)
        return entry[field] if entry else 0.0

    def children(self, parent, child=None):
        """Calls and seconds of the spans directly inside ``parent``
        spans (only those named ``child``, when given)."""
        calls = seconds = 0
        for (outer, inner), (count, duration) in self.nested.items():
            if outer == parent and child in (None, inner):
                calls += count
                seconds += duration
        return calls, seconds

    def write(self, path):
        """Write the kept spans as JSON lines."""
        with open(path, "w") as out:
            for span_id, name, start, end, parent, txn in self.kept:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "txn": txn,
                }) + "\n")


# ----------------------------------------------------------------------
# installing spans on engine objects
# ----------------------------------------------------------------------


#: counters of the components a recovery replaces (lock manager, buffer
#: pool); the log and its counters survive recovery.
VOLATILE = ("lock.requests", "lock.waits", "lock.deadlocks", "pool.hits",
            "pool.misses", "pool.evictions")


def engine_counters(db):
    """The engine's own counters at the layer boundaries."""
    stats = db.stats()
    pool = stats["storage"]["pool"]
    lock = stats["lock"]
    wal = stats["wal"]
    return {
        "lock.requests": lock["requests"],
        "lock.waits": lock["waits"],
        "lock.deadlocks": lock["deadlocks"],
        "pool.hits": pool["hits"],
        "pool.misses": pool["misses"],
        "pool.evictions": pool["evictions"],
        "wal.records": wal["records"],
        "wal.bytes": wal["bytes"],
        "wal.flushes": wal["flushes"],
    }


def layer_counters(rec, dbs):
    """Engine counters summed over ``dbs``, plus the volatile counters
    banked from components that recoveries discarded."""
    total = {}
    for db in dbs:
        for key, value in engine_counters(db).items():
            total[key] = total.get(key, 0) + value
    for key in VOLATILE:
        total[key] += rec.counts.get("retired." + key, 0)
    return total


def delta(before, after):
    return {key: after[key] - before[key] for key in after}


def install_engine(rec, db):
    """Span every layer entry point of one :class:`Database`.

    Call again after a recovery: it rebuilds the lock manager, the
    buffer pool's page mirror and every index, and only those new
    objects are wrapped (the rest already are).
    """
    rec.wrap(db, "execute", "sql.execute", "sql", on_result=_sql_result(rec))
    for method in CORE_METHODS:
        rec.wrap(
            db, method, "core." + method, "core",
            on_result=_scan_rows(rec) if method == "scan" else None,
        )
    rec.wrap(db, "commit", "txn.commit", "txn")
    rec.wrap(db, "abort", "txn.abort", "txn")
    rec.wrap(
        db.maintenance, "compile", "views.compile", "views",
        on_result=lambda actions, _args: rec.count(
            "views.actions", len(actions)
        ),
    )
    rec.wrap(db.locks, "request", "locking.request", "locking")
    rec.wrap(db.locks, "release_all", "locking.release", "locking")
    rec.wrap(db.log, "append", "wal.append", "wal")
    rec.wrap(db.log, "flush", "wal.flush", "wal")
    rec.wrap(db.log, "record_at", "wal.record_at", "wal")
    rec.wrap(db.log, "append_listener", "storage.page_apply", "storage")
    for index_name in db.index_names():
        index = db.index(index_name)
        for method in INDEX_METHODS:
            rec.wrap(index, method, "storage.index", "storage")
    _wrap_recovery(rec, db)


def _wrap_recovery(rec, db):
    """Time recoveries as ``wal.recover``; before each, bank the counters
    of the components it is about to discard, and after it, span the
    replacements."""
    if getattr(db.simulate_crash_and_recover, "_span_layer", None):
        return
    recover = db.simulate_crash_and_recover

    def banked_recover():
        counters = engine_counters(db)
        for key in VOLATILE:
            rec.count("retired." + key, counters[key])
        report = recover()
        install_engine(rec, db)
        return report

    db.simulate_crash_and_recover = banked_recover
    rec.wrap(db, "simulate_crash_and_recover", "wal.recover", "wal")


def _sql_result(rec):
    def observe(result, _args):
        # DML returns its affected-row count, SELECT its rows.
        rec.count(
            "sql.rows_out", result if isinstance(result, int) else len(result)
        )

    return observe


def _scan_rows(rec):
    def observe(rows, _args):
        if rec.inside("sql.execute"):
            rec.count("sql.rows_examined", len(rows))

    return observe


def install_sharded(rec, sharded):
    """Span the sharded facade, its transport, and every partition."""
    for method in DIST_METHODS:
        rec.wrap(sharded, method, "dist." + method, "dist")
    rec.wrap(sharded, "recover_partition", "dist.recover", "dist")
    rec.wrap(
        sharded.net, "request", lambda args: "dist.net." + args[1], "dist"
    )
    for pid in range(sharded.partitions):
        install_engine(rec, sharded.partition(pid))


def install_scheduler(rec, scheduler):
    """Span the simulator's open-loop driver; its self time is the
    scheduler's own work between the engine calls it makes."""
    rec.wrap(scheduler, "run_open", "sim.run_open", "sim")
