"""Operational introspection: what is the engine doing right now?

Production engines live or die by their observability. This module
renders the lock table, the waits-for graph, per-transaction summaries,
and a whole-engine health report as plain data structures and formatted
text — the `sys.dm_tran_locks` / `sp_who2` of this reproduction. Used by
tests, handy in a REPL, and printable from examples.
"""

from repro.obs.metrics import format_table


def lock_table(db):
    """Every currently locked resource: holders (with modes) and waiters.

    Returns a list of dicts sorted by resource repr.
    """
    rows = []
    for resource in sorted(db.locks.active_resources(), key=repr):
        holders = db.locks.holders(resource)
        waiters = db.locks.waiters(resource)
        rows.append(
            {
                "resource": resource,
                "holders": {t: repr(m) for t, m in sorted(holders.items())},
                "waiters": [(w.txn_id, repr(w.mode)) for w in waiters],
            }
        )
    return rows


def waits_for_edges(db):
    """The waits-for graph as (waiter, blocker) pairs."""
    edges = []
    for resource in db.locks.active_resources():
        for waiter in db.locks.waiters(resource):
            for blocker in sorted(db.locks._blockers_of(waiter.txn_id)):
                edges.append((waiter.txn_id, blocker))
    return sorted(set(edges))


def wait_graph_snapshot(db):
    """A self-contained snapshot of who waits on whom, right now.

    Returns ``{"edges": [(waiter, blocker), ...], "waiters": [...]}``
    where each waiter entry names the contested resource and requested
    mode — enough to reconstruct (and render) the live waits-for graph
    without touching the lock manager again.
    """
    waiters = []
    for resource in sorted(db.locks.active_resources(), key=repr):
        for request in db.locks.waiters(resource):
            waiters.append(
                {
                    "txn_id": request.txn_id,
                    "resource": resource,
                    "mode": repr(request.mode),
                    "blocked_by": sorted(db.locks._blockers_of(request.txn_id)),
                }
            )
    return {"edges": waits_for_edges(db), "waiters": waiters}


def trace_tail(db, n=20, **filters):
    """The newest ``n`` buffered tracer events (oldest first), optionally
    filtered like :meth:`~repro.obs.tracer.Tracer.events`."""
    return db.tracer.events(**filters)[-n:]


def transaction_report(db):
    """One dict per active transaction: state, locks held, waiting on."""
    report = []
    for txn in sorted(db.active_transactions(), key=lambda t: t.txn_id):
        locks = db.locks.locks_of(txn.txn_id)
        report.append(
            {
                "txn_id": txn.txn_id,
                "state": txn.state.value,
                "is_system": txn.is_system,
                "isolation": txn.isolation,
                "read_ts": txn.read_ts,
                "locks_held": len(locks),
                "waiting_on": db.locks.waiting_for(txn.txn_id),
                "escrow_accounts_touched": len(txn.escrow_touched),
                "stats": txn.stats.as_dict(),
            }
        )
    return report


def storage_report(db):
    """Per-index occupancy: live rows, ghosts, versions retained."""
    rows = []
    for name in db.index_names():
        index = db.index(name)
        versions = sum(
            record.version_count()
            for _, record in index.scan(include_ghosts=True)
        )
        rows.append(
            {
                "index": name,
                "live": len(index),
                "ghosts": index.ghost_count(),
                "versions": versions,
            }
        )
    return rows


def health_report(db):
    """A single nested dict summarizing engine state."""
    return {
        "clock": db.clock.now(),
        "log_records": len(db.log),
        "log_bytes": db.log.bytes_estimate,
        "flushed_lsn": db.log.flushed_lsn,
        "active_transactions": len(db.active_transactions()),
        "active_snapshots": db.snapshots.active_count(),
        "snapshot_horizon": db.snapshots.horizon(),
        "cleanup_backlog": len(db.cleanup),
        "lock_stats": db.locks.stats.as_dict(),
        "latch_acquisitions": db.latches.total_acquisitions(),
        "escalations": db.escalation.escalations,
        "committed": db.committed_count,
        "aborted": db.aborted_count,
        "counters": db.counters.as_dict(),
    }


def hot_resources(db, top_n=10):
    """The most contended lock resources (cumulative wait counts) — the
    hot-spot report that motivates escrow locking in the first place."""
    ranked = sorted(
        db.locks.contention.items(), key=lambda item: (-item[1], repr(item[0]))
    )
    return ranked[:top_n]


def render_hot_resources(db, top_n=10):
    rows = [[repr(resource), waits] for resource, waits in hot_resources(db, top_n)]
    return format_table(["resource", "waits"], rows, title="hottest lock resources")


def render_lock_table(db):
    """The lock table as an aligned text block."""
    rows = []
    for entry in lock_table(db):
        holder_text = ", ".join(
            f"txn{t}:{m}" for t, m in entry["holders"].items()
        )
        waiter_text = ", ".join(f"txn{t}:{m}" for t, m in entry["waiters"])
        rows.append([repr(entry["resource"]), holder_text, waiter_text or "-"])
    return format_table(
        ["resource", "granted", "waiting"], rows, title="lock table"
    )


def render_transactions(db):
    rows = [
        [
            r["txn_id"],
            r["state"],
            "sys" if r["is_system"] else "user",
            r["isolation"],
            r["locks_held"],
            repr(r["waiting_on"]) if r["waiting_on"] else "-",
        ]
        for r in transaction_report(db)
    ]
    return format_table(
        ["txn", "state", "kind", "isolation", "locks", "waiting on"],
        rows,
        title="active transactions",
    )
