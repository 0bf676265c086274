"""The deterministic discrete-event concurrency simulator.

Python's GIL makes thread-based lock-contention measurements meaningless,
so the evaluation runs on simulated time (see DESIGN.md's substitution
table). Transactions are **generator programs** yielding operation
tuples::

    def my_txn():
        yield ("insert", "sales", {"id": 7, "product": "ant", "amount": 3})
        yield ("think", 5)
        yield ("read", "by_product", ("ant",))
        # returning commits

**Timing model.** Each session (multiprogramming slot) owns a virtual
processor: its operations cost ticks on its *own* timeline, so N sessions
genuinely overlap — the only cross-session serialization is lock waits.
The scheduler is event-driven: it always executes the runnable session
with the earliest ``ready_at``, and a parked session resumes at the
completion time of the event that granted its lock. Makespan (the largest
session completion time) is the run's elapsed time; throughput =
commits / makespan. Under this model an exclusively locked hot row
serializes every writer (makespan ≈ sum of hold times) while escrow
writers overlap (makespan ≈ the longest single session) — exactly the
contrast the paper's evaluation is about.

Suspension points are **lock waits only**: the engine raises
:class:`~repro.txn.transaction.WouldWait`, the scheduler parks the session
and re-runs the same operation when the lock is granted (the engine's
lock-first/mutate-second discipline makes re-runs safe). Deadlock victims
and other aborts roll back and restart the program from scratch, up to a
retry budget. Identical inputs give identical runs, tick for tick.
"""

from repro.common import DeterministicRng, ReproError, StorageError, TransactionAborted
from repro.obs.metrics import Counters, Histogram
from repro.txn import LockPolicy, WouldWait


class CostModel:
    """Simulated ticks charged per operation (on the session's timeline)."""

    def __init__(self, read=1, write=2, scan_row=1, commit=5, begin=1, abort=3,
                 flush=0):
        self.read = read
        self.write = write
        self.scan_row = scan_row
        self.commit = commit
        self.begin = begin
        self.abort = abort
        # Ticks charged to the session that performs a WAL flush at its
        # commit: every committer without group commit, only the group's
        # flush leader with it. The default 0 keeps historical benchmark
        # timings; bench_r16 sets it to expose the batching win.
        self.flush = flush

    def cost_of(self, op, result=None):
        kind = op[0]
        if kind in ("insert", "update", "delete"):
            return self.write
        if kind in ("read", "read_exact"):
            return self.read
        if kind == "scan":
            rows = len(result) if result is not None else 1
            return max(1, self.scan_row * rows)
        if kind == "think":
            return op[1]
        return 1


class _Session:
    """One multiprogramming slot: runs programs back to back."""

    __slots__ = (
        "session_id",
        "program_factory",
        "remaining",
        "generator",
        "txn",
        "pending_op",
        "state",
        "ready_at",
        "wait_started",
        "retries_left",
        "isolation",
        "arrival",
        "_request",
        "_ticket",
    )

    def __init__(self, session_id, program_factory, txns, retries, isolation):
        self.session_id = session_id
        self.program_factory = program_factory
        self.remaining = txns
        self.generator = None
        self.txn = None
        self.pending_op = None
        # runnable | waiting | committing | durable_wait | done
        self.state = "runnable"
        self.ready_at = 0
        self.wait_started = None
        self.retries_left = retries
        self.isolation = isolation
        self.arrival = None  # set in open-system mode
        self._request = None
        self._ticket = None  # CommitTicket while parked in durable_wait


class SimResult:
    """Everything a benchmark wants to know about one simulation run."""

    def __init__(self):
        self.ticks = 0
        self.committed = 0
        self.aborted = Counters()
        self.retries = 0
        self.gave_up = 0
        self.wait_time = Histogram()
        self.response_time = Histogram()  # open-system mode only
        self.lock_stats = {}
        self.db_stats = {}

    def throughput(self):
        """Committed transactions per 1000 simulated ticks of makespan."""
        return 1000.0 * self.committed / self.ticks if self.ticks else 0.0

    def abort_rate(self):
        total_aborts = sum(self.aborted.as_dict().values())
        attempts = self.committed + total_aborts
        return total_aborts / attempts if attempts else 0.0

    def as_dict(self):
        return {
            "ticks": self.ticks,
            "committed": self.committed,
            "aborted": self.aborted.as_dict(),
            "retries": self.retries,
            "gave_up": self.gave_up,
            "throughput_per_kilotick": self.throughput(),
            "mean_wait": self.wait_time.mean(),
            "lock_stats": self.lock_stats,
        }


class Scheduler:
    """Event-driven scheduler over one Database."""

    def __init__(self, db, cost_model=None, max_retries=20,
                 cleanup_interval=None, isolation="serializable",
                 custom_executor=None):
        self._db = db
        self._costs = cost_model or CostModel()
        self._max_retries = max_retries
        self._cleanup_interval = cleanup_interval
        self._default_isolation = isolation
        self._custom_executor = custom_executor
        self._sessions = []
        self._waiters = {}  # txn_id -> session
        self._durable_waiters = []  # sessions blocked on a commit group
        self._last_completion = 0

    def add_session(self, program_factory, txns=1, isolation=None):
        """Add one multiprogramming slot running ``txns`` instances of
        ``program_factory`` (a zero-argument callable returning a fresh
        operation generator) back to back."""
        session = _Session(
            len(self._sessions),
            program_factory,
            txns,
            self._max_retries,
            isolation or self._default_isolation,
        )
        self._sessions.append(session)
        return session

    # ------------------------------------------------------------------

    def run(self, max_ticks=None):
        """Run until every session finished (or ``max_ticks`` of makespan
        elapsed). Returns a :class:`SimResult`."""
        db = self._db
        result = SimResult()
        start_tick = db.clock.now()
        for session in self._sessions:
            session.ready_at = start_tick
        self._last_completion = start_tick
        last_cleanup = start_tick
        stall_guard = 0
        while True:
            self._wake_ready(result)
            runnable = [s for s in self._sessions if s.state == "runnable"]
            if self._fire_deadlines(runnable):
                stall_guard = 0
                continue
            if not runnable:
                if all(s.state == "done" for s in self._sessions):
                    break
                if self._durable_waiters and db.flush_group_commit():
                    # Quiescence with a partial commit group open (e.g.
                    # the size bound will never fill): force it out so
                    # the blocked committers resolve.
                    stall_guard = 0
                    continue
                stall_guard += 1
                if stall_guard > len(self._sessions) + 2:
                    raise ReproError(
                        "scheduler stall: every session waiting, none wakeable; "
                        + repr([(s.session_id, s.state) for s in self._sessions])
                    )
                continue
            stall_guard = 0
            session = min(runnable, key=lambda s: (s.ready_at, s.session_id))
            if max_ticks is not None and session.ready_at - start_tick >= max_ticks:
                break
            db.clock.advance_to(session.ready_at)
            self._step(session, result)
            if (
                self._cleanup_interval is not None
                and db.clock.now() - last_cleanup >= self._cleanup_interval
            ):
                db.run_ghost_cleanup()
                last_cleanup = db.clock.now()
        makespan_end = max(
            [self._last_completion] + [s.ready_at for s in self._sessions]
        )
        db.clock.advance_to(makespan_end)
        result.ticks = makespan_end - start_tick
        result.lock_stats = db.locks.stats.as_dict()
        result.db_stats = db.counters.as_dict()
        return result

    def run_open(self, program_factory, arrival_rate, duration, seed=0,
                 isolation=None):
        """Open-system mode: transactions *arrive* (Poisson process at
        ``arrival_rate`` per tick) instead of being re-issued by a fixed
        session pool, for ``duration`` ticks of arrivals.

        Each arrival runs one instance of ``program_factory`` on its own
        virtual processor; its **response time** (arrival to commit,
        including lock waits and retries) lands in
        ``result.response_time``. This is the load/latency view of the
        same engine the closed-system ``run`` measures for throughput.
        """
        rng = DeterministicRng(seed)
        db = self._db
        result = SimResult()
        start_tick = db.clock.now()
        self._last_completion = start_tick
        # Pre-draw the deterministic arrival schedule.
        arrivals = []
        t = start_tick
        while True:
            t += max(1, round(rng.expovariate(arrival_rate)))
            if t - start_tick >= duration:
                break
            arrivals.append(t)
        next_arrival = 0
        stall_guard = 0
        while True:
            self._wake_ready(result)
            runnable = [s for s in self._sessions if s.state == "runnable"]
            next_runnable = min(
                (s.ready_at for s in runnable), default=None
            )
            if self._fire_deadlines(
                runnable,
                horizon=arrivals[next_arrival]
                if next_arrival < len(arrivals) else None,
            ):
                stall_guard = 0
                continue
            if next_arrival < len(arrivals) and (
                next_runnable is None or arrivals[next_arrival] <= next_runnable
            ):
                session = _Session(
                    len(self._sessions),
                    program_factory,
                    1,
                    self._max_retries,
                    isolation or self._default_isolation,
                )
                session.arrival = arrivals[next_arrival]
                session.ready_at = arrivals[next_arrival]
                self._sessions.append(session)
                next_arrival += 1
                continue
            if not runnable:
                if all(s.state == "done" for s in self._sessions) and (
                    next_arrival >= len(arrivals)
                ):
                    break
                if self._durable_waiters and db.flush_group_commit():
                    stall_guard = 0
                    continue
                stall_guard += 1
                if stall_guard > len(self._sessions) + 2:
                    raise ReproError("open-system scheduler stall")
                continue
            stall_guard = 0
            session = min(runnable, key=lambda s: (s.ready_at, s.session_id))
            db.clock.advance_to(session.ready_at)
            self._step(session, result)
        makespan_end = max(
            [self._last_completion] + [s.ready_at for s in self._sessions]
        )
        db.clock.advance_to(makespan_end)
        result.ticks = makespan_end - start_tick
        result.lock_stats = db.locks.stats.as_dict()
        result.db_stats = db.counters.as_dict()
        return result

    # ------------------------------------------------------------------

    def _fire_deadlines(self, runnable, horizon=None):
        """Treat the earliest pending deadline — a lock wait timeout, an
        injected grant delay, or a latency-bound commit group's flush
        deadline — as a discrete event: if it precedes every runnable
        session (and ``horizon``, when given), advance the clock to it
        and let the owning component resolve whatever expired. Returns
        True when one fired (the caller restarts its loop)."""
        db = self._db
        lock_deadline = db.locks.next_deadline()
        group_deadline = db.group_commit_deadline()
        deadlines = [
            d for d in (lock_deadline, group_deadline) if d is not None
        ]
        if not deadlines:
            return False
        deadline = min(deadlines)
        next_runnable = min((s.ready_at for s in runnable), default=None)
        if next_runnable is not None and next_runnable <= deadline:
            return False
        if horizon is not None and horizon <= deadline:
            return False
        db.clock.advance_to(deadline)
        if lock_deadline is not None and lock_deadline <= deadline:
            db.locks.poll(db.clock.now())
        if group_deadline is not None and group_deadline <= deadline:
            db.poll_group_commit()
        return True

    def _wake_ready(self, result):
        """Move sessions whose lock request resolved back to runnable.

        A woken session resumes no earlier than the completion time of
        the event that released the lock (or, for a timed-out / injected
        delay resolution, the simulated time it resolved at)."""
        for txn_id, session in list(self._waiters.items()):
            request = session._request
            if request is None or request.status.value != "waiting":
                del self._waiters[txn_id]
                session.state = "runnable"
                resume_floor = self._last_completion
                if request is not None and request.resolved_at is not None:
                    resume_floor = request.resolved_at
                session.ready_at = max(session.ready_at, resume_floor)
                if session.wait_started is not None:
                    waited = session.ready_at - session.wait_started
                    result.wait_time.observe(waited)
                    self._db.metrics.observe_lock_wait(waited)
                    session.wait_started = None
        if self._durable_waiters:
            self._resolve_durable_waiters(result)

    def _resolve_durable_waiters(self, result):
        """Sessions parked in ``durable_wait`` block on their commit
        group's flush, not on the lock table. A durable ticket completes
        the program (the commit was already visible); a retracted or lost
        ticket means recovery rolled the member back, so the program
        retries like any aborted transaction."""
        still_waiting = []
        for session in self._durable_waiters:
            ticket = session._ticket
            if ticket.state == "pending":
                still_waiting.append(session)
                continue
            session._ticket = None
            resume = (
                ticket.resolved_at if ticket.resolved_at is not None
                else self._last_completion
            )
            session.ready_at = max(session.ready_at, resume)
            session.state = "runnable"
            if ticket.state == "durable":
                result.committed += 1
                if session.arrival is not None:
                    result.response_time.observe(
                        session.ready_at - session.arrival
                    )
                self._finish_program(session, success=True)
            else:  # retracted (group flush fault) or lost (crash)
                self._db.abort(session.txn, reason="group flush")
                self._charge(session, self._costs.abort)
                result.aborted.incr("group_flush")
                self._finish_program(session, success=False, result=result)
        self._durable_waiters = still_waiting

    def _charge(self, session, ticks):
        session.ready_at += ticks
        self._last_completion = max(self._last_completion, session.ready_at)

    def _step(self, session, result):
        db = self._db
        if session.generator is None:
            if session.remaining <= 0:
                session.state = "done"
                return
            session.generator = session.program_factory()
            session.txn = db.begin(
                policy=LockPolicy.COOPERATIVE, isolation=session.isolation
            )
            session.pending_op = None
            self._charge(session, self._costs.begin)
        try:
            if session._request is not None:
                request = session._request
                session._request = None
                if request.deny_error is not None:
                    # Chosen as a deadlock victim while parked.
                    raise request.deny_error
            if session.pending_op is None and session.state != "committing":
                try:
                    session.pending_op = next(session.generator)
                except StopIteration:
                    session.state = "committing"
            if session.state == "committing":
                db.commit(session.txn)
                self._charge(session, self._costs.commit)
                ticket = session.txn.commit_ticket
                if ticket is None:
                    # No group commit: the commit flushed inline.
                    self._charge(session, self._costs.flush)
                elif ticket.state == "pending":
                    # Commit-visible; durability pends on the group flush.
                    session.state = "durable_wait"
                    session._ticket = ticket
                    self._durable_waiters.append(session)
                    return
                elif ticket.leader and ticket.state == "durable":
                    # This committer filled the group and led its flush.
                    self._charge(session, self._costs.flush)
                result.committed += 1
                if session.arrival is not None:
                    result.response_time.observe(session.ready_at - session.arrival)
                self._finish_program(session, success=True)
                return
            op = session.pending_op
            outcome = self._execute(session.txn, op)
            self._charge(session, self._costs.cost_of(op, outcome))
            session.pending_op = None
        except WouldWait as wait:
            session.state = "waiting"
            session.wait_started = session.ready_at
            self._waiters[session.txn.txn_id] = session
            session._request = wait.request
        except TransactionAborted as aborted:
            db.abort(session.txn, reason=aborted.reason)
            self._charge(session, self._costs.abort)
            result.aborted.incr(aborted.reason.split()[0])
            self._finish_program(session, success=False, result=result)
        except StorageError:
            # A program raced another program's changes (e.g. the row it
            # targeted was deleted): abort and retry with fresh inputs.
            db.abort(session.txn, reason="storage race")
            self._charge(session, self._costs.abort)
            result.aborted.incr("storage")
            self._finish_program(session, success=False, result=result)

    def _execute(self, txn, op):
        db = self._db
        kind = op[0]
        if self._custom_executor is not None and self._custom_executor(txn, op):
            return None
        if kind == "insert":
            return db.insert(txn, op[1], op[2])
        if kind == "update":
            return db.update(txn, op[1], op[2], op[3])
        if kind == "delete":
            return db.delete(txn, op[1], op[2])
        if kind == "read":
            return db.read(txn, op[1], op[2])
        if kind == "read_exact":
            return db.read_exact(txn, op[1], op[2])
        if kind == "scan":
            return db.scan(txn, op[1], op[2] if len(op) > 2 else None)
        if kind == "think":
            return None
        raise ReproError(f"unknown op {op!r}")

    def _finish_program(self, session, success, result=None):
        session.generator = None
        session.txn = None
        session.pending_op = None
        session.state = "runnable"
        if success:
            session.remaining -= 1
            session.retries_left = self._max_retries
            if session.remaining <= 0:
                session.state = "done"
            return
        # failed: retry the same program unless the budget ran out
        if session.retries_left > 0:
            session.retries_left -= 1
            if result is not None:
                result.retries += 1
        else:
            session.remaining -= 1
            session.retries_left = self._max_retries
            if result is not None:
                result.gave_up += 1
            if session.remaining <= 0:
                session.state = "done"
