"""What every workload records, and the statistics the report uses."""

import math
import statistics
import time

from repro.api import parse

perf_counter = time.perf_counter

#: What the host-speed probe takes on an unloaded host, in microseconds.
PROBE_REFERENCE_US = 100.0
#: Seconds between host-speed probes while a round runs.
PROBE_EVERY_S = 0.05


def _probe_work():
    """A fixed piece of pure-Python work, none of it engine code: tuple
    keyed dict lookups, small row dicts updated, then sorted, as the
    engine's own code does."""
    table = {}
    for i in range(250):
        key = ("sales", i % 97)
        row = table.get(key)
        if row is None:
            table[key] = row = {"product": i % 7, "amount": 0}
        row["amount"] += i
    rows = sorted(table.values(), key=lambda r: (r["product"], r["amount"]))
    return sum(r["amount"] for r in rows if r["product"] != 3)


class HostProbe:
    """How fast the host runs Python while a round runs.

    On a shared host the speed of a core swings with other tenants' load
    for tens of seconds at a time, by as much as two to one, and every
    time the engine takes swings with it. The probe times a fixed piece
    of work that is not engine code every ``PROBE_EVERY_S`` seconds,
    between transactions; :meth:`scale` turns the round's times into
    times on a host where the probe takes ``PROBE_REFERENCE_US``.
    """

    def __init__(self):
        self.times = []
        self._due = 0.0

    def sample(self, n=1):
        for _ in range(n):
            start = perf_counter()
            _probe_work()
            self.times.append(perf_counter() - start)
        self._due = perf_counter() + PROBE_EVERY_S

    def tick(self):
        """Probe if it is time to; call between timed events."""
        if perf_counter() >= self._due:
            self.sample()

    def scale(self):
        return PROBE_REFERENCE_US / (1e6 * statistics.median(self.times))


class Tally:
    """Everything one benchmark run accumulates across its rounds.

    A round is one fresh engine running a fixed, seeded amount of work;
    a run repeats rounds until its time is up. Abort and recovery times
    depend on the history a round has logged, and that history is the
    same however fast the engine is.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.committed = 0
        self.txn_seconds = 0.0  # wall time inside transactions
        self.recover_seconds = 0.0  # wall time inside recoveries
        self.setup_s = []
        self.commit_us = []
        self.twopc_us = []
        #: rollback microseconds per undone log record, one list per
        #: round in order of occurrence
        self.abort_us = []
        self.recover_ms = []  # one list per round, in order of occurrence
        self.recover_analyzed = []
        self.recover_redone = []
        self.sim_resp_p50 = []
        self.sim_resp_p95 = []
        self.sim_outcomes = []  # per round, for the determinism check
        self.counts = {}  # per-layer counters summed over traced rounds
        self.problems = []  # failed correctness checks
        self.errors = []  # unplanned errors, counted in ``failed``
        self.probe = HostProbe()
        #: the scale of each absorbed round (see :class:`HostProbe`)
        self.host_scales = []

    def absorb(self, round_tally, scaled=True):
        """Add one round, recorded in a tally of its own, with every time
        scaled by the round's :meth:`HostProbe.scale` (unless not
        ``scaled``)."""
        r = round_tally
        scale = r.probe.scale() if scaled else 1.0
        self.host_scales.append(scale)
        self.problems.extend(r.problems)
        self.errors.extend(r.errors)
        self.attempted += r.attempted
        self.failed += r.failed
        self.committed += r.committed
        self.txn_seconds += scale * r.txn_seconds
        self.recover_seconds += scale * r.recover_seconds
        self.setup_s.extend(scale * x for x in r.setup_s)
        self.commit_us.extend(scale * x for x in r.commit_us)
        self.twopc_us.extend(scale * x for x in r.twopc_us)
        for mine, theirs in ((self.abort_us, r.abort_us),
                             (self.recover_ms, r.recover_ms)):
            mine.extend([scale * x for x in series] for series in theirs)
        self.recover_analyzed.extend(r.recover_analyzed)
        self.recover_redone.extend(r.recover_redone)
        self.sim_resp_p50.extend(r.sim_resp_p50)
        self.sim_resp_p95.extend(r.sim_resp_p95)
        self.sim_outcomes.extend(r.sim_outcomes)
        self.add_counts(r.counts)

    def check(self, ok, message):
        if not ok:
            self.problems.append(message)

    def unplanned(self, workload, exc):
        self.failed += 1
        self.errors.append(f"{workload}: unplanned {exc!r}")

    def add_counts(self, deltas):
        for key, value in deltas.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def aborted(self, series, seconds, undone):
        """Record one rollback that undid ``undone`` log records (it
        wrote one compensation record for each). A rollback that undid
        nothing has no per-record cost and is left out."""
        if undone > 0:
            series.append(1e6 * seconds / undone)

    def recovered(self, report, seconds, series):
        self.recover_seconds += seconds
        series.append(1e3 * seconds)
        self.recover_analyzed.append(report.analyzed_records)
        self.recover_redone.append(report.redo_count)


def percentile(values, p):
    """Nearest-rank percentile of ``values`` (p in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def history_ratio(rounds):
    """Median of the last quarter of every round's series over the median
    of the first quarter, both pooled across rounds: how much a cost grew
    with the history a round accumulated. 0.0 when no round has two
    measurements."""
    first, last = [], []
    for series in rounds:
        if len(series) >= 2:
            quarter = max(1, len(series) // 4)
            first.extend(series[:quarter])
            last.extend(series[-quarter:])
    if not first:
        return 0.0
    return statistics.median(last) / statistics.median(first)


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def timed_parse(rec, text):
    """Time :func:`repro.api.parse` on one statement text (traced rounds
    only; the engine parses the text again inside ``execute``)."""
    if rec is None:
        return
    start = perf_counter()
    parse(text)
    rec.count("sql.parse_s", perf_counter() - start)
    rec.count("sql.parses")
