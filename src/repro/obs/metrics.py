"""Metric primitives and per-transaction metric aggregation.

:class:`Counters`, :class:`Histogram` and :func:`format_table` are the
primitives the engine, the simulator and the benchmark reports share.

:class:`EngineMetrics` owns one :class:`Histogram` per per-transaction
quantity. The transaction manager feeds it at every commit and abort;
the simulator feeds lock-wait durations (only it knows how long a
parked session actually slept). Everything it records is in **logical
clock ticks** and estimated log bytes — the same units the benchmarks
report.
"""


class Counters:
    """A bag of named monotonically increasing counters."""

    def __init__(self):
        self._values = {}

    def incr(self, name, amount=1):
        self._values[name] = self._values.get(name, 0) + amount

    def get(self, name):
        return self._values.get(name, 0)

    def as_dict(self):
        return dict(sorted(self._values.items()))

    def reset(self):
        self._values.clear()

    def __repr__(self):
        return f"Counters({self.as_dict()!r})"


class Histogram:
    """A tiny histogram for wait times / hold times: tracks count, sum,
    min, max; percentile estimates come from a bounded sample."""

    def __init__(self, sample_limit=10000):
        self.count = 0
        self.total = 0
        self.min_value = None
        self.max_value = None
        self._sample = []
        self._sample_limit = sample_limit

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value
        if len(self._sample) < self._sample_limit:
            self._sample.append(value)

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def percentile(self, p):
        """Approximate percentile from the retained sample (p in [0,100])."""
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        idx = min(len(ordered) - 1, int(round((p / 100.0) * (len(ordered) - 1))))
        return ordered[idx]

    def as_dict(self):
        # Guard on count, not truthiness: a histogram whose only observed
        # value is 0 (or 0.0) must report it, while an empty histogram
        # reports None rather than a fabricated 0.
        return {
            "count": self.count,
            "mean": self.mean(),
            "min": self.min_value if self.count else None,
            "max": self.max_value if self.count else None,
            "p50": self.percentile(50) if self.count else None,
            "p95": self.percentile(95) if self.count else None,
        }


def format_table(headers, rows, title=None):
    """Render an aligned text table (benchmarks print these).

    ``rows`` is a list of sequences; values are str()'d. Numbers are
    right-aligned, text left-aligned.
    """
    rendered = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for original, row in zip(rows, rendered):
        cells = []
        for i, cell in enumerate(row):
            if isinstance(original[i], (int, float)) and not isinstance(
                original[i], bool
            ):
                cells.append(cell.rjust(widths[i]))
            else:
                cells.append(cell.ljust(widths[i]))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


class EngineMetrics:
    """Histograms over completed transactions, surfaced by
    ``Database.stats()["per_txn"]``."""

    def __init__(self):
        self.txn_latency = Histogram()  # begin -> commit, ticks
        self.lock_wait = Histogram()  # per parked wait, ticks
        self.log_bytes = Histogram()  # per committed txn
        self.actions = Histogram()  # actions executed per committed txn

    def observe_commit(self, latency, log_bytes, actions):
        self.txn_latency.observe(latency)
        self.log_bytes.observe(log_bytes)
        self.actions.observe(actions)

    def observe_lock_wait(self, ticks):
        self.lock_wait.observe(ticks)

    def as_dict(self):
        return {
            "latency": self.txn_latency.as_dict(),
            "lock_wait": self.lock_wait.as_dict(),
            "log_bytes": self.log_bytes.as_dict(),
            "actions": self.actions.as_dict(),
        }


class RetryStats:
    """Automatic-retry accounting (``Database.run_transaction`` /
    ``Session.run``), surfaced by ``Database.stats()["retries"]``.

    One *run* is one call to ``run_transaction``; ``attempts`` counts
    transaction executions per run (1 = committed first try), and
    ``backoff`` collects the per-retry backoff sleeps in ticks.
    """

    def __init__(self):
        self.runs = 0
        self.retried = 0  # runs that needed more than one attempt
        self.gave_up = 0  # runs that exhausted their retry budget
        self.attempts = Histogram()
        self.backoff = Histogram()

    def observe_run(self, attempts, success):
        self.runs += 1
        self.attempts.observe(attempts)
        if attempts > 1:
            self.retried += 1
        if not success:
            self.gave_up += 1

    def observe_backoff(self, ticks):
        self.backoff.observe(ticks)

    def as_dict(self):
        return {
            "runs": self.runs,
            "retried": self.retried,
            "gave_up": self.gave_up,
            "attempts": self.attempts.as_dict(),
            "backoff": self.backoff.as_dict(),
        }
