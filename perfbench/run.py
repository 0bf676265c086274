#!/usr/bin/env python3
"""The wall-clock benchmark: what this engine costs, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload sql_orders --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for sizes and why it was chosen):
``sql_orders`` (SQL text on one engine), ``sharded_bank`` (four-partition
fleet with two-phase commit, checkpoints and partition crashes) and
``hot_xlock`` (the simulator's open loop against an X-locked hot view).

A run repeats *rounds* while at least half of one still fits in
``--seconds`` (at least one). A round builds a fresh engine (its set-up
time is ``setup_s``) and runs a fixed, seeded amount of work; round
``r`` uses seed ``seed * 1000 + r``. Rounds too long to give
``MIN_SETUPS`` set-ups are followed by extra set-ups. The cyclic garbage
collector is paused inside a round and run between rounds. Each round's
outputs are checked against a client-side model and the engine's own
oracles; a failed check prints ``"correct": false`` and exits 1.

Every time the timed run reports is scaled to a host of fixed speed:
a shared host's cores run Python up to twice as fast at one time as at
another, for tens of seconds at a time, so each round also times a fixed
piece of pure-Python work between transactions, and its times are scaled
by that work's reference time over its median time in the round (see
``common.HostProbe``). The median scale is printed with the environment;
a time divided by it is about the time as measured.

``--trace 0`` reports the end-to-end metrics, measured with no spans
installed. ``--trace 1`` runs every round twice with the same seed,
untraced then traced, and reports the per-layer metrics from the traced
rounds (span self times and the engine's own counters), plus the tracing
overhead: traced over untraced committed transactions per second. The
traced run also writes its first spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the environment (Python version, CPU count, commit, seed and
mode).
"""

import argparse
import contextlib
import gc
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
PROBES = 5  # host-speed probes before and after each round
MIN_SETUPS = 7
perf_counter = time.perf_counter


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: no engine source at {ROOT / 'src'}; run it from "
                 "a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))

    from common import Tally
    from hot_xlock import HotXlock
    from sharded_bank import ShardedBank
    from spans import SpanRecorder
    from sql_orders import SqlOrders

    workloads = {
        "sql_orders": SqlOrders,
        "sharded_bank": ShardedBank,
        "hot_xlock": HotXlock,
    }
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads)}")
    workload = workloads[args.workload]

    untraced = Tally()
    traced = Tally() if args.trace else None
    rec = SpanRecorder() if args.trace else None
    # the traced run compares traced and untraced rounds unscaled, as the
    # span times are
    scaled = not args.trace
    if workload is HotXlock:
        # Untimed warm-up on round 0's inputs; the timed round 0 must
        # reproduce its simulated outcome exactly.
        warmup = run_round(workload, args.seed * 1000, None)
    start = perf_counter()
    rounds, elapsed = 0, 0.0
    # another round is started only while at least half of one fits
    while rounds == 0 or elapsed + 0.5 * elapsed / rounds < args.seconds:
        seed = args.seed * 1000 + rounds
        untraced.absorb(run_round(workload, seed, None), scaled)
        if args.trace:
            traced.absorb(run_round(workload, seed, rec), scaled)
        rounds += 1
        elapsed = perf_counter() - start
    # set-up is timed once per round; long rounds get extra set-ups so
    # that setup_s is a median of at least MIN_SETUPS
    for extra in range(0 if args.trace else MIN_SETUPS - rounds):
        seed = args.seed * 1000 + rounds + extra
        untraced.absorb(run_round(workload, seed, None, set_up_only=True))
    if workload is HotXlock:
        untraced.check(
            warmup.sim_outcomes[0] == untraced.sim_outcomes[0],
            "hot_xlock: round 0 is not deterministic: "
            f"{warmup.sim_outcomes[0]} then {untraced.sim_outcomes[0]}",
        )
    if args.trace:
        traced.check(
            traced.sim_outcomes == untraced.sim_outcomes,
            "hot_xlock: tracing changed the simulated outcome",
        )
        metrics = per_layer(rec, traced, untraced)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        rec.write(out / f"{args.workload}-seed{args.seed}.spans.jsonl")
    else:
        metrics = end_to_end(untraced)
    report(args, rounds, untraced, traced, metrics)


@contextlib.contextmanager
def gc_paused():
    """Pause the cyclic garbage collector, as ``timeit`` does, after a
    full collection: a collection otherwise lands on whichever operation
    happens to allocate when the threshold trips, which made the latency
    tails bimodal."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def set_up(workload, seed, tally):
    start = perf_counter()
    state = workload(seed)
    tally.setup_s.append(perf_counter() - start)
    return state


def run_round(workload, seed, rec, set_up_only=False):
    """Round ``seed`` (or only its set-up) in a tally of its own, with the
    host-speed probe sampled before and after."""
    from common import Tally

    tally = Tally()
    with gc_paused():
        tally.probe.sample(PROBES)
        state = set_up(workload, seed, tally)
        if not set_up_only:
            state.run(tally, rec)
        tally.probe.sample(PROBES)
    return tally


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def end_to_end(t):
    from common import percentile

    aborts = [x for series in t.abort_us for x in series]
    recoveries = [x for series in t.recover_ms for x in series]
    return {
        "setup_s": (statistics.median(t.setup_s), "s"),
        "txn_per_s": (t.committed / t.txn_seconds, "1/s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "ok_ratio": (1.0 - t.failed / t.attempted, "ratio"),
        "commit_p50_us": (percentile(t.commit_us, 50), "us"),
        "commit_p99_us": (percentile(t.commit_us, 99), "us"),
        "abort_p50_us_per_rec": (percentile(aborts, 50), "us"),
        "abort_p75_us_per_rec": (percentile(aborts, 75), "us"),
        "recover_p50_ms": (percentile(recoveries, 50), "ms"),
    }


def per_layer(rec, t, untraced):
    """Layer metrics from the traced rounds ``t``; the history ratios,
    the ratios between transaction classes and the simulator's logical
    results from the untraced rounds, which tracing must not change."""
    from common import history_ratio, median_or_zero, percentile

    wall = t.txn_seconds + t.recover_seconds
    counts = dict(t.counts)
    counts.update(rec.counts)

    def share(layer):
        return rec.layer_self.get(layer, 0.0) / wall

    def per_txn(key):
        return counts.get(key, 0) / t.attempted

    def ratio(num, den):
        return num / den if den else 0.0

    abort_calls = rec.calls("txn.abort")
    _, release_in_abort = rec.children("txn.abort", "locking.release")
    steps, _ = rec.children("sim.run_open")
    dist_net = [name for name in rec.totals if name.startswith("dist.net.")]
    layers = ("sql", "views", "locking", "storage", "wal", "txn", "core",
              "dist", "sim")
    metrics = {
        "sql.parse_us": (
            1e6 * ratio(counts.get("sql.parse_s", 0.0),
                        counts.get("sql.parses", 0)), "us"),
        "sql.rows_examined_per_row": (
            ratio(counts.get("sql.rows_examined", 0),
                  counts.get("sql.rows_out", 0)), "ratio"),
        "views.compile_us": (rec.mean_us("views.compile"), "us"),
        "views.actions_per_dml": (
            ratio(counts.get("views.actions", 0),
                  rec.calls("views.compile")), "count"),
        "locking.request_us": (rec.mean_us("locking.request"), "us"),
        "locking.requests_per_txn": (per_txn("lock.requests"), "count"),
        "locking.wait_ratio": (
            ratio(counts["lock.waits"], counts["lock.requests"]), "ratio"),
        "locking.deadlocks_per_txn": (per_txn("lock.deadlocks"), "count"),
        "locking.release_us": (rec.mean_us("locking.release"), "us"),
        "storage.page_apply_us": (rec.mean_us("storage.page_apply"), "us"),
        "storage.index_us": (rec.mean_us("storage.index"), "us"),
        "storage.pool_hit_ratio": (
            ratio(counts["pool.hits"],
                  counts["pool.hits"] + counts["pool.misses"]), "ratio"),
        "storage.evictions_per_txn": (per_txn("pool.evictions"), "count"),
        "wal.append_us": (rec.mean_us("wal.append"), "us"),
        "wal.flush_us": (rec.mean_us("wal.flush"), "us"),
        "wal.records_per_txn": (per_txn("wal.records"), "count"),
        "wal.bytes_per_txn": (per_txn("wal.bytes"), "bytes"),
        "wal.flushes_per_txn": (per_txn("wal.flushes"), "count"),
        "wal.undo_us": (
            1e6 * ratio(rec.total_s("txn.abort") - release_in_abort,
                        abort_calls), "us"),
        "wal.abort_history_ratio": (history_ratio(untraced.abort_us), "ratio"),
        "wal.recover_history_ratio": (
            history_ratio(untraced.recover_ms), "ratio"),
        "wal.recover_analyzed_records": (
            median_or_zero(t.recover_analyzed), "count"),
        "wal.recover_redone_records": (
            median_or_zero(t.recover_redone), "count"),
        "txn.commit_self_us": (rec.mean_us("txn.commit", field=2), "us"),
        "dist.net_self_share": (
            sum(rec.total_s(name, field=2) for name in dist_net) / wall,
            "ratio"),
        "dist.messages_per_txn": (per_txn("net.messages"), "count"),
        "dist.prepare_share": (rec.total_s("dist.net.prepare") / wall, "ratio"),
        "dist.decide_share": (rec.total_s("dist.net.decide") / wall, "ratio"),
        "dist.net_retries": (counts.get("net.retries", 0), "count"),
        "dist.twopc_over_commit_p50": (
            ratio(percentile(untraced.twopc_us, 50),
                  percentile(untraced.commit_us, 50))
            if untraced.twopc_us else 0.0, "ratio"),
        "dist.twopc_over_commit_p99": (
            ratio(percentile(untraced.twopc_us, 99),
                  percentile(untraced.commit_us, 99))
            if untraced.twopc_us else 0.0, "ratio"),
        "sim.steps_per_commit": (
            ratio(steps, counts.get("sim.commits", 0)), "count"),
        "sim.resp_p50_ticks": (median_or_zero(untraced.sim_resp_p50), "ticks"),
        "sim.resp_p95_ticks": (median_or_zero(untraced.sim_resp_p95), "ticks"),
    }
    for layer in layers:
        metrics[layer + ".self_share"] = (share(layer), "ratio")
    metrics["bench.self_share"] = (
        1.0 - sum(share(layer) for layer in layers), "ratio")
    metrics["trace.overhead_ratio"] = (
        (t.committed / t.txn_seconds)
        / (untraced.committed / untraced.txn_seconds), "ratio")
    return metrics


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------


def git_commit():
    """The checked-out commit, read from ``.git`` without running git;
    ``unknown`` outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown"
    return "unknown"


def report(args, rounds, untraced, traced, metrics):
    problems = untraced.problems + (traced.problems if traced else [])
    tally = traced if traced else untraced
    for problem in problems[:20]:
        print("CHECK FAILED:", problem, file=sys.stderr)
    for error in tally.errors[:20]:
        print("FAILED:", error, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit}")
    print(json.dumps({
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "mode": "traced" if args.trace else "timed",
            "seconds": args.seconds,
            "rounds": rounds,
            # median of the rounds' host-speed scales; 1.0 when unscaled
            "host_scale": statistics.median(untraced.host_scales),
        },
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    if problems:
        sys.exit(1)


if __name__ == "__main__":
    main()
