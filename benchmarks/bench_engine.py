"""Wall-clock benchmark for the inference engine and the kernel fast paths.

Measures the two innermost loops of the codebase on the **host** clock
(both are transparent to simulated time):

* **uncached proof throughput** — the proof-evaluation calls a seeded
  Continuous-approach run actually makes are recorded once, then replayed
  against the indexed/tabled engine and against the naive reference
  resolver (``repro.policy.rules_reference``), asserting verdict- and
  witness-identical results call for call;
* **kernel events/sec** — a self-rescheduling timeout callback chain and a
  generator-process timeout loop, the two dominant event shapes of every
  simulated run;
* **kernel queue grid** — the calendar queue against the pinned heap
  reference (same code, ``promote_at=math.inf``) on the two shapes that dominate
  large runs: a timer-storm *drain* and a network *fan-out under an
  expiring timer backlog* (10^5-user scale runs hold ~10^6 pending request
  timeouts that expire throughout).  Reported against numbers recorded on
  the pre-calendar kernel; ``--min-kernel-speedup`` turns the
  calendar-vs-heap geomean into a CI gate;
* **end-to-end equivalence** — bit-identical ``TransactionOutcome``
  sequences between the engines for all four enforcement approaches at
  both consistency levels, and between the heap and calendar queues
  (promotion forced) across the same grid.  The reference side of each
  pair is reached by rebinding the names the simulator calls: the
  ``evaluate_proof`` the server and the proof cache use, and the
  ``Environment`` the testbed builds.

Writes ``BENCH_engine.json`` (repo root by default) — the source of the
engine table in ``docs/performance.md``.  Run:

    PYTHONPATH=src python benchmarks/bench_engine.py [--quick] [--out PATH]

``--quick`` shrinks the workload for CI smoke runs.  ``--check-baseline
PATH`` compares against a committed report and exits non-zero if the
indexed-over-naive throughput *ratio* regressed more than 30% — the ratio,
not absolute ops/sec, so the gate is portable across machines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import pathlib
import random
import sys
import time
from dataclasses import replace
from typing import Dict, List, Tuple

import repro.cloud.server as server_mod
import repro.policy.proofcache as proofcache_mod
import repro.workloads.testbed as testbed_mod
from repro.analysis.sweep import SweepPoint, run_point
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.policy.proofs import evaluate_proof
from repro.policy.rules_reference import naive_view
from repro.sim.kernel import Environment
from repro.sim.network import FixedLatency, Network, Node
from repro.sim.queues import PROMOTE_THRESHOLD
from repro.workloads.generator import WorkloadSpec, uniform_transactions
from repro.workloads.testbed import build_cluster

from _common import APPROACHES

#: Measured on the pre-optimization engine (commit d859775) with the exact
#: workloads below, recorded so the report always shows the before/after
#: pair this bench exists to document.  Absolute numbers are machine-bound;
#: the committed speedup ratios are what the CI gate compares against.
BEFORE = {
    "proof_throughput_per_s": 7066,
    "kernel_timeout_chain_per_s": 760635,
    "kernel_process_loop_per_s": 441826,
}

#: Queue-grid numbers recorded on the pre-calendar kernel (commit 8ae1e5a:
#: single global heap, no event pooling, no same-timestamp network
#: batching), with exactly the shapes and seeds below.  ``drain`` is
#: events/sec, ``fanout_backlog`` is delivered messages/sec.
BEFORE_QUEUE = {
    "drain_1m": 270745,
    "drain_2m": 218860,
    "fanout_backlog_1m": 44087,
    "fanout_backlog_2m": 24385,
}

LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)

#: ``promote_at`` per queue label: the default hybrid, or the heap pinned.
PROMOTE_AT = {"calendar": PROMOTE_THRESHOLD, "heap": math.inf}


@contextlib.contextmanager
def rebound(*bindings):
    """Temporarily rebind ``(module, name, value)`` triples."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in bindings]
    for module, name, value in bindings:
        setattr(module, name, value)
    try:
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def naive_policy(policy):
    """``policy`` with its rules proved by the naive reference resolver."""
    return replace(policy, rules=naive_view(policy.rules))


def naive_evaluate_proof(policy, *args, **kwargs):
    return evaluate_proof(naive_policy(policy), *args, **kwargs)


def naive_resolver():
    """Route every proof the simulator evaluates to the naive resolver."""
    return rebound(
        (server_mod, "evaluate_proof", naive_evaluate_proof),
        (proofcache_mod, "evaluate_proof", naive_evaluate_proof),
    )


# -- proof workload -----------------------------------------------------------


def record_continuous_calls(quick: bool) -> List[Tuple]:
    """The proof-evaluation calls one seeded Continuous run makes, uncached."""
    calls: List[Tuple] = []

    def recording(policy, query_id, user, operation, items, credentials,
                  server, now, registry, revocation=None, counters=None,
                  obs_span=None):
        calls.append(
            (policy, user, operation, tuple(items), tuple(credentials), registry)
        )
        return evaluate_proof(policy, query_id, user, operation, items,
                              credentials, server, now, registry, revocation,
                              counters)

    with rebound((server_mod, "evaluate_proof", recording)):
        cluster = build_cluster(
            n_servers=4, items_per_server=6, seed=61,
            config=CloudConfig(enable_proof_cache=False),
        )
        credential = cluster.issue_role_credential("alice")
        spec = WorkloadSpec(
            txn_length=4 if quick else 6,
            read_fraction=0.7,
            count=6 if quick else 12,
            user="alice",
        )
        transactions = uniform_transactions(
            spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
        )
        for txn in transactions:
            cluster.run_transaction(txn, "continuous")
    return calls


def replay(calls: List[Tuple], naive: bool):
    """Re-evaluate every recorded call; returns the proofs, in order."""
    results = []
    for index, (policy, user, operation, items, credentials, registry) in enumerate(calls):
        if naive:
            policy = naive_policy(policy)
        results.append(
            evaluate_proof(policy, f"q{index}", user, operation, items,
                           credentials, "bench", 100.0, registry)
        )
    return results


def measure_proof_throughput(quick: bool, repeats: int) -> Dict[str, object]:
    calls = record_continuous_calls(quick)

    # Equivalence first: verdicts AND witness derivations must match call
    # for call (the records differ only in fields we pinned equal).
    indexed_proofs = replay(calls, naive=False)
    naive_proofs = replay(calls, naive=True)
    mismatches = sum(
        1
        for indexed, naive in zip(indexed_proofs, naive_proofs)
        if (indexed.granted, indexed.reason, indexed.derivations)
        != (naive.granted, naive.reason, naive.derivations)
    )

    # Pre-build the naive policy views so the timed loop measures the naive
    # *search*, not repeated index construction.
    naive_calls = [(naive_policy(call[0]),) + call[1:] for call in calls]

    def timed(workload: List[Tuple]) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for index, (policy, user, operation, items, credentials, registry) in enumerate(workload):
                evaluate_proof(policy, f"q{index}", user, operation, items,
                               credentials, "bench", 100.0, registry)
            best = min(best, time.perf_counter() - start)
        return len(workload) / best

    indexed_per_s = timed(calls)
    naive_per_s = timed(naive_calls)
    return {
        "workload": "continuous, uncached",
        "recorded_calls": len(calls),
        "verdict_or_witness_mismatches": mismatches,
        "indexed_per_s": round(indexed_per_s),
        "naive_per_s": round(naive_per_s),
        "speedup_vs_naive": round(indexed_per_s / naive_per_s, 3),
        "before_per_s": BEFORE["proof_throughput_per_s"],
        "speedup_vs_before": round(
            indexed_per_s / BEFORE["proof_throughput_per_s"], 3
        ),
    }


# -- kernel workloads ---------------------------------------------------------


def kernel_timeout_chain(n_events: int) -> float:
    """Events/sec for a self-rescheduling timeout callback chain."""
    env = Environment()
    state = {"left": n_events}

    def fire(event):
        if state["left"] > 0:
            state["left"] -= 1
            env.timeout(1.0).add_callback(fire)

    env.timeout(1.0).add_callback(fire)
    start = time.perf_counter()
    env.run()
    return n_events / (time.perf_counter() - start)


def kernel_process_loop(n_events: int) -> float:
    """Events/sec for a generator process yielding timeouts."""
    env = Environment()

    def body():
        for _ in range(n_events):
            yield env.timeout(1.0)

    env.process(body())
    start = time.perf_counter()
    env.run()
    return n_events / (time.perf_counter() - start)


def measure_kernel(quick: bool, repeats: int) -> Dict[str, object]:
    chain_n = 50_000 if quick else 200_000
    loop_n = 25_000 if quick else 100_000
    chain = max(kernel_timeout_chain(chain_n) for _ in range(repeats))
    loop = max(kernel_process_loop(loop_n) for _ in range(repeats))
    return {
        "timeout_chain_per_s": round(chain),
        "timeout_chain_before_per_s": BEFORE["kernel_timeout_chain_per_s"],
        "timeout_chain_speedup": round(
            chain / BEFORE["kernel_timeout_chain_per_s"], 3
        ),
        "process_loop_per_s": round(loop),
        "process_loop_before_per_s": BEFORE["kernel_process_loop_per_s"],
        "process_loop_speedup": round(
            loop / BEFORE["kernel_process_loop_per_s"], 3
        ),
    }


# -- kernel queue grid --------------------------------------------------------


def _queue_env(queue: str) -> Environment:
    # Pooling stays on for both sides so the comparison isolates the queue
    # structure itself, not the allocator.
    return Environment(pooling=True, promote_at=PROMOTE_AT[queue])


def kernel_drain(n_timeouts: int, queue: str) -> float:
    """Events/sec draining a pre-filled uniform timer storm.

    The shape of a scale run's tail: the queue holds one pending request
    timeout per in-flight message, and they all expire.  Fill time is
    excluded; only the drain is timed.
    """
    env = _queue_env(queue)
    rng = random.Random(11)
    for _ in range(n_timeouts):
        env.timeout(rng.uniform(0.0, 1000.0))
    start = time.perf_counter()
    env.run()
    return n_timeouts / (time.perf_counter() - start)


def kernel_fanout_backlog(
    backlog: int, queue: str, fanout: int = 50, rounds: float = 3000.0
) -> float:
    """Delivered messages/sec for a periodic fan-out under an expiring
    timer backlog.

    The shape of a 10^5-user steady state: a driver fans out to ``fanout``
    sinks once per simulated time unit (unit network latency, so
    deliveries share timestamps and batch) while ``backlog`` noop timers —
    stand-ins for pending request timeouts — expire throughout the run.
    Warm-up to t=5 is excluded; the window is ``rounds`` time units.
    """
    env = _queue_env(queue)
    net = Network(env, rng=random.Random(3), latency=FixedLatency(1.0))
    counter = {"msgs": 0}

    class Sink(Node):
        def handle_message(self, message):
            counter["msgs"] += 1
            return None

    driver = net.register(Sink("driver"))
    sinks = [net.register(Sink(f"s{i}")) for i in range(fanout)]
    rng = random.Random(9)

    def noop(event):
        pass

    for _ in range(backlog):
        env.timeout(100.0 + rng.random() * 5000.0).add_callback(noop)

    def tick(event):
        for sink in sinks:
            driver.send(sink.name, "ping", "proto", x=1)
        env.timeout(1.0).add_callback(tick)

    env.timeout(0.0).add_callback(tick)
    env.run(until=5.0)
    counter["msgs"] = 0
    start = time.perf_counter()
    env.run(until=5.0 + rounds)
    return counter["msgs"] / (time.perf_counter() - start)


def measure_kernel_queue(quick: bool, repeats: int) -> Dict[str, object]:
    if quick:
        shapes: List[Tuple[str, object]] = [
            ("drain_300k", lambda queue: kernel_drain(300_000, queue)),
            (
                "fanout_backlog_500k",
                lambda queue: kernel_fanout_backlog(500_000, queue, rounds=900.0),
            ),
        ]
    else:
        shapes = [
            ("drain_1m", lambda queue: kernel_drain(1_000_000, queue)),
            ("drain_2m", lambda queue: kernel_drain(2_000_000, queue)),
            (
                "fanout_backlog_1m",
                lambda queue: kernel_fanout_backlog(1_000_000, queue),
            ),
            (
                "fanout_backlog_2m",
                lambda queue: kernel_fanout_backlog(2_000_000, queue),
            ),
        ]
    cells: Dict[str, Dict[str, object]] = {}
    heap_ratios: List[float] = []
    before_ratios: List[float] = []
    for name, run in shapes:
        calendar = max(run("calendar") for _ in range(repeats))
        heap = max(run("heap") for _ in range(repeats))
        cell: Dict[str, object] = {
            "calendar_per_s": round(calendar),
            "heap_per_s": round(heap),
            "speedup_vs_heap": round(calendar / heap, 3),
        }
        heap_ratios.append(calendar / heap)
        before = BEFORE_QUEUE.get(name)
        if before is not None:
            cell["before_per_s"] = before
            cell["speedup_vs_before"] = round(calendar / before, 3)
            before_ratios.append(calendar / before)
        cells[name] = cell

    def geomean(ratios: List[float]) -> float:
        return math.exp(sum(math.log(r) for r in ratios) / len(ratios))

    report: Dict[str, object] = {
        "shapes": cells,
        "geomean_speedup_vs_heap": round(geomean(heap_ratios), 3),
    }
    if before_ratios:
        report["geomean_speedup_vs_before"] = round(geomean(before_ratios), 3)
    return report


# -- end-to-end equivalence ---------------------------------------------------


def measure_outcome_equivalence(quick: bool) -> Dict[str, object]:
    """Indexed vs naive outcome sequences, all approaches × both levels."""
    n_txns = 4 if quick else 8
    checks: Dict[str, bool] = {}
    for approach in APPROACHES:
        for level in LEVELS:
            point = SweepPoint(
                approach=approach,
                consistency=level,
                n_servers=4,
                txn_length=4,
                n_transactions=n_txns,
                update_interval=None,
                seed=61,
            )
            indexed = run_point(point).outcomes
            with naive_resolver():
                naive = run_point(point).outcomes
            checks[f"{approach}/{level.value}"] = indexed == naive
    return {
        "cells": checks,
        "all_identical": all(checks.values()),
    }


def measure_queue_equivalence(quick: bool) -> Dict[str, object]:
    """Heap vs calendar outcome sequences, all approaches × both levels.

    The testbed's ``Environment`` is rebound to build every cluster with a
    fixed ``promote_at``: ``math.inf`` pins the heap, and ``0`` forces the
    calendar side onto its bucketed path from the first event, so the check
    covers the promoted structure rather than the small-queue heap
    fallback.
    """

    def promoted_at(promote_at):
        def environment(**kwargs):
            return Environment(**{**kwargs, "promote_at": promote_at})

        return rebound((testbed_mod, "Environment", environment))

    n_txns = 4 if quick else 8
    checks: Dict[str, bool] = {}
    for approach in APPROACHES:
        for level in LEVELS:
            point = SweepPoint(
                approach=approach,
                consistency=level,
                n_servers=4,
                txn_length=4,
                n_transactions=n_txns,
                update_interval=None,
                seed=61,
            )
            with promoted_at(math.inf):
                heap = run_point(point).outcomes
            with promoted_at(0):
                calendar = run_point(point).outcomes
            checks[f"{approach}/{level.value}"] = heap == calendar
    return {
        "cells": checks,
        "all_identical": all(checks.values()),
    }


# -- CLI ----------------------------------------------------------------------


def check_baseline(report: Dict, baseline_path: pathlib.Path) -> List[str]:
    """Regression gate: >30% drop in any committed speedup ratio fails.

    Ratios (indexed/naive, after/before-normalized kernel shapes) are
    machine-portable; absolute events/sec are not, so they are reported but
    never gated on.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    gates = (
        ("proof_throughput", "speedup_vs_naive"),
        ("kernel", "timeout_chain_speedup"),
        ("kernel", "process_loop_speedup"),
    )
    failures = []
    for section, key in gates:
        committed = baseline[section][key]
        measured = report[section][key]
        if measured < committed * 0.7:
            failures.append(
                f"{section}.{key}: {measured} < 70% of committed {committed}"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument(
        "--out",
        default=str(pathlib.Path(__file__).resolve().parent.parent / "BENCH_engine.json"),
        help="where to write the JSON report",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats (best-of)")
    parser.add_argument(
        "--check-baseline",
        metavar="PATH",
        default=None,
        help="committed BENCH_engine.json to gate speedup ratios against",
    )
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        metavar="RATIO",
        default=None,
        help="fail when the queue grid's calendar-vs-heap geomean drops below RATIO",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats if args.repeats is not None else (2 if args.quick else 3)

    report = {
        "bench": "engine",
        "quick": bool(args.quick),
        "proof_throughput": measure_proof_throughput(args.quick, repeats),
        "kernel": measure_kernel(args.quick, repeats),
        "kernel_queue": measure_kernel_queue(args.quick, repeats),
        "outcome_equivalence": measure_outcome_equivalence(args.quick),
        "queue_equivalence": measure_queue_equivalence(args.quick),
    }
    ok = (
        report["proof_throughput"]["verdict_or_witness_mismatches"] == 0
        and report["outcome_equivalence"]["all_identical"]
        and report["queue_equivalence"]["all_identical"]
    )
    report["all_equivalence_checks_passed"] = ok

    out_path = pathlib.Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {out_path}")
    if not ok:
        print("EQUIVALENCE CHECK FAILED", file=sys.stderr)
        return 1
    if args.min_kernel_speedup is not None:
        geomean = report["kernel_queue"]["geomean_speedup_vs_heap"]
        if geomean < args.min_kernel_speedup:
            print(
                f"KERNEL QUEUE REGRESSION: geomean calendar-vs-heap speedup "
                f"{geomean} < required {args.min_kernel_speedup}",
                file=sys.stderr,
            )
            return 3
        print(
            f"kernel queue gate passed: {geomean}x >= {args.min_kernel_speedup}x"
        )
    if args.check_baseline:
        failures = check_baseline(report, pathlib.Path(args.check_baseline))
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 2
        print("baseline check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
