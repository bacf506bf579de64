"""Benchmark of the cloud-transaction simulator.

Runs one named workload for a fixed host-time budget, from one process and
one thread, and prints every metric by name with its unit.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root::

    python3 simbench/run.py --workload wan-hotspot --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics: host throughput, set-up
time, peak memory, and the simulated outcomes of Table I (commit ratio,
throughput, commit latency, messages and proof evaluations per
transaction, stale commits).  Host timings are medians over the passes
that fit the budget (at least one); every pass replays the same seeded
workload, and its outcome digest must not change between passes, nor
differ from the witness recorded in ``witness.json`` for the seed.
``--trace 1`` alternates untraced passes with passes under the profiling
hook and reports the per-layer metrics instead (see :mod:`layers`).

``attempted`` and ``failed`` count one pass: the transactions of the
seed's workload and those that aborted.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: name → (unit, better).  BENCHMARK.json lists the same metrics.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "txn_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "commit_ratio": ("ratio", "higher"),
    "sim_throughput": ("1/tu", "higher"),
    "sim_latency_p50": ("tu", "lower"),
    "sim_latency_p99": ("tu", "lower"),
    "msgs_per_txn": ("msgs/txn", "lower"),
    "proofs_per_txn": ("proofs/txn", "lower"),
    "stale_commit_ratio": ("ratio", "lower"),
}

#: Work counts per layer (name → unit).  Each layer also reports ``.self_s``,
#: and ``transactions.aborts.<reason>`` counts every abort reason.
LAYER_COUNTS: Dict[str, str] = {
    "sim.kernel.events": "count",
    "sim.kernel.host_us_per_event": "us",
    "sim.network.messages": "count",
    "sim.network.drops": "count",
    "sim.topology.size_calls": "count",
    "sim.topology.cross_region_bytes": "bytes",
    "db.locks.acquires": "count",
    "db.locks.waits": "count",
    "db.locks.wait_ratio": "ratio",
    "db.locks.deadlocks": "count",
    "db.wal.forced_writes": "count",
    "db.wal.forces_per_commit": "writes/commit",
    "policy.rules.proves": "count",
    "policy.rules.facts_scanned": "count",
    "policy.proofcache.hits": "count",
    "policy.proofcache.misses": "count",
    "policy.proofcache.hit_ratio": "ratio",
    "policy.proofcache.invalidations": "count",
    "policy.proofcache.retentions": "count",
    "policy.analyze.calls": "count",
    "policy.store.installs": "count",
    "policy.store.rules_final": "count",
    "core.rounds_per_txn": "rounds/txn",
    "transactions.rpc_timeouts": "count",
    "cloud.master.version_fetches": "count",
    "cloud.replication.deliveries": "count",
    "obs.spans": "count",
    "sim.tracing.records": "count",
    "verify.check_s": "s",
    "verify.events_checked": "count",
    "profile.traced_s": "s",
    "profile.unattributed_s": "s",
    "profile.overhead": "ratio",
}

#: Set-up is timed on every pass and this many extra times per run, so its
#: median rests on enough samples even when passes are few.
EXTRA_SETUPS = 10


def per_layer_units() -> Dict[str, str]:
    from layers import LAYER_NAMES
    from repro.errors import AbortReason

    units = {f"{name}.self_s": "s" for name in LAYER_NAMES}
    units.update(LAYER_COUNTS)
    units.update({f"transactions.aborts.{reason.value}": "count" for reason in AbortReason})
    return units


def end_to_end(passes, setups: List[float]) -> Dict[str, float]:
    first = passes[0]
    return {
        "txn_per_s": statistics.median(p.attempted / p.run_s for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commit_ratio": first.commits / first.attempted,
        "sim_throughput": first.commits / first.sim_span,
        "sim_latency_p50": statistics.median(first.commit_latencies),
        "sim_latency_p99": statistics.quantiles(first.commit_latencies, n=100)[98],
        "msgs_per_txn": first.protocol_messages / first.attempted,
        "proofs_per_txn": first.proof_evaluations / first.attempted,
        "stale_commit_ratio": first.stale_commits / first.commits,
    }


def per_layer(untraced, traced, attributions) -> Dict[str, float]:
    from layers import LAYER_NAMES
    from repro.errors import AbortReason

    first = traced[0]
    counts = first.counts
    values: Dict[str, float] = {}
    for name in LAYER_NAMES:
        values[f"{name}.self_s"] = statistics.median(a.self_s[name] for a in attributions)
    # The lock table and the wire-size estimator keep no public counters:
    # the profile's call counts stand in (identical in every traced pass).
    # Deadlocks are the transactions aborted as deadlock victims.
    calls = attributions[0]
    acquires = calls.calls("db.locks", "acquire")
    waits = calls.calls("db.locks", "_enqueue")
    events = counts["sim.kernel.events"]
    hits, misses = counts["policy.proofcache.hits"], counts["policy.proofcache.misses"]
    values.update(
        {
            "sim.kernel.events": events,
            "sim.kernel.host_us_per_event": statistics.median(p.run_s for p in untraced)
            / events
            * 1e6,
            "sim.network.messages": counts["sim.network.messages"],
            "sim.network.drops": counts["sim.network.drops"],
            "sim.topology.size_calls": calls.calls("sim.topology", "estimate_"),
            "sim.topology.cross_region_bytes": counts["sim.topology.cross_region_bytes"],
            "db.locks.acquires": acquires,
            "db.locks.waits": waits,
            "db.locks.wait_ratio": waits / acquires if acquires else 0.0,
            "db.locks.deadlocks": first.aborts["deadlock"],
            "db.wal.forced_writes": counts["db.wal.forced_writes"],
            "db.wal.forces_per_commit": counts["db.wal.forced_writes"] / max(1, first.commits),
            "policy.rules.proves": counts["policy.rules.proves"],
            "policy.rules.facts_scanned": counts["policy.rules.facts_scanned"],
            "policy.proofcache.hits": hits,
            "policy.proofcache.misses": misses,
            "policy.proofcache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "policy.proofcache.invalidations": counts["policy.proofcache.invalidations"],
            "policy.proofcache.retentions": counts["policy.proofcache.retentions"],
            "policy.analyze.calls": calls.entries("policy.analyze"),
            "policy.store.installs": counts["policy.store.installs"],
            "policy.store.rules_final": first.rules_final,
            "core.rounds_per_txn": first.voting_rounds / first.attempted,
            "transactions.rpc_timeouts": counts["transactions.rpc_timeouts"],
            "cloud.master.version_fetches": counts["cloud.master.version_fetches"],
            "cloud.replication.deliveries": counts["cloud.replication.deliveries"],
            "obs.spans": counts["obs.spans"],
            "sim.tracing.records": counts["sim.tracing.records"],
            "verify.check_s": statistics.median(p.verify_s for p in untraced),
            "verify.events_checked": counts["verify.events_checked"],
            "profile.traced_s": statistics.median(a.total_s for a in attributions),
            "profile.unattributed_s": statistics.median(a.unattributed_s for a in attributions),
            "profile.overhead": statistics.median(
                t.run_s / u.run_s for u, t in zip(untraced, traced)
            ),
        }
    )
    for reason in AbortReason:
        values[f"transactions.aborts.{reason.value}"] = first.aborts[reason.value]
    return values


def load_witness() -> Dict[str, Dict[str, str]]:
    with open(os.path.join(HERE, "witness.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check(workload, passes, scale: float, seed: int) -> Tuple[bool, List[str]]:
    """Correctness of the program's outputs; returns (ok, report lines)."""
    from workloads import DENIAL_REASONS

    problems: List[str] = []
    first = passes[0]
    if any(p.simulated() != first.simulated() for p in passes[1:]):
        problems.append("passes of one seed disagree: the simulation is not deterministic")
    if first.attempted < 1 or first.commits < 1:
        problems.append("no transaction committed")
    if first.commits + sum(first.aborts.values()) != first.attempted:
        problems.append("outcomes do not add up to the transactions submitted")
    for reason in DENIAL_REASONS:
        if first.aborts[reason]:
            problems.append(f"{first.aborts[reason]} {reason} aborts under benign policy updates")
    if first.aborts["unknown"]:
        problems.append(f"{first.aborts['unknown']} aborts without a reason")
    if first.violations:
        problems.append(f"Cluster.verify() found {first.violations} conformance violations")
    witness = load_witness().get(workload.name, {}).get(str(seed)) if scale == 1.0 else None
    if witness is None:
        lines = ["witness: none recorded for this seed and scale"]
    elif witness == first.digest:
        lines = ["witness: matches the recorded digest"]
    else:
        lines = [f"witness: MISMATCH, recorded {witness}"]
        problems.append("outcome digest differs from the recorded witness")
    return not problems, lines + [f"INCORRECT: {problem}" for problem in problems]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="host-time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fraction of each workload's transactions, for quick checks; "
        "witnesses apply only at 1",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: simulator sources not found at {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    from layers import Attribution
    from workloads import WORKLOADS, run_pass, time_setup

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    # Every timed region starts after a full collection, so no pass pays
    # for the garbage of the one before.
    start = time.perf_counter()
    setups = []
    for _ in range(EXTRA_SETUPS):
        gc.collect()
        setups.append(time_setup(workload, args.seed, args.scale))
    untraced, traced, attributions = [], [], []
    # Stop before a round that would overrun the budget; always run one.
    while True:
        round_start = time.perf_counter()
        gc.collect()
        untraced.append(run_pass(workload, args.seed, args.scale))
        if args.trace:
            profiler = cProfile.Profile()
            gc.collect()
            traced.append(run_pass(workload, args.seed, args.scale, profiler))
            profiler.create_stats()
            attributions.append(Attribution(profiler.stats, HERE))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    passes = untraced + traced
    setups += [p.setup_s for p in passes]
    ok, lines = check(workload, passes, args.scale, args.seed)

    first = passes[0]
    if args.trace:
        values = per_layer(untraced, traced, attributions)
        units = per_layer_units()
    else:
        values = end_to_end(untraced, setups)
        units = {name: unit for name, (unit, _) in END_TO_END.items()}

    served = first.commits / first.sim_span
    aborts = " ".join(f"{reason}={count}" for reason, count in sorted(first.aborts.items()))
    print(
        f"workload {workload.name}: seed {args.seed}, scale {args.scale:g}, "
        f"{len(untraced)} untraced + {len(traced)} traced passes of {first.attempted} transactions"
    )
    print(
        f"regime: {workload.regime}; served {served:.4f} commits/tu of "
        f"{workload.offered_rate:.4f} txn/tu offered ({served / workload.offered_rate:.0%}); "
        f"aborts: {aborts or 'none'}"
    )
    print(
        f"policy: {first.counts['policy.store.installs']} installs, "
        f"largest final rule set {first.rules_final} rules"
    )
    print(f"outcome digest: {first.digest}")
    for line in lines:
        print(line)
    for name, value in values.items():
        note = f"  (n={len(first.commit_latencies)} commits)" if "latency" in name else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": first.attempted,
                "failed": first.attempted - first.commits,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
