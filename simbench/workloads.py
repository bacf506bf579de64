"""The benchmark's three workloads and one deterministic *pass* over each.

A pass builds fresh clusters (set-up), then drives each cell: it submits a
seeded open-loop workload -- Poisson arrivals in simulated time, so the
generator can never fall behind in host time -- and waits for every
outcome.  It returns what it measured in host time and counted in simulated
time.  Everything simulated depends only on the seed and the scale, so two
passes of one seed must produce the same outcome digest.

Each workload runs several independent clusters per pass, so seed-to-seed
variation averages out.  ``--seed`` drives the transactions, their arrival
times and each cluster's own randomness (network latency, replication
delay).  The policy-update schedule is part of the workload's definition
and depends only on the cluster's slot in the pass: stale commits come in
bursts around updates, and with seeded storm schedules the wan-hotspot
stale-commit ratio spread 0.22 (IQR over median, five seeds) against 0.06
with fixed ones.

Only public entry points of the simulator are driven: the cluster
builders, :class:`OpenLoopRunner`, the ``repro.workloads`` generators and
update processes, ``Cluster.verify()`` and ``cluster.metrics``.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.analysis.scale import StaleCommitTracker
from repro.cloud.config import CloudConfig
from repro.core.consistency import ConsistencyLevel
from repro.metrics.stats import TransactionOutcome
from repro.workloads import (
    Cluster,
    OpenLoopRunner,
    PolicyStormProcess,
    ScaleWorkloadSpec,
    build_cluster,
    build_multiregion_cluster,
    mint_user_credentials,
    storm_schedule,
)
from repro.workloads.generator import WorkloadSpec, poisson_arrivals, uniform_transactions
from repro.workloads.scale import iter_scale_workload
from repro.workloads.updates import PolicyUpdateProcess

#: The paper's four approaches, in its presentation order.
APPROACHES = ("deferred", "punctual", "incremental", "continuous")
#: Abort reasons a benign policy update can never cause: every update in
#: these workloads grants exactly what the previous version granted.
DENIAL_REASONS = ("proof_failed", "credential_revoked")


@dataclass
class Cell:
    """One cluster ready to run one approach at one consistency level."""

    cluster: Cluster
    approach: str
    consistency: ConsistencyLevel
    #: Submits the cell's transactions through the runner and returns when
    #: every one has an outcome.
    submit: Callable[[OpenLoopRunner], Any]
    #: Run ``Cluster.verify()`` after the cell, inside the timed region.
    audit: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    #: Offered load in transactions per simulated time unit.
    offered_rate: float
    #: How the workload loads the system, printed with its output.
    regime: str
    #: ``build(seed, scale, counts)`` assembles the pass's cells; ``counts``
    #: receives work counted while the cells run.
    build: Callable[[int, float, Counter], List[Cell]]


@dataclass
class Pass:
    """Host timings and simulated counts of one pass over a workload."""

    #: Cluster assembly, credential minting and generator construction.
    setup_s: float = 0.0
    #: First submission to last outcome, plus ``Cluster.verify()`` on
    #: audited cells.
    run_s: float = 0.0
    verify_s: float = 0.0
    attempted: int = 0
    commits: int = 0
    aborts: Counter = field(default_factory=Counter)
    commit_latencies: List[float] = field(default_factory=list)
    #: Simulated time from first submission to last decision, summed over cells.
    sim_span: float = 0.0
    protocol_messages: int = 0
    proof_evaluations: int = 0
    voting_rounds: int = 0
    stale_commits: int = 0
    violations: int = 0
    #: Per-layer work read off ``cluster.metrics`` and public counters.
    counts: Counter = field(default_factory=Counter)
    #: Largest policy, in rules, that any domain ended the pass with.
    rules_final: int = 0
    #: SHA-256 over (txn id, committed, abort reason, sim finish time) of
    #: every outcome, chained across cells in order.
    digest: str = ""

    def simulated(self) -> tuple:
        """Everything the pass computed in simulated time."""
        return (
            self.digest,
            self.attempted,
            self.commits,
            sorted(self.aborts.items()),
            self.commit_latencies,
            self.sim_span,
            self.protocol_messages,
            self.proof_evaluations,
            self.voting_rounds,
            self.stale_commits,
            self.violations,
            self.rules_final,
            sorted(self.counts.items()),
        )


class _OutcomeFold:
    """The ``on_outcome`` hook: folds each outcome into a :class:`Pass` as it
    lands, keeping only commit latencies per transaction."""

    def __init__(self, result: Pass, tracker: StaleCommitTracker) -> None:
        self.result = result
        self.tracker = tracker
        self.sha = hashlib.sha256()
        self.first_started = float("inf")
        self.last_finished = float("-inf")

    def __call__(self, outcome: TransactionOutcome) -> None:
        result = self.result
        result.attempted += 1
        result.protocol_messages += outcome.protocol_messages
        result.proof_evaluations += outcome.proof_evaluations
        result.voting_rounds += outcome.voting_rounds
        reason = outcome.abort_reason.value if outcome.abort_reason is not None else ""
        if outcome.committed:
            result.commits += 1
            result.commit_latencies.append(outcome.finished_at - outcome.started_at)
        else:
            result.aborts[reason or "unknown"] += 1
        self.first_started = min(self.first_started, outcome.started_at)
        self.last_finished = max(self.last_finished, outcome.finished_at)
        self.sha.update(
            f"{outcome.txn_id}|{int(outcome.committed)}|{reason}|{outcome.finished_at!r}\n".encode()
        )
        self.tracker.observe(outcome)


def _count_installs(cluster: Cluster, counts: Counter) -> None:
    """Count every effective policy install on every server from now on."""

    def installed(policy: Any, previous: Any) -> None:
        counts["policy.store.installs"] += 1

    for server in cluster.servers.values():
        server.policies.subscribe(installed)


def _read_counters(cluster: Cluster, counts: Counter) -> int:
    """Add the cluster's public work counters to ``counts``; return the
    largest final policy size in rules."""
    metrics = cluster.metrics
    # The kernel numbers every event it schedules; no public counter exists.
    counts["sim.kernel.events"] += cluster.env._seq
    counts["sim.network.messages"] += metrics.messages.total()
    counts["sim.network.drops"] += metrics.faults.messages_dropped
    counts["sim.topology.cross_region_bytes"] += metrics.regions.cross_region_bytes()
    counts["db.wal.forced_writes"] += sum(
        node.wal.forced_writes for node in [*cluster.servers.values(), *cluster.tms]
    )
    counts["policy.rules.proves"] += metrics.engine.proofs
    counts["policy.rules.facts_scanned"] += metrics.engine.facts_scanned
    cache = metrics.proof_cache
    counts["policy.proofcache.hits"] += cache.hits
    counts["policy.proofcache.misses"] += cache.misses
    counts["policy.proofcache.invalidations"] += cache.invalidations
    counts["policy.proofcache.retentions"] += cache.retentions
    counts["transactions.rpc_timeouts"] += metrics.faults.timeouts
    counts["cloud.master.version_fetches"] += metrics.messages.by_category["master.reply"]
    counts["cloud.replication.deliveries"] += metrics.messages.by_category["replication"]
    counts["obs.spans"] += len(cluster.obs)
    counts["sim.tracing.records"] += len(cluster.tracer)
    return max(len(admin.current.rules.rules) for admin in cluster.admins.values())


def _drive(result: Pass, cell: Cell, profiler: Optional[Any]) -> None:
    cluster = cell.cluster
    runner = OpenLoopRunner(cluster, cell.approach, cell.consistency)
    fold = _OutcomeFold(result, StaleCommitTracker(cluster))
    runner.on_outcome = fold
    if profiler is not None:
        profiler.enable()
    start = time.perf_counter()
    cell.submit(runner)
    verify_start = time.perf_counter()
    report = cluster.verify() if cell.audit else None
    end = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    result.run_s += end - start
    if report is not None:
        result.verify_s += end - verify_start
        result.violations += len(report.violations)
        result.counts["verify.events_checked"] += report.events_checked
    result.sim_span += fold.last_finished - fold.first_started
    result.stale_commits += fold.tracker.stale_commits
    result.rules_final = max(result.rules_final, _read_counters(cluster, result.counts))
    result.digest = hashlib.sha256((result.digest + fold.sha.hexdigest()).encode()).hexdigest()


def run_pass(workload: Workload, seed: int, scale: float, profiler: Optional[Any] = None) -> Pass:
    """Set up and drive every cell of one pass.  ``profiler`` (a
    :class:`cProfile.Profile`) is enabled only while cells run."""
    result = Pass()
    start = time.perf_counter()
    cells = workload.build(seed, scale, result.counts)
    result.setup_s = time.perf_counter() - start
    for cell in cells:
        _drive(result, cell, profiler)
    return result


def time_setup(workload: Workload, seed: int, scale: float) -> float:
    """Host seconds to set up one pass, whose cells are then discarded."""
    start = time.perf_counter()
    workload.build(seed, scale, Counter())
    return time.perf_counter() - start


# -- wan-hotspot ---------------------------------------------------------------

#: Clusters per pass, and users (one transaction each) per cluster at scale 1.
WAN_CLUSTERS = 5
WAN_USERS = 1000
WAN_ARRIVAL_RATE = 0.4
#: Policy storms per region over a cluster's expected arrival horizon.
WAN_STORMS_PER_REGION = 6


def _wan_cell(seed: int, index: int, n_users: int, counts: Counter) -> Cell:
    config = CloudConfig(
        request_timeout=3000.0,
        obs_spans=False,
        streaming_metrics=True,
        live_telemetry=True,
        flight_recorder=True,
    )
    cluster = build_multiregion_cluster(
        shards_per_region=2,
        items_per_shard=64,
        replication_factor=2,
        seed=seed * 16 + index,
        config=config,
        trace=False,
    )
    spec = ScaleWorkloadSpec(
        n_users=n_users,
        arrival_rate=WAN_ARRIVAL_RATE,
        txn_length=2,
        read_fraction=0.85,
        zipf_skew=0.8,
        locality=0.9,
    )
    credentials = mint_user_credentials(cluster, n_users)
    schedule = iter_scale_workload(
        spec, cluster.shards, random.Random(f"wan-hotspot/{seed}/{index}/arrivals"), credentials
    )
    storms = storm_schedule(
        list(cluster.shards.regions),
        random.Random(f"wan-hotspot/{index}/storms"),
        horizon=n_users / WAN_ARRIVAL_RATE,
        mean_interval=n_users / WAN_ARRIVAL_RATE / WAN_STORMS_PER_REGION,
        updates_per_storm=3,
        spacing=2.0,
        mode="benign",
    )
    PolicyStormProcess(cluster, storms).start()
    _count_installs(cluster, counts)
    return Cell(
        cluster, "continuous", ConsistencyLevel.GLOBAL, lambda r: r.run_scheduled(schedule)
    )


def _wan_hotspot(seed: int, scale: float, counts: Counter) -> List[Cell]:
    """Independent copies of the multi-region reference cell: 3 regions x 2
    shards, replication 2, 64 Zipf(0.8)-hot items per shard, continuous/global,
    benign per-region storms."""
    n_users = max(1, round(WAN_USERS * scale))
    return [_wan_cell(seed, index, n_users, counts) for index in range(WAN_CLUSTERS)]


# -- policy-churn --------------------------------------------------------------

#: Clusters per pass, and transactions each runs at scale 1.  Each benign
#: update appends one marker fact, so the policy -- and the cost of every
#: install -- grows with the length of a cluster's run.
CHURN_CLUSTERS = 4
CHURN_TXNS = 200
CHURN_ARRIVAL_RATE = 0.1
CHURN_UPDATE_INTERVAL = 15.0


def _churn_cell(seed: int, index: int, count: int, counts: Counter) -> Cell:
    config = CloudConfig(obs_spans=False, streaming_metrics=True)
    cluster = build_cluster(
        n_servers=8, items_per_server=64, seed=seed * 16 + index, config=config, trace=False
    )
    rng = random.Random(f"policy-churn/{seed}/{index}/transactions")
    txns = uniform_transactions(
        WorkloadSpec(txn_length=6, read_fraction=0.5, count=count, user="alice"),
        cluster.catalog,
        rng,
        [cluster.issue_role_credential("alice")],
    )
    arrivals = poisson_arrivals(rng, CHURN_ARRIVAL_RATE, count)
    PolicyUpdateProcess(
        cluster,
        "app",
        interval=CHURN_UPDATE_INTERVAL,
        rng=random.Random(f"policy-churn/{index}/updates"),
        jitter=5.0,
        mode="benign",
    ).start()
    _count_installs(cluster, counts)
    return Cell(cluster, "continuous", ConsistencyLevel.GLOBAL, lambda r: r.run(txns, arrivals))


def _policy_churn(seed: int, scale: float, counts: Counter) -> List[Cell]:
    """One data center per cluster, 8 servers x 64 items, uniform 6-query
    transactions at 50% writes, continuous/global, a benign policy version
    every ~15 time units."""
    count = max(1, round(CHURN_TXNS * scale))
    return [_churn_cell(seed, index, count, counts) for index in range(CHURN_CLUSTERS)]


# -- audited-grid --------------------------------------------------------------

#: Transactions per cell at scale 1 (8 cells per pass).
GRID_TXNS = 400
GRID_ARRIVAL_RATE = 0.1
GRID_UPDATE_INTERVAL = 40.0


def _grid_cell(
    seed: int, index: int, count: int, approach: str, consistency: ConsistencyLevel, counts: Counter
) -> Cell:
    config = CloudConfig(obs_spans=True, live_telemetry=True, flight_recorder=True)
    cluster = build_cluster(
        n_servers=4, items_per_server=16, seed=seed * 16 + index, config=config, trace=True
    )
    rng = random.Random(f"audited-grid/{seed}/{index}/transactions")
    txns = uniform_transactions(
        WorkloadSpec(txn_length=3, read_fraction=0.7, count=count, user="alice"),
        cluster.catalog,
        rng,
        [cluster.issue_role_credential("alice")],
    )
    arrivals = poisson_arrivals(rng, GRID_ARRIVAL_RATE, count)
    PolicyUpdateProcess(
        cluster,
        "app",
        interval=GRID_UPDATE_INTERVAL,
        rng=random.Random(f"audited-grid/{index}/updates"),
        jitter=10.0,
        mode="benign",
    ).start()
    _count_installs(cluster, counts)
    return Cell(cluster, approach, consistency, lambda r: r.run(txns, arrivals), audit=True)


def _audited_grid(seed: int, scale: float, counts: Counter) -> List[Cell]:
    """The 4 approaches x 2 consistency levels, each on a fresh 4-server x
    16-item cluster with the tracer, spans, live telemetry and flight
    recorder on; ``Cluster.verify()`` audits every cell."""
    count = max(1, round(GRID_TXNS * scale))
    grid = [
        (approach, consistency)
        for approach in APPROACHES
        for consistency in (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)
    ]
    return [
        _grid_cell(seed, index, count, approach, consistency, counts)
        for index, (approach, consistency) in enumerate(grid)
    ]


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "wan-hotspot",
            WAN_ARRIVAL_RATE,
            "deliberately saturated: arrivals outpace service, lock waits outlast "
            "the RPC timeout and surface as participant_unreachable aborts",
            _wan_hotspot,
        ),
        Workload("policy-churn", CHURN_ARRIVAL_RATE, "below saturation", _policy_churn),
        Workload("audited-grid", GRID_ARRIVAL_RATE, "below saturation", _audited_grid),
    )
}
