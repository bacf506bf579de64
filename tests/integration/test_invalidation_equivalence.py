"""Predicate-precise invalidation's safety contract, end to end.

Precise invalidation may only change which cache entries survive a policy
install — never a verdict, a vote, a commit decision, a latency, or a
Table I counter.  Under a fixed seed, a precise-cached run must therefore
produce the same ``TransactionOutcome`` sequence as an uncached run (the
cache's reference) and as a run whose every install drops the whole domain
(the coarse drop, reached through :func:`tests.oracles.
use_coarse_invalidation`), for every approach and both consistency levels,
across benign and restricting policy storms (the two update shapes the
workloads publish).
"""

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.core.consistency import ConsistencyLevel

from tests.oracles import use_coarse_invalidation

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)


def outcomes(approach, level, *, enable_cache=True, update_mode="benign", seed=31):
    point = SweepPoint(
        approach=approach,
        consistency=level,
        n_servers=4,
        txn_length=4,
        n_transactions=8,
        update_interval=12.0,
        update_mode=update_mode,
        seed=seed,
        config_overrides={"enable_proof_cache": enable_cache},
    )
    return run_point(point).outcomes


def precise_coarse_uncached(monkeypatch, approach, level, **kwargs):
    precise = outcomes(approach, level, **kwargs)
    uncached = outcomes(approach, level, enable_cache=False, **kwargs)
    with monkeypatch.context() as patch:
        use_coarse_invalidation(patch)
        coarse = outcomes(approach, level, **kwargs)
    return precise, coarse, uncached


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("approach", APPROACHES)
def test_precise_equals_coarse_on_grid(monkeypatch, approach, level):
    precise, coarse, uncached = precise_coarse_uncached(monkeypatch, approach, level)
    assert precise == uncached
    assert precise == coarse


@pytest.mark.parametrize("approach", APPROACHES)
def test_precise_equals_coarse_under_restricting_storm(monkeypatch, approach):
    # "alternate" publishes guard-rewriting successors: the diff reaches
    # may_read/may_write, so precise invalidation must actually drop
    # entries here — and still change nothing observable.
    precise, coarse, uncached = precise_coarse_uncached(
        monkeypatch, approach, ConsistencyLevel.VIEW, update_mode="alternate"
    )
    assert precise == uncached
    assert precise == coarse


def test_precise_retains_under_benign_storm():
    # Benign successors only add a version-marker fact, so precise
    # invalidation should retain entries across installs (its whole point);
    # retention must be visible in the counters.
    from repro.policy.policy import PolicyId
    from repro.workloads.generator import WorkloadSpec, uniform_transactions
    from repro.workloads.testbed import build_cluster
    from repro.workloads.updates import benign_successor

    cluster = build_cluster(n_servers=2, items_per_server=4, seed=31)
    credential = cluster.issue_role_credential("alice")
    spec = WorkloadSpec(txn_length=4, read_fraction=1.0, count=4, user="alice")
    transactions = uniform_transactions(
        spec, cluster.catalog, cluster.rng.stream("workload"), [credential]
    )
    for txn in transactions[:2]:
        cluster.run_transaction(txn, "continuous")
    # Publish a benign successor to every server's store directly.
    pid = PolicyId("app")
    for server in cluster.servers.values():
        current = server.policies.current(pid)
        server.policies.apply(current.successor(benign_successor(current)))
    stats = cluster.metrics.proof_cache
    assert stats.retentions > 0
    assert stats.invalidations == 0
    for txn in transactions[2:]:
        cluster.run_transaction(txn, "continuous")
    assert stats.hits > 0
