"""The engine swap's safety contract, end to end.

Under a fixed seed, a run proved by the indexed/tabled engine and a run
proved by the naive reference resolver must produce **identical**
``TransactionOutcome`` sequences — for every enforcement approach and both
consistency levels, with and without policy churn, with the proof cache on
or off.  The engine choice may only change host CPU; it must never change a
verdict, a 2PV/2PVC vote, a commit decision, or a Table I counter.  The
naive runs reach the reference through :func:`tests.oracles.use_naive_resolver`.
"""

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.core.consistency import ConsistencyLevel

from tests.oracles import use_naive_resolver

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)


def outcomes(approach, level, *, update_interval=None, enable_cache=True):
    point = SweepPoint(
        approach=approach,
        consistency=level,
        n_servers=4,
        txn_length=4,
        n_transactions=8,
        update_interval=update_interval,
        seed=37,
        config_overrides={"enable_proof_cache": enable_cache},
    )
    return run_point(point).outcomes


def indexed_and_naive(monkeypatch, approach, level, **kwargs):
    indexed = outcomes(approach, level, **kwargs)
    with monkeypatch.context() as patch:
        use_naive_resolver(patch)
        naive = outcomes(approach, level, **kwargs)
    return indexed, naive


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("approach", APPROACHES)
def test_indexed_equals_naive(monkeypatch, approach, level):
    indexed, naive = indexed_and_naive(monkeypatch, approach, level)
    assert indexed == naive


@pytest.mark.parametrize("approach", APPROACHES)
def test_indexed_equals_naive_under_policy_churn(monkeypatch, approach):
    # Policy updates re-prove under fresh versions mid-run; the engines
    # must stay in lockstep across version churn and cache invalidation.
    indexed, naive = indexed_and_naive(
        monkeypatch, approach, ConsistencyLevel.VIEW, update_interval=15.0
    )
    assert indexed == naive


def test_indexed_equals_naive_uncached(monkeypatch):
    # Without the proof cache every evaluation walks the engine, so this
    # exercises the resolvers hardest.
    indexed, naive = indexed_and_naive(
        monkeypatch, "continuous", ConsistencyLevel.VIEW, enable_cache=False
    )
    assert indexed == naive
