"""The calendar event queue's safety contract, end to end.

The kernel's hybrid queue promotes from a heap to a bucketed calendar queue
once enough events are pending; both realize the same
``(time, priority, sequence)`` order, so which structure holds the events
must never show in a run.  Under a fixed seed, a cluster whose queue is a
calendar from the first event (``promote_at=0``) and one pinned to the
plain heap (``promote_at=math.inf``) must produce identical
``TransactionOutcome`` sequences for every approach and both consistency
levels, with policy churn on.
"""

import math

import pytest

from repro.analysis.sweep import SweepPoint, run_point
from repro.core.consistency import ConsistencyLevel

from tests.oracles import force_kernel

APPROACHES = ("deferred", "punctual", "incremental", "continuous")
LEVELS = (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)


def outcomes(monkeypatch, approach, level, promote_at):
    point = SweepPoint(
        approach=approach,
        consistency=level,
        n_servers=4,
        txn_length=4,
        n_transactions=8,
        update_interval=15.0,
        seed=61,
    )
    with monkeypatch.context() as patch:
        force_kernel(patch, promote_at=promote_at)
        return run_point(point).outcomes


@pytest.mark.parametrize("level", LEVELS, ids=lambda l: l.value)
@pytest.mark.parametrize("approach", APPROACHES)
def test_heap_equals_promoted_calendar(monkeypatch, approach, level):
    heap = outcomes(monkeypatch, approach, level, promote_at=math.inf)
    calendar = outcomes(monkeypatch, approach, level, promote_at=0)
    assert heap
    assert heap == calendar
