"""The waiter-local deadlock search agrees with the whole-table reference.

:class:`repro.db.locks.LockManager` computes a transaction's wait-for
edges only when its cycle search reaches it, and ``release_all`` visits
only the keys the transaction queued on.
:class:`tests.oracles.FullScanLockManager` rebuilds the whole wait-for
graph on every wait and scans every lock queue on every release.  Driven
by the same operations, both must grant the same locks, pick the same
deadlock victims with the same cycle tuples, and fire cancellations in
the same order: the cycle tuple reaches abort reasons and traces, and the
firing order decides which handler wakes first.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.db.locks import LockManager, LockMode
from repro.sim.kernel import Environment
from repro.sim.tracing import Tracer

from tests.oracles import FullScanLockManager

KEYS = ("a", "b", "c")
TXNS = ("t1", "t2", "t3", "t4")

acquire = st.tuples(
    st.just("acquire"),
    st.sampled_from(TXNS),
    st.sampled_from(KEYS),
    st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE]),
)
release = st.tuples(st.just("release"), st.sampled_from(TXNS), st.none(), st.none())
run = st.tuples(st.just("run"), st.none(), st.none(), st.none())
#: Acquires dominate so queues grow long enough to close cycles.
operations = st.lists(
    st.one_of(acquire, acquire, acquire, release, run), min_size=1, max_size=40
)


def drive(manager_class, ops):
    """Apply ``ops``; return everything observable, in firing order."""
    env = Environment()
    tracer = Tracer()
    locks = manager_class(env, "s", tracer=tracer)
    fired = []

    def watch(label):
        def callback(event):
            error = event.exception
            if error is None:
                fired.append((label, "granted", event.value))
            else:
                fired.append((label, type(error).__name__, error.victim, error.cycle))
                event.defused = True

        return callback

    states = []
    for index, (op, txn, key, mode) in enumerate(ops):
        if op == "acquire":
            locks.acquire(txn, key, mode).callbacks.append(watch((index, txn, key)))
        elif op == "release":
            locks.release_all(txn)
        else:
            env.run()
        states.append(
            tuple((k, locks.holders(k), locks.mode(k), locks.waiting(k)) for k in KEYS)
        )
    env.run()
    trace = [(record.category, record.details) for record in tracer]
    return fired, states, trace


@given(operations)
@settings(max_examples=400, deadline=None)
def test_same_grants_victims_and_cancellations(ops):
    assert drive(LockManager, ops) == drive(FullScanLockManager, ops)


def both(ops):
    fired = drive(LockManager, ops)[0]
    assert drive(FullScanLockManager, ops)[0] == fired
    return fired


X, S = LockMode.EXCLUSIVE, LockMode.SHARED


def test_a_three_way_cycle_reports_the_same_tuple():
    fired = both(
        [
            ("acquire", "t1", "a", X),
            ("acquire", "t2", "b", X),
            ("acquire", "t3", "c", X),
            ("acquire", "t1", "b", X),
            ("acquire", "t2", "c", X),
            ("acquire", "t3", "a", X),
        ]
    )
    assert fired[-1] == ((5, "t3", "a"), "DeadlockError", "t3", ("t3", "t1", "t2"))


def test_the_first_cycle_in_sorted_neighbour_order_is_reported():
    # t3 waits for both sharers of "a"; each of them waits for t3.
    fired = both(
        [
            ("acquire", "t3", "b", X),
            ("acquire", "t3", "c", X),
            ("acquire", "t1", "a", S),
            ("acquire", "t2", "a", S),
            ("acquire", "t2", "c", X),
            ("acquire", "t1", "b", X),
            ("acquire", "t3", "a", X),
        ]
    )
    assert fired[-1] == ((6, "t3", "a"), "DeadlockError", "t3", ("t3", "t1"))


def test_cancellations_fire_in_lock_table_order():
    # "b" enters the lock table before "a"; t2 queues on "a" first.
    fired = both(
        [
            ("acquire", "t1", "b", X),
            ("acquire", "t1", "a", X),
            ("acquire", "t2", "a", X),
            ("acquire", "t2", "b", X),
            ("release", "t2", None, None),
        ]
    )
    assert [entry[-1] for entry in fired[2:]] == [("cancelled", "b"), ("cancelled", "a")]


def test_a_waiter_also_waits_for_earlier_waiters():
    # t3 queues on "a" behind t2, which waits for t3's "b".
    fired = both(
        [
            ("acquire", "t3", "b", X),
            ("acquire", "t1", "a", X),
            ("acquire", "t2", "a", X),
            ("acquire", "t2", "b", X),
            ("acquire", "t3", "a", X),
        ]
    )
    assert fired[-1] == ((4, "t3", "a"), "DeadlockError", "t3", ("t3", "t2"))
