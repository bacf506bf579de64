"""Tests for the parallel sweep engine (repro.analysis.parallel)."""

import multiprocessing
import os
import subprocess
import sys

from repro.analysis.parallel import (
    derive_seed,
    parallel_map,
    run_sweep,
    should_parallelize,
    with_derived_seeds,
)
from repro.analysis.sweep import SweepPoint, run_point, sweep
from repro.core.consistency import ConsistencyLevel


def small_grid():
    return [
        SweepPoint(
            approach=approach,
            consistency=level,
            n_servers=3,
            txn_length=3,
            n_transactions=4,
            update_interval=interval,
            seed=17,
        )
        for approach in ("deferred", "continuous")
        for level in (ConsistencyLevel.VIEW, ConsistencyLevel.GLOBAL)
        for interval in (None, 20.0)
    ]


def square(x):
    return x * x


def die_in_worker(x):
    # Kills the hosting process only when it's a pool worker; under the
    # serial fallback (main process) it computes normally, so the test can
    # observe a worker crash followed by a successful serial re-run.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x + 100


class TestSeedDerivation:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)
        assert derive_seed(42, 0) != derive_seed(42, 1)
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_with_derived_seeds_replaces_in_order(self):
        points = small_grid()[:3]
        seeded = with_derived_seeds(points, base_seed=7)
        assert [p.seed for p in seeded] == [derive_seed(7, i) for i in range(3)]
        # Everything except the seed is untouched; originals are not mutated.
        assert all(p.approach == q.approach for p, q in zip(points, seeded))
        assert all(p.seed == 17 for p in points)


class TestParallelMap:
    def test_ordered_results(self):
        items = list(range(12))
        assert parallel_map(square, items, max_workers=3) == [x * x for x in items]

    def test_single_worker_runs_serial(self):
        assert parallel_map(square, [1, 2, 3], max_workers=1) == [1, 4, 9]

    def test_worker_death_falls_back_to_serial(self):
        # The pool dies (every worker exits), then the serial fallback
        # computes the real answers in the parent process.
        result = parallel_map(die_in_worker, [1, 2, 3], max_workers=2)
        assert result == [101, 102, 103]

    def test_unpicklable_fn_falls_back_to_serial(self):
        def local_fn(x):  # closures can't be sent to workers
            return x * 10

        assert parallel_map(local_fn, [1, 2], max_workers=2) == [10, 20]

    def test_unpicklable_payload_does_not_hang_interpreter_exit(self):
        # Regression: feeding an unpicklable payload to the executor's call
        # queue kills the queue feeder thread; workers then never receive
        # shutdown sentinels and interpreter exit blocks forever on the
        # management-thread join.  parallel_map pre-pickles payloads so the
        # queue only ever carries bytes — the interpreter must exit cleanly.
        script = (
            "from repro.analysis.parallel import parallel_map\n"
            "def main():\n"
            "    local = lambda x: x * 10\n"
            "    print(parallel_map(local, [1, 2], max_workers=2))\n"
            "main()\n"
            "print('CLEAN-EXIT')\n"
        )
        src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
            "src",
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=90,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN-EXIT" in proc.stdout


class TestRunSweep:
    # small_grid() is far below the cost gate, so run_sweep keeps it
    # in-process; parallel_map is called directly to reach the pool.

    def test_parallel_equals_serial(self):
        points = small_grid()
        assert not should_parallelize(points, 2)
        serial = sweep(points)
        pooled = parallel_map(run_point, points, max_workers=2)
        assert run_sweep(points, max_workers=2) == serial
        assert len(serial) == len(pooled)
        for s, p in zip(serial, pooled):
            assert s.point == p.point
            assert s.outcomes == p.outcomes

    def test_repeated_runs_are_deterministic(self):
        points = small_grid()[:2]
        first = parallel_map(run_point, points, max_workers=2)
        second = parallel_map(run_point, points, max_workers=2)
        assert [r.outcomes for r in first] == [r.outcomes for r in second]
