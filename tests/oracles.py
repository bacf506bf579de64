"""Test-side routes onto the reference implementations the defaults replaced.

The simulator has one proof resolver, one proof-cache invalidation rule,
one event queue and one kernel allocator; the implementations they
replaced survive only as equivalence oracles.  Each helper here takes a
pytest ``monkeypatch`` (or one of its ``context()`` scopes) and reroutes
every cluster built afterwards onto a reference:

* :func:`use_naive_resolver` — every proof evaluation, cached or not, runs
  on the naive SLD resolver of :mod:`repro.policy.rules_reference`;
* :func:`use_coarse_invalidation` — every policy install drops its whole
  domain from the proof cache instead of only what the rule diff reaches;
* :func:`force_kernel` — every testbed :class:`~repro.sim.kernel.Environment`
  is built with the given constructor arguments (``promote_at=math.inf``
  pins the plain heap, ``promote_at=0`` forces the calendar queue from the
  first event, ``pooling=False`` turns off timeout recycling).

Two references are plain code rather than reroutes:

* :func:`reference_wire_size` / :func:`reference_message_size` — the
  recursive ``isinstance``-chain payload walk that the per-class sizer
  table of :mod:`repro.sim.topology` replaced;
* :class:`FullScanLockManager` — a lock manager whose deadlock search
  rebuilds the whole wait-for graph from every lock queue, and whose
  ``release_all`` scans the whole lock table, as before the search
  started from the waiter.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Optional, Set

from repro.db.locks import LockManager
from repro.errors import DeadlockError
from repro.policy.proofcache import ProofCache
from repro.policy.proofs import evaluate_proof
from repro.policy.rules_reference import naive_view
from repro.sim.kernel import Environment
from repro.sim.topology import DEFAULT_OBJECT_BYTES, MESSAGE_OVERHEAD_BYTES


def use_naive_resolver(monkeypatch) -> None:
    """Route the server's and the proof cache's evaluations to the reference."""
    # One view per distinct rule set, for as long as the patch is in place:
    # building a view re-indexes every rule.
    views = {}

    def naive_evaluate_proof(policy, *args, **kwargs):
        view = views.get(policy.rules)
        if view is None:
            view = views[policy.rules] = naive_view(policy.rules)
        return evaluate_proof(replace(policy, rules=view), *args, **kwargs)

    monkeypatch.setattr("repro.cloud.server.evaluate_proof", naive_evaluate_proof)
    monkeypatch.setattr("repro.policy.proofcache.evaluate_proof", naive_evaluate_proof)


def use_coarse_invalidation(monkeypatch) -> None:
    """Treat every policy install as one the proof cache cannot diff.

    The cache then drops the installed policy's whole domain, which is what
    every install did before installs were diffed.
    """
    invalidate = ProofCache.invalidate_policy
    monkeypatch.setattr(
        ProofCache,
        "invalidate_policy",
        lambda cache, policy, previous=None: invalidate(cache, policy),
    )


def force_kernel(monkeypatch, **forced) -> None:
    """Build every testbed environment with ``forced`` constructor arguments."""

    def environment(*args, **kwargs):
        return Environment(*args, **{**kwargs, **forced})

    monkeypatch.setattr("repro.workloads.testbed.Environment", environment)


def reference_wire_size(value: Any, _depth: int = 0) -> int:
    """The recursive wire-size walk :func:`repro.sim.topology.estimate_wire_size`
    must agree with byte for byte."""
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    wire_size = getattr(value, "__wire_size__", None)
    if wire_size is not None:
        return int(wire_size())
    if _depth >= 4:
        return DEFAULT_OBJECT_BYTES
    if isinstance(value, Mapping):
        total = 8
        for key, item in value.items():
            total += reference_wire_size(key, _depth + 1)
            total += reference_wire_size(item, _depth + 1)
        return total
    if isinstance(value, (tuple, list)):
        total = 8
        for item in value:
            total += reference_wire_size(item, _depth + 1)
        return total
    return DEFAULT_OBJECT_BYTES


def reference_message_size(payload: Mapping[str, Any]) -> int:
    return MESSAGE_OVERHEAD_BYTES + reference_wire_size(payload)


class FullScanLockManager(LockManager):
    """:class:`LockManager` with the whole-table deadlock search and release."""

    def release_all(self, txn_id: str) -> None:
        for key, state in self._locks.items():
            for entry in state.queue:
                if entry.txn_id == txn_id and not entry.event.triggered:
                    entry.event.fail(
                        DeadlockError(victim=txn_id, cycle=("cancelled", key))
                    )
                    self.obs.finish(entry.span, self.env.now, status="cancelled")
            state.queue[:] = [
                entry
                for entry in state.queue
                if entry.txn_id != txn_id or entry.event.processed
            ]
        # Past the queues, release is the same: hand the rest to the base
        # class with nothing left for it to cancel.
        self._queued_by_txn.pop(txn_id, None)
        super().release_all(txn_id)

    def _wait_for_edges(self) -> Dict[str, Set[str]]:
        """Edges waiter → holder (and waiter → earlier incompatible waiter)."""
        edges: Dict[str, Set[str]] = {}
        for state in self._locks.values():
            for position, entry in enumerate(state.queue):
                if entry.event.triggered:
                    continue
                blockers = {holder for holder in state.holders if holder != entry.txn_id}
                for earlier in state.queue[:position]:
                    if not earlier.event.triggered and earlier.txn_id != entry.txn_id:
                        blockers.add(earlier.txn_id)
                if blockers:
                    edges.setdefault(entry.txn_id, set()).update(blockers)
        return edges

    def _find_cycle(self, start: str) -> Optional[List[str]]:
        edges = self._wait_for_edges()
        path: List[str] = []
        visited: Set[str] = set()

        def dfs(node: str) -> Optional[List[str]]:
            if node == start and path:
                return list(path)
            if node in visited:
                return None
            visited.add(node)
            path.append(node)
            for neighbour in sorted(edges.get(node, ())):
                found = dfs(neighbour)
                if found is not None:
                    return found
            path.pop()
            return None

        return dfs(start)
