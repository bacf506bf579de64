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
"""

from __future__ import annotations

from dataclasses import replace

from repro.policy.proofcache import ProofCache
from repro.policy.proofs import evaluate_proof
from repro.policy.rules_reference import naive_view
from repro.sim.kernel import Environment


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
