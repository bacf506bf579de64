"""Policy-update and credential-revocation injectors.

The trade-off analysis of Section VI-B pivots on the *policy update
interval* relative to transaction length.  :class:`PolicyUpdateProcess`
publishes a new policy version on a configurable schedule while
transactions run; revocation helpers inject the credential-invalidation
events of the Bob scenario (Section II).

Two kinds of successors:

* **benign** — semantics unchanged, only the version number moves.  These
  exercise the consistency machinery (extra 2PV rounds, Incremental aborts)
  without changing any authorization outcome.
* **restricting** — the required role changes, so proofs built from the old
  role credential flip to FALSE under the new version.  These exercise the
  TRUE/FALSE voting paths.
"""

from __future__ import annotations

import random
from typing import Generator, List, Optional, Sequence

from repro.policy.policy import Policy
from repro.policy.rules import Atom, Rule, RuleSet, Variable
from repro.sim.events import Event
from repro.workloads.testbed import Cluster


def benign_successor(policy: Policy) -> RuleSet:
    """A rule set semantically identical to ``policy``'s (version churn only).

    The returned rule set contains the same rules plus an inert marker rule
    (a fresh nullary fact), so it compares unequal to the original while
    granting exactly the same accesses.
    """
    marker = Rule(Atom(f"revision_{policy.version + 1}", ()))
    return policy.rules.extended((marker,))


def restricting_successor(policy: Policy, required_role: str) -> RuleSet:
    """Tighten the member policy: only ``required_role`` holders get access.

    Non-guard rules (e.g. the ``item(i)`` facts) are preserved; the
    ``may_read``/``may_write`` guard rules are rewritten to demand the new
    role.
    """
    user, item = Variable("U"), Variable("I")
    kept = [
        rule
        for rule in policy.rules.rules
        if rule.head.predicate not in ("may_read", "may_write")
    ]
    guards = [
        Rule(
            Atom(predicate, (user, item)),
            (Atom("role", (user, required_role)), Atom("item", (item,))),
        )
        for predicate in ("may_read", "may_write")
    ]
    return RuleSet(guards + kept)


class PolicyUpdateProcess:
    """Publishes policy versions at (possibly jittered) regular intervals.

    Three modes, matching the regimes the trade-off analysis needs:

    * ``"benign"`` — pure version churn: each update is semantically
      identical, only ``ver(P)`` moves.  Exercises the consistency
      machinery (extra 2PV/2PVC rounds, Incremental's aborts) without ever
      flipping an authorization outcome.
    * ``"alternate"`` — tighten to ``restrict_to_role``, then restore to
      the member policy, repeatedly.  Outcomes flip on every update.
    * ``"transient"`` — each update tightens to ``restrict_to_role`` and a
      restore follows ``deny_window`` time units later; the policy is
      "bad" only inside short windows.  Models occasional incidents.
    """

    def __init__(
        self,
        cluster: Cluster,
        admin_name: str,
        interval: float,
        rng: Optional[random.Random] = None,
        jitter: float = 0.0,
        restrict_to_role: Optional[str] = None,
        count: Optional[int] = None,
        mode: str = "alternate",
        deny_window: float = 10.0,
    ) -> None:
        if mode not in ("benign", "alternate", "transient"):
            raise ValueError(f"unknown update mode {mode!r}")
        self.cluster = cluster
        self.admin_name = admin_name
        self.interval = interval
        self.rng = rng or random.Random(0)  # verify: ignore[DET005] -- seeded default keeps un-wired injectors deterministic
        self.jitter = jitter
        self.restrict_to_role = restrict_to_role
        self.count = count
        self.mode = mode if restrict_to_role is not None else "benign"
        self.deny_window = deny_window
        self.published: List[Policy] = []

    def start(self) -> "Process":  # noqa: F821 - repro.sim.process.Process
        """Launch the update process in the cluster's environment."""
        return self.cluster.env.process(self._run(), name=f"updates[{self.admin_name}]")

    def _publish(self, rules: RuleSet, label: str) -> None:
        policy = self.cluster.publish(self.admin_name, rules, description=label)
        self.published.append(policy)

    def _run(self) -> Generator[Event, None, None]:
        from repro.workloads.testbed import MEMBER_ROLE  # local import: avoid cycle

        published = 0
        while self.count is None or published < self.count:
            delay = self.interval
            if self.jitter:
                delay = max(0.0, delay + self.rng.uniform(-self.jitter, self.jitter))
            yield self.cluster.env.timeout(delay)
            current = self.cluster.admin(self.admin_name).current
            if self.mode == "benign":
                self._publish(benign_successor(current), f"benign #{published + 1}")
            elif self.mode == "alternate":
                role = self.restrict_to_role if published % 2 == 0 else MEMBER_ROLE
                self._publish(
                    restricting_successor(current, role), f"alternate #{published + 1}"
                )
            else:  # transient: tighten now, restore after the deny window
                self._publish(
                    restricting_successor(current, self.restrict_to_role),
                    f"tighten #{published + 1}",
                )
                yield self.cluster.env.timeout(self.deny_window)
                restored = self.cluster.admin(self.admin_name).current
                self._publish(
                    restricting_successor(restored, MEMBER_ROLE),
                    f"restore #{published + 1}",
                )
            published += 1


def revoke_at(
    cluster: Cluster,
    issuer: str,
    cred_id: str,
    at_time: float,
    reason: str = "injected",
) -> None:
    """Schedule a credential revocation at an absolute simulation time.

    The revocation is recorded at the issuing CA exactly at ``at_time``
    (revocation state lives at the CA, so no network delivery is involved —
    servers observe it through status checks, as in the paper's OCSP model).
    """

    def _do() -> Generator[Event, None, None]:
        delay = at_time - cluster.env.now
        if delay > 0:
            yield cluster.env.timeout(delay)
        authority = cluster.registry.get(issuer)
        if authority is None:
            raise KeyError(f"unknown issuer {issuer!r}")
        authority.revoke(cred_id, cluster.env.now, reason)

    cluster.env.process(_do(), name=f"revoke[{cred_id}]")
