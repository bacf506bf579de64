"""Seeded property test: the proof cache is transparent under churn.

Random sequences of evaluations (under the installed version or a pinned
older one), in-order, skipping and stale policy installs (benign and
restricting), and credential revocations drive one :class:`ProofCache`,
with and without an LRU bound.  Three properties hold at every step:

* every proof the cache returns equals a fresh :func:`evaluate_proof`
  except for ``query_id``, ``server`` and ``evaluated_at`` (credentials
  are presented in one canonical order: the key ignores presentation
  order, and a hit replays the order of the evaluation it memoized);
* an effective install retains exactly the outgoing-version entries whose
  dependency closure (the analyzer's :class:`PredicateGraph`, recomputed
  here) is disjoint from the rule-level diff, and drops everything else of
  the domain;
* the domain and credential indexes cover exactly the live entries.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.metrics.counters import ProofCacheCounters
from repro.policy.analyze import PredicateGraph, clauses_from_rules
from repro.policy.credentials import CARegistry, CertificateAuthority
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy, PolicyId
from repro.policy.proofcache import ProofCache
from repro.policy.proofs import evaluate_proof
from repro.policy.rules import Atom, Rule
from repro.policy.store import PolicyStore
from repro.workloads.testbed import member_policy_rules
from repro.workloads.updates import restricting_successor

ITEMS = ("inventory", "ledger", "archive")
USERS = ("alice", "bob", "carol")
ROLES = ("member", "auditor")
STEPS = 150


def reference_changed(old: Policy, new: Policy) -> frozenset:
    return frozenset(
        rule.head.predicate for rule in set(old.rules.rules) ^ set(new.rules.rules)
    )


def reference_deps(policy: Policy, operation_value: str) -> frozenset:
    graph = PredicateGraph(clauses_from_rules(policy.rules))
    return frozenset(graph.reachable_from((GUARD_PREDICATES[Operation(operation_value)],)))


class World:
    def __init__(self, seed: int, capacity):
        self.rng = random.Random(seed)
        self.ca = CertificateAuthority("ca")
        self.registry = CARegistry([self.ca])
        self.stats = ProofCacheCounters()
        self.cache = ProofCache(stats=self.stats, server="s1", capacity=capacity)
        self.registry.subscribe_revocations(
            lambda record: self.cache.invalidate_credential(record.cred_id)
        )
        base = Policy(PolicyId("app"), 1, member_policy_rules(ITEMS))
        self.versions = {1: base}
        self.pending = []
        self.store = PolicyStore([base])
        self.store.subscribe(self.cache.invalidate_policy)
        self.now = 0.0
        self.credentials = []
        for user in USERS:
            for role in ROLES:
                if self.rng.random() < 0.7:
                    expires = self.rng.choice([float("inf"), self.rng.uniform(20.0, 150.0)])
                    self.credentials.append(
                        self.ca.issue(
                            user,
                            Atom("role", (user, role)),
                            issued_at=self.rng.uniform(0.0, 5.0),
                            expires_at=expires,
                        )
                    )
        self.revoked = set()
        self.queries = 0
        #: Recently asked (user, operation, items, credentials), re-asked
        #: half of the time so that hits happen.
        self.recent = []

    # -- operations -------------------------------------------------------------

    def evaluate(self) -> None:
        rng = self.rng
        self.now += rng.uniform(0.0, 2.0)
        current = self.store.current(PolicyId("app"))
        policy = current
        if rng.random() < 0.2:
            policy = self.versions[rng.randint(1, current.version)]
        if self.recent and rng.random() < 0.5:
            user, operation, items, credentials = rng.choice(self.recent[-4:])
        else:
            user = rng.choice(USERS)
            operation = rng.choice(list(Operation))
            items = tuple(rng.sample(ITEMS, rng.randint(1, 2)))
            credentials = [c for c in self.credentials if rng.random() < 0.4]
            self.recent.append((user, operation, items, credentials))
        self.queries += 1
        args = dict(
            policy=policy,
            user=user,
            operation=operation,
            items=items,
            credentials=credentials,
            now=self.now,
            registry=self.registry,
        )
        cached = self.cache.evaluate(query_id=f"q{self.queries}", server="s1", **args)
        fresh = evaluate_proof(query_id="fresh", server="elsewhere", **args)
        assert replace(
            cached, query_id="fresh", server="elsewhere", evaluated_at=self.now
        ) == fresh

    def publish(self) -> None:
        latest = self.versions[max(self.versions)]
        if self.rng.random() < 0.6:
            marker = Rule(Atom(f"revision_{latest.version + 1}", ()))
            rules = latest.rules.extended((marker,))
        else:
            rules = restricting_successor(latest, self.rng.choice(ROLES))
        policy = latest.successor(rules)
        self.versions[policy.version] = policy
        self.pending.append(policy)

    def deliver(self) -> None:
        if not self.pending:
            self.publish()
        policy = self.pending.pop(self.rng.randrange(len(self.pending)))
        previous = self.store.current(PolicyId("app"))
        if policy.version <= previous.version:
            before = (len(self.cache), self.stats.invalidations, self.stats.retentions)
            assert not self.store.apply(policy)  # stale delivery: ignored
            assert (len(self.cache), self.stats.invalidations, self.stats.retentions) == before
            return
        changed = reference_changed(previous, policy)
        keys = list(self.cache._entries)
        expected = sum(
            1
            for key in keys
            if key[1] == previous.version
            and reference_deps(self.versions[key[1]], key[3]).isdisjoint(changed)
        )
        retentions, invalidations = self.stats.retentions, self.stats.invalidations
        assert self.store.apply(policy)
        assert self.stats.retentions - retentions == expected
        assert self.stats.invalidations - invalidations == len(keys) - expected
        assert len(self.cache) == expected
        assert all(key[1] == policy.version for key in self.cache._entries)

    def revoke(self) -> None:
        live = [c for c in self.credentials if c.cred_id not in self.revoked]
        if not live:
            return
        credential = self.rng.choice(live)
        self.revoked.add(credential.cred_id)
        self.ca.revoke(credential.cred_id, at_time=self.now + self.rng.choice([0.0, 3.0]))
        assert all(credential.cred_id not in key[5] for key in self.cache._entries)

    # -- invariants -------------------------------------------------------------

    def check_indexes(self) -> None:
        cache = self.cache
        live = list(cache._entries.values())
        assert all(entry.key is key for key, entry in cache._entries.items())
        by_domain = [entry for domain in cache._by_policy.values() for entry in domain]
        assert sorted(map(id, by_domain)) == sorted(map(id, live))
        for domain in cache._by_policy.values():
            # Each domain lists its entries in the global LRU order.
            order = [entry for entry in live if entry in domain]
            assert list(domain) == order
        for cred_id, entries in cache._by_credential.items():
            assert entries
            assert all(cred_id in entry.key[5] for entry in entries)
        expected = sum(len(entry.key[5]) for entry in live)
        assert sum(len(entries) for entries in cache._by_credential.values()) == expected
        if cache.capacity is not None:
            assert len(cache) <= cache.capacity


@pytest.mark.parametrize("capacity", [None, 4], ids=["unbounded", "capacity4"])
@pytest.mark.parametrize("seed", range(20))
def test_cache_is_transparent_under_random_churn(seed, capacity):
    world = World(seed, capacity)
    operations = [world.evaluate] * 6 + [world.publish, world.deliver, world.deliver, world.revoke]
    for _ in range(STEPS):
        world.rng.choice(operations)()
        world.check_indexes()
    assert world.stats.hits > 0 and world.stats.misses > 0
