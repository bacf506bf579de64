"""Version-aware memoization of proof-of-authorization evaluation.

The four enforcement approaches differ precisely in *how often* proofs are
(re)evaluated: Continuous re-proves every earlier query after each new
operation, Deferred and Punctual re-prove everything at commit, and extra
2PV validation rounds re-prove again after policy updates (Table I).  Each
of those evaluations is a pure function of

* the policy (id **and version** — versions are the paper's consistency
  currency, so they are first-class in the key),
* the query content (user, operation, touched items),
* the set of presented credentials, and
* the revocation checker's knowledge
  (:meth:`~repro.policy.proofs.RevocationChecker.cache_token`),

plus the evaluation time ``now``.  Time only matters when it crosses a
credential *validity boundary* (issue instant, expiry instant, revocation
instant), so a cached verdict may be replayed for any ``now`` inside the
boundary-free window around the original evaluation.  :class:`ProofCache`
memoizes on exactly that key and window, which is why caching can never
change a 2PV/2PVC vote — see ``docs/performance.md`` for the full safety
argument.

Explicit invalidation hooks keep the cache honest against the two external
mutations that *can* change verdicts without any key changing:

* **policy installs** — :meth:`repro.policy.store.PolicyStore.subscribe`
  calls :meth:`ProofCache.invalidate_policy` whenever a newer version is
  installed.  Old-version entries could no longer hit — their key pins the
  version — so the hook diffs the outgoing and incoming rule sets
  (:func:`repro.policy.analyze.changed_predicates`) and *relabels* to
  the new version every entry whose recorded dependency closure the diff
  provably cannot affect, dropping only the rest (an install it cannot
  diff drops the whole domain);
* **credential revocations** — :meth:`repro.policy.credentials.CARegistry.
  subscribe_revocations` calls :meth:`ProofCache.invalidate_credential`,
  dropping every entry whose credential set contains the revoked id.

The cache is deliberately **transparent to the simulation**: a hit still
consumes the configured ``proof_evaluation_time`` of simulated time and
still increments the Table I proof counters.  What it saves is *host* CPU
(signature hashing + derivation-tree search), which is what the wall-clock
benchmarks measure.  Enable/disable via
:attr:`repro.cloud.config.CloudConfig.enable_proof_cache`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.spans import Span, annotate
from repro.policy.analyze import changed_predicates, dependency_closure
from repro.policy.credentials import CARegistry, Credential
from repro.policy.policy import GUARD_PREDICATES, Operation, Policy
from repro.policy.proofs import (
    LocalRevocationChecker,
    ProofOfAuthorization,
    RevocationChecker,
    evaluate_proof,
)

#: (policy admin, policy version, user, operation value, items, credential
#:  ids, revocation-checker identity) — everything a verdict depends on
#: besides the position of ``now`` relative to credential validity
#: boundaries.  The admin and operation appear as their strings, so hashing
#: a key never calls back into Python.
CacheKey = Tuple[str, int, str, str, Tuple[str, ...], FrozenSet[str], object]


class _Entry:
    """One memoized evaluation with its temporal validity window.

    Indexed by identity, so relabelling it to a new policy version (a new
    ``key``) leaves the domain and credential indexes untouched.
    """

    __slots__ = ("key", "proof", "window_start", "window_end", "deps")

    def __init__(
        self,
        key: CacheKey,
        proof: ProofOfAuthorization,
        window_start: float,
        window_end: float,
        deps: FrozenSet[str],
    ) -> None:
        self.key = key
        #: As evaluated; its ``policy_version`` may trail ``key`` after a
        #: relabel, and a hit stamps the served version.
        self.proof = proof
        #: Verdicts are constant for ``window_start <= now < window_end``.
        self.window_start = window_start
        self.window_end = window_end
        #: Every predicate this proof's derivation may have consulted: the
        #: downward closure of the goal predicate over the policy version the
        #: proof was evaluated under (see
        #: :func:`repro.policy.analyze.dependency_closure`).  Captured at store
        #: time so a later policy install can decide whether this entry could
        #: possibly be affected by the diff.
        self.deps = deps


class ProofCache:
    """Per-server memo table for :func:`repro.policy.proofs.evaluate_proof`.

    ``stats`` is duck-typed (``on_hit``/``on_miss``/``on_bypass``/
    ``on_invalidation``, each taking the server name, plus an optional
    ``on_retention`` for entries a precise install *kept*); pass
    :class:`repro.metrics.counters.ProofCacheCounters` to export hit/miss/
    invalidation counts, or ``None`` to run unmetered.  ``capacity`` bounds
    the entry count with LRU eviction (``None`` = unbounded; simulations
    are finite, but long-running sweeps may want a ceiling).

    A version install keeps — relabelled to the new version — every entry
    whose dependency closure is disjoint from the install's changed
    predicates (see :meth:`invalidate_policy` and
    ``docs/policy-analysis.md`` for the soundness argument); the reference
    it is equivalence-tested against is no cache at all
    (``CloudConfig.enable_proof_cache=False``).
    """

    def __init__(
        self,
        stats: Optional[object] = None,
        server: str = "",
        capacity: Optional[int] = None,
    ) -> None:
        self.stats = stats
        self.server = server
        self.capacity = capacity
        #: Every entry, least recently used first.
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        #: Each domain's entries in the same relative order as ``_entries``.
        self._by_policy: Dict[str, "OrderedDict[_Entry, None]"] = {}
        self._by_credential: Dict[str, Dict[_Entry, None]] = {}

    # -- the memoized entry point -------------------------------------------------

    def evaluate(
        self,
        policy: Policy,
        query_id: str,
        user: str,
        operation: Operation,
        items: Sequence[str],
        credentials: Sequence[Credential],
        server: str,
        now: float,
        registry: CARegistry,
        revocation: Optional[RevocationChecker] = None,
        counters: Optional[object] = None,
        obs_span: Optional[Span] = None,
    ) -> ProofOfAuthorization:
        """``evaluate_proof`` with memoization; verdict-identical to it.

        On a hit, the cached record is replayed with the caller's fresh
        ``query_id``, ``server``, and ``evaluated_at`` (those fields don't
        influence the verdict) and with ``policy``'s version, which a
        relabelled entry's stored proof predates.  Anything that can't be
        keyed safely — an uncacheable checker, a malformed credential
        object — bypasses the cache and evaluates directly.  ``counters`` (an
        :class:`~repro.policy.rules.EngineCounters`) is forwarded to the
        inference engine on misses and bypasses; hits do no inference, so
        they add nothing to it.  ``obs_span`` gets a ``cache`` attribute
        (``hit``/``miss``/``bypass``) plus the verdict.
        """
        revocation = revocation or LocalRevocationChecker(registry)
        key = self._key(policy, user, operation, items, credentials, revocation)
        if key is None:
            if self.stats is not None:
                self.stats.on_bypass(self.server)
            annotate(obs_span, cache="bypass")
            return evaluate_proof(
                policy, query_id, user, operation, items, credentials,
                server, now, registry, revocation, counters, obs_span,
            )

        entry = self._entries.get(key)
        if entry is not None and entry.window_start <= now < entry.window_end:
            self._entries.move_to_end(key)
            self._by_policy[key[0]].move_to_end(entry)
            if self.stats is not None:
                self.stats.on_hit(self.server)
            proof = replace(
                entry.proof,
                query_id=query_id,
                server=server,
                evaluated_at=now,
                policy_version=policy.version,
            )
            annotate(
                obs_span,
                cache="hit",
                granted=proof.granted,
                reason=proof.reason,
                version=proof.policy_version,
            )
            return proof

        annotate(obs_span, cache="miss")
        proof = evaluate_proof(
            policy, query_id, user, operation, items, credentials,
            server, now, registry, revocation, counters, obs_span,
        )
        window_start, window_end = self._validity_window(credentials, now, revocation)
        deps = dependency_closure(policy.rules, (GUARD_PREDICATES[operation],))
        self._store(key, proof, window_start, window_end, deps)
        if self.stats is not None:
            self.stats.on_miss(self.server)
        return proof

    # -- invalidation hooks ----------------------------------------------------------

    def invalidate_policy(
        self, policy: Policy, previous: Optional[Policy] = None
    ) -> int:
        """React to an install of ``policy``; returns entries dropped.

        Wired to :meth:`PolicyStore.subscribe`, which passes the version
        ``previous``\\ ly held by the same store (``None`` on first
        install).  An install whose provenance we can't establish drops
        the whole administrative domain.  Otherwise the hook diffs the two
        versions (:func:`~repro.policy.analyze.changed_predicates`) and
        *keeps* every entry of the outgoing
        version whose captured dependency closure is disjoint from the
        changed predicates, relabelling it to the new version number: such
        an entry's reachable rule fragment is rule-for-rule identical
        under both versions, so a fresh evaluation under ``policy`` would
        reproduce the cached verdict, derivations, and reason exactly
        (``docs/policy-analysis.md`` § soundness).  Entries pinned to any
        *other* version are always dropped — they are stale deliveries we
        never diffed against.
        """
        domain = self._by_policy.get(policy.admin)
        if domain is None:
            return 0
        if (
            previous is None
            or previous.policy_id != policy.policy_id
            or previous.version >= policy.version
        ):
            return self._drop(list(domain))

        changed = changed_predicates(previous.rules, policy.rules)
        kept: List[_Entry] = []
        dropped: List[_Entry] = []
        for entry in domain:
            if entry.key[1] == previous.version and changed.isdisjoint(entry.deps):
                kept.append(entry)
            else:
                dropped.append(entry)
        # Drop first, so no relabelled key can collide with a dropped one.
        count = self._drop(dropped)
        for entry in kept:
            self._relabel(entry, policy.version)
        if kept:
            on_retention = getattr(self.stats, "on_retention", None)
            if on_retention is not None:
                on_retention(self.server, len(kept))
        return count

    def invalidate_credential(self, cred_id: str) -> int:
        """Drop every entry whose credential set contains ``cred_id``.

        Wired to :meth:`CARegistry.subscribe_revocations`; revocation is
        the one mutation that changes a verdict while every key component
        stays equal, so this hook is load-bearing for correctness.
        """
        return self._drop(list(self._by_credential.get(cred_id, {})))

    def clear(self) -> int:
        """Drop everything (counted as invalidations)."""
        count = len(self._entries)
        self._entries.clear()
        self._by_policy.clear()
        self._by_credential.clear()
        if count and self.stats is not None:
            self.stats.on_invalidation(self.server, count)
        return count

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ------------------------------------------------------------------

    def _key(
        self,
        policy: Policy,
        user: str,
        operation: Operation,
        items: Sequence[str],
        credentials: Sequence[Credential],
        revocation: RevocationChecker,
    ) -> Optional[CacheKey]:
        token = revocation.cache_token()
        if token is None:
            return None
        cred_ids = []
        for credential in credentials:
            if not isinstance(credential, Credential):
                return None  # malformed objects: fail open to direct evaluation
            cred_ids.append(credential.cred_id)
        return (
            policy.admin,
            policy.version,
            user,
            operation.value,
            tuple(items),
            frozenset(cred_ids),
            token,
        )

    @staticmethod
    def _boundaries(
        credential: Credential, revocation: RevocationChecker
    ) -> Iterator[float]:
        yield credential.issued_at
        if credential.expires_at != float("inf"):
            yield credential.expires_at
        revoked_at = revocation.revocation_boundary(credential)
        if revoked_at is not None:
            yield revoked_at

    def _validity_window(
        self,
        credentials: Sequence[Credential],
        now: float,
        revocation: RevocationChecker,
    ) -> Tuple[float, float]:
        """Largest ``[start, end)`` around ``now`` free of validity flips.

        Every validity predicate flips exactly *at* its boundary b (valid
        from ``issued_at``, expired from ``expires_at``, revoked from
        ``revoked_at``), so verdicts are constant on the half-open interval
        between the nearest boundary at-or-before ``now`` and the nearest
        one strictly after it.
        """
        start, end = float("-inf"), float("inf")
        for credential in credentials:
            for boundary in self._boundaries(credential, revocation):
                if boundary <= now:
                    start = max(start, boundary)
                else:
                    end = min(end, boundary)
        return start, end

    def _relabel(self, entry: _Entry, version: int) -> None:
        """Carry ``entry`` over to ``version`` of the same policy.

        Only called when the entry's dependency closure is untouched by
        the diff, which also means the closure itself is identical under
        the new version — so ``deps`` carries over unchanged.  The entry
        moves to the most-recent end of the LRU order (deterministically:
        callers go through a domain in LRU order).
        """
        key = entry.key
        del self._entries[key]
        entry.key = (key[0], version, key[2], key[3], key[4], key[5], key[6])
        self._entries[entry.key] = entry
        self._by_policy[key[0]].move_to_end(entry)

    def _store(
        self,
        key: CacheKey,
        proof: ProofOfAuthorization,
        window_start: float,
        window_end: float,
        deps: FrozenSet[str],
    ) -> None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._by_policy[key[0]].move_to_end(entry)
            entry.proof, entry.window_start, entry.window_end = proof, window_start, window_end
            entry.deps = deps
            return
        entry = _Entry(key, proof, window_start, window_end, deps)
        self._entries[key] = entry
        self._by_policy.setdefault(key[0], OrderedDict())[entry] = None
        for cred_id in key[5]:
            self._by_credential.setdefault(cred_id, {})[entry] = None
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                _, evicted = self._entries.popitem(last=False)
                self._unindex(evicted)

    def _drop(self, entries: Iterable[_Entry]) -> int:
        dropped = 0
        for entry in entries:
            del self._entries[entry.key]
            self._unindex(entry)
            dropped += 1
        if dropped and self.stats is not None:
            self.stats.on_invalidation(self.server, dropped)
        return dropped

    def _unindex(self, entry: _Entry) -> None:
        admin = entry.key[0]
        domain = self._by_policy[admin]
        del domain[entry]
        if not domain:
            del self._by_policy[admin]
        for cred_id in entry.key[5]:
            entries = self._by_credential[cred_id]
            del entries[entry]
            if not entries:
                del self._by_credential[cred_id]
