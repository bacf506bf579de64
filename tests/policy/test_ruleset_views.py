"""Per-version views of :class:`RuleSet` and successors built by extension.

``RuleSet.extended`` must build exactly what ``RuleSet(parent.rules +
extra)`` builds -- same rules, equality, hash, candidate lists and
derivations -- whether or not the parent's lazy views (frozen rule set,
predicate closures, candidate lists) were computed before it was extended:
none of them may leak into the successor.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.policy.analyze import PredicateGraph, clauses_from_rules, intree_policies
from repro.policy.policy import Policy, PolicyId
from repro.policy.rules import Atom, FactBase, Rule, RuleSet, Variable
from repro.policy.rules_reference import NaiveRuleSet, naive_view
from repro.workloads.updates import benign_successor, restricting_successor

from tests.property.test_engine_equivalence import programs, safe_rules

USERS = ("alice", "bob", "carol", "dave", "nobody")


def credential_facts() -> FactBase:
    """Facts that satisfy every in-tree policy for some user."""
    facts = FactBase()
    for index, fact in enumerate(
        [
            Atom("role", ("alice", "member")),
            Atom("role", ("bob", "auditor")),
            Atom("sales_rep", ("carol",)),
            Atom("assigned_region", ("carol", "east")),
            Atom("located_in", ("carol", "east")),
            Atom("read_capability", ("dave", "customers/acme")),
        ]
    ):
        facts.add(fact, source=f"cred-{index}")
    return facts


def items_of(rules: RuleSet):
    return [rule.head.args[0] for rule in rules.rules if rule.head.predicate == "item"]


def probe_goals(rules: RuleSet):
    """For every head functor: the open goal plus one per first argument
    (ground heads' own first argument, a user, and an unknown constant)."""
    goals = []
    firsts = {arg for rule in rules.rules for arg in rule.head.args[:1]} | set(USERS)
    firsts = sorted((arg for arg in firsts if not isinstance(arg, Variable)), key=str)
    for predicate, arity in sorted({(r.head.predicate, len(r.head.args)) for r in rules.rules}):
        open_args = tuple(Variable(f"A{index}") for index in range(arity))
        goals.append(Atom(predicate, open_args))
        if arity:
            for first in firsts + ["unknown"]:
                goals.append(Atom(predicate, (first,) + open_args[1:]))
    return goals


def reference_closure(rules: RuleSet, goals) -> frozenset:
    return frozenset(PredicateGraph(clauses_from_rules(rules)).reachable_from(tuple(goals)))


def warm(rules: RuleSet) -> None:
    """Compute every lazy view of ``rules``."""
    _ = rules.rule_set
    for rule in rules.rules:
        rules.predicate_closure(rule.head.predicate)
    for goal in probe_goals(rules):
        rules._rule_candidates(goal)


def assert_same_rule_set(built: RuleSet, fresh: RuleSet) -> None:
    assert type(built) is type(fresh)
    assert built.rules == fresh.rules
    assert built == fresh and hash(built) == hash(fresh)
    assert len(built) == len(fresh)
    assert built._by_head == fresh._by_head
    for goal in probe_goals(fresh):
        assert [(c.position, c.rule) for c in built._rule_candidates(goal)] == [
            (c.position, c.rule) for c in fresh._rule_candidates(goal)
        ], goal
    assert built.rule_set == fresh.rule_set == frozenset(fresh.rules)
    predicates = {rule.head.predicate for rule in fresh.rules} | {
        atom.predicate for rule in fresh.rules for atom in rule.body
    }
    for predicate in sorted(predicates) + ["absent"]:
        assert built.predicate_closure(predicate) == reference_closure(fresh, (predicate,))


def assert_same_derivations(built: RuleSet, fresh: RuleSet) -> None:
    facts = credential_facts()
    for predicate in ("may_read", "may_write"):
        for user in USERS:
            for item in items_of(fresh) + ["missing"]:
                goal = Atom(predicate, (user, item))
                assert built.prove(goal, facts) == fresh.prove(goal, facts), goal


def successor_chains():
    """(label, parent rule set, extra rules): the in-tree policies and
    their benign and restricting successors, each extended once more."""
    out = []
    for label, rules in intree_policies():
        base = Policy(PolicyId("app"), 1, rules)
        restricted = Policy(PolicyId("app"), 2, restricting_successor(base, "auditor"))
        for name, policy in (("", base), ("restricting/", restricted)):
            marker = (Rule(Atom(f"revision_{policy.version + 1}", ())),)
            out.append((f"{name}{label}+marker", policy.rules, marker))
            grant = (
                Rule(
                    Atom("may_read", (Variable("U"), Variable("I"))),
                    (Atom("role", (Variable("U"), "auditor")), Atom("item", (Variable("I"),))),
                ),
                Rule(Atom("item", ("extra-item",))),
            )
            out.append((f"{name}{label}+grant", policy.rules, grant))
    return out


CHAINS = successor_chains()


@pytest.mark.parametrize("warmed", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("label,parent,extra", CHAINS, ids=[c[0] for c in CHAINS])
def test_extension_equals_fresh_construction(label, parent, extra, warmed):
    if warmed:
        parent = RuleSet(parent.rules)
        warm(parent)
    built = parent.extended(extra)
    fresh = RuleSet(parent.rules + extra)
    assert_same_rule_set(built, fresh)
    assert_same_derivations(built, fresh)
    # A second extension of the successor still matches.
    again = (Rule(Atom("revision_99", ())),)
    assert_same_rule_set(built.extended(again), RuleSet(fresh.rules + again))


def test_extension_leaves_parent_untouched():
    _label, parent, extra = CHAINS[1]
    parent = RuleSet(parent.rules)
    warm(parent)
    snapshot = RuleSet(parent.rules)
    parent.extended(extra)
    assert_same_rule_set(parent, snapshot)
    assert_same_derivations(parent, snapshot)


def test_benign_successor_extends_the_parent():
    for _label, rules in intree_policies():
        policy = Policy(PolicyId("app"), 4, rules)
        successor = benign_successor(policy)
        marker = Rule(Atom("revision_5", ()))
        assert_same_rule_set(successor, RuleSet(rules.rules + (marker,)))
        assert_same_derivations(successor, RuleSet(rules.rules + (marker,)))


def test_views_are_computed_once_per_rule_set():
    _label, rules = intree_policies()[0]
    rules = RuleSet(rules.rules)
    assert rules.rule_set is rules.rule_set
    assert rules.predicate_closure("may_read") is rules.predicate_closure("may_read")


def test_naive_rule_set_keeps_working():
    for _label, rules in intree_policies():
        policy = Policy(PolicyId("app"), 1, rules)
        fresh = naive_view(RuleSet(rules.rules + (Rule(Atom("revision_2", ())),)))
        built = NaiveRuleSet(rules.rules).extended((Rule(Atom("revision_2", ())),))
        assert isinstance(built, NaiveRuleSet)
        assert_same_rule_set(built, fresh)
        assert_same_derivations(built, fresh)
        assert_same_derivations(naive_view(benign_successor(policy)), fresh)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(programs(), st.lists(safe_rules(), min_size=0, max_size=4), st.booleans())
def test_extension_matches_fresh_on_random_programs(program, extra, warmed):
    rules, facts, goals = program
    parent = RuleSet(rules)
    if warmed:
        warm(parent)
        for goal in goals:
            parent.prove(goal, facts)
    built = parent.extended(extra)
    fresh = RuleSet(tuple(rules) + tuple(extra))
    assert_same_rule_set(built, fresh)
    for goal in goals:
        assert built.prove(goal, facts) == fresh.prove(goal, facts)
