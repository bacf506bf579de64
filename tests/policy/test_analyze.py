"""Static policy analyzer tests: mutation classes, precision, and impact.

The mutation suite seeds one broken policy per defect class and asserts
the analyzer reports exactly the right POL code; the precision suite
asserts zero findings on every policy the repo actually ships (the
acceptance bar: no false positives in-tree).
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

from repro.policy.analyze import (
    DEFAULT_ROOTS,
    RULES,
    PredicateGraph,
    analyze_rules,
    analyze_text,
    changed_predicates,
    clauses_from_rules,
    dependency_closure,
    diff_impact,
    intree_policies,
    main,
    parse_clauses,
)
from repro.policy.parser import parse_rules
from repro.policy.policy import Policy, PolicyId
from repro.workloads.updates import benign_successor, restricting_successor

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def codes_of(text: str, roots=DEFAULT_ROOTS):
    return sorted(set(analyze_text(text, roots=roots).codes()))


# -- mutation classes: each defect detected with the right code ----------------

MUTATIONS = [
    # (name, policy text, expected codes)
    (
        "fact_with_head_variable",
        "may_read(U, chart).",
        ["POL001"],
    ),
    (
        "unbound_head_variable",
        "may_read(U, I) :- member(U).",
        ["POL001"],
    ),
    (
        "unbound_negated_variable",
        "may_read(U, I) :- member(U, I), not banned(W).",
        ["POL001", "POL007"],
    ),
    (
        "direct_negation_cycle",
        "may_read(U, I) :- item(I), reader(U), not may_read(U, I).",
        ["POL002", "POL007"],
    ),
    (
        "mutual_negation_cycle",
        (
            "may_read(U, I) :- item(I), user(U), not blocked(U, I).\n"
            "blocked(U, I) :- item(I), user(U), not may_read(U, I).\n"
        ),
        ["POL002", "POL007"],
    ),
    (
        "dead_rule",
        (
            "orphan(U) :- member(U, x).\n"
            "may_read(U, I) :- member(U, I).\n"
        ),
        ["POL003"],
    ),
    (
        "duplicate_rule",
        (
            "may_read(U, I) :- member(U, I).\n"
            "may_read(U, I) :- member(U, I).\n"
        ),
        ["POL004"],
    ),
    (
        "subsumed_rule",
        (
            "may_read(U, I) :- member(U, I).\n"
            "may_read(alice, I) :- member(alice, I), vip(alice).\n"
        ),
        ["POL004"],
    ),
    (
        "arity_drift",
        (
            "member(alice).\n"
            "may_read(U, I) :- member(U, I).\n"
        ),
        ["POL005"],
    ),
    (
        "constant_type_drift",
        (
            "level(alice, 3).\n"
            "level(bob, 'three').\n"
            "may_read(U, I) :- level(U, L), item(I).\n"
        ),
        ["POL005"],
    ),
    (
        "direct_recursion",
        "may_read(U, I) :- may_read(U, I).",
        ["POL006"],
    ),
    (
        "mutual_recursion",
        (
            "may_read(U, I) :- delegate(U, I).\n"
            "delegate(U, I) :- may_read(U, I).\n"
        ),
        ["POL006"],
    ),
    (
        "negation_not_runtime_loadable",
        "may_read(U, I) :- member(U, I), not revoked(U, I).",
        ["POL007"],
    ),
]


@pytest.mark.parametrize("name,text,expected", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_mutation_class_detected_with_right_code(name, text, expected):
    assert codes_of(text) == expected


def test_mutation_suite_covers_every_rule_code():
    covered = {code for _, _, expected in MUTATIONS for code in expected}
    assert covered == set(RULES)


def test_clean_policy_has_no_findings():
    report = analyze_text(
        "member(alice, chart).\n"
        "may_read(U, I) :- member(U, I).\n"
        "may_write(U, I) :- member(U, I), owner(U, I).\n"
    )
    assert report.ok and report.codes() == ()


# -- precision: zero false positives on everything the repo ships --------------


def test_all_intree_rulesets_are_clean():
    for label, rules in intree_policies():
        report = analyze_rules(rules, path=label)
        assert report.ok, report.format()


def test_example_textual_policies_are_clean():
    path = REPO_ROOT / "examples" / "healthcare_multidomain.py"
    spec = importlib.util.spec_from_file_location("healthcare_example", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name in ("CLINICAL_POLICY", "BILLING_POLICY"):
        report = analyze_text(getattr(module, name), path=name)
        assert report.ok, report.format()


def test_churn_marker_facts_are_not_dead_rules():
    """benign_successor appends nullary ``revision_N.`` marker facts; facts
    are data, not rules, so POL003 must not fire on them."""
    report = analyze_text(
        "revision_7.\n"
        "member(alice, chart).\n"
        "may_read(U, I) :- member(U, I).\n"
    )
    assert report.ok, report.format()


# -- spans, suppression, report shape ------------------------------------------


def test_findings_carry_precise_spans():
    text = "member(alice).\nmay_read(U, I) :- member(U).\n"
    (finding,) = analyze_text(text).findings
    assert (finding.code, finding.line) == ("POL001", 2)
    assert finding.col == 1
    assert finding.predicate == "may_read"


def test_suppression_hides_matching_code_only():
    dead = "orphan(U) :- member(U, x).  # analyze: ignore[POL003] -- ops tooling\n"
    live = "may_read(U, I) :- member(U, I).\n"
    report = analyze_text(dead + live)
    assert report.ok
    assert [f.code for f in report.findings if f.suppressed] == ["POL003"]
    wrong = dead.replace("POL003", "POL001")
    assert codes_of(wrong + live) == ["POL003"]


def test_report_json_is_machine_readable():
    payload = analyze_text("may_read(U, I) :- member(U).", path="p").to_json()
    assert payload["path"] == "p" and payload["ok"] is False
    assert payload["counts"]["errors"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "POL001"


def test_clauses_from_rules_roundtrip():
    rules = parse_rules(
        "member(alice, chart).\nmay_read(U, I) :- member(U, I).\n"
    )
    clauses = clauses_from_rules(rules)
    assert [c.head.predicate for c in clauses] == ["member", "may_read"]
    assert clauses[0].is_fact and not clauses[1].is_fact


# -- impact analysis ------------------------------------------------------------


def policy_versions():
    """Every in-tree policy, its benign and restricting successors, and an
    extension of each that adds a guard rule and an item."""
    out = []
    grant = (
        parse_rules("may_read(U, I) :- badge(U), item(I).\nitem(extra).\n").rules
    )
    for _label, rules in intree_policies():
        base = Policy(PolicyId("app"), 1, rules)
        for version in (
            rules,
            benign_successor(base),
            restricting_successor(base, "auditor"),
        ):
            out += [version, version.extended(grant)]
    return out


def test_changed_predicates_is_rule_level():
    old = parse_rules("member(alice, chart).\nmay_read(U, I) :- member(U, I).\n")
    same = parse_rules("member(alice, chart).\nmay_read(U, I) :- member(U, I).\n")
    bumped = parse_rules(
        "member(alice, chart).\nmay_read(U, I) :- member(U, I).\nrevision_2.\n"
    )
    rewritten = parse_rules(
        "member(alice, chart).\nmay_read(U, I) :- member(U, I), vip(U).\n"
    )
    assert changed_predicates(old, same) == frozenset()
    assert changed_predicates(old, bumped) == frozenset({"revision_2"})
    assert changed_predicates(old, rewritten) == frozenset({"may_read"})
    # The in-tree policies and their successors, fresh and extended.
    versions = [old, same, bumped, rewritten, old.extended(bumped.rules[2:])]
    versions += policy_versions()
    for before in versions:
        for after in versions:
            expected = frozenset(
                rule.head.predicate for rule in set(before.rules) ^ set(after.rules)
            )
            assert changed_predicates(before, after) == expected


def test_dependency_closure_is_downward_reachability():
    rules = parse_rules(
        "may_read(U, I) :- member(U, I), cleared(U).\n"
        "cleared(U) :- badge(U).\n"
        "unrelated(X) :- widget(X).\n"
    )
    closure = dependency_closure(rules, ("may_read",))
    assert closure == frozenset({"may_read", "member", "cleared", "badge"})
    assert "unrelated" not in closure and "widget" not in closure
    # Against the analyzer's own graph, on the in-tree policies and their
    # successors, for every predicate alone and for goal pairs.
    for version in [rules] + policy_versions():
        graph = PredicateGraph(clauses_from_rules(version))
        predicates = sorted(graph.predicates) + ["absent"]
        goal_sets = [(p,) for p in predicates] + [()] + list(zip(predicates, predicates[1:]))
        for goals in goal_sets:
            assert dependency_closure(version, goals) == frozenset(
                graph.reachable_from(goals)
            ), goals


def test_diff_impact_flags_roots_only_when_reachable():
    old = parse_rules(
        "may_read(U, I) :- member(U, I).\n"
        "audit(U) :- badge(U).\n"
    )
    root_hit = parse_rules(
        "may_read(U, I) :- member(U, I), vip(U).\n"
        "audit(U) :- badge(U).\n"
    )
    side_only = parse_rules(
        "may_read(U, I) :- member(U, I).\n"
        "audit(U) :- badge(U), recent(U).\n"
    )
    assert diff_impact(old, root_hit).roots_affected
    assert not diff_impact(old, side_only).roots_affected
    assert diff_impact(old, side_only).changed == frozenset({"audit"})


# -- lenient grammar -------------------------------------------------------------


def test_lenient_parser_accepts_what_runtime_rejects():
    # The runtime Rule constructor raises on unsafe heads; the analyzer
    # must parse them anyway to be able to report POL001.
    clauses = parse_clauses("may_read(U, I) :- member(U).")
    assert len(clauses) == 1
    clauses = parse_clauses("p(X) :- q(X), not r(X).")
    assert clauses[0].body[1].negated


# -- CLI --------------------------------------------------------------------------


def test_cli_exit_codes_and_json(tmp_path, capsys):
    bad = tmp_path / "bad.pl"
    bad.write_text("may_read(U, I) :- member(U).\n", encoding="utf-8")
    good = tmp_path / "good.pl"
    good.write_text("may_read(U, I) :- member(U, I).\n", encoding="utf-8")
    assert main([str(good)]) == 0
    assert main([str(bad)]) == 1
    capsys.readouterr()
    assert main([str(bad), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["findings"][0]["code"] == "POL001"


def test_cli_intree_gate_is_clean():
    assert main(["--intree"]) == 0


def test_cli_diff_rejects_unloadable_policy(tmp_path, capsys):
    # Impact analysis is only defined between runtime-loadable versions;
    # an unsafe file must produce a diagnostic and exit 2, not a traceback.
    good = tmp_path / "good.pl"
    bad = tmp_path / "bad.pl"
    good.write_text("may_read(U, I) :- member(U, I).\n", encoding="utf-8")
    bad.write_text("may_read(U, I) :- member(U).\n", encoding="utf-8")
    assert main(["--diff", str(good), str(bad)]) == 2
    assert "not runtime-loadable" in capsys.readouterr().err


def test_cli_diff_reports_impact(tmp_path, capsys):
    old = tmp_path / "old.pl"
    new = tmp_path / "new.pl"
    old.write_text("may_read(U, I) :- member(U, I).\n", encoding="utf-8")
    new.write_text("may_read(U, I) :- member(U, I), vip(U).\n", encoding="utf-8")
    assert main(["--diff", str(old), str(new), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["changed"] == ["may_read"]
    assert payload["roots_affected"] is True
