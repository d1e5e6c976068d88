import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.configio import packaged_scenario_ids
from chainscope.errors import ParseError, RuleError
from chainscope.model import FieldAliasMap
from chainscope.tagging import (
    FIRED,
    GATED,
    MISSING_FIELD,
    MULTI_MATCH,
    NO_MATCH,
    PREFILTER_UNUSABLE,
    SOURCE_SKIPPED,
    Candidate,
    Diagnostic,
    RuleSet,
    StepRule,
    StepTag,
    TagDecision,
    decisions_from_jsonl,
    decisions_to_jsonl,
    evaluate_rule,
    expected_from_techniques,
    load_rules,
    rules_to_doc,
    tag_event,
    tag_run,
)
from conftest import make_event, make_scenario_data


def rule(rule_id, step, priority=10, patterns=(r".",), fields=("text_blob",), **kw):
    return StepRule(
        rule_id=rule_id,
        step=StepTag(step),
        priority=priority,
        patterns=tuple(patterns),
        candidate_fields=tuple(fields),
        **kw,
    )


FIVE_RULE_DOC = {
    "rules": [
        {
            "rule_id": "install-pkg",
            "step": "INSTALL",
            "priority": 10,
            "patterns": [r"(?i)\bpip\s+install\b"],
            "candidate_fields": ["cmdline", "text_blob"],
        },
        {
            "rule_id": "download-fetch",
            "step": "DOWNLOAD",
            "priority": 5,
            "patterns": [r"(?i)\b(wget|curl)\b"],
            "candidate_fields": ["cmdline", "text_blob"],
        },
        {
            "rule_id": "auth-ok",
            "step": "AUTH",
            "priority": 4,
            "patterns": [r"(?i)accepted password"],
            "candidate_fields": ["text_blob"],
        },
        {
            "rule_id": "conn-beacon",
            "step": "OUTBOUND_CONN",
            "priority": 3,
            "patterns": [r"(?i)\bconn\b"],
            "candidate_fields": ["text_blob"],
            "where_any": {"dst_port": ["4444"]},
        },
        {
            "rule_id": "exfil-scp",
            "step": "EXFIL",
            "priority": 8,
            "patterns": [r"(?i)\bscp\b.*@"],
            "candidate_fields": ["cmdline", "text_blob"],
            "sources": ["syslog"],
        },
    ]
}


class TestLoadRules:
    def test_empty_document(self):
        assert len(load_rules({})) == 0
        assert len(load_rules({"rules": []})) == 0

    def test_invalid_regex(self):
        doc = {"rules": [{"rule_id": "bad", "step": "INSTALL", "priority": 1, "patterns": ["("], "candidate_fields": ["text_blob"]}]}
        with pytest.raises(RuleError) as err:
            load_rules(doc)
        assert "bad" in str(err.value)

    def test_duplicate_rule_id(self):
        entry = {"rule_id": "dup", "step": "INSTALL", "priority": 1, "patterns": ["x"], "candidate_fields": ["text_blob"]}
        with pytest.raises(RuleError):
            load_rules({"rules": [entry, dict(entry)]})

    def test_non_canonical_field_rejected(self):
        doc = {"rules": [{"rule_id": "r", "step": "INSTALL", "priority": 1, "patterns": ["x"], "candidate_fields": ["no_such_field"]}]}
        with pytest.raises(RuleError):
            load_rules(doc)

    def test_five_rule_round_trip(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        assert len(ruleset) == 5
        doc = rules_to_doc(ruleset)
        assert len(load_rules(doc)) == 5
        assert rules_to_doc(load_rules(doc)) == doc


class TestTagEvent:
    def test_pip_install_tagged_install(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        event = make_event(cmdline="pip install colorsapi", text_blob="pip install colorsapi")
        decision = tag_event(event, ruleset)
        assert decision.chosen is StepTag.INSTALL

    def test_no_evidence_means_none(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        decision = tag_event(make_event(text_blob=""), ruleset)
        assert decision.candidates == ()
        assert decision.chosen is None

    def test_multi_match_keeps_candidates_and_picks_priority(self):
        ruleset = RuleSet(
            [
                rule("dl", "DOWNLOAD", priority=5, patterns=[r"curl"]),
                rule("conn", "OUTBOUND_CONN", priority=3, patterns=[r"fetch"]),
            ]
        )
        event = make_event(text_blob="curl fetch http://x")
        decision = tag_event(event, ruleset)
        assert decision.chosen is StepTag.DOWNLOAD
        assert {c.rule_id for c in decision.candidates} == {"dl", "conn"}
        assert any(d.kind == MULTI_MATCH for d in decision.diagnostics)
        # independent re-evaluation: each rule alone fires on this event
        for compiled in ruleset:
            assert evaluate_rule(event, compiled) == FIRED

    def test_priority_tie_broken_by_lexicographic_rule_id(self):
        ruleset = RuleSet(
            [
                rule("zz", "DOWNLOAD", priority=5, patterns=["x"]),
                rule("aa", "EXFIL", priority=5, patterns=["x"]),
            ]
        )
        decision = tag_event(make_event(text_blob="x"), ruleset)
        assert decision.chosen is StepTag.EXFIL  # rule "aa" wins the tie

    def test_gated_steps_never_appear(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        event = make_event(text_blob="accepted password for root pip install x")
        decision = tag_event(event, ruleset, gate={StepTag.INSTALL})
        assert {c.step for c in decision.candidates} <= {StepTag.INSTALL}

    def test_missing_field_diagnostic(self):
        ruleset = RuleSet([rule("only-cmd", "INSTALL", fields=("cmdline",))])
        decision = tag_event(make_event(text_blob="whatever"), ruleset)
        assert [(d.kind, d.rule_id) for d in decision.diagnostics] == [(MISSING_FIELD, "only-cmd")]

    def test_prefilter_unusable_diagnostic(self):
        ruleset = RuleSet([rule("needs-port", "OUTBOUND_CONN", where_any={"dst_port": ("4444",)})])
        decision = tag_event(make_event(text_blob="conn"), ruleset)
        assert [(d.kind, d.rule_id) for d in decision.diagnostics] == [(PREFILTER_UNUSABLE, "needs-port")]

    def test_prefilter_fail_is_silent_no_match(self):
        ruleset = RuleSet([rule("needs-port", "OUTBOUND_CONN", where_any={"dst_port": ("4444",)})])
        decision = tag_event(make_event(text_blob="conn", dst_port=443), ruleset)
        assert decision.candidates == ()
        assert decision.diagnostics == ()

    def test_where_all_requires_every_clause(self):
        ruleset = RuleSet(
            [rule("strict", "OUTBOUND_CONN", where_all={"dst_port": ("4444",), "proto": ("tcp",)})]
        )
        assert tag_event(make_event(text_blob="x", dst_port=4444, proto="udp"), ruleset).chosen is None
        assert (
            tag_event(make_event(text_blob="x", dst_port=4444, proto="tcp"), ruleset).chosen
            is StepTag.OUTBOUND_CONN
        )

    def test_where_values_case_insensitive(self):
        ruleset = RuleSet([rule("ci", "AUTH", where_any={"user": ("Admin",)})])
        assert tag_event(make_event(text_blob="x", user="ADMIN"), ruleset).chosen is StepTag.AUTH

    def test_source_scoped_rule_skipped(self):
        ruleset = RuleSet([rule("syslog-only", "EXFIL", sources=("syslog",))])
        assert tag_event(make_event(source="zeek", text_blob="x"), ruleset).chosen is None
        assert tag_event(make_event(source="syslog", text_blob="x"), ruleset).chosen is StepTag.EXFIL

    def test_alias_resolution_in_rules(self):
        ruleset = RuleSet([rule("via-alias", "INSTALL", patterns=[r"pip install"], fields=("cmdline",))])
        aliases = FieldAliasMap({"cmdline": ["CommandLine"]})
        event = make_event(extras={"CommandLine": "pip install x"})
        assert tag_event(event, ruleset, aliases=aliases).chosen is StepTag.INSTALL


class TestRuleEvaluationOutcomes:
    def test_every_evaluation_has_exactly_one_outcome(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        events = [
            make_event(text_blob="pip install a"),
            make_event(text_blob=""),
            make_event(text_blob="conn", dst_port=4444),
            make_event(text_blob="conn"),
            make_event(source="zeek", text_blob="scp a@b"),
            make_event(cmdline="wget http://x", text_blob="wget http://x"),
        ]
        valid = {FIRED, NO_MATCH, MISSING_FIELD, PREFILTER_UNUSABLE, SOURCE_SKIPPED, GATED}
        for event in events:
            for compiled in ruleset:
                assert evaluate_rule(event, compiled) in valid

    def test_monotonicity_adding_rule_keeps_candidates(self):
        base = [
            rule("a", "INSTALL", patterns=["install"]),
            rule("b", "DOWNLOAD", patterns=["curl"]),
        ]
        event = make_event(text_blob="curl install")
        before = tag_event(event, RuleSet(base)).candidates
        after = tag_event(event, RuleSet(base + [rule("c", "EXFIL", patterns=["zzz"])])).candidates
        assert set(before) <= set(after)


class TestTagRun:
    def test_no_steps_observed(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        events = [make_event(event_id=f"e{i}", text_blob="nothing here") for i in range(5)]
        decisions, diag = tag_run(events, ruleset)
        assert diag.no_steps_observed
        assert diag.ambiguity_fraction == 0.0
        assert all(d.chosen is None for d in decisions)
        assert diag.flags() == ["NO_STEPS_OBSERVED"]

    def test_gate_excludes_candidates_exhaustively(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        events = [
            make_event(event_id="e0", text_blob="accepted password for x"),
            make_event(event_id="e1", text_blob="pip install y"),
            make_event(event_id="e2", text_blob="wget http://z accepted password"),
        ]
        decisions, _ = tag_run(events, ruleset, gate={StepTag.INSTALL})
        for decision in decisions:
            assert all(c.step is StepTag.INSTALL for c in decision.candidates)

    def test_ambiguity_fraction_counted_by_hand(self):
        # 10 events match at least one step; 3 of them match two distinct steps
        rules = RuleSet(
            [
                rule("d", "DOWNLOAD", priority=5, patterns=["curl"]),
                rule("o", "OUTBOUND_CONN", priority=3, patterns=["conn"]),
            ]
        )
        events = [make_event(event_id=f"m{i}", ts=i, text_blob="curl") for i in range(7)]
        events += [make_event(event_id=f"b{i}", ts=10 + i, text_blob="curl conn") for i in range(3)]
        events += [make_event(event_id=f"n{i}", ts=20 + i, text_blob="quiet") for i in range(4)]
        _, diag = tag_run(events, rules)
        assert diag.matched_events == 10
        assert diag.multi_match_events == 3
        assert diag.ambiguity_fraction == pytest.approx(0.3)

    def test_missing_step_flags_against_expected(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        events = [make_event(text_blob="pip install x")]
        _, diag = tag_run(events, ruleset, expected={StepTag.INSTALL, StepTag.EXFIL})
        assert diag.missing_steps == (StepTag.EXFIL,)
        assert "MISSING_EXFIL" in diag.flags()

    def test_rule_order_permutation_changes_nothing(self):
        doc_rules = FIVE_RULE_DOC["rules"]
        events = [
            make_event(event_id=f"e{i}", ts=i, text_blob=blob, dst_port=4444 if "conn" in blob else None)
            for i, blob in enumerate(
                ["pip install a", "curl http://b", "accepted password", "conn beacon", "scp x a@b", "curl conn", ""]
            )
        ]
        baseline = [d.chosen for d in tag_run(events, load_rules({"rules": doc_rules}))[0]]
        rng = random.Random(7)
        for _ in range(10):
            shuffled = list(doc_rules)
            rng.shuffle(shuffled)
            permuted = [d.chosen for d in tag_run(events, load_rules({"rules": shuffled}))[0]]
            assert permuted == baseline


    @settings(max_examples=40, deadline=None)
    @given(
        scenario=st.sampled_from(packaged_scenario_ids()),
        seed=st.integers(min_value=0, max_value=3),
        keep_seeds=st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=4),
        gate=st.one_of(st.none(), st.frozensets(st.sampled_from(list(StepTag)))),
    )
    def test_shared_memo_equals_fresh_tagging(self, default_rules, aliases, scenario, seed, keep_seeds, gate):
        data = make_scenario_data(scenario, seed)
        events = [e for table in data.tables.values() for e in table]
        expected = data.ground_truth.expected.steps
        memo, seen = {}, set()
        for keep_seed in keep_seeds:
            rng = random.Random(keep_seed)
            density = rng.random()
            subset = [e for e in events if rng.random() < density]
            seen.update(e.event_id for e in subset)
            args = dict(gate=gate, aliases=aliases, expected=expected)
            assert tag_run(subset, default_rules, **args, decided=memo) == tag_run(subset, default_rules, **args)
        assert set(memo) == seen


class TestExpectedSteps:
    def test_technique_mapping_with_parent_fallback(self, technique_map):
        expected = expected_from_techniques("s", ["T1105", "T1048.003", "T1195.002"], technique_map)
        assert expected.steps == frozenset({StepTag.DOWNLOAD, StepTag.EXFIL, StepTag.INSTALL})
        assert expected.e_s == 3

    def test_unknown_techniques_ignored(self, technique_map):
        expected = expected_from_techniques("s", ["T1105", "T9999"], technique_map)
        assert expected.steps == frozenset({StepTag.DOWNLOAD})


STEPS = st.sampled_from(list(StepTag))
# a few fixed priorities make ties between candidates common
PRIORITIES = st.sampled_from([0.0, 5.0, 10.0]) | st.floats(allow_nan=False, allow_infinity=False)
DECISIONS = st.builds(
    TagDecision,
    event_id=st.text(),
    candidates=st.lists(st.builds(Candidate, step=STEPS, rule_id=st.text(), priority=PRIORITIES), max_size=4).map(tuple),
    chosen=st.none() | STEPS,
    diagnostics=st.lists(
        st.builds(
            Diagnostic,
            kind=st.sampled_from([MISSING_FIELD, PREFILTER_UNUSABLE, MULTI_MATCH]),
            rule_id=st.none() | st.text(),
        ),
        max_size=4,
    ).map(tuple),
)


class TestDecisionsJsonl:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(DECISIONS, max_size=5))
    def test_round_trip(self, decisions):
        assert decisions_from_jsonl(decisions_to_jsonl(decisions)) == decisions

    def test_malformed_line_names_its_number(self):
        text = decisions_to_jsonl([TagDecision(event_id="a", candidates=(), chosen=None, diagnostics=())])
        with pytest.raises(ParseError, match="line 2"):
            decisions_from_jsonl(text + '{"event_id": "b", "chosen": "NOT_A_STEP"}\n')
