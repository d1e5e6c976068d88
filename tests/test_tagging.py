import io
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import ParseError, RuleError
from chainscope.model import FieldAliasMap, parse_regex
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
    load_rules,
    required_literals,
    tag_run,
)
from conftest import (
    evaluate_rule,
    expected_from_techniques,
    jsonl_layouts,
    make_event,
    make_scenario_data,
    packaged_scenario_ids,
    reference_evaluate_rule,
    reference_resolve,
    reference_tag_event,
    resolve_field,
)


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

    @pytest.mark.parametrize("priority", [True, False, "high"])
    def test_non_numeric_priority(self, priority):
        doc = {"rules": [{"rule_id": "r", "step": "INSTALL", "priority": priority, "patterns": ["x"], "candidate_fields": ["text_blob"]}]}
        with pytest.raises(ParseError, match=re.escape(f"rules document: rules[0].'priority' must be a number, got {priority!r}")):
            load_rules(doc)

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            ("rule_id", None, "'rule_id' must be a string, got None"),  # was a rule named "None"
            ("rule_id", 7, "'rule_id' must be a string, got 7"),
            ("step", None, "'step' must be a string, got None"),
            ("step", ["INSTALL"], "'step' must be a string, got ['INSTALL']"),
        ],
    )
    def test_wrongly_typed_rule_scalar_is_named(self, key, value, detail):
        entry = {"rule_id": "r", "step": "INSTALL", "priority": 1, "patterns": ["x"], "candidate_fields": ["text_blob"]}
        with pytest.raises(ParseError, match=re.escape(f"rules.yml: rules[0].{detail}")):
            load_rules({"rules": [{**entry, key: value}]}, "rules.yml")

    def test_integer_priority_reads_as_a_float(self):
        entry = {"rule_id": "r", "step": "INSTALL", "priority": 3, "patterns": ["x"], "candidate_fields": ["text_blob"]}
        (rule,) = load_rules({"rules": [entry]}).rules
        assert type(rule.priority) is float and rule.priority == 3.0

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
        for rule, entry in zip(ruleset.rules, FIVE_RULE_DOC["rules"]):
            assert (rule.rule_id, rule.step.value, rule.priority) == (entry["rule_id"], entry["step"], entry["priority"])
            assert list(rule.patterns) == entry["patterns"]
            assert list(rule.candidate_fields) == entry["candidate_fields"]
            assert {k: list(v) for k, v in rule.where_any.items()} == entry.get("where_any", {})
            assert list(rule.sources) == entry.get("sources", [])


class TestTagEvent:
    def test_pip_install_tagged_install(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        event = make_event(cmdline="pip install colorsapi", text_blob="pip install colorsapi")
        decision = tag_run([event], ruleset)[0][0]
        assert decision.chosen is StepTag.INSTALL

    def test_no_evidence_means_none(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        decision = tag_run([make_event(text_blob="")], ruleset)[0][0]
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
        decision = tag_run([event], ruleset)[0][0]
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
        decision = tag_run([make_event(text_blob="x")], ruleset)[0][0]
        assert decision.chosen is StepTag.EXFIL  # rule "aa" wins the tie

    def test_gated_steps_never_appear(self):
        ruleset = load_rules(FIVE_RULE_DOC)
        event = make_event(text_blob="accepted password for root pip install x")
        decision = tag_run([event], ruleset, gate={StepTag.INSTALL})[0][0]
        assert {c.step for c in decision.candidates} <= {StepTag.INSTALL}

    def test_missing_field_diagnostic(self):
        ruleset = RuleSet([rule("only-cmd", "INSTALL", fields=("cmdline",))])
        decision = tag_run([make_event(text_blob="whatever")], ruleset)[0][0]
        assert [(d.kind, d.rule_id) for d in decision.diagnostics] == [(MISSING_FIELD, "only-cmd")]

    def test_prefilter_unusable_diagnostic(self):
        ruleset = RuleSet([rule("needs-port", "OUTBOUND_CONN", where_any={"dst_port": ("4444",)})])
        decision = tag_run([make_event(text_blob="conn")], ruleset)[0][0]
        assert [(d.kind, d.rule_id) for d in decision.diagnostics] == [(PREFILTER_UNUSABLE, "needs-port")]

    def test_prefilter_fail_is_silent_no_match(self):
        ruleset = RuleSet([rule("needs-port", "OUTBOUND_CONN", where_any={"dst_port": ("4444",)})])
        decision = tag_run([make_event(text_blob="conn", dst_port=443)], ruleset)[0][0]
        assert decision.candidates == ()
        assert decision.diagnostics == ()

    def test_where_all_requires_every_clause(self):
        ruleset = RuleSet(
            [rule("strict", "OUTBOUND_CONN", where_all={"dst_port": ("4444",), "proto": ("tcp",)})]
        )
        assert tag_run([make_event(text_blob="x", dst_port=4444, proto="udp")], ruleset)[0][0].chosen is None
        assert (
            tag_run([make_event(text_blob="x", dst_port=4444, proto="tcp")], ruleset)[0][0].chosen
            is StepTag.OUTBOUND_CONN
        )

    def test_where_values_case_insensitive(self):
        ruleset = RuleSet([rule("ci", "AUTH", where_any={"user": ("Admin",)})])
        assert tag_run([make_event(text_blob="x", user="ADMIN")], ruleset)[0][0].chosen is StepTag.AUTH

    def test_source_scoped_rule_skipped(self):
        ruleset = RuleSet([rule("syslog-only", "EXFIL", sources=("syslog",))])
        assert tag_run([make_event(source="zeek", text_blob="x")], ruleset)[0][0].chosen is None
        assert tag_run([make_event(source="syslog", text_blob="x")], ruleset)[0][0].chosen is StepTag.EXFIL

    def test_alias_resolution_in_rules(self):
        ruleset = RuleSet([rule("via-alias", "INSTALL", patterns=[r"pip install"], fields=("cmdline",))])
        aliases = FieldAliasMap({"cmdline": ["CommandLine"]})
        event = make_event(extras={"CommandLine": "pip install x"})
        assert tag_run([event], ruleset, aliases=aliases)[0][0].chosen is StepTag.INSTALL


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
        before = tag_run([event], RuleSet(base))[0][0].candidates
        after = tag_run([event], RuleSet(base + [rule("c", "EXFIL", patterns=["zzz"])]))[0][0].candidates
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


RULE_FIELDS = ("text_blob", "cmdline", "CMDLINE", "message", "user", "dst_port", "proto", "host", "raw", "src_ip")
RULE_PATTERNS = (r"install", r"(?i)CURL", r"^$", r"\d+", r"x", r".")
EVENT_SOURCES = ("syslog", "zeek", "auth")
EXTRAS_KEYS = ("CommandLine", "commandline", "Message", "msg", "user_name", "UserName", "transport", "raw", "Raw")
ALIASABLE = ("cmdline", "message", "user", "proto", "host", "dst_port")


@st.composite
def step_rules(draw):
    rules = []
    for i in range(draw(st.integers(min_value=0, max_value=6))):
        clauses = st.dictionaries(
            st.sampled_from(RULE_FIELDS),
            st.lists(st.sampled_from(("4444", "tcp", "TCP", "root", "x", "")), max_size=3).map(tuple),
            max_size=2,
        )
        rules.append(
            StepRule(
                rule_id=draw(st.sampled_from("abc")) + str(i),
                step=draw(st.sampled_from(list(StepTag))),
                priority=draw(st.sampled_from((0.0, 5.0, 10.0))),
                patterns=tuple(draw(st.lists(st.sampled_from(RULE_PATTERNS), min_size=1, max_size=3))),
                candidate_fields=tuple(draw(st.lists(st.sampled_from(RULE_FIELDS), min_size=1, max_size=3))),
                where_any=draw(clauses),
                where_all=draw(clauses),
                sources=tuple(draw(st.lists(st.sampled_from(EVENT_SOURCES), max_size=2))),
            )
        )
    return RuleSet(rules)


@st.composite
def tag_events(draw):
    events = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        events.append(
            make_event(
                event_id=f"e{i}",
                ts=draw(st.integers(min_value=0, max_value=3)),
                source=draw(st.sampled_from(EVENT_SOURCES)),
                user=draw(st.sampled_from((None, "root", ""))),
                cmdline=draw(st.sampled_from((None, "", "pip install x"))),
                dst_port=draw(st.sampled_from((None, 4444, 22))),
                proto=draw(st.sampled_from((None, "tcp"))),
                text_blob=draw(st.sampled_from(("", "curl x", "install", "conn 4444"))),
                extras=draw(st.dictionaries(st.sampled_from(EXTRAS_KEYS), st.sampled_from(("", "pip install", "root", "TCP")))),
            )
        )
    return events


def extras_alias_maps():
    def build(pairs):
        owner, entries = {}, {}
        for alias, canonical in pairs:
            if owner.setdefault(alias.lower(), canonical) == canonical:
                entries.setdefault(canonical, []).append(alias)
        return FieldAliasMap(entries)

    return st.lists(st.tuples(st.sampled_from(EXTRAS_KEYS), st.sampled_from(ALIASABLE)), max_size=6).map(build)


class TestCompiledTaggingEqualsReference:
    @settings(max_examples=100, deadline=None)
    @given(
        ruleset=step_rules(),
        events=tag_events(),
        aliases=extras_alias_maps(),
        gate=st.one_of(st.none(), st.frozensets(st.sampled_from(list(StepTag)))),
    )
    def test_plans_equal_interpretive_evaluation(self, ruleset, events, aliases, gate):
        for event in events:
            assert tag_run([event], ruleset, gate=gate, aliases=aliases)[0][0] == reference_tag_event(
                event, ruleset, gate=gate, aliases=aliases
            )
            for compiled in ruleset:
                assert evaluate_rule(event, compiled, aliases=aliases, gate=gate) == reference_evaluate_rule(
                    event, compiled, aliases=aliases, gate=gate
                )
            for name in RULE_FIELDS:
                assert resolve_field(event, name, aliases) == reference_resolve(
                    event, name.lower(), aliases, {k.lower(): v for k, v in event.extras.items()}
                )
        decisions, _ = tag_run(events, ruleset, gate=gate, aliases=aliases)
        ordered = sorted(events, key=lambda e: (e.ts, e.event_id))
        assert decisions == [reference_tag_event(e, ruleset, gate=gate, aliases=aliases) for e in ordered]


# --- the required-literal prefilter -------------------------------------------

# re folds these onto ASCII letters under IGNORECASE, str.lower only some of
# them (U+212A KELVIN SIGN, U+017F LONG S, U+0130 and U+0131, the dotted and
# dotless i)
FOLD_SPECIAL = "\u212a\u017f\u0130\u0131"
# each fold-special character and the ASCII letter re folds it onto, both ways
FOLD_PAIRS = {"\u212a": "k", "\u017f": "s", "\u0130": "i", "\u0131": "i", "k": "\u212a", "s": "\u017f", "i": "\u0131", "I": "\u0130"}


def fold_letters(text):
    return "".join(FOLD_PAIRS.get(c, c) for c in text)


# a text as drawn, with its case swapped, or its letters folded, folding weighted
# twice: it is what the ASCII rule of the prefilter guards against
TEXT_FORMS = (str, str.swapcase, fold_letters, fold_letters)
# (regex atom, a text it matches)
PATTERN_ATOMS = (
    *((c, c) for c in ("a", "b", "k", "s", "i", "K", "S", "I", "ab", "Sk", " ", "\u00e9", *FOLD_SPECIAL)),
    (".", "x"), (r"\b", ""), (r"\s", " "), (r"\w", "w"), ("[ak]", "k"), ("[^s]", "t"), ("^", ""), ("$", ""), (r"\.", "."),
)
REPEATS = (("*", 0), ("*", 2), ("+", 1), ("?", 0), ("?", 1), ("{2}", 2), ("{0,2}", 1), ("{1,}", 2), ("+?", 1), ("*?", 0))
GROUPS = ("(", "(?i:", "(?-i:", "(?s:")


def regexes_and_texts():
    """(regex source, a text the regex usually matches) from literals,
    metacharacters, alternations, repeats and groups with and without
    scoped flags; under (?i: the text's case is swapped or its letters folded."""

    def combine(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda parts: tuple(map("".join, zip(*parts)))),
            st.tuples(st.lists(children, min_size=2, max_size=3), st.integers(0, 2)).map(
                lambda t: ("(?:" + "|".join(p for p, _ in t[0]) + ")", t[0][t[1] % len(t[0])][1])
            ),
            st.tuples(children, st.sampled_from(REPEATS)).map(lambda t: (f"(?:{t[0][0]}){t[1][0]}", t[0][1] * t[1][1])),
            st.tuples(st.sampled_from(GROUPS), children, st.sampled_from(TEXT_FORMS)).map(
                lambda t: (f"{t[0]}{t[1][0]})", t[2](t[1][1]) if t[0] == "(?i:" else t[1][1])
            ),
        )

    return st.recursive(st.sampled_from(PATTERN_ATOMS), combine, max_leaves=6)


@st.composite
def rules_and_texts(draw):
    """Patterns, and texts around their matches, as drawn or with the case
    swapped or the letters folded, so that a search the prefilter wrongly
    skips shows."""
    pairs = draw(st.lists(regexes_and_texts(), min_size=1, max_size=3))
    flags = draw(st.lists(st.sampled_from(["", "(?i)", "(?i)", "(?s)"]), min_size=len(pairs), max_size=len(pairs)))  # IGNORECASE weighted twice
    around = st.text(" .x", max_size=2) | st.text(" .x\u00e9" + FOLD_SPECIAL, max_size=2)  # ASCII text gets the prefilter
    texts = st.tuples(around, st.sampled_from([t for _, t in pairs]), st.sampled_from(TEXT_FORMS), around)
    texts = texts.map(lambda t: t[0] + t[2](t[1]) + t[3])
    return [flag + p for flag, (p, _) in zip(flags, pairs)], draw(st.lists(st.tuples(texts, st.none() | texts), min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(case=rules_and_texts())
def test_prefiltered_decisions_equal_every_search_run(case):
    """Each pattern is its own rule, so every skipped search shows in the candidates."""
    patterns, texts = case
    rules = RuleSet([rule(f"r{i}", "INSTALL", patterns=(p,), fields=("cmdline", "text_blob")) for i, p in enumerate(patterns)])
    for i, (text, cmdline) in enumerate(texts):
        event = make_event(event_id=f"e{i}", text_blob=text, cmdline=cmdline)
        assert tag_run([event], rules)[0][0] == reference_tag_event(event, rules)


@pytest.mark.parametrize(
    "pattern, literals",
    [
        (r"(?i)\b(?:pip3?|npm)\s+install\b", ("install",)),
        (r"(?i)\b(?:wget|curl|certutil\s+-urlcache)\b", ("-urlcache", "curl", "wget")),
        (r"Accepted (?:password|publickey) for", ("Accepted p",)),  # re factors the common prefix out
        (r"(?i)\bconn(?:ect(?:ed|ion)?)?\b", ("conn",)),
        (r"a+(?:bcd)+", ("bcd",)),
        ("(?i)x\u212a\u212aelvin", ("elvin",)),  # a non-ASCII literal ends a folded run
        (r"x*y?", None),
        (r"(?:ab|.)", None),
        (r"(?i:ab)cd", None),
        (r"(?-i:ab)", None),
    ],
)
def test_required_literals(pattern, literals):
    assert required_literals(parse_regex(pattern))[0] == literals


def test_every_packaged_pattern_is_prefiltered(default_rules):
    assert all(literals for compiled in default_rules for _, literals, _ in compiled.searches)


@pytest.mark.parametrize(
    "pattern, text",
    [("(?i)kelvin", "\u212aelvin"), ("(?i)\u017ftep", "STEP"), ("(?i)ki", "k\u0130"), ("(?i)i", "\u0131"), ("(?i)\u212a", "k")],
)
def test_characters_re_folds_onto_ascii_still_match(pattern, text):
    rules = RuleSet([rule("r", "INSTALL", patterns=(pattern,))])
    assert tag_run([make_event(event_id="e", text_blob=text)], rules)[0][0].chosen == StepTag.INSTALL


class TestExpectedSteps:
    def test_technique_mapping_with_parent_fallback(self, technique_map):
        expected = expected_from_techniques("s", ["T1105", "T1048.003", "T1195.002"], technique_map)
        assert expected.steps == frozenset({StepTag.DOWNLOAD, StepTag.EXFIL, StepTag.INSTALL})
        assert expected.e_s == 3

    def test_unknown_techniques_ignored(self, technique_map):
        expected = expected_from_techniques("s", ["T1105", "T9999"], technique_map)
        assert expected.steps == frozenset({StepTag.DOWNLOAD})


STEPS = st.sampled_from(list(StepTag))
# a few fixed priorities make ties between candidates common; an integer
# priority encodes unlike the equal float
PRIORITIES = st.sampled_from([0.0, 5.0, 10.0, 5]) | st.floats(allow_nan=False, allow_infinity=False) | st.integers()
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
        text = decisions_to_jsonl(decisions)
        assert decisions_from_jsonl(text) == decisions
        assert decisions_to_jsonl(decisions_from_jsonl(text)) == text

    @pytest.mark.parametrize(
        "fields, key",
        [
            ({"event_id": 7}, "event_id"),
            ({"chosen": 1}, "chosen"),
            ({"candidates": {}}, "candidates"),
            ({"candidates": [["INSTALL"]]}, "candidates"),
            ({"candidates": [{"step": 1, "rule_id": "r", "priority": 1}]}, "step"),
            ({"candidates": [{"step": "INSTALL", "rule_id": None, "priority": 1}]}, "rule_id"),
            ({"candidates": [{"step": "INSTALL", "rule_id": "r", "priority": True}]}, "priority"),
            ({"candidates": [{"step": "INSTALL", "rule_id": "r", "priority": "1"}]}, "priority"),
            ({"diagnostics": None}, "diagnostics"),
            ({"diagnostics": [{"kind": None}]}, "kind"),
            ({"diagnostics": [{"kind": "MULTI_MATCH", "rule_id": 3}]}, "rule_id"),
        ],
    )
    def test_value_of_wrong_type_names_its_key(self, fields, key):
        line = json.dumps({"event_id": "a", "candidates": [], "chosen": None, "diagnostics": [], **fields})
        with pytest.raises(ParseError, match=f"decisions line 1: TypeError: '{key}' must be"):
            decisions_from_jsonl(line + "\n")

    def test_absent_chosen_is_malformed(self):
        with pytest.raises(ParseError, match="decisions line 1: KeyError: 'chosen'"):
            decisions_from_jsonl('{"event_id": "a", "candidates": [], "diagnostics": []}\n')

    def test_malformed_line_names_its_number(self):
        text = decisions_to_jsonl([TagDecision(event_id="a", candidates=(), chosen=None, diagnostics=())])
        with pytest.raises(ParseError, match="line 2"):
            decisions_from_jsonl(text + '{"event_id": "b", "chosen": "NOT_A_STEP"}\n')

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.lists(DECISIONS, max_size=5), st.none() | st.sampled_from(['{"event_id": "b"}', "{", "[]"]))
    def test_file_reads_as_its_text(self, data, decisions, bad):
        lines = decisions_to_jsonl(decisions).splitlines()
        if bad is not None:
            lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), bad)
        text = data.draw(jsonl_layouts(lines))

        def read(source):
            try:
                return decisions_from_jsonl(source)
            except ParseError as exc:
                return str(exc), exc.offending

        from_text = read(text)
        assert read(io.BytesIO(text.encode("utf-8"))) == from_text
        if bad is None:
            assert from_text == decisions
        else:
            assert from_text[0].startswith("decisions line ")

    def test_invalid_utf8_names_its_line(self):
        with pytest.raises(ParseError, match="decisions line 2: UnicodeDecodeError"):
            decisions_from_jsonl(io.BytesIO(b"\n\xff\n"))
