"""Packaged config documents: loadability and internal consistency."""

import pytest

from chainscope.cli import main
from chainscope.configio import (
    load_adapters,
    load_aliases,
    load_packaged_scenario,
    load_packaged_template,
    load_policy,
    load_rules_doc,
    packaged_scenario_ids,
    packaged_template_ids,
)
from chainscope.errors import ConfigError, ScenarioError
from chainscope.synth import ROUTING
from chainscope.tagging import StepTag, load_rules
from conftest import expected_from_techniques


def test_every_generated_source_has_a_packaged_adapter():
    # synth renders each source's lines for its packaged adapter
    packaged = {a.source for a in load_adapters()}
    routed = {source for sources in ROUTING.values() for source in sources}
    assert routed <= packaged
    for template_id in packaged_template_ids():
        template = load_packaged_template(template_id)
        named = {event.source for step in template.steps for event in step.events}
        assert named <= packaged, template_id


def test_packaged_aliases_load():
    aliases = load_aliases()
    assert "CommandLine" in aliases.aliases_for("cmdline")


def test_packaged_rules_cover_every_step():
    rules = load_rules(load_rules_doc())
    covered = {c.rule.step for c in rules}
    assert covered == set(StepTag)


def test_packaged_policy_loads():
    policy = load_policy()
    assert {c.name for c in policy.categories} >= {"host", "user", "domain"}
    assert "SYSTEM" in policy.retain_literals


def test_seven_templates_ship():
    assert len(packaged_template_ids()) == 7


def test_templates_are_internally_consistent(technique_map):
    for template_id in packaged_template_ids():
        template = load_packaged_template(template_id)
        assert template.omit < template.expected_steps  # something is always emitted
        # declared technique ids map back onto exactly the declared steps
        derived = expected_from_techniques("x", template.technique_ids(), technique_map)
        assert derived.steps == template.expected_steps, template_id
        # at least one source exclusively carries exactly one step, so
        # withholding it shifts recall by exactly 1/E_s
        emitting = {s.step: {e.source for e in s.events} for s in template.steps if s.step not in template.omit}
        exclusive = {source: set() for sources in emitting.values() for source in sources}
        for step, sources in emitting.items():
            if len(sources) == 1:
                exclusive[next(iter(sources))].add(step)
        assert any(len(steps) == 1 for steps in exclusive.values()), template_id


def test_every_template_has_a_matching_scenario():
    scenario_templates = set()
    for name in packaged_scenario_ids():
        spec = load_packaged_scenario(name)
        assert spec.attack_template is not None
        template = load_packaged_template(spec.attack_template)
        scenario_templates.add(template.template_id)
        emitted_sources = {
            e.source for s in template.steps if s.step not in template.omit for e in s.events
        }
        assert emitted_sources <= set(spec.sources), name
    assert scenario_templates == set(packaged_template_ids())


def test_unknown_template_is_a_clear_error():
    with pytest.raises(ScenarioError):
        load_packaged_template("does-not-exist")


def test_adapters_loadable_from_a_directory(tmp_path):
    (tmp_path / "01-syslog.yml").write_text(
        "adapters:\n  - source: syslog\n    format: syslog_line\n"
        "    field_map: {ts: ts, message: message}\n"
    )
    (tmp_path / "02-audit.yml").write_text(
        "source: auditd\nformat: kv_audit\nfield_map: {ts: ts, cmdline: cmd}\n"
    )
    adapters = load_adapters(tmp_path)
    assert [a.source for a in adapters] == ["syslog", "auditd"]


def test_missing_config_file_names_path(tmp_path):
    from chainscope.configio import load_yaml

    with pytest.raises(ConfigError) as err:
        load_yaml(tmp_path / "nope.yml")
    assert "nope.yml" in str(err.value)


@pytest.mark.parametrize(
    "setting, detail",
    [
        ('default_year: "2023"', "default_year must be an integer"),
        ("default_year: true", "default_year must be an integer"),
        ("ts_format: isoo", "unknown ts_format 'isoo'"),
        ('parse_threshold: "high"', "malformed adapter entry"),
        ("parse_threshold: true", "malformed adapter entry .*expected a number, got True"),
    ],
)
def test_malformed_adapter_setting_is_a_config_error(tmp_path, setting, detail):
    path = tmp_path / "adapters.yml"
    path.write_text(
        "adapters:\n  - source: syslog\n    format: syslog_line\n"
        f"    field_map: {{ts: ts, message: message}}\n    {setting}\n"
    )
    with pytest.raises(ConfigError, match=detail):
        load_adapters(path)


# --- malformed documents: exit 2, naming the file and the key ---------------
# Each case is a document whose list is a lone string (which must never be
# read as a list of its characters) or whose value has the wrong type.

RULE = "rules:\n  - {rule_id: r, step: INSTALL, patterns: [pip], candidate_fields: [text_blob], %s}\n"
CATEGORY = "categories:\n  - {name: host, prefix: HOST_, %s}\n"
SPEC = "scenario_id: mini\nseed: 1\nhosts: [{name: h1}]\nsources: [syslog]\nbenign: {n_activities: 5}\n"
STEP = "template_id: t\nsteps:\n  - step: INSTALL\n    technique_ids: [T1195]\n    events: [{source: syslog, message: x}]\n"


def run_with_document(tmp_path, command, text):
    """Run one CLI command that reads text as the document under test; return its exit code and the path."""
    path = tmp_path / "doc.yml"
    path.write_text(text)
    scenario = tmp_path / "scenario"
    scenario.mkdir()
    (tmp_path / "spec.yml").write_text(SPEC)
    argv = {
        "adapters": ["ingest", "--scenario-dir", str(scenario), "--adapters", str(path)],
        "aliases": ["ingest", "--scenario-dir", str(scenario), "--aliases", str(path)],
        "rules": ["tag", "--events", str(tmp_path / "events.jsonl"), "--rules", str(path)],
        "policy": ["sanitize", "--in", str(tmp_path / "events.jsonl"), "--policy", str(path), "--mappings-dir", str(tmp_path / "m")],
        "budgets": ["sweep", "--scenario-dir", str(scenario), "--budgets", str(path)],
        "spec": ["synth", "--spec", str(path)],
        "template": ["synth", "--spec", str(tmp_path / "spec.yml"), "--template", str(path)],
    }[command]
    return main(argv + ["--out", str(tmp_path / "out")]), str(path)


def assert_names_file_and_key(tmp_path, capsys, command, text, key):
    code, path = run_with_document(tmp_path, command, text)
    err = capsys.readouterr().err
    assert code == 2, err
    assert path in err and key in err, err


ADAPTER = "adapters:\n  - {source: syslog, format: syslog_line, %s}\n"


@pytest.mark.parametrize(
    "text, key",
    [
        ("adapters: syslog\n", "'adapters' must be a list"),
        (ADAPTER % "field_map: [ts, message]", "adapters[0].'field_map' must be an object"),
    ],
)
def test_malformed_adapters_document(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "adapters", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        ("aliases:\n  cmdline: CommandLine\n", "aliases.'cmdline' must be a list of strings"),
        ("aliases: [cmdline]\n", "'aliases' must be an object"),
        ("[cmdline]\n", "must hold a mapping"),
    ],
)
def test_malformed_aliases_document(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "aliases", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        (RULE % "sources: syslog", "rules[0].'sources' must be a list of strings"),
        ("rules:\n  - {rule_id: r, step: INSTALL, patterns: pip, candidate_fields: [text_blob]}\n", "rules[0].'patterns'"),
        ("rules:\n  - {rule_id: r, step: INSTALL, patterns: [pip], candidate_fields: text_blob}\n", "rules[0].'candidate_fields'"),
        (RULE % "where_any: {dst_port: '4444'}", "rules[0].where_any.'dst_port' must be a list of strings"),
        (RULE % "where_all: [dst_port]", "rules[0].'where_all' must be an object"),
        ("rules: [install]\n", "rules[0] must be an object"),
        ("rules:\n  - {rule_id: r, step: INSTALL, patterns: [pip, '('], candidate_fields: [text_blob]}\n",
         "rules[0].patterns[1] of rule 'r' is not a valid regular expression"),
        # re only warns of a possible nested set; a rule pattern must not be ambiguous
        ("rules:\n  - {rule_id: r, step: INSTALL, patterns: ['[[a]'], candidate_fields: [text_blob]}\n",
         "rules[0].patterns[0] of rule 'r' is not a valid regular expression"),
    ],
)
def test_malformed_rules_document(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "rules", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        (CATEGORY % "patterns: '/home/(x)'", "categories[0].'patterns' must be a list of strings"),
        (CATEGORY % "patterns: []" + "retain_literals: root\n", "'retain_literals' must be a list of strings"),
        ("categories:\n  - {prefix: HOST_}\n", "categories[0] lacks 'name'"),
    ],
)
def test_malformed_policy_document(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "policy", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        (CATEGORY % "patterns: ['(unclosed']", "categories[0].patterns[0] is not a valid regular expression"),
        (CATEGORY % "patterns: ['/home/(x)', '[a-']", "categories[0].patterns[1] is not a valid regular expression"),
        (CATEGORY % "patterns: []" + "retain_patterns: ['*bad']\n", "retain_patterns[0] is not a valid regular expression"),
        # re only warns of a possible nested set; a policy pattern must not be ambiguous
        (CATEGORY % "patterns: ['x', '[[a]']", "categories[0].patterns[1] is not a valid regular expression"),
        ("categories:\n  - {name: host, prefix: host_}\n", "categories[0]: prefix must be ASCII capital letters"),
        ("categories:\n  - {name: host, prefix: HOST_}\n  - {name: user, prefix: USER}\n", "categories[1]: prefix"),
        ("categories:\n  - {name: host, prefix: H0_}\n", "categories[0]: prefix"),
        ("categories:\n  - {name: host, prefix: _}\n", "categories[0]: prefix"),
        ("categories:\n  - {name: host, prefix: 7}\n", "categories[0]: prefix"),
        ("categories:\n  - {name: host, prefix: A_}\n  - {name: host, prefix: B_}\n", "category names must be unique"),
        ("categories:\n  - {name: host, prefix: A_}\n  - {name: user, prefix: A_}\n", "category prefixes must be unique"),
        ("categories:\n  - {name: flavor, prefix: A_}\n", "categories[0]: unknown category 'flavor'"),
    ],
)
def test_policy_that_cannot_work(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "policy", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        ("budgets:\n  - syslog\n", "budgets[0] must be a list of sources"),
        ("budgets: syslog\n", "'budgets' must be a list"),
        ("budgets:\n  - sources: syslog\n", "budgets[0].'sources' must be a list of strings"),
        ("weights: {zeek: three}\nbudgets:\n  - [zeek]\n", "weights.'zeek' must be an integer"),
        ("weights: {zeek: 2.5}\nbudgets:\n  - [zeek]\n", "weights.'zeek' must be an integer"),
        ("weights: [zeek]\nbudgets:\n  - [zeek]\n", "'weights' must be an object"),
        ("- [syslog]\n- [zeek]\n", "must hold a mapping, not list"),
    ],
)
def test_malformed_budgets_document(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "budgets", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        (SPEC.replace("sources: [syslog]", "sources: syslog"), "'sources' must be a list of strings"),
        (SPEC.replace("seed: 1", "seed: abc"), "'seed' must be an integer"),
        (SPEC.replace("seed: 1", "seed: 3.7"), "'seed' must be an integer"),
        (SPEC.replace("seed: 1", "seed: true"), "'seed' must be an integer"),
        (SPEC.replace("hosts: [{name: h1}]", "hosts: [h1]"), "hosts[0] must be an object"),
        (SPEC.replace("n_activities: 5", "n_activities: 5, activity_set: Web"), "benign.'activity_set' must be a list of strings"),
        (SPEC.replace("n_activities: 5", "n_activities: many"), "benign.'n_activities' must be an integer"),
        (SPEC + "duration_s: long\n", "'duration_s' must be an integer"),
        (SPEC + "attack: {template: t, start_s: later}\n", "attack.'start_s' must be an integer"),
        (SPEC.replace("n_activities: 5", "active_hours: ['9:xx', '19:00']"), "bad active-hours time"),
        (SPEC + "start: yesterday\n", "'start'"),
        ("scenario_id: mini\nhosts: [{name: h1}]\n", "missing 'sources'"),
    ],
)
def test_malformed_scenario_spec(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "spec", text, key)


@pytest.mark.parametrize(
    "text, key",
    [
        (STEP.replace("[T1195]", "T1195"), "steps[0].'technique_ids' must be a list of strings"),
        (STEP + "omit: INSTALL\n", "'omit' must be a list of strings"),
        (STEP.replace("    technique_ids", "    offset_s: soon\n    technique_ids"), "steps[0].'offset_s' must be a number"),
        (STEP.replace("message: x", "message: x, offset_s: soon"), "steps[0].events[0].'offset_s' must be a number"),
        (STEP.replace("events: [{source: syslog, message: x}]", "events: {source: syslog}"), "steps[0].'events' must be a list"),
        ("template_id: t\n", "missing 'steps'"),
    ],
)
def test_malformed_attack_template(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "template", text, key)
