"""Packaged config documents: loadability and internal consistency."""

import copy
import functools
import importlib.resources
import operator
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import configio
from chainscope.cli import main
from chainscope.configio import (
    load_adapters,
    load_aliases,
    load_packaged_scenario,
    load_packaged_template,
    load_policy,
    load_rules_doc,
    load_scenario_spec,
    load_template,
    packaged_template_ids,
)
from chainscope.errors import ChainscopeError, ConfigError, ParseError, ScenarioError
from chainscope.ingest import SourceAdapterSpec
from chainscope.synth import ROUTING, AttackEventSpec, AttackStepSpec, AttackTemplate, HostSpec, ScenarioSpec
from chainscope.tagging import StepTag, load_rules
from conftest import expected_from_techniques, packaged_scenario_ids


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


def test_a_number_reads_as_a_float():
    # the packaged documents write these as YAML integers (min_interval_s: 30,
    # offset_s: 0), or leave them out
    spec = load_packaged_scenario("dependency-chain")
    template = load_packaged_template("dependency-chain")
    steps = template.steps
    numbers = [spec.benign.min_interval_s, spec.benign.max_interval_s, *(s.offset_s for s in steps), *(e.offset_s for s in steps for e in s.events)]
    assert [type(n) for n in numbers] == [float] * len(numbers)


def test_a_document_of_required_keys_loads_as_the_dataclass_defaults(tmp_path):
    # every optional key takes the default its spec dataclass declares
    (tmp_path / "adapters.yml").write_text("adapters:\n  - {source: s, format: prenormalized}\n")
    (tmp_path / "spec.yml").write_text("scenario_id: mini\nhosts: [{name: h1}]\nsources: [s]\n")
    (tmp_path / "template.yml").write_text("template_id: t\nsteps: [{step: INSTALL, events: [{source: s}]}]\n")
    assert load_adapters(tmp_path / "adapters.yml") == [SourceAdapterSpec(source="s", format="prenormalized")]
    assert load_scenario_spec(tmp_path / "spec.yml") == ScenarioSpec(scenario_id="mini", seed=0, hosts=(HostSpec(name="h1"),), sources=("s",))
    step = AttackStepSpec(step=StepTag.INSTALL, offset_s=0.0, technique_ids=(), events=(AttackEventSpec(source="s", fields={}),))
    assert load_template(tmp_path / "template.yml") == AttackTemplate(template_id="t", steps=(step,))


_MINI_ADAPTER = "adapters:\n  - {source: s, format: prenormalized, %s}\n"
_MINI_SPEC = "scenario_id: mini\nhosts: [{name: h1}]\nsources: [s]\n%s\n"
_MINI_TEMPLATE = "template_id: t\nsteps: [{step: INSTALL, events: [{source: s}]}]\n%s\n"


@pytest.mark.parametrize(
    "kind, text, message",
    [
        *(("adapters", _MINI_ADAPTER % f"{key}: null", f"adapters[0].'{key}' must be {expected}, got None")
          for key, expected in (("trust_origin", "a string"), ("ts_format", "a string"), ("file_pattern", "a string"), ("parse_threshold", "a number"))),
        ("spec", _MINI_SPEC % "start: null", "'start' must be a string, got None"),
        ("spec", _MINI_SPEC % "start: 5", "'start' must be a string, got 5"),
        ("spec", _MINI_SPEC % "duration_s: null", "'duration_s' must be an integer, got None"),
        ("spec", _MINI_SPEC.replace("{name: h1}", "{name: h1, profile: null}") % "", "hosts[0].'profile' must be a string, got None"),
        ("spec", _MINI_SPEC % "attack: {template: null}", "attack.'template' must be a string, got None"),
        ("spec", _MINI_SPEC % "attack: {start_s: null}", "attack.'start_s' must be an integer, got None"),
        ("spec", _MINI_SPEC % "benign: {n_activities: null}", "benign.'n_activities' must be an integer, got None"),
        ("spec", _MINI_SPEC % "benign: {min_interval_s: null}", "benign.'min_interval_s' must be a number, got None"),
        ("spec", _MINI_SPEC % "benign: {max_interval_s: null}", "benign.'max_interval_s' must be a number, got None"),
        ("template", _MINI_TEMPLATE % "attack_user: null", "'attack_user' must be a string, got None"),
        ("template", _MINI_TEMPLATE % "description: null", "'description' must be a string, got None"),
        ("template", _MINI_TEMPLATE.replace("{source: s}", "{source: s, offset_s: null}") % "", "steps[0].events[0].'offset_s' must be a number, got None"),
    ],
)
def test_a_present_null_takes_no_default(tmp_path, capsys, kind, text, message):
    assert_names_file_and_key(tmp_path, capsys, kind, text, message)


@pytest.mark.parametrize(
    "start, start_ms",
    [
        ("2024-05-01T00:00:00Z", 1714521600000),  # a YAML timestamp, loaded as a datetime
        ("2024-05-01 02:00:00+02:00", 1714521600000),
        ("'2024-05-01T00:00:00.000+00:00'", 1714521600000),  # a string
    ],
)
def test_start_is_a_string_or_a_yaml_timestamp(tmp_path, start, start_ms):
    (tmp_path / "spec.yml").write_text(_MINI_SPEC % f"start: {start}")
    assert load_scenario_spec(tmp_path / "spec.yml").start_ms == start_ms


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


PACKAGED_YAML = sorted(
    str(path.relative_to(Path(str(importlib.resources.files("chainscope")))))
    for path in Path(str(importlib.resources.files("chainscope").joinpath("config"))).rglob("*.yml")
)


@pytest.mark.parametrize("name", PACKAGED_YAML)
def test_packaged_document_loads_alike_with_libyaml_and_pure_python(name):
    text = importlib.resources.files("chainscope").joinpath(name).read_text(encoding="utf-8")
    # repr tells 1 from 1.0 and True, which == does not
    assert repr(yaml.load(text, Loader=configio._LOADER)) == repr(yaml.load(text, Loader=yaml.SafeLoader))


@pytest.mark.parametrize("text", ["rules: [", "rules:\n  - a\n - b\n", "a: 'open", "\tkey: tab", "a: *nowhere"])
def test_malformed_yaml_exit_2_naming_the_file(tmp_path, capsys, text):
    (tmp_path / "rules.yml").write_text(text, encoding="utf-8")
    (tmp_path / "events.jsonl").write_text("")
    argv = ["tag", "--events", str(tmp_path / "events.jsonl"), "--rules", str(tmp_path / "rules.yml"), "--out", str(tmp_path / "run")]
    assert main(argv) == 2
    assert f"malformed YAML in {tmp_path / 'rules.yml'}" in capsys.readouterr().err


def test_missing_config_file_names_path(tmp_path):
    from chainscope.configio import load_yaml

    with pytest.raises(ConfigError) as err:
        load_yaml(tmp_path / "nope.yml")
    assert "nope.yml" in str(err.value)


@pytest.mark.parametrize(
    "setting, error, detail",
    [
        ('default_year: "2023"', ConfigError, "default_year must be an integer"),
        ("default_year: true", ConfigError, "default_year must be an integer"),
        ("ts_format: isoo", ConfigError, "unknown ts_format 'isoo'"),
        ('parse_threshold: "high"', ParseError, r"adapters\[0\]\.'parse_threshold' must be a number, got 'high'"),
        ("parse_threshold: true", ParseError, r"adapters\[0\]\.'parse_threshold' must be a number, got True"),
        # each of these was read as text or taken as it was, and changed or broke the run;
        # YAML's last value of a repeated key replaces the entry's own source or field_map
        ("source: null", ParseError, r"adapters\[0\]\.'source' must be a string, got None"),
        ("file_pattern: 5", ParseError, r"adapters\[0\]\.'file_pattern' must be a string, got 5"),
        ("field_map: {ts: null, message: message}", ParseError, r"adapters\[0\]\.field_map\.'ts' must be a string, got None"),
        ('parse_threshold: "nan"', ParseError, r"adapters\[0\]\.'parse_threshold' must be a number, got 'nan'"),
        ("parse_threshold: .nan", ConfigError, r"adapters\[0\]\.'parse_threshold' must be a number in \[0, 1\], got nan"),
        ("parse_threshold: 1.5", ConfigError, r"adapters\[0\]\.'parse_threshold' must be a number in \[0, 1\], got 1.5"),
        ("parse_threshold: -0.5", ConfigError, r"adapters\[0\]\.'parse_threshold' must be a number in \[0, 1\], got -0.5"),
        # null is a value, not an absent key, so it never takes the default
        ("trust_origin: null", ParseError, r"adapters\[0\]\.'trust_origin' must be a string, got None"),
    ],
)
def test_malformed_adapter_setting_is_a_config_error(tmp_path, setting, error, detail):
    path = tmp_path / "adapters.yml"
    path.write_text(
        "adapters:\n  - source: syslog\n    format: syslog_line\n"
        f"    field_map: {{ts: ts, message: message}}\n    {setting}\n"
    )
    with pytest.raises(error, match=detail):
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
        ("adapters:\n  - {source: null, format: syslog_line, field_map: {ts: ts, message: message}}\n", "adapters[0].'source' must be a string"),
        (ADAPTER % "field_map: {ts: ts, message: message}, file_pattern: 5", "adapters[0].'file_pattern' must be a string"),
        (ADAPTER % "field_map: {ts: null, message: message}", "adapters[0].field_map.'ts' must be a string"),
        (ADAPTER % "field_map: {ts: ts, message: message}, parse_threshold: 'nan'", "adapters[0].'parse_threshold' must be a number"),
        (ADAPTER % "field_map: {ts: ts, message: message}, parse_threshold: 1.5", "adapters[0].'parse_threshold' must be a number in [0, 1]"),
        ("adapters:\n  - {format: syslog_line, field_map: {ts: ts, message: message}}\n", "adapters[0] lacks 'source'"),
        # the adapter's own checks
        (ADAPTER % "field_map: {ts: ts, message: message}, ts_format: isoo", "adapters[0]: adapter 'syslog': unknown ts_format 'isoo'"),
        (ADAPTER.replace("syslog_line", "syslog_lines") % "field_map: {ts: ts, message: message}", "adapters[0]: adapter 'syslog': unknown format"),
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
        ("rules:\n  - {rule_id: null, step: INSTALL, patterns: [pip], candidate_fields: [text_blob]}\n", "rules[0].'rule_id' must be a string"),
        ("rules:\n  - {rule_id: r, step: 5, patterns: [pip], candidate_fields: [text_blob]}\n", "rules[0].'step' must be a string"),
        (RULE % "priority: '3'", "rules[0].'priority' must be a number, got '3'"),
        ("rules:\n  - {rule_id: r, step: INSTALL, patterns: [pip, '('], candidate_fields: [text_blob]}\n",
         "rules[0].patterns[1] of rule 'r' is not a valid regular expression"),
        # re only warns of a possible nested set; a rule pattern must not be ambiguous
        ("rules:\n  - {rule_id: r, step: INSTALL, patterns: ['[[a]'], candidate_fields: [text_blob]}\n",
         "rules[0].patterns[0] of rule 'r' is not a valid regular expression"),
        # values of the right type that name no step, or repeat a rule
        (RULE.replace("step: INSTALL", "step: FOO") % "priority: 1", "rules[0].'step': unknown step tag 'FOO'"),
        (RULE % "priority: 1" + RULE[len("rules:\n"):] % "priority: 2", "rules[1]: duplicate rule_id 'r'"),
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
        ("categories:\n  - {name: null, prefix: HOST_}\n", "categories[0].'name' must be a string"),
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
        (SPEC.replace("hosts: [{name: h1}]", "hosts: [{name: null}]"), "hosts[0].'name' must be a string, got None"),
        (SPEC.replace("hosts: [{name: h1}]", "hosts: [{name: h1, profile: 3}]"), "hosts[0].'profile' must be a string"),
        (SPEC.replace("seed: 1", 'seed: "104"'), "'seed' must be an integer, got '104'"),
        (SPEC.replace("scenario_id: mini", "scenario_id: 5"), "'scenario_id' must be a string"),
        (SPEC + "attack: {template: [t]}\n", "attack.'template' must be a string"),
        (SPEC.replace("n_activities: 5", "n_activities: 5, activity_set: Web"), "benign.'activity_set' must be a list of strings"),
        (SPEC.replace("n_activities: 5", "n_activities: many"), "benign.'n_activities' must be an integer"),
        (SPEC + "duration_s: long\n", "'duration_s' must be an integer"),
        (SPEC + "attack: {template: t, start_s: later}\n", "attack.'start_s' must be an integer"),
        (SPEC.replace("n_activities: 5", "active_hours: ['9:xx', '19:00']"), "bad active-hours time"),
        (SPEC + "start: yesterday\n", "'start'"),
        (SPEC.replace("n_activities: 5", "n_activities: 5, min_interval_s: 400"), "min_interval_s must be <= max_interval_s"),
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
        (STEP.replace("template_id: t", "template_id: 7"), "'template_id' must be a string"),
        (STEP.replace("step: INSTALL", "step: null"), "steps[0].'step' must be a string"),
        (STEP.replace("source: syslog", "source: [syslog]"), "steps[0].events[0].'source' must be a string"),
        (STEP + "attack_user: 3\n", "'attack_user' must be a string"),
        (STEP.replace("    technique_ids", "    offset_s: 60\n    technique_ids") + STEP[STEP.index("  - step"):].replace("INSTALL", "AUTH"),
         "step offset_s values must be non-decreasing"),
        (STEP + "description: {a: b}\n", "'description' must be a string"),
        (STEP.replace("step: INSTALL", "step: FOO"), "steps[0].'step': unknown step tag 'FOO'"),
        (STEP + "omit: [AUTH, FOO]\n", "omit[1]: unknown step tag 'FOO'"),
    ],
)
def test_malformed_attack_template(tmp_path, capsys, text, key):
    assert_names_file_and_key(tmp_path, capsys, "template", text, key)


# --- no config value reaches an internal error ------------------------------
# One scalar of a packaged document is replaced with a value of another YAML
# type. The loader either reads the document or names the file and the key;
# a run on it exits 0 or 2, never 3.

PACKAGED_DOCUMENTS = {
    kind: yaml.safe_load(importlib.resources.files("chainscope").joinpath("config", name).read_text(encoding="utf-8"))
    for kind, name in {
        "adapters": "adapters.yml",
        "rules": "rules.yml",
        "policy": "sanitize_policy.yml",
        "spec": "scenarios/dependency-chain.yml",
        "template": "templates/dependency-chain.yml",
    }.items()
}
YAML_VALUES = (None, True, 7, 2.5, "text", ["x"], {"k": "v"})
LOADERS = {
    "adapters": load_adapters,
    "rules": lambda path: load_rules(load_rules_doc(path), str(path)),
    "policy": load_policy,
    "spec": load_scenario_spec,
    "template": load_template,
}


def scalar_paths(doc, path=()):
    """The path (keys and list indices) of every scalar in doc."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return [found for key, value in items for found in scalar_paths(value, path + (key,))]
    return [path]


@st.composite
def retyped_documents(draw):
    """(kind, document, the innermost key above the replaced scalar)."""
    kind = draw(st.sampled_from(sorted(PACKAGED_DOCUMENTS)))
    doc = copy.deepcopy(PACKAGED_DOCUMENTS[kind])
    *parents, last = draw(st.sampled_from(scalar_paths(doc)))
    holder = functools.reduce(operator.getitem, parents, doc)
    holder[last] = draw(st.sampled_from([v for v in YAML_VALUES if type(v) is not type(holder[last])]))
    return kind, doc, next(k for k in reversed((*parents, last)) if isinstance(k, str))


@settings(max_examples=100, deadline=None)
@given(retyped_documents())
def test_a_retyped_config_value_is_read_or_named(case):
    kind, doc, key = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.yml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        try:
            LOADERS[kind](path)
        except ChainscopeError as exc:
            assert str(path) in str(exc) and key in str(exc), exc


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small synthesized scenario, its evaluate run and a salt file."""
    root = tmp_path_factory.mktemp("small")
    (root / "spec.yml").write_text(SPEC.replace("[syslog]", "[syslog, zeek]") + "attack: {template: dependency-chain}\n")
    assert main(["synth", "--spec", str(root / "spec.yml"), "--out", str(root / "scenario")]) == 0
    assert main(["evaluate", "--scenario-dir", str(root / "scenario"), "--out", str(root / "run")]) == 0
    (root / "salt.txt").write_text("salt\n")
    return root


@settings(max_examples=20, deadline=None)
@given(retyped_documents())
def test_a_retyped_config_value_never_exits_3(small_run, case):
    kind, doc, _key = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / f"{kind}.yml", str(Path(tmp) / "out")
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        argv = {
            "adapters": ["evaluate", "--scenario-dir", str(small_run / "scenario"), "--adapters", str(path)],
            "rules": ["evaluate", "--scenario-dir", str(small_run / "scenario"), "--rules", str(path)],
            "policy": ["sanitize", "--in", str(small_run / "run" / "events.jsonl"), "--policy", str(path),
                       "--salt-file", str(small_run / "salt.txt"), "--mappings-dir", str(Path(tmp) / "m")],
            "spec": ["synth", "--spec", str(path)],
            "template": ["synth", "--spec", str(small_run / "spec.yml"), "--template", str(path)],
        }[kind]
        assert main(argv + ["--out", out]) in (0, 2)
