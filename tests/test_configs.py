"""Packaged config documents: loadability and internal consistency."""

import pytest

from chainscope.configio import (
    load_adapters,
    load_aliases,
    load_packaged_scenario,
    load_packaged_template,
    load_policy,
    load_rules_doc,
    load_technique_map,
    packaged_scenario_ids,
    packaged_template_ids,
)
from chainscope.errors import ConfigError, ScenarioError
from chainscope.synth import ROUTING
from chainscope.tagging import StepTag, expected_from_techniques, load_rules


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
        exclusive = {}
        for step in template.emitted_steps:
            for source in template.emitting_sources(step):
                exclusive.setdefault(source, set())
        for source in exclusive:
            for step in template.emitted_steps:
                if template.emitting_sources(step) == {source}:
                    exclusive[source].add(step)
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
