"""Metamorphic relations over generated scenarios.

The packaged scenarios' default graphs have 1 to 3 nodes. Here hypothesis
draws small ``ScenarioSpec``s instead: 2 or 3 hosts, a few benign
activities, any packaged attack template, any seed and any two or more
sources. They run with the dense rule pack (the packaged rules plus the two
benign rules), so their graphs have nodes and edges to get wrong. Each test
checks a relation that must hold for every input, not a value.
"""

import random
import tempfile
from pathlib import Path

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainscope.cli import main
from chainscope.configio import load_adapters, load_packaged_template, load_policy, packaged_template_ids
from chainscope.ingest import ingest_scenario, merge_scenario
from chainscope.model import events_from_jsonl, events_to_jsonl, sort_events
from chainscope.sanitize import sanitize_dataset
from chainscope.synth import PROFILE_ACTIVITIES, BenignConfig, HostSpec, ScenarioSpec, generate_scenario, write_scenario
from chainscope.tagging import decisions_to_jsonl, load_rules, tag_run
from conftest import run_stage_commands
from golden_corpus import DENSE_RULES_TEXT
HOSTS = ("lin-build-01", "lin-build-02", "win-dev-07", "mac-ops-03")


@st.composite
def small_scenarios(draw):
    """The generated data of a small ScenarioSpec around a packaged template."""
    template_id = draw(st.sampled_from(packaged_template_ids()))
    hosts = draw(st.lists(st.sampled_from(HOSTS), min_size=2, max_size=3, unique=True))
    spec = ScenarioSpec(
        scenario_id=f"gen-{template_id}",
        seed=draw(st.integers(0, 2**32)),
        hosts=tuple(HostSpec(name, draw(st.sampled_from(sorted(PROFILE_ACTIVITIES)))) for name in hosts),
        sources=tuple(sorted(draw(st.sets(st.sampled_from(sorted(a.source for a in load_adapters())), min_size=2)))),
        duration_s=4 * 3600,
        benign=BenignConfig(n_activities=draw(st.integers(2, 30)), min_interval_s=30, max_interval_s=240),
        attack_template=template_id,
        attack_start_s=draw(st.integers(0, 3 * 3600)),
    )
    return generate_scenario(spec, load_packaged_template(template_id))


@settings(max_examples=25, deadline=None)
@given(data=small_scenarios(), order_seed=st.integers(0, 2**32))
def test_permuting_the_rule_list_leaves_the_decisions_unchanged(aliases, data, order_seed):
    doc = yaml.safe_load(DENSE_RULES_TEXT)
    events = merge_scenario(list(data.tables.values()))
    decisions, _diag = tag_run(events, load_rules(doc), aliases=aliases)
    random.Random(order_seed).shuffle(doc["rules"])
    permuted, _diag = tag_run(events, load_rules(doc), aliases=aliases)
    assert decisions_to_jsonl(permuted) == decisions_to_jsonl(decisions)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=small_scenarios())
def test_the_stage_commands_write_evaluates_bytes(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        scenario_dir, rules = root / "scenario", root / "rules_dense.yml"
        write_scenario(data, scenario_dir)
        rules.write_text(DENSE_RULES_TEXT, encoding="utf-8")
        stages = run_stage_commands(scenario_dir, root, rules)
        run = root / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--rules", str(rules), "--out", str(run)]) == 0
        for name, stage in stages.items():
            assert (stage / name).read_bytes() == (run / name).read_bytes(), name


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=small_scenarios())
def test_the_ingested_and_sanitized_tables_encode_and_read_back(aliases, data):
    # the events.jsonl writer refuses a value it cannot write; the tables
    # the commands write never hold one
    with tempfile.TemporaryDirectory() as tmp:
        write_scenario(data, Path(tmp))
        merged = ingest_scenario(Path(tmp), load_adapters(), aliases).merged()
    tables = {}
    for event in merged:
        tables.setdefault(event.source, []).append(event)
    sanitized, _pmap, _report = sanitize_dataset(tables, load_policy(), b"salt")
    for table in (merged, sort_events(e for events in sanitized.values() for e in events)):
        assert events_from_jsonl(events_to_jsonl(table)) == table
