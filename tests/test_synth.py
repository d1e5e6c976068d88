import json
import random

import pytest

from chainscope.errors import ScenarioError
from chainscope.ingest import ingest_scenario, merge_scenario
from chainscope.model import events_to_jsonl
from chainscope.synth import (
    ACTIVITY_SET,
    BenignConfig,
    HostSpec,
    ScenarioSpec,
    emit_activity_events,
    generate_scenario,
    in_active_hours,
    load_ground_truth,
    oracle_chains,
    schedule_benign,
    write_scenario,
)
from chainscope.tagging import StepTag, TagDecision, tag_run
from conftest import make_event

LINUX_SOURCES = ("syslog", "auth", "auditd", "zeek", "suricata", "tracee", "azure_port")
AZURE_SOURCES = ("azure_events", "azure_process", "azure_security", "azure_conn", "azure_port")
# zeek takes every network emission it is offered, so suricata needs a set of its own;
# the Azure set routes every emission kind but "trace" to an Azure CSV export
ROUND_TRIP_SOURCE_SETS = (LINUX_SOURCES, ("suricata",), AZURE_SOURCES)


def spec_with(n=30, seed=7, hosts=None, sources=LINUX_SOURCES, **kw):
    return ScenarioSpec(
        scenario_id=kw.pop("scenario_id", "synthtest"),
        seed=seed,
        hosts=tuple(hosts or (HostSpec(name="h1"), HostSpec(name="h2", profile="daily_use"))),
        sources=tuple(sources),
        benign=BenignConfig(n_activities=n, min_interval_s=20, max_interval_s=120),
        **kw,
    )


class TestScheduleBenign:
    def test_zero_activities_empty_timeline(self):
        assert schedule_benign(spec_with(n=0)) == []

    def test_seed_determinism(self):
        first = schedule_benign(spec_with(seed=42))
        second = schedule_benign(spec_with(seed=42))
        assert first == second
        assert first != schedule_benign(spec_with(seed=43))

    def test_every_emission_inside_active_hours(self):
        for seed in range(25):
            for ts, _activity, _host in schedule_benign(spec_with(n=60, seed=seed, duration_s=14 * 3600)):
                assert in_active_hours(ts)

    def test_activities_drawn_from_profile_set(self):
        spec = spec_with(n=80, hosts=[HostSpec(name="office", profile="daily_use")])
        seen = {activity for _, activity, _ in schedule_benign(spec)}
        assert seen <= {"Web", "FileOp", "Update", "Download", "API", "Login"}
        assert seen  # schedule is non-trivial


class TestEmitActivityEvents:
    def test_download_has_url_text_and_connection(self):
        events = emit_activity_events("Download", "h1", 1714554000000, LINUX_SOURCES, rng=random.Random(1))
        assert any("https://" in e.text_blob for e in events)
        assert any(e.network.dst_ip is not None for e in events)

    def test_login_is_single_auth_flavored_event(self):
        events = emit_activity_events("Login", "h1", 1714554000000, LINUX_SOURCES, rng=random.Random(1))
        assert len(events) == 1
        assert "session opened" in events[0].text_blob

    def test_unknown_activity_rejected(self):
        with pytest.raises(ScenarioError):
            emit_activity_events("Nap", "h1", 0, LINUX_SOURCES)

    def test_burst_shares_host_and_stays_within_60s(self):
        for activity in ACTIVITY_SET:
            events = emit_activity_events(activity, "h9", 1714554000000, LINUX_SOURCES, rng=random.Random(3))
            assert events, activity
            assert {e.host for e in events} == {"h9"}
            assert max(e.ts for e in events) - min(e.ts for e in events) <= 60_000


def simple_template():
    from chainscope.synth import AttackEventSpec, AttackStepSpec, AttackTemplate

    return AttackTemplate(
        template_id="two-step",
        steps=(
            AttackStepSpec(
                step=StepTag.INSTALL,
                offset_s=0,
                technique_ids=("T1195.002",),
                events=(
                    AttackEventSpec(
                        source="syslog",
                        fields={"host": "{host0}", "image": "pip", "message": "pip install badpkg"},
                    ),
                ),
            ),
            AttackStepSpec(
                step=StepTag.OUTBOUND_CONN,
                offset_s=60,
                technique_ids=("T1071",),
                events=(
                    AttackEventSpec(
                        source="zeek",
                        fields={
                            "host": "{host0}",
                            "src_ip": "{host0_ip}",
                            "src_port": 51000,
                            "dst_ip": "203.0.113.9",
                            "dst_port": 4444,
                            "proto": "tcp",
                            "message": "conn tcp {host0_ip}:51000 -> 203.0.113.9:4444 established",
                        },
                    ),
                ),
            ),
            AttackStepSpec(
                step=StepTag.EXFIL,
                offset_s=120,
                technique_ids=("T1041",),
                events=(
                    AttackEventSpec(
                        source="zeek",
                        fields={"host": "{host0}", "message": "bulk transfer"},
                    ),
                ),
            ),
        ),
        omit=frozenset({StepTag.EXFIL}),
    )


class TestGenerateScenario:
    def test_benign_only_has_zero_attack_labels(self):
        data = generate_scenario(spec_with(n=20))
        assert data.ground_truth.attack_event_ids() == []
        assert data.ground_truth.expected is None
        assert all(label == "benign" for label in data.ground_truth.labels.values())

    def test_every_event_is_labeled(self):
        data = generate_scenario(spec_with(n=15), simple_template())
        all_ids = {e.event_id for events in data.tables.values() for e in events}
        assert set(data.ground_truth.labels) == all_ids

    def test_omitted_step_not_emitted_but_expected(self):
        data = generate_scenario(spec_with(n=10), simple_template())
        labels = set(data.ground_truth.labels.values())
        assert "EXFIL" not in labels
        assert "INSTALL" in labels and "OUTBOUND_CONN" in labels
        assert data.ground_truth.expected.steps == {StepTag.INSTALL, StepTag.OUTBOUND_CONN, StepTag.EXFIL}
        assert data.ground_truth.omitted == {StepTag.EXFIL}
        assert data.ground_truth.chain_order == (StepTag.INSTALL, StepTag.OUTBOUND_CONN)

    def test_withheld_source_drops_that_evidence(self):
        no_network = tuple(s for s in LINUX_SOURCES if s not in ("zeek", "suricata", "azure_conn"))
        data = generate_scenario(spec_with(n=10, sources=no_network), simple_template())
        labels = set(data.ground_truth.labels.values())
        assert "OUTBOUND_CONN" not in labels  # its only emitting source was withheld
        assert "INSTALL" in labels

    def test_seed_determinism_byte_identical(self):
        a = generate_scenario(spec_with(n=25, seed=99), simple_template())
        b = generate_scenario(spec_with(n=25, seed=99), simple_template())
        for source in a.tables:
            assert events_to_jsonl(a.tables[source]) == events_to_jsonl(b.tables[source])
        assert a.raw_lines == b.raw_lines
        assert a.ground_truth.labels == b.ground_truth.labels

    def test_benign_emissions_inside_active_hours(self):
        data = generate_scenario(spec_with(n=40, duration_s=14 * 3600))
        for events in data.tables.values():
            for event in events:
                if data.ground_truth.labels[event.event_id] == "benign":
                    assert in_active_hours(event.ts)

    def test_attack_interleaved_with_benign(self):
        spec = spec_with(n=200, attack_start_s=3600)
        data = generate_scenario(spec, simple_template())
        attack_ts = [
            e.ts
            for events in data.tables.values()
            for e in events
            if data.ground_truth.labels[e.event_id] != "benign"
        ]
        benign_ts = [
            e.ts
            for events in data.tables.values()
            for e in events
            if data.ground_truth.labels[e.event_id] == "benign"
        ]
        lo, hi = min(attack_ts), max(attack_ts)
        if benign_ts and min(benign_ts) <= hi and max(benign_ts) >= lo:
            assert any(lo <= ts <= hi for ts in benign_ts)

    def test_default_rule_pack_never_fires_on_benign(self, default_rules, aliases):
        data = generate_scenario(spec_with(n=120, seed=5))
        merged = merge_scenario([list(v) for v in data.tables.values()])
        _, diag = tag_run(merged, default_rules, aliases=aliases)
        assert diag.no_steps_observed

    def test_label_soundness_under_gating(self, default_rules, aliases):
        data = generate_scenario(spec_with(n=40), simple_template())
        gt = data.ground_truth
        merged = merge_scenario([list(v) for v in data.tables.values()])
        decisions, _ = tag_run(merged, default_rules, gate=gt.expected.steps, aliases=aliases, expected=gt.expected.steps)
        observed = {d.chosen for d in decisions if d.chosen}
        assert observed == gt.expected.steps - gt.omitted


class TestWriteAndReingest:
    def test_round_trip_equals_in_memory_tables(self, tmp_path, adapters, aliases):
        written = set()
        for i, sources in enumerate(ROUND_TRIP_SOURCE_SETS):
            data = generate_scenario(spec_with(n=30, seed=11, sources=sources), simple_template())
            out = tmp_path / f"scenario{i}"
            write_scenario(data, out)
            result = ingest_scenario(out, adapters, aliases, scenario_id=data.spec.scenario_id)
            for source, events in data.tables.items():
                assert tuple(result.events_by_source.get(source, ())) == events
            # parse rate on synthetic fixtures is exactly 1.0
            assert all(s.rejected == 0 and s.quarantined == 0 for s in result.stats)
            written |= {source for source, events in data.tables.items() if events}
        assert written == {a.source for a in adapters}  # every packaged adapter re-read records

    def test_ground_truth_file_round_trip(self, tmp_path):
        data = generate_scenario(spec_with(n=10), simple_template())
        out = tmp_path / "scenario"
        write_scenario(data, out)
        gt = load_ground_truth(out / "ground_truth.json")
        assert gt.expected.steps == data.ground_truth.expected.steps
        assert gt.labels == dict(data.ground_truth.labels)
        assert gt.chain_order == data.ground_truth.chain_order
        assert gt.omitted == data.ground_truth.omitted


class TestOracleChains:
    def test_no_events_empty(self):
        assert oracle_chains([], [], window_ms=1000, gap_threshold_ms=1000) == []

    def test_single_event_single_chain(self):
        event = make_event(event_id="a", ts=5)
        decisions = [TagDecision(event_id="a", candidates=(), chosen=StepTag.AUTH, diagnostics=())]
        chains = oracle_chains([event], decisions, window_ms=1000, gap_threshold_ms=1000)
        assert len(chains) == 1
        assert chains[0].steps == (StepTag.AUTH,)

    def test_size_cap_enforced(self):
        events = [make_event(event_id=f"e{i}", ts=i) for i in range(51)]
        decisions = [
            TagDecision(event_id=e.event_id, candidates=(), chosen=StepTag.AUTH, diagnostics=()) for e in events
        ]
        with pytest.raises(ScenarioError):
            oracle_chains(events, decisions, window_ms=10, gap_threshold_ms=10)
