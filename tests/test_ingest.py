import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from chainscope.errors import ConfigError, EventIdError, FormatMismatchError
from chainscope.ingest import (
    RawRecord,
    SourceAdapterSpec,
    ingest_scenario,
    merge_scenario,
    normalize_records,
    parse_stream,
    parse_text,
)
from chainscope.model import FieldAliasMap
from conftest import make_event

KV_ADAPTER = SourceAdapterSpec(
    source="auditd",
    format="kv_audit",
    field_map={"ts": "ts", "host": "host", "user": "uid", "pid": "pid", "image": "exe", "cmdline": "cmd", "message": "msg"},
)
SYSLOG_ADAPTER = SourceAdapterSpec(
    source="syslog",
    format="syslog_line",
    field_map={"ts": "ts", "host": "host", "image": "prog", "pid": "pid", "message": "message"},
)


class TestParseStream:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "auditd.log"
        path.write_text("")
        result = parse_stream(path, KV_ADAPTER)
        assert result.records == ()
        assert result.n_rejected == 0

    def test_kv_audit_matches_hand_parsed_oracle(self, tmp_path):
        lines = [
            'type=EXECVE ts=1714554000.000 host=h1 uid=dev01 pid=10 exe="/usr/bin/ls" cmd="ls -la /tmp"',
            "type=CONNECT ts=1714554001.500 host=h1 uid=dev01 pid=11",
            'type=WRITE ts=1714554002.250 host=h2 uid=ops01 pid=12 msg="file write /etc/hosts"',
        ]
        path = tmp_path / "auditd.log"
        path.write_text("\n".join(lines) + "\n")
        result = parse_stream(path, KV_ADAPTER)
        assert result.n_rejected == 0
        expected_fields = [
            {"type": "EXECVE", "ts": "1714554000.000", "host": "h1", "uid": "dev01", "pid": "10", "exe": "/usr/bin/ls", "cmd": "ls -la /tmp"},
            {"type": "CONNECT", "ts": "1714554001.500", "host": "h1", "uid": "dev01", "pid": "11"},
            {"type": "WRITE", "ts": "1714554002.250", "host": "h2", "uid": "ops01", "pid": "12", "msg": "file write /etc/hosts"},
        ]
        assert [dict(r.fields) for r in result.records] == expected_fields
        assert [r.ordinal for r in result.records] == [0, 1, 2]
        assert [r.raw_text for r in result.records] == lines

    def test_format_mismatch_below_threshold(self, tmp_path):
        path = tmp_path / "auditd.log"
        path.write_text("completely unstructured line\n" * 10)
        with pytest.raises(FormatMismatchError):
            parse_stream(path, KV_ADAPTER)

    def test_rejects_counted_not_dropped_silently(self):
        text = "2024-05-01T09:00:00.000+00:00 h1 app: ok\n???\n2024-05-01T09:00:02.000+00:00 h1 app: ok\n"
        adapter = SourceAdapterSpec(
            source="syslog",
            format="syslog_line",
            field_map=SYSLOG_ADAPTER.field_map,
            parse_threshold=0.5,
        )
        result = parse_text(text, adapter)
        assert len(result.records) == 2
        assert result.rejected_lines == (2,)

    def test_eve_json_flattens_nested_keys(self):
        adapter = SourceAdapterSpec(
            source="suricata",
            format="eve_json",
            field_map={"ts": "timestamp", "message": "alert.signature"},
        )
        line = json.dumps({"timestamp": "2024-05-01T09:00:00.000+0000", "alert": {"signature": "beacon", "severity": 2}})
        result = parse_text(line + "\n", adapter)
        assert result.records[0].fields["alert.signature"] == "beacon"
        assert result.records[0].fields["alert.severity"] == "2"

    def test_csv_header_and_row_mismatch(self):
        adapter = SourceAdapterSpec(
            source="azure_events",
            format="csv_export",
            field_map={"ts": "TimeGenerated", "message": "Message"},
            parse_threshold=0.5,
        )
        text = "TimeGenerated,Message\n2024-05-01T09:00:00.000+00:00,hello\nonlyonecell\n"
        result = parse_text(text, adapter)
        assert len(result.records) == 1
        assert result.records[0].fields == {"TimeGenerated": "2024-05-01T09:00:00.000+00:00", "Message": "hello"}
        assert result.n_rejected == 1


class TestNormalizeRecords:
    def _records(self, text, adapter=SYSLOG_ADAPTER):
        return parse_text(text, adapter).records

    def test_single_candidate_message(self):
        records = self._records("2024-05-01T09:00:00.000+00:00 h1 app: just a message\n")
        result = normalize_records(records, SYSLOG_ADAPTER, scenario_id="s")
        assert result.events[0].text_blob == "just a message"

    def test_text_blob_candidate_order_message_then_cmdline(self):
        records = self._records(
            'type=EXECVE ts=1714554000.000 host=h1 cmd="run this" msg="a message"\n', KV_ADAPTER
        )
        result = normalize_records(records, KV_ADAPTER, scenario_id="s")
        # fixed candidate order: raw, message, cmdline
        assert result.events[0].text_blob == "a message run this"

    def test_record_without_timestamp_quarantined(self):
        adapter = SourceAdapterSpec(
            source="auditd",
            format="kv_audit",
            field_map={"ts": "when", "message": "msg"},
        )
        records = self._records('msg="no clock here" host=h1\n', KV_ADAPTER)
        result = normalize_records(records, adapter, scenario_id="s")
        assert result.events == ()
        assert len(result.quarantined) == 1
        assert "timestamp" in result.quarantined[0].reason

    def test_event_identity_from_source_file_line(self):
        records = self._records("2024-05-01T09:00:00.000+00:00 h1 app: m\n")
        result = normalize_records(records, SYSLOG_ADAPTER, scenario_id="s", file_ordinal=2)
        assert result.events[0].event_id == "syslog:002:000000"

    def test_unmapped_fields_land_in_extras_and_resolve_via_alias(self):
        adapter = SourceAdapterSpec(
            source="azure_events",
            format="csv_export",
            field_map={"ts": "TimeGenerated", "message": "Message"},
        )
        text = "TimeGenerated,Message,UserName\n2024-05-01T09:00:00.000+00:00,hi,alice\n"
        records = parse_text(text, adapter).records
        aliases = FieldAliasMap({"user": ["UserName"]})
        result = normalize_records(records, adapter, aliases, scenario_id="s")
        event = result.events[0]
        assert event.user == "alice"  # alias fallback fills the structured field
        assert "UserName" in event.extras

    def test_equal_values_share_one_string(self):
        records = self._records(
            'type=EXECVE ts=1714554000.000 host=build-01 uid=ci exe="/usr/bin/pip" cmd="pip install a"\n'
            'type=EXECVE ts=1714554001.000 host=build-01 uid=ci exe="/usr/bin/pip" cmd="pip install b"\n',
            KV_ADAPTER,
        )
        first, second = normalize_records(records, KV_ADAPTER, scenario_id="s").events
        assert first.host == "build-01" and first.host is second.host
        assert first.user is second.user and first.process.image is second.process.image
        assert [k for k in first.extras] == ["type"] and next(iter(first.extras)) is next(iter(second.extras))

    @pytest.mark.parametrize("file_ordinal, ordinal", [(1_000, 0), (0, 1_000_000)])
    def test_event_id_overflow_names_source_and_file(self, file_ordinal, ordinal):
        record = replace(self._records("2024-05-01T09:00:00.000+00:00 h1 app: m\n")[0], ordinal=ordinal)
        with pytest.raises(EventIdError, match=r"syslog/x\.log: event id overflow for source 'syslog'"):
            normalize_records([record], SYSLOG_ADAPTER, file_ordinal=file_ordinal, origin="syslog/x.log")
        # one less in each ordinal still fits
        widest = replace(record, ordinal=min(ordinal, 999_999))
        event = normalize_records([widest], SYSLOG_ADAPTER, file_ordinal=min(file_ordinal, 999)).events[0]
        assert event.event_id == f"syslog:{min(file_ordinal, 999):03d}:{min(ordinal, 999_999):06d}"

    @pytest.mark.parametrize("file_ordinal, ordinal", [(1_000, 0), (0, 1_000_000)])
    def test_prenormalized_default_id_overflow(self, file_ordinal, ordinal):
        adapter = SourceAdapterSpec(source="replay", format="prenormalized")
        line = json.dumps({"ts": 1714554000000, "text_blob": "x"})
        record = RawRecord(source="replay", ordinal=ordinal, fields={}, raw_text=line)
        with pytest.raises(EventIdError, match="replay.jsonl: event id overflow for source 'replay'"):
            normalize_records([record], adapter, file_ordinal=file_ordinal, origin="replay.jsonl")
        # a record that carries its own id needs no default
        named = replace(record, raw_text=json.dumps({"event_id": "r1", "ts": 1}))
        assert normalize_records([named], adapter, file_ordinal=file_ordinal).events[0].event_id == "r1"

    def test_int_coercion(self):
        records = self._records("2024-05-01T09:00:00.000+00:00 h1 app[123]: m\n")
        result = normalize_records(records, SYSLOG_ADAPTER, scenario_id="s")
        assert result.events[0].process.pid == 123

    def test_trust_origin_default_applied(self):
        adapter = SourceAdapterSpec(
            source="syslog",
            format="syslog_line",
            field_map=SYSLOG_ADAPTER.field_map,
            trust_origin="attacker",
        )
        records = self._records("2024-05-01T09:00:00.000+00:00 c2 app: m\n")
        result = normalize_records(records, adapter, scenario_id="s")
        assert result.events[0].trust_origin == "attacker"


class TestMergeScenario:
    def test_sorted_table_is_fixpoint(self):
        table = [make_event(event_id="a", ts=1), make_event(event_id="b", ts=2)]
        assert merge_scenario([table]) == table

    def test_interleaved_tables_non_decreasing(self):
        t1 = [make_event(event_id=f"a{i}", ts=i * 10) for i in range(20)]
        t2 = [make_event(event_id=f"b{i}", ts=i * 7 + 3) for i in range(20)]
        merged = merge_scenario([t1, t2])
        assert len(merged) == 40
        for earlier, later in zip(merged, merged[1:]):
            assert earlier.ts <= later.ts

    def test_empty_input(self):
        assert merge_scenario([]) == []

    def test_scenario_mismatch_names_both_ids(self):
        t1 = [make_event(event_id="a", scenario_id="one")]
        t2 = [make_event(event_id="b", scenario_id="two")]
        with pytest.raises(ConfigError) as err:
            merge_scenario([t1, t2])
        assert "one" in str(err.value) and "two" in str(err.value)

    def test_conservation(self):
        t1 = [make_event(event_id=f"a{i}", ts=i) for i in range(13)]
        t2 = [make_event(event_id=f"b{i}", ts=i) for i in range(7)]
        assert len(merge_scenario([t1, t2])) == 20

    @pytest.mark.parametrize("split", [True, False])
    def test_repeated_event_id_names_the_first(self, split):
        # prenormalized records keep their own ids, so two tables can share one
        first = [make_event(event_id="a", ts=1, source="replay_a"), make_event(event_id="x", ts=2, source="replay_a")]
        second = [make_event(event_id="x", ts=9, source="replay_b"), make_event(event_id="a", ts=9, source="replay_b")]
        tables = [first, second] if split else [first + second]
        with pytest.raises(EventIdError, match=r"duplicate event id 'x' \(sources 'replay_a' and 'replay_b'\)"):
            merge_scenario(tables)


class TestScenarioIngestion:
    def test_deterministic_reruns(self, tmp_path, adapters, aliases):
        (tmp_path / "syslog.log").write_text(
            "2024-05-01T09:00:00.000+00:00 h1 app: one\n2024-05-01T09:00:01.000+00:00 h1 app: two\n"
        )
        first = ingest_scenario(tmp_path, adapters, aliases, scenario_id="s")
        second = ingest_scenario(tmp_path, adapters, aliases, scenario_id="s")
        assert first.merged() == second.merged()
        assert first.report() == second.report()

    def test_source_filter(self, tmp_path, adapters, aliases):
        (tmp_path / "syslog.log").write_text("2024-05-01T09:00:00.000+00:00 h1 app: one\n")
        (tmp_path / "auth.log").write_text("2024-05-01T09:00:00.000+00:00 h1 sshd: two\n")
        result = ingest_scenario(tmp_path, adapters, aliases, scenario_id="s", sources=["auth"])
        assert set(result.events_by_source) == {"auth"}

    def test_prenormalized_pass_through(self, tmp_path, aliases):
        adapter = SourceAdapterSpec(source="replay", format="prenormalized")
        record = {
            "event_id": "replay:000:000000",
            "ts": 1714554000000,
            "scenario_id": "s",
            "source": "replay",
            "trust_origin": "attacker",
            "host": "c2-box",
            "text_blob": "operator tasking issued",
        }
        path = tmp_path / "replay.jsonl"
        path.write_text(json.dumps(record) + "\n")
        parsed = parse_stream(path, adapter)
        result = normalize_records(parsed.records, adapter, aliases, scenario_id="s")
        event = result.events[0]
        assert event.trust_origin == "attacker"  # record value wins over adapter default
        assert event.event_id == "replay:000:000000"
        assert event.text_blob == "operator tasking issued"

    def test_conservation_with_quarantine(self, tmp_path, aliases):
        adapter = SourceAdapterSpec(
            source="auditd",
            format="kv_audit",
            field_map={"ts": "ts", "message": "msg"},
            parse_threshold=0.0,
        )
        (tmp_path / "auditd.log").write_text(
            'ts=1714554000.0 msg="ok"\nmsg="no clock"\nts=1714554001.0 msg="ok"\n'
        )
        result = ingest_scenario(tmp_path, [adapter], aliases, scenario_id="s")
        stats = result.stats[0]
        assert stats.records == 2
        assert stats.quarantined == 1
        # |merged| = sum(inputs) - |quarantined|
        assert len(result.merged()) == 3 - stats.quarantined


REAL_BUNDLE_DIR = os.environ.get("CHAINSCOPE_REAL_BUNDLE_DIR")


@pytest.mark.skipif(not REAL_BUNDLE_DIR, reason="released telemetry bundle not present in this environment")
def test_real_bundle_record_count(adapters, aliases):
    # conditional on the released corpus: the steganography scenario export
    # normalizes to exactly 8,534 records across all its streams
    result = ingest_scenario(Path(REAL_BUNDLE_DIR), adapters, aliases)
    assert result.report()["total_records"] == 8534
