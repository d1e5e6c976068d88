import json
import os
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import ConfigError, EventIdError, FormatMismatchError, ParseError
from chainscope.ingest import (
    RAW_TEXT_KEY,
    RawRecord,
    SourceAdapterSpec,
    ingest_scenario,
    merge_scenario,
    normalize_records,
    parse_stream,
    parse_text,
)
from chainscope.model import FieldAliasMap, parse_timestamp
from conftest import make_event, reference_normalize_records

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
        assert first.user is second.user and first.image is second.image
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
        record = replace(parse_text(line, adapter).records[0], ordinal=ordinal)
        with pytest.raises(EventIdError, match="replay.jsonl: event id overflow for source 'replay'"):
            normalize_records([record], adapter, file_ordinal=file_ordinal, origin="replay.jsonl")
        # a record that carries its own id needs no default
        named = replace(parse_text(json.dumps({"event_id": "r1", "ts": 1}), adapter).records[0], ordinal=ordinal)
        assert normalize_records([named], adapter, file_ordinal=file_ordinal).events[0].event_id == "r1"

    def test_prenormalized_line_is_decoded_once(self, monkeypatch):
        adapter = SourceAdapterSpec(source="replay", format="prenormalized")
        obj = {"ts": 1, "process": {"pid": 3, "image": "/bin/sh"}}
        line = json.dumps(obj)
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, *args, **kwargs: decoded.append(text) or loads(text, *args, **kwargs))
        parsed = parse_text(line, adapter)
        # the record keeps the decoded object, not flattened strings such as 'process.pid': '3'
        assert parsed.records[0].fields == obj
        event = normalize_records(parsed.records, adapter).events[0]
        assert (event.pid, event.image) == (3, "/bin/sh")
        assert decoded == [line]

    @pytest.mark.parametrize(
        "bad, goods, reason",
        [
            pytest.param(
                {"process": "oops"}, [{"process": None}, {"process": {}}], "'process' must be an object, got str", id="process"
            ),
            pytest.param(
                {"network": "oops"}, [{"network": None}, {"network": {}}], "'network' must be an object, got str", id="network"
            ),
            ({"text_blob": 3, "host": "h"}, [{"text_blob": "3"}], "'text_blob' must be a string, got int"),
            ({"host": 5}, [{"host": None}], "'host' must be a string or null, got int"),
            ({"event_id": 7}, [{"event_id": "r7"}], "'event_id' must be a string, got int"),
            ({"scenario_id": None}, [{"scenario_id": "s"}], "'scenario_id' must be a string, got NoneType"),
            ({"process": {"pid": "7"}}, [{"process": {"pid": 7}}], "'pid' must be an integer or null, got str"),
            (
                {"network": {"dst_port": True}},
                [{"network": {"dst_port": None}}],
                "'dst_port' must be an integer or null, got bool",
            ),
            ({"ts": True}, [], "'ts' must be an integer, got bool"),
            ({"ts": 2.9}, [], "'ts' must be an integer, got float"),
            ({"extras": {"k": 5}}, [{"extras": {"k": "5"}}], "'extras' value 'k' must be a string, got int"),
            ({"extras": ["k"]}, [{"extras": None}], "'extras' must be an object, got list"),
        ],
    )
    def test_prenormalized_group_that_is_not_an_object_is_quarantined(self, tmp_path, bad, goods, reason):
        adapter = SourceAdapterSpec(source="replay", format="prenormalized")
        records = [{"ts": 1, **bad}, *({"ts": 2 + i, **good} for i, good in enumerate(goods)), {"ts": 9}]
        lines = [json.dumps(record) for record in records]
        (tmp_path / "replay.jsonl").write_text("\n".join(lines) + "\n")
        result = ingest_scenario(tmp_path, [adapter], scenario_id="s")
        assert result.report()["total_quarantined"] == 1
        assert [e.ts for e in result.events_by_source["replay"]] == [record["ts"] for record in records[1:]]
        parsed = parse_text("\n".join(lines), adapter)
        (quarantine,) = normalize_records(parsed.records, adapter).quarantined
        assert quarantine.ordinal == 0
        assert quarantine.reason == f"bad canonical record: {reason}"

    def test_int_coercion(self):
        records = self._records("2024-05-01T09:00:00.000+00:00 h1 app[123]: m\n")
        result = normalize_records(records, SYSLOG_ADAPTER, scenario_id="s")
        assert result.events[0].pid == 123

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


# source keys that collide case-insensitively, so the compiled shapes must pick the same key as a case-folded copy
SOURCE_KEYS = ("ts", "TS", "Ts", "when", "host", "Host", "HOST", "msg", "Msg", "cmd", "CommandLine", "commandline",
               "uid", "pid", "PID", "dport", "id.resp_p", "proto", "x", "X")
CANONICAL = ("ts", "host", "user", "pid", "ppid", "image", "cmdline", "src_ip", "src_port", "dst_ip", "dst_port",
             "proto", "message", "raw")
RAW_VALUES = ("", "h1", "42", " 7", "TCP", "2024-05-01T09:00:00.000+00:00", "2024-05-01T09:00:00", "1714554000",
              "not a time", "May  1 13:22:00", "May  2 08:00:00")


def alias_maps(keys):
    """FieldAliasMaps over the given source keys; no alias serves two canonical names."""

    def build(pairs):
        owner, entries = {}, {}
        for alias, canonical in pairs:
            if owner.setdefault(alias.lower(), canonical) == canonical:
                entries.setdefault(canonical, []).append(alias)
        return FieldAliasMap(entries)

    return st.lists(st.tuples(st.sampled_from(keys), st.sampled_from(CANONICAL)), max_size=8).map(build)


@st.composite
def normalize_cases(draw):
    """An adapter (random field map, _raw included), an alias map, and records in a few key layouts."""
    source_key = st.sampled_from((*SOURCE_KEYS, RAW_TEXT_KEY))
    canonical_key = st.sampled_from(CANONICAL).flatmap(lambda c: st.sampled_from((c, c.upper(), c.title())))
    field_map = draw(st.dictionaries(canonical_key, source_key, max_size=6))
    mapped = {k.lower() for k in field_map}
    if "ts" not in mapped:
        field_map["ts"] = draw(source_key)
    if not mapped & {"raw", "message", "cmdline"}:
        field_map["message"] = draw(source_key)
    adapter = SourceAdapterSpec(
        source="src", format="kv_audit", field_map=field_map, default_year=draw(st.sampled_from((None, 2024)))
    )
    shapes = draw(st.lists(st.lists(st.sampled_from(SOURCE_KEYS), unique=True, max_size=6), min_size=1, max_size=3))
    records = []
    for ordinal in range(draw(st.integers(min_value=0, max_value=8))):
        shape = draw(st.sampled_from(shapes))
        fields = {key: draw(st.sampled_from(RAW_VALUES)) for key in shape}
        raw_text = draw(st.sampled_from(("", "raw line", "2024-05-01T09:00:00Z")))
        records.append(RawRecord(source="src", ordinal=ordinal, fields=fields, raw_text=raw_text))
    return adapter, draw(alias_maps(SOURCE_KEYS)), records


class TestCompiledNormalizeEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(case=normalize_cases())
    def test_plans_equal_per_record_lookups(self, case):
        adapter, aliases, records = case
        got = normalize_records(records, adapter, aliases, scenario_id="s", file_ordinal=3)
        want = reference_normalize_records(records, adapter, aliases, scenario_id="s", file_ordinal=3)
        assert got == want
        assert [list(e.extras) for e in got.events] == [list(e.extras) for e in want.events]


class TestBsdYearRollover:
    ADAPTER = replace(SYSLOG_ADAPTER, default_year=2023)

    def _timestamps(self, *stamps, adapter=ADAPTER):
        text = "".join(f"{stamp} h1 app: line {i}\n" for i, stamp in enumerate(stamps))
        result = normalize_records(parse_text(text, adapter).records, adapter)
        return [e.ts for e in result.events], result

    def test_new_year_rolls_forward_for_the_rest_of_the_file(self):
        stamps, _ = self._timestamps("Dec 31 23:59:59", "Jan  1 00:00:01", "Mar  3 10:00:00")
        assert stamps == [
            parse_timestamp("2023-12-31T23:59:59Z").ts_ms,
            parse_timestamp("2024-01-01T00:00:01Z").ts_ms,
            parse_timestamp("2024-03-03T10:00:00Z").ts_ms,
        ]

    def test_a_step_back_of_less_than_half_a_year_keeps_the_year(self):
        stamps, _ = self._timestamps("May  1 10:00:00", "Apr  1 10:00:00")
        assert stamps == [parse_timestamp("2023-05-01T10:00:00Z").ts_ms, parse_timestamp("2023-04-01T10:00:00Z").ts_ms]

    def test_each_file_starts_at_the_default_year(self):
        first, _ = self._timestamps("Dec 31 23:59:59", "Jan  1 00:00:01")
        second, _ = self._timestamps("Jan  1 00:00:01")
        assert second[0] == parse_timestamp("2023-01-01T00:00:01Z").ts_ms < first[1]

    def test_only_a_supplied_year_is_reported(self):
        assert parse_timestamp("Dec 31 23:59:59", default_year=2023).year_supplied
        assert not parse_timestamp("2023-12-31T23:59:59Z").year_supplied

    def test_a_day_the_year_lacks_is_quarantined(self):
        with pytest.raises(ParseError, match="not a date in 2023"):
            parse_timestamp("Feb 29 10:00:00", default_year=2023)
        stamps, result = self._timestamps("Feb 29 10:00:00", "Mar  1 10:00:00")
        assert stamps == [parse_timestamp("2023-03-01T10:00:00Z").ts_ms]
        assert [q.ordinal for q in result.quarantined] == [0]


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

    def test_quarantine_is_logged_once_per_file(self, tmp_path, caplog):
        adapter = SourceAdapterSpec(source="replay", format="prenormalized", file_pattern="*.jsonl")
        lines = [{"ts": 1}, {"ts": 2}, {"ts": 3, "process": "oops"}, {"ts": 4, "host": 5}]
        (tmp_path / "replay.jsonl").write_text("".join(json.dumps(line) + "\n" for line in lines))
        (tmp_path / "clean.jsonl").write_text(json.dumps({"event_id": "c1", "ts": 5}) + "\n")
        with caplog.at_level("WARNING", logger="chainscope.ingest"):
            result = ingest_scenario(tmp_path, [adapter], scenario_id="s")
        assert result.report()["total_quarantined"] == 2
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "replay.jsonl: 2 record(s) quarantined for source 'replay'; first at ordinal 2: "
            "bad canonical record: 'process' must be an object, got str"
        ]


REAL_BUNDLE_DIR = os.environ.get("CHAINSCOPE_REAL_BUNDLE_DIR")


@pytest.mark.skipif(not REAL_BUNDLE_DIR, reason="released telemetry bundle not present in this environment")
def test_real_bundle_record_count(adapters, aliases):
    # conditional on the released corpus: the steganography scenario export
    # normalizes to exactly 8,534 records across all its streams
    result = ingest_scenario(Path(REAL_BUNDLE_DIR), adapters, aliases)
    assert result.report()["total_records"] == 8534
