import csv
import gc
import io
import json
import os
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainscope.errors import ConfigError, EventIdError, FormatMismatchError, ParseError
from chainscope import ingest
from chainscope.ingest import (
    RAW_TEXT_KEY,
    SourceAdapterSpec,
    ingest_scenario,
    merge_scenario,
    read_lines,
)
from chainscope.model import EMPTY_ALIASES, FieldAliasMap, parse_timestamp
from conftest import make_event, reference_read

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


def read(text, adapter, aliases=EMPTY_ALIASES, **kwargs):
    """read_lines over a text's physical lines, as a file is read."""
    return read_lines(io.StringIO(text), adapter, aliases, **kwargs)


def with_raw(adapter, canonical="src_ip"):
    """The adapter with one more field that reads the record's raw text."""
    return replace(adapter, field_map={**adapter.field_map, canonical: RAW_TEXT_KEY})


class TestParseStream:
    def test_empty_file(self):
        result = read("", KV_ADAPTER)
        assert result.events == []
        assert result.rejected_lines == ()

    def test_kv_audit_matches_hand_parsed_oracle(self):
        lines = [
            'type=EXECVE ts=1714554000.000 host=h1 uid=dev01 pid=10 exe="/usr/bin/ls" cmd="ls -la /tmp"',
            "type=CONNECT ts=1714554001.500 host=h1 uid=dev01 pid=11",
            'type=WRITE ts=1714554002.250 host=h2 uid=ops01 pid=12 msg="file write /etc/hosts"',
        ]
        result = read("\n".join(lines) + "\n", with_raw(KV_ADAPTER))
        assert result.rejected_lines == ()
        assert [(e.ts, e.host, e.user, e.pid, e.image, e.cmdline, e.text_blob, dict(e.extras)) for e in result.events] == [
            (1714554000000, "h1", "dev01", 10, "/usr/bin/ls", "ls -la /tmp", "ls -la /tmp", {"type": "EXECVE"}),
            (1714554001500, "h1", "dev01", 11, None, None, "", {"type": "CONNECT"}),
            (1714554002250, "h2", "ops01", 12, None, None, "file write /etc/hosts", {"type": "WRITE"}),
        ]
        assert [e.event_id for e in result.events] == ["auditd:000:000000", "auditd:000:000001", "auditd:000:000002"]
        assert [e.src_ip for e in result.events] == lines

    def test_format_mismatch_below_threshold(self):
        with pytest.raises(FormatMismatchError, match="^auditd.log: parse rate 0.000"):
            read("completely unstructured line\n" * 10, KV_ADAPTER, origin="auditd.log")

    def test_rejects_counted_not_dropped_silently(self):
        text = "2024-05-01T09:00:00.000+00:00 h1 app: ok\n???\n2024-05-01T09:00:02.000+00:00 h1 app: ok\n"
        adapter = SourceAdapterSpec(
            source="syslog",
            format="syslog_line",
            field_map=SYSLOG_ADAPTER.field_map,
            parse_threshold=0.5,
        )
        result = read(text, adapter)
        assert len(result.events) == 2
        assert result.rejected_lines == (2,)
        # the rejected line still takes its ordinal
        assert [e.event_id for e in result.events] == ["syslog:000:000000", "syslog:000:000002"]

    def test_eve_json_flattens_nested_keys(self):
        adapter = SourceAdapterSpec(
            source="suricata",
            format="eve_json",
            field_map={"ts": "timestamp", "message": "alert.signature"},
        )
        line = json.dumps({"timestamp": "2024-05-01T09:00:00.000+0000", "alert": {"signature": "beacon", "severity": 2}})
        (event,) = read(line + "\n", adapter).events
        assert event.text_blob == "beacon"
        assert event.extras == {"alert.severity": "2"}

    def test_csv_header_and_row_mismatch(self):
        adapter = SourceAdapterSpec(
            source="azure_events",
            format="csv_export",
            field_map={"ts": "TimeGenerated", "message": "Message"},
            parse_threshold=0.5,
        )
        text = "TimeGenerated,Message\n2024-05-01T09:00:00.000+00:00,hello\nonlyonecell\n"
        result = read(text, adapter)
        assert [(e.ts, e.text_blob, e.extras) for e in result.events] == [(1714554000000, "hello", {})]
        assert result.rejected_lines == (3,)

    def test_csv_rows_keep_their_physical_line_numbers_and_text(self):
        adapter = SourceAdapterSpec(
            source="azure_events", format="csv_export", field_map={"ts": "TimeGenerated", "message": "Message"}
        )
        rows = ['2024-05-01T09:00:00.000+00:00,"quoted, with a comma"']
        rows += [f"2024-05-01T09:00:{i:02d}.000+00:00,row {i}" for i in range(1, 11)]
        rows += ['2024-05-01T09:01:00.000+00:00,"two\nlines"', "a,b,c"]
        result = read("TimeGenerated,Message\n" + "\n".join(rows) + "\n", with_raw(adapter))
        assert result.rejected_lines == (15,)  # the row on line 15, after a cell spanning lines 13 and 14
        assert [e.src_ip for e in result.events] == rows[:-1]
        assert result.events[-1].text_blob == "two\nlines"

    def test_a_csv_row_the_csv_module_rejects_is_a_rejected_line(self):
        adapter = SourceAdapterSpec(
            source="azure_events", format="csv_export", field_map={"ts": "TimeGenerated", "message": "Message"}, parse_threshold=0.5
        )
        oversized = "x" * (csv.field_size_limit() + 1)
        text = f"TimeGenerated,Message\n2024-05-01T09:00:00.000+00:00,{oversized}\n2024-05-01T09:00:01.000+00:00,ok\n"
        result = read(text, with_raw(adapter))
        assert result.rejected_lines == (2,)
        assert [e.src_ip for e in result.events] == ["2024-05-01T09:00:01.000+00:00,ok"]


class TestNormalizeRecords:
    def test_single_candidate_message(self):
        result = read("2024-05-01T09:00:00.000+00:00 h1 app: just a message\n", SYSLOG_ADAPTER, scenario_id="s")
        assert result.events[0].text_blob == "just a message"

    def test_text_blob_candidate_order_message_then_cmdline(self):
        result = read('type=EXECVE ts=1714554000.000 host=h1 cmd="run this" msg="a message"\n', KV_ADAPTER, scenario_id="s")
        # fixed candidate order: raw, message, cmdline
        assert result.events[0].text_blob == "a message run this"

    @pytest.mark.parametrize("ts", ["10000000000000000", "-62135596800001", "253402300800000", "1" + "0" * 400])
    def test_timestamp_outside_the_years_1_to_9999_quarantined(self, ts):
        result = read(f'ts={ts} host=h1 msg="far"\nts=1714554000.000 host=h1 msg="ok"\n', KV_ADAPTER, scenario_id="s")
        assert [e.text_blob for e in result.events] == ["ok"]
        assert [(q.ordinal, q.reason) for q in result.quarantined] == [(0, f"bad timestamp: {ts!r}")]

    def test_record_without_timestamp_quarantined(self):
        adapter = SourceAdapterSpec(
            source="auditd",
            format="kv_audit",
            field_map={"ts": "when", "message": "msg"},
        )
        result = read('msg="no clock here" host=h1\n', adapter, scenario_id="s")
        assert result.events == []
        assert len(result.quarantined) == 1
        assert "timestamp" in result.quarantined[0].reason

    def test_event_identity_from_source_file_line(self):
        result = read("2024-05-01T09:00:00.000+00:00 h1 app: m\n", SYSLOG_ADAPTER, scenario_id="s", file_ordinal=2)
        assert result.events[0].event_id == "syslog:002:000000"

    def test_unmapped_fields_land_in_extras_and_resolve_via_alias(self):
        adapter = SourceAdapterSpec(
            source="azure_events",
            format="csv_export",
            field_map={"ts": "TimeGenerated", "message": "Message"},
        )
        text = "TimeGenerated,Message,UserName\n2024-05-01T09:00:00.000+00:00,hi,alice\n"
        aliases = FieldAliasMap({"user": ["UserName"]})
        event = read(text, adapter, aliases, scenario_id="s").events[0]
        assert event.user == "alice"  # alias fallback fills the structured field
        assert "UserName" in event.extras

    def test_equal_values_share_one_string(self):
        text = (
            'type=EXECVE ts=1714554000.000 host=build-01 uid=ci exe="/usr/bin/pip" cmd="pip install a"\n'
            'type=EXECVE ts=1714554001.000 host=build-01 uid=ci exe="/usr/bin/pip" cmd="pip install b"\n'
        )
        first, second = read(text, KV_ADAPTER, scenario_id="s").events
        assert first.host == "build-01" and first.host is second.host
        assert first.user is second.user and first.image is second.image
        assert [k for k in first.extras] == ["type"] and next(iter(first.extras)) is next(iter(second.extras))

    # a file of at most two records stands in for one of a million: its third record overflows
    @pytest.mark.parametrize("file_ordinal, skipped", [(1_000, 0), (0, 2)])
    def test_event_id_overflow_names_source_and_file(self, monkeypatch, file_ordinal, skipped):
        monkeypatch.setattr(ingest, "MAX_RECORDS_PER_FILE", 2)
        text = "???\n" * skipped + "2024-05-01T09:00:00.000+00:00 h1 app: m\n"
        adapter = replace(SYSLOG_ADAPTER, parse_threshold=0.0)
        with pytest.raises(EventIdError, match=r"syslog/x\.log: event id overflow for source 'syslog'"):
            read(text, adapter, file_ordinal=file_ordinal, origin="syslog/x.log")
        # one less in each ordinal still fits
        widest = read(text.removeprefix("???\n"), adapter, file_ordinal=min(file_ordinal, 999)).events[0]
        assert widest.event_id == f"syslog:{min(file_ordinal, 999):03d}:{max(skipped - 1, 0):06d}"

    @pytest.mark.parametrize("file_ordinal, skipped", [(1_000, 0), (0, 2)])
    def test_prenormalized_default_id_overflow(self, monkeypatch, file_ordinal, skipped):
        monkeypatch.setattr(ingest, "MAX_RECORDS_PER_FILE", 2)
        adapter = SourceAdapterSpec(source="replay", format="prenormalized", parse_threshold=0.0)
        text = "[]\n" * skipped + json.dumps({"ts": 1714554000000, "text_blob": "x"})
        with pytest.raises(EventIdError, match="replay.jsonl: event id overflow for source 'replay'"):
            read(text, adapter, file_ordinal=file_ordinal, origin="replay.jsonl")
        # a record that carries its own id needs no default
        named = read("[]\n" * skipped + json.dumps({"event_id": "r1", "ts": 1}), adapter, file_ordinal=file_ordinal).events[0]
        assert named.event_id == "r1"

    def test_the_id_limits_are_the_widest_padded_ordinals(self):
        # unpatched limits: the widest ids fill {file:03d}:{record:06d}, and one more overflows
        assert ingest._event_ids("syslog", 999, "x")(999_999) == "syslog:999:999999"
        with pytest.raises(EventIdError, match=r"^x: event id overflow .*\(file ordinal 999, record ordinal 1000000\)"):
            ingest._event_ids("syslog", 999, "x")(1_000_000)
        assert ingest._event_ids("syslog", 999, "x")(0) == "syslog:999:000000"
        with pytest.raises(EventIdError, match=r"^x: event id overflow .*\(file ordinal 1000, record ordinal 0\)"):
            ingest._event_ids("syslog", 1_000, "x")(0)

    def test_an_overflow_after_a_passed_parse_rate_still_warns_of_rejected_lines(self, monkeypatch, caplog):
        monkeypatch.setattr(ingest, "MAX_RECORDS_PER_FILE", 2)
        text = "???\n" * 2 + "2024-05-01T09:00:00.000+00:00 h1 app: m\n" + "???\n"
        with pytest.raises(EventIdError, match=r"^x\.log: event id overflow"):
            read(text, replace(SYSLOG_ADAPTER, parse_threshold=0.25), origin="x.log")
        assert "x.log: 3 unparseable line(s) rejected for source syslog" in caplog.text

    def test_a_failed_parse_rate_goes_before_an_event_id_overflow(self):
        # the first event overflows, but the rate is checked over the whole file first
        text = "2024-05-01T09:00:00.000+00:00 h1 app: m\n" + "???\n" * 3
        with pytest.raises(FormatMismatchError, match=r"^x\.log: parse rate 0\.250 .* \(3/4 lines rejected\)"):
            read(text, SYSLOG_ADAPTER, file_ordinal=1_000, origin="x.log")
        with pytest.raises(EventIdError, match=r"^x\.log: event id overflow"):
            read(text, replace(SYSLOG_ADAPTER, parse_threshold=0.25), file_ordinal=1_000, origin="x.log")

    def test_prenormalized_line_is_decoded_once(self, monkeypatch):
        adapter = SourceAdapterSpec(source="replay", format="prenormalized")
        obj = {"ts": 1, "process": {"pid": 3, "image": "/bin/sh"}}
        line = json.dumps(obj)
        decoded = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, *args, **kwargs: decoded.append(text) or loads(text, *args, **kwargs))
        # the decoded object is read as it is, not as flattened strings such as 'process.pid': '3'
        event = read(line, adapter).events[0]
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
            ({"ts": 10**16}, [], "'ts' 10000000000000000 is outside the years 1-9999"),
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
        (quarantine,) = read("\n".join(lines), adapter).quarantined
        assert quarantine.ordinal == 0
        assert quarantine.reason == f"bad canonical record: {reason}"

    def test_int_coercion(self):
        result = read("2024-05-01T09:00:00.000+00:00 h1 app[123]: m\n", SYSLOG_ADAPTER, scenario_id="s")
        assert result.events[0].pid == 123

    def test_trust_origin_default_applied(self):
        adapter = SourceAdapterSpec(
            source="syslog",
            format="syslog_line",
            field_map=SYSLOG_ADAPTER.field_map,
            trust_origin="attacker",
        )
        result = read("2024-05-01T09:00:00.000+00:00 c2 app: m\n", adapter, scenario_id="s")
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
    """An adapter (random field map, _raw included), an alias map, and key=value lines in a few key layouts."""
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
    shapes = draw(st.lists(st.lists(st.sampled_from(SOURCE_KEYS), unique=True, min_size=1, max_size=6), min_size=1, max_size=3))
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        shape = draw(st.sampled_from(shapes))
        lines.append(" ".join(f'{key}="{draw(st.sampled_from(RAW_VALUES))}"' for key in shape) + "\n")
    return adapter, draw(alias_maps(SOURCE_KEYS)), "".join(lines)


class TestCompiledNormalizeEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(case=normalize_cases())
    def test_plans_equal_per_record_lookups(self, case):
        adapter, aliases, text = case
        got = read(text, adapter, aliases, scenario_id="s", file_ordinal=3)
        want = reference_read(text, adapter, aliases, scenario_id="s", file_ordinal=3)
        assert got == want
        assert [list(e.extras) for e in got.events] == [list(e.extras) for e in want.events]


# every line boundary of str.splitlines, "\r\n" included
SEPARATORS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
READ_ADAPTERS = {
    "syslog_line": replace(SYSLOG_ADAPTER, default_year=2023),
    "kv_audit": KV_ADAPTER,
    "eve_json": SourceAdapterSpec(
        source="suricata", format="eve_json", field_map={"ts": "timestamp", "message": "alert.signature", "dst_port": "dest_port"}
    ),
    "csv_export": SourceAdapterSpec(
        source="azure", format="csv_export", field_map={"ts": "TimeGenerated", "message": "Message", "raw": RAW_TEXT_KEY}
    ),
    # a one-column export whose timestamp is read from the row's raw text
    "csv_raw_ts": SourceAdapterSpec(
        source="azure_raw", format="csv_export", field_map={"ts": RAW_TEXT_KEY, "message": "When"}, default_year=2024
    ),
    "prenormalized": SourceAdapterSpec(source="replay", format="prenormalized"),
}
# per format: lines that parse, lines quarantined, lines rejected, and blank ones
RAW_LINES = {
    "syslog_line": (
        "2024-05-01T09:00:00.000+00:00 h1 app[7]: ok",
        "2024-05-01T09:00:01 h1 app: naive",
        "Dec 31 23:59:59 h1 cron: late",
        "Jan  1 00:00:01 h2 cron: early",
        "Feb 29 10:00:00 h1 app: no such day",
        "???",
    ),
    "kv_audit": (
        'type=EXECVE ts=1714554000.000 host=h1 uid=dev01 pid=10 exe="/usr/bin/ls" cmd="ls -la"',
        "ts=2024-05-01T09:00:00 msg=naive",
        'msg="no clock" host=h1',
        "ts=later msg=x",
        "no pairs here",
    ),
    "eve_json": (
        '{"timestamp": "2024-05-01T09:00:00.000+0000", "dest_port": 443, "alert": {"signature": "beacon", "rev": [1]}}',
        '{"alert": {"signature": "no clock"}}',
        '{"timestamp": "soon"}',
        '"not an object"',
        "{broken",
    ),
    "csv_export": (
        "TimeGenerated,Message",
        "2024-05-01T09:00:00.000+00:00,hello",
        '2024-05-01T09:00:01.000+00:00,"quoted, comma"',
        '2024-05-01T09:00:02.000+00:00,"spans',
        'lines"',
        "onlyonecell",
        ",",
        "2024-05-01T09:00:03.000+00:00,cut\rshort",  # csv rejects a bare CR inside an unquoted cell
        "2024-05-01T09:00:04.000+00:00," + "x" * (csv.field_size_limit() + 1),  # and a cell over its size limit
    ),
    "csv_raw_ts": (
        "When",
        "2024-05-01T09:00:00.000+00:00",
        "2024-05-01T09:00:01",
        "May  1 13:22:00",
        '"2024-05-01T09:00:02Z"',
        "not a time",
        "two,cells",
    ),
    "prenormalized": (
        '{"ts": 1714554000000, "host": "h1", "text_blob": "x"}',
        '{"event_id": "r1", "ts": 1}',
        '{"ts": true}',
        '{"ts": 2, "process": "oops"}',
        '{"host": "h1"}',
        "[1, 2]",
        "not json",
    ),
}
CSV_HEADERS = {"csv_export": b"TimeGenerated,Message\n", "csv_raw_ts": b"When\n"}
# bytes that are not UTF-8, and blanks
JUNK = (b"", b"", b"", b"\xff", b"\xc3", b"\xe2\x80", b"  ", b"\t")


@st.composite
def raw_files(draw):
    """A format, the bytes of a raw file in it, a parse threshold and a file ordinal (1,000 overflows)."""
    fmt = draw(st.sampled_from(sorted(RAW_LINES)))
    line = st.tuples(st.sampled_from(("", " ", *RAW_LINES[fmt])), st.sampled_from(JUNK), st.sampled_from(SEPARATORS))
    pieces = [text.encode() + junk + sep.encode() for text, junk, sep in draw(st.lists(line, max_size=16))]
    if fmt in CSV_HEADERS and draw(st.booleans()):
        pieces.insert(0, CSV_HEADERS[fmt])
    threshold = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    return fmt, b"".join(pieces), threshold, draw(st.sampled_from((0, 7, 1_000)))


def read_outcome(read, source, adapter, **kwargs):
    """The result of a read and the key order of its events' extras, or its error and message."""
    try:
        result = read(source, adapter, **kwargs)
    except (EventIdError, FormatMismatchError) as exc:
        return type(exc), str(exc)
    return result, [list(e.extras) for e in result.events]


# syslog lines around blank ones, each ended by one separator
SEPARATED = ("2024-05-01T09:00:00.000+00:00 h1 app: one", "", "   ", "Dec 31 23:59:59 h1 cron: two", "???", "Jan  1 00:00:01 h2 cron: three")


def separated(sep):
    return "syslog_line", "".join(line + sep for line in SEPARATED).encode(), 0.5, 0


class TestReadLinesEqualsTwoPhaseReference:
    @settings(max_examples=150, deadline=None)
    @given(case=raw_files())
    @example(case=separated("\n"))
    @example(case=separated("\r\n"))
    @example(case=separated("\r"))
    @example(case=separated("\v"))
    @example(case=separated("\f"))
    @example(case=separated("\x1c"))
    @example(case=separated("\x1d"))
    @example(case=separated("\x1e"))
    @example(case=separated("\x85"))
    @example(case=separated("\u2028"))
    @example(case=separated("\u2029"))
    @example(case=("csv_export", b'TimeGenerated,Message\r\n2024-05-01T09:00:00.000+00:00,"two\r\nlines"\r\nonly\r\n', 0.5, 0))
    @example(case=("csv_raw_ts", b"When\n2024-05-01T09:00:00.000+00:00\n2024-05-01T09:00:01\nnot a time\n", 0.5, 0))
    def test_a_file_read_line_by_line_equals_its_text_parsed_then_normalized(self, case):
        fmt, data, threshold, file_ordinal = case
        adapter = replace(READ_ADAPTERS[fmt], parse_threshold=threshold)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "raw.log"
            path.write_bytes(data)
            kwargs = dict(scenario_id="s", file_ordinal=file_ordinal, origin=str(path))
            with path.open(encoding="utf-8", errors="replace") as lines:
                got = read_outcome(read_lines, lines, adapter, **kwargs)
            want = read_outcome(reference_read, path.read_text(encoding="utf-8", errors="replace"), adapter, **kwargs)
        assert got == want
        # lines given in memory, as synth gives them, keep a bare CR
        text = data.decode("utf-8", errors="replace")
        got = read_outcome(read_lines, io.StringIO(text), adapter, file_ordinal=file_ordinal)
        assert got == read_outcome(reference_read, text, adapter, file_ordinal=file_ordinal)

    @pytest.mark.parametrize("sep", SEPARATORS)
    def test_every_line_boundary_ends_a_line(self, tmp_path, sep):
        _fmt, data, threshold, _ordinal = separated(sep)
        (tmp_path / "syslog.log").write_bytes(data)
        adapter = replace(READ_ADAPTERS["syslog_line"], parse_threshold=threshold)
        with (tmp_path / "syslog.log").open(encoding="utf-8") as lines:
            result = read_lines(lines, adapter)
        assert [e.text_blob for e in result.events] == ["one", "two", "three"]
        assert [e.event_id for e in result.events] == ["syslog:000:000000", "syslog:000:000001", "syslog:000:000003"]
        assert result.rejected_lines == (5,)


class TestBsdYearRollover:
    ADAPTER = replace(SYSLOG_ADAPTER, default_year=2023)

    def _timestamps(self, *stamps, adapter=ADAPTER):
        text = "".join(f"{stamp} h1 app: line {i}\n" for i, stamp in enumerate(stamps))
        result = read(text, adapter)
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

    def test_prenormalized_pass_through(self, aliases):
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
        event = read(json.dumps(record) + "\n", adapter, aliases, scenario_id="s").events[0]
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


def test_ingest_holds_its_events_not_a_file(bulk_scenario_dir, adapters, aliases):
    inputs = [path for path in bulk_scenario_dir.iterdir() if path.name != "ground_truth.json"]
    gc.collect()
    tracemalloc.start()
    try:
        result = ingest_scenario(bulk_scenario_dir, adapters, aliases)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.report()["total_records"] > 3_000
    # a file's text alone, or its records, would take more than the file
    assert peak - held < max(path.stat().st_size for path in inputs), (peak, held)


REAL_BUNDLE_DIR = os.environ.get("CHAINSCOPE_REAL_BUNDLE_DIR")


@pytest.mark.skipif(not REAL_BUNDLE_DIR, reason="released telemetry bundle not present in this environment")
def test_real_bundle_record_count(adapters, aliases):
    # conditional on the released corpus: the steganography scenario export
    # normalizes to exactly 8,534 records across all its streams
    result = ingest_scenario(Path(REAL_BUNDLE_DIR), adapters, aliases)
    assert result.report()["total_records"] == 8534
