import gc
import io
import json
import tempfile
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import model
from chainscope.errors import ConfigError, ParseError
from chainscope.graph import build_event_graph
from chainscope.ingest import IngestResult, RawRecord
from chainscope.model import (
    MISSING,
    FieldAliasMap,
    canonicalize_ts,
    dumps_json,
    event_from_dict,
    event_to_dict,
    events_from_jsonl,
    events_to_jsonl,
    parse_timestamp,
    resolve_field,
    sort_events,
    write_json,
    write_jsonl,
)
from chainscope.pipeline import write_ingest_artifacts, write_tag_artifacts
from chainscope.tagging import decisions_to_jsonl, tag_run
from conftest import jsonl_layouts, make_event


class TestCanonicalizeTs:
    def test_epoch_identity(self):
        assert canonicalize_ts("1970-01-01T00:00:00Z") == 0

    def test_known_instant_matches_calendar_oracle(self):
        # datetime(2024, 5, 1, 13, 22, tzinfo=utc).timestamp() * 1000
        assert canonicalize_ts("2024-05-01 13:22:00+00:00") == 1714569720000

    def test_rejects_garbage(self):
        with pytest.raises(ParseError) as err:
            canonicalize_ts("not-a-time")
        assert err.value.offending == "not-a-time"

    def test_millisecond_fraction(self):
        assert canonicalize_ts("2024-05-01T13:22:00.123+00:00") == 1714569720123

    def test_compact_offset_and_six_digit_fraction(self):
        assert canonicalize_ts("2024-05-01T13:22:00.123456+0000") == 1714569720123

    def test_epoch_seconds_and_millis(self):
        assert canonicalize_ts("1714569720.123") == 1714569720123
        assert canonicalize_ts("1714569720123") == 1714569720123
        assert canonicalize_ts(1714569720.123) == 1714569720123

    def test_naive_treated_as_utc(self):
        parsed = parse_timestamp("2024-05-01 13:22:00")
        assert parsed.ts_ms == 1714569720000
        assert parsed.tz_naive

    def test_bsd_syslog_needs_year(self):
        with pytest.raises(ParseError):
            canonicalize_ts("May  1 13:22:00", format_hint="syslog_bsd")
        assert canonicalize_ts("May  1 13:22:00", format_hint="syslog_bsd", default_year=2024) == 1714569720000

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            canonicalize_ts("   ")

    @settings(max_examples=200, deadline=None)
    @given(
        st.datetimes(
            min_value=datetime(1971, 1, 1),
            max_value=datetime(2100, 1, 1),
        ),
        st.datetimes(
            min_value=datetime(1971, 1, 1),
            max_value=datetime(2100, 1, 1),
        ),
    )
    def test_order_preserving(self, a, b):
        lo, hi = sorted([a, b])
        lo_ms = canonicalize_ts(lo.replace(tzinfo=timezone.utc).isoformat())
        hi_ms = canonicalize_ts(hi.replace(tzinfo=timezone.utc).isoformat())
        assert lo_ms <= hi_ms


class TestResolveField:
    def test_canonical_present(self):
        event = make_event(cmdline="x")
        assert resolve_field(event, "cmdline") == "x"

    def test_alias_fallback_into_extras(self):
        event = make_event(extras={"CommandLine": "x"})
        aliases = FieldAliasMap({"cmdline": ["CommandLine"]})
        assert resolve_field(event, "cmdline", aliases) == "x"
        # direct map inspection: the value really does live under the alias key
        assert event.extras["CommandLine"] == "x"

    def test_missing_is_a_value(self):
        event = make_event()
        assert resolve_field(event, "cmdline") is MISSING

    def test_alias_order_respected(self):
        event = make_event(extras={"cmd": "second", "CommandLine": "first"})
        aliases = FieldAliasMap({"cmdline": ["CommandLine", "cmd"]})
        assert resolve_field(event, "cmdline", aliases) == "first"

    def test_structured_beats_extras(self):
        event = make_event(cmdline="structured", extras={"cmdline": "extras"})
        assert resolve_field(event, "cmdline") == "structured"

    def test_pure_function(self):
        event = make_event(extras={"CommandLine": "x"})
        aliases = FieldAliasMap({"cmdline": ["CommandLine"]})
        results = {resolve_field(event, "cmdline", aliases) for _ in range(5)}
        assert results == {"x"}

    def test_empty_text_blob_is_missing(self):
        assert resolve_field(make_event(text_blob=""), "text_blob") is MISSING

    def test_case_insensitive_lookup(self):
        event = make_event(extras={"COMMANDLINE": "x"})
        aliases = FieldAliasMap({"cmdline": ["commandline"]})
        assert resolve_field(event, "CMDLINE", aliases) == "x"


class TestFieldAliasMap:
    def test_alias_cannot_serve_two_canonicals(self):
        with pytest.raises(ConfigError):
            FieldAliasMap({"cmdline": ["cl"], "message": ["CL"]})

    def test_same_canonical_twice_is_fine(self):
        aliases = FieldAliasMap({"cmdline": ["CommandLine", "commandline"]})
        assert aliases.aliases_for("CMDLINE") == ("CommandLine", "commandline")


PROCESS_FIELDS = ("pid", "ppid", "image", "cmdline")
NETWORK_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "proto")
HOSTS = st.sampled_from([None, "h1", "h2", "build-02"])
# events with any subset of the nine process and network fields set
EVENTS = st.lists(
    st.builds(
        make_event,
        ts=st.integers(min_value=0, max_value=2**45),
        host=HOSTS,
        user=st.sampled_from([None, "alice", "bob"]),
        pid=st.none() | st.integers(min_value=0, max_value=99),
        ppid=st.none() | st.integers(min_value=0, max_value=99),
        image=st.none() | st.sampled_from(["/usr/bin/pip", "cmd.exe"]),
        cmdline=st.none() | st.text(max_size=8),
        src_ip=st.none() | st.sampled_from(["10.0.0.9", "192.0.2.1"]),
        src_port=st.none() | st.integers(min_value=0, max_value=65535),
        dst_ip=st.none() | st.sampled_from(["10.0.0.1", "203.0.113.9"]),
        dst_port=st.none() | st.sampled_from([22, 443]),
        proto=st.none() | st.just("tcp"),
        text_blob=st.text(max_size=12),
        extras=st.dictionaries(st.sampled_from(["type", "Image", "k"]), st.text(max_size=6), max_size=2),
    ),
    max_size=6,
)


class TestEventOrderingAndSerialization:
    def test_sort_is_total_and_deterministic(self):
        events = [
            make_event(event_id="b", ts=10),
            make_event(event_id="a", ts=10),
            make_event(event_id="c", ts=5),
        ]
        ordered = sort_events(events)
        assert [e.event_id for e in ordered] == ["c", "a", "b"]
        assert sort_events(list(reversed(events))) == ordered

    def test_trust_origin_is_mandatory(self):
        with pytest.raises(ValueError):
            make_event(trust_origin="unknown")

    @settings(max_examples=200, deadline=None)
    @given(EVENTS)
    def test_jsonl_round_trip(self, events):
        text = events_to_jsonl(events)
        assert events_from_jsonl(text) == events
        for event, line in zip(events, text.splitlines()):
            doc = json.loads(line)
            for group, names in (("process", PROCESS_FIELDS), ("network", NETWORK_FIELDS)):
                present = {name: getattr(event, name) for name in names if getattr(event, name) is not None}
                # a group is null exactly when all of its fields are None
                assert (doc[group] is None) == (not present)
                assert doc[group] == (present or None)

    def test_dict_field_names(self):
        doc = event_to_dict(make_event(pid=1, dst_port=80))
        assert list(doc) == [
            "event_id",
            "ts",
            "scenario_id",
            "source",
            "trust_origin",
            "host",
            "user",
            "process",
            "network",
            "text_blob",
            "extras",
        ]
        assert event_from_dict(doc) == make_event(pid=1, dst_port=80)

    @pytest.mark.parametrize(
        "line, detail",
        [
            ('{"event_id":"a","ts":1}', "KeyError: 'source'"),
            ("not json", "JSONDecodeError"),
            ('["a", 1]', "AttributeError"),
            ('{"event_id":"a","ts":"x","source":"s","trust_origin":"target"}', "TypeError: 'ts' must be an integer, got str"),
            ('{"event_id":"a","ts":true,"source":"s","trust_origin":"target"}', "TypeError: 'ts' must be an integer, got bool"),
            ('{"event_id":"a","ts":2.9,"source":"s","trust_origin":"target"}', "TypeError: 'ts' must be an integer, got float"),
            ('{"event_id":"a","ts":1,"source":"s","trust_origin":"target","text_blob":3}', "TypeError: 'text_blob'"),
            ('{"event_id":"a","ts":1,"source":"s","trust_origin":"target","process":{"pid":"7"}}', "TypeError: 'pid'"),
            ('{"event_id":"a","ts":1,"source":"s","trust_origin":"target","extras":{"k":5}}', "TypeError: 'extras'"),
            ('{"event_id":"a","ts":1,"source":7,"trust_origin":"target"}', "TypeError: 'source'"),
        ],
    )
    def test_malformed_jsonl_line_names_its_line(self, line, detail):
        text = events_to_jsonl([make_event(event_id="ok", ts=1)]) + "\n" + line + "\n"
        with pytest.raises(ParseError, match=f"events line 3: {detail}") as info:
            events_from_jsonl(text)
        assert info.value.offending == line


MALFORMED_LINES = st.sampled_from(
    ['{"event_id":"a","ts":1}', "not json", '["a", 1]', "{\"event_id\"", '{"event_id":"a","ts":true,"source":"s","trust_origin":"target"}']
)


def _event_lines(events):
    return events_to_jsonl(events).splitlines()


def _parse_error(read, source):
    with pytest.raises(ParseError) as info:
        read(source)
    return str(info.value), info.value.offending


class TestEventsJsonlReader:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), EVENTS)
    def test_file_reads_as_its_text(self, data, events):
        text = data.draw(jsonl_layouts(_event_lines(events)))
        assert events_from_jsonl(io.BytesIO(text.encode("utf-8"))) == events_from_jsonl(text) == events

    @settings(max_examples=100, deadline=None)
    @given(st.data(), EVENTS, MALFORMED_LINES)
    def test_malformed_line_fails_alike_from_file_and_text(self, data, events, bad):
        lines = _event_lines(events)
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), bad)
        text = data.draw(jsonl_layouts(lines))
        from_text = _parse_error(events_from_jsonl, text)
        assert from_text == _parse_error(events_from_jsonl, io.BytesIO(text.encode("utf-8")))
        assert from_text[0].startswith("events line ")

    def test_invalid_utf8_names_its_line(self):
        raw = events_to_jsonl([make_event(event_id="a")]).encode() + b"\n" + b'{"host": "\xff"}\n'
        with pytest.raises(ParseError, match="events line 3: UnicodeDecodeError"):
            events_from_jsonl(io.BytesIO(raw))

    def test_one_read_shares_equal_values(self):
        events = [
            make_event(event_id="a", host="build-02", user="alice", image="/usr/bin/pip", extras={"type": "EXECVE"}),
            make_event(event_id="b", host="build-02", user="alice", pid=7, image="/usr/bin/pip", dst_ip="10.0.0.1"),
            make_event(event_id="c", host="build-02", src_ip="10.0.0.9", dst_ip="10.0.0.1", dst_port=22, proto="tcp"),
            make_event(event_id="d", src_ip="10.0.0.9", proto="tcp", extras={"type": "EXECVE"}),
        ]
        a, b, c, d = events_from_jsonl(io.BytesIO(events_to_jsonl(events).encode()))
        assert a.host is b.host is c.host
        assert a.user is b.user
        assert a.source is b.source is c.source
        assert next(iter(a.extras)) is next(iter(d.extras))
        # the flat identity strings are shared across the read as well
        assert a.image is b.image
        assert b.dst_ip is c.dst_ip and c.src_ip is d.src_ip and c.proto is d.proto

    def test_read_peak_stays_near_what_it_returns(self, tmp_path):
        # a line-by-line read allocates little beyond the events it returns;
        # holding the whole text and its line list takes about twice that
        path = tmp_path / "events.jsonl"
        events = [
            make_event(
                event_id=f"syslog:000:{i:06d}",
                ts=1714521600000 + 997 * i,
                host=f"host{i % 12:02d}",
                user=f"user{i % 5}" if i % 3 else None,
                pid=1000 + i if i % 2 else None,
                image="/usr/bin/python3" if i % 2 else None,
                cmdline=f"python3 /home/user{i % 5}/job_{i}.py --step {i}" if i % 2 else None,
                dst_ip=f"10.0.{i % 7}.{i % 250}" if i % 4 == 0 else None,
                dst_port=443 if i % 4 == 0 else None,
                proto="tcp" if i % 4 == 0 else None,
                text_blob=f"session {i} opened for user user{i % 5} by (uid=0) on host{i % 12:02d}",
                extras={"type": "EXECVE", "seq": str(i)},
            )
            for i in range(2000)
        ]
        write_jsonl(path, events, events_to_jsonl)
        gc.collect()
        tracemalloc.start()
        try:
            with open(path, "rb") as handle:
                read = events_from_jsonl(handle)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == events
        assert peak <= 1.25 * held, f"peak {peak} B against {held} B held"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 1e300]),
    st.text(),
    st.sampled_from(["},\n      {", "},\n    {", '"\\\n\t\x00', "\u2028\ud800\U0001f600", "caf\u00e9"]),
)
RECORDS = st.lists(st.dictionaries(st.text(max_size=4), SCALARS, min_size=1, max_size=4), min_size=1, max_size=4)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, RECORDS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        RECORDS,
    ),
    max_leaves=25,
)


def stdlib_dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


class TestDumpsJson:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_equals_stdlib_indented_dump(self, doc):
        assert dumps_json(doc) == stdlib_dumps(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            [],
            [{}],
            [{}, {"a": 1}],
            {"e": [], "d": {}, "n": [[], {}]},
            [{"a": "},\n      {"}, {"b": "},\n    {"}],
            {"graph": {"edges": [{"src": "x", "dst": "y"}, {"src": "y", "dst": "z"}], "window_ms": 5}},
            [{"a": 1}, [{"b": 2}], {"c": {"d": [1, 2]}}],
            {1: [{"a": 1}], 2: {3: "x"}},
        ],
    )
    def test_edge_cases(self, doc):
        assert dumps_json(doc) == stdlib_dumps(doc)

    def test_deep_nesting(self):
        doc = [{"leaf": 1}, {"leaf": 2}]
        for depth in range(60):
            doc = {f"k{depth}": doc, "n": depth} if depth % 2 else [doc, depth, (depth,)]
        assert dumps_json(doc) == stdlib_dumps(doc)

    def test_unserializable_raises_like_stdlib(self):
        for doc in ({"a": {1, 2}}, [{"a": object()}], {"a": 1, 2: "mixed keys"}):
            with pytest.raises(TypeError):
                stdlib_dumps(doc)
            with pytest.raises(TypeError):
                dumps_json(doc)


# the writers' slice size, patched small so that every boundary case is cheap
SLICE = 3
SLICED_LENGTHS = (0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1)
RECORD = st.dictionaries(st.text(max_size=4), SCALARS, min_size=1, max_size=4)
SLICED_RECORDS = st.sampled_from(SLICED_LENGTHS).flatmap(lambda n: st.lists(RECORD, min_size=n, max_size=n))
# records with other documents among them: a slice may hold both kinds
MIXED_ITEMS = st.sampled_from(SLICED_LENGTHS).flatmap(
    lambda n: st.lists(st.one_of(RECORD, DOCUMENTS), min_size=n, max_size=n)
)
SLICED_DOCUMENTS = st.one_of(
    SLICED_RECORDS,
    st.dictionaries(
        st.text(max_size=4),
        st.one_of(SLICED_RECORDS, MIXED_ITEMS, st.dictionaries(st.text(max_size=3), SLICED_RECORDS, max_size=2)),
        max_size=3,
    ),
)


class TestStreamedWriters:
    @settings(max_examples=200, deadline=None)
    @given(SLICED_DOCUMENTS)
    def test_write_json_equals_stdlib_dump(self, doc):
        with patch.object(model, "SLICE_RECORDS", SLICE), tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.json"
            write_json(path, doc)
            assert path.read_bytes() == (stdlib_dumps(doc) + "\n").encode("utf-8")
            assert dumps_json(doc) == stdlib_dumps(doc)

    @pytest.mark.parametrize("n", SLICED_LENGTHS)
    def test_jsonl_artifacts_equal_one_shot(self, tmp_path, monkeypatch, default_rules, n):
        monkeypatch.setattr(model, "SLICE_RECORDS", SLICE)
        texts = ["pip install requests", "curl -o /tmp/x http://example.com/x", "ls"]
        events = [make_event(event_id=f"e{i}", ts=i, host=f"h{i % 2}", text_blob=texts[i % 3]) for i in range(n)]
        decisions, diag = tag_run(events, default_rules)
        events_path, _report = write_ingest_artifacts(IngestResult(events_by_source={}, stats=()), events, tmp_path)
        decisions_path, _diag = write_tag_artifacts(decisions, diag, tmp_path)
        assert events_path.read_text(encoding="utf-8") == events_to_jsonl(events)
        assert decisions_path.read_text(encoding="utf-8") == decisions_to_jsonl(decisions)


def test_per_event_classes_hold_no_dict(default_rules):
    events = [
        make_event(event_id=f"e{i}", ts=i, pid=7, src_ip="10.0.0.1", extras={"k": "v"}, text_blob="pip install x")
        for i in range(2)
    ]
    decisions, _diag = tag_run(events, default_rules)
    graph = build_event_graph(events, decisions)
    candidates = [c for d in decisions for c in d.candidates]
    diagnostics = [g for d in decisions for g in d.diagnostics]
    assert candidates and diagnostics and graph.edges
    # the graph's nodes are the tagged events themselves
    assert [id(node) for node in graph.nodes] == [id(event) for event in events]
    record = RawRecord(source="syslog", ordinal=0, fields={}, raw_text="")
    instances = [events[0], record, decisions[0], candidates[0], diagnostics[0], graph.edges[0]]
    assert len({type(obj) for obj in instances}) == 6
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__
