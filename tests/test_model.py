import copy
import dataclasses
import gc
import io
import json
import re
import tempfile
import tracemalloc
import types
import warnings
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope import model
from chainscope.errors import ConfigError, ParseError
from chainscope.graph import build_event_graph
from chainscope.ingest import IngestResult
from chainscope.model import (
    FieldAliasMap,
    NormalizedEvent,
    encode_compact,
    event_from_dict,
    events_from_jsonl,
    events_to_jsonl,
    parse_timestamp,
    sort_events,
    write_json,
    write_jsonl,
)
from chainscope.pipeline import write_ingest_artifacts, write_tag_artifacts
from chainscope.tagging import decisions_from_jsonl, decisions_to_jsonl, tag_run
from conftest import jsonl_layouts, make_event, reference_event_from_dict, reference_event_to_dict, reference_parse_timestamp, resolve_field


class TestParseTimestamp:
    def test_epoch_identity(self):
        assert parse_timestamp("1970-01-01T00:00:00Z").ts_ms == 0

    def test_known_instant_matches_calendar_oracle(self):
        # datetime(2024, 5, 1, 13, 22, tzinfo=utc).timestamp() * 1000
        assert parse_timestamp("2024-05-01 13:22:00+00:00").ts_ms == 1714569720000

    def test_rejects_garbage(self):
        # text that is not BSD-shaped gets the ISO parser's error
        with pytest.raises(ParseError, match="unparseable ISO-8601 timestamp: 'not-a-time'") as err:
            parse_timestamp("not-a-time")
        assert err.value.offending == "not-a-time"

    def test_millisecond_fraction(self):
        assert parse_timestamp("2024-05-01T13:22:00.123+00:00").ts_ms == 1714569720123

    def test_compact_offset_and_six_digit_fraction(self):
        assert parse_timestamp("2024-05-01T13:22:00.123456+0000").ts_ms == 1714569720123

    def test_epoch_seconds_and_millis(self):
        assert parse_timestamp("1714569720.123").ts_ms == 1714569720123
        assert parse_timestamp("1714569720123").ts_ms == 1714569720123

    def test_naive_treated_as_utc(self):
        parsed = parse_timestamp("2024-05-01 13:22:00")
        assert parsed.ts_ms == 1714569720000
        assert parsed.tz_naive

    def test_bsd_syslog_needs_year(self):
        with pytest.raises(ParseError):
            parse_timestamp("May  1 13:22:00", format_hint="syslog_bsd")
        assert parse_timestamp("May  1 13:22:00", format_hint="syslog_bsd", default_year=2024).ts_ms == 1714569720000

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_timestamp("   ")

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
        lo_ms = parse_timestamp(lo.replace(tzinfo=timezone.utc).isoformat()).ts_ms
        hi_ms = parse_timestamp(hi.replace(tzinfo=timezone.utc).isoformat()).ts_ms
        assert lo_ms <= hi_ms


def _two(low, high):
    return st.integers(low, high).map("{:02d}".format)


# ISO text near the canonical form iso_ms renders: every part may stray from
# it, by a "Z" or compact offset, 0-9 fraction digits, a space separator,
# surrounding whitespace or an out-of-range field
NEAR_ISO = st.builds(
    "{}{}-{}-{}{}{}:{}:{}{}{}{}".format,
    st.sampled_from(["", " ", "\t"]),
    st.integers(1, 9999).map("{:04d}".format),
    _two(0, 13),
    _two(0, 32),
    st.sampled_from(["T", " ", "t"]),
    _two(0, 24),
    _two(0, 60),
    _two(0, 61),
    st.one_of(st.just(""), st.text("0123456789", max_size=9).map(".{}".format)),
    st.sampled_from(["", "Z", "z", "+00:00", "+0000", "-05:30", "+0530", "+05", "-23:59", "+24:00", "Zx"]),
    st.sampled_from(["", " ", "\n"]),
)
# the canonical forms themselves, with out-of-range fields and offsets too
CANONICAL = st.one_of(
    st.integers(-62135596800000, 253402300799999).map(model.iso_ms),
    st.builds(
        "{}-{}-{}T{}:{}:{}.{}{}".format,
        st.integers(0, 9999).map("{:04d}".format),
        _two(0, 13),
        _two(0, 32),
        _two(0, 24),
        _two(0, 60),
        _two(0, 61),
        st.integers(0, 999).map("{:03d}".format),
        st.sampled_from(["+00:00", "-05:30", "+23:59", "-24:00", "+00:60"]),
    ),
    st.integers(-(10**12), 10**12).map(lambda ms: f"{ms / 1000:.3f}"),
)
# one small step off the canonical ISO form: the boundary of the parser's shortcut
OFF_CANONICAL = st.tuples(
    st.integers(-62135596800000, 253402300799999).map(model.iso_ms),
    st.sampled_from(
        [("+00:00", "Z"), ("+00:00", "z"), ("+00:00", "+0000"), ("+00:00", ""), ("+00:00", "+00"), ("T", " "), ("T", "t"),
         (".", ".0"), (".", ".1234"), (".", ","), ("0", "\u0660"), ("-", "")]
    ),
).map(lambda t: t[0].replace(*t[1], 1))
NEAR_EPOCH = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "-", "+", " "]),
    st.one_of(st.integers(0, 10**14).map(str), st.just(""), st.just("1e11")),
    st.one_of(st.just(""), st.text("0123456789", max_size=9).map(".{}".format)),
    st.sampled_from(["", " ", "s"]),
)
NEAR_BSD = st.builds(
    "{} {} {}:{}:{}".format, st.sampled_from(["Jan", "Feb", "may", "Dec"]), st.integers(0, 32).map(str), _two(0, 24), _two(0, 60), _two(0, 61)
)


def parse_outcome(parse, raw, hint, year):
    try:
        return parse(raw, format_hint=hint, default_year=year)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.offending)


@settings(max_examples=200, deadline=None)
@given(
    raw=st.one_of(CANONICAL, OFF_CANONICAL, NEAR_ISO, NEAR_EPOCH, NEAR_BSD, st.text(max_size=12), st.integers(-(10**13), 10**13).map(repr), st.floats(allow_nan=False).map(repr)),
    hint=st.sampled_from([model.TS_AUTO, model.TS_ISO8601, *model.TS_FORMATS, "unknown"]),  # the ISO paths weighted twice
    year=st.sampled_from([None, 2023, 2024]),
)
def test_parse_timestamp_equals_the_reference(raw, hint, year):
    assert parse_outcome(parse_timestamp, raw, hint, year) == parse_outcome(reference_parse_timestamp, raw, hint, year)


def test_a_pattern_re_compiled_before_still_fails():
    # re.compile returns a cached pattern without parsing it, or warning, again
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FutureWarning)
        re.compile("[[b]")
    with pytest.raises(re.error, match="nested set"):
        model.compile_regex("[[b]")


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
        assert resolve_field(event, "cmdline") is None

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
        assert resolve_field(make_event(text_blob=""), "text_blob") is None

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

    def test_lookup_keys_are_the_lowered_name_then_the_lowered_aliases(self):
        aliases = FieldAliasMap({"CmdLine": ["CommandLine", "cmd"]})
        assert aliases.lookup_keys("CMDLINE") == ("cmdline", "commandline", "cmd")
        assert aliases.lookup_keys("Image") == ("image",)


def test_canonical_fields_are_the_event_fields_and_the_text_blob_candidates():
    assert model.CANONICAL_FIELDS == {
        "event_id", "ts", "scenario_id", "source", "trust_origin", "host", "user",
        "pid", "ppid", "image", "cmdline", "src_ip", "src_port", "dst_ip", "dst_port", "proto",
        "text_blob", "message", "raw",
    }  # fmt: skip


@pytest.mark.parametrize("name", ["message", "raw", "extras"])
def test_a_field_the_event_does_not_hold_resolves_from_extras_only(name):
    assert resolve_field(make_event(extras={name: "x"}), name) == "x"
    assert resolve_field(make_event(), name) is None


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

    def test_record_field_names(self):
        doc = json.loads(events_to_jsonl([make_event(pid=1, dst_port=80)]))
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

    @pytest.mark.parametrize("bad", ["{", "not json", '{"a": 1} x', "\ufeff{}"])
    def test_both_readers_report_a_line_that_is_no_json_alike(self, bad):
        # events.jsonl and decisions.jsonl are read by one loop, model.read_jsonl
        text = '\n  \n' + bad + "\n"
        message, offending = _parse_error(events_from_jsonl, io.BytesIO(text.encode("utf-8")))
        assert message.startswith("events line 3: JSONDecodeError: ")
        assert _parse_error(decisions_from_jsonl, text) == (message.replace("events", "decisions", 1), offending)

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


def written_json(doc):
    """What write_json writes of doc, less its final newline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(path, doc)
        text = path.read_bytes().decode("utf-8")
    assert text.endswith("\n")
    return text[:-1]


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(DOCUMENTS)
    def test_equals_stdlib_indented_dump(self, doc):
        assert written_json(doc) == stdlib_dumps(doc)

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
        assert written_json(doc) == stdlib_dumps(doc)

    def test_deep_nesting(self):
        doc = [{"leaf": 1}, {"leaf": 2}]
        for depth in range(60):
            doc = {f"k{depth}": doc, "n": depth} if depth % 2 else [doc, depth, (depth,)]
        assert written_json(doc) == stdlib_dumps(doc)

    def test_unserializable_raises_like_stdlib(self):
        for doc in ({"a": {1, 2}}, [{"a": object()}], {"a": 1, 2: "mixed keys"}):
            with pytest.raises(TypeError):
                stdlib_dumps(doc)
            with pytest.raises(TypeError):
                written_json(doc)


# the writers' slice size, patched small so that every boundary case is cheap
SLICE = 3
SLICED_LENGTHS = (0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1)


class TestStreamedWriters:
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
    instances = [events[0], decisions[0], candidates[0], diagnostics[0], graph.edges[0]]
    assert len({type(obj) for obj in instances}) == 5
    for obj in instances:
        assert not hasattr(obj, "__dict__"), type(obj).__name__


# --- the events.jsonl codec against its field-by-field reference ------------

# few values, so that equal strings recur across the records of one read
CODEC_STRINGS = st.sampled_from(["h1", "build-02", "10.0.0.1", "tcp", "café", "\U0001f600", ""])
CODEC_EVENTS = st.lists(
    st.builds(
        make_event,
        event_id=st.sampled_from(["a", "b", "syslog:000:000001"]),
        ts=st.sampled_from([model.TS_MIN_MS, -1, 0, model.TS_MAX_MS]) | st.integers(model.TS_MIN_MS, model.TS_MAX_MS),
        source=st.sampled_from(["syslog", "zeek"]),
        scenario_id=st.sampled_from(["", "bulk"]),
        trust_origin=st.sampled_from(model.TRUST_ORIGINS),
        host=st.none() | CODEC_STRINGS,
        user=st.none() | CODEC_STRINGS,
        pid=st.none() | st.integers(-(2**70), 2**70),
        ppid=st.none() | st.integers(0, 9),
        image=st.none() | CODEC_STRINGS,
        cmdline=st.none() | CODEC_STRINGS,
        src_ip=st.none() | CODEC_STRINGS,
        src_port=st.none() | st.integers(0, 65535),
        dst_ip=st.none() | CODEC_STRINGS,
        dst_port=st.none() | st.integers(0, 65535),
        proto=st.none() | CODEC_STRINGS,
        text_blob=CODEC_STRINGS,
        extras=st.dictionaries(CODEC_STRINGS, CODEC_STRINGS, max_size=3),
    ),
    min_size=1,
    max_size=5,
)
# what a key of one record becomes: dropped, null, or a value of another JSON type
MUTATIONS = ("drop", None, False, True, 2.5, "7", [], ["x"], {}, {"pid": "x"})


def _key_paths(doc):
    """(group, key) of every key a mutation may touch, present or not: group
    is None for the record itself, else the name of the object holding key."""
    paths = [(None, key) for key in doc]
    for group, names in (("process", PROCESS_FIELDS), ("network", NETWORK_FIELDS)):
        if isinstance(doc[group], dict):
            paths += [(group, name) for name in names]
    paths += [("extras", key) for key in doc["extras"]]
    return paths


def _mutated(doc, group, key, mutation):
    doc = copy.deepcopy(doc)
    container = doc if group is None else doc[group]
    if mutation == "drop":
        container.pop(key, None)
    else:
        container[key] = mutation
    return doc


def _read(read, doc, shared):
    try:
        return read(doc, shared)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_reads_alike(docs):
    """Read docs in turn with the reader and with the reference, each with
    its own shared dict, up to the first bad record, as a read stops there:
    equal events holding the very same objects, or the same error."""
    got_shared, want_shared = {}, {}
    for doc in docs:
        got = _read(event_from_dict, doc, got_shared)
        want = _read(reference_event_from_dict, doc, want_shared)
        assert got == want
        if not isinstance(want, NormalizedEvent):
            return
        for name in NormalizedEvent.__slots__:
            if name != "extras":
                assert getattr(got, name) is getattr(want, name), name
        assert [(id(k), id(v)) for k, v in got.extras.items()] == [(id(k), id(v)) for k, v in want.extras.items()]


class TestEventCodec:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), CODEC_EVENTS)
    def test_reader_equals_the_reference(self, data, events):
        # a JSON round trip gives every record its own copy of equal strings
        docs = [json.loads(encode_compact(reference_event_to_dict(e))) for e in events]
        _assert_reads_alike(docs)
        # every key of one record dropped, nulled or retyped in turn
        i = data.draw(st.integers(0, len(docs) - 1))
        for group, key in _key_paths(docs[i]):
            for mutation in MUTATIONS:
                _assert_reads_alike([*docs[:i], _mutated(docs[i], group, key, mutation), *docs[i + 1 :]])

    @pytest.mark.parametrize("doc", [[], "text", 7, None])
    def test_a_record_that_is_no_object_fails_alike(self, doc):
        assert _read(event_from_dict, doc, {}) == _read(reference_event_from_dict, doc, {})

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.builds(
                make_event,
                event_id=st.text(st.characters(exclude_categories=())),
                ts=st.integers(-(2**80), 2**80),
                host=st.none() | st.text(st.characters(exclude_categories=())),
                pid=st.none() | st.integers(-(2**80), 2**80),
                image=st.none() | st.text(),
                cmdline=st.none() | st.sampled_from(['"\\\n\t\x00\x1f\x7f', " 𐏿\U0001f600", "café"]),
                src_ip=st.none() | st.text(max_size=3),
                src_port=st.none() | st.integers(-(2**40), 2**40),
                dst_port=st.none() | st.integers(0, 65535),
                proto=st.none() | st.just("tcp"),
                text_blob=st.text(st.characters(exclude_categories=())),
                extras=st.dictionaries(st.text(st.characters(exclude_categories=())), st.text(), max_size=3),
            ),
            max_size=4,
        )
    )
    def test_writer_equals_the_encoder(self, events):
        assert events_to_jsonl(events) == "".join(encode_compact(reference_event_to_dict(e)) + "\n" for e in events)

    @pytest.mark.parametrize(
        "fields",
        [{"host": type("Name", (str,), {})("h")}, {"extras": types.MappingProxyType({"b": "2", "a": "1"})}],
    )
    def test_a_str_subclass_or_a_read_only_mapping_writes_as_the_reference(self, fields):
        event = dataclasses.replace(make_event(host=None, pid=1), **fields)
        assert events_to_jsonl([event]) == encode_compact(reference_event_to_dict(event)) + "\n"

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"ts": True}, "event 'e1': 'ts' must be an integer, got bool"),
            ({"pid": False}, "event 'e1': 'pid' must be an integer, got bool"),
            ({"src_port": 2.0}, "event 'e1': 'src_port' must be an integer, got float"),
            ({"dst_port": "443"}, "event 'e1': 'dst_port' must be an integer, got str"),
            ({"image": 7}, "int"),
            ({"extras": {"k": 5}}, "int"),
            ({"extras": {"k": None}}, "NoneType"),
            ({"extras": {1: "v"}}, "int"),
            ({"extras": {"b": "x", 1: "v"}}, "'<' not supported"),
            ({"event_id": None}, "NoneType"),
        ],
    )
    def test_a_value_that_is_no_plain_str_or_int_raises(self, fields, message):
        event = dataclasses.replace(make_event(event_id="e1", host=None, pid=1), **fields)
        with pytest.raises(TypeError, match=re.escape(message)):
            events_to_jsonl([event])


class TestEventConstruction:
    def test_keyword_positional_and_default_construction_agree(self):
        values = dict(zip(NormalizedEvent.__slots__, ("a", 5, "s", "syslog", "target", "h", "u", 1, 2, "i", "c", "1.2.3.4", 3, "5.6.7.8", 4, "tcp", "t", {"k": "v"})))
        assert NormalizedEvent(**values) == NormalizedEvent(*values.values())
        for name, value in values.items():
            assert getattr(NormalizedEvent(**values), name) is value
        first, second = NormalizedEvent("a", 5, "s", "syslog", "target"), NormalizedEvent("a", 5, "s", "syslog", "target")
        assert (first.host, first.pid, first.text_blob, first.extras) == (None, None, "", {})
        assert first.extras is not second.extras  # a fresh dict per event

    def test_is_frozen_and_holds_no_dict(self):
        event = make_event()
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.host = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del event.host
        assert not hasattr(event, "__dict__")

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"trust_origin": "unknown"}, "trust_origin must be one of ('attacker', 'target'), got 'unknown'"),
            ({"source": ""}, "source must be a non-empty stream name"),
            ({"ts": "1"}, "ts must be an integer epoch-millisecond value, got str"),
            ({"ts": 1.0}, "ts must be an integer epoch-millisecond value, got float"),
        ],
    )
    def test_post_init_messages(self, fields, message):
        with pytest.raises(ValueError) as info:
            make_event(**fields)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            dataclasses.replace(make_event(), **fields)
        assert str(info.value) == message

    def test_a_bad_call_names_the_class(self):
        with pytest.raises(TypeError, match=re.escape("NormalizedEvent.__init__() missing 1 required positional argument: 'trust_origin'")):
            NormalizedEvent("a", 1, "s", "syslog")
        with pytest.raises(TypeError, match=re.escape("NormalizedEvent.__init__() got an unexpected keyword argument 'nope'")):
            NormalizedEvent("a", 1, "s", "syslog", "target", nope=1)

    def test_replace_builds_the_changed_event(self):
        event = make_event(pid=7, extras={"k": "v"})
        changed = dataclasses.replace(event, host="h2", pid=None)
        assert changed == make_event(host="h2", extras={"k": "v"})
        assert changed.extras is event.extras


# --- the range of ts ----------------------------------------------------------


class TestTimestampRange:
    def test_the_range_is_what_iso_ms_renders(self):
        assert model.iso_ms(model.TS_MIN_MS) == "1-01-01T00:00:00.000+00:00"
        assert model.iso_ms(model.TS_MAX_MS) == "9999-12-31T23:59:59.999+00:00"
        for outside in (model.TS_MIN_MS - 1, model.TS_MAX_MS + 1):
            with pytest.raises(ValueError):
                model.iso_ms(outside)

    @pytest.mark.parametrize(
        "raw, hint, ts",
        [
            (str(model.TS_MAX_MS), model.TS_AUTO, model.TS_MAX_MS),
            (str(model.TS_MIN_MS), model.TS_AUTO, model.TS_MIN_MS),
            ("253402300799.999", model.TS_EPOCH_SECONDS, model.TS_MAX_MS),
            ("0001-01-01T00:00:00Z", model.TS_ISO8601, model.TS_MIN_MS),
            ("9999-12-31T23:59:59.999+00:00", model.TS_AUTO, model.TS_MAX_MS),
        ],
    )
    def test_the_ends_of_the_range_parse(self, raw, hint, ts):
        assert parse_timestamp(raw, format_hint=hint).ts_ms == ts

    @pytest.mark.parametrize(
        "raw, hint",
        [
            (str(model.TS_MAX_MS + 1), model.TS_AUTO),
            (str(model.TS_MIN_MS - 1), model.TS_AUTO),
            ("10000000000000000", model.TS_AUTO),
            ("1" + "0" * 400, model.TS_EPOCH_MILLIS),  # reads as an infinite float
            ("253402300800", model.TS_EPOCH_SECONDS),
            ("0001-01-01T00:00:00+05:00", model.TS_ISO8601),
            ("0001-01-01T00:00:00+05:00", model.TS_AUTO),  # ISO-shaped: the ISO parser's error
            ("9999-12-31T23:59:59-00:01", model.TS_ISO8601),
        ],
    )
    def test_outside_the_range_is_a_parse_error(self, raw, hint):
        with pytest.raises(ParseError, match="outside the years 1-9999"):
            parse_timestamp(raw, format_hint=hint)

    @pytest.mark.parametrize("ts", [model.TS_MAX_MS + 1, model.TS_MIN_MS - 1, 10**16, -(10**30)])
    def test_events_reader_names_the_line_of_a_ts_out_of_range(self, ts):
        line = f'{{"event_id":"b","ts":{ts},"source":"s","trust_origin":"target"}}'
        text = events_to_jsonl([make_event(event_id="a", ts=model.TS_MAX_MS)]) + line + "\n"
        with pytest.raises(ParseError, match=re.escape(f"events line 2: ValueError: 'ts' {ts} is outside the years 1-9999")):
            events_from_jsonl(text)
