import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.errors import ConfigError, ParseError
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
)
from conftest import make_event


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

    def test_jsonl_round_trip(self):
        events = [
            make_event(event_id="e1", ts=1, user="u", pid=4, cmdline="run", dst_ip="1.2.3.4", dst_port=443, proto="tcp", extras={"k": "v"}),
            make_event(event_id="e2", ts=2, host=None, text_blob="hello world"),
        ]
        text = events_to_jsonl(events)
        assert events_from_jsonl(text) == events

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
            ('{"event_id":"a","ts":"x","source":"s","trust_origin":"target"}', "ValueError"),
        ],
    )
    def test_malformed_jsonl_line_names_its_line(self, line, detail):
        text = events_to_jsonl([make_event(event_id="ok", ts=1)]) + "\n" + line + "\n"
        with pytest.raises(ParseError, match=f"events line 3: {detail}") as info:
            events_from_jsonl(text)
        assert info.value.offending == line


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
