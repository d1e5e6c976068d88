"""Canonical event schema, field aliasing, and timestamp normalization.

Every other module consumes NormalizedEvent tables produced here. The
single time basis is UTC epoch milliseconds (integer), which gives a
total (ts, event_id) ordering and preserves sub-second sensor precision.

Timezone-naive timestamps are interpreted as UTC; ``parse_timestamp``
reports the naive flag alongside the value, and ingest counts them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterable, List, Mapping, NoReturn, Optional, Pattern, Sequence, Tuple, TypeVar, Union

from .errors import ConfigError, ParseError

try:  # the regular expression parser: re._parser from Python 3.11, sre_parse before
    from re import _parser as _sre_parser
except ImportError:  # pragma: no cover - Python 3.10
    import sre_parse as _sre_parser  # type: ignore[no-redef]

T = TypeVar("T")

TRUST_ATTACKER = "attacker"
TRUST_TARGET = "target"
TRUST_ORIGINS = (TRUST_ATTACKER, TRUST_TARGET)

# Candidate fields concatenated into text_blob, in this fixed order.
TEXT_BLOB_CANDIDATES = ("raw", "message", "cmdline")

# The epoch milliseconds iso_ms can render, 0001-01-01T00:00:00.000 to
# 9999-12-31T23:59:59.999 UTC: parse_timestamp and the events.jsonl reader
# reject a ts outside them.
TS_MIN_MS = -62135596800000
TS_MAX_MS = 253402300799999


def _init_through_slots(cls: type) -> type:
    """Give a frozen slotted dataclass an ``__init__`` that sets each slot
    through its member descriptor instead of ``object.__setattr__`` by name.

    Parameters, defaults, default factories, the ``__post_init__`` call and
    the error messages of a bad call stay the dataclass's; an instance is
    built in about half the time.
    """
    namespace: Dict[str, Any] = {"MISSING": dataclasses.MISSING}
    params, body = [], []
    for f in dataclasses.fields(cls):
        name, value = f.name, f.name
        if f.default is not dataclasses.MISSING:
            namespace[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        elif f.default_factory is not dataclasses.MISSING:
            namespace[f"_factory_{name}"] = f.default_factory
            params.append(f"{name}=MISSING")
            value = f"_factory_{name}() if {name} is MISSING else {name}"
        else:
            params.append(name)
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        body.append(f"    _set_{name}(self, {value})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}    self.__post_init__()\n", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


@_init_through_slots
@dataclass(frozen=True, slots=True)
class NormalizedEvent:
    """One canonical telemetry record, flat: its process fields (pid, ppid,
    image, cmdline) and network fields (src_ip, src_port, dst_ip, dst_port,
    proto) are slots of the event itself. Only events.jsonl groups them,
    in ``_event_line`` and ``event_from_dict``.

    Immutable after construction; safe to share between workers.
    """

    event_id: str
    ts: int  # UTC epoch milliseconds
    scenario_id: str
    source: str
    trust_origin: str
    host: Optional[str] = None
    user: Optional[str] = None
    pid: Optional[int] = None
    ppid: Optional[int] = None
    image: Optional[str] = None
    cmdline: Optional[str] = None
    src_ip: Optional[str] = None
    src_port: Optional[int] = None
    dst_ip: Optional[str] = None
    dst_port: Optional[int] = None
    proto: Optional[str] = None
    text_blob: str = ""
    extras: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.trust_origin not in TRUST_ORIGINS:
            raise ValueError(f"trust_origin must be one of {TRUST_ORIGINS}, got {self.trust_origin!r}")
        if not self.source:
            raise ValueError("source must be a non-empty stream name")
        if not isinstance(self.ts, int):
            raise ValueError(f"ts must be an integer epoch-millisecond value, got {type(self.ts).__name__}")


# The fields an event holds itself: every slot but extras.
_EVENT_FIELDS = frozenset(NormalizedEvent.__slots__) - {"extras"}

# Canonical field superset: the event's own fields and the text-blob
# candidates. Anything else an adapter preserves lands in `extras` and is
# reachable through field_resolver via the alias map.
CANONICAL_FIELDS = _EVENT_FIELDS | frozenset(TEXT_BLOB_CANDIDATES)


class FieldAliasMap:
    """Canonical field name -> ordered source-specific alias names.

    Lookup is case-insensitive. No alias may map to two canonical names.
    """

    def __init__(self, entries: Optional[Mapping[str, Sequence[str]]] = None):
        self._entries: Dict[str, Tuple[str, ...]] = {}
        seen_aliases: Dict[str, str] = {}
        for canonical, aliases in (entries or {}).items():
            canon = canonical.lower()
            alias_tuple = tuple(aliases)
            for alias in alias_tuple:
                key = alias.lower()
                owner = seen_aliases.get(key)
                if owner is not None and owner != canon:
                    raise ConfigError(f"alias {alias!r} maps to both {owner!r} and {canon!r}")
                seen_aliases[key] = canon
            self._entries[canon] = alias_tuple

    def aliases_for(self, canonical: str) -> Tuple[str, ...]:
        return self._entries.get(canonical.lower(), ())

    def lookup_keys(self, canonical: str) -> Tuple[str, ...]:
        """The keys a lookup of ``canonical`` tries, in order: the lowered
        canonical name, then its lowered aliases."""
        name = canonical.lower()
        return (name, *(alias.lower() for alias in self.aliases_for(name)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldAliasMap) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"FieldAliasMap({self._entries!r})"


EMPTY_ALIASES = FieldAliasMap()


@dataclass(frozen=True)
class TsParse:
    ts_ms: int
    tz_naive: bool
    year_supplied: bool = False  # a BSD syslog timestamp took its year from default_year


_ISO_FRACTION_RE = re.compile(r"(\.\d{1,9})")
_ISO_COMPACT_TZ_RE = re.compile(r"([+-]\d{2})(\d{2})$")
_EPOCH_RE = re.compile(r"^-?\d+(\.\d+)?$")
# the form iso_ms renders: no "Z", a colon in the offset and 3 fraction digits
_CANONICAL_ISO_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}[+-]\d\d:\d\d", re.ASCII)
_BSD_SYSLOG_RE = re.compile(
    r"^(?P<mon>Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+(?P<day>\d{1,2})\s+"
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2})$"
)
_MONTHS = {m: i + 1 for i, m in enumerate(["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"])}

TS_AUTO = "auto"
TS_ISO8601 = "iso8601"
TS_EPOCH_SECONDS = "epoch_seconds"
TS_EPOCH_MILLIS = "epoch_millis"
TS_SYSLOG_BSD = "syslog_bsd"
TS_FORMATS = (TS_AUTO, TS_ISO8601, TS_EPOCH_SECONDS, TS_EPOCH_MILLIS, TS_SYSLOG_BSD)


def _parse_iso(raw: str) -> TsParse:
    """raw is stripped. The rewrites below cannot change the value of canonical text, so it skips them."""
    text = raw
    if not _CANONICAL_ISO_RE.fullmatch(text):
        if text.endswith("Z") or text.endswith("z"):
            text = text[:-1] + "+00:00"
        # "+0000" (no colon) -> "+00:00"
        text = _ISO_COMPACT_TZ_RE.sub(r"\1:\2", text)
        # fromisoformat on 3.10 wants exactly 3 or 6 fractional digits
        text = _ISO_FRACTION_RE.sub(_pad_fraction, text, count=1)
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"unparseable ISO-8601 timestamp: {raw!r}", offending=raw)
    naive = dt.tzinfo is None
    if naive:
        dt = dt.replace(tzinfo=timezone.utc)
    return TsParse(ts_ms=_in_range(dt.timestamp() * 1000, raw), tz_naive=naive)


def _in_range(ms: float, raw: str) -> int:
    """ms rounded to an integer, or ParseError when that is outside TS_MIN_MS..TS_MAX_MS."""
    ts_ms = round(ms) if math.isfinite(ms) else TS_MAX_MS + 1  # a long enough epoch string reads as inf
    if not TS_MIN_MS <= ts_ms <= TS_MAX_MS:
        raise ParseError(f"timestamp {raw!r} is outside the years 1-9999", offending=raw)
    return ts_ms


def _pad_fraction(match: "re.Match[str]") -> str:
    return "." + match.group(1)[1:].ljust(6, "0")[:6]


def _parse_epoch(text: str, millis: Optional[bool]) -> TsParse:
    """text matches _EPOCH_RE; millis None: milliseconds from 1e11 up."""
    value = float(text)
    if millis is None:
        millis = abs(value) >= 1e11
    return TsParse(ts_ms=_in_range(value if millis else value * 1000, text), tz_naive=False)


def _parse_bsd(raw: str, default_year: Optional[int]) -> TsParse:
    """raw is stripped."""
    m = _BSD_SYSLOG_RE.match(raw)
    if not m:
        raise ParseError(f"unparseable BSD syslog timestamp: {raw!r}", offending=raw)
    if default_year is None:
        raise ParseError(f"BSD syslog timestamp {raw!r} has no year; adapter must set default_year", offending=raw)
    try:
        dt = datetime(
            default_year,
            _MONTHS[m.group("mon")],
            int(m.group("day")),
            int(m.group("h")),
            int(m.group("m")),
            int(m.group("s")),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:  # e.g. Feb 29 in a common year
        raise ParseError(f"BSD syslog timestamp {raw!r} is not a date in {default_year}: {exc}", offending=raw)
    return TsParse(ts_ms=round(dt.timestamp() * 1000), tz_naive=True, year_supplied=True)


def parse_timestamp(raw: str, format_hint: str = TS_AUTO, default_year: Optional[int] = None) -> TsParse:
    """Parse a raw timestamp text into epoch milliseconds plus a tz-naive flag.

    Naive inputs are interpreted as UTC; ingest counts and reports them.
    """
    text = raw.strip()
    if not text:
        raise ParseError("empty timestamp", offending=raw)
    if format_hint == TS_ISO8601:
        return _parse_iso(text)
    if format_hint == TS_SYSLOG_BSD:
        return _parse_bsd(text, default_year)
    if format_hint not in (TS_AUTO, TS_EPOCH_SECONDS, TS_EPOCH_MILLIS):
        raise ParseError(f"unknown timestamp format hint: {format_hint!r}", offending=raw)
    if _EPOCH_RE.match(text):
        return _parse_epoch(text, millis=None if format_hint == TS_AUTO else format_hint == TS_EPOCH_MILLIS)
    if format_hint != TS_AUTO:
        raise ParseError(f"unparseable epoch timestamp: {text!r}", offending=text)
    # no BSD-shaped text is ISO-8601, so its shape picks the one parser whose error it gets
    return _parse_bsd(text, default_year) if _BSD_SYSLOG_RE.match(text) else _parse_iso(text)


def _text_blob(event: NormalizedEvent) -> Optional[str]:
    return event.text_blob or None  # an empty blob counts as absent


# (lowered canonical name, structured getter or None, lowered extras keys in order)
FieldResolver = Tuple[str, Optional[Callable[[NormalizedEvent], Any]], Tuple[str, ...]]


def field_resolver(canonical: str, aliases: FieldAliasMap = EMPTY_ALIASES) -> FieldResolver:
    """Compile the lookup of one canonical field: its structured getter, then
    the extras keys the canonical name and its aliases give, lowered."""
    name = canonical.lower()
    getter = _text_blob if name == "text_blob" else attrgetter(name) if name in _EVENT_FIELDS else None
    return name, getter, aliases.lookup_keys(name)


def resolve_fields(event: NormalizedEvent, resolvers: Iterable[FieldResolver]) -> Dict[str, Optional[str]]:
    """Resolve compiled fields on one event: {lowered name: value, or None when absent}.

    A present structured value wins; otherwise the first non-empty extras
    value among the resolver's keys. Every present value is a str. The
    case-folded extras view is built only when some structured value is
    absent and the event has extras.
    """
    values: Dict[str, Optional[str]] = {}
    view: Optional[Dict[str, str]] = None
    for name, getter, keys in resolvers:
        value = getter(event) if getter is not None else None
        if value is not None:
            values[name] = str(value)
            continue
        values[name] = None
        if event.extras:
            if view is None:
                view = {k.lower(): v for k, v in event.extras.items()}
            for key in keys:
                found = view.get(key)
                if found is not None and found != "":
                    values[name] = str(found)
                    break
    return values


def sort_events(events: Iterable[NormalizedEvent]) -> List[NormalizedEvent]:
    """The events in (ts, event_id) order; the key is read in C."""
    return sorted(events, key=attrgetter("ts", "event_id"))


def iso_ms(ts_ms: int) -> str:
    """Render epoch milliseconds as ISO-8601 UTC with millisecond precision."""
    dt = datetime.fromtimestamp(ts_ms // 1000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{ts_ms % 1000:03d}+00:00"


# --- canonical table serialization (line-delimited records) ---------------


_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number"}
# the default of a record_field or typed_value key that must be present
REQUIRED = object()


def record_field(group: Mapping[str, Any], key: str, kind: type, default: Any = None) -> Any:
    """group[key], or default when the key is absent (REQUIRED: KeyError).

    The value must be exactly of kind -- a JSON boolean is no integer --
    or null where the default is None; otherwise TypeError names the key.
    """
    value = group[key] if default is REQUIRED else group.get(key, default)
    if type(value) is kind or (value is None and default is None):
        return value
    nullable = " or null" if default is None else ""
    raise TypeError(f"{key!r} must be {_TYPE_NAMES[kind]}{nullable}, got {type(value).__name__}")


def _object(data: Mapping[str, Any], key: str) -> Dict[str, Any]:
    """data[key] as an object, absent or null: empty; anything else raises TypeError naming the key."""
    value = data.get(key)
    if value is None:
        return {}
    if type(value) is not dict:
        raise TypeError(f"{key!r} must be an object, got {type(value).__name__}")
    return value


# (group, key, kind, default) of the fields _raise_bad_field checks, in its order: the group is
# the record itself ("") or its "process" or "network" object, and the default is record_field's
_FIELD_CHECKS = (
    ("", "event_id", str, REQUIRED),
    ("", "ts", int, REQUIRED),
    ("", "scenario_id", str, ""),
    ("", "source", str, REQUIRED),
    ("", "trust_origin", str, REQUIRED),
    ("", "host", str, None),
    ("", "user", str, None),
    ("process", "pid", int, None),
    ("process", "ppid", int, None),
    ("process", "image", str, None),
    ("process", "cmdline", str, None),
    ("network", "src_ip", str, None),
    ("network", "src_port", int, None),
    ("network", "dst_ip", str, None),
    ("network", "dst_port", int, None),
    ("network", "proto", str, None),
    ("", "text_blob", str, ""),
)


def _raise_bad_field(data: Mapping[str, Any]) -> NoReturn:
    """Raise the error of the first field of data that event_from_dict's
    check rejects: a group that is not an object, an extras value that is
    not a string, then each field of _FIELD_CHECKS in turn (KeyError or
    TypeError naming the key), and last a ts outside the years 1-9999
    (ValueError)."""
    groups = {"": data, "process": _object(data, "process"), "network": _object(data, "network")}
    for key, value in _object(data, "extras").items():
        if type(value) is not str:
            raise TypeError(f"'extras' value {key!r} must be a string, got {type(value).__name__}")
    for group, key, kind, default in _FIELD_CHECKS:
        record_field(groups[group], key, kind, default)
    raise ValueError(f"'ts' {data['ts']} is outside the years 1-9999")


def event_from_dict(data: Mapping[str, Any], shared: Optional[Dict[str, str]] = None) -> NormalizedEvent:
    """Build an event from its events.jsonl record.

    With ``shared`` (one dict per read), equal string values of the fields
    ``ingest.read_lines`` shares (source, scenario id, trust origin, host,
    user, image, IPs, proto and extras keys) become one object. A value of
    the wrong JSON type raises TypeError naming its key: event_id, source
    and trust_origin are strings, and so are scenario_id and text_blob when
    present; ts is an integer; the other fields are strings or integers as
    in NormalizedEvent, or null; ``process``, ``network`` and ``extras``
    are objects or null, and the values of ``extras`` are strings. A ts
    outside TS_MIN_MS..TS_MAX_MS raises ValueError.

    Every field is fetched once and checked in one expression; only a
    record that fails it is walked field by field, by _raise_bad_field.
    """
    get = data.get
    event_id, ts, scenario_id, source, trust_origin = (
        get("event_id"), get("ts"), get("scenario_id", ""), get("source"), get("trust_origin")
    )
    host, user, text_blob, proc, net, extras = get("host"), get("user"), get("text_blob", ""), get("process"), get("network"), get("extras")
    pid = ppid = image = cmdline = src_ip = src_port = dst_ip = dst_port = proto = None
    if type(proc) is dict:
        pid, ppid, image, cmdline = proc.get("pid"), proc.get("ppid"), proc.get("image"), proc.get("cmdline")
    if type(net) is dict:
        src_ip, src_port, dst_ip, dst_port, proto = (
            net.get("src_ip"), net.get("src_port"), net.get("dst_ip"), net.get("dst_port"), net.get("proto")
        )
    if not (
        type(event_id) is str
        and type(ts) is int
        and TS_MIN_MS <= ts <= TS_MAX_MS
        and type(scenario_id) is str
        and type(source) is str
        and type(trust_origin) is str
        and (host is None or type(host) is str)
        and (user is None or type(user) is str)
        and type(text_blob) is str
        and (proc is None or type(proc) is dict)
        and (pid is None or type(pid) is int)
        and (ppid is None or type(ppid) is int)
        and (image is None or type(image) is str)
        and (cmdline is None or type(cmdline) is str)
        and (net is None or type(net) is dict)
        and (src_ip is None or type(src_ip) is str)
        and (src_port is None or type(src_port) is int)
        and (dst_ip is None or type(dst_ip) is str)
        and (dst_port is None or type(dst_port) is int)
        and (proto is None or type(proto) is str)
        and (extras is None if type(extras) is not dict else not extras or all(type(v) is str for v in extras.values()))
    ):
        _raise_bad_field(data)
    share = (shared if shared is not None else {}).setdefault
    return NormalizedEvent(
        event_id,
        ts,
        share(scenario_id, scenario_id),
        share(source, source),
        share(trust_origin, trust_origin),
        host if host is None else share(host, host),
        user if user is None else share(user, user),
        pid,
        ppid,
        image if image is None else share(image, image),
        cmdline,
        src_ip if src_ip is None else share(src_ip, src_ip),
        src_port,
        dst_ip if dst_ip is None else share(dst_ip, dst_ip),
        dst_port,
        proto if proto is None else share(proto, proto),
        text_blob,
        {share(k, k): v for k, v in extras.items()} if extras else {},
    )


# one compact encoder for every line, as json.dumps(..., separators=(",", ":")) would build per call
encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def _event_line(e: NormalizedEvent) -> str:
    """e's events.jsonl record, as compact JSON: the process and network
    fields nested in two groups, each null exactly when all of its fields
    are None, and the extras sorted by key.

    Strings go through json's own escaper, which raises TypeError for a
    value that is no str. An integer field that is not exactly an int (a
    bool, a float) raises TypeError naming the event and the field, as the
    reader would reject the line.
    """
    ts, pid, ppid, src_port, dst_port = e.ts, e.pid, e.ppid, e.src_port, e.dst_port
    if not (
        type(ts) is int
        and (pid is None or type(pid) is int)
        and (ppid is None or type(ppid) is int)
        and (src_port is None or type(src_port) is int)
        and (dst_port is None or type(dst_port) is int)
    ):
        name = next(n for n in ("ts", "pid", "ppid", "src_port", "dst_port") if type(getattr(e, n)) not in (int, type(None)))
        raise TypeError(f"event {e.event_id!r}: {name!r} must be an integer, got {type(getattr(e, name)).__name__}")
    esc = encode_basestring_ascii
    host, user, image, cmdline, src_ip, dst_ip, proto, extras = e.host, e.user, e.image, e.cmdline, e.src_ip, e.dst_ip, e.proto, e.extras
    proc = []
    if pid is not None:
        proc.append(f'"pid":{pid}')
    if ppid is not None:
        proc.append(f'"ppid":{ppid}')
    if image is not None:
        proc.append(f'"image":{esc(image)}')
    if cmdline is not None:
        proc.append(f'"cmdline":{esc(cmdline)}')
    net = []
    if src_ip is not None:
        net.append(f'"src_ip":{esc(src_ip)}')
    if src_port is not None:
        net.append(f'"src_port":{src_port}')
    if dst_ip is not None:
        net.append(f'"dst_ip":{esc(dst_ip)}')
    if dst_port is not None:
        net.append(f'"dst_port":{dst_port}')
    if proto is not None:
        net.append(f'"proto":{esc(proto)}')
    pairs = ",".join([f"{esc(k)}:{esc(v)}" for k, v in sorted(extras.items())]) if extras else ""
    return (
        f'{{"event_id":{esc(e.event_id)},"ts":{ts},"scenario_id":{esc(e.scenario_id)},'
        f'"source":{esc(e.source)},"trust_origin":{esc(e.trust_origin)},'
        f'"host":{"null" if host is None else esc(host)},"user":{"null" if user is None else esc(user)},'
        f'"process":{"{" + ",".join(proc) + "}" if proc else "null"},'
        f'"network":{"{" + ",".join(net) + "}" if net else "null"},"text_blob":{esc(e.text_blob)},'
        f'"extras":{{{pairs}}}}}'
    )


def events_to_jsonl(events: Iterable[NormalizedEvent]) -> str:
    lines = [_event_line(e) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


# the scanner json.loads runs, without its checks around the value; a line it
# cannot read whole goes to json.loads, for json's own error message
_scan_once = json.JSONDecoder().scan_once


def read_jsonl(source: Union[str, IO[bytes]], kind: str, record: Callable[[Any], T]) -> List[T]:
    """record(doc) of the JSON document on each non-blank line of a .jsonl artifact.

    ``source`` is the text or a file opened in binary mode. A file is read
    one physical line at a time; each is decoded and split again with
    ``str.splitlines``, so lines and their numbers match the text's. A line
    that is not valid UTF-8 or JSON, or whose document record rejects
    (AttributeError, KeyError, TypeError, ValueError), raises
    ParseError("<kind> line N: Exc: msg").
    """
    records = []
    lineno = 0
    for block in (source,) if isinstance(source, str) else source:
        if not isinstance(block, str):
            try:
                block = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    f"{kind} line {lineno + 1}: {type(exc).__name__}: {exc}", offending=block.decode("utf-8", "replace")
                )
        for line in block.splitlines():
            lineno += 1
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    doc, end = _scan_once(line, 0)
                except (StopIteration, ValueError):
                    end = -1
                if end != len(line):  # not one JSON value: json.loads raises with its own message
                    doc = json.loads(line)
                records.append(record(doc))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"{kind} line {lineno}: {type(exc).__name__}: {exc}", offending=line)
    return records


def events_from_jsonl(source: Union[str, IO[bytes]]) -> List[NormalizedEvent]:
    """Parse events.jsonl from its text or from a file opened in binary mode (see read_jsonl).

    Equal identity values are shared across the events (see ``event_from_dict``).
    """
    shared: Dict[str, str] = {}
    return read_jsonl(source, "events", lambda doc: event_from_dict(doc, shared))


# --- indented JSON documents ----------------------------------------------

# Records rendered per call by the JSONL and graph.json writers. It bounds
# the largest string a writer holds (a slice of graph.json's edges or of
# events.jsonl), not the output, which never depends on it.
SLICE_RECORDS = 1024


def write_json(path: Path, doc: Any) -> None:
    """Write exactly ``json.dumps(doc, indent=2, sort_keys=True)`` and a newline."""
    with open(path, "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=2, sort_keys=True)
        out.write("\n")


def read_json(path: Path) -> Dict[str, Any]:
    """Parse one JSON object.

    Invalid UTF-8, invalid JSON or a document that is not an object raises
    ParseError naming the file.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ParseError(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


# Readers of the keys inside a parsed JSON or YAML document. ``origin``
# names the file (or packaged document) in the error; ``where`` is the
# path of ``doc`` inside it, such as "rules[2].".


def object_list(
    origin: Union[str, Path], doc: Mapping[str, Any], key: str, fields: Sequence[str] = (), where: str = ""
) -> List[Dict[str, Any]]:
    """doc[key] (absent: none) as a list of objects that each hold every named field.

    Anything else raises ParseError naming the file and the key.
    """
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{origin}: {where}{key!r} must be a list, got {type(entries).__name__}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ParseError(f"{origin}: {where}{key}[{i}] must be an object, got {type(entry).__name__}")
        for name in fields:
            if name not in entry:
                raise ParseError(f"{origin}: {where}{key}[{i}] lacks {name!r}")
    return entries


def parse_regex(pattern: str) -> Any:
    """The parse tree of pattern, raising re.error also where re only warns.

    re warns with a FutureWarning of a pattern whose meaning a later
    Python changes, such as the possible nested set in "[[a]"; a config
    pattern must mean one thing, so that is an error here. The parser is
    called directly: re.compile returns a pattern it compiled before
    without parsing it, and so without warning, again.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        try:
            return _sre_parser.parse(pattern)
        except FutureWarning as exc:
            raise re.error(str(exc), pattern) from None


def compile_regex(pattern: str) -> Pattern[str]:
    """re.compile(pattern), after parse_regex(pattern) has checked it."""
    parse_regex(pattern)
    return re.compile(pattern)


def string_list(origin: Union[str, Path], doc: Mapping[str, Any], key: str, where: str = "") -> List[str]:
    """doc[key] (absent: none) as a list of strings, else ParseError naming the file and the key.

    A lone string is an error too, never a list of its characters.
    """
    values = doc.get(key, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ParseError(f"{origin}: {where}{key!r} must be a list of strings, got {values!r}")
    return values


def typed_value(
    origin: Union[str, Path], doc: Mapping[str, Any], key: str, kind: type, where: str = "", default: Any = REQUIRED
) -> Any:
    """doc[key] (absent: default, if given) if it is a kind, else ParseError naming the file and the key.

    kind is str, int or float; an int is a float, kept as it is, a bool is
    neither, and a string is no number however it reads.
    """
    if key not in doc and default is not REQUIRED:
        return default
    value = doc.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ParseError(f"{origin}: {where}{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def object_field(origin: Union[str, Path], doc: Mapping[str, Any], key: str, where: str = "") -> Dict[str, Any]:
    """doc[key] (absent or null: empty) as an object, else ParseError naming the file and the key."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ParseError(f"{origin}: {where}{key!r} must be an object, got {value!r}")
    return value


def write_jsonl(path: Path, items: Sequence[T], to_jsonl: Callable[[Sequence[T]], str]) -> None:
    """Write to_jsonl(items) by calling it on SLICE_RECORDS items at a time.

    to_jsonl must render each item as one newline-terminated line, so the
    slices concatenate to the one-shot text.
    """
    with open(path, "w", encoding="utf-8") as out:
        for start in range(0, len(items), SLICE_RECORDS):
            out.write(to_jsonl(items[start : start + SLICE_RECORDS]))
