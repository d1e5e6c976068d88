"""Canonical event schema, field aliasing, and timestamp normalization.

Every other module consumes NormalizedEvent tables produced here. The
single time basis is UTC epoch milliseconds (integer), which gives a
total (ts, event_id) ordering and preserves sub-second sensor precision.

Timezone-naive timestamps are interpreted as UTC; callers that need to
surface this (ingest does) can use ``parse_timestamp`` which reports the
naive flag alongside the value.
"""

from __future__ import annotations

import collections.abc
import io
import json
import logging
import re
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import IO, Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Pattern, Sequence, Tuple, TypeVar, Union

from .errors import ConfigError, ParseError

logger = logging.getLogger(__name__)

T = TypeVar("T")

TRUST_ATTACKER = "attacker"
TRUST_TARGET = "target"
TRUST_ORIGINS = (TRUST_ATTACKER, TRUST_TARGET)

# Candidate fields concatenated into text_blob, in this fixed order.
TEXT_BLOB_CANDIDATES = ("raw", "message", "cmdline")


@dataclass(frozen=True, slots=True)
class NormalizedEvent:
    """One canonical telemetry record, flat: its process fields (pid, ppid,
    image, cmdline) and network fields (src_ip, src_port, dst_ip, dst_port,
    proto) are slots of the event itself. Only events.jsonl groups them,
    in ``event_to_dict`` and ``event_from_dict``.

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

    def sort_key(self) -> Tuple[int, str]:
        return (self.ts, self.event_id)


# The fields an event holds itself: every slot but extras.
_EVENT_FIELDS = frozenset(NormalizedEvent.__slots__) - {"extras"}

# Canonical field superset: the event's own fields and the text-blob
# candidates. Anything else an adapter preserves lands in `extras` and is
# reachable through resolve_field via the alias map.
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
    text = raw.strip()
    if text.endswith("Z") or text.endswith("z"):
        text = text[:-1] + "+00:00"
    # "+0000" (no colon) -> "+00:00"
    text = _ISO_COMPACT_TZ_RE.sub(r"\1:\2", text)

    # fromisoformat on 3.10 wants exactly 3 or 6 fractional digits
    def _pad(match: "re.Match[str]") -> str:
        digits = match.group(1)[1:]
        return "." + digits.ljust(6, "0")[:6]

    text = _ISO_FRACTION_RE.sub(_pad, text, count=1)
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"unparseable ISO-8601 timestamp: {raw!r}", offending=raw)
    naive = dt.tzinfo is None
    if naive:
        dt = dt.replace(tzinfo=timezone.utc)
    return TsParse(ts_ms=round(dt.timestamp() * 1000), tz_naive=naive)


def _parse_epoch(raw: str, millis: Optional[bool]) -> TsParse:
    if not _EPOCH_RE.match(raw.strip()):
        raise ParseError(f"unparseable epoch timestamp: {raw!r}", offending=raw)
    value = float(raw)
    if millis is None:
        millis = abs(value) >= 1e11
    ts_ms = round(value) if millis else round(value * 1000)
    return TsParse(ts_ms=ts_ms, tz_naive=False)


def _parse_bsd(raw: str, default_year: Optional[int]) -> TsParse:
    m = _BSD_SYSLOG_RE.match(raw.strip())
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


def parse_timestamp(raw: Union[str, int, float], format_hint: str = TS_AUTO, default_year: Optional[int] = None) -> TsParse:
    """Parse a raw timestamp into epoch milliseconds plus a tz-naive flag.

    Naive inputs are interpreted as UTC; ingest counts and reports them.
    """
    if isinstance(raw, bool):
        raise ParseError(f"unparseable timestamp: {raw!r}", offending=str(raw))
    if isinstance(raw, (int, float)):
        raw = repr(raw)
    text = raw.strip()
    if not text:
        raise ParseError("empty timestamp", offending=raw)
    if format_hint == TS_ISO8601:
        return _parse_iso(text)
    if format_hint == TS_EPOCH_SECONDS:
        return _parse_epoch(text, millis=False)
    if format_hint == TS_EPOCH_MILLIS:
        return _parse_epoch(text, millis=True)
    if format_hint == TS_SYSLOG_BSD:
        return _parse_bsd(text, default_year)
    if format_hint != TS_AUTO:
        raise ParseError(f"unknown timestamp format hint: {format_hint!r}", offending=raw)
    if _EPOCH_RE.match(text):
        return _parse_epoch(text, millis=None)
    try:
        return _parse_iso(text)
    except ParseError:
        pass
    return _parse_bsd(text, default_year)


def canonicalize_ts(raw: Union[str, int, float], format_hint: str = TS_AUTO, default_year: Optional[int] = None) -> int:
    """Normalize a raw timestamp to UTC epoch milliseconds.

    Raises ParseError (carrying the offending string) on unparseable input.
    """
    parsed = parse_timestamp(raw, format_hint=format_hint, default_year=default_year)
    if parsed.tz_naive:
        logger.debug("timezone-naive timestamp %r interpreted as UTC", raw)
    return parsed.ts_ms


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


def lowered_extras_view(event: NormalizedEvent) -> Dict[str, str]:
    """Case-folded extras, reusable across many resolve calls on one event."""
    return {k.lower(): v for k, v in event.extras.items()}


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
                view = lowered_extras_view(event)
            for key in keys:
                found = view.get(key)
                if found is not None and found != "":
                    values[name] = str(found)
                    break
    return values


def resolve_field(event: NormalizedEvent, canonical: str, aliases: FieldAliasMap = EMPTY_ALIASES) -> Optional[str]:
    """Look up a canonical field on an event, falling back to extras aliases.

    Returns the first present value among the canonical field and its
    aliases, in alias-list order, stringified. Absence is None, never an
    error. Pure function of its inputs.
    """
    resolver = field_resolver(canonical, aliases)
    return resolve_fields(event, (resolver,))[resolver[0]]


def sort_events(events: Iterable[NormalizedEvent]) -> List[NormalizedEvent]:
    return sorted(events, key=lambda e: e.sort_key())


def iso_ms(ts_ms: int) -> str:
    """Render epoch milliseconds as ISO-8601 UTC with millisecond precision."""
    dt = datetime.fromtimestamp(ts_ms // 1000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{ts_ms % 1000:03d}+00:00"


# --- canonical table serialization (line-delimited records) ---------------


def event_to_dict(event: NormalizedEvent) -> Dict[str, Any]:
    """The on-disk form: process and network fields nested in two groups,
    each null exactly when all of its fields are None."""
    proc: Optional[Dict[str, Any]] = None
    if event.pid is not None or event.ppid is not None or event.image is not None or event.cmdline is not None:
        proc = {k: v for k, v in (("pid", event.pid), ("ppid", event.ppid), ("image", event.image), ("cmdline", event.cmdline)) if v is not None}
    net: Optional[Dict[str, Any]] = None
    if (
        event.src_ip is not None
        or event.src_port is not None
        or event.dst_ip is not None
        or event.dst_port is not None
        or event.proto is not None
    ):
        net = {
            k: v
            for k, v in (
                ("src_ip", event.src_ip),
                ("src_port", event.src_port),
                ("dst_ip", event.dst_ip),
                ("dst_port", event.dst_port),
                ("proto", event.proto),
            )
            if v is not None
        }
    return {
        "event_id": event.event_id,
        "ts": event.ts,
        "scenario_id": event.scenario_id,
        "source": event.source,
        "trust_origin": event.trust_origin,
        "host": event.host,
        "user": event.user,
        "process": proc,
        "network": net,
        "text_blob": event.text_blob,
        "extras": dict(sorted(event.extras.items())),
    }


_KIND_NAMES = {str: "a string", int: "an integer"}
_REQUIRED = object()


def _field(group: Mapping[str, Any], key: str, kind: type, default: Any = None) -> Any:
    """group[key], or default when the key is absent (_REQUIRED: KeyError).

    The value must be exactly of kind -- a JSON boolean is no integer --
    or null where the default is None; otherwise TypeError names the key.
    """
    value = group[key] if default is _REQUIRED else group.get(key, default)
    if type(value) is kind or (value is None and default is None):
        return value
    nullable = " or null" if default is None else ""
    raise TypeError(f"{key!r} must be {_KIND_NAMES[kind]}{nullable}, got {type(value).__name__}")


def _object(data: Mapping[str, Any], key: str) -> Dict[str, Any]:
    """data[key] as an object, absent or null: empty; anything else raises TypeError naming the key."""
    value = data.get(key)
    if value is None:
        return {}
    if type(value) is not dict:
        raise TypeError(f"{key!r} must be an object, got {type(value).__name__}")
    return value


def event_from_dict(data: Mapping[str, Any], shared: Optional[Dict[str, str]] = None) -> NormalizedEvent:
    """Build an event from its ``event_to_dict`` form.

    With ``shared`` (one dict per read), equal string values of the fields
    ``normalize_records`` shares (source, scenario id, trust origin, host,
    user, image, IPs, proto and extras keys) become one object. A value of
    the wrong JSON type raises TypeError naming its key: event_id, source
    and trust_origin are strings, and so are scenario_id and text_blob when
    present; ts is an integer; the other fields are strings or integers as
    in NormalizedEvent, or null; ``process``, ``network`` and ``extras``
    are objects or null, and the values of ``extras`` are strings.
    """
    if shared is None:
        shared = {}

    def share(value: Any) -> Any:
        return shared.setdefault(value, value) if isinstance(value, str) else value

    proc, net, extras = _object(data, "process"), _object(data, "network"), _object(data, "extras")
    for key, value in extras.items():
        if type(value) is not str:
            raise TypeError(f"'extras' value {key!r} must be a string, got {type(value).__name__}")
    return NormalizedEvent(
        event_id=_field(data, "event_id", str, _REQUIRED),
        ts=_field(data, "ts", int, _REQUIRED),
        scenario_id=share(_field(data, "scenario_id", str, "")),
        source=share(_field(data, "source", str, _REQUIRED)),
        trust_origin=share(_field(data, "trust_origin", str, _REQUIRED)),
        host=share(_field(data, "host", str)),
        user=share(_field(data, "user", str)),
        pid=_field(proc, "pid", int),
        ppid=_field(proc, "ppid", int),
        image=share(_field(proc, "image", str)),
        cmdline=_field(proc, "cmdline", str),
        src_ip=share(_field(net, "src_ip", str)),
        src_port=_field(net, "src_port", int),
        dst_ip=share(_field(net, "dst_ip", str)),
        dst_port=_field(net, "dst_port", int),
        proto=share(_field(net, "proto", str)),
        text_blob=_field(data, "text_blob", str, ""),
        extras={share(k): v for k, v in extras.items()},
    )


# one compact encoder for every line, as json.dumps(..., separators=(",", ":")) would build per call
encode_compact = json.JSONEncoder(separators=(",", ":")).encode


def events_to_jsonl(events: Iterable[NormalizedEvent]) -> str:
    lines = [encode_compact(event_to_dict(e)) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def _jsonl_lines(source: Union[str, IO[bytes]], kind: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(lineno, line)`` exactly as ``enumerate(text.splitlines(), 1)``.

    ``source`` is the text or a file opened in binary mode. A file is read
    one physical line at a time; each is decoded and split again with
    ``str.splitlines``, so lines and their numbers match the text's. A line
    that is not valid UTF-8 raises ParseError naming ``kind`` and the line.
    """
    if isinstance(source, str):
        yield from enumerate(source.splitlines(), start=1)
        return
    lineno = 0
    for raw in source:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{kind} line {lineno + 1}: {type(exc).__name__}: {exc}", offending=raw.decode("utf-8", "replace")
            )
        for line in text.splitlines():
            lineno += 1
            yield lineno, line


def events_from_jsonl(source: Union[str, IO[bytes]]) -> List[NormalizedEvent]:
    """Parse events.jsonl from its text or from a file opened in binary mode.

    A file is read line by line, and equal identity values are shared
    across the events (see ``event_from_dict``). A malformed line raises
    ParseError naming its line number.
    """
    events = []
    shared: Dict[str, str] = {}
    for lineno, line in _jsonl_lines(source, "events"):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(event_from_dict(json.loads(line), shared))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"events line {lineno}: {type(exc).__name__}: {exc}", offending=line)
    return events


# --- indented JSON documents ----------------------------------------------

_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})

# Records rendered per C encoder call by the JSON and JSONL writers. It
# bounds the largest string a writer holds (a slice of graph.json's edges
# or of events.jsonl), not the output, which never depends on it.
SLICE_RECORDS = 1024


class ColumnView(collections.abc.Sequence):
    """A read-only sequence whose item k is make(column[k], ...) over parallel columns.

    Items exist only while they are used: a slice is a tuple of new items.
    write_json renders a view as a JSON list, SLICE_RECORDS items at a
    time, so a document can hold records that are never all built at once.
    A view equals a tuple, or another view, of equal items.
    """

    __slots__ = ("_make", "_columns")

    def __init__(self, make: Callable[..., Any], *columns: Sequence[Any]) -> None:
        self._make = make
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, k: Any) -> Any:
        if isinstance(k, slice):
            return tuple(map(self._make, *(column[k] for column in self._columns)))
        return self._make(*(column[k] for column in self._columns))

    def __iter__(self) -> Iterator[Any]:
        return map(self._make, *self._columns)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, ColumnView)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


@lru_cache(maxsize=None)
def _flat_encoder(level: int) -> json.JSONEncoder:
    """C-accelerated encoder whose item separator starts a line at ``level``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * level, ": "))


def _flat_records(items: Sequence[Any]) -> bool:
    """Whether every item is a non-empty dict of str keys and scalar values."""
    return (
        set(map(type, items)) == {dict}
        and all(items)
        and set(map(type, chain.from_iterable(items))) == {str}
        and _SCALAR_TYPES.issuperset(map(type, chain.from_iterable(map(dict.values, items))))
    )


def _emit(obj: Any, level: int, write: Callable[[str], Any]) -> None:
    if type(obj) in _SCALAR_TYPES:
        write(json.dumps(obj))
        return
    outer, inner, deeper = "  " * level, "  " * (level + 1), "  " * (level + 2)
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        if _SCALAR_TYPES.issuperset(map(type, obj.values())):
            flat = _flat_encoder(level + 1).encode(obj)
            write("{\n" + inner + flat[1:-1] + "\n" + outer + "}")
            return
        separator = "{\n"
        for key, value in sorted(obj.items()):
            write(separator + inner + encode_basestring_ascii(key) + ": ")
            _emit(value, level + 1, write)
            separator = ",\n"
        write("\n" + outer + "}")
        return
    if isinstance(obj, (list, tuple, ColumnView)) and obj:
        if _SCALAR_TYPES.issuperset(map(type, obj)):
            flat = _flat_encoder(level + 1).encode(obj[:] if isinstance(obj, ColumnView) else obj)
            write("[\n" + inner + flat[1:-1] + "\n" + outer + "]")
            return
        separator = "[\n"
        for start in range(0, len(obj), SLICE_RECORDS):
            items = obj[start : start + SLICE_RECORDS]
            if _flat_records(items):
                # one encoder call renders every record of the slice at the
                # deeper indent; a newline can only come from a separator
                # (strings escape it), so "},\n<deeper>{" occurs exactly at
                # the record boundaries
                flat = _flat_encoder(level + 2).encode(items)
                flat = flat.replace("},\n" + deeper + "{", "\n" + inner + "},\n" + inner + "{\n" + deeper)
                write(separator + inner + "{\n" + deeper + flat[2:-2] + "\n" + inner + "}")
                separator = ",\n"
                continue
            for item in items:
                write(separator + inner)
                _emit(item, level + 1, write)
                separator = ",\n"
        write("\n" + outer + "]")
        return
    # empty containers, non-str keys and anything the stdlib rejects
    write(json.dumps([] if isinstance(obj, ColumnView) else obj, indent=2, sort_keys=True).replace("\n", "\n" + outer))


def dumps_json(doc: Any) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, mostly C-encoded.

    A ColumnView in doc is dumped as the list of its items.

    The stdlib renders indented JSON in pure Python and holds one string
    per token until it joins them. Here every flat dict or list (scalar
    values only) and every slice of up to SLICE_RECORDS flat records is
    one C encoder call whose item separator already carries the newline
    and indent.
    """
    buffer = io.StringIO()
    _emit(doc, 0, buffer.write)
    return buffer.getvalue()


def write_json(path: Path, doc: Any) -> None:
    """Write dumps_json(doc) plus a final newline, streamed piece by piece.

    The largest string held is one C-encoded slice, not the document.
    """
    with open(path, "w", encoding="utf-8") as out:
        _emit(doc, 0, out.write)
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


def float_value(value: Any) -> float:
    """float(value), except that a boolean (YAML's true or false) raises TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def compile_regex(pattern: str) -> Pattern[str]:
    """re.compile(pattern), raising re.error also where re only warns.

    re warns with a FutureWarning of a pattern whose meaning a later
    Python changes, such as the possible nested set in "[[a]"; a config
    pattern must mean one thing, so that is an error here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        try:
            return re.compile(pattern)
        except FutureWarning as exc:
            raise re.error(str(exc), pattern) from None


def string_list(origin: Union[str, Path], doc: Mapping[str, Any], key: str, where: str = "") -> List[str]:
    """doc[key] (absent: none) as a list of strings, else ParseError naming the file and the key.

    A lone string is an error too, never a list of its characters.
    """
    values = doc.get(key, [])
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ParseError(f"{origin}: {where}{key!r} must be a list of strings, got {values!r}")
    return values


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
