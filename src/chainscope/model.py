"""Canonical event schema, field aliasing, and timestamp normalization.

Every other module consumes NormalizedEvent tables produced here. The
single time basis is UTC epoch milliseconds (integer), which gives a
total (ts, event_id) ordering and preserves sub-second sensor precision.

Timezone-naive timestamps are interpreted as UTC; callers that need to
surface this (ingest does) can use ``parse_timestamp`` which reports the
naive flag alongside the value.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ConfigError, ParseError

logger = logging.getLogger(__name__)

TRUST_ATTACKER = "attacker"
TRUST_TARGET = "target"
TRUST_ORIGINS = (TRUST_ATTACKER, TRUST_TARGET)

# Canonical field superset. Anything else an adapter preserves lands in
# `extras` and is reachable through resolve_field via the alias map.
CANONICAL_FIELDS = frozenset(
    {
        "event_id",
        "ts",
        "scenario_id",
        "source",
        "trust_origin",
        "host",
        "user",
        "pid",
        "ppid",
        "image",
        "cmdline",
        "src_ip",
        "src_port",
        "dst_ip",
        "dst_port",
        "proto",
        "text_blob",
        "message",
        "raw",
    }
)

# Candidate fields concatenated into text_blob, in this fixed order.
TEXT_BLOB_CANDIDATES = ("raw", "message", "cmdline")


class _Missing:
    """Distinguished absence value returned by resolve_field."""

    _instance: Optional["_Missing"] = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "MISSING"

    def __bool__(self) -> bool:
        return False


MISSING = _Missing()


@dataclass(frozen=True)
class ProcessInfo:
    pid: Optional[int] = None
    ppid: Optional[int] = None
    image: Optional[str] = None
    cmdline: Optional[str] = None

    def is_empty(self) -> bool:
        return self.pid is None and self.ppid is None and self.image is None and self.cmdline is None


@dataclass(frozen=True)
class NetworkInfo:
    src_ip: Optional[str] = None
    src_port: Optional[int] = None
    dst_ip: Optional[str] = None
    dst_port: Optional[int] = None
    proto: Optional[str] = None

    def is_empty(self) -> bool:
        return (
            self.src_ip is None
            and self.src_port is None
            and self.dst_ip is None
            and self.dst_port is None
            and self.proto is None
        )


@dataclass(frozen=True)
class NormalizedEvent:
    """One canonical telemetry record.

    Immutable after construction; safe to share between workers.
    """

    event_id: str
    ts: int  # UTC epoch milliseconds
    scenario_id: str
    source: str
    trust_origin: str
    host: Optional[str] = None
    user: Optional[str] = None
    process: ProcessInfo = field(default_factory=ProcessInfo)
    network: NetworkInfo = field(default_factory=NetworkInfo)
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

    def entries(self) -> Dict[str, Tuple[str, ...]]:
        return dict(self._entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldAliasMap) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"FieldAliasMap({self._entries!r})"


EMPTY_ALIASES = FieldAliasMap()


@dataclass(frozen=True)
class TsParse:
    ts_ms: int
    tz_naive: bool


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
    dt = datetime(
        default_year,
        _MONTHS[m.group("mon")],
        int(m.group("day")),
        int(m.group("h")),
        int(m.group("m")),
        int(m.group("s")),
        tzinfo=timezone.utc,
    )
    return TsParse(ts_ms=round(dt.timestamp() * 1000), tz_naive=True)


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


_STRUCTURED_GETTERS = {
    "event_id": lambda e: e.event_id,
    "ts": lambda e: e.ts,
    "scenario_id": lambda e: e.scenario_id,
    "source": lambda e: e.source,
    "trust_origin": lambda e: e.trust_origin,
    "host": lambda e: e.host,
    "user": lambda e: e.user,
    "pid": lambda e: e.process.pid,
    "ppid": lambda e: e.process.ppid,
    "image": lambda e: e.process.image,
    "cmdline": lambda e: e.process.cmdline,
    "src_ip": lambda e: e.network.src_ip,
    "src_port": lambda e: e.network.src_port,
    "dst_ip": lambda e: e.network.dst_ip,
    "dst_port": lambda e: e.network.dst_port,
    "proto": lambda e: e.network.proto,
    "text_blob": lambda e: e.text_blob or None,
}


def _resolve_with_extras(
    event: NormalizedEvent,
    name: str,
    aliases: FieldAliasMap,
    lowered_extras: Mapping[str, str],
) -> Union[str, _Missing]:
    getter = _STRUCTURED_GETTERS.get(name)
    if getter is not None:
        value = getter(event)
        if value is not None:
            return str(value)
    if lowered_extras:
        for key in (name, *aliases.aliases_for(name)):
            value = lowered_extras.get(key.lower())
            if value is not None and value != "":
                return str(value)
    return MISSING


def lowered_extras_view(event: NormalizedEvent) -> Dict[str, str]:
    """Case-folded extras, reusable across many resolve calls on one event."""
    return {k.lower(): v for k, v in event.extras.items()}


def resolve_field(
    event: NormalizedEvent, canonical: str, aliases: FieldAliasMap = EMPTY_ALIASES
) -> Union[str, _Missing]:
    """Look up a canonical field on an event, falling back to extras aliases.

    Returns the first present value among the canonical field and its
    aliases, in alias-list order, stringified. Absence is the MISSING
    sentinel, never an error. Pure function of its inputs.
    """
    return _resolve_with_extras(event, canonical.lower(), aliases, lowered_extras_view(event))


def sort_events(events: Iterable[NormalizedEvent]) -> List[NormalizedEvent]:
    return sorted(events, key=lambda e: e.sort_key())


def iso_ms(ts_ms: int) -> str:
    """Render epoch milliseconds as ISO-8601 UTC with millisecond precision."""
    dt = datetime.fromtimestamp(ts_ms // 1000, tz=timezone.utc)
    return dt.strftime("%Y-%m-%dT%H:%M:%S") + f".{ts_ms % 1000:03d}+00:00"


# --- canonical table serialization (line-delimited records) ---------------


def event_to_dict(event: NormalizedEvent) -> Dict[str, Any]:
    proc: Optional[Dict[str, Any]] = None
    if not event.process.is_empty():
        proc = {k: v for k, v in (("pid", event.process.pid), ("ppid", event.process.ppid), ("image", event.process.image), ("cmdline", event.process.cmdline)) if v is not None}
    net: Optional[Dict[str, Any]] = None
    if not event.network.is_empty():
        net = {
            k: v
            for k, v in (
                ("src_ip", event.network.src_ip),
                ("src_port", event.network.src_port),
                ("dst_ip", event.network.dst_ip),
                ("dst_port", event.network.dst_port),
                ("proto", event.network.proto),
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


def event_from_dict(data: Mapping[str, Any]) -> NormalizedEvent:
    proc = data.get("process") or {}
    net = data.get("network") or {}
    return NormalizedEvent(
        event_id=data["event_id"],
        ts=int(data["ts"]),
        scenario_id=data.get("scenario_id", ""),
        source=data["source"],
        trust_origin=data["trust_origin"],
        host=data.get("host"),
        user=data.get("user"),
        process=ProcessInfo(
            pid=proc.get("pid"),
            ppid=proc.get("ppid"),
            image=proc.get("image"),
            cmdline=proc.get("cmdline"),
        ),
        network=NetworkInfo(
            src_ip=net.get("src_ip"),
            src_port=net.get("src_port"),
            dst_ip=net.get("dst_ip"),
            dst_port=net.get("dst_port"),
            proto=net.get("proto"),
        ),
        text_blob=data.get("text_blob", ""),
        extras=dict(data.get("extras") or {}),
    )


def events_to_jsonl(events: Iterable[NormalizedEvent]) -> str:
    lines = [json.dumps(event_to_dict(e), separators=(",", ":")) for e in events]
    return "\n".join(lines) + ("\n" if lines else "")


def events_from_jsonl(text: str) -> List[NormalizedEvent]:
    """Parse events.jsonl; a malformed line raises ParseError naming its line number."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(event_from_dict(json.loads(line)))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"events line {lineno}: {type(exc).__name__}: {exc}", offending=line)
    return events


# --- indented JSON documents ----------------------------------------------

_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


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


def _dumps(obj: Any, level: int) -> str:
    if type(obj) in _SCALAR_TYPES:
        return json.dumps(obj)
    outer, inner, deeper = "  " * level, "  " * (level + 1), "  " * (level + 2)
    if isinstance(obj, dict) and obj and all(type(key) is str for key in obj):
        if _SCALAR_TYPES.issuperset(map(type, obj.values())):
            flat = _flat_encoder(level + 1).encode(obj)
            return "{\n" + inner + flat[1:-1] + "\n" + outer + "}"
        items = ",\n".join(
            inner + encode_basestring_ascii(key) + ": " + _dumps(value, level + 1) for key, value in sorted(obj.items())
        )
        return "{\n" + items + "\n" + outer + "}"
    if isinstance(obj, (list, tuple)) and obj:
        if _SCALAR_TYPES.issuperset(map(type, obj)):
            flat = _flat_encoder(level + 1).encode(obj)
            return "[\n" + inner + flat[1:-1] + "\n" + outer + "]"
        if _flat_records(obj):
            # one encoder call renders every record at the deeper indent;
            # a newline can only come from a separator (strings escape it),
            # so "},\n<deeper>{" occurs exactly at the record boundaries
            flat = _flat_encoder(level + 2).encode(obj)
            flat = flat.replace("},\n" + deeper + "{", "\n" + inner + "},\n" + inner + "{\n" + deeper)
            return "[\n" + inner + "{\n" + deeper + flat[2:-2] + "\n" + inner + "}\n" + outer + "]"
        return "[\n" + ",\n".join(inner + _dumps(item, level + 1) for item in obj) + "\n" + outer + "]"
    # empty containers, non-str keys and anything the stdlib rejects
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + outer)


def dumps_json(doc: Any) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True)``, mostly C-encoded.

    The stdlib renders indented JSON in pure Python and holds one string
    per token until it joins them. Here every flat dict or list (scalar
    values only) and every list of flat records is one C encoder call
    whose item separator already carries the newline and indent.
    """
    return _dumps(doc, 0)


def write_json(path: Path, doc: Any) -> None:
    """Write doc as sorted, two-space indented JSON plus a final newline."""
    Path(path).write_text(dumps_json(doc) + "\n", encoding="utf-8")
