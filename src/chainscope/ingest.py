"""Per-source log parsing into NormalizedEvent tables.

A SourceAdapterSpec describes one telemetry stream: its wire format, how
its fields map onto the canonical schema, and its default trust origin.
Parsing is deliberately tolerant: unparseable lines are counted and
reported, never silently dropped from the accounting, and a file is only
rejected wholesale when its parse rate falls below the adapter threshold
(default 0.9). Records without any usable timestamp are quarantined with
a diagnostic instead of failing the run, which preserves genuine
observability gaps in the output table. A file is read line by line:
each record is parsed and normalized as its line is read, so nothing
holds a file's text or its parsed records, only its events.

Supported formats:

* ``syslog_line``   -- ``<ts> <host> <prog>[<pid>]: <message>`` (ISO or BSD ts)
* ``eve_json``      -- one JSON object per line, nested keys flattened to dots
* ``kv_audit``      -- ``key=value`` pairs, double-quoted values allowed
* ``csv_export``    -- delimited export with a header row
* ``prenormalized`` -- canonical event records, one JSON object per line

Determinism: event ids are assigned as ``<source>:<file ordinal>:<line
ordinal>``, so re-running ingestion over the same files yields
byte-identical tables regardless of scheduling.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigError, EventIdError, FormatMismatchError, ParseError
from .model import (
    EMPTY_ALIASES,
    TEXT_BLOB_CANDIDATES,
    TRUST_ORIGINS,
    TRUST_TARGET,
    TS_AUTO,
    TS_FORMATS,
    FieldAliasMap,
    NormalizedEvent,
    event_from_dict,
    parse_timestamp,
    sort_events,
)

logger = logging.getLogger(__name__)

FORMAT_SYSLOG = "syslog_line"
FORMAT_EVE = "eve_json"
FORMAT_KV = "kv_audit"
FORMAT_CSV = "csv_export"
FORMAT_PRENORMALIZED = "prenormalized"
FORMATS = (FORMAT_SYSLOG, FORMAT_EVE, FORMAT_KV, FORMAT_CSV, FORMAT_PRENORMALIZED)

DEFAULT_PARSE_THRESHOLD = 0.9

# raw-record pseudo field exposing the whole line to field maps
RAW_TEXT_KEY = "_raw"

# event ids pad the file ordinal to 3 digits and the record ordinal to 6, so
# that equal-ts events sort in file order; a wider ordinal would break that
MAX_FILES_PER_SOURCE = 1_000
MAX_RECORDS_PER_FILE = 1_000_000


@dataclass(frozen=True)
class SourceAdapterSpec:
    """Declarative description of one telemetry stream."""

    source: str
    format: str
    field_map: Mapping[str, str] = field(default_factory=dict)
    trust_origin: str = TRUST_TARGET
    ts_format: str = TS_AUTO
    default_year: Optional[int] = None
    file_pattern: Optional[str] = None
    parse_threshold: float = DEFAULT_PARSE_THRESHOLD

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ConfigError(f"adapter {self.source!r}: unknown format {self.format!r}")
        if self.trust_origin not in TRUST_ORIGINS:
            raise ConfigError(f"adapter {self.source!r}: bad trust_origin {self.trust_origin!r}")
        if self.ts_format not in TS_FORMATS:
            raise ConfigError(f"adapter {self.source!r}: unknown ts_format {self.ts_format!r}; valid: {TS_FORMATS}")
        if self.default_year is not None and (isinstance(self.default_year, bool) or not isinstance(self.default_year, int)):
            raise ConfigError(f"adapter {self.source!r}: default_year must be an integer, got {self.default_year!r}")
        if self.format != FORMAT_PRENORMALIZED:
            mapped = {k.lower() for k in self.field_map}
            if "ts" not in mapped:
                raise ConfigError(f"adapter {self.source!r} must map ts")
            if not mapped & set(TEXT_BLOB_CANDIDATES):
                raise ConfigError(
                    f"adapter {self.source!r} must map at least one text-blob candidate {TEXT_BLOB_CANDIDATES}"
                )

    def pattern(self) -> str:
        return self.file_pattern or f"{self.source}*"


@dataclass(frozen=True)
class Quarantine:
    ordinal: int
    reason: str


@dataclass(frozen=True)
class ReadResult:
    """One file's events, in record order, and what it left out."""

    events: List[NormalizedEvent]
    rejected_lines: Tuple[int, ...]  # 1-based line numbers
    quarantined: Tuple[Quarantine, ...]
    naive_ts_count: int


# --- line parsers ----------------------------------------------------------

_SYSLOG_ISO_RE = re.compile(
    r"^(?P<ts>\d{4}-\d{2}-\d{2}[T ][0-9:.+\-]+(?:Z)?)\s+(?P<host>\S+)\s+"
    r"(?P<prog>[^\s\[:]+)(?:\[(?P<pid>\d+)\])?:\s?(?P<message>.*)$"
)
_SYSLOG_BSD_RE = re.compile(
    r"^(?P<ts>[A-Z][a-z]{2}\s+\d{1,2}\s+\d{2}:\d{2}:\d{2})\s+(?P<host>\S+)\s+"
    r"(?P<prog>[^\s\[:]+)(?:\[(?P<pid>\d+)\])?:\s?(?P<message>.*)$"
)
_KV_PAIR_RE = re.compile(r'([\w.\-]+)=(?:"([^"]*)"|(\S+))')


def _parse_syslog_line(line: str) -> Optional[Dict[str, str]]:
    m = _SYSLOG_ISO_RE.match(line) or _SYSLOG_BSD_RE.match(line)
    if not m:
        return None
    fields = {"ts": m.group("ts"), "host": m.group("host"), "prog": m.group("prog"), "message": m.group("message")}
    if m.group("pid"):
        fields["pid"] = m.group("pid")
    return fields


def _flatten(obj: Dict[str, Any], prefix: str = "") -> Dict[str, str]:
    """A decoded JSON object's scalar values by dotted key path, as strings; lists as JSON, nulls left out."""
    flat: Dict[str, str] = {}
    for key, value in obj.items():
        name = f"{prefix}.{key}" if prefix else key
        kind = type(value)
        if kind is str:
            flat[name] = value
        elif kind is dict:
            flat.update(_flatten(value, name))
        elif kind is list:
            flat[name] = json.dumps(value)
        elif value is not None:
            flat[name] = str(value)
    return flat


def _parse_json_object(line: str) -> Optional[Dict[str, Any]]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    return obj if isinstance(obj, dict) else None


def _parse_eve_line(line: str) -> Optional[Dict[str, str]]:
    obj = _parse_json_object(line)
    return None if obj is None else _flatten(obj)


def _parse_kv_line(line: str) -> Optional[Dict[str, str]]:
    pairs = _KV_PAIR_RE.findall(line)
    if not pairs:
        return None
    return {key: quoted if quoted else bare for key, quoted, bare in pairs}


# for a prenormalized record the fields are the decoded canonical record
_LINE_PARSERS: Mapping[str, Callable[[str], Optional[Dict[str, Any]]]] = {
    FORMAT_SYSLOG: _parse_syslog_line,
    FORMAT_EVE: _parse_eve_line,
    FORMAT_KV: _parse_kv_line,
    FORMAT_PRENORMALIZED: _parse_json_object,
}

# one parsed record: its ordinal, its field map and its byte-exact original text
_Record = Tuple[int, Mapping[str, Any], str]


def _line_records(
    lines: Iterable[str], parse_line: Callable[[str], Optional[Dict[str, Any]]], rejected: List[int]
) -> Iterator[_Record]:
    """Each parsed record of a line-per-record file, as its lines are read.

    Each physical line is split again with str.splitlines, so lines and
    their numbers match those of the whole text. A blank line is skipped;
    every other line takes the next ordinal, and one that does not parse
    goes to rejected by its line number.
    """
    lineno = ordinal = 0
    for block in lines:
        for line in block.splitlines():
            lineno += 1
            if not line.strip():
                continue
            fields = parse_line(line)
            if fields is None:
                rejected.append(lineno)
            else:
                yield ordinal, fields, line
            ordinal += 1


def _csv_rows(lines: Iterable[str]) -> Iterator[Tuple[int, str, Optional[List[str]]]]:
    """Each row of a CSV file: the number of its first physical line, its
    physical text without the final line end, and its cells, or None when
    the csv module rejects it. A quoted cell may span several lines; only
    the current row's lines are held."""
    held: List[str] = []

    def feed() -> Iterator[str]:
        for line in lines:
            held.append(line)
            yield line

    reader = csv.reader(feed())
    lineno = 1
    while True:
        try:
            row: Optional[List[str]] = next(reader)
        except StopIteration:
            return
        except csv.Error:  # such as a field over csv.field_size_limit()
            row = None
        yield lineno, "".join(held).removesuffix("\n").removesuffix("\r"), row
        lineno += len(held)
        held.clear()


def _csv_records(lines: Iterable[str], rejected: List[int]) -> Iterator[_Record]:
    """Each parsed record of a CSV export under its header row, as its lines are read."""
    header: Optional[List[str]] = None
    ordinal = 0
    for lineno, raw_text, row in _csv_rows(lines):
        if row is not None and all(not cell.strip() for cell in row):
            continue
        if header is None and row is not None:
            header = [cell.strip() for cell in row]
            continue
        if row is None or header is None or len(row) != len(header):
            rejected.append(lineno)
        else:
            yield ordinal, {key: value for key, value in zip(header, row) if value != ""}, raw_text
        ordinal += 1


# --- normalization ---------------------------------------------------------

_INT_FIELDS = ("pid", "ppid", "src_port", "dst_port")
_SHARED_FIELDS = ("host", "user", "image", "src_ip", "dst_ip")  # proto is lowered, then shared too

# what normalize reads from a record besides ts: the event's own fields in
# NormalizedEvent's order, then the other text-blob candidates
_VALUE_FIELDS = ("host", "user", "pid", "ppid", "image", "cmdline", "src_ip", "src_port", "dst_ip", "dst_port", "proto", "raw", "message")
_blob_parts = itemgetter(*(_VALUE_FIELDS.index(name) for name in TEXT_BLOB_CANDIDATES))
_HALF_YEAR_MS = 183 * 24 * 3600 * 1000


@dataclass(frozen=True)
class _AdapterPlan:
    """What an adapter reads, resolved once: per canonical field, the lowered
    source keys it tries in order (None reads the whole raw line), and the
    lowered keys the field map consumes."""

    keys: Mapping[str, Optional[Tuple[str, ...]]]
    consumed: FrozenSet[str]


def _adapter_plan(adapter: SourceAdapterSpec, aliases: FieldAliasMap) -> _AdapterPlan:
    """Precedence: adapter field_map, then the canonical name itself, then
    alias-map fallbacks; all case-insensitive on the record's keys."""
    lowered_map = {k.lower(): v for k, v in adapter.field_map.items()}
    keys: Dict[str, Optional[Tuple[str, ...]]] = {}
    for name in ("ts", *_VALUE_FIELDS):
        mapped = lowered_map.get(name)
        if mapped == RAW_TEXT_KEY:
            keys[name] = None
        elif mapped is not None:
            keys[name] = (mapped.lower(),)
        else:
            keys[name] = aliases.lookup_keys(name)
    return _AdapterPlan(keys=keys, consumed=frozenset(v.lower() for v in lowered_map.values()))


def _int_or_none(value: Any) -> Optional[int]:
    try:
        return int(value)
    except ValueError:
        return None


# one field's read: its slot in _VALUE_FIELDS, the present original keys to
# try in order (None: the raw line), and the conversion of the value found
_Read = Tuple[int, Optional[Tuple[str, ...]], Optional[Callable[[Any], Any]]]


def _shape_plan(
    shape: Tuple[str, ...], plan: _AdapterPlan, shared: Dict[str, str]
) -> Tuple[Optional[Tuple[str, ...]], Tuple[_Read, ...], Tuple[str, ...]]:
    """For records with these keys: the present original keys of ts (None:
    the raw line), the reads of the other fields worth reading, and the
    sorted extras keys.

    Equal identity values (host, user, image, IPs, proto) become one shared
    string object, and proto is lowered. Of two keys that differ only in
    case the last one is read, as a case-folded copy of the record would
    keep it.
    """
    original = {key.lower(): key for key in shape}

    def share(value: str) -> str:
        return shared.setdefault(value, value)

    def share_lowered(value: str) -> Optional[str]:
        return share(value.lower()) if value else None

    present: Dict[str, Optional[Tuple[str, ...]]] = {}
    for name, lowered in plan.keys.items():
        keys = None if lowered is None else tuple(original[key] for key in lowered if key in original)
        if keys is None or keys:
            present[name] = keys
    conversions: Dict[str, Callable[[Any], Any]] = {"proto": share_lowered}
    conversions.update((name, _int_or_none) for name in _INT_FIELDS)
    conversions.update((name, share) for name in _SHARED_FIELDS)
    reads = tuple((slot, present[name], conversions.get(name)) for slot, name in enumerate(_VALUE_FIELDS) if name in present)
    extras = tuple(share(k) for k in sorted(shape) if k.lower() not in plan.consumed)
    return present.get("ts", ()), reads, extras


def _event_ids(source: str, file_ordinal: int, origin: str) -> Callable[[int], str]:
    """The event id of each record ordinal of one file: ``<source>:<file ordinal>:<ordinal>``.

    An id that would outgrow its padding raises EventIdError naming origin.
    """
    prefix = f"{source}:{file_ordinal:03d}:"
    limit = MAX_RECORDS_PER_FILE if file_ordinal < MAX_FILES_PER_SOURCE else 0

    def event_id(ordinal: int) -> str:
        if ordinal >= limit:
            raise EventIdError(
                f"{origin}: event id overflow for source {source!r} (file ordinal {file_ordinal}, record ordinal "
                f"{ordinal}); ids hold at most {MAX_FILES_PER_SOURCE} files per source and "
                f"{MAX_RECORDS_PER_FILE} records per file"
            )
        return f"{prefix}{ordinal:06d}"

    return event_id


def read_lines(
    lines: Iterable[str],
    adapter: SourceAdapterSpec,
    aliases: FieldAliasMap = EMPTY_ALIASES,
    scenario_id: str = "",
    file_ordinal: int = 0,
    origin: str = "<memory>",
) -> ReadResult:
    """Parse and normalize one raw file, given as its physical lines, line by line.

    Each record becomes a NormalizedEvent as its line is read; nothing
    holds the file's text or its parsed records. A record lacking any
    parseable timestamp is quarantined (with its ordinal and the reason)
    and left out of the events; every other gets a valid ts and source.
    text_blob concatenates the present candidates among raw/message/
    cmdline, in that order, joined by one space. Equal identity values
    (host, user, image, IPs, proto) and extras keys become one shared
    string object. A year-less BSD syslog timestamp more than half a year
    earlier than the previous one rolls ``default_year`` forward, for it
    and for the records after it.

    Raises FormatMismatchError, naming origin, when fewer than
    ``adapter.parse_threshold`` of the non-blank lines parse, and then
    EventIdError, naming origin, when an event id would outgrow its
    padding.
    """
    rejected: List[int] = []
    if adapter.format == FORMAT_CSV:
        records = _csv_records(lines, rejected)
    else:
        records = _line_records(lines, _LINE_PARSERS[adapter.format], rejected)
    events: List[NormalizedEvent] = []
    quarantined: List[Quarantine] = []
    event_id = _event_ids(adapter.source, file_ordinal, origin)
    try:
        if adapter.format == FORMAT_PRENORMALIZED:
            naive = _normalize_canonical(records, adapter, scenario_id, event_id, events, quarantined)
        else:
            naive = _normalize(records, adapter, aliases, scenario_id, event_id, events, quarantined)
    except EventIdError:
        # the parse rate goes first: count the records not yet read
        parsed = len(events) + len(quarantined) + 1 + sum(1 for _ in records)
        _check_parse_rate(adapter, origin, parsed, rejected)
        raise
    _check_parse_rate(adapter, origin, len(events) + len(quarantined), rejected)
    if naive:
        logger.warning("source %s: %d timezone-naive timestamp(s) interpreted as UTC", adapter.source, naive)
    return ReadResult(events=events, rejected_lines=tuple(rejected), quarantined=tuple(quarantined), naive_ts_count=naive)


def _check_parse_rate(adapter: SourceAdapterSpec, origin: str, parsed: int, rejected: Sequence[int]) -> None:
    """Raise FormatMismatchError when too few lines parse, else log the rejected ones."""
    total = parsed + len(rejected)
    if total > 0 and parsed / total < adapter.parse_threshold:
        raise FormatMismatchError(
            f"{origin}: parse rate {parsed / total:.3f} below threshold {adapter.parse_threshold} "
            f"for adapter {adapter.source!r} ({len(rejected)}/{total} lines rejected)"
        )
    if rejected:
        logger.warning("%s: %d unparseable line(s) rejected for source %s", origin, len(rejected), adapter.source)


def _normalize(
    records: Iterable[_Record],
    adapter: SourceAdapterSpec,
    aliases: FieldAliasMap,
    scenario_id: str,
    event_id: Callable[[int], str],
    events: List[NormalizedEvent],
    quarantined: List[Quarantine],
) -> int:
    """Append each record's event to events, or its Quarantine to quarantined; return the naive-ts count."""
    naive = 0
    plan = _adapter_plan(adapter, aliases)
    # records of one file come in a few key layouts; resolve each layout once
    shapes: Dict[Tuple[str, ...], Any] = {}
    # a file repeats a few values thousands of times; keep one copy of each
    shared: Dict[str, str] = {}
    # a year-less BSD timestamp far behind the previous one has crossed a New Year
    year = adapter.default_year
    last_bsd_ts: Optional[int] = None
    source, trust_origin, ts_format = adapter.source, adapter.trust_origin, adapter.ts_format

    for ordinal, fields, raw_text in records:
        shape = tuple(fields)
        layout = shapes.get(shape)
        if layout is None:
            layout = shapes[shape] = _shape_plan(shape, plan, shared)
        ts_keys, reads, extras_keys = layout
        raw_ts = raw_text if ts_keys is None else None
        for key in ts_keys or ():
            value = fields[key]
            if value is not None and value != "":
                raw_ts = value
                break
        if raw_ts is None:
            quarantined.append(Quarantine(ordinal=ordinal, reason="no timestamp field"))
            continue
        try:
            parsed = parse_timestamp(raw_ts, format_hint=ts_format, default_year=year)
            if parsed.year_supplied:
                if last_bsd_ts is not None and parsed.ts_ms < last_bsd_ts - _HALF_YEAR_MS:
                    year += 1
                    parsed = parse_timestamp(raw_ts, format_hint=ts_format, default_year=year)
                last_bsd_ts = parsed.ts_ms
        except ParseError as exc:
            quarantined.append(Quarantine(ordinal=ordinal, reason=f"bad timestamp: {exc.offending!r}"))
            continue
        if parsed.tz_naive:
            naive += 1

        values: List[Any] = [None] * len(_VALUE_FIELDS)
        for slot, keys, convert in reads:
            if keys is None:
                value = raw_text
            else:
                for key in keys:
                    value = fields[key]
                    if value is not None and value != "":
                        break
                else:
                    continue
            values[slot] = value if convert is None else convert(value)
        host, user, pid, ppid, image, cmdline, src_ip, src_port, dst_ip, dst_port, proto, _, _ = values
        events.append(
            NormalizedEvent(
                event_id=event_id(ordinal),
                ts=parsed.ts_ms,
                scenario_id=scenario_id,
                source=source,
                trust_origin=trust_origin,
                host=host,
                user=user,
                pid=pid,
                ppid=ppid,
                image=image,
                cmdline=cmdline,
                src_ip=src_ip,
                src_port=src_port,
                dst_ip=dst_ip,
                dst_port=dst_port,
                proto=proto,
                text_blob=" ".join(filter(None, _blob_parts(values))),
                # extras: everything the field map did not consume
                extras={k: str(fields[k]) for k in extras_keys},
            )
        )
    return naive


def _normalize_canonical(
    records: Iterable[_Record],
    adapter: SourceAdapterSpec,
    scenario_id: str,
    event_id: Callable[[int], str],
    events: List[NormalizedEvent],
    quarantined: List[Quarantine],
) -> int:
    """_normalize for prenormalized records, which never have a naive ts."""
    shared: Dict[str, str] = {}
    for ordinal, fields, _raw_text in records:
        try:
            data = dict(fields)
            data.setdefault("source", adapter.source)
            data.setdefault("trust_origin", adapter.trust_origin)
            data.setdefault("scenario_id", scenario_id)
            if "event_id" not in data:
                data["event_id"] = event_id(ordinal)
            if "ts" not in data:
                raise KeyError("ts")
            events.append(event_from_dict(data, shared))
        except (ValueError, KeyError, TypeError) as exc:
            quarantined.append(Quarantine(ordinal=ordinal, reason=f"bad canonical record: {exc}"))
    return 0


def merge_scenario(tables: Sequence[Sequence[NormalizedEvent]]) -> List[NormalizedEvent]:
    """Merge per-source tables into one (ts, event_id)-ordered table.

    No records are added or removed; all inputs must share a scenario_id,
    and event ids must be unique across all tables, else EventIdError
    names the first repeated id.
    """
    merged: List[NormalizedEvent] = []
    source_of: Dict[str, str] = {}
    scenario: Optional[str] = None
    for table in tables:
        for event in table:
            if scenario is None:
                scenario = event.scenario_id
            elif event.scenario_id != scenario:
                raise ConfigError(
                    f"scenario_id mismatch while merging: {scenario!r} vs {event.scenario_id!r}"
                )
            if event.event_id in source_of:
                raise EventIdError(
                    f"duplicate event id {event.event_id!r}"
                    f" (sources {source_of[event.event_id]!r} and {event.source!r})"
                )
            source_of[event.event_id] = event.source
            merged.append(event)
    return sort_events(merged)


# --- directory-level ingestion --------------------------------------------


@dataclass(frozen=True)
class SourceIngestStats:
    source: str
    files: Tuple[str, ...]
    records: int
    rejected: int
    quarantined: int
    naive_ts: int


@dataclass(frozen=True)
class IngestResult:
    events_by_source: Mapping[str, Tuple[NormalizedEvent, ...]]
    stats: Tuple[SourceIngestStats, ...]

    def merged(self) -> List[NormalizedEvent]:
        return merge_scenario([list(v) for _, v in sorted(self.events_by_source.items())])

    def report(self) -> Dict[str, Any]:
        return {
            "sources": [
                {
                    "source": s.source,
                    "files": list(s.files),
                    "records": s.records,
                    "rejected": s.rejected,
                    "quarantined": s.quarantined,
                    "naive_ts": s.naive_ts,
                }
                for s in self.stats
            ],
            "total_records": sum(s.records for s in self.stats),
            "total_rejected": sum(s.rejected for s in self.stats),
            "total_quarantined": sum(s.quarantined for s in self.stats),
        }


def ingest_scenario(
    scenario_dir: Path,
    adapters: Sequence[SourceAdapterSpec],
    aliases: FieldAliasMap = EMPTY_ALIASES,
    scenario_id: Optional[str] = None,
    sources: Optional[Iterable[str]] = None,
) -> IngestResult:
    """Ingest every file in a scenario directory matching adapter patterns.

    Files per source are processed in sorted-name order; the position
    supplies the file ordinal used in event ids. Each file is read line
    by line (read_lines), so only its events are held. sources, when
    given, restricts ingest to those adapters, and each must name one.
    """
    scenario_dir = Path(scenario_dir)
    if scenario_id is None:
        scenario_id = scenario_dir.name
    wanted = set(sources) if sources is not None else None
    unknown = sorted((wanted or set()) - {adapter.source for adapter in adapters})
    if unknown:
        raise ConfigError(f"no adapter defines source(s): {unknown}")

    events_by_source: Dict[str, Tuple[NormalizedEvent, ...]] = {}
    stats: List[SourceIngestStats] = []
    for adapter in sorted(adapters, key=lambda a: a.source):
        if wanted is not None and adapter.source not in wanted:
            continue
        paths = sorted(scenario_dir.glob(adapter.pattern()))
        events: List[NormalizedEvent] = []
        rejected = 0
        quarantined = 0
        naive = 0
        for file_ordinal, path in enumerate(paths):
            with path.open(encoding="utf-8", errors="replace") as lines:
                result = read_lines(lines, adapter, aliases, scenario_id, file_ordinal, origin=str(path))
            rejected += len(result.rejected_lines)
            if result.quarantined:
                first, count = result.quarantined[0], len(result.quarantined)
                message = "%s: %d record(s) quarantined for source %r; first at ordinal %d: %s"
                logger.warning(message, path.name, count, adapter.source, first.ordinal, first.reason)
            quarantined += len(result.quarantined)
            naive += result.naive_ts_count
            events.extend(result.events)
        events_by_source[adapter.source] = tuple(sort_events(events))
        stats.append(
            SourceIngestStats(
                source=adapter.source,
                files=tuple(str(p.name) for p in paths),
                records=len(events),
                rejected=rejected,
                quarantined=quarantined,
                naive_ts=naive,
            )
        )
    return IngestResult(events_by_source=events_by_source, stats=tuple(stats))
