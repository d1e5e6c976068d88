"""Per-source log parsing into NormalizedEvent tables.

A SourceAdapterSpec describes one telemetry stream: its wire format, how
its fields map onto the canonical schema, and its default trust origin.
Parsing is deliberately tolerant: unparseable lines are counted and
reported, never silently dropped from the accounting, and a file is only
rejected wholesale when its parse rate falls below the adapter threshold
(default 0.9). Records without any usable timestamp are quarantined with
a diagnostic instead of failing the run, which preserves genuine
observability gaps in the output table.

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
import io
import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigError, EventIdError, FormatMismatchError, ParseError
from .model import (
    EMPTY_ALIASES,
    TEXT_BLOB_CANDIDATES,
    TRUST_ORIGINS,
    TRUST_TARGET,
    TS_AUTO,
    FieldAliasMap,
    NetworkInfo,
    NormalizedEvent,
    ProcessInfo,
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


@dataclass(frozen=True, slots=True)
class RawRecord:
    """One parsed record, field map plus byte-exact original text."""

    source: str
    ordinal: int
    fields: Mapping[str, str]
    raw_text: str


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
class ParseResult:
    source: str
    records: Tuple[RawRecord, ...]
    rejected_lines: Tuple[int, ...]  # 1-based line numbers

    @property
    def n_rejected(self) -> int:
        return len(self.rejected_lines)


@dataclass(frozen=True)
class Quarantine:
    ordinal: int
    reason: str


@dataclass(frozen=True)
class NormalizeResult:
    events: Tuple[NormalizedEvent, ...]
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


def _flatten(obj: Any, prefix: str = "") -> Dict[str, str]:
    flat: Dict[str, str] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            name = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(value, dict):
                flat.update(_flatten(value, name))
            elif value is None:
                continue
            elif isinstance(value, (list, tuple)):
                flat[name] = json.dumps(value)
            else:
                flat[name] = str(value)
    return flat


def _parse_eve_line(line: str) -> Optional[Dict[str, str]]:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict):
        return None
    return _flatten(obj)


def _parse_kv_line(line: str) -> Optional[Dict[str, str]]:
    pairs = _KV_PAIR_RE.findall(line)
    if not pairs:
        return None
    return {key: quoted if quoted else bare for key, quoted, bare in pairs}


def parse_stream(path: Path, adapter: SourceAdapterSpec) -> ParseResult:
    """Parse one raw log file into RawRecords.

    Raises OSError on unreadable files and FormatMismatchError when fewer
    than ``adapter.parse_threshold`` of the non-blank lines parse.
    """
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    return parse_text(text, adapter, origin=str(path))


def parse_text(text: str, adapter: SourceAdapterSpec, origin: str = "<memory>") -> ParseResult:
    records: List[RawRecord] = []
    rejected: List[int] = []

    if adapter.format == FORMAT_CSV:
        _parse_csv(text, adapter, records, rejected)
    else:
        parse_line = {
            FORMAT_SYSLOG: _parse_syslog_line,
            FORMAT_EVE: _parse_eve_line,
            FORMAT_KV: _parse_kv_line,
            FORMAT_PRENORMALIZED: _parse_eve_line,
        }[adapter.format]
        ordinal = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            fields = parse_line(line)
            if fields is None:
                rejected.append(lineno)
                ordinal += 1
                continue
            records.append(RawRecord(source=adapter.source, ordinal=ordinal, fields=fields, raw_text=line))
            ordinal += 1

    total = len(records) + len(rejected)
    if total > 0:
        rate = len(records) / total
        if rate < adapter.parse_threshold:
            raise FormatMismatchError(
                f"{origin}: parse rate {rate:.3f} below threshold {adapter.parse_threshold} "
                f"for adapter {adapter.source!r} ({len(rejected)}/{total} lines rejected)"
            )
    if rejected:
        logger.warning("%s: %d unparseable line(s) rejected for source %s", origin, len(rejected), adapter.source)
    return ParseResult(source=adapter.source, records=tuple(records), rejected_lines=tuple(rejected))


def _parse_csv(text: str, adapter: SourceAdapterSpec, records: List[RawRecord], rejected: List[int]) -> None:
    reader = csv.reader(io.StringIO(text))
    header: Optional[List[str]] = None
    ordinal = 0
    for lineno, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        if header is None:
            header = [cell.strip() for cell in row]
            continue
        if len(row) != len(header):
            rejected.append(lineno)
            ordinal += 1
            continue
        fields = {key: value for key, value in zip(header, row) if value != ""}
        raw_line = ",".join(row)
        records.append(RawRecord(source=adapter.source, ordinal=ordinal, fields=fields, raw_text=raw_line))
        ordinal += 1


# --- normalization ---------------------------------------------------------

_INT_FIELDS = ("pid", "ppid", "src_port", "dst_port")
_STR_FIELDS = ("host", "user", "image", "cmdline", "src_ip", "dst_ip", "proto")
_SHARED_FIELDS = ("host", "user", "image", "src_ip", "dst_ip", "proto")


def _lookup(
    record: RawRecord,
    lowered_fields: Mapping[str, str],
    canonical: str,
    lowered_map: Mapping[str, str],
    aliases: FieldAliasMap,
) -> Optional[str]:
    """Resolve a canonical field from a raw record.

    Precedence: adapter field_map, then the canonical name itself, then
    alias-map fallbacks; all case-insensitive on the record's keys.
    """
    mapped = lowered_map.get(canonical)
    keys: List[str] = []
    if mapped is not None:
        if mapped == RAW_TEXT_KEY:
            return record.raw_text
        keys.append(mapped)
    else:
        keys.append(canonical)
        keys.extend(aliases.aliases_for(canonical))
    for key in keys:
        value = lowered_fields.get(key.lower())
        if value is not None and value != "":
            return value
    return None


def _event_id(source: str, file_ordinal: int, ordinal: int, origin: str) -> str:
    if file_ordinal >= MAX_FILES_PER_SOURCE or ordinal >= MAX_RECORDS_PER_FILE:
        raise EventIdError(
            f"{origin}: event id overflow for source {source!r} (file ordinal {file_ordinal}, record ordinal "
            f"{ordinal}); ids hold at most {MAX_FILES_PER_SOURCE} files per source and "
            f"{MAX_RECORDS_PER_FILE} records per file"
        )
    return f"{source}:{file_ordinal:03d}:{ordinal:06d}"


def normalize_records(
    records: Sequence[RawRecord],
    adapter: SourceAdapterSpec,
    aliases: FieldAliasMap = EMPTY_ALIASES,
    scenario_id: str = "",
    file_ordinal: int = 0,
    origin: str = "<memory>",
) -> NormalizeResult:
    """Convert RawRecords into NormalizedEvents.

    Records lacking any parseable timestamp are quarantined (with the
    offending ordinal and reason) and excluded from the table; everything
    else gets a valid ts and source. text_blob concatenates the present
    candidates among raw/message/cmdline, in that order, joined by one
    space. Equal identity values (host, user, image, IPs, proto) and
    extras keys become one shared string object. An event id that would
    outgrow its padding raises EventIdError naming origin.
    """
    if adapter.format == FORMAT_PRENORMALIZED:
        return _normalize_prenormalized(records, adapter, scenario_id, file_ordinal, origin)

    events: List[NormalizedEvent] = []
    quarantined: List[Quarantine] = []
    naive = 0
    lowered_map = {k.lower(): v for k, v in adapter.field_map.items()}
    used_source_keys = {v.lower() for v in lowered_map.values()}
    # a file repeats a few values thousands of times; keep one copy of each
    shared: Dict[str, str] = {}

    for record in records:
        lowered_fields = {k.lower(): v for k, v in record.fields.items()}
        raw_ts = _lookup(record, lowered_fields, "ts", lowered_map, aliases)
        if raw_ts is None:
            quarantined.append(Quarantine(ordinal=record.ordinal, reason="no timestamp field"))
            continue
        try:
            parsed = parse_timestamp(raw_ts, format_hint=adapter.ts_format, default_year=adapter.default_year)
        except ParseError as exc:
            quarantined.append(Quarantine(ordinal=record.ordinal, reason=f"bad timestamp: {exc.offending!r}"))
            continue
        if parsed.tz_naive:
            naive += 1

        values: Dict[str, Optional[str]] = {}
        for name in (*_STR_FIELDS, *_INT_FIELDS, *TEXT_BLOB_CANDIDATES):
            values[name] = _lookup(record, lowered_fields, name, lowered_map, aliases)
        proto = values["proto"]
        values["proto"] = proto.lower() if proto else None
        for name in _SHARED_FIELDS:
            value = values[name]
            if value is not None:
                values[name] = shared.setdefault(value, value)

        ints: Dict[str, Optional[int]] = {}
        for name in _INT_FIELDS:
            raw_value = values.get(name)
            if raw_value is None:
                ints[name] = None
                continue
            try:
                ints[name] = int(raw_value)
            except ValueError:
                ints[name] = None

        blob_parts = [values[c] for c in TEXT_BLOB_CANDIDATES if values.get(c)]
        text_blob = " ".join(blob_parts)

        # extras: everything the field map did not consume
        extras = {
            shared.setdefault(k, k): str(v)
            for k, v in sorted(record.fields.items())
            if k.lower() not in used_source_keys
        }

        events.append(
            NormalizedEvent(
                event_id=_event_id(adapter.source, file_ordinal, record.ordinal, origin),
                ts=parsed.ts_ms,
                scenario_id=scenario_id,
                source=adapter.source,
                trust_origin=adapter.trust_origin,
                host=values.get("host"),
                user=values.get("user"),
                process=ProcessInfo(
                    pid=ints["pid"],
                    ppid=ints["ppid"],
                    image=values.get("image"),
                    cmdline=values.get("cmdline"),
                ),
                network=NetworkInfo(
                    src_ip=values.get("src_ip"),
                    src_port=ints["src_port"],
                    dst_ip=values.get("dst_ip"),
                    dst_port=ints["dst_port"],
                    proto=values.get("proto"),
                ),
                text_blob=text_blob,
                extras=extras,
            )
        )
    if naive:
        logger.warning("source %s: %d timezone-naive timestamp(s) interpreted as UTC", adapter.source, naive)
    return NormalizeResult(events=tuple(events), quarantined=tuple(quarantined), naive_ts_count=naive)


def _normalize_prenormalized(
    records: Sequence[RawRecord], adapter: SourceAdapterSpec, scenario_id: str, file_ordinal: int, origin: str
) -> NormalizeResult:
    events: List[NormalizedEvent] = []
    quarantined: List[Quarantine] = []
    for record in records:
        try:
            data = json.loads(record.raw_text)
            data.setdefault("source", adapter.source)
            data.setdefault("trust_origin", adapter.trust_origin)
            data.setdefault("scenario_id", scenario_id)
            if "event_id" not in data:
                data["event_id"] = _event_id(adapter.source, file_ordinal, record.ordinal, origin)
            if "ts" not in data:
                raise KeyError("ts")
            events.append(event_from_dict(data))
        except (ValueError, KeyError, TypeError) as exc:
            quarantined.append(Quarantine(ordinal=record.ordinal, reason=f"bad canonical record: {exc}"))
    return NormalizeResult(events=tuple(events), quarantined=tuple(quarantined), naive_ts_count=0)


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
    supplies the file ordinal used in event ids.
    """
    scenario_dir = Path(scenario_dir)
    if scenario_id is None:
        scenario_id = scenario_dir.name
    wanted = set(sources) if sources is not None else None

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
            parsed = parse_stream(path, adapter)
            rejected += parsed.n_rejected
            result = normalize_records(
                parsed.records, adapter, aliases, scenario_id=scenario_id, file_ordinal=file_ordinal, origin=str(path)
            )
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
