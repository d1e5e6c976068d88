"""Synthetic multi-source scenario generation with chain-level ground truth.

Benign background activity follows a fixed scheduling loop per host: N
iterations, each waiting a seeded random interval and emitting one
randomly chosen activity only while the simulated clock is inside active
hours (09:00-19:00 by default). Each activity invocation fans out into a
small correlated burst of low-level events (process spawn, file op,
connection) sharing host/process identity, spread over at most 60 s.

Attack behavior comes from declarative templates: ordered step specs with
relative offsets, emitting sources, entity bindings, and technique ids,
plus an omit set for steps that are expected but intentionally never
emitted -- that is how genuine observability gaps are modeled. Withheld
sources produce the same effect at the source level.

Generation renders raw per-source files for the packaged adapters in
adapters.yml (syslog lines, JSON-per-line records, key=value audit
lines, CSV exports) and then builds the
normalized tables by running the real parsing path over those lines, so
whatever the generator claims to have emitted is exactly what ingestion
recovers, and the parse rate on synthetic fixtures is 1.0 by
construction. Everything is deterministic under (spec, seed); the
simulated clock starts at the spec's start instant and wall-clock time is
never consulted.

``oracle_chains`` is the independent brute-force counterpart of
``graph.extract_chains``: it enumerates every forward path over a small
tagged table with its own edge test, projects, dedups, and sorts. It
shares only the Chain container with the production path.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .errors import ScenarioError
from .graph import Chain
from .ingest import (
    FORMAT_CSV,
    FORMAT_EVE,
    FORMAT_KV,
    FORMAT_SYSLOG,
    SourceAdapterSpec,
    normalize_records,
    parse_text,
)
from .model import NormalizedEvent, iso_ms, read_json, sort_events, write_json
from .tagging import ExpectedStepSet, StepTag, TagDecision, parse_step

ACTIVITY_SET: Tuple[str, ...] = ("Web", "RemoteAccess", "FileOp", "Update", "Download", "Dev", "API", "Login")
PROFILE_DEVELOPMENT = "development"
PROFILE_DAILY_USE = "daily_use"
PROFILE_ACTIVITIES = {
    PROFILE_DEVELOPMENT: ACTIVITY_SET,
    PROFILE_DAILY_USE: ("Web", "FileOp", "Update", "Download", "API", "Login"),
}

ACTIVE_HOURS_DEFAULT = (9 * 3600, 19 * 3600)  # seconds of day, inclusive
BENIGN_LABEL = "benign"

_USERS = ("dev01", "dev02", "ops01", "analyst")
_BENIGN_SITES = (
    ("mirror.example.org", "151.101.2.10"),
    ("cdn.example.net", "151.101.65.69"),
    ("api.example.com", "104.18.32.68"),
    ("search.example.com", "142.250.80.46"),
    ("git.example.org", "140.82.113.3"),
)

# emission kind -> source preference; first available source wins, none -> gap
ROUTING: Mapping[str, Tuple[str, ...]] = {
    "process": ("auditd", "azure_process", "azure_events", "syslog"),
    "network": ("zeek", "suricata", "azure_conn", "azure_events", "syslog"),
    "auth": ("auth", "azure_security", "azure_events", "syslog"),
    "file": ("auditd", "azure_events", "syslog"),
    "log": ("syslog", "azure_events"),
    "listen": ("azure_port", "syslog"),
    "trace": ("tracee",),
}


@dataclass(frozen=True)
class HostSpec:
    name: str
    profile: str = PROFILE_DEVELOPMENT

    def __post_init__(self) -> None:
        if self.profile not in PROFILE_ACTIVITIES:
            raise ScenarioError(f"unknown host profile {self.profile!r}")


@dataclass(frozen=True)
class BenignConfig:
    n_activities: int = 40
    min_interval_s: float = 30.0
    max_interval_s: float = 300.0
    activity_set: Tuple[str, ...] = ACTIVITY_SET
    active_start_s: int = ACTIVE_HOURS_DEFAULT[0]
    active_end_s: int = ACTIVE_HOURS_DEFAULT[1]

    def __post_init__(self) -> None:
        if self.n_activities < 0:
            raise ScenarioError("n_activities must be >= 0")
        if self.min_interval_s > self.max_interval_s:
            raise ScenarioError("min_interval_s must be <= max_interval_s")
        unknown = set(self.activity_set) - set(ACTIVITY_SET)
        if unknown:
            raise ScenarioError(f"unknown activities: {sorted(unknown)}")


@dataclass(frozen=True)
class ScenarioSpec:
    scenario_id: str
    seed: int
    hosts: Tuple[HostSpec, ...]
    sources: Tuple[str, ...]
    start_ms: int = 1714554000000  # 2024-05-01T09:00:00Z
    duration_s: int = 8 * 3600
    benign: BenignConfig = field(default_factory=BenignConfig)
    attack_template: Optional[str] = None
    attack_start_s: int = 2 * 3600

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ScenarioError("duration_s must be positive")
        if not self.hosts:
            raise ScenarioError("scenario needs at least one host")
        if not self.sources:
            raise ScenarioError("scenario needs at least one source")

    @property
    def end_ms(self) -> int:
        return self.start_ms + self.duration_s * 1000


@dataclass(frozen=True)
class AttackEventSpec:
    source: str
    fields: Mapping[str, Any]
    offset_s: float = 0.0


@dataclass(frozen=True)
class AttackStepSpec:
    step: StepTag
    offset_s: float
    technique_ids: Tuple[str, ...]
    events: Tuple[AttackEventSpec, ...]


@dataclass(frozen=True)
class AttackTemplate:
    template_id: str
    steps: Tuple[AttackStepSpec, ...]
    omit: FrozenSet[StepTag] = frozenset()
    attack_user: str = _USERS[0]
    description: str = ""

    def __post_init__(self) -> None:
        offsets = [s.offset_s for s in self.steps]
        if offsets != sorted(offsets):
            raise ScenarioError(f"template {self.template_id!r}: step offsets must be non-decreasing")
        declared = {s.step for s in self.steps}
        stray = self.omit - declared
        if stray:
            raise ScenarioError(f"template {self.template_id!r}: omit names undeclared steps {sorted(s.value for s in stray)}")

    @property
    def expected_steps(self) -> FrozenSet[StepTag]:
        return frozenset(s.step for s in self.steps)

    @property
    def emitted_steps(self) -> FrozenSet[StepTag]:
        return self.expected_steps - self.omit

    def technique_ids(self) -> Tuple[str, ...]:
        out: List[str] = []
        for step in self.steps:
            out.extend(step.technique_ids)
        return tuple(out)

    def emitting_sources(self, step: StepTag) -> FrozenSet[str]:
        for spec in self.steps:
            if spec.step == step:
                return frozenset(e.source for e in spec.events)
        return frozenset()


@dataclass(frozen=True)
class GroundTruth:
    scenario_id: str
    expected: Optional[ExpectedStepSet]  # None for benign-only scenarios
    labels: Mapping[str, str]  # event_id -> "benign" | step name
    chain_order: Tuple[StepTag, ...]
    omitted: FrozenSet[StepTag]

    def attack_event_ids(self) -> List[str]:
        return sorted(eid for eid, label in self.labels.items() if label != BENIGN_LABEL)


@dataclass(frozen=True)
class ScenarioData:
    spec: ScenarioSpec
    template_id: Optional[str]
    tables: Mapping[str, Tuple[NormalizedEvent, ...]]
    ground_truth: GroundTruth
    raw_lines: Mapping[str, Tuple[str, ...]]


def host_ip(host: str) -> str:
    return f"10.0.0.{(zlib.crc32(host.encode()) % 200) + 10}"


def in_active_hours(ts_ms: int, start_s: int = ACTIVE_HOURS_DEFAULT[0], end_s: int = ACTIVE_HOURS_DEFAULT[1]) -> bool:
    second_of_day = (ts_ms // 1000) % 86400
    return start_s <= second_of_day <= end_s


def _active_end_of_day(ts_ms: int, end_s: int) -> int:
    day_start = (ts_ms // 86400000) * 86400000
    return day_start + end_s * 1000


def schedule_benign(spec: ScenarioSpec) -> List[Tuple[int, str, str]]:
    """Seeded benign activity schedule: (ts_ms, activity, host) triples.

    Per host: exactly n_activities iterations, each advancing the
    simulated clock by a random interval and drawing an activity only
    when the clock sits inside active hours (and the scenario window).
    """
    cfg = spec.benign
    out: List[Tuple[int, str, str]] = []
    for host in spec.hosts:
        rng = random.Random(f"{spec.seed}:{spec.scenario_id}:{host.name}")
        activities = tuple(a for a in PROFILE_ACTIVITIES[host.profile] if a in cfg.activity_set)
        if not activities:
            continue
        t = spec.start_ms
        for _ in range(cfg.n_activities):
            delay_s = rng.uniform(cfg.min_interval_s, cfg.max_interval_s)
            t += round(delay_s * 1000)
            if in_active_hours(t, cfg.active_start_s, cfg.active_end_s) and t <= spec.end_ms:
                activity = rng.choice(activities)
                out.append((t, activity, host.name))
    out.sort(key=lambda item: (item[0], item[2], item[1]))
    return out


# --- activity emission ------------------------------------------------------


@dataclass(frozen=True)
class DraftEvent:
    ts: int
    source: str
    label: str
    fields: Mapping[str, Any]


def _burst_offsets(rng: random.Random, count: int) -> List[int]:
    """Cumulative sub-offsets (ms) for one activity burst, capped at 60 s."""
    offsets = [0]
    t = 0.0
    for _ in range(count - 1):
        t = min(t + rng.uniform(1.0, 20.0), 60.0)
        offsets.append(round(t * 1000))
    return offsets


def _activity_emissions(
    activity: str, host: str, user: str, rng: random.Random
) -> List[Tuple[str, Dict[str, Any]]]:
    """(kind, fields) emissions for one benign activity invocation."""
    hip = host_ip(host)
    pid = rng.randrange(1000, 60000)
    eph = rng.randrange(40000, 65000)
    site, site_ip = _BENIGN_SITES[rng.randrange(len(_BENIGN_SITES))]
    n = rng.randrange(100, 999)

    if activity == "Web":
        return [
            (
                "network",
                {"host": host, "user": user, "src_ip": hip, "src_port": eph, "dst_ip": site_ip, "dst_port": 443, "proto": "tcp", "message": f"flow tcp {hip}:{eph} -> {site_ip}:443 bytes={n * 37}"},
            ),
            ("log", {"host": host, "user": user, "image": "firefox", "message": f"browser visit https://{site}/page-{n} status=200"}),
        ]
    if activity == "RemoteAccess":
        return [
            ("process", {"host": host, "user": user, "pid": pid, "ppid": pid - 1, "image": "/usr/bin/ssh", "cmdline": f"ssh {user}@10.0.0.{20 + n % 5}"}),
            ("auth", {"host": host, "user": user, "message": f"pam_unix(sshd:session): session opened for user {user}(uid=1001) by (uid=0)"}),
            ("network", {"host": host, "user": user, "src_ip": hip, "src_port": eph, "dst_ip": f"10.0.0.{20 + n % 5}", "dst_port": 22, "proto": "tcp", "message": f"flow tcp {hip}:{eph} -> 10.0.0.{20 + n % 5}:22 established"}),
        ]
    if activity == "FileOp":
        return [
            ("process", {"host": host, "user": user, "pid": pid, "ppid": pid - 1, "image": "/bin/cp", "cmdline": f"cp /home/{user}/notes-{n}.txt /home/{user}/backup/"}),
            ("file", {"host": host, "user": user, "message": f"file write /home/{user}/backup/notes-{n}.txt"}),
        ]
    if activity == "Update":
        return [
            ("process", {"host": host, "user": user, "pid": pid, "ppid": 1, "image": "/usr/bin/apt-get", "cmdline": "apt-get update"}),
            ("network", {"host": host, "user": user, "src_ip": hip, "src_port": eph, "dst_ip": site_ip, "dst_port": 443, "proto": "tcp", "message": f"flow tcp {hip}:{eph} -> {site_ip}:443 bytes={n * 91}"}),
        ]
    if activity == "Download":
        return [
            ("log", {"host": host, "user": user, "image": "updater", "message": f"updater retrieved https://{site}/assets/bundle-{n}.tar.gz status=200"}),
            ("network", {"host": host, "user": user, "src_ip": hip, "src_port": eph, "dst_ip": site_ip, "dst_port": 443, "proto": "tcp", "message": f"flow tcp {hip}:{eph} -> {site_ip}:443 bytes={n * 512}"}),
            ("file", {"host": host, "user": user, "message": f"file write /home/{user}/Downloads/bundle-{n}.tar.gz"}),
        ]
    if activity == "Dev":
        return [
            ("process", {"host": host, "user": user, "pid": pid, "ppid": pid - 1, "image": "/usr/bin/python3", "cmdline": "python3 -m pytest -q"}),
            ("trace", {"host": host, "user": user, "pid": pid, "ppid": pid - 1, "image": "python3", "cmdline": "python3 -m pytest -q", "message": f"execve python3 pytest run-{n}"}),
            ("listen", {"host": host, "user": user, "dst_port": 8000 + n % 100, "proto": "tcp", "message": f"service listening on 0.0.0.0:{8000 + n % 100}"}),
        ]
    if activity == "API":
        return [
            ("network", {"host": host, "user": user, "src_ip": hip, "src_port": eph, "dst_ip": site_ip, "dst_port": 443, "proto": "tcp", "message": f"flow tcp {hip}:{eph} -> {site_ip}:443 bytes={n * 3}"}),
            ("log", {"host": host, "user": user, "image": "svc-agent", "message": f"api GET /v1/status 200 rt={n}ms"}),
        ]
    if activity == "Login":
        return [
            ("auth", {"host": host, "user": user, "message": f"pam_unix(login:session): session opened for user {user}(uid=1001)"}),
        ]
    raise ScenarioError(f"unknown activity {activity!r}")


def route_kind(kind: str, sources: Sequence[str]) -> Optional[str]:
    for candidate in ROUTING.get(kind, ()):
        if candidate in sources:
            return candidate
    return None


def _benign_drafts(spec: ScenarioSpec) -> List[DraftEvent]:
    drafts: List[DraftEvent] = []
    schedule = schedule_benign(spec)
    rngs = {
        host.name: random.Random(f"{spec.seed}:{spec.scenario_id}:{host.name}:emit") for host in spec.hosts
    }
    for ts, activity, host in schedule:
        rng = rngs[host]
        user = _USERS[rng.randrange(len(_USERS))]
        emissions = _activity_emissions(activity, host, user, rng)
        offsets = _burst_offsets(rng, len(emissions))
        cutoff = _active_end_of_day(ts, spec.benign.active_end_s)
        for (kind, fields), offset in zip(emissions, offsets):
            source = route_kind(kind, spec.sources)
            if source is None:
                continue  # no stream carries this kind: observability gap
            drafts.append(DraftEvent(ts=min(ts + offset, cutoff), source=source, label=BENIGN_LABEL, fields=fields))
    return drafts


def emit_activity_events(
    activity: str,
    host: str,
    ts: int,
    sources: Sequence[str],
    rng: Optional[random.Random] = None,
    user: str = _USERS[0],
    scenario_id: str = "adhoc",
) -> List[NormalizedEvent]:
    """Emit the correlated event burst for one activity invocation."""
    rng = rng or random.Random(0)
    emissions = _activity_emissions(activity, host, user, rng)
    offsets = _burst_offsets(rng, len(emissions))
    drafts = []
    for (kind, fields), offset in zip(emissions, offsets):
        source = route_kind(kind, sources)
        if source is None:
            continue
        drafts.append(DraftEvent(ts=ts + offset, source=source, label=BENIGN_LABEL, fields=fields))
    tables, _labels, _lines = _drafts_to_tables(drafts, scenario_id)
    return sort_events([e for table in tables.values() for e in table])


# --- attack emission --------------------------------------------------------


def _placeholder_context(spec: ScenarioSpec, template: AttackTemplate) -> Dict[str, str]:
    context: Dict[str, str] = {"user": template.attack_user}
    for i, host in enumerate(spec.hosts):
        context[f"host{i}"] = host.name
        context[f"host{i}_ip"] = host_ip(host.name)
    return context


def _resolve_fields(fields: Mapping[str, Any], context: Mapping[str, str], template_id: str) -> Dict[str, Any]:
    resolved: Dict[str, Any] = {}
    for key, value in fields.items():
        if isinstance(value, str):
            try:
                resolved[key] = value.format_map(context)
            except (KeyError, IndexError) as exc:
                raise ScenarioError(f"template {template_id!r}: unknown placeholder {exc} in field {key!r}")
        else:
            resolved[key] = value
    return resolved


def _attack_drafts(spec: ScenarioSpec, template: AttackTemplate) -> List[DraftEvent]:
    context = _placeholder_context(spec, template)
    base = spec.start_ms + spec.attack_start_s * 1000
    drafts: List[DraftEvent] = []
    for step_spec in template.steps:
        if step_spec.step in template.omit:
            continue
        for event_spec in step_spec.events:
            if event_spec.source not in spec.sources:
                continue  # withheld source: observability gap
            ts = base + round(step_spec.offset_s * 1000) + round(event_spec.offset_s * 1000)
            fields = _resolve_fields(event_spec.fields, context, template.template_id)
            drafts.append(DraftEvent(ts=ts, source=event_spec.source, label=step_spec.step.value, fields=fields))
    return drafts


# --- raw rendering and table construction -----------------------------------

FORMAT_FILE_EXT = {FORMAT_SYSLOG: "log", FORMAT_KV: "log", FORMAT_EVE: "jsonl", FORMAT_CSV: "csv"}


@lru_cache(maxsize=None)
def _packaged_adapters() -> Dict[str, SourceAdapterSpec]:
    from .configio import load_adapters  # configio imports this module's spec types

    return {adapter.source: adapter for adapter in load_adapters()}


def _adapter_for(source: str) -> SourceAdapterSpec:
    """The packaged adapter the generator renders one source's lines for."""
    adapter = _packaged_adapters().get(source)
    if adapter is None:
        raise ScenarioError(f"no packaged adapter for source {source!r}; available: {sorted(_packaged_adapters())}")
    return adapter


def _csv_quote(value: str) -> str:
    if any(ch in value for ch in (",", '"', "\n")):
        return '"' + value.replace('"', '""') + '"'
    return value


def _csv_cell(canonical: str, fields: Mapping[str, Any], draft: DraftEvent, message: str) -> str:
    if canonical == "ts":
        return iso_ms(draft.ts)
    if canonical == "message":
        return message
    value = fields.get(canonical)
    return "" if value is None else str(value)


def _render_line(adapter: SourceAdapterSpec, draft: DraftEvent) -> str:
    fields = draft.fields
    fmt = adapter.format
    message = str(fields.get("message", ""))
    if fmt == FORMAT_SYSLOG:
        prog = str(fields.get("image", "app")).rsplit("/", 1)[-1]
        pid = fields.get("pid")
        pid_part = f"[{pid}]" if pid is not None else ""
        body = message
        if fields.get("cmdline"):
            body = f"{message} cmd={fields['cmdline']}" if message else f"cmd={fields['cmdline']}"
        return f"{iso_ms(draft.ts)} {fields.get('host', 'unknown')} {prog}{pid_part}: {body}"
    if fmt == FORMAT_KV:
        parts = [f"type={fields.get('audit_type', 'EXECVE')}", f"ts={draft.ts / 1000:.3f}", f"host={fields.get('host', 'unknown')}"]
        if fields.get("user") is not None:
            parts.append(f"uid={fields['user']}")
        for key, name in (("pid", "pid"), ("ppid", "ppid")):
            if fields.get(key) is not None:
                parts.append(f"{name}={fields[key]}")
        if fields.get("image") is not None:
            parts.append(f'exe="{fields["image"]}"')
        if fields.get("cmdline") is not None:
            parts.append(f'cmd="{fields["cmdline"]}"')
        if message:
            parts.append(f'msg="{message}"')
        return " ".join(parts)
    if fmt == FORMAT_EVE:
        source = adapter.source
        if source == "zeek":
            obj: Dict[str, Any] = {"ts": round(draft.ts / 1000, 3), "host": fields.get("host")}
            for src_key, dst_key in (("src_ip", "id.orig_h"), ("src_port", "id.orig_p"), ("dst_ip", "id.resp_h"), ("dst_port", "id.resp_p")):
                if fields.get(src_key) is not None:
                    obj[dst_key] = fields[src_key]
            if fields.get("proto") is not None:
                obj["proto"] = fields["proto"]
            if message:
                obj["message"] = message
        elif source == "suricata":
            obj = {"timestamp": iso_ms(draft.ts), "host": fields.get("host"), "event_type": str(fields.get("event_type", "flow"))}
            for src_key, dst_key in (("src_ip", "src_ip"), ("src_port", "src_port"), ("dst_ip", "dest_ip"), ("dst_port", "dest_port"), ("proto", "proto")):
                if fields.get(src_key) is not None:
                    obj[dst_key] = fields[src_key]
            if message:
                obj["message"] = message
        else:  # tracee
            obj = {"timestamp": iso_ms(draft.ts), "host": fields.get("host")}
            for key in ("pid", "ppid"):
                if fields.get(key) is not None:
                    obj[key] = fields[key]
            if fields.get("image") is not None:
                obj["process"] = fields["image"]
            if fields.get("cmdline") is not None:
                obj["cmdline"] = fields["cmdline"]
            if message:
                obj["message"] = message
        obj = {k: v for k, v in obj.items() if v is not None}
        return json.dumps(obj, separators=(",", ":"))
    # csv_export: one column per field_map key, in order
    return ",".join(_csv_quote(_csv_cell(canonical, fields, draft, message)) for canonical in adapter.field_map)


def _file_text(adapter: SourceAdapterSpec, lines: Sequence[str]) -> str:
    """One source's raw file: its lines, under a header row for a CSV export."""
    header = ",".join(adapter.field_map.values()) + "\n" if adapter.format == FORMAT_CSV else ""
    return header + "\n".join(lines) + ("\n" if lines else "")


def _drafts_to_tables(
    drafts: Sequence[DraftEvent], scenario_id: str
) -> Tuple[Dict[str, Tuple[NormalizedEvent, ...]], Dict[str, str], Dict[str, Tuple[str, ...]]]:
    """Render drafts to raw lines, re-parse them, and label the result.

    Returns the tables, the labels and the rendered lines per source.
    """
    per_source: Dict[str, List[DraftEvent]] = {}
    for draft in drafts:
        per_source.setdefault(draft.source, []).append(draft)
    tables: Dict[str, Tuple[NormalizedEvent, ...]] = {}
    labels: Dict[str, str] = {}
    raw_lines: Dict[str, Tuple[str, ...]] = {}
    for source, items in per_source.items():
        items.sort(key=lambda d: d.ts)
        adapter = _adapter_for(source)
        lines = raw_lines[source] = tuple(_render_line(adapter, d) for d in items)
        parsed = parse_text(_file_text(adapter, lines), adapter, origin=f"synth:{source}")
        if parsed.n_rejected:
            raise ScenarioError(f"internal renderer error: {parsed.n_rejected} rejected line(s) for {source}")
        result = normalize_records(parsed.records, adapter, scenario_id=scenario_id, file_ordinal=0)
        if result.quarantined:
            raise ScenarioError(f"internal renderer error: quarantined records for {source}")
        if len(result.events) != len(items):
            raise ScenarioError(f"internal renderer error: event count mismatch for {source}")
        for event, draft in zip(result.events, items):
            labels[event.event_id] = draft.label
        tables[source] = tuple(sort_events(result.events))
    return tables, labels, raw_lines


def generate_scenario(
    spec: ScenarioSpec, template: Optional[AttackTemplate] = None
) -> ScenarioData:
    """Generate per-source event tables plus chain-level ground truth.

    Benign and attack events share one timeline; every event is labeled.
    Fully deterministic under (spec, seed).
    """
    if spec.attack_template and template is None:
        raise ScenarioError(f"scenario names template {spec.attack_template!r} but none was supplied")
    if template is not None and spec.attack_template and template.template_id != spec.attack_template:
        raise ScenarioError(
            f"scenario expects template {spec.attack_template!r}, got {template.template_id!r}"
        )
    for source in spec.sources:
        _adapter_for(source)  # fail before generating anything no packaged adapter can read
    drafts = _benign_drafts(spec)
    chain_order: Tuple[StepTag, ...] = ()
    omitted: FrozenSet[StepTag] = frozenset()
    expected: Optional[ExpectedStepSet] = None
    if template is not None:
        # sources a template names but the spec withholds are allowed: gaps
        drafts.extend(_attack_drafts(spec, template))
        chain_order = tuple(s.step for s in template.steps if s.step not in template.omit)
        omitted = template.omit
        expected = ExpectedStepSet(
            scenario_id=spec.scenario_id,
            steps=template.expected_steps,
            technique_ids=template.technique_ids(),
        )
    tables, labels, raw_lines = _drafts_to_tables(drafts, spec.scenario_id)
    for source in spec.sources:
        tables.setdefault(source, ())
        raw_lines.setdefault(source, ())
    ground_truth = GroundTruth(
        scenario_id=spec.scenario_id,
        expected=expected,
        labels=labels,
        chain_order=chain_order,
        omitted=omitted,
    )
    return ScenarioData(
        spec=spec,
        template_id=template.template_id if template else None,
        tables=tables,
        ground_truth=ground_truth,
        raw_lines=raw_lines,
    )


def write_scenario(data: ScenarioData, out_dir: Path) -> List[Path]:
    """Write per-source raw files plus ground_truth.json; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for source in sorted(data.raw_lines):
        adapter = _adapter_for(source)
        path = out_dir / f"{source}.{FORMAT_FILE_EXT[adapter.format]}"
        path.write_text(_file_text(adapter, data.raw_lines[source]), encoding="utf-8")
        written.append(path)
    gt = data.ground_truth
    gt_doc = {
        "scenario_id": gt.scenario_id,
        "template_id": data.template_id,
        "seed": data.spec.seed,
        "expected_steps": sorted(s.value for s in gt.expected.steps) if gt.expected else [],
        "technique_ids": list(gt.expected.technique_ids) if gt.expected else [],
        "omitted_steps": sorted(s.value for s in gt.omitted),
        "chain_order": [s.value for s in gt.chain_order],
        "labels": dict(sorted(gt.labels.items())),
    }
    gt_path = out_dir / "ground_truth.json"
    write_json(gt_path, gt_doc)
    written.append(gt_path)
    return written


def load_ground_truth(path: Path) -> GroundTruth:
    doc = read_json(path)
    steps = frozenset(parse_step(s) for s in doc.get("expected_steps", []))
    expected = None
    if steps:
        expected = ExpectedStepSet(
            scenario_id=doc["scenario_id"],
            steps=steps,
            technique_ids=tuple(doc.get("technique_ids", [])),
        )
    return GroundTruth(
        scenario_id=doc["scenario_id"],
        expected=expected,
        labels=dict(doc.get("labels", {})),
        chain_order=tuple(parse_step(s) for s in doc.get("chain_order", [])),
        omitted=frozenset(parse_step(s) for s in doc.get("omitted_steps", [])),
    )


# --- brute-force chain oracle ------------------------------------------------


def oracle_chains(
    events: Sequence[NormalizedEvent],
    decisions: Sequence[TagDecision],
    window_ms: int,
    gap_threshold_ms: int,
    top_k: Optional[int] = None,
    max_paths: int = 500_000,
) -> List[Chain]:
    """Exhaustive enumeration oracle for chain extraction (<= 50 events).

    Enumerates every forward path under its own edge test, projects each
    onto its first-occurrence step sequence, dedups keeping the minimal
    representative under (span, first_ts, length, path read back-to-front
    in (ts, event_id) order), and sorts by (score desc, span asc,
    first_ts asc, back-to-front order).
    """
    chosen = {d.event_id: d.chosen for d in decisions if d.chosen is not None}
    tagged = sorted((e for e in events if e.event_id in chosen), key=lambda e: (e.ts, e.event_id))
    if len(tagged) > 50:
        raise ScenarioError(f"oracle_chains is limited to 50 tagged events, got {len(tagged)}")
    n = len(tagged)
    if n == 0:
        return []

    def connected(a: NormalizedEvent, b: NormalizedEvent) -> bool:
        if a.host is not None and a.host == b.host:
            return True
        if a.user is not None and a.user == b.user:
            return True
        pa, pb = a.process, b.process
        hosts_ok = a.host is None or b.host is None or a.host == b.host
        if hosts_ok and pa.pid is not None and pb.pid is not None:
            if pa.pid == pb.pid or pa.pid == pb.ppid or (pa.ppid is not None and pa.ppid == pb.pid):
                return True
        na, nb = a.network, b.network
        if na.dst_ip is not None and na.dst_port is not None and (na.dst_ip, na.dst_port) == (nb.dst_ip, nb.dst_port):
            return True
        if (
            na.src_ip is not None
            and na.dst_ip is not None
            and nb.src_ip is not None
            and nb.dst_ip is not None
            and (na.proto is None or nb.proto is None or na.proto == nb.proto)
        ):
            if {(na.src_ip, na.src_port), (na.dst_ip, na.dst_port)} == {(nb.src_ip, nb.src_port), (nb.dst_ip, nb.dst_port)}:
                return True
        return False

    adj: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if tagged[j].ts - tagged[i].ts > window_ms:
                break
            if connected(tagged[i], tagged[j]):
                adj[i].append(j)

    # best[(seq)] = ((span, first_ts, length, ids), path)
    best: Dict[Tuple[StepTag, ...], Tuple[Tuple, Tuple[int, ...]]] = {}
    counter = [0]

    def consider(path: List[int]) -> None:
        counter[0] += 1
        if counter[0] > max_paths:
            raise ScenarioError(f"oracle path budget exceeded ({max_paths})")
        seq: Tuple[StepTag, ...] = ()
        for idx in path:
            step = chosen[tagged[idx].event_id]
            if step not in seq:
                seq = seq + (step,)
        span = tagged[path[-1]].ts - tagged[path[0]].ts
        first_ts = tagged[path[0]].ts
        key = (span, first_ts, len(path), tuple(reversed(path)))
        incumbent = best.get(seq)
        if incumbent is None or key < incumbent[0]:
            best[seq] = (key, tuple(path))

    def dfs(path: List[int]) -> None:
        consider(path)
        for nxt in adj[path[-1]]:
            path.append(nxt)
            dfs(path)
            path.pop()

    for start in range(n):
        dfs([start])

    results: List[Tuple[Tuple, Chain]] = []
    for seq, (key, path) in best.items():
        path_events = [tagged[i] for i in path]
        steps: List[StepTag] = []
        supporting: Dict[StepTag, List[str]] = {}
        first_pos: Dict[StepTag, int] = {}
        for pos, event in enumerate(path_events):
            step = chosen[event.event_id]
            if step not in supporting:
                steps.append(step)
                supporting[step] = []
                first_pos[step] = pos
            supporting[step].append(event.event_id)
        flags: List[Tuple[int, int]] = []
        for k in range(1, len(steps)):
            pos = first_pos[steps[k]]
            gap = path_events[pos].ts - path_events[pos - 1].ts
            if gap > gap_threshold_ms:
                flags.append((k - 1, gap))
        chain = Chain(
            steps=tuple(steps),
            supporting_events=tuple(tuple(supporting[s]) for s in steps),
            score=len(steps),
            continuity_flags=tuple(flags),
            first_ts=path_events[0].ts,
            span_ms=path_events[-1].ts - path_events[0].ts,
        )
        results.append(((-chain.score, chain.span_ms, chain.first_ts, key[3]), chain))
    results.sort(key=lambda item: item[0])
    ordered = [c for _, c in results]
    return ordered[:top_k] if top_k is not None else ordered
