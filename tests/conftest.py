import csv
import dataclasses
import io
import random
import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import pytest
import yaml
from hypothesis import strategies as st

from chainscope.cli import main
from chainscope.configio import (
    load_adapters,
    load_aliases,
    load_packaged_scenario,
    load_packaged_template,
    load_rules_doc,
    packaged_template_ids,
)
from chainscope.errors import EventIdError, FormatMismatchError, ParseError, ScenarioError
from chainscope.graph import Chain
from chainscope import ingest
from chainscope.ingest import FORMAT_CSV, FORMAT_PRENORMALIZED, RAW_TEXT_KEY, Quarantine, ReadResult
from chainscope.model import (
    EMPTY_ALIASES,
    TEXT_BLOB_CANDIDATES,
    TS_AUTO,
    TS_EPOCH_MILLIS,
    TS_EPOCH_SECONDS,
    TS_ISO8601,
    TS_SYSLOG_BSD,
    NormalizedEvent,
    TsParse,
    event_from_dict,
    field_resolver,
    iso_ms,
    parse_timestamp,
    resolve_fields,
)
from chainscope.synth import BenignConfig, HostSpec, ScenarioSpec, generate_scenario, load_ground_truth, write_scenario
from chainscope.tagging import (
    FIRED,
    GATED,
    MISSING_FIELD,
    MULTI_MATCH,
    NO_MATCH,
    PREFILTER_UNUSABLE,
    SOURCE_SKIPPED,
    Candidate,
    Diagnostic,
    ExpectedStepSet,
    StepTag,
    TagDecision,
    _folded,
    _outcome,
    _scope_outcome,
    load_rules,
    parse_step,
)
from golden_corpus import packaged_scenario_ids


def run_stage_commands(scenario_dir, out, rules, tag_flags=()):
    """ingest, tag (given the expected steps of the ground truth) and
    reconstruct scenario_dir under out; {artifact name: directory holding it}."""
    expected = load_ground_truth(scenario_dir / "ground_truth.json").expected
    steps = ",".join(sorted(s.value for s in expected.steps))
    ingested, tagged, recon = out / "ingested", out / "tagged", out / "recon"
    assert main(["ingest", "--scenario-dir", str(scenario_dir), "--out", str(ingested)]) == 0
    tag = ["tag", "--events", str(ingested / "events.jsonl"), "--rules", str(rules), *tag_flags]
    assert main(tag + ["--expected-steps", steps, "--out", str(tagged)]) == 0
    reconstruct = ["reconstruct", "--events", str(ingested / "events.jsonl"), "--decisions", str(tagged / "decisions.jsonl")]
    assert main(reconstruct + ["--out", str(recon)]) == 0
    return {
        "events.jsonl": ingested,
        "ingest_report.json": ingested,
        "decisions.jsonl": tagged,
        "run_diag.json": tagged,
        "graph.json": recon,
        "chains.json": recon,
        "ambiguity.json": recon,
    }


@pytest.fixture(scope="session")
def adapters():
    return load_adapters()


@pytest.fixture(scope="session")
def aliases():
    return load_aliases()


@pytest.fixture(scope="session")
def default_rules():
    return load_rules(load_rules_doc())


@pytest.fixture(scope="session")
def technique_map():
    """Step name -> technique id list, from tests/technique_steps.yml."""
    doc = yaml.safe_load(Path(__file__).with_name("technique_steps.yml").read_text(encoding="utf-8"))
    return doc["technique_steps"]


@pytest.fixture(scope="session")
def all_template_ids():
    return packaged_template_ids()


@pytest.fixture(scope="session")
def all_scenarios():
    out = []
    for name in packaged_scenario_ids():
        spec = load_packaged_scenario(name)
        template = load_packaged_template(spec.attack_template) if spec.attack_template else None
        out.append((spec, template))
    return out


def make_event(
    event_id="syslog:000:000000",
    ts=1714554000000,
    source="syslog",
    host="h1",
    user=None,
    pid=None,
    ppid=None,
    image=None,
    cmdline=None,
    src_ip=None,
    src_port=None,
    dst_ip=None,
    dst_port=None,
    proto=None,
    text_blob="",
    extras=None,
    scenario_id="test",
    trust_origin="target",
):
    return NormalizedEvent(
        event_id=event_id,
        ts=ts,
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
        text_blob=text_blob,
        extras=dict(extras or {}),
    )


@pytest.fixture
def mk_event():
    return make_event


def make_random_tagged_table(seed, max_events=50):
    """Random tagged tables sized for exhaustive path enumeration."""
    rng = random.Random(seed)
    n = rng.randint(0, max_events)
    hosts = [f"h{i}" for i in range(rng.randint(4, 10))]
    users = [f"u{i}" for i in range(6)]
    ips = [f"198.51.100.{i}" for i in range(6)]
    steps = list(StepTag)
    base = 1_700_000_000_000
    events, decisions = [], []
    for i in range(n):
        ts = base + rng.randrange(0, 6 * 3600 * 1000)
        pid = rng.randrange(100, 140) if rng.random() < 0.3 else None
        net = {}
        if rng.random() < 0.25:
            net = dict(
                src_ip=rng.choice(ips),
                src_port=rng.randrange(40000, 40010),
                dst_ip=rng.choice(ips),
                dst_port=rng.choice([22, 443, 4444]),
                proto="tcp",
            )
        event = make_event(
            event_id=f"ev:{i:03d}",
            ts=ts,
            host=rng.choice(hosts) if rng.random() < 0.75 else None,
            user=rng.choice(users) if rng.random() < 0.25 else None,
            pid=pid,
            ppid=(pid - rng.randint(0, 3)) if pid and rng.random() < 0.5 else None,
            text_blob="x",
            **net,
        )
        events.append(event)
        decisions.append(
            TagDecision(event_id=event.event_id, candidates=(), chosen=rng.choice(steps), diagnostics=())
        )
    return events, decisions


@pytest.fixture(scope="session")
def bulk_scenario_dir(tmp_path_factory):
    """The raw files of a generated scenario of about 3,600 events on all seven
    packaged sources: the benchmark's spec at 4 hosts and 400 activities each."""
    spec = ScenarioSpec(
        scenario_id="bulk",
        seed=13,
        hosts=tuple(HostSpec(name=f"host{i:02d}") for i in range(4)),
        sources=("syslog", "auth", "auditd", "zeek", "suricata", "tracee", "azure_port"),
        start_ms=1714521600000,
        duration_s=90 * 3600,
        benign=BenignConfig(n_activities=400, min_interval_s=30, max_interval_s=300, active_start_s=0, active_end_s=86399),
        attack_template="dependency-chain",
        attack_start_s=7200,
    )
    out = tmp_path_factory.mktemp("bulk")
    write_scenario(generate_scenario(spec, load_packaged_template(spec.attack_template)), out)
    return out


def make_scenario_data(name, seed):
    """A packaged scenario's generated data under another seed."""
    spec = dataclasses.replace(load_packaged_scenario(name), seed=seed)
    template = load_packaged_template(spec.attack_template) if spec.attack_template else None
    return generate_scenario(spec, template)


@pytest.fixture
def random_tagged_table():
    return make_random_tagged_table


def expected_from_techniques(
    scenario_id: str, technique_ids: Sequence[str], technique_map: Mapping[str, Sequence[str]]
) -> ExpectedStepSet:
    """Map ATT&CK technique ids to an expected step set.

    ``technique_map`` maps step name -> technique id list; matching is by
    exact id first, then by parent technique (T1048.003 -> T1048).
    """
    by_technique: Dict[str, StepTag] = {}
    for step_name, ids in technique_map.items():
        step = parse_step(step_name)
        for tid in ids:
            by_technique[tid.upper()] = step
    steps: Set[StepTag] = set()
    for tid in technique_ids:
        key = tid.upper()
        hit = by_technique.get(key) or by_technique.get(key.split(".")[0])
        if hit is not None:
            steps.add(hit)
    return ExpectedStepSet(scenario_id=scenario_id, steps=frozenset(steps), technique_ids=tuple(technique_ids))


# --- brute-force chain oracle ------------------------------------------------
# The independent counterpart of graph.extract_chains: it enumerates every
# forward path over a small tagged table with its own edge test, projects,
# dedups and sorts. It shares only the Chain container with the production
# path.


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
        hosts_ok = a.host is None or b.host is None or a.host == b.host
        if hosts_ok and a.pid is not None and b.pid is not None:
            if a.pid == b.pid or a.pid == b.ppid or (a.ppid is not None and a.ppid == b.pid):
                return True
        if a.dst_ip is not None and a.dst_port is not None and (a.dst_ip, a.dst_port) == (b.dst_ip, b.dst_port):
            return True
        if (
            a.src_ip is not None
            and a.dst_ip is not None
            and b.src_ip is not None
            and b.dst_ip is not None
            and (a.proto is None or b.proto is None or a.proto == b.proto)
        ):
            if {(a.src_ip, a.src_port), (a.dst_ip, a.dst_port)} == {(b.src_ip, b.src_port), (b.dst_ip, b.dst_port)}:
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



# line ends str.splitlines() honours: a JSONL reader must number lines the same
# way whether it reads the text or the file
LINE_ENDS = ("\n", "\r\n", "\r", "\u2028")


@st.composite
def jsonl_layouts(draw, lines):
    """``lines`` joined with blank lines between them, mixed line ends, and maybe no final one."""
    pieces = []
    for line in lines:
        pieces.extend(draw(st.lists(st.sampled_from(["", "  "]), max_size=2)))
        pieces.append(line)
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(pieces), max_size=len(pieces)))
    text = "".join(piece + end for piece, end in zip(pieces, ends))
    if ends and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


# --- reference implementations ---------------------------------------------
# The interpretive normalize and rule evaluation that ingest and tagging
# compiled into plans. Property tests check the plans against them.


_REFERENCE_FRACTION_RE = re.compile(r"(\.\d{1,9})")
_REFERENCE_COMPACT_TZ_RE = re.compile(r"([+-]\d{2})(\d{2})$")
_REFERENCE_EPOCH_RE = re.compile(r"^-?\d+(\.\d+)?$")
_REFERENCE_BSD_RE = re.compile(
    r"^(?P<mon>Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+(?P<day>\d{1,2})\s+"
    r"(?P<h>\d{2}):(?P<m>\d{2}):(?P<s>\d{2})$"
)
_REFERENCE_MONTHS = {m: i + 1 for i, m in enumerate("Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split())}


def _reference_iso(raw):
    text = raw.strip()
    if text.endswith("Z") or text.endswith("z"):
        text = text[:-1] + "+00:00"
    text = _REFERENCE_COMPACT_TZ_RE.sub(r"\1:\2", text)
    text = _REFERENCE_FRACTION_RE.sub(lambda m: "." + m.group(1)[1:].ljust(6, "0")[:6], text, count=1)
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"unparseable ISO-8601 timestamp: {raw!r}", offending=raw)
    naive = dt.tzinfo is None
    if naive:
        dt = dt.replace(tzinfo=timezone.utc)
    return TsParse(ts_ms=_reference_renderable(dt.timestamp() * 1000, raw), tz_naive=naive)


def _reference_renderable(ms, raw):
    """ms rounded, if iso_ms can render it; else the ParseError of a timestamp out of range."""
    try:
        ts_ms = round(ms)
        iso_ms(ts_ms)
    except (OverflowError, ValueError):
        raise ParseError(f"timestamp {raw!r} is outside the years 1-9999", offending=raw)
    return ts_ms


def _reference_epoch(raw, millis):
    if not _REFERENCE_EPOCH_RE.match(raw.strip()):
        raise ParseError(f"unparseable epoch timestamp: {raw!r}", offending=raw)
    value = float(raw)
    if millis is None:
        millis = abs(value) >= 1e11
    return TsParse(ts_ms=_reference_renderable(value if millis else value * 1000, raw.strip()), tz_naive=False)


def _reference_bsd(raw, default_year):
    m = _REFERENCE_BSD_RE.match(raw.strip())
    if not m:
        raise ParseError(f"unparseable BSD syslog timestamp: {raw!r}", offending=raw)
    if default_year is None:
        raise ParseError(f"BSD syslog timestamp {raw!r} has no year; adapter must set default_year", offending=raw)
    try:
        dt = datetime(
            default_year,
            _REFERENCE_MONTHS[m.group("mon")],
            int(m.group("day")),
            int(m.group("h")),
            int(m.group("m")),
            int(m.group("s")),
            tzinfo=timezone.utc,
        )
    except ValueError as exc:
        raise ParseError(f"BSD syslog timestamp {raw!r} is not a date in {default_year}: {exc}", offending=raw)
    return TsParse(ts_ms=round(dt.timestamp() * 1000), tz_naive=True, year_supplied=True)


def reference_parse_timestamp(raw, format_hint=TS_AUTO, default_year=None):
    """parse_timestamp as it was before it skipped the rewrites of canonical
    text: every ISO rewrite applied, and an epoch matched twice. In auto
    mode, BSD-shaped text goes to the BSD parser and any other to ISO."""
    text = raw.strip()
    if not text:
        raise ParseError("empty timestamp", offending=raw)
    if format_hint == TS_ISO8601:
        return _reference_iso(text)
    if format_hint == TS_EPOCH_SECONDS:
        return _reference_epoch(text, millis=False)
    if format_hint == TS_EPOCH_MILLIS:
        return _reference_epoch(text, millis=True)
    if format_hint == TS_SYSLOG_BSD:
        return _reference_bsd(text, default_year)
    if format_hint != TS_AUTO:
        raise ParseError(f"unknown timestamp format hint: {format_hint!r}", offending=raw)
    if _REFERENCE_EPOCH_RE.match(text):
        return _reference_epoch(text, millis=None)
    if _REFERENCE_BSD_RE.match(text):
        return _reference_bsd(text, default_year)
    return _reference_iso(text)


_REFERENCE_TYPE_NAMES = {str: "a string", int: "an integer"}
_REQUIRED = object()


def _reference_field(group, key, kind, default=None):
    value = group[key] if default is _REQUIRED else group.get(key, default)
    if type(value) is kind or (value is None and default is None):
        return value
    nullable = " or null" if default is None else ""
    raise TypeError(f"{key!r} must be {_REFERENCE_TYPE_NAMES[kind]}{nullable}, got {type(value).__name__}")


def _reference_object(data, key):
    value = data.get(key)
    if value is None:
        return {}
    if type(value) is not dict:
        raise TypeError(f"{key!r} must be an object, got {type(value).__name__}")
    return value


def reference_event_to_dict(event):
    """An event's events.jsonl record, which model._event_line writes as
    compact JSON: process and network fields nested in two groups, each null
    exactly when all of its fields are None, and the extras sorted by key."""
    proc = {k: getattr(event, k) for k in ("pid", "ppid", "image", "cmdline") if getattr(event, k) is not None}
    net = {k: getattr(event, k) for k in ("src_ip", "src_port", "dst_ip", "dst_port", "proto") if getattr(event, k) is not None}
    return {
        "event_id": event.event_id,
        "ts": event.ts,
        "scenario_id": event.scenario_id,
        "source": event.source,
        "trust_origin": event.trust_origin,
        "host": event.host,
        "user": event.user,
        "process": proc or None,
        "network": net or None,
        "text_blob": event.text_blob,
        "extras": dict(sorted(event.extras.items())),
    }


def reference_event_from_dict(data, shared=None):
    """model.event_from_dict field by field, as it was before it checked
    every field in one expression, and with the range of ts it checks now."""
    if shared is None:
        shared = {}

    def share(value):
        return shared.setdefault(value, value) if isinstance(value, str) else value

    proc, net, extras = _reference_object(data, "process"), _reference_object(data, "network"), _reference_object(data, "extras")
    for key, value in extras.items():
        if type(value) is not str:
            raise TypeError(f"'extras' value {key!r} must be a string, got {type(value).__name__}")
    fields = dict(
        event_id=_reference_field(data, "event_id", str, _REQUIRED),
        ts=_reference_field(data, "ts", int, _REQUIRED),
        scenario_id=share(_reference_field(data, "scenario_id", str, "")),
        source=share(_reference_field(data, "source", str, _REQUIRED)),
        trust_origin=share(_reference_field(data, "trust_origin", str, _REQUIRED)),
        host=share(_reference_field(data, "host", str)),
        user=share(_reference_field(data, "user", str)),
        pid=_reference_field(proc, "pid", int),
        ppid=_reference_field(proc, "ppid", int),
        image=share(_reference_field(proc, "image", str)),
        cmdline=_reference_field(proc, "cmdline", str),
        src_ip=share(_reference_field(net, "src_ip", str)),
        src_port=_reference_field(net, "src_port", int),
        dst_ip=share(_reference_field(net, "dst_ip", str)),
        dst_port=_reference_field(net, "dst_port", int),
        proto=share(_reference_field(net, "proto", str)),
        text_blob=_reference_field(data, "text_blob", str, ""),
        extras={share(k): v for k, v in extras.items()},
    )
    try:
        iso_ms(fields["ts"])
    except (OverflowError, ValueError):
        raise ValueError(f"'ts' {fields['ts']} is outside the years 1-9999")
    return NormalizedEvent(**fields)


def reference_lookup(record, lowered_fields, canonical, lowered_map, aliases):
    """Resolve a canonical field from a raw record: field_map, then the
    canonical name, then aliases; all case-insensitive on the record's keys."""
    mapped = lowered_map.get(canonical)
    keys = []
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


def reference_event_id(source, file_ordinal, ordinal, origin):
    if file_ordinal >= ingest.MAX_FILES_PER_SOURCE or ordinal >= ingest.MAX_RECORDS_PER_FILE:
        raise EventIdError(
            f"{origin}: event id overflow for source {source!r} (file ordinal {file_ordinal}, record ordinal "
            f"{ordinal}); ids hold at most {ingest.MAX_FILES_PER_SOURCE} files per source and "
            f"{ingest.MAX_RECORDS_PER_FILE} records per file"
        )
    return f"{source}:{file_ordinal:03d}:{ordinal:06d}"


def reference_normalize_records(records, adapter, aliases=EMPTY_ALIASES, scenario_id="", file_ordinal=0, origin="<memory>"):
    """The second phase of the two-phase ingest path: RawRecords into
    (events, quarantines, naive-ts count), one lookup at a time."""
    if adapter.format == FORMAT_PRENORMALIZED:
        return reference_normalize_canonical(records, adapter, scenario_id, file_ordinal, origin)
    str_fields = ("host", "user", "image", "cmdline", "src_ip", "dst_ip", "proto")
    int_fields = ("pid", "ppid", "src_port", "dst_port")
    events, quarantined, naive = [], [], 0
    lowered_map = {k.lower(): v for k, v in adapter.field_map.items()}
    used_source_keys = {v.lower() for v in lowered_map.values()}
    year, last_bsd_ts = adapter.default_year, None
    for record in records:
        lowered_fields = {k.lower(): v for k, v in record.fields.items()}
        raw_ts = reference_lookup(record, lowered_fields, "ts", lowered_map, aliases)
        if raw_ts is None:
            quarantined.append(Quarantine(ordinal=record.ordinal, reason="no timestamp field"))
            continue
        try:
            parsed = parse_timestamp(raw_ts, format_hint=adapter.ts_format, default_year=year)
            # a year-less timestamp more than 183 days behind the last one is in the next year
            if parsed.year_supplied and last_bsd_ts is not None and last_bsd_ts - parsed.ts_ms > 183 * 86_400_000:
                year += 1
                parsed = parse_timestamp(raw_ts, format_hint=adapter.ts_format, default_year=year)
            if parsed.year_supplied:
                last_bsd_ts = parsed.ts_ms
        except ParseError as exc:
            quarantined.append(Quarantine(ordinal=record.ordinal, reason=f"bad timestamp: {exc.offending!r}"))
            continue
        if parsed.tz_naive:
            naive += 1
        values = {}
        for name in (*str_fields, *int_fields, *TEXT_BLOB_CANDIDATES):
            values[name] = reference_lookup(record, lowered_fields, name, lowered_map, aliases)
        values["proto"] = values["proto"].lower() if values["proto"] else None
        ints = {}
        for name in int_fields:
            try:
                ints[name] = int(values[name]) if values[name] is not None else None
            except ValueError:
                ints[name] = None
        events.append(
            NormalizedEvent(
                event_id=reference_event_id(adapter.source, file_ordinal, record.ordinal, origin),
                ts=parsed.ts_ms,
                scenario_id=scenario_id,
                source=adapter.source,
                trust_origin=adapter.trust_origin,
                host=values["host"],
                user=values["user"],
                pid=ints["pid"],
                ppid=ints["ppid"],
                image=values["image"],
                cmdline=values["cmdline"],
                src_ip=values["src_ip"],
                src_port=ints["src_port"],
                dst_ip=values["dst_ip"],
                dst_port=ints["dst_port"],
                proto=values["proto"],
                text_blob=" ".join(values[c] for c in TEXT_BLOB_CANDIDATES if values[c]),
                extras={k: str(v) for k, v in sorted(record.fields.items()) if k.lower() not in used_source_keys},
            )
        )
    return events, quarantined, naive


def reference_normalize_canonical(records, adapter, scenario_id, file_ordinal, origin):
    """reference_normalize_records for decoded canonical records, with the adapter's defaults."""
    events, quarantined = [], []
    for record in records:
        defaults = {"source": adapter.source, "trust_origin": adapter.trust_origin, "scenario_id": scenario_id}
        data = {**defaults, **record.fields}
        if "event_id" not in data:
            data["event_id"] = reference_event_id(adapter.source, file_ordinal, record.ordinal, origin)
        try:
            if "ts" not in data:
                raise KeyError("ts")
            events.append(event_from_dict(data))
        except (ValueError, KeyError, TypeError) as exc:
            quarantined.append(Quarantine(ordinal=record.ordinal, reason=f"bad canonical record: {exc}"))
    return events, quarantined, 0


@dataclasses.dataclass(frozen=True)
class RawRecord:
    """One parsed record of the two-phase path: its field map and its byte-exact original text."""

    ordinal: int
    fields: Mapping
    raw_text: str


def reference_csv_records(text):
    """(line number, RawRecord fields and raw text, or None) per CSV row of a whole text."""
    lines = io.StringIO(text).readlines()
    reader = csv.reader(lines)
    end = 0
    while True:
        start = end
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error:
            row = None
        end = reader.line_num
        yield start + 1, "".join(lines[start:end]).removesuffix("\n").removesuffix("\r"), row


def parse_text(text, adapter, origin="<memory>"):
    """The first phase of the two-phase ingest path: a whole raw text into
    (RawRecords, rejected line numbers), or FormatMismatchError naming origin
    when fewer than adapter.parse_threshold of the non-blank lines parse."""
    records, rejected, ordinal = [], [], 0
    if adapter.format == FORMAT_CSV:
        header = None
        for lineno, raw_text, row in reference_csv_records(text):
            if row is not None and all(not cell.strip() for cell in row):
                continue
            if header is None and row is not None:
                header = [cell.strip() for cell in row]
                continue
            if row is None or header is None or len(row) != len(header):
                rejected.append(lineno)
            else:
                records.append(RawRecord(ordinal, {k: v for k, v in zip(header, row) if v != ""}, raw_text))
            ordinal += 1
    else:
        parse_line = ingest._LINE_PARSERS[adapter.format]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            fields = parse_line(line)
            if fields is None:
                rejected.append(lineno)
            else:
                records.append(RawRecord(ordinal, fields, line))
            ordinal += 1
    total = len(records) + len(rejected)
    if total > 0 and len(records) / total < adapter.parse_threshold:
        raise FormatMismatchError(
            f"{origin}: parse rate {len(records) / total:.3f} below threshold {adapter.parse_threshold} "
            f"for adapter {adapter.source!r} ({len(rejected)}/{total} lines rejected)"
        )
    return records, rejected


def reference_read(text, adapter, aliases=EMPTY_ALIASES, scenario_id="", file_ordinal=0, origin="<memory>"):
    """ingest.read_lines over a whole text in two phases: parse_text, then reference_normalize_records."""
    records, rejected = parse_text(text, adapter, origin)
    events, quarantined, naive = reference_normalize_records(records, adapter, aliases, scenario_id, file_ordinal, origin)
    return ReadResult(events=events, rejected_lines=tuple(rejected), quarantined=tuple(quarantined), naive_ts_count=naive)


REFERENCE_GETTERS = {
    "event_id": lambda e: e.event_id,
    "ts": lambda e: e.ts,
    "scenario_id": lambda e: e.scenario_id,
    "source": lambda e: e.source,
    "trust_origin": lambda e: e.trust_origin,
    "host": lambda e: e.host,
    "user": lambda e: e.user,
    "pid": lambda e: e.pid,
    "ppid": lambda e: e.ppid,
    "image": lambda e: e.image,
    "cmdline": lambda e: e.cmdline,
    "src_ip": lambda e: e.src_ip,
    "src_port": lambda e: e.src_port,
    "dst_ip": lambda e: e.dst_ip,
    "dst_port": lambda e: e.dst_port,
    "proto": lambda e: e.proto,
    "text_blob": lambda e: e.text_blob or None,
}


def reference_resolve(event, name, aliases, lowered_extras):
    getter = REFERENCE_GETTERS.get(name)
    if getter is not None:
        value = getter(event)
        if value is not None:
            return str(value)
    if lowered_extras:
        for key in (name, *aliases.aliases_for(name)):
            value = lowered_extras.get(key.lower())
            if value is not None and value != "":
                return str(value)
    return None


class ReferenceFieldCache:
    """Per-event memo of reference_resolve lookups."""

    def __init__(self, event, aliases):
        self._event = event
        self._aliases = aliases
        self._extras = {k.lower(): v for k, v in event.extras.items()}
        self._memo = {}

    def get(self, name):
        key = name.lower()
        if key not in self._memo:
            self._memo[key] = reference_resolve(self._event, key, self._aliases, self._extras)
        return self._memo[key]


def reference_prefilter_status(rule, cache):
    """'pass', 'fail' or 'unusable' (every referenced field absent)."""
    for clauses, mode in ((rule.where_any, "any"), (rule.where_all, "all")):
        if not clauses:
            continue
        usable = False
        verdicts = []
        for fname, allowed in clauses.items():
            value = cache.get(fname)
            if value is None:
                verdicts.append(False)
                continue
            usable = True
            verdicts.append(str(value).lower() in {a.lower() for a in allowed})
        if not usable:
            return "unusable"
        if not (any(verdicts) if mode == "any" else all(verdicts)):
            return "fail"
    return "pass"


def reference_evaluate_rule(event, compiled, aliases=EMPTY_ALIASES, gate=None, cache=None):
    rule = compiled.rule
    if rule.sources and event.source not in rule.sources:
        return SOURCE_SKIPPED
    if gate is not None and rule.step not in gate:
        return GATED
    if cache is None:
        cache = ReferenceFieldCache(event, aliases)
    status = reference_prefilter_status(rule, cache)
    if status == "unusable":
        return PREFILTER_UNUSABLE
    if status == "fail":
        return NO_MATCH
    any_field_present = False
    for fname in rule.candidate_fields:
        value = cache.get(fname)
        if value is None:
            continue
        any_field_present = True
        for pattern in rule.patterns:
            if re.search(pattern, str(value)):
                return FIRED
    return NO_MATCH if any_field_present else MISSING_FIELD


def resolve_field(event, canonical, aliases=EMPTY_ALIASES):
    """One canonical field of event, through the resolver tagging compiles."""
    resolver = field_resolver(canonical, aliases)
    return resolve_fields(event, (resolver,))[resolver[0]]


def evaluate_rule(event, compiled, aliases=EMPTY_ALIASES, gate=None):
    """The outcome of one compiled rule on one event, by the steps a tagging plan takes."""
    skipped = _scope_outcome(compiled, event.source, gate)
    if skipped is not None:
        return skipped
    values = resolve_fields(event, [field_resolver(name, aliases) for name in compiled.fields])
    return _outcome(compiled, values, _folded(values, compiled.folded_fields))


def reference_tag_event(event, rules, gate=None, aliases=EMPTY_ALIASES):
    gate_set = frozenset(gate) if gate is not None else None
    cache = ReferenceFieldCache(event, aliases)
    candidates, diagnostics = [], []
    for compiled in rules:
        outcome = reference_evaluate_rule(event, compiled, aliases=aliases, gate=gate_set, cache=cache)
        if outcome == FIRED:
            candidates.append(Candidate(step=compiled.rule.step, rule_id=compiled.rule.rule_id, priority=compiled.rule.priority))
        elif outcome in (MISSING_FIELD, PREFILTER_UNUSABLE):
            diagnostics.append(Diagnostic(kind=outcome, rule_id=compiled.rule.rule_id))
    candidates.sort(key=lambda c: (-c.priority, c.rule_id))
    if len({c.step for c in candidates}) > 1:
        diagnostics.append(Diagnostic(kind=MULTI_MATCH))
    diagnostics.sort(key=lambda d: (d.kind, d.rule_id or ""))
    return TagDecision(
        event_id=event.event_id,
        candidates=tuple(candidates),
        chosen=candidates[0].step if candidates else None,
        diagnostics=tuple(diagnostics),
    )
