"""Rule-based coarse step tagging with prefilters and explicit diagnostics.

Rules are declarative: regex patterns, candidate fields, optional
where_any/where_all structured prefilters, and applicable sources. A rule
fires iff its prefilters pass and any pattern matches any resolvable
candidate field. Every rule-event evaluation ends in exactly one outcome
(fired, no-match, MISSING_FIELD, PREFILTER_UNUSABLE, source-skipped, or
gated), which keeps failure analysis honest: a step that never fires is
distinguishable from a rule that could not even be evaluated.

Ties between candidates are broken by priority score, then lexicographic
rule_id, so permuting rule order never changes a chosen tag.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Pattern, Sequence, Set, Tuple, Union

from .errors import ConfigError, ParseError, RuleError
from .model import (
    CANONICAL_FIELDS,
    EMPTY_ALIASES,
    MISSING,
    FieldAliasMap,
    NormalizedEvent,
    _jsonl_lines,
    _resolve_with_extras,
    lowered_extras_view,
)


class StepTag(str, Enum):
    """Closed set of coarse behavioral steps (the chain alphabet)."""

    INSTALL = "INSTALL"
    AUTH = "AUTH"
    DOWNLOAD = "DOWNLOAD"
    OUTBOUND_CONN = "OUTBOUND_CONN"
    EXFIL = "EXFIL"

    def __str__(self) -> str:  # serialized names exactly as listed
        return self.value


STEP_TAGS: Tuple[StepTag, ...] = tuple(StepTag)


def parse_step(name: str) -> StepTag:
    try:
        return StepTag(name.strip().upper())
    except ValueError:
        raise ConfigError(f"unknown step tag {name!r}; valid: {[s.value for s in STEP_TAGS]}")


# diagnostics kinds
MISSING_FIELD = "MISSING_FIELD"
PREFILTER_UNUSABLE = "PREFILTER_UNUSABLE"
MULTI_MATCH = "MULTI_MATCH"

# rule-event evaluation outcomes
FIRED = "fired"
NO_MATCH = "no-match"
SOURCE_SKIPPED = "source-skipped"
GATED = "gated"
OUTCOMES = (FIRED, NO_MATCH, MISSING_FIELD, PREFILTER_UNUSABLE, SOURCE_SKIPPED, GATED)


@dataclass(frozen=True)
class StepRule:
    rule_id: str
    step: StepTag
    priority: float
    patterns: Tuple[str, ...]
    candidate_fields: Tuple[str, ...]
    where_any: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    where_all: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)
    sources: Tuple[str, ...] = ()  # empty = all sources

    def compiled(self) -> Tuple[Pattern[str], ...]:
        return tuple(re.compile(p) for p in self.patterns)


@dataclass(frozen=True)
class CompiledRule:
    rule: StepRule
    regexes: Tuple[Pattern[str], ...]


class RuleSet:
    """Validated, compiled collection of StepRules."""

    def __init__(self, rules: Sequence[StepRule]):
        seen: Set[str] = set()
        compiled: List[CompiledRule] = []
        for rule in rules:
            if rule.rule_id in seen:
                raise RuleError(f"duplicate rule_id {rule.rule_id!r}")
            seen.add(rule.rule_id)
            if not rule.patterns:
                raise RuleError(f"rule {rule.rule_id!r} has no patterns")
            if not math.isfinite(rule.priority):
                raise RuleError(f"rule {rule.rule_id!r} has non-finite priority")
            if not rule.candidate_fields:
                raise RuleError(f"rule {rule.rule_id!r} has no candidate fields")
            for name in (*rule.candidate_fields, *rule.where_any, *rule.where_all):
                if name.lower() not in CANONICAL_FIELDS:
                    raise RuleError(f"rule {rule.rule_id!r} references non-canonical field {name!r}")
            try:
                regexes = rule.compiled()
            except re.error as exc:
                raise RuleError(f"rule {rule.rule_id!r} has invalid pattern: {exc}")
            compiled.append(CompiledRule(rule=rule, regexes=regexes))
        self._compiled = tuple(compiled)

    @property
    def rules(self) -> Tuple[StepRule, ...]:
        return tuple(c.rule for c in self._compiled)

    def __len__(self) -> int:
        return len(self._compiled)

    def __iter__(self) -> Iterable[CompiledRule]:
        return iter(self._compiled)


def load_rules(doc: Mapping[str, Any]) -> RuleSet:
    """Build a validated RuleSet from a parsed rules document."""
    if not isinstance(doc, Mapping):
        raise RuleError("rules document must be a mapping with a 'rules' list")
    raw_rules = doc.get("rules", [])
    if raw_rules is None:
        raw_rules = []
    rules: List[StepRule] = []
    for item in raw_rules:
        try:
            rule = StepRule(
                rule_id=str(item["rule_id"]),
                step=parse_step(str(item["step"])),
                priority=float(item.get("priority", 0)),
                patterns=tuple(str(p) for p in item.get("patterns", [])),
                candidate_fields=tuple(str(f) for f in item.get("candidate_fields", [])),
                where_any={str(k): tuple(str(v) for v in vs) for k, vs in (item.get("where_any") or {}).items()},
                where_all={str(k): tuple(str(v) for v in vs) for k, vs in (item.get("where_all") or {}).items()},
                sources=tuple(str(s) for s in item.get("sources", []) or []),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RuleError(f"malformed rule entry {item!r}: {exc}")
        rules.append(rule)
    return RuleSet(rules)


def rules_to_doc(ruleset: RuleSet) -> Dict[str, Any]:
    """Serialize a RuleSet back to its document form (round-trips load_rules)."""
    out = []
    for rule in ruleset.rules:
        entry: Dict[str, Any] = {
            "rule_id": rule.rule_id,
            "step": rule.step.value,
            "priority": rule.priority,
            "patterns": list(rule.patterns),
            "candidate_fields": list(rule.candidate_fields),
        }
        if rule.where_any:
            entry["where_any"] = {k: list(v) for k, v in rule.where_any.items()}
        if rule.where_all:
            entry["where_all"] = {k: list(v) for k, v in rule.where_all.items()}
        if rule.sources:
            entry["sources"] = list(rule.sources)
        out.append(entry)
    return {"rules": out}


@dataclass(frozen=True, slots=True)
class Candidate:
    step: StepTag
    rule_id: str
    priority: float


@dataclass(frozen=True, slots=True)
class Diagnostic:
    kind: str
    rule_id: Optional[str] = None


@dataclass(frozen=True, slots=True)
class TagDecision:
    event_id: str
    candidates: Tuple[Candidate, ...]
    chosen: Optional[StepTag]
    diagnostics: Tuple[Diagnostic, ...]

    def matched_steps(self) -> FrozenSet[StepTag]:
        """The per-event matched tag set (distinct candidate steps)."""
        return frozenset(c.step for c in self.candidates)


@dataclass(frozen=True)
class ExpectedStepSet:
    """Coarse steps a scenario should exhibit, derived from technique ids."""

    scenario_id: str
    steps: FrozenSet[StepTag]
    technique_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigError(f"expected step set for {self.scenario_id!r} is empty")

    @property
    def e_s(self) -> int:
        return len(self.steps)


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


# --- evaluation ------------------------------------------------------------


class _FieldCache:
    """Per-event memo of resolve_field lookups."""

    def __init__(self, event: NormalizedEvent, aliases: FieldAliasMap):
        self._event = event
        self._aliases = aliases
        self._extras = lowered_extras_view(event)
        self._memo: Dict[str, Any] = {}

    def get(self, name: str) -> Any:
        key = name.lower()
        if key not in self._memo:
            self._memo[key] = _resolve_with_extras(self._event, key, self._aliases, self._extras)
        return self._memo[key]


def _prefilter_status(rule: StepRule, cache: _FieldCache) -> str:
    """Evaluate where_any/where_all. Returns 'pass', 'fail' or 'unusable'.

    A prefilter whose referenced fields are all MISSING is unusable (it
    cannot be evaluated at all); a prefilter with present-but-unlisted
    values simply fails.
    """
    for clauses, mode in ((rule.where_any, "any"), (rule.where_all, "all")):
        if not clauses:
            continue
        usable = False
        verdicts: List[bool] = []
        for fname, allowed in clauses.items():
            value = cache.get(fname)
            if value is MISSING:
                verdicts.append(False)
                continue
            usable = True
            allowed_lower = {a.lower() for a in allowed}
            verdicts.append(str(value).lower() in allowed_lower)
        if not usable:
            return "unusable"
        passed = any(verdicts) if mode == "any" else all(verdicts)
        if not passed:
            return "fail"
    return "pass"


def evaluate_rule(
    event: NormalizedEvent,
    compiled: CompiledRule,
    aliases: FieldAliasMap = EMPTY_ALIASES,
    gate: Optional[FrozenSet[StepTag]] = None,
    cache: Optional[_FieldCache] = None,
) -> str:
    """Evaluate one rule against one event; returns the outcome constant."""
    rule = compiled.rule
    if rule.sources and event.source not in rule.sources:
        return SOURCE_SKIPPED
    if gate is not None and rule.step not in gate:
        return GATED
    if cache is None:
        cache = _FieldCache(event, aliases)
    status = _prefilter_status(rule, cache)
    if status == "unusable":
        return PREFILTER_UNUSABLE
    if status == "fail":
        return NO_MATCH
    any_field_present = False
    for fname in rule.candidate_fields:
        value = cache.get(fname)
        if value is MISSING:
            continue
        any_field_present = True
        text = str(value)
        for regex in compiled.regexes:
            if regex.search(text):
                return FIRED
    if not any_field_present:
        return MISSING_FIELD
    return NO_MATCH


def tag_event(
    event: NormalizedEvent,
    rules: RuleSet,
    gate: Optional[Iterable[StepTag]] = None,
    aliases: FieldAliasMap = EMPTY_ALIASES,
) -> TagDecision:
    """Tag one event. All outcomes are decisions plus diagnostics.

    chosen is the max-priority candidate; ties broken by lexicographic
    rule_id. Gated-out steps never appear in candidates.
    """
    gate_set = frozenset(gate) if gate is not None else None
    cache = _FieldCache(event, aliases)
    candidates: List[Candidate] = []
    diagnostics: List[Diagnostic] = []
    for compiled in rules:
        outcome = evaluate_rule(event, compiled, aliases=aliases, gate=gate_set, cache=cache)
        if outcome == FIRED:
            candidates.append(Candidate(step=compiled.rule.step, rule_id=compiled.rule.rule_id, priority=compiled.rule.priority))
        elif outcome == MISSING_FIELD:
            diagnostics.append(Diagnostic(kind=MISSING_FIELD, rule_id=compiled.rule.rule_id))
        elif outcome == PREFILTER_UNUSABLE:
            diagnostics.append(Diagnostic(kind=PREFILTER_UNUSABLE, rule_id=compiled.rule.rule_id))

    candidates.sort(key=lambda c: (-c.priority, c.rule_id))
    chosen = candidates[0].step if candidates else None
    if len({c.step for c in candidates}) > 1:
        diagnostics.append(Diagnostic(kind=MULTI_MATCH))
    diagnostics.sort(key=lambda d: (d.kind, d.rule_id or ""))
    return TagDecision(
        event_id=event.event_id,
        candidates=tuple(candidates),
        chosen=chosen,
        diagnostics=tuple(diagnostics),
    )


NO_STEPS_OBSERVED = "NO_STEPS_OBSERVED"


@dataclass(frozen=True)
class RunDiagnostics:
    no_steps_observed: bool
    missing_steps: Tuple[StepTag, ...]  # expected steps with zero tagged events
    ambiguity_fraction: float
    matched_events: int
    multi_match_events: int
    step_counts: Mapping[str, int]

    def flags(self) -> List[str]:
        out = []
        if self.no_steps_observed:
            out.append(NO_STEPS_OBSERVED)
        out.extend(f"MISSING_{step.value}" for step in self.missing_steps)
        return out


def tag_run(
    events: Sequence[NormalizedEvent],
    rules: RuleSet,
    gate: Optional[Iterable[StepTag]] = None,
    aliases: FieldAliasMap = EMPTY_ALIASES,
    expected: Optional[Iterable[StepTag]] = None,
    decided: Optional[Dict[str, TagDecision]] = None,
) -> Tuple[List[TagDecision], RunDiagnostics]:
    """Tag a whole event table in (ts, event_id) order.

    Event-level ambiguity is |{e : |M(e)|>1}| / |{e : |M(e)|>=1}|, defined
    as 0 when no event matched anything.

    ``decided`` memoizes decisions by event id across calls on overlapping
    tables: a stored decision is reused, any other is computed and stored.
    A decision depends only on the event, the rules, the gate and the
    aliases, so one memo is sound for calls that share all three and whose
    tables never give two events the same id.
    """
    ordered = sorted(events, key=lambda e: e.sort_key())
    if decided is None:
        decisions = [tag_event(event, rules, gate=gate, aliases=aliases) for event in ordered]
    else:
        decisions = []
        for event in ordered:
            decision = decided.get(event.event_id)
            if decision is None:
                decision = decided[event.event_id] = tag_event(event, rules, gate=gate, aliases=aliases)
            decisions.append(decision)

    step_counts: Dict[str, int] = {s.value: 0 for s in STEP_TAGS}
    matched = 0
    multi = 0
    for decision in decisions:
        steps = decision.matched_steps()
        if steps:
            matched += 1
            if len(steps) > 1:
                multi += 1
        if decision.chosen is not None:
            step_counts[decision.chosen.value] += 1

    tagged_any = any(d.chosen is not None for d in decisions)
    missing: Tuple[StepTag, ...] = ()
    if expected is not None:
        missing = tuple(s for s in STEP_TAGS if s in set(expected) and step_counts[s.value] == 0)
    diag = RunDiagnostics(
        no_steps_observed=not tagged_any,
        missing_steps=missing,
        ambiguity_fraction=(multi / matched) if matched else 0.0,
        matched_events=matched,
        multi_match_events=multi,
        step_counts=step_counts,
    )
    return decisions, diag


def decision_to_dict(decision: TagDecision) -> Dict[str, Any]:
    return {
        "event_id": decision.event_id,
        "candidates": [
            {"step": c.step.value, "rule_id": c.rule_id, "priority": c.priority} for c in decision.candidates
        ],
        "chosen": decision.chosen.value if decision.chosen else None,
        "diagnostics": [
            {"kind": d.kind, **({"rule_id": d.rule_id} if d.rule_id is not None else {})}
            for d in decision.diagnostics
        ],
    }


def decision_from_dict(doc: Mapping[str, Any]) -> TagDecision:
    return TagDecision(
        event_id=doc["event_id"],
        candidates=tuple(
            Candidate(step=StepTag(c["step"]), rule_id=c["rule_id"], priority=c["priority"]) for c in doc["candidates"]
        ),
        chosen=StepTag(doc["chosen"]) if doc["chosen"] is not None else None,
        diagnostics=tuple(Diagnostic(kind=d["kind"], rule_id=d.get("rule_id")) for d in doc["diagnostics"]),
    )


def decisions_to_jsonl(decisions: Iterable[TagDecision]) -> str:
    return "".join(json.dumps(decision_to_dict(d), sort_keys=True) + "\n" for d in decisions)


def decisions_from_jsonl(source: Union[str, IO[bytes]]) -> List[TagDecision]:
    """Parse decisions.jsonl from its text or from a file opened in binary mode, line by line.

    A malformed line raises ParseError naming its line number.
    """
    decisions = []
    for lineno, line in _jsonl_lines(source, "decisions"):
        if not line.strip():
            continue
        try:
            decisions.append(decision_from_dict(json.loads(line)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"decisions line {lineno}: {type(exc).__name__}: {exc}", offending=line)
    return decisions


def run_diag_to_dict(diag: RunDiagnostics) -> Dict[str, Any]:
    return {
        "flags": diag.flags(),
        "no_steps_observed": diag.no_steps_observed,
        "missing_steps": [s.value for s in diag.missing_steps],
        "ambiguity_fraction": diag.ambiguity_fraction,
        "matched_events": diag.matched_events,
        "multi_match_events": diag.multi_match_events,
        "step_counts": dict(diag.step_counts),
    }
