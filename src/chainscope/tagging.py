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
from typing import IO, Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Pattern, Sequence, Set, Tuple, Union

from .errors import ConfigError, ParseError, RuleError
from .model import (
    CANONICAL_FIELDS,
    EMPTY_ALIASES,
    FieldAliasMap,
    FieldResolver,
    NormalizedEvent,
    _jsonl_lines,
    compile_regex,
    field_resolver,
    float_value,
    object_field,
    object_list,
    resolve_fields,
    string_list,
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


# one where_any or where_all block: (any-mode, ((lowered field, lowered allowed values), ...))
Prefilter = Tuple[bool, Tuple[Tuple[str, FrozenSet[str]], ...]]


@dataclass(frozen=True)
class CompiledRule:
    """A StepRule with everything its evaluation needs worked out once."""

    rule: StepRule
    regexes: Tuple[Pattern[str], ...]
    searches: Tuple[Callable[[str], Any], ...]  # bound regex.search methods
    candidate_fields: Tuple[str, ...]  # lowered
    prefilters: Tuple[Prefilter, ...]  # where_any, then where_all; empty blocks left out
    fields: Tuple[str, ...]  # every lowered field the rule reads
    candidate: "Candidate"
    missing_field: "Diagnostic"
    prefilter_unusable: "Diagnostic"


def _compile_rule(rule: StepRule, regexes: Tuple[Pattern[str], ...]) -> CompiledRule:
    prefilters = tuple(
        (mode_any, tuple((name.lower(), frozenset(a.lower() for a in allowed)) for name, allowed in clauses.items()))
        for clauses, mode_any in ((rule.where_any, True), (rule.where_all, False))
        if clauses
    )
    candidate_fields = tuple(name.lower() for name in rule.candidate_fields)
    fields = tuple(dict.fromkeys((*(name for _, clauses in prefilters for name, _ in clauses), *candidate_fields)))
    return CompiledRule(
        rule=rule,
        regexes=regexes,
        searches=tuple(regex.search for regex in regexes),
        candidate_fields=candidate_fields,
        prefilters=prefilters,
        fields=fields,
        candidate=Candidate(step=rule.step, rule_id=rule.rule_id, priority=rule.priority),
        missing_field=Diagnostic(kind=MISSING_FIELD, rule_id=rule.rule_id),
        prefilter_unusable=Diagnostic(kind=PREFILTER_UNUSABLE, rule_id=rule.rule_id),
    )


class RuleSet:
    """Validated, compiled collection of StepRules.

    A pattern that does not compile is named by its entry in origin, the
    document the rules were read from.
    """

    def __init__(self, rules: Sequence[StepRule], origin: str = "rules"):
        seen: Set[str] = set()
        compiled: List[CompiledRule] = []
        for i, rule in enumerate(rules):
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
            regexes = []
            for j, pattern in enumerate(rule.patterns):
                try:
                    regexes.append(compile_regex(pattern))
                except re.error as exc:
                    raise RuleError(
                        f"{origin}: rules[{i}].patterns[{j}] of rule {rule.rule_id!r} "
                        f"is not a valid regular expression: {exc}"
                    )
            compiled.append(_compile_rule(rule, tuple(regexes)))
        self._compiled = tuple(compiled)

    @property
    def rules(self) -> Tuple[StepRule, ...]:
        return tuple(c.rule for c in self._compiled)

    def __len__(self) -> int:
        return len(self._compiled)

    def __iter__(self) -> Iterator[CompiledRule]:
        return iter(self._compiled)


def load_rules(doc: Mapping[str, Any], origin: str = "rules document") -> RuleSet:
    """Build a validated RuleSet from a parsed rules document.

    Every list must be a list of strings; an error names ``origin`` and the key.
    """
    if not isinstance(doc, Mapping):
        raise RuleError(f"{origin}: rules document must be a mapping with a 'rules' list")
    if doc.get("rules") is None:  # absent, or an empty "rules:" key
        return RuleSet([])
    rules: List[StepRule] = []
    for i, item in enumerate(object_list(origin, doc, "rules")):
        where = f"rules[{i}]."

        def clauses(key: str) -> Dict[str, Tuple[str, ...]]:
            table = object_field(origin, item, key, where)
            return {str(k): tuple(string_list(origin, table, k, f"{where}{key}.")) for k in table}

        try:
            rule = StepRule(
                rule_id=str(item["rule_id"]),
                step=parse_step(str(item["step"])),
                priority=float_value(item.get("priority", 0)),
                patterns=tuple(string_list(origin, item, "patterns", where)),
                candidate_fields=tuple(string_list(origin, item, "candidate_fields", where)),
                where_any=clauses("where_any"),
                where_all=clauses("where_all"),
                sources=tuple(string_list(origin, item, "sources", where)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RuleError(f"{origin}: malformed rule entry {item!r}: {exc}")
        rules.append(rule)
    return RuleSet(rules, origin)


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
    """Coarse steps a scenario should exhibit, with the technique ids it declares."""

    scenario_id: str
    steps: FrozenSet[StepTag]
    technique_ids: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigError(f"expected step set for {self.scenario_id!r} is empty")

    @property
    def e_s(self) -> int:
        return len(self.steps)


# --- evaluation ------------------------------------------------------------


_MULTI_MATCH = Diagnostic(kind=MULTI_MATCH)


def _scope_outcome(compiled: CompiledRule, source: str, gate: Optional[FrozenSet[StepTag]]) -> Optional[str]:
    """SOURCE_SKIPPED or GATED when the rule cannot fire on this source under this gate, else None."""
    rule = compiled.rule
    if rule.sources and source not in rule.sources:
        return SOURCE_SKIPPED
    if gate is not None and rule.step not in gate:
        return GATED
    return None


def _outcome(compiled: CompiledRule, values: Mapping[str, Optional[str]]) -> str:
    """Evaluate an in-scope rule on resolved field values.

    An absent field's value is None. A prefilter block whose referenced
    fields are all absent is unusable (it cannot be evaluated at all); one
    with present-but-unlisted values simply fails.
    """
    for mode_any, clauses in compiled.prefilters:
        usable = False
        passed = not mode_any
        for name, allowed in clauses:
            value = values[name]
            if value is None:
                verdict = False
            else:
                usable = True
                verdict = value.lower() in allowed
            passed = (passed or verdict) if mode_any else (passed and verdict)
        if not usable:
            return PREFILTER_UNUSABLE
        if not passed:
            return NO_MATCH
    any_field_present = False
    for name in compiled.candidate_fields:
        text = values[name]
        if text is None:
            continue
        any_field_present = True
        for search in compiled.searches:
            if search(text):
                return FIRED
    return NO_MATCH if any_field_present else MISSING_FIELD


def evaluate_rule(
    event: NormalizedEvent,
    compiled: CompiledRule,
    aliases: FieldAliasMap = EMPTY_ALIASES,
    gate: Optional[FrozenSet[StepTag]] = None,
) -> str:
    """Evaluate one rule against one event; returns the outcome constant."""
    skipped = _scope_outcome(compiled, event.source, gate)
    if skipped is not None:
        return skipped
    return _outcome(compiled, resolve_fields(event, [field_resolver(name, aliases) for name in compiled.fields]))


# a source's plan: the resolvers of the fields its rules read, and those rules
_Plan = Tuple[Tuple[FieldResolver, ...], Tuple[CompiledRule, ...]]


class _Tagger:
    """The rules of one tagging call, planned per event source.

    A source's plan is the rules that pass ``sources`` and the gate, and
    the resolvers of the fields they read; rules outside it end in
    SOURCE_SKIPPED or GATED without being evaluated.
    """

    def __init__(self, rules: RuleSet, gate: Optional[Iterable[StepTag]], aliases: FieldAliasMap):
        self._rules = tuple(rules)
        self._gate = frozenset(gate) if gate is not None else None
        self._resolvers = {name: field_resolver(name, aliases) for c in self._rules for name in c.fields}
        self._plans: Dict[str, _Plan] = {}

    def _plan(self, source: str) -> _Plan:
        live = tuple(c for c in self._rules if _scope_outcome(c, source, self._gate) is None)
        fields = dict.fromkeys(name for c in live for name in c.fields)
        plan = self._plans[source] = (tuple(self._resolvers[name] for name in fields), live)
        return plan

    def decide(self, event: NormalizedEvent) -> TagDecision:
        plan = self._plans.get(event.source)
        if plan is None:
            plan = self._plan(event.source)
        resolvers, live = plan
        values = resolve_fields(event, resolvers)
        candidates: List[Candidate] = []
        diagnostics: List[Diagnostic] = []
        for compiled in live:
            outcome = _outcome(compiled, values)
            if outcome == FIRED:
                candidates.append(compiled.candidate)
            elif outcome == MISSING_FIELD:
                diagnostics.append(compiled.missing_field)
            elif outcome == PREFILTER_UNUSABLE:
                diagnostics.append(compiled.prefilter_unusable)
        if len(candidates) > 1:
            candidates.sort(key=lambda c: (-c.priority, c.rule_id))
            if len({c.step for c in candidates}) > 1:
                diagnostics.append(_MULTI_MATCH)
        if len(diagnostics) > 1:
            diagnostics.sort(key=lambda d: (d.kind, d.rule_id or ""))
        return TagDecision(
            event_id=event.event_id,
            candidates=tuple(candidates),
            chosen=candidates[0].step if candidates else None,
            diagnostics=tuple(diagnostics),
        )


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
    return _Tagger(rules, gate, aliases).decide(event)


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
    tagger = _Tagger(rules, gate, aliases)
    if decided is None:
        decisions = [tagger.decide(event) for event in ordered]
    else:
        decisions = []
        for event in ordered:
            decision = decided.get(event.event_id)
            if decision is None:
                decision = decided[event.event_id] = tagger.decide(event)
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


# one encoder for every line, as json.dumps(..., sort_keys=True) would build per call
_encode_decision = json.JSONEncoder(sort_keys=True).encode


def decisions_to_jsonl(decisions: Iterable[TagDecision]) -> str:
    return "".join(_encode_decision(decision_to_dict(d)) + "\n" for d in decisions)


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
