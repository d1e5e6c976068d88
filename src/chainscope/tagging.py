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
from json.encoder import encode_basestring_ascii
from typing import IO, Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Pattern, Sequence, Set, Tuple, Union

from .errors import ConfigError, RuleError
from .model import (
    CANONICAL_FIELDS,
    EMPTY_ALIASES,
    FieldAliasMap,
    REQUIRED,
    FieldResolver,
    NormalizedEvent,
    field_resolver,
    object_field,
    object_list,
    parse_regex,
    read_jsonl,
    record_field,
    resolve_fields,
    sort_events,
    string_list,
    typed_value,
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


def parse_step(name: str, where: str = "") -> StepTag:
    """The step named name, in any case; where (such as "rules.yml: rules[2].'step': ") prefixes the error."""
    try:
        return StepTag(name.strip().upper())
    except ValueError:
        raise ConfigError(f"{where}unknown step tag {name!r}; valid: {[s.value for s in STEP_TAGS]}")


# diagnostics kinds
MISSING_FIELD = "MISSING_FIELD"
PREFILTER_UNUSABLE = "PREFILTER_UNUSABLE"
MULTI_MATCH = "MULTI_MATCH"

# rule-event evaluation outcomes
FIRED = "fired"
NO_MATCH = "no-match"
SOURCE_SKIPPED = "source-skipped"
GATED = "gated"


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

# one pattern: its bound search method, the literals one of which every match
# contains (None: not known), and whether they are lowered for an IGNORECASE
# pattern, to be looked for in the lowered text
Search = Tuple[Callable[[str], Any], Optional[Tuple[str, ...]], bool]


@dataclass(frozen=True)
class CompiledRule:
    """A StepRule with everything its evaluation needs worked out once."""

    rule: StepRule
    searches: Tuple[Search, ...]
    candidate_fields: Tuple[str, ...]  # lowered
    prefilters: Tuple[Prefilter, ...]  # where_any, then where_all; empty blocks left out
    fields: Tuple[str, ...]  # every lowered field the rule reads
    folded_fields: Tuple[str, ...]  # the candidate fields whose lowered text a search prefilter reads
    candidate: "Candidate"
    missing_field: "Diagnostic"
    prefilter_unusable: "Diagnostic"


def _compile_rule(rule: StepRule, regexes: Tuple[Pattern[str], ...], trees: Sequence[Any]) -> CompiledRule:
    prefilters = tuple(
        (mode_any, tuple((name.lower(), frozenset(a.lower() for a in allowed)) for name, allowed in clauses.items()))
        for clauses, mode_any in ((rule.where_any, True), (rule.where_all, False))
        if clauses
    )
    candidate_fields = tuple(name.lower() for name in rule.candidate_fields)
    fields = tuple(dict.fromkeys((*(name for _, clauses in prefilters for name, _ in clauses), *candidate_fields)))
    searches = tuple((regex.search, *required_literals(tree)) for regex, tree in zip(regexes, trees))
    return CompiledRule(
        rule=rule,
        searches=searches,
        candidate_fields=candidate_fields,
        prefilters=prefilters,
        fields=fields,
        folded_fields=candidate_fields if any(literals and fold for _, literals, fold in searches) else (),
        candidate=Candidate(step=rule.step, rule_id=rule.rule_id, priority=rule.priority),
        missing_field=Diagnostic(kind=MISSING_FIELD, rule_id=rule.rule_id),
        prefilter_unusable=Diagnostic(kind=PREFILTER_UNUSABLE, rule_id=rule.rule_id),
    )


# --- required literals -----------------------------------------------------
# A search runs only on text that holds one of the literals every match of
# its pattern contains (the prefilter of RE2, and of R. Cox, "Regular
# Expression Matching with a Trigram Index", 2012). Text without any of them
# cannot match, so skipping its search changes no outcome.


class _Opaque(Exception):
    """A parse node whose literals are not derived."""


# parse nodes that match no fixed text: they end a literal run and require nothing
_NO_LITERALS = frozenset({"LITERAL", "NOT_LITERAL", "ANY", "IN", "AT", "GROUPREF", "GROUPREF_EXISTS", "ASSERT", "ASSERT_NOT"})
_REPEATS = frozenset({"MAX_REPEAT", "MIN_REPEAT", "POSSESSIVE_REPEAT"})


def _required(nodes: Any, fold: bool) -> Optional[FrozenSet[str]]:
    """Literals one of which every match of the parse nodes contains, or None.

    A run of literal nodes, a group, a repeat of at least once and an
    alternation whose every branch requires literals each give such a set;
    the one whose shortest literal is longest is kept, then the smallest.
    With fold, literals are lowered, and a non-ASCII one ends a run: re
    folds some characters onto ASCII letters that str.lower does not, such
    as U+017F LONG S onto "s".
    """
    found: List[FrozenSet[str]] = []
    run: List[str] = []
    for op, av in nodes:
        kind = op.name
        if kind == "LITERAL" and not (fold and av > 0x7F):
            run.append(chr(av).lower() if fold else chr(av))
            continue
        if run:
            found.append(frozenset({"".join(run)}))
            run = []
        if kind == "SUBPATTERN":
            if av[1] or av[2]:  # a scoped flag, such as (?i:...) or (?-i:...)
                raise _Opaque(kind)
            required = _required(av[3], fold)
        elif kind == "ATOMIC_GROUP":
            required = _required(av, fold)
        elif kind in _REPEATS:
            required = _required(av[2], fold) if av[0] >= 1 else None
        elif kind == "BRANCH":
            branches = [_required(branch, fold) for branch in av[1]]
            required = frozenset().union(*branches) if all(branches) else None
        elif kind in _NO_LITERALS:
            required = None
        else:
            raise _Opaque(kind)
        if required:
            found.append(required)
    if run:
        found.append(frozenset({"".join(run)}))
    return max(found, key=lambda literals: (min(map(len, literals)), -len(literals)), default=None)


def required_literals(tree: Any) -> Tuple[Optional[Tuple[str, ...]], bool]:
    """For a pattern's parse tree (``model.parse_regex``): the literals one of
    which every match contains, sorted, or None when none are derived; and
    whether the pattern is IGNORECASE, which makes them lowered."""
    fold = bool(tree.state.flags & re.IGNORECASE)
    try:
        literals = _required(tree, fold)
    except _Opaque:
        return None, fold
    return (tuple(sorted(literals)) if literals else None), fold


class RuleSet:
    """Validated, compiled collection of StepRules.

    An invalid rule is named by its entry in origin, the document the
    rules were read from.
    """

    def __init__(self, rules: Sequence[StepRule], origin: str = "rules"):
        seen: Set[str] = set()
        compiled: List[CompiledRule] = []
        for i, rule in enumerate(rules):
            where = f"{origin}: rules[{i}]:"
            if rule.rule_id in seen:
                raise RuleError(f"{where} duplicate rule_id {rule.rule_id!r}")
            seen.add(rule.rule_id)
            if not rule.patterns:
                raise RuleError(f"{where} rule {rule.rule_id!r} has no patterns")
            if not math.isfinite(rule.priority):
                raise RuleError(f"{where} rule {rule.rule_id!r} has non-finite priority")
            if not rule.candidate_fields:
                raise RuleError(f"{where} rule {rule.rule_id!r} has no candidate fields")
            for name in (*rule.candidate_fields, *rule.where_any, *rule.where_all):
                if name.lower() not in CANONICAL_FIELDS:
                    raise RuleError(f"{where} rule {rule.rule_id!r} references non-canonical field {name!r}")
            regexes, trees = [], []
            for j, pattern in enumerate(rule.patterns):
                try:
                    trees.append(parse_regex(pattern))
                    regexes.append(re.compile(pattern))
                except re.error as exc:
                    raise RuleError(
                        f"{origin}: rules[{i}].patterns[{j}] of rule {rule.rule_id!r} "
                        f"is not a valid regular expression: {exc}"
                    )
            compiled.append(_compile_rule(rule, tuple(regexes), trees))
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

        rules.append(
            StepRule(
                rule_id=typed_value(origin, item, "rule_id", str, where),
                step=parse_step(typed_value(origin, item, "step", str, where), f"{origin}: {where}'step': "),
                priority=float(typed_value(origin, item, "priority", float, where, 0)),
                patterns=tuple(string_list(origin, item, "patterns", where)),
                candidate_fields=tuple(string_list(origin, item, "candidate_fields", where)),
                where_any=clauses("where_any"),
                where_all=clauses("where_all"),
                sources=tuple(string_list(origin, item, "sources", where)),
            )
        )
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


def _folded(values: Mapping[str, Optional[str]], names: Iterable[str]) -> Dict[str, Optional[str]]:
    """The lowered text of each named field, None where it is absent or not
    ASCII: re folds some non-ASCII characters that str.lower does not."""
    folded: Dict[str, Optional[str]] = {}
    for name in names:
        text = values[name]
        folded[name] = text.lower() if text is not None and text.isascii() else None
    return folded


def _outcome(compiled: CompiledRule, values: Mapping[str, Optional[str]], folded: Mapping[str, Optional[str]]) -> str:
    """Evaluate an in-scope rule on resolved field values.

    An absent field's value is None. A prefilter block whose referenced
    fields are all absent is unusable (it cannot be evaluated at all); one
    with present-but-unlisted values simply fails. folded holds
    ``_folded(values, compiled.folded_fields)``.
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
        for search, literals, fold in compiled.searches:
            if literals is not None:
                haystack = folded[name] if fold else text
                if haystack is not None:
                    for literal in literals:
                        if literal in haystack:
                            break
                    else:
                        continue  # no required literal: the search cannot match
            if search(text):
                return FIRED
    return NO_MATCH if any_field_present else MISSING_FIELD


# a source's plan: the resolvers of the fields its rules read, the fields
# whose lowered text they read, and those rules
_Plan = Tuple[Tuple[FieldResolver, ...], Tuple[str, ...], Tuple[CompiledRule, ...]]


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
        folded = tuple(dict.fromkeys(name for c in live for name in c.folded_fields))
        plan = self._plans[source] = (tuple(self._resolvers[name] for name in fields), folded, live)
        return plan

    def decide(self, event: NormalizedEvent) -> TagDecision:
        plan = self._plans.get(event.source)
        if plan is None:
            plan = self._plan(event.source)
        resolvers, folded_fields, live = plan
        values = resolve_fields(event, resolvers)
        folded = _folded(values, folded_fields)
        candidates: List[Candidate] = []
        diagnostics: List[Diagnostic] = []
        for compiled in live:
            outcome = _outcome(compiled, values, folded)
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
    ordered = sort_events(events)
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
        candidates = decision.candidates
        if candidates:
            matched += 1
            first = candidates[0].step
            if any(c.step is not first for c in candidates):
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


def _objects(doc: Mapping[str, Any], key: str) -> List[Dict[str, Any]]:
    """doc[key] as a list of objects; anything else raises TypeError naming the key."""
    values = doc[key]
    if type(values) is not list or any(type(value) is not dict for value in values):
        raise TypeError(f"{key!r} must be a list of objects, got {values!r:.60}")
    return values


def _candidate_from_dict(doc: Mapping[str, Any]) -> Candidate:
    step, rule_id, priority = record_field(doc, "step", str, REQUIRED), record_field(doc, "rule_id", str, REQUIRED), doc["priority"]
    if type(priority) not in (int, float):  # kept as read: 1 and 1.0 encode differently
        raise TypeError(f"'priority' must be a number, got {type(priority).__name__}")
    return Candidate(step=StepTag(step), rule_id=rule_id, priority=priority)


def decision_from_dict(doc: Mapping[str, Any]) -> TagDecision:
    """Build a decision from its ``decision_to_dict`` form.

    A value of the wrong JSON type raises TypeError naming its key:
    event_id, and each candidate's step and rule_id and each diagnostic's
    kind, are strings; chosen is a string or null; a diagnostic's rule_id
    is a string or absent; candidates and diagnostics are lists of
    objects; a priority is an int or a float, never a bool.
    """
    event_id = record_field(doc, "event_id", str, REQUIRED)
    if "chosen" not in doc:
        raise KeyError("chosen")
    chosen = record_field(doc, "chosen", str)
    return TagDecision(
        event_id=event_id,
        candidates=tuple(map(_candidate_from_dict, _objects(doc, "candidates"))),
        chosen=StepTag(chosen) if chosen is not None else None,
        diagnostics=tuple(
            Diagnostic(kind=record_field(d, "kind", str, REQUIRED), rule_id=record_field(d, "rule_id", str))
            for d in _objects(doc, "diagnostics")
        ),
    )


# one encoder for every line, as json.dumps(..., sort_keys=True) would build per call
_encode_decision = json.JSONEncoder(sort_keys=True).encode


def decisions_to_jsonl(decisions: Iterable[TagDecision]) -> str:
    """Each decision_to_dict as one line of JSON with sorted keys.

    event_id sorts last, so a line is the text before the id, encoded once
    per distinct (candidates, chosen, diagnostics), then the id and "}".
    Candidates and diagnostics are told apart by identity, not equality,
    as equal values such as the priorities 1 and 1.0 encode differently;
    tag_run shares one of each per rule.
    """
    heads: Dict[Tuple[Any, ...], str] = {}
    lines = []
    for d in decisions:
        shape = (tuple(map(id, d.candidates)), d.chosen, tuple(map(id, d.diagnostics)))
        head = heads.get(shape)
        if head is None:
            doc = decision_to_dict(d)
            doc["event_id"] = ""
            head = heads[shape] = _encode_decision(doc)[: -len('""}')]
        lines.append(head + encode_basestring_ascii(d.event_id) + "}\n")
    return "".join(lines)


def decisions_from_jsonl(source: Union[str, IO[bytes]]) -> List[TagDecision]:
    """Parse decisions.jsonl from its text or from a file opened in binary mode (see read_jsonl)."""
    return read_jsonl(source, "decisions", decision_from_dict)


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
