"""Run-level coverage/precision/recall and cross-scenario aggregation.

Coverage and recall are set-wise over step types: observed tags and the
best chain's steps are intersected with the expected step set, divided by
its size. Precision divides by everything observed, so extra steps
(evidence over-attribution) reduce it; an empty observed set gives an
undefined precision that is conservatively treated as zero.

Cross-scenario aggregation weights coverage and recall by each scenario's
expected-step count and averages precision and reconstructability
unweighted, so scenarios with few expected steps are not over-emphasized
on coverage but still count equally for per-scenario typical quality.

Reconstructability averages chain coverage with the unflagged-transition
fraction of the best chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Sequence, Set, Tuple, Union

from .errors import ConfigError, ParseError
from .graph import Chain
from .model import NormalizedEvent, string_list, typed_value
from .tagging import ExpectedStepSet, StepTag, TagDecision

CATEGORY_SINGLE = "single"
CATEGORY_COMBO = "combo"
CATEGORY_MULTI = "multi"
CATEGORY_ORDER = (CATEGORY_SINGLE, CATEGORY_COMBO, CATEGORY_MULTI)

# azure_events aggregates several evidence channels at export time, so a
# budget containing it is never a true single-source setting
DEFAULT_COMPOSITE_WEIGHTS: Mapping[str, int] = {"azure_events": 3}


@dataclass(frozen=True)
class BudgetConfig:
    sources: FrozenSet[str]
    composite_weights: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.sources:
            raise ConfigError("budget must name at least one source")

    @property
    def effective_count(self) -> int:
        return sum(int(self.composite_weights.get(s, 1)) for s in self.sources)

    @property
    def category(self) -> str:
        count = self.effective_count
        if count == 1:
            return CATEGORY_SINGLE
        if count == 2:
            return CATEGORY_COMBO
        return CATEGORY_MULTI

    @property
    def name(self) -> str:
        return "+".join(sorted(self.sources))


def categorize_budget(sources: Sequence[str], weights: Optional[Mapping[str, int]] = None) -> BudgetConfig:
    """Build a BudgetConfig with composite-stream accounting applied."""
    merged = dict(DEFAULT_COMPOSITE_WEIGHTS)
    if weights:
        merged.update(weights)
    return BudgetConfig(sources=frozenset(sources), composite_weights=merged)


@dataclass(frozen=True)
class RunMetrics:
    scenario_id: str
    sources: FrozenSet[str]
    tag_cov: float
    chain_cov: float
    step_p: float
    step_r: float
    chain_p: float
    chain_r: float
    reconstructability: float
    missing_steps: FrozenSet[StepTag]
    extra_steps: FrozenSet[StepTag]
    event_volume: int
    tagged_step_count: int  # expected step types with at least one tag
    chain_step_count: int  # expected step types covered by the best chain
    observed_steps: FrozenSet[StepTag] = frozenset()
    chain_observed_steps: FrozenSet[StepTag] = frozenset()


def default_reconstructability(chain_cov: float, best_chain: Optional[Chain]) -> float:
    """Mean of chain coverage and the best chain's unflagged-transition share.

    Zero when nothing was reconstructed. Clamped to [0, 1].
    """
    if best_chain is None:
        return 0.0
    transitions = len(best_chain.steps) - 1
    flagged_fraction = (len(best_chain.continuity_flags) / transitions) if transitions > 0 else 0.0
    value = (chain_cov + (1.0 - flagged_fraction)) / 2.0
    return max(0.0, min(1.0, value))


def compute_run_metrics(
    decisions: Sequence[TagDecision],
    chains: Sequence[Chain],
    expected: ExpectedStepSet,
    events: Sequence[NormalizedEvent],
    sources: Optional[Sequence[str]] = None,
) -> RunMetrics:
    """Score one pipeline run against the expected step set.

    observed = distinct chosen step types; chain-observed = the steps of
    the best (top-ranked) chain. StepP is 0 when nothing was observed.
    """
    if expected.e_s <= 0:
        raise ConfigError("expected step set must be non-empty")
    observed: Set[StepTag] = {d.chosen for d in decisions if d.chosen is not None}
    best_chain = chains[0] if chains else None
    chain_observed: Set[StepTag] = set(best_chain.steps) if best_chain else set()

    tagged_hits = len(observed & expected.steps)
    chain_hits = len(chain_observed & expected.steps)
    e_s = expected.e_s

    tag_cov = tagged_hits / e_s
    chain_cov = chain_hits / e_s
    step_p = (tagged_hits / len(observed)) if observed else 0.0
    chain_p = (chain_hits / len(chain_observed)) if chain_observed else 0.0

    source_set = frozenset(sources) if sources is not None else frozenset(e.source for e in events)
    return RunMetrics(
        scenario_id=expected.scenario_id,
        sources=source_set,
        tag_cov=tag_cov,
        chain_cov=chain_cov,
        step_p=step_p,
        step_r=tag_cov,
        chain_p=chain_p,
        chain_r=chain_cov,
        reconstructability=default_reconstructability(chain_cov, best_chain),
        missing_steps=frozenset(expected.steps - observed),
        extra_steps=frozenset(observed - expected.steps),
        event_volume=len(events),
        tagged_step_count=tagged_hits,
        chain_step_count=chain_hits,
        observed_steps=frozenset(observed),
        chain_observed_steps=frozenset(chain_observed),
    )


@dataclass(frozen=True)
class AggregateMetrics:
    scenarios: Tuple[str, ...]
    scenario_count: int
    tag_cov_wtd: float
    chain_cov_wtd: float
    step_r_wtd: float
    chain_r_wtd: float
    step_p_mean: float
    chain_p_mean: float
    recon_mean: float


def aggregate(per_scenario: Mapping[str, Tuple[RunMetrics, int]]) -> AggregateMetrics:
    """Cross-scenario aggregation.

    Coverage/recall are weighted by each scenario's expected-step count;
    precision and reconstructability are unweighted means.
    """
    if not per_scenario:
        raise ConfigError("aggregate requires at least one scenario")
    total_weight = sum(e_s for _, e_s in per_scenario.values())
    if total_weight <= 0:
        raise ConfigError("total expected-step weight must be positive")

    # math.fsum is correctly rounded, so neither the scenario order nor the
    # Python version (3.12 made sum() of floats compensated) moves a bit
    def wtd(metric: Callable[[RunMetrics], float]) -> float:
        return math.fsum(e_s * metric(m) for m, e_s in per_scenario.values()) / total_weight

    def mean(metric: Callable[[RunMetrics], float]) -> float:
        return math.fsum(metric(m) for m, _ in per_scenario.values()) / len(per_scenario)

    return AggregateMetrics(
        scenarios=tuple(sorted(per_scenario)),
        scenario_count=len(per_scenario),
        tag_cov_wtd=wtd(lambda m: m.tag_cov),
        chain_cov_wtd=wtd(lambda m: m.chain_cov),
        step_r_wtd=wtd(lambda m: m.step_r),
        chain_r_wtd=wtd(lambda m: m.chain_r),
        step_p_mean=mean(lambda m: m.step_p),
        chain_p_mean=mean(lambda m: m.chain_p),
        recon_mean=mean(lambda m: m.reconstructability),
    )


@dataclass(frozen=True)
class SweepRow:
    budget: BudgetConfig
    metrics: Optional[RunMetrics]
    error: Optional[str] = None


def best_rows_by_category(rows: Sequence[SweepRow]) -> Dict[str, SweepRow]:
    """The best scored row per budget category: max StepR, then ChainR, then
    event volume, then the smallest budget name; of equal ranks the first."""
    best: Dict[str, SweepRow] = {}
    ranks: Dict[str, Tuple[float, float, int, str]] = {}
    for row in rows:
        m = row.metrics
        if m is None:
            continue
        category, rank = row.budget.category, (-m.step_r, -m.chain_r, -m.event_volume, row.budget.name)
        if category not in ranks or rank < ranks[category]:
            best[category], ranks[category] = row, rank
    return best


# metrics.json holds every RunMetrics field under its name; a set is a
# sorted list, of step names for the step sets
_STEP_SETS = frozenset({"missing_steps", "extra_steps", "observed_steps", "chain_observed_steps"})
_SCALAR_KINDS = {"scenario_id": str, "event_volume": int, "tagged_step_count": int, "chain_step_count": int}  # else float


def run_metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    doc = {f.name: getattr(metrics, f.name) for f in fields(RunMetrics)}
    doc["sources"] = sorted(metrics.sources)
    for key in _STEP_SETS:
        doc[key] = sorted(s.value for s in doc[key])
    return doc


def _from_dict(cls: type, doc: Mapping[str, Any], origin: Union[str, Path], read: Callable[[str], Any], where: str = "") -> Any:
    """cls from the doc keys that name its fields, each read by read(key); a
    wrong type is named before a missing key, both by ParseError naming origin."""
    names = [f.name for f in fields(cls)]
    values = {key: read(key) for key in names if key in doc}
    missing = [key for key in names if key not in values]
    if missing:
        raise ParseError(f"{origin} lacks {', '.join(where + repr(key) for key in missing)}")
    return cls(**values)


def run_metrics_from_dict(doc: Mapping[str, Any], origin: Union[str, Path]) -> RunMetrics:
    """The RunMetrics that run_metrics_to_dict wrote as doc, values taken as they
    are; anything else raises ParseError naming origin and the key."""

    def read(key: str) -> Any:
        if key in _STEP_SETS:
            try:
                return frozenset(map(StepTag, string_list(origin, doc, key)))
            except ValueError as exc:
                raise ParseError(f"{origin}: {key!r} must list step tags: {exc}")
        if key == "sources":
            return frozenset(string_list(origin, doc, key))
        return typed_value(origin, doc, key, _SCALAR_KINDS.get(key, float))

    return _from_dict(RunMetrics, doc, origin, read)


# sweep_aggregates.json maps each category to its AggregateMetrics fields by name
def aggregate_to_dict(agg: AggregateMetrics) -> Dict[str, Any]:
    doc = {f.name: getattr(agg, f.name) for f in fields(AggregateMetrics)}
    doc["scenarios"] = list(agg.scenarios)
    return doc


def aggregate_from_dict(doc: Mapping[str, Any], origin: Union[str, Path], where: str = "") -> AggregateMetrics:
    """The AggregateMetrics that aggregate_to_dict wrote as doc, values taken as
    they are; anything else raises ParseError naming origin and where the key is."""

    def read(key: str) -> Any:
        if key == "scenarios":
            return tuple(string_list(origin, doc, key, where))
        return typed_value(origin, doc, key, int if key == "scenario_count" else float, where)

    return _from_dict(AggregateMetrics, doc, origin, read, where)
