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

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from .errors import ConfigError
from .graph import Chain
from .model import NormalizedEvent
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

    @property
    def source_set_name(self) -> str:
        return "+".join(sorted(self.sources))


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


def select_best_run(runs: Sequence[RunMetrics]) -> RunMetrics:
    """Best run: max StepR, tie-break by ChainR, then event volume.

    Remaining ties go to the lexicographically smallest source-set name so
    selection is fully deterministic.
    """
    if not runs:
        raise ConfigError("select_best_run requires at least one run")
    scenario = runs[0].scenario_id
    for run in runs:
        if run.scenario_id != scenario:
            raise ConfigError(f"runs span scenarios {scenario!r} and {run.scenario_id!r}")
    return min(runs, key=lambda r: (-r.step_r, -r.chain_r, -r.event_volume, r.source_set_name))


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

    def wtd(metric: Callable[[RunMetrics], float]) -> float:
        return sum(e_s * metric(m) for m, e_s in per_scenario.values()) / total_weight

    def mean(metric: Callable[[RunMetrics], float]) -> float:
        return sum(metric(m) for m, _ in per_scenario.values()) / len(per_scenario)

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
    """Pick the best valid row per budget category via select_best_run."""
    grouped: Dict[str, List[SweepRow]] = {}
    for row in rows:
        if row.metrics is None:
            continue
        grouped.setdefault(row.budget.category, []).append(row)
    best: Dict[str, SweepRow] = {}
    for category, members in grouped.items():
        winner = select_best_run([row.metrics for row in members])
        for row in members:
            if row.metrics is winner:
                best[category] = row
                break
    return best


def run_metrics_to_dict(metrics: RunMetrics) -> Dict:
    return {
        "scenario_id": metrics.scenario_id,
        "sources": sorted(metrics.sources),
        "tag_cov": metrics.tag_cov,
        "chain_cov": metrics.chain_cov,
        "step_p": metrics.step_p,
        "step_r": metrics.step_r,
        "chain_p": metrics.chain_p,
        "chain_r": metrics.chain_r,
        "reconstructability": metrics.reconstructability,
        "missing_steps": sorted(s.value for s in metrics.missing_steps),
        "extra_steps": sorted(s.value for s in metrics.extra_steps),
        "observed_steps": sorted(s.value for s in metrics.observed_steps),
        "chain_observed_steps": sorted(s.value for s in metrics.chain_observed_steps),
        "event_volume": metrics.event_volume,
        "tagged_step_count": metrics.tagged_step_count,
        "chain_step_count": metrics.chain_step_count,
    }


def aggregate_to_dict(agg: AggregateMetrics) -> Dict:
    return {
        "scenarios": list(agg.scenarios),
        "scenario_count": agg.scenario_count,
        "tag_cov_wtd": agg.tag_cov_wtd,
        "chain_cov_wtd": agg.chain_cov_wtd,
        "step_r_wtd": agg.step_r_wtd,
        "chain_r_wtd": agg.chain_r_wtd,
        "step_p_mean": agg.step_p_mean,
        "chain_p_mean": agg.chain_p_mean,
        "recon_mean": agg.recon_mean,
    }
