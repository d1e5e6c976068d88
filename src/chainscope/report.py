"""Evidence packages and rendered metric tables.

Reports are pure functions of pipeline outputs: identical inputs yield
byte-identical documents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigError
from .graph import Chain, EventGraph
from .metrics import CATEGORY_ORDER, AggregateMetrics
from .model import NormalizedEvent, iso_ms
from .tagging import NO_STEPS_OBSERVED, StepTag

EXCERPT_LEN = 160
MAX_ANCHORS_PER_STEP = 20

RECOVERABILITY_SINGLE = "single-source"
RECOVERABILITY_MULTI = "multi-source"


@dataclass(frozen=True)
class Anchor:
    event_id: str
    ts: int
    source: str
    excerpt: str


@dataclass(frozen=True)
class StepEvidence:
    step: StepTag
    anchors: Tuple[Anchor, ...]
    t_min: int
    t_max: int
    volume: int
    sources: Tuple[str, ...]

    @property
    def recoverability(self) -> str:
        return RECOVERABILITY_SINGLE if len(self.sources) == 1 else RECOVERABILITY_MULTI


@dataclass(frozen=True)
class EvidencePackage:
    scenario_id: str
    sections: Tuple[StepEvidence, ...]  # one per observed step, chain order first
    missing: Tuple[Tuple[StepTag, str], ...]  # (step, diagnostic)
    no_steps_observed: bool


def build_evidence_package(
    chains: Sequence[Chain],
    graph: EventGraph,
    expected: Optional[Sequence[StepTag]] = None,
    scenario_id: str = "",
) -> EvidencePackage:
    """Organize run output by step anchors.

    One section per observed step (best-chain steps first, remaining
    observed steps after), from the graph's tagged events; each missing
    expected step is listed with its MISSING_* diagnostic.
    """
    # the graph holds its nodes in (ts, event_id) order, so each step's list is too
    tagged: Dict[StepTag, List[NormalizedEvent]] = {}
    for event, step in zip(graph.nodes, graph.steps):
        tagged.setdefault(step, []).append(event)

    ordered_steps: List[StepTag] = []
    if chains:
        ordered_steps.extend(chains[0].steps)
    for step in StepTag:
        if step in tagged and step not in ordered_steps:
            ordered_steps.append(step)

    sections: List[StepEvidence] = []
    for step in ordered_steps:
        step_events = tagged.get(step)
        if not step_events:
            continue
        anchors = tuple(
            Anchor(
                event_id=e.event_id,
                ts=e.ts,
                source=e.source,
                excerpt=(e.text_blob or "")[:EXCERPT_LEN],
            )
            for e in step_events[:MAX_ANCHORS_PER_STEP]
        )
        sections.append(
            StepEvidence(
                step=step,
                anchors=anchors,
                t_min=step_events[0].ts,
                t_max=step_events[-1].ts,
                volume=len(step_events),
                sources=tuple(sorted({e.source for e in step_events})),
            )
        )

    missing: List[Tuple[StepTag, str]] = []
    if expected:
        observed = set(tagged)
        for step in sorted(set(expected), key=lambda s: s.value):
            if step not in observed:
                missing.append((step, f"MISSING_{step.value}"))
    return EvidencePackage(
        scenario_id=scenario_id,
        sections=tuple(sections),
        missing=tuple(missing),
        no_steps_observed=not tagged,
    )


def evidence_to_dict(package: EvidencePackage) -> Dict:
    doc: Dict = {
        "scenario_id": package.scenario_id,
        "no_steps_observed": package.no_steps_observed,
        "sections": [
            {
                "step": s.step.value,
                "t_min": s.t_min,
                "t_max": s.t_max,
                "window": f"{iso_ms(s.t_min)} - {iso_ms(s.t_max)}",
                "volume": s.volume,
                "sources": list(s.sources),
                "recoverability": s.recoverability,
                "anchors": [
                    {"event_id": a.event_id, "ts": a.ts, "when": iso_ms(a.ts), "source": a.source, "excerpt": a.excerpt}
                    for a in s.anchors
                ],
            }
            for s in package.sections
        ],
        "missing_steps": [{"step": step.value, "diagnostic": diag} for step, diag in package.missing],
    }
    if package.no_steps_observed:
        doc["flags"] = [NO_STEPS_OBSERVED]
    return doc


_TABLE_COLUMNS = (
    "Category",
    "Scenarios",
    "TagCov(wtd)",
    "ChainCov(wtd)",
    "StepR(wtd)",
    "ChainR(wtd)",
    "StepP(mean)",
    "ChainP(mean)",
    "Recon(mean)",
)


def render_budget_table(aggregates: Mapping[str, AggregateMetrics]) -> str:
    """Plain-text cross-category summary table, values rounded to 3 decimals."""
    if not aggregates:
        raise ConfigError("render_budget_table requires at least one category")
    ordered = [c for c in CATEGORY_ORDER if c in aggregates]
    ordered.extend(sorted(set(aggregates) - set(CATEGORY_ORDER)))
    rows = [_TABLE_COLUMNS]
    for category in ordered:
        agg = aggregates[category]
        rows.append(
            (
                category,
                str(agg.scenario_count),
                f"{agg.tag_cov_wtd:.3f}",
                f"{agg.chain_cov_wtd:.3f}",
                f"{agg.step_r_wtd:.3f}",
                f"{agg.chain_r_wtd:.3f}",
                f"{agg.step_p_mean:.3f}",
                f"{agg.chain_p_mean:.3f}",
                f"{agg.recon_mean:.3f}",
            )
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(_TABLE_COLUMNS))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(widths))).rstrip())
    return "\n".join(lines) + "\n"
