"""The evidence.json document and rendered metric tables.

build_evidence_package builds the document itself, with no record type
in between. Reports are pure functions of pipeline outputs: identical
inputs yield byte-identical documents.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from .errors import ConfigError
from .graph import Chain, EventGraph
from .metrics import CATEGORY_ORDER, AggregateMetrics
from .model import NormalizedEvent, iso_ms
from .tagging import NO_STEPS_OBSERVED, StepTag

EXCERPT_LEN = 160
MAX_ANCHORS_PER_STEP = 20

RECOVERABILITY_SINGLE = "single-source"
RECOVERABILITY_MULTI = "multi-source"


def build_evidence_package(
    chains: Sequence[Chain],
    graph: EventGraph,
    expected: Optional[Sequence[StepTag]] = None,
    scenario_id: str = "",
) -> Dict[str, Any]:
    """The evidence.json document: the run's output organized by step anchors.

    One section per observed step (best-chain steps first, remaining
    observed steps after), from the graph's tagged events; each missing
    expected step is listed with its MISSING_* diagnostic.
    """
    # the graph holds its nodes in (ts, event_id) order, so each step's list is too
    tagged: Dict[StepTag, List[NormalizedEvent]] = {}
    for event, step in zip(graph.nodes, graph.steps):
        tagged.setdefault(step, []).append(event)

    ordered_steps: List[StepTag] = list(chains[0].steps) if chains else []
    ordered_steps.extend(step for step in StepTag if step in tagged and step not in ordered_steps)

    sections = []
    for step in ordered_steps:
        step_events = tagged.get(step)
        if not step_events:
            continue
        t_min, t_max = step_events[0].ts, step_events[-1].ts
        sources = sorted({e.source for e in step_events})
        sections.append(
            {
                "step": step.value,
                "t_min": t_min,
                "t_max": t_max,
                "window": f"{iso_ms(t_min)} - {iso_ms(t_max)}",
                "volume": len(step_events),
                "sources": sources,
                "recoverability": RECOVERABILITY_SINGLE if len(sources) == 1 else RECOVERABILITY_MULTI,
                "anchors": [
                    {
                        "event_id": e.event_id,
                        "ts": e.ts,
                        "when": iso_ms(e.ts),
                        "source": e.source,
                        "excerpt": (e.text_blob or "")[:EXCERPT_LEN],
                    }
                    for e in step_events[:MAX_ANCHORS_PER_STEP]
                ],
            }
        )

    missing = sorted(set(expected or ()) - set(tagged), key=lambda s: s.value)
    doc: Dict[str, Any] = {
        "scenario_id": scenario_id,
        "no_steps_observed": not tagged,
        "sections": sections,
        "missing_steps": [{"step": step.value, "diagnostic": f"MISSING_{step.value}"} for step in missing],
    }
    if not tagged:
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
