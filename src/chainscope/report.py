"""The evidence.json document, rendered metric tables and the report command.

build_evidence_package builds the document itself, with no record type
in between, and read_evidence reads it back, checked. write_report renders
a run or sweep output directory. Reports are pure functions of pipeline
outputs: identical inputs yield byte-identical documents.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import ConfigError, ParseError
from .graph import Chain, EventGraph
from .metrics import CATEGORY_ORDER, AggregateMetrics, RunMetrics, aggregate_from_dict, aggregate_to_dict, run_metrics_from_dict, run_metrics_to_dict
from .model import NormalizedEvent, iso_ms, object_field, object_list, read_json, string_list, typed_value, write_json
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


def read_evidence(path: Path) -> Dict[str, Any]:
    """evidence.json, checked: each field render_run_report reads has the type
    build_evidence_package writes, and an absent list is empty; anything
    else raises ParseError naming the file and the key path."""
    doc = read_json(path)

    def entries(parent: Mapping[str, Any], key: str, strings: Tuple[str, ...], where: str = "", others: Tuple[str, ...] = ()):
        """parent[key] as a list of objects holding strings and others, each of strings a string."""
        found = object_list(path, parent, key, strings + others, where)
        for i, entry in enumerate(found):
            for name in strings:
                typed_value(path, entry, name, str, f"{where}{key}[{i}].")
        return found

    for i, section in enumerate(entries(doc, "sections", ("step", "window", "recoverability"), others=("volume", "sources"))):
        typed_value(path, section, "volume", int, f"sections[{i}].")
        string_list(path, section, "sources", f"sections[{i}].")
        entries(section, "anchors", ("when", "source", "excerpt"), f"sections[{i}].")
    entries(doc, "missing_steps", ("step", "diagnostic"))
    return doc


_REPORT_SCORES = ("tag_cov", "chain_cov", "step_r", "chain_r", "step_p", "chain_p", "reconstructability")


def render_run_report(metrics: Optional[RunMetrics], evidence: Optional[Mapping[str, Any]]) -> str:
    """The text report of a run: its scores, then its evidence sections
    with up to three anchors each, then its missing steps."""
    lines: List[str] = []
    if metrics is not None:
        lines.append(f"scenario: {metrics.scenario_id}")
        lines.append(f"sources: {', '.join(sorted(metrics.sources))}")
        lines.extend(f"{key}: {getattr(metrics, key):.3f}" for key in _REPORT_SCORES)
        if metrics.missing_steps:
            lines.append("missing: " + ", ".join(sorted(s.value for s in metrics.missing_steps)))
    if evidence is not None:
        lines.append("")
        for section in evidence.get("sections", []):
            lines.append(
                f"[{section['step']}] {section['window']}  volume={section['volume']} "
                f"sources={','.join(section['sources'])} ({section['recoverability']})"
            )
            for anchor in section.get("anchors", [])[:3]:
                lines.append(f"    {anchor['when']} {anchor['source']}: {anchor['excerpt']}")
        for missing in evidence.get("missing_steps", []):
            lines.append(f"[{missing['step']}] {missing['diagnostic']}")
    return "\n".join(lines) + "\n"


def write_report(indir: Path, out: Path) -> str:
    """Render a run or sweep output directory: text to out, JSON to out plus
    ".json". Returns "report", or "sweep report" for a sweep, whose table
    is copied as it is and whose sweep_aggregates.json is written as read."""
    out.parent.mkdir(parents=True, exist_ok=True)
    json_out = out.with_suffix(out.suffix + ".json")
    aggregates_path = indir / "sweep_aggregates.json"
    if aggregates_path.exists():
        doc = read_json(aggregates_path)
        aggregates = {
            category: aggregate_from_dict(object_field(aggregates_path, doc, category), aggregates_path, f"{category}.")
            for category in doc
        }
        table_path = indir / "budget_table.txt"
        try:
            text = table_path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{table_path} is not valid UTF-8: {exc}")
        out.write_text(text, encoding="utf-8")
        write_json(json_out, {category: aggregate_to_dict(agg) for category, agg in aggregates.items()})
        return "sweep report"
    metrics_path = indir / "metrics.json"
    evidence_path = indir / "evidence.json"
    if not metrics_path.exists() and not evidence_path.exists():
        raise ConfigError(f"no run artifacts (metrics.json/evidence.json/sweep_aggregates.json) in {indir}")
    metrics = run_metrics_from_dict(read_json(metrics_path), metrics_path) if metrics_path.exists() else None
    evidence = read_evidence(evidence_path) if evidence_path.exists() else None
    out.write_text(render_run_report(metrics, evidence), encoding="utf-8")
    doc = {"metrics": run_metrics_to_dict(metrics) if metrics else None, "evidence": evidence}
    write_json(json_out, {key: value for key, value in doc.items() if value is not None})
    return "report"


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
