"""End-to-end pipeline orchestration and run artifact IO.

One run = ingest -> tag -> graph -> chains -> metrics/evidence, with every
parameter fixed up front. ``evaluate``, each budget of a sweep and the
ingest/tag/reconstruct stage commands all go through the functions here,
and every artifact has exactly one writer in this module. A sweep shares
the work its budgets have in common: each event is tagged once, one graph
is built over the union of the budgets' sources, and only chains and
metrics run per budget, on that graph's subgraph; every row is identical
to a separate run on the budget's sources. Artifacts are
deterministic functions of the inputs: JSON documents are dumped with
sorted keys and no generation timestamps, so re-running with the same
manifest reproduces them byte-identically.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import __version__
from .errors import ConfigError, EventIdError
from .graph import (
    Chain,
    ChainAmbiguity,
    DEFAULT_GAP_MS,
    DEFAULT_TOP_K,
    DEFAULT_WINDOW_MS,
    EventGraph,
    ambiguity_to_dict,
    build_event_graph,
    chain_ambiguity,
    chain_to_dict,
    extract_chains,
    graph_to_dict,
    induced_subgraph,
)
from .ingest import IngestResult, SourceAdapterSpec, ingest_scenario, merge_scenario
from .metrics import (
    AggregateMetrics,
    BudgetConfig,
    RunMetrics,
    SweepRow,
    aggregate,
    aggregate_to_dict,
    best_rows_by_category,
    compute_run_metrics,
    run_metrics_to_dict,
)
from .model import EMPTY_ALIASES, FieldAliasMap, NormalizedEvent, events_to_jsonl, write_json, write_jsonl
from .report import EvidencePackage, build_evidence_package, evidence_to_dict, render_budget_table
from .synth import load_ground_truth
from .tagging import (
    ExpectedStepSet,
    RuleSet,
    RunDiagnostics,
    TagDecision,
    decisions_to_jsonl,
    parse_step,
    run_diag_to_dict,
    tag_run,
)

logger = logging.getLogger(__name__)

GATE_EXPECTED = "expected"


@dataclass(frozen=True)
class RunParams:
    window_ms: int = DEFAULT_WINDOW_MS
    gap_ms: int = DEFAULT_GAP_MS
    top_k: int = DEFAULT_TOP_K
    gate: Optional[str] = None  # None, "expected", or comma-separated steps
    sources: Optional[Tuple[str, ...]] = None

    def resolve_gate(self, expected: Optional[ExpectedStepSet]) -> Optional[frozenset]:
        if self.gate is None or self.gate == "":
            return None
        if self.gate == GATE_EXPECTED:
            if expected is None:
                raise ConfigError("--gate expected requires ground truth or an expected step set")
            return frozenset(expected.steps)
        return frozenset(parse_step(part) for part in self.gate.split(",") if part.strip())


def resolve_expected(
    scenario_dir: Path, expected: Optional[ExpectedStepSet] = None
) -> Tuple[Optional[ExpectedStepSet], str]:
    """Expected steps and scenario id for one scenario directory.

    Expected steps are the explicit argument, else those of a
    ground_truth.json next to the raw files. The scenario id is the
    expected set's, else the directory name.
    """
    path = Path(scenario_dir) / "ground_truth.json"
    if expected is None and path.exists():
        expected = load_ground_truth(path).expected
    return expected, expected.scenario_id if expected else Path(scenario_dir).name


def reconstruct(
    events: Sequence[NormalizedEvent], decisions: Sequence[TagDecision], params: RunParams
) -> Tuple[EventGraph, List[Chain], ChainAmbiguity]:
    """Event graph, ranked candidate chains and their ambiguity.

    Requires exactly one decision per event; build_event_graph rejects
    duplicate ids and unknown or repeated decisions, and a count mismatch
    left after that means some event has no decision.
    """
    graph = build_event_graph(events, decisions, window_ms=params.window_ms)
    if len(decisions) != len(events):
        decided = {d.event_id for d in decisions}
        missing = next(e.event_id for e in events if e.event_id not in decided)
        raise EventIdError(f"no decision for event id {missing!r}")
    chains, ambiguity = rank_chains(graph, params)
    return graph, chains, ambiguity


def rank_chains(graph: EventGraph, params: RunParams) -> Tuple[List[Chain], ChainAmbiguity]:
    """The chain step of every run and sweep budget: ranked chains and their ambiguity."""
    chains = extract_chains(graph, top_k=params.top_k, gap_threshold_ms=params.gap_ms)
    return chains, chain_ambiguity(chains, k=params.top_k)


@dataclass
class RunResult:
    scenario_id: str
    params: RunParams
    ingest: IngestResult
    events: List[NormalizedEvent]
    decisions: List[TagDecision]
    run_diag: RunDiagnostics
    graph: EventGraph
    chains: List[Chain]
    ambiguity: ChainAmbiguity
    expected: Optional[ExpectedStepSet]
    metrics: Optional[RunMetrics]
    evidence: EvidencePackage


def run_scenario(
    scenario_dir: Path,
    adapters: Sequence[SourceAdapterSpec],
    aliases: FieldAliasMap,
    rules: RuleSet,
    params: RunParams = RunParams(),
    expected: Optional[ExpectedStepSet] = None,
) -> RunResult:
    """Run the full pipeline over one scenario directory.

    Expected steps are resolved by resolve_expected. Without them the run
    still produces decisions, chains, and evidence, just no
    precision/recall metrics.
    """
    expected, scenario_id = resolve_expected(scenario_dir, expected)
    ingest_result = ingest_scenario(
        scenario_dir, adapters, aliases, scenario_id=scenario_id, sources=params.sources
    )
    events = ingest_result.merged()
    decisions, run_diag = tag_run(
        events,
        rules,
        gate=params.resolve_gate(expected),
        aliases=aliases,
        expected=expected.steps if expected else None,
    )
    graph, chains, ambiguity = reconstruct(events, decisions, params)
    metrics = None
    if expected is not None:
        metrics = compute_run_metrics(decisions, chains, expected, events, sources=params.sources)
    evidence = build_evidence_package(
        chains, decisions, events, expected=tuple(expected.steps) if expected else None, scenario_id=scenario_id
    )
    return RunResult(
        scenario_id=scenario_id,
        params=params,
        ingest=ingest_result,
        events=events,
        decisions=decisions,
        run_diag=run_diag,
        graph=graph,
        chains=chains,
        ambiguity=ambiguity,
        expected=expected,
        metrics=metrics,
        evidence=evidence,
    )


def _digest_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_manifest(
    command: str,
    args: Mapping[str, Any],
    input_paths: Iterable[Path],
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    digests = {}
    for path in sorted(set(Path(p) for p in input_paths)):
        if path.is_file():
            digests[str(path)] = _digest_file(path)
        elif path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.is_file():
                    digests[str(child)] = _digest_file(child)
    manifest: Dict[str, Any] = {
        "tool": "chainscope",
        "version": __version__,
        "command": command,
        "parameters": dict(sorted(args.items())),
        "input_digests": digests,
    }
    if seed is not None:
        manifest["seed"] = seed
    return manifest


def _write(
    out_dir: Path, name: str, payload: Any, to_jsonl: Optional[Callable[[Sequence[Any]], str]] = None
) -> Path:
    """Write records through to_jsonl, text as is and anything else as sorted, indented JSON."""
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if to_jsonl is not None:
        write_jsonl(path, payload, to_jsonl)
    elif isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        write_json(path, payload)
    return path


def write_ingest_artifacts(ingest: IngestResult, events: Sequence[NormalizedEvent], out_dir: Path) -> List[Path]:
    return [
        _write(out_dir, "events.jsonl", events, events_to_jsonl),
        _write(out_dir, "ingest_report.json", ingest.report()),
    ]


def write_tag_artifacts(decisions: Sequence[TagDecision], run_diag: RunDiagnostics, out_dir: Path) -> List[Path]:
    return [
        _write(out_dir, "decisions.jsonl", decisions, decisions_to_jsonl),
        _write(out_dir, "run_diag.json", run_diag_to_dict(run_diag)),
    ]


def write_reconstruct_artifacts(
    graph: EventGraph, chains: Sequence[Chain], ambiguity: ChainAmbiguity, out_dir: Path
) -> List[Path]:
    return [
        _write(out_dir, "graph.json", graph_to_dict(graph)),
        _write(out_dir, "chains.json", [chain_to_dict(c) for c in chains]),
        _write(out_dir, "ambiguity.json", ambiguity_to_dict(ambiguity)),
    ]


def write_run_artifacts(result: RunResult, out_dir: Path, manifest: Optional[Mapping[str, Any]] = None) -> List[Path]:
    """Write the full artifact set for one run; returns written paths."""
    written = [
        *write_ingest_artifacts(result.ingest, result.events, out_dir),
        *write_tag_artifacts(result.decisions, result.run_diag, out_dir),
        *write_reconstruct_artifacts(result.graph, result.chains, result.ambiguity, out_dir),
    ]
    if result.metrics is not None:
        written.append(_write(out_dir, "metrics.json", run_metrics_to_dict(result.metrics)))
    written.append(_write(out_dir, "evidence.json", evidence_to_dict(result.evidence)))
    if manifest is not None:
        written.append(_write(out_dir, "manifest.json", dict(manifest)))
    return written


def budget_sweep(
    events_by_source: Mapping[str, Sequence[NormalizedEvent]],
    rules: RuleSet,
    expected: ExpectedStepSet,
    budgets: Sequence[BudgetConfig],
    aliases: FieldAliasMap = EMPTY_ALIASES,
    params: RunParams = RunParams(),
) -> List[SweepRow]:
    """Score the pipeline under each source budget, sharing the common work.

    Parsers, rules, and reconstruction parameters are fixed across
    budgets; only the available source set varies. Each event is tagged
    once, one graph is built over the union of the budgets' sources, and
    each budget runs only chains and metrics, on the subgraph of its own
    events. Rows equal a separate merge, tag and reconstruct per budget:
    a decision depends only on its event, an edge only on its two events.
    A budget naming an unavailable source becomes an error row and the
    sweep goes on. The union is merged once, so a repeated event id or a
    scenario_id mismatch anywhere in it fails the whole sweep.
    """
    available = set(events_by_source)
    gate = params.resolve_gate(expected)
    valid = [budget for budget in budgets if budget.sources <= available]
    sources = sorted(set().union(*(b.sources for b in valid)))
    # merge_scenario rejects repeated ids, which keeps the memo sound
    union = merge_scenario([events_by_source[s] for s in sources])
    # a budget takes its adapters' tables: a prenormalized record keeps its own source field
    adapter_of = {event.event_id: s for s in sources for event in events_by_source[s]}
    memo: Dict[str, TagDecision] = {}
    tagged = []
    for budget in valid:
        table = [event for event in union if adapter_of[event.event_id] in budget.sources]
        decisions, _diag = tag_run(table, rules, gate=gate, aliases=aliases, expected=expected.steps, decided=memo)
        tagged.append((table, decisions))
    graph = build_event_graph(union, [memo[event.event_id] for event in union], window_ms=params.window_ms)
    scored = iter(tagged)
    rows: List[SweepRow] = []
    for budget in budgets:
        unknown = budget.sources - available
        if unknown:
            message = f"budget {budget.name!r} references unavailable source(s): {sorted(unknown)}"
            rows.append(SweepRow(budget=budget, metrics=None, error=message))
            continue
        table, decisions = next(scored)
        chains, _ambiguity = rank_chains(induced_subgraph(graph, {d.event_id for d in decisions}), params)
        metrics = compute_run_metrics(decisions, chains, expected, table, sources=sorted(budget.sources))
        rows.append(SweepRow(budget=budget, metrics=metrics))
    return rows


@dataclass
class SweepResult:
    scenario_id: str
    rows: List[SweepRow]
    best_by_category: Dict[str, SweepRow]
    aggregates: Dict[str, AggregateMetrics]
    table: str
    sources_without_files: FrozenSet[str] = frozenset()  # named by a scored budget, no input file


def sweep_scenario(
    scenario_dir: Path,
    adapters: Sequence[SourceAdapterSpec],
    aliases: FieldAliasMap,
    rules: RuleSet,
    budgets: Sequence[BudgetConfig],
    params: RunParams = RunParams(),
    expected: Optional[ExpectedStepSet] = None,
) -> SweepResult:
    """Score every source budget of one scenario through budget_sweep."""
    expected, scenario_id = resolve_expected(scenario_dir, expected)
    if expected is None:
        raise ConfigError("sweep requires ground truth or an explicit expected step set")
    ingest_result = ingest_scenario(scenario_dir, adapters, aliases, scenario_id=scenario_id)
    rows = budget_sweep(ingest_result.events_by_source, rules, expected, budgets, aliases=aliases, params=params)
    # ingest gives every adapter a table, so a budget naming a source the
    # scenario never recorded is scored on nothing from it: flag such rows
    scored_sources = set().union(*(row.budget.sources for row in rows if row.metrics is not None))
    without_files = frozenset(s.source for s in ingest_result.stats if not s.files) & scored_sources
    if without_files:
        logger.warning(
            "%s: budgets name source(s) with no input files, scored without their events: %s",
            scenario_id,
            ", ".join(sorted(without_files)),
        )
    best = best_rows_by_category(rows)
    aggregates = {
        category: aggregate({scenario_id: (row.metrics, expected.e_s)}) for category, row in best.items()
    }
    table = render_budget_table(aggregates) if aggregates else ""
    return SweepResult(
        scenario_id=scenario_id,
        rows=rows,
        best_by_category=best,
        aggregates=aggregates,
        table=table,
        sources_without_files=without_files,
    )


def write_sweep_artifacts(result: SweepResult, out_dir: Path, manifest: Optional[Mapping[str, Any]] = None) -> List[Path]:
    rows_doc = []
    for row in result.rows:
        entry: Dict[str, Any] = {
            "budget": sorted(row.budget.sources),
            "category": row.budget.category,
            "effective_count": row.budget.effective_count,
        }
        if row.error:
            entry["error"] = row.error
        if row.metrics is not None:
            entry["metrics"] = run_metrics_to_dict(row.metrics)
            entry["best_in_category"] = result.best_by_category.get(row.budget.category) is row
            without_files = sorted(row.budget.sources & result.sources_without_files)
            if without_files:
                entry["sources_without_files"] = without_files
        rows_doc.append(entry)
    written = [
        _write(out_dir, "sweep_rows.json", {"scenario_id": result.scenario_id, "rows": rows_doc}),
        _write(
            out_dir,
            "sweep_aggregates.json",
            {category: aggregate_to_dict(agg) for category, agg in sorted(result.aggregates.items())},
        ),
        _write(out_dir, "budget_table.txt", result.table),
    ]
    if manifest is not None:
        written.append(_write(out_dir, "manifest.json", dict(manifest)))
    return written
