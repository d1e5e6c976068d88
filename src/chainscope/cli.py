"""Command line interface.

Subcommands: ingest, tag, reconstruct, evaluate, sweep, synth, sanitize,
report. All configuration comes from files plus flags; the only
environment variable consulted is CHAINSCOPE_SALT_FILE (salt path for the
sanitizer). Exit codes: 0 success (including empty results), 1 usage
error, 2 validation error, 3 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from . import __version__
from .configio import (
    load_adapters,
    load_aliases,
    load_budgets,
    load_weights,
    load_packaged_scenario,
    load_packaged_template,
    load_policy,
    load_rules_doc,
    load_scenario_spec,
    load_template,
)
from .errors import ChainscopeError, ConfigError
from .graph import DEFAULT_GAP_MS, DEFAULT_TOP_K, DEFAULT_WINDOW_MS
from .ingest import ingest_scenario
from .model import events_from_jsonl, events_to_jsonl, write_json
from .pipeline import (
    RunParams,
    build_manifest,
    reconstruct,
    resolve_expected,
    run_scenario,
    sweep_scenario,
    write_ingest_artifacts,
    write_reconstruct_artifacts,
    write_run_artifacts,
    write_sweep_artifacts,
    write_tag_artifacts,
)
from .sanitize import PseudonymMap, sanitize_dataset, salt_reference
from .synth import generate_scenario, write_scenario
from .tagging import ExpectedStepSet, decisions_from_jsonl, load_rules, parse_step, tag_run


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's default 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="chainscope", description="telemetry-to-chain forensic pipeline")
    parser.add_argument("--version", action="version", version=f"chainscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--adapters", type=Path, help="adapters YAML (default: packaged)")
        p.add_argument("--aliases", type=Path, help="alias map YAML (default: packaged)")

    def add_recon_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--window", type=float, default=DEFAULT_WINDOW_MS / 1000, help="edge window, seconds")
        p.add_argument("--gap", type=float, default=DEFAULT_GAP_MS / 1000, help="continuity gap threshold, seconds")
        p.add_argument("--topk", type=int, default=DEFAULT_TOP_K, help="max candidate chains")

    p = sub.add_parser("ingest", help="parse and normalize a scenario directory")
    p.add_argument("--scenario-dir", type=Path, required=True)
    p.add_argument("--sources", help="comma-separated source subset")
    add_common_config(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("tag", help="tag a normalized event table")
    p.add_argument("--events", type=Path, required=True, help="events.jsonl")
    p.add_argument("--rules", type=Path, required=True)
    p.add_argument("--gate", help="comma-separated steps, or 'expected'")
    p.add_argument("--expected-steps", help="comma-separated expected steps")
    add_common_config(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("reconstruct", help="build the event graph and extract chains")
    p.add_argument("--events", type=Path, required=True)
    p.add_argument("--decisions", type=Path, required=True)
    add_recon_params(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("evaluate", help="full pipeline run with metrics and evidence")
    p.add_argument("--scenario-dir", type=Path, required=True)
    p.add_argument("--rules", type=Path)
    p.add_argument("--sources", help="comma-separated source subset")
    p.add_argument("--gate", help="comma-separated steps, or 'expected'")
    p.add_argument("--expected-steps", help="override expected steps (comma-separated)")
    add_common_config(p)
    add_recon_params(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("sweep", help="rerun the pipeline under each source budget")
    p.add_argument("--scenario-dir", type=Path, required=True)
    p.add_argument("--budgets", type=Path, required=True)
    p.add_argument("--weights", type=Path, help="composite-stream weights YAML (source -> channel count)")
    p.add_argument("--rules", type=Path)
    p.add_argument("--gate", help="comma-separated steps, or 'expected'")
    add_common_config(p)
    add_recon_params(p)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("synth", help="generate a synthetic scenario dataset")
    p.add_argument("--spec", required=True, help="scenario spec YAML path or packaged scenario name")
    p.add_argument("--template", type=Path, help="attack template YAML (default: packaged by id)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("sanitize", help="pseudonymize a normalized event table")
    p.add_argument("--in", dest="infile", type=Path, required=True, help="events.jsonl")
    p.add_argument("--policy", type=Path, help="policy YAML (default: packaged)")
    p.add_argument("--salt-file", type=Path, help="salt file (or CHAINSCOPE_SALT_FILE)")
    p.add_argument("--mappings-dir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("report", help="render reports from run artifacts")
    p.add_argument("--in", dest="indir", type=Path, required=True, help="run or sweep output directory")
    p.add_argument("--out", type=Path, required=True)
    return parser


def _split_csv(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [part.strip() for part in value.split(",") if part.strip()]


def _params_from_args(args: argparse.Namespace) -> RunParams:
    return RunParams(
        window_ms=round(args.window * 1000),
        gap_ms=round(args.gap * 1000),
        top_k=args.topk,
        gate=getattr(args, "gate", None),
        sources=tuple(_split_csv(getattr(args, "sources", None)) or ()) or None,
    )


def _expected_from_args(args: argparse.Namespace) -> Optional[ExpectedStepSet]:
    steps = _split_csv(getattr(args, "expected_steps", None))
    if not steps:
        return None
    scenario = getattr(args, "scenario_dir", None)
    # the scenario id comes from ground truth when there is one, as without the flag
    scenario_id = resolve_expected(scenario)[1] if scenario else "cli"
    return ExpectedStepSet(scenario_id=scenario_id, steps=frozenset(parse_step(s) for s in steps))


def _load_rules_file(path: Optional[Path]):
    return load_rules(load_rules_doc(path))


def _cmd_ingest(args: argparse.Namespace) -> int:
    adapters = load_adapters(args.adapters)
    aliases = load_aliases(args.aliases)
    _expected, scenario_id = resolve_expected(args.scenario_dir)
    result = ingest_scenario(
        args.scenario_dir, adapters, aliases, scenario_id=scenario_id, sources=_split_csv(args.sources)
    )
    write_ingest_artifacts(result, result.merged(), args.out)
    print(f"ingested {result.report()['total_records']} events -> {args.out}")
    return 0


def _cmd_tag(args: argparse.Namespace) -> int:
    aliases = load_aliases(args.aliases)
    rules = _load_rules_file(args.rules)
    events = events_from_jsonl(args.events.read_text(encoding="utf-8"))
    expected = _expected_from_args(args)
    gate = RunParams(gate=args.gate).resolve_gate(expected)
    decisions, diag = tag_run(events, rules, gate=gate, aliases=aliases, expected=expected.steps if expected else None)
    write_tag_artifacts(decisions, diag, args.out)
    print(f"tagged {diag.matched_events} matched events -> {args.out}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    events = events_from_jsonl(args.events.read_text(encoding="utf-8"))
    decisions = decisions_from_jsonl(args.decisions.read_text(encoding="utf-8"))
    graph, chains, ambiguity = reconstruct(events, decisions, _params_from_args(args))
    write_reconstruct_artifacts(graph, chains, ambiguity, args.out)
    print(f"extracted {len(chains)} chain(s) -> {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    adapters = load_adapters(args.adapters)
    aliases = load_aliases(args.aliases)
    rules = _load_rules_file(args.rules)
    params = _params_from_args(args)
    expected = _expected_from_args(args)
    result = run_scenario(args.scenario_dir, adapters, aliases, rules, params=params, expected=expected)
    manifest = build_manifest(
        "evaluate",
        {
            "scenario_dir": str(args.scenario_dir),
            "rules": str(args.rules) if args.rules else "<packaged>",
            "window_ms": params.window_ms,
            "gap_ms": params.gap_ms,
            "top_k": params.top_k,
            "gate": params.gate or "",
            "sources": ",".join(params.sources or ()),
        },
        [p for p in (args.scenario_dir, args.rules, args.adapters, args.aliases) if p],
    )
    write_run_artifacts(result, args.out, manifest=manifest)
    if result.metrics is not None:
        m = result.metrics
        print(
            f"{result.scenario_id}: StepR={m.step_r:.3f} StepP={m.step_p:.3f} "
            f"ChainR={m.chain_r:.3f} missing={sorted(s.value for s in m.missing_steps)}"
        )
    else:
        print(f"{result.scenario_id}: tagged run complete (no ground truth; metrics skipped)")
    for flag in result.run_diag.flags():
        print(f"  diagnostic: {flag}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    adapters = load_adapters(args.adapters)
    aliases = load_aliases(args.aliases)
    rules = _load_rules_file(args.rules)
    extra_weights = load_weights(args.weights) if args.weights else None
    budgets, _weights = load_budgets(args.budgets, extra_weights=extra_weights)
    deduped = []
    seen = set()
    for budget in budgets:
        if budget.sources in seen:
            print(f"warning: duplicate budget {budget.name} ignored", file=sys.stderr)
            continue
        seen.add(budget.sources)
        deduped.append(budget)
    params = _params_from_args(args)
    result = sweep_scenario(args.scenario_dir, adapters, aliases, rules, deduped, params=params)
    manifest = build_manifest(
        "sweep",
        {
            "scenario_dir": str(args.scenario_dir),
            "budgets": str(args.budgets),
            "window_ms": params.window_ms,
            "gap_ms": params.gap_ms,
            "top_k": params.top_k,
            "gate": params.gate or "",
        },
        [p for p in (args.scenario_dir, args.budgets, args.rules, args.adapters, args.aliases) if p],
    )
    write_sweep_artifacts(result, args.out, manifest=manifest)
    sys.stdout.write(result.table)
    failures = [row for row in result.rows if row.error]
    for row in failures:
        print(f"warning: {row.error}", file=sys.stderr)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    spec_arg = args.spec
    if Path(spec_arg).exists():
        spec = load_scenario_spec(Path(spec_arg))
    else:
        spec = load_packaged_scenario(spec_arg)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    template = None
    if args.template:
        template = load_template(args.template)
    elif spec.attack_template:
        template = load_packaged_template(spec.attack_template)
    data = generate_scenario(spec, template)
    written = write_scenario(data, args.out)
    total = sum(len(t) for t in data.tables.values())
    print(f"generated {total} events across {len(data.tables)} source(s) -> {args.out}")
    for path in written:
        print(f"  {path.name}")
    return 0


def _cmd_sanitize(args: argparse.Namespace) -> int:
    policy = load_policy(args.policy)
    salt_path = args.salt_file or (Path(os.environ["CHAINSCOPE_SALT_FILE"]) if "CHAINSCOPE_SALT_FILE" in os.environ else None)
    if salt_path is None:
        raise ConfigError("no salt: pass --salt-file or set CHAINSCOPE_SALT_FILE")
    salt = Path(salt_path).read_bytes().strip()
    if not salt:
        raise ConfigError(f"salt file {salt_path} is empty")
    events = events_from_jsonl(args.infile.read_text(encoding="utf-8"))
    tables: Dict[str, List] = {}
    for event in events:
        tables.setdefault(event.source, []).append(event)

    mappings_dir = Path(args.mappings_dir)
    mappings_dir.mkdir(parents=True, exist_ok=True)
    persisted = {}
    for path in sorted(mappings_dir.glob("*.json")):
        persisted[path.stem] = json.loads(path.read_text(encoding="utf-8")).get("mappings", {})
    pmap = PseudonymMap(persisted, salt_ref=salt_reference(salt))

    sanitized, pmap, sanitize_report = sanitize_dataset(tables, policy, salt, pmap)
    merged = sorted((e for events in sanitized.values() for e in events), key=lambda e: e.sort_key())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(events_to_jsonl(merged), encoding="utf-8")
    for category, mapping in pmap.to_dict().items():
        payload = {"category": category, "salt_ref": pmap.salt_ref, "mappings": mapping}
        write_json(mappings_dir / f"{category}.json", payload)
    print(
        f"sanitized {sum(len(v) for v in sanitized.values())} events; "
        f"replacements={dict(sanitize_report.replacements)} -> {args.out}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    indir = Path(args.indir)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sweep_rows = indir / "sweep_aggregates.json"
    if sweep_rows.exists():
        table_path = indir / "budget_table.txt"
        text = table_path.read_text(encoding="utf-8") if table_path.exists() else ""
        doc = json.loads(sweep_rows.read_text(encoding="utf-8"))
        out.write_text(text, encoding="utf-8")
        write_json(out.with_suffix(out.suffix + ".json"), doc)
        print(f"sweep report -> {out}")
        return 0
    metrics_path = indir / "metrics.json"
    evidence_path = indir / "evidence.json"
    if not metrics_path.exists() and not evidence_path.exists():
        raise ConfigError(f"no run artifacts (metrics.json/evidence.json/sweep_aggregates.json) in {indir}")
    lines: List[str] = []
    doc: Dict[str, Any] = {}
    if metrics_path.exists():
        metrics_doc = json.loads(metrics_path.read_text(encoding="utf-8"))
        doc["metrics"] = metrics_doc
        lines.append(f"scenario: {metrics_doc.get('scenario_id', '?')}")
        lines.append(f"sources: {', '.join(metrics_doc.get('sources', []))}")
        for key in ("tag_cov", "chain_cov", "step_r", "chain_r", "step_p", "chain_p", "reconstructability"):
            lines.append(f"{key}: {metrics_doc.get(key, 0):.3f}")
        if metrics_doc.get("missing_steps"):
            lines.append("missing: " + ", ".join(metrics_doc["missing_steps"]))
    if evidence_path.exists():
        evidence_doc = json.loads(evidence_path.read_text(encoding="utf-8"))
        doc["evidence"] = evidence_doc
        lines.append("")
        for section in evidence_doc.get("sections", []):
            lines.append(
                f"[{section['step']}] {section['window']}  volume={section['volume']} "
                f"sources={','.join(section['sources'])} ({section['recoverability']})"
            )
            for anchor in section.get("anchors", [])[:3]:
                lines.append(f"    {anchor['when']} {anchor['source']}: {anchor['excerpt']}")
        for missing in evidence_doc.get("missing_steps", []):
            lines.append(f"[{missing['step']}] {missing['diagnostic']}")
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_json(out.with_suffix(out.suffix + ".json"), doc)
    print(f"report -> {out}")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "tag": _cmd_tag,
    "reconstruct": _cmd_reconstruct,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "synth": _cmd_synth,
    "sanitize": _cmd_sanitize,
    "report": _cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help/--version
        return int(exc.code or 0)
    except ChainscopeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
