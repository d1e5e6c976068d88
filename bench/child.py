"""Child-process side of the benchmark: input set-up and traced passes.

    python bench/child.py setup --hosts H --activities A --seed N --out DIR [--jsonl] [--spans FILE]
    python bench/child.py pass --spans FILE --run-id ID -- <chainscope CLI arguments>

``bench/run.py`` starts each of these in a fresh interpreter with ``src`` on
PYTHONPATH. ``setup`` generates one scenario, writes its raw files and the
dense rule pack, and with ``--jsonl`` the merged ``events.jsonl`` that
``sanitize`` reads; it prints the event count and its own set-up time as JSON.
``pass`` runs one CLI command with a span around every call that crosses
into a layer module. Spans stay in memory and are written to FILE as JSON
when the command returns.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import gc
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

LAYERS = ("ingest", "tagging", "graph", "metrics", "report", "pipeline", "model", "sanitize", "synth", "configio")
# Modules that call into the layers. Functions they import from a layer are
# wrapped in their namespace, so calls inside a layer (per event, per pair)
# stay unwrapped and the overhead stays per command, not per event.
CALLERS = ("chainscope.cli", "chainscope.pipeline", "chainscope.metrics")
BENCH_DIR = Path(__file__).resolve().parent


class Tracer:
    """Records spans (name, layer, start, end, parent, failed) and work counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[List[Any]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0

    def _open(self, name: str, layer: str) -> List[Any]:
        span = [name, layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, False]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: List[Any]) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, layer: str, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                self._close(span)
            if count is not None:
                # counting is benchmark work: its own span keeps it out of the caller's self time
                bench_span = self._open("bench.count", "bench")
                try:
                    count(self.counts, inspect.signature(fn).bind(*args, **kwargs).arguments, result)
                finally:
                    self._close(bench_span)
            return result

        return traced

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    def dump(self, path: Path) -> None:
        doc = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }
        Path(path).write_text(json.dumps(doc), encoding="utf-8")


def window_pairs(ts: List[int], window_ms: int) -> int:
    """Node pairs (i < j) with ts[j] - ts[i] <= window_ms; ts must be sorted."""
    return sum(bisect.bisect_right(ts, t + window_ms) - i - 1 for i, t in enumerate(ts))


def _count_ingest(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    report = result.report()
    counts["ingest.records"] += report["total_records"]
    counts["ingest.rejected"] += report["total_rejected"]
    counts["ingest.quarantined"] += report["total_quarantined"]


def _count_tag(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    decisions, diag = result
    counts["tagging.events"] += len(args["events"])
    counts["tagging.rule_evals"] += len(args["events"]) * len(args["rules"])
    counts["tagging.matched"] += diag.matched_events
    counts["tagging.tagged"] += sum(1 for d in decisions if d.chosen is not None)


def _count_graph(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    counts["graph.nodes"] += len(result.nodes)
    counts["graph.edges"] += len(result.edges)
    counts["graph.window_pairs"] += window_pairs([n.ts for n in result.nodes], result.window_ms)
    for edge in result.edges:
        counts[f"graph.edges.{edge.join_reason}"] += 1


def _count_chains(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    counts["graph.chains"] += len(result)


def _count_written(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    counts["pipeline.bytes_written"] += sum(Path(p).stat().st_size for p in result)


def _count_sweep(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    counts["pipeline.sweep_rows"] += len(result.rows)
    counts["pipeline.sweep_error_rows"] += sum(1 for row in result.rows if row.error)


def _count_sanitize(counts: Counter, args: Dict[str, Any], result: Any) -> None:
    report = result[2]
    counts["sanitize.replacements"] += report.total_replacements
    counts["sanitize.identifiers"] += sum(report.identifiers.values())


COUNTERS = {
    "ingest_scenario": _count_ingest,
    "tag_run": _count_tag,
    "build_event_graph": _count_graph,
    "extract_chains": _count_chains,
    "write_run_artifacts": _count_written,
    "write_sweep_artifacts": _count_written,
    "sweep_scenario": _count_sweep,
    "sanitize_dataset": _count_sanitize,
}


def install(tracer: Tracer) -> None:
    """Wrap every layer function the caller modules import, where they import it."""
    import chainscope.cli  # noqa: F401  (imports every layer)
    from chainscope import ingest, metrics

    for module_name in CALLERS:
        module = sys.modules[module_name]
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or value.__module__ == module_name:
                continue
            layer = value.__module__.rpartition(".")[2]
            if value.__module__.startswith("chainscope.") and layer in LAYERS:
                setattr(module, attr, tracer.wrap(layer, f"{layer}.{attr}", value, COUNTERS.get(attr)))
    # pipeline imports compute_run_metrics inside a function body and
    # metrics.budget_sweep calls it within its own module, so it is wrapped
    # where it is defined. merged() is a method, so it is wrapped on the class.
    metrics.compute_run_metrics = tracer.wrap("metrics", "metrics.compute_run_metrics", metrics.compute_run_metrics)
    ingest.IngestResult.merged = tracer.wrap("ingest", "ingest.IngestResult.merged", ingest.IngestResult.merged)


def scenario_spec(hosts: int, activities: int, seed: int):
    """The criterion-10 spec of the acceptance tests, with hosts, activities and seed as given."""
    from chainscope.synth import BenignConfig, HostSpec, ScenarioSpec

    return ScenarioSpec(
        scenario_id="bulk",
        seed=seed,
        hosts=tuple(HostSpec(name=f"host{i:02d}") for i in range(hosts)),
        sources=("syslog", "auth", "auditd", "zeek", "suricata", "tracee", "azure_port"),
        start_ms=1714521600000,  # 2024-05-01T00:00:00Z
        duration_s=90 * 3600,
        benign=BenignConfig(
            n_activities=activities, min_interval_s=30, max_interval_s=300, active_start_s=0, active_end_s=86399
        ),
        attack_template="dependency-chain",
        attack_start_s=7200,
    )


def cmd_setup(args: argparse.Namespace) -> int:
    import yaml

    from chainscope import configio, ingest, model, synth

    tracer = Tracer(args.run_id) if args.spans else None

    def layer_call(layer: str, fn: Callable) -> Callable:
        return tracer.wrap(layer, f"{layer}.{fn.__name__}", fn) if tracer else fn

    out = Path(args.out)
    started = time.perf_counter()
    spec = scenario_spec(args.hosts, args.activities, args.seed)
    template = layer_call("configio", configio.load_packaged_template)(spec.attack_template)
    data = layer_call("synth", synth.generate_scenario)(spec, template)
    layer_call("synth", synth.write_scenario)(data, out / "scenario")
    tables = [list(events) for _, events in sorted(data.tables.items())]
    if args.jsonl:
        merged = layer_call("ingest", ingest.merge_scenario)(tables)
        (out / "events.jsonl").write_text(layer_call("model", model.events_to_jsonl)(merged), encoding="utf-8")
    finished = time.perf_counter()

    # the dense rule pack: packaged rules plus the two benign rules
    doc = configio.load_rules_doc()
    doc["rules"] = list(doc["rules"]) + configio.load_yaml(BENCH_DIR / "benign_rules.yml")["rules"]
    (out / "rules_dense.yml").write_text(yaml.safe_dump(doc, sort_keys=False), encoding="utf-8")

    if tracer:
        tracer.dump(Path(args.spans))
    print(json.dumps({"events": sum(len(t) for t in tables), "setup_s": finished - started}))
    return 0


def cmd_pass(args: argparse.Namespace) -> int:
    tracer = Tracer(args.run_id)
    install(tracer)
    from chainscope import cli

    gc.callbacks.append(tracer.on_gc)
    try:
        return tracer.wrap("cli", "cli.main", cli.main)(args.cli_args)
    finally:
        gc.callbacks.remove(tracer.on_gc)
        tracer.dump(Path(args.spans))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--hosts", type=int, required=True)
    p.add_argument("--activities", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jsonl", action="store_true")
    p.add_argument("--spans")
    p.add_argument("--run-id", default="setup")
    p = sub.add_parser("pass")
    p.add_argument("--spans", required=True)
    p.add_argument("--run-id", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "setup":
        return cmd_setup(args)
    if args.cli_args[:1] == ["--"]:
        args.cli_args = args.cli_args[1:]
    return cmd_pass(args)


if __name__ == "__main__":
    sys.exit(main())
