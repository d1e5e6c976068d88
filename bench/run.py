"""chainscope benchmark: the user-facing commands on fixed synthetic fixtures.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py                    # every workload, untraced then traced
    python3 bench/run.py --workload NAME --write-reference

A run generates the workload's inputs from the seed (three times, in fresh
processes; ``setup_s`` is the median), then runs the CLI command once per
pass, each pass in a fresh single-threaded child process, until ``--seconds``
are used up (at least three passes). Every pass is checked: exit code, the
workload's metric identities, byte-identical artifacts across passes, work
counts computed from the artifacts and, for the default seed, the committed
reference digests (other seeds: the reference shape within 5%).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs an
untraced, a traced and an untraced pass and prints the per-layer metrics:
self time, calls and failures of every layer from spans recorded around
each call into a layer module (see child.py), work counts, and the tracing
overhead (traced wall minus the untraced median). The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the run exits
1 when any check fails. Workloads and metrics are described in
BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from child import LAYERS, window_pairs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"

DEFAULT_SEED = 13
SETUPS = 3
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 165  # no pass is started that could end after this
SHAPE_TOLERANCE = 0.05
CALIBRATION_SIZE = 60_000

FULL_BUDGET = "auditd+auth+azure_port+suricata+syslog+tracee+zeek"
STEP_R_BY_BUDGET = {"syslog": 0.5, "syslog+zeek": 0.75, FULL_BUDGET: 0.75}
SPARSE_TOP_CHAIN = ["OUTBOUND_CONN", "INSTALL", "DOWNLOAD"]
TOKEN_RE = re.compile(r"\b(?:HOST|USER|RES|DOM)_\d{6}\b")


@dataclass(frozen=True)
class Workload:
    kind: str  # evaluate-dense, evaluate-sparse, sweep or sanitize
    hosts: int
    activities: int
    cli: Tuple[str, ...]  # relative to the run directory; the pass writes under pass/


WORKLOADS = {
    "evaluate-dense-13k": Workload(
        "evaluate-dense", 12, 475,
        ("evaluate", "--scenario-dir", "inputs/scenario", "--rules", "inputs/rules_dense.yml", "--out", "pass/out"),
    ),
    "evaluate-sparse-13k": Workload(
        "evaluate-sparse", 12, 475,
        ("evaluate", "--scenario-dir", "inputs/scenario", "--gate", "expected", "--out", "pass/out"),
    ),
    "sweep-dense-6k": Workload(
        "sweep", 12, 240,
        ("sweep", "--scenario-dir", "inputs/scenario", "--rules", "inputs/rules_dense.yml",
         "--budgets", "inputs/budgets.yml", "--out", "pass/out"),
    ),
    "sanitize-13k": Workload(
        "sanitize", 12, 475,
        ("sanitize", "--in", "inputs/events.jsonl", "--salt-file", "inputs/salt.txt",
         "--mappings-dir", "pass/out/mappings", "--out", "pass/out/events.jsonl"),
    ),
}

# counts compared with the default seed's reference on other seeds
SHAPE_KEYS = {
    "evaluate-dense": ("tagging.events", "graph.nodes", "graph.edges"),
    "evaluate-sparse": ("tagging.events", "graph.nodes"),
    "sweep": ("tagging.events",),
    "sanitize": ("sanitize.replacements",),
}

END_TO_END = [
    ("wall_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("passed_frac", "ratio"),
]
# inclusive time of the named spans
SPAN_TIMES = {
    "ingest.merge_s": ("ingest.IngestResult.merged", "ingest.merge_scenario"),
    "graph.build_s": ("graph.build_event_graph",),
    "graph.extract_chains_s": ("graph.extract_chains",),
    "pipeline.write_s": ("pipeline.write_run_artifacts", "pipeline.write_sweep_artifacts"),
    "model.jsonl_write_s": ("model.events_to_jsonl",),
    "model.jsonl_read_s": ("model.events_from_jsonl",),
    "metrics.score_s": ("metrics.compute_run_metrics",),
    "report.table_s": ("report.render_budget_table",),
    "report.evidence_s": ("report.build_evidence_package",),
}
COUNTS = [
    "ingest.records", "ingest.rejected", "ingest.quarantined",
    "tagging.rule_evals", "tagging.tagged",
    "graph.nodes", "graph.window_pairs", "graph.edges", "graph.edges.shared_host", "graph.edges.shared_user",
    "graph.edges.shared_process", "graph.edges.network_consistent", "graph.chains",
    "pipeline.bytes_written", "pipeline.sweep_rows", "pipeline.sweep_error_rows",
    "sanitize.identifiers", "sanitize.replacements",
]
PER_LAYER = (
    [(f"{layer}.{m}", u) for layer in LAYERS for m, u in (("busy_s", "s"), ("calls", "count"), ("failures", "count"))]
    + [(name, "s") for name in SPAN_TIMES]
    + [(name, "bytes" if name == "pipeline.bytes_written" else "count") for name in COUNTS]
    + [
        ("tagging.matched_ratio", "ratio"),
        ("graph.edge_yield", "ratio"),
        ("configio.load_s", "s"),
        ("synth.generate_s", "s"),
        ("synth.write_s", "s"),
        ("cli.busy_s", "s"),
        ("proc.cpu_s", "s"),
        ("proc.gc_s", "s"),
        ("proc.gc_collections", "count"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
    ]
)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    traced: bool
    digests: Dict[str, str] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    units: int = 1
    failed_units: int = 0
    events: int = 0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: List[str], cwd: Path, log: Path) -> Dict[str, Any]:
    """Run one child to completion through launch.py.

    Returns its wall time, exit code, CPU time and peak RSS (KiB)."""
    launcher = [sys.executable, str(BENCH / "launch.py"), str(log), str(PASS_TIMEOUT_S), "--"]
    proc = subprocess.run(launcher + argv, cwd=cwd, env=child_env(), stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path, skip: Tuple[str, ...] = ()) -> Dict[str, str]:
    return {
        str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file() and p.name not in skip
    }


def calibrate() -> float:
    """Seconds to build, hash and sort a fixed table of strings, as the pipeline does.

    A loop over small integers touches almost no memory and misses the
    slowdowns that memory-heavy passes see on a shared machine; this table
    takes several MiB."""
    started = time.perf_counter()
    table = {f"event-{i:07d}": (i * 7919) % 100_003 for i in range(CALIBRATION_SIZE)}
    sorted(table.items(), key=lambda item: (item[1], item[0]))
    return time.perf_counter() - started


def load_json(path: Path) -> Any:
    return json.loads(path.read_text(encoding="utf-8"))


class Run:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = WORK / name
        self.started = time.perf_counter()
        self.errors: List[str] = []
        self.setups: List[Dict[str, Any]] = []
        self.passes: List[Pass] = []
        self.checked: Dict[Tuple, Tuple[List[str], Dict[str, float], int, int]] = {}
        self.spans_doc: Dict[str, Any] = {}
        self.setup_spans: Dict[str, Any] = {}
        # attempted units per pass: one per pass, or one per sweep row
        self.units = 1
        if self.workload.kind == "sweep":
            import yaml

            self.units = len(yaml.safe_load((BENCH / "budgets.yml").read_text(encoding="utf-8"))["budgets"])

    # -- set-up ---------------------------------------------------------------

    def set_up(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        count = 1 if self.trace else SETUPS
        for i in range(count):
            target = self.dir / f"inputs{i}"
            argv = [
                sys.executable, str(BENCH / "child.py"), "setup",
                "--hosts", str(self.workload.hosts), "--activities", str(self.workload.activities),
                "--seed", str(self.seed), "--out", str(target),
            ]
            if self.workload.kind == "sanitize":
                argv.append("--jsonl")
            if self.trace:
                argv += ["--spans", str(self.dir / "setup_spans.json")]
            code = run_child(argv, self.dir, self.dir / f"setup{i}")["code"]
            if code != 0:
                raise RuntimeError(f"set-up exited {code}: {(self.dir / f'setup{i}.err').read_text()[-2000:]}")
            self.setups.append(json.loads((self.dir / f"setup{i}.out").read_text().splitlines()[-1]))
            if i and tree_digests(target) != tree_digests(self.dir / "inputs0"):
                self.errors.append(f"set-up {i} produced different inputs than set-up 0 for the same seed")
        (self.dir / "inputs0").rename(self.dir / "inputs")
        for i in range(1, count):
            shutil.rmtree(self.dir / f"inputs{i}")
        shutil.copy(BENCH / "budgets.yml", self.dir / "inputs" / "budgets.yml")
        shutil.copy(BENCH / "salt.txt", self.dir / "inputs" / "salt.txt")
        if self.trace:
            self.setup_spans = load_json(self.dir / "setup_spans.json")
        if self.workload.kind == "sanitize":
            if TOKEN_RE.search((self.dir / "inputs" / "events.jsonl").read_text(encoding="utf-8")):
                self.errors.append("sanitize input already contains pseudonym tokens")

    @property
    def events(self) -> int:
        return self.setups[0]["events"]

    # -- passes ---------------------------------------------------------------

    def run_pass(self, traced: bool) -> Pass:
        pass_dir = self.dir / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        cli = list(self.workload.cli)
        if traced:
            run_id = f"{self.name}-{self.seed}-{len(self.passes)}"
            argv = [sys.executable, str(BENCH / "child.py"), "pass", "--spans", "pass/spans.json",
                    "--run-id", run_id, "--", *cli]
        else:
            argv = [sys.executable, "-m", "chainscope.cli", *cli]
        usage = run_child(argv, self.dir, pass_dir / "log")
        result = Pass(
            wall_s=usage["wall_s"], cpu_s=usage["cpu_s"], rss_mb=usage["maxrss_kib"] / 1024,
            code=usage["code"], traced=traced,
        )
        if result.code != 0:
            result.errors.append(f"exit {code}: {(pass_dir / 'log.err').read_text()[-2000:]}")
        else:
            self.check_pass(result, pass_dir / "out")
        if traced:
            self.spans_doc = load_json(pass_dir / "spans.json")
        result.units = self.units
        if result.errors:
            # a failure of the pass as a whole fails every row it attempted
            result.failed_units = result.failed_units or result.units
        self.passes.append(result)
        return result

    def check_pass(self, result: Pass, out: Path) -> None:
        result.digests = tree_digests(out, skip=("manifest.json",))
        if self.passes and result.digests != self.passes[0].digests:
            differing = sorted(k for k in set(result.digests) | set(self.passes[0].digests)
                               if result.digests.get(k) != self.passes[0].digests.get(k))
            result.errors.append(f"artifacts differ from the first pass: {differing}")
        key = tuple(sorted(result.digests.items()))
        if key not in self.checked:
            errors, counts = [], {}
            try:
                counts, events = self.artifact_counts(out)
                failed_rows = self.check_artifacts(out, counts, events, errors)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
                events, failed_rows = 0, 0
            self.checked[key] = (errors, counts, events, failed_rows)
        errors, counts, events, failed_rows = self.checked[key]
        result.errors.extend(errors)
        result.counts = dict(counts)
        result.events = events
        result.failed_units = failed_rows

    def artifact_counts(self, out: Path) -> Tuple[Dict[str, float], int]:
        """Work counts computed from the artifacts alone, and the events processed."""
        kind = self.workload.kind
        counts: Dict[str, float] = {}
        if kind.startswith("evaluate"):
            from chainscope.configio import load_rules_doc

            report = load_json(out / "ingest_report.json")
            counts["ingest.records"] = report["total_records"]
            counts["ingest.rejected"] = report["total_rejected"]
            counts["ingest.quarantined"] = report["total_quarantined"]
            decisions = [json.loads(line) for line in (out / "decisions.jsonl").read_text().splitlines()]
            rules_path = self.dir / "inputs" / "rules_dense.yml" if kind == "evaluate-dense" else None
            n_rules = len(load_rules_doc(rules_path)["rules"])
            counts["tagging.events"] = len(decisions)
            counts["tagging.rule_evals"] = len(decisions) * n_rules
            counts["tagging.matched"] = load_json(out / "run_diag.json")["matched_events"]
            counts["tagging.tagged"] = sum(1 for d in decisions if d["chosen"] is not None)
            graph = load_json(out / "graph.json")
            counts["graph.nodes"] = len(graph["nodes"])
            counts["graph.edges"] = len(graph["edges"])
            counts["graph.window_pairs"] = window_pairs([n["ts"] for n in graph["nodes"]], graph["window_ms"])
            for edge in graph["edges"]:
                reason = f"graph.edges.{edge['join_reason']}"
                counts[reason] = counts.get(reason, 0) + 1
            counts["graph.chains"] = len(load_json(out / "chains.json"))
            counts["pipeline.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            return counts, len(decisions)
        if kind == "sweep":
            rows = load_json(out / "sweep_rows.json")["rows"]
            counts["pipeline.sweep_rows"] = len(rows)
            counts["pipeline.sweep_error_rows"] = sum(1 for row in rows if "error" in row)
            counts["tagging.events"] = sum(row["metrics"]["event_volume"] for row in rows if "metrics" in row)
            counts["pipeline.bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            return counts, counts["tagging.events"]
        text = (out / "events.jsonl").read_text(encoding="utf-8")
        counts["sanitize.replacements"] = len(TOKEN_RE.findall(text))
        counts["sanitize.identifiers"] = sum(
            len(load_json(p)["mappings"]) for p in sorted((out / "mappings").glob("*.json"))
        )
        return counts, text.count("\n")

    def check_artifacts(self, out: Path, counts: Dict[str, float], events: int, errors: List[str]) -> int:
        """Appends failed checks to errors; returns the number of failed sweep rows."""
        kind = self.workload.kind
        if kind.startswith("evaluate"):
            if counts["ingest.records"] != self.events:
                errors.append(f"ingested {counts['ingest.records']} of {self.events} generated records")
            if counts["ingest.rejected"] or counts["ingest.quarantined"]:
                errors.append(f"rejected {counts['ingest.rejected']}, quarantined {counts['ingest.quarantined']}")
            metrics = load_json(out / "metrics.json")
            if kind == "evaluate-dense":
                expected = {"step_r": 0.75, "chain_r": 0.75}
            else:
                expected = {"step_r": 0.75, "step_p": 1.0, "missing_steps": ["EXFIL"]}
            for key, value in expected.items():
                if metrics[key] != value:
                    errors.append(f"{key} is {metrics[key]}, expected {value}")
            if kind == "evaluate-sparse":
                chains = load_json(out / "chains.json")
                top = chains[0]["steps"] if chains else None
                if top != SPARSE_TOP_CHAIN:
                    errors.append(f"top chain is {top}, expected {SPARSE_TOP_CHAIN}")
            return 0
        if kind == "sweep":
            failed = 0
            rows = load_json(out / "sweep_rows.json")["rows"]
            by_budget = {"+".join(row["budget"]): row for row in rows}
            for row in rows:
                if "error" in row:
                    errors.append(f"sweep row {row['budget']} is an error row: {row['error']}")
                    failed += 1
            for budget, step_r in STEP_R_BY_BUDGET.items():
                got = by_budget.get(budget, {}).get("metrics", {}).get("step_r")
                if got != step_r:
                    errors.append(f"budget {budget}: step_r {got}, expected {step_r}")
                    failed += 1
            full_volume = by_budget.get(FULL_BUDGET, {}).get("metrics", {}).get("event_volume")
            if full_volume != self.events:
                errors.append(f"full budget processed {full_volume} of {self.events} generated events")
            if len(rows) != self.units:
                errors.append(f"{len(rows)} sweep rows for {self.units} budgets")
            return failed
        if events != self.events:
            errors.append(f"sanitized table has {events} of {self.events} events")
        again = self.resanitize(out)
        if again:
            errors.append(f"re-sanitizing with the returned map made {again} replacements")
        return 0

    def resanitize(self, out: Path) -> int:
        from chainscope.configio import load_policy
        from chainscope.model import events_from_jsonl
        from chainscope.sanitize import PseudonymMap, salt_reference, sanitize_dataset

        salt = (self.dir / "inputs" / "salt.txt").read_bytes().strip()
        tables: Dict[str, List[Any]] = {}
        for event in events_from_jsonl((out / "events.jsonl").read_text(encoding="utf-8")):
            tables.setdefault(event.source, []).append(event)
        persisted = {p.stem: load_json(p)["mappings"] for p in sorted((out / "mappings").glob("*.json"))}
        _, _, report = sanitize_dataset(tables, load_policy(), salt, PseudonymMap(persisted, salt_ref=salt_reference(salt)))
        return report.total_replacements

    # -- whole run ------------------------------------------------------------

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def measure(self) -> None:
        if self.trace:
            for traced in (False, True, False):
                self.run_pass(traced)
            return
        measure_start = time.perf_counter()
        while True:
            longest = max((p.wall_s for p in self.passes), default=0.0)
            if len(self.passes) >= MIN_PASSES and time.perf_counter() - measure_start + longest > self.seconds:
                break
            if self.passes and self.elapsed() + 1.5 * longest > RUN_LIMIT_S:
                break
            self.run_pass(traced=False)

    def check_reference(self, write: bool) -> None:
        """Default seed: digests equal the committed ones. Other seeds: the reference shape within 5%."""
        first = self.passes[0]
        shape = {key: first.counts[key] for key in SHAPE_KEYS[self.workload.kind]}
        reference = load_json(REFERENCE) if REFERENCE.exists() else {}
        if write:
            reference[self.name] = {"seed": self.seed, "digests": first.digests, "shape": shape}
            REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
            return
        entry = reference.get(self.name)
        if entry is None:
            self.errors.append(f"no reference for {self.name} in {REFERENCE.name}")
        elif self.seed == entry["seed"]:
            if first.digests != entry["digests"]:
                differing = sorted(k for k in set(first.digests) | set(entry["digests"])
                                   if first.digests.get(k) != entry["digests"].get(k))
                self.errors.append(f"artifacts differ from the reference digests: {differing}")
        else:
            for key, value in entry["shape"].items():
                if abs(shape[key] - value) > SHAPE_TOLERANCE * value:
                    self.errors.append(f"shape: {key} is {shape[key]}, reference seed gives {value}")

    def check_traced_counts(self) -> None:
        """Counts taken inside the traced pass must equal those computed from the artifacts."""
        traced = self.spans_doc["counts"]
        from_artifacts = next(p.counts for p in self.passes if not p.traced)
        for key, value in from_artifacts.items():
            if traced.get(key, 0) != value:
                self.errors.append(f"work count {key}: traced {traced.get(key, 0)}, from artifacts {value}")
        # the sweep writes no ingest report, so only the traced pass sees these
        for key in ("ingest.rejected", "ingest.quarantined"):
            if traced.get(key):
                self.errors.append(f"{key} is {traced[key]}, expected 0")

    def all_errors(self) -> List[str]:
        return self.errors + [f"pass {i}: {e}" for i, p in enumerate(self.passes) for e in p.errors]

    def tally(self) -> Tuple[int, int]:
        """(attempted, failed) units; an error of the run as a whole fails every unit."""
        attempted = sum(p.units for p in self.passes) or 1
        return attempted, attempted if self.errors else sum(p.failed_units for p in self.passes)

    def end_to_end(self) -> Dict[str, float]:
        wall = statistics.median(p.wall_s for p in self.passes)
        attempted, failed = self.tally()
        return {
            "wall_s": wall,
            "events_per_s": self.passes[0].events / wall,
            "peak_rss_mb": statistics.median(p.rss_mb for p in self.passes),
            "setup_s": statistics.median(s["setup_s"] for s in self.setups),
            "passed_frac": 1 - failed / attempted,
        }

    def per_layer(self) -> Dict[str, float]:
        spans = self.spans_doc["spans"]  # [name, layer, start, end, parent, failed]
        covered = [0.0] * len(spans)
        for name, layer, start, end, parent, failed in spans:
            if parent >= 0:
                covered[parent] += end - start
        metrics: Dict[str, float] = {name: 0 for name, _ in PER_LAYER}
        for (name, layer, start, end, parent, failed), child_time in zip(spans, covered):
            if layer in LAYERS or layer == "cli":
                metrics[f"{layer}.busy_s"] += end - start - child_time
            if layer in LAYERS:
                metrics[f"{layer}.calls"] += 1
                metrics[f"{layer}.failures"] += int(failed)
                if layer == "configio" and (parent < 0 or spans[parent][1] != "configio"):
                    metrics["configio.load_s"] += end - start
                metrics["trace.spans"] += 1
            for metric, names in SPAN_TIMES.items():
                if name in names:
                    metrics[metric] += end - start
        for name, _, start, end, _, _ in self.setup_spans["spans"]:
            if name in ("synth.generate_scenario", "synth.write_scenario"):
                metrics["synth.generate_s" if name.endswith("generate_scenario") else "synth.write_s"] += end - start
        counts = self.spans_doc["counts"]
        for key in COUNTS:
            metrics[key] = counts.get(key, 0)
        events = counts.get("tagging.events", 0)
        metrics["tagging.matched_ratio"] = counts.get("tagging.matched", 0) / events if events else 0.0
        pairs = counts.get("graph.window_pairs", 0)
        metrics["graph.edge_yield"] = counts.get("graph.edges", 0) / pairs if pairs else 0.0
        untraced = [p for p in self.passes if not p.traced]
        traced = next(p for p in self.passes if p.traced)
        metrics["proc.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
        metrics["proc.gc_s"] = self.spans_doc["gc_s"]
        metrics["proc.gc_collections"] = self.spans_doc["gc_collections"]
        metrics["trace.overhead_s"] = traced.wall_s - statistics.median(p.wall_s for p in untraced)
        return metrics

    def execute(self, write_reference: bool = False) -> Dict[str, Any]:
        context: Dict[str, Any] = {
            "workload": self.name,
            "seed": self.seed,
            "trace": int(self.trace),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(),
            "calibration_s_before": calibrate(),
        }
        metrics: Dict[str, float] = {}
        try:
            self.set_up()
            self.measure()
            if all(p.code == 0 for p in self.passes):
                self.check_reference(write_reference)
            if self.trace:
                self.check_traced_counts()
                metrics = self.per_layer()
            else:
                metrics = self.end_to_end()
        except (OSError, RuntimeError, ValueError, KeyError, StopIteration, subprocess.CalledProcessError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
        context.update(
            loadavg_after=os.getloadavg(),
            calibration_s_after=calibrate(),
            events=self.setups[0]["events"] if self.setups else 0,
            pass_wall_s=[p.wall_s for p in self.passes],
            pass_traced=[p.traced for p in self.passes],
            pass_rss_mb=[p.rss_mb for p in self.passes],
            setup_s=[s["setup_s"] for s in self.setups],
            run_s=self.elapsed(),
        )
        errors = self.all_errors()
        attempted, failed = self.tally()
        result = {
            "correct": not errors,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "context": context,
            "errors": errors,
        }
        WORK.mkdir(exist_ok=True)
        out = WORK / f"BENCH_{self.name}_seed{self.seed}_trace{int(self.trace)}.json"
        out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        shutil.rmtree(self.dir, ignore_errors=True)
        return result



def metric_lines(prefix: str, metrics: Dict[str, float], units: List[Tuple[str, str]]) -> Dict[str, Dict[str, Any]]:
    table = {}
    for name, unit in units:
        value = metrics[name]
        print(f"{prefix}{name:<34} {value:>16.6g} {unit}")
        table[prefix + name] = {"value": value, "unit": unit}
    return table


def report(result: Dict[str, Any], prefix: str, trace: bool) -> Dict[str, Dict[str, Any]]:
    for error in result["errors"]:
        print(f"{prefix}FAILED: {error}", file=sys.stderr)
    print(json.dumps({"context": result["context"]}))
    if not result["metrics"]:
        return {}
    return metric_lines(prefix, result["metrics"], PER_LAYER if trace else END_TO_END)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default seed's digests and shape in reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "chainscope" / "cli.py").is_file():
        print(f"error: no chainscope sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and (args.workload is None or args.seed != DEFAULT_SEED):
        parser.error("--write-reference needs --workload and the default seed")
    sys.path.insert(0, str(SRC))

    names = [args.workload] if args.workload else sorted(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results, table = [], {}
    for name in names:
        for trace in traces:
            result = Run(name, args.seed, args.seconds, trace).execute(args.write_reference and not trace)
            prefix = "" if len(names) == 1 else f"{name}/"
            table.update(report(result, prefix, trace))
            results.append(result)
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": table,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
