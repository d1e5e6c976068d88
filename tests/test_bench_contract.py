"""The benchmark's traced pass must still see every layer function it counts.

``bench/child.py`` wraps, by name, the layer functions that ``cli``,
``pipeline`` and ``metrics`` import, and takes its work counts by binding
their arguments. A function that moves to another module or renames a
parameter loses its span or its count, and the benchmark's traced run then
reports ``"correct": false``. These tests run the traced pass on a packaged
scenario and fail on that here instead.
"""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from chainscope.cli import main

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "bench" / "child.py"


def counted_functions():
    # run_path compiles the file without caching bytecode next to it
    return set(runpy.run_path(str(CHILD))["COUNTERS"])


def traced_pass(tmp_path, run_id, cli_args):
    """Run one CLI command under the benchmark's tracer; return its spans document."""
    spans = tmp_path / f"{run_id}.spans.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    command = [sys.executable, str(CHILD), "pass", "--spans", str(spans), "--run-id", run_id, "--", *cli_args]
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text(encoding="utf-8"))
    doc["functions"] = {span[0].rpartition(".")[2] for span in doc["spans"]}
    return doc


@pytest.fixture(scope="module")
def passes(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench_contract")
    scenario = tmp / "dataset"
    assert main(["synth", "--spec", "dependency-chain", "--out", str(scenario)]) == 0
    budgets = tmp / "budgets.yml"
    budgets.write_text("budgets:\n  - [syslog]\n  - [syslog, zeek]\n  - [auditd, zeek, tracee]\n", encoding="utf-8")
    run, sweep, sanitized = tmp / "run", tmp / "sweep", tmp / "sanitized"
    docs = {
        "evaluate": traced_pass(tmp, "evaluate", ["evaluate", "--scenario-dir", str(scenario), "--out", str(run)]),
        "sweep": traced_pass(
            tmp, "sweep", ["sweep", "--scenario-dir", str(scenario), "--budgets", str(budgets), "--out", str(sweep)]
        ),
        "sanitize": traced_pass(
            tmp,
            "sanitize",
            [
                "sanitize",
                "--in", str(run / "events.jsonl"),
                "--salt-file", str(ROOT / "bench" / "salt.txt"),
                "--mappings-dir", str(sanitized / "mappings"),
                "--out", str(sanitized / "events.jsonl"),
            ],
        ),
    }
    return docs, {"evaluate": run, "sweep": sweep, "sanitize": sanitized}


def load_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_counted_function_produces_a_span(passes):
    docs, _outs = passes
    expected = {
        "evaluate": {"ingest_scenario", "tag_run", "build_event_graph", "extract_chains", "write_run_artifacts"},
        "sweep": {"sweep_scenario", "tag_run", "build_event_graph", "extract_chains", "write_sweep_artifacts"},
        "sanitize": {"sanitize_dataset"},
    }
    assert set().union(*expected.values()) == counted_functions()
    for command, functions in expected.items():
        assert functions <= docs[command]["functions"], command


def test_evaluate_traced_counts_equal_artifact_counts(passes):
    docs, outs = passes
    counts, out = docs["evaluate"]["counts"], outs["evaluate"]
    graph = load_json(out / "graph.json")
    assert graph["edges"], "the scenario must exercise the graph"
    assert counts["tagging.events"] == len((out / "decisions.jsonl").read_text().splitlines())
    assert counts["tagging.events"] == len((out / "events.jsonl").read_text().splitlines())
    assert counts["graph.nodes"] == len(graph["nodes"])
    assert counts["graph.edges"] == len(graph["edges"])
    assert counts["graph.chains"] == len(load_json(out / "chains.json"))


def test_sweep_and_sanitize_traced_counts_equal_artifact_counts(passes):
    docs, outs = passes
    rows = load_json(outs["sweep"] / "sweep_rows.json")["rows"]
    assert docs["sweep"]["counts"]["tagging.events"] == sum(row["metrics"]["event_volume"] for row in rows)
    assert docs["sweep"]["counts"]["pipeline.sweep_rows"] == len(rows)
    mappings = sorted((outs["sanitize"] / "mappings").glob("*.json"))
    assert mappings
    assert docs["sanitize"]["counts"]["sanitize.identifiers"] == sum(len(load_json(p)["mappings"]) for p in mappings)
