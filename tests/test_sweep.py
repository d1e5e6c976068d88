"""A budget sweep equals a separate run per budget, and adding sources never loses a step.

budget_sweep tags each event once, builds one graph over the union of its
budgets' sources and runs only chains and metrics per budget. The
reference below is the per-budget loop that shares nothing: merge the
budget's sources, tag, reconstruct and score.
"""

import dataclasses
import importlib.resources
import itertools
import json

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chainscope.cli import main
from chainscope.configio import load_adapters, packaged_scenario_ids
from chainscope.graph import DEFAULT_TOP_K, DEFAULT_WINDOW_MS
from chainscope.ingest import ingest_scenario, merge_scenario
from chainscope.metrics import SweepRow, categorize_budget, compute_run_metrics, run_metrics_to_dict
from chainscope.model import events_to_jsonl
from chainscope.pipeline import GATE_EXPECTED, RunParams, budget_sweep, reconstruct, resolve_expected
from chainscope.tagging import tag_run
from conftest import make_scenario_data

# the seven sources of the benchmark's fixture: a lattice of 2**7 - 1 budgets
SEVEN_SOURCES = ["auditd", "auth", "azure_port", "suricata", "syslog", "tracee", "zeek"]


def sweep_from_scratch(events_by_source, rules, expected, budgets, aliases, params):
    """Reference: merge, tag, reconstruct and score each budget on its own."""
    available = set(events_by_source)
    gate = params.resolve_gate(expected)
    rows = []
    for budget in budgets:
        unknown = budget.sources - available
        if unknown:
            message = f"budget {budget.name!r} references unavailable source(s): {sorted(unknown)}"
            rows.append(SweepRow(budget=budget, metrics=None, error=message))
            continue
        sources = sorted(budget.sources)
        merged = merge_scenario([events_by_source[s] for s in sources])
        decisions, _diag = tag_run(merged, rules, gate=gate, aliases=aliases, expected=expected.steps)
        _graph, chains, _ambiguity = reconstruct(merged, decisions, params)
        metrics = compute_run_metrics(decisions, chains, expected, merged, sources=sources)
        rows.append(SweepRow(budget=budget, metrics=metrics))
    return rows


@st.composite
def sweeps(draw):
    data = make_scenario_data(draw(st.sampled_from(packaged_scenario_ids())), draw(st.integers(0, 3)))
    names = sorted(data.tables) + ["no_such_source"]
    budgets = draw(st.lists(st.sets(st.sampled_from(names), min_size=1), min_size=1, max_size=6))
    params = RunParams(
        window_ms=draw(st.sampled_from([60_000, DEFAULT_WINDOW_MS])),
        top_k=draw(st.sampled_from([1, DEFAULT_TOP_K])),
        gate=draw(st.sampled_from([None, GATE_EXPECTED, "INSTALL,AUTH", "DOWNLOAD,OUTBOUND_CONN,EXFIL"])),
    )
    return data, [categorize_budget(sorted(b)) for b in budgets], params


@settings(max_examples=40, deadline=None)
@given(sweep=sweeps())
def test_sweep_equals_a_run_per_budget(default_rules, aliases, sweep):
    data, budgets, params = sweep
    tables = {source: list(events) for source, events in data.tables.items()}
    expected = data.ground_truth.expected
    args = (tables, default_rules, expected, budgets)
    assert budget_sweep(*args, aliases=aliases, params=params) == sweep_from_scratch(*args, aliases, params)


@pytest.mark.parametrize("others", [[], ["zeek", "auditd"]])
def test_replayed_records_are_budgeted_by_adapter(tmp_path, default_rules, aliases, others):
    # a prenormalized adapter keeps each canonical record's own source field,
    # so the replay table holds records whose source is syslog (and zeek and
    # auditd); a budget takes its events from its adapters' tables, not by
    # that field
    data = tmp_path / "data"
    assert main(["synth", "--spec", "dependency-chain", "--out", str(data)]) == 0
    expected, scenario_id = resolve_expected(data)
    recorded = ingest_scenario(data, load_adapters(), aliases, scenario_id=scenario_id).events_by_source
    replayed = [dataclasses.replace(e, event_id=f"replay:{e.event_id}") for e in recorded["syslog"]]
    replayed += [event for source in others for event in recorded[source]]
    (data / "replay.jsonl").write_text(events_to_jsonl(replayed), encoding="utf-8")
    adapters = tmp_path / "adapters.yml"
    adapters.write_text(
        "adapters:\n"
        "  - source: syslog\n"
        "    format: syslog_line\n"
        "    field_map: {ts: ts, host: host, image: prog, pid: pid, message: message}\n"
        "  - {source: replay, format: prenormalized}\n"
    )
    budgets = [["replay"], ["syslog"], ["replay", "syslog"], ["zeek"]]
    budgets_path = tmp_path / "budgets.yml"
    budgets_path.write_text(yaml.safe_dump({"budgets": budgets}), encoding="utf-8")
    out = tmp_path / "sweep"
    args = ["--scenario-dir", str(data), "--adapters", str(adapters), "--budgets", str(budgets_path)]
    assert main(["sweep", *args, "--gate", GATE_EXPECTED, "--out", str(out)]) == 0

    specs = load_adapters(adapters)
    tables = ingest_scenario(data, specs, aliases, scenario_id=scenario_id).events_by_source
    assert {e.source for e in tables["replay"]} == {"syslog", *others}
    configs = [categorize_budget(b) for b in budgets]
    reference = sweep_from_scratch(tables, default_rules, expected, configs, aliases, RunParams(gate=GATE_EXPECTED))
    rows = json.loads((out / "sweep_rows.json").read_text(encoding="utf-8"))["rows"]
    assert [row.get("error") for row in rows] == [row.error for row in reference]
    assert [row.get("metrics") for row in rows] == [
        row.metrics and json.loads(json.dumps(run_metrics_to_dict(row.metrics))) for row in reference
    ]
    assert reference[0].metrics.event_volume == len(replayed)


@pytest.mark.parametrize("widened", [False, True])
def test_lattice_adding_sources_never_loses_a_step(tmp_path, widened):
    # every packaged source has an adapter, so all 127 budgets are valid on
    # the packaged dependency-chain scenario, whose spec emits five of the
    # seven sources; widened, its spec emits all seven
    spec = "dependency-chain"
    if widened:
        packaged = importlib.resources.files("chainscope") / "config" / "scenarios" / "dependency-chain.yml"
        doc = yaml.safe_load(packaged.read_text(encoding="utf-8"))
        doc["sources"] = SEVEN_SOURCES
        spec = tmp_path / "spec.yml"
        spec.write_text(yaml.safe_dump(doc), encoding="utf-8")
    lattice = [c for r in range(1, 8) for c in itertools.combinations(SEVEN_SOURCES, r)]
    budgets = tmp_path / "budgets.yml"
    budgets.write_text(yaml.safe_dump({"budgets": [list(c) for c in lattice]}), encoding="utf-8")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "data")]) == 0
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario-dir", str(tmp_path / "data"), "--budgets", str(budgets), "--out", str(out)]) == 0

    rows = json.loads((out / "sweep_rows.json").read_text(encoding="utf-8"))["rows"]
    assert len(rows) == 127
    assert not [row for row in rows if "error" in row]
    by_budget = {frozenset(row["budget"]): row["metrics"] for row in rows}
    for small, large in itertools.permutations(by_budget, 2):
        if small < large:
            assert set(by_budget[small]["observed_steps"]) <= set(by_budget[large]["observed_steps"])
            assert by_budget[small]["step_r"] <= by_budget[large]["step_r"]
