import pytest

from chainscope.errors import ConfigError
from chainscope.graph import Chain
from chainscope.metrics import (
    BudgetConfig,
    aggregate,
    best_rows_by_category,
    categorize_budget,
    compute_run_metrics,
    select_best_run,
)
from chainscope.pipeline import RunParams, budget_sweep
from chainscope.synth import generate_scenario
from chainscope.tagging import ExpectedStepSet, StepTag, TagDecision, load_rules
from conftest import make_event

I, A, D, O, E = StepTag.INSTALL, StepTag.AUTH, StepTag.DOWNLOAD, StepTag.OUTBOUND_CONN, StepTag.EXFIL


def expected_set(steps, scenario="s"):
    return ExpectedStepSet(scenario_id=scenario, steps=frozenset(steps))


def decisions_for(steps):
    return [
        TagDecision(event_id=f"e{i}", candidates=(), chosen=step, diagnostics=())
        for i, step in enumerate(steps)
    ]


def chain_of(*steps):
    return Chain(
        steps=tuple(steps),
        supporting_events=tuple((f"e{i}",) for i in range(len(steps))),
        score=len(steps),
        continuity_flags=(),
        first_ts=0,
        span_ms=60_000,
    )


def stub_metrics(scenario="s", step_r=0.5, chain_r=0.5, volume=10, sources=("syslog",), step_p=1.0):
    """Minimal RunMetrics for selection/aggregation tests."""
    from chainscope.metrics import RunMetrics

    return RunMetrics(
        scenario_id=scenario,
        sources=frozenset(sources),
        tag_cov=step_r,
        chain_cov=chain_r,
        step_p=step_p,
        step_r=step_r,
        chain_p=step_p,
        chain_r=chain_r,
        reconstructability=chain_r,
        missing_steps=frozenset(),
        extra_steps=frozenset(),
        event_volume=volume,
        tagged_step_count=0,
        chain_step_count=0,
    )


class TestComputeRunMetrics:
    def test_three_of_four_recovered(self):
        expected = expected_set({I, D, O, E})
        decisions = decisions_for([I, D, O, I])
        chains = [chain_of(O, I, D)]
        m = compute_run_metrics(decisions, chains, expected, events=[])
        assert m.step_r == pytest.approx(0.75)
        assert m.step_p == pytest.approx(1.0)
        assert m.chain_r == pytest.approx(0.75)
        assert m.missing_steps == {E}
        assert m.tag_cov == m.step_r and m.chain_cov == m.chain_r

    def test_single_step_floor(self):
        expected = expected_set({I, D, O, E})
        m = compute_run_metrics(decisions_for([I]), [chain_of(I)], expected, events=[])
        assert m.step_r == pytest.approx(0.25)
        assert m.missing_steps == {D, E, O}

    def test_extra_steps_reduce_precision(self):
        expected = expected_set({D, O, E})
        m = compute_run_metrics(decisions_for([O, E, A, I]), [chain_of(O, E)], expected, events=[])
        assert m.step_p == pytest.approx(0.5)
        assert m.step_r == pytest.approx(2 / 3)
        assert m.extra_steps == {A, I}

    def test_perfect_run(self):
        expected = expected_set({I})
        m = compute_run_metrics(decisions_for([I, I]), [chain_of(I)], expected, events=[])
        assert (m.step_r, m.step_p, m.chain_r, m.chain_p, m.tag_cov, m.chain_cov) == (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_nothing_observed_is_conservative_zero_precision(self):
        expected = expected_set({I, D})
        m = compute_run_metrics([], [], expected, events=[])
        assert m.step_p == 0.0 and m.step_r == 0.0
        assert m.reconstructability == 0.0

    def test_chain_metrics_use_best_chain_only(self):
        # tags cover I and O, but the best chain only joins I
        expected = expected_set({I, O})
        decisions = decisions_for([I, O])
        chains = [chain_of(I), chain_of(O)]
        m = compute_run_metrics(decisions, chains, expected, events=[])
        assert m.step_r == pytest.approx(1.0)
        assert m.chain_r == pytest.approx(0.5)
        assert m.chain_cov <= m.tag_cov

    def test_reconstructability_penalizes_flagged_transitions(self):
        expected = expected_set({I, D})
        flagged = Chain(
            steps=(I, D),
            supporting_events=(("a",), ("b",)),
            score=2,
            continuity_flags=((0, 900_000),),
            first_ts=0,
            span_ms=900_000,
        )
        m = compute_run_metrics(decisions_for([I, D]), [flagged], expected, events=[])
        assert m.reconstructability == pytest.approx((1.0 + 0.0) / 2)


class TestCategorizeBudget:
    def test_single(self):
        assert categorize_budget(["syslog"]).category == "single"

    def test_combo(self):
        assert categorize_budget(["auditd", "zeek"]).category == "combo"

    def test_composite_stream_counts_as_multi(self):
        budget = categorize_budget(["azure_events"])
        assert budget.effective_count == 3
        assert budget.category == "multi"

    def test_weights_override(self):
        assert categorize_budget(["azure_events"], {"azure_events": 1}).category == "single"

    def test_pair_with_composite_is_multi(self):
        assert categorize_budget(["syslog", "azure_events"]).category == "multi"

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            BudgetConfig(sources=frozenset())


class TestSelectBestRun:
    def test_higher_step_recall_wins(self):
        a, b = stub_metrics(step_r=0.5), stub_metrics(step_r=0.25)
        assert select_best_run([b, a]) is a

    def test_chain_recall_breaks_tie(self):
        a, b = stub_metrics(step_r=0.5, chain_r=0.5), stub_metrics(step_r=0.5, chain_r=0.25)
        assert select_best_run([b, a]) is a

    def test_volume_breaks_remaining_tie(self):
        a = stub_metrics(step_r=0.5, chain_r=0.5, volume=100)
        b = stub_metrics(step_r=0.5, chain_r=0.5, volume=200)
        assert select_best_run([a, b]) is b

    def test_source_name_is_final_tiebreak(self):
        a = stub_metrics(sources=("zeek",))
        b = stub_metrics(sources=("auditd",))
        assert select_best_run([a, b]) is b

    def test_mixed_scenarios_rejected(self):
        with pytest.raises(ConfigError):
            select_best_run([stub_metrics(scenario="x"), stub_metrics(scenario="y")])

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            select_best_run([])


class TestAggregate:
    def test_full_telemetry_weighted_recall(self):
        values = [0.25, 0.75, 0.5, 0.75, 0.25, 0.25, 2 / 3]
        weights = [4, 4, 4, 4, 4, 4, 3]
        per_scenario = {
            f"s{i}": (stub_metrics(scenario=f"s{i}", step_r=v, chain_r=v), w)
            for i, (v, w) in enumerate(zip(values, weights))
        }
        agg = aggregate(per_scenario)
        assert agg.step_r_wtd == pytest.approx(0.481, abs=0.001)
        assert agg.scenario_count == 7

    def test_best_single_source_weighted_recall(self):
        values = [0.25, 0.5, 0.25, 0.5, 0.25, 2 / 3]
        weights = [4, 4, 4, 4, 4, 3]
        per_scenario = {
            f"s{i}": (stub_metrics(scenario=f"s{i}", step_r=v), w)
            for i, (v, w) in enumerate(zip(values, weights))
        }
        assert aggregate(per_scenario).step_r_wtd == pytest.approx(0.391, abs=0.001)

    def test_single_scenario_weight_cancels(self):
        m = stub_metrics(step_r=0.37, chain_r=0.21, step_p=0.9)
        agg = aggregate({"s": (m, 4)})
        assert agg.step_r_wtd == pytest.approx(0.37)
        assert agg.chain_r_wtd == pytest.approx(0.21)
        assert agg.step_p_mean == pytest.approx(0.9)

    def test_aggregate_bounded_by_extremes(self):
        per_scenario = {
            "a": (stub_metrics(scenario="a", step_r=0.2), 4),
            "b": (stub_metrics(scenario="b", step_r=0.9), 3),
        }
        agg = aggregate(per_scenario)
        assert 0.2 <= agg.step_r_wtd <= 0.9

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate({})


RULES = load_rules(
    {
        "rules": [
            {"rule_id": "i", "step": "INSTALL", "priority": 5, "patterns": [r"pip install"], "candidate_fields": ["text_blob"]},
            {"rule_id": "d", "step": "DOWNLOAD", "priority": 5, "patterns": [r"curl"], "candidate_fields": ["text_blob"]},
        ]
    }
)


class TestBudgetSweep:
    def tables(self):
        return {
            "syslog": [make_event(event_id="s0", ts=0, source="syslog", text_blob="pip install x")],
            "zeek": [make_event(event_id="z0", ts=60_000, source="zeek", text_blob="curl http://x")],
        }

    def test_recall_strictly_increases_when_source_adds_evidence(self):
        expected = expected_set({I, D}, scenario="test")
        budgets = [categorize_budget(["syslog"]), categorize_budget(["syslog", "zeek"])]
        rows = budget_sweep(self.tables(), RULES, expected, budgets)
        assert rows[0].metrics.step_r == pytest.approx(0.5)
        assert rows[1].metrics.step_r == pytest.approx(1.0)

    def test_superset_budget_observes_superset(self):
        expected = expected_set({I, D}, scenario="test")
        budgets = [categorize_budget(["zeek"]), categorize_budget(["syslog", "zeek"])]
        rows = budget_sweep(self.tables(), RULES, expected, budgets)
        assert rows[0].metrics.observed_steps <= rows[1].metrics.observed_steps

    def test_unknown_source_strict_raises_lenient_isolates(self):
        expected = expected_set({I}, scenario="test")
        bad = categorize_budget(["nope"])
        good = categorize_budget(["syslog"])
        rows = budget_sweep(self.tables(), RULES, expected, [bad, good])
        assert rows[0].error and rows[0].metrics is None
        assert rows[1].metrics is not None

    def test_best_rows_by_category(self):
        expected = expected_set({I, D}, scenario="test")
        budgets = [
            categorize_budget(["syslog"]),
            categorize_budget(["zeek"]),
            categorize_budget(["syslog", "zeek"]),
        ]
        rows = budget_sweep(self.tables(), RULES, expected, budgets)
        best = best_rows_by_category(rows)
        assert set(best) == {"single", "combo"}
        assert best["combo"].metrics.step_r == pytest.approx(1.0)
        # single best is deterministic: both observe one step, zeek/syslog tie
        # broken by (volume, then name)
        assert best["single"].metrics.step_r == pytest.approx(0.5)

    def test_combo_on_generated_scenario_recovers_pattern(self, default_rules, aliases, all_scenarios):
        # the dependency-chain scenario: syslog alone gives {I, D}; adding
        # zeek contributes OUTBOUND_CONN for 0.75 recall with EXFIL missing
        spec, template = next(s for s in all_scenarios if s[0].scenario_id == "sc-dependency-chain")
        data = generate_scenario(spec, template)
        expected = data.ground_truth.expected
        budgets = [categorize_budget(["syslog"]), categorize_budget(["zeek", "syslog"])]
        rows = budget_sweep(
            {k: list(v) for k, v in data.tables.items()},
            default_rules,
            expected,
            budgets,
            aliases=aliases,
            params=RunParams(gate="expected"),
        )
        assert rows[0].metrics.step_r == pytest.approx(0.5)
        assert rows[1].metrics.step_r == pytest.approx(0.75)
        assert rows[1].metrics.missing_steps == {E}
