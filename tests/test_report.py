import pytest

from chainscope.errors import ConfigError
from chainscope.graph import Chain, build_event_graph
from chainscope.metrics import aggregate
from chainscope.report import build_evidence_package, evidence_to_dict, render_budget_table
from chainscope.tagging import StepTag, TagDecision
from conftest import make_event
from test_metrics import stub_metrics

I, D, O, E = StepTag.INSTALL, StepTag.DOWNLOAD, StepTag.OUTBOUND_CONN, StepTag.EXFIL


def tag(event_id, step):
    return TagDecision(event_id=event_id, candidates=(), chosen=step, diagnostics=())


class TestEvidencePackage:
    def fixture(self):
        events = [
            make_event(event_id="c", ts=0, source="zeek", text_blob="conn to 203.0.113.5:4444"),
            make_event(event_id="i", ts=45_000, source="syslog", text_blob="npm install pkg"),
            make_event(event_id="d", ts=110_000, source="syslog", text_blob="curl http://198.51.100.10/x"),
        ]
        decisions = [tag("c", O), tag("i", I), tag("d", D)]
        chains = [
            Chain(
                steps=(O, I, D),
                supporting_events=(("c",), ("i",), ("d",)),
                score=3,
                continuity_flags=(),
                first_ts=0,
                span_ms=110_000,
            )
        ]
        return build_event_graph(events, decisions), chains

    def test_sections_for_observed_and_missing_for_absent(self):
        graph, chains = self.fixture()
        package = build_evidence_package(chains, graph, expected=(I, D, O, E), scenario_id="s")
        assert [s.step for s in package.sections] == [O, I, D]
        assert [(step, diag) for step, diag in package.missing] == [(E, "MISSING_EXFIL")]
        assert not package.no_steps_observed

    def test_anchor_contents(self):
        graph, chains = self.fixture()
        package = build_evidence_package(chains, graph, expected=(I, D, O, E))
        section = package.sections[0]
        assert section.volume == 1
        assert section.t_min == section.t_max == 0
        assert section.sources == ("zeek",)
        assert section.recoverability == "single-source"
        anchor = section.anchors[0]
        assert anchor.event_id == "c"
        assert "conn to" in anchor.excerpt

    def test_empty_run_all_missing(self):
        package = build_evidence_package([], build_event_graph([], []), expected=(I, D, O, E))
        assert package.sections == ()
        assert package.no_steps_observed
        assert len(package.missing) == 4
        doc = evidence_to_dict(package)
        assert doc["flags"] == ["NO_STEPS_OBSERVED"]

    def test_single_tagged_event_volume_one(self):
        event = make_event(event_id="only", text_blob="pip install x")
        package = build_evidence_package([], build_event_graph([event], [tag("only", I)]))
        assert len(package.sections) == 1
        assert package.sections[0].volume == 1

    def test_multi_source_step_flagged(self):
        events = [
            make_event(event_id="a", ts=0, source="zeek", text_blob="x"),
            make_event(event_id="b", ts=1, source="suricata", text_blob="x"),
        ]
        package = build_evidence_package([], build_event_graph(events, [tag("a", O), tag("b", O)]))
        assert package.sections[0].recoverability == "multi-source"

    def test_anchors_in_ts_then_event_id_order(self):
        events = [make_event(event_id=i, ts=ts) for i, ts in (("b", 5), ("c", 1), ("a", 5))]
        package = build_evidence_package([], build_event_graph(events, [tag(e.event_id, O) for e in events]))
        (section,) = package.sections
        assert [a.event_id for a in section.anchors] == ["c", "a", "b"]
        assert (section.t_min, section.t_max) == (1, 5)

    def test_byte_identical_for_identical_inputs(self):
        graph, chains = self.fixture()
        a = evidence_to_dict(build_evidence_package(chains, graph, expected=(I, D, O, E)))
        b = evidence_to_dict(build_evidence_package(chains, graph, expected=(I, D, O, E)))
        assert a == b


def parse_table(text):
    """Independent round-trip parser for the rendered budget table."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = lines[0].split()
    rows = {}
    for line in lines[2:]:
        cells = line.split()
        rows[cells[0]] = {
            "scenarios": int(cells[1]),
            "values": [float(v) for v in cells[2:]],
        }
    return header, rows


class TestRenderBudgetTable:
    def test_round_trip_parse(self):
        aggs = {
            "single": aggregate({"a": (stub_metrics(scenario="a", step_r=0.25), 4), "b": (stub_metrics(scenario="b", step_r=0.5), 3)}),
            "combo": aggregate({"a": (stub_metrics(scenario="a", step_r=0.636), 4)}),
            "multi": aggregate({"a": (stub_metrics(scenario="a", step_r=0.481), 4)}),
        }
        text = render_budget_table(aggs)
        header, rows = parse_table(text)
        assert header == [
            "Category",
            "Scenarios",
            "TagCov(wtd)",
            "ChainCov(wtd)",
            "StepR(wtd)",
            "ChainR(wtd)",
            "StepP(mean)",
            "ChainP(mean)",
            "Recon(mean)",
        ]
        assert list(rows) == ["single", "combo", "multi"]  # canonical category order
        for category, agg in aggs.items():
            got = rows[category]["values"]
            want = [
                agg.tag_cov_wtd,
                agg.chain_cov_wtd,
                agg.step_r_wtd,
                agg.chain_r_wtd,
                agg.step_p_mean,
                agg.chain_p_mean,
                agg.recon_mean,
            ]
            assert got == [round(v, 3) for v in want]
            assert rows[category]["scenarios"] == agg.scenario_count

    def test_single_category_single_row(self):
        aggs = {"multi": aggregate({"a": (stub_metrics(scenario="a"), 4)})}
        _, rows = parse_table(render_budget_table(aggs))
        assert list(rows) == ["multi"]

    def test_empty_input_is_an_error(self):
        with pytest.raises(ConfigError):
            render_budget_table({})

    def test_three_decimal_rounding(self):
        aggs = {"single": aggregate({"a": (stub_metrics(scenario="a", step_r=1 / 3), 4)})}
        text = render_budget_table(aggs)
        assert "0.333" in text
