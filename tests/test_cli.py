import json
import re
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainscope import model
from chainscope.cli import _build_parser, main
from chainscope.model import events_to_jsonl
from chainscope.sanitize import salt_reference
from chainscope.synth import load_ground_truth
from chainscope.tagging import StepTag, TagDecision, decisions_to_jsonl
from conftest import make_event, run_stage_commands
from golden_corpus import DENSE_RULES_TEXT


@pytest.fixture()
def scenario_dir(tmp_path):
    """A generated dataset for the dependency-chain scenario."""
    out = tmp_path / "dataset"
    assert main(["synth", "--spec", "dependency-chain", "--out", str(out)]) == 0
    return out


class TestSynthCommand:
    def test_writes_files_and_ground_truth(self, scenario_dir):
        names = {p.name for p in scenario_dir.iterdir()}
        assert "ground_truth.json" in names
        assert {"syslog.log", "zeek.jsonl", "auditd.log", "auth.log", "suricata.jsonl"} <= names

    def test_seed_override_changes_output(self, tmp_path):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        assert main(["synth", "--spec", "dependency-chain", "--seed", "1", "--out", str(a)]) == 0
        assert main(["synth", "--spec", "dependency-chain", "--seed", "1", "--out", str(b)]) == 0
        assert main(["synth", "--spec", "dependency-chain", "--seed", "2", "--out", str(c)]) == 0
        assert (a / "syslog.log").read_bytes() == (b / "syslog.log").read_bytes()
        assert (a / "syslog.log").read_bytes() != (c / "syslog.log").read_bytes()

    def test_spec_file_path(self, tmp_path):
        spec = tmp_path / "spec.yml"
        spec.write_text(
            "scenario_id: mini\nseed: 1\nhosts: [{name: h1}]\nsources: [syslog]\n"
            "benign: {n_activities: 5}\nduration_s: 3600\n"
        )
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "mini")]) == 0

    def test_unknown_packaged_spec_is_validation_error(self, tmp_path):
        assert main(["synth", "--spec", "no-such-scenario", "--out", str(tmp_path / "x")]) == 2

    def test_source_without_packaged_adapter_is_validation_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.yml"
        spec.write_text(
            "scenario_id: mini\nseed: 1\nhosts: [{name: h1}]\nsources: [syslog, osquery]\n"
            "benign: {n_activities: 5}\nduration_s: 3600\n"
        )
        assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "mini")]) == 2
        assert "'osquery'" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_full_run_with_gating(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected", "--out", str(out)]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["step_r"] == pytest.approx(0.75)
        assert metrics["step_p"] == pytest.approx(1.0)
        assert metrics["missing_steps"] == ["EXFIL"]
        for name in (
            "events.jsonl",
            "ingest_report.json",
            "decisions.jsonl",
            "run_diag.json",
            "graph.json",
            "chains.json",
            "ambiguity.json",
            "evidence.json",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        chains = json.loads((out / "chains.json").read_text())
        assert chains[0]["steps"] == ["OUTBOUND_CONN", "INSTALL", "DOWNLOAD"]

    def test_identical_args_identical_artifacts(self, scenario_dir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for path_a in sorted(out_a.iterdir()):
            assert path_a.read_bytes() == (out_b / path_a.name).read_bytes(), path_a.name

    def test_expected_steps_keep_the_ground_truth_scenario_id(self, scenario_dir, tmp_path):
        steps = ",".join(sorted(s.value for s in load_ground_truth(scenario_dir / "ground_truth.json").expected.steps))
        flagged, plain = tmp_path / "flagged", tmp_path / "plain"
        args = ["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected"]
        assert main(args + ["--expected-steps", steps, "--out", str(flagged)]) == 0
        assert main(args + ["--out", str(plain)]) == 0
        assert json.loads((flagged / "metrics.json").read_text())["scenario_id"] == "sc-dependency-chain"
        assert json.loads((flagged / "events.jsonl").read_text().splitlines()[0])["scenario_id"] == "sc-dependency-chain"
        for path in sorted(plain.iterdir()):
            if path.name != "manifest.json":
                assert (flagged / path.name).read_bytes() == path.read_bytes(), path.name

    def test_nonexistent_rules_file_names_path(self, scenario_dir, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--scenario-dir",
                str(scenario_dir),
                "--rules",
                str(tmp_path / "missing-rules.yml"),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "missing-rules.yml" in capsys.readouterr().err

    def test_empty_scenario_dir_is_a_result_not_a_failure(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "run"
        code = main(
            [
                "evaluate",
                "--scenario-dir",
                str(empty),
                "--expected-steps",
                "INSTALL,DOWNLOAD",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        diag = json.loads((out / "run_diag.json").read_text())
        assert "NO_STEPS_OBSERVED" in diag["flags"]
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["step_r"] == 0.0

    def test_source_subset(self, scenario_dir, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "evaluate",
                "--scenario-dir",
                str(scenario_dir),
                "--sources",
                "syslog",
                "--gate",
                "expected",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["step_r"] == pytest.approx(0.5)  # INSTALL and DOWNLOAD only


class TestStageCommands:
    def test_ingest_tag_reconstruct_pipeline(self, scenario_dir, tmp_path):
        rules_path = files("chainscope").joinpath("config", "rules.yml")
        stages = run_stage_commands(scenario_dir, tmp_path, rules_path, ["--gate", "expected"])
        report = json.loads((stages["ingest_report.json"] / "ingest_report.json").read_text())
        assert report["total_rejected"] == 0
        assert report["total_records"] > 0
        chains = json.loads((stages["chains.json"] / "chains.json").read_text())
        assert chains[0]["steps"] == ["OUTBOUND_CONN", "INSTALL", "DOWNLOAD"]

        # the stage commands write the same bytes as evaluate
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected", "--out", str(run)]) == 0
        for name, stage in stages.items():
            assert (stage / name).read_bytes() == (run / name).read_bytes(), name

    def test_dense_stage_commands_equal_evaluate(self, scenario_dir, tmp_path):
        rules_path = tmp_path / "rules_dense.yml"
        rules_path.write_text(DENSE_RULES_TEXT)
        stages = run_stage_commands(scenario_dir, tmp_path, rules_path)
        graph = json.loads((stages["graph.json"] / "graph.json").read_text())
        # a graph of tens of nodes and hundreds of edges, not the packaged rules' few
        assert len(graph["nodes"]) >= 50 and len(graph["edges"]) >= 200
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--rules", str(rules_path), "--out", str(run)]) == 0
        for name, stage in stages.items():
            assert (stage / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize(
        "decided, offender",
        [(("a", "c"), "unknown event id 'c'"), (("a", "a"), "repeated decision for event id 'a'"), (("a",), "no decision for event id 'b'")],
    )
    def test_reconstruct_rejects_decisions_not_matching_events(self, tmp_path, capsys, decided, offender):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(events_to_jsonl([make_event(event_id="a", ts=1_000), make_event(event_id="b", ts=2_000)]))
        decisions_path = tmp_path / "decisions.jsonl"
        decisions_path.write_text(
            decisions_to_jsonl(TagDecision(event_id=e, candidates=(), chosen=StepTag.INSTALL, diagnostics=()) for e in decided)
        )
        out = tmp_path / "out"
        code = main(["reconstruct", "--events", str(events_path), "--decisions", str(decisions_path), "--out", str(out)])
        assert code == 2
        assert offender in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "line, offender",
        [
            ('{"event_id":["a"],"candidates":[],"chosen":null,"diagnostics":[]}', "'event_id' must be a string"),
            (
                '{"event_id":"a","candidates":[{"priority":"high","rule_id":"r","step":"INSTALL"}],'
                '"chosen":"INSTALL","diagnostics":[]}',
                "'priority' must be a number",
            ),
            ('{"event_id":"a","candidates":[],"chosen":null,"diagnostics":[{"kind":5}]}', "'kind' must be a string"),
        ],
    )
    def test_reconstruct_rejects_mistyped_decision(self, tmp_path, capsys, line, offender):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(events_to_jsonl([make_event(event_id="a", ts=1_000)]))
        decisions_path = tmp_path / "decisions.jsonl"
        decisions_path.write_text(line + "\n")
        out = tmp_path / "out"
        code = main(["reconstruct", "--events", str(events_path), "--decisions", str(decisions_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "decisions line 1: TypeError" in err and offender in err
        assert not out.exists()

    def test_reconstruct_rejects_malformed_events_line(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(events_to_jsonl([make_event(event_id="b", ts=2_000)]) + '{"event_id":"a","ts":1}\n')
        decisions_path = tmp_path / "decisions.jsonl"
        decisions_path.write_text("")
        out = tmp_path / "out"
        code = main(["reconstruct", "--events", str(events_path), "--decisions", str(decisions_path), "--out", str(out)])
        assert code == 2
        assert "events line 2: KeyError: 'source'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad_input", ["events", "decisions"])
    def test_reconstruct_rejects_invalid_utf8(self, tmp_path, capsys, bad_input):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(events_to_jsonl([make_event(event_id="a", ts=1_000)]))
        decisions_path = tmp_path / "decisions.jsonl"
        decisions_path.write_text(
            decisions_to_jsonl([TagDecision(event_id="a", candidates=(), chosen=StepTag.INSTALL, diagnostics=())])
        )
        bad = tmp_path / f"{bad_input}.jsonl"
        bad.write_bytes(bad.read_bytes() + b'{"event_id": "\xff"}\n')
        out = tmp_path / "out"
        code = main(["reconstruct", "--events", str(events_path), "--decisions", str(decisions_path), "--out", str(out)])
        assert code == 2
        assert f"{bad_input} line 2: UnicodeDecodeError" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_three_budgets_with_best_per_category(self, scenario_dir, tmp_path):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text(
            "budgets:\n"
            "  - sources: [syslog]\n"
            "  - sources: [syslog, zeek]\n"
            "  - sources: [auditd, auth, suricata, syslog, zeek]\n"
        )
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--scenario-dir",
                str(scenario_dir),
                "--budgets",
                str(budgets),
                "--gate",
                "expected",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = json.loads((out / "sweep_rows.json").read_text())["rows"]
        assert len(rows) == 3
        by_category = {row["category"]: row for row in rows}
        assert by_category["single"]["metrics"]["step_r"] == pytest.approx(0.5)
        assert by_category["combo"]["metrics"]["step_r"] == pytest.approx(0.75)
        assert by_category["multi"]["metrics"]["step_r"] == pytest.approx(0.75)
        assert all(row["best_in_category"] for row in rows)  # one row per category here
        table = (out / "budget_table.txt").read_text()
        assert "single" in table and "combo" in table and "multi" in table

    def test_bad_budget_isolated(self, scenario_dir, tmp_path, capsys):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - sources: [no_such_source]\n  - sources: [syslog]\n")
        out = tmp_path / "sweep"
        code = main(
            ["sweep", "--scenario-dir", str(scenario_dir), "--budgets", str(budgets), "--out", str(out)]
        )
        assert code == 0
        rows = json.loads((out / "sweep_rows.json").read_text())["rows"]
        assert "error" in rows[0]
        assert rows[1]["metrics"]["step_r"] > 0

    def test_duplicate_budgets_deduplicated_with_warning(self, scenario_dir, tmp_path, capsys):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - sources: [syslog]\n  - sources: [syslog]\n")
        out = tmp_path / "sweep"
        assert (
            main(["sweep", "--scenario-dir", str(scenario_dir), "--budgets", str(budgets), "--out", str(out)])
            == 0
        )
        assert "duplicate budget" in capsys.readouterr().err
        rows = json.loads((out / "sweep_rows.json").read_text())["rows"]
        assert len(rows) == 1

    def test_budget_naming_a_source_without_files_is_flagged(self, scenario_dir, tmp_path, caplog):
        assert not list(scenario_dir.glob("tracee*"))
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - [tracee]\n  - [syslog]\n")
        out = tmp_path / "sweep"
        args = ["sweep", "--scenario-dir", str(scenario_dir), "--budgets", str(budgets), "--out", str(out)]
        assert main(args) == 0
        tracee, syslog = json.loads((out / "sweep_rows.json").read_text())["rows"]
        assert tracee["sources_without_files"] == ["tracee"] and tracee["metrics"]["event_volume"] == 0
        assert "sources_without_files" not in syslog
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "no input files" in warnings[0] and "tracee" in warnings[0]


class TestParseThreshold:
    """A file below its adapter's parse_threshold fails ingest, evaluate and sweep alike."""

    @pytest.mark.parametrize("command", ["ingest", "evaluate", "sweep"])
    def test_file_below_threshold_exit_2_naming_it(self, scenario_dir, tmp_path, capsys, command):
        syslog = scenario_dir / "syslog.log"
        with open(syslog, "a", encoding="utf-8") as log:
            log.write("not a syslog line\n" * 10)
        out = tmp_path / "out"
        args = [command, "--scenario-dir", str(scenario_dir), "--out", str(out)]
        if command == "sweep":
            # a sweep ingests every source before any budget runs, so a budget without syslog fails too
            budgets = tmp_path / "budgets.yml"
            budgets.write_text("budgets:\n  - [zeek]\n")
            args += ["--budgets", str(budgets)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"{syslog}: parse rate 0.767 below threshold 0.9 for adapter 'syslog'" in err
        assert not out.exists()


class TestEventIdWidth:
    def test_more_than_a_thousand_files_per_source_exit_2(self, tmp_path, capsys):
        data = tmp_path / "many"
        data.mkdir()
        for i in range(1_001):
            (data / f"syslog-{i:04d}.log").write_text(f"2024-05-01T09:00:00.000+00:00 h1 app: line {i}\n")
        assert main(["ingest", "--scenario-dir", str(data), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "syslog-1000.log: event id overflow for source 'syslog'" in err


class TestInconsistentPrenormalizedSources:
    """Two prenormalized sources; each budget holds one, so no budget sees both."""

    @staticmethod
    def run(command, scenario_dir, tmp_path, shared_id=None, scenario_id=None):
        data = tmp_path / "replay"
        data.mkdir()
        (data / "ground_truth.json").write_bytes((scenario_dir / "ground_truth.json").read_bytes())
        for source, ts in (("replay_a", 1714554000000), ("replay_b", 1714554060000)):
            records = [
                {"event_id": f"{source}:1", "ts": ts, "host": "h1", "text_blob": "pip install requests"},
                {"event_id": f"{source}:2", "ts": ts + 1, "host": "h1", "text_blob": "curl http://x"},
            ]
            if source == "replay_b" and shared_id:
                records[0]["event_id"] = shared_id
            if source == "replay_b" and scenario_id:
                records = [dict(r, scenario_id=scenario_id) for r in records]
            (data / f"{source}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        adapters = tmp_path / "adapters.yml"
        adapters.write_text(
            "adapters:\n"
            "  - {source: replay_a, format: prenormalized}\n"
            "  - {source: replay_b, format: prenormalized}\n"
        )
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - [replay_a]\n  - [replay_b]\n")
        out = tmp_path / "out"
        args = [command, "--scenario-dir", str(data), "--adapters", str(adapters), "--out", str(out)]
        if command == "sweep":
            args += ["--budgets", str(budgets)]
        return main(args), out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_sources_sharing_an_event_id_exit_2(self, scenario_dir, tmp_path, capsys, command):
        assert self.run(command, scenario_dir, tmp_path, shared_id="replay_a:1") == (2, False)
        assert "duplicate event id 'replay_a:1'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_sources_with_another_scenario_id_exit_2(self, scenario_dir, tmp_path, capsys, command):
        # a sweep merges all its budgets' sources, so it rejects what evaluate rejects
        assert self.run(command, scenario_dir, tmp_path, scenario_id="elsewhere") == (2, False)
        assert "scenario_id mismatch while merging" in capsys.readouterr().err

    def test_consistent_sources_sweep(self, scenario_dir, tmp_path):
        assert self.run("sweep", scenario_dir, tmp_path) == (0, True)


class TestSanitizeAndReport:
    def test_sanitize_round_trip(self, scenario_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected", "--out", str(run)]) == 0
        salt = tmp_path / "salt.txt"
        salt.write_text("super-secret\n")
        mappings = tmp_path / "mappings"
        out = tmp_path / "sanitized.jsonl"
        code = main(
            [
                "sanitize",
                "--in",
                str(run / "events.jsonl"),
                "--salt-file",
                str(salt),
                "--mappings-dir",
                str(mappings),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        host_map = json.loads((mappings / "host.json").read_text())
        assert host_map["mappings"]  # the scenario host was rewritten
        assert "super-secret" not in (mappings / "host.json").read_text()
        # sanitizing the sanitized output again is a no-op
        out2 = tmp_path / "sanitized2.jsonl"
        code = main(
            [
                "sanitize",
                "--in",
                str(out),
                "--salt-file",
                str(salt),
                "--mappings-dir",
                str(mappings),
                "--out",
                str(out2),
            ]
        )
        assert code == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_sanitize_requires_salt(self, scenario_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CHAINSCOPE_SALT_FILE", raising=False)
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--out", str(run)]) == 0
        code = main(
            [
                "sanitize",
                "--in",
                str(run / "events.jsonl"),
                "--mappings-dir",
                str(tmp_path / "m"),
                "--out",
                str(tmp_path / "s.jsonl"),
            ]
        )
        assert code == 2

    def test_an_empty_salt_variable_is_named(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHAINSCOPE_SALT_FILE", "")
        argv = ["sanitize", "--in", str(tmp_path / "events.jsonl"), "--mappings-dir", str(tmp_path / "m")]
        assert main(argv + ["--out", str(tmp_path / "s.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "CHAINSCOPE_SALT_FILE" in err and "empty" in err, err

    def test_report_from_run_dir(self, scenario_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected", "--out", str(run)]) == 0
        out = tmp_path / "report.txt"
        assert main(["report", "--in", str(run), "--out", str(out)]) == 0
        text = out.read_text()
        assert "step_r: 0.750" in text
        assert "[MISSING_EXFIL]" in text or "MISSING_EXFIL" in text

    def test_report_on_empty_dir_fails_validation(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["report", "--in", str(empty), "--out", str(tmp_path / "r.txt")]) == 2

    def test_report_from_sweep_dir(self, scenario_dir, tmp_path):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - sources: [syslog]\n")
        sweep_out = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    "--scenario-dir",
                    str(scenario_dir),
                    "--budgets",
                    str(budgets),
                    "--gate",
                    "expected",
                    "--out",
                    str(sweep_out),
                ]
            )
            == 0
        )
        out = tmp_path / "sweep-report.txt"
        assert main(["report", "--in", str(sweep_out), "--out", str(out)]) == 0
        assert "StepR(wtd)" in out.read_text()

    def test_budgets_weights_key_changes_category(self, scenario_dir, tmp_path):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("weights:\n  zeek: 3\nbudgets:\n  - sources: [zeek]\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--scenario-dir", str(scenario_dir), "--budgets", str(budgets), "--out", str(out)]) == 0
        rows = json.loads((out / "sweep_rows.json").read_text())["rows"]
        assert rows[0]["category"] == "multi"
        assert rows[0]["effective_count"] == 3
        # the weights are in a file whose digest the manifest records
        assert str(budgets) in json.loads((out / "manifest.json").read_text())["input_digests"]


class TestTimestampsOutOfRange:
    def test_an_epoch_past_the_year_9999_is_quarantined(self, scenario_dir, tmp_path):
        # read as milliseconds, 1e16 falls in the year 318857, which evidence.json cannot render
        line = {"ts": 10**16, "host": "lin-build-02", "id.orig_h": "10.0.0.44", "id.orig_p": 45215, "id.resp_h": "203.0.113.9",
                "id.resp_p": 443, "proto": "tcp", "message": "flow tcp 10.0.0.44:45215 -> 203.0.113.9:443 established"}
        with open(scenario_dir / "zeek.jsonl", "a", encoding="utf-8") as out:
            out.write(json.dumps(line) + "\n")
        rules_path = tmp_path / "rules_dense.yml"
        rules_path.write_text(DENSE_RULES_TEXT)
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--rules", str(rules_path), "--out", str(run)]) == 0
        report = json.loads((run / "ingest_report.json").read_text())
        assert report["total_quarantined"] == 1
        assert [s["quarantined"] for s in report["sources"] if s["source"] == "zeek"] == [1]

    @pytest.mark.parametrize("command", ["sanitize", "reconstruct"])
    def test_an_events_line_out_of_range_exit_2_naming_the_line(self, tmp_path, capsys, command):
        events = tmp_path / "events.jsonl"
        events.write_text(events_to_jsonl([make_event(event_id="a")]) + '{"event_id":"b","ts":10000000000000000,"source":"s","trust_origin":"target"}\n')
        (tmp_path / "salt.txt").write_text("salt\n")
        (tmp_path / "decisions.jsonl").write_text("")
        argv = {
            "sanitize": ["sanitize", "--in", str(events), "--salt-file", str(tmp_path / "salt.txt"), "--mappings-dir", str(tmp_path / "m")],
            "reconstruct": ["reconstruct", "--events", str(events), "--decisions", str(tmp_path / "decisions.jsonl")],
        }[command]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "events line 2: ValueError: 'ts' 10000000000000000 is outside the years 1-9999" in capsys.readouterr().err


class TestMalformedJsonInputs:
    def test_corrupt_ground_truth_exit_2(self, scenario_dir, tmp_path, capsys):
        (scenario_dir / "ground_truth.json").write_text('{"scenario_id": ')
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--out", str(tmp_path / "run")]) == 2
        assert "ground_truth.json" in capsys.readouterr().err

    def test_mapping_file_that_is_not_an_object_exit_2(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        events.write_text(events_to_jsonl([make_event(event_id="a", host="h1")]))
        salt = tmp_path / "salt.txt"
        salt.write_text("salt\n")
        mappings = tmp_path / "mappings"
        mappings.mkdir()
        (mappings / "host.json").write_text("[1, 2]\n")
        argv = ["sanitize", "--in", str(events), "--salt-file", str(salt), "--mappings-dir", str(mappings)]
        assert main(argv + ["--out", str(tmp_path / "s.jsonl")]) == 2
        assert "host.json" in capsys.readouterr().err

    def test_corrupt_metrics_exit_2(self, scenario_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--out", str(run)]) == 0
        (run / "metrics.json").write_bytes(b"\xff{}")
        assert main(["report", "--in", str(run), "--out", str(tmp_path / "r.txt")]) == 2
        assert "metrics.json" in capsys.readouterr().err

    @staticmethod
    def sanitize(tmp_path, mapping_doc):
        events = tmp_path / "events.jsonl"
        events.write_text(events_to_jsonl([make_event(event_id="a", host="lin-build-02")]))
        salt = tmp_path / "salt.txt"
        salt.write_text("salt\n")
        mappings = tmp_path / "mappings"
        mappings.mkdir()
        (mappings / "host.json").write_text(json.dumps(mapping_doc))
        argv = ["sanitize", "--in", str(events), "--salt-file", str(salt), "--mappings-dir", str(mappings)]
        return main(argv + ["--out", str(tmp_path / "s.jsonl")])

    def test_sanitize_invalid_utf8_events_exit_2(self, tmp_path, capsys):
        assert self.sanitize(tmp_path, {"mappings": {}}) == 0
        events = tmp_path / "events.jsonl"
        events.write_bytes(events.read_bytes() + b'{"host": "\xff"}\n')
        argv = ["sanitize", "--in", str(events), "--salt-file", str(tmp_path / "salt.txt")]
        assert main(argv + ["--mappings-dir", str(tmp_path / "mappings"), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert "events line 2: UnicodeDecodeError" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "line, detail",
        [
            ('{"extras": {"k": 5}}', "'extras' value 'k' must be a string, got int"),
            ('{"ts": true}', "'ts' must be an integer, got bool"),
            ('{"ts": 2.9}', "'ts' must be an integer, got float"),
            ('{"text_blob": 3}', "'text_blob' must be a string, got int"),
        ],
    )
    def test_sanitize_events_value_of_the_wrong_type_exit_2(self, tmp_path, capsys, line, detail):
        assert self.sanitize(tmp_path, {"mappings": {}}) == 0
        events = tmp_path / "events.jsonl"
        record = {**json.loads(events.read_text()), "event_id": "b", **json.loads(line)}
        events.write_text(events.read_text() + json.dumps(record) + "\n")
        argv = ["sanitize", "--in", str(events), "--salt-file", str(tmp_path / "salt.txt")]
        assert main(argv + ["--mappings-dir", str(tmp_path / "mappings"), "--out", str(tmp_path / "t.jsonl")]) == 2
        assert f"events line 2: TypeError: {detail}" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("token", [5, "HOST_12", "HOST_000012\n"])
    def test_mapping_token_that_is_not_a_token_exit_2(self, tmp_path, capsys, token):
        assert self.sanitize(tmp_path, {"mappings": {"lin-build-02": token}}) == 2
        err = capsys.readouterr().err
        assert "host.json" in err and "'lin-build-02'" in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_mapping_token_of_another_category_exit_2(self, tmp_path, capsys):
        assert self.sanitize(tmp_path, {"mappings": {"lin-build-02": "USER_410133"}}) == 2
        err = capsys.readouterr().err
        assert "host.json" in err and "'lin-build-02'" in err and "HOST_DDDDDD" in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_mapping_file_of_a_category_the_policy_lacks_exit_2(self, tmp_path, capsys):
        assert self.sanitize(tmp_path, {"mappings": {}}) == 0
        (tmp_path / "mappings" / "foo.json").write_text(json.dumps({"mappings": {"x": "FOO_000001"}}))
        argv = ["sanitize", "--in", str(tmp_path / "events.jsonl"), "--salt-file", str(tmp_path / "salt.txt")]
        assert main(argv + ["--mappings-dir", str(tmp_path / "mappings"), "--out", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "foo.json" in err and "no category 'foo'" in err
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize(
        "doc, detail",
        [
            ("[1]", "must hold a JSON object"),
            ('{"expected_steps": ["INSTALL"]}', "'scenario_id'"),
            ('{"scenario_id": 7}', "'scenario_id'"),
            ('{"scenario_id": "s", "expected_steps": "INSTALL"}', "'expected_steps' must be a list of strings"),
            ('{"scenario_id": "s", "expected_steps": ["INSTALL"], "technique_ids": "T1195"}', "'technique_ids' must be a list"),
            ('{"scenario_id": "s", "labels": ["a"]}', "'labels' must be an object"),
        ],
    )
    def test_ground_truth_of_the_wrong_shape_exit_2(self, scenario_dir, tmp_path, capsys, doc, detail):
        (scenario_dir / "ground_truth.json").write_text(doc)
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "ground_truth.json" in err and detail in err

    @pytest.mark.parametrize("name", ["metrics.json", "evidence.json", "sweep_aggregates.json"])
    def test_report_input_that_is_not_an_object_exit_2(self, tmp_path, capsys, name):
        run = tmp_path / "run"
        run.mkdir()
        (run / name).write_text("[]\n")
        assert main(["report", "--in", str(run), "--out", str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert name in err and "must hold a JSON object" in err

    @staticmethod
    def report_on(tmp_path, name, doc):
        run = tmp_path / "run"
        run.mkdir()
        (run / name).write_text(json.dumps(doc))
        return main(["report", "--in", str(run), "--out", str(tmp_path / "r.txt")])

    SECTION = {"step": "INSTALL", "window": "w", "volume": 1, "sources": ["syslog"], "recoverability": "direct"}

    def test_evidence_section_without_step_exit_2(self, tmp_path, capsys):
        assert self.report_on(tmp_path, "evidence.json", {"sections": [{}]}) == 2
        err = capsys.readouterr().err
        assert "evidence.json" in err and "sections[0] lacks 'step'" in err

    def test_evidence_section_sources_not_a_list_exit_2(self, tmp_path, capsys):
        assert self.report_on(tmp_path, "evidence.json", {"sections": [{**self.SECTION, "sources": 5}]}) == 2
        err = capsys.readouterr().err
        assert "evidence.json" in err and "sections[0].'sources' must be a list of strings" in err

    def test_evidence_anchor_without_excerpt_exit_2(self, tmp_path, capsys):
        section = {**self.SECTION, "anchors": [{"when": "t", "source": "syslog"}]}
        assert self.report_on(tmp_path, "evidence.json", {"sections": [section]}) == 2
        err = capsys.readouterr().err
        assert "evidence.json" in err and "sections[0].anchors[0] lacks 'excerpt'" in err

    def test_evidence_missing_step_entry_not_an_object_exit_2(self, tmp_path, capsys):
        assert self.report_on(tmp_path, "evidence.json", {"missing_steps": ["EXFIL"]}) == 2
        err = capsys.readouterr().err
        assert "evidence.json" in err and "missing_steps[0] must be an object" in err

    @pytest.mark.parametrize("key, value", [("sources", "syslog"), ("missing_steps", 5), ("missing_steps", [1])])
    def test_metrics_list_key_of_the_wrong_type_exit_2(self, tmp_path, capsys, key, value):
        assert self.report_on(tmp_path, "metrics.json", {"scenario_id": "s", key: value}) == 2
        err = capsys.readouterr().err
        assert "metrics.json" in err and f"{key!r} must be a list of strings" in err

    @pytest.mark.parametrize("doc", [{"step_r": "high"}, {"step_r": True}])
    def test_metrics_score_that_is_not_a_number_exit_2(self, tmp_path, capsys, doc):
        assert self.report_on(tmp_path, "metrics.json", doc) == 2
        err = capsys.readouterr().err
        assert "metrics.json" in err and "'step_r' must be a number" in err

    def test_metrics_without_its_scores_exit_2(self, tmp_path, capsys):
        assert self.report_on(tmp_path, "metrics.json", {"scenario_id": "s"}) == 2
        err = capsys.readouterr().err
        assert "metrics.json lacks 'sources', 'tag_cov', 'chain_cov'" in err

    @pytest.mark.parametrize(
        "doc, detail",
        [
            ({"sections": [{**SECTION, "volume": "lots"}]}, "sections[0].'volume' must be an integer, got 'lots'"),
            ({"sections": [{**SECTION, "volume": True}]}, "sections[0].'volume' must be an integer, got True"),
            ({"sections": [{**SECTION, "recoverability": 7}]}, "sections[0].'recoverability' must be a string, got 7"),
            (
                {"sections": [{**SECTION, "anchors": [{"when": "t", "source": "syslog", "excerpt": {"a": 1}}]}]},
                "sections[0].anchors[0].'excerpt' must be a string, got {'a': 1}",
            ),
            ({"missing_steps": [{"step": "EXFIL", "diagnostic": None}]}, "missing_steps[0].'diagnostic' must be a string, got None"),
        ],
        ids=["volume-text", "volume-bool", "recoverability-int", "excerpt-object", "diagnostic-null"],
    )
    def test_evidence_value_of_the_wrong_type_exit_2(self, tmp_path, capsys, doc, detail):
        assert self.report_on(tmp_path, "evidence.json", doc) == 2
        err = capsys.readouterr().err
        assert "evidence.json" in err and detail in err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"salt_ref": salt_reference(b"another salt"), "mappings": {}}, "'salt_ref'"),
            ({"category": "user", "mappings": {}}, "'category'"),
        ],
    )
    def test_mapping_file_of_another_salt_or_category_exit_2(self, tmp_path, capsys, doc, key):
        assert self.sanitize(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert "host.json" in err and key in err
        assert not (tmp_path / "s.jsonl").exists()

    def test_mapping_file_of_this_salt_and_category_loads(self, tmp_path):
        doc = {"category": "host", "salt_ref": salt_reference(b"salt"), "mappings": {"lin-build-02": "HOST_000042"}}
        assert self.sanitize(tmp_path, doc) == 0
        assert "HOST_000042" in (tmp_path / "s.jsonl").read_text()

    def test_second_salt_on_one_mappings_directory_exit_2(self, scenario_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--out", str(run)]) == 0
        mappings = tmp_path / "mappings"
        codes = []
        for salt in ("saltA", "saltB"):
            (tmp_path / f"{salt}.txt").write_text(salt + "\n")
            argv = ["sanitize", "--in", str(run / "events.jsonl"), "--salt-file", str(tmp_path / f"{salt}.txt")]
            codes.append(main(argv + ["--mappings-dir", str(mappings), "--out", str(tmp_path / f"{salt}.jsonl")]))
            if salt == "saltA":
                written = (mappings / "host.json").read_bytes()
        assert codes == [0, 2]
        assert "host.json" in capsys.readouterr().err
        assert (mappings / "host.json").read_bytes() == written

    def test_report_on_a_budget_table_that_is_not_utf8_exit_2(self, tmp_path, capsys):
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        (sweep / "sweep_aggregates.json").write_text("{}\n")
        (sweep / "budget_table.txt").write_bytes(b"budget \xff\n")
        assert main(["report", "--in", str(sweep), "--out", str(tmp_path / "r.txt")]) == 2
        assert "budget_table.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, detail",
        [
            ({"x": 1}, "'x' must be an object, got 1"),
            ({"single": {"scenarios": ["s"]}}, "lacks single.'scenario_count'"),
            ({"single": {"scenarios": "s"}}, "single.'scenarios' must be a list of strings"),
        ],
    )
    def test_report_on_malformed_sweep_aggregates_exit_2(self, tmp_path, capsys, doc, detail):
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        (sweep / "sweep_aggregates.json").write_text(json.dumps(doc))
        (sweep / "budget_table.txt").write_text("table\n")
        assert main(["report", "--in", str(sweep), "--out", str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert "sweep_aggregates.json" in err and detail in err, err
        assert not (tmp_path / "r.txt").exists()

    def test_report_on_a_sweep_without_its_budget_table_exit_2(self, tmp_path, capsys):
        sweep = tmp_path / "sweep"
        sweep.mkdir()
        (sweep / "sweep_aggregates.json").write_text("{}\n")
        assert main(["report", "--in", str(sweep), "--out", str(tmp_path / "r.txt")]) == 2
        assert "budget_table.txt" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()


class TestReconstructionFlags:
    @pytest.mark.parametrize(
        "flag, value",
        [("--topk", "0"), ("--topk", "-2"), ("--window", "0"), ("--window", "0.0004"), ("--window", "-1"), ("--window", "nan"), ("--window", "1e17"), ("--gap", "-1"), ("--gap", "inf")],
    )
    def test_out_of_range_value_is_a_usage_error_naming_the_flag(self, scenario_dir, tmp_path, capsys, flag, value):
        argv = ["evaluate", "--scenario-dir", str(scenario_dir), flag, value, "--out", str(tmp_path / "run")]
        assert main(argv) == 1
        assert f"argument {flag}" in capsys.readouterr().err

    # 1e17 s is over 2**63 - 1 ms, the most an edge gap can hold, and 9.22e15 s
    # is under it; the widest gap events.jsonl can hold, from the year 1 to
    # the year 9999, is far under both
    @pytest.mark.parametrize("window, far, code", [("1e17", model.TS_MAX_MS, 1), ("9.22e15", model.TS_MAX_MS, 0)])
    def test_window_is_bounded_by_the_64_bit_edge_gap(self, tmp_path, capsys, window, far, code):
        events = [make_event(event_id="a", ts=model.TS_MIN_MS, host="h"), make_event(event_id="b", ts=far, host="h")]
        (tmp_path / "events.jsonl").write_text(events_to_jsonl(events))
        (tmp_path / "decisions.jsonl").write_text(
            decisions_to_jsonl(TagDecision(event_id=e.event_id, candidates=(), chosen=StepTag.INSTALL, diagnostics=()) for e in events)
        )
        argv = ["reconstruct", "--events", str(tmp_path / "events.jsonl"), "--decisions", str(tmp_path / "decisions.jsonl")]
        assert main(argv + ["--window", window, "--out", str(tmp_path / "out")]) == code
        if code:
            assert "argument --window" in capsys.readouterr().err
        else:
            graph = json.loads((tmp_path / "out" / "graph.json").read_text())
            assert [edge["gap_ms"] for edge in graph["edges"]] == [far - model.TS_MIN_MS]

    def test_smallest_values_are_accepted(self, scenario_dir, tmp_path):
        argv = ["evaluate", "--scenario-dir", str(scenario_dir), "--topk", "1", "--window", "0.001", "--gap", "0"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("gate", [",", " , "])
    def test_gate_naming_no_step_exit_2(self, scenario_dir, tmp_path, capsys, command, gate):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - [syslog]\n")
        argv = [command, "--scenario-dir", str(scenario_dir), "--gate", gate, "--out", str(tmp_path / "out")]
        assert main(argv + (["--budgets", str(budgets)] if command == "sweep" else [])) == 2
        assert "names no step" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "tag", "sweep"])
    def test_empty_gate_names_no_step_exit_2(self, scenario_dir, tmp_path, capsys, command):
        (tmp_path / "budgets.yml").write_text("budgets:\n  - [syslog]\n")
        (tmp_path / "rules.yml").write_text("rules:\n  - {rule_id: r, step: INSTALL, patterns: [pip], candidate_fields: [text_blob]}\n")
        (tmp_path / "events.jsonl").write_text(events_to_jsonl([make_event()]))
        argv = {
            "evaluate": ["evaluate", "--scenario-dir", str(scenario_dir)],
            "tag": ["tag", "--events", str(tmp_path / "events.jsonl"), "--rules", str(tmp_path / "rules.yml")],
            "sweep": ["sweep", "--scenario-dir", str(scenario_dir), "--budgets", str(tmp_path / "budgets.yml")],
        }[command]
        assert main(argv + ["--gate", "", "--out", str(tmp_path / "out")]) == 2
        assert "names no step" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSourcesFlag:
    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    def test_source_no_adapter_defines_exit_2_naming_each(self, scenario_dir, tmp_path, capsys, command):
        out = tmp_path / "out"
        argv = [command, "--scenario-dir", str(scenario_dir), "--sources", "sylog,syslog,zek", "--out", str(out)]
        assert main(argv) == 2
        assert "no adapter defines source(s): ['sylog', 'zek']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "evaluate"])
    @pytest.mark.parametrize("sources", [",", " , ", ""])
    def test_sources_naming_no_source_exit_2(self, scenario_dir, tmp_path, capsys, command, sources):
        out = tmp_path / "out"
        assert main([command, "--scenario-dir", str(scenario_dir), "--sources", sources, "--out", str(out)]) == 2
        assert "names no source" in capsys.readouterr().err
        assert not out.exists()

    def test_ingest_and_evaluate_write_the_same_events(self, scenario_dir, tmp_path):
        for command in ("ingest", "evaluate"):
            argv = [command, "--scenario-dir", str(scenario_dir), "--sources", " zeek, syslog ", "--out", str(tmp_path / command)]
            assert main(argv) == 0
        events = (tmp_path / "ingest" / "events.jsonl").read_bytes()
        assert events == (tmp_path / "evaluate" / "events.jsonl").read_bytes()
        assert {json.loads(line)["source"] for line in events.splitlines()} == {"zeek", "syslog"}

    def test_expected_steps_naming_no_step_exit_2(self, scenario_dir, tmp_path, capsys):
        argv = ["evaluate", "--scenario-dir", str(scenario_dir), "--expected-steps", ",", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "--expected-steps ',' names no step" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["evaluate"]) == 1  # missing required arguments
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0


class TestReadmeLayout:
    def test_layout_names_exactly_the_package_modules(self):
        root = Path(__file__).resolve().parent.parent
        readme = (root / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Layout", 1)[1].split("```", 2)[1]
        named = set(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))
        modules = {path.name for path in (root / "src" / "chainscope").glob("*.py")} - {"__init__.py"}
        assert named == modules


class TestReadmeSubcommandTable:
    """Every flag the README's subcommand table names exists on that subcommand."""

    @staticmethod
    def table_rows():
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Subcommands", 1)[1].split("\n## ", 1)[0]
        return [re.match(r"\| `(\w+)` \|(.*)", line).groups() for line in section.splitlines() if line.startswith("| `")]

    def test_every_named_flag_exists_on_its_subcommand(self):
        subparsers = _build_parser()._subparsers._group_actions[0].choices
        rows = self.table_rows()
        assert {command for command, _ in rows} == set(subparsers)
        for command, purpose in rows:
            flags = set(re.findall(r"--[a-z][a-z-]*", purpose))
            assert flags <= set(subparsers[command]._option_string_actions), (command, flags)


# --- corrupted raw inputs --------------------------------------------------

# the two canonical timestamp forms the packaged adapters read
TIMESTAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT[0-9:.]+[+-]\d\d:\d\d|\d{9,}\.\d+")
BAD_TIMESTAMPS = ("", "x", "2024-13-01T00:00:00.000+00:00", "2024-05-01T00:00:60.000+00:00", "-1", "1e400", "9" * 30, "Jan 32 00:00:00")
JSON_VALUES = (None, 0, -1, 1.5, True, "", "x", [], {}, {"a": [1]}, 10**30)
CSV_CELLS = ('"', '"unclosed', "a,b", "", "\x00", "-1", "99999999999", "not-a-port")


@pytest.fixture(scope="module")
def packaged_inputs(tmp_path_factory):
    """Raw files of two packaged scenarios, one with a CSV export: {scenario: {file name: text}}."""
    root = tmp_path_factory.mktemp("packaged")
    inputs = {}
    for spec in ("dependency-chain", "startup-persistence"):
        assert main(["synth", "--spec", spec, "--out", str(root / spec)]) == 0
        inputs[spec] = {p.name: p.read_text(encoding="utf-8") for p in sorted((root / spec).iterdir())}
    return inputs


@st.composite
def corrupted_line(draw, name, line):
    kind = draw(st.sampled_from(["truncate", "timestamp", "json" if name.endswith(".jsonl") else "csv" if name.endswith(".csv") else "truncate"]))
    if kind == "timestamp":
        return TIMESTAMP_RE.sub(draw(st.sampled_from(BAD_TIMESTAMPS)), line, count=1)
    if kind == "json":
        try:
            doc = json.loads(line)
        except ValueError:
            return line[: len(line) // 2]
        if doc:
            doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(JSON_VALUES))
        return json.dumps(doc)
    if kind == "csv":
        cells = line.split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CSV_CELLS))
        return ",".join(cells)
    return line[: draw(st.integers(0, len(line)))]


@st.composite
def corrupted_scenarios(draw, inputs):
    spec = draw(st.sampled_from(sorted(inputs)))
    files = dict(inputs[spec])
    raw_names = sorted(name for name, text in files.items() if name != "ground_truth.json" and text)
    for _ in range(draw(st.integers(1, 3))):
        name = draw(st.sampled_from(raw_names))
        lines = files[name].split("\n")
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(corrupted_line(name, lines[i]))
        files[name] = "\n".join(lines)
    return spec, files


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_no_corrupted_raw_input_reaches_an_internal_error(packaged_inputs, data):
    """evaluate and sweep on packaged raw files with truncated lines, swapped
    JSON value types, bad CSV cells or bad timestamps exit 0 or 2, never 3."""
    spec, files = data.draw(corrupted_scenarios(packaged_inputs))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / spec
        scenario.mkdir()
        for name, text in files.items():
            (scenario / name).write_text(text, encoding="utf-8")
        sources = sorted({name.rpartition(".")[0] for name in files} - {"ground_truth"})
        budgets = Path(tmp) / "budgets.yml"
        budgets.write_text(json.dumps({"budgets": [[s] for s in sources] + [sources]}), encoding="utf-8")
        evaluate = main(["evaluate", "--scenario-dir", str(scenario), "--out", str(Path(tmp) / "run")])
        sweep = main(["sweep", "--scenario-dir", str(scenario), "--budgets", str(budgets), "--out", str(Path(tmp) / "sweep")])
    assert evaluate in (0, 2) and sweep in (0, 2)
