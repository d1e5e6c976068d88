import json
import pytest

from chainscope.cli import main
from chainscope.model import events_to_jsonl
from chainscope.synth import load_ground_truth
from chainscope.tagging import StepTag, TagDecision, decisions_to_jsonl
from conftest import make_event


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
        stage1 = tmp_path / "ingested"
        assert main(["ingest", "--scenario-dir", str(scenario_dir), "--out", str(stage1)]) == 0
        report = json.loads((stage1 / "ingest_report.json").read_text())
        assert report["total_rejected"] == 0
        assert report["total_records"] > 0

        stage2 = tmp_path / "tagged"
        from importlib.resources import files

        rules_path = files("chainscope").joinpath("config").joinpath("rules.yml")
        expected = load_ground_truth(scenario_dir / "ground_truth.json").expected
        assert (
            main(
                [
                    "tag",
                    "--events",
                    str(stage1 / "events.jsonl"),
                    "--rules",
                    str(rules_path),
                    "--gate",
                    "expected",
                    "--expected-steps",
                    ",".join(sorted(s.value for s in expected.steps)),
                    "--out",
                    str(stage2),
                ]
            )
            == 0
        )
        assert (stage2 / "decisions.jsonl").exists()

        stage3 = tmp_path / "recon"
        assert (
            main(
                [
                    "reconstruct",
                    "--events",
                    str(stage1 / "events.jsonl"),
                    "--decisions",
                    str(stage2 / "decisions.jsonl"),
                    "--out",
                    str(stage3),
                ]
            )
            == 0
        )
        chains = json.loads((stage3 / "chains.json").read_text())
        assert chains[0]["steps"] == ["OUTBOUND_CONN", "INSTALL", "DOWNLOAD"]

        # the stage commands write the same bytes as evaluate
        run = tmp_path / "run"
        assert main(["evaluate", "--scenario-dir", str(scenario_dir), "--gate", "expected", "--out", str(run)]) == 0
        stages = {
            "events.jsonl": stage1,
            "ingest_report.json": stage1,
            "decisions.jsonl": stage2,
            "run_diag.json": stage2,
            "graph.json": stage3,
            "chains.json": stage3,
            "ambiguity.json": stage3,
        }
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

    def test_sweep_weights_flag_changes_category(self, scenario_dir, tmp_path):
        budgets = tmp_path / "budgets.yml"
        budgets.write_text("budgets:\n  - sources: [zeek]\n")
        weights = tmp_path / "weights.yml"
        weights.write_text("weights:\n  zeek: 3\n")
        out = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    "--scenario-dir",
                    str(scenario_dir),
                    "--budgets",
                    str(budgets),
                    "--weights",
                    str(weights),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        rows = json.loads((out / "sweep_rows.json").read_text())["rows"]
        assert rows[0]["category"] == "multi"
        assert rows[0]["effective_count"] == 3


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


class TestExitCodes:
    def test_usage_error_is_exit_1(self, capsys):
        assert main(["evaluate"]) == 1  # missing required arguments
        assert "usage error" in capsys.readouterr().err

    def test_unknown_command_is_exit_1(self):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
