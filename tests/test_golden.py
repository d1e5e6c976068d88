"""Golden digests: the packaged scenarios' CLI outputs, byte for byte.

For each packaged scenario the test runs ``synth``, then ``evaluate`` with
the defaults, with ``--gate expected`` and with the dense rule pack (the
packaged rules plus two benign rules, so the graph has tens of nodes and
hundreds of edges), a ``sweep`` over every non-empty
subset of the scenario's sources and a ``sanitize`` of the default run's
events; then ``report`` on one run directory and one sweep directory. It
compares the sha256 of every file written, inputs the test writes itself
included, with ``tests/golden.json``. Everything runs from one fixed
working directory with relative paths, so ``manifest.json``, which records
input paths as given, is stable. A second test reads every run's and every
sweep row's metrics, and every run's evidence.json, back through their
readers.

The golden file changes only in a change that lists the files whose bytes
moved and says why. Never regenerate it to make a failure go away. To write
it anew on purpose::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import itertools
import json
import os
import sys
import tempfile
from importlib.resources import files
from pathlib import Path

import pytest

from chainscope.cli import main
from chainscope.configio import load_packaged_scenario
from chainscope.metrics import run_metrics_from_dict, run_metrics_to_dict
from chainscope.report import read_evidence
from conftest import BENIGN_RULES, packaged_scenario_ids

GOLDEN = Path(__file__).with_name("golden.json")
RULES_DENSE = "rules_dense.yml"
RUNS = {"default": [], "gated": ["--gate", "expected"], "dense": ["--rules", RULES_DENSE]}
SALT = "salt.txt"


def write_lattice_budgets(path: Path, sources) -> None:
    """A budgets document listing every non-empty subset of sources, smallest first."""
    ordered = sorted(sources)
    subsets = [c for size in range(1, len(ordered) + 1) for c in itertools.combinations(ordered, size)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("budgets:\n" + "".join(f"  - [{', '.join(c)}]\n" for c in subsets), encoding="utf-8")


def run_golden_corpus(workdir: Path) -> dict:
    """Run the corpus inside workdir and return {relative path: sha256} of every file written."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        Path(SALT).write_text("golden-corpus-salt\n", encoding="utf-8")
        packaged_rules = files("chainscope").joinpath("config", "rules.yml").read_text(encoding="utf-8")
        Path(RULES_DENSE).write_text(packaged_rules + BENIGN_RULES, encoding="utf-8")
        names = packaged_scenario_ids()
        for name in names:
            scenario = f"scenarios/{name}"
            assert main(["synth", "--spec", name, "--out", scenario]) == 0, name
            for run, flags in RUNS.items():
                out = f"runs/{name}/{run}"
                assert main(["evaluate", "--scenario-dir", scenario, *flags, "--out", out]) == 0, (name, run)
            budgets = f"budgets/{name}.yml"
            write_lattice_budgets(Path(budgets), load_packaged_scenario(name).sources)
            sweep = ["sweep", "--scenario-dir", scenario, "--budgets", budgets, "--out", f"sweeps/{name}"]
            assert main(sweep) == 0, name
            sanitize = ["sanitize", "--in", f"runs/{name}/default/events.jsonl", "--salt-file", SALT]
            sanitize += ["--mappings-dir", f"sanitized/{name}/mappings", "--out", f"sanitized/{name}/events.jsonl"]
            assert main(sanitize) == 0, name
        assert main(["report", "--in", f"runs/{names[0]}/default", "--out", "reports/run.txt"]) == 0
        assert main(["report", "--in", f"sweeps/{names[0]}", "--out", "reports/sweep.txt"]) == 0
    finally:
        os.chdir(previous)
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus's working directory and the digests of the files written in it."""
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, run_golden_corpus(workdir)


def test_packaged_scenarios_match_golden_digests(corpus):
    _workdir, digests = corpus
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(golden), "the set of files written changed"
    changed = sorted(path for path in golden if digests[path] != golden[path])
    assert not changed, f"files whose bytes changed: {changed}"


def test_the_readers_accept_every_run_and_sweep(corpus):
    """run_metrics_from_dict gives back each metrics document as written;
    read_evidence accepts each evidence.json, dense runs included."""
    workdir, _digests = corpus
    documents = [(p, json.loads(p.read_text(encoding="utf-8"))) for p in sorted(workdir.glob("runs/*/*/metrics.json"))]
    for path in sorted(workdir.glob("sweeps/*/sweep_rows.json")):
        rows = json.loads(path.read_text(encoding="utf-8"))["rows"]
        documents.extend((path, row["metrics"]) for row in rows if row.get("metrics"))
    assert len(documents) > 3 * len(packaged_scenario_ids())
    for path, doc in documents:
        back = run_metrics_to_dict(run_metrics_from_dict(doc, path))
        assert json.dumps(back, sort_keys=True) == json.dumps(doc, sort_keys=True), path
    evidence = sorted(workdir.glob("runs/*/*/evidence.json"))
    assert [p.parent.name for p in evidence].count("dense") == len(packaged_scenario_ids())
    for path in evidence:
        assert read_evidence(path) == json.loads(path.read_text(encoding="utf-8"))


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_golden_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests -> {GOLDEN}", file=sys.stderr)
