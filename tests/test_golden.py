"""The golden corpus in the suite: every file's digest, and every document
read back through its reader. The corpus itself, and how to check it
without pytest, is in ``tests/golden_corpus.py``.
"""

import json

import pytest

from chainscope.metrics import run_metrics_from_dict, run_metrics_to_dict
from chainscope.report import read_evidence
from golden_corpus import golden_mismatches, packaged_scenario_ids, run_golden_corpus


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The corpus's working directory and the digests of the files written in it."""
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, run_golden_corpus(workdir)


def test_packaged_scenarios_match_golden_digests(corpus):
    _workdir, digests = corpus
    assert golden_mismatches(digests) == [], "files written, changed or no longer written"


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

