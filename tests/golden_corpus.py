"""Golden digests: the packaged scenarios' CLI outputs, byte for byte.

For each packaged scenario the corpus runs ``synth``, then ``evaluate``
with the defaults, with ``--gate expected`` and with the dense rule pack
(the packaged rules plus two benign rules, so the graph has tens of nodes
and hundreds of edges), a ``sweep`` over every non-empty subset of the
scenario's sources and a ``sanitize`` of the default run's events; then
``report`` on one run directory and one sweep directory. It takes the
sha256 of every file written, inputs it writes itself included, and
compares them with ``tests/golden.json``. Everything runs from one fixed
working directory with relative paths, so ``manifest.json``, which records
input paths as given, is stable.

This module imports neither pytest nor hypothesis, so the corpus can be
checked under any interpreter that has PyYAML; ``tests/test_golden.py``
runs it in the suite. To compare, or to write the golden file anew::

    PYTHONPATH=src python tests/golden_corpus.py --check
    PYTHONPATH=src python tests/golden_corpus.py --write

The golden file changes only in a change that lists the files whose bytes
moved and says why. Never write it anew to make a failure go away.
"""

import contextlib
import hashlib
import importlib.resources
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

from chainscope.cli import main
from chainscope.configio import load_packaged_scenario

GOLDEN = Path(__file__).with_name("golden.json")
RULES_DENSE = "rules_dense.yml"
RUNS = {"default": [], "gated": ["--gate", "expected"], "dense": ["--rules", RULES_DENSE]}
SALT = "salt.txt"

# the two benign rules of bench/benign_rules.yml, appended to the packaged
# rule list: routine session and flow lines become graph nodes
BENIGN_RULES = r"""
  - rule_id: zz-benign-auth
    step: AUTH
    priority: 2
    patterns:
      - '(?i)session opened for user'
    candidate_fields: [text_blob]

  - rule_id: zz-benign-flow
    step: OUTBOUND_CONN
    priority: 1
    patterns:
      - '(?i)\bflow tcp\b'
    candidate_fields: [text_blob]
"""
DENSE_RULES_TEXT = importlib.resources.files("chainscope").joinpath("config", "rules.yml").read_text(encoding="utf-8") + BENIGN_RULES


def packaged_scenario_ids():
    """The names of the packaged scenarios, sorted."""
    root = importlib.resources.files("chainscope").joinpath("config", "scenarios")
    return sorted(p.name[: -len(".yml")] for p in root.iterdir() if p.name.endswith(".yml"))


def write_lattice_budgets(path: Path, sources) -> None:
    """A budgets document listing every non-empty subset of sources, smallest first."""
    ordered = sorted(sources)
    subsets = [c for size in range(1, len(ordered) + 1) for c in itertools.combinations(ordered, size)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("budgets:\n" + "".join(f"  - [{', '.join(c)}]\n" for c in subsets), encoding="utf-8")


def _run(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        raise RuntimeError(f"chainscope {' '.join(argv)} exited {code}")


def run_golden_corpus(workdir: Path) -> dict:
    """Run the corpus inside workdir and return {relative path: sha256} of every file written."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        Path(SALT).write_text("golden-corpus-salt\n", encoding="utf-8")
        Path(RULES_DENSE).write_text(DENSE_RULES_TEXT, encoding="utf-8")
        names = packaged_scenario_ids()
        for name in names:
            scenario = f"scenarios/{name}"
            _run("synth", "--spec", name, "--out", scenario)
            for run, flags in RUNS.items():
                _run("evaluate", "--scenario-dir", scenario, *flags, "--out", f"runs/{name}/{run}")
            budgets = f"budgets/{name}.yml"
            write_lattice_budgets(Path(budgets), load_packaged_scenario(name).sources)
            _run("sweep", "--scenario-dir", scenario, "--budgets", budgets, "--out", f"sweeps/{name}")
            sanitize = ["sanitize", "--in", f"runs/{name}/default/events.jsonl", "--salt-file", SALT]
            _run(*sanitize, "--mappings-dir", f"sanitized/{name}/mappings", "--out", f"sanitized/{name}/events.jsonl")
        _run("report", "--in", f"runs/{names[0]}/default", "--out", "reports/run.txt")
        _run("report", "--in", f"sweeps/{names[0]}", "--out", "reports/sweep.txt")
    finally:
        os.chdir(previous)
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def golden_mismatches(digests: dict) -> list:
    """The files, sorted, whose digest differs from tests/golden.json, or that only one of the two lists."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return sorted(path for path in golden.keys() | digests.keys() if golden.get(path) != digests.get(path))


if __name__ == "__main__":
    if sys.argv[1:] not in (["--check"], ["--write"]):
        sys.exit("usage: PYTHONPATH=src python tests/golden_corpus.py --check | --write")
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):  # the commands' own reports
        digests = run_golden_corpus(Path(tmp))
    if sys.argv[1] == "--write":
        GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests -> {GOLDEN}", file=sys.stderr)
    else:
        mismatches = golden_mismatches(digests)
        for path in mismatches:
            print(f"differs: {path}", file=sys.stderr)
        print(f"Python {sys.version.split()[0]}: {len(digests)} files written, {len(mismatches)} differ", file=sys.stderr)
        sys.exit(1 if mismatches else 0)
