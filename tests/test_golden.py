"""Golden digests: the packaged scenarios' synth and evaluate outputs, byte for byte.

For each packaged scenario the test runs ``synth``, then ``evaluate`` with
the defaults and with ``--gate expected``, and compares the sha256 of every
file written with ``tests/golden.json``. Everything runs from one fixed
working directory with relative paths, so ``manifest.json``, which records
input paths as given, is stable.

The golden file changes only in a change that lists the files whose bytes
moved and says why. Never regenerate it to make a failure go away. To write
it anew on purpose::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from chainscope.cli import main
from chainscope.configio import packaged_scenario_ids

GOLDEN = Path(__file__).with_name("golden.json")
RUNS = {"default": [], "gated": ["--gate", "expected"]}


def run_golden_corpus(workdir: Path) -> dict:
    """Run the corpus inside workdir and return {relative path: sha256} of every file written."""
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name in packaged_scenario_ids():
            scenario = f"scenarios/{name}"
            assert main(["synth", "--spec", name, "--out", scenario]) == 0, name
            for run, flags in RUNS.items():
                out = f"runs/{name}/{run}"
                assert main(["evaluate", "--scenario-dir", scenario, *flags, "--out", out]) == 0, (name, run)
    finally:
        os.chdir(previous)
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.rglob("*"))
        if path.is_file()
    }


def test_packaged_scenarios_match_golden_digests(tmp_path, capsys):
    digests = run_golden_corpus(tmp_path)
    capsys.readouterr()
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(digests) == sorted(golden), "the set of files written changed"
    changed = sorted(path for path in golden if digests[path] != golden[path])
    assert not changed, f"files whose bytes changed: {changed}"


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_golden_corpus(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests -> {GOLDEN}", file=sys.stderr)
