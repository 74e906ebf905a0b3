"""Check that the tests catch each mutant of ``fixtures/mutants.jsonl``.

    python tests/run_mutants.py

Run from anywhere.  Each line of the corpus is one mutant: ``file``
(relative to the repository root), ``old``, a text that occurs exactly once
in that file, ``new``, the text that replaces it, and ``tests``, the pytest
ids that must then fail.  Each mutant is applied to its own temporary copy
of the repository, so the working tree is never edited, and its tests run
there with ``-x``.  A mutant that makes a test hang fails it through the
per-test time limit of ``conftest.py``.

Prints one line per mutant: ``killed`` when pytest reports a failure,
``SURVIVED`` when the tests pass, ``ERROR`` for any other pytest exit code
(a test id that names nothing, say), ``HUNG`` when the run outlasts
``RUN_LIMIT_S``.  A ``SURVIVED`` or ``ERROR`` line also names pytest's exit
code.  Exits 1 unless every mutant is killed.
Pytest does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "fixtures" / "mutants.jsonl"
# What the tests read: the package, the tests, the benchmark's tracer and
# the README's library example.
COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
# A backstop for a hang the per-test limit cannot stop.
RUN_LIMIT_S = 900


def load_mutants(path=CORPUS):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def mutated_copy(mutant, into):
    """Copy the repository into ``into`` and apply ``mutant`` there."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, into / name)
    path = into / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['id']}: old text must occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def run_mutant(mutant):
    """Run the mutant's tests on a mutated copy; return (status, seconds, pytest's last
    line, preceded by pytest's exit code unless the status is ``killed``)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        mutated_copy(mutant, Path(tmp))
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                command + mutant["tests"],
                cwd=tmp,
                env=env,
                capture_output=True,
                text=True,
                timeout=RUN_LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            return "HUNG", time.monotonic() - start, f"stopped after {RUN_LIMIT_S} s"
        seconds = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    status = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
    last = lines[-1] if lines else proc.stderr.strip()
    if status != "killed":
        last = f"exit code {proc.returncode}: {last}"
    return status, seconds, last


def main():
    mutants = load_mutants()
    killed = 0
    for mutant in mutants:
        status, seconds, last = run_mutant(mutant)
        killed += status == "killed"
        print(f"{status:8} {seconds:6.1f}s  {mutant['id']}: {last}", flush=True)
    print(f"{killed} of {len(mutants)} mutants killed")
    return 0 if killed == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(main())
