"""Run the tier-1 suite against single-line mutants, one mutant at a time.

Usage:

    python tools/mutants.py MUTANTS.json [-- PYTEST_ARGS...] > verdicts.jsonl

MUTANTS.json is a JSON list of objects with the keys ``file`` (a path
relative to the repository root, under ``src/`` or ``tests/``), ``line``
(1-based), ``old`` and ``new``; ``old`` must occur exactly once on that
line. Any other key (a ``note``, say) is copied to the verdict unchanged.

For each mutant, ``src/`` and ``tests/`` are copied to a fresh temporary
directory, with ``README.md`` and ``pyproject.toml`` (the suite reads both),
the mutant is applied there, and the suite runs as

    PYTHONPATH=<copy>/src python -m pytest -x -q -p no:cacheprovider [PYTEST_ARGS...]

PYTEST_ARGS (test ids, ``-k`` and the like) narrow the run; by default it
is the whole tier-1 suite. The working tree is never written. One JSON
record per mutant goes to stdout, in input order: the mutant's own keys,
``verdict`` ("killed" or "survived"), ``first_failure`` (the first failing
test id, or null) and ``seconds``. A run that outlives ``TIMEOUT`` seconds counts
as killed, with ``first_failure`` set to "timeout". Every mutant is checked
(its file under ``src/`` or ``tests/``, its ``old`` on its line) before any
run. Standard library only; CI does not run this script.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "README.md", "pyproject.toml")
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider")
TIMEOUT = 900  # seconds per mutant; the whole suite takes about 25 s


def mutated(mutant: dict) -> str:
    """The text of ``mutant["file"]`` with ``old`` rewritten to ``new`` on its line."""
    parts = Path(mutant["file"]).parts
    if not parts or parts[0] not in ("src", "tests") or ".." in parts:
        raise ValueError(f"{mutant['file']}: a mutant's file must be under src/ or tests/")
    lines = (ROOT / mutant["file"]).read_text().splitlines(keepends=True)
    index = mutant["line"] - 1
    if not 0 <= index < len(lines) or lines[index].count(mutant["old"]) != 1:
        raise ValueError(f"{mutant['file']}:{mutant['line']}: {mutant['old']!r} must occur once on the line")
    lines[index] = lines[index].replace(mutant["old"], mutant["new"])
    return "".join(lines)


def first_failure(output: str) -> str | None:
    """The first test id of pytest's short summary ("FAILED id - ..." or "ERROR id")."""
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("FAILED", "ERROR") and rest:
            return rest.split(" - ", 1)[0]
    return None


def run(mutant: dict, text: str, pytest_args: list[str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        (tree / mutant["file"]).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, *PYTEST, *pytest_args], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT
            )
        except subprocess.TimeoutExpired:
            verdict, failure = "killed", "timeout"
        else:
            failure = first_failure(done.stdout)
            verdict = "survived" if done.returncode == 0 else "killed"
            if verdict == "killed" and failure is None:
                failure = f"exit {done.returncode}"
        seconds = round(time.perf_counter() - start, 1)
    return {**mutant, "verdict": verdict, "first_failure": failure, "seconds": seconds}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("mutants", type=Path, help="JSON list of {file, line, old, new}")
    parser.add_argument("pytest_args", nargs="*", help="passed on to pytest after --")
    args = parser.parse_args()
    mutants = json.loads(args.mutants.read_text())
    texts = [mutated(mutant) for mutant in mutants]  # every mutant is checked before any run
    for mutant, text in zip(mutants, texts):
        print(json.dumps(run(mutant, text, args.pytest_args)), flush=True)


if __name__ == "__main__":
    main()
