"""Run the mutant catalogue: plant each known fault in a copy and insist the tests catch it.

Each entry of the catalogue (`tools/mutants.json`) names one fault:

    {"name": "memo-without-den", "why": "...", "file": "src/diffcomp/engine.py",
     "snippet": "...", "replacement": "...", "tests": ["tests/test_engine.py"]}

`why` says what the fault breaks; it is printed when the mutant is not killed.  The
snippet must occur exactly once in the file.  For each entry the runner copies `src/`,
`tests/` and `pyproject.toml` into a temporary directory, replaces the snippet there, and
runs `python -m pytest -x -q` on the entry's test files with `PYTHONPATH` set to the
copy's `src/`.  A mutant is killed when pytest reports a failing test (exit status 1).
Before any mutant, the same test files must pass on an unmutated copy.

    python tools/mutants.py

Exit status 0 when every mutant is killed; 1 when a snippet does not occur exactly once,
the unmutated copy fails, or a mutant is not killed.  Standard library only.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOGUE = Path(__file__).with_name("mutants.json")
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600


def run_tests(tests: list[str], mutant: dict | None = None) -> int | str:
    """pytest's exit status on a fresh copy of the checkout, with `mutant` planted."""
    with tempfile.TemporaryDirectory(prefix="diffcomp-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            path = copy / mutant["file"]
            path.write_text(path.read_text().replace(mutant["snippet"], mutant["replacement"]))
        inherited = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join([str(copy / "src"), *inherited]))
        try:
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"


def main() -> int:
    entries = json.loads(CATALOGUE.read_text())
    problems = []
    for e in entries:
        if (count := (ROOT / e["file"]).read_text().count(e["snippet"])) != 1:
            problems.append(f"stale    {e['name']}: its snippet occurs {count} times in {e['file']}")
    if problems:
        print("\n".join(problems))
        return 1

    tests = sorted({t for e in entries for t in e["tests"]})
    start = time.perf_counter()
    if (status := run_tests(tests)) != 0:
        print(f"baseline: the unmutated copy fails {' '.join(tests)} (pytest status {status})")
        return 1
    print(f"baseline passed: {len(tests)} test files in {time.perf_counter() - start:.1f} s")

    for e in entries:
        start = time.perf_counter()
        status = run_tests(e["tests"], e)
        verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else f"ERROR ({status})"
        print(f"{verdict:<9}{e['name']}  ({' '.join(e['tests'])}, "
              f"{time.perf_counter() - start:.1f} s)", flush=True)
        if status != 1:
            print(f"         {e['why']}")
            problems.append(e["name"])
    print(f"{len(entries) - len(problems)} of {len(entries)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
