"""Replay the pinned CLI outputs of ``cli_pins.json`` through a command.

The table is ``{"files": {name: text}, "cases": [case, ...]}``; each case
holds an ``argv`` and its exact ``exit``, ``stdout`` and ``stderr``, and may
say in ``why`` what the pin guards.  Tier-1 replays it in process
(``tests/test_cli.py``).  Run as a script, this file replays it through the
installed ``dessinkit`` console script in a fresh temporary directory,
prints each case that does not match and exits 1 if any does:

    python tests/cli_pins.py

It imports only the standard library, so it runs beside any installed copy.
"""

import json
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("cli_pins.json")
FIELDS = ("exit", "stdout", "stderr")


def load(directory):
    """Write the table's input files into ``directory``; return its cases."""
    with open(TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    for name, text in table["files"].items():
        with open(Path(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return table["cases"]


def replay(command, cases, directory):
    """Run each case as ``command + argv`` in ``directory``.

    Returns the ``(case, actual)`` pairs whose exit code, stdout or stderr
    differ, ``actual`` holding the three values the child gave.
    """
    failures = []
    for case in cases:
        done = subprocess.run(command + case["argv"], cwd=directory,
                              capture_output=True, encoding="utf-8")
        actual = dict(zip(FIELDS, (done.returncode, done.stdout, done.stderr)))
        if any(actual[field] != case[field] for field in FIELDS):
            failures.append((case, actual))
    return failures


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        cases = load(directory)
        failures = replay(["dessinkit"], cases, directory)
    for case, actual in failures:
        print("FAILED:", shlex.join(case["argv"]))
        for field in FIELDS:
            print(f"  expected {field}: {case[field]!r}")
            print(f"  actual {field}:   {actual[field]!r}")
    print(f"{len(cases) - len(failures)} of {len(cases)} pinned cases match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
