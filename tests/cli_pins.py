"""Replay every pinned CLI output through a command.

Two tables hold the pins, in one schema: each case holds an ``argv`` and its
exact ``exit``, ``stdout`` and ``stderr``.  ``cli_pins.json`` is
``{"files": {name: text}, "cases": [case, ...]}``, and each of its cases may
say in ``why`` what the pin guards.  ``perfbench/golden/tour.json``, read in
place, is the README's CLI tour in text and ``--json``; the ``tour`` workload
of the benchmark times the same cases.  Tier-1 replays both in process
(``tests/test_cli.py``: ``TestPinnedBranches`` the table, ``TestGoldenTour``
the tour), and checks that the README's tour block lists the tour's
commands.  Run as a script, this file replays both through the
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
TOUR = TABLE.parents[1] / "perfbench" / "golden" / "tour.json"
FIELDS = ("exit", "stdout", "stderr")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def table_cases():
    """The cases of ``cli_pins.json``."""
    return _read(TABLE)["cases"]


def tour_cases():
    """The README tour's cases, read in place from ``tour.json``."""
    return _read(TOUR)


def cases():
    """Every pinned case: the table's, then the README tour's."""
    return table_cases() + tour_cases()


def load(directory):
    """Write the table's input files into ``directory``; return :func:`cases`."""
    for name, text in _read(TABLE)["files"].items():
        with open(Path(directory, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return cases()


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
        pinned = load(directory)
        failures = replay(["dessinkit"], pinned, directory)
    for case, actual in failures:
        print("FAILED:", shlex.join(case["argv"]))
        for field in FIELDS:
            print(f"  expected {field}: {case[field]!r}")
            print(f"  actual {field}:   {actual[field]!r}")
    print(f"{len(pinned) - len(failures)} of {len(pinned)} pinned cases match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
