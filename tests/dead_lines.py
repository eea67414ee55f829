"""The dead-line gate: every line of ``src/dessinkit`` runs under tier-1, or
is listed in ``UNRUN`` with its reason.

Run from the repository root, on Python 3.12 or later (PEP 669's
``sys.monitoring``), with any further arguments passed on to pytest::

    PYTHONPATH=src python tests/dead_lines.py

It runs tier-1 in this process under a line hook and exits nonzero when a
test fails, when a line of the package runs in no test and is not listed, or
when a listed line is run or gone.  A line is keyed by its file and its
stripped source text, not by its number, so that unrelated edits keep the
list valid; a text unrun at k places needs k entries.  The line tables of
the compiled sources name the lines there are; each code object's entry
line (its ``def``, ``class`` or ``lambda`` line) is left out, since calling
the code runs no instruction there.  Lines that run only in child processes
count as unrun.  Tier-1 itself does not use the hook: Python 3.10 and 3.11
have no ``sys.monitoring``.
"""

import collections
import os
import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dessinkit"

MAIN = "cli.main, the console script's entry point, runs only in child processes"
V2_S = ("two_adic_verify's exact v2_s branch: s = 0 mod 2^(alpha - nu + 1) "
        "holds by theorem (proof in the docstring); stays as the verifier's check")

# (file under src/dessinkit, stripped source text, reason), one entry a line
UNRUN = [
    ("cli.py", "try:", MAIN),
    ("cli.py", "code = run_cli(sys.argv[1:])", MAIN),
    ("cli.py", "sys.stdout.flush()", MAIN),
    ("cli.py", "except BrokenPipeError:", MAIN),
    ("cli.py", "devnull = os.open(os.devnull, os.O_WRONLY)", MAIN),
    ("cli.py", "os.dup2(devnull, sys.stdout.fileno())", MAIN),
    ("cli.py", "os.close(devnull)", MAIN),
    ("cli.py", "code = EXIT_PIPE", MAIN),
    ("cli.py", "sys.exit(code)", MAIN),
    ("cli.py", "main()", MAIN),
    ("models.py", "v2_s = v2(diff)  # exact: any higher valuation would vanish mod 2^window",
     V2_S),
    ("models.py", "exact = True", V2_S),
]


def code_lines(path: Path) -> set:
    """The line numbers in the line tables of path's compiled code objects,
    less each code object's entry line."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines |= {line for _, _, line in code.co_lines()
                  if line and line != code.co_firstlineno}
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def run_tier1(args: list) -> tuple:
    """(pytest's exit status, {real path: set of line numbers run}), every
    code location reported once and then disabled."""
    mon = sys.monitoring
    tool, runs, ours = mon.COVERAGE_ID, collections.defaultdict(set), {}
    root = str(SRC) + os.sep

    def on_line(code, line):
        name = code.co_filename
        if name not in ours:
            ours[name] = os.path.realpath(name).startswith(root)
        if ours[name]:
            runs[os.path.realpath(name)].add(line)
        return mon.DISABLE

    mon.use_tool_id(tool, "dead-line gate")
    try:
        mon.register_callback(tool, mon.events.LINE, on_line)
        mon.set_events(tool, mon.events.LINE)
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        mon.set_events(tool, 0)
        mon.free_tool_id(tool)
    return status, runs


def main(args: list) -> int:
    status, runs = run_tier1(args)
    if status != 0:
        print(f"dead-line gate: tier-1 did not pass (pytest exit {status})")
        return 1
    imported = os.path.realpath(sys.modules["dessinkit"].__file__)
    if not imported.startswith(str(SRC) + os.sep):
        print(f"dead-line gate: the tests imported {imported}, not {SRC}")
        return 1
    unrun = collections.defaultdict(list)
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(SRC).as_posix()
        for line in sorted(code_lines(path) - runs[os.path.realpath(path)]):
            unrun[name, text[line - 1].strip()].append(line)
    listed = collections.Counter((name, text) for name, text, _ in UNRUN)
    failures = [f"unrun and not listed: {name}:{lines[listed[name, text]]}: {text}"
                for (name, text), lines in unrun.items() if len(lines) > listed[name, text]]
    failures += [f"listed but not unrun: {name}: {text}"
                 for (name, text), n in listed.items() if n > len(unrun.get((name, text), ()))]
    failures += [f"listed with no reason: {name}: {text}"
                 for name, text, reason in UNRUN if not reason.strip()]
    print("\n".join(failures) or f"dead-line gate: {len(UNRUN)} listed lines unrun, "
                                  "every other line run")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
