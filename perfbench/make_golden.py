"""Record ``golden/tour.json``: the README CLI tour's outputs, in text and ``--json``.

Each command runs as its own ``python -m dessinkit.cli`` process from a scratch
directory inside the checkout; stdout, stderr and the exit code are stored.
``belyi reduce --points "1,2/3"`` ends with exit 3 and a SizeGuard message,
which is its expected outcome.  Run from the repository root:

    python3 perfbench/make_golden.py
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

# the commands of the README's "CLI tour", in README order
TOUR = [
    ["dessin", "info", "gallery:1"],
    ["dessin", "iso", "gallery:1", "gallery:2"],
    ["dessin", "reg-iso", "gallery:1", "gallery:4"],
    ["dessin", "witness", "gallery:1", "gallery:3", "--word", "[x^-1 y^2 x, x y]"],
    ["word", "eval", "gallery:3", "--word", "[x^-1 y^2 x, x y]"],
    ["word", "commutes", "gallery:1", "--word", "x y", "--with", "y^2"],
    ["gallery", "list"],
    ["gallery", "export", "--k", "2"],
    ["gallery", "export", "--out", "somedir/"],
    ["model", "sec31", "--k", "2", "--trace"],
    ["model", "sec32", "--p", "5", "--k", "1", "--variant", "j"],
    ["belyi", "bmn", "--m", "3", "--n", "1"],
    ["belyi", "crit", "--map", "(X+27)^3 / (243*(X-9)^2)"],
    ["belyi", "reduce", "--points", "1,2/3"],
    ["belyi", "sturm", "--poly", "X^2-2", "--lo", "-2", "--hi", "2"],
    ["belyi", "increasing", "--poly", "4*X-4*X^2", "--lo", "0", "--hi", "1/4"],
    ["tower", "jinv", "--p", "3", "--q", "3"],
    ["tower", "distinct", "--p", "5", "--q", "2", "--gamma", "1"],
    ["lemma", "two-adic", "--poly", "X+1", "--c", "32", "--p", "3", "--q", "4", "--gamma", "1"],
    ["lemma", "delta-tilde", "--d", "1,1,1", "--c0", "1", "--c", "4", "--alpha-minus-nu", "4"],
]


def main():
    workdir = ROOT / ".bench_work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cases = []
    try:
        for argv in TOUR:
            for variant in (argv, argv + ["--json"]):
                done = workloads._cli_child(ROOT, workdir, variant)
                cases.append({"argv": variant, "exit": done.returncode,
                              "stdout": done.stdout, "stderr": done.stderr})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = Path(__file__).resolve().parent / "golden" / "tour.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
