"""Regenerate ``reduce_pool.json``, the input catalogue of the ``reduce`` workload.

The inputs are drawn exactly like acceptance criterion 09 (1 to 3 nonzero
rationals, numerator in [-20, 20], denominator in [1, 20]) from the criterion's
own seed, so the first 100 entries are the criterion's inputs.  Each entry
records the outcome (``verified`` or ``guarded``) and the exact bit sizes of
the values the reduction's two-parameter stages computed: ``bits`` is the
largest, ``work`` the sum of their squares.  Both are properties of the input
and the algorithm, not of the machine, so the file regenerates byte for byte.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_reduce_pool.py [count]
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
POOL_SEED = 20260811


def criterion09_inputs(rng, count):
    for _ in range(count):
        size = rng.randint(1, 3)
        points = set()
        while len(points) < size:
            num = rng.randint(-20, 20)
            den = rng.randint(1, 20)
            if num:
                points.add(Fraction(num, den))
        yield sorted(points)


def main(count):
    sys.path.insert(0, str(ROOT / "src"))
    from dessinkit import belyi
    from dessinkit.errors import SizeGuard

    sizes = []
    original = belyi.BmnStage.eval_extended

    def recording(self, v, work_cap_bits=belyi.DEFAULT_EVAL_WORK_BITS):
        out = original(self, v, work_cap_bits=work_cap_bits)
        if isinstance(out, Fraction):
            sizes.append(out.numerator.bit_length() + out.denominator.bit_length())
        return out

    belyi.BmnStage.eval_extended = recording
    entries = []
    try:
        for points in criterion09_inputs(random.Random(POOL_SEED), count):
            sizes.clear()
            try:
                chain = belyi.belyi_reduce(points)
                if not belyi.verify_reduction(chain, points).ok:
                    raise SystemExit(f"reduction of {points} does not verify")
                outcome = "verified"
            except SizeGuard:
                outcome = "guarded"
            entries.append({
                "points": [str(p) for p in points],
                "outcome": outcome,
                "bits": max(sizes, default=0),
                "work": sum(b * b for b in sizes),
            })
    finally:
        belyi.BmnStage.eval_extended = original
    path = Path(__file__).resolve().parent / "reduce_pool.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": POOL_SEED, "entries": entries}, fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
