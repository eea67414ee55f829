"""The benchmark's workloads: seeded inputs, the ops that call the library, and
the answer each op must give.

A workload is a list of rounds and a round is a list of ``Op``s.  All inputs
of every round are drawn from the seed when the rounds are built, before any
timing; ``Op.call`` only calls into ``dessinkit`` (always through a module
attribute, so the tracer's rebinding sees it) and ``Op.check`` compares the
result, or the exception raised, with an expectation computed in
``oracle.py`` or pinned below.  Ops of one round may share objects through a
per-round dict, the way a user reuses a loaded dessin.
"""

import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path

import dessinkit as dk
from dessinkit import cli as dk_cli
from dessinkit import tower as dk_tower

import oracle

HERE = Path(__file__).resolve().parent


class Op:
    __slots__ = ("label", "call", "check")

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check


def _perm(images):
    return dk.Permutation([v + 1 for v in images])


def _dessin(s0, s1):
    return dk.Dessin(_perm(s0), _perm(s1))


def _is_conjugating(w, pairs):
    """w maps each first permutation onto its partner by conjugation."""
    w = oracle.images0(w)
    return all(oracle.conj(a, w) == b for a, b in pairs)


def _word_ops(ctx, key, s0, s1, rng, length):
    """Evaluate a seeded random word, then sift the value through the group."""
    syllables = oracle.random_syllables(rng, length)
    text = oracle.word_text(syllables)
    expected = oracle.eval_word(syllables, s0, s1)

    def evaluate():
        d = ctx[key]
        ctx[key, "word"] = value = dk.evaluate_word(dk.parse_word(text), d.sigma0, d.sigma1)
        return value

    return [
        Op("word_eval", evaluate, lambda v: oracle.images0(v) == expected),
        Op("member", lambda: ctx[key].cartographic_group.is_member(ctx[key, "word"]),
           lambda r: r is True),
    ]


# ---------------------------------------------------------------------------
# gallery: the paper's headline computations on relabelled gallery dessins
# ---------------------------------------------------------------------------

GALLERY_ORDER = 42467328
GALLERY_GENUS = 14155777
WITNESS_TEXT = "[x^-1 y^2 x, x y]"
# images of the witness word in the six gallery actions (paper, criterion 03)
GALLERY_WITNESS = {
    1: "()",
    2: "(13,25)(15,27)(21,33)(23,35)",
    3: "(17,29)(21,33)",
    4: "(13,25)(15,27)(19,31)(21,33)",
    5: "(13,25)(17,29)",
    6: "(13,25)(19,31)(21,33)(23,35)",
}


def gallery_setup():
    """The library-side preparation: parse the six shipped gallery files."""
    return [dk.gallery_dessin(k) for k in range(1, 7)]


def _two_adic_instance(rng):
    """A random valid instance of criterion 11's family; v2(s) >= alpha - nu
    is the theorem the verifier certifies."""
    while True:
        c0 = rng.randint(1, 30)
        c = c0 + rng.randint(1, 30)
        coeffs = [c0] + [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        coeffs[-1] = coeffs[-1] or 1
        gamma = Fraction(2 ** rng.randint(3, 8), 2 * rng.randint(1, 15) + 1)
        q = Fraction(2 * rng.randint(1, 7) + 1)
        p = rng.choice((3, 5))
        point = gamma ** (2 * p) * q * q
        alpha = _v2(point.numerator) - _v2(point.denominator)
        nu = _v2(c0) + _v2(c - c0)
        ratio = oracle.poly_eval([Fraction(x) for x in coeffs], point) / c
        if alpha > nu and 0 < ratio < 1 and ratio != Fraction(c0, c):
            return coeffs, c, p, q, gamma


def _v2(x):
    x = abs(x)
    return (x & -x).bit_length() - 1


def _gallery_round(rng, r, sigma, witness):
    pi = oracle.random_perm(rng, 36)
    ctx = {}
    conj = {k: (oracle.conj(s0, pi), oracle.conj(s1, pi)) for k, (s0, s1) in sigma.items()}
    ops = []
    for k in range(1, 7):
        def describe(k=k, text=oracle.dessin_text(*conj[k])):
            ctx[k] = dk.load_dessin(text)
            return dk.regular_descriptor(ctx[k])

        ops.append(Op("descriptor", describe,
                      lambda d: (d.group_order, d.genus) == (GALLERY_ORDER, GALLERY_GENUS)))
    for k in range(1, 7):
        ops.append(Op("witness_eval",
                      lambda k=k: ctx[k].evaluate(dk.parse_word(WITNESS_TEXT)),
                      lambda v, e=oracle.conj(witness[k], pi): oracle.images0(v) == e))
    for i in range(1, 7):
        for j in range(i + 1, 7):
            ops.append(Op("iso", lambda i=i, j=j: dk.dessins_isomorphic(ctx[i], ctx[j]),
                          lambda w: w is None))
    for k in range(2, 7):
        ops.append(Op("reg_iso", lambda k=k: dk.regular_closures_isomorphic(ctx[1], ctx[k]),
                      lambda same: same is False))
        # exactly one of the two witness values is the identity
        ops.append(Op("witness_verdict",
                      lambda k=k: dk.distinguish_by_witness(
                          ctx[1], ctx[k], dk.parse_word(WITNESS_TEXT)),
                      lambda v: v.separation is dk.Separation.KERNEL))
    k = r % 6 + 1
    ops.append(Op("iso_witness", lambda: dk.dessins_isomorphic(dk.gallery_dessin(k), ctx[k]),
                  lambda w: w is not None and _is_conjugating(w, zip(sigma[k], conj[k]))))
    k24 = rng.choice((1, rng.randint(2, 6)))
    ops.append(Op("local_model_24", lambda: dk.commutes_with_y2(dk.local_model_24(k24)),
                  lambda c: c is (k24 == 1)))
    p = rng.choice((3, 5, 7, 11))
    k8p = rng.choice((1, rng.randint(2, 2 * p)))
    variant = rng.choice(("plain", "j"))
    ops.append(Op("local_model_8p",
                  lambda: dk.commutes_with_y2(dk.local_model_8p(p, k8p, variant)),
                  lambda c: c is (variant == "plain" and k8p == 1)))
    coeffs, c, p2, q, gamma = _two_adic_instance(rng)
    ops.append(Op("two_adic",
                  lambda: dk.two_adic_verify(dk.TwoAdicInstance(dk.RatPoly(coeffs), c, p2, q, gamma)),
                  lambda rep: rep.v2_s >= rep.required))
    for _ in range(3):
        k = rng.randint(1, 6)
        ops.extend(_word_ops(ctx, k, *conj[k], rng, 12))
    return ops


def gallery_rounds(seed, count, originals):
    rng = random.Random(seed)
    sigma = {k: (oracle.images0(d.sigma0), oracle.images0(d.sigma1))
             for k, d in enumerate(originals, 1)}
    witness = {k: oracle.parse_cycles_text(t, 36) for k, t in GALLERY_WITNESS.items()}
    return [_gallery_round(rng, r, sigma, witness) for r in range(count)]


# ---------------------------------------------------------------------------
# giants: random transitive pairs, whose groups are almost always A_n or S_n
# ---------------------------------------------------------------------------

GIANT_DEGREES = tuple(range(10, 31, 2))


def _transitive_pair(rng, n):
    while True:
        a, b = oracle.random_perm(rng, n), oracle.random_perm(rng, n)
        if oracle.is_transitive((a, b)):
            return a, b


def _giant_ops(rng, n):
    ctx = {}
    a, b = _transitive_pair(rng, n)
    pi = oracle.random_perm(rng, n)
    ca, cb = oracle.conj(a, pi), oracle.conj(b, pi)
    while True:  # an unrelated pair with another black passport
        ua, ub = _transitive_pair(rng, n)
        if oracle.cycle_type(ua) != oracle.cycle_type(a):
            break
    ord_x = math.lcm(*oracle.cycle_type(a))
    syllables = oracle.random_syllables(rng, 16)
    word_text = oracle.word_text(syllables)
    word_value = oracle.eval_word(syllables, a, b)

    def word_member():
        d = ctx["d"]
        value = dk.evaluate_word(dk.parse_word(word_text), d.sigma0, d.sigma1)
        return value, d.cartographic_group.is_member(value)

    def describe(key, s0, s1):
        ctx[key] = _dessin(s0, s1)
        ctx[key, "descriptor"] = d = dk.regular_descriptor(ctx[key])
        return d

    def order_ok(d):
        # a transitive group of degree n: n | order | n!
        return (math.factorial(n) % d.group_order == 0
                and d.group_order % n == 0 and d.ord_x == ord_x)

    return [
        Op("descriptor", lambda: describe("d", a, b), order_ok),
        Op("descriptor_copy", lambda: describe("copy", ca, cb),
           lambda d: order_ok(d) and d == ctx["d", "descriptor"]),
        Op("iso_copy", lambda: dk.dessins_isomorphic(ctx["d"], ctx["copy"]),
           lambda w: w is not None and _is_conjugating(w, ((a, ca), (b, cb)))),
        Op("iso_unrelated", lambda: dk.dessins_isomorphic(ctx["d"], _dessin(ua, ub)),
           lambda w: w is None),
        # one op, so that per degree two ops are cheaper and two dearer than
        # it and op_p50_ms falls inside this kind instead of between two kinds
        Op("word_member", word_member,
           lambda out: oracle.images0(out[0]) == word_value and out[1] is True),
    ]


def giants_rounds(seed, count, degrees=GIANT_DEGREES):
    rng = random.Random(seed)
    return [[op for n in degrees for op in _giant_ops(rng, n)] for _ in range(count)]


# ---------------------------------------------------------------------------
# reduce: criterion 09's Belyi reductions, stratified by their stage sizes
# ---------------------------------------------------------------------------

# stage work (sum of squared stage-value bit sizes) separating the strata
REDUCE_HEAVY = 10**11
REDUCE_HEAVY_MAX = 10**12
REDUCE_MEDIUM = 10**9
REDUCE_ROUND = {"heavy": 2, "medium": 3, "light": 16}


def load_reduce_pool():
    with open(HERE / "reduce_pool.json", encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    strata = {"heavy": [], "medium": [], "light": []}
    for e in entries:
        if e["work"] >= REDUCE_HEAVY_MAX:
            continue
        name = ("heavy" if e["work"] >= REDUCE_HEAVY
                else "medium" if e["work"] >= REDUCE_MEDIUM else "light")
        strata[name].append(e)
    return strata


def reduce_rounds(seed, count, strata, per_round=REDUCE_ROUND):
    """Round r takes the heavy and medium inputs next in catalogue order, so
    every run times the same expensive inputs.  The light stratum is split,
    by stage work, into as many equal bands as a round takes light inputs, and
    the seed draws one input from each band, without replacement; it also
    sets the order of the ops."""
    rng = random.Random(seed)
    k = per_round["light"]
    light = sorted(strata["light"], key=lambda e: e["work"])
    bands = [oracle.shuffled(rng, light[i * len(light) // k:(i + 1) * len(light) // k])
             for i in range(k)]
    count = min([count, min(map(len, bands))]
                + [len(strata[name]) // per_round[name] for name in ("heavy", "medium")
                   if per_round[name]])
    rounds = []
    for r in range(count):
        picked = [band[r] for band in bands]
        for name in ("heavy", "medium"):
            n = per_round[name]
            picked += strata[name][r * n:(r + 1) * n]
        ops = []
        for entry in oracle.shuffled(rng, picked):
            points = [Fraction(p) for p in entry["points"]]

            def reduce_and_verify(points=points):
                return dk.verify_reduction(dk.belyi_reduce(points), points)

            if entry["outcome"] == "verified":
                check = lambda rep: isinstance(rep, dk.belyi.ReductionReport) and rep.ok
            else:
                check = lambda exc: isinstance(exc, dk.SizeGuard) and bool(str(exc))
            ops.append(Op("reduce", reduce_and_verify, check))
        rounds.append(ops)
    return rounds


# ---------------------------------------------------------------------------
# algebra: tower-field arithmetic and exact real-root machinery
# ---------------------------------------------------------------------------


def _j_images(img, p, q, gamma):
    """Images in F_l of the j-invariants of all Galois conjugates of
    (0, 1 - zeta, gamma t), or None when some denominator vanishes mod l."""
    ell, w, r = img.ell, img.w, img.r
    g = gamma.numerator * pow(gamma.denominator, -1, ell) % ell
    out = []
    for i in range(p):
        for u in range(1, p):
            b = (1 - pow(w, u, ell)) % ell
            c = g * pow(w, i, ell) * r % ell
            if b == 0:
                return None
            lam = c * pow(b, -1, ell) % ell
            den = lam * lam * (lam - 1) ** 2 % ell
            if den == 0:
                return None
            num = 256 * pow(lam * lam - lam + 1, 3, ell)
            out.append(num * pow(den, -1, ell) % ell)
    return out


def _distinct_instance(rng, p, images):
    """(q, gamma) whose p(p-1) conjugate j-invariants are certified pairwise
    distinct by their images in a prime field."""
    while True:
        q = Fraction(rng.choice((2, 3, 5, 7, 11)), rng.choice((1, 3)))
        gamma = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if oracle.is_pth_power(q, p):
            continue
        for start in (2**31, 2**40):
            img = images.setdefault((p, q, start), oracle.PrimeImage(p, q, start))
            js = _j_images(img, p, q, gamma)
            if js is not None and len(set(js)) == len(js):
                return q, gamma


def _tower_ops(rng, p, images):
    q = Fraction(rng.choice(("2", "3", "5", "7", "2/3", "5/3", "7/3")))
    imgs = [images.setdefault((p, q, s), oracle.PrimeImage(p, q, s)) for s in (2**31, 2**40)]
    a_coords = oracle.random_tower_coords(rng, p, p * (p - 1) // 2)
    b_coords = oracle.random_tower_coords(rng, p, p * (p - 1) // 2)
    shift, unit = rng.randrange(p), rng.randrange(1, p)
    field = lambda: dk.TowerField(p, q)

    def product_ok(e):
        return all(m.image(e.coordinates) == m.image(a_coords) * m.image(b_coords) % m.ell
                   for m in imgs)

    def inverse_ok(e):
        return all(m.image(e.coordinates) * m.image(a_coords) % m.ell == 1 for m in imgs)

    def galois_ok(e):
        return all(m.image(e.coordinates) == m.image(a_coords, shift, unit) for m in imgs)

    return [
        Op("tower_mul", lambda: dk.TowerElement(field(), a_coords) * dk.TowerElement(field(), b_coords),
           product_ok),
        Op("tower_inverse", lambda: dk.TowerElement(field(), a_coords).inverse(), inverse_ok),
        Op("tower_galois", lambda: dk_tower.galois_apply(
            field(), shift, unit, dk.TowerElement(field(), a_coords)), galois_ok),
    ]


ROOT_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
# root counts asked of each product; with four, the Sturm counts (whose cost
# varies least) hold the middle of the op-time distribution, so op_p50_ms
# does not sit on the border between two kinds of op
STURM_QUERIES = 4


def _poly_ops(rng, degree_linear):
    ops = []
    # Belyi family member and its critical values
    total = rng.randint(2, 20)
    m = rng.choice([k for k in range(1, total) if math.gcd(k, total - k) == 1])
    n = total - m
    expected_crit = {Fraction(1)} | ({Fraction(0)} if total > 2 else set())
    ctx = {}

    def make_bmn():
        ctx["bmn"] = b = dk.bmn(dk.BmnParams(m, n))
        return b

    ops.append(Op("bmn", make_bmn,
                  lambda b: list(b.numerator.coefficients) == oracle.bmn_numerator(m, n)
                  and b.denominator.coefficients == (1,)))
    ops.append(Op("crit", lambda: dk.finite_critical_values(ctx["bmn"]),
                  lambda prof: prof.finite_values == expected_crit))
    # rational roots: seeded linear factors times an irreducible quadratic;
    # distinct prime numerators and denominators fix the divisor counts the
    # rational-root search meets, so every sample costs about the same
    numerators = rng.sample(ROOT_PRIMES, degree_linear)
    denominators = rng.sample(ROOT_PRIMES[:6], degree_linear // 2)
    denominators += [1] * (degree_linear - len(denominators))
    roots = {Fraction(rng.choice((-1, 1)) * a, b) for a, b in zip(numerators, denominators)}
    poly = [Fraction(rng.choice((1, 2, 3)))]
    for r in roots:
        poly = oracle.poly_mul(poly, [-r, Fraction(1)])
    s = Fraction(rng.choice((2, 3, 5, 7)))
    poly = oracle.poly_mul(poly, [s, Fraction(0), Fraction(1)])
    roots = dict.fromkeys(roots, 1)
    ops.append(Op("rational_roots", lambda: dk.rational_roots(dk.RatPoly(poly)),
                  lambda out: out[0] == roots
                  and list(out[1].coefficients) == [s, 0, 1]))
    for _ in range(STURM_QUERIES):
        lo = Fraction(rng.randint(-40, 20), rng.randint(1, 3))
        hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 3))
        inside = sum(1 for r in roots if lo < r <= hi)
        ops.append(Op("sturm", lambda lo=lo, hi=hi: dk.sturm_count(dk.RatPoly(poly), lo, hi),
                      lambda k, inside=inside: k == inside))
    # monotonicity: f' = sign * ((X - c)^2 + e) * (X - z) with z off or on [lo, hi]
    c0 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    e = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    z = rng.choice((lo - rng.randint(1, 5), (lo + hi) / 2, hi + rng.randint(1, 5)))
    sign = 1 if z < lo else -1
    deriv = oracle.poly_mul([c0 * c0 + e, -2 * c0, Fraction(1)], [-z * sign, Fraction(sign)])
    f = oracle.antiderivative(deriv)
    increasing = not lo <= z <= hi  # f' > 0 off z; with z inside f' changes sign
    ops.append(Op("increasing", lambda: dk.certify_increasing(dk.RatPoly(f), lo, hi),
                  lambda ok: ok is increasing))
    return ops


def algebra_rounds(seed, count, tower_primes=(3, 5, 7, 7), distinct_primes=(3, 5),
                   degree_linear=8, poly_sets=14):
    """Each round: j-distinctness at p = 3 and 5, a product, inverse and
    Galois image at each of ``tower_primes``, and ``poly_sets`` polynomial
    sets.  The p = 5 distinctness and the two p = 7 inverses are the round's
    three slowest ops, so the tail percentile falls among them."""
    rng = random.Random(seed)
    images = {}
    rounds = []
    for _ in range(count):
        groups = []
        for p in distinct_primes:
            q, gamma = _distinct_instance(rng, p, images)
            groups.append([Op("tower_distinct",
                              lambda p=p, q=q, gamma=gamma: dk.conjugate_triples_distinct(
                                  dk.TowerField(p, q), gamma),
                              lambda out, p=p: out[0] is True and out[1].count == p * (p - 1))])
        groups += [_tower_ops(rng, p, images) for p in tower_primes]
        groups += [_poly_ops(rng, degree_linear) for _ in range(poly_sets)]
        rng.shuffle(groups)
        rounds.append([op for group in groups for op in group])
    return rounds


# ---------------------------------------------------------------------------
# tour: the README's CLI tour, each command a fresh process
# ---------------------------------------------------------------------------


def load_golden():
    with open(HERE / "golden" / "tour.json", encoding="utf-8") as fh:
        return json.load(fh)


def _cli_child(root, workdir, argv):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-m", "dessinkit.cli", *argv],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def _cli_inprocess(argv, tracer):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = dk_cli.run_cli(argv)
    if tracer is not None:
        tracer.add("cli.stdout_bytes", len(out.getvalue().encode("utf-8")))
    return code, out.getvalue(), err.getvalue()


def tour_rounds(seed, count, root, workdir, golden, inprocess=False, tracer=None):
    """Each round runs every golden command once, in seeded order."""
    rng = random.Random(seed)
    rounds = []
    for _ in range(count):
        ops = []
        for case in oracle.shuffled(rng, golden):
            expected = (case["exit"], case["stdout"], case["stderr"])
            argv = case["argv"]
            if inprocess:
                call = lambda argv=argv: _cli_inprocess(argv, tracer)
            else:
                def call(argv=argv):
                    done = _cli_child(root, workdir, argv)
                    return done.returncode, done.stdout, done.stderr
            ops.append(Op("cli", call, lambda got, e=expected: tuple(got) == e))
        rounds.append(ops)
    return rounds
