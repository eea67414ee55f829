"""Acceptance suite: one test per criterion, exact values, pinned time limits.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
``ACCEPTANCE nn name: PASS`` line per criterion.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from dessinkit.belyi import (
    BmnParams,
    CritProfile,
    RatPoly,
    belyi_reduce,
    bmn,
    finite_critical_values,
    parse_map,
    propagate_crit,
    sturm_count,
    verify_reduction,
)
from dessinkit.dessins import (
    Dessin,
    dessins_isomorphic,
    distinguish_by_witness,
    regular_closures_isomorphic,
    regular_descriptor,
)
from dessinkit.errors import HypothesisFailed, NotTransitive, OutOfRange, SizeGuard
from dessinkit.models import (
    TwoAdicInstance,
    commutes_with_y2,
    expected_witness_value,
    gallery_dessin,
    local_model_24,
    local_model_8p,
    two_adic_verify,
    witness_word,
)
from dessinkit.perms import PermGroup, Permutation, parse_cycles
from dessinkit.tower import TowerField, conjugate_triples_distinct


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < limit_seconds
    verdict = "PASS" if ok else "FAIL"
    print(
        f"\nACCEPTANCE {number:02d} {name}: {verdict} "
        f"({elapsed:.2f}s, limit {limit_seconds}s)"
    )
    assert ok, f"criterion {number} exceeded its {limit_seconds}s limit"


@pytest.fixture(scope="module")
def gallery():
    return {k: gallery_dessin(k) for k in range(1, 7)}


@pytest.fixture(scope="module")
def first_descriptor(gallery):
    """Order + descriptor of the first gallery dessin, with shared timing:
    criteria 1 and 2 must complete within 60 s together."""
    start = time.perf_counter()
    descriptor = regular_descriptor(gallery[1])
    return descriptor, time.perf_counter() - start


def test_criterion_01_gallery_group_order(first_descriptor):
    descriptor, elapsed = first_descriptor
    with criterion(1, "gallery group order", 60):
        print(f"\n  group order computed in {elapsed:.2f}s (shared with 02)", end="")
        assert descriptor.group_order == 42467328 == 2**19 * 3**4
        assert elapsed < 60


def test_criterion_02_regular_descriptor(first_descriptor):
    descriptor, elapsed = first_descriptor
    with criterion(2, "regular closure descriptor", 60):
        print(f"\n  descriptor computed in {elapsed:.2f}s including criterion 01", end="")
        assert (descriptor.ord_x, descriptor.ord_y, descriptor.ord_xy) == (6, 12, 12)
        assert descriptor.euler_characteristic == -28311552 == -(2**20) * 3**3
        assert descriptor.genus == 14155777
        assert elapsed < 60  # includes the group order computation


def test_criterion_03_witness_evaluations(gallery):
    with criterion(3, "witness word evaluations", 1):
        w = witness_word()
        for k in range(1, 7):
            value = gallery[k].evaluate(w)
            assert value == expected_witness_value(k), k
        assert gallery[1].evaluate(w).is_identity
        assert str(gallery[3].evaluate(w)) == "(17,29)(21,33)"


def test_criterion_04_gallery_pairwise(gallery):
    with criterion(4, "gallery pairwise non-isomorphism", 600):
        for i in range(1, 7):
            for j in range(i + 1, 7):
                assert dessins_isomorphic(gallery[i], gallery[j]) is None, (i, j)
        w = witness_word()
        for k in range(2, 7):
            closure_iso = regular_closures_isomorphic(gallery[1], gallery[k])
            assert not closure_iso, k
            verdict = distinguish_by_witness(gallery[1], gallery[k], w)
            assert verdict.separates, k  # witness agrees with the diagonal test


def test_criterion_05_local_model_24():
    with criterion(5, "24-edge local model", 1):
        for k in range(1, 7):
            assert commutes_with_y2(local_model_24(k)) == (k == 1), k
        assert local_model_24(2).trace() == (4, 17, 5)
        assert local_model_24(4).trace() == (1, 16, 4)


def test_criterion_06_local_model_8p():
    with criterion(6, "8p-edge local models", 1):
        for p in (3, 5, 7):
            for k in range(1, 2 * p + 1):
                assert commutes_with_y2(local_model_8p(p, k, "plain")) == (k == 1)
                assert not commutes_with_y2(local_model_8p(p, k, "j"))


def test_criterion_07_bmn_suite():
    with criterion(7, "two-parameter Belyi family, m+n <= 20", 5):
        for total in range(2, 21):
            for m in range(1, total):
                n = total - m
                if math.gcd(m, n) != 1:
                    continue
                b = bmn(BmnParams(m, n))
                assert b.eval_extended(F(0)) == 0
                assert b.eval_extended(F(1)) == 0
                assert b.eval_extended(F(m, m + n)) == 1
                scale = F((m + n) ** (m + n), m**m * n**n)
                closed = (
                    RatPoly((0, 1)) ** (m - 1)
                    * RatPoly((1, -1)) ** (n - 1)
                    * RatPoly((m, -(m + n)))
                    * scale
                )
                assert b.numerator.derivative() == closed
                assert finite_critical_values(b).finite_values <= {F(0), F(1)}


def test_criterion_08_rational_map_critical_values():
    with criterion(8, "rational-map critical profile", 1):
        beta1 = parse_map("(X+27)^3 / (243*(X-9)^2)")
        profile = finite_critical_values(beta1)
        assert profile.finite_values == {F(0), F(1)}
        assert profile.includes_infinity  # the double pole contributes it
        assert beta1.denominator == RatPoly((81, -18, 1))  # (X-9)^2, monic
        out = propagate_crit(
            CritProfile.of([0, -27, 9], includes_infinity=True), beta1
        )
        assert out.finite_values == {F(0), F(1)} and out.includes_infinity


def test_criterion_09_reduction_random_suite():
    with criterion(9, "reduction chain postconditions, 100 random inputs", 300):
        rng = random.Random(20260811)
        successes = guarded = 0
        for _ in range(100):
            size = rng.randint(1, 3)
            points = set()
            while len(points) < size:
                num = rng.randint(-20, 20)
                den = rng.randint(1, 20)
                if num:
                    points.add(F(num, den))
            try:
                chain = belyi_reduce(points)
            except SizeGuard as exc:
                guarded += 1
                assert str(exc)  # reported, never silent
                continue
            report = verify_reduction(chain, points)
            assert report.ok, (sorted(points), report)
            successes += 1
        print(f"\n  reduction suite: {successes} verified, {guarded} size-guarded", end="")
        assert successes + guarded == 100
        assert successes > 0


def test_criterion_10_tower_distinctness():
    with criterion(10, "tower j-invariant distinctness", 30):
        for q in (2, 3, 5):
            ok, report = conjugate_triples_distinct(TowerField(3, q), 1)
            assert ok and report.count == 6, q
        ok, report = conjugate_triples_distinct(TowerField(5, 2), 1)
        assert ok and report.count == 20


def test_criterion_11_two_adic_verifier():
    with criterion(11, "2-adic stage certificate", 1):
        inst = TwoAdicInstance(RatPoly((1, 1)), 32, 3, 4, 1)
        report = two_adic_verify(inst)
        assert (report.m, report.n) == (17, 15)
        assert report.v2_s >= 4 and report.ok
        # oracle: direct modular computation mod 2^alpha
        assert pow(17, 17, 16) * pow(15, 15, 16) % 16 == pow(31, 15, 16)
        assert (17**17 * 15**15 - 31**15) % 16 == 0
    # the bound is a theorem: 20 random valid instances must never refute it
    rng = random.Random(97)
    checked = 0
    while checked < 20:
        c0 = rng.randint(1, 30)
        c = c0 + rng.randint(1, 30)
        coeffs = [c0] + [rng.randint(-5, 5) for _ in range(rng.randint(1, 3))]
        if coeffs[-1] == 0:
            coeffs[-1] = 1
        gamma = F(2 ** rng.randint(3, 8), 2 * rng.randint(1, 15) + 1)
        q = F(2 * rng.randint(1, 7) + 1)
        try:
            inst = TwoAdicInstance(RatPoly(coeffs), c, rng.choice((3, 5)), q, gamma)
            if inst.alpha <= inst.nu:
                continue
            report = two_adic_verify(inst)
        except (OutOfRange, HypothesisFailed):
            continue
        assert report.v2_s >= report.required
        checked += 1


def test_criterion_12_oracle_suites():
    with criterion(12, "independent oracle suites", 120):
        # (a) group order vs exhaustive closure, |G| <= 5040
        def closure_order(gens):
            ident = Permutation.identity(gens[0].degree)
            elements = {ident}
            frontier = [ident]
            while frontier:
                nxt = []
                for a in frontier:
                    for g in gens:
                        b = a * g
                        if b not in elements:
                            elements.add(b)
                            nxt.append(b)
                frontier = nxt
            return len(elements)

        s7 = [parse_cycles("(1,2)", 7), parse_cycles("(1,2,3,4,5,6,7)", 7)]
        assert PermGroup(s7).order() == closure_order(s7) == 5040
        rng = random.Random(12)
        checked = 0
        while checked < 30:
            n = rng.randint(2, 8)
            images = list(range(1, n + 1))
            gens = []
            for _ in range(rng.randint(1, 3)):
                shuffled = images[:]
                rng.shuffle(shuffled)
                gens.append(Permutation(shuffled))
            if all(g.is_identity for g in gens):
                continue
            exhaustive = closure_order(gens)
            if exhaustive > 5040:
                continue
            assert PermGroup(gens).order() == exhaustive
            checked += 1

        # (b) dessin isomorphism vs brute force over all base-edge images
        def oracle_iso(d1, d2):
            if d1.degree != d2.degree:
                return False
            n = d1.degree
            for target in range(1, n + 1):
                mapping = {1: target}
                frontier = [1]
                while frontier:
                    e = frontier.pop()
                    for sa, sb in (
                        (d1.sigma0, d2.sigma0),
                        (d1.sigma1, d2.sigma1),
                    ):
                        img = sa.apply(e)
                        if img not in mapping:
                            mapping[img] = sb.apply(mapping[e])
                            frontier.append(img)
                if len(set(mapping.values())) != n:
                    continue
                if all(
                    mapping[d1.sigma0.apply(e)] == d2.sigma0.apply(mapping[e])
                    and mapping[d1.sigma1.apply(e)] == d2.sigma1.apply(mapping[e])
                    for e in range(1, n + 1)
                ):
                    return True
            return False

        def random_dessin(n):
            while True:
                imgs = list(range(1, n + 1))
                rng.shuffle(imgs)
                s0 = Permutation(imgs)
                rng.shuffle(imgs)
                s1 = Permutation(imgs)
                try:
                    return Dessin(s0, s1)
                except NotTransitive:
                    continue

        for _ in range(30):
            n = rng.randint(2, 12)
            d1 = random_dessin(n)
            if rng.random() < 0.5:
                imgs = list(range(1, n + 1))
                rng.shuffle(imgs)
                pi = Permutation(imgs)
                inv = pi.inverse()
                d2 = Dessin(inv * d1.sigma0 * pi, inv * d1.sigma1 * pi)
            else:
                d2 = random_dessin(n)
            assert (dessins_isomorphic(d1, d2) is not None) == oracle_iso(d1, d2)

        # (c) Sturm counts vs Descartes-bisection isolation
        from test_belyi import oracle_count

        checked = 0
        while checked < 100:
            degree = rng.randint(1, 6)
            p = RatPoly([F(rng.randint(-10, 10)) for _ in range(degree + 1)])
            if p.degree < 1:
                continue
            lo = F(rng.randint(-8, 0))
            hi = lo + F(rng.randint(1, 8))
            assert sturm_count(p, lo, hi) == oracle_count(p, lo, hi)
            checked += 1
