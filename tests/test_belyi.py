"""Exact polynomial calculus tests: the Belyi family, critical profiles,
Sturm counting against a Descartes-bisection oracle, and the reduction chain."""

import collections
import functools
import hashlib
import itertools
import json
import logging
import math
import random
import re
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessinkit import belyi
from dessinkit._exact import brief
from dessinkit.belyi import (
    INFINITY,
    BelyiChain,
    BmnParams,
    BmnStage,
    CritProfile,
    RatMap,
    RatPoly,
    belyi_reduce,
    bmn,
    certify_increasing,
    finite_critical_values,
    pair_from_ratio,
    parse_map,
    parse_poly,
    propagate_crit,
    rational_roots,
    sturm_count,
    verify_reduction,
)
from dessinkit.belyi import (
    ONE_POLY,
    X,
    _coprime_base,
    _largest_exponent,
    _squarefree_chain,
    _stage_pair,
    _stage_vector,
)
from dessinkit.cli import run_cli
from dessinkit.errors import (
    DivisionByZero,
    IrrationalCriticalPoints,
    NotCoprime,
    OutOfRange,
    ParseError,
    SizeGuard,
)

import child

BETA1 = "(X+27)^3 / (243*(X-9)^2)"


# ---------------------------------------------------------------------------
# oracle: polynomials as tuples of Fractions, with schoolbook arithmetic and
# long division, sharing no code with RatPoly's integers over one denominator
# ---------------------------------------------------------------------------


class FracPoly:
    """Polynomial with Fraction coefficients, low degree first."""

    def __init__(self, coefficients=()):
        coeffs = [F(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coefficients) - 1

    @property
    def is_zero(self):
        return not self.coefficients

    @property
    def leading(self):
        return self.coefficients[-1]

    def __call__(self, v):
        acc = F(0)
        for c in reversed(self.coefficients):
            acc = acc * v + c
        return acc

    def __add__(self, other):
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FracPoly(out)

    def __neg__(self):
        return FracPoly(-c for c in self.coefficients)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return FracPoly(c * other for c in self.coefficients)
        out = [F(0)] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return FracPoly(out)

    def __pow__(self, exponent):
        out = FracPoly([1])
        for _ in range(exponent):
            out = out * self
        return out

    def derivative(self):
        return FracPoly(i * c for i, c in enumerate(self.coefficients) if i)

    def divmod(self, other):
        rem, d = list(self.coefficients), other.degree
        quo = [F(0)] * max(0, len(rem) - d)
        while len(rem) > d:
            shift, factor = len(rem) - 1 - d, rem[-1] / other.leading
            quo[shift] = factor
            for i, c in enumerate(other.coefficients):
                rem[shift + i] -= factor * c
            while rem and rem[-1] == 0:
                rem.pop()
        return FracPoly(quo), FracPoly(rem)

    def monic(self):
        return self * (1 / self.leading) if self.coefficients else self

    def __str__(self):
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            xs = "" if i == 0 else "X" if i == 1 else f"X^{i}"
            body = str(abs(c)) if not xs else xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# oracle: Descartes-rule bisection root isolation (independent of Sturm)
# ---------------------------------------------------------------------------


def _descartes_variations(coeffs):
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def _roots_in_01_open(p: FracPoly) -> int:
    """Distinct roots of squarefree p in the open unit interval, by the
    Vincent-Collins-Akritas bisection."""
    n = p.degree
    if n < 1:
        return 0
    # variation bound for (0,1): coefficients of (1+x)^n p(1/(1+x))
    rev = list(reversed(p.coefficients))  # p(1/x) * x^n
    trans = list(rev)
    # substitute x -> x + 1 by repeated synthetic addition
    for i in range(len(trans) - 1):
        for j in range(len(trans) - 2, i - 1, -1):
            trans[j] += trans[j + 1]
    v = _descartes_variations(trans)
    if v == 0:
        return 0
    if v == 1:
        return 1
    half = F(1, 2)
    left = FracPoly([c * half**i for i, c in enumerate(p.coefficients)])
    right_coeffs = list(left.coefficients) + [F(0)] * (n + 1 - len(left.coefficients))
    # p((x+1)/2) from p(x/2) by shifting
    shifted = list(right_coeffs)
    for i in range(len(shifted) - 1):
        for j in range(len(shifted) - 2, i - 1, -1):
            shifted[j] += shifted[j + 1]
    count = _roots_in_01_open(left) + _roots_in_01_open(FracPoly(shifted))
    if p(half) == 0:
        count += 1
    return count


def _euclid_gcd(a: FracPoly, b: FracPoly) -> FracPoly:
    """Monic gcd by Euclid's algorithm over the rationals, so the oracles do
    not share the library's integer remainder sequence."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


def _euclid_squarefree(p: FracPoly) -> FracPoly:
    if p.degree < 1:
        return p.monic()
    return p.divmod(_euclid_gcd(p, p.derivative()))[0].monic()


def oracle_count(p: RatPoly, lo: F, hi: F) -> int:
    """Distinct real roots of p in (lo, hi], by VCA on the squarefree part."""
    ps = _euclid_squarefree(FracPoly(p.coefficients))
    if ps.degree < 1:
        return 0
    # affine change mapping (0,1) onto (lo, hi)
    acc = FracPoly([F(1)])
    result = FracPoly([])
    shift = FracPoly([lo, hi - lo])
    for c in ps.coefficients:
        result = result + acc * c
        acc = acc * shift
    return _roots_in_01_open(result) + (1 if ps(hi) == 0 else 0)


# ---------------------------------------------------------------------------
# arithmetic and parsing
# ---------------------------------------------------------------------------


class TestPolyParsing:
    def test_beta1(self):
        f = parse_map(BETA1)
        assert f.numerator == (X + RatPoly((27,))) ** 3 * F(1, 243)
        assert f.denominator == (X - RatPoly((9,))) ** 2

    def test_rational_coefficients(self):
        assert parse_poly("27/4*X^2*(1-X)") == RatPoly((0, 0, F(27, 4), F(-27, 4)))

    def test_errors(self):
        for bad in ("X +", "(X", "2**3", "X^", "1/0", "Y"):
            with pytest.raises((ParseError, ZeroDivisionError)):
                parse_map(bad)

    def test_digits_of_one_integer_are_contiguous(self):
        assert parse_poly(" X - 12 ") == X - RatPoly((12,))
        with pytest.raises(ParseError, match="trailing input at position 6"):
            parse_poly("X - 1 2")
        with pytest.raises(ParseError):
            parse_map("X^1 2")

    def test_non_polynomial_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("1/(X+1)")

    def test_map_reduction(self):
        f = parse_map("(X^2-1)/(X-1)")
        assert f.is_polynomial and f.numerator == X + RatPoly((1,))

    def test_degree_cap_checked_before_a_power_is_expanded(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("power expanded before the degree cap was checked")

        monkeypatch.setattr(RatPoly, "__pow__", refuse)
        for text in ("(X+1)^2001", "(X*X-X)^-1001", "(X+1)^" + "9" * 200, "1 + X^3000"):
            with pytest.raises(SizeGuard, match="over the degree cap 2000"):
                parse_map(text)

    def test_degree_cap_on_products_and_sums(self):
        with pytest.raises(SizeGuard, match="map of degree 3000 before position 13"):
            parse_map("X^1500*X^1500")
        with pytest.raises(SizeGuard, match="map of degree 2500"):
            parse_map("X^1500 + 1/X^1000")
        # cancellation keeps a map under the cap, and a constant has degree 0
        assert parse_map("X^1500*X^500/X^1000").mapping_degree == 1000
        assert parse_map("2^5000 * X^2000").mapping_degree == 2000

    def test_degree_cap_checked_before_a_polynomial_product(self):
        for text, degree in (
            ("(X-1)^1500*(X+1)^1500", 3000),
            ("(X-1)^2000*(X-1)^2000", 4000),
        ):
            start = time.perf_counter()
            with pytest.raises(SizeGuard) as exc:
                parse_map(text)
            assert time.perf_counter() - start < 1
            assert str(exc.value) == (
                f"map of degree {degree} before position 21 in expression is over "
                "the degree cap 2000"
            )
        # a zero factor keeps the product at degree 0
        assert parse_map("(X-X)*X^2000*X^2000").mapping_degree == 0

    def test_size_cap_leaves_these_maps(self):
        for text in ("2^1000000*X+X^2", "3^700000*X+X^2", "2^5000 * X^2000", "(X-1)^2000"):
            parse_map(text)
        # a product is checked on its actual size once it is built
        with pytest.raises(SizeGuard, match="map of up to 6000004 bits before position 19"):
            parse_map("2^3000000*2^3000000")

    def test_power_at_degree_1000_is_integer_work(self):
        start = time.perf_counter()
        p = parse_poly("(X-1)^1000")
        assert time.perf_counter() - start < 1
        assert p.coefficients[:3] == (1, -1000, 499500) and p.degree == 1000

    def test_negation_and_powers_of_a_map_take_no_gcd(self):
        # a reduced map's negation and powers are reduced; recomputing the
        # gcd with 2000-bit coefficients took 15 s
        for big in (13, 7**712):
            inner = f"X + (7/X + 40 - X)/X * (X + X*(11 + {big}/X)/X^3 - 31)"
            start = time.perf_counter()
            f = parse_map(f"-({inner})^4")
            assert time.perf_counter() - start < 1
            g = parse_map(inner)
            assert f.numerator == -g.numerator ** 4 and f.denominator == g.denominator ** 4
            assert f.mapping_degree == 20
        assert f == -(g ** 4)
        g = parse_map(inner.replace(str(big), "13"))
        assert -(g ** 4) == RatMap(-g.numerator ** 4, g.denominator ** 4)


def _poly_pair(rng):
    """A RatPoly and its FracPoly oracle from one list of coefficients: often
    zero, constant, with trailing zeros, negative or fractional."""
    coeffs = [F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 12)))
              for _ in range(rng.choice((0, 1, 1, 2, 3, 4, 6)))]
    coeffs += [0] * rng.randint(0, 2)
    return RatPoly(coeffs), FracPoly(coeffs)


class TestIntegerBackedPolynomials:
    """RatPoly, integers over one denominator, against the Fraction oracle."""

    @staticmethod
    def same(p, oracle):
        assert all(type(c) is F for c in p.coefficients)
        assert p.coefficients == oracle.coefficients, (p, oracle)
        assert (p.degree, p.is_zero, str(p)) == (oracle.degree, oracle.is_zero, str(oracle))
        if oracle.is_zero:
            with pytest.raises(ValueError):
                p.leading
        else:
            assert p.leading == oracle.leading

    def test_every_method_matches_the_fraction_oracle(self):
        rng = random.Random(2014)
        for _ in range(300):
            (p, fp), (q, fq) = _poly_pair(rng), _poly_pair(rng)
            k, c = rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 4))
            e = rng.randint(0, 4)
            for got, want in ((p, fp), (p + q, fp + fq), (p - q, fp - fq), (-p, -fp),
                              (p * q, fp * fq), (p * k, fp * k), (k * p, fp * k),
                              (p * c, fp * c), (c * p, fp * c), (p ** e, fp ** e),
                              (p.derivative(), fp.derivative())):
                self.same(got, want)
            for v in (k, c):
                assert p(v) == fp(v) and type(p(v)) is F, (p, v)
            # one polynomial built two ways has one representation
            for x, y in ((p * q, q * p), ((p + q) - q, p)):
                assert x == y and hash(x) == hash(y), (x, y)

    def test_constructor_takes_any_rational_and_raises_as_fraction_does(self):
        # ints and Fractions (bool and subclasses too) are read by their
        # parts, anything else goes through Fraction(c) and its errors
        class Half(F):
            pass

        coeffs = [True, 2, -7, F(3, 4), Half(1, 2), "5/6", 0.5, Decimal("-0.25"), False]
        p = RatPoly(coeffs)
        assert p.coefficients == tuple(F(c) for c in coeffs[:-1])
        assert all(type(c) is F for c in p.coefficients)
        for bad in ("x", None, float("nan"), float("inf"), 1j):
            with pytest.raises(Exception) as want:
                F(bad)
            with pytest.raises(want.type) as got:
                RatPoly([1, bad])
            assert str(got.value) == str(want.value), bad


class TestEvalExtended:
    def test_beta1_values(self):
        f = parse_map(BETA1)
        assert f.eval_extended(F(-27)) == 0
        assert f.eval_extended(F(9)) is INFINITY
        assert f.eval_extended(F(0)) == 1
        assert f.eval_extended(F(81)) == 1

    def test_at_infinity(self):
        assert parse_map(BETA1).eval_extended(INFINITY) is INFINITY
        assert parse_map("1/(X^2+1)").eval_extended(INFINITY) == 0
        assert parse_map("(2*X+1)/(3*X-1)").eval_extended(INFINITY) == F(2, 3)


class TestCriticalValues:
    def test_beta1(self):
        prof = finite_critical_values(parse_map(BETA1))
        assert prof.finite_values == {F(0), F(1)}
        assert prof.includes_infinity  # double pole at 9

    def test_sixth_power(self):
        prof = finite_critical_values(RatMap(X**6))
        assert prof.finite_values == {F(0)} and prof.includes_infinity

    def test_parabola(self):
        prof = finite_critical_values(parse_map("X^2+X+1"))
        assert prof.finite_values == {F(3, 4)}

    def test_moebius_unramified(self):
        prof = finite_critical_values(parse_map("(X+1)/(X-1)"))
        assert prof == CritProfile.empty()

    def test_irrational_critical_points(self):
        with pytest.raises(IrrationalCriticalPoints) as exc:
            finite_critical_values(RatMap(X**3 - 6 * X))  # crit pts +-sqrt(2)
        assert exc.value.cofactor.degree == 2

    def test_reciprocal_square(self):
        prof = finite_critical_values(parse_map("1/(X^2)"))
        assert prof.finite_values == {F(0)} and prof.includes_infinity

    def test_infinity_hashes_alike_in_every_process(self):
        # a profile's points iterate in hash order, which fixes the order in
        # which propagate_crit evaluates them, so it must not follow the address
        code = "from dessinkit.belyi import INFINITY; print(hash(INFINITY))"
        hashes = {child.run(["-c", code], capture_output=True,
                            text=True, check=True, timeout=60).stdout
                  for _ in range(2)}
        assert len(hashes) == 1, hashes


def _moebius(m, v):
    """(a v + b) / (c v + d) on the projective line, for m = (a, b, c, d)."""
    a, b, c, d = m
    if v is INFINITY:
        return a / c if c else INFINITY
    den = c * v + d
    return (a * v + b) / den if den else INFINITY


def _moebius_text(m, inner):
    a, b, c, d = m
    return f"(({a})*({inner}) + ({b})) / (({c})*({inner}) + ({d}))"


def _random_moebius(rng, at_infinity=None):
    """A seeded rational Moebius map (a, b, c, d), ad - bc != 0, sending
    infinity to ``at_infinity`` when that is given."""
    def r():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    while True:
        if at_infinity is INFINITY:
            m = (r(), r(), F(0), F(1))
        elif at_infinity is not None:
            c = r()
            m = (at_infinity * c, r(), c, r())
        else:
            m = (r(), r(), rng.choice((F(0), r())), r())
        if m[0] * m[3] != m[1] * m[2]:
            return m


def _bicritical(a, b, quotient):
    """{critical point: value} of X^a (X-1)^b, or of X^a / (X-1)^b when
    ``quotient``, written out: g' is X^(a-1) (X-1)^(b-1) ((a+b) X - a), or
    X^(a-1) (X-1)^(-b-1) ((a-b) X - a), and g ramifies at infinity with
    index a + b, or |a - b|."""
    crit = {}
    if a >= 2:
        crit[F(0)] = F(0)
    if b >= 2:
        crit[F(1)] = INFINITY if quotient else F(0)
    if not quotient:
        x = F(a, a + b)
        crit[x] = x ** a * (x - 1) ** b
        crit[INFINITY] = INFINITY
    elif a != b:
        x = F(a, a - b)
        crit[x] = x ** a / (x - 1) ** b
        if abs(a - b) >= 2:
            crit[INFINITY] = INFINITY if a > b else F(0)
    return crit


def _leading_coefficient_rule(f):
    """Whether f ramifies at infinity, by the rule finite_critical_values used
    before the Wronskian's degree decided it: |deg a - deg b| when the
    degrees differ, else deg a - deg(a - c b) with c the leading ratio."""
    dn, dd = f.numerator.degree, f.denominator.degree
    if dn != dd:
        return abs(dn - dd) >= 2
    c = f.numerator.leading / f.denominator.leading
    return dn - (f.numerator - f.denominator * c).degree >= 2


class TestInfinityByTheWronskian:
    def test_against_written_out_profiles(self):
        # f = nu . g . mu by parsed text, g = X^a (X-1)^b or X^a / (X-1)^b
        # with rational critical points, mu and nu seeded Moebius maps, mu
        # sending infinity to a critical point of g about half the time; the
        # profile is nu of g's critical values, and f ramifies at infinity
        # iff g ramifies at mu(infinity)
        rng = random.Random(2901)
        seen = collections.Counter()
        for _ in range(300):
            a, b, quotient = rng.randint(1, 5), rng.randint(1, 5), rng.random() < 0.5
            crit = _bicritical(a, b, quotient)
            if not crit:  # X / (X - 1) is a Moebius map
                continue
            if rng.random() < 0.5:
                target = rng.choice(sorted(crit, key=str))
            else:
                target = F(rng.randint(-9, 9), rng.randint(1, 5))
                while target in crit:
                    target += 1
            mu, nu = _random_moebius(rng, target), _random_moebius(rng)
            inner = _moebius_text(mu, "X")
            g = (f"({inner})^{a}/(({inner}) - 1)^{b}" if quotient
                 else f"({inner})^{a}*(({inner}) - 1)^{b}")
            f = parse_map(_moebius_text(nu, g))
            profile = finite_critical_values(f)
            assert profile == CritProfile(frozenset(_moebius(nu, v) for v in crit.values())), f
            ramified = target in crit
            assert _leading_coefficient_rule(f) == ramified, f
            assert (f.wronskian().degree < 2 * f.mapping_degree - 2) == ramified, f
            seen[ramified, INFINITY in profile.values] += 1
        assert min(seen.values()) >= 30, seen
        assert len(seen) == 4, seen


class TestReciprocal:
    def test_negative_powers_against_the_general_constructor(self, monkeypatch):
        # f^-k of seeded constants, polynomials and maps equals the general
        # constructor's map with the sides swapped, to the k, and runs no gcd
        calls = []
        gcd = belyi._poly_gcd
        monkeypatch.setattr(belyi, "_poly_gcd", lambda a, b: calls.append(1) or gcd(a, b))
        rng = random.Random(2902)

        def poly(degree):
            while True:
                p = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 6))
                             for _ in range(degree + 1)])
                if not p.is_zero:
                    return p

        for i in range(300):
            kind = i % 3
            num = poly(0 if kind == 0 else rng.randint(0, 5))
            f = RatMap(num, ONE_POLY if kind < 2 else poly(rng.randint(0, 5)))
            k = rng.randint(1, 4)
            calls.clear()
            got = f ** -k
            assert not calls, f
            assert got == RatMap(f.denominator, f.numerator) ** k, (f, k)


class TestPropagation:
    def test_beta1_branch_set(self):
        out = propagate_crit(
            CritProfile.of([0, -27, 9], includes_infinity=True), parse_map(BETA1)
        )
        assert out.finite_values == {F(0), F(1)} and out.includes_infinity

    def test_hexagonal_instance(self):
        # B(3,1) composed with the affine move (X+27)/36, applied to the
        # branch profile {0, -27, 9, inf}
        composed = parse_map("256/27 * ((X+27)/36)^3 * (1 - (X+27)/36)")
        assert composed.eval_extended(F(0)) == bmn(BmnParams(3, 1)).eval_extended(F(3, 4))
        out = propagate_crit(
            CritProfile.of([0, -27, 9], includes_infinity=True), composed
        )
        assert out.finite_values == {F(0), F(1)} and out.includes_infinity

    def test_identity_stage(self):
        out = propagate_crit(CritProfile.empty(), RatMap(X))
        assert out == CritProfile.empty()

    def test_square_stage(self):
        out = propagate_crit(CritProfile.of([4]), RatMap(X**2))
        assert out.finite_values == {F(0), F(16)} and out.includes_infinity

    def test_monotone(self):
        f = parse_map(BETA1)
        prof = CritProfile.of([1, 2, F(5, 7), -27, 81])
        out = propagate_crit(prof, f)
        for v in prof.finite_values:
            img = f.eval_extended(v)
            if img is INFINITY:
                assert out.includes_infinity
            else:
                assert img in out.finite_values


class TestBmnFamily:
    def test_simplest(self):
        assert bmn(BmnParams(1, 1)) == RatMap(RatPoly((0, 4, -4)))

    def test_peak_value(self):
        assert bmn(BmnParams(3, 1)).eval_extended(F(3, 4)) == 1

    def test_two_one(self):
        b = bmn(BmnParams(2, 1))
        assert b == RatMap(RatPoly((0, 0, F(27, 4), F(-27, 4))))
        roots, cof = rational_roots(b.numerator.derivative())
        assert set(roots) == {F(0), F(2, 3)} and cof.degree < 1
        assert finite_critical_values(b).finite_values <= {F(0), F(1)}

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            BmnParams(2, 4)

    def test_positivity_required(self):
        with pytest.raises(OutOfRange):
            BmnParams(0, 1)

    def test_stage_checks_its_exponents_as_the_pair_does(self):
        with pytest.raises(OutOfRange, match=r"exponents must be positive, got \(0, 1\)"):
            BmnStage(0, 1)
        with pytest.raises(NotCoprime, match=r"\(2, 4\) are not coprime"):
            BmnStage(2, 4)
        stage = BmnStage(3, 2)
        assert stage.peak == BmnParams(3, 2).peak == F(3, 5)
        assert stage != BmnParams(3, 2) and stage == BmnStage(3, 2)
        assert str(stage) == "B[3,2]" and repr(stage) == "BmnStage(m=3, n=2)"

    def test_expansion_cap(self):
        with pytest.raises(SizeGuard):
            bmn(BmnParams(1999, 2))

    def test_full_suite_up_to_20(self):
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
                    X ** (m - 1)
                    * RatPoly((1, -1)) ** (n - 1)
                    * RatPoly((m, -(m + n)))
                    * scale
                )
                assert b.numerator.derivative() == closed
                assert finite_critical_values(b).finite_values <= {F(0), F(1)}


class TestPairFromRatio:
    def test_hexagonal_ratio(self):
        assert pair_from_ratio(F(27, 27 + 9)) == BmnParams(3, 1)

    def test_half(self):
        assert pair_from_ratio(F(1, 2)) == BmnParams(1, 1)

    def test_seventeen(self):
        assert pair_from_ratio(F(17, 32)) == BmnParams(17, 15)

    def test_out_of_range(self):
        for v in (F(0), F(1), F(3, 2), F(-1, 2)):
            with pytest.raises(OutOfRange):
                pair_from_ratio(v)


class TestSturm:
    def test_reference_counts(self):
        d = bmn(BmnParams(2, 1)).numerator.derivative()
        assert sturm_count(d, F(1, 100), F(1, 2)) == 0
        assert sturm_count(d, F(-1), F(1)) == 2
        assert sturm_count(RatPoly((1, 0, 1)), F(-5), F(5)) == 0

    def test_half_open_semantics(self):
        assert sturm_count(X, F(-1), F(0)) == 1
        assert sturm_count(X, F(0), F(1)) == 0

    def test_multiple_roots_counted_once(self):
        p = (X - RatPoly((1,))) ** 3 * (X + RatPoly((2,)))
        assert sturm_count(p, F(-3), F(3)) == 2

    def test_random_against_oracle(self):
        rng = random.Random(61)
        checked = 0
        while checked < 100:
            degree = rng.randint(1, 6)
            coeffs = [F(rng.randint(-10, 10)) for _ in range(degree + 1)]
            p = RatPoly(coeffs)
            if p.degree < 1:
                continue
            lo = F(rng.randint(-8, 0))
            hi = lo + F(rng.randint(1, 8))
            assert sturm_count(p, lo, hi) == oracle_count(p, lo, hi), (
                p,
                lo,
                hi,
            )
            checked += 1

    def test_repeated_roots_with_endpoints_on_roots(self):
        rng = random.Random(1971)
        checked = 0
        while checked < 60:
            roots = [F(rng.randint(-12, 12), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 4))]
            p = RatPoly((rng.randint(1, 5), rng.randint(-3, 3), 1))
            for r in roots:
                p = p * RatPoly((-r, 1)) ** rng.randint(1, 3)
            lo, hi = sorted(rng.sample(roots + [F(-13), F(13)], 2))
            if lo == hi:
                continue
            assert sturm_count(p, lo, hi) == oracle_count(p, lo, hi), (p, lo, hi)
            checked += 1


def _reference_prem(a, b):
    """A positive multiple of a rem b, one top coefficient eliminated at a
    time with a gcd-scaled multiplier: a test-local oracle for the library's
    chains, whose normal steps take one pass."""
    r = list(a)
    n, lead = len(b) - 1, b[-1]
    while len(r) > n:
        top = r.pop()
        g = math.gcd(top, lead)
        scale, t = abs(lead) // g, (top if lead > 0 else -top) // g
        shift = len(r) - n
        if scale != 1:
            r = [scale * v for v in r]
        for i in range(n):
            r[shift + i] -= t * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def _reference_prs(a, b):
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _reference_prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(belyi._primitive([-v for v in r]))
    return seq


def _reference_gcd(a, b):
    """The primitive gcd as the last term of the reference sequence, with no
    monomial rule."""
    a = belyi._primitive(a)
    if not b:
        return a
    b = belyi._primitive(b)
    return _reference_prs(a, b)[-1] if len(a) >= len(b) else _reference_prs(b, a)[-1]


def _dense(rng, degree, bits):
    """Degree+1 random coefficients of at most `bits` bits, the top one
    nonzero and of either sign."""
    c = [rng.randint(-2**bits, 2**bits) for _ in range(degree)]
    return c + [rng.choice((-1, 1)) * rng.randint(1, 2**bits)]


def _sparse(rng, degree, bits):
    c = [0] * degree + [rng.choice((-1, 1)) * rng.randint(1, 2**bits)]
    for i in rng.sample(range(degree), min(degree, rng.randint(0, 3))):
        c[i] = rng.randint(-2**bits, 2**bits)
    return c


def _remainder_pairs(rng, count):
    """(kind, a, b) with deg a >= deg b >= 0: Sturm pairs (f, f'), dense and
    sparse pairs with any degree drop, non-squarefree f with f', and pairs
    with a common factor; degrees 1-40, then four pairs at degree 200."""
    mul = belyi.int_poly_mul
    kinds = ("sturm", "dense", "sparse", "square", "common")
    for i in range(count):
        kind, degree = kinds[i % 5], rng.randint(1, 40)
        bits = rng.choice((1, 2, 3, 4, 8, 16, 64) if degree <= 20 else (1, 2, 3, 4))
        if kind == "sturm":
            a = _dense(rng, degree, bits)
            yield kind, a, belyi._primitive(belyi._derivative(a))
        elif kind == "dense":
            yield kind, _dense(rng, degree, bits), _dense(rng, rng.randint(0, degree), bits)
        elif kind == "sparse":
            yield kind, _sparse(rng, degree, bits), _sparse(rng, rng.randint(0, degree), bits)
        elif kind == "square":
            p = _dense(rng, rng.randint(1, 6), 3)
            a = mul(mul(p, p), _dense(rng, rng.randint(0, 8), 3))
            yield kind, a, belyi._derivative(a)
        else:
            g = _dense(rng, rng.randint(1, 5), 3)
            a, b = mul(g, _dense(rng, rng.randint(0, 12), 4)), mul(g, _dense(rng, rng.randint(0, 12), 4))
            yield (kind, a, b) if len(a) >= len(b) else (kind, b, a)
    a = _sparse(rng, 200, 8)
    yield "sturm", a, belyi._primitive(belyi._derivative(a))
    yield "dense", _dense(rng, 200, 2), _dense(rng, 6, 8)
    yield "sparse", _sparse(rng, 200, 16), _sparse(rng, 150, 16)
    p = _sparse(rng, 50, 2)
    a = mul(mul(p, p), _sparse(rng, 100, 2))
    yield "square", a, belyi._derivative(a)


class TestIntegerRemainderSequence:
    def test_chains_match_the_reference_sequence(self):
        # term for term, on 3004 seeded pairs: one-pass normal steps, the
        # gcd-scaled loop for longer drops, a zero remainder before a
        # constant, and negative leading coefficients all occur
        rng = random.Random(1971)
        seen = collections.Counter()
        for kind, a, b in _remainder_pairs(rng, 3000):
            chain = belyi._prs(a, b)
            assert [list(t) for t in chain] == [list(t) for t in _reference_prs(a, b)], \
                (kind, a, b)
            seen[kind] += 1
            for x, y in zip(chain, chain[1:]):
                seen["normal" if len(x) == len(y) + 1 else "longer drop"] += 1
                seen["negative leading"] += y[-1] < 0
            seen["gcd of positive degree"] += len(chain[-1]) > 1
        assert seen["sturm"] == seen["dense"] == seen["sparse"] == 601, seen
        assert min(seen[k] for k in ("normal", "longer drop", "negative leading",
                                      "gcd of positive degree")) >= 1000, seen

    def test_normal_steps_as_narrow_as_the_reference(self):
        # gcd(f', f'') of f = (X^199 + X + 1)^2: one normal step there has a
        # remainder 3017 bits wider than the reference's unless its
        # multipliers are divided by gcd(q0, lc b); with it, 23 at most
        f = parse_poly("(X^199+X+1)^2").primitive_integer_coeffs()
        d = belyi._derivative(f)
        chain = _reference_prs(belyi._primitive(d), belyi._primitive(belyi._derivative(d)))
        widths = [max(abs(v).bit_length() for v in belyi._prem(a, b))
                  - max(abs(v).bit_length() for v in _reference_prem(a, b))
                  for a, b in zip(chain, chain[1:]) if len(b) > 1]
        assert len(widths) == 8 and max(widths) <= 32, widths

    def test_sparse_long_drop_skips_zero_tops(self):
        # X^40000 + 1 by X^2000 + 1 meets 20 nonzero tops among 38001: about
        # 40000 coefficient updates with zero tops skipped, 76 million
        # without (seconds); X^40000 = 1 mod X^2000 + 1, so a rem b = 2
        a, b = [1] + [0] * 39999 + [1], [1] + [0] * 1999 + [1]
        start = time.perf_counter()
        r = belyi._prem(a, b)
        seconds = time.perf_counter() - start
        assert r == [-2]
        assert seconds < 1, seconds

    def test_monomial_gcd_against_the_reference_sequence(self, monkeypatch):
        # gcd(c X^m, f) = X^min(m, v), v the exponent of X in f: the
        # reference sequence's last term up to sign, on seeded pairs in both
        # orders, and maps reduced by either gcd are equal
        rng = random.Random(2020)
        pairs = []
        for _ in range(400):
            m, v = rng.randint(0, 12), rng.randint(0, 12)
            monomial = [0] * m + [rng.choice((-1, 1)) * rng.randint(1, 2**rng.randint(1, 40))]
            other = [0] * v + _dense(rng, rng.randint(0, 15), rng.choice((2, 8, 64)))
            other[v] = other[v] or 1
            expected = [0] * min(m, v) + [1]
            for a, b in ((monomial, other), (other, monomial)):
                got = belyi._poly_gcd(a, b)
                reference = list(_reference_gcd(a, b))
                assert got == expected, (a, b)
                assert reference in (expected, [-c for c in expected]), (a, b)
            pairs.append((RatPoly([F(c, rng.randint(1, 5)) for c in other]),
                          RatPoly([F(c, 3) for c in monomial])))
        maps = [(RatMap(p, q), RatMap(q, p)) for p, q in pairs]
        monkeypatch.setattr(belyi, "_poly_gcd", _reference_gcd)
        for (p, q), (f, g) in zip(pairs, maps):
            for got, want in ((f, RatMap(p, q)), (g, RatMap(q, p))):
                assert (got.numerator._num, got.numerator._den, got.denominator._num,
                        got.denominator._den) == \
                    (want.numerator._num, want.numerator._den, want.denominator._num,
                     want.denominator._den), (p, q)

    def test_map_over_a_monomial_reduced_quickly(self):
        # the map of 8000-bit coefficients over X^20 took 6.5-7.6 s when
        # gcd(A, X^20) ran the remainder sequence, and takes about 2 ms by
        # the monomial rule; 1 s leaves room for a slow host and still fails
        # the former
        code = (
            "import hashlib, time\n"
            "from dessinkit import parse_map\n"
            "start = time.perf_counter()\n"
            "f = parse_map('(X + (7/X + 40 - X)/X * (X + X*(11 + 7^712/X)/X^3 - 31))^4 + 1')\n"
            "seconds = time.perf_counter() - start\n"
            "text = repr((f.numerator.coefficients, f.denominator.coefficients))\n"
            "print(f.numerator.degree, f.denominator.degree, seconds,\n"
            "      hashlib.sha256(text.encode()).hexdigest()[:16])\n"
        )
        done = child.run(["-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
        num_degree, den_degree, seconds, digest = done.stdout.split()
        assert (num_degree, den_degree, digest) == ("20", "20", "bb95bdb497bc1192")
        assert float(seconds) < 1, seconds

    def test_gcd_and_squarefree_part_match_euclid(self):
        rng = random.Random(1967)

        def poly(terms, den):
            return RatPoly([F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(terms)])

        def euclid_reduced(num, den):
            """num/den over Euclid's gcd, the denominator made monic."""
            num, den = FracPoly(num.coefficients), FracPoly(den.coefficients)
            g = _euclid_gcd(num, den)
            num, den = num.divmod(g)[0], den.divmod(g)[0]
            scale = 1 / den.leading
            return (num * scale).coefficients, (den * scale).coefficients

        for _ in range(200):
            common = poly(rng.randint(1, 3), 3)
            a = common * poly(rng.randint(1, 4), 1)
            b = common * poly(rng.randint(1, 4), 2)
            for num, den in ((a, b), (b, a)):
                if not den.is_zero:  # RatMap reduces num/den by the gcd
                    f = RatMap(num, den)
                    assert (f.numerator.coefficients, f.denominator.coefficients) == \
                        euclid_reduced(num, den), (num, den)
            for p in (a, a * a * b):
                if p.degree >= 1:
                    part = _squarefree_chain(p.primitive_integer_coeffs())[0]
                    expected = _euclid_squarefree(FracPoly(p.coefficients))
                    assert tuple(F(c, part[-1]) for c in part) == \
                        expected.coefficients, p


def _divisor_roots(p: RatPoly):
    """Rational-root theorem oracle: every +-u/v with u dividing the trailing
    and v the leading coefficient, found by enumerating all integers up to
    each, and stripped to full multiplicity."""
    roots, work = {}, FracPoly(p.coefficients)
    while work.degree >= 1 and work.coefficients[0] == 0:
        roots[F(0)] = roots.get(F(0), 0) + 1
        work = work.divmod(FracPoly([0, 1]))[0]
    if work.degree >= 1:
        den = math.lcm(*(c.denominator for c in work.coefficients))
        ints = [int(c * den) for c in work.coefficients]
        content = math.gcd(*ints)
        trailing, lead = abs(ints[0]) // content, abs(ints[-1]) // content
        for u in range(1, trailing + 1):
            for v in range(1, lead + 1):
                if trailing % u or lead % v:
                    continue
                for cand in {F(u, v), F(-u, v)}:
                    while work.degree >= 1 and work(cand) == 0:
                        roots[cand] = roots.get(cand, 0) + 1
                        work = work.divmod(FracPoly([-cand, 1]))[0]
    return roots, work


class TestRationalRoots:
    def test_seeded_linear_factors_times_irreducible_quadratic(self):
        rng = random.Random(1983)
        quadratics = [RatPoly((2, 0, 1)), RatPoly((-2, 0, 1)),
                      RatPoly((5, -5, 1)), RatPoly((F(1, 3), 1, 1))]
        for _ in range(40):
            expected = {}
            for _ in range(rng.randint(1, 5)):
                root = F(rng.randint(-40, 40), rng.randint(1, 30))
                expected[root] = expected.get(root, 0) + rng.randint(1, 3)
            quadratic = rng.choice(quadratics)
            p = quadratic * F(rng.randint(1, 9), rng.choice((-7, -1, 1, 4)))
            for root, mult in expected.items():
                p = p * RatPoly((-root, 1)) ** mult
            roots, cofactor = rational_roots(p)
            assert roots == expected and cofactor == quadratic, p

    def test_against_divisor_enumeration(self):
        rng = random.Random(85)
        for _ in range(300):
            p = RatPoly([F(rng.randint(-12, 12)) for _ in range(rng.randint(2, 6))])
            if p.degree < 1:
                continue
            roots, cofactor = rational_roots(p)
            oracle_roots, oracle_work = _divisor_roots(p)
            assert roots == oracle_roots, p
            if oracle_work.degree >= 1:
                assert cofactor.coefficients == oracle_work.monic().coefficients, p
            else:
                assert cofactor == RatPoly((1,)), p

    def test_semiprime_coefficients_need_no_factoring(self):
        c = (2**61 - 1) * (2**59 - 55)  # a 120-bit semiprime
        start = time.perf_counter()
        roots, cofactor = rational_roots(RatPoly((0, c, 1)))
        assert roots == {F(0): 1, F(-c): 1} and cofactor == RatPoly((1,))
        roots, cofactor = rational_roots(RatPoly((-1, c - 1, c)) * RatPoly((3, 0, 1)))
        assert roots == {F(-1): 1, F(1, c): 1} and cofactor == RatPoly((3, 0, 1))
        assert time.perf_counter() - start < 5


    def test_bisection_memory_does_not_grow_with_coefficient_bits(self):
        # the root -2^(N-1) sits at the bottom of a Cauchy range of N-bit
        # integers; only intervals holding a root may stay on the stack
        for bits in (1000, 4000):
            wronskian = parse_map(f"2^{bits}*X+X^2").wronskian()
            tracemalloc.start()
            try:
                roots, cofactor = rational_roots(wronskian)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert roots == {F(-(2 ** (bits - 1))): 1} and cofactor == RatPoly((1,))
            assert peak < 64 * 1024, (bits, peak)


    def test_numerator_next_to_the_cauchy_bound(self):
        # (X - k)(X^2 + 1) has leading coefficient 1 and Cauchy bound
        # B = 1 + |k|, so the root's numerator is -(B - 1) or B - 1
        for k in (2, -2, 10**30 + 7, -(10**30 + 7), 2**521 - 1):
            roots, cofactor = rational_roots(RatPoly((-k, 1)) * RatPoly((1, 0, 1)))
            assert roots == {F(k): 1} and cofactor == RatPoly((1, 0, 1)), k
            # (3X - k)(X^2 + 1): a = 3, B = 3 + |k|
            roots, cofactor = rational_roots(RatPoly((-k, 3)) * RatPoly((1, 0, 1)))
            assert roots == {F(k, 3): 1} and cofactor == RatPoly((1, 0, 1)), k

    def test_bad_primes_above_the_degree_are_skipped(self, caplog):
        # the squarefree part (3X - 1)(5X - 53)(X^2 + 2) has degree 4 and
        # leading coefficient 15: 5 divides 15, and modulo 7 and 11 the roots
        # 1/3 and 53/5 meet (53 = 4 mod 7 = 9 mod 11), so the prime is 13
        p = RatPoly((-1, 3)) ** 2 * RatPoly((-53, 5)) * RatPoly((2, 0, 1))
        with caplog.at_level(logging.DEBUG, logger="dessinkit.belyi"):
            roots, cofactor = rational_roots(p)
        assert "degree 4, prime 13, lifted to p^" in caplog.text
        assert roots == {F(1, 3): 2, F(53, 5): 1} and cofactor == RatPoly((2, 0, 1))
        oracle_roots, oracle_work = _divisor_roots(p)
        assert roots == oracle_roots
        assert cofactor.coefficients == oracle_work.monic().coefficients

    def test_lift_prime_needs_only_simple_roots(self, caplog):
        # (X - 1)(X^2 + 1)(X^2 + 8) = (X - 1)(X^2 + 1)^2 mod 7 is not
        # squarefree there, but its one root 1 is simple, so 7 serves
        p = RatPoly((-1, 1)) * RatPoly((1, 0, 1)) * RatPoly((8, 0, 1))
        with caplog.at_level(logging.DEBUG, logger="dessinkit.belyi"):
            roots, cofactor = rational_roots(p)
        assert "degree 5, prime 7, lifted to p^" in caplog.text
        assert roots == {F(1): 1} and cofactor == RatPoly((8, 0, 9, 0, 1))

    def test_quadratics_that_meet_mod_the_prime(self, caplog):
        # X^2 + c and X^2 + c + q agree mod a prime q above the degree, so
        # the product is not squarefree mod q; q may still be the lifting
        # prime, and the roots must match the oracle's whichever prime it is
        rng = random.Random(719)
        pool = [F(1), F(-1), F(2), F(-2), F(3), F(-3), F(1, 2), F(-1, 2), F(1, 3), F(-2, 3)]
        lifted_at_q = 0
        for _ in range(120):
            q, c = rng.choice((7, 11, 13)), rng.randint(1, 4)
            p = RatPoly((c, 0, 1)) * RatPoly((c + q, 0, 1)) * rng.randint(1, 3)
            for root in rng.sample(pool, rng.randint(1, q - 5)):
                p = p * RatPoly((-root, 1))
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="dessinkit.belyi"):
                roots, cofactor = rational_roots(p)
            lifted_at_q += f"prime {q}," in caplog.text
            oracle_roots, oracle_work = _divisor_roots(p)
            assert roots == oracle_roots, p
            assert cofactor.coefficients == oracle_work.monic().coefficients, p
        assert lifted_at_q >= 30, lifted_at_q

    def test_lift_stops_at_the_least_sufficient_precision(self, caplog):
        # X + 2^64 has B = 1 + 2^64 and is lifted modulo p = 2: the least E
        # with 2^E > 2B is 66, where doubling the precision would reach 128
        with caplog.at_level(logging.DEBUG, logger="dessinkit.belyi"):
            roots, cofactor = rational_roots(RatPoly((2**64, 1)))
        assert roots == {F(-(2**64)): 1} and cofactor == RatPoly((1,))
        assert "degree 1, prime 2, lifted to p^66" in caplog.text

    def test_least_exponent_above(self):
        for p in (2, 3, 5, 13, 97):
            for bound in list(range(1, 200)) + [p**k + d for k in range(1, 40) for d in (-1, 0, 1)]:
                e = _largest_exponent(p, lambda x: x <= bound) + 1
                assert p**e > bound >= p ** (e - 1), (p, bound)

    def test_zero_first_then_ascending(self):
        p = X**2 * RatPoly((-3, 1)) * RatPoly((5, 1)) ** 2 * RatPoly((-1, 2)) * 7
        roots, cofactor = rational_roots(p)
        assert list(roots.items()) == [(F(0), 2), (F(-5), 2), (F(1, 2), 1), (F(3), 1)]
        assert cofactor == RatPoly((1,))

    def test_split_polynomials_have_cofactor_one(self):
        for p in (X**3, RatPoly((6, -5, 1)) * F(-2, 3), RatPoly((-1, 1)) ** 4 * X):
            roots, cofactor = rational_roots(p)
            assert cofactor == RatPoly((1,)) and sum(roots.values()) == p.degree, p

    def test_degree_42_finishes_in_bounded_time(self):
        # 40 linear factors over 38 distinct roots, times X^2 + 2
        rng = random.Random(42)
        distinct = set()
        while len(distinct) < 38:
            distinct.add(F(rng.randint(-60, 60), rng.randint(1, 12)))
        distinct = sorted(distinct)
        quadratic = RatPoly((2, 0, 1))
        p = quadratic
        for r in distinct + distinct[:2]:
            p = p * RatPoly((-r, 1))
        assert p.degree == 42
        start = time.perf_counter()
        roots, cofactor = rational_roots(p)
        middle = time.perf_counter()
        count = sturm_count(p, F(-3), F(5, 2))
        end = time.perf_counter()
        assert roots == {r: 2 if r in distinct[:2] else 1 for r in distinct}
        assert cofactor == quadratic
        assert count == sum(1 for r in distinct if F(-3) < r <= F(5, 2))
        assert middle - start < 2 and end - middle < 2, (middle - start, end - middle)


class TestCertifyIncreasing:
    def test_quadratic(self):
        b = bmn(BmnParams(1, 1)).numerator
        assert certify_increasing(b, F(0), F(1, 4))
        assert not certify_increasing(b, F(0), F(3, 4))

    def test_linear(self):
        assert certify_increasing(X, F(-100), F(100))

    def test_constant(self):
        assert not certify_increasing(RatPoly((5,)), F(0), F(1))

    @pytest.mark.parametrize("poly, lo, hi, increasing", [
        ("X^3", -2, 2, True),  # f' = 0 at an interior point only
        ("-X^3", -2, 2, False),
        ("X^3-3*X", -2, 2, False),
        ("(X-1)^3", 0, 1, True),  # f' = 0 at an endpoint
        ("4*X-4*X^2", 0, F(1, 2), True),
        ("X^5-X^4", -1, F(1, 2), False),  # f' = X^3 (5X - 4) changes sign at 0
        ("X^1999", -2, 2, True),  # a root of multiplicity 1998
        ("X^1000*(X-1)^2", 0, F(1, 2), True),  # f' = X^999 (X - 1) (1002X - 1000)
        ("X^1000*(X-1)^2", -1, F(1, 2), False),
    ])
    def test_roots_of_the_derivative(self, poly, lo, hi, increasing):
        assert certify_increasing(parse_poly(poly), F(lo), F(hi)) is increasing

    def test_against_factored_derivatives(self):
        # f' = c * prod (X - r)^m, times X^2 + s or not: f is strictly
        # increasing on [lo, hi] iff f' > 0 between consecutive roots there,
        # read off the factors at the midpoints
        rng = random.Random(619)
        for _ in range(600):
            factors = [(F(rng.randint(-6, 6), rng.randint(1, 3)), rng.randint(1, 4))
                       for _ in range(rng.randint(0, 3))]
            c = F(rng.choice((-3, -1, 1, 2)))
            s = F(rng.randint(1, 5), rng.randint(1, 3)) if rng.random() < 0.5 else None
            deriv = RatPoly((c,))
            for r, m in factors:
                deriv = deriv * RatPoly((-r, 1)) ** m
            if s is not None:
                deriv = deriv * RatPoly((s, 0, 1))
            f = RatPoly([0] + [a / (i + 1) for i, a in enumerate(deriv.coefficients)])
            lo = F(rng.randint(-8, 6), rng.randint(1, 2))
            hi = lo + F(rng.randint(1, 12), rng.randint(1, 2))
            cuts = sorted({lo, hi} | {r for r, _ in factors if lo < r < hi})

            def positive(t):
                return c * math.prod((t - r) ** m for r, m in factors) > 0

            expected = all(positive((a + b) / 2) for a, b in zip(cuts, cuts[1:]))
            assert certify_increasing(f, lo, hi) is expected, (factors, c, s, lo, hi)


class TestBelyiReduce:
    def test_single_point(self):
        chain = belyi_reduce([1])
        stages = chain.stages
        assert len(stages) == 2
        assert stages[0] == RatMap((X + RatPoly((1,))) ** 2 * F(1, 4))
        assert isinstance(stages[1], BmnStage)
        assert (stages[1].m, stages[1].n) == (5, 3)
        report = verify_reduction(chain, [1])
        assert report.ok and report.value_at_zero == F(256, 3125)

    def test_branch_set(self):
        chain = belyi_reduce([-27, 9], stage_cap=None)
        report = verify_reduction(chain, [-27, 9])
        assert report.ok
        assert report.value_at_zero is None  # certified by monotonicity

    def test_duplicates_collapse(self):
        assert belyi_reduce([2, 2]).stages == belyi_reduce([2]).stages

    def test_zero_rejected(self):
        with pytest.raises(OutOfRange):
            belyi_reduce([0, 1])

    def test_empty_input(self):
        chain = belyi_reduce([])
        report = verify_reduction(chain, [])
        assert report.ok and report.value_at_zero == F(1, 4)

    def test_size_guard_reported(self):
        with pytest.raises(SizeGuard):
            belyi_reduce([-27, 9], stage_cap=100)

    def test_profile_is_propagated(self):
        chain = belyi_reduce([F(1, 3)])
        assert chain.current_profile.finite_values <= {F(0), F(1)}
        assert chain.current_profile.includes_infinity

    def test_default_caps_guard_multi_point_blowup(self):
        # the second stage for {1/3, 2} would need m+n with hundreds of
        # digits; the default cap must refuse it loudly
        with pytest.raises(SizeGuard):
            belyi_reduce([F(1, 3), 2])

    def test_small_random_suite(self):
        rng = random.Random(67)
        successes = guards = 0
        for _ in range(25):
            size = rng.randint(1, 3)
            pts = []
            while len(pts) < size:
                num = rng.randint(-20, 20)
                den = rng.randint(1, 20)
                if num:
                    pts.append(F(num, den))
            try:
                chain = belyi_reduce(pts)
            except SizeGuard:
                guards += 1
                continue
            assert verify_reduction(chain, pts).ok, pts
            successes += 1
        assert successes > 0


class TestVerifyReduction:
    """Each exit of the loop that walks the orbit of 0 through the stages."""

    QUARTER = RatMap(RatPoly((F(1, 4), F(1, 2))))  # (2X + 1)/4

    def test_pole_on_the_orbit_of_zero(self):
        chain = BelyiChain([RatMap(ONE_POLY, X)])
        with pytest.raises(OutOfRange, match="derivative sign requested at pole 0"):
            verify_reduction(chain, [])

    def test_decreasing_stage(self):
        chain = BelyiChain([RatMap(RatPoly((F(1, 4), F(-1, 2))))])  # (1 - 2X)/4
        report = verify_reduction(chain, [])
        assert not report.derivative_positive_at_zero and not report.ok
        assert report.value_at_zero == F(1, 4)

    @pytest.mark.parametrize("stages, positive", [
        (["1/2 - X/4", "1 - X"], True),  # P = X/4 + 1/2: two decreasing stages
        (["1/2 - X/4"], False),
        (["X^2 + 1/4"], False),  # P'(0) = 0
        (["1 - X", "X^2 + 1/4"], False),  # P'(0) = 0 after a decreasing stage
    ])
    def test_derivative_sign_by_the_chain_rule(self, stages, positive):
        report = verify_reduction(BelyiChain([parse_map(t) for t in stages]), [])
        assert report.derivative_positive_at_zero is positive

    def test_derivative_sign_of_a_reduction(self):
        chain = belyi_reduce([F(-13, 11)])
        assert len(chain) == 2 and verify_reduction(chain, [F(-13, 11)]).ok

    def test_work_cap_mid_chain_raises(self, monkeypatch):
        monkeypatch.setattr(belyi, "DEFAULT_EVAL_WORK_BITS", 20)
        chain = BelyiChain([self.QUARTER, BmnStage(2, 3), BmnStage(2, 3)])
        with pytest.raises(SizeGuard) as exc:
            verify_reduction(chain, [])
        assert str(exc.value) == (
            "exact evaluation of stage (2, 3) at 1/4 needs about 35 bits, over the "
            "work cap 20")

    def test_work_cap_at_the_last_stage_certifies_by_interval(self, monkeypatch):
        monkeypatch.setattr(belyi, "DEFAULT_EVAL_WORK_BITS", 20)
        report = verify_reduction(BelyiChain([self.QUARTER, BmnStage(2, 3)]), [])
        assert report.ok and report.value_at_zero is None

    def test_reads_the_chain_profile_without_recomputing_it(self, monkeypatch):
        points = [-27, 9]
        chain = belyi_reduce(points, stage_cap=None)
        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(belyi, "propagate_crit",
                            counted("propagate_crit", belyi.propagate_crit))
        monkeypatch.setattr(belyi, "BelyiChain",
                            counted("BelyiChain", belyi.BelyiChain))
        assert verify_reduction(chain, points).ok
        assert calls == []
        belyi.BelyiChain(chain.stages)  # the wrappers do see a rebuild
        assert calls[0] == "BelyiChain" and "propagate_crit" in calls


def _compose_onto(profile, stages):
    """The critical profile of the stages composed onto a prior profile."""
    return functools.reduce(propagate_crit, stages, profile)


class TestChains:
    def test_chain_profile_is_the_fold_from_the_empty_profile(self):
        stages = [parse_map("(X+1)/32"), BmnStage(17, 15), RatMap(X**2)]
        profile = BelyiChain(stages).current_profile
        assert profile == _compose_onto(CritProfile.empty(), stages)
        assert BelyiChain().current_profile == CritProfile.empty()

    def test_identity_stage_keeps_profile(self):
        profile = CritProfile.of([F(1, 2)])
        assert _compose_onto(profile, [RatMap(X)]) == profile

    def test_final_composition_reaches_three_point_profile(self):
        # beta1 = (X+1)/32 evaluated at 0 and at the point 16, then the two
        # symbolic stages keyed to those values: the tracked profile
        # collapses onto {0, 1, inf}
        beta1 = parse_map("(X+1)/32")
        at_zero = beta1.eval_extended(F(0))
        at_point = beta1.eval_extended(F(16))
        profile = CritProfile.of([0, at_zero, at_point, 1], includes_infinity=True)
        params = pair_from_ratio(at_point)
        first = BmnStage(params.m, params.n)
        second_ratio = first.eval_extended(at_zero)
        second_params = pair_from_ratio(second_ratio)
        second = BmnStage(second_params.m, second_params.n)
        out = _compose_onto(profile, [first, second])
        assert out.finite_values == {F(0), F(1)}
        assert out.includes_infinity

    def test_stage_special_points_are_free(self):
        huge = BmnStage(31**15, 17**17 * 15**15 - 31**15)
        assert huge.eval_extended(F(0)) == 0
        assert huge.eval_extended(F(1)) == 0
        assert huge.eval_extended(huge.peak) == 1
        assert huge.eval_extended(INFINITY) is INFINITY
        with pytest.raises(SizeGuard):
            huge.eval_extended(F(1, 3))

    def test_stage_derivative_signs(self):
        stage = BmnStage(3, 2)
        assert stage.derivative_sign_at(F(1, 2)) == 1
        assert stage.derivative_sign_at(stage.peak) == 0
        assert stage.derivative_sign_at(F(9, 10)) == -1

    def test_stage_derivative_signs_match_the_expanded_map(self):
        # at 0, at 1, outside [0, 1] and on both sides of the peak
        for total in range(2, 13):
            for m in range(1, total):
                n = total - m
                if math.gcd(m, n) != 1:
                    continue
                stage, expanded = BmnStage(m, n), bmn(BmnParams(m, n))
                for v in (F(-2), F(-1, 2), F(0), F(1, 3), stage.peak, F(1),
                          F(3, 2), F(2)):
                    assert stage.derivative_sign_at(v) == \
                        expanded.derivative_sign_at(v), (m, n, v)

    def test_stage_derivative_signs_past_machine_words(self):
        # X^(m-1) (1-X)^(n-1) (m - (m+n) X): X^(m-1) is negative for X < 0
        # when m - 1 is odd, (1-X)^(n-1) for X > 1 when n - 1 is odd, the
        # linear factor past the peak m/(m+n), which is about 1/3 here; a
        # coprime m, n are not both even, so m - 1, n - 1 are not both odd
        even = BmnStage(2**64 + 1, 2**65 + 3)
        m_odd = BmnStage(2**64 + 2, 2**65 + 3)
        n_odd = BmnStage(2**64 + 1, 2**65 + 4)
        big = F(2**70 + 1, 3)
        cases = [
            (even, F(-1, 2), 1), (even, F(1, 5), 1), (even, even.peak, 0),
            (even, F(1, 2), -1), (even, big, -1), (even, F(0), 0), (even, F(1), 0),
            (m_odd, F(-1, 2), -1), (m_odd, F(1, 5), 1), (m_odd, F(9, 10), -1),
            (m_odd, big, -1),
            (n_odd, F(-1, 2), 1), (n_odd, F(1, 10), 1), (n_odd, F(9, 10), -1),
            (n_odd, big, 1),
            # x^0 = 1 at the end points
            (BmnStage(1, 2**65), F(0), 1), (BmnStage(1, 2**65), F(2), 1),
            (BmnStage(2**65, 1), F(1), -1), (BmnStage(2**65, 1), F(-1), -1),
        ]
        for stage, v, sign in cases:
            assert stage.derivative_sign_at(v) == sign, (stage, v)


# ---------------------------------------------------------------------------
# oracle: the (m, n) stage value by the direct Fraction formula
# ---------------------------------------------------------------------------


def _direct_stage_value(m, n, p, q):
    total = m + n
    return F(total**total * p**m * (q - p) ** n, m**m * n**n * q**total)


_SMOOTH = st.builds(math.prod, st.lists(st.sampled_from((2, 3, 5, 6, 10, 12, 15, 36)),
                                        max_size=8))


def _stage_cases():
    """The 400 seeded draws of ``test_against_direct_formula``, in its order,
    as (m, n, p, q)."""
    rng = random.Random(2005)
    for _ in range(400):
        m, n = rng.randint(1, 40), rng.randint(1, 40)
        if math.gcd(m, n) != 1:
            continue
        shared = rng.choice((1, 2, 6, 30, m, n, m + n))
        q = shared ** rng.randint(0, 3) * rng.randint(1, 30)
        p = rng.choice((1, -1)) * shared ** rng.randint(0, 3) * rng.randint(1, 60)
        if p != q:
            yield m, n, p, q


class TestStagePair:
    def test_against_direct_formula(self):
        rng = random.Random(2005)
        regimes = set()
        for _ in range(400):
            m, n = rng.randint(1, 40), rng.randint(1, 40)
            if math.gcd(m, n) != 1:
                continue
            # p and q share primes with m, n, m+n and each other, and p/q is
            # often not in lowest terms
            shared = rng.choice((1, 2, 6, 30, m, n, m + n))
            q = shared ** rng.randint(0, 3) * rng.randint(1, 30)
            p = rng.choice((1, -1)) * shared ** rng.randint(0, 3) * rng.randint(1, 60)
            if p == q:
                continue
            value = _direct_stage_value(m, n, p, q)
            assert _stage_pair(m, n, p, q) == (value.numerator, value.denominator), (
                m, n, p, q)
            regimes.add((p < 0, p > q))
        # v < 0, 0 < v < 1 and v > 1 all occurred
        assert regimes == {(True, False), (False, False), (False, True)}

    def test_modular_pair_is_the_pair_reduced(self):
        regimes = set()
        for m, n, p, q in _stage_cases():
            value = _direct_stage_value(m, n, p, q)
            for modulus in (2, 4, 2**64, 2**4000, 3**41):
                assert _stage_pair(m, n, p, q, modulus) == (
                    value.numerator % modulus, value.denominator % modulus), (
                    m, n, p, q, modulus)
            regimes.add((p < 0, p > q))
        assert regimes == {(True, False), (False, False), (False, True)}

    def test_stage_evaluation_is_the_pair(self):
        stage = BmnStage(7, 4)
        for v in (F(-3, 2), F(1, 3), F(5, 11), F(9, 4)):
            assert stage.eval_extended(v) == _direct_stage_value(
                7, 4, v.numerator, v.denominator)

    def test_high_powers_are_stripped_at_once(self):
        base = _coprime_base([(2**100_000 * 3, 1), (6, -1), (9, 2)])
        assert base == {2: 99_999, 3: 4}

    def test_largest_exponent_against_naive_loops(self):
        # the one exponent search serves the coprime base ("g^j divides a")
        # and the lifting precision ("g^j <= bound"); the oracles count one
        # power at a time
        def naive_divides(g, a):
            j, (q, r) = 0, divmod(a, g)
            while not r:
                j, (q, r) = j + 1, divmod(q, g)
            return j

        def naive_at_most(g, bound):
            j, acc = 0, g
            while acc <= bound:
                acc, j = acc * g, j + 1
            return j

        rng = random.Random(27)
        wide = rng.getrandbits(600) | 1 << 599 | 1  # several hundred bits
        divides = [(2, 2**100_003 * 3), (2, 3**5), (12, 8), (wide, 7), (wide, wide - 1),
                   (wide, wide), (wide, wide**37 * 12), (wide, wide**5 * (wide + 1))]
        divides += [(g, g ** rng.randint(0, 60) * rng.randint(1, 10**6))
                    for g in (rng.randint(2, 50) for _ in range(200))]
        at_most = [(2, 2**100_000 + 5), (7, 1), (7, 6), (wide, wide - 1),
                   (wide, wide**9 + rng.randint(-wide, wide))]
        at_most += [(p, p**k + d) for p in (2, 3, 5, 13, 97, wide) for k in (1, 2, 7, 40)
                    for d in (-1, 0, 1)]
        at_most += [(g, rng.randint(1, 2**rng.randint(1, 300)))
                    for g in (rng.randint(2, 50) for _ in range(200))]
        found = set()
        for g, a in divides:
            j = _largest_exponent(g, lambda x: a % x == 0)
            assert j == naive_divides(g, a), (g, a)
            found.add(j)
        for g, bound in at_most:
            j = _largest_exponent(g, lambda x: x <= bound)
            assert j == naive_at_most(g, bound), (g, bound)
            found.add(j)
        assert {0, 1, 37, 100_000, 100_003} <= found

    @given(st.lists(st.tuples(st.one_of(_SMOOTH, st.integers(1, 10**6)),
                              st.integers(-40, 40)), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_coprime_base_property(self, factors):
        base = _coprime_base(factors)
        assert all(b > 1 for b in base)
        assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(base, 2))
        for value, _ in factors:  # every input is a product of their powers
            for b in base:
                while value % b == 0:
                    value //= b
            assert value == 1
        assert math.prod(F(v) ** e for v, e in factors) == math.prod(
            F(b) ** e for b, e in base.items())

    def test_denominator_bound(self):
        rng = random.Random(2610)
        vectors = [_stage_vector(*case)[1] for case in itertools.islice(_stage_cases(), 60)]
        # stages as the reduction meets them: m, n drawn up to 10^6, and p, q
        # sharing primes with m, n and m+n; only those whose product has at
        # most about 600 kbit are kept, for the oracle's sake
        while len(vectors) < 100:
            m, n = (int(10 ** rng.uniform(0, 6)) for _ in range(2))
            shared = rng.choice((1, 2, 6, m, n, m + n))
            q = shared ** rng.randint(0, 2) * rng.randint(1, 2**rng.randint(1, 40))
            p = rng.choice((1, -1)) * shared ** rng.randint(0, 2) * rng.randint(1, 2 * q)
            if math.gcd(m, n) == 1 and p != q and belyi._stage_bits(m, n, p, q) <= 600_000:
                vectors.append(_stage_vector(m, n, p, q)[1])
        # bases next to a power of two, (2^k - 1)^e and (2^k + 1)^e, and powers
        # of two themselves
        for k in (1, 2, 64, 127, 128, 129, 200, 1000):
            for e in (1, 2, 3, 1000, 12345):
                if k * e <= 600_000:
                    vectors += [{2**k: e, 3: -e}, {2**k + 1: -e, 2**k: e},
                                {2**k - 1: e, 2**k: -e}, {7: 1, 2**k - 1: -e}]
        powers_of_two = 0
        for base in vectors:
            den = math.prod(b ** -e for b, e in base.items() if e < 0)
            bound = belyi._denominator_bound(base)
            assert bound < den.bit_length(), base
            if den & (den - 1) == 0:
                assert bound == den.bit_length() - 1, base
                powers_of_two += 1
        assert powers_of_two > 10, powers_of_two

    def test_work_cap_message_reads_the_point_briefly(self, monkeypatch):
        monkeypatch.setattr(belyi, "DEFAULT_EVAL_WORK_BITS", 20)
        stage = BmnStage(2, 3)
        with pytest.raises(SizeGuard) as exc:
            stage.eval_extended(F(1, 3**400))
        assert str(exc.value) == (
            "exact evaluation of stage (2, 3) at <rational with 1-bit numerator "
            "and 634-bit denominator> needs about 3190 bits, over the work cap 20")
        with pytest.raises(SizeGuard) as exc:
            stage.eval_extended(F(-7, 9))
        assert str(exc.value) == (
            "exact evaluation of stage (2, 3) at -7/9 needs about 50 bits, over the "
            "work cap 20")


# Outcomes recorded before stage values were cancelled on a coprime base, for
# inputs of the reduce workload's catalogue (perfbench/reduce_pool.json):
# (points, chain, value at 0) for a verified reduction, where a value with
# more than 256 bits is (numerator bits, denominator bits, sha256 of
# "num/den" in hex), and (points, None, exact message) for a SizeGuard; a
# stage-cap refusal whose denominator is proven to have more than 256 bits
# names that bound.
PINNED_REDUCTIONS = [
    (["-13/11"], "B[5,4] . 1936/1521*X^2 + 88/117*X + 1/9", "16/3125"),
    (["19/20"], "B[1921,1121] . 400/1521*X^2 + 800/1521*X + 400/1521",
     (19647, 20954, "00bfa3e57d540ead4f31242dbb072f8fdc12fbef7fb6edbf90aa5a6bccaa435e")),
    (["-2/5", "1/2"], "B[148955,28192] . B[1,3] . 25/9*X^2 + 5/9*X + 1/36", None),
    (["1", "2"], "B[371293,284067] . B[4,5] . 1/9*X^2 + 2/9*X + 1/9", None),
    (["-9/13", "10/17", "11/13"], None,
     "exact evaluation of stage (452929, 358872) at 405/2809 needs about 33283841 "
     "bits, over the work cap 2000000"),
    (["-11", "20/17", "13/9"], None,
     "exact evaluation of stage (22801, 65408) at 53129/314721 needs about 4586868 "
     "bits, over the work cap 2000000"),
    (["-17/12", "-16/13", "-3/10"], None,
     "next stage ratio 3250809/4380649 needs m+n = 4380649, over the cap 1000000"),
    (["2/19", "1", "5/3"], None,
     "next stage ratio 719548862611668387253598520887693421952201640625/"
     "357334617794433607688082344039363064508867208544256 needs m+n = "
     "357334617794433607688082344039363064508867208544256, over the cap 1000000"),
    (["-5/9", "-3/10", "-1/10"], None,
     "next stage ratio needs m+n = <integer of more than 352286 bits>, over the "
     "cap 1000000"),
    (["-20/13", "13/8"], None,
     "next stage ratio needs m+n = <integer of more than 453134 bits>, over the "
     "cap 1000000"),
]


@pytest.mark.parametrize("points, chain_text, outcome", PINNED_REDUCTIONS)
def test_pinned_reduction_outcomes(points, chain_text, outcome):
    points = [F(p) for p in points]
    if chain_text is None:
        with pytest.raises(SizeGuard) as exc:
            belyi_reduce(points)
        assert str(exc.value) == outcome
        return
    chain = belyi_reduce(points)
    assert str(chain) == chain_text
    report = verify_reduction(chain, points)
    assert report.ok
    value = report.value_at_zero
    if isinstance(outcome, tuple):
        digest = hashlib.sha256(f"{value.numerator:x}/{value.denominator:x}".encode())
        assert (value.numerator.bit_length(), value.denominator.bit_length(),
                digest.hexdigest()) == outcome
    else:
        assert value == (None if outcome is None else F(outcome))


# ---------------------------------------------------------------------------
# oracle: the reduction loop that multiplies every value out before it checks
# the stage cap
# ---------------------------------------------------------------------------

REDUCE_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "reduce_pool.json"


def _reduce_pool_strata():
    """The pool's entries by stage work, with the bounds of the reduce
    workload's strata; "above" holds those it leaves out."""
    with open(REDUCE_POOL, encoding="utf-8") as fh:
        entries = json.load(fh)["entries"]
    strata = {"light": [], "medium": [], "heavy": [], "above": []}
    for e in entries:
        work = e["work"]
        name = ("above" if work >= 10**12 else "heavy" if work >= 10**11
                else "medium" if work >= 10**9 else "light")
        strata[name].append(e["points"])
    return strata


def _multiplied_out_reduce(points, stage_cap):
    """``belyi_reduce`` with each stage's values all multiplied out first and
    the stage cap checked at the top of the next iteration."""
    pts = sorted({F(p) for p in points})
    negatives = [p for p in pts if p < 0]
    alpha = max(negatives) / 4 if negatives else F(-1)
    f_alpha = RatPoly((alpha * alpha, -2 * alpha, 1))
    first = RatMap(f_alpha * (1 / max(f_alpha(p) for p in pts)))
    mapped = sorted({first.eval_extended(p) for p in pts})
    aux = (first.eval_extended(F(0)) + mapped[0]) / 2
    tracked = [(t.numerator, t.denominator) for t in [aux] + mapped]
    stages = [first]
    while len(tracked) > 1:
        num, den = tracked[-2]
        if stage_cap is not None and den > stage_cap:
            raise SizeGuard(f"next stage ratio {brief(tracked[-2], 256)} needs m+n = "
                            f"{brief(den, 256)}, over the cap {stage_cap}")
        m, n = num, den - num
        values = []
        for p, q in tracked[:-1]:
            if (p, q) == (m, den):
                values.append((1, 1))
                continue
            estimate = den * (den.bit_length() + p.bit_length() + q.bit_length())
            if estimate > belyi.DEFAULT_EVAL_WORK_BITS:
                raise SizeGuard(
                    f"exact evaluation of stage ({brief(m, 256)}, {brief(n, 256)}) at "
                    f"{brief((p, q), 256)} needs about {brief(estimate, 256)} bits, "
                    f"over the work cap {belyi.DEFAULT_EVAL_WORK_BITS}")
            values.append(_stage_pair(m, n, p, q))
        tracked = values
        stages.append(BmnStage(m, n))
    return BelyiChain(stages)


def _outcome(reduce, points, stage_cap):
    try:
        return str(reduce(points, stage_cap))
    except SizeGuard as exc:
        return f"SizeGuard: {exc}"


class TestStageCapOrder:
    def test_same_outcomes_as_multiplying_everything_out(self):
        rng = random.Random(26)
        strata = _reduce_pool_strata()
        sample = {name: rng.sample(entries, k) for (name, entries), k in
                  zip(strata.items(), (30, 10, 6, 4))}
        caps = (belyi.DEFAULT_STAGE_CAP, 0, 1000, 2**300, None)
        refusals, bounded = set(), 0
        for name, entries in sample.items():
            for points in entries:
                # the other caps on the cheap strata: None runs to the work cap
                for cap in caps if name in ("light", "medium") else caps[:1]:
                    pts = [F(p) for p in points]
                    expected = _outcome(_multiplied_out_reduce, pts, cap)
                    got = _outcome(belyi_reduce, pts, cap)
                    bound = re.search(r"<integer of more than (\d+) bits>", got)
                    if bound:
                        # refused from the bound: the oracle's stage-cap refusal,
                        # of a denominator with more bits than the bound
                        den = re.search(r"needs m\+n = <(\d+)-bit integer>", expected)
                        assert expected.startswith("SizeGuard: next stage ratio ") and den
                        assert (max(256, (cap or 0).bit_length()) <= int(bound[1])
                                < int(den[1])), (points, cap)
                        bounded += 1
                    else:
                        assert got == expected, (points, cap)
                    refusals.add((name, expected.split(" ", 2)[1]))
        # stage-cap and work-cap refusals in the strata that have them
        assert {("above", "next"), ("heavy", "next"), ("medium", "next"),
                ("light", "next"), ("light", "exact")} <= refusals, refusals
        assert bounded > 0

    def test_refused_value_is_not_multiplied_out(self, monkeypatch):
        products = []

        def counted(*args, **kwargs):
            pair = multiply_out(*args, **kwargs)
            products.append((pair[0].bit_length(), pair[1].bit_length()))
            return pair

        multiply_out = belyi._vector_pair
        monkeypatch.setattr(belyi, "_vector_pair", counted)
        points = [F(-1), F(-13, 20), F(2, 3)]
        with pytest.raises(SizeGuard) as exc:
            belyi_reduce(points)
        assert str(exc.value) == (
            "next stage ratio needs m+n = <integer of more than 598815 bits>, over "
            "the cap 1000000")
        assert products == []
        with pytest.raises(SizeGuard, match="over the work cap"):
            belyi_reduce(points, stage_cap=None)
        assert products == [(553511, 610152), (517252, 607236)]

    def test_pool_inputs_past_the_workload_refused_quickly(self):
        # the 23 inputs above 10^12 bits^2 took 2.1-4.2 s in all when every
        # stage value was multiplied out, and take about 0.01 s from bit
        # lengths; 1 s leaves room for a slow host and still fails the former
        code = (
            "import json, sys, time\n"
            "from fractions import Fraction\n"
            "from dessinkit import SizeGuard, belyi_reduce\n"
            "inputs = [[Fraction(p) for p in points] for points in json.load(sys.stdin)]\n"
            "refused = 0\n"
            "start = time.perf_counter()\n"
            "for points in inputs:\n"
            "    try:\n"
            "        belyi_reduce(points)\n"
            "    except SizeGuard:\n"
            "        refused += 1\n"
            "print(refused, time.perf_counter() - start)\n"
        )
        above = _reduce_pool_strata()["above"]
        done = child.run(["-c", code], input=json.dumps(above), capture_output=True,
                         text=True, check=True, timeout=120)
        refused, seconds = done.stdout.split()
        assert (len(above), int(refused)) == (23, 23)
        assert float(seconds) < 1, seconds


# ---------------------------------------------------------------------------
# one digest over critical values, their propagation and rational roots
# ---------------------------------------------------------------------------


def _digest_map(rng):
    """c L1^a L2^b / L3^d + e for small integer linear forms L: the critical
    points are rational for some draws and irrational for others."""

    def linear():
        return RatPoly((rng.randint(-4, 4), rng.choice((-3, -2, -1, 1, 2, 3))))

    num = linear() ** rng.randint(0, 4) * linear() ** rng.randint(1, 4)
    den = linear() ** rng.randint(0, 3)
    c, e = F(rng.randint(1, 9), rng.randint(1, 5)), F(rng.randint(-5, 5), rng.randint(1, 3))
    return RatMap(num * c + den * e, den)


def _profile_record(profile):
    return f"{profile} {profile.sorted_finite()!r} {profile.includes_infinity}"


def _critical_value_records(set_work_cap):
    """Seeded outcomes of finite_critical_values, propagate_crit folds and
    rational_roots, as (kind, input, output) string tuples."""
    rng = random.Random(19)
    for _ in range(150):
        f = _digest_map(rng)
        try:
            yield "crit", str(f), _profile_record(finite_critical_values(f))
        except IrrationalCriticalPoints as exc:
            yield "irrational", str(f), f"{exc} | {exc.cofactor}"
    for _ in range(120):
        values = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 3))]
        profile = CritProfile.of(values, includes_infinity=rng.random() < 0.5)
        stages = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                total = rng.randint(2, 13)
                m = rng.choice([k for k in range(1, total) if math.gcd(k, total - k) == 1])
                stages.append(BmnStage(m, total - m))
            else:
                stages.append(_digest_map(rng))
        text = f"{profile} | " + " | ".join(map(str, stages))
        try:
            yield "fold", text, _profile_record(functools.reduce(propagate_crit, stages, profile))
        except IrrationalCriticalPoints as exc:
            yield "fold-irrational", text, str(exc)
    # a stage under a lowered work cap; which value a SizeGuard names when
    # several are over the cap follows the order of the set, so the cap is
    # the second-largest estimate and at most one value is over it
    for _ in range(60):
        total = rng.randint(2, 60)
        m = rng.choice([k for k in range(1, total) if math.gcd(k, total - k) == 1])
        stage = BmnStage(m, total - m)
        values = {F(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(rng.randint(1, 4))}
        generic = values - {F(0), F(1), stage.peak}
        estimates = sorted(belyi._stage_bits(m, total - m, v.numerator, v.denominator)
                           for v in generic)
        set_work_cap(estimates[-2] if len(estimates) > 1 else 0)
        profile = CritProfile.of(values | {F(0), F(1)}, includes_infinity=rng.random() < 0.5)
        text = f"{profile} | {stage}"
        try:
            yield "guarded", text, _profile_record(propagate_crit(profile, stage))
        except SizeGuard as exc:
            yield "size-guard", text, str(exc)
    cofactors = [RatPoly((1,)), RatPoly((1, 0, 1)), RatPoly((8, 0, 1)), RatPoly((2, 0, 1)),
                 RatPoly((9, 0, 1)), RatPoly((-2, 0, 0, 1)), RatPoly((5, 1, 3))]
    for _ in range(200):
        p = RatPoly((rng.randint(1, 3),)) * rng.choice(cofactors)
        for _ in range(rng.randint(1, 6)):
            root = F(rng.randint(-20, 20), rng.randint(1, 6))
            p = p * RatPoly((-root, 1)) ** rng.randint(1, 2)
        roots, cofactor = rational_roots(p)
        yield "roots", str(p), f"{sorted(roots.items())!r} | {cofactor}"
    for _ in range(100):
        p = RatPoly([rng.randint(-12, 12) for _ in range(rng.randint(2, 11))])
        if p.degree >= 1:
            roots, cofactor = rational_roots(p)
            yield "dense-roots", str(p), f"{sorted(roots.items())!r} | {cofactor}"


class TestStageProfile:
    def test_stage_profile_is_the_expanded_maps(self):
        for total in range(2, 31):
            for m in range(1, total):
                if math.gcd(m, total - m) == 1:
                    stage = BmnStage(m, total - m)
                    assert (stage.finite_critical_values()
                            == finite_critical_values(bmn(BmnParams(m, total - m)))), stage

    def test_b11_has_no_critical_value_at_0(self):
        # 4X(1 - X) has simple roots at 0 and 1
        profile = CritProfile.of([1], includes_infinity=True)
        assert BelyiChain([BmnStage(1, 1)]).current_profile == profile


class TestCriticalValueDigest:
    # sha256 of the records, pinned where the critical profile was a finite
    # set and an infinity flag and the lifting prime left f squarefree mod p;
    # re-pinned when B[1,1]'s profile lost the value 0
    DIGEST = "2410e0f5c4dfd0d008dbd60febab20f71222621421b8a7ed9c4b3e1f2fbe87c9"
    KINDS = {"crit": 86, "irrational": 64, "fold": 88, "fold-irrational": 32,
             "guarded": 10, "size-guard": 50, "roots": 200, "dense-roots": 100}

    def test_digest(self, monkeypatch):
        def set_work_cap(bits):
            monkeypatch.setattr(belyi, "DEFAULT_EVAL_WORK_BITS", bits)

        records = list(_critical_value_records(set_work_cap))
        kinds = {}
        for kind, _, _ in records:
            kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds == self.KINDS
        digest = hashlib.sha256("\n".join("\t".join(r) for r in records).encode())
        assert digest.hexdigest() == self.DIGEST


class TestErrorMessages:
    """The class and message of each raise site no other test reaches, and
    for those the CLI reaches, exit 2 with the message as the one line on
    stderr.  Inverting the zero map is one failure, by a power or by a
    quotient; certify_increasing decides on the closed [lo, hi]."""

    @pytest.mark.parametrize("call, error, message, argv", [
        (lambda: rational_roots(RatPoly()), OutOfRange,
         "rational_roots of the zero polynomial", None),
        (lambda: sturm_count(RatPoly(), F(0), F(1)), OutOfRange,
         "sturm_count of the zero polynomial",
         ["belyi", "sturm", "--poly", "0", "--lo", "0", "--hi", "1"]),
        (lambda: sturm_count(X, F(1), F(1)), OutOfRange, "empty interval (1, 1]",
         ["belyi", "sturm", "--poly", "X", "--lo", "1", "--hi", "1"]),
        (lambda: certify_increasing(X, F(1), F(0)), OutOfRange, "empty interval [1, 0]",
         ["belyi", "increasing", "--poly", "X", "--lo", "1", "--hi", "0"]),
        (lambda: parse_map("0^-1"), DivisionByZero, "division by the zero map",
         ["belyi", "crit", "--map", "0^-1"]),
        (lambda: parse_map("1/0"), DivisionByZero, "division by the zero map",
         ["belyi", "crit", "--map", "1/0"]),
        (lambda: RatPoly().leading, OutOfRange,
         "zero polynomial has no leading coefficient", None),
        (lambda: X ** -1, OutOfRange, "negative polynomial power", None),
    ], ids=["roots of 0", "sturm of 0", "sturm on (1, 1]", "increasing on [1, 0]",
            "zero map to a negative power", "quotient by the zero map",
            "leading of 0", "negative polynomial power"])
    def test_class_and_message(self, capsys, call, error, message, argv):
        with pytest.raises(error) as exc:
            call()
        assert exc.type is error and str(exc.value) == message
        if argv:
            assert run_cli(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("text, inverse, profile", [
        ("X^-1", RatMap(ONE_POLY, X), CritProfile.empty()),
        ("(X+1)^-2", RatMap(ONE_POLY, (X + ONE_POLY) ** 2),
         CritProfile.of([0], includes_infinity=True)),
    ])
    def test_negative_exponents(self, text, inverse, profile):
        f = parse_map(text)
        assert f == inverse
        assert finite_critical_values(f) == profile


class TestWronskian:
    def test_against_polynomial_arithmetic(self):
        # num' den - num den' by RatPoly arithmetic, and the derivative's sign
        # as the sign of that polynomial's Fraction value, on seeded maps of
        # degree 0-4, constant and zero maps among them
        rng = random.Random(2303)
        checked = 0
        while checked < 300:
            num, den = (RatPoly([F(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(rng.randint(0, 5))]) for _ in range(2))
            if den.is_zero:
                continue
            f = RatMap(num, den)
            a, b = f.numerator, f.denominator
            expected = a.derivative() * b - a * b.derivative()
            assert f.wronskian() == expected, f
            for _ in range(3):
                v = F(rng.randint(-5, 5), rng.randint(1, 3))
                if b(v) == 0:
                    with pytest.raises(OutOfRange):
                        f.derivative_sign_at(v)
                else:
                    w = expected(v)
                    assert f.derivative_sign_at(v) == (w > 0) - (w < 0), (f, v)
            checked += 1
