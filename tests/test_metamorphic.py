"""Metamorphic relations: a second computation whose answer must agree with
the first by a theorem, so the check needs no brute-force oracle and reaches
any size (Chen, Cheung and Yiu, *Metamorphic testing*, HKUST-CS98-01, 1998).

Critical values under Moebius maps: for mu in PGL2(Q), mu has no critical
points and is a bijection of the projective line, so crit(f . mu) = crit(f)
and crit(mu . f) = mu(crit(f)), infinity included; the critical points of
f . mu are mu^-1 of those of f and those of mu . f are those of f, so either
composite has irrational critical points exactly when f has.
"""

import collections
import random
from fractions import Fraction as F

from dessinkit.belyi import (
    INFINITY,
    CritProfile,
    RatMap,
    RatPoly,
    X,
    finite_critical_values,
)
from dessinkit.errors import IrrationalCriticalPoints

Z = RatMap(X)


def _at(p: RatPoly, g):
    """p(g) by Horner's rule in the map: the int and Fraction coefficients
    meet the map through its own operators."""
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * g + c
    return acc


def _profile(f):
    """f's critical profile, or None when its critical points are not all
    rational."""
    try:
        return finite_critical_values(f)
    except IrrationalCriticalPoints:
        return None


def _random_mu(rng, moves_infinity):
    """(a X + b) / (c X + d) with |a|, |b|, |c|, |d| <= 4 and ad - bc != 0;
    c != 0, so that infinity goes to a/c, when ``moves_infinity``."""
    while True:
        a, b, d = (rng.randint(-4, 4) for _ in range(3))
        c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) if moves_infinity else 0
        if a * d != b * c:
            return (a * Z + b) / (c * Z + d), c


def _random_map(rng):
    """A seeded map of degree 1 to 6.  Half are quotients of random integer
    polynomials, whose critical points are mostly irrational; the rest are
    nu . g . lam with g = X^a (X - 1)^b or X^a / (X - 1)^b, whose critical
    points are rational, and nu, lam Moebius maps."""
    if rng.random() < 0.5:
        while True:
            num = RatPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 7))])
            den = RatPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
            if not den.is_zero and 1 <= (f := RatMap(num, den)).mapping_degree <= 6:
                return f
    a = rng.randint(1, 5)
    b = rng.randint(1, 6 - a)
    lam, _ = _random_mu(rng, rng.random() < 0.5)
    nu, _ = _random_mu(rng, rng.random() < 0.5)
    g = lam ** a * (lam - 1) ** (-b if rng.random() < 0.5 else b)
    return _at(nu.numerator, g) / _at(nu.denominator, g)


def test_critical_values_under_moebius_maps():
    rng = random.Random(32)
    seen = collections.Counter()
    for _ in range(340):
        f = _random_map(rng)
        mu, c = _random_mu(rng, rng.random() < 0.9)
        f_mu = _at(f.numerator, mu) / _at(f.denominator, mu)
        mu_f = _at(mu.numerator, f) / _at(mu.denominator, f)
        assert f_mu.mapping_degree == mu_f.mapping_degree == f.mapping_degree
        crit = _profile(f)
        if crit is None:
            assert _profile(f_mu) is None and _profile(mu_f) is None, (f, mu)
            seen["irrational"] += 1
            continue
        assert _profile(f_mu) == crit, (f, mu)
        moved = CritProfile(frozenset(mu.eval_extended(v) for v in crit.values))
        assert _profile(mu_f) == moved, (f, mu)
        seen["rational"] += 1
        seen["moves infinity"] += c != 0 and INFINITY in crit.values
        seen["to infinity"] += INFINITY in moved.values - crit.values
    assert seen["irrational"] >= 50 and seen["rational"] >= 150, seen
    assert seen["moves infinity"] >= 50 and seen["to infinity"] >= 10, seen
