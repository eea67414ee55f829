"""Metamorphic relations: a second computation whose answer must agree with
the first by a theorem, so the check needs no brute-force oracle and reaches
any size (Chen, Cheung and Yiu, *Metamorphic testing*, HKUST-CS98-01, 1998).

Critical values under Moebius maps: for mu in PGL2(Q), mu has no critical
points and is a bijection of the projective line, so crit(f . mu) = crit(f)
and crit(mu . f) = mu(crit(f)), infinity included; the critical points of
f . mu are mu^-1 of those of f and those of mu . f are those of f, so either
composite has irrational critical points exactly when f has.

Group orders under relabelling and direct product: for a permutation pi of
the points, G^pi = pi^-1 G pi is isomorphic to G, so |G^pi| = |G|; and G and
H acting on disjoint sets of points generate G x H, so the group of their
generators side by side has order |G| |H|.  Both hold at any degree, so they
reach the chain's tuple kernel above 256 points, where no closure is
affordable.

Words under evaluation: evaluation is a homomorphism from the free group, so
eval(u v) = eval(u) eval(v), eval(u^-1) = eval(u)^-1 and eval(u^k) =
eval(u)^k, the right-hand sides computed by Permutation's own product,
inverse and power.
"""

import collections
import math
import random
from fractions import Fraction as F

import pytest

from dessinkit.belyi import (
    INFINITY,
    CritProfile,
    RatMap,
    RatPoly,
    X,
    finite_critical_values,
)
from dessinkit.errors import IrrationalCriticalPoints
from dessinkit.models import gallery_dessin
from dessinkit.perms import Permutation, PermGroup
from dessinkit.words import FreeWord, evaluate_word

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


# -- group orders under relabelling and direct product --------------------------


def _cycles(n, lengths):
    """0-based images of disjoint cycles of the given lengths on 0, 1, ...,
    the other points of 0..n-1 fixed."""
    images, at = list(range(n)), 0
    for length in lengths:
        for k in range(length):
            images[at + k] = at + (k + 1) % length
        at += length
    return images


def _dihedral(n):
    return [[(i + 1) % n for i in range(n)], [-i % n for i in range(n)]]


def _wreath(m):
    """C2 wr C_m on 2m points: a swap of one pair, and a shift of the pairs."""
    return [[1, 0] + list(range(2, 2 * m)), [(i + 2) % (2 * m) for i in range(2 * m)]]


def _gallery(index):
    d = gallery_dessin(index)
    return [[v - 1 for v in s.images] for s in (d.sigma0, d.sigma1)]


# (name, 0-based generators, order); degrees 36, 260 to 1000
GROUPS = {
    "gallery 1": (_gallery(1), 42467328),
    "gallery 4": (_gallery(4), 42467328),
    "dihedral 300": (_dihedral(300), 600),
    "dihedral 1000": (_dihedral(1000), 2000),
    "cycles 257": ([_cycles(257, [256])], 256),
    "cycles 400": ([_cycles(400, [7, 11, 13, 17, 19, 23, 29, 31, 37])],
                   math.lcm(7, 11, 13, 17, 19, 23, 29, 31, 37)),
    "wreath 260": (_wreath(130), 2**130 * 130),
    "symmetric 500": ([_cycles(500, [500]), _cycles(500, [2])], math.factorial(500)),
}


def _order(gens):
    return PermGroup([Permutation([v + 1 for v in g]) for g in gens]).order()


@pytest.mark.parametrize("name", GROUPS)
def test_order_under_relabelling(name):
    gens, order = GROUPS[name]
    n = len(gens[0])
    rng = random.Random(f"relabel {name}")
    pi = list(range(n))
    rng.shuffle(pi)
    # pi^-1 g pi sends pi(x) to pi(g(x))
    relabelled = []
    for g in gens:
        images = [0] * n
        for x in range(n):
            images[pi[x]] = pi[g[x]]
        relabelled.append(images)
    assert _order(relabelled) == _order(gens) == order


@pytest.mark.parametrize("first, second", [
    ("gallery 1", "dihedral 300"),
    ("dihedral 300", "cycles 400"),
    ("wreath 260", "gallery 4"),
    ("gallery 1", "gallery 4"),
    ("cycles 257", "dihedral 300"),
])
def test_order_of_a_direct_product(first, second):
    (g_gens, g_order), (h_gens, h_order) = GROUPS[first], GROUPS[second]
    n, m = len(g_gens[0]), len(h_gens[0])
    gens = [g + list(range(n, n + m)) for g in g_gens]
    gens += [list(range(n)) + [v + n for v in h] for h in h_gens]
    assert _order(gens) == _order(g_gens) * _order(h_gens) == g_order * h_order


# -- words under evaluation -----------------------------------------------------

HUGE = 2**100 + 1


def _random_syllables(rng):
    """Up to 10 syllables; one in ten exponents is +-(2^100 + 1)."""
    exponents = (-3, -2, -1, 1, 2, 3, 7, 5, -HUGE, HUGE, -1, 1, 2, 1, -2, -1, 4, 3, 1, -1)
    return [(rng.choice("xy"), rng.choice(exponents)) for _ in range(rng.randint(0, 10))]


def _random_pair(rng, n):
    pair = []
    for _ in range(2):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        pair.append(Permutation(images))
    return pair


@pytest.mark.parametrize("degree", [36, 257, 1000])
def test_words_under_evaluation(degree):
    rng = random.Random(f"words {degree}")
    assignments = [_random_pair(rng, degree) for _ in range(2)]
    if degree == 36:
        d = gallery_dessin(1)
        assignments.append((d.sigma0, d.sigma1))
    for mx, my in assignments:
        for _ in range(8):
            u, v = FreeWord(_random_syllables(rng)), FreeWord(_random_syllables(rng))
            eu, ev = evaluate_word(u, mx, my), evaluate_word(v, mx, my)
            assert evaluate_word(u * v, mx, my) == eu * ev
            assert evaluate_word(u.inverse(), mx, my) == eu.inverse()
            # u^k has |k| times u's syllables unless u is a conjugate of a
            # letter power, w g^e w^-1, whose powers stay short
            w, g = FreeWord(_random_syllables(rng)), rng.choice("xy")
            conjugate = w * FreeWord([(g, rng.choice((-2, 1, 3)))]) * w.inverse()
            ec = evaluate_word(conjugate, mx, my)
            for k in (0, 1, -1, 2, -2, HUGE, -HUGE):
                assert evaluate_word(conjugate ** k, mx, my) == ec ** k
                if abs(k) <= 2:
                    assert evaluate_word(u ** k, mx, my) == eu ** k
