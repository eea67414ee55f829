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

Closure verdicts at degree 72: closure_difference compares the orders of
two cartographic groups and of their 72-point diagonal group, so a second
Schreier-Sims that shares nothing with the library's (plain tuples, its own
base points, every Schreier generator sifted, no Jordan search) is an
oracle for the verdict.  A relabelled gallery dessin must give an
isomorphic closure; a gallery dessin with two points of sigma1 swapped gives
the verdict the oracle's orders give.

Mirror images: complex conjugation maps a dessin to (sigma0^-1, sigma1^-1),
and the gallery's field of definition has no real embedding, so the mirror
pairs the six gallery dessins, and their regular closures, with no fixed
point.

Words under evaluation: evaluation is a homomorphism from the free group, so
eval(u v) = eval(u) eval(v), eval(u^-1) = eval(u)^-1 and eval(u^k) =
eval(u)^k, the right-hand sides computed by Permutation's own product,
inverse and power.

Roots under affine changes of variable: for c != 0, g(X) = f(cX + k)
vanishes at x exactly when f vanishes at cx + k, to the same order, so the
rational roots of g are (r - k)/c for the roots r of f, with the same
multiplicities, and g's rootless cofactor is f's composed with cX + k, made
monic; for c > 0, x -> cx + k maps (lo, hi] onto (c lo + k, c hi + k], so
the Sturm counts there agree.  At degree 200, past the reach of Descartes
bisection, the two sides run different remainder sequences.
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
    rational_roots,
    sturm_count,
)
from dessinkit.dessins import Dessin, closure_difference, dessins_isomorphic
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


# -- the root layer under affine changes of variable ---------------------------

AFFINE_DEGREES = [3, 8, 20, 40, 80, 120, 160, 200, 200]


def _planted(rng, degree):
    """About ``degree`` degrees of a c (X^2 - s)^e h prod (X - r)^m, h a
    random integer polynomial of degree min(degree / 2, 1200 / degree):
    multiplicities grow with the degree while the squarefree part stays
    small enough for a remainder sequence in well under a second.  Returns f
    and the planted roots with their multiplicities."""
    s = rng.choice((2, 3, 5, 6, 7, F(1, 2), F(5, 3)))
    h = RatPoly([rng.randint(-9, 9) for _ in range(min(degree // 2, 1200 // degree))] + [1])
    f = RatPoly((-s, 0, 1)) ** rng.randint(1, max(1, degree // 20)) * h
    f = f * rng.choice((1, -2, F(3, 5)))
    planted = collections.Counter()
    while f.degree < degree or not planted:
        r, m = F(rng.randint(-30, 30), rng.randint(1, 9)), rng.randint(1, max(1, degree // 8))
        planted[r] += m
        f = f * (X - r) ** m
    return f, planted


def _affine(rng, positive):
    """A seeded cX + k, with c > 0 when ``positive``."""
    c = F(rng.randint(1, 5), rng.randint(1, 4))
    if not positive and rng.random() < 0.5:
        c = -c
    return c, F(rng.randint(-9, 9), rng.randint(1, 4))


@pytest.mark.parametrize("case", range(len(AFFINE_DEGREES)))
def test_rational_roots_under_affine_maps(case):
    degree = AFFINE_DEGREES[case]
    rng = random.Random(f"affine roots {case}")
    f, planted = _planted(rng, degree)
    c, k = _affine(rng, positive=False)
    roots, cofactor = rational_roots(f)
    moved, moved_cofactor = rational_roots(_at(f, c * X + k))
    assert moved == {(r - k) / c: m for r, m in roots.items()}, (f, c, k)
    composed = _at(cofactor, c * X + k)
    assert moved_cofactor == composed * (1 / composed.leading), (f, c, k)
    assert all(roots[r] >= m for r, m in planted.items()), (f, planted)
    assert f.degree >= degree and cofactor.degree >= 2


@pytest.mark.parametrize("case", range(len(AFFINE_DEGREES)))
def test_sturm_counts_under_affine_maps(case):
    degree = AFFINE_DEGREES[case]
    rng = random.Random(f"affine sturm {case}")
    f, planted = _planted(rng, degree)
    c, k = _affine(rng, positive=True)
    g = _at(f, c * X + k)
    # endpoints on the moved planted roots, where the chains' first terms
    # vanish, and at seeded points; counts at least the planted roots inside
    ends = sorted({(r - k) / c for r in planted}
                  | {F(rng.randint(-40, 40), rng.randint(1, 5)) for _ in range(3)})
    intervals = [(ends[0], ends[-1])]
    intervals += [sorted(rng.sample(ends, 2)) for _ in range(3 if degree < 100 else 1)]
    for lo, hi in intervals:
        count = sturm_count(g, lo, hi)
        assert count == sturm_count(f, c * lo + k, c * hi + k), (f, c, k, lo, hi)
        assert count >= sum(1 for r in planted if lo < (r - k) / c <= hi), (f, c, k, lo, hi)


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


# -- closure verdicts against a textbook Schreier-Sims ---------------------------


def _compose(a, b):
    return tuple(map(b.__getitem__, a))


def _inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def _textbook_order(gens):
    """The order of the group of 0-based image tuples ``gens`` by the
    deterministic Schreier-Sims algorithm (Seress, *Permutation Group
    Algorithms*, CUP 2003, sec. 4.2): a level is complete when every one of
    its Schreier generators sifts to the identity through the levels below;
    a residue that drops out at level j becomes a strong generator of the
    levels down to j, whose orbits are extended, and the scan restarts there.
    A new base point is the largest point the residue moves."""
    n = len(gens[0])
    identity = tuple(range(n))
    levels = []  # (base point, strong generators, {orbit point: (u, u^-1)})

    def add(g, first, last):
        if last == len(levels):
            point = max(p for p in range(n) if g[p] != p)
            levels.append((point, [], {point: (identity, identity)}))
        for _, strong, table in levels[first:last + 1]:
            strong.append(g)
            queue = list(table)
            for a in queue:
                for s in strong:
                    b = s[a]
                    if b not in table:
                        u = _compose(table[a][0], s)
                        table[b] = (u, _inverse(u))
                        queue.append(b)

    def strip(g, start):
        for k in range(start, len(levels)):
            point, _, table = levels[k]
            entry = table.get(g[point])
            if entry is None:
                return g, k
            g = _compose(g, entry[1])
        return g, len(levels)

    for g in map(tuple, gens):
        if g != identity:
            add(g, 0, 0)
    i = len(levels) - 1
    while i >= 0:
        _, strong, table = levels[i]
        residue = identity
        for a, (u, _) in table.items():
            for s in strong:
                residue, j = strip(_compose(_compose(u, s), table[s[a]][1]), i + 1)
                if residue != identity:
                    break
            if residue != identity:
                break
        if residue == identity:
            i -= 1
        else:
            add(residue, i + 1, j)
            i = j
    return math.prod(len(table) for _, _, table in levels)


def _pair(d):
    return [tuple(v - 1 for v in s.images) for s in (d.sigma0, d.sigma1)]


def _diagonal(d, e):
    """sigma0 and sigma1 of d beside those of e, on 72 points."""
    return [a + tuple(v + len(a) for v in b) for a, b in zip(_pair(d), _pair(e))]


def _oracle_verdict(d, e):
    """closure_difference's verdict from the textbook orders."""
    order = _textbook_order(_pair(d))
    if _textbook_order(_pair(e)) != order:
        return "component orders differ"
    if _textbook_order(_diagonal(d, e)) > order:
        return "diagonal order exceeds component order"
    return None


@pytest.mark.parametrize("index", range(1, 7))
def test_relabelled_gallery_closures_are_isomorphic(index):
    d = gallery_dessin(index)
    images = list(range(1, 37))
    random.Random(f"closure {index}").shuffle(images)
    pi = Permutation(images)
    copy = Dessin(pi.inverse() * d.sigma0 * pi, pi.inverse() * d.sigma1 * pi)
    assert _textbook_order(_diagonal(d, copy)) == _textbook_order(_pair(d)) == 42467328
    assert closure_difference(d, copy) is None


# (gallery dessin, the two points of sigma1 swapped, the oracle's verdict):
# each verdict, and component orders from 10^7 to 10^32.  Most swaps give a
# group of order 10^26 or more, whose textbook chain takes up to 1.6 s, so
# one of those is run
SWAPS = [
    (4, (29, 28), None),
    (1, (2, 8), "diagonal order exceeds component order"),
    (4, (7, 1), "diagonal order exceeds component order"),
    (6, (3, 9), "diagonal order exceeds component order"),
    (2, (25, 13), "component orders differ"),
    (1, (2, 5), "component orders differ"),
    (5, (7, 5), "component orders differ"),
    (1, (11, 17), "component orders differ"),
]


@pytest.mark.parametrize("index, swapped, verdict", SWAPS)
def test_closure_verdicts_after_a_swap_in_sigma1(index, swapped, verdict):
    d = gallery_dessin(index)
    a, b = swapped
    swap = Permutation([b if p == a else a if p == b else p for p in range(1, 37)])
    other = Dessin(d.sigma0, swap * d.sigma1 * swap)
    assert _oracle_verdict(d, other) == verdict
    assert closure_difference(d, other) == verdict


# the diagonal group of gallery dessins 1 and k stops its build at level 9,
# made at a point of the second block, once its orbit is first extended;
# the levels above it, all in the first block, are the same for every k
DIAGONAL_LEVELS = [(0, 36), (12, 6), (15, 6), (13, 2), (21, 2), (17, 2), (20, 2), (16, 2), (1, 2)]
# k: (the stopping level's base point, |D| / |G1|)
DIAGONAL_STOPS = {2: (49, 4096), 3: (51, 4096), 4: (49, 64), 5: (51, 4096), 6: (53, 4096)}


@pytest.mark.parametrize("index", sorted(DIAGONAL_STOPS))
def test_where_the_diagonal_build_stops(index):
    d, e = gallery_dessin(1), gallery_dessin(index)
    group = PermGroup([Permutation([v + 1 for v in s]) for s in _diagonal(d, e)])
    assert group._fixer_is_nontrivial(36)
    point, kernel = DIAGONAL_STOPS[index]
    state = [(lvl.point, len(lvl.orbit)) for lvl in group._levels]
    assert (group._level, state) == (9, DIAGONAL_LEVELS + [(point, 2)])
    assert group.order() == _textbook_order(_diagonal(d, e)) == kernel * 42467328
    # on the complete chain too, where the base may end in the first block
    assert group._fixer_is_nontrivial(36)


# -- the mirror image on the gallery ----------------------------------------------


def _mirror(d):
    return Dessin(d.sigma0.inverse(), d.sigma1.inverse())


def test_the_mirror_pairs_the_gallery():
    """Complex conjugation acts on dessins by the mirror image (sigma0^-1,
    sigma1^-1).  The six gallery dessins are one Galois orbit over Q(zeta3,
    3^(1/3)), whose Galois group S3 permutes them regularly.  That field has
    no real embedding, so complex conjugation acts on it as an element of
    order 2, which fixes no dessin of a regular orbit: the mirror pairs the
    six.  A dessin's regular closure mirrors with it, and the six closures
    are pairwise non-isomorphic, so no closure is its own mirror either.
    The pairing is gallery k with gallery 7 - k."""
    gallery = [gallery_dessin(k) for k in range(1, 7)]
    for k, d in enumerate(gallery, 1):
        mirror = _mirror(d)
        for j, e in enumerate(gallery, 1):
            paired = j == 7 - k
            assert (dessins_isomorphic(mirror, e) is not None) == paired, (k, j)
            assert closure_difference(mirror, e) == (
                None if paired else "diagonal order exceeds component order"), (k, j)


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
