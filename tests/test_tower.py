"""Tower-field arithmetic, Galois action, and j-invariant distinctness."""

import itertools
import json
import random
import time
from fractions import Fraction as F

import pytest

from dessinkit import tower
from dessinkit._exact import is_prime
from dessinkit.cli import run_cli
from dessinkit.errors import (
    DegenerateTriple,
    DivisionByZero,
    FieldMismatch,
    NotAUnit,
    OutOfRange,
    ResourceLimit,
)
from dessinkit.tower import (
    MAX_P,
    CurveTriple,
    DistinctnessReport,
    TowerField,
    base_triple,
    conjugate_triples_distinct,
    galois_apply,
    galois_elements,
    j_invariant_of_triple,
)

import child


def random_element(field, rng, height=9):
    coords = {}
    for i in range(field.p - 1):
        for j in range(field.p):
            if rng.random() < 0.4:
                coords[(i, j)] = F(rng.randint(-height, height),
                                   rng.randint(1, height))
    return field.element(coords)


def distinct_by_loop(field, gamma):
    """Reference for conjugate_triples_distinct: the j-invariant of every
    conjugate triple computed from the triple, and every pair compared."""
    zero = field.zero()
    b0 = field.one() - field.zeta()
    c0 = field.root() * F(gamma)
    labels = galois_elements(field)
    invariants = [
        j_invariant_of_triple(CurveTriple(
            zero, galois_apply(field, i, u, b0), galois_apply(field, i, u, c0)
        ))
        for i, u in labels
    ]
    collisions = tuple(
        (labels[x], labels[y])
        for x in range(len(labels))
        for y in range(x + 1, len(labels))
        if invariants[x] == invariants[y]
    )
    return not collisions, DistinctnessReport(len(labels), collisions)


def oracle_fold(field, coords):
    """Reference for TowerField.element: {(zeta_exp, t_exp): coefficient}
    with any integer exponents folded one Fraction coordinate at a time."""
    p = field.p
    folded = {}
    for (i, j), c in coords.items():
        qpow, j = divmod(j, p)
        c = F(c) * field.q**qpow if qpow else F(c)
        key = (i % p, j)
        folded[key] = folded[key] + c if key in folded else c
    reduced = {key: c for key, c in folded.items() if key[0] < p - 1}
    for (i, j), c in folded.items():
        if i == p - 1:
            for k in range(p - 1):
                key = (k, j)
                reduced[key] = reduced[key] - c if key in reduced else -c
    return {key: c for key, c in reduced.items() if c}


def oracle_mul(field, x, y):
    """Reference for the product: the Fraction schoolbook product of two
    coordinate maps, folded by oracle_fold."""
    acc = {}
    for (i1, j1), c1 in x.items():
        for (i2, j2), c2 in y.items():
            key = (i1 + i2, j1 + j2)
            acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
    return oracle_fold(field, acc)


def oracle_galois(field, i, u, x):
    """Reference for galois_apply: zeta^a t^b -> zeta^(u a + i b) t^b."""
    return oracle_fold(field, {(u * a + i * b, b): c for (a, b), c in x.items()})


def sparse_coords(field, rng, terms, numerator, denominator=lambda: 1):
    basis = [(i, j) for i in range(field.p - 1) for j in range(field.p)]
    return {key: F(numerator(), denominator()) for key in rng.sample(basis, terms)}


class TestFieldConstruction:
    def test_rejects_pth_powers(self):
        with pytest.raises(OutOfRange):
            TowerField(3, 8)
        with pytest.raises(OutOfRange):
            TowerField(3, F(27, 64))
        with pytest.raises(OutOfRange):
            TowerField(5, 32)

    def test_accepts_non_powers(self):
        assert TowerField(3, F(8, 9)).dimension == 6
        assert TowerField(5, 2).dimension == 20

    def test_rejects_bad_p(self):
        for p in (1, 2, 4, 9):
            with pytest.raises(OutOfRange):
                TowerField(p, 2)

    def test_large_composite_p_rejected_fast(self):
        start = time.perf_counter()
        with pytest.raises(OutOfRange):
            TowerField(1000000007 * 998244353, 2)
        assert time.perf_counter() - start < 1

    def test_unprovable_prime_p_is_a_resource_limit(self):
        with pytest.raises(ResourceLimit):
            TowerField(2**127 - 1, 2)

    def test_size_cap(self):
        assert TowerField(MAX_P, 2).dimension == MAX_P * (MAX_P - 1)
        above = next(n for n in itertools.count(MAX_P + 1) if is_prime(n))
        for p in (above, 1009):
            with pytest.raises(ResourceLimit):
                TowerField(p, 2)
        assert run_cli(["tower", "distinct", "--p", "1009", "--q", "2"]) == 3

    def test_equal_fields_hash_alike(self):
        field, same = TowerField(3, 2), TowerField(3, F(4, 2))
        assert field == same and hash(field) == hash(same)
        assert {field: "K", same: "K'"} == {field: "K'"}
        assert len({field, same, TowerField(3, F(2, 3)), TowerField(5, 2)}) == 3

    def test_rejects_nonpositive_q(self):
        with pytest.raises(OutOfRange):
            TowerField(3, 0)
        with pytest.raises(OutOfRange):
            TowerField(3, -2)


class TestArithmetic:
    def test_root_of_unity_relation(self):
        K = TowerField(5, 2)
        assert K.zeta() * K.zeta(2) * K.zeta(-3) == K.one()
        total = K.zero()
        for i in range(5):
            total = total + K.zeta(i)
        assert total.is_zero

    def test_kummer_relation(self):
        K = TowerField(3, 3)
        t = K.root()
        assert t * t * t == K.rational(3)

    def test_cyclotomic_norm(self):
        K = TowerField(3, 3)
        assert (K.one() - K.zeta()) * (K.one() - K.zeta(2)) == K.rational(3)

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            TowerField(3, 2).one() + TowerField(3, 3).one()

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            TowerField(3, 2).zero().inverse()

    @pytest.mark.parametrize("p,q", [(3, 2), (3, 5), (5, 2)])
    def test_field_axioms_random(self, p, q):
        # 200 random nonzero elements per field get the inverse check; the
        # associativity/distributivity triples ride along
        K = TowerField(p, q)
        rng = random.Random(100 * p + q)
        one = K.one()
        inverted = 0
        while inverted < 200:
            a = random_element(K, rng)
            b = random_element(K, rng)
            c = random_element(K, rng)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * a.inverse() == one
                inverted += 1

    @pytest.mark.parametrize("p,q,count", [(7, F(2, 3), 5), (11, 2, 3)])
    def test_inverse_large_p(self, p, q, count):
        K = TowerField(p, q)
        rng = random.Random(p)
        for _ in range(count):
            a = random_element(K, rng)
            assert a * a.inverse() == K.one()

    def test_power_negative(self):
        K = TowerField(3, 2)
        t = K.root()
        assert t**-3 == K.rational(F(1, 2))

    def test_equality_with_int_and_fraction(self):
        K = TowerField(3, F(2, 5))
        t = K.root()
        # t^3 = q, and an element with an irrational part equals no rational
        assert t * t * t == F(2, 5) and t * t * t != F(5, 2) and t**-3 == F(5, 2)
        assert K.rational(7) == 7 and K.rational(7) != 6 and K.rational(7) == F(14, 2)
        assert K.zero() == 0 and K.one() == 1 and K.one() != 0
        assert t != 0 and t != 1 and K.one() + t != 1 and K.zeta() != 1
        assert K.zeta() * K.zeta(2) == 1 and (K.one() - K.zeta()) * (K.one() - K.zeta(2)) == 3


class TestGalois:
    def test_identity(self):
        K = TowerField(3, 3)
        e = K.element({(1, 2): F(3, 7), (0, 1): 1})
        assert galois_apply(K, 0, 1, e) == e

    def test_sigma_on_root(self):
        K = TowerField(3, 3)
        assert galois_apply(K, 1, 1, K.root()) == K.zeta() * K.root()

    def test_sigma_order_p_tau_order_p_minus_1(self):
        K = TowerField(5, 2)
        rng = random.Random(5)
        e = random_element(K, rng)
        x = e
        for _ in range(5):
            x = galois_apply(K, 1, 1, x)
        assert x == e
        # 2 generates (Z/5)^*, so tau has order 4
        y = e
        seen_identity_early = False
        for step in range(1, 5):
            y = galois_apply(K, 0, 2, y)
            if step < 4 and y == e:
                seen_identity_early = True
        assert y == e and not seen_identity_early

    def test_ring_homomorphism(self):
        K = TowerField(3, 5)
        rng = random.Random(11)
        for _ in range(25):
            a, b = random_element(K, rng), random_element(K, rng)
            i, u = rng.randrange(3), rng.choice((1, 2))
            assert galois_apply(K, i, u, a * b) == galois_apply(
                K, i, u, a
            ) * galois_apply(K, i, u, b)
            assert galois_apply(K, i, u, a + b) == galois_apply(
                K, i, u, a
            ) + galois_apply(K, i, u, b)

    def test_automorphisms_distinct_on_generators(self):
        K = TowerField(5, 2)
        images = {
            (
                galois_apply(K, i, u, K.zeta()),
                galois_apply(K, i, u, K.root()),
            )
            for (i, u) in galois_elements(K)
        }
        assert len(images) == 20

    def test_not_a_unit(self):
        K = TowerField(3, 2)
        with pytest.raises(NotAUnit):
            galois_apply(K, 1, 3, K.one())

    def test_fixed_field_is_rational(self):
        # averaging over the whole group lands in Q; spot-check trace sums
        K = TowerField(3, 2)
        rng = random.Random(17)
        for _ in range(5):
            e = random_element(K, rng)
            total = K.zero()
            for (i, u) in galois_elements(K):
                total = total + galois_apply(K, i, u, e)
            assert galois_apply(K, 1, 1, total) == total
            assert galois_apply(K, 0, 2, total) == total
            assert total.is_rational()


class TestJInvariant:
    def test_harmonic(self):
        K = TowerField(3, 2)
        tr = CurveTriple(K.rational(0), K.rational(1), K.rational(2))
        assert j_invariant_of_triple(tr) == K.rational(1728)

    def test_half(self):
        K = TowerField(3, 2)
        tr = CurveTriple(K.rational(0), K.rational(1), K.rational(F(1, 2)))
        assert j_invariant_of_triple(tr) == K.rational(1728)

    def test_generic_value(self):
        K = TowerField(3, 2)
        tr = CurveTriple(K.rational(0), K.rational(1), K.rational(3))
        # lambda = 3: j = 256 * 7^3 / (9 * 4)
        assert j_invariant_of_triple(tr) == K.rational(F(256 * 343, 36))

    def test_ordering_invariance(self):
        K = TowerField(3, 3)
        pts = [K.rational(0), K.one() - K.zeta(), K.root()]
        values = {
            j_invariant_of_triple(CurveTriple(*perm))
            for perm in itertools.permutations(pts)
        }
        assert len(values) == 1

    def test_affine_invariance(self):
        K = TowerField(3, 5)
        rng = random.Random(23)
        pts = [K.rational(0), K.one() - K.zeta(), K.root() * F(2, 3)]
        base = j_invariant_of_triple(CurveTriple(*pts))
        for _ in range(5):
            u = F(rng.randint(1, 9), rng.randint(1, 9))
            v = F(rng.randint(-9, 9), rng.randint(1, 9))
            moved = [e * u + v for e in pts]
            assert j_invariant_of_triple(CurveTriple(*moved)) == base

    def test_degenerate(self):
        K = TowerField(3, 2)
        with pytest.raises(DegenerateTriple):
            CurveTriple(K.rational(0), K.rational(0), K.rational(1))

    @pytest.mark.parametrize("q", [F(2), F(7, 3)])
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_matches_the_cross_ratio_form(self, p, q):
        K = TowerField(p, q)
        tr = CurveTriple(K.rational(F(1, 2)), K.one() - K.zeta(), K.root() * F(3, 5))
        lam = (tr.c - tr.a) / (tr.b - tr.a)
        oracle = (lam * lam - lam + 1) ** 3 * 256 / (lam * lam * (lam - 1) ** 2)
        assert j_invariant_of_triple(tr) == oracle


class TestConjugateDistinctness:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_p3(self, q):
        ok, report = conjugate_triples_distinct(TowerField(3, q), 1)
        assert ok and report.count == 6 and not report.collisions

    def test_p5(self):
        ok, report = conjugate_triples_distinct(TowerField(5, 2), 1)
        assert ok and report.count == 20

    def test_rational_gamma(self):
        ok, report = conjugate_triples_distinct(TowerField(3, 2), F(2, 17))
        assert ok and report.count == 6

    @pytest.mark.parametrize("p", [3, 5])
    def test_matches_per_conjugate_loop(self, p, monkeypatch):
        # the exact path: with no prime tried, j is computed in the tower
        monkeypatch.setattr(tower, "_IMAGE_PRIMES", 0)
        calls = []
        jinv = tower.j_invariant_of_triple
        monkeypatch.setattr(
            tower, "j_invariant_of_triple", lambda tr: calls.append(tr) or jinv(tr)
        )
        rng = random.Random(40 + p)
        for _ in range(4):
            q = F(rng.choice((2, 5, 7, 11)), rng.choice((1, 3)))
            gamma = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            field = TowerField(p, q)
            del calls[:]
            report = conjugate_triples_distinct(field, gamma)
            assert len(calls) == 1
            assert report == distinct_by_loop(field, gamma)

    def test_gamma_zero_rejected(self):
        with pytest.raises(OutOfRange):
            conjugate_triples_distinct(TowerField(3, 2), 0)


ORACLE_QS = [F(2), F(7, 3), F(1, 5)]


def collisions_by_loop(field, e):
    """Reference for tower._collisions: every image of e, every pair compared."""
    labels = galois_elements(field)
    images = [galois_apply(field, i, u, e) for i, u in labels]
    return tuple(
        (labels[x], labels[y])
        for x in range(len(labels))
        for y in range(x + 1, len(labels))
        if images[x] == images[y]
    )


class TestCollisions:
    """Elements with known stabilisers, so that the collision branch runs."""

    @pytest.mark.parametrize("q", ORACLE_QS)
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_known_stabilisers(self, p, q):
        K = TowerField(p, q)
        z, t = K.zeta(), K.root()
        # each element with the rule by which two labels (i, u), (k, v)
        # send it to the same image
        cases = [
            (K.rational(F(3, 7)), lambda i, u, k, v: True),
            (z, lambda i, u, k, v: u == v),
            (z + K.zeta(-1), lambda i, u, k, v: v in (u, p - u)),
            (t, lambda i, u, k, v: i == k),
            (z * t * t, lambda i, u, k, v: (u + 2 * i - v - 2 * k) % p == 0),
            (t + z, lambda i, u, k, v: False),
        ]
        for e, same in cases:
            expected = collisions_by_loop(K, e)
            assert tower._collisions(K, e) == expected, e
            assert expected == tuple(
                pair for pair in itertools.combinations(galois_elements(K), 2)
                if same(*pair[0], *pair[1]))

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_label_law_matches_composed_action(self, p):
        # (i, u)(k, v) = (i + u k, u v) mod p, with (k, v) applied first
        K = TowerField(p, F(7, 3))
        rng = random.Random(70 + p)
        for _ in range(10):
            e = random_element(K, rng)
            i, k = rng.randrange(p), rng.randrange(p)
            u, v = rng.randrange(1, p), rng.randrange(1, p)
            composed = galois_apply(K, i, u, galois_apply(K, k, v, e))
            assert composed == galois_apply(K, (i + u * k) % p, u * v % p, e)

    def test_cli_reports_collisions(self, capsys, monkeypatch):
        # the exact path, whose j is patched: with no prime tried, the
        # patched j is the only one computed
        monkeypatch.setattr(tower, "_IMAGE_PRIMES", 0)
        monkeypatch.setattr(tower, "j_invariant_of_triple",
                            lambda tr: tr.a.field.rational(1728))
        pairs = list(itertools.combinations(galois_elements(TowerField(3, 2)), 2))
        assert run_cli(["tower", "distinct", "--p", "3", "--q", "2"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["conjugates: 6", "pairwise distinct: false"]
        assert lines[2:] == [f"collision: {a} vs {b}" for a, b in pairs]
        assert run_cli(["tower", "distinct", "--p", "3", "--q", "2", "--json"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["distinct"] is False
        assert out["collisions"] == [[list(a), list(b)] for a, b in pairs]


def first_split_primes(field, gamma, count):
    """The first ``count`` (l, w, r) of the certificate's prime search."""
    return list(itertools.islice(tower._split_primes(field, F(gamma)), count))


def split_primes_by_scan(field, gamma, count):
    """Reference for the primes of tower._split_primes: every l = 1 mod 2p
    above the start, each condition tested as stated, q's pth power by
    Euler's criterion on q mod l."""
    p, q = field.p, field.q
    start = tower._IMAGE_START
    ell, out = start + 1 + (-start) % (2 * p), []
    while len(out) < count:
        heights = (q.numerator, q.denominator, gamma.numerator, gamma.denominator)
        if is_prime(ell) and ell % (p * p) != 1 and all(v % ell for v in heights):
            qm = q.numerator * pow(q.denominator, -1, ell) % ell
            if pow(qm, (ell - 1) // p, ell) == 1:
                out.append(ell)
        ell += 2 * p
    return out


def image(ell, w, r, label, x):
    """phi sigma(x) in GF(l) for sigma = (i, u): zeta^a t^b -> w^(u a + i b) r^b,
    each coordinate read mod l."""
    i, u = label
    return sum(c.numerator * pow(c.denominator, -1, ell) * pow(w, u * a + i * b, ell)
               * pow(r, b, ell) for (a, b), c in x.coordinates.items()) % ell


def record_images(monkeypatch):
    """A list that gains (l, slots) per evaluation of j on a triple of
    residues, slots None when a divisor vanished; j of tower elements is
    left as it is."""
    seen = []
    jinv = tower.j_invariant_of_triple

    def recording(tr):
        if type(tr.a) is not tower._Residues:
            return jinv(tr)
        try:
            j = jinv(tr)
        except DivisionByZero:
            seen.append((tr.a.ell, None))
            raise
        seen.append((tr.a.ell, j.slots))
        return j

    monkeypatch.setattr(tower, "j_invariant_of_triple", recording)
    return seen


class TestPrimeImages:
    """The certificate by images in a prime field: its primes, its ring
    maps, each way a prime fails, and its verdicts against the exact path."""

    @pytest.mark.parametrize("p, q, gamma", [
        (3, 2, 1), (5, F(7, 3), F(3, 5)), (7, 5, F(-2, 9)), (13, F(1, 6), 4), (23, 2, 1),
    ])
    def test_primes_are_those_of_a_scan(self, p, q, gamma):
        K = TowerField(p, q)
        found = first_split_primes(K, gamma, 3)
        assert [ell for ell, _, _ in found] == split_primes_by_scan(K, F(gamma), 3)
        for ell, w, r in found:
            assert ell > tower._IMAGE_START
            assert w != 1 and pow(w, p, ell) == 1
            assert pow(r, p, ell) == K.q.numerator * pow(K.q.denominator, -1, ell) % ell

    @pytest.mark.parametrize("p, q", [(3, F(2)), (5, F(7, 3)), (7, F(1, 5))])
    def test_each_map_is_a_ring_map(self, p, q):
        K = TowerField(p, q)
        (ell, w, r), = first_split_primes(K, 1, 1)
        rng = random.Random(380 + p)
        pairs = [(random_element(K, rng), random_element(K, rng)) for _ in range(3)]
        labels = galois_elements(K)
        for label in labels:
            for x, y in pairs:
                fx, fy = image(ell, w, r, label, x), image(ell, w, r, label, y)
                assert image(ell, w, r, label, x * y) == fx * fy % ell
                assert image(ell, w, r, label, x + y) == (fx + fy) % ell
                # phi sigma is phi after the library's sigma
                assert fx == image(ell, w, r, (0, 1), galois_apply(K, *label, x))
        generators = {(image(ell, w, r, label, K.zeta()), image(ell, w, r, label, K.root()))
                      for label in labels}
        assert len(generators) == len(labels)

    def test_images_are_those_of_the_exact_j(self):
        # the certificate's images are phi sigma(j) for j computed exactly
        K = TowerField(5, F(7, 3))
        gamma = F(3, 5)
        (ell, w, r), = first_split_primes(K, gamma, 1)
        labels = galois_elements(K)
        exact = base_triple(K, gamma)
        j = j_invariant_of_triple(exact)
        expected = [image(ell, w, r, label, j) for label in labels]
        triple = CurveTriple(*(tower._Residues(ell, [image(ell, w, r, label, e) for label in labels])
                               for e in (exact.a, exact.b, exact.c)))
        assert j_invariant_of_triple(triple).slots == expected
        assert len(set(expected)) == len(expected)

    def test_a_prime_dividing_q_or_gamma_is_skipped(self):
        K = TowerField(5, 2)
        primes = [ell for ell, _, _ in first_split_primes(K, 1, 3)]
        ell = primes[0]
        # 2 l^5 is a 5th power mod every other prime exactly when 2 is
        assert [e for e, _, _ in first_split_primes(TowerField(5, 2 * ell**5), 1, 2)] == primes[1:]
        for gamma in (F(ell, 3), F(2, ell)):
            assert [e for e, _, _ in first_split_primes(K, gamma, 2)] == primes[1:]
            assert tower._distinct_by_images(K, gamma) is True

    def test_a_vanishing_divisor_fails_the_prime(self, monkeypatch):
        K = TowerField(3, 2)
        (ell, w, r), (later, _, _) = first_split_primes(K, 1, 2)
        # gamma t goes to 1 - w, the image of 1 - zeta, under the identity's map
        gamma = F((1 - w) * pow(r, -1, ell) % ell)
        seen = record_images(monkeypatch)
        assert tower._distinct_by_images(K, gamma) is True
        assert [(e, slots is None) for e, slots in seen] == [(ell, True), (later, False)]
        monkeypatch.setattr(tower, "_IMAGE_PRIMES", 1)
        assert tower._distinct_by_images(K, gamma) is None
        monkeypatch.setattr(tower, "_IMAGE_PRIMES", 0)
        assert conjugate_triples_distinct(K, gamma) == (True, DistinctnessReport(6, ()))

    def test_colliding_images_fail_the_prime(self, monkeypatch):
        K = TowerField(5, F(7, 3))
        (ell, w, r), (later, _, _) = first_split_primes(K, 1, 2)
        # lambda = c / b is L = gamma r / (1 - w) under the identity's map and
        # w L under (1, 1)'s; this gamma makes w L = 1 - L, and j(1 - L) = j(L)
        gamma = F((1 - w) * pow(r * (1 + w), -1, ell) % ell)
        labels = galois_elements(K)
        seen = record_images(monkeypatch)
        assert tower._distinct_by_images(K, gamma) is True
        (first, slots), (second, after) = seen
        assert (first, second) == (ell, later)
        assert slots[labels.index((0, 1))] == slots[labels.index((1, 1))]
        assert len(set(after)) == len(labels)
        monkeypatch.setattr(tower, "_IMAGE_PRIMES", 1)
        assert tower._distinct_by_images(K, gamma) is None
        monkeypatch.setattr(tower, "_IMAGE_PRIMES", 0)
        assert conjugate_triples_distinct(K, gamma) == (True, DistinctnessReport(20, ()))

    def test_one_equal_pair_fails_the_prime(self, monkeypatch):
        # the images must be pairwise distinct: one pair of equal slots
        # fails a prime
        def one_pair(tr):
            slots = list(range(len(tr.a.slots)))
            slots[-1] = slots[0]
            return tower._Residues(tr.a.ell, slots)

        monkeypatch.setattr(tower, "j_invariant_of_triple", one_pair)
        assert tower._distinct_by_images(TowerField(5, 2), F(1)) is None

    def test_certified_inputs_are_distinct_by_the_exact_path(self, monkeypatch):
        # every seeded input is certified, and the exact path, run with no
        # prime tried, gives the same report; the inputs include q and gamma
        # divisible by the first prime the search would otherwise take
        rng = random.Random(3801)
        cases = []
        for p in (3, 5, 7, 11, 13):
            for _ in range(3):
                q = F(rng.choice((2, 3, 5, 7, 11)), rng.choice((1, 2, 3)))
                while q == 1:
                    q = F(rng.choice((2, 3, 5, 7, 11)), rng.choice((1, 2, 3)))
                gamma = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                cases.append((p, q, gamma))
            if p <= 7:
                q = F(rng.choice((2, 3, 5)))
                (ell, _, _), = first_split_primes(TowerField(p, q), 1, 1)
                cases += [(p, q * ell**p, F(1)), (p, q, F(ell, 2)), (p, q, F(-3, ell))]
        for p, q, gamma in cases:
            field = TowerField(p, q)
            assert tower._distinct_by_images(field, gamma) is True, (p, q, gamma)
            report = conjugate_triples_distinct(field, gamma)
            with monkeypatch.context() as m:
                m.setattr(tower, "_IMAGE_PRIMES", 0)
                exact = conjugate_triples_distinct(field, gamma)
            assert exact == report == (True, DistinctnessReport(p * (p - 1), ()))

    @pytest.mark.parametrize("argv, conjugates", [
        (["--p", "23", "--q", "7/3", "--gamma", "3/5"], 506),
        (["--p", "11", "--q", "7/3", "--gamma", f"{7**100}/{3**130}"], 110),
    ])
    def test_command_time_in_a_child_process(self, argv, conjugates):
        # the command, timed in a fresh interpreter after the imports: with
        # j computed exactly the first took 0.47-0.65 s and the second 11 s;
        # certified by prime images each takes a few ms, and 0.1 s leaves
        # room for a slow host
        code = (
            "import contextlib, io, sys, time\n"
            "from dessinkit.cli import run_cli\n"
            "out = io.StringIO()\n"
            "start = time.process_time()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = run_cli(['tower', 'distinct', *sys.argv[1:]])\n"
            "print(code, time.process_time() - start)\n"
            "print(out.getvalue(), end='')\n"
        )
        done = child.run(["-c", code, *argv], capture_output=True,
                         text=True, check=True, timeout=120)
        status, seconds = done.stdout.splitlines()[0].split()
        assert done.stdout.splitlines()[1:] == [f"conjugates: {conjugates}",
                                                "pairwise distinct: true"]
        assert status == "0" and float(seconds) < 0.1, seconds


class TestAgainstFractionOracle:
    """The integer-vector arithmetic against the Fraction reference."""

    @pytest.mark.parametrize("q", ORACLE_QS)
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 23])
    def test_product_inverse_galois(self, p, q):
        K = TowerField(p, q)
        rng = random.Random(1000 * p + q.numerator)
        # dense operands up to p = 7; at 11 and 23 the Fraction product of
        # two dense operands is too slow for a unit test, so a few terms
        terms = K.dimension // 2 if p <= 7 else 6
        for _ in range(3):
            x = sparse_coords(K, rng, terms, lambda: rng.randint(-9, 9) or 1,
                              lambda: rng.randint(1, 9))
            y = sparse_coords(K, rng, terms, lambda: rng.randint(-9, 9) or 1,
                              lambda: rng.randint(1, 9))
            a, b = tower.TowerElement(K, x), K.element(y)
            assert a.coordinates == x
            assert (a * b).coordinates == oracle_mul(K, x, y)
            assert (a * a).coordinates == oracle_mul(K, x, x)
            i, u = rng.randrange(p), rng.randrange(1, p)
            assert galois_apply(K, i, u, a).coordinates == oracle_galois(K, i, u, x)
            assert oracle_mul(K, x, a.inverse().coordinates) == {(0, 0): 1}

    @pytest.mark.parametrize("p,q", [(5, F(7, 3)), (7, F(1, 5))])
    def test_element_fold(self, p, q):
        K = TowerField(p, q)
        rng = random.Random(p)
        for _ in range(20):
            coords = {
                (rng.randint(-3 * p, 3 * p), rng.randint(-3 * p, 3 * p)):
                    F(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 12))
            }
            assert K.element(coords).coordinates == oracle_fold(K, coords)

    @pytest.mark.parametrize("bits", [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65])
    def test_slot_width_at_byte_boundaries(self, bits):
        K = TowerField(5, F(7, 3))
        rng = random.Random(bits)
        big = 2**bits - 1
        for signs in ((1,), (-1,), (1, -1)):
            x = sparse_coords(K, rng, 20, lambda: rng.choice(signs) * big)
            y = sparse_coords(K, rng, 20, lambda: rng.choice(signs) * big)
            a, b = K.element(x), K.element(y)
            assert (a * b).coordinates == oracle_mul(K, x, y)
            assert (a * a).coordinates == oracle_mul(K, x, x)
        # one-term operands, against dense and one-term
        one_term = {(3, 4): F(-big)}
        assert (K.element(one_term) * a).coordinates == oracle_mul(K, one_term, x)
        square = oracle_mul(K, one_term, one_term)
        assert (K.element(one_term) ** 2).coordinates == square

    @pytest.mark.parametrize("p", [3, 7])
    def test_zero_and_one_term_operands(self, p):
        K = TowerField(p, F(1, 5))
        rng = random.Random(p)
        x = sparse_coords(K, rng, K.dimension, lambda: -rng.randint(1, 9))
        a = K.element(x)
        assert (a * K.zero()).is_zero and (K.zero() * a).is_zero
        assert (K.zero() * K.zero()).is_zero
        for key in [(0, 0), (p - 2, 0), (0, p - 1), (p - 2, p - 1)]:
            term = {key: F(-3, 7)}
            assert (K.element(term) * a).coordinates == oracle_mul(K, term, x)
            assert (K.element(term) * K.element(term)).coordinates == oracle_mul(
                K, term, term
            )
            assert K.element(term).inverse() * K.element(term) == K.one()

    def test_large_numerators_over_large_denominators(self):
        # two 200-bit denominators per element keep the common denominator
        # near 400 bits, so the Fraction check of the inverse stays quick
        K = TowerField(7, F(7, 3))
        rng = random.Random(200)
        for _ in range(2):
            dens = [rng.randint(2**199, 2**200) for _ in range(2)]
            x = sparse_coords(K, rng, 21, lambda: rng.randint(-(2**200), 2**200),
                              lambda: rng.choice(dens))
            y = sparse_coords(K, rng, 21, lambda: rng.randint(-(2**200), 2**200),
                              lambda: rng.choice(dens))
            a, b = K.element(x), K.element(y)
            assert (a * b).coordinates == oracle_mul(K, x, y)
            i, u = rng.randrange(7), rng.randrange(1, 7)
            assert galois_apply(K, i, u, a).coordinates == oracle_galois(K, i, u, x)
            assert oracle_mul(K, x, a.inverse().coordinates) == {(0, 0): 1}


class TestErrorMessages:
    """The class and message of each raise site no other test reaches."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: TowerField(3, 2).zeta().rational_value(), OutOfRange,
         "z is not rational"),
        (lambda: galois_apply(TowerField(3, 2), 0, 1, TowerField(3, 3).one()),
         FieldMismatch, "element belongs to a different tower"),
    ], ids=["zeta is not rational", "element of another tower"])
    def test_class_and_message(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert exc.type is error and str(exc.value) == message
