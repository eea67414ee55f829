"""Permutation and group-order tests, with a brute-force closure oracle."""

import hashlib
import math
import pickle
import random
import re
import sys
import threading
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessinkit.errors import (
    DegreeMismatch,
    OutOfRange,
    ParseError,
    PointOutOfRange,
    RepeatedPoint,
    ResourceLimit,
)
from dessinkit import perms
from dessinkit.perms import (
    PermGroup,
    Permutation,
    compose_right,
    parse_cycles,
)

SIGMA0_36 = (
    "(1,13,14,7,25,26)(2,15,16)(3,17,18)(4,19,20)(5,21,22)"
    "(6,23,24)(8,27,28)(9,29,30)(10,31,32)(11,33,34)(12,35,36)"
)
SIGMA1_36 = (
    "(1,2,3,4,5,6,7,8,9,10,11,12)(13,36)(14,15)(16,17)(18,19)"
    "(20,21)(22,23)(24,25)(26,27)(28,29)(30,31)(32,33)(34,35)"
)


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def brute_force_closure(gens):
    """Every element of the generated group; usable up to S_8."""
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
    return elements


def brute_force_order(gens):
    return len(brute_force_closure(gens))


def transitive_pair(rng, n):
    while True:
        pair = [random_perm(rng, n) for _ in range(2)]
        if PermGroup(pair).is_transitive():
            return pair


def is_odd(p):
    return sum(len(c) - 1 for c in p.cycles()) % 2 == 1


class TestParsing:
    def test_three_cycle(self):
        assert parse_cycles("(1,2,3)", 3).images == (2, 3, 1)

    def test_gallery_generator(self):
        p = parse_cycles(SIGMA0_36, 36)
        assert p.apply(1) == 13 and p.apply(26) == 1 and p.apply(2) == 15

    def test_repeated_point(self):
        with pytest.raises(RepeatedPoint):
            parse_cycles("(1,2)(1,3)", 3)

    def test_out_of_range(self):
        with pytest.raises(PointOutOfRange):
            parse_cycles("(1,5)", 4)
        with pytest.raises(PointOutOfRange):
            parse_cycles("(0,1)", 4)

    def test_syntax_errors(self):
        for bad in ("(1,2", "1,2)", "(1 2)", "(a,b)", "(1,,2)"):
            with pytest.raises(ParseError):
                parse_cycles(bad, 5)

    def test_points_are_runs_of_decimal_digits(self):
        # a point is str.isdecimal: Arabic-Indic digits are points, a sign
        # or a superscript digit is not
        assert parse_cycles("(١,٢)", 2) == parse_cycles("(1,2)", 2)
        for bad in ("+2", "²"):
            message = re.escape(f"bad point '{bad}' in cycle notation")
            with pytest.raises(ParseError, match=f"^{message}$"):
                parse_cycles(f"(1,{bad})", 2)

    def test_degree_cap_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(perms, "MAX_DEGREE", 50)
        assert parse_cycles("(1,50)", 50).degree == 50
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit) as exc:
                parse_cycles("()", 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.type is ResourceLimit
        assert str(exc.value) == "degree 1000000 exceeds cap 50"
        assert peak < 100_000  # two lists of 10^6 entries take 16 MB

    def test_identity_forms(self):
        assert parse_cycles("()", 4).is_identity
        assert str(Permutation.identity(4)) == "()"

    def test_whitespace_tolerant(self):
        assert parse_cycles(" ( 1 , 2 ) ( 3 , 4 ) ", 4) == parse_cycles(
            "(1,2)(3,4)", 4
        )

    def test_round_trip_canonical(self):
        rng = random.Random(11)
        for _ in range(50):
            p = random_perm(rng, rng.randint(1, 15))
            assert parse_cycles(str(p), p.degree) == p

    def test_canonical_printing(self):
        # cycles sorted by least element, least element first
        p = parse_cycles("(3,1,2)(6,5)", 6)
        assert str(p) == "(1,2,3)(5,6)"


class TestComposition:
    def test_right_action(self):
        a = parse_cycles("(1,2)", 3)
        b = parse_cycles("(2,3)", 3)
        assert compose_right(a, b).apply(1) == 3  # apply a first

    def test_identity_law(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_perm(rng, 8)
            assert compose_right(Permutation.identity(8), p) == p
            assert compose_right(p, Permutation.identity(8)) == p

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            compose_right(Permutation.identity(3), Permutation.identity(4))

    def test_square_of_24_cycle(self):
        y = parse_cycles("(" + ",".join(map(str, range(1, 25))) + ")", 24)
        odd = "(" + ",".join(map(str, range(1, 24, 2))) + ")"
        even = "(" + ",".join(map(str, range(2, 25, 2))) + ")"
        assert y * y == parse_cycles(odd + even, 24)

    @given(st.integers(2, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_group_laws(self, n, data):
        def perm():
            images = data.draw(st.permutations(list(range(1, n + 1))))
            return Permutation(images)

        a, b, c = perm(), perm(), perm()
        assert (a * b) * c == a * (b * c)
        assert a * a.inverse() == Permutation.identity(n)
        assert (a * b).inverse() == b.inverse() * a.inverse()

    @pytest.mark.parametrize("degree", [0, 1])
    def test_degrees_zero_and_one(self, degree):
        # itemgetter gives a bare item for one index and refuses none, so the
        # compose kernel must still return tuples at these degrees
        e = parse_cycles("", degree)
        assert e.images == tuple(range(1, degree + 1))
        for p in (compose_right(e, e), e * e, e.inverse(), e**0, e**7, e**-3):
            assert p == e and type(p.images) is tuple and p.is_identity
        group = PermGroup([e])
        assert group.order() == 1 and group.is_member(e)
        assert group.base() == [] and group.strong_generators() == []
        assert group.order_exceeds(0) and not group.order_exceeds(1)

    def test_pow_matches_iteration(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_perm(rng, 9)
            acc = Permutation.identity(9)
            for k in range(6):
                assert p**k == acc
                assert p**-k == acc.inverse()
                acc = acc * p


class TestOrderAndCycleType:
    def test_gallery_x(self):
        p = parse_cycles(SIGMA0_36, 36)
        assert (p.order(), p.cycle_type()) == (6, [6] + [3] * 10)

    def test_gallery_y(self):
        p = parse_cycles(SIGMA1_36, 36)
        assert (p.order(), p.cycle_type()) == (12, [12] + [2] * 12)

    def test_identity(self):
        p = Permutation.identity(5)
        assert (p.order(), p.cycle_type()) == (1, [1] * 5)

    def test_against_the_cycles(self):
        # order, cycle type and parity read one walk of the cycle lengths;
        # the reference is built from the 1-based cycle tuples
        rng = random.Random(3903)
        perms_ = [Permutation([]), Permutation([1]), Permutation([2, 1])]
        perms_ += [random_perm(rng, n) for n in (1, 2, 3, 5, 8, 13, 36, 257) for _ in range(12)]
        perms_ += [Permutation.identity(n) for n in (3, 40)]
        for p in perms_:
            lengths = [len(c) for c in p.cycles()]
            lengths += [1] * (p.degree - sum(lengths))
            assert p.cycle_type() == sorted(lengths, reverse=True)
            assert p.order() == (math.lcm(*lengths) if p.degree else 1)
            assert perms._is_odd(p) == is_odd(p)
        assert [p.order() for p in perms_[:3]] == [1, 1, 2]
        assert [p.cycle_type() for p in perms_[:3]] == [[], [1], [2]]
        assert sorted({perms._is_odd(p) for p in perms_}) == [False, True]

    def test_held_walk_changes_nothing_visible(self):
        # the walk a query fills in is held beside the images; equality,
        # hash, repr, str and pickles agree before and after it is filled
        rng = random.Random(4141)
        for n in (0, 1, 36, 300):
            p = random_perm(rng, n)
            fresh = Permutation(p.images)
            seen = (hash(p), repr(p), str(p), pickle.dumps(p))
            assert p.cycle_type() == fresh.cycle_type()
            assert (hash(p), repr(p), str(p), pickle.dumps(p)) == seen
            assert p == fresh and fresh == p and len({p, fresh}) == 1
            back = pickle.loads(pickle.dumps(p))
            assert back == p and (hash(back), repr(back), str(back)) == seen[:3]
            assert (back.cycle_type(), back.order()) == (p.cycle_type(), p.order())

    def test_order_is_least_power(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_perm(rng, 10)
            order = p.order()
            assert order <= 2520  # lcm bound on 10 points
            acc = Permutation.identity(10)
            for k in range(1, order):
                acc = acc * p
                assert not acc.is_identity
            assert (acc * p).is_identity


class TestPermGroup:
    def test_s3(self):
        g = PermGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
        assert g.order() == 6

    def test_cyclic_24(self):
        y = parse_cycles("(" + ",".join(map(str, range(1, 25))) + ")", 24)
        assert PermGroup([y]).order() == 24

    def test_gallery_order(self):
        g = PermGroup(
            [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        )
        assert g.order() == 42467328 == 2**19 * 3**4

    def test_order_vs_brute_force(self):
        rng = random.Random(23)
        seen = 0
        while seen < 40:
            n = rng.randint(2, 8)
            gens = [random_perm(rng, n) for _ in range(rng.randint(1, 3))]
            if all(g.is_identity for g in gens):
                continue
            bf = brute_force_order(gens)
            if bf > 5040:
                continue
            assert PermGroup(gens).order() == bf
            seen += 1

    def test_determinism(self):
        gens = [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        g1, g2 = PermGroup(gens), PermGroup(gens)
        assert g1.order() == g2.order()
        assert g1.base() == g2.base()
        assert g1.strong_generators() == g2.strong_generators()

    def test_membership(self):
        g = PermGroup([parse_cycles("(1,2)", 3), parse_cycles("(1,2,3)", 3)])
        assert g.is_member(parse_cycles("(1,3,2)", 3))
        h = PermGroup([parse_cycles("(1,2,3)", 3)])
        assert not h.is_member(parse_cycles("(1,2)", 3))

    def test_membership_degree_mismatch(self):
        g = PermGroup([parse_cycles("(1,2)", 3)])
        with pytest.raises(DegreeMismatch):
            g.is_member(Permutation.identity(4))

    def test_membership_random_products(self):
        rng = random.Random(9)
        gens = [random_perm(rng, 7) for _ in range(2)]
        g = PermGroup(gens)
        for _ in range(20):
            w = Permutation.identity(7)
            for _ in range(rng.randint(0, 6)):
                w = w * rng.choice(gens)
            assert g.is_member(w)

    def test_generators_are_the_given_ones(self):
        gens = [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        group = PermGroup(iter(gens))
        assert group.generators == tuple(gens)
        assert group.order() == 42467328 and group.generators == tuple(gens)

    def test_in_against_closure_up_to_degree_256(self):
        rng = random.Random(27)
        for n in (4, 5, 6, 7):
            gens = [random_perm(rng, n) for _ in range(2)]
            group = PermGroup(gens)
            elements = brute_force_closure(gens)
            probes = [random_perm(rng, n) for _ in range(30)] + list(elements)[:10]
            assert [p in group for p in probes] == [p in elements for p in probes]

    def test_in_dihedral_group_above_degree_256(self):
        # D_300 on 300 points: its 600 elements are i -> k + i and i -> k - i
        # mod 300, so the oracle never builds the group
        n = 300
        rotation = Permutation([(i + 1) % n + 1 for i in range(n)])
        reflection = Permutation([(-i) % n + 1 for i in range(n)])
        group = PermGroup([rotation, reflection])

        def dihedral(p):
            k = p.images[0] - 1
            return any(all(v - 1 == (k + s * i) % n for i, v in enumerate(p.images))
                       for s in (1, -1))

        rng = random.Random(300)
        probes = [Permutation([(k + s * i) % n + 1 for i in range(n)])
                  for k, s in zip(rng.sample(range(n), 20), (1, -1) * 10)]
        probes += [random_perm(rng, n) for _ in range(10)]
        probes += [parse_cycles("(1,2)", n), parse_cycles("(1,2,3)", n)]
        outcomes = [p in group for p in probes]
        assert outcomes == [dihedral(p) for p in probes]
        assert outcomes.count(True) == 20 and group.order() == 600

    @pytest.mark.parametrize("n", [12, 300])
    def test_in_certified_giant_by_parity(self, n):
        rng = random.Random(n + 27)
        gens = transitive_pair(rng, n)
        group = PermGroup(gens)
        probes = [random_perm(rng, n) for _ in range(20)] + [parse_cycles("(1,2)", n)]
        outcomes = [p in group for p in probes]
        assert group._giant is not None and group._levels is None  # no chain
        symmetric = any(is_odd(g) for g in gens)
        assert outcomes == [symmetric or not is_odd(p) for p in probes]
        assert outcomes[-1] == symmetric

    def test_empty_domain_is_not_transitive(self):
        group = PermGroup([parse_cycles("", 0)])
        assert not group.is_transitive()
        assert group.order() == 1
        assert PermGroup([parse_cycles("", 1)]).is_transitive()

    def test_transitivity(self):
        cyc36 = parse_cycles("(" + ",".join(map(str, range(1, 37))) + ")", 36)
        assert PermGroup([cyc36]).is_transitive()
        assert not PermGroup([parse_cycles("(1,2)", 3)]).is_transitive()
        pair = PermGroup(
            [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        )
        assert pair.is_transitive()

    def test_order_exceeds(self):
        g = PermGroup([parse_cycles("(1,2)", 5), parse_cycles("(1,2,3,4,5)", 5)])
        assert g.order_exceeds(100)
        assert not g.order_exceeds(120)

    def test_degree_cap(self, monkeypatch):
        monkeypatch.setattr(perms, "MAX_DEGREE", 50)
        with pytest.raises(ResourceLimit):
            PermGroup([Permutation.identity(100)])

    def test_long_chain_leaves_recursion_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the recursion limit is process-wide state")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        cycle = Permutation(list(range(2, 241)) + [1])
        assert PermGroup([cycle]).order() == 240
        swaps = []
        for k in range(20):
            images = list(range(1, 241))
            images[6 * k], images[6 * k + 1] = images[6 * k + 1], images[6 * k]
            swaps.append(Permutation(images))
        group = PermGroup(swaps)
        assert group.order() == 2**20 and len(group.base()) == 20

    def test_transversal_cap(self, monkeypatch):
        monkeypatch.setattr(perms, "MAX_TRANSVERSAL_BYTES", 100)
        gens = [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        g = PermGroup(gens)
        with pytest.raises(ResourceLimit):
            g.order()

    def test_transversal_cap_refuses_while_the_orbit_grows(self, monkeypatch):
        # the cap allows 2^20 / (16 * 2000) = 32 entries of the cycle's
        # 2000-point orbit; each entry costs two products, so a check made
        # only once the orbit is complete would take about 4000
        monkeypatch.setattr(perms, "MAX_TRANSVERSAL_BYTES", 1 << 20)
        n = 2000
        group = PermGroup([parse_cycles(f"({','.join(map(str, range(1, n + 1)))})", n),
                           parse_cycles("()", n)])
        assert group._giant is None  # its products are made before the count
        calls = []
        mul = perms._mul
        monkeypatch.setattr(perms, "_mul", lambda a, b: calls.append(1) or mul(a, b))
        with pytest.raises(ResourceLimit) as exc:
            group.order()
        assert str(exc.value) == (
            "transversal storage ~1056000 bytes exceeds cap 1048576")
        assert len(calls) <= 2 * 32

    def test_transversal_cap_refuses_while_the_orbit_grows_on_tables(self, monkeypatch):
        # the same at degree 200, whose chain composes tables: the cap allows
        # 102400 / (16 * 200) = 32 entries of the 200-point orbit
        monkeypatch.setattr(perms, "MAX_TRANSVERSAL_BYTES", 32 * 16 * 200)
        n = 200
        group = PermGroup([parse_cycles(f"({','.join(map(str, range(1, n + 1)))})", n),
                           parse_cycles("()", n)])
        assert group._giant is None
        calls = []
        kernel = perms._kernel

        def counting(degree):
            mul, inv, identity = kernel(degree)
            assert type(identity) is bytes
            return (lambda a, b: calls.append(1) or mul(a, b)), inv, identity

        monkeypatch.setattr(perms, "_kernel", counting)
        with pytest.raises(ResourceLimit) as exc:
            group.order()
        assert str(exc.value) == (
            "transversal storage ~105600 bytes exceeds cap 102400")
        assert 0 < len(calls) <= 2 * 32

    def test_refused_build_starts_afresh(self, monkeypatch):
        # a cap hit while a stopped build resumes leaves half-extended
        # levels; resumed from those, this A_7 would report order 2100, so
        # the next query starts afresh
        gens = [parse_cycles(c, 7) for c in ("(1,6,5,7,2)", "(1,2)(5,6)", "(1,4,2,7,3,5,6)")]
        group = PermGroup(gens)
        assert group.order_exceeds(2)
        monkeypatch.setattr(perms, "MAX_TRANSVERSAL_BYTES", 23 * 16 * 7)
        with pytest.raises(ResourceLimit):
            group.order()
        monkeypatch.setattr(perms, "MAX_TRANSVERSAL_BYTES", 1 << 30)
        assert group.order() == 2520
        assert chain_digest(group) == chain_digest(PermGroup(gens))

    def test_witness_image_is_member(self):
        # the gallery witness evaluates to the identity in the first action,
        # so membership must hold trivially
        from dessinkit.models import gallery_dessin, witness_word

        d = gallery_dessin(1)
        value = d.evaluate(witness_word())
        assert value.is_identity
        assert d.cartographic_group.is_member(value)

    def test_strong_generators_are_members(self):
        rng = random.Random(31)
        gens = [random_perm(rng, 8) for _ in range(2)]
        g = PermGroup(gens)
        reference = PermGroup(gens)  # fresh chain, same group
        for s in g.strong_generators():
            assert reference.is_member(s)


def projective_line(q, fn):
    """The permutation x -> fn(x) of the projective line over a field with
    q elements 0..q-1; point k+1 is k and point q+1 is infinity (None)."""
    images = []
    for x in list(range(q)) + [None]:
        y = fn(x)
        images.append(q + 1 if y is None else y + 1)
    return Permutation(images)


def psl_or_pgl(q, scalar):
    """x -> x+1, x -> scalar*x and x -> -1/x over GF(q), q prime: PSL(2, q)
    for a square scalar, PGL(2, q) otherwise."""
    return [
        projective_line(q, lambda x: None if x is None else (x + 1) % q),
        projective_line(q, lambda x: None if x is None else scalar * x % q),
        projective_line(
            q, lambda x: 0 if x is None else None if x == 0 else -pow(x, -1, q) % q
        ),
    ]


def gf8_mul(a, b):
    # GF(8) = GF(2)[w]/(w^3 + w + 1), elements as 3-bit integers
    r = 0
    for i in range(3):
        if b >> i & 1:
            r ^= a << i
    for i in (4, 3):
        if r >> i & 1:
            r ^= 0b1011 << (i - 3)
    return r


def psl_2_8():
    """PSL(2, 8) on the 9 points of its projective line: x -> x+1, x -> w*x
    and x -> 1/x."""
    def inverse(x):
        if x is None:
            return 0
        if x == 0:
            return None
        return next(y for y in range(1, 8) if gf8_mul(x, y) == 1)

    return [
        projective_line(8, lambda x: None if x is None else x ^ 1),
        projective_line(8, lambda x: None if x is None else gf8_mul(2, x)),
        projective_line(8, inverse),
    ]


M11 = ["(1,2,3,4,5,6,7,8,9,10,11)", "(3,7,11,8)(4,10,5,6)"]
M12 = M11 + ["(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)"]


class TestJordanCertificate:
    """The certified path (order n!/2 or n!, parity membership) against
    independent oracles: exhaustive closure, a forced stabilizer chain and
    known orders of primitive groups that are not giants."""

    def test_exhaustive_closure_at_degree_8(self):
        rng = random.Random(8)
        outcomes = []
        for _ in range(10):
            gens = [random_perm(rng, 8) for _ in range(2)]
            group = PermGroup(gens)
            elements = brute_force_closure(gens)
            assert group.order() == len(elements)
            for _ in range(30):
                p = random_perm(rng, 8)
                assert group.is_member(p) == (p in elements)
            outcomes.append(group._giant)
        # both giants and the chain fallback were exercised
        assert {True, False, None} <= set(outcomes)

    def test_certified_orders_match_a_forced_chain(self, monkeypatch):
        rng = random.Random(40)
        cases = []
        for n in range(8, 41, 2):
            gens = transitive_pair(rng, n)
            group = PermGroup(gens)
            probes = [random_perm(rng, n) for _ in range(10)]
            cases.append((gens, group.order(), [group.is_member(p) for p in probes],
                          probes, group._giant))
        assert sum(case[-1] is not None for case in cases) >= 15
        monkeypatch.setattr(perms, "_JORDAN_TRIES", 0)
        for gens, order, member, probes, _ in cases:
            chain = PermGroup(gens)
            assert chain.order() == order and chain._giant is None
            assert [chain.is_member(p) for p in probes] == member

    @pytest.mark.parametrize("name, gens, order", [
        ("PGL(2,7)", psl_or_pgl(7, 3), 336),
        ("PSL(2,8)", psl_2_8(), 504),
        ("PSL(2,11)", psl_or_pgl(11, 4), 660),
        ("M11", [parse_cycles(c, 11) for c in M11], 7920),
        ("M12", [parse_cycles(c, 12) for c in M12], 95040),
    ])
    def test_primitive_groups_that_are_not_giants(self, name, gens, order):
        # PSL(2,8) holds 7-cycles on 9 points: a prime cycle of length n - 2
        # must not certify a giant
        group = PermGroup(gens)
        assert group.is_transitive()
        assert group._giant is None
        assert group.order() == order, name
        if order < 10_000:
            assert brute_force_order(gens) == order, name

    def test_intransitive_group_with_a_long_prime_cycle(self):
        group = PermGroup([parse_cycles("(1,2,3,4,5)", 8), parse_cycles("(6,7,8)", 8)])
        assert group._giant is None and group.order() == 15

    def test_gallery_group_is_left_to_the_chain(self):
        from dessinkit.dessins import genus_of, regular_descriptor
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        reg = regular_descriptor(d)
        assert d.cartographic_group._giant is None
        assert reg.group_order == 42467328 and reg.genus == 14155777
        assert reg.euler_characteristic == -28311552 and genus_of(d) == 1

    def test_chain_of_a_certified_giant(self):
        rng = random.Random(12)
        gens = transitive_pair(rng, 12)
        group = PermGroup(gens)
        assert group._giant is not None
        order = group.order()
        fresh = PermGroup(gens)
        assert group.base() == fresh.base()
        assert group.strong_generators() == fresh.strong_generators()
        assert math.prod(len(level.orbit) for level in group._ensure_bsgs()) == order

    @pytest.mark.parametrize("n", [300, 1000])
    def test_large_giants_in_milliseconds(self, n):
        # the chain of a degree-1000 giant would pass the transversal cap
        rng = random.Random(n)
        gens = transitive_pair(rng, n)
        symmetric = any(is_odd(g) for g in gens)
        start = time.perf_counter()
        group = PermGroup(gens)
        order = group.order()
        assert group.order_exceeds(order - 1) and not group.order_exceeds(order)
        probes = [random_perm(rng, n) for _ in range(10)]
        member = [group.is_member(p) for p in probes]
        assert time.perf_counter() - start < 2
        assert order == math.factorial(n) // (1 if symmetric else 2)
        assert member == [symmetric or not is_odd(p) for p in probes]


def wreath_product(k, m):
    """S_k wr S_m on k*m points, block b being {b*k+1, ..., b*k+k}: a
    transposition and a k-cycle in the first block, a cyclic shift of the
    blocks and the swap of the first two blocks."""
    n = k * m
    k_cycle = "(" + ",".join(map(str, range(1, k + 1))) + ")"
    shift = [((p // k + 1) % m) * k + p % k + 1 for p in range(n)]
    swap = [(p // k ^ 1) * k + p % k + 1 if p < 2 * k else p + 1 for p in range(n)]
    return [
        parse_cycles("(1,2)", n),
        parse_cycles(k_cycle, n),
        Permutation(shift),
        Permutation(swap),
    ]


def random_wreath_pair(rng, k, m):
    """Two random elements of S_k wr S_m, relabelled by one random
    permutation, that generate a transitive group: imprimitive, with blocks
    of size k whose points the relabelling hides."""
    n = k * m
    while True:
        pair = []
        for _ in range(2):
            blocks = rng.sample(range(m), m)
            pair.append(Permutation([blocks[b] * k + r + 1
                                     for b in range(m) for r in rng.sample(range(k), k)]))
        pi = random_perm(rng, n)
        pair = [pi.inverse() * g * pi for g in pair]
        if PermGroup(pair).is_transitive():
            return pair


def brute_force_proper_block(gens):
    """The least block holding the 0-based points 0 and 1, None when it is
    the whole domain: the smallest proper set holding both whose images
    under the group, the closure of the set under the generators, are
    pairwise equal or disjoint."""
    n = gens[0].degree
    images = [g._images for g in gens]
    for size in range(2, n):
        for rest in combinations(range(2, n), size - 2):
            block = frozenset((0, 1) + rest)
            seen, frontier = {block}, [block]
            while frontier:
                b = frontier.pop()
                for g in images:
                    c = frozenset(g[p] for p in b)
                    if c not in seen:
                        seen.add(c)
                        frontier.append(c)
            if all(a == c or not a & c for a in seen for c in seen):
                return sorted(block)
    return None


class TestBlockTest:
    """The imprimitivity test that ends the Jordan search early, against a
    brute-force block search, and the Jordan certificate with the test and
    without it."""

    @pytest.mark.parametrize("name, gens, block", [
        ("PGL(2,7)", psl_or_pgl(7, 3), None),
        ("PSL(2,8)", psl_2_8(), None),
        ("C_7", [parse_cycles("(1,2,3,4,5,6,7)", 7)], None),
        ("S_2 wr S_4", wreath_product(2, 4), [0, 1]),
        ("S_4 wr S_2", wreath_product(4, 2), [0, 1, 2, 3]),
        ("S_3 wr S_3", wreath_product(3, 3), [0, 1, 2]),
        ("C_3 x C_3", [parse_cycles("(1,4,7)(2,5,8)(3,6,9)", 9),
                       parse_cycles("(1,2,3)(4,5,6)(7,8,9)", 9)], [0, 1, 2]),
        # imprimitive, but 0 and 1 lie in no proper block together
        ("C_9", [parse_cycles("(1,2,3,4,5,6,7,8,9)", 9)], None),
        ("D_4 on a square", [parse_cycles("(1,2,3,4)", 4), parse_cycles("(2,4)", 4)], None),
        ("C_2", [parse_cycles("(1,2)", 2)], None),
    ])
    def test_known_groups(self, name, gens, block):
        assert PermGroup(gens).is_transitive()
        images = [g._images for g in gens]
        assert perms._proper_block(images, gens[0].degree) == block, name
        assert brute_force_proper_block(gens) == block, name

    def test_seeded_groups_against_brute_force(self):
        rng = random.Random(2405)
        cases = [transitive_pair(rng, n) for n in range(2, 10) for _ in range(6)]
        for k, m in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)]:
            cases += [random_wreath_pair(rng, k, m) for _ in range(8)]
        blocks = []
        for gens in cases:
            block = brute_force_proper_block(gens)
            assert perms._proper_block([g._images for g in gens], gens[0].degree) == block
            blocks.append(block)
        # proper blocks of every size from 2 to 4, beside whole domains
        assert {len(block) for block in blocks if block} == {2, 3, 4}
        assert blocks.count(None) > 50

    def test_relabelled_wreath_products_with_large_blocks(self):
        # blocks of up to 18 points, so that the union-find walks long paths;
        # 0 and 1 are placed in the last block, whose image is the answer
        rng = random.Random(2418)
        for k in range(2, 19):
            for m in range(2, 5):
                n = k * m
                for _ in range(3):
                    first = rng.sample(range(n - k, n), 2)
                    order = first + rng.sample([p for p in range(n) if p not in first], n - 2)
                    images = [0] * n
                    for new, old in enumerate(order):
                        images[old] = new + 1
                    pi = Permutation(images)
                    gens = [pi.inverse() * g * pi for g in wreath_product(k, m)]
                    block = sorted(images[old] - 1 for old in range(n - k, n))
                    assert perms._proper_block([g._images for g in gens], n) == block, (k, m)

    def test_jordan_search_is_unchanged_without_the_block_test(self, monkeypatch):
        from dessinkit.models import gallery_dessin

        rng = random.Random(2440)
        gallery = [[d.sigma0, d.sigma1] for d in map(gallery_dessin, range(1, 7))]
        cases = list(gallery)
        for n in range(8, 41):
            cases += [transitive_pair(rng, n) for _ in range(2)]
            k = next((k for k in range(2, n) if n % k == 0), None)
            if k is not None:
                cases += [random_wreath_pair(rng, k, n // k),
                          random_wreath_pair(rng, n // k, k)]
        tests, products = [], []
        block_test, long_cycle = perms._proper_block, perms._long_cycle

        def counting_test(*args):
            tests.append(block_test(*args))
            return tests[-1]

        def counting_cycle(a):
            products.append(None)
            return long_cycle(a)

        monkeypatch.setattr(perms, "_proper_block", counting_test)
        monkeypatch.setattr(perms, "_long_cycle", counting_cycle)
        for gens in gallery:  # each gallery group has 0 and 1 in a block of 12
            products.clear()
            assert PermGroup(gens)._giant is None and len(products) == 8
        tests.clear()
        with_test = [PermGroup(gens)._giant for gens in cases]
        found = [block for block in tests if block is not None]
        assert len(tests) >= 60 and len(found) >= 15
        assert {True, False, None} <= set(with_test)
        monkeypatch.setattr(perms, "_BLOCK_TEST_AFTER", None)
        tests.clear()
        assert [PermGroup(gens)._giant for gens in cases] == with_test
        assert not tests


def assert_chain_is_complete(group):
    """The finished chain against its definition: every transversal entry
    maps the base point to its key, every level's generators fix the earlier
    base points, no Schreier pair is left pending and the orbit is closed
    under every generator, and every
    Schreier generator sifts to the identity through the deeper levels.
    Strong generators and each u^-1 are the kernel's full right operands,
    the identity past the degree; each u and every product with a right
    operand on its right are the first ``degree`` images."""
    levels = group._ensure_bsgs()
    n = group.degree
    mul, _, table = perms._kernel(n)  # the group's own elements
    ident = table[:n]
    for i, level in enumerate(levels):
        for g in level.gens:
            assert type(g) is type(table) and len(g) == len(table) and g[n:] == table[n:]
            assert all(g[above.point] == above.point for above in levels[:i])
        assert not level.pending and level.closed == len(level.gens)
        for pt, (u, u_inv) in level.orbit.items():
            assert type(u_inv) is type(table) and len(u_inv) == len(table)
            assert u_inv[n:] == table[n:]
            assert u[level.point] == pt and mul(u, u_inv) == ident
            for g in level.gens:
                schreier = mul(mul(u, g), level.orbit[g[pt]][1])
                assert schreier[level.point] == level.point
                assert group._strip(levels, schreier, i + 1, mul)[0] == ident


def chain_digest(group):
    """The order, then per level the base point, the strong generators and
    the sorted transversal."""
    return [group.order()] + [
        (level.point, level.gens, sorted(level.orbit.items()))
        for level in group._ensure_bsgs()
    ]


def count_sifts(monkeypatch):
    """A list that gains an entry per ``PermGroup._strip`` call."""
    calls = []
    strip = PermGroup._strip

    def counting(self, *args):
        calls.append(None)
        return strip(self, *args)

    monkeypatch.setattr(PermGroup, "_strip", counting)
    return calls


def count_queued(monkeypatch):
    """A list that gains, per ``PermGroup._extend_orbit`` call, the number of
    Schreier pairs it queued."""
    queued = []
    extend = PermGroup._extend_orbit

    def counting(self, level, *args):
        before = len(level.pending)
        grown = extend(self, level, *args)
        queued.append(len(level.pending) - before)
        return grown

    monkeypatch.setattr(PermGroup, "_extend_orbit", counting)
    return queued


def side_by_side(a, b):
    """a on points 1..n and b on points n+1..n+m."""
    return Permutation(a.images + tuple(v + a.degree for v in b.images))


def diagonal_gens():
    """The generators of the diagonal group, sigma0 and sigma1 of one dessin
    beside those of another on the disjoint union of their edges, for each
    of the 15 pairs of gallery dessins and for gallery dessin 1 beside a
    relabelled copy of itself: chains of degree 72 whose levels hold many
    strong generators."""
    from dessinkit.models import gallery_dessin

    gallery = [(d.sigma0, d.sigma1) for d in map(gallery_dessin, range(1, 7))]
    pi = random_perm(random.Random(3436), 36)
    copy = [pi.inverse() * s * pi for s in gallery[0]]
    pairs = list(combinations(gallery, 2)) + [(gallery[0], copy)]
    return [[side_by_side(x, y) for x, y in zip(*pair)] for pair in pairs]


class TestIncrementalChain:
    """The stabilizer chain, which extends orbits and sifts only new Schreier
    pairs, against exhaustive closure, known orders and its own definition."""

    def test_random_small_groups_against_closure(self, monkeypatch):
        monkeypatch.setattr(perms, "_JORDAN_TRIES", 0)  # the chain answers
        rng = random.Random(2003)
        for _ in range(30):
            n = rng.randint(2, 8)
            gens = [random_perm(rng, n) for _ in range(rng.randint(1, 3))]
            elements = brute_force_closure(gens)
            group = PermGroup(gens)
            assert group.order() == len(elements)
            assert_chain_is_complete(group)
            inside = sorted(elements, key=lambda p: p.images)
            probes = [rng.choice(inside) for _ in range(10)]
            probes += [random_perm(rng, n) for _ in range(20)]
            assert [group.is_member(p) for p in probes] == [p in elements for p in probes]
            order = len(elements)
            assert PermGroup(gens).order_exceeds(order - 1)
            assert not PermGroup(gens).order_exceeds(order)

    @pytest.mark.parametrize("k, m", [
        (2, 15), (3, 10), (5, 6), (6, 5), (4, 9), (6, 6), (12, 3), (2, 24), (8, 6),
    ])
    def test_wreath_products(self, k, m):
        gens = wreath_product(k, m)
        order = math.factorial(k) ** m * math.factorial(m)
        group = PermGroup(gens)
        assert group.is_transitive() and group._giant is None
        assert group.order() == order
        assert_chain_is_complete(group)
        assert PermGroup(gens).order_exceeds(order - 1)
        assert not PermGroup(gens).order_exceeds(order)
        # an odd permutation of one block's points lies in the group; a
        # transposition across two blocks does not
        assert group.is_member(parse_cycles(f"({k - 1},{k})", k * m))
        assert not group.is_member(parse_cycles(f"({k},{k + 1})", k * m))

    def test_gallery_chain_is_complete(self):
        group = PermGroup([parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)])
        assert group.order() == 42467328
        assert_chain_is_complete(group)

    def test_gallery_chain_sifts_each_pair_once(self, monkeypatch):
        # a count, so it holds on any host: re-sifting every Schreier pair
        # after each new strong generator took 1798 sifts here
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        calls = []
        strip = PermGroup._strip

        def counting(self, *args):
            calls.append(None)
            return strip(self, *args)

        monkeypatch.setattr(PermGroup, "_strip", counting)
        assert PermGroup([d.sigma0, d.sigma1]).order() == 42467328
        assert 0 < len(calls) < 900

    @pytest.mark.parametrize("index, base, sifts", [
        (1, [1, 13, 16, 14, 22, 18, 21, 17, 2, 15, 19, 6, 20, 24, 23, 5, 3, 4], 63),
        (2, [1, 14, 13, 3, 21, 17, 16, 20, 6, 15, 19, 2, 22, 18, 23, 24, 5, 4], 69),
        (3, [1, 14, 13, 4, 17, 15, 16, 18, 6, 21, 19, 20, 22, 2, 3, 23, 5, 24], 72),
        (4, [1, 14, 13, 5, 17, 21, 16, 20, 6, 15, 19, 3, 4, 18, 22, 2, 23, 24], 80),
        (5, [1, 14, 13, 6, 15, 19, 18, 16, 22, 20, 23, 4, 5, 17, 21, 2, 24, 3], 71),
        (6, [1, 14, 13, 16, 17, 15, 20, 21, 6, 19, 23, 22, 18, 5, 24, 2, 4, 3], 66),
    ])
    def test_gallery_chain_is_pinned(self, monkeypatch, index, base, sifts):
        # chains are bit-reproducible: the same base points in the same order
        # and the same number of sifts on every host and every run
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(index)
        calls = []
        strip = PermGroup._strip

        def counting(self, *args):
            calls.append(None)
            return strip(self, *args)

        monkeypatch.setattr(PermGroup, "_strip", counting)
        group = PermGroup([d.sigma0, d.sigma1])
        assert group.order() == 42467328
        assert group.base() == base
        assert len(calls) == sifts

    @pytest.mark.parametrize("index, queued", [
        (1, 261), (2, 254), (3, 254), (4, 254), (5, 264), (6, 254),
    ])
    def test_gallery_chain_queues_pinned_pairs(self, monkeypatch, index, queued):
        # queuing every Schreier pair met took 444/438/438/438/450/438 here;
        # tree edges and base pairs held below are left out, and the chain
        # and its sifts are those pinned above
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(index)
        pairs = count_queued(monkeypatch)
        assert PermGroup([d.sigma0, d.sigma1]).order() == 42467328
        assert sum(pairs) == queued

    @pytest.mark.parametrize("index, calls, idle", [
        (1, 143, 123), (2, 142, 124), (3, 142, 124), (4, 142, 124), (5, 144, 126), (6, 142, 124),
    ])
    def test_gallery_chain_extensions_that_add_no_point(self, monkeypatch, index, calls, idle):
        # most orbit extensions only queue the pairs of a new generator;
        # those add no point, and work out no room under the cap
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(index)
        grown = []
        extend = PermGroup._extend_orbit

        def counting(self, *args):
            grown.append(extend(self, *args))
            return grown[-1]

        monkeypatch.setattr(PermGroup, "_extend_orbit", counting)
        assert PermGroup([d.sigma0, d.sigma1]).order() == 42467328
        assert (len(grown), grown.count(0)) == (calls, idle)

    def test_transversal_cap_fires_at_pinned_entries(self, monkeypatch):
        # gallery dessin 1's chain stores 78 transversal entries on 18
        # levels, 36 of them on the first.  Under a cap of k entries of
        # 2 * 36 * 8 bytes, the refusal names the entries the chain would
        # hold with the point it refused; past 36 the cap fires on deeper
        # levels, where a new level's base point is stored before its orbit
        # is extended, so some counts are skipped
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        per_point = 2 * 36 * 8
        refused = []
        for entries in range(1, 80):
            monkeypatch.setattr(perms, "MAX_TRANSVERSAL_BYTES", per_point * entries)
            try:
                PermGroup([d.sigma0, d.sigma1]).order()
            except ResourceLimit as exc:
                text = f" bytes exceeds cap {per_point * entries}"
                stored = str(exc).removeprefix("transversal storage ~").removesuffix(text)
                refused.append(int(stored) // per_point)
                assert int(stored) % per_point == 0
            else:
                refused.append(None)
        assert refused == list(range(2, 37)) + [
            38, 38, 39, 41, 41, 42, 43, 44, 45, 47, 47, 49, 49, 51, 51, 52, 53, 54, 56,
            56, 58, 58, 60, 60, 62, 62, 64, 64, 66, 66, 68, 68, 70, 70, 72, 72, 74, 74,
            76, 76, 78, 78, None, None]

    def test_queue_holds_no_pair_known_to_be_skipped(self, monkeypatch):
        # after every orbit extension, no pending pair on any level is an
        # edge of its Schreier tree (the pair that made an entry, the first
        # in visit order to reach a new point), and no pair just queued is
        # (base point, g) with g a strong generator of the next level.  A
        # level's first extension comes right after it is made, so the levels
        # seen, in order, are the chain's, and the set of the next level's
        # generators is the one passed in
        from dessinkit.models import gallery_dessin

        monkeypatch.setattr(perms, "_JORDAN_TRIES", 0)  # the chain answers
        extend = PermGroup._extend_orbit
        seen, tree = [], []

        def checking(self, level, stored, mul, inv, inverses, below):
            if level not in seen:
                seen.append(level)
                tree.append(set())
            k = seen.index(level)
            before, old_points, closed = len(level.pending), len(level.orbit), level.closed
            grown = extend(self, level, stored, mul, inv, inverses, below)
            reached = set(list(level.orbit)[:old_points])
            for idx, a in enumerate(level.orbit):
                for g in level.gens[closed:] if idx < old_points else level.gens:
                    if g[a] not in reached:
                        reached.add(g[a])
                        tree[k].add((a, g))
                        assert mul(level.orbit[a][0], g) == level.orbit[g[a]][0]
            n = self.degree  # below holds the generators' first n images
            held = {g[:n] for g in seen[k + 1].gens} if k + 1 < len(seen) else set()
            assert set(below) == held
            for pt, g in list(level.pending)[before:]:
                assert pt != level.point or g[:n] not in below
            for lvl, edges in zip(seen, tree):
                assert not edges & set(lvl.pending)
            return grown

        monkeypatch.setattr(PermGroup, "_extend_orbit", checking)
        cases = [[d.sigma0, d.sigma1] for d in map(gallery_dessin, range(1, 7))]
        cases += diagonal_gens()
        rng = random.Random(3510)
        for _ in range(40):
            n = rng.randint(2, 12)
            cases.append([random_perm(rng, n) for _ in range(rng.randint(1, 3))])
        for gens in cases:
            seen.clear()
            tree.clear()
            group = PermGroup(gens)
            group.order()
            assert seen == group._levels
            assert sum(map(len, tree)) == sum(len(lvl.orbit) - 1 for lvl in seen)
            assert_chain_is_complete(group)

    def test_concurrent_queries_build_one_chain(self, monkeypatch):
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        builds = []
        build = PermGroup._build

        def counting(self, *args, **kwargs):
            builds.append(None)
            time.sleep(0.05)  # hold the build open while the others arrive
            return build(self, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "_build", counting)
        group = PermGroup([d.sigma0, d.sigma1])
        barrier = threading.Barrier(4)
        orders = []

        def query():
            barrier.wait(timeout=30)
            orders.append(group.order())

        threads = [threading.Thread(target=query) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert orders == [42467328] * 4
        assert len(builds) == 1

    def test_bounded_queries_resume_one_chain(self, monkeypatch):
        # order_exceeds stops the build once the orbit sizes pass its bound;
        # later queries continue that build, so the chain and the number of
        # sifts are those of one fresh order()
        from dessinkit.models import gallery_dessin

        monkeypatch.setattr(perms, "_JORDAN_TRIES", 0)  # the chain answers
        calls = count_sifts(monkeypatch)
        cases = [[d.sigma0, d.sigma1] for d in map(gallery_dessin, range(1, 7))]
        cases += diagonal_gens()
        rng = random.Random(1214)
        for _ in range(40):
            n = rng.randint(3, 20)
            cases.append([random_perm(rng, n) for _ in range(rng.randint(1, 3))])
        for gens in cases:
            fresh = PermGroup(gens)
            calls.clear()
            order = fresh.order()
            sifts = len(calls)
            group = PermGroup(gens)
            calls.clear()
            assert group.order_exceeds(order // 2) and group.order_exceeds(order - 1)
            assert not group.order_exceeds(order)
            assert group.order() == order and len(calls) == sifts
            assert chain_digest(group) == chain_digest(fresh)

    def test_where_a_bounded_build_stops(self):
        # each order_exceeds(b) stops the build once the orbit sizes pass b,
        # right after the orbit extension that passed it and before that
        # level drains its queue; per bound, the level index and each
        # level's (base point, orbit size, generators, queued pairs)
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        group = PermGroup([d.sigma0, d.sigma1])
        pins = {
            10**3: (3, [(0, 36, 2, 35), (12, 3, 2, 0), (15, 6, 2, 2), (13, 2, 1, 1)]),
            10**5: (9, [(0, 36, 2, 33), (12, 6, 4, 4), (15, 6, 7, 0), (13, 2, 7, 0),
                        (21, 2, 6, 0), (17, 2, 5, 0), (20, 2, 4, 0), (16, 2, 3, 0),
                        (1, 2, 2, 0), (14, 2, 1, 1)]),
            10**6: (12, [(0, 36, 2, 32), (12, 6, 5, 0), (15, 6, 9, 3), (13, 2, 10, 0),
                         (21, 2, 9, 0), (17, 2, 8, 0), (20, 2, 7, 0), (16, 2, 6, 0),
                         (1, 2, 5, 0), (14, 2, 4, 0), (18, 2, 3, 0), (5, 2, 2, 0),
                         (19, 2, 1, 1)]),
            5 * 10**6: (14, [(0, 36, 2, 31), (12, 6, 6, 0), (15, 6, 10, 0), (13, 2, 12, 0),
                             (21, 2, 11, 0), (17, 2, 10, 0), (20, 2, 9, 0), (16, 2, 8, 0),
                             (1, 2, 7, 0), (14, 2, 6, 0), (18, 2, 5, 0), (5, 2, 4, 0),
                             (19, 2, 3, 0), (23, 2, 2, 0), (22, 2, 1, 1)]),
            2 * 10**7: (16, [(0, 36, 2, 23), (12, 6, 8, 0), (15, 6, 12, 0), (13, 2, 14, 0),
                             (21, 2, 13, 0), (17, 2, 12, 0), (20, 2, 11, 0), (16, 2, 10, 0),
                             (1, 2, 9, 0), (14, 2, 8, 0), (18, 2, 7, 0), (5, 2, 6, 0),
                             (19, 2, 5, 0), (23, 2, 4, 0), (22, 2, 3, 0), (4, 2, 2, 0),
                             (2, 2, 1, 1)]),
        }
        for bound, pin in pins.items():
            assert group.order_exceeds(bound)
            state = [(lvl.point, len(lvl.orbit), len(lvl.gens), len(lvl.pending))
                     for lvl in group._levels]
            assert (group._level, state) == pin, bound
        assert group.order() == 42467328
        assert chain_digest(group) == chain_digest(PermGroup([d.sigma0, d.sigma1]))

    def test_where_a_fixer_query_stops(self):
        # <(1,2,3), (4,5)>: some nontrivial element fixes 1..m iff m <= 3;
        # the build stops once a level made at a point past m has its orbit
        # extended, before it drains its queue (at the start, when the first
        # level lies past m = 0), and otherwise completes; per m, the
        # answer, the level index and each level's (base point, orbit size)
        gens = [parse_cycles("(1,2,3)", 5), parse_cycles("(4,5)", 5)]
        pins = [
            (True, 0, [(0, 1)]),
            (True, 1, [(0, 3), (3, 2)]),
            (True, 1, [(0, 3), (3, 2)]),
            (True, 1, [(0, 3), (3, 2)]),
            (False, -1, [(0, 3), (3, 2)]),
            (False, -1, [(0, 3), (3, 2)]),
        ]
        for m, pin in enumerate(pins):
            group = PermGroup(gens)
            answer = group._fixer_is_nontrivial(m)
            state = [(lvl.point, len(lvl.orbit)) for lvl in group._levels]
            assert (answer, group._level, state) == pin, m
            assert group.order() == 6 and group._fixer_is_nontrivial(m) == pin[0]
        trivial = PermGroup([Permutation.identity(3)])
        assert not trivial._fixer_is_nontrivial(0) and trivial.order() == 1

    def test_mixed_concurrent_queries_share_one_chain(self, monkeypatch):
        # a bounded query takes the lock first and stops early; the three
        # order() calls waiting behind it finish the same chain
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        fresh = PermGroup([d.sigma0, d.sigma1])
        calls = count_sifts(monkeypatch)
        fresh.order()
        sifts = len(calls)
        calls.clear()
        entered = threading.Event()
        build = PermGroup._build

        def holding(self, *args, **kwargs):
            entered.set()
            time.sleep(0.05)  # hold the build open while the others arrive
            return build(self, *args, **kwargs)

        monkeypatch.setattr(PermGroup, "_build", holding)
        group = PermGroup([d.sigma0, d.sigma1])
        exceeds, orders = [], []

        def bounded():
            exceeds.append(group.order_exceeds(1000))

        def full():
            entered.wait(timeout=30)
            orders.append(group.order())

        threads = [threading.Thread(target=bounded)]
        threads += [threading.Thread(target=full) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert exceeds == [True] and orders == [42467328] * 3
        assert len(calls) == sifts
        assert chain_digest(group) == chain_digest(fresh)


def kernel_free_digest(group):
    """SHA-256 of the order, then per level the base point, the strong
    generators and the sorted transversal, each element as its first
    ``degree`` images, so that chains on tables and on tuples compare."""
    n = group.degree
    digest = hashlib.sha256(repr(group.order()).encode())
    for level in group._ensure_bsgs():
        digest.update(repr((
            level.point,
            [tuple(g[:n]) for g in level.gens],
            sorted((pt, tuple(u[:n]), tuple(u_inv[:n]))
                   for pt, (u, u_inv) in level.orbit.items()),
        )).encode())
    return digest.hexdigest()


def few_point_gens(rng, n):
    """One to three random permutations of a random set of at most 30 of the
    n points: a small chain at any degree."""
    support = rng.sample(range(n), rng.randint(2, 30))
    gens = []
    for _ in range(rng.randint(1, 3)):
        moved = rng.sample(support, rng.randint(2, len(support)))
        images = list(range(1, n + 1))
        for a, b in zip(moved, rng.sample(moved, len(moved))):
            images[a] = b + 1
        gens.append(Permutation(images))
    return gens


class TestChainKernel:
    """The table kernel against the tuple kernel, and chains that are the
    same whatever the elements are stored as: digests recorded when every
    chain composed 0-based tuples."""

    def test_tables_match_tuples_at_every_degree(self):
        rng = random.Random(256)
        for n in range(1, 258):
            mul, inv, identity = perms._kernel(n)
            assert type(identity) is (bytes if n <= 256 else tuple)
            assert tuple(identity[:n]) == tuple(range(n))
            for _ in range(3):
                # a fixes its first k points, so the first moved point varies
                k = rng.randrange(n)
                a = tuple(range(k)) + tuple(k + v for v in random_perm(rng, n - k)._images)
                b = random_perm(rng, n)._images
                ta, tb = perms._chain_element(a), perms._chain_element(b)
                assert type(ta) is type(identity) and len(ta) == len(identity)
                assert tuple(ta[:n]) == a and ta[n:] == identity[n:]
                product = mul(ta, tb)
                assert tuple(product[:n]) == perms._mul(a, b)
                assert product[n:] == identity[n:]
                inverse = inv(ta)
                assert tuple(inverse[:n]) == perms._inv(a)
                assert mul(ta, inverse) == mul(inverse, ta) == identity
                assert mul(ta, identity) == mul(identity, ta) == ta
                if a != tuple(range(n)):
                    assert perms._first_moved(ta) == perms._first_moved(a) >= k

    @pytest.mark.parametrize("index, digest", [
        (1, "9e66f13c6cb79a57"),
        (2, "be18ece5ebdeb667"),
        (3, "9a962a8554164342"),
        (4, "d630f3cc6156ea6f"),
        (5, "3c57fc568ab43134"),
        (6, "893418ba90fecfe2"),
    ])
    def test_gallery_chain_digests_are_pinned(self, index, digest):
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(index)
        assert kernel_free_digest(PermGroup([d.sigma0, d.sigma1]))[:16] == digest

    def test_diagonal_chain_digests_are_pinned(self):
        # recorded before the build skipped Schreier generators that are
        # strong generators of the level below, which changes no chain
        digests = [
            "cc4fffca3dd4ee28", "2e4c4d94ca9495a3", "74f177060830a945",
            "aaaa1e190156e1c8", "cec092ce4a9fc40f", "c80dfa7265d1329a",
            "ee4fd977a9b98fec", "dcfa91311d0bacc6", "8b3041f46579158d",
            "48779af1904a7c2a", "b136e2631795a150", "1f3524c722acbcc8",
            "e9ae2952646451e2", "2a347b8fdd97dcae", "0eff4bebd2459f40",
            "92a924b910bd74bb",
        ]
        groups = [PermGroup(gens) for gens in diagonal_gens()]
        assert [kernel_free_digest(g)[:16] for g in groups] == digests
        for group in groups:
            assert_chain_is_complete(group)

    def test_seeded_chain_digests_are_pinned(self, monkeypatch):
        monkeypatch.setattr(perms, "_JORDAN_TRIES", 0)  # the chain answers
        rng = random.Random(2203)
        small = hashlib.sha256()
        for n in range(3, 41):
            gens = [random_perm(rng, n) for _ in range(rng.randint(1, 3))]
            small.update(kernel_free_digest(PermGroup(gens)).encode())
        rng = random.Random(2256)
        border = hashlib.sha256()
        for n in range(250, 261):  # both sides of the largest table degree
            cyclic = PermGroup([random_perm(rng, n)])
            border.update(kernel_free_digest(cyclic).encode())
            border.update(kernel_free_digest(PermGroup(few_point_gens(rng, n))).encode())
        assert small.hexdigest()[:16] == "58ed7bf1448387fc"
        assert border.hexdigest()[:16] == "cf4686ce4e6a9e0f"

    def test_tables_and_tuples_give_one_chain(self, monkeypatch):
        # each group built twice: in the kernel of its degree, and with every
        # degree in the tuple kernel, the one the pinned digests were recorded
        # on.  The bounded builds resume one another, and membership sifts
        # products of the generators and permutations mostly outside
        from dessinkit.models import gallery_dessin

        monkeypatch.setattr(perms, "_JORDAN_TRIES", 0)  # the chain answers
        rng = random.Random(4343)
        cases = [[random_perm(rng, n) for _ in range(rng.randint(1, 3))] for n in range(2, 41)]
        cases += [few_point_gens(rng, n) for n in (255, 256, 257)]
        cases += [[d.sigma0, d.sigma1] for d in map(gallery_dessin, range(1, 7))]
        cases += diagonal_gens()
        bounds = (1, 60, 5000, 10**6, 10**9)

        def answers(gens, probes):
            group = PermGroup(gens)
            exceeds = [group.order_exceeds(b) for b in bounds]
            return (exceeds, kernel_free_digest(group), group.base(), group.order(),
                    [group.is_member(p) for p in probes])

        verdicts = set()
        for gens in cases:
            n = gens[0].degree
            inside = [math.prod(rng.choices(gens, k=7), start=Permutation.identity(n))
                      for _ in range(3)]
            probes = inside + [random_perm(rng, n) for _ in range(3)]
            tables = answers(gens, probes)
            with monkeypatch.context() as m:
                m.setattr(perms, "_TABLE_DEGREE", 0)
                assert answers(gens, probes) == tables
            assert tables[4][:3] == [True] * 3
            verdicts.update(tables[4][3:])
        assert verdicts == {True, False}

    def test_left_operands_are_held_at_the_degree(self):
        # after a build on tables each u is the gallery's 36 images, and each
        # strong generator and u^-1 is a full table
        from dessinkit.models import gallery_dessin

        d = gallery_dessin(1)
        group = PermGroup([d.sigma0, d.sigma1])
        assert group.order() == 42467328
        for level in group._levels:
            assert {len(g) for g in level.gens} == {256}
            assert {len(u) for u, _ in level.orbit.values()} == {36}
            assert {len(u_inv) for _, u_inv in level.orbit.values()} == {256}
            assert {len(g) for g in level.held} == {36}


class TestErrorMessages:
    """The class and message of each raise site no other test reaches."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: Permutation([2, 2]), RepeatedPoint, "image 2 occurs twice"),
        (lambda: Permutation([0]), PointOutOfRange, "image 0 outside 1..1"),
        (lambda: Permutation([1]).apply(2), PointOutOfRange, "point 2 outside 1..1"),
        (lambda: parse_cycles("", -1), ParseError, "degree must be nonnegative"),
        (lambda: PermGroup([]), OutOfRange, "at least one generator is required"),
        (lambda: PermGroup([Permutation([1]), Permutation([2, 1])]),
         DegreeMismatch, "generators have mixed degrees"),
        (lambda: PermGroup([Permutation([2, 1])]).orbit(3),
         PointOutOfRange, "point 3 outside 1..2"),
    ], ids=["repeated image", "image 0", "apply past the degree", "negative degree",
            "no generators", "mixed degrees", "orbit past the degree"])
    def test_class_and_message(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert exc.type is error and str(exc.value) == message
