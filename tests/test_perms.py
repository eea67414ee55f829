"""Permutation and group-order tests, with a brute-force closure oracle."""

import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessinkit.errors import (
    Cancelled,
    DegreeMismatch,
    ParseError,
    PointOutOfRange,
    RepeatedPoint,
    ResourceLimit,
)
from dessinkit.perms import (
    CancelToken,
    GroupCaps,
    PermGroup,
    Permutation,
    compose_right,
    order_and_cycle_type,
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


def brute_force_order(gens):
    """Exhaustive closure; usable up to a few thousand elements."""
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
        assert order_and_cycle_type(p) == (6, [6] + [3] * 10)

    def test_gallery_y(self):
        p = parse_cycles(SIGMA1_36, 36)
        assert order_and_cycle_type(p) == (12, [12] + [2] * 12)

    def test_identity(self):
        assert order_and_cycle_type(Permutation.identity(5)) == (1, [1] * 5)

    def test_order_is_least_power(self):
        rng = random.Random(17)
        for _ in range(30):
            p = random_perm(rng, 10)
            order, _ = order_and_cycle_type(p)
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

    def test_degree_cap(self):
        with pytest.raises(ResourceLimit):
            PermGroup(
                [Permutation.identity(100)], caps=GroupCaps(max_degree=50)
            )

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

    def test_transversal_cap(self):
        gens = [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        g = PermGroup(gens, caps=GroupCaps(max_transversal_bytes=100))
        with pytest.raises(ResourceLimit):
            g.order()

    def test_cancellation(self):
        token = CancelToken()
        token.cancel()
        gens = [parse_cycles(SIGMA0_36, 36), parse_cycles(SIGMA1_36, 36)]
        with pytest.raises(Cancelled):
            PermGroup(gens).order(cancel=token)

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
