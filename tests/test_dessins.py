"""Dessin invariants, isomorphism decisions, and witness verdicts."""

import collections
import math
import random
from fractions import Fraction

import pytest

from dessinkit import dessins, perms
from dessinkit.dessins import (
    Dessin,
    Separation,
    closure_difference,
    dessins_isomorphic,
    distinguish_by_witness,
    dump_dessin,
    genus_of,
    load_dessin,
    passport_of,
    regular_closures_isomorphic,
    regular_descriptor,
    witness_verdict,
)
from dessinkit.errors import NonIntegralCharacteristic, NotTransitive, ParseError, ResourceLimit
from dessinkit.models import GALLERY_SIZE, gallery_dessin, witness_word
from dessinkit.perms import Permutation, parse_cycles
from dessinkit.words import parse_word


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def conjugate_dessin(d, pi):
    inv = pi.inverse()
    return Dessin(inv * d.sigma0 * pi, inv * d.sigma1 * pi)


def random_transitive_dessin(rng, n):
    while True:
        s0, s1 = random_perm(rng, n), random_perm(rng, n)
        try:
            return Dessin(s0, s1)
        except NotTransitive:
            continue


def cyclic_cover(rng, m, c):
    """A transitive dessin on m*c edges (e, k), e < m and k mod c, that the
    shift (e, k) -> (e, k + 1) maps to itself: sigma0 and sigma1 take (e, k)
    to (s(e), k + a(e)) for random permutations s and shifts a.  Edge
    (e, k) is numbered e*c + k + 1."""
    while True:
        images = []
        for _ in range(2):
            s = rng.sample(range(m), m)
            shift = [rng.randrange(c) for _ in range(m)]
            images.append([s[e] * c + (k + shift[e]) % c + 1
                           for e in range(m) for k in range(c)])
        try:
            return Dessin(Permutation(images[0]), Permutation(images[1]))
        except NotTransitive:
            continue


def one_fixed_point(rng, n):
    """A transitive dessin of degree n >= 3 whose sigma0 fixes exactly one
    edge; a witness fixes the fixed edges, so such a dessin has one."""
    while True:
        d = random_transitive_dessin(rng, n)
        if d.sigma0.cycle_type().count(1) == 1:
            return d


def least_witness(d1, d2):
    """Brute force: for each image of edge 1 in ascending order, the mapping
    forced from edge 1 along both generators, kept when it is a bijection
    that conjugates both generators of d1 onto those of d2, checked by
    composing; the first one kept has the least image of edge 1."""
    if d1.degree != d2.degree:
        return None
    n = d1.degree
    gens = [(d1.sigma0.images, d2.sigma0.images), (d1.sigma1.images, d2.sigma1.images)]
    for target in range(1, n + 1):
        mapping = {1: target}
        frontier = [1]
        while frontier:
            e = frontier.pop()
            for a, b in gens:
                if a[e - 1] not in mapping:
                    mapping[a[e - 1]] = b[mapping[e] - 1]
                    frontier.append(a[e - 1])
        if len(set(mapping.values())) != n:
            continue
        pi = Permutation([mapping[e] for e in range(1, n + 1)])
        inv = pi.inverse()
        if inv * d1.sigma0 * pi == d2.sigma0 and inv * d1.sigma1 * pi == d2.sigma1:
            return pi
    return None


def count_targets(monkeypatch):
    """A list that gains (pivot, target, found) per ``dessins._forced``
    call, 0-based edges."""
    tried = []
    forced = dessins._forced

    def counting(a0, a1, b0, b1, pivot, target):
        mapping = forced(a0, a1, b0, b1, pivot, target)
        tried.append((pivot, target, mapping is not None))
        return mapping

    monkeypatch.setattr(dessins, "_forced", counting)
    return tried


def trace_face_count(d):
    """Independent face counter: walks sigma0-then-sigma1 orbits pointwise."""
    seen = set()
    faces = 0
    for start in range(1, d.degree + 1):
        if start in seen:
            continue
        faces += 1
        e = start
        while e not in seen:
            seen.add(e)
            e = d.sigma1.apply(d.sigma0.apply(e))
    return faces


ONE_EDGE = "degree 1\nsigma0 = ()\nsigma1 = ()\n"


class TestFileFormat:
    def test_one_edge(self):
        d = load_dessin(ONE_EDGE)
        assert d.degree == 1

    def test_gallery_file(self):
        d = gallery_dessin(1)
        assert d.degree == 36

    def test_not_transitive(self):
        text = "degree 4\nsigma0 = (1,2)\nsigma1 = (3,4)\n"
        with pytest.raises(NotTransitive):
            load_dessin(text)

    def test_degree_cap_checked_before_parsing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("cycles parsed before the degree cap was checked")

        monkeypatch.setattr(dessins, "parse_cycles", refuse)
        with pytest.raises(ResourceLimit, match="degree 10000000000 exceeds cap 100000"):
            load_dessin("degree 10000000000\nsigma0 = ()\nsigma1 = ()\n")
        monkeypatch.setattr(perms, "MAX_DEGREE", 2)
        with pytest.raises(ResourceLimit, match="degree 3 exceeds cap 2"):
            load_dessin(ONE_EDGE.replace("1", "3"))

    def test_non_decimal_degree(self):
        with pytest.raises(ParseError, match="bad degree line"):
            load_dessin("degree \u00b2\nsigma0 = ()\nsigma1 = ()\n")

    def test_comments_and_crlf(self):
        text = "# a comment\r\ndegree 2\r\nsigma0 = (1,2)\r\n# mid\r\nsigma1 = ()\r\n"
        assert load_dessin(text).degree == 2

    def test_key_order_enforced(self):
        text = "degree 2\nsigma1 = (1,2)\nsigma0 = ()\n"
        with pytest.raises(ParseError):
            load_dessin(text)

    def test_missing_line(self):
        with pytest.raises(ParseError):
            load_dessin("degree 2\nsigma0 = (1,2)\n")

    def test_dump_round_trip(self):
        d = gallery_dessin(2)
        again = load_dessin(dump_dessin(d, comment="round trip"))
        assert again == d


class TestPassportAndGenus:
    def test_one_edge(self):
        d = load_dessin(ONE_EDGE)
        p = passport_of(d)
        assert (p.black, p.white, p.faces) == ((1,), (1,), (1,))
        assert genus_of(d) == 0

    def test_gallery_first(self):
        d = gallery_dessin(1)
        p = passport_of(d)
        assert p.black == (6,) + (3,) * 10
        assert p.white == (12,) + (2,) * 12
        assert sum(p.faces) == 36
        assert genus_of(d) == 1

    def test_star_tree(self):
        d = Dessin(parse_cycles("(1,2,3)", 3), Permutation.identity(3))
        p = passport_of(d)
        assert (p.black, p.white, p.faces) == ((3,), (1, 1, 1), (3,))
        assert genus_of(d) == 0

    def test_equal_three_cycles(self):
        # sigma0 = sigma1 = (1,2,3): faces from exact computation (one
        # 3-cycle), giving genus 1 by the Euler formula
        d = Dessin(parse_cycles("(1,2,3)", 3), parse_cycles("(1,2,3)", 3))
        assert trace_face_count(d) == 1
        assert genus_of(d) == 1

    def test_genus_against_face_trace_oracle(self):
        rng = random.Random(19)
        for _ in range(40):
            d = random_transitive_dessin(rng, rng.randint(2, 10))
            b = len(d.sigma0.cycle_type())
            w = len(d.sigma1.cycle_type())
            f = trace_face_count(d)
            assert (b + w + f - d.degree) % 2 == 0
            assert genus_of(d) == 1 - (b + w + f - d.degree) // 2
            assert genus_of(d) >= 0


class TestRegularDescriptor:
    def test_one_edge(self):
        r = regular_descriptor(load_dessin(ONE_EDGE))
        assert (r.group_order, r.ord_x, r.ord_y, r.ord_xy) == (1, 1, 1, 1)
        assert r.euler_characteristic == 2 and r.genus == 0

    def test_two_equal_transpositions(self):
        d = Dessin(parse_cycles("(1,2)", 2), parse_cycles("(1,2)", 2))
        r = regular_descriptor(d)
        assert r.group_order == 2
        assert (r.ord_x, r.ord_y, r.ord_xy) == (2, 2, 1)
        assert r.euler_characteristic == 2 and r.genus == 0

    def test_transitivity_is_worked_out_once(self, monkeypatch):
        # Dessin checks it and the Jordan certificate reads it; both share
        # one orbit of edge 1, for a gallery group and for a giant
        calls = []
        orbit = perms.PermGroup.orbit

        def counted(self, point):
            calls.append(point)
            return orbit(self, point)

        monkeypatch.setattr(perms.PermGroup, "orbit", counted)
        rng = random.Random(3904)
        giant = random_transitive_dessin(rng, 20)
        sigmas = [(g.sigma0, g.sigma1) for g in (gallery_dessin(1), giant)]
        orders = []
        for s0, s1 in sigmas:
            calls.clear()
            orders.append(regular_descriptor(Dessin(s0, s1)).group_order)
            assert calls == [1]
        assert orders[0] == 42467328 and orders[1] in (math.factorial(20), math.factorial(20) // 2)

    def test_chi_matches_the_rational_formula(self):
        # chi = |G| (1/ox + 1/oy + 1/oxy - 1) in Fractions, against the
        # integer identity, on certified giants and chain-built groups
        def rational_chi(d):
            orders = (d.sigma0.order(), d.sigma1.order(), dessins.face_permutation(d).order())
            return d.cartographic_group.order() * (sum(Fraction(1, o) for o in orders) - 1)

        rng = random.Random(4404)
        family = [gallery_dessin(k) for k in range(1, GALLERY_SIZE + 1)]
        for i in range(240):
            if i % 4:
                family.append(random_transitive_dessin(rng, rng.randint(1, 30)))
            else:
                family.append(cyclic_cover(rng, rng.randint(2, 6), rng.randint(2, 5)))
        certified = [d.cartographic_group._giant is not None for d in family]
        assert any(certified) and not all(certified)
        for d in family:
            r = regular_descriptor(d)
            chi = rational_chi(d)
            assert r.euler_characteristic == chi and r.genus == 1 - chi / 2

    @pytest.mark.parametrize("d, wrong", [
        (gallery_dessin(1), 42467328 + 1),
        # orders (6, 12, 12) do not divide it, though chi would be even
        (gallery_dessin(1), 42467328 + 2),
        # PSL(2, 7) of order 168 with orders (2, 3, 7): every order divides
        # 42, but chi = 21 + 14 + 6 - 42 is odd
        (Dessin(parse_cycles("(1,2)(3,4)", 7), parse_cycles("(1,3,5)(2,6,7)", 7)), 42),
    ], ids=["order plus one", "order plus two", "odd chi"])
    def test_inconsistent_order_is_refused(self, monkeypatch, d, wrong):
        # a wrong chain order breaks Lagrange or the parity of chi
        monkeypatch.setattr(perms.PermGroup, "order", lambda self: wrong)
        with pytest.raises(NonIntegralCharacteristic, match=f"= {wrong} "):
            regular_descriptor(d)

    def test_group_order_at_least_degree(self):
        rng = random.Random(29)
        for _ in range(20):
            d = random_transitive_dessin(rng, rng.randint(2, 9))
            assert regular_descriptor(d).group_order >= d.degree


class TestIsomorphism:
    def test_self(self):
        d = gallery_dessin(1)
        pi = dessins_isomorphic(d, d)
        assert pi is not None

    def test_witness_equations(self):
        rng = random.Random(37)
        for _ in range(15):
            d = random_transitive_dessin(rng, 8)
            relabeled = conjugate_dessin(d, random_perm(rng, 8))
            pi = dessins_isomorphic(d, relabeled)
            assert pi is not None
            inv = pi.inverse()
            assert inv * d.sigma0 * pi == relabeled.sigma0
            assert inv * d.sigma1 * pi == relabeled.sigma1

    def test_gallery_pair_not_isomorphic(self):
        assert dessins_isomorphic(gallery_dessin(1), gallery_dessin(2)) is None

    def test_symmetry(self):
        rng = random.Random(41)
        for _ in range(10):
            d1 = random_transitive_dessin(rng, 6)
            d2 = random_transitive_dessin(rng, 6)
            assert (dessins_isomorphic(d1, d2) is None) == (
                dessins_isomorphic(d2, d1) is None
            )

    def test_degree_mismatch_is_absent(self):
        assert (
            dessins_isomorphic(load_dessin(ONE_EDGE), gallery_dessin(1)) is None
        )

    def test_against_brute_force_oracle(self):
        # oracle: build the candidate bijection from generator words and
        # verify the conjugation equations wholesale, for every base image;
        # every witness, in ascending order of the image of edge 1
        def oracle(d1, d2):
            if d1.degree != d2.degree:
                return []
            n = d1.degree
            witnesses = []
            for target in range(1, n + 1):
                mapping = {1: target}
                frontier = [1]
                while frontier:
                    e = frontier.pop()
                    for s_a, s_b in (
                        (d1.sigma0, d2.sigma0),
                        (d1.sigma1, d2.sigma1),
                    ):
                        img = s_a.apply(e)
                        if img not in mapping:
                            mapping[img] = s_b.apply(mapping[e])
                            frontier.append(img)
                if len(set(mapping.values())) != n:
                    continue
                good = all(
                    mapping[d1.sigma0.apply(e)] == d2.sigma0.apply(mapping[e])
                    and mapping[d1.sigma1.apply(e)] == d2.sigma1.apply(mapping[e])
                    for e in range(1, n + 1)
                )
                if good:
                    witnesses.append(Permutation([mapping[e] for e in range(1, n + 1)]))
            return witnesses

        rng = random.Random(43)
        pairs = []
        for _ in range(25):
            n = rng.randint(2, 12)
            d1 = random_transitive_dessin(rng, n)
            if rng.random() < 0.5:
                d2 = conjugate_dessin(d1, random_perm(rng, n))
            else:
                d2 = random_transitive_dessin(rng, n)
            pairs.append((d1, d2))
        # the least target matters where there are several witnesses: gallery
        # dessins with themselves and relabelled, and seeded dessins with
        # automorphisms, relabelled
        gallery = [gallery_dessin(k) for k in range(1, 7)]
        pairs += [(d, d) for d in gallery]
        pairs += [(d, conjugate_dessin(d, random_perm(rng, 36))) for d in gallery]
        pairs += [(gallery[0], gallery[3])]
        for _ in range(20):
            d = cyclic_cover(rng, rng.randint(2, 5), rng.randint(2, 4))
            pairs += [(d, conjugate_dessin(d, random_perm(rng, d.degree))), (d, d)]
        several = 0
        for d1, d2 in pairs:
            witnesses = oracle(d1, d2)
            assert dessins_isomorphic(d1, d2) == (witnesses[0] if witnesses else None)
            several += len(witnesses) > 1
        assert several >= 20

    def test_cycle_lengths_are_taken_once_per_dessin(self, monkeypatch):
        # each permutation holds its walk of the cycles, so the descriptor
        # (cycle types, and the Jordan parity test on a giant) and the
        # isomorphism filter on every ordered pair, three rounds over, walk
        # each permutation at most once: sigma0, sigma1 and the face
        # permutation of each dessin (gallery dessins 1 and 2 have equal
        # sigma0s, two permutations that each hold a walk)
        walked = []
        walk = perms._walk

        def counting(images):
            walked.append(images)  # kept, so that no id is reused
            return walk(images)

        monkeypatch.setattr(perms, "_walk", counting)
        rng = random.Random(3508)
        d = random_transitive_dessin(rng, 9)
        family = [d, conjugate_dessin(d, random_perm(rng, 9)), random_transitive_dessin(rng, 9)]
        family.append(random_transitive_dessin(rng, 20))
        family += [Dessin(g.sigma0, g.sigma1) for g in map(gallery_dessin, (1, 2))]
        rounds = [([regular_descriptor(e) for e in family],
                   [dessins_isomorphic(d1, d2) for d1 in family for d2 in family])
                  for _ in range(3)]
        assert rounds[0] == rounds[1] == rounds[2]
        assert rounds[0][1][1] is not None and rounds[0][1][2] is None
        assert family[3].cartographic_group._giant is not None  # parity was read
        assert len({id(images) for images in walked}) == len(walked) == 3 * len(family)

    @pytest.mark.parametrize("degree", [257, 500, 1000])
    def test_past_the_byte_table_kernel(self, degree):
        # a relabelled copy gives a witness, checked by composing; a dessin
        # whose sigma0 has another cycle type gives None
        rng = random.Random(f"iso {degree}")
        d = random_transitive_dessin(rng, degree)
        copy = conjugate_dessin(d, random_perm(rng, degree))
        pi = dessins_isomorphic(d, copy)
        assert pi is not None
        inv = pi.inverse()
        assert inv * d.sigma0 * pi == copy.sigma0
        assert inv * d.sigma1 * pi == copy.sigma1
        swap = Permutation([2, 1] + list(range(3, degree + 1)))
        other = Dessin(copy.sigma0 * swap, copy.sigma1)
        assert other.sigma0.cycle_type() != d.sigma0.cycle_type()
        assert dessins_isomorphic(d, other) is None
        assert dessins_isomorphic(other, d) is None


    def test_pivot_on_the_rarest_black_length(self, monkeypatch):
        # the pivot is an edge on the sigma0 cycle length that the fewest
        # edges share; where edge 1's length has more, every target is tried
        # and the witness with the least image of edge 1 is returned, the
        # brute-force oracle's first.  Cyclic covers have several witnesses,
        # a dessin whose sigma0 fixes one edge has one
        tried = count_targets(monkeypatch)
        rng = random.Random(4501)
        family = []
        for _ in range(60):
            family.append(cyclic_cover(rng, rng.randint(1, 8), rng.randint(2, 5)))
            family.append(one_fixed_point(rng, rng.randint(3, 40)))
        family += [cyclic_cover(rng, rng.randint(86, 250), rng.choice((3, 4))) for _ in range(4)]
        assert {d.degree for d in family} >= {2, 40}
        assert all(257 <= d.degree <= 1000 for d in family[-4:])
        pivoted = several = past_tables = 0
        for d in family:
            d1, d2 = (conjugate_dessin(d, random_perm(rng, d.degree)) for _ in range(2))
            del tried[:]
            pi = dessins_isomorphic(d1, d2)
            assert pi is not None and pi == least_witness(d1, d2)
            edges = collections.Counter()
            for length in d1.sigma0.cycle_type():
                edges[length] += length
            pivots = {pivot for pivot, _, _ in tried}
            assert len(pivots) == 1
            pivot = pivots.pop()
            assert edges[d1.sigma0._walked()[1][pivot]] == min(edges.values())
            if pivot:
                assert edges[d1.sigma0._walked()[1][0]] > min(edges.values())
                pivoted += 1
                several += sum(found for _, _, found in tried) > 1
                past_tables += d.degree > 256
        assert pivoted >= 20 and several >= 20 and past_tables >= 2

    def test_targets_tried_on_the_gallery(self, monkeypatch):
        # the six gallery dessins under one seeded relabelling: each ordered
        # pair tries at most 4 targets, the edges on a sigma0 6-cycle and a
        # sigma1 cycle of the pivot's length; pinning edge 1, which lies on
        # a 3-cycle here, tried up to 20
        tried = count_targets(monkeypatch)
        pi = random_perm(random.Random(4502), 36)
        gallery = [conjugate_dessin(gallery_dessin(k), pi) for k in range(1, 7)]
        assert gallery[0].sigma0.cycle_type() == [6] + [3] * 10
        assert gallery[0].sigma0._walked()[1][0] == 3
        counts = []
        for d1 in gallery:
            for d2 in gallery:
                del tried[:]
                assert (dessins_isomorphic(d1, d2) is None) == (d1 is not d2)
                counts.append(len(tried))
        assert max(counts) <= 4 and sum(counts) > 0


class TestRegularClosures:
    def test_self(self):
        d = gallery_dessin(1)
        assert regular_closures_isomorphic(d, d)

    def test_gallery_non_isomorphic(self):
        assert not regular_closures_isomorphic(gallery_dessin(1), gallery_dessin(3))

    def test_reason_names_the_failed_step(self):
        d = gallery_dessin(1)
        assert closure_difference(d, d) is None
        assert (closure_difference(d, gallery_dessin(4))
                == "diagonal order exceeds component order")
        assert closure_difference(d, load_dessin(ONE_EDGE)) == "component orders differ"

    def test_component_step_stops_the_larger_chain(self):
        # |G2| > |G1| is settled once G2's orbit sizes pass |G1|: the chain
        # of a fresh G2 is left incomplete, and a later order() finishes it;
        # a smaller G2 is built whole
        d = gallery_dessin(1)
        for index, (a, b), order in [(1, (2, 5), 427972821516288), (2, (25, 13), 10616832)]:
            e = gallery_dessin(index)
            swap = Permutation([b if p == a else a if p == b else p for p in range(1, 37)])
            other = Dessin(e.sigma0, swap * e.sigma1 * swap)
            assert closure_difference(d, other) == "component orders differ"
            group = other.cartographic_group
            assert (group._level >= 0) == (order > 42467328)
            assert group.order() == order
            assert perms.PermGroup([other.sigma0, other.sigma1]).order() == order

    def test_against_exhaustive_closure(self):
        # the orders of G1, G2 and the diagonal group D by breadth-first
        # closure, on seeded dessins of degree at most 9 (random ones up to
        # degree 7, and cyclic covers, whose groups are small), paired with
        # relabelled copies, with dessins of their own degree and with any
        def closure(gens, cap=math.inf):
            """The elements of the group of 0-based image tuples ``gens``,
            or more than ``cap`` of them once the closure passes it."""
            seen = {tuple(range(len(gens[0])))}
            frontier = list(seen)
            while frontier and len(seen) <= cap:
                grown = []
                for a in frontier:
                    for g in gens:
                        b = tuple(map(g.__getitem__, a))
                        if b not in seen:
                            seen.add(b)
                            grown.append(b)
                frontier = grown
            return seen

        def images(d):
            return [tuple(v - 1 for v in s.images) for s in (d.sigma0, d.sigma1)]

        def regular(d):
            """The regular closure of d as a dessin: its group acting on
            itself by right multiplication."""
            elements = sorted(closure(images(d)))
            index = {x: k for k, x in enumerate(elements)}
            return Dessin(*(Permutation([index[tuple(map(s.__getitem__, x))] + 1
                                         for x in elements]) for s in images(d)))

        def oracle(d1, d2):
            order = len(closure(images(d1)))
            if len(closure(images(d2))) != order:
                return "component orders differ"
            shift = d1.degree
            diagonal = [a + tuple(v + shift for v in b) for a, b in zip(images(d1), images(d2))]
            if len(closure(diagonal, order)) > order:
                return "diagonal order exceeds component order"
            return None

        rng = random.Random(4601)
        pool = [random_transitive_dessin(rng, n) for n in range(2, 8) for _ in range(4)]
        pool += [cyclic_cover(rng, m, c) for m, c in [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2),
                                                     (3, 3), (3, 3), (2, 4)]]
        pairs = [(d, conjugate_dessin(d, random_perm(rng, d.degree))) for d in pool]
        for d in pool:
            pairs.append((d, rng.choice([e for e in pool if e.degree == d.degree and e is not d])))
            pairs.append((d, rng.choice(pool)))
        # a dessin beside its own regular closure, of another degree, and
        # beside the closure of a dessin with a group of the same order
        orders = {d: len(closure(images(d))) for d in pool}
        small = [d for d in pool if orders[d] <= 9]
        for d in small:
            e = rng.choice([e for e in small if orders[e] == orders[d]])
            pairs += [(d, regular(d)), (regular(d), d), (d, regular(e)), (regular(e), d)]
        verdicts = collections.Counter()
        for d1, d2 in pairs:
            verdict = oracle(d1, d2)
            assert closure_difference(d1, d2) == verdict, (d1, d2)
            verdicts[verdict] += 1
        assert set(verdicts) == {None, "component orders differ",
                                 "diagonal order exceeds component order"}

    def test_relabelings(self):
        rng = random.Random(47)
        d = random_transitive_dessin(rng, 7)
        relabeled = conjugate_dessin(d, random_perm(rng, 7))
        assert regular_closures_isomorphic(d, relabeled)

    def test_dessin_iso_implies_closure_iso(self):
        rng = random.Random(53)
        for _ in range(10):
            d = random_transitive_dessin(rng, 6)
            other = conjugate_dessin(d, random_perm(rng, 6))
            if dessins_isomorphic(d, other) is not None:
                assert regular_closures_isomorphic(d, other)


class TestWitnessVerdicts:
    def test_kernel_separation_on_gallery(self):
        verdict = distinguish_by_witness(
            gallery_dessin(1), gallery_dessin(2), witness_word()
        )
        assert verdict.separation is Separation.KERNEL
        assert verdict.separates

    def test_no_separation_on_self(self):
        d = gallery_dessin(4)
        verdict = distinguish_by_witness(d, d, witness_word())
        assert verdict.separation is Separation.NONE
        assert not verdict.separates

    def test_commutation_separation_perm_level(self):
        from dessinkit.models import local_model_24

        m1, m2 = local_model_24(1), local_model_24(2)
        y2_1 = m1.y * m1.y
        y2_2 = m2.y * m2.y
        verdict = witness_verdict(
            m1.omega, m2.omega, y2_1, y2_2, v_word=parse_word("y^2")
        )
        assert verdict.separation is Separation.COMMUTATION
        assert str(verdict.commutator_with) == "y^2"

    def test_separation_implies_closures_differ(self):
        w = witness_word()
        for k in range(2, 7):
            verdict = distinguish_by_witness(
                gallery_dessin(1), gallery_dessin(k), w
            )
            if verdict.separates:
                assert not regular_closures_isomorphic(
                    gallery_dessin(1), gallery_dessin(k)
                )
