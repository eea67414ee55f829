"""Gallery data, local action models, word builders, and 2-adic checks."""

import collections
import random
from fractions import Fraction as F

import pytest

from dessinkit import models, perms
from dessinkit.belyi import RatPoly, parse_poly
from dessinkit.cli import run_cli
from dessinkit._exact import v2
from dessinkit.errors import (
    BadShape,
    HypothesisFailed,
    OutOfRange,
    ResourceLimit,
    SizeGuard,
)
from dessinkit.models import (
    GALLERY_SIZE,
    TwoAdicInstance,
    build_mu0,
    build_mu_omega,
    commutes_with_y2,
    delta_tilde_check,
    expected_witness_value,
    gallery_dessin,
    gallery_text,
    local_model_24,
    local_model_8p,
    two_adic_verify,
    witness_word,
)
from dessinkit.perms import parse_cycles
from dessinkit.words import FreeWord, parse_word


class TestGallery:
    def test_all_transitive_degree_36(self):
        for k in range(1, GALLERY_SIZE + 1):
            d = gallery_dessin(k)
            assert d.degree == 36
            assert d.cartographic_group.is_transitive()

    def test_shared_sigma0_byte_level(self):
        lines = [
            next(l for l in gallery_text(k).splitlines() if l.startswith("sigma0"))
            for k in range(1, GALLERY_SIZE + 1)
        ]
        assert len(set(lines)) == 1

    def test_pairwise_distinct_sigma1(self):
        sigmas = [gallery_dessin(k).sigma1 for k in range(1, GALLERY_SIZE + 1)]
        assert len({str(s) for s in sigmas}) == GALLERY_SIZE

    def test_out_of_range(self):
        for k in (0, 7, -1):
            with pytest.raises(OutOfRange):
                gallery_dessin(k)

    def test_specific_cycles(self):
        assert "(14,15)(16,17)" in gallery_text(1)
        assert "(13,24)" in gallery_text(6) and "(25,36)" in gallery_text(6)

    def test_witness_values(self):
        w = witness_word()
        for k in range(1, GALLERY_SIZE + 1):
            assert gallery_dessin(k).evaluate(w) == expected_witness_value(k)

    def test_witness_is_identity_only_first(self):
        w = witness_word()
        for k in range(1, GALLERY_SIZE + 1):
            assert gallery_dessin(k).evaluate(w).is_identity == (k == 1)


class TestLocalModel24:
    def test_first_equals_pairing(self):
        model = local_model_24(1)
        assert model.omega == model.s
        assert commutes_with_y2(model)

    def test_commutes_only_first(self):
        for k in range(1, 7):
            assert commutes_with_y2(local_model_24(k)) == (k == 1)

    def test_omega_is_conjugate_of_pairing(self):
        for k in range(1, 7):
            model = local_model_24(k)
            assert model.omega == model.t * model.s * model.t

    def test_point_images(self):
        assert local_model_24(2).omega.apply(4) == 15
        assert local_model_24(4).omega.apply(1) == 14

    def test_traces(self):
        assert local_model_24(2).trace() == (4, 17, 5)
        assert local_model_24(4).trace() == (1, 16, 4)

    def test_out_of_range(self):
        for k in (0, 7):
            with pytest.raises(OutOfRange):
                local_model_24(k)


class TestLocalModel8p:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_plain_commutes_only_first(self, p):
        for k in range(1, 2 * p + 1):
            assert commutes_with_y2(local_model_8p(p, k, "plain")) == (k == 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_j_variant_never_commutes(self, p):
        for k in range(1, 2 * p + 1):
            assert not commutes_with_y2(local_model_8p(p, k, "j"))

    def test_structure(self):
        model = local_model_8p(3, 2)
        assert model.point_count == 24
        assert model.omega == model.t * model.s * model.t

    def test_special_edge_trace(self):
        # second conjugate: B^(omega y^2) = D^y while B^(y^2 omega) = B^y
        p, k = 3, 2
        model = local_model_8p(p, k)
        b, d = 2 * k, 4 * p + 2 * k
        y2 = model.y * model.y
        assert (model.omega * y2).apply(b) == model.y.apply(d)
        assert (y2 * model.omega).apply(b) == model.y.apply(b)

    def test_later_conjugate_trace(self):
        # conjugates k >= 3: A^(omega y^2) = C^(y^3) vs A^(y^2 omega) = A^(y^3)
        p = 5
        for k in range(3, 2 * p + 1):
            model = local_model_8p(p, k)
            a, c = 1, 4 * p + 1
            y2 = model.y * model.y
            y3 = model.y * y2
            assert (model.omega * y2).apply(a) == y3.apply(c)
            assert (y2 * model.omega).apply(a) == y3.apply(a)

    def test_bad_arguments(self):
        with pytest.raises(OutOfRange):
            local_model_8p(4, 1)
        with pytest.raises(OutOfRange):
            local_model_8p(3, 7)
        with pytest.raises(OutOfRange):
            local_model_8p(3, 1, "weird")

    def test_permutations_match_their_cycle_text(self):
        for p in (3, 5, 7, 11, 13):
            n = 8 * p
            y = parse_cycles("(" + ",".join(map(str, range(1, n + 1))) + ")", n)
            s = parse_cycles("".join(f"({i},{i + 1})" for i in range(1, n, 2)), n)
            for k in range(1, 2 * p + 1):
                a, c = 1, 1 + 4 * p
                b, d = a + 2 * k - 1, c + 2 * k - 1
                for variant, t in (("plain", f"({a},{c})({b},{d})"), ("j", f"({b},{d})")):
                    model = local_model_8p(p, k, variant)
                    assert (model.y, model.s) == (y, s)
                    assert model.t == parse_cycles(t, n)

    def test_degree_cap_is_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(perms, "MAX_DEGREE", 16)
        with pytest.raises(ResourceLimit) as exc:
            local_model_8p(3, 1)
        assert str(exc.value) == "8p = 24 edges is above the cap 16"

    def test_degree_cap(self, capsys, monkeypatch):
        def refuse(n):
            raise AssertionError(f"a permutation of degree {n} was allocated")

        monkeypatch.setattr(models, "_full_cycle", refuse)
        code = run_cli(["model", "sec32", "--p", "1000000007", "--k", "1"])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: 8p = 8000000056 edges")


class TestWordBuilders:
    def test_single_block(self):
        assert build_mu0([1]) == parse_word("x^2")

    def test_three_ones(self):
        assert build_mu0([1, 1, 1]) == parse_word("x y x^2 y x")

    def test_mixed(self):
        assert build_mu0([2, 3, 1]) == parse_word("x^2 y^3 x^2 y^3 x^2")

    def test_palindrome(self):
        for blocks in ([1], [1, 2, 3], [2, 1, 4, 1, 2]):
            word = build_mu0(blocks)
            assert word.syllables == tuple(reversed(word.syllables))

    def test_bad_shape(self):
        for bad in ([], [1, 2], [1, 0, 1]):
            with pytest.raises(BadShape):
                build_mu0(bad)

    def test_mu_template(self):
        mu, _ = build_mu_omega([1, 1, 1], 1, 1, 1, 1)
        assert mu == parse_word("(x y x y)(x y x y)(x^2 y x y)(x y x y) x")

    def test_mu_block_exponents(self):
        mu, _ = build_mu_omega([2, 3, 1], 2, 5, 3, 7)
        x_exponents = [e for g, e in mu.syllables if g == "x"]
        # blocks m*r*d1 = 12, n*r*d2 = 45, doubled center 2*m*r*d3 = 12,
        # mirrored, with the hop x^7 between blocks and a bare x^12 suffix
        assert x_exponents == [12, 7, 45, 7, 12, 7, 45, 7, 12]

    def test_omega_shape(self):
        mu, omega = build_mu_omega([1, 1, 1], 1, 1, 1, 2)
        y = parse_word("y")
        x2s = parse_word("x^4")
        assert omega == mu * y * mu.inverse() * x2s * y.inverse() * mu

    def test_omega_y_exponent_matches_mu(self):
        for args in (([1, 1, 1], 1, 1, 1, 1), ([2, 1, 3], 3, 2, 2, 5)):
            mu, omega = build_mu_omega(*args)
            assert omega.exponent_sum("y") == mu.exponent_sum("y")

    def test_no_cancellation_across_core(self):
        # the x^(2s) core must survive free reduction: the adjacent
        # boundary exponents -m r d1 + 2s stay nonzero for these parameters
        for args in (([1, 1, 1], 1, 1, 1, 1), ([1, 2, 1], 2, 3, 1, 4)):
            mu, omega = build_mu_omega(*args)
            m, r, d1, s = args[1], args[3], args[0][0], args[4]
            assert 2 * s != m * r * d1
            assert not omega.is_empty
            # rebuild step by step and confirm no collapse at the junction
            partial = mu * parse_word("y") * mu.inverse()
            merged = partial * FreeWord((("x", 2 * s),))
            assert len(merged) > len(partial) - 2 * s

    def test_mu_rejects_single_block(self):
        with pytest.raises(BadShape):
            build_mu_omega([1], 1, 1, 1, 1)

    def test_prefix_x_counts_match_partial_sums_mod_s(self):
        # every prefix of mu ending in y has x-count congruent, mod s, to a
        # partial sum of the block coefficient sequence (the hop exponents
        # x^s vanish mod s); this is the bridge to the 2-adic partial sums
        d, m, n, r, s = [2, 1, 3], 3, 2, 2, 7
        mu, _ = build_mu_omega(d, m, n, r, s)
        t = len(d)
        coeffs = []
        for i in list(range(1, t)) + [t] + list(range(t - 1, 0, -1)):
            base = (m if i % 2 else n) * r * d[i - 1]
            coeffs.append(2 * base if i == t else base)
        partials = []
        acc = 0
        for c in coeffs[:-1]:
            acc += c
            partials.append(acc % s)
        prefix_counts = []
        count = 0
        for g, e in mu.syllables:
            if g == "x":
                count += abs(e)
            else:
                prefix_counts.append(count % s)
        # prefixes alternate rho_i (before the hop) and rho_i' (after); both
        # reduce to the same partial sum mod s
        assert prefix_counts == [v for v in partials for _ in (0, 1)][: len(prefix_counts)]


class TestDeltaTilde:
    def test_passing_instance(self):
        report = delta_tilde_check([1, 1, 1], 1, 4, 4)
        assert report.ok
        assert report.total == 10
        assert report.partial_sums == (1, 4, 6, 9)

    def test_parity_failure(self):
        report = delta_tilde_check([1, 1, 1], 1, 2, 1)
        assert not report.ok

    def test_total_collision(self):
        report = delta_tilde_check([1, 1, 1], 1, 3, 3)
        assert report.total == 8 and report.modulus == 8
        assert not report.ok

    def test_verdict_by_valuation_is_the_verdict_mod_2k(self):
        rng = random.Random(13)
        for _ in range(300):
            blocks = [rng.randint(1, 40) for _ in range(rng.choice((1, 3, 5)))]
            c = rng.randint(2, 64)
            c0, k = rng.randint(1, c - 1), rng.randint(1, 9)
            report = delta_tilde_check(blocks, c0, c, k)
            sums = report.partial_sums + (report.total,)
            assert report.modulus == 2**k
            assert report.ok == all(v % 2**k for v in sums), (blocks, c0, c, k)

    def test_modulus_over_print_bits_is_not_built(self):
        assert delta_tilde_check([1, 1, 1], 1, 4, models.PRINT_BITS - 1).modulus == (
            2 ** (models.PRINT_BITS - 1))
        for k in (models.PRINT_BITS, 10**21):
            report = delta_tilde_check([1, 1, 1], 1, 4, k)
            assert report.modulus is None and report.ok

    def test_bad_shapes(self):
        with pytest.raises(BadShape):
            delta_tilde_check([1, 1], 1, 4, 4)
        with pytest.raises(OutOfRange):
            delta_tilde_check([1, 1, 1], 5, 4, 4)
        with pytest.raises(OutOfRange):
            delta_tilde_check([1, 1, 1], 1, 4, 0)


def _seeded_two_adic_reports(seed, count):
    """``count`` valid seeded instances, each with its report; about a fifth
    are small enough that the report prints r and s."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        p = rng.choice((3, 5, 7))
        gamma = rng.choice((F(1), F(1), F(2), F(1, 2), F(4, 3)))
        q = F(2 ** rng.randint(1, 3) * rng.choice((1, 3)), rng.choice((1, 1, 3)))
        coeffs = [rng.randint(1, 40)] + [rng.randint(0, 3)
                                         for _ in range(rng.randint(1, 2))]
        coeffs[-1] = coeffs[-1] or 1
        value = RatPoly(coeffs)(gamma ** (2 * p) * q * q)
        c = (value.numerator // value.denominator + rng.randint(1, 9)) * rng.choice((1, 2, 4))
        try:
            inst = TwoAdicInstance(RatPoly(coeffs), c, p, q, gamma)
            found.append((inst, two_adic_verify(inst)))
        except (HypothesisFailed, OutOfRange):
            continue  # alpha <= nu, or beta1 outside (0, 1) at the point
    return found


def _v2_s_from_valuations(inst, report):
    """(v2_s, v2_s_is_exact) derived apart from the stage pair: from the
    2-adic valuations of N = T^T c0^m (c-c0)^n and D = m^m n^n c^T (T = m+n)
    and their odd parts modulo 2^(alpha - nu + 1), as s = (D - N)/gcd(N, D)."""
    m, n, c0, c = report.m, report.n, inst.c0, inst.c
    total = m + n
    v2_n = total * v2(total) + m * v2(c0) + n * v2(c - c0)
    v2_d = m * v2(m) + n * v2(n) + total * v2(c)
    v2_gcd = min(v2_n, v2_d)
    window = inst.alpha - inst.nu + 1
    mod = 1 << window

    def odd_pow(base, exp):
        return pow(base >> v2(base), exp, mod)

    n_odd = odd_pow(total, total) * odd_pow(c0, m) * odd_pow(c - c0, n) % mod
    d_odd = odd_pow(m, m) * odd_pow(n, n) * odd_pow(c, total) % mod
    diff = (d_odd * pow(2, v2_d - v2_gcd, mod)
            - n_odd * pow(2, v2_n - v2_gcd, mod)) % mod
    return (v2(diff), True) if diff else (window, False)


class TestTwoAdic:
    def test_reference_instance(self):
        inst = TwoAdicInstance(RatPoly((1, 1)), 32, 3, 4, 1)
        assert inst.alpha == 4 and inst.nu == 0
        assert inst.point == 16 and (inst.a, inst.b) == (1, 1)
        report = two_adic_verify(inst)
        assert (report.m, report.n) == (17, 15)
        assert report.e == 1 and report.congruences_consistent
        assert report.v2_s >= report.required == 4
        assert report.ok
        assert report.r == 31**15
        assert report.s == 17**17 * 15**15 - 31**15

    def test_reference_oracle_mod_16(self):
        # direct modular computation: 17^17 * 15^15 = 31^15 (mod 16)
        assert pow(17, 17, 16) * pow(15, 15, 16) % 16 == pow(31, 15, 16)

    def test_hypothesis_failed(self):
        # q = 1, gamma = 1: alpha = 0 <= nu
        inst = TwoAdicInstance(RatPoly((1, 1)), 32, 3, 1, 1)
        assert inst.alpha == 0
        with pytest.raises(HypothesisFailed):
            two_adic_verify(inst)

    def test_gamma_candidate_shape(self):
        inst = TwoAdicInstance(RatPoly((1, 1)), 32, 3, 1, F(2**3, 2**5 + 1))
        assert inst.alpha == 18  # 6u for u = 3 at p = 3
        assert inst.b == (2**5 + 1) ** 6 and inst.b % 2 == 1
        assert inst.a == 2**0 or inst.a % 2 == 1

    def test_point_over_the_cap_is_not_built(self, monkeypatch):
        def refuse(self, exponent, *args):
            raise AssertionError(f"power {exponent} computed past the guard")

        monkeypatch.setattr(F, "__pow__", refuse)
        with pytest.raises(SizeGuard, match="more than 4000012 bits at p = 1000003"):
            TwoAdicInstance(RatPoly((3, 1, 1)), 40, 1000003, F(4, 3), F(5, 7))

    def test_beta1_over_the_cap_is_not_evaluated(self, monkeypatch):
        inst = TwoAdicInstance(RatPoly((1, 0, 1)), 32, 3, 4, 1)
        assert inst.beta1(F(1, 3)) == F(10, 288)
        monkeypatch.setattr(RatPoly, "__call__",
                            lambda self, v: pytest.fail("evaluated past the guard"))
        with pytest.raises(SizeGuard) as exc:
            inst.beta1(F(1, 3**1300))
        assert str(exc.value) == (
            "beta1 at a point of 2061 bits needs about 4129 bits, over the cap 4096")

    def test_gamma_one_needs_no_power_bits(self):
        # gamma^(2p) = 1 for any p, so a large prime is no reason to refuse
        inst = TwoAdicInstance(RatPoly((1, 1)), 32, 1000000007, 4, 1)
        assert inst.point == 16 and two_adic_verify(inst).ok

    def test_bad_instances(self):
        with pytest.raises(OutOfRange):
            TwoAdicInstance(parse_poly("X/2 + 1"), 4, 3, 2, 1)
        with pytest.raises(OutOfRange):
            TwoAdicInstance(RatPoly((5, 1)), 4, 3, 2, 1)  # c0 >= c
        with pytest.raises(OutOfRange):
            TwoAdicInstance(RatPoly((1, 1)), 4, 4, 2, 1)

    def test_v2_s_agrees_with_the_valuation_derivation(self):
        cases = _seeded_two_adic_reports(2021, 300)
        near_cap = TwoAdicInstance(RatPoly((1, 1)), 32, 1009, 4, F(2, 3))
        cases.append((near_cap, two_adic_verify(near_cap)))
        for inst, report in cases:
            assert (report.v2_s, report.v2_s_is_exact) == _v2_s_from_valuations(
                inst, report), (inst.poly, inst.c, inst.p, inst.q, inst.gamma)

    def test_v2_s_is_read_off_the_printed_s(self):
        printed = [report for _, report in _seeded_two_adic_reports(2022, 300)
                   if report.s is not None]
        assert len(printed) >= 40
        for report in printed:
            assert report.v2_s == min(v2(report.s), report.required + 1)

    def test_s_vanishes_modulo_the_window(self):
        # the theorem in two_adic_verify's docstring, on s computed exactly
        # as the denominator minus the numerator of B(c0/c) in lowest terms:
        # v2(s) >= alpha - nu + 1 in each case of v2(c0) against v2(c - c0)
        margin0 = TwoAdicInstance(RatPoly((38, 5)), 69, 3, 2, 1)
        cases = [(margin0, two_adic_verify(margin0))]
        cases += [(inst, report) for inst, report in _seeded_two_adic_reports(2023, 120)
                  if report.m + report.n <= 3000]
        margins = collections.defaultdict(list)
        for inst, report in cases:
            m, n, c0, c = report.m, report.n, inst.c0, inst.c
            total = m + n
            value = F(total**total * c0**m * (c - c0)**n, m**m * n**n * c**total)
            s = value.denominator - value.numerator
            side = (v2(c0) > v2(c - c0)) - (v2(c0) < v2(c - c0))
            margins[side].append(v2(s) - (inst.alpha - inst.nu + 1))
            assert not report.v2_s_is_exact and report.ok
        assert sorted(margins) == [-1, 0, 1] and min(map(min, margins.values())) == 0
        assert margins[1][0] == 0  # the least margin, at poly = 5X + 38

    def test_random_valid_instances_never_contradict(self):
        rng = random.Random(71)
        checked = 0
        while checked < 20:
            c0 = rng.randint(1, 30)
            c = c0 + rng.randint(1, 30)
            degree = rng.randint(1, 3)
            coeffs = [c0] + [rng.randint(-5, 5) for _ in range(degree)]
            if coeffs[-1] == 0:
                coeffs[-1] = 1
            u = rng.randint(3, 8)
            odd = 2 * rng.randint(1, 15) + 1
            gamma = F(2**u, odd)
            q = F(2 * rng.randint(1, 7) + 1)
            p = rng.choice((3, 5))
            try:
                inst = TwoAdicInstance(RatPoly(coeffs), c, p, q, gamma)
            except OutOfRange:
                continue
            if inst.alpha <= inst.nu:
                continue
            try:
                report = two_adic_verify(inst)
            except OutOfRange:
                continue  # beta1 landed outside (0, 1): not a valid instance
            assert report.v2_s >= report.required, (coeffs, c, p, q, gamma)
            assert report.congruences_consistent
            checked += 1


class TestErrorMessages:
    """The class and message of each raise site no other test reaches, and
    for those the CLI reaches, exit 2 with the message as the one line on
    stderr."""

    @pytest.mark.parametrize("call, error, message, argv", [
        (lambda: build_mu_omega([1, 1, 1], 0, 1, 1, 1), BadShape,
         "m, n, r, s must be positive", None),
        (lambda: TwoAdicInstance(parse_poly("X+1"), 0, 3, 2, 1), OutOfRange,
         "c must be a positive integer, got 0",
         ["lemma", "two-adic", "--poly", "X+1", "--c", "0", "--p", "3",
          "--q", "2", "--gamma", "1"]),
        (lambda: TwoAdicInstance(parse_poly("X+1"), 3, 3, -4, 1), OutOfRange,
         "q and gamma must be positive",
         ["lemma", "two-adic", "--poly", "X+1", "--c", "3", "--p", "3",
          "--q", "-4", "--gamma", "1"]),
        (lambda: two_adic_verify(TwoAdicInstance(parse_poly("X^2-4*X+1"), 3, 3, 2, 1)),
         OutOfRange, "beta1(0) equals the stage peak; s would vanish",
         ["lemma", "two-adic", "--poly", "X^2-4*X+1", "--c", "3", "--p", "3",
          "--q", "2", "--gamma", "1"]),
    ], ids=["mu omega exponent 0", "two-adic c 0", "two-adic q -4",
            "two-adic peak at 0"])
    def test_class_and_message(self, capsys, call, error, message, argv):
        with pytest.raises(error) as exc:
            call()
        assert exc.type is error and str(exc.value) == message
        if argv:
            assert run_cli(argv) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
