"""The shared exact toolkit: primality against trial division and the proven
pseudoprime bounds, exact roots, 2-adic valuations, binary powering against
repeated multiplication, the product of integer polynomials (Kronecker or term
by term, as the operand sizes choose) against the schoolbook product, the compact form of big values, the reading of
outside integers and the contiguous-digit integer scan."""

import functools
import math
import operator
import random
import sys
from fractions import Fraction as F

import pytest

from dessinkit import _exact
from dessinkit._exact import (
    Scanner,
    brief,
    decimal,
    int_poly_mul,
    integer_root,
    is_prime,
    power,
    v2,
)
from dessinkit.belyi import RatPoly, parse_poly
from dessinkit.cli import run_cli
from dessinkit.errors import ParseError, ResourceLimit
from dessinkit.perms import Permutation, parse_cycles
from dessinkit.tower import TowerField
from dessinkit.words import FreeWord, parse_word

#: skips a case that needs the interpreter's limit on decimal digits
needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts decimal strings of any length",
)

# least strong pseudoprimes to the first 12 and 13 prime bases (Sorenson and
# Webster, Math. Comp. 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestIsPrime:
    def test_agrees_with_trial_division_below_1e5(self):
        for n in range(-3, 10**5):
            assert is_prime(n) == _trial_division(n), n

    def test_psi12_is_composite(self):
        # a strong pseudoprime to every base 2..37; base 41 exposes it
        assert PSI_12 == 399165290221 * 798330580441
        assert not is_prime(PSI_12)

    def test_psi13_is_not_guessed_prime(self):
        # passes all 13 bases, which decide primality only below it
        with pytest.raises(ResourceLimit):
            is_prime(PSI_13)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)
        assert is_prime(10**18 + 9)
        assert not is_prime(1000000007 * 998244353)
        assert not is_prime(10**400 + 1)  # composite verdicts have no bound
        with pytest.raises(ResourceLimit):
            is_prime(2**127 - 1)


class TestIntegerToolkit:
    def test_integer_root(self):
        assert integer_root(3**40, 40) == 3
        assert integer_root(3**40 + 1, 40) is None
        assert integer_root(0, 7) == 0 and integer_root(1, 10**30) == 1
        # a huge exponent is decided from the bit length alone
        assert integer_root(2, 10**18 + 9) is None
        with pytest.raises(ValueError):
            integer_root(-8, 3)

    def test_v2(self):
        assert [v2(x) for x in (1, 2, 12, -48, 2**300)] == [0, 1, 2, 4, 300]
        with pytest.raises(ValueError):
            v2(0)

    def test_brief(self):
        assert brief(2**256 - 1, 256) == 2**256 - 1
        assert brief(-(2**256), 256) == "<257-bit integer>"
        assert brief(F(1, 2**300), 256) == (
            "<rational with 1-bit numerator and 301-bit denominator>"
        )
        assert brief(F(3, 4), 256) == F(3, 4)
        assert brief(None, 12) is None and brief(True, 12) is True

    def test_brief_reads_a_pair_as_its_fraction(self):
        for num, den in ((3, 4), (-5, 1), (0, 1), (1, 2**300), (-(3**200), 7)):
            assert brief((num, den), 256) == brief(F(num, den), 256)
        assert str(brief((-5, 1), 256)) == "-5"


def _repeated(base, exponent, one):
    return functools.reduce(operator.mul, [base] * exponent, one)


class TestPower:
    EXPONENTS = (0, 1, 2, 7, 64)

    def test_permutation_equals_repeated_product(self):
        rng = random.Random(5)
        images = list(range(1, 10))
        rng.shuffle(images)
        p = Permutation(images)
        for e in self.EXPONENTS:
            assert p ** e == _repeated(p, e, Permutation.identity(9)), e
            assert p ** -e == _repeated(p.inverse(), e, Permutation.identity(9)), e

    def test_permutation_exponent_reduces_modulo_the_order(self):
        p = parse_cycles("(1,2,3,4,5)(6,7,8)(9,10)", 10)
        k = (1 << 40) + 3
        for r in (0, 1, 7, 29):
            assert p ** (k * p.order() + r) == p ** r
            assert p ** -(k * p.order() + r) == (p ** r).inverse()

    def test_free_word_equals_repeated_product(self):
        w = parse_word("x y^-2 x^3 y")
        for e in self.EXPONENTS:
            assert w ** e == _repeated(w, e, FreeWord()), e
            assert w ** -e == _repeated(w.inverse(), e, FreeWord()), e

    def test_polynomial_equals_repeated_product(self):
        f = RatPoly((1, -2, F(1, 3)))
        for e in self.EXPONENTS:
            assert f ** e == _repeated(f, e, RatPoly((1,))), e
        with pytest.raises(ValueError):
            f ** -1

    def test_tower_element_equals_repeated_product(self):
        field = TowerField(3, F(2))
        a = field.zeta() + field.root() * F(1, 2) - 1
        for e in self.EXPONENTS:
            assert a ** e == _repeated(a, e, field.one()), e
        assert a ** -2 * a ** 2 == field.one()

    def test_product_count(self):
        # (bits - 1) squarings and one product per set bit: the counts the
        # per-layer benchmark metrics report
        calls = []

        def mul(a, b):
            calls.append(1)
            return a * b

        for e in (0, 1, 2, 7, 64, 1000):
            calls.clear()
            assert power(3, e, 1, mul) == 3**e
            assert len(calls) == max(e.bit_length() - 1, 0) + bin(e).count("1")


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


class TestIntPolyMul:
    @pytest.mark.parametrize("bits", [1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200])
    def test_slot_width_at_byte_boundaries(self, bits):
        rng = random.Random(bits)
        big = 2**bits - 1
        for signs in ((1,), (-1,), (1, -1)):
            for la, lb in ((1, 1), (1, 9), (9, 1), (8, 8), (40, 3)):
                a = [rng.choice(signs) * big for _ in range(la)]
                b = [rng.choice(signs) * big for _ in range(lb)]
                assert int_poly_mul(a, b) == _schoolbook(a, b)
                assert int_poly_mul(a, a) == _schoolbook(a, a)

    def test_random_and_zero_coefficients(self):
        rng = random.Random(9)
        for _ in range(200):
            a = [rng.randint(-(2 ** rng.randint(0, 90)), 2**40)
                 for _ in range(rng.randint(1, 30))]
            b = [rng.choice((0, 0, rng.randint(-99, 99)))
                 for _ in range(rng.randint(1, 30))]
            assert int_poly_mul(a, b) == _schoolbook(a, b)

    @staticmethod
    def _check(a, b):
        assert int_poly_mul(a, b) == _schoolbook(a, b)
        assert int_poly_mul(b, a) == _schoolbook(b, a)
        assert int_poly_mul(a, a) == _schoolbook(a, a)

    def test_one_term_and_leading_zeros(self):
        rng = random.Random(16)
        for k in (0, 1, 7, 40):
            for c in (1, -1, 2**70 - 1, -(3**500)):
                for n in (1, 9, 60):
                    b = [rng.randint(-(2**40), 2**40) for _ in range(n)]
                    self._check([0] * k + [c], b)  # c X^k

    def test_one_huge_coefficient_among_small_ones(self):
        rng = random.Random(17)
        for huge in (2**300, -(2**4000) + 1, 7**3000):
            for n in (8, 30, 90):
                a = [rng.randint(-9, 9) for _ in range(n)]
                a[rng.randrange(n)] = huge
                b = [rng.randint(-(2**20), 2**20) for _ in range(n + 3)]
                self._check(a, b)
                b[0] = -huge
                self._check(a, b)

    def test_tiny_operands(self):
        rng = random.Random(18)
        for _ in range(300):
            a = [rng.randint(-(2 ** rng.randint(0, 80)), 2**60)
                 for _ in range(rng.randint(1, 3))]
            b = [rng.choice((0, rng.randint(-(2**90), 2**90)))
                 for _ in range(rng.randint(1, 3))]
            self._check(a, b)

    def test_squares_of_the_same_list(self):
        rng = random.Random(19)
        for n in (1, 3, 8, 30, 200):
            for bits in (1, 8, 64, 900):
                a = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
                assert int_poly_mul(a, a) == _schoolbook(a, a)
                a[n // 2] = 2 ** (bits * 40) + 1
                assert int_poly_mul(a, a) == _schoolbook(a, a)

    def test_skewed_operands_pack_no_more_than_the_ratio(self, monkeypatch):
        # a one-term tower element 2^1000000 times a dense p = 23 element, and
        # (2^200000 X^1000 + (X+1)^999) (X+2)^1000 at a tenth of its degree
        # and size, where one coefficient is far the widest
        packed = []

        def counting_pack(values, width, half):
            packed.append(len(values) * width * 8)
            return pack(values, width, half)

        pack = _exact._pack
        monkeypatch.setattr(_exact, "_pack", counting_pack)

        def bits(*lists):
            return sum(v.bit_length() for ints in lists for v in ints)

        rng = random.Random(5)
        field = TowerField(23, F(7, 3))
        dense = field.element({(i, j): rng.choice((-9, -5, -1, 1, 2, 7, 9))
                               for i in range(22) for j in range(23)})
        one = field.rational(2**1000000)
        product = one * dense
        assert product._den == dense._den
        assert product._num == tuple(c << 1000000 for c in dense._num)
        assert sum(packed) <= _exact._PACK_RATIO * bits(one._num, dense._num)
        packed.clear()
        a = parse_poly("2^20000*X^100+(X+1)^99")
        b = parse_poly("(X+2)^100")
        assert a * b == RatPoly._lowest(_schoolbook(a._ints, b._ints))
        assert sum(packed) <= _exact._PACK_RATIO * bits(a._ints, b._ints)


class TestDecimal:
    def test_optionally_signed_digit_runs(self):
        assert decimal("0012", "") == 12
        assert decimal("-7", "") == -7 and decimal("+3", "") == 3
        assert decimal("\u0661\u0662", "") == 12  # any Unicode decimal digits

    @pytest.mark.parametrize(
        "text", ["", "-", "1x", "--1", " 1", "1_000", "\u00b2", "0x1f"]
    )
    def test_anything_else_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match=f"expected an integer in t, got {text!r}"):
            decimal(text, " in t")

    @needs_digit_limit
    def test_over_the_digit_limit(self):
        n = sys.get_int_max_str_digits() + 1
        with pytest.raises(ParseError, match=f"integer of {n} digits in t is too long"):
            decimal("-" + "7" * n, " in t")


class TestScanner:
    def test_integer_digits_are_contiguous(self):
        s = Scanner(" - 12 3", " in test")
        assert s.integer() == -12
        assert s.take() == "3" and s.peek() is None

    def test_missing_integer(self):
        with pytest.raises(ParseError, match="expected integer at position 3 in w"):
            Scanner("-  x", " in w").integer()

    @needs_digit_limit
    def test_integer_over_the_digit_limit(self, capsys):
        n = sys.get_int_max_str_digits() + 1
        digits = "1" * n
        with pytest.raises(ParseError, match=f"{n} digits at position 2 in word"):
            parse_word("x^" + digits)
        with pytest.raises(ParseError, match=f"{n} digits at position 4"):
            parse_poly("X - " + digits)
        argv = ["belyi", "sturm", "--poly", "X - " + digits, "--lo", "0", "--hi", "1"]
        assert run_cli(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: integer of {n} digits")

    def test_expect(self):
        s = Scanner("( ]", " in w")
        s.expect("(")
        with pytest.raises(ParseError, match=r"expected '\)' at position 3 in w, got '\]'"):
            s.expect(")")
