"""The shared exact toolkit: primality against trial division and the proven
pseudoprime bounds, exact roots, 2-adic valuations, the compact form of big
values and the contiguous-digit integer scan."""

import math
import sys
from fractions import Fraction as F

import pytest

from dessinkit._exact import Scanner, brief, integer_root, is_prime, v2
from dessinkit.belyi import parse_poly
from dessinkit.cli import run_cli
from dessinkit.errors import ParseError, ResourceLimit
from dessinkit.words import parse_word

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


class TestScanner:
    def test_integer_digits_are_contiguous(self):
        s = Scanner(" - 12 3", " in test")
        assert s.integer() == -12
        assert s.take() == "3" and s.peek() is None

    def test_missing_integer(self):
        with pytest.raises(ParseError, match="expected integer at position 3 in w"):
            Scanner("-  x", " in w").integer()

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts decimal strings of any length",
    )
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
