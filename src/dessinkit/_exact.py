"""Exact integer toolkit and input scanner shared by the dessinkit modules.

Primality, exact roots and 2-adic valuations of integers, binary powering in
any associative product, the one product of integer polynomials (Kronecker
substitution, unless the operand sizes show few terms or one wide
coefficient), the compact form of very large values in messages and reports,
the one reading of decimal integers from outside input, and the character
scanner behind the word and map grammars, with their bracket nesting bounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .errors import OutOfRange, ParseError, ResourceLimit

#: The first 13 primes, used as Miller-Rabin bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_13, the least strong pseudoprime to all of ``_MR_BASES`` (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
#: Below it the bases decide primality; at or above it they prove only
#: compositeness.
_MR_PROVEN_BELOW = 3317044064679887385961981

#: Values with more bits are abbreviated in output (and two-adic reports do
#: not materialise r and s), which keeps every output printable below the
#: interpreter's int-to-decimal limit.
PRINT_BITS = 12_000

#: Brackets nest at most this deep in the word and map grammars; deeper input
#: is a ParseError, before the recursive descent runs out of stack.
MAX_NESTING = 100


def v2(x: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if x == 0:
        raise ValueError("v2(0) is undefined")
    return (x & -x).bit_length() - 1


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the first 13 prime bases.

    A composite verdict is always returned.  A number at or above psi_13 that
    passes every base raises :class:`ResourceLimit` instead of being guessed
    prime.
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    s = v2(n - 1)
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN_BELOW:
        raise ResourceLimit(
            f"primality of {brief(n, 256)} is undecided: the fixed Miller-Rabin "
            f"bases are proven only below {_MR_PROVEN_BELOW}"
        )
    return True


def check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise OutOfRange(f"p must be an odd prime, got {p}")


def integer_root(x: int, k: int) -> Optional[int]:
    """Exact kth root of a nonnegative integer, or None."""
    if x < 0:
        raise ValueError("negative radicand")
    if x in (0, 1):
        return x
    if x.bit_length() <= k:  # a root r >= 2 needs x >= 2^k
        return None
    lo, hi = 1, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**k < x:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**k == x else None


def power(base, exponent: int, one, mul):
    """``base`` to a nonnegative ``exponent`` under the associative product
    ``mul``, by square and multiply: about 2 log2(exponent) products.

    ``one`` is the identity of the product; negative exponents are the
    caller's rule.
    """
    result = one
    while exponent:
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
        if exponent:
            base = mul(base, base)
    return result


#: int_poly_mul's choice, timed on CPython 3.11 with 8- to 1000-bit
#: coefficients.  A term product costs about a seventh of packing and
#: unpacking a slot.  With 64 bits counted per slot for that work, one wide
#: coefficient makes Kronecker substitution the slower product from packing
#: ratios between 2 (1000-bit coefficients) and 13 (16-bit ones); at 4 the
#: chosen product was within about 1.2 times the faster one on the operands
#: tried.
_TERMS_PER_SLOT = 7
_PACK_RATIO = 4


def int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list:
    """Coefficients of the product of two nonempty integer coefficient lists
    (lowest degree first).

    The operand sizes choose the method before anything is packed.  The
    sparser operand's nonzero terms scale and shift the other one, smallest
    first, when they are few (at most ``_TERMS_PER_SLOT`` term products per
    slot of the two operands), or when the packed integers would take more
    than ``_PACK_RATIO`` times the operands' own bits and 64 per slot.
    Otherwise the product is one Kronecker substitution (Kronecker 1882;
    Harvey, J. Symbolic Comput. 44(10), 2009): each list is packed into one
    integer with slots as wide as the widest product coefficient needs, the
    two integers are multiplied once, and the product is unpacked.
    """
    if len(b) < len(a):
        a, b = b, a
    slots, order = len(a) + len(b), range(len(a))
    if len(a) * len(b) > _TERMS_PER_SLOT * slots:
        sizes_a, sizes_b = list(map(int.bit_length, a)), list(map(int.bit_length, b))
        terms_a, terms_b = len(a) - sizes_a.count(0), len(b) - sizes_b.count(0)
        if terms_b < terms_a:
            a, b, sizes_a, sizes_b, terms_a = b, a, sizes_b, sizes_a, terms_b
        # a product coefficient sums at most min(len(a), len(b)) products of
        # two coefficients, so its magnitude is below 2^bits; with
        # 8 width - 1 >= bits it fits its slot once biased by half
        bits = max(sizes_a) + max(sizes_b) + min(len(a), len(b)).bit_length()
        width = bits // 8 + 1
        if (terms_a * len(b) > _TERMS_PER_SLOT * slots
                and slots * width * 8
                <= _PACK_RATIO * (sum(sizes_a) + sum(sizes_b) + 64 * slots)):
            return _kronecker(a, b, width)
        # small terms first: every later addition to a sum that already holds
        # a large value copies it
        order = sorted(range(len(a)), key=sizes_a.__getitem__)
    out = [0] * (slots - 1)
    for i in order:
        x = a[i]
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _kronecker(a: Sequence[int], b: Sequence[int], width: int) -> list:
    half = 1 << (8 * width - 1)
    packed_a = _pack(a, width, half)
    # the same integer twice lets the interpreter square
    packed_b = packed_a if b is a else _pack(b, width, half)
    count = len(a) + len(b) - 1
    data = (packed_a * packed_b + _bias(count, width, half)).to_bytes(
        count * width, "little"
    )
    return [
        int.from_bytes(data[k:k + width], "little") - half
        for k in range(0, count * width, width)
    ]


def _pack(values: Sequence[int], width: int, half: int) -> int:
    """sum(values[k] * 2^(8 width k)); each slot is written biased by half,
    and the biases are taken off at once."""
    data = b"".join([(v + half).to_bytes(width, "little") for v in values])
    return int.from_bytes(data, "little") - _bias(len(values), width, half)


def _bias(count: int, width: int, half: int) -> int:
    return int.from_bytes(half.to_bytes(width, "little") * count, "little")


def brief(value, max_bits: int):
    """``value`` itself, or a placeholder naming its bit sizes when it is an
    integer or fraction with more than ``max_bits`` bits.

    A pair ``(numerator, denominator)`` in lowest terms reads as the fraction
    it stands for.
    """
    if isinstance(value, (Fraction, tuple)):
        pair = isinstance(value, tuple)
        num, den = value if pair else (value.numerator, value.denominator)
        num_bits, den_bits = num.bit_length(), den.bit_length()
        if max(num_bits, den_bits) > max_bits:
            return (f"<rational with {num_bits}-bit numerator and "
                    f"{den_bits}-bit denominator>")
        return Fraction(num, den) if pair else value
    if isinstance(value, int) and value.bit_length() > max_bits:
        return f"<{value.bit_length()}-bit integer>"
    return value


def decimal(text: str, where: str) -> int:
    """The integer written by ``text``: an optional sign and a run of decimal
    digits, nothing else.

    The integers of dessin files, of ``DESSINKIT_CAPS``, of gallery indices,
    of block lists and of the word and map grammars are read here, so more
    digits than the interpreter converts is a :class:`ParseError` too.
    ``where`` ends the error messages (e.g. ``" in --d"``).
    """
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits.isdecimal():
        raise ParseError(f"expected an integer{where}, got {text!r}")
    try:
        return int(text)
    except ValueError:  # the interpreter's limit on decimal digits
        raise ParseError(
            f"integer of {len(digits)} digits{where} is too long"
        ) from None


class Scanner:
    """Character scanner for the word and map grammars.

    Whitespace may separate tokens, but not the digits of one integer.
    ``where`` ends the scanner's own error messages (e.g. ``" in word"``).
    """

    def __init__(self, text: str, where: str = ""):
        self.text = text
        self.pos = 0
        self.where = where
        self.depth = 0

    def nested(self, parse, *args):
        """``parse(*args)``, one bracket level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"brackets nested deeper than {MAX_NESTING} "
                             f"at position {self.pos}{self.where}")
        self.depth += 1
        value = parse(*args)
        self.depth -= 1
        return value

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self):
        c = self.peek()
        if c is not None:
            self.pos += 1
        return c

    def expect(self, char: str):
        c = self.take()
        if c != char:
            raise ParseError(
                f"expected {char!r} at position {self.pos}{self.where}, got {c!r}"
            )

    def integer(self) -> int:
        """An optionally negated run of contiguous decimal digits."""
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        self.peek()  # whitespace may follow the sign, but not split the digits
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected integer at position {self.pos}{self.where}")
        where = f" at position {start}{self.where}"
        return sign * decimal(self.text[start:self.pos], where)
