"""Exact integer toolkit and input scanner shared by the dessinkit modules.

Primality, exact roots and 2-adic valuations of integers, binary powering in
any associative product, the one product of integer polynomials (Kronecker
substitution, unless the operand sizes show few terms or one wide
coefficient), the normal form, operators and printing of rational vectors
held as integers over one denominator (``Vector``, the base of ``RatPoly``
and ``TowerElement``), the compact form of very large values in messages and
reports, the one reading of decimal integers from outside input, the
character scanner behind the word and map grammars, with their bracket
nesting bounded, and ``Record``, the base of the immutable value records.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Optional, Sequence

from .errors import DessinkitError, FieldMismatch, OutOfRange, ParseError, ResourceLimit

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

#: Values with more bits are abbreviated in error messages and in the name of
#: a two-parameter stage: the default width of :func:`brief`.
MESSAGE_BITS = 256

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
            f"primality of {brief(n)} is undecided: the fixed Miller-Rabin "
            f"bases are proven only below {_MR_PROVEN_BELOW}"
        )
    return True


def check_odd_prime(p: int) -> None:
    """Refuse p unless it is an odd prime below 2^64.  A larger p is refused
    untested: testing one of thousands of digits takes seconds, and the caps
    on p of the tower and the models lie far below 2^64."""
    if not isinstance(p, int):
        raise OutOfRange(f"p must be an odd prime, got {brief(p)!r}")
    if p >= 2**64:
        raise OutOfRange(f"p must be an odd prime below 2^64, got {brief(p)}")
    if p == 2 or not is_prime(p):
        raise OutOfRange(f"p must be an odd prime, got {brief(p)}")


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
    ``mul``, by square and multiply: bit_length(exponent) - 1 squarings and
    popcount(exponent) - 1 products.

    The result starts from the power of ``base`` at the lowest set bit, so
    ``one``, the identity of the product, is returned only for exponent 0
    and is never multiplied; negative exponents are the caller's rule.
    """
    if not exponent:
        return one
    while not exponent & 1:
        base = mul(base, base)
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = mul(base, base)
        if exponent & 1:
            result = mul(result, base)
        exponent >>= 1
    return result


def exponent_of(value) -> Optional[int]:
    """An int, or a Fraction equal to one, as an int, the exponents that the
    operand rule of ``Vector`` admits; None for any other type.  A Fraction
    that is not an integer raises OutOfRange."""
    if not isinstance(value, (int, Fraction)):
        return None
    if value.denominator != 1:
        raise OutOfRange(f"exponent {value} is not an integer")
    return value.numerator


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


def lowest(ints: list, den: int) -> tuple:
    """The vector ints / den (den nonzero) in normal form: a tuple of
    numerators with no trailing zero, over a positive denominator that shares
    no factor with all of them.  Pops ints' trailing zeros."""
    while ints and not ints[-1]:
        ints.pop()
    g = math.gcd(den, *ints)
    if den < 0:
        g = -g
    return (tuple(ints) if g == 1 else tuple(v // g for v in ints)), den // g


class Vector:
    """A rational vector in ``lowest``'s normal form, ``_num`` over ``_den``,
    with the operators ``RatPoly`` and ``TowerElement`` share.

    One operand rule holds for each of them: an int or a Fraction on either
    side is the constant vector, so a constant equals and hashes as its
    Fraction; a vector of the same class is combined only in the same
    ``_space`` (a tower element's field), or the operator raises
    FieldMismatch and ``==`` is False; any other type gives NotImplemented,
    so the operator raises TypeError and ``==`` is False.  A subclass
    supplies ``_like(nums, den)``, the vector nums / den of its class and
    space (popping nums' trailing zeros), and its own vector product, which
    calls ``_scale`` for any other operand.
    """

    __slots__ = ("_num", "_den")
    _space = None

    def _operand(self, other):
        """other's (numerators, denominator), or None for a foreign type."""
        if type(other) is type(self):
            if other._space != self._space:
                raise FieldMismatch(f"{self._space} vs {other._space}")
            return other._num, other._den
        if isinstance(other, (int, Fraction)):
            return ((other.numerator,) if other else ()), other.denominator
        return None

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        if type(other) is type(self) and other._space != self._space:
            return False
        pair = self._operand(other)
        return NotImplemented if pair is None else pair == (self._num, self._den)

    def __hash__(self) -> int:
        if len(self._num) > 1:
            return hash((self._num, self._den))
        return hash(Fraction(self._num[0], self._den) if self._num else 0)

    def _sum(self, other, sign: int):
        """self + sign * other over the least common denominator."""
        pair = self._operand(other)
        if pair is None:
            return NotImplemented
        (b, b_den), a, a_den = pair, self._num, self._den
        g = math.gcd(a_den, b_den)
        sa, sb = b_den // g, sign * (a_den // g)
        nums = [x * sa + y * sb for x, y in zip_longest(a, b, fillvalue=0)]
        return self._like(nums, a_den * sa)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self)._sum(other, 1)

    def __neg__(self):
        return self._like([-v for v in self._num], self._den)

    def _scale(self, c):
        """self times c, an int or a Fraction; NotImplemented otherwise."""
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        n, d = c.numerator, c.denominator
        return self._like([v * n for v in self._num], self._den * d)


class RecordArguments(DessinkitError, TypeError):
    """A record called with a field left out, given twice, or unknown."""


def _field(index: int) -> property:
    return property(lambda self: self._values[index])


class _RecordType(type):
    """The type of the ``Record`` classes.  The annotated names of a class
    body become read-only fields after those of the base class, and a value
    the body gives one is its default.  A record has no instance
    dictionary, so no other name can be set on it either."""

    def __new__(mcs, name, bases, namespace):
        fields = tuple(f for base in bases for f in base._fields)
        defaults = {k: v for base in bases for k, v in base._defaults.items()}
        for index, f in enumerate(namespace.get("__annotations__", ()), len(fields)):
            if f in namespace:
                defaults[f] = namespace[f]
            namespace[f] = _field(index)
            fields += (f,)
        namespace.setdefault("__slots__", ())
        namespace.update(_fields=fields, _defaults=defaults, __match_args__=fields)
        return super().__new__(mcs, name, bases, namespace)


class Record(metaclass=_RecordType):
    """An immutable value with named fields, declared as annotations of a
    subclass body, as a frozen dataclass would be: ``Name(field=value, ...)``
    as its repr, equal only to a record of the same class with equal
    fields, hashed as the tuple of its fields, and refusing assignment.  A
    subclass may define ``__post_init__`` to check the fields, which runs
    once they are set.  The fields are held once, as one tuple, and a call
    that gives every field by position stores its arguments as they are.
    """

    __slots__ = ("_values",)

    def __init__(self, *args, **kwargs):
        self._values = (args if not kwargs and len(args) == len(self._fields)
                        else self._bind(args, kwargs))
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The fields of a call that names some or leaves defaults out."""
        given = {**self._defaults, **kwargs}
        try:
            values = args + tuple(map(given.pop, self._fields[len(args):]))
        except KeyError:  # a field without a default is left out
            values = None
        # a name left over is no field or names one given by position
        if (values is None or not given.keys().isdisjoint(kwargs)
                or len(args) > len(self._fields)):
            signature = ", ".join(f"{f}={self._defaults[f]!r}" if f in self._defaults
                                  else f for f in self._fields)
            raise RecordArguments(f"{type(self).__name__}({signature}): give each field "
                                  f"once, by position or by name")
        return values

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        pairs = (f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)


def signed_sum(terms) -> str:
    """Nonzero (coefficient, ((variable, exponent), ...)) terms as a signed sum
    such as ``-X^2 + 3/2*X - 1`` or ``1 - z^2*t``: zero exponents left out,
    and a coefficient 1 before a variable; magnitudes as ``brief`` prints them
    past ``PRINT_BITS`` bits; ``0`` for no terms."""
    parts = []
    for c, monomial in terms:
        mag = brief(abs(c), PRINT_BITS)
        names = [] if mag == 1 else [str(mag)]
        names += [x if e == 1 else f"{x}^{e}" for x, e in monomial if e]
        sign = ("- " if c < 0 else "+ ") if parts else ("-" if c < 0 else "")
        parts.append(sign + ("*".join(names) or "1"))
    return " ".join(parts) or "0"


def brief(value, max_bits: int = MESSAGE_BITS):
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

    The integers of dessin files, of gallery indices, of block lists and of
    the word and map grammars are read here, so more digits than the
    interpreter converts is a :class:`ParseError` too.
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
