"""Exact rational polynomial and rational-map calculus for Belyi chains.

A :class:`RatPoly` holds integers over one positive denominator, the root
layer works on integer coefficient lists, and values are
`fractions.Fraction`s; there is no floating point anywhere.  The module
provides:

* :class:`RatPoly` / :class:`RatMap` arithmetic with gcd-reduced maps,
* extended evaluation on the projective line (:data:`INFINITY` as the pole
  value),
* exact critical-value profiles and their propagation through compositions
  (``crit(g . f) = crit(g) | g(crit(f))``),
* the classical two-parameter Belyi polynomial family
  ``(m+n)^(m+n)/(m^m n^n) X^m (1-X)^n`` both expanded (:func:`bmn`) and as a
  symbolic chain stage (:class:`BmnStage`) that is never expanded — its
  coefficients explode like (m+n)^(m+n) while evaluation at the special
  points 0, 1, m/(m+n) is free,
* rational roots by p-adic lifting, and Sturm-sequence root counting and
  strict-monotonicity certificates, from one primitive remainder sequence
  over the integers whose degree-one drops each take one pass (the gcd
  with a monomial c X^m is read off the other side's low zero terms),
* :func:`belyi_reduce`, which sends a finite set of nonzero rationals to 0 by
  a composition chain whose finite critical values stay inside {0, 1}, with
  an independent postcondition verifier (:func:`verify_reduction`).
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ._exact import (MESSAGE_BITS, PRINT_BITS, Record, Scanner, Vector, brief, exponent_of,
                     int_poly_mul, is_prime, lowest, power, signed_sum)
from .errors import (
    DivisionByZero,
    IrrationalCriticalPoints,
    NotCoprime,
    OutOfRange,
    ParseError,
    SizeGuard,
)


def _log(level: str, message: str, *args) -> None:
    """``message % args`` through the ``level`` method ("debug" or "info") of
    this module's logger, naming the caller's function and line.  Nothing is
    logged in a process that has not imported ``logging``: it has no handler
    or level that would show the record."""
    logging = sys.modules.get("logging")
    if logging is not None:
        getattr(logging.getLogger(__name__), level)(message, *args, stacklevel=2)


#: Default cap on m+n for one chain stage (the offending ratio is reported).
DEFAULT_STAGE_CAP = 10**6

#: Cap, in result bits, for one exact stage evaluation.  Evaluating
#: the two-parameter polynomial at a generic rational costs about
#: (m+n) * (log2(m+n) + height of the point) bits; past this cap the library
#: fails loudly instead of stalling on multi-megabyte integers.
DEFAULT_EVAL_WORK_BITS = 2_000_000

#: Cap on m+n for explicit expansion into coefficients (expansion
#: needs ~(m+n)^2 log(m+n) bits in total, far more than evaluation), and the
#: cap on the degree of a parsed map.
DEFAULT_EXPANSION_CAP = 2000

#: Cap on the total bits of the integers and denominators of a parsed map,
#: and on the bound a power is checked against before it is expanded.  The
#: expansion takes time about quadratic in the size (Python 3.11, one core):
#: (X-1)^2000, bounded by 4.0 million bits (2.9 million actual), takes
#: 1.3 s, (3*X+4)^1300, bounded by 5.1 million, 1.9 s, and (X+2)^2000,
#: bounded by 8.0 million (4.9 million actual), 3.4 s.
MAX_MAP_BITS = 6_000_000


class _Infinity:
    """The point at infinity of the projective line (a singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __hash__(self):
        # fixed, where the default hash follows the address: a set of points
        # then iterates in the same order in every process
        return 314159


INFINITY = _Infinity()

ExtendedRational = Union[Fraction, _Infinity]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class RatPoly(Vector):
    """Polynomial with exact rational coefficients, low degree first.

    An ``_exact.Vector``: integers over one positive denominator in lowest
    terms, with no trailing zero integer, so equal polynomials have equal
    fields; an int or a Fraction operand is the constant polynomial.
    """

    __slots__ = ()

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
                  for c in coefficients]
        den = math.lcm(*(c.denominator for c in coeffs))
        self._num, self._den = lowest([c.numerator * (den // c.denominator)
                                       for c in coeffs], den)

    @classmethod
    def _lowest(cls, ints: list, den: int = 1) -> "RatPoly":
        """The polynomial with coefficients ints[i] / den (den nonzero); pops
        ints' trailing zeros."""
        poly = object.__new__(cls)
        poly._num, poly._den = lowest(ints, den)
        return poly

    _like = _lowest

    @property
    def coefficients(self) -> tuple:
        return tuple(Fraction(v, self._den) for v in self._num)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._num) - 1

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise OutOfRange("zero polynomial has no leading coefficient")
        return Fraction(self._num[-1], self._den)

    def __call__(self, v: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._num):
            acc = acc * v + c
        return acc / self._den

    def __mul__(self, other) -> "RatPoly":
        if type(other) is not RatPoly:
            return self._scale(other)
        if not self._num or not other._num:
            return RatPoly()
        return RatPoly._lowest(int_poly_mul(self._num, other._num),
                               self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent) -> "RatPoly":
        exponent = exponent_of(exponent)
        if exponent is None:
            return NotImplemented
        if exponent < 0:
            raise OutOfRange("negative polynomial power")
        return power(self, exponent, ONE_POLY, operator.mul)

    def derivative(self) -> "RatPoly":
        return RatPoly._lowest(_derivative(self._num), self._den)

    def primitive_integer_coeffs(self) -> tuple:
        """Integer coefficients after clearing denominators and content."""
        return tuple(_primitive(self._num)) if self._num else ()

    def __str__(self) -> str:
        return signed_sum((Fraction(v, self._den), (("X", i),))
                          for i, v in reversed(list(enumerate(self._num))) if v)

    def __repr__(self) -> str:
        return f"RatPoly({self!s})"


X = RatPoly((0, 1))
ONE_POLY = RatPoly((1,))


# ---------------------------------------------------------------------------
# rational maps
# ---------------------------------------------------------------------------


class RatMap:
    """Quotient of coprime polynomials; the denominator is kept monic."""

    __slots__ = ("_num", "_den")

    def __init__(self, numerator: RatPoly, denominator: RatPoly = ONE_POLY):
        if denominator.is_zero:
            raise DivisionByZero("zero denominator")
        if numerator.is_zero:
            self._num, self._den = RatPoly(), ONE_POLY
            return
        a, b = numerator._num, denominator._num
        g = _poly_gcd(a, b)
        if len(g) > 1:
            a, b = _quotient(a, g), _quotient(b, g)
        self._num = RatPoly._lowest([v * denominator._den for v in a],
                                    numerator._den * b[-1])
        self._den = _monic(b)

    @classmethod
    def _coprime(cls, numerator: RatPoly, monic: RatPoly) -> "RatMap":
        """numerator / monic, known coprime: a negation, power or reciprocal."""
        f = object.__new__(cls)
        f._num, f._den = numerator, monic
        return f

    @property
    def numerator(self) -> RatPoly:
        return self._num

    @property
    def denominator(self) -> RatPoly:
        return self._den

    @property
    def is_polynomial(self) -> bool:
        return self._den.degree == 0

    @property
    def mapping_degree(self) -> int:
        return max(self._num.degree, self._den.degree)

    @staticmethod
    def _of(value) -> Optional["RatMap"]:
        """value as a map: a RatMap itself, a RatPoly as its polynomial map,
        an int or a Fraction as the constant map by ``Vector._scale``'s type
        test; None for any other type."""
        if isinstance(value, RatMap):
            return value
        poly = value if isinstance(value, RatPoly) else ONE_POLY._scale(value)
        return None if poly is NotImplemented else RatMap._coprime(poly, ONE_POLY)

    def _operators(op):
        """op on two maps as a forward and a reflected operator, which take
        the other operand by ``_of`` and return NotImplemented on None, as
        ``fractions.Fraction._operator_fallbacks`` does."""
        return (lambda a, b: NotImplemented if (b := RatMap._of(b)) is None else op(a, b),
                lambda a, b: NotImplemented if (b := RatMap._of(b)) is None else op(b, a))

    # field operations, used by the expression parser; an int, a Fraction or a
    # RatPoly is a polynomial map, which equals and hashes as that value
    __eq__ = _operators(lambda a, b: a._num == b._num and a._den == b._den)[0]
    __add__, __radd__ = _operators(
        lambda a, b: RatMap(a._num * b._den + b._num * a._den, a._den * b._den))
    __sub__, __rsub__ = _operators(lambda a, b: a + -b)
    __mul__, __rmul__ = _operators(
        lambda a, b: RatMap(a._num * b._num, a._den * b._den))
    __truediv__, __rtruediv__ = _operators(lambda a, b: a * b ** -1)
    del _operators

    def __hash__(self) -> int:
        return hash(self._num if self.is_polynomial else (self._num, self._den))

    def __neg__(self) -> "RatMap":
        return RatMap._coprime(-self._num, self._den)

    def __pow__(self, exponent) -> "RatMap":
        num, den, exponent = self._num, self._den, exponent_of(exponent)
        if exponent is None:
            return NotImplemented
        if exponent < 0:
            # a reduced map's reciprocal is reduced: swap the sides, monic below
            if num.is_zero:
                raise DivisionByZero("division by the zero map")
            num, den, exponent = den * (1 / num.leading), _monic(num._num), -exponent
        return RatMap._coprime(num ** exponent, den ** exponent)

    def eval_extended(self, v: ExtendedRational) -> ExtendedRational:
        """Value on the projective line; poles map to infinity."""
        if v is INFINITY:
            dn, dd = self._num.degree, self._den.degree
            if dn > dd:
                return INFINITY
            if dn < dd:
                return Fraction(0)
            return self._num.leading / self._den.leading
        v = Fraction(v)
        dv = self._den(v)
        if dv == 0:
            nv = self._num(v)
            assert nv != 0, "reduced map evaluated to 0/0"
            return INFINITY
        return self._num(v) / dv

    def wronskian(self) -> RatPoly:
        """num' * den - num * den': its roots are the finite critical points."""
        return RatPoly._lowest(self._wronskian(), self._num._den * self._den._den)

    def _wronskian(self) -> list:
        """The Wronskian times both (positive) denominators: a' b - a b' on
        the integers a of num and b of den, empty for a constant map."""
        a, b = self._num._num, self._den._num
        left = int_poly_mul(_derivative(a), b) if len(a) > 1 else []
        right = int_poly_mul(a, _derivative(b)) if len(b) > 1 else []
        return [x - y for x, y in zip_longest(left, right, fillvalue=0)]

    def derivative_sign_at(self, v: Fraction) -> int:
        """Sign of the derivative at a non-pole rational point: the Wronskian's."""
        v = Fraction(v)
        u, t = v.numerator, v.denominator
        if not _sign_at(self._den._num, u, t):
            raise OutOfRange(f"derivative sign requested at pole {v}")
        w = self._wronskian()
        return _sign_at(w, u, t) if w else 0

    def finite_critical_values(self) -> "CritProfile":
        return finite_critical_values(self)

    def __str__(self) -> str:
        if self.is_polynomial:
            return str(self._num)
        return f"({self._num}) / ({self._den})"

    def __repr__(self) -> str:
        return f"RatMap({self!s})"


# ---------------------------------------------------------------------------
# critical values
# ---------------------------------------------------------------------------


class CritProfile(Record):
    """Critical values of a map: one set of points of P^1(Q), the rationals
    as `Fraction`s and the point at infinity as :data:`INFINITY`.

    ``finite_values`` and ``includes_infinity`` read the set the way Belyi
    polynomials are usually described: finite critical values apart from
    infinity, where every polynomial of degree >= 2 ramifies.
    """

    values: frozenset

    @classmethod
    def empty(cls) -> "CritProfile":
        return cls(frozenset())

    @classmethod
    def of(cls, values: Iterable, includes_infinity: bool = False) -> "CritProfile":
        finite = frozenset(Fraction(v) for v in values)
        return cls(finite | {INFINITY} if includes_infinity else finite)

    @property
    def finite_values(self) -> frozenset:
        return self.values - {INFINITY}

    @property
    def includes_infinity(self) -> bool:
        return INFINITY in self.values

    def sorted_finite(self) -> list:
        return sorted(self.finite_values)

    def __str__(self) -> str:
        items = [str(brief(v, PRINT_BITS)) for v in self.sorted_finite()]
        if self.includes_infinity:
            items.append("inf")
        return "{" + ", ".join(items) + "}"


def finite_critical_values(f: RatMap) -> CritProfile:
    """Critical-value profile of a rational map.

    Finite critical points are the roots of the Wronskian W = a'b - ab' (poles
    of order >= 2 among them, with value infinity).  For f = a/b of degree
    d >= 1, d W is the Jacobian of a, b made homogeneous of degree d, at y = 1:
    a form of degree 2d - 2 vanishing to order e - 1 at each point of
    ramification index e, so infinity is critical iff deg W < 2d - 2.
    Requires every critical point to be rational: a Wronskian factor without
    rational roots raises :class:`IrrationalCriticalPoints` with the cofactor.
    """
    if f.mapping_degree <= 0:
        return CritProfile.empty()
    w = f.wronskian()
    roots, cofactor = rational_roots(w)
    if cofactor.degree >= 1:
        raise IrrationalCriticalPoints(
            f"critical points are not all rational; cofactor {cofactor}",
            cofactor=cofactor,
        )
    values = {f.eval_extended(r) for r in roots}
    if w.degree < 2 * f.mapping_degree - 2:
        values.add(f.eval_extended(INFINITY))
    return CritProfile(frozenset(values))


def propagate_crit(profile: CritProfile, f) -> CritProfile:
    """Critical profile of ``f . g`` given the profile of ``g``: the
    critical values of ``f`` and the image under ``f`` of those of ``g``.

    ``f`` may be a :class:`RatMap` or a :class:`BmnStage`.
    """
    return CritProfile(f.finite_critical_values().values
                       | {f.eval_extended(v) for v in profile.values})


# ---------------------------------------------------------------------------
# integer polynomials: one remainder sequence for gcds, squarefree parts and
# Sturm chains (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def _primitive(c: Sequence[int]) -> Sequence[int]:
    """A nonzero integer polynomial over its content, signs kept."""
    g = math.gcd(*c)
    return c if g == 1 else [v // g for v in c]


def _monic(c: Sequence[int]) -> RatPoly:
    return RatPoly._lowest(list(c), c[-1])


def _derivative(c: Sequence[int]) -> list:
    return [i * v for i, v in enumerate(c)][1:]


def _prem(a: Sequence[int], b: Sequence[int]) -> list:
    """A positive multiple of -(a rem b) over Q, for deg a >= deg b >= 1:
    the next term of a remainder sequence before its content is divided out.

    A normal step, deg a = deg b + 1, is one pass: with c = lc(b), the
    negated pseudo-remainder c^2 a - (q1 X + q0) b, q1 = c a_top and
    q0 = c a_(top-1) - a_top b_(top-1), its multipliers divided by
    g = gcd(q0, c).  c^2 / g > 0 keeps the sign, and g keeps them as small
    as eliminating the two top terms one at a time does, which structured
    sequences need.  Any other step eliminates one nonzero top coefficient
    of -a at a time, scaling by |c| over its gcd with it, so sparse inputs
    pay only for their nonzero terms.
    """
    n, lead = len(b) - 1, b[-1]
    if len(a) == n + 2:
        top = a[-1]
        q0 = lead * a[-2] - top * b[-2]
        g = math.gcd(q0, lead)
        k = lead // g
        s, q1, q0 = k * lead, k * top, q0 // g
        r = [q1 * u + q0 * v - s * w for u, v, w in zip((0, *b), b, a)]
        r.pop()
    else:
        r = [-v for v in a]
        while len(r) > n:
            top = r.pop()
            if not top:
                continue
            g = math.gcd(top, lead)
            scale, t = abs(lead) // g, (top if lead > 0 else -top) // g
            shift = len(r) - n
            if scale != 1:
                r = [scale * v for v in r]
            for i in range(n):
                r[shift + i] -= t * b[i]
    while r and not r[-1]:
        r.pop()
    return r


def _prs(a: Sequence[int], b: Sequence[int]) -> list:
    """Primitive remainder sequence a, b, -rem, ... (deg a >= deg b, b
    nonzero) down to a constant or to the last nonzero term (Collins;
    Brown, J. ACM 18, 1971).

    Every term is a positive multiple of the matching term of the Euclidean
    sequence over Q, so the last term is gcd(a, b), and for b = a' the
    sequence is the Sturm chain of a.
    """
    seq = [a, b]
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            break
        a, b = b, _primitive(r)
        seq.append(b)
    return seq


def _low_zeros(c: Sequence[int]) -> int:
    """The number of zero coefficients below the lowest nonzero one of a
    nonzero polynomial: the exponent of X in it."""
    return next(i for i, v in enumerate(c) if v)


def _poly_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """Primitive gcd of integer polynomials, a nonzero, up to sign.

    When a or b is a monomial c X^m, the gcd is X^min(m, v), v the exponent
    of X in the other, since X is the only prime factor of c X^m.
    Otherwise it is the last term of the remainder sequence.
    """
    if not b:
        return _primitive(a)
    v, w = _low_zeros(a), _low_zeros(b)
    if v == len(a) - 1 or w == len(b) - 1:
        return [0] * min(v, w) + [1]
    a, b = _primitive(a), _primitive(b)
    return _prs(a, b)[-1] if len(a) >= len(b) else _prs(b, a)[-1]


def _quotient(a: Sequence[int], b: Sequence[int]) -> Optional[list]:
    """a / b over Z, or None when b does not divide a there."""
    a = list(a)
    n, lead = len(b) - 1, b[-1]
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(a[k + n], lead)
        if r:
            return None
        q[k] = c
        for i in range(n):
            a[k + i] -= c * b[i]
    return None if any(a[:n]) else q


def _squarefree_chain(f: Sequence[int]) -> list:
    """Sturm chain of the squarefree part of a primitive integer polynomial
    of degree >= 1: the remainder sequence of f and f', every term divided
    exactly by the last one, g = gcd(f, f').  The first term is f / g.

    Dividing by g(t) changes no sign variation where g(t) != 0, and at a
    root of f the quotients still vary like a Sturm chain of f / g.
    """
    chain = _prs(f, _primitive(_derivative(f)))
    g = chain[-1]
    if len(g) > 1:
        chain = [_quotient(q, g) for q in chain]
    return chain


def _sign_at(q: Sequence[int], u: int, v: int) -> int:
    """Sign of q(u/v) for v > 0, read from the integer v^deg q(u/v)."""
    acc, vp = q[-1], 1
    for c in reversed(q[:-1]):
        vp *= v
        acc = acc * u + c * vp
    return (acc > 0) - (acc < 0)


def _variations(chain: Sequence[Sequence[int]], t: Fraction) -> int:
    """Sign changes along the chain at t, zero signs skipped."""
    u, v = t.numerator, t.denominator
    count = last = 0
    for q in chain:
        s = _sign_at(q, u, v)
        if s:
            if s == -last:
                count += 1
            last = s
    return count


def _roots_in(f: Sequence[int], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in (lo, hi] of a nonzero primitive integer
    polynomial, by the Sturm chain of its squarefree part; skipping zero
    signs keeps the count right when an endpoint is a root."""
    if len(f) < 2:
        return 0
    chain = _squarefree_chain(f)
    return _variations(chain, lo) - _variations(chain, hi)


def sturm_count(p: RatPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the half-open (lo, hi],
    exact by the Sturm chain of its squarefree part (:func:`_roots_in`)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise OutOfRange(f"empty interval ({lo}, {hi}]")
    if p.is_zero:
        raise OutOfRange("sturm_count of the zero polynomial")
    return _roots_in(p.primitive_integer_coeffs(), lo, hi)


def certify_increasing(f: RatPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether f is strictly increasing on [lo, hi]: f' is not zero and
    f' >= 0 there.

    f' changes sign exactly at its roots of odd multiplicity: the roots of
    the a_i, i odd, in Yun's squarefree decomposition f' = c a_1 a_2^2 ...
    With none in the open (lo, hi), the sign of f' at one of deg f' + 1
    equally spaced interior points, one of which is not a root, decides.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise OutOfRange(f"empty interval [{lo}, {hi}]")
    d = _derivative(f._num)  # a positive multiple of f'
    if not d:
        return False
    g = _poly_gcd(d, _derivative(d))
    b, c, odd = _quotient(d, g), _quotient(_derivative(d), g), True
    while len(b) > 1:
        # b and c are Yun's b_i and c_i times one factor, and c has the
        # degree of b', so e is Yun's d_i times it
        e = [x - y for x, y in zip(c, _derivative(b))]
        while e and not e[-1]:
            e.pop()
        a = _poly_gcd(b, e)
        if odd and _roots_in(a, lo, hi) > (not _sign_at(a, *hi.as_integer_ratio())):
            return False
        b, c, odd = _quotient(b, a), _quotient(e, a), not odd
    step = (hi - lo) / (len(d) + 1)
    points = (lo + k * step for k in range(1, len(d) + 1))
    signs = (_sign_at(d, t.numerator, t.denominator) for t in points)
    return next(s for s in signs if s) > 0


# ---------------------------------------------------------------------------
# rational root extraction (p-adic lifting)
# ---------------------------------------------------------------------------


def _eval_mod(f: Sequence[int], r: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % m
    return acc


def _largest_exponent(g: int, fits) -> int:
    """The largest j with ``fits(g**j)``, for g > 1 and a test that holds at
    1 and, once it fails, fails at every higher power.

    g, g^2, g^4, ... are tried while they fit, and the rest of j is read off
    in binary, so a large j costs O(log j) tests.
    """
    squares = [g]
    while fits(squares[-1]):
        squares.append(squares[-1] * squares[-1])
    j, acc = 0, 1
    for i in reversed(range(len(squares) - 1)):
        if fits(acc * squares[i]):
            acc *= squares[i]
            j += 1 << i
    return j


def _squarefree_roots(f: Sequence[int]) -> list:
    """Rational roots, ascending, of a squarefree primitive integer
    polynomial f of degree d >= 1 (Loos 1983).

    Every rational root is k/a, a = lc(f), with |k| < B = |a| + max|f_i|
    (Cauchy), and reduces to a root of f mod p for a prime p not dividing a.
    The prime is the least p > d that does not divide a and at which every
    root r of f mod p is simple, f'(r) != 0 mod p; one exists because f is
    squarefree, so only the finitely many primes dividing its discriminant
    fail.  Newton then lifts each r to a unique root mod p^E, E the least
    exponent with p^E > 2B, and the symmetric residue of a times it is the
    only candidate k, tested by exact integer evaluation.
    """
    a = f[-1]
    bound = abs(a) + max(abs(c) for c in f[:-1])
    deriv = _derivative(f)
    p = len(f) - 1
    while True:
        p += 1
        if is_prime(p) and a % p:
            lifted = [r for r in range(p) if not _eval_mod(f, r, p)]
            if all(_eval_mod(deriv, r, p) for r in lifted):
                break
    # a Newton step from p^e reaches p^(2e), so the precisions halve (upward)
    # from the least E with p^E > 2B down to 1, and the last step stops at E
    precisions = [_largest_exponent(p, lambda x: x <= 2 * bound) + 1]
    while precisions[-1] > 1:
        precisions.append((precisions[-1] + 1) // 2)
    precisions.pop()  # the roots mod p are known
    # f and f' modulo each p^e (none without a root mod p), each reduced
    # from the next larger p^e's residues
    residues, f_mod, d_mod = [], f, deriv
    for e in precisions if lifted else ():
        m = p**e
        f_mod, d_mod = [c % m for c in f_mod], [c % m for c in d_mod]
        residues.append((e, m, f_mod, d_mod))
    modulus, e = p, 1
    while residues:
        e, modulus, f_mod, d_mod = residues.pop()
        lifted = [(r - _eval_mod(f_mod, r, modulus)
                   * pow(_eval_mod(d_mod, r, modulus), -1, modulus)) % modulus
                  for r in lifted]
    _log("debug", "rational_roots: degree %d, prime %d, lifted to p^%d", len(f) - 1, p, e)
    roots = []
    for r in lifted:
        k = a * r % modulus
        if 2 * k > modulus:
            k -= modulus
        if abs(k) < bound:
            root = Fraction(k, a)
            if not _sign_at(f, root.numerator, root.denominator):
                roots.append(root)
    return sorted(roots)


def rational_roots(p: RatPoly) -> Tuple[dict, RatPoly]:
    """All rational roots with multiplicities, plus the rootless cofactor.

    The roots of the squarefree part, the primitive part f over gcd(f, f'),
    come from p-adic lifting (:func:`_squarefree_roots`); each one, ascending
    after 0, is stripped to full multiplicity by exact integer division.  The
    cost is polynomial in the degree and in the coefficient bits: nothing is
    factored.
    """
    if p.is_zero:
        raise OutOfRange("rational_roots of the zero polynomial")
    roots: dict = {}
    work = p.primitive_integer_coeffs()
    # strip the root at 0 first so the trailing coefficient is nonzero
    k = _low_zeros(work)
    if k:
        roots[Fraction(0)] = k
        work = work[k:]
    if len(work) > 1:
        g = _poly_gcd(work, _derivative(work))
        for root in _squarefree_roots(work if len(g) == 1 else _quotient(work, g)):
            linear, mult = (-root.numerator, root.denominator), 0
            while (quotient := _quotient(work, linear)) is not None:
                work, mult = quotient, mult + 1
            roots[root] = mult
    return roots, _monic(work)


# ---------------------------------------------------------------------------
# the two-parameter Belyi family
# ---------------------------------------------------------------------------


class BmnParams(Record):
    """Coprime positive exponent pair of the Belyi polynomial family."""

    m: int
    n: int

    def __post_init__(self):
        m, n = self.m, self.n
        if m < 1 or n < 1:
            raise OutOfRange(f"exponents must be positive, got ({m}, {n})")
        if math.gcd(m, n) != 1:
            raise NotCoprime(f"({m}, {n}) are not coprime")

    @property
    def peak(self) -> Fraction:
        """The unique interior critical point m/(m+n), where the value is 1."""
        return Fraction(self.m, self.m + self.n)


def pair_from_ratio(v: Fraction) -> BmnParams:
    """The unique coprime (m, n) with m/(m+n) equal to a ratio in (0, 1)."""
    v = Fraction(v)
    if not 0 < v < 1:
        raise OutOfRange(f"ratio {v} outside (0, 1)")
    return BmnParams(v.numerator, v.denominator - v.numerator)


def bmn(params: BmnParams) -> RatMap:
    """Expanded coefficients of (m+n)^(m+n)/(m^m n^n) X^m (1-X)^n.

    Refuses (with :class:`SizeGuard`) to expand past m+n =
    ``DEFAULT_EXPANSION_CAP`` since the leading constant alone has
    ~(m+n) log2(m+n) bits; use :class:`BmnStage` for large parameters.
    """
    m, n = params.m, params.n
    if m + n > DEFAULT_EXPANSION_CAP:
        raise SizeGuard(
            f"expansion of the ({m}, {n}) stage exceeds cap {DEFAULT_EXPANSION_CAP}"
        )
    top = (m + n) ** (m + n)
    ints = [0] * m + [(-1) ** k * math.comb(n, k) * top for k in range(n + 1)]
    return RatMap(RatPoly._lowest(ints, m**m * n**n))


def _coprime_base(factors: Iterable[Tuple[int, int]]) -> dict:
    """Pairwise coprime elements > 1, each with its summed exponent, whose
    product of powers equals that of the ``(value, exponent)`` factors
    (values positive).

    Naive refinement, enough for a handful of values (Bernstein, "Factoring
    into coprimes in essentially linear time", J. Algorithms 2005, treats the
    general case): a value sharing g > 1 with an element is split, together
    with that element, into g and the two cofactors left after stripping
    every power of g.  Every value stays a product of powers of the
    elements.
    """
    base: dict = {}
    pending = [(a, e) for a, e in factors if a > 1]
    while pending:
        a, ea = pending.pop()
        for b in base:
            g = math.gcd(a, b)
            if g > 1:
                eb = base.pop(b)  # the loop ends here, so popping is safe
                j = _largest_exponent(g, lambda x: a % x == 0)
                k = _largest_exponent(g, lambda x: b % x == 0)
                a, b = a // g**j, b // g**k
                pending += [(x, e) for x, e in ((g, j * ea + k * eb), (a, ea), (b, eb))
                            if x > 1]
                break
        else:
            base[a] = ea
    return base


def _stage_bits(m: int, n: int, p: int, q: int) -> int:
    """Estimated bit size T (bits T + bits p + bits q), T = m+n, of the
    (m, n) stage's value at p/q."""
    total = m + n
    return total * (total.bit_length() + p.bit_length() + q.bit_length())


def _stage_vector(m: int, n: int, p: int, q: int) -> Tuple[int, dict]:
    """The (m, n) stage's value at p/q (q > 0, p neither 0 nor q) as
    ``(sign, base)``: the value is sign * prod(b**e), with the exponents e
    signed (positive in the numerator) on pairwise coprime elements b.

    The value is N/D with N = T^T p^m (q-p)^n, D = m^m n^n q^T and T = m+n.
    Its exponents are summed on the coprime base of T, |p|, |q-p|, m, n and
    q, so the two sides are coprime without a gcd of N and D.
    """
    total = m + n
    base = _coprime_base([(total, total), (abs(p), m), (abs(q - p), n),
                          (m, -m), (n, -n), (q, -total)])
    sign = -1 if (p < 0 and m % 2 == 1) != (p > q and n % 2 == 1) else 1
    return sign, base


def _vector_pair(sign: int, base: dict,
                 modulus: Optional[int] = None) -> Tuple[int, int]:
    """A :func:`_stage_vector` multiplied out: the pair (numerator,
    denominator > 0) in lowest terms; with a ``modulus``, each power is taken
    modulo it and the pair is reduced modulo it."""
    num = sign * math.prod(pow(b, e, modulus) for b, e in base.items() if e > 0)
    den = math.prod(pow(b, -e, modulus) for b, e in base.items() if e < 0)
    if modulus is not None:
        return num % modulus, den % modulus
    return num, den


def _stage_pair(m: int, n: int, p: int, q: int,
                modulus: Optional[int] = None) -> Tuple[int, int]:
    """The (m, n) stage's value at p/q (q > 0, p neither 0 nor q) as a pair
    (numerator, denominator > 0) in lowest terms, even when p/q is not;
    with a ``modulus``, the pair reduced modulo it.

    This is :func:`_vector_pair` of :func:`_stage_vector`.
    :func:`belyi_reduce` refuses the value that keys its next stage from the
    bound :func:`_denominator_bound` reads off its vector when the bound is
    at least the cap's bit length and ``MESSAGE_BITS``; otherwise it
    multiplies the value out with this product and compares it exactly.
    """
    return _vector_pair(*_stage_vector(m, n, p, q), modulus)


def _denominator_bound(base: dict) -> int:
    """The sum N of (-e) * (bits(b) - 1) over the negative exponents e of a
    :func:`_stage_vector`: each b is at least 2**(bits(b) - 1), so the
    denominator is at least 2**N and has more than N bits."""
    return sum(-e * (b.bit_length() - 1) for b, e in base.items() if e < 0)


class BmnStage(BmnParams):
    """Symbolic chain stage for the two-parameter family.

    ``m`` and ``n`` may be huge integers: the stage is never expanded, and
    evaluation at 0, 1 and the peak m/(m+n) costs nothing.  Generic exact
    evaluation is allowed only under a work cap; it divides out the value's
    common factors on a coprime base and never takes the gcd of the full products.
    """

    def finite_critical_values(self) -> CritProfile:
        # B[1,1] = 4X(1 - X) has simple roots, so 0 is no critical value
        return CritProfile.of((0, 1) if self.m + self.n > 2 else (1,),
                              includes_infinity=True)

    def eval_extended(self, v: ExtendedRational) -> ExtendedRational:
        if v is INFINITY:
            return INFINITY
        v = Fraction(v)
        p, q = v.numerator, v.denominator
        if p == 0 or p == q:
            return Fraction(0)
        if (p, q) == (self.m, self.m + self.n):
            return Fraction(1)
        self._check_work((p, q))
        return Fraction(*_stage_pair(self.m, self.n, p, q))

    def _check_work(self, v: Tuple[int, int]) -> None:
        """Raise :class:`SizeGuard` when the estimated size of the value at a
        pair (p, q) is over ``DEFAULT_EVAL_WORK_BITS``."""
        m, n = self.m, self.n
        estimate = _stage_bits(m, n, *v)
        if estimate > DEFAULT_EVAL_WORK_BITS:
            raise SizeGuard(
                f"exact evaluation of stage ({brief(m)}, {brief(n)}) at "
                f"{brief(v)} needs about {brief(estimate)} bits, over the "
                f"work cap {DEFAULT_EVAL_WORK_BITS}"
            )

    def derivative_sign_at(self, v: Fraction) -> int:
        """Exact sign of the derivative, without any big arithmetic.

        The derivative is scale * X^(m-1) (1-X)^(n-1) (m - (m+n) X) with a
        positive scale.  At v = u/t, t > 0, it has the sign of
        u^(m-1) (t-u)^(n-1) (m t - (m+n) u): the product of the signs of the
        three bases, each raised to the parity of its exponent (x^0 = 1).
        """
        v = Fraction(v)
        m, n = self.m, self.n
        u, t = v.numerator, v.denominator
        sign = 1
        for base, e in ((u, m - 1), (t - u, n - 1), (m * t - (m + n) * u, 1)):
            if e:
                sign *= (base > 0) - (base < 0) if e % 2 else base != 0
        return sign

    def __str__(self) -> str:
        return f"B[{brief(self.m)},{brief(self.n)}]"


Stage = Union[RatMap, BmnStage]


# ---------------------------------------------------------------------------
# composition chains
# ---------------------------------------------------------------------------


class BelyiChain:
    """Ordered composition of stages with its critical-value profile.

    ``current_profile`` is the empty profile propagated through every stage
    (:func:`propagate_crit`), so the invariant holds by construction.  To
    compose onto a prior profile, fold :func:`propagate_crit` over the stages
    from that profile.
    """

    __slots__ = ("_stages", "_current_profile")

    def __init__(self, stages: Iterable[Stage] = ()):
        self._stages = tuple(stages)
        profile = CritProfile.empty()
        for stage in self._stages:
            profile = propagate_crit(profile, stage)
        self._current_profile = profile

    @property
    def stages(self) -> tuple:
        return self._stages

    @property
    def current_profile(self) -> CritProfile:
        return self._current_profile

    def eval_extended(self, v: ExtendedRational) -> ExtendedRational:
        for stage in self._stages:
            v = stage.eval_extended(v)
        return v

    def __len__(self) -> int:
        return len(self._stages)

    def __str__(self) -> str:
        return " . ".join(str(s) for s in reversed(self._stages)) or "id"


# ---------------------------------------------------------------------------
# the reduction of rational points to {0}
# ---------------------------------------------------------------------------


def _refuse_ratio(ratio: Tuple[int, int], stage_cap: Optional[int]) -> None:
    """Raise :class:`SizeGuard` when the ratio num/den that keys the next
    stage needs m+n = den over ``stage_cap``."""
    den = ratio[1]
    if stage_cap is not None and den > stage_cap:
        raise SizeGuard(
            f"next stage ratio {brief(ratio)} needs m+n = "
            f"{brief(den)}, over the cap {stage_cap}"
        )


def belyi_reduce(
    points: Iterable, stage_cap: Optional[int] = DEFAULT_STAGE_CAP
) -> BelyiChain:
    """Build a chain P with P(points) = {0}, finite critical values in {0, 1},
    0 < P(0) < 1 and P'(0) > 0.

    Construction: one quadratic stage (X - alpha)^2 / max maps the points
    into (0, 1] with 1 attained, an auxiliary point is inserted below the
    smallest image, then two-parameter stages keyed to the second-largest
    tracked value peel off one point each.  Deterministic choices:
    alpha = (largest negative input)/4 when negative inputs exist, else -1,
    and the auxiliary point is the midpoint of (image of 0, smallest mapped
    point).

    Raises :class:`SizeGuard` when a stage ratio would exceed ``stage_cap``
    (the offending ratio is reported) or a required exact evaluation would
    exceed ``DEFAULT_EVAL_WORK_BITS``.  After each stage is made the checks
    run in this order, before anything is multiplied out: the work cap for
    each remaining tracked value, in order, then the stage cap for the value
    that keys the next stage.  Its denominator has more than N bits, N the
    bound :func:`_denominator_bound` reads off its exponent vector.  When N
    is at least the cap's bit length and ``MESSAGE_BITS``, the denominator is
    over the cap and too long to print, so the value is refused with N and
    nothing is multiplied out; otherwise it is multiplied out and compared
    exactly.  The other values are multiplied out last.  So the first
    :class:`SizeGuard` is that of evaluating every value first, and so is its
    message, except that a denominator refused from its bound is named by N.
    """
    raw = list(points)
    pts = sorted({Fraction(p) for p in raw})
    if any(p == 0 for p in pts):
        raise OutOfRange("input points must be nonzero")
    if len(pts) < len(raw):
        _log("info", "belyi_reduce: duplicate inputs collapsed (%d -> %d)",
             len(raw), len(pts))
    if not pts:
        # Degenerate success: no points to kill.  (2X + 1)/4 has no critical
        # points, value 1/4 at 0 and positive derivative.
        return BelyiChain([RatMap(RatPoly((Fraction(1, 4), Fraction(1, 2))))])

    negatives = [p for p in pts if p < 0]
    alpha = max(negatives) / 4 if negatives else Fraction(-1)
    # the stage is (X - alpha)^2 / M, M the largest square, so its values
    # are read off the squares
    squares = sorted({(p - alpha) ** 2 for p in pts})
    peak_value = squares[-1]
    first = RatMap(RatPoly((alpha * alpha, -2 * alpha, 1)) * (1 / peak_value))

    mapped = [s / peak_value for s in squares]
    if len(mapped) < len(pts):
        _log("info", "belyi_reduce: quadratic stage merged symmetric points (%d -> %d)",
             len(pts), len(mapped))
    at_zero = alpha * alpha / peak_value
    assert mapped[-1] == 1 and 0 < at_zero < mapped[0]
    aux = (at_zero + mapped[0]) / 2
    # tracked values are pairs (numerator, denominator) in lowest terms, so
    # no stage builds a Fraction of its megabit value
    tracked = [(t.numerator, t.denominator) for t in [aux] + mapped]

    stages: List[Stage] = [first]
    _refuse_ratio(tracked[-2], stage_cap)
    while len(tracked) > 1:
        num, den = tracked[-2]
        stage = BmnStage(num, den - num)  # the ratio num/den lies in (0, 1)
        stages.append(stage)
        # the largest tracked value (always 1) maps to 0 and drops out, the
        # peak maps to 1, and the others stay strictly increasing because the
        # stage is increasing below its peak
        rest = tracked[:-2]
        for t in rest:
            stage._check_work(t)
        if rest:
            sign, base = _stage_vector(stage.m, stage.n, *rest[-1])
            bound = _denominator_bound(base)
            if stage_cap is not None and bound >= max(MESSAGE_BITS,
                                                      stage_cap.bit_length()):
                raise SizeGuard(f"next stage ratio needs m+n = <integer of more "
                                f"than {bound} bits>, over the cap {stage_cap}")
            keyed = _vector_pair(sign, base)
            _refuse_ratio(keyed, stage_cap)
            rest = [_stage_pair(stage.m, stage.n, *t) for t in rest[:-1]] + [keyed]
        tracked = rest + [(1, 1)]
    assert tracked == [(1, 1)]
    return BelyiChain(stages)


class ReductionReport(Record):
    """Outcome of the four-postcondition check of a reduction chain."""

    points_to_zero: bool
    critical_values_in_01: bool
    value_at_zero_in_unit_interval: bool
    derivative_positive_at_zero: bool
    value_at_zero: Optional[Fraction]  # None when certified only by interval

    @property
    def ok(self) -> bool:
        return (
            self.points_to_zero
            and self.critical_values_in_01
            and self.value_at_zero_in_unit_interval
            and self.derivative_positive_at_zero
        )


def verify_reduction(chain: BelyiChain, points: Iterable) -> ReductionReport:
    """Independently check the four postconditions of :func:`belyi_reduce`.

    Works only from the chain's stages and input points, never from the
    construction path.  The critical values are the chain's own
    ``current_profile``, which :class:`BelyiChain` propagated through the
    stages when it was built.  Each stage in turn gives the derivative sign
    and the value on the orbit of 0, the sign of P'(0) being the product of
    the signs (the chain rule), by exact evaluation throughout with one
    exception: when the *final* stage's exact output would blow the work cap
    ``DEFAULT_EVAL_WORK_BITS`` (only a :class:`BmnStage` has one),
    0 < P(0) < 1 is certified by strict monotonicity (input strictly between
    0 and the stage peak) instead of by value; ``value_at_zero`` is then None.
    A mid-chain blow-up raises :class:`SizeGuard` and a pole on the orbit of
    0 raises :class:`OutOfRange` — verification never passes silently.
    """
    pts = sorted({Fraction(p) for p in points})

    to_zero = all(chain.eval_extended(p) == 0 for p in pts)

    crit_ok = chain.current_profile.finite_values <= {Fraction(0), Fraction(1)}

    value: Optional[Fraction] = Fraction(0)
    sign = 1
    for idx, stage in enumerate(chain.stages):
        sign *= stage.derivative_sign_at(value)
        try:
            value = stage.eval_extended(value)
        except SizeGuard:
            if idx == len(chain.stages) - 1 and 0 < value < stage.peak:
                value = None  # certified: strictly increasing into (0, 1)
                break
            raise
    return ReductionReport(to_zero, crit_ok, value is None or 0 < value < 1, sign > 0, value)


# ---------------------------------------------------------------------------
# expression parsing (CLI wire syntax)
# ---------------------------------------------------------------------------


def _bits(f: RatMap) -> int:
    """Bits of the integers and denominators of a map's two polynomials."""
    return sum(sum(v.bit_length() for v in p._num) + p._den.bit_length()
               for p in (f.numerator, f.denominator))


def _power_bits(f: RatMap, e: int) -> int:
    """A bound on ``_bits(f ** e)`` for e >= 1.  For each polynomial p of f,
    p^e has at most e deg p + 1 terms (one for a monomial), and with P the
    integers of p, each integer of P^e is at most |P|_1^e."""
    total = 0
    for p in (f.numerator, f.denominator):
        nonzero = sum(1 for v in p._num if v)
        terms = e * p.degree + 1 if nonzero > 1 else nonzero
        total += (terms * (e * (sum(map(abs, p._num)) - 1).bit_length() + 1)
                  + e * (p._den - 1).bit_length() + 1)
    return total


class _Factor:
    """A parsed factor, ``base ** exponent`` negated if ``negate``, kept
    unexpanded until a product has been checked; exponent >= 0."""

    __slots__ = ("base", "exponent", "negate")

    def __init__(self, base: RatMap, exponent: int = 1, negate: bool = False):
        self.base, self.exponent, self.negate = base, exponent, negate

    @property
    def is_polynomial(self) -> bool:
        return self.base.is_polynomial

    @property
    def degree(self) -> int:
        return self.base.mapping_degree * self.exponent

    def expand(self) -> RatMap:
        value = self.base if self.exponent == 1 else self.base ** self.exponent
        return -value if self.negate else value


class _MapParser(Scanner):
    """Recursive-descent parser for exact map expressions.

    Grammar: ``expr := term (('+'|'-') term)*``, ``term := factor (('*'|'/')
    factor)*``, ``factor := ('-')* primary ['^' int]``, ``primary := integer |
    'X' | '(' expr ')'``.  Example: ``(X+27)^3 / (243*(X-9)^2)``.  Whitespace
    may separate tokens, but not the digits of one integer.  No map on the way
    may have degree above ``DEFAULT_EXPANSION_CAP`` or more than
    ``MAX_MAP_BITS`` bits (:class:`SizeGuard`); a power is checked, on bounds,
    and a product of two polynomials on its degree, before it is formed.
    Parentheses nest at most ``_exact.MAX_NESTING`` deep.
    """

    def check(self, degree: int, bits: int = 0) -> None:
        if degree > DEFAULT_EXPANSION_CAP:
            raise SizeGuard(
                f"map of degree {brief(degree)} before position {self.pos} "
                f"in expression is over the degree cap {DEFAULT_EXPANSION_CAP}"
            )
        if bits > MAX_MAP_BITS:
            raise SizeGuard(
                f"map of up to {brief(bits)} bits before position {self.pos} "
                f"in expression is over the size cap {MAX_MAP_BITS}"
            )

    def parse(self) -> RatMap:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at position {self.pos} in expression")
        return value

    def expr(self) -> RatMap:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
            self.check(value.mapping_degree, _bits(value))
        return value

    def term(self) -> RatMap:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if op == "*" and value.is_polynomial and rhs.is_polynomial:
                # deg(a b) = deg a + deg b for nonzero polynomials (a zero one
                # adds 0 to a degree within the cap), so the product is refused
                # before either power is expanded
                self.check(value.degree + rhs.degree)
            a, b = value.expand(), rhs.expand()
            product = a * b if op == "*" else a / b
            self.check(product.mapping_degree, _bits(product))
            value = _Factor(product)
        return value.expand()

    def factor(self) -> "_Factor":
        negate = False
        while self.peek() == "-":
            self.take()
            negate = not negate
        value = self.primary()
        exponent = 1
        if self.peek() == "^":
            self.take()
            exponent = self.integer()
            e = abs(exponent)
            self.check(value.mapping_degree * e, _power_bits(value, e))
            if exponent < 0:
                # may divide by zero, which is reported where it happens
                value, exponent = value ** exponent, 1
        return _Factor(value, exponent, negate)

    def primary(self) -> RatMap:
        c = self.peek()
        if c is None:
            raise ParseError("unexpected end of expression")
        if c in ("X", "x"):
            self.take()
            return RatMap(X)
        if c == "(":
            self.take()
            value = self.nested(self.expr)
            if self.take() != ")":
                raise ParseError(f"missing ')' at position {self.pos}")
            return value
        if c.isdecimal():
            return RatMap(RatPoly((self.integer(),)))
        raise ParseError(f"unexpected {c!r} at position {self.pos} in expression")


def parse_map(text: str) -> RatMap:
    """Parse an exact rational-map expression, e.g. ``(X+27)^3/(243*(X-9)^2)``.

    A map of degree above ``DEFAULT_EXPANSION_CAP`` raises :class:`SizeGuard`.
    """
    return _MapParser(text).parse()


def parse_poly(text: str) -> RatPoly:
    """Parse an expression that must reduce to a polynomial."""
    m = parse_map(text)
    if not m.is_polynomial:
        raise ParseError(f"expected a polynomial, got denominator {m.denominator}")
    return m.numerator
