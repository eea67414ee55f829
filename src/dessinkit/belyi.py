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
  over the integers,
* :func:`belyi_reduce`, which sends a finite set of nonzero rationals to 0 by
  a composition chain whose finite critical values stay inside {0, 1}, with
  an independent postcondition verifier (:func:`verify_reduction`).
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ._exact import PRINT_BITS, Scanner, brief, int_poly_mul, is_prime, power
from .errors import (
    IrrationalCriticalPoints,
    NotCoprime,
    OutOfRange,
    ParseError,
    SizeGuard,
)

__all__ = [
    "RatPoly",
    "RatMap",
    "CritProfile",
    "BmnParams",
    "BmnStage",
    "BelyiChain",
    "INFINITY",
    "bmn",
    "finite_critical_values",
    "propagate_crit",
    "pair_from_ratio",
    "rational_roots",
    "sturm_count",
    "certify_increasing",
    "belyi_reduce",
    "verify_reduction",
    "ReductionReport",
    "parse_map",
    "parse_poly",
]

logger = logging.getLogger(__name__)

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


INFINITY = _Infinity()

ExtendedRational = Union[Fraction, _Infinity]


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class RatPoly:
    """Polynomial with exact rational coefficients, low degree first.

    Held as integers over one positive denominator in lowest terms, with no
    trailing zero integer, so equal polynomials have equal fields.
    """

    __slots__ = ("_ints", "_den")

    def __init__(self, coefficients: Iterable = ()):
        coeffs = [Fraction(c) for c in coefficients]
        den = math.lcm(*(c.denominator for c in coeffs))
        poly = RatPoly._lowest([c.numerator * (den // c.denominator) for c in coeffs], den)
        self._ints, self._den = poly._ints, poly._den

    @classmethod
    def _lowest(cls, ints: list, den: int = 1) -> "RatPoly":
        """The polynomial with coefficients ints[i] / den (den nonzero); pops
        ints' trailing zeros."""
        while ints and not ints[-1]:
            ints.pop()
        g = math.gcd(den, *ints)
        if den < 0:
            g = -g
        poly = object.__new__(cls)
        poly._ints = tuple(ints) if g == 1 else tuple(v // g for v in ints)
        poly._den = den // g
        return poly

    @property
    def coefficients(self) -> tuple:
        return tuple(Fraction(v, self._den) for v in self._ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self._ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._ints[-1], self._den)

    def __call__(self, v: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self._ints):
            acc = acc * v + c
        return acc / self._den

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatPoly) and self._den == other._den
                and self._ints == other._ints)

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    def __add__(self, other: "RatPoly") -> "RatPoly":
        a = [v * other._den for v in self._ints]
        b = [v * self._den for v in other._ints]
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return RatPoly._lowest(a, self._den * other._den)

    def __neg__(self) -> "RatPoly":
        return RatPoly._lowest([-v for v in self._ints], self._den)

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly._lowest([v * other.numerator for v in self._ints],
                                   self._den * other.denominator)
        if not self._ints or not other._ints:
            return RatPoly()
        return RatPoly._lowest(int_poly_mul(self._ints, other._ints),
                               self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "RatPoly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        return power(self, exponent, ONE_POLY, operator.mul)

    def derivative(self) -> "RatPoly":
        return RatPoly._lowest(_derivative(self._ints), self._den)

    def primitive_integer_coeffs(self) -> tuple:
        """Integer coefficients after clearing denominators and content."""
        return tuple(_primitive(self._ints)) if self._ints else ()

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        coeffs = self.coefficients
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            mag = brief(-c if c < 0 else c, PRINT_BITS)
            if i == 0:
                body = str(mag)
            else:
                xs = "X" if i == 1 else f"X^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

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
            raise ZeroDivisionError("zero denominator")
        if numerator.is_zero:
            self._num, self._den = RatPoly(), ONE_POLY
            return
        a, b = numerator._ints, denominator._ints
        g = _poly_gcd(a, b)
        if len(g) > 1:
            a, b = _quotient(a, g), _quotient(b, g)
        self._num = RatPoly._lowest([v * denominator._den for v in a],
                                    numerator._den * b[-1])
        self._den = _monic(b)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMap)
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    # field operations, used by the expression parser
    def __add__(self, other: "RatMap") -> "RatMap":
        return RatMap(
            self._num * other._den + other._num * self._den,
            self._den * other._den,
        )

    def __neg__(self) -> "RatMap":
        return RatMap(-self._num, self._den)

    def __sub__(self, other: "RatMap") -> "RatMap":
        return self + (-other)

    def __mul__(self, other: "RatMap") -> "RatMap":
        return RatMap(self._num * other._num, self._den * other._den)

    def __truediv__(self, other: "RatMap") -> "RatMap":
        if other._num.is_zero:
            raise ZeroDivisionError("division by the zero map")
        return RatMap(self._num * other._den, self._den * other._num)

    def __pow__(self, exponent: int) -> "RatMap":
        if exponent < 0:
            return RatMap(self._den, self._num) ** (-exponent)
        return RatMap(self._num ** exponent, self._den ** exponent)

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
        return self._num.derivative() * self._den - self._num * self._den.derivative()

    def derivative_sign_at(self, v: Fraction) -> int:
        """Sign of the derivative at a non-pole rational point."""
        v = Fraction(v)
        if self._den(v) == 0:
            raise OutOfRange(f"derivative sign requested at pole {v}")
        w = self.wronskian()(v)
        return (w > 0) - (w < 0)

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


@dataclass(frozen=True)
class CritProfile:
    """Finite critical values plus an explicit flag for infinity.

    The finite/infinite split follows the usual convention for Belyi
    polynomials, whose set of finite critical values excludes the point at
    infinity even though every polynomial of degree >= 2 ramifies there.
    """

    finite_values: frozenset
    includes_infinity: bool

    @classmethod
    def empty(cls) -> "CritProfile":
        return cls(frozenset(), False)

    @classmethod
    def of(cls, values: Iterable, includes_infinity: bool = False) -> "CritProfile":
        return cls(frozenset(Fraction(v) for v in values), includes_infinity)

    def sorted_finite(self) -> list:
        return sorted(self.finite_values)

    def __str__(self) -> str:
        items = [str(brief(v, PRINT_BITS)) for v in self.sorted_finite()]
        if self.includes_infinity:
            items.append("inf")
        return "{" + ", ".join(items) + "}"


def finite_critical_values(f: RatMap) -> CritProfile:
    """Critical-value profile of a rational map.

    Finite critical points are the roots of the Wronskian (poles of order
    >= 2 are among them and contribute infinity); infinity itself is a
    critical point when the map ramifies there.  Requires every critical
    point to be rational: a Wronskian factor without rational roots raises
    :class:`IrrationalCriticalPoints` carrying the offending cofactor.
    """
    if f.mapping_degree <= 0:
        return CritProfile.empty()
    finite = set()
    includes_inf = False

    w = f.wronskian()
    if not w.is_zero and w.degree >= 1:
        roots, cofactor = rational_roots(w)
        if cofactor.degree >= 1:
            raise IrrationalCriticalPoints(
                f"critical points are not all rational; cofactor {cofactor}",
                cofactor=cofactor,
            )
        for r in roots:
            value = f.eval_extended(r)
            if value is INFINITY:
                includes_inf = True
            else:
                finite.add(value)

    dn, dd = f.numerator.degree, f.denominator.degree
    if dn != dd:
        ram_inf = abs(dn - dd)
        value_inf: ExtendedRational = INFINITY if dn > dd else Fraction(0)
    else:
        c = f.numerator.leading / f.denominator.leading
        diff = f.numerator - f.denominator * c
        ram_inf = dn - diff.degree  # diff is nonzero for a nonconstant map
        value_inf = c
    if ram_inf >= 2:
        if value_inf is INFINITY:
            includes_inf = True
        else:
            finite.add(value_inf)
    return CritProfile(frozenset(finite), includes_inf)


def propagate_crit(profile: CritProfile, f) -> CritProfile:
    """Critical profile of ``f . g`` given the profile of ``g``.

    ``f`` may be a :class:`RatMap` or a :class:`BmnStage`.
    """
    out = f.finite_critical_values()
    finite = set(out.finite_values)
    includes_inf = out.includes_infinity
    values: List[ExtendedRational] = list(profile.finite_values)
    if profile.includes_infinity:
        values.append(INFINITY)
    for v in values:
        w = f.eval_extended(v)
        if w is INFINITY:
            includes_inf = True
        else:
            finite.add(w)
    return CritProfile(frozenset(finite), includes_inf)


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
    """A positive multiple of the remainder of a by b (deg a >= deg b).

    Each step scales by |lc(b)| over its gcd with the top coefficient, as
    the pseudo-remainder scales by |lc(b)|^(deg a - deg b + 1), so the sign
    of the remainder over Q is kept.
    """
    r = list(a)
    n, lead = len(b) - 1, b[-1]
    while len(r) > n:
        top = r.pop()
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
    nonzero) down to a constant or to the last nonzero term.

    Every term is a positive multiple of the matching term of the Euclidean
    sequence over Q, so the last term is gcd(a, b), and for b = a' the
    sequence is the Sturm chain of a.
    """
    seq = [a, b]
    while len(seq[-1]) > 1:
        r = _prem(seq[-2], seq[-1])
        if not r:
            break
        seq.append(_primitive([-v for v in r]))
    return seq


def _poly_gcd(a: Sequence[int], b: Sequence[int]) -> list:
    """Primitive gcd of integer polynomials, a nonzero: the last term of
    their remainder sequence."""
    a = _primitive(a)
    if not b:
        return a
    b = _primitive(b)
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
    signs = [s for s in (_sign_at(q, t.numerator, t.denominator) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: RatPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of ``p`` in the half-open (lo, hi].

    Exact, via the Sturm chain of the squarefree part with the zero-skipping
    sign-variation convention (which makes the half-open count correct even
    when an endpoint is itself a root).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise OutOfRange(f"empty interval ({lo}, {hi}]")
    if p.is_zero:
        raise ValueError("sturm_count of the zero polynomial")
    if p.degree < 1:
        return 0
    chain = _squarefree_chain(p.primitive_integer_coeffs())
    return _variations(chain, lo) - _variations(chain, hi)


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
        raise OutOfRange(f"empty interval ({lo}, {hi}]")
    d = _derivative(f._ints)  # a positive multiple of f'
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
        a = RatPoly._lowest(_poly_gcd(b, e))
        if odd and sturm_count(a, lo, hi) > (a(hi) == 0):
            return False
        b, c, odd = _quotient(b, a._ints), _quotient(e, a._ints), not odd
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


def _squarefree_mod(f: Sequence[int], p: int) -> bool:
    """Whether f mod p is squarefree, for a prime p > deg f not dividing
    lc(f): Euclid's gcd of f and f' over GF(p) is a constant."""
    a = [c % p for c in f]
    b = [c % p for c in _derivative(f)]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            t, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - t * c) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _least_exponent_above(p: int, bound: int) -> int:
    """The least E with p^E > bound, for p > 1: the greatest j with
    p^j <= bound is read off in binary from p, p^2, p^4, ..."""
    squares = [p]
    while squares[-1] <= bound:
        squares.append(squares[-1] * squares[-1])
    j, acc = 0, 1
    for i in reversed(range(len(squares) - 1)):
        if acc * squares[i] <= bound:
            acc *= squares[i]
            j += 1 << i
    return j + 1


def _squarefree_roots(f: Sequence[int]) -> list:
    """Rational roots, ascending, of a squarefree primitive integer
    polynomial f of degree d >= 1 (Loos 1983).

    Every rational root is k/a, a = lc(f), with |k| < B = |a| + max|f_i|
    (Cauchy).  Modulo the least prime p > d that does not divide a and
    leaves f mod p squarefree, every root is simple, so Newton lifts it to a
    unique root r mod p^E, E the least exponent with p^E > 2B; the symmetric
    residue of a*r is then the only candidate k, tested by exact integer
    evaluation.
    """
    a = f[-1]
    bound = abs(a) + max(abs(c) for c in f[:-1])
    p = len(f)
    while not (is_prime(p) and a % p and _squarefree_mod(f, p)):
        p += 1
    lifted = [r for r in range(p) if not _eval_mod(f, r, p)]
    deriv = _derivative(f)
    # a Newton step from p^e reaches p^(2e), so the precisions halve (upward)
    # from the least E with p^E > 2B down to 1, and the last step stops at E
    precisions = [_least_exponent_above(p, 2 * bound)]
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
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("rational_roots: degree %d, prime %d, lifted to p^%d",
                     len(f) - 1, p, e)
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

    The roots of the squarefree part come from p-adic lifting
    (:func:`_squarefree_roots`); each one, ascending after 0, is stripped to
    full multiplicity by exact integer division.  The cost is polynomial in
    the degree and in the coefficient bits: nothing is factored.
    """
    if p.is_zero:
        raise ValueError("rational_roots of the zero polynomial")
    roots: dict = {}
    work = p.primitive_integer_coeffs()
    # strip the root at 0 first so the trailing coefficient is nonzero
    k = next(i for i, c in enumerate(work) if c)
    if k:
        roots[Fraction(0)] = k
        work = work[k:]
    if len(work) > 1:
        for root in _squarefree_roots(_squarefree_chain(work)[0]):
            linear, mult = (-root.numerator, root.denominator), 0
            while (quotient := _quotient(work, linear)) is not None:
                work, mult = quotient, mult + 1
            roots[root] = mult
    return roots, _monic(work)


# ---------------------------------------------------------------------------
# the two-parameter Belyi family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BmnParams:
    """Coprime positive exponent pair of the Belyi polynomial family."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise OutOfRange(f"exponents must be positive, got ({self.m}, {self.n})")
        if math.gcd(self.m, self.n) != 1:
            raise NotCoprime(f"({self.m}, {self.n}) are not coprime")

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


def _strip(a: int, g: int) -> Tuple[int, int]:
    """``(j, a // g**j)`` for the largest j with g**j dividing a (g > 1).

    g, g^2, g^4, ... are divided out while they divide, and the rest of j is
    read off in binary, so a high power costs O(log j) divisions.
    """
    squares = []
    while a % g == 0:
        a //= g
        squares.append(g)
        g *= g
    j = (1 << len(squares)) - 1
    for i in reversed(range(len(squares))):
        if a % squares[i] == 0:
            a //= squares[i]
            j += 1 << i
    return j, a


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
                j, a = _strip(a, g)
                k, b = _strip(b, g)
                pending += [(x, e) for x, e in ((g, j * ea + k * eb), (a, ea), (b, eb))
                            if x > 1]
                break
        else:
            base[a] = ea
    return base


def _stage_pair(m: int, n: int, p: int, q: int) -> Tuple[int, int]:
    """The (m, n) stage's value at p/q (q > 0, p neither 0 nor q) as a pair
    (numerator, denominator > 0) in lowest terms, even when p/q is not.

    The value is N/D with N = T^T p^m (q-p)^n, D = m^m n^n q^T and T = m+n.
    Its exponents are summed on the coprime base of T, |p|, |q-p|, m, n and
    q, so the two sides multiplied out are already coprime: no gcd of N and
    D is taken.
    """
    total = m + n
    base = _coprime_base([(total, total), (abs(p), m), (abs(q - p), n),
                          (m, -m), (n, -n), (q, -total)])
    num = math.prod(b**e for b, e in base.items() if e > 0)
    den = math.prod(b**-e for b, e in base.items() if e < 0)
    if (p < 0 and m % 2 == 1) != (p > q and n % 2 == 1):
        num = -num
    return num, den


class BmnStage(BmnParams):
    """Symbolic chain stage for the two-parameter family.

    ``m`` and ``n`` may be huge integers: the stage is never expanded, and
    evaluation at 0, 1 and the peak m/(m+n) costs nothing.  Generic exact
    evaluation is allowed only under a work cap; it divides out the value's
    common factors on a coprime base and never takes the gcd of the full products.
    """

    def finite_critical_values(self) -> CritProfile:
        return CritProfile.of((0, 1), includes_infinity=True)

    def eval_extended(self, v: ExtendedRational) -> ExtendedRational:
        if v is INFINITY:
            return INFINITY
        v = Fraction(v)
        return Fraction(*self._eval_pair((v.numerator, v.denominator)))

    def _eval_pair(self, v: Tuple[int, int]) -> Tuple[int, int]:
        """The value at a pair (p, q) in lowest terms, q > 0, as such a pair.

        Raises :class:`SizeGuard` when the estimated size of the result is
        over ``DEFAULT_EVAL_WORK_BITS``.
        """
        p, q = v
        if p == 0 or p == q:
            return 0, 1
        m, n = self.m, self.n
        total = m + n
        if (p, q) == (m, total):
            return 1, 1
        estimate = total * (total.bit_length() + p.bit_length() + q.bit_length())
        if estimate > DEFAULT_EVAL_WORK_BITS:
            raise SizeGuard(
                f"exact evaluation of stage ({brief(m, 256)}, {brief(n, 256)}) at "
                f"{brief(v, 256)} needs about {brief(estimate, 256)} bits, over the "
                f"work cap {DEFAULT_EVAL_WORK_BITS}"
            )
        return _stage_pair(m, n, p, q)

    def derivative_sign_at(self, v: Fraction) -> int:
        """Exact sign of the derivative, without any big arithmetic.

        The derivative is scale * X^(m-1) (1-X)^(n-1) (m - (m+n) X) with a
        positive scale, so the sign is a product of three cheap sign checks.
        """
        v = Fraction(v)
        m, n = self.m, self.n
        if v == 0:
            return 1 if m == 1 else 0
        if v == 1:
            return -1 if n == 1 else 0
        sign = 1
        if v < 0 and (m - 1) % 2:
            sign = -sign
        if v > 1 and (n - 1) % 2:
            sign = -sign
        linear = m * v.denominator - (m + n) * v.numerator
        if linear == 0:
            return 0
        if linear < 0:
            sign = -sign
        return sign

    def __str__(self) -> str:
        return f"B[{brief(self.m, 256)},{brief(self.n, 256)}]"


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
    exceed ``DEFAULT_EVAL_WORK_BITS``.
    """
    raw = list(points)
    pts = sorted({Fraction(p) for p in raw})
    if any(p == 0 for p in pts):
        raise OutOfRange("input points must be nonzero")
    if len(pts) < len(raw):
        logger.info("belyi_reduce: duplicate inputs collapsed (%d -> %d)",
                    len(raw), len(pts))
    if not pts:
        # Degenerate success: no points to kill.  (2X + 1)/4 has no critical
        # points, value 1/4 at 0 and positive derivative.
        return BelyiChain([RatMap(RatPoly((Fraction(1, 4), Fraction(1, 2))))])

    negatives = [p for p in pts if p < 0]
    alpha = max(negatives) / 4 if negatives else Fraction(-1)
    f_alpha = RatPoly((alpha * alpha, -2 * alpha, 1))  # (X - alpha)^2
    peak_value = max(f_alpha(p) for p in pts)
    first = RatMap(f_alpha * (1 / peak_value))

    mapped = sorted({first.eval_extended(p) for p in pts})
    if len(mapped) < len(pts):
        logger.info("belyi_reduce: quadratic stage merged symmetric points "
                    "(%d -> %d)", len(pts), len(mapped))
    at_zero = first.eval_extended(Fraction(0))
    assert mapped[-1] == 1 and 0 < at_zero < mapped[0]
    aux = (at_zero + mapped[0]) / 2
    # tracked values are pairs (numerator, denominator) in lowest terms, so
    # no stage builds a Fraction of its megabit value
    tracked = [(t.numerator, t.denominator) for t in [aux] + mapped]

    stages: List[Stage] = [first]
    while len(tracked) > 1:
        num, den = tracked[-2]
        if stage_cap is not None and den > stage_cap:
            raise SizeGuard(
                f"next stage ratio {brief(tracked[-2], 256)} needs m+n = "
                f"{brief(den, 256)}, over the cap {stage_cap}"
            )
        stage = BmnStage(num, den - num)  # the ratio num/den lies in (0, 1)
        # the largest tracked value (always 1) maps to 0 and drops out; the
        # others stay strictly increasing because the stage is increasing
        # below its peak
        tracked = [stage._eval_pair(t) for t in tracked[:-1]]
        stages.append(stage)
    assert tracked == [(1, 1)]
    return BelyiChain(stages)


@dataclass(frozen=True)
class ReductionReport:
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
    and the value on the orbit of 0, by exact evaluation throughout with one
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
    in_unit = True
    derivative_positive = True
    for idx, stage in enumerate(chain.stages):
        if stage.derivative_sign_at(value) <= 0:
            derivative_positive = False
        try:
            value = stage.eval_extended(value)
        except SizeGuard:
            if idx == len(chain.stages) - 1 and 0 < value < stage.peak:
                value = None  # certified: strictly increasing into (0, 1)
                break
            raise
    if value is not None:
        in_unit = 0 < value < 1
    return ReductionReport(
        points_to_zero=to_zero,
        critical_values_in_01=crit_ok,
        value_at_zero_in_unit_interval=in_unit,
        derivative_positive_at_zero=derivative_positive,
        value_at_zero=value,
    )


# ---------------------------------------------------------------------------
# expression parsing (CLI wire syntax)
# ---------------------------------------------------------------------------


def _bits(f: RatMap) -> int:
    """Bits of the integers and denominators of a map's two polynomials."""
    return sum(sum(v.bit_length() for v in p._ints) + p._den.bit_length()
               for p in (f.numerator, f.denominator))


def _power_bits(f: RatMap, e: int) -> int:
    """A bound on ``_bits(f ** e)`` for e >= 1.  For each polynomial p of f,
    p^e has at most e deg p + 1 terms (one for a monomial), and with P the
    integers of p, each integer of P^e is at most |P|_1^e."""
    total = 0
    for p in (f.numerator, f.denominator):
        nonzero = sum(1 for v in p._ints if v)
        terms = e * p.degree + 1 if nonzero > 1 else nonzero
        total += (terms * (e * (sum(map(abs, p._ints)) - 1).bit_length() + 1)
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
                f"map of degree {brief(degree, 256)} before position {self.pos} "
                f"in expression is over the degree cap {DEFAULT_EXPANSION_CAP}"
            )
        if bits > MAX_MAP_BITS:
            raise SizeGuard(
                f"map of up to {brief(bits, 256)} bits before position {self.pos} "
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
