"""Exact arithmetic in the tower field Q(zeta_p, q^(1/p)).

For an odd prime p and a positive rational q that is not a pth power, the
field is a p(p-1)-dimensional Q-algebra with basis zeta^i * t^j for
0 <= i < p-1, 0 <= j < p, subject to the cyclotomic relation
1 + zeta + ... + zeta^(p-1) = 0 and the Kummer relation t^p = q.  It is
Galois over Q with group Z/p x| (Z/p)^*: the automorphisms send
zeta -> zeta^u and t -> zeta^i t.

An element is an ``_exact.Vector``, the normal form ``RatPoly`` shares:
integers over one positive denominator, in lowest terms and with no trailing
zero slot, added, negated and compared by the operators of that class and
printed by ``_exact.signed_sum``.  Slot j*(p-1) + i holds the numerator of the
coordinate of zeta^i t^j, so the slots run in t-blocks of p-1.  A product is
one integer polynomial product (``_exact.int_poly_mul``, Kronecker
substitution or term by term as the operand sizes choose) of the two vectors
spread to 2p-3 slots per t-block, and the result is folded by t^p = q (q's
numerator and denominator kept apart) and then by
zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).

The Galois action does the work beyond ring arithmetic.  An inverse is the
product of an element's other conjugates divided by its norm, taken down the
tower: the conjugates under t -> zeta^i t multiply it into Q(zeta), and those
under zeta -> zeta^u multiply that into Q.  The norm of a nonzero element
is never zero, because t^p - q is irreducible over Q(zeta_p).

The module also computes j-invariants of branch-point triples
(a, b, c, infinity) of curves y^2 = (x-a)(x-b)(x-c), and checks that the
p(p-1) Galois conjugates of the triple (0, 1 - zeta, gamma * t) have pairwise
distinct j-invariants, which certifies the conjugate curves are pairwise
non-isomorphic.  j is a rational function of the triple with rational
coefficients, so the j-invariants of the conjugates are the Galois images of
one j-invariant; two of them agree iff the quotient of their labels fixes it.

That check first tries a certificate in a prime field, which proves the
conjugates distinct without computing j in the tower.  Let l be a prime with
l = 1 mod p, l != 1 mod p^2, dividing no numerator or denominator of q and
gamma, at which q is a pth power; let w be a primitive pth root of 1 and r a
pth root of q in GF(l).  The elements of the field whose coordinates have
denominators prime to l form a ring, Z_(l)[zeta, t] = Z_(l)[x, y] /
(Phi_p(x), y^p - q), and zeta -> w, t -> r, coordinates read mod l, is a ring
map phi from it onto GF(l), since Phi_p(w) = 0 and r^p = q there.  The
automorphisms keep that ring, so each phi sigma_(i,u) (zeta -> w^u,
t -> w^i r) is a ring map too.  j = N / D with N and D in the ring, and the
triple's images are (0, 1 - w^u, gamma w^i r).  If sigma(j) = tau(j), then
sigma(N) tau(D) = tau(N) sigma(D), so wherever phi sigma(D) and phi tau(D)
are nonzero, the images phi sigma(N) / phi sigma(D) of j under the two maps
agree.  So p(p-1) pairwise distinct images, with no divisor vanishing mod l,
prove the p(p-1) conjugates of j pairwise distinct; a prime whose images
collide proves nothing, and after a fixed number of such primes the check
computes j exactly.  The images are ``j_invariant_of_triple`` evaluated on a
triple of ``_Residues``, the ring GF(l)^(p(p-1)) with one slot per map.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Optional, Tuple

from ._exact import (
    Record,
    Vector,
    brief,
    check_odd_prime,
    exponent_of,
    int_poly_mul,
    integer_root,
    is_prime,
    lowest,
    power,
    signed_sum,
)
from .errors import (
    DegenerateTriple,
    DivisionByZero,
    FieldMismatch,
    NotAUnit,
    OutOfRange,
    ResourceLimit,
)

#: The largest prime p a tower is built for.  ``conjugate_triples_distinct``
#: certifies p = 23 by prime images in about 2-3 ms of CPU with q = 2,
#: gamma = 1 and with q = 7/3, gamma = 3/5, and p = 29 in 4 ms; the exact
#: path it falls back to takes 0.11 s and 0.58 s at p = 23, and 2.4 s at
#: p = 29 (Python 3.11 on one core of a 2-CPU x86-64 host).  The cap stays
#: for that fallback, and for ``tower jinv``, which computes j exactly.
MAX_P = 23


class TowerField:
    """The field Q(zeta_p, q^(1/p)) for odd prime p and non-pth-power q > 0."""

    def __init__(self, p: int, q):
        q = Fraction(q)
        if p < 2**64:  # a larger p is refused by the cap, untested
            check_odd_prime(p)
        if p > MAX_P:
            raise ResourceLimit(
                f"p = {brief(p)} is above {MAX_P}, the largest tower prime")
        if q <= 0:
            raise OutOfRange(f"q must be positive, got {q}")
        # q > 0 in lowest terms is a pth power iff numerator and denominator are
        if all(integer_root(v, p) is not None for v in (q.numerator, q.denominator)):
            raise OutOfRange(f"q = {q} is a {p}th power of a rational")
        self.p = p
        self.q = q
        self.dimension = p * (p - 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, TowerField) and (self.p, self.q) == (other.p, other.q)

    def __hash__(self) -> int:
        return hash((self.p, self.q))

    def __repr__(self) -> str:
        return f"TowerField(p={self.p}, q={self.q})"

    # -- element constructors -------------------------------------------------

    def zero(self) -> "TowerElement":
        return TowerElement(self, {})

    def one(self) -> "TowerElement":
        return self.rational(1)

    def rational(self, value) -> "TowerElement":
        return TowerElement(self, {(0, 0): value})

    def zeta(self, power: int = 1) -> "TowerElement":
        """zeta^power as an element (power taken mod p)."""
        return self.element({(power, 0): 1})

    def root(self) -> "TowerElement":
        """The chosen pth root t of q."""
        return self.element({(0, 1): 1})

    def element(self, coords) -> "TowerElement":
        """Element from a {(zeta_exp, t_exp): coefficient} mapping with any
        integer exponents, reduced into the basis by zeta^p = 1, t^p = q and
        zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))."""
        return TowerElement(self, coords)


def _fold_zeta(rows, p: int) -> list:
    """Flat slots of t-blocks given by their coefficients of zeta^0, zeta^1,
    ... (p to 2p-1 of them), folded by zeta^p = 1 and
    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).  Empties ``rows``, so the
    slots of a row are freed once it is folded."""
    out = []
    rows.reverse()
    while rows:
        row = rows.pop()
        for k in range(p, len(row)):
            row[k - p] += row[k]
        del row[p:]
        top = row.pop()
        out.extend([c - top for c in row] if top else row)
    return out


class TowerElement(Vector):
    """Element with exact rational coordinates over the fixed basis.

    ``TowerElement(field, coords)`` takes a {(zeta_exp, t_exp): coefficient}
    mapping, like :meth:`TowerField.element`.  Sums, negation, equality and
    hashing are ``_exact.Vector``'s: an int or a Fraction operand is the
    rational element, and two elements combine only in one field.
    """

    __slots__ = ("field",)

    def __init__(self, field: TowerField, coords: dict):
        p = field.p
        qn, qd = field.q.numerator, field.q.denominator
        terms = []
        for (i, j), c in coords.items():
            c = Fraction(c)
            if not c:
                continue
            # t^j = q^k t^(j mod p)
            k, j = divmod(j, p)
            up, down = (qn, qd) if k >= 0 else (qd, qn)
            k = abs(k)
            terms.append((j * p + i % p, c.numerator * up**k, c.denominator * down**k))
        den = math.lcm(*(d for _, _, d in terms))
        slots = [0] * (p * p)
        for at, n, d in terms:
            slots[at] += n * (den // d)
        rows = [slots[j * p:(j + 1) * p] for j in range(p)]
        self.field = field
        self._num, self._den = lowest(_fold_zeta(rows, p), den)

    def _like(self, nums: list, den: int) -> "TowerElement":
        """The element of self's field with integer slots ``nums`` over ``den``."""
        e = object.__new__(TowerElement)
        e.field = self.field
        e._num, e._den = lowest(nums, den)
        return e

    @property
    def _space(self) -> TowerField:
        return self.field

    @property
    def coordinates(self) -> dict:
        """Sparse {(zeta_exp, t_exp): Fraction} view of the coordinates."""
        m, den = self.field.p - 1, self._den
        return {(k % m, k // m): Fraction(c, den) for k, c in enumerate(self._num) if c}

    def is_rational(self) -> bool:
        return len(self._num) <= 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise OutOfRange(f"{self} is not rational")
        return Fraction(self._num[0], self._den) if self._num else Fraction(0)

    def __mul__(self, other):
        if type(other) is not TowerElement:
            return self._scale(other)
        field = self.field
        a, (b, b_den) = self._num, self._operand(other)
        if not a or not b:
            return self._like([], 1)
        p = field.p
        m, s = p - 1, 2 * p - 3
        # zeta^i t^j at position j s + i: with 2p-3 positions per t-block, no
        # zeta power of a product (at most 2p-4) reaches the next block
        spread_a = _spread(a, m, s)
        spread_b = spread_a if b is a else _spread(b, m, s)
        raw = int_poly_mul(spread_a, spread_b)
        n = -(-len(a) // m) + -(-len(b) // m) - 1
        raw += [0] * (n * s - len(raw))
        rows = [raw[j * s:(j + 1) * s] for j in range(n)]
        del raw  # the rows hold the only copy of the product
        den = self._den * b_den
        if n > p:
            # t^(p+j) = q t^j, over the denominator times q's
            qn, qd = field.q.numerator, field.q.denominator
            rows = [
                [qd * x + qn * y for x, y in zip(low, high)]
                for low, high in zip(rows, rows[p:])
            ] + [[qd * x for x in low] for low in rows[n - p:p]]
            den *= qd
        return self._like(_fold_zeta(rows, p), den)

    __rmul__ = __mul__

    def __pow__(self, exponent) -> "TowerElement":
        exponent = exponent_of(exponent)
        if exponent is None:
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, self.field.one(), operator.mul)

    def inverse(self) -> "TowerElement":
        """Multiplicative inverse: the other conjugates over the norm.

        With sigma_i: t -> zeta^i t and tau_u: zeta -> zeta^u,
        c1 = prod_{0<i<p} sigma_i(x) makes n1 = x c1 the norm of x to Q(zeta),
        c2 = prod_{1<u<p} tau_u(n1) makes N = n1 c2 its norm to Q, and
        x^-1 = c1 c2 / N.  N is not zero: [Q(zeta_p) : Q] = p - 1 is prime to
        p, so q, not a pth power in Q, is none in Q(zeta_p) either, and
        t^p - q is irreducible over Q(zeta_p) (Lang, *Algebra*, VI §9).
        """
        if self.is_zero:
            raise DivisionByZero("inverse of zero in the tower field")
        field = self.field
        p = field.p
        c1 = math.prod(galois_apply(field, i, 1, self) for i in range(1, p))
        n1 = self * c1
        c2 = math.prod(galois_apply(field, 0, u, n1) for u in range(2, p))
        return c1 * c2 / (n1 * c2).rational_value()

    def __truediv__(self, other):
        if self._operand(other) is None:  # another field raises before the inverse
            return NotImplemented
        if type(other) is TowerElement:
            return self * other.inverse()
        if not other:
            raise DivisionByZero("division by zero in the tower field")
        return self._scale(1 / Fraction(other))

    def __str__(self) -> str:
        return signed_sum((c, (("z", i), ("t", j)))
                          for (i, j), c in sorted(self.coordinates.items()))

    def __repr__(self) -> str:
        return f"TowerElement({self!s})"


def _spread(nums, m: int, s: int) -> list:
    """The slots of ``nums`` in t-blocks of m, each block padded to s."""
    gap = [0] * (s - m)
    out = list(nums[:m])
    for j in range(m, len(nums), m):
        out += gap
        out += nums[j:j + m]
    return out


# ---------------------------------------------------------------------------
# Galois action
# ---------------------------------------------------------------------------


def galois_apply(field: TowerField, i: int, u: int, e: TowerElement) -> TowerElement:
    """Automorphism zeta -> zeta^u, t -> zeta^i t applied to an element.

    (i, u) composes by the semidirect product law; u must be a unit mod p.
    """
    p = field.p
    if u % p == 0:
        raise NotAUnit(f"u = {u} is not invertible mod {p}")
    if e.field != field:
        raise FieldMismatch("element belongs to a different tower")
    # zeta^a t^b -> zeta^(u a + i b) t^b, one-to-one on the exponents a mod p
    m = p - 1
    rows = []
    for b in range(0, len(e._num), m):
        row = [0] * p
        shift = i * (b // m)
        for a, c in enumerate(e._num[b:b + m]):
            row[(u * a + shift) % p] = c
        rows.append(row)
    return e._like(_fold_zeta(rows, p), e._den)


def galois_elements(field: TowerField):
    """All p(p-1) automorphism labels (i, u), in order, the identity first."""
    return [(i, u) for i in range(field.p) for u in range(1, field.p)]


# ---------------------------------------------------------------------------
# curve triples and j-invariants
# ---------------------------------------------------------------------------


class CurveTriple(Record):
    """Finite branch points (a, b, c) of y^2 = (x-a)(x-b)(x-c)."""

    a: TowerElement
    b: TowerElement
    c: TowerElement

    def __post_init__(self):
        if self.a == self.b or self.a == self.c or self.b == self.c:
            raise DegenerateTriple("branch points must be pairwise distinct")


def j_invariant_of_triple(tr: CurveTriple) -> TowerElement:
    """j-invariant of the curve with the given branch points.

    With B = b - a and C = c - a, j = 256 (C^2 - CB + B^2)^3 / (B C (C - B))^2
    is the cross-ratio form 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2), l = C/B,
    over one field inverse.  Unlike the bare cross-ratio, j is invariant
    under every reordering of (a, b, c), so distinct j values certify
    non-isomorphic curves without tracking the anharmonic orbit.  The
    divisor is never zero: ``CurveTriple`` refuses repeated points, so b, c
    and c - b are nonzero elements of a field.
    """
    b, c = tr.b - tr.a, tr.c - tr.a
    num = (c * c - c * b + b * b) ** 3 * 256
    return num / (b * c * (c - b)) ** 2


def base_triple(field: TowerField, gamma) -> CurveTriple:
    """The paper's triple (0, 1 - zeta, gamma * t); gamma = 0 repeats 0 and
    raises :class:`DegenerateTriple`."""
    return CurveTriple(field.zero(), field.one() - field.zeta(), field.root() * gamma)


class DistinctnessReport(Record):
    """Outcome of the pairwise j-invariant comparison of a Galois orbit."""

    count: int
    collisions: tuple  # pairs of automorphism labels with equal j

    @property
    def all_distinct(self) -> bool:
        return not self.collisions


def _collisions(field: TowerField, e: TowerElement) -> tuple:
    """The pairs of labels whose images of ``e`` agree, sorted, each in order.

    g(e) = h(e) iff s = g^-1 h fixes e, so the pairs are {g, g s} for each s
    but (0, 1) that fixes e, under (i, u)(k, v) = (i + u k, u v) mod p: (k, v)
    is applied first, as :func:`galois_apply` composes.
    """
    p = field.p
    labels = galois_elements(field)
    fixing = [(k, v) for k, v in labels[1:] if galois_apply(field, k, v, e) == e]
    pairs = {tuple(sorted([(i, u), ((i + u * k) % p, u * v % p)]))
             for k, v in fixing for i, u in labels}
    return tuple(sorted(pairs))


class _Residues:
    """An element of the ring GF(l)^n: the images of one field element under
    n ring maps into GF(l), one slot each.  Sums, differences, products and
    powers act slot by slot, an int being the constant element, so
    ``j_invariant_of_triple`` runs on a triple of them unchanged.  Division
    by an element with a zero slot, which is no unit of the ring, raises
    :class:`DivisionByZero`.  Two elements compare as objects, so the
    distinct points of a ``CurveTriple`` pass its check."""

    __slots__ = ("ell", "slots")

    def __init__(self, ell: int, slots: list):
        self.ell, self.slots = ell, slots

    def _map(self, op, other) -> "_Residues":
        ell = self.ell
        if type(other) is int:
            return _Residues(ell, [op(x, other) % ell for x in self.slots])
        return _Residues(ell, [op(x, y) % ell for x, y in zip(self.slots, other.slots)])

    def __add__(self, other) -> "_Residues":
        return self._map(operator.add, other)

    def __sub__(self, other) -> "_Residues":
        return self._map(operator.sub, other)

    def __mul__(self, other) -> "_Residues":
        return self._map(operator.mul, other)

    def __pow__(self, exponent: int) -> "_Residues":
        return _Residues(self.ell, [pow(x, exponent, self.ell) for x in self.slots])

    def __truediv__(self, other) -> "_Residues":
        if 0 in other.slots:
            raise DivisionByZero(f"a divisor vanishes mod {self.ell}")
        return self._map(lambda x, y: x * pow(y, -1, self.ell), other)


#: The prime-image certificate (:func:`_distinct_by_images`) tries the primes
#: above this start, in increasing order, and gives up after
#: ``_IMAGE_PRIMES`` of them.  Its p(p-1) images are random-looking residues
#: mod l, so two collide by chance with probability about (p(p-1))^2 / 2l,
#: under 1e-4 at p = MAX_P.  A larger start makes each candidate's power test
#: dearer and the primes sparser: on 48 seeded inputs of p = 3 to 23 the
#: certificate took a mean of 0.48 ms at p = 5 and 3.5 ms at p = 23 from
#: 2^31, 0.51 and 4.5 ms from 2^40, and 1.5 and 5.9 ms from 2^61 (Python 3.11
#: on one core of a 2-CPU x86-64 host).
_IMAGE_START = 2**31

#: A prime at which the images collide proves nothing.  The first prime
#: certified each of 473 seeded inputs of p = 3 to 23; a second one catches
#: a collision by chance, and when the conjugates of j truly collide every
#: prime fails, so more primes would only delay the exact computation.
_IMAGE_PRIMES = 2

#: The odd primes below 64: a candidate sharing a factor with their product
#: is composite, and one gcd throws out about 73% of the candidates before
#: the power test.
_SIEVE = math.prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))


def _split_primes(field: TowerField, gamma: Fraction):
    """The primes l above ``_IMAGE_START``, in increasing order, with
    l = 1 mod p, l != 1 mod p^2, dividing no numerator or denominator of q
    and gamma, at which q is a pth power, each as (l, w, r): w a primitive
    pth root of 1 and r = q^(p^-1 mod m) a pth root of q in GF(l), where
    m = (l - 1) / p is prime to p.

    The candidates are the l = 1 mod 2p.  q is a pth power mod l iff
    q_n q_d^(p-1) = q q_d^p is, that is iff its mth power is 1, which fails
    when l divides q_n or q_d; that one power test comes before the
    primality test, and throws out most composites too."""
    p = field.p
    qn, qd = field.q.numerator, field.q.denominator
    q_power = qn * qd ** (p - 1)
    step = 2 * p
    ell = _IMAGE_START - _IMAGE_START % step + 1
    while True:
        ell += step
        m = (ell - 1) // p
        if (m % p == 0 or math.gcd(ell, _SIEVE) != 1 or pow(q_power, m, ell) != 1
                or not is_prime(ell)):
            continue
        if gamma.numerator % ell == 0 or gamma.denominator % ell == 0:
            continue
        g = 2
        while pow(g, m, ell) == 1:
            g += 1
        yield ell, pow(g, m, ell), pow(qn * pow(qd, -1, ell), pow(p, -1, m), ell)


def _distinct_by_images(field: TowerField, gamma: Fraction) -> Optional[bool]:
    """True when the j-invariants of the p(p-1) conjugates of
    (0, 1 - zeta, gamma t) are proved pairwise distinct by their images in
    GF(l), for one of the first ``_IMAGE_PRIMES`` (2) primes of
    :func:`_split_primes` above ``_IMAGE_START`` (2^31); None when none of
    them proves it.

    The image of the conjugate under (i, u) is (0, 1 - w^u, gamma w^i r),
    and j's formula, evaluated on the images, gives the p(p-1) images of the
    conjugates of j when no divisor b c (c - b) vanishes mod l (the module
    docstring has the proof)."""
    p = field.p
    labels = galois_elements(field)
    for ell, w, r in itertools.islice(_split_primes(field, gamma), _IMAGE_PRIMES):
        powers = [pow(w, k, ell) for k in range(p)]
        c0 = gamma.numerator * pow(gamma.denominator, -1, ell) * r
        triple = CurveTriple(_Residues(ell, [0] * len(labels)),
                             _Residues(ell, [(1 - powers[u]) % ell for _, u in labels]),
                             _Residues(ell, [c0 * powers[i] % ell for i, _ in labels]))
        try:
            j = j_invariant_of_triple(triple)
        except DivisionByZero:
            continue  # a divisor vanishes mod l
        if len(set(j.slots)) == len(labels):
            return True
    return None


def conjugate_triples_distinct(
    field: TowerField, gamma
) -> Tuple[bool, DistinctnessReport]:
    """Check that all Galois conjugates of (0, 1 - zeta, gamma * t) give
    pairwise distinct j-invariants.

    The conjugate under (i, u) is (0, 1 - zeta^u, gamma zeta^i t).  j has
    rational coefficients, so its j-invariant is the image under (i, u) of
    the j-invariant of the triple itself.  The check first maps the
    conjugates into GF(l) by the p(p-1) ring maps of a prime l that splits
    completely in the field (:func:`_distinct_by_images`): pairwise
    distinct images of j there prove the conjugates of j pairwise distinct,
    since a ring map sends equal elements to equal images, and then the
    report has no collisions.  Only when the first ``_IMAGE_PRIMES`` such
    primes above ``_IMAGE_START`` (2^31) all fail is j computed exactly, and
    compared with its image under each label but the identity
    (:func:`_collisions`).  Either way every answer is a proof.
    """
    gamma = Fraction(gamma)
    if gamma == 0:
        raise OutOfRange("gamma must be nonzero")
    if _distinct_by_images(field, gamma):
        return True, DistinctnessReport(count=field.dimension, collisions=())
    j = j_invariant_of_triple(base_triple(field, gamma))
    report = DistinctnessReport(count=field.dimension, collisions=_collisions(field, j))
    return report.all_distinct, report
