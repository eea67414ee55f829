"""Exact arithmetic in the tower field Q(zeta_p, q^(1/p)).

For an odd prime p and a positive rational q that is not a pth power, the
field is a p(p-1)-dimensional Q-algebra with basis zeta^i * t^j for
0 <= i < p-1, 0 <= j < p, subject to the cyclotomic relation
1 + zeta + ... + zeta^(p-1) = 0 and the Kummer relation t^p = q.  It is
Galois over Q with group Z/p x| (Z/p)^*: the automorphisms send
zeta -> zeta^u and t -> zeta^i t.

An element is stored as integer numerators over one positive denominator, in
lowest terms (the gcd of the denominator and every numerator is 1).  Slot
j*(p-1) + i holds the numerator of the coordinate of zeta^i t^j, so the slots
run in t-blocks of p-1, and trailing zero slots are dropped.  A product is
one integer polynomial product (``_exact.int_poly_mul``, Kronecker
substitution or term by term as the operand sizes choose) of the two vectors
spread to 2p-3 slots per t-block, and the result is folded by t^p = q (q's
numerator and denominator kept apart) and then by
zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)).

The Galois action does the work beyond ring arithmetic.  An inverse is the
product of an element's other conjugates divided by its norm, taken down the
tower: the conjugates under t -> zeta^i t multiply it into Q(zeta), and those
under zeta -> zeta^u multiply that into Q.  A zero norm would contradict
irreducibility of t^p - q over Q(zeta_p) and raises an internal error naming
that assumption.

The module also computes j-invariants of branch-point triples
(a, b, c, infinity) of curves y^2 = (x-a)(x-b)(x-c), and checks that the
p(p-1) Galois conjugates of the triple (0, 1 - zeta, gamma * t) have pairwise
distinct j-invariants, which certifies the conjugate curves are pairwise
non-isomorphic.  j is a rational function of the triple with rational
coefficients, so the j-invariants of the conjugates are the Galois images of
one j-invariant.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from ._exact import (
    PRINT_BITS,
    brief,
    check_odd_prime,
    int_poly_mul,
    integer_root,
    power,
)
from .errors import (
    DegenerateTriple,
    DessinkitError,
    FieldMismatch,
    NotAUnit,
    OutOfRange,
    ResourceLimit,
)

__all__ = [
    "TowerField",
    "TowerElement",
    "CurveTriple",
    "DistinctnessReport",
    "j_invariant_of_triple",
    "conjugate_triples_distinct",
]

#: The largest prime p a tower is built for.  ``conjugate_triples_distinct``
#: at p = 23 takes about 0.2 s of CPU with q = 2, gamma = 1 and 0.85 s with
#: q = 7/3, gamma = 3/5 (Python 3.11 on one core of a 2-CPU x86-64 host); the
#: latter takes 2.9 s at p = 29.
MAX_P = 23


class TowerField:
    """The field Q(zeta_p, q^(1/p)) for odd prime p and non-pth-power q > 0."""

    def __init__(self, p: int, q):
        q = Fraction(q)
        check_odd_prime(p)
        if p > MAX_P:
            raise ResourceLimit(f"p = {p} is above {MAX_P}, the largest tower prime")
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
        return TowerElement._of(self, [], 1)

    def one(self) -> "TowerElement":
        return self.rational(1)

    def rational(self, value) -> "TowerElement":
        v = Fraction(value)
        return TowerElement._of(self, [v.numerator], v.denominator)

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


class TowerElement:
    """Element with exact rational coordinates over the fixed basis.

    ``TowerElement(field, coords)`` takes a {(zeta_exp, t_exp): coefficient}
    mapping, like :meth:`TowerField.element`.
    """

    __slots__ = ("field", "_num", "_den")

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
        self._set(field, _fold_zeta(rows, p), den)

    @classmethod
    def _of(
        cls, field: TowerField, nums: list, den: int, lowest: bool = False
    ) -> "TowerElement":
        """The element with integer slots ``nums`` over ``den`` > 0; with
        ``lowest``, the caller knows nums/den is in lowest terms."""
        self = object.__new__(cls)
        self._set(field, nums, den, lowest)
        return self

    def _set(self, field: TowerField, nums: list, den: int, lowest=False) -> None:
        g = 1 if lowest else math.gcd(den, *nums)
        k = len(nums)
        while k and not nums[k - 1]:
            k -= 1
        self.field = field
        self._num = tuple(c // g for c in nums[:k]) if g != 1 else tuple(nums[:k])
        self._den = den // g

    @property
    def coordinates(self) -> dict:
        """Sparse {(zeta_exp, t_exp): Fraction} view of the coordinates."""
        m = self.field.p - 1
        return {
            (k % m, k // m): Fraction(c, self._den)
            for k, c in enumerate(self._num)
            if c
        }

    def _check(self, other: "TowerElement"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    @property
    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return len(self._num) <= 1

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self._num[0], self._den) if self._num else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (
            isinstance(other, TowerElement)
            and self.field == other.field
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self) -> int:
        return hash((self.field, self._num, self._den))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        self._check(other)
        g = math.gcd(self._den, other._den)
        sa, sb = other._den // g, self._den // g
        nums = [
            x * sa + y * sb
            for x, y in itertools.zip_longest(self._num, other._num, fillvalue=0)
        ]
        return TowerElement._of(self.field, nums, self._den * sa)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement._of(self.field, [-c for c in self._num], self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return TowerElement._of(
                field, [c * f.numerator for c in self._num], self._den * f.denominator
            )
        self._check(other)
        a, b = self._num, other._num
        if not a or not b:
            return field.zero()
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
        den = self._den * other._den
        if n > p:
            # t^(p+j) = q t^j, over the denominator times q's
            qn, qd = field.q.numerator, field.q.denominator
            rows = [
                [qd * x + qn * y for x, y in zip(low, high)]
                for low, high in zip(rows, rows[p:])
            ] + [[qd * x for x in low] for low in rows[n - p:p]]
            den *= qd
        return TowerElement._of(field, _fold_zeta(rows, p), den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "TowerElement":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, self.field.one(), operator.mul)

    def inverse(self) -> "TowerElement":
        """Multiplicative inverse: the other conjugates over the norm.

        With sigma_i: t -> zeta^i t and tau_u: zeta -> zeta^u,
        c1 = prod_{0<i<p} sigma_i(x) makes n1 = x c1 the norm of x to Q(zeta),
        c2 = prod_{1<u<p} tau_u(n1) makes N = n1 c2 its norm to Q, and
        x^-1 = c1 c2 / N.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in the tower field")
        field = self.field
        p = field.p
        c1 = math.prod(galois_apply(field, i, 1, self) for i in range(1, p))
        n1 = self * c1
        c2 = math.prod(galois_apply(field, 0, u, n1) for u in range(2, p))
        norm = n1 * c2
        if norm.is_zero:
            raise DessinkitError(
                "zero divisor encountered: the Kummer polynomial t^p - q must "
                "be irreducible over the cyclotomic field; this contradicts "
                "the certified non-pth-power hypothesis and indicates a bug"
            )
        return c1 * c2 / norm.rational_value()

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inverse()

    def __str__(self) -> str:
        coords = self.coordinates
        if not coords:
            return "0"
        parts = []
        for (i, j) in sorted(coords):
            c = coords[(i, j)]
            shown = ("-" if c < 0 else "") + str(brief(abs(c), PRINT_BITS))
            names = []
            if i:
                names.append("z" if i == 1 else f"z^{i}")
            if j:
                names.append("t" if j == 1 else f"t^{j}")
            body = "*".join(names)
            if not body:
                parts.append(shown)
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{shown}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

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
    # an automorphism and its inverse map the integer span of the basis onto
    # itself, so the image keeps the numerators' gcd, and so lowest terms
    return TowerElement._of(field, _fold_zeta(rows, p), e._den, lowest=True)


def galois_elements(field: TowerField):
    """All p(p-1) automorphism labels (i, u), in deterministic order."""
    return [(i, u) for i in range(field.p) for u in range(1, field.p)]


# ---------------------------------------------------------------------------
# curve triples and j-invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurveTriple:
    """Finite branch points (a, b, c) of y^2 = (x-a)(x-b)(x-c)."""

    a: TowerElement
    b: TowerElement
    c: TowerElement

    def __post_init__(self):
        if self.a == self.b or self.a == self.c or self.b == self.c:
            raise DegenerateTriple("branch points must be pairwise distinct")


def j_invariant_of_triple(tr: CurveTriple) -> TowerElement:
    """j-invariant of the curve with the given branch points.

    With lambda = (c - a)/(b - a), j = 256 (lambda^2 - lambda + 1)^3 /
    (lambda^2 (lambda - 1)^2).  Unlike the bare cross-ratio, j is invariant
    under every reordering of (a, b, c), so distinct j values certify
    non-isomorphic curves without tracking the anharmonic orbit.
    """
    lam = (tr.c - tr.a) / (tr.b - tr.a)
    num = (lam * lam - lam + 1) ** 3 * 256
    den = lam * lam * (lam - 1) ** 2
    if den.is_zero:
        raise DegenerateTriple("cross-ratio degenerated to 0 or 1")
    return num / den


@dataclass(frozen=True)
class DistinctnessReport:
    """Outcome of the pairwise j-invariant comparison of a Galois orbit."""

    count: int
    collisions: tuple  # pairs of automorphism labels with equal j

    @property
    def all_distinct(self) -> bool:
        return not self.collisions


def conjugate_triples_distinct(
    field: TowerField, gamma
) -> Tuple[bool, DistinctnessReport]:
    """Check that all Galois conjugates of (0, 1 - zeta, gamma * t) give
    pairwise distinct j-invariants.

    The conjugate under (i, u) is (0, 1 - zeta^u, gamma zeta^i t).  j has
    rational coefficients, so its j-invariant is the image under (i, u) of
    the j-invariant of the triple itself, which is computed once.  Each label
    is bucketed by the hash of its image, and the image dropped, so one image
    is held at a time; only the labels of a shared bucket get their images
    again, for an exact comparison.  Each pair of equal images is a
    collision, listed by first label, then by second.
    """
    gamma = Fraction(gamma)
    if gamma == 0:
        raise OutOfRange("gamma must be nonzero")
    j = j_invariant_of_triple(
        CurveTriple(field.zero(), field.one() - field.zeta(), field.root() * gamma)
    )
    labels = galois_elements(field)
    by_hash: dict = {}
    for i, u in labels:
        by_hash.setdefault(hash(galois_apply(field, i, u, j)), []).append((i, u))
    collisions = []
    for shared in by_hash.values():
        if len(shared) > 1:
            buckets: dict = {}
            for i, u in shared:
                buckets.setdefault(galois_apply(field, i, u, j), []).append((i, u))
            collisions += (
                pair
                for same in buckets.values()
                for pair in itertools.combinations(same, 2)
            )
    report = DistinctnessReport(count=len(labels), collisions=tuple(sorted(collisions)))
    return report.all_distinct, report
