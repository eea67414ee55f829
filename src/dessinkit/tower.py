"""Exact arithmetic in the tower field Q(zeta_p, q^(1/p)).

For an odd prime p and a positive rational q that is not a pth power, the
field is a p(p-1)-dimensional Q-algebra with basis zeta^i * t^j for
0 <= i < p-1, 0 <= j < p, subject to the cyclotomic relation
1 + zeta + ... + zeta^(p-1) = 0 and the Kummer relation t^p = q.  It is
Galois over Q with group Z/p x| (Z/p)^*: the automorphisms send
zeta -> zeta^u and t -> zeta^i t.

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

from ._exact import PRINT_BITS, brief, check_odd_prime, integer_root, power
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

#: The largest prime p a tower is built for.  ``tower distinct`` at p = 23
#: takes about 10 s with q = 2 and 24 s with q = 7/3, gamma = 3/5 (Python 3.11
#: on one core of a 2-CPU x86-64 host); the latter takes 93 s at p = 29.
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
        return TowerElement(self, {})

    def one(self) -> "TowerElement":
        return self.rational(1)

    def rational(self, value) -> "TowerElement":
        v = Fraction(value)
        return TowerElement(self, {(0, 0): v} if v else {})

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
        p = self.p
        folded: dict = {}
        for (i, j), c in coords.items():
            qpow, j = divmod(j, p)
            c = Fraction(c) * self.q**qpow if qpow else Fraction(c)
            key = (i % p, j)
            folded[key] = folded[key] + c if key in folded else c
        reduced = {key: c for key, c in folded.items() if key[0] < p - 1}
        for (i, j), c in folded.items():
            if i == p - 1:
                for k in range(p - 1):
                    key = (k, j)
                    reduced[key] = reduced[key] - c if key in reduced else -c
        return TowerElement(self, reduced)


class TowerElement:
    """Element with exact rational coordinates over the fixed basis."""

    __slots__ = ("field", "_coords")

    def __init__(self, field: TowerField, coords: dict):
        self.field = field
        self._coords = {k: v for k, v in coords.items() if v}

    @property
    def coordinates(self) -> dict:
        """Sparse {(zeta_exp, t_exp): Fraction} view of the coordinates."""
        return dict(self._coords)

    def _check(self, other: "TowerElement"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    @property
    def is_zero(self) -> bool:
        return not self._coords

    def is_rational(self) -> bool:
        return all(k == (0, 0) for k in self._coords)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self._coords.get((0, 0), Fraction(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return (
            isinstance(other, TowerElement)
            and self.field == other.field
            and self._coords == other._coords
        )

    def __hash__(self) -> int:
        return hash((self.field, tuple(sorted(self._coords.items()))))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        self._check(other)
        coords = dict(self._coords)
        for k, v in other._coords.items():
            coords[k] = coords.get(k, Fraction(0)) + v
        return TowerElement(self.field, coords)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.field, {k: -v for k, v in self._coords.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            return TowerElement(
                self.field, {k: v * factor for k, v in self._coords.items()}
            )
        self._check(other)
        acc: dict = {}
        for (i1, j1), c1 in self._coords.items():
            for (i2, j2), c2 in other._coords.items():
                key = (i1 + i2, j1 + j2)
                acc[key] = acc[key] + c1 * c2 if key in acc else c1 * c2
        return self.field.element(acc)

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
        if not self._coords:
            return "0"
        parts = []
        for (i, j) in sorted(self._coords):
            c = self._coords[(i, j)]
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
    # zeta^a t^b -> zeta^(u a + i b) t^b
    return field.element({(u * a + i * b, b): c for (a, b), c in e._coords.items()})


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
    the j-invariant of the triple itself, which is computed once.  The p(p-1)
    images are bucketed by exact value; each pair within a bucket is a
    collision, listed by first label, then by second.
    """
    gamma = Fraction(gamma)
    if gamma == 0:
        raise OutOfRange("gamma must be nonzero")
    j = j_invariant_of_triple(
        CurveTriple(field.zero(), field.one() - field.zeta(), field.root() * gamma)
    )
    labels = galois_elements(field)
    buckets: dict = {}
    for i, u in labels:
        buckets.setdefault(galois_apply(field, i, u, j), []).append((i, u))
    collisions = sorted(
        pair for same in buckets.values() for pair in itertools.combinations(same, 2)
    )
    report = DistinctnessReport(count=len(labels), collisions=tuple(collisions))
    return report.all_distinct, report
