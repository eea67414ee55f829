"""Embedded reference data and combinatorial verifiers.

Four independent pieces live here:

* the six-dessin degree-36 gallery (shipped as text files under ``data/``)
  together with its kernel witness word [x^-1 y^2 x, x y] and the six
  reference evaluations,
* the 24-edge and 8p-edge local action models: the derived action of the
  separating word on the special edge set is T * S * T where S pairs
  consecutive edges and T is a short involution, and commutation with y^2
  holds exactly for the first conjugate,
* the palindromic word builders for the lifted-path words mu0, mu and
  omega = mu y mu^-1 x^(2s) y^-1 mu,
* the 2-adic certificate machinery: the partial-sum nonvanishing check and
  the verifier for v2(s) >= alpha - nu, which reads s off the (m, n) stage
  pair of :mod:`dessinkit.belyi` taken modulo 2^(alpha - nu + 1), so it
  works even when r and s are astronomically large.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from importlib import resources
from typing import Optional, Tuple

from . import perms
from ._exact import PRINT_BITS, Record, brief, check_odd_prime, v2
from .belyi import RatPoly, _stage_bits, _stage_pair, pair_from_ratio
from .dessins import Dessin, load_dessin
from .errors import (
    BadShape,
    HypothesisFailed,
    OutOfRange,
    ResourceLimit,
    SizeGuard,
)
from .perms import Permutation, compose_right, parse_cycles
from .words import FreeWord, parse_word

GALLERY_SIZE = 6

#: The most bits the evaluation point gamma^(2p) q^2 and the value beta1 there
#: may have in a two-adic instance; each is checked before it is computed.
#: Together they bound the 2-adic window and the exponents of the modular
#: powers in :func:`two_adic_verify`, whose time grows with the cube of this
#: size.  With beta1 = (X+1)/32 and q = 4 it takes 0.2 s for gamma = 2/3 at
#: p = 1009 (a 3199-bit point), 0.9 s for gamma = 1024/1025 at p = 199 (3985
#: bits, near the cap) and 1.5 s for gamma = 2/3 at p = 2003 (6350 bits, over
#: the cap); Python 3.11 on one core of a 2-CPU x86-64 host.
MAX_TWO_ADIC_BITS = 4096

_WITNESS_VALUES = {
    1: "()",
    2: "(13,25)(15,27)(21,33)(23,35)",
    3: "(17,29)(21,33)",
    4: "(13,25)(15,27)(19,31)(21,33)",
    5: "(13,25)(17,29)",
    6: "(13,25)(19,31)(21,33)(23,35)",
}


def _check_gallery_index(k: int):
    if not 1 <= k <= GALLERY_SIZE:
        raise OutOfRange(f"gallery index {k} outside 1..{GALLERY_SIZE}")


def gallery_text(k: int) -> str:
    """Exact content of the k-th shipped gallery file."""
    _check_gallery_index(k)
    return (
        resources.files("dessinkit")
        .joinpath(f"data/gallery{k}.txt")
        .read_text(encoding="utf-8")
    )


def gallery_dessin(k: int) -> Dessin:
    """The k-th degree-36 gallery dessin, parsed from the shipped data."""
    return load_dessin(gallery_text(k))


def witness_word() -> FreeWord:
    """The kernel witness [x^-1 y^2 x, x y] that separates the gallery."""
    return parse_word("[x^-1 y^2 x, x y]")


def expected_witness_value(k: int) -> Permutation:
    """Reference image of the witness word in the k-th gallery action."""
    _check_gallery_index(k)
    return parse_cycles(_WITNESS_VALUES[k], 36)


# ---------------------------------------------------------------------------
# local action models
# ---------------------------------------------------------------------------


class LocalModel(Record):
    """Derived action of the separating word on the special edge set.

    ``y`` is the full cycle on the points, ``s`` pairs consecutive points
    (1,2)(3,4)..., ``t`` is the conjugating involution, and
    ``omega = t * s * t`` is the induced action of the separating word.
    """

    point_count: int
    y: Permutation
    t: Permutation
    omega: Permutation
    s: Permutation
    k: int
    p: Optional[int] = None  # None for the 24-edge model
    variant: Optional[str] = None

    def trace(self) -> Tuple[int, int, int]:
        """(start edge, image under omega*y^2, image under y^2*omega).

        The start edge is the one the distinguishing argument inspects: the
        first even special edge for k = 2, edge 1 for every other k.
        """
        start = 2 * self.k if self.k == 2 else 1
        y2 = self.y * self.y
        via_omega = (self.omega * y2).apply(start)
        via_y2 = (y2 * self.omega).apply(start)
        return start, via_omega, via_y2


def _full_cycle(n: int) -> Permutation:
    return Permutation._from_zero_based(tuple(range(1, n)) + (0,))


def local_model_24(k: int) -> LocalModel:
    """24-edge model for conjugate k in 1..6.

    T_k = (1,13)(2k, 2k+12); the induced word action is T_k * S * T_k with
    S = (1,2)(3,4)...(23,24), and it commutes with y^2 exactly when k = 1.
    This is the plain 8p-edge model at p = 3.
    """
    m = local_model_8p(3, k)
    return LocalModel(m.point_count, m.y, m.t, m.omega, m.s, m.k)


def local_model_8p(p: int, k: int, variant: str = "plain") -> LocalModel:
    """8p-edge model for odd prime p, conjugate k in 1..2p.

    Special edges A = 1, B = A^(y^(2k-1)), C = A^(y^(4p)), D = C^(y^(2k-1));
    the conjugator is (A,C)(B,D) for the plain family and (B,D) for the
    complex-embedding variant, whose word action never commutes with y^2.
    """
    check_odd_prime(p)
    if 8 * p > perms.MAX_DEGREE:
        raise ResourceLimit(f"8p = {8 * p} edges is above the cap {perms.MAX_DEGREE}")
    if not 1 <= k <= 2 * p:
        raise OutOfRange(f"k = {k} outside 1..{2 * p}")
    if variant not in ("plain", "j"):
        raise OutOfRange(f"variant must be 'plain' or 'j', got {variant!r}")
    n = 8 * p
    a, c = 0, 4 * p  # the special edges, 0-based: distinct and below n
    b, d = a + 2 * k - 1, c + 2 * k - 1
    y = _full_cycle(n)
    s = Permutation._from_zero_based(tuple(i ^ 1 for i in range(n)))
    images = list(range(n))
    for u, v in ((a, c), (b, d)) if variant == "plain" else ((b, d),):
        images[u], images[v] = v, u
    t = Permutation._from_zero_based(tuple(images))
    omega = compose_right(compose_right(t, s), t)
    return LocalModel(
        point_count=n, y=y, t=t, omega=omega, s=s, k=k, p=p, variant=variant
    )


def commutes_with_y2(model: LocalModel) -> bool:
    """Whether the induced word action commutes with y^2."""
    y2 = model.y * model.y
    return model.omega * y2 == y2 * model.omega


# ---------------------------------------------------------------------------
# palindromic word builders
# ---------------------------------------------------------------------------


def _check_blocks(d) -> list:
    blocks = list(d)
    if not blocks or len(blocks) % 2 == 0:
        raise BadShape(f"need an odd number of blocks, got {len(blocks)}")
    if any(int(v) < 1 for v in blocks):
        raise BadShape("block degrees must be positive")
    return [int(v) for v in blocks]


def _palindrome(blocks: list) -> list:
    """(index, weight) pairs along the palindrome of t = len(blocks) blocks,
    indices 1 ... t-1, t, t-1 ... 1, each weight its block's degree and the
    central one doubled."""
    t = len(blocks)
    return [(i, blocks[i - 1] * (2 if i == t else 1))
            for i in [*range(1, t), *range(t, 0, -1)]]


def build_mu0(d) -> FreeWord:
    """Palindromic path word x^d1 y^d2 ... y^d(t-1) x^(2 dt) y^d(t-1) ... x^d1.

    Generators alternate (x on odd slots, y on even slots) and the central
    exponent is doubled; t = len(d) must be odd.
    """
    return FreeWord(
        ("x" if i % 2 else "y", w) for i, w in _palindrome(_check_blocks(d))
    )


def build_mu_omega(d, m: int, n: int, r: int, s: int) -> Tuple[FreeWord, FreeWord]:
    """Lifted path word mu and the separating word omega it generates.

    mu strings together blocks ``x^(e_i) y x^s y`` where e_i alternates
    m*r*d_i / n*r*d_i along the palindrome (central exponent doubled), and
    ends with a bare ``x^(m r d_1)``.  omega = mu y mu^-1 x^(2s) y^-1 mu,
    freely reduced.  Requires an odd t >= 3: the single-block degeneration is
    not defined by the displayed construction and is rejected.
    """
    blocks = _check_blocks(d)
    if len(blocks) < 3:
        raise BadShape("need at least three blocks (t >= 3)")
    if min(m, n, r, s) < 1:
        raise BadShape("m, n, r, s must be positive")
    syllables = []
    for i, w in _palindrome(blocks):
        e = (m if i % 2 else n) * r * w
        syllables += [("x", e), ("y", 1), ("x", s), ("y", 1)]
    mu = FreeWord(syllables[:-3])  # a bare suffix, without the y x^s y tail
    x2s = FreeWord((("x", 2 * s),))
    y = FreeWord((("y", 1),))
    omega = mu * y * mu.inverse() * x2s * y.inverse() * mu
    return mu, omega


# ---------------------------------------------------------------------------
# 2-adic certificates
# ---------------------------------------------------------------------------


class DeltaTildeReport(Record):
    """The sums of :func:`delta_tilde_check` and its verdict; ``modulus``,
    2^(alpha - nu), is None when it would have more than ``PRINT_BITS`` bits."""

    partial_sums: tuple
    total: int
    modulus: Optional[int]
    ok: bool


def delta_tilde_check(d, c0: int, c: int, alpha_minus_nu: int) -> DeltaTildeReport:
    """Nonvanishing check for the palindromic weighted sums.

    The terms are c0*d1, (c-c0)*d2, ..., doubled at the center; the check
    passes iff every proper partial sum and the total are nonzero modulo
    2^(alpha - nu), decided by 2-adic valuation for any alpha - nu.  This is
    the sufficient condition for the x-exponent prefixes of mu to avoid
    multiples of s.
    """
    blocks = _check_blocks(d)
    if not 0 < c0 < c:
        raise OutOfRange(f"need 0 < c0 < c, got c0={c0}, c={c}")
    if alpha_minus_nu < 1:
        raise OutOfRange("alpha - nu must be positive")
    terms = [(c0 if i % 2 else c - c0) * w for i, w in _palindrome(blocks)]
    *partials, total = itertools.accumulate(terms)
    # v is nonzero mod 2^k exactly when v2(v) < k, so no 2^k is built for it
    ok = all(v and v2(v) < alpha_minus_nu for v in (*partials, total))
    modulus = 1 << alpha_minus_nu if alpha_minus_nu < PRINT_BITS else None
    return DeltaTildeReport(
        partial_sums=tuple(partials), total=total, modulus=modulus, ok=ok
    )


def _bits(v: Fraction) -> int:
    """Bit length of the larger of numerator and denominator."""
    return max(abs(v.numerator), v.denominator).bit_length()


class TwoAdicInstance:
    """Instance data for the v2(s) >= alpha - nu certificate.

    ``poly`` and ``c`` define beta1 = poly/c with integer coefficients and
    0 < beta1(0) < 1; ``gamma`` and ``q`` (through gamma^(2p) q^2) set the
    evaluation point.  Derived on construction: c0 = poly(0),
    nu = v2(c0) + v2(c - c0), alpha = v2(gamma^(2p) q^2) and the odd part
    a/b of the evaluation point.  A gamma^(2p) of more than
    ``MAX_TWO_ADIC_BITS`` bits raises :class:`SizeGuard` before it is
    computed, and so does :meth:`beta1` at a point whose value would be
    that large.
    """

    def __init__(self, poly: RatPoly, c: int, p: int, q, gamma):
        if any(coef.denominator != 1 for coef in poly.coefficients):
            raise OutOfRange("beta1 numerator must have integer coefficients")
        if c <= 0:
            raise OutOfRange(f"c must be a positive integer, got {c}")
        check_odd_prime(p)
        q = Fraction(q)
        gamma = Fraction(gamma)
        if q <= 0 or gamma <= 0:
            raise OutOfRange("q and gamma must be positive")
        c0 = int(poly(Fraction(0)))
        if not 0 < c0 < c:
            raise OutOfRange(f"need 0 < poly(0) < c, got poly(0)={c0}, c={c}")
        # the larger of the numerator and denominator of gamma is at least
        # 2^(bits - 1), so gamma^(2p) has more than 2p (bits - 1) bits
        at_least = 2 * p * (_bits(gamma) - 1)
        if at_least > MAX_TWO_ADIC_BITS:
            raise SizeGuard(
                f"gamma^(2p) has more than {brief(at_least)} bits at "
                f"p = {brief(p)}, over the cap {MAX_TWO_ADIC_BITS}"
            )
        self.poly = poly
        self.c = c
        self.p = p
        self.q = q
        self.gamma = gamma
        self.c0 = c0
        self.nu = v2(c0) + v2(c - c0)
        self.point = gamma ** (2 * p) * q * q  # gamma^(2p) q^2
        self.alpha = v2(self.point.numerator) - v2(self.point.denominator)
        odd = self.point / Fraction(2) ** self.alpha
        self.a = odd.numerator
        self.b = odd.denominator

    def beta1(self, v: Fraction) -> Fraction:
        v = Fraction(v)
        estimate = (self.poly.degree * _bits(v) + self.c.bit_length()
                    + max(_bits(coef) for coef in self.poly.coefficients))
        if estimate > MAX_TWO_ADIC_BITS:
            raise SizeGuard(
                f"beta1 at a point of {_bits(v)} bits needs about {estimate} "
                f"bits, over the cap {MAX_TWO_ADIC_BITS}"
            )
        return Fraction(self.poly(v), self.c)


class TwoAdicReport(Record):
    """Every intermediate of the v2(s) certificate, plus the verdict."""

    alpha: int
    nu: int
    a: int
    b: int
    c0: int
    m: int
    n: int
    e: Optional[int]
    congruences_consistent: bool
    v2_s: int  # exact when below the bound, else the certified lower bound
    v2_s_is_exact: bool
    required: int
    r: Optional[int]
    s: Optional[int]

    @property
    def ok(self) -> bool:
        return self.congruences_consistent and self.v2_s >= self.required


def two_adic_verify(inst: TwoAdicInstance) -> TwoAdicReport:
    """Certify v2(s) >= alpha - nu for the second-stage parameters.

    Derivation: (m, n) comes from beta1(gamma^(2p) q^2) = m/(m+n) and (r, s)
    from the value of the (m, n) stage at beta1(0) = r/(r+s).
    :func:`~dessinkit.belyi._stage_pair` gives that value as a coprime pair
    (r, r+s), so s is its denominator minus its numerator, and the same pair
    taken modulo 2^(alpha - nu + 1) gives s modulo that power of two: its
    valuation when s does not vanish there, and v2(s) > alpha - nu when it
    does.  So the check runs in modular arithmetic no matter how large r and
    s are; when they print, the pair is made once, exactly, and the check
    reads it reduced.  Its cost is cubic in the size of
    beta1(gamma^(2p) q^2), which :meth:`~TwoAdicInstance.beta1` caps at
    ``MAX_TWO_ADIC_BITS`` (:class:`SizeGuard`).  A report with every intermediate value is
    returned; inconsistent congruences are reported, never asserted away.

    The congruences e m = c0 and e n = c - c0 (mod 2^alpha) always hold.
    Write the point as 2^alpha a/b with a and b odd, and let d = deg poly.
    Then A = b^d poly(point) is an integer, and A = c0 b^d (mod 2^alpha)
    because alpha > nu >= 0.  With g = gcd(A, c b^d), m = A/g and
    m + n = c b^d/g, so e = g b^(-d) mod 2^alpha solves both congruences.  It
    is the e computed here: m or n is odd, so the congruence solved for e has
    one solution.  The check stays, as part of the verifier.

    And s = 0 (mod 2^(alpha - nu + 1)) always, so ``v2_s_is_exact`` is never
    true; that branch too stays as the verifier's check.  Let T = m + n,
    x0 = c0/c, x1 = m/T and u = T (x1 - x0).  The stage B is 1 at its peak
    x1, so r/(r+s) = B(x0) = (1 - u/m)^m (1 + u/n)^n.  Expanded, the terms of
    degree 1 in u cancel, so s/(r+s) = 1 - B(x0) is minus the sum of the
    terms (-1)^i C(m,i) C(n,j) u^k/(m^i n^j) with k = i + j >= 2.  Next,
    u = (A - c0 b^d)/g, and A - c0 b^d = b^d (poly(point) - c0) is a sum of
    integer multiples of b^d point^h with h >= 1, so v2(u) >= alpha - v2(g).
    Write v0 = v2(c0) and v1 = v2(c - c0), both below alpha; then
    v2(A) = v0 and v2(c b^d - A) = v1, and m = A/g, n = (c b^d - A)/g and
    T = c b^d/g give three cases:

    * v0 < v1: v2(c) = v0 = v2(g), so m and T are odd, v2(n) = v1 - v0 and
      v2(u) >= alpha - v0;
    * v0 > v1: the same with m and n swapped, and v2(u) >= alpha - v1;
    * v0 = v1 = w: v2(c) > w = v2(g), so m and n are odd and
      v2(u) >= alpha - w.

    In each, B(x0) = T^T c0^m (c - c0)^n / (m^m n^n c^T) has valuation 0, so
    r and r + s, being coprime, are odd, and v2(s) = v2(1 - B(x0)), at least
    the least valuation of a term.  In the first case let L = alpha - v0.
    As m is odd, v2(C(n,j)) >= v2(n) - v2(j) for j >= 1 (j C(n,j) =
    n C(n-1,j-1)) and v2(j) <= j - 1, a term has valuation at least k L, less
    (j - 1)(v1 - v0 + 1) when j >= 1; that is at least k L - (k - 1) L = L,
    since v1 - v0 + 1 <= v1 + 1 <= L.  And L >= alpha - nu + 1, as v1 >= 1.
    The second case is the first with the sides swapped.  In the third, m
    and n are odd, so a term has valuation at least
    2 (alpha - w) = (alpha - nu + 1) + (alpha - 1), and alpha > nu >= 0.
    The least margin is 0, for example at poly = 5X + 38, c = 69, p = 3,
    q = 2, gamma = 1.
    """
    if inst.alpha <= inst.nu:
        raise HypothesisFailed(
            f"alpha = {inst.alpha} must exceed nu = {inst.nu}"
        )
    ratio = inst.beta1(inst.point)
    if not 0 < ratio < 1:
        raise OutOfRange(
            f"beta1(gamma^(2p) q^2) = {brief(ratio)} outside (0, 1)"
        )
    params = pair_from_ratio(ratio)
    m, n = params.m, params.n
    at_zero = Fraction(inst.c0, inst.c)
    if at_zero == ratio:
        raise OutOfRange("beta1(0) equals the stage peak; s would vanish")

    # congruences e*m = c0 and e*n = c - c0 (mod 2^alpha)
    modulus = 1 << inst.alpha
    if m % 2:
        e = inst.c0 * pow(m, -1, modulus) % modulus
    else:
        e = (inst.c - inst.c0) * pow(n, -1, modulus) % modulus
    consistent = (
        e * m % modulus == inst.c0 % modulus
        and e * n % modulus == (inst.c - inst.c0) % modulus
    )

    # the stage pair (r, r + s) is coprime, so s = den - num, and s modulo
    # 2^(alpha - nu + 1) decides v2(s) against alpha - nu however large s is;
    # the pair is made once, exactly when r and s print, else modulo that
    required = inst.alpha - inst.nu
    window = required + 1
    mod = 1 << window
    printable = _stage_bits(m, n, inst.c0, inst.c) <= PRINT_BITS
    num, den = _stage_pair(m, n, inst.c0, inst.c, None if printable else mod)
    diff = (den - num) % mod
    if diff == 0:
        v2_s = window  # certified lower bound, already > required
        exact = False
    else:
        v2_s = v2(diff)  # exact: any higher valuation would vanish mod 2^window
        exact = True

    r_val = s_val = None  # reported as None when they would not print
    if printable:
        r_val, s_val = num, den - num

    return TwoAdicReport(
        alpha=inst.alpha,
        nu=inst.nu,
        a=inst.a,
        b=inst.b,
        c0=inst.c0,
        m=m,
        n=n,
        e=e if consistent else None,
        congruences_consistent=consistent,
        v2_s=v2_s,
        v2_s_is_exact=exact,
        required=required,
        r=r_val,
        s=s_val,
    )
