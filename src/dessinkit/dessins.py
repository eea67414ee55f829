"""Dessins d'enfants as transitive permutation pairs.

A dessin of degree n is a pair (sigma0, sigma1) of permutations of the edge
set {1..n} generating a transitive group: sigma0 rotates edges
counter-clockwise around black vertices, sigma1 around white vertices.  Faces
are the cycles of sigma0*sigma1 (right action, sigma0 applied first).

The module computes passports, genus, the regular-closure descriptor (group
order, distinguished-generator orders, Euler characteristic, genus), and
decides isomorphism both of dessins (simultaneous conjugation) and of their
regular closures (generator-preserving group isomorphism, decided by the
diagonal-group order criterion without ever constructing the closure).  Nor
is the diagonal group's order asked for: |D| exceeds |G1| exactly when some
nontrivial element of D fixes d1's edges, and D's stabilizer chain stops at
the first such element it makes.
"""

from __future__ import annotations

import enum
from typing import Optional

from ._exact import Record, decimal
from .errors import NonIntegralCharacteristic, NotTransitive, ParseError
from . import perms
from .perms import (
    PermGroup,
    Permutation,
    compose_right,
    parse_cycles,
)
from .words import FreeWord, evaluate_word, parse_word


class Dessin:
    """Degree n >= 1 plus the two edge rotations; transitivity is enforced."""

    __slots__ = ("_sigma0", "_sigma1", "_group", "_face")

    def __init__(self, sigma0: Permutation, sigma1: Permutation):
        group = PermGroup([sigma0, sigma1])
        if group.degree == 0:
            raise ParseError("a dessin needs at least one edge, got degree 0")
        if not group.is_transitive():
            raise NotTransitive(
                "the pair does not define a connected dessin "
                f"(orbit of edge 1 has size {len(group.orbit(1))} of {sigma0.degree})"
            )
        self._sigma0 = sigma0
        self._sigma1 = sigma1
        self._group = group
        self._face = None  # made by face_permutation

    @property
    def degree(self) -> int:
        return self._sigma0.degree

    @property
    def sigma0(self) -> Permutation:
        return self._sigma0

    @property
    def sigma1(self) -> Permutation:
        return self._sigma1

    @property
    def cartographic_group(self) -> PermGroup:
        return self._group

    def evaluate(self, w: FreeWord) -> Permutation:
        """Monodromy image of a word: x -> sigma0, y -> sigma1."""
        return evaluate_word(w, self._sigma0, self._sigma1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dessin)
            and self._sigma0 == other._sigma0
            and self._sigma1 == other._sigma1
        )

    def __hash__(self) -> int:
        return hash((self._sigma0, self._sigma1))

    def __repr__(self) -> str:
        return f"Dessin(degree={self.degree}, sigma0={self._sigma0}, sigma1={self._sigma1})"


class Passport(Record):
    """Cycle-type multisets of sigma0, sigma1 and the face permutation."""

    black: tuple
    white: tuple
    faces: tuple


class RegularDescriptor(Record):
    """Invariants of the regular closure, from the cartographic group."""

    group_order: int
    ord_x: int
    ord_y: int
    ord_xy: int
    euler_characteristic: int
    genus: int


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def load_dessin(text: str) -> Dessin:
    """Parse the dessin text format.

    Format (``#`` comments and blank lines allowed, LF or CRLF)::

        degree 36
        sigma0 = (1,13,14,7,25,26)(2,15,16)
        sigma1 = (1,2,3)(4,5)

    The three keys must appear in that order.  A degree above
    ``perms.MAX_DEGREE`` raises :class:`ResourceLimit` before any cycle is
    parsed.
    """
    lines = []
    for raw in text.replace("\r\n", "\n").split("\n"):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            lines.append(stripped)
    if len(lines) != 3:
        raise ParseError(
            f"expected 3 content lines (degree, sigma0, sigma1), got {len(lines)}"
        )
    m = lines[0].split()
    if len(m) != 2 or m[0] != "degree" or not m[1].isdecimal():
        raise ParseError(f"bad degree line: {lines[0]!r}")
    degree = decimal(m[1], " on the degree line")
    perms.check_degree(degree)
    sigmas = []
    for key, line in zip(("sigma0", "sigma1"), lines[1:]):
        name, eq, rest = line.partition("=")
        if name.strip() != key or not eq:
            raise ParseError(f"expected '{key} = ...', got {line!r}")
        sigmas.append(parse_cycles(rest.strip(), degree))
    return Dessin(sigmas[0], sigmas[1])


def dump_dessin(d: Dessin, comment: Optional[str] = None) -> str:
    """Serialize a dessin to the text format accepted by :func:`load_dessin`."""
    out = []
    if comment:
        out.extend(f"# {line}" for line in comment.split("\n"))
    out.append(f"degree {d.degree}")
    out.append(f"sigma0 = {d.sigma0}")
    out.append(f"sigma1 = {d.sigma1}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def face_permutation(d: Dessin) -> Permutation:
    """sigma0 * sigma1 under the right action (sigma0 applied first),
    composed once and held by the dessin, so that its walk of the cycles
    (:meth:`Permutation._walked`) is taken once too."""
    if d._face is None:
        d._face = compose_right(d.sigma0, d.sigma1)
    return d._face


def passport_of(d: Dessin) -> Passport:
    """The cycle types of sigma0, sigma1 and the face permutation, read off
    their held walks."""
    return Passport(*(tuple(p.cycle_type())
                      for p in (d.sigma0, d.sigma1, face_permutation(d))))


def genus_of(d: Dessin) -> int:
    """Genus of the surface carrying the dessin, via the Euler formula.

    genus = 1 - (B + W + F - n)/2 with B, W, F the cycle counts of sigma0,
    sigma1 and the face permutation (fixed points count as cycles).  The
    characteristic B + W + F - n is even: sign sigma = (-1)^(n - cycles), and
    sigma0 sigma1 sigma_inf = 1 gives B + W + F = 3n = n mod 2.  The genus
    is at least 0, because a transitive pair gives a connected surface.
    The cycle counts are read off the three permutations' held walks.
    """
    cycles = sum(len(p._walked()[0]) for p in (d.sigma0, d.sigma1, face_permutation(d)))
    return 1 - (cycles - d.degree) // 2


def regular_descriptor(d: Dessin) -> RegularDescriptor:
    """Order and surface data of the regular closure.

    chi = |G|/ord sigma0 + |G|/ord sigma1 + |G|/ord sigma0*sigma1 - |G| in
    integers: by Lagrange each order divides |G|, and chi = 2 - 2g is even;
    both are checked, to cross-check :meth:`PermGroup.order`.  Each order is
    :meth:`Permutation.order`, read off the held walk.
    """
    order = d.cartographic_group.order()
    ox, oy, oxy = (p.order() for p in (d.sigma0, d.sigma1, face_permutation(d)))
    chi = order // ox + order // oy + order // oxy - order
    if order % ox or order % oy or order % oxy or chi % 2:
        raise NonIntegralCharacteristic(
            f"|G| = {order} gives no even integer chi; this is a bug"
        )
    return RegularDescriptor(order, ox, oy, oxy, chi, 1 - chi // 2)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


def dessins_isomorphic(d1: Dessin, d2: Dessin) -> Optional[Permutation]:
    """Simultaneous-conjugation witness, or None.

    Returns pi with pi^-1 * sigma0(d1) * pi == sigma0(d2) and likewise for
    sigma1 (right-action products), when one exists; of several witnesses,
    the one with the least image of edge 1.

    One edge of d1, the pivot, is pinned and every candidate image in d2 is
    tried (:func:`_forced`).  The pivot is the least edge on the sigma0
    cycle length that the fewest edges share, as a graph isomorphism search
    individualises a vertex of a smallest cell (McKay and Piperno,
    *Practical graph isomorphism II*, J. Symbolic Comput. 60, 2014); it is
    edge 1 whenever edge 1's length ties for the fewest.  A witness maps
    each cycle of d1 onto a cycle of d2 of the same length, so d2 has as
    many edges on that length or there is no witness, and only targets on a
    sigma0-cycle and a sigma1-cycle of the same lengths as those through
    the pivot are tried.  The edge counts are taken in one pass over the
    cycle lengths of sigma0's held walk (:meth:`Permutation._walked`), and
    the lengths through each edge are read off the held walks too.

    A witness is fixed by the image of the pivot, and sends the pivot into
    its class, so the targets that succeed are exactly the witnesses.  With
    edge 1 as the pivot they are tried in ascending order and the first
    success is returned; otherwise every target is tried, and the witness
    with the least image of edge 1 is returned, the one an ascending search
    from edge 1 finds first.
    """
    if d1.degree != d2.degree:
        return None
    s0, s1, t0, t1 = d1._sigma0, d1._sigma1, d2._sigma0, d2._sigma1
    lengths, through = s0._walked()[:2]
    edges: dict = {}
    for length in lengths:
        edges[length] = edges.get(length, 0) + length
    # min() keeps the first of equal counts, and the first length counted
    # is that of edge 1's cycle, so a tie goes to edge 1
    k0 = min(edges, key=edges.__getitem__)
    count = edges[k0]
    if t0._walked()[0].count(k0) * k0 != count:
        return None
    pivot = through.index(k0)
    k1 = s1._walked()[1][pivot]
    l0, l1 = t0._walked()[1], t1._walked()[1]
    a0, a1, b0, b1 = s0._images, s1._images, t0._images, t1._images
    best = None
    target = -1
    for _ in range(count):  # d2's edges on length k0, in ascending order
        target = l0.index(k0, target + 1)
        if l1[target] != k1:
            continue
        mapping = _forced(a0, a1, b0, b1, pivot, target)
        if mapping is None:
            continue
        if pivot == 0:
            return Permutation._from_zero_based(tuple(mapping))
        if best is None or mapping[0] < best[0]:
            best = mapping
    return None if best is None else Permutation._from_zero_based(tuple(best))


def _forced(a0, a1, b0, b1, pivot: int, target: int) -> Optional[list]:
    """The mapping that sends ``pivot`` to ``target`` and commutes with the
    generators, 0-based images a0, a1 of d1 and b0, b1 of d2, or None.

    The rest of the mapping is forced along the generators by transitivity.
    The search checks both generators at every edge it reaches, which is
    every edge of d1, so a mapping that completes is equivariant.  Its image
    is then closed under both generators of d2, and d2 is transitive, so it
    is onto: every completed mapping is a bijection and a witness.
    """
    mapping = [-1] * len(a0)
    mapping[pivot] = target
    stack = [pivot]
    while stack:
        e = stack.pop()
        f = mapping[e]
        e2, f2 = a0[e], b0[f]
        g = mapping[e2]
        if g < 0:
            mapping[e2] = f2
            stack.append(e2)
        elif g != f2:
            return None
        e2, f2 = a1[e], b1[f]
        g = mapping[e2]
        if g < 0:
            mapping[e2] = f2
            stack.append(e2)
        elif g != f2:
            return None
    return mapping


def _direct_sum(a: Permutation, b: Permutation) -> Permutation:
    shift = a.degree
    return Permutation._from_zero_based(a._images + tuple(v + shift for v in b._images))


def closure_difference(d1: Dessin, d2: Dessin) -> Optional[str]:
    """Why sigma0 -> sigma0', sigma1 -> sigma1' does not extend to a group
    isomorphism of the cartographic groups, or None when it does.

    Criterion: the diagonal group D generated by sigma0(d1)+sigma0(d2) and
    sigma1(d1)+sigma1(d2) on the disjoint union of the edge sets satisfies
    |D| == |G1| == |G2| exactly when the assignment is an isomorphism.  D acts
    on n1+n2 points, so the closure (of order possibly in the tens of
    millions) is never constructed.  The two reasons are the two steps:
    "component orders differ" when |G1| != |G2|, and "diagonal order exceeds
    component order" when |D| > |G1|.

    The first step stops G2's chain once its orbit sizes pass |G1|.  The
    second computes no order.  Restriction to d1's edges maps D onto G1, and
    its kernel K is the pointwise stabilizer of those edges in D, so |D| =
    |G1| |K| and |D| > |G1| iff K != 1.  Each new base point of D's chain is
    the first point moved by the element that makes its level, so a level on
    d2's edges is made by an element of K other than the identity, and the
    build stops there; a complete chain with its base among d1's edges has
    K = 1 (:meth:`PermGroup._fixer_is_nontrivial`).
    """
    n1 = d1.cartographic_group.order()
    g2 = d2.cartographic_group
    if g2.order_exceeds(n1) or g2.order() != n1:
        return "component orders differ"
    diag = PermGroup(
        [_direct_sum(d1.sigma0, d2.sigma0), _direct_sum(d1.sigma1, d2.sigma1)]
    )
    if diag._fixer_is_nontrivial(d1.degree):
        return "diagonal order exceeds component order"
    return None


def regular_closures_isomorphic(d1: Dessin, d2: Dessin) -> bool:
    """Whether the regular closures of ``d1`` and ``d2`` are isomorphic, by
    the criterion of :func:`closure_difference`."""
    return closure_difference(d1, d2) is None


# ---------------------------------------------------------------------------
# witness verdicts
# ---------------------------------------------------------------------------


class Separation(enum.Enum):
    KERNEL = "kernel"
    COMMUTATION = "commutation"
    NONE = "none"


class WitnessVerdict(Record):
    """Outcome of a word-witness comparison of two monodromy actions."""

    separation: Separation
    commutator_with: Optional[FreeWord] = None

    @property
    def separates(self) -> bool:
        return self.separation is not Separation.NONE


def witness_verdict(
    w1: Permutation,
    w2: Permutation,
    v1: Permutation,
    v2: Permutation,
    v_word: Optional[FreeWord] = None,
) -> WitnessVerdict:
    """Verdict from already-evaluated images of a witness word w and a
    comparison word v in two monodromy actions.

    Kernel separation: exactly one of w1, w2 is the identity.  Commutation
    separation: w commutes with v in exactly one of the two actions.  Either
    outcome certifies the regular closures are not isomorphic.
    """
    if w1.is_identity != w2.is_identity:
        return WitnessVerdict(Separation.KERNEL)
    c1 = compose_right(w1, v1) == compose_right(v1, w1)
    c2 = compose_right(w2, v2) == compose_right(v2, w2)
    if c1 != c2:
        return WitnessVerdict(Separation.COMMUTATION, commutator_with=v_word)
    return WitnessVerdict(Separation.NONE)


def distinguish_by_witness(
    d1: Dessin,
    d2: Dessin,
    w: FreeWord,
    v: Optional[FreeWord] = None,
) -> WitnessVerdict:
    """Try to separate two dessins' regular closures with a word witness.

    ``v`` defaults to y^2, the comparison word used throughout the
    degree-24/8p local-model arguments.
    """
    if v is None:
        v = parse_word("y^2")
    return witness_verdict(
        d1.evaluate(w), d2.evaluate(w), d1.evaluate(v), d2.evaluate(v), v_word=v
    )
