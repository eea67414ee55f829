"""Exact permutations on {1..n} and permutation groups with a deterministic
base-and-strong-generating-set (BSGS) backend.

Conventions
-----------
* Points are 1-based in every public interface; a :class:`Permutation`
  stores a 0-based image tuple.
* Composition is a right action: ``p ^ (a*b) == (p ^ a) ^ b``, written
  ``compose_right(a, b)`` or ``a * b`` (apply ``a`` first).
* Canonical cycle printing sorts cycles by least element, starts each cycle at
  its least element, omits fixed points, and prints the identity as ``()``.
* The BSGS is built by the incremental, deterministic Schreier-Sims
  algorithm (Seress, *Permutation Group Algorithms*, CUP 2003, sec. 4.2), as
  one loop that goes down a level when a new strong generator appears and up
  a level when a level is complete.  A new base point is the smallest point
  its strong generator moves.  When a level gains a strong generator its
  orbit is extended breadth-first, keeping every transversal entry it had,
  and the Schreier pairs (orbit point, generator) it meets are queued on the
  level, except the pair that makes a point's entry (its Schreier generator
  is trivial) and a pair (base point, g) with g a strong generator of the
  next level.  Each visit to a level drains its queue until a pair gives a
  new strong generator; each pair is sifted at most once, and not at all
  when its Schreier generator is a strong generator of the next level.
  Group orders and sift results are bit-reproducible across runs.
* The loop's state, its levels and level index, stays on the group, and a
  query may stop the loop early: ``order_exceeds`` once the product of the
  orbit sizes passes its bound, and the test whether some nontrivial element
  fixes the first m points once a level is made at a point past them.  Every
  later query continues the chain from there.
* The chain stores its elements in one of two kernels, chosen by degree
  (:func:`_kernel`).  Up to 256 points compose is ``bytes.translate`` and
  inverse ``bytes.maketrans``, both in C.  Only a right operand, a strong
  generator or a transversal entry's u^-1, is a 256-byte table, the
  identity past the degree; every other value, each entry's u, Schreier
  generator and sift residue, is only ever a left operand and is held as
  its ``degree`` images, which a table on its right keeps at that length.
  A residue gets the table's tail once, when it becomes a strong
  generator.  Above 256 points every element is a 0-based tuple composed
  by ``operator.itemgetter``.  Generators are converted on the way in and
  strong generators on the way out.  :func:`dessinkit.words.evaluate_word`
  composes in the same kernels, converting x and y in and the value out.
* A permutation's cycles are walked once (:func:`_walk`), and the
  permutation holds the walk: its printed cycles, cycle type, order and
  parity, a dessin's passport, genus and descriptor, and the isomorphism
  search of :mod:`dessinkit.dessins` read it.  That search counts the
  edges on each sigma0 cycle length from the cycle lengths, to pin an edge
  of the rarest length, and filters its targets by the lengths through
  each edge.
* A_n and S_n are recognised without a chain, by a Jordan certificate taken
  from a fixed sequence of products of the generators (``PermGroup._giant``),
  a search cut short once a proper block shows that none can appear.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from functools import cached_property
from math import factorial, lcm, prod
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from ._exact import decimal, exponent_of, is_prime, power
from .errors import (
    DegreeMismatch,
    OutOfRange,
    ParseError,
    PointOutOfRange,
    RepeatedPoint,
    ResourceLimit,
)


#: Largest permutation domain a group or a parsed cycle text accepts; larger
#: degrees are refused outright (:func:`check_degree`).
MAX_DEGREE = 100_000

#: Bound on the memory the stabilizer-chain transversals may occupy,
#: estimated as two tuples of ``degree`` 8-byte entries per orbit point
#: whichever kernel stores them; at degree 36 an entry of the table kernel,
#: a 36-byte u beside a 256-byte u^-1, takes 358 bytes, the estimate 576.
MAX_TRANSVERSAL_BYTES = 1 << 30

#: How many products of the generators the Jordan certificate inspects before
#: it leaves the group to the stabilizer chain.  Of 2760 seeded random
#: transitive pairs of degree 8 to 40, 8 giants, none of degree above 14,
#: were left to the chain.
_JORDAN_TRIES = 64

#: How many products the Jordan certificate inspects before it looks for a
#: proper block holding points 1 and 2 (:func:`_proper_block`); a group with
#: one has no certificate, so the search stops there.  Of 660 seeded random
#: transitive pairs of degree 10 to 30, 26% had no certificate among the
#: first 8 products; on such a giant the test costs about two products
#: (Python 3.11, one shared x86-64 core), and on a degree-36 gallery group
#: it takes the place of 56 products at the cost of nine.
_BLOCK_TEST_AFTER = 8

_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


def _mul(a: tuple, b: tuple) -> tuple:
    # apply a first, then b (0-based image tuples); itemgetter returns a bare
    # item for one index and refuses none, so degrees 0 and 1 go by hand
    if len(a) > 1:
        return itemgetter(*a)(b)
    return tuple(b[i] for i in a)


def _inv(a: tuple) -> tuple:
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


#: Largest degree whose stabilizer chain stores 256-byte tables; a larger
#: group's chain stores 0-based tuples.
_TABLE_DEGREE = 256

_TABLE_IDENTITY = bytes(range(256))


def _table_inv(a: bytes) -> bytes:
    return bytes.maketrans(a, _TABLE_IDENTITY)


def _kernel(degree: int) -> tuple:
    """The compose, inverse and identity of a chain's right operands at
    ``degree``.

    Up to :data:`_TABLE_DEGREE` points a right operand is a table of 256
    images, the identity past ``degree``, and ``a.translate(b)`` applies
    ``a`` then ``b`` for an ``a`` of any length, so a left operand is held
    as its ``degree`` images and so is its product.  ``identity[:degree]``
    is then the left operands' identity, and appending ``identity[degree:]``
    makes a left operand a right one.  Above, every element is a 0-based
    tuple under :func:`_mul`, and that tail is empty.  Read when a chain is
    built or sifted through, and when a word is evaluated."""
    if degree <= _TABLE_DEGREE:
        return bytes.translate, _table_inv, _TABLE_IDENTITY
    return _mul, _inv, tuple(range(degree))


def _chain_element(images: tuple):
    """0-based images as a right operand of the kernel of their degree; its
    first ``len(images)`` entries are them as a left operand."""
    if len(images) <= _TABLE_DEGREE:
        return bytes(images) + _TABLE_IDENTITY[len(images):]
    return images


def _first_moved(a) -> int:
    return next(p for p, v in enumerate(a) if v != p)


def _long_cycle(a: tuple) -> int:
    """Length of the cycle of ``a`` longer than half the degree, or 0 when
    there is none (there cannot be two); not :func:`_walk`, as it runs on the
    Jordan search's raw products and stops early."""
    n = len(a)
    seen = bytearray(n)
    unseen = n
    for start in range(n):
        if 2 * unseen <= n:
            return 0
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = 1
            j = a[j]
            length += 1
        if 2 * length > n:
            return length
        unseen -= length


def _proper_block(gens: list, n: int) -> Optional[list]:
    """The least block of the transitive group generated by ``gens``, 0-based
    image tuples of degree ``n``, that holds points 0 and 1, as its sorted
    points; None when that block is the whole domain.

    Atkinson's closure (M. D. Atkinson, An algorithm for finding the blocks
    of a permutation group, *Math. Comp.* 29, 1975): join the classes of 0
    and 1, and for each pair of class representatives joined, join the
    classes of their images under every generator; the classes are then the
    blocks of a system.  All blocks of a system have one size, which divides
    n, so the closure stops once a class passes n/2.
    """
    parent = list(range(n))
    size = [1] * n

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = parent[parent[p]]  # path halving
            p = parent[p]
        return p

    parent[1], size[0] = 0, 2
    joined = [(0, 1)]
    while joined:
        a, b = joined.pop()
        for g in gens:
            x, y = find(g[a]), find(g[b])
            if x == y:
                continue
            if size[x] < size[y]:
                x, y = y, x
            parent[y] = x
            size[x] += size[y]
            if 2 * size[x] > n:
                return None
            joined.append((x, y))
    root = find(0)
    if 2 * size[root] > n:  # {0, 1} is the whole domain at degree 2
        return None
    return [p for p in range(n) if find(p) == root]


def _walk(images: tuple) -> tuple:
    """One walk of the cycles of 0-based ``images``: the length of each
    cycle, fixed points included, in the order of their least points, the
    length of the cycle through each point, and the nontrivial cycles as
    0-based lists, each from its least point, in that order (the canonical
    order :meth:`Permutation.cycles` prints).  :meth:`Permutation._walked`
    holds it."""
    through = [0] * len(images)
    lengths = []
    cycles = []
    for start, j in enumerate(images):
        if through[start]:
            continue
        cycle = [start]
        while j != start:
            cycle.append(j)
            j = images[j]
        length = len(cycle)
        for point in cycle:
            through[point] = length
        lengths.append(length)
        if length > 1:
            cycles.append(cycle)
    return lengths, through, cycles


def _is_odd(p: "Permutation") -> bool:
    """A permutation of n points with c cycles, fixed points included, is a
    product of n - c transpositions."""
    return (len(p._images) - len(p._walked()[0])) % 2 == 1


class Permutation:
    """A bijection of {1..n}, immutable and hashable.  Printing reads its
    held walk of the cycles (:meth:`_walked`); ``==``, ``hash`` and
    pickling read its images, never the walk."""

    __slots__ = ("_images", "_held")

    def __init__(self, images: Sequence[int]):
        """Build from 1-based images: ``images[i]`` is the image of point i+1."""
        n = len(images)
        seen = [False] * n
        for v in images:
            if not 1 <= v <= n:
                raise PointOutOfRange(f"image {v} outside 1..{n}")
            if seen[v - 1]:
                raise RepeatedPoint(f"image {v} occurs twice")
            seen[v - 1] = True
        self._images = tuple(v - 1 for v in images)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_zero_based(cls, images: tuple) -> "Permutation":
        p = object.__new__(cls)
        p._images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._from_zero_based(tuple(range(degree)))

    # -- basic protocol ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._images)

    @property
    def images(self) -> tuple:
        """1-based image tuple."""
        return tuple(v + 1 for v in self._images)

    def apply(self, point: int) -> int:
        """Image of a 1-based point."""
        if not 1 <= point <= len(self._images):
            raise PointOutOfRange(f"point {point} outside 1..{len(self._images)}")
        return self._images[point - 1] + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._images == other._images

    def __hash__(self) -> int:
        return hash(self._images)

    def __getstate__(self):
        return None, {"_images": self._images}  # the held walk is not pickled

    def __mul__(self, other: "Permutation") -> "Permutation":
        if not isinstance(other, Permutation):
            return NotImplemented
        return compose_right(self, other)

    def __pow__(self, exponent) -> "Permutation":
        exponent = exponent_of(exponent)
        if exponent is None:
            return NotImplemented
        images = self._images if exponent >= 0 else _inv(self._images)
        identity = tuple(range(len(images)))
        return Permutation._from_zero_based(power(images, abs(exponent), identity, _mul))

    def inverse(self) -> "Permutation":
        return Permutation._from_zero_based(_inv(self._images))

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self._images))

    # -- cycle structure -----------------------------------------------------

    def _walked(self) -> tuple:
        """The :func:`_walk` of the images, taken once: the printed cycles,
        cycle type, order, parity and the isomorphism search all read it."""
        held = getattr(self, "_held", None)
        if held is None:
            held = self._held = _walk(self._images)
        return held

    def cycles(self) -> list:
        """Nontrivial cycles, canonical: sorted by least element, least first."""
        return [tuple([p + 1 for p in cycle]) for cycle in self._walked()[2]]

    def cycle_type(self) -> list:
        """Multiset of cycle lengths, fixed points included, sorted descending."""
        return sorted(self._walked()[0], reverse=True)

    def order(self) -> int:
        return lcm(*self._walked()[0])  # lcm() is 1 at degree 0

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycles)

    def __repr__(self) -> str:
        return f"Permutation({self!s}, degree={self.degree})"


def check_degree(degree: int) -> None:
    """Refuse a degree above ``MAX_DEGREE``, read at call time, with
    :class:`ResourceLimit`."""
    if degree > MAX_DEGREE:
        raise ResourceLimit(f"degree {degree} exceeds cap {MAX_DEGREE}")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse whitespace-tolerant disjoint-cycle notation with 1-based points.

    Fixed points may be omitted; ``()`` and the empty string denote the
    identity.  Raises :class:`RepeatedPoint` when a point occurs twice,
    :class:`PointOutOfRange` when a point exceeds ``degree``,
    :class:`ParseError` for anything that is not cycle syntax, and
    :class:`ResourceLimit` for a degree above ``MAX_DEGREE``, before the
    permutation's lists are allocated.
    """
    if degree < 0:
        raise ParseError("degree must be nonnegative")
    check_degree(degree)
    stripped = text.strip()
    remainder = _CYCLE_TOKEN.sub("", stripped)
    if remainder.strip():
        raise ParseError(f"unexpected text in cycle notation: {remainder.strip()!r}")
    images = list(range(degree))
    used = [False] * degree
    for match in _CYCLE_TOKEN.finditer(stripped):
        body = match.group(1).strip()
        if not body:
            continue
        points = []
        for token in body.split(","):
            token = token.strip()
            if not token.isdecimal():
                raise ParseError(f"bad point {token!r} in cycle notation")
            points.append(decimal(token, " in cycle notation"))
        for pt in points:
            if not 1 <= pt <= degree:
                raise PointOutOfRange(f"point {pt} outside 1..{degree}")
            if used[pt - 1]:
                raise RepeatedPoint(f"point {pt} occurs twice")
            used[pt - 1] = True
        for a, b in zip(points, points[1:] + points[:1]):
            images[a - 1] = b - 1
    return Permutation._from_zero_based(tuple(images))


def compose_right(a: Permutation, b: Permutation) -> Permutation:
    """Right-action product: apply ``a`` first, then ``b``."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degrees {a.degree} and {b.degree} differ")
    return Permutation._from_zero_based(_mul(a._images, b._images))


# ---------------------------------------------------------------------------
# BSGS machinery
# ---------------------------------------------------------------------------


class _Level:
    """One level of the chain.  Its strong generators and each entry's u^-1
    are right operands of the kernel (:func:`_kernel`); each entry's u, and
    ``held``, are left operands, a generator's first ``degree`` images."""

    __slots__ = ("point", "gens", "held", "orbit", "points", "closed", "pending")

    def __init__(self, point: int, root: tuple, gens: Sequence = ()):
        self.point = point
        self.gens = list(gens)
        # the generators as left operands, root's u having the degree's
        # length, for the sift-skip test of the level above
        degree = len(root[0])
        self.held = {g[:degree] for g in gens}
        # orbit maps point -> (u, u_inv) with base^u == point, root being the
        # base point's identity entry; an entry, once made, is never replaced
        self.orbit: dict = {point: root}
        # the orbit's points in the order they were reached, a list that an
        # orbit extension walks while it appends
        self.points = [point]
        # the orbit is closed under gens[:closed]
        self.closed = 0
        # Schreier pairs (orbit point, generator) not sifted yet, first in
        # first out
        self.pending: deque = deque()


def _orbit_product(levels: list) -> int:
    """The order of a complete chain, and a lower bound for a partial one."""
    return prod(len(lvl.orbit) for lvl in levels)


class PermGroup:
    """Group generated by permutations, with exact order and membership.

    The stabilizer chain is built lazily, under a lock, by a loop whose
    state (the levels, and the level index, -1 once complete) stays on the
    group, so a query continues a build that an earlier query stopped;
    once it is complete, queries are read-only and safe for concurrent use.
    Each level keeps its orbit with a transversal entry (u, u^-1) per point,
    the orbit's points in the order they were reached, the number of
    generators that orbit is closed under, and a queue of the
    Schreier pairs it has not sifted yet, so that a level that gains a strong
    generator does only the new work.  Transitivity is settled when the
    group is made, since a dessin checks it and :meth:`_giant` reads it
    first; the certificate stays lazy, as most groups never need it.
    """

    def __init__(self, generators: Iterable[Permutation]):
        gens = list(generators)
        if not gens:
            raise OutOfRange("at least one generator is required")
        degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch("generators have mixed degrees")
        check_degree(degree)
        self._degree = degree
        self._gens = tuple(gens)
        self._transitive = degree > 0 and len(self.orbit(1)) == degree
        self._lock = threading.Lock()
        self._levels: Optional[list] = None  # made by the first chain query
        self._level = 0

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple:
        return self._gens

    # -- public queries ------------------------------------------------------

    def order(self) -> int:
        """Exact group order.

        A group that the Jordan certificate (:meth:`_giant`) shows to contain
        A_n gets n!/2 or n! without a stabilizer chain; every other group
        builds its chain.
        """
        symmetric = self._giant
        if symmetric is not None:
            return factorial(self._degree) // (1 if symmetric else 2)
        return _orbit_product(self._ensure_bsgs())

    def order_exceeds(self, bound: int) -> bool:
        """True iff the group order is > ``bound``.

        A certified giant compares n!/2 or n! with ``bound``.  Otherwise the
        stabilizer chain is built only until the product of its orbit sizes,
        which never exceeds the order, passes ``bound`` or the chain is
        complete; a later query continues the build from there.
        """
        if self._giant is not None:
            return self.order() > bound
        levels = self._ensure_bsgs(lambda levels: _orbit_product(levels) > bound)
        return _orbit_product(levels) > bound

    def _fixer_is_nontrivial(self, m: int) -> bool:
        """True iff some element other than the identity fixes each of the
        points 1..m, read off the stabilizer chain.

        Each base point is the first point that the element which made its
        level moves: the strong generator whose orbit made the first level,
        or a sift residue.  A level at a point past m is thus made by a
        nontrivial element fixing 1..m, and the build stops once it has
        made one and extended its orbit.  A complete chain whose base lies within 1..m has a trivial
        pointwise stabilizer of its base, so of 1..m.  A stopped build keeps
        its levels and index, and a later query continues it.
        """
        levels = self._ensure_bsgs(lambda levels: levels[-1].point >= m)
        return any(lvl.point >= m for lvl in levels)

    def __contains__(self, p: Permutation) -> bool:
        return self.is_member(p)

    def is_member(self, p: Permutation) -> bool:
        """Membership: by parity in a certified A_n or S_n, otherwise by
        sifting through the strong generator table."""
        if p.degree != self._degree:
            raise DegreeMismatch(f"degrees {p.degree} and {self._degree} differ")
        symmetric = self._giant
        if symmetric is not None:
            return symmetric or not _is_odd(p)
        n = self._degree
        mul, _, identity = _kernel(n)
        residue, _ = self._strip(self._ensure_bsgs(), _chain_element(p._images)[:n], 0, mul)
        return residue == identity[:n]

    def is_transitive(self) -> bool:
        """True iff the orbit of point 1, taken when the group is made, is the
        whole domain; the empty domain has no orbit and is not transitive."""
        return self._transitive

    def orbit(self, point: int) -> set:
        """Orbit of a 1-based point under the generators."""
        if not 1 <= point <= self._degree:
            raise PointOutOfRange(f"point {point} outside 1..{self._degree}")
        start = point - 1
        seen = {start}
        queue = [start]
        gens = [g._images for g in self._gens]
        while queue:
            a = queue.pop()
            for g in gens:
                b = g[a]
                if b not in seen:
                    seen.add(b)
                    queue.append(b)
        return {p + 1 for p in seen}

    def base(self) -> list:
        """The (1-based) base sequence of the stabilizer chain."""
        return [lvl.point + 1 for lvl in self._ensure_bsgs()]

    def strong_generators(self) -> list:
        """Strong generators of the chain's top level, as Permutations."""
        levels = self._ensure_bsgs()
        top = levels[0].gens if levels else ()  # the trivial group has no levels
        n = self._degree
        return [Permutation._from_zero_based(tuple(g[:n])) for g in top]

    # -- construction ----------------------------------------------------------

    @cached_property
    def _giant(self) -> Optional[bool]:
        """Jordan certificate: True if the group is S_n, False if it is A_n,
        None when no certificate turned up.

        The certificate is a transitive group G and an element g with a cycle
        of prime length l, n/2 < l < n - 2.  The other cycles of g are
        shorter than l, so h = g^m, m the lcm of their lengths and prime to
        l, is an l-cycle.  G is then primitive: h permutes the blocks of any
        system of blocks of size 2 or more, and with at most n/2 < l blocks
        its orbits on them, of length 1 or l, are all fixed points; so the
        support of h, one h-orbit, lies in one block, of size at least
        l > n/2, which must be the whole set.  By Jordan's theorem a primitive group with a prime cycle of length at
        most n - 3 contains A_n (Seress, *Permutation Group Algorithms*, CUP
        2003, ch. 10), and it is S_n iff some generator is odd.

        The elements tried are the first :data:`_JORDAN_TRIES` prefix
        products of the generators taken in Thue-Morse order (generator
        number popcount(k) mod the number of generators at step k), a fixed
        sequence, so the outcome is reproducible.  Below degree 8 there is
        no such prime, and a group found intransitive when it was made takes
        no product.  By the argument above an imprimitive group has no
        certificate, so after :data:`_BLOCK_TEST_AFTER` products with none
        the search stops if the least block holding points 1 and 2 is
        proper (:func:`_proper_block`): the remaining products could only
        give None.
        """
        n = self._degree
        if n < 8 or not self._transitive:
            return None
        gens = [g._images for g in self._gens]
        x = None
        for k in range(_JORDAN_TRIES):
            if k == _BLOCK_TEST_AFTER and _proper_block(gens, n) is not None:
                return None  # imprimitive, so no certificate can turn up
            g = gens[bin(k).count("1") % len(gens)]
            x = g if x is None else _mul(x, g)
            length = _long_cycle(x)
            if length and length < n - 2 and is_prime(length):
                return any(_is_odd(s) for s in self._gens)
        return None

    def _ensure_bsgs(self, stop=None) -> list:
        """The chain's levels: complete, or as far as :meth:`_build` took
        them before ``stop`` held, when one is given."""
        if self._level < 0:
            return self._levels
        with self._lock:
            if self._level >= 0:
                self._build(stop)
            return self._levels

    def _build(self, stop) -> None:
        """The deterministic incremental Schreier-Sims algorithm, as one loop
        over a level index i (Holt, Eick and O'Brien, *Handbook of
        Computational Group Theory*, CRC 2005, sec. 4.4.2).

        Every level after i is complete.  Level i first extends its orbit
        under the generators it gained, which queues the new Schreier pairs,
        then drains its queue in one inner loop, sifting each pair through
        the deeper levels, until a nontrivial residue appears.  A residue
        that drops out at level j becomes a strong generator of levels
        i+1..j, and the loop goes down to level j; a level whose queue runs
        dry is complete, and the loop goes up to i - 1.  A pair sifted once
        needs no second sift: its transversal entries are kept, and the
        deeper levels it went through have since only gained orbit points
        and new levels below, never changed an entry.

        Only pairs that can give a strong generator are queued
        (:meth:`_extend_orbit`), and of those a pair is not sifted when its
        Schreier generator is trivial or a strong generator of level i+1:
        level i+1 and every level after it are complete, so it sifts to the
        identity, and skipping it changes no state.  That test reads the
        set of level i+1's generators as left operands, which the level holds
        beside them.

        The loop resumes from the group's levels and index and stores them
        back when the chain is complete or when ``stop``, a test of the
        levels, holds.  It is tested when the loop starts or resumes and
        after each orbit extension that adds points, before that level
        drains its queue; a new level's first extension always adds points,
        since its generator moves its base point.  So a stopped build and the
        builds that resume it do the work of one unstopped build, in the same
        order.  An exception leaves no levels, so the next query restarts.
        It composes in the kernel of the group's degree (:func:`_kernel`),
        holding each u, Schreier generator and residue as a left operand,
        and a residue becomes a right operand when it becomes a strong
        generator.  It counts the transversal entries stored as it makes
        them.
        """
        n = self._degree
        mul, inv, table = _kernel(n)
        identity, tail = table[:n], table[n:]
        root = (identity, table)
        levels, i = self._levels, self._level
        self._levels = None
        if levels is None:
            unique = dict.fromkeys(_chain_element(g._images) for g in self._gens)
            gens = [t for t in unique if t != table]
            levels = [_Level(min(map(_first_moved, gens)), root, gens)] if gens else []
            i = len(levels) - 1
        inverses: dict = {}
        stored = sum(len(lvl.orbit) for lvl in levels)
        grew = True  # the stop is tested at the start and after an orbit grows
        while i >= 0:
            if grew and stop is not None and stop(levels):
                break
            grew = False
            level = levels[i]
            below = levels[i + 1].held if i + 1 < len(levels) else ()
            if level.closed < len(level.gens):
                grown = self._extend_orbit(level, stored, mul, inv, inverses, below)
                if grown:
                    stored += grown
                    if stop is not None:
                        grew = True
                        continue  # test the stop before the queue is drained
            orbit, pending = level.orbit, level.pending
            while pending:
                pt, g = pending.popleft()
                ug = mul(orbit[pt][0], g)
                target = orbit[g[pt]]
                if ug == target[0]:
                    continue  # Schreier generator is trivial
                schreier = mul(ug, target[1])
                if schreier in below:
                    continue  # a strong generator of the complete level below
                residue, j = self._strip(levels, schreier, i + 1, mul)
                if residue != identity:
                    break
            else:
                i -= 1  # level i is complete
                continue
            if j == len(levels):
                levels.append(_Level(_first_moved(residue), root))
                stored += 1
            strong = residue + tail
            for l in range(i + 1, j + 1):
                levels[l].gens.append(strong)
                levels[l].held.add(residue)
            i = j
        self._levels, self._level = levels, i

    def _extend_orbit(self, level: "_Level", stored: int, mul, inv,
                      inverses: dict, below) -> int:
        """Close the orbit under the generators added since the last call,
        breadth-first: the old points under the new generators, then each
        new point under all of them.  Old entries stay as they are.  Return
        how many points the orbit gained.

        The pairs (point, generator) visited are queued on ``level.pending``
        in that order, except two kinds whose Schreier generator is known to
        be trivial or held already.  A pair (a, g) that makes the entry of
        b = a^g gives u_b = u_a g, and entries are never replaced, so it
        would always pop as a tree edge.  A pair (base point, g) with g in
        ``below``, the generators of the next level as left operands, has
        Schreier generator g, and ``below`` only grows, so it would be
        skipped when popped.

        ``stored`` counts the chain's transversal entries; a point that
        would take them past :data:`MAX_TRANSVERSAL_BYTES` raises
        :class:`ResourceLimit` before its entry is made.  The room left
        under that cap is worked out at the first new point, since most
        calls add none.  ``inverses`` caches ``inv`` of the generators."""
        gens, n = level.gens, self._degree
        fresh = gens[level.closed:]
        base, orbit, pending, points = level.point, level.orbit, level.pending, level.points
        n_old = len(points)
        room = None
        for idx, a in enumerate(points):  # points grows as the orbit does
            for g in fresh if idx < n_old else gens:
                b = g[a]
                if b in orbit:
                    if a != base or g[:n] not in below:
                        pending.append((a, g))
                    continue
                if room is None:
                    per_point = 2 * n * 8
                    others = stored - n_old
                    room = MAX_TRANSVERSAL_BYTES // per_point - others
                if len(points) >= room:
                    stored = others + len(points) + 1
                    raise ResourceLimit(
                        f"transversal storage ~{stored * per_point} bytes "
                        f"exceeds cap {MAX_TRANSVERSAL_BYTES}")
                gi = inverses.get(g)
                if gi is None:
                    gi = inverses[g] = inv(g)
                u, u_inv = orbit[a]
                orbit[b] = (mul(u, g), mul(gi, u_inv))
                points.append(b)
        level.closed = len(gens)
        return len(points) - n_old

    def _strip(self, levels: list, g, start: int, mul):
        """Sift g, a left operand, through levels[start:] under the compose
        ``mul``, each step a product with an entry's u^-1 on the right;
        return (residue, drop-out level), the residue a left operand."""
        for idx in range(start, len(levels)):
            lvl = levels[idx]
            img = g[lvl.point]
            if img == lvl.point:
                continue
            entry = lvl.orbit.get(img)
            if entry is None:
                return g, idx
            g = mul(g, entry[1])
        return g, len(levels)
