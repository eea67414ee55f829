"""Words in the free group on two generators x, y.

Words are stored freely reduced as syllable tuples ``(generator, exponent)``
with nonzero integer exponents and no two adjacent syllables on the same
generator.  Evaluation under an assignment ``x -> mx, y -> my`` is the group
homomorphism into a permutation group, composed with the right action; powers
are taken by square-and-multiply so huge exponents stay cheap.  A word longer
than ``MAX_SYLLABLES`` syllables raises :class:`ResourceLimit`.

Word grammar (also the CLI wire syntax)::

    word   := factor*
    factor := atom [ '^' int ]
    atom   := 'x' | 'y' | '(' word ')' | '[' word ',' word ']'

Whitespace may separate tokens, but not the digits of one integer; ``int``
may be negative, and the commutator bracket expands as
``[a, b] = a b a^-1 b^-1``.  Brackets nest at most ``_exact.MAX_NESTING``
deep.  A run of letter factors is read by one pattern match; groups,
brackets and every error go through the character scanner.
"""

from __future__ import annotations

import operator
import re
from typing import Iterable, Tuple

from ._exact import PRINT_BITS, Scanner, brief, exponent_of, power
from .errors import DegreeMismatch, ParseError, ResourceLimit
from .perms import Permutation, _chain_element, _kernel

Syllable = Tuple[str, int]

#: The most syllables a freely reduced word may have.  A power of one
#: generator stays one syllable however large its exponent, but ``(x y)^N``
#: has 2N syllables.  At the cap such a word takes about 0.15-0.2 s to parse,
#: in a process whose peak RSS is 32 MiB, and 0.12-0.17 s to evaluate on a
#: degree-36 dessin (Python 3.11, one core of a shared 2-CPU x86-64 host).
MAX_SYLLABLES = 100_000


class FreeWord:
    """A freely reduced word in the generators x and y."""

    __slots__ = ("_syllables",)

    def __init__(self, syllables: Iterable[Syllable] = ()):
        self._syllables = _reduce(syllables)

    @classmethod
    def _reduced(cls, syllables: list) -> "FreeWord":
        """The word of a list that is already freely reduced and within the
        cap, taken as it is."""
        w = object.__new__(cls)
        w._syllables = tuple(syllables)
        return w

    @property
    def syllables(self) -> tuple:
        return self._syllables

    @property
    def is_empty(self) -> bool:
        return not self._syllables

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeWord) and self._syllables == other._syllables

    def __hash__(self) -> int:
        return hash(self._syllables)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord._reduced(_join(list(self._syllables), list(other._syllables)))

    def inverse(self) -> "FreeWord":
        # reversed and negated, a freely reduced word stays freely reduced
        return FreeWord._reduced([(g, -e) for g, e in reversed(self._syllables)])

    def __pow__(self, exponent) -> "FreeWord":
        exponent = exponent_of(exponent)
        if exponent is None:
            return NotImplemented
        base = self if exponent >= 0 else self.inverse()
        return power(base, abs(exponent), FreeWord(), operator.mul)

    def __len__(self) -> int:
        """Word length: total number of letters, counting multiplicity."""
        return sum(abs(e) for _, e in self._syllables)

    def exponent_sum(self, generator: str) -> int:
        """Total (signed) exponent of a generator across the word."""
        return sum(e for g, e in self._syllables if g == generator)

    def __str__(self) -> str:
        if not self._syllables:
            return "1"
        parts = []
        for g, e in self._syllables:
            sign = "-" if e < 0 else ""
            parts.append(g if e == 1 else f"{g}^{sign}{brief(abs(e), PRINT_BITS)}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"FreeWord({self!s})"


def _reduce(syllables: Iterable[Syllable]) -> tuple:
    return tuple(_push([], syllables))


def _push(out: list, syllables: Iterable[Syllable]) -> list:
    """Append syllables to the freely reduced list ``out``, reducing as they
    come, and check the cap on the result: the cost is the number of
    syllables pushed, not the length of ``out``."""
    for g, e in syllables:
        if g not in ("x", "y"):
            raise ParseError(f"unknown generator {g!r}")
        if e == 0:
            continue
        if out and out[-1][0] == g:
            merged = out[-1][1] + e
            out.pop()
            if merged:
                out.append((g, merged))
        else:
            out.append((g, e))
    return _capped(out)


def _join(left: list, right: list) -> list:
    """The freely reduced product of two freely reduced lists, made in the
    longer one, so that only the shorter one is walked: the shorter right
    list is pushed onto the left one, and a shorter left list goes before
    the right one once the syllables that cancel at the junction are gone.
    Either list may be the result, and the cap is checked on it.  It is the
    product of two words (:meth:`FreeWord.__mul__`) and the parser's join of
    a group to the factors before it."""
    if len(left) >= len(right):
        return _push(left, right)
    # left[:n] and right[k:] are what is left of each; k <= len(left) -
    # n < len(right), so right never runs out
    n, k = len(left), 0
    while n and left[n - 1][0] == right[k][0]:
        g, e = right[k][0], left[n - 1][1] + right[k][1]
        n -= 1
        if e:
            right[k] = (g, e)
            break
        k += 1
    right[:k] = left[:n]
    return _capped(right)


def _capped(out: list) -> list:
    if len(out) > MAX_SYLLABLES:
        raise ResourceLimit(
            f"word of {len(out)} syllables is over the cap {MAX_SYLLABLES}"
        )
    return out


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


#: A letter with an optional power, ``x``, ``y^-3`` or ``x ^ - 12``: the
#: grammar of a letter factor, whose whitespace and digits are those of
#: ``Scanner`` (``\s`` and ``\d`` are ``str.isspace`` and ``str.isdecimal``).
_SYLLABLE = re.compile(r"([xy])(?:\s*\^\s*(-?)\s*(\d+))?")

#: A run of up to ``_RUN_SYLLABLES`` letter factors and the whitespace after
#: each.  A letter followed by a ``^`` without a complete integer ends the
#: run before it, so that the factor path reports it.  The bound keeps what
#: one match makes small: a long word is pushed 512 syllables at a time, and
#: a run that may cross the cap is read again at most 512 factors.
_RUN_SYLLABLES = 512
_RUN = re.compile(r"(?:[xy](?:\s*\^\s*-?\s*\d+|(?!\s*\^))\s*){1,%d}" % _RUN_SYLLABLES)


class _Parser(Scanner):
    def parse_word(self, stop=()) -> list:
        """The reduced syllables up to a character of ``stop``.

        A run of letter factors is read by one match of ``_RUN`` and pushed
        in one call.  A run that could pass the cap, or that holds an
        integer too long for ``int``, is read again factor by factor, which
        checks the cap after each factor and reports the integer as
        :func:`_exact.decimal` does; everything else is a factor too.
        """
        out: list = []
        text = self.text
        while True:
            c = self.peek()
            if c is None or c in stop:
                return out
            run = _RUN.match(text, self.pos)
            if run is None:
                out = self.parse_factor(out)
                continue
            factors = _SYLLABLE.findall(text, self.pos, run.end())
            try:
                syllables = [(g, int(sign + digits) if digits else 1)
                             for g, sign, digits in factors]
                fits = len(out) + len(syllables) <= MAX_SYLLABLES
            except ValueError:  # the interpreter's limit on decimal digits
                fits = False
            if fits:
                self.pos = run.end()
                out = _push(out, syllables)
            else:
                for _ in factors:
                    out = self.parse_factor(out)

    def parse_factor(self, out: list) -> list:
        """``out`` with the next factor pushed on.  A letter's power is one
        syllable, whatever its exponent.  An unpowered group's list and
        ``out`` are joined in the longer of the two (:func:`_join`), so a
        level costs the shorter one, and nesting copies no list per level;
        the reduced list of a powered group or a bracket becomes its word
        as it is."""
        c = self.take()
        if c in ("x", "y"):
            if self.peek() != "^":
                return _push(out, [(c, 1)])
            self.take()
            return _push(out, [(c, self.integer())])
        if c == "(":
            group = self.nested(self.parse_word, ")")
            self.expect(")")
            if self.peek() != "^":
                return _join(out, group)
            atom = FreeWord._reduced(group)
        elif c == "[":
            a = FreeWord._reduced(self.nested(self.parse_word, ","))
            self.expect(",")
            b = FreeWord._reduced(self.nested(self.parse_word, "]"))
            self.expect("]")
            atom = commutator_word(a, b)
        else:
            raise ParseError(f"unexpected {c!r} at position {self.pos} in word")
        if self.peek() == "^":
            self.take()
            atom = atom ** self.integer()
        return _push(out, atom.syllables)


def parse_word(text: str) -> FreeWord:
    """Parse the word grammar above into a freely reduced :class:`FreeWord`.

    With no stop characters the parser returns only at the end of the input:
    a stray ``)``, ``]`` or ``,`` is an unexpected character of a factor.
    The parser reduces as it reads, so its list becomes the word as it is.
    """
    return FreeWord._reduced(_Parser(text, " in word").parse_word())


def commutator_word(a: FreeWord, b: FreeWord) -> FreeWord:
    """Freely reduced commutator, with the convention [a, b] = a b a^-1 b^-1.

    The convention is pinned by the reference evaluations of the degree-36
    gallery witness, which this choice reproduces verbatim (the variant
    a^-1 b^-1 a b yields conjugate permutations with the same cycle shape but
    different points).  Kernel membership does not depend on the convention:
    under either one, [a, b] evaluates to the identity exactly when the images
    of a and b commute.
    """
    return a * b * a.inverse() * b.inverse()


def evaluate_word(w: FreeWord, mx: Permutation, my: Permutation) -> Permutation:
    """Image of ``w`` under the homomorphism x -> mx, y -> my.

    Respects the right action: ``evaluate_word(u * v) ==
    compose_right(evaluate_word(u), evaluate_word(v))``.  The syllables are
    composed in the kernel of the degree (:func:`perms._kernel`): up to 256
    points mx and my become 256-byte tables once (:func:`perms._chain_element`),
    an inverse is ``bytes.maketrans`` and a power or product
    ``bytes.translate``, all in C; above, they are 0-based image tuples
    composed by ``operator.itemgetter``.  Each power is taken by square and
    multiply, the product starts from the first syllable's image, not the
    identity, and it becomes one :class:`Permutation` at the end.  The empty
    word is the identity, and converts nothing.
    """
    if mx.degree != my.degree:
        raise DegreeMismatch(
            f"assignment degrees {mx.degree} and {my.degree} differ"
        )
    n = mx.degree
    if not w.syllables:
        return Permutation.identity(n)
    mul, inv, _ = _kernel(n)
    images = {"x": _chain_element(mx._images), "y": _chain_element(my._images)}
    inverses: dict = {}
    result = None
    for g, e in w.syllables:
        if e > 0:
            base = images[g]
        else:
            base = inverses.get(g)
            if base is None:
                base = inverses[g] = inv(images[g])
        base = power(base, abs(e), None, mul)  # e != 0, so no identity is used
        result = base if result is None else mul(result, base)
    return Permutation._from_zero_based(tuple(result[:n]))
