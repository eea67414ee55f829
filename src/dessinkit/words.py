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
deep.
"""

from __future__ import annotations

import operator
from typing import Iterable, Tuple

from ._exact import PRINT_BITS, Scanner, brief, power
from .errors import DegreeMismatch, ParseError, ResourceLimit
from .perms import Permutation, compose_right

__all__ = ["FreeWord", "parse_word", "evaluate_word", "commutator_word"]

Syllable = Tuple[str, int]

#: The most syllables a freely reduced word may have.  A power of one
#: generator stays one syllable however large its exponent, but ``(x y)^N``
#: has 2N syllables.  At the cap such a word takes about 0.3 s and 33 MiB to
#: parse and 1 s to evaluate on a degree-36 dessin (Python 3.11, one core of
#: a 2-CPU x86-64 host).
MAX_SYLLABLES = 100_000


class FreeWord:
    """A freely reduced word in the generators x and y."""

    __slots__ = ("_syllables",)

    def __init__(self, syllables: Iterable[Syllable] = ()):
        self._syllables = _reduce(syllables)

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
        return FreeWord(self._syllables + other._syllables)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -e) for g, e in reversed(self._syllables)))

    def __pow__(self, exponent: int) -> "FreeWord":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, FreeWord(), operator.mul)

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
    out: list = []
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
    if len(out) > MAX_SYLLABLES:
        raise ResourceLimit(
            f"word of {len(out)} syllables is over the cap {MAX_SYLLABLES}"
        )
    return tuple(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class _Parser(Scanner):
    def __init__(self, text: str):
        super().__init__(text, " in word")

    def parse_word(self, stop=()) -> FreeWord:
        word = FreeWord()
        while True:
            c = self.peek()
            if c is None or c in stop:
                return word
            word = word * self.parse_factor()

    def parse_factor(self) -> FreeWord:
        c = self.take()
        if c in ("x", "y"):
            atom = FreeWord([(c, 1)])
        elif c == "(":
            atom = self.nested(self.parse_word, ")")
            self.expect(")")
        elif c == "[":
            a = self.nested(self.parse_word, ",")
            self.expect(",")
            b = self.nested(self.parse_word, "]")
            self.expect("]")
            atom = commutator_word(a, b)
        else:
            raise ParseError(f"unexpected {c!r} at position {self.pos} in word")
        if self.peek() == "^":
            self.take()
            atom = atom ** self.integer()
        return atom


def parse_word(text: str) -> FreeWord:
    """Parse the word grammar above into a freely reduced :class:`FreeWord`."""
    parser = _Parser(text)
    word = parser.parse_word()
    if parser.peek() is not None:
        raise ParseError(f"trailing input at position {parser.pos} in word")
    return word


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
    compose_right(evaluate_word(u), evaluate_word(v))``.
    """
    if mx.degree != my.degree:
        raise DegreeMismatch(
            f"assignment degrees {mx.degree} and {my.degree} differ"
        )
    result = Permutation.identity(mx.degree)
    for g, e in w.syllables:
        base = mx if g == "x" else my
        result = compose_right(result, base ** e)
    return result
