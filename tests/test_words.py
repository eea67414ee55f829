"""Free-word parsing, reduction, and homomorphism evaluation tests."""

import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessinkit import words
from dessinkit._exact import MAX_NESTING, Scanner
from dessinkit.errors import DegreeMismatch, ParseError, ResourceLimit
from dessinkit.perms import Permutation, compose_right
from dessinkit.words import FreeWord, commutator_word, evaluate_word, parse_word


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


syllable_lists = st.lists(
    st.tuples(st.sampled_from("xy"), st.integers(-6, 6).filter(bool)),
    max_size=8,
)


class TestParsing:
    def test_explicit_exponents(self):
        w = parse_word("x^3 y^-1 x^2 y x^3")
        assert w.syllables == (("x", 3), ("y", -1), ("x", 2), ("y", 1), ("x", 3))

    def test_free_reduction(self):
        assert parse_word("x x^-1").is_empty
        assert parse_word("x y y^-1 x^-1").is_empty
        assert parse_word("x^2 x^-1") == parse_word("x")

    def test_commutator_bracket(self):
        w = parse_word("[x^-1 y^2 x, x y]")
        a, b = parse_word("x^-1 y^2 x"), parse_word("x y")
        assert w == commutator_word(a, b)
        assert w == a * b * a.inverse() * b.inverse()

    def test_group_power(self):
        assert parse_word("(x y)^2") == parse_word("x y x y")
        assert parse_word("(x y)^-1") == parse_word("y^-1 x^-1")

    def test_nested(self):
        assert parse_word("((x)^2)^3") == parse_word("x^6")
        assert parse_word("[x, [x, y]]").syllables  # parses and reduces

    def test_whitespace(self):
        assert parse_word("  x ^ 2   y") == parse_word("x^2 y")

    def test_rejects_other_generators(self):
        for bad in ("z", "x^", "x**2", "(x", "[x, y", "x,y", "x^1.5"):
            with pytest.raises(ParseError):
                parse_word(bad)

    def test_digits_of_one_exponent_are_contiguous(self):
        assert parse_word("x^ 12") == parse_word("x^12")
        with pytest.raises(ParseError, match="unexpected '2' at position 5 in word"):
            parse_word("x^1 2")
        with pytest.raises(ParseError, match="expected integer at position 2 in word"):
            parse_word("x^²")  # a digit character that is not a decimal digit

    def test_empty_word(self):
        w = parse_word("")
        assert w.is_empty and str(w) == "1"

    def test_syllable_cap_is_checked_as_a_power_grows(self, monkeypatch):
        reduce = words._reduce

        def bounded(syllables):
            syllables = tuple(syllables)
            assert len(syllables) <= 2 * words.MAX_SYLLABLES, "word grew unchecked"
            return reduce(syllables)

        monkeypatch.setattr(words, "_reduce", bounded)
        cap = words.MAX_SYLLABLES
        with pytest.raises(ResourceLimit, match=f"syllables is over the cap {cap}"):
            parse_word("(x y)^1000000000")
        with pytest.raises(ResourceLimit):
            parse_word(f"[x, y]^{cap // 4 + 1}")
        assert len(parse_word(f"(x y)^{cap // 2}").syllables) == cap

    def test_parse_time_is_linear_in_the_number_of_factors(self):
        # each factor is reduced onto the word parsed so far, not the whole
        # word again: 20000 pairs took minutes when it was
        start = time.perf_counter()
        word = parse_word("x y " * 20000)
        assert time.perf_counter() - start < 2
        assert word.syllables == (("x", 1), ("y", 1)) * 20000

    def test_nested_groups_are_not_copied_once_per_level(self):
        # a group is pushed onto, or taken over as, the enclosing list: with
        # a copy per level this took about 4 s
        depth = MAX_NESTING
        start = time.perf_counter()
        word = parse_word("(" * depth + "x y " * 30000 + ")" * depth)
        assert time.perf_counter() - start < 2
        assert word.syllables == (("x", 1), ("y", 1)) * 30000

    def test_a_prefix_before_each_group_costs_the_prefix(self, monkeypatch):
        # x ( ... x ( x y ... ) ... ): each level joins its one-syllable
        # prefix and its group in the longer list, so every letter is pushed
        # once, and the reduced list becomes the FreeWord without a second
        # push; pushing each group onto its prefix pushed about 50 times as
        # many and took 1.2-2.1 s
        pushed = []
        push = words._push

        def counting(out, syllables):
            syllables = list(syllables)
            pushed.append(len(syllables))
            return push(out, syllables)

        monkeypatch.setattr(words, "_push", counting)
        word = parse_word("x (" * 100 + "x y " * 30000 + ")" * 100)
        assert word.syllables == (("x", 101), ("y", 1)) + (("x", 1), ("y", 1)) * 29999
        assert sum(pushed) == 100 + 60000

    def test_groups_after_prefixes_against_products(self):
        # unpowered groups after prefixes that cancel into them, or not, and
        # longer or shorter than them, against the product of their words
        rng = random.Random(3809)
        for _ in range(600):
            text, oracle = _nested_word(rng, 4)
            assert parse_word(text).syllables == oracle.syllables, text

    def test_cap_is_checked_on_the_reduced_prefix(self):
        with pytest.raises(ResourceLimit, match="word of 160000 syllables"):
            parse_word("(x y)^40000 (x y)^40000 (x y)^-40000")
        assert len(parse_word("(x y)^30000 (x y)^-30000 (x y)^30000").syllables) == 60000

    def test_powers_of_one_generator_stay_one_syllable(self):
        big = 10**100
        assert parse_word(f"x^{big} y^-{big}").syllables == (("x", big), ("y", -big))


def _random_factor(rng, depth):
    """A random factor as (text, oracle): the text in the word grammar, and
    its FreeWord built without the parser's powers.  A small letter power
    x^k is |k| letters or inverse letters, a huge one its one syllable, a
    group power repeated products, and a bracket a b a^-1 b^-1."""
    kind = rng.random() if depth else 0
    if kind < 0.7:
        letter = rng.choice("xy")
        if rng.random() < 0.1:
            k = rng.choice([-1, 1]) * rng.randint(10**5, 10 ** rng.randint(5, 40))
            return f"{letter}^{k}", FreeWord([(letter, k)])
        k = rng.randint(-6, 6)
        text = letter if k == 1 and rng.random() < 0.5 else f"{letter}^{k}"
        return text, FreeWord([(letter, 1 if k > 0 else -1)] * abs(k))
    if kind < 0.85:
        text, oracle = _random_word(rng, depth - 1)
        k = rng.randint(-3, 3)
        power = FreeWord()
        for _ in range(abs(k)):
            power = power * oracle
        return f"({text})^{k}", power if k >= 0 else power.inverse()
    (a_text, a), (b_text, b) = _random_word(rng, depth - 1), _random_word(rng, depth - 1)
    return f"[{a_text}, {b_text}]", a * b * a.inverse() * b.inverse()


def _random_word(rng, depth):
    text, oracle = [], FreeWord()
    for _ in range(rng.randint(0, 5)):
        factor_text, factor = _random_factor(rng, depth)
        text.append(factor_text)
        oracle = oracle * factor
    return " ".join(text), oracle


def _nested_word(rng, depth):
    """A random word of letter powers and unpowered groups as (text,
    oracle), the oracle the product of the factors' FreeWords."""
    parts, oracle = [], FreeWord()
    for _ in range(rng.randint(0, 4)):
        if depth and rng.random() < 0.5:
            text, factor = _nested_word(rng, depth - 1)
            text = f"({text})"
        else:
            letter, k = rng.choice("xy"), rng.choice((-2, -1, 1, 2))
            text, factor = f"{letter}^{k}", FreeWord([(letter, k)])
        parts.append(text)
        oracle = oracle * factor
    return " ".join(parts), oracle


class TestLetterPowers:
    def test_against_written_out_letters(self):
        rng = random.Random(28)
        for _ in range(800):
            text, oracle = _random_word(rng, 3)
            assert parse_word(text).syllables == oracle.syllables, text

    def test_a_letter_power_is_one_syllable(self, monkeypatch):
        calls = []
        pow_ = FreeWord.__pow__

        def counted(self, exponent):
            calls.append(exponent)
            return pow_(self, exponent)

        monkeypatch.setattr(FreeWord, "__pow__", counted)
        w = parse_word("x^-3 y^1000000000000 x^0")
        assert w.syllables == (("x", -3), ("y", 10**12)) and calls == []
        assert parse_word("(x y)^2") == parse_word("x y x y") and calls == [2]


class TestCommutator:
    def test_self_commutator(self):
        x = parse_word("x")
        assert commutator_word(x, x).is_empty

    def test_definition(self):
        x, y = parse_word("x"), parse_word("y")
        assert commutator_word(x, y) == parse_word("x y x^-1 y^-1")

    def test_convention_immaterial_for_kernels(self):
        # [a,b] = id exactly when [b,a] = id under either bracket order
        rng = random.Random(2)
        for _ in range(20):
            mx, my = random_perm(rng, 6), random_perm(rng, 6)
            a = parse_word("x^-1 y^2 x")
            b = parse_word("x y")
            fwd = evaluate_word(commutator_word(a, b), mx, my)
            rev = evaluate_word(commutator_word(b, a), mx, my)
            assert fwd.is_identity == rev.is_identity


class TestEvaluation:
    def test_generator(self):
        rng = random.Random(7)
        mx, my = random_perm(rng, 6), random_perm(rng, 6)
        assert evaluate_word(parse_word("x"), mx, my) == mx
        assert evaluate_word(parse_word("y"), mx, my) == my

    def test_empty_is_identity(self):
        rng = random.Random(8)
        mx, my = random_perm(rng, 5), random_perm(rng, 5)
        assert evaluate_word(FreeWord(), mx, my).is_identity

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            evaluate_word(
                parse_word("x"), Permutation.identity(3), Permutation.identity(4)
            )

    def test_large_exponent_square_and_multiply(self):
        cyc = Permutation([2, 3, 4, 5, 1])
        w = parse_word("x^1000000000000000001")
        assert evaluate_word(w, cyc, Permutation.identity(5)) == cyc

    @given(syllable_lists, syllable_lists, st.integers(2, 10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_homomorphism_law(self, u_syll, v_syll, n, data):
        u, v = FreeWord(u_syll), FreeWord(v_syll)
        mx = Permutation(data.draw(st.permutations(list(range(1, n + 1)))))
        my = Permutation(data.draw(st.permutations(list(range(1, n + 1)))))
        left = evaluate_word(u * v, mx, my)
        right = compose_right(evaluate_word(u, mx, my), evaluate_word(v, mx, my))
        assert left == right
        assert evaluate_word(u.inverse(), mx, my) == evaluate_word(u, mx, my).inverse()

    def test_against_letter_by_letter_oracle(self):
        # the oracle sends each point through the word one letter at a time;
        # a power e of a letter walks the point's cycle |e| mod its length
        # letters, so 2^100 + 1 is cheap.  Degrees 0 and 1 are the ones
        # perms._mul composes by hand, 300 a degree above the byte tables
        from dessinkit.models import gallery_dessin

        def letter_by_letter(w, mx, my):
            maps = {}
            for g, p in (("x", mx), ("y", my)):
                forward = dict(enumerate(p.images, 1))
                maps[g, 1] = forward
                maps[g, -1] = {v: k for k, v in forward.items()}

            def walk(point, g, e):
                step = maps[g, 1 if e > 0 else -1]
                length, q = 1, step[point]
                while q != point:
                    length, q = length + 1, step[q]
                for _ in range(abs(e) % length):
                    point = step[point]
                return point

            images = []
            for point in range(1, mx.degree + 1):
                for g, e in w.syllables:
                    point = walk(point, g, e)
                images.append(point)
            return Permutation(images)

        rng = random.Random(3509)
        huge = 2 ** 100 + 1
        exponents = [0, 1, -1, 2, -2, huge, -huge]
        gallery = gallery_dessin(2)
        assignments = [(Permutation([]), Permutation([]))]
        assignments += [(random_perm(rng, n), random_perm(rng, n)) for n in (1, 2, 2)]
        assignments += [(gallery.sigma0, gallery.sigma1)]
        assignments += [(random_perm(rng, 300), random_perm(rng, 300))]
        for mx, my in assignments:
            for length in range(6):
                syllables = [(rng.choice("xy"), rng.choice(exponents))
                             for _ in range(length)]
                w = FreeWord(syllables)
                assert evaluate_word(w, mx, my) == letter_by_letter(w, mx, my), syllables
        w = parse_word("[x^-1 y^2 x, x y]")
        assert evaluate_word(w, gallery.sigma0, gallery.sigma1) == letter_by_letter(
            w, gallery.sigma0, gallery.sigma1)

    def test_table_kernel_against_tuple_oracle(self, monkeypatch):
        # up to 256 points a word is composed as 256-byte tables, above as
        # tuples; the oracle composes 0-based tuples by square and multiply
        # on its own.  Degrees 0-2 and 255-257 are the kernels' edges,
        # exponents run past 2^64, and the empty word converts nothing
        def tuple_eval(w, mx, my):
            n = mx.degree
            result = tuple(range(n))
            for g, e in w.syllables:
                base = tuple(v - 1 for v in (mx if g == "x" else my).images)
                if e < 0:
                    base = tuple(sorted(range(n), key=base.__getitem__))
                acc, e = tuple(range(n)), abs(e)
                while e:
                    if e & 1:
                        acc = tuple(base[i] for i in acc)
                    base = tuple(base[i] for i in base)
                    e >>= 1
                result = tuple(acc[i] for i in result)
            return Permutation([v + 1 for v in result])

        kernels = []
        kernel = words._kernel

        def recording(degree):
            mul, inv, identity = kernel(degree)
            kernels.append((degree, type(identity)))
            return mul, inv, identity

        monkeypatch.setattr(words, "_kernel", recording)
        rng = random.Random(4503)
        exponents = [1, -1, 2, -3, 2 ** 64 + 1, -(2 ** 64 + 3), 2 ** 70 - 1]
        degrees = [0, 1, 2, 36, 255, 256, 257] + [rng.randint(3, 254) for _ in range(13)]
        for n in degrees:
            mx, my = random_perm(rng, n), random_perm(rng, n)
            for length in range(9):
                w = FreeWord([(rng.choice("xy"), rng.choice(exponents))
                              for _ in range(length)])
                del kernels[:]
                assert evaluate_word(w, mx, my) == tuple_eval(w, mx, my), (n, w)
                if w.is_empty:
                    assert kernels == []
                else:
                    assert kernels == [(n, bytes if n <= 256 else tuple)]
        w = parse_word("[x^-1 y^2 x, x y]")
        for n in (36, 257):
            mx, my = random_perm(rng, n), random_perm(rng, n)
            assert evaluate_word(w, mx, my) == tuple_eval(w, mx, my)

    def test_kernel_inversion_invariance(self):
        rng = random.Random(13)
        for _ in range(30):
            mx, my = random_perm(rng, 6), random_perm(rng, 6)
            syll = [
                (rng.choice("xy"), rng.choice([-2, -1, 1, 2])) for _ in range(5)
            ]
            w = FreeWord(syll)
            assert (
                evaluate_word(w, mx, my).is_identity
                == evaluate_word(w.inverse(), mx, my).is_identity
            )


class TestWordAlgebra:
    def test_reduction_invariants(self):
        rng = random.Random(4)
        for _ in range(50):
            syll = [
                (rng.choice("xy"), rng.randint(-5, 5)) for _ in range(rng.randint(0, 8))
            ]
            w = FreeWord(syll)
            for (g1, e1), (g2, e2) in zip(w.syllables, w.syllables[1:]):
                assert g1 != g2 and e1 != 0 and e2 != 0
            assert (w * w.inverse()).is_empty

    def test_word_power(self):
        w = parse_word("x y")
        assert w**3 == parse_word("x y x y x y")
        assert w**0 == FreeWord()
        assert w**-2 == parse_word("y^-1 x^-1 y^-1 x^-1")

    def test_exponent_sum(self):
        w = parse_word("x^3 y^-1 x^2 y x^3")
        assert w.exponent_sum("x") == 8
        assert w.exponent_sum("y") == 0
        assert len(w) == 10


class TestErrorMessages:
    """The class and message of each raise site no other test reaches."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda: FreeWord([("z", 1)]), ParseError, "unknown generator 'z'"),
        (lambda: parse_word("x)"), ParseError, "unexpected ')' at position 2 in word"),
        (lambda: parse_word("x y]"), ParseError, "unexpected ']' at position 4 in word"),
        (lambda: parse_word("x,y"), ParseError, "unexpected ',' at position 2 in word"),
    ], ids=["unknown generator", "stray parenthesis", "stray bracket", "stray comma"])
    def test_class_and_message(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert exc.type is error and str(exc.value) == message


# -- letter runs against a factor-by-factor reference --------------------------


class _ReferenceParser(Scanner):
    """The reference parser: every factor, letters included, is read through
    the scanner one character at a time, with no pattern match, and the
    reduced list is pushed again as the word is made."""

    def parse_word(self, stop=()) -> list:
        out: list = []
        while True:
            c = self.peek()
            if c is None or c in stop:
                return out
            out = self.parse_factor(out)

    def parse_factor(self, out: list) -> list:
        c = self.take()
        if c in ("x", "y"):
            if self.peek() != "^":
                return words._push(out, [(c, 1)])
            self.take()
            return words._push(out, [(c, self.integer())])
        if c == "(":
            group = self.nested(self.parse_word, ")")
            self.expect(")")
            if self.peek() != "^":
                return words._join(out, group)
            atom = FreeWord(group)
        elif c == "[":
            a = FreeWord(self.nested(self.parse_word, ","))
            self.expect(",")
            b = FreeWord(self.nested(self.parse_word, "]"))
            self.expect("]")
            atom = commutator_word(a, b)
        else:
            raise ParseError(f"unexpected {c!r} at position {self.pos} in word")
        if self.peek() == "^":
            self.take()
            atom = atom ** self.integer()
        return words._push(out, atom.syllables)


def _reference_parse(text):
    return FreeWord(_ReferenceParser(text, " in word").parse_word())


def _outcome(parse, text):
    """The syllables, or the type and message of the exception raised."""
    try:
        return parse(text).syllables
    except Exception as exc:  # any exception, so that a new type shows too
        return type(exc), str(exc)


# whitespace by str.isspace, Unicode spaces and separators among it
_SPACES = (" ", " ", "  ", "\t", "\n", "\x0b", "\x1c", "\x85", "\u00a0",
           "\u1680", "\u2003", "\u2029", "\u3000")
# decimal digits of several scripts, and two digit characters that are not
# decimal
_DIGITS = "0123456789" * 3 + "\u0661\u0663\u0669\u0966\u096f\uff10\uff15\U0001d7ce"
_NOT_DECIMAL = "\u00b2\u00bd"
_STRAY = ("^", "-", "+", "(", ")", "[", "]", ",", "x", "y", "z", "*", "1", "\u00b2", " ")


def _gap(rng):
    return "" if rng.random() < 0.5 else rng.choice(_SPACES)


def _integer(rng, width=(1, 1, 2, 3, 25)):
    if rng.random() < 0.01:  # past the interpreter's limit on decimal digits
        digits = "7" * (sys.get_int_max_str_digits() + rng.randint(1, 3))
    elif rng.random() < 0.01:
        digits = rng.choice(_NOT_DECIMAL)
    else:
        digits = "".join(rng.choice(_DIGITS) for _ in range(rng.choice(width)))
    sign = rng.choice(("", "-")) if rng.random() < 0.99 else "+"
    return sign + _gap(rng) + digits


def _letters(rng):
    """A run of letter factors, with powers, spaced every way the grammar
    allows; now and then a power lacks its integer."""
    parts = []
    for _ in range(rng.randint(1, 6)):
        letter = rng.choice("xyxyxyz" if rng.random() < 0.05 else "xy")
        if rng.random() < 0.6:
            power = "" if rng.random() < 0.01 else _integer(rng)
            letter += _gap(rng) + "^" + _gap(rng) + power
        parts.append(letter)
    return "".join(p + (_gap(rng) or " ") for p in parts)


def _text(rng, depth):
    parts = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random() if depth else 0
        if kind < 0.6:
            parts.append(_letters(rng))
        elif kind < 0.85:
            # one digit, so that a group power stays far below the cap
            power = ("^" + _gap(rng) + _integer(rng, (1,))) if rng.random() < 0.4 else ""
            parts.append("(" + _gap(rng) + _text(rng, depth - 1) + ")" + _gap(rng) + power)
        else:
            parts.append("[" + _text(rng, depth - 1) + "," + _gap(rng)
                         + _text(rng, depth - 1) + "]")
        parts.append(_gap(rng))
    return "".join(parts)


def _mutate(rng, text):
    for _ in range(rng.randint(1, 2)):
        at = rng.randint(0, len(text))
        if rng.random() < 0.5 and text:
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + rng.choice(_STRAY) + text[at:]
    return text


class TestLetterRuns:
    """A run of letter factors is read by one match; the reference is the
    parser that read every factor through the scanner."""

    def test_against_the_factor_by_factor_parser(self):
        rng = random.Random(3901)
        seen = {"valid": 0}
        for k in range(3000):
            text = _text(rng, 3)
            if k % 3 == 0:
                text = _mutate(rng, text)
            outcome = _outcome(parse_word, text)
            assert outcome == _outcome(_reference_parse, text), repr(text)
            if isinstance(outcome, tuple) and outcome and isinstance(outcome[0], type):
                kind = re.sub(r"\d+|'.*'|None", "#", outcome[1])
                seen[kind] = seen.get(kind, 0) + 1
            else:
                seen["valid"] += 1
        assert seen["valid"] >= 1000, seen
        assert seen["expected integer at position # in word"] >= 200, seen
        assert seen["integer of # digits at position # in word is too long"] >= 30, seen
        assert seen["unexpected # at position # in word"] >= 200, seen
        assert seen["expected # at position # in word, got #"] >= 20, seen

    def test_runs_at_the_nesting_limit(self):
        rng = random.Random(3902)
        for depth in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
            for _ in range(20):
                inner = _letters(rng)
                for text in ("(" * depth + inner + ")" * depth,
                             "x (" * depth + inner + ") y^2" * depth,
                             "[x, " + "(" * (depth - 1) + inner + ")" * (depth - 1) + "]"):
                    assert _outcome(parse_word, text) == _outcome(_reference_parse, text)
        with pytest.raises(ParseError, match=f"deeper than {MAX_NESTING} at position"):
            parse_word("(" * (MAX_NESTING + 1) + "x y^2" + ")" * (MAX_NESTING + 1))

    @pytest.mark.parametrize("text, outcome", [
        ("x^ y", (ParseError, "expected integer at position 3 in word")),
        ("x^+1", (ParseError, "expected integer at position 2 in word")),
        ("y x^", (ParseError, "expected integer at position 4 in word")),
        ("x y^-", (ParseError, "expected integer at position 5 in word")),
        ("x ^ - 12", (("x", -12),)),
        ("y\u3000x \t^\u00a0-\u2003\u0661\u0662 y x^3", (("y", 1), ("x", -12), ("y", 1), ("x", 3))),
        ("x^2^3", (ParseError, "unexpected '^' at position 4 in word")),
        ("x^1 2", (ParseError, "unexpected '2' at position 5 in word")),
        ("x x^-1 y^0 y^-0", ()),
        ("x y^2 x^" + "1" * 5000,
         (ParseError, "integer of 5000 digits at position 8 in word is too long")),
    ], ids=["power without integer", "plus sign", "power at the end",
            "minus sign at the end", "spaces in a power", "unicode spaces and digits",
            "two powers", "split digits", "cancelling run", "too many digits"])
    def test_letter_factors(self, text, outcome):
        assert _outcome(parse_word, text) == _outcome(_reference_parse, text) == outcome

    def test_whitespace_and_digits_are_the_scanners(self):
        # the run's \s and \d are Scanner's str.isspace and str.isdecimal
        # at every code point
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", everything) == [c for c in everything if c.isspace()]
        assert re.findall(r"\d", everything) == [c for c in everything if c.isdecimal()]

    def test_a_long_run_is_pushed_in_bounded_pieces(self, monkeypatch):
        pushed = []
        push = words._push

        def counting(out, syllables):
            syllables = list(syllables)
            pushed.append(len(syllables))
            return push(out, syllables)

        monkeypatch.setattr(words, "_push", counting)
        word = parse_word("x y^-1 " * 1000)
        assert word.syllables == (("x", 1), ("y", -1)) * 1000
        assert pushed == [512, 512, 512, 2000 - 3 * 512]

    def test_the_cap_is_checked_inside_a_run(self):
        cap = words.MAX_SYLLABLES
        over = f"word of {cap + 1} syllables is over the cap {cap}"
        # the group leaves cap - 1 syllables, and the run's first two letters
        # pass the cap before the rest of the run would cancel them
        prefix = f"(x y)^{(cap - 2) // 2} x"
        for text, outcome in [
            ("x y " * (cap // 2), None),
            ("x y " * (cap // 2) + "x", (ResourceLimit, over)),
            (prefix + " y x x^-1 y^-1", (ResourceLimit, over)),
            (prefix + " y^-1 y", None),
            (prefix + " y x x^" + "1" * 5000, (ResourceLimit, over)),
        ]:
            got = _outcome(parse_word, text)
            assert got == _outcome(_reference_parse, text)
            if outcome is None:
                assert len(got) <= cap
            else:
                assert got == outcome

    def test_an_over_cap_run_is_refused_in_bounded_time_and_memory(self):
        # two million letters are refused at the 100001st syllable, in 0.07 s
        # and 7 MiB over the interpreter's own, as when every letter was
        # pushed alone (0.15-0.25 s and 7 MiB; Python 3.11, 2-CPU x86-64)
        code = (
            "import resource, time\n"
            "from dessinkit import words\n"
            "from dessinkit.errors import ResourceLimit\n"
            "text = 'x y ' * 10**6\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    words.parse_word(text)\n"
            "except ResourceLimit as exc:\n"
            "    print(exc)\n"
            "print(time.perf_counter() - start)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
        )
        paths = [str(Path(words.__file__).resolve().parent.parent),
                 os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, check=True, timeout=60)
        message, seconds, grown_kib = done.stdout.splitlines()
        assert message == "word of 100001 syllables is over the cap 100000"
        assert float(seconds) < 1.0
        assert int(grown_kib) < 12 * 1024
