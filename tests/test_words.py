"""Free-word parsing, reduction, and homomorphism evaluation tests."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessinkit import words
from dessinkit._exact import MAX_NESTING
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
        # once, and the word once more as the FreeWord is made; pushing each
        # group onto its prefix pushed about 50 times as many and took
        # 1.2-2.1 s
        pushed = []
        push = words._push

        def counting(out, syllables):
            syllables = list(syllables)
            pushed.append(len(syllables))
            return push(out, syllables)

        monkeypatch.setattr(words, "_push", counting)
        word = parse_word("x (" * 100 + "x y " * 30000 + ")" * 100)
        assert word.syllables == (("x", 101), ("y", 1)) + (("x", 1), ("y", 1)) * 29999
        assert sum(pushed) == 100 + 60000 + 60000

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
