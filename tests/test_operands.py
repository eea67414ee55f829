"""The operand rule of the exact types: an int or a Fraction on either side of
a ``RatPoly`` or a ``TowerElement`` is the constant vector, and an int, a
Fraction or a ``RatPoly`` beside a ``RatMap`` is a polynomial map; equal
values hash alike, any other type raises TypeError (and ``==`` is False), and
tower elements of different fields still raise FieldMismatch.  An exponent
of these types, of a ``Permutation`` and of a ``FreeWord`` follows the same
rule: an integral Fraction is its int, another Fraction is out of range, and
any other type raises TypeError."""

import operator
import random
from fractions import Fraction as F

import pytest

from dessinkit.belyi import RatMap, RatPoly, X, parse_map, parse_poly
from dessinkit.errors import DegreeMismatch, DivisionByZero, FieldMismatch, OutOfRange
from dessinkit.perms import Permutation
from dessinkit.tower import TowerElement, TowerField
from dessinkit.words import parse_word

K = TowerField(3, 2)
Z, T = K.zeta(), K.root()

POLY_ROWS = [
    ("X + 1", X + 1),
    ("1 + X", 1 + X),
    ("X - 1/2", X - F(1, 2)),
    ("1/2 - X", F(1, 2) - X),
    ("2*X", 2 * X),
    ("X*2/3", X * F(2, 3)),
    ("X^2 + 1", X**2 + 1),
    ("3", RatPoly() + 3),
    ("0", X - X),
]

# coordinates {(zeta_exp, t_exp): coefficient}; zeta^2 = -1 - zeta for p = 3
TOWER_ROWS = [
    (Z + 1, {(0, 0): 1, (1, 0): 1}),
    (1 + Z, {(0, 0): 1, (1, 0): 1}),
    (T - F(1, 2), {(0, 0): F(-1, 2), (0, 1): 1}),
    (F(1, 2) - T, {(0, 0): F(1, 2), (0, 1): -1}),
    (2 * Z, {(1, 0): 2}),
    (Z * F(2, 3), {(1, 0): F(2, 3)}),
    (Z * Z + 1, {(1, 0): -1}),
    (Z / 4, {(1, 0): F(1, 4)}),
    (K.zero() + F(5, 7), {(0, 0): F(5, 7)}),
]


@pytest.mark.parametrize("text, value", POLY_ROWS, ids=[t for t, _ in POLY_ROWS])
def test_polynomial_with_a_constant(text, value):
    parsed = parse_poly(text)
    assert value == parsed and hash(value) == hash(parsed)


@pytest.mark.parametrize("value, coords", TOWER_ROWS)
def test_tower_element_with_a_constant(value, coords):
    built = K.element(coords)
    assert value == built and hash(value) == hash(built)


def test_equal_values_have_equal_hashes():
    rng = random.Random(31)
    values = []
    for _ in range(40):
        v = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
        values += [v, RatPoly((v,)), K.rational(v), K.one() * v]
        if v.denominator == 1:
            values.append(int(v))
    values += [X, K.zeta(), X + 1, K.zeta() + 1, RatPoly(), K.zero()]
    pairs = [(a, b) for a in values for b in values if a == b]
    assert all(hash(a) == hash(b) for a, b in pairs)
    # each constant equals its Fraction, and the two classes never meet
    assert RatPoly((F(1, 2),)) == F(1, 2) == K.rational(F(1, 2))
    assert RatPoly((1,)) != K.one() and 1 in {K.one()} and 1 in {RatPoly((1,))}
    assert sum(1 for a, b in pairs if type(a) is not type(b)) > 100


SAMPLES = {
    "RatPoly": X + 1,
    "TowerElement": Z + 1,
    "Permutation": Permutation([2, 1, 3]),
    "FreeWord": parse_word("x y"),
}
OTHER = {"RatPoly": "TowerElement", "TowerElement": "RatPoly",
         "Permutation": "FreeWord", "FreeWord": "Permutation"}


@pytest.mark.parametrize("kind", SAMPLES)
def test_foreign_operands_raise_type_error(kind):
    value = SAMPLES[kind]
    ops = [operator.add, operator.sub, operator.mul]
    if kind == "TowerElement":
        ops.append(operator.truediv)
    for foreign in (1.5, "a", None, SAMPLES[OTHER[kind]]):
        for op in ops:
            with pytest.raises(TypeError):
                op(value, foreign)
            with pytest.raises(TypeError):
                op(foreign, value)
        assert not value == foreign and not foreign == value
        assert value != foreign


def test_integer_operand_of_a_group_element():
    for value in (Permutation([2, 1, 3]), parse_word("x y")):
        with pytest.raises(TypeError):
            value * 3
        with pytest.raises(TypeError):
            3 * value
    with pytest.raises(DegreeMismatch):
        Permutation([2, 1, 3]) * Permutation([2, 1])


def test_another_field_still_mismatches():
    other = TowerField(3, 5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatch, match=r"TowerField\(p=3, q=2\) vs "
                                                r"TowerField\(p=3, q=5\)"):
            op(Z + 1, other.zeta() + 1)
    assert K.one() != other.one() and not K.one() == other.one()


def test_division_by_another_field_raises_before_it_inverts(monkeypatch):
    def refuse(self):
        raise AssertionError("inverse taken")

    monkeypatch.setattr(TowerElement, "inverse", refuse)
    with pytest.raises(FieldMismatch, match=r"^TowerField\(p=3, q=2\) vs "
                                            r"TowerField\(p=3, q=5\)$"):
        (Z + 1) / (TowerField(3, 5).zeta() + 1)


# each row: text with f for the map's own text, and the same value by operators
MAP_ROWS = [
    ("f + 1", lambda f: f + 1),
    ("1 + f", lambda f: 1 + f),
    ("f - 1/2", lambda f: f - F(1, 2)),
    ("1/2 - f", lambda f: F(1, 2) - f),
    ("2*f", lambda f: 2 * f),
    ("f/2", lambda f: f / 2),
    ("2/f", lambda f: 2 / f),
    ("f + X", lambda f: f + X),
    ("X + f", lambda f: X + f),
    ("X*f", lambda f: X * f),
    ("X - f", lambda f: X - f),
    ("f/X", lambda f: f / X),
    ("X/f", lambda f: X / f),
    ("f*f - f", lambda f: f * f - f),
]


@pytest.mark.parametrize("map_text", ["(X+1)/(X-1)", "X"])
@pytest.mark.parametrize("text, build", MAP_ROWS, ids=[t for t, _ in MAP_ROWS])
def test_map_with_a_constant_or_polynomial(map_text, text, build):
    value = build(parse_map(map_text))
    parsed = parse_map(text.replace("f", f"({map_text})"))
    assert type(value) is RatMap
    assert value == parsed and hash(value) == hash(parsed)
    assert str(value) == str(parsed)


def test_a_polynomial_map_equals_and_hashes_as_its_polynomial():
    assert parse_map("X") == parse_poly("X") == X
    assert hash(parse_map("X")) == hash(X)
    assert parse_map("3") == 3 and hash(parse_map("3")) == hash(3)
    assert parse_map("1/2") == F(1, 2) == parse_map("1/2").numerator
    assert 3 in {parse_map("3")} and parse_map("X^2 + 1") in {X**2 + 1}
    assert parse_map("1/X") != X and parse_map("1/X") != 1
    assert parse_map("X/X") == 1 and parse_map("X - X") == 0


def test_map_equal_values_have_equal_hashes():
    rng = random.Random(32)
    values = []
    for _ in range(30):
        v = F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 6]))
        poly = RatPoly([F(rng.randint(-3, 3), rng.choice([1, 2]))
                        for _ in range(rng.randint(1, 3))])
        values += [v, RatPoly((v,)), RatMap(RatPoly((v,))), poly, RatMap(poly),
                   parse_map(f"({poly}) * (X + 1) / (X + 1)")]
        if v.denominator == 1:
            values.append(int(v))
    values += [parse_map("1/X"), parse_map("(X^2 + 1)/(2*X)")]
    pairs = [(a, b) for a in values for b in values if a == b]
    assert all(hash(a) == hash(b) for a, b in pairs)
    assert all(b == a for a, b in pairs)
    mixed = [(a, b) for a, b in pairs if isinstance(a, RatMap) != isinstance(b, RatMap)]
    assert len(mixed) > 100
    assert not any(a == b for a in values[-2:] for b in values
                   if not isinstance(b, RatMap))


def test_map_foreign_operands_raise_type_error():
    f = parse_map("(X+1)/(X-1)")
    for foreign in (1.5, "a", None, Z + 1):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(f, foreign)
            with pytest.raises(TypeError):
                op(foreign, f)
        assert not f == foreign and not foreign == f
        assert f != foreign


def test_map_division_by_a_zero_operand():
    with pytest.raises(DivisionByZero, match="division by the zero map"):
        parse_map("X") / 0
    with pytest.raises(DivisionByZero, match="division by the zero map"):
        1 / (parse_map("X") - X)


POWER_BASES = {
    "RatPoly": X + 1,
    "RatMap": parse_map("(X+1)/(X-1)"),
    "TowerElement": Z + T,
    "Permutation": Permutation([2, 3, 1]),
    "FreeWord": parse_word("x y"),
}


@pytest.mark.parametrize("kind", POWER_BASES)
def test_an_integral_fraction_exponent_is_its_int(kind):
    base = POWER_BASES[kind]
    exponents = (F(2), F(6, 3), F(0), True) + ((F(-2),) if kind != "RatPoly" else ())
    for e in exponents:
        assert base ** e == base ** int(e)
    assert base ** F(3) == base * base * base


@pytest.mark.parametrize("kind", POWER_BASES)
def test_a_fractional_exponent_is_out_of_range(kind):
    for e in (F(1, 2), F(-7, 3)):
        with pytest.raises(OutOfRange, match=f"exponent {e} is not an integer"):
            POWER_BASES[kind] ** e


@pytest.mark.parametrize("kind", POWER_BASES)
def test_a_foreign_exponent_raises_type_error(kind):
    for e in (2.0, "2", None, X, Z):
        with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \*\*"):
            POWER_BASES[kind] ** e
