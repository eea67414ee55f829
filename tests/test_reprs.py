"""The repr text of the value types, and equal hashes for equal values built
two ways."""

from fractions import Fraction as F

from dessinkit.belyi import INFINITY, ONE_POLY, RatMap, RatPoly, X, parse_map, parse_poly
from dessinkit.dessins import Dessin
from dessinkit.perms import Permutation, parse_cycles
from dessinkit.tower import TowerField
from dessinkit.words import FreeWord, parse_word


def test_infinity():
    assert repr(INFINITY) == "inf"
    assert repr([F(1, 2), INFINITY]) == "[Fraction(1, 2), inf]"


def test_rational_polynomial():
    poly = X**2 + ONE_POLY
    assert repr(poly) == "RatPoly(X^2 + 1)"
    assert repr(RatPoly((F(1, 2), F(-3)))) == "RatPoly(-3*X + 1/2)"
    built = parse_poly("1 + X*X")
    assert built == poly and hash(built) == hash(poly)
    # the same polynomial over a common denominator written two ways
    assert hash(RatPoly((F(2, 4), F(1)))) == hash(parse_poly("X + 1/2"))


def test_rational_map():
    f = RatMap(X, X + ONE_POLY)
    assert repr(f) == "RatMap((X) / (X + 1))"
    built = parse_map("(2*X^2 + 2*X) / (2*X^2 + 4*X + 2)")
    assert built == f and hash(built) == hash(f)
    assert repr(RatMap(X**2)) == "RatMap(X^2)"


def test_permutation():
    p = Permutation([2, 3, 1, 4])
    assert repr(p) == "Permutation((1,2,3), degree=4)"
    built = parse_cycles("(3,1,2)", 4)
    assert built == p and hash(built) == hash(p)
    assert repr(Permutation([1, 2])) == "Permutation((), degree=2)"


def test_tower_element():
    field = TowerField(3, 2)
    x = field.zeta() + field.root() * 3
    assert repr(x) == "TowerElement(3*t + z)"
    built = field.element({(1, 0): 1, (0, 1): 3, (3, 0): 0})
    assert built == x and hash(built) == hash(x)
    # zeta^3 = 1 and t^3 = q fold into the basis
    assert hash(field.element({(3, 3): F(1, 2)})) == hash(field.one())
    assert repr(field.one() / 4) == "TowerElement(1/4)"


def test_free_word():
    word = parse_word("x^2 y^-1")
    assert repr(word) == "FreeWord(x^2 y^-1)"
    built = FreeWord([("x", 1), ("y", 3), ("y", -3), ("x", 1), ("y", -1)])
    assert built == word and hash(built) == hash(word)
    assert repr(FreeWord()) == "FreeWord(1)"


def test_dessin():
    dessin = Dessin(Permutation([2, 1, 3]), Permutation([1, 3, 2]))
    assert repr(dessin) == "Dessin(degree=3, sigma0=(1,2), sigma1=(2,3))"
    built = Dessin(parse_cycles("(2,1)", 3), parse_cycles("(3,2)", 3))
    assert built == dessin and hash(built) == hash(dessin)
