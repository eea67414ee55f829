"""The error hierarchy of ``dessinkit.errors`` and where built-in errors remain."""

import ast
import builtins
from pathlib import Path

import pytest

import dessinkit
from dessinkit.belyi import RatMap, RatPoly, X
from dessinkit.errors import DessinkitError, DivisionByZero, ResourceLimit, SizeGuard
from dessinkit.tower import TowerField

# The raise sites that still raise a built-in exception class, as
# (module, enclosing function).  Every other error raised on purpose derives
# from DessinkitError, so a new bare ``raise ValueError(...)`` fails here.
BUILTIN_RAISES = {
    ("_exact", "v2"),
    ("_exact", "integer_root"),
}


def _builtin_raises(tree: ast.AST, scope: str = ""):
    """(enclosing qualified name, class name) of each raise of a built-in
    exception class under ``tree``; a bare re-raise names no class."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _builtin_raises(node, f"{scope}.{node.name}".lstrip("."))
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            value = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
            if isinstance(value, type) and issubclass(value, BaseException):
                yield scope, exc.id
        yield from _builtin_raises(node, scope)


def test_builtin_raises_are_the_known_five():
    package = Path(dessinkit.__file__).parent
    found = {}
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for scope, name in _builtin_raises(tree):
            found[(source.stem, scope)] = name
    assert set(found) == BUILTIN_RAISES, found


def test_size_guard_is_a_resource_limit():
    assert issubclass(SizeGuard, ResourceLimit)
    assert DessinkitError in SizeGuard.__mro__ and RuntimeError in SizeGuard.__mro__


@pytest.mark.parametrize("call, message", [
    (lambda: RatMap(X, RatPoly()), "zero denominator"),
    (lambda: RatMap(RatPoly()) ** -1, "division by the zero map"),
    (lambda: RatMap(X) / RatMap(RatPoly()), "division by the zero map"),
    (lambda: TowerField(3, 2).zero().inverse(), "inverse of zero in the tower field"),
    (lambda: TowerField(3, 2).one() / 0, "division by zero in the tower field"),
], ids=["zero denominator", "zero map to a negative power", "quotient by the zero map",
        "tower inverse of zero", "tower element over a rational zero"])
def test_division_by_zero_is_a_dessinkit_error(call, message):
    # each site raises the one class, which both except clauses catch
    for caught in (DessinkitError, ZeroDivisionError):
        try:
            call()
        except caught as exc:
            assert type(exc) is DivisionByZero and str(exc) == message
        else:
            pytest.fail(f"{message}: nothing raised")
