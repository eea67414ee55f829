"""The public API: the names that ``dessinkit/__init__.py`` exports.

Dropping one breaks callers, so it must be a deliberate change that edits
the list below; so must adding one.
"""

import ast
import sys
from pathlib import Path
from types import ModuleType

import dessinkit

EXPORTS = (
    # errors
    "BadShape", "DegenerateTriple", "DegreeMismatch", "DessinkitError",
    "DivisionByZero", "FieldMismatch", "HypothesisFailed", "IrrationalCriticalPoints",
    "NonIntegralCharacteristic", "NotAUnit", "NotCoprime", "NotTransitive",
    "OutOfRange", "ParseError", "PointOutOfRange", "RepeatedPoint", "ResourceLimit",
    "SizeGuard",
    # perms
    "PermGroup", "Permutation", "compose_right", "parse_cycles",
    # words
    "FreeWord", "commutator_word", "evaluate_word", "parse_word",
    # dessins
    "Dessin", "Passport", "RegularDescriptor", "Separation", "WitnessVerdict",
    "dessins_isomorphic", "distinguish_by_witness", "dump_dessin", "genus_of",
    "load_dessin", "passport_of", "regular_closures_isomorphic",
    "regular_descriptor", "witness_verdict",
    # belyi
    "INFINITY", "BelyiChain", "BmnParams", "BmnStage", "CritProfile", "RatMap",
    "RatPoly", "belyi_reduce", "bmn", "certify_increasing",
    "finite_critical_values", "pair_from_ratio", "parse_map", "parse_poly",
    "propagate_crit", "rational_roots", "sturm_count", "verify_reduction",
    # tower
    "CurveTriple", "TowerElement", "TowerField", "conjugate_triples_distinct",
    "j_invariant_of_triple",
    # models
    "GALLERY_SIZE", "LocalModel", "TwoAdicInstance", "build_mu0", "build_mu_omega",
    "commutes_with_y2", "delta_tilde_check", "expected_witness_value",
    "gallery_dessin", "gallery_text", "local_model_24", "local_model_8p",
    "two_adic_verify", "witness_word",
)


def _exported() -> set:
    return {
        name
        for name, value in vars(dessinkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


def test_pinned_names_are_unique():
    assert len(set(EXPORTS)) == len(EXPORTS) == 77


def test_no_export_is_dropped():
    assert sorted(set(EXPORTS) - _exported()) == []


def test_every_export_is_pinned():
    assert sorted(_exported() - set(EXPORTS)) == []


def test_version_is_exported():
    assert dessinkit.__version__ == "0.1.0"


def test_runtime_imports_only_the_standard_library():
    package = Path(dessinkit.__file__).parent
    for source in sorted(package.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "dessinkit", (
                    f"{source.name} imports {name}"
                )
