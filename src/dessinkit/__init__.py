"""dessinkit: exact computations with dessins d'enfants.

Permutation pairs and their cartographic groups, regular closures, free-group
word witnesses, an exact Belyi polynomial composition calculus, and arithmetic
in cyclotomic-Kummer tower fields.  Everything is exact: big integers and
rationals throughout, no floating point.
"""

from .errors import (
    BadShape,
    DegenerateTriple,
    DegreeMismatch,
    DessinkitError,
    DivisionByZero,
    FieldMismatch,
    HypothesisFailed,
    IrrationalCriticalPoints,
    NonIntegralCharacteristic,
    NotAUnit,
    NotCoprime,
    NotTransitive,
    OutOfRange,
    ParseError,
    PointOutOfRange,
    RepeatedPoint,
    ResourceLimit,
    SizeGuard,
)
from .perms import (
    PermGroup,
    Permutation,
    compose_right,
    parse_cycles,
)
from .words import FreeWord, commutator_word, evaluate_word, parse_word
from .dessins import (
    Dessin,
    Passport,
    RegularDescriptor,
    Separation,
    WitnessVerdict,
    dessins_isomorphic,
    distinguish_by_witness,
    dump_dessin,
    genus_of,
    load_dessin,
    passport_of,
    regular_closures_isomorphic,
    regular_descriptor,
    witness_verdict,
)
from .belyi import (
    INFINITY,
    BelyiChain,
    BmnParams,
    BmnStage,
    CritProfile,
    RatMap,
    RatPoly,
    belyi_reduce,
    bmn,
    certify_increasing,
    finite_critical_values,
    pair_from_ratio,
    parse_map,
    parse_poly,
    propagate_crit,
    rational_roots,
    sturm_count,
    verify_reduction,
)
from .tower import (
    CurveTriple,
    TowerElement,
    TowerField,
    conjugate_triples_distinct,
    j_invariant_of_triple,
)
from .models import (
    GALLERY_SIZE,
    LocalModel,
    TwoAdicInstance,
    build_mu0,
    build_mu_omega,
    commutes_with_y2,
    delta_tilde_check,
    expected_witness_value,
    gallery_dessin,
    gallery_text,
    local_model_24,
    local_model_8p,
    two_adic_verify,
    witness_word,
)

__version__ = "0.1.0"
