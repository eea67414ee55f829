"""Command-line front end.

Every subcommand is a thin adapter over the library: it calls one module
operation and returns its exit code and one result, an ordered list of
``(key, value[, text])`` entries, so each fact is stated once.  One renderer
prints the result after the command has returned: with ``--json`` as one
object of the values, otherwise as text.  An entry without ``text`` prints as
``key with spaces: value`` (booleans as true/false), an entry whose text is
None is JSON-only, and a text may hold several lines.  The parser is built
from one table of commands.  Output is deterministic (the same invocation
always produces byte-identical output) and purely exact: rationals print as
num/den, never as floats.

Exit codes: 0 success or boolean true; 1 a boolean query answered false;
2 input error, a ``DessinkitError`` or ``OSError``; 3 resource limit, a
``ResourceLimit``; 141 (128 + SIGPIPE), with nothing on stderr, when stdout
is closed before the output is written, as when piped into ``head``.  Any
other exception is a bug and propagates with its traceback.  Only
``dessin info`` and ``dessin reg-iso`` take ``--cap-group-order`` (no cap by
default), and only ``belyi reduce`` takes ``--cap-stage-size`` (default
``belyi.DEFAULT_STAGE_CAP``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import belyi, models, tower
from ._exact import PRINT_BITS, brief, decimal
from .dessins import (
    Dessin,
    Separation,
    closure_difference,
    dessins_isomorphic,
    distinguish_by_witness,
    genus_of,
    load_dessin,
    passport_of,
    regular_descriptor,
)
from .errors import DessinkitError, OutOfRange, ParseError, ResourceLimit
from .words import parse_word

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports for `yes | head -1`


def _parse_rational(text: str) -> Fraction:
    cleaned = text.strip()
    if any(ch in cleaned for ch in ".eE"):
        raise ParseError(f"rationals must be exact num/den, got {text!r}")
    try:
        value = Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None
    for part in cleaned.split("/"):  # Fraction also takes 1_0
        decimal(part, f" in rational {text!r}")
    return value


def _parse_integer(text: str) -> int:
    """``type`` of the integer flags: a signed run of decimal digits."""
    return decimal(text.strip(), "")


# argparse names the type in its refusal: "invalid int value: 'x'"
_parse_integer.__name__ = "int"


def _fmt_rational(v) -> str:
    return str(brief(v, PRINT_BITS))


def _fmt_cycle_type(lengths) -> str:
    runs = []
    for length in lengths:  # already sorted descending
        if runs and runs[-1][0] == length:
            runs[-1][1] += 1
        else:
            runs.append([length, 1])
    return " ".join(f"{v}^{c}" if c > 1 else str(v) for v, c in runs)


def _load_source(source: str) -> Dessin:
    if source.startswith("gallery:"):
        index = source.split(":", 1)[1]
        if not index.isdecimal():
            raise ParseError(f"bad gallery index in {source!r}")
        return models.gallery_dessin(decimal(index, " in the gallery index"))
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return load_dessin(fh.read())
    except UnicodeDecodeError as exc:  # a file that is not UTF-8
        raise ParseError(str(exc)) from None


def _check_cap(flag: str, value) -> None:
    """Refuse a negative cap; handlers call this before loading any input."""
    if value is not None and value < 0:
        raise OutOfRange(f"{flag} must be nonnegative, got {value}")


def _guard_group_order(dessin: Dessin, cap) -> None:
    if cap is not None and dessin.cartographic_group.order_exceeds(cap):
        raise ResourceLimit(f"cartographic group order exceeds cap {cap}")


def _fmt_text(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _exit_for(ok: bool) -> int:
    return EXIT_OK if ok else EXIT_FALSE


def _finite_values(profile) -> list:
    return [_fmt_rational(v) for v in profile.sorted_finite()]


def _render(result: list, as_json: bool) -> None:
    """Print a command's result as one JSON object or as its text lines."""
    if as_json:
        print(json.dumps({entry[0]: entry[1] for entry in result}, indent=2))
        return
    for key, value, *text in result:
        if not text:
            print(f"{key.replace('_', ' ')}: {_fmt_text(value)}")
        elif text[0] is not None:
            print(text[0])


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, result)
# ---------------------------------------------------------------------------


def _cmd_dessin_info(args):
    _check_cap("--cap-group-order", args.cap_group_order)
    d = _load_source(args.source)
    _guard_group_order(d, args.cap_group_order)
    p = passport_of(d)
    passport = {"black": p.black, "white": p.white, "faces": p.faces}
    genus = genus_of(d)
    reg = regular_descriptor(d)
    orders = (reg.ord_x, reg.ord_y, reg.ord_xy)
    # a giant's order n!/2 or n! passes PRINT_BITS from degree about 1350
    order, chi, reg_genus = (brief(v, PRINT_BITS) for v in (
        reg.group_order, reg.euler_characteristic, reg.genus))
    return EXIT_OK, [
        ("degree", d.degree),
        ("passport", passport,
         f"passport: [{' | '.join(map(_fmt_cycle_type, passport.values()))}]"),
        ("genus", genus),
        ("group_order", order),
        ("regular",
         {"orders": list(orders), "euler_characteristic": chi, "genus": reg_genus},
         f"regular closure: orders {orders}, "
         f"euler characteristic {chi}, genus {reg_genus}"),
    ]


def _cmd_dessin_iso(args):
    d1 = _load_source(args.first)
    d2 = _load_source(args.second)
    witness = dessins_isomorphic(d1, d2)
    if witness is None:
        return EXIT_FALSE, [("isomorphic", False, "not isomorphic")]
    return EXIT_OK, [
        ("isomorphic", True, f"isomorphic via {witness}"),
        ("witness", str(witness), None),
    ]


def _cmd_dessin_reg_iso(args):
    _check_cap("--cap-group-order", args.cap_group_order)
    d1 = _load_source(args.first)
    d2 = _load_source(args.second)
    _guard_group_order(d1, args.cap_group_order)
    _guard_group_order(d2, args.cap_group_order)
    reason = closure_difference(d1, d2)
    if reason is None:
        return EXIT_OK, [("isomorphic_closures", True, "regular closures isomorphic")]
    return EXIT_FALSE, [
        ("isomorphic_closures", False, f"regular closures not isomorphic: {reason}"),
        ("reason", reason, None),
    ]


def _cmd_dessin_witness(args):
    d1 = _load_source(args.first)
    d2 = _load_source(args.second)
    w = parse_word(args.word)
    v = parse_word(args.with_word) if args.with_word else None
    verdict = distinguish_by_witness(d1, d2, w, v)
    separation = verdict.separation.value
    if verdict.separation is Separation.KERNEL:
        return EXIT_OK, [("separation", separation, "separates by kernel membership")]
    if verdict.separation is Separation.COMMUTATION:
        return EXIT_OK, [
            ("separation", separation,
             f"separates by commutation with {verdict.commutator_with}"),
            ("commutator_with", str(verdict.commutator_with), None),
        ]
    return EXIT_FALSE, [("separation", separation, "no separation")]


def _cmd_word_eval(args):
    d = _load_source(args.source)
    w = parse_word(args.word)
    value = d.evaluate(w)
    return EXIT_OK, [
        ("word", str(w), None),
        ("value", str(value), str(value)),
        ("is_identity", value.is_identity, None),
    ]


def _cmd_word_commutes(args):
    d = _load_source(args.source)
    w = parse_word(args.word)
    v = parse_word(args.with_word)
    a, b = d.evaluate(w), d.evaluate(v)
    commutes = a * b == b * a
    return _exit_for(commutes), [("commutes", commutes)]


def _cmd_gallery_list(args):
    entries = []
    for k in range(1, models.GALLERY_SIZE + 1):
        d = models.gallery_dessin(k)
        value = d.evaluate(models.witness_word())
        entries.append({"name": f"gallery:{k}", "degree": d.degree,
                        "witness_value": str(value)})
    text = "\n".join(f"{e['name']} degree {e['degree']} witness {e['witness_value']}"
                     for e in entries)
    return EXIT_OK, [("gallery", entries, text)]


def _cmd_gallery_export(args):
    if args.k is not None and not args.out_path:
        text = models.gallery_text(args.k)
        # the text output is the file itself, which ends in its own newline
        return EXIT_OK, [
            ("name", f"gallery:{args.k}", None),
            ("content", text, text.removesuffix("\n")),
        ]
    if args.k is not None:
        targets = [(args.k, args.out_path)]
    elif args.out_path:
        os.makedirs(args.out_path, exist_ok=True)
        targets = [(k, os.path.join(args.out_path, f"gallery{k}.txt"))
                   for k in range(1, models.GALLERY_SIZE + 1)]
    else:
        raise ParseError("export of the whole gallery needs --out DIR")
    for k, path in targets:
        text = models.gallery_text(k)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    written = [path for _, path in targets]
    return EXIT_OK, [("written", written, "\n".join(f"wrote {p}" for p in written))]


def _model_report(model: models.LocalModel, trace: bool):
    commutes = models.commutes_with_y2(model)
    result = [
        ("points", model.point_count),
        ("omega", str(model.omega)),
        ("commutes_with_y2", commutes, f"commutes with y^2: {_fmt_text(commutes)}"),
    ]
    if trace:
        start, via_omega, via_y2 = model.trace()
        result.append((
            "trace",
            {"start": start, "omega_then_y2": via_omega, "y2_then_omega": via_y2},
            f"trace: {start}^(omega y^2) = {via_omega}\n"
            f"trace: {start}^(y^2 omega) = {via_y2}",
        ))
    return EXIT_OK, result


def _cmd_model_24(args):
    return _model_report(models.local_model_24(args.k), args.trace)


def _cmd_model_8p(args):
    model = models.local_model_8p(args.p, args.k, args.variant)
    return _model_report(model, args.trace)


def _cmd_belyi_bmn(args):
    params = belyi.BmnParams(args.m, args.n)
    poly = belyi.bmn(params)
    profile = belyi.finite_critical_values(poly)
    return EXIT_OK, [
        ("polynomial", str(poly), str(poly)),
        ("critical_values", _finite_values(profile), f"critical values: {profile}"),
        ("ramified_at_infinity", profile.includes_infinity, None),
    ]


def _cmd_belyi_crit(args):
    f = belyi.parse_map(args.map)
    profile = belyi.finite_critical_values(f)
    return EXIT_OK, [
        ("finite_critical_values", _finite_values(profile),
         f"finite critical values: {profile}"),
        ("includes_infinity", profile.includes_infinity, None),
    ]


def _cmd_belyi_reduce(args):
    _check_cap("--cap-stage-size", args.cap_stage_size)
    points = [_parse_rational(p) for p in args.points.split(",") if p.strip()]
    chain = belyi.belyi_reduce(points, stage_cap=args.cap_stage_size)
    report = belyi.verify_reduction(chain, points)
    stages = [str(s) for s in chain.stages]
    profile = chain.current_profile
    value = (None if report.value_at_zero is None
             else _fmt_rational(report.value_at_zero))
    return _exit_for(report.ok), [
        ("stages", stages,
         "\n".join(f"stage {idx}: {stage}" for idx, stage in enumerate(stages, 1))),
        ("critical_profile",
         {"finite": _finite_values(profile),
          "includes_infinity": profile.includes_infinity},
         f"critical profile: {profile}"),
        ("value_at_zero", value,
         f"value at 0: {'certified in (0, 1)' if value is None else value}"),
        ("verified", report.ok),
    ]


def _cmd_belyi_sturm(args):
    poly = belyi.parse_poly(args.poly)
    lo, hi = _parse_rational(args.lo), _parse_rational(args.hi)
    count = belyi.sturm_count(poly, lo, hi)
    return EXIT_OK, [
        ("count", count,
         f"roots in ({_fmt_rational(lo)}, {_fmt_rational(hi)}]: {count}"),
    ]


def _cmd_belyi_increasing(args):
    poly = belyi.parse_poly(args.poly)
    lo, hi = _parse_rational(args.lo), _parse_rational(args.hi)
    ok = belyi.certify_increasing(poly, lo, hi)
    return _exit_for(ok), [
        ("increasing", ok,
         f"strictly increasing on [{_fmt_rational(lo)}, {_fmt_rational(hi)}]: "
         f"{_fmt_text(ok)}"),
    ]


def _cmd_tower_jinv(args):
    field = tower.TowerField(args.p, _parse_rational(args.q))
    triple = tower.base_triple(field, _parse_rational(args.gamma))
    j = tower.j_invariant_of_triple(triple)
    return EXIT_OK, [("j", str(j), f"j = {j}")]


def _cmd_tower_distinct(args):
    field = tower.TowerField(args.p, _parse_rational(args.q))
    ok, report = tower.conjugate_triples_distinct(field, _parse_rational(args.gamma))
    result = [
        ("conjugates", report.count),
        ("distinct", ok, f"pairwise distinct: {_fmt_text(ok)}"),
    ]
    if not ok:
        collisions = report.collisions
        result.append(("collisions", [list(map(list, c)) for c in collisions],
                       "\n".join(f"collision: {a} vs {b}" for a, b in collisions)))
    return _exit_for(ok), result


def _cmd_lemma_two_adic(args):
    poly = belyi.parse_poly(args.poly)
    inst = models.TwoAdicInstance(
        poly, args.c, args.p, _parse_rational(args.q), _parse_rational(args.gamma)
    )
    report = models.two_adic_verify(inst)
    # m, n and friends can be huge; keep every field printable
    alpha, nu, a, b, c0, m, n, e, consistent, v2_s, exact, required = (
        brief(getattr(report, key), PRINT_BITS)
        for key in ("alpha", "nu", "a", "b", "c0", "m", "n", "e",
                    "congruences_consistent", "v2_s", "v2_s_is_exact", "required")
    )
    bound = "=" if exact else ">="
    return _exit_for(report.ok), [
        ("alpha", alpha),
        ("nu", nu),
        ("a", a, f"odd part: {a}/{b}"),
        ("b", b, None),
        ("c0", c0, None),
        ("m", m, f"(m, n): ({m}, {n})"),
        ("n", n, None),
        ("e", e, f"e: {e if e is not None else 'inconsistent'}"),
        ("congruences_consistent", consistent, None),
        ("v2_s", v2_s, f"v2(s) {bound} {v2_s}, required >= {required}"),
        ("v2_s_is_exact", exact, None),
        ("required", required, None),
        ("r", report.r, None),
        ("s", report.s, None),
        ("certified", report.ok),
    ]


def _cmd_lemma_delta_tilde(args):
    blocks = [decimal(v.strip(), " in --d")
              for v in args.d.split(",") if v.strip()]
    report = models.delta_tilde_check(blocks, args.c0, args.c, args.alpha_minus_nu)
    sums = [brief(v, PRINT_BITS) for v in report.partial_sums]
    modulus = report.modulus
    shown = (f"2^{brief(args.alpha_minus_nu, PRINT_BITS)}" if modulus is None
             else modulus)
    return _exit_for(report.ok), [
        ("partial_sums", sums, f"partial sums: {' '.join(map(str, sums))}"),
        ("total", brief(report.total, PRINT_BITS)),
        ("modulus", modulus, None),
        ("ok", report.ok, f"all nonzero mod {shown}: {_fmt_text(report.ok)}"),
    ]


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

_GROUPS = {
    "dessin": "dessin invariants and comparisons",
    "word": "free-group words and evaluation",
    "gallery": "the embedded degree-36 gallery",
    "model": "local action models",
    "belyi": "exact polynomial calculus",
    "tower": "cyclotomic-Kummer tower fields",
    "lemma": "2-adic certificates",
}

_REQUIRED = {"required": True}
_INT = {"type": _parse_integer, "required": True}
_FLAG = {"action": "store_true"}
_PAIR = [("first", {}), ("second", {})]
_INTERVAL = [("--poly", _REQUIRED), ("--lo", _REQUIRED), ("--hi", _REQUIRED)]
_TOWER = [("--p", _INT), ("--q", _REQUIRED), ("--gamma", {"default": "1"})]
_GROUP_CAP = ("--cap-group-order", {
    "type": _parse_integer, "help": "refuse cartographic groups larger than this"})

#: (group, command, handler, help, arguments); an argument is a name and the
#: keywords of its ``add_argument`` call
_COMMANDS = [
    ("dessin", "info", _cmd_dessin_info, None,
     [("source", {"help": "dessin file path or gallery:k"}), _GROUP_CAP]),
    ("dessin", "iso", _cmd_dessin_iso, None, _PAIR),
    ("dessin", "reg-iso", _cmd_dessin_reg_iso, None, _PAIR + [_GROUP_CAP]),
    ("dessin", "witness", _cmd_dessin_witness, None, _PAIR + [
        ("--word", _REQUIRED),
        ("--with", {"dest": "with_word",
                    "help": "comparison word for the commutation test (default y^2)"}),
    ]),
    ("word", "eval", _cmd_word_eval, None, [("source", {}), ("--word", _REQUIRED)]),
    ("word", "commutes", _cmd_word_commutes, None,
     [("source", {}), ("--word", _REQUIRED),
      ("--with", {"dest": "with_word", "default": "y^2"})]),
    ("gallery", "list", _cmd_gallery_list, None, []),
    ("gallery", "export", _cmd_gallery_export, None,
     [("--k", {"type": _parse_integer}), ("--out", {"dest": "out_path"})]),
    ("model", "sec31", _cmd_model_24, "24-edge model, conjugates k = 1..6",
     [("--k", _INT), ("--trace", _FLAG)]),
    ("model", "sec32", _cmd_model_8p, "8p-edge model, conjugates k = 1..2p",
     [("--p", _INT), ("--k", _INT),
      ("--variant", {"choices": ["plain", "j"], "default": "plain"}),
      ("--trace", _FLAG)]),
    ("belyi", "bmn", _cmd_belyi_bmn, None, [("--m", _INT), ("--n", _INT)]),
    ("belyi", "crit", _cmd_belyi_crit, None, [("--map", _REQUIRED)]),
    ("belyi", "reduce", _cmd_belyi_reduce, None,
     [("--points",
       dict(_REQUIRED, help="comma-separated nonzero rationals, e.g. 1,2/3,-27")),
      ("--cap-stage-size", {"type": _parse_integer, "default": belyi.DEFAULT_STAGE_CAP,
                            "help": "cap on m+n for one reduction stage"})]),
    ("belyi", "sturm", _cmd_belyi_sturm, None, _INTERVAL),
    ("belyi", "increasing", _cmd_belyi_increasing, None, _INTERVAL),
    ("tower", "jinv", _cmd_tower_jinv, None, _TOWER),
    ("tower", "distinct", _cmd_tower_distinct, None, _TOWER),
    ("lemma", "two-adic", _cmd_lemma_two_adic, None,
     [("--poly", dict(_REQUIRED, help="integer-coefficient numerator")), ("--c", _INT),
      ("--p", _INT), ("--q", _REQUIRED), ("--gamma", _REQUIRED)]),
    ("lemma", "delta-tilde", _cmd_lemma_delta_tilde, None,
     [("--d", dict(_REQUIRED, help="comma-separated block degrees")), ("--c0", _INT),
      ("--c", _INT), ("--alpha-minus-nu", _INT)]),
]


class _ArgumentParser(argparse.ArgumentParser):
    """Reads ``--lo -3/2`` as ``--lo=-3/2``: argparse's negative-number
    pattern knows no fractions, and no option here starts with a digit."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d.*")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")

    parser = _ArgumentParser(
        prog="dessinkit",
        description="exact computations with dessins d'enfants",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for name, text in _GROUPS.items():
        group_parser = top.add_parser(name, help=text)
        groups[name] = group_parser.add_subparsers(dest="command", required=True)
    for group, command, handler, text, arguments in _COMMANDS:
        # a help keyword, even None, would list the command in its group's help
        extra = {"help": text} if text else {}
        p = groups[group].add_parser(command, parents=[common], **extra)
        for name, options in arguments:
            p.add_argument(name, **options)
        p.set_defaults(func=handler)
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        code, result = args.func(args)
    except (DessinkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE if isinstance(exc, ResourceLimit) else EXIT_INPUT
    _render(result, args.json)
    return code


def main() -> None:
    try:
        code = run_cli(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send the interpreter's last flush to
        # devnull, so that it cannot fail again on the way out
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
