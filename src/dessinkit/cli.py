"""Command-line front end.

Every subcommand is a thin adapter over the library: parse arguments, call
one module operation, format the result.  Output is deterministic (the same
invocation always produces byte-identical output) and purely exact: rationals
print as num/den, never as floats.

Exit codes: 0 success or boolean true; 1 a boolean query answered false;
2 input error; 3 resource limit.  The env var ``DESSINKIT_CAPS`` (e.g.
``group-order=100000000,stage-size=10000``) overrides default caps; the
``--cap-group-order`` and ``--cap-stage-size`` flags override the env var.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import belyi, models, tower
from ._exact import brief
from .dessins import (
    Dessin,
    Separation,
    dessins_isomorphic,
    distinguish_by_witness,
    genus_of,
    load_dessin,
    passport_of,
    regular_closures_isomorphic,
    regular_descriptor,
)
from .errors import (
    Cancelled,
    DessinkitError,
    ParseError,
    ResourceLimit,
    SizeGuard,
)
from .words import parse_word

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _parse_rational(text: str) -> Fraction:
    cleaned = text.strip()
    if any(ch in cleaned for ch in ".eE"):
        raise ParseError(f"rationals must be exact num/den, got {text!r}")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


#: big values are abbreviated past this many bits, which keeps every output
#: printable below the interpreter's int-to-decimal limit
_PRINT_BITS = 12_000


def _fmt_rational(v) -> str:
    return "inf" if v is belyi.INFINITY else str(brief(v, _PRINT_BITS))


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
        if not index.isdigit():
            raise ParseError(f"bad gallery index in {source!r}")
        return models.gallery_dessin(int(index))
    with open(source, "r", encoding="utf-8") as fh:
        return load_dessin(fh.read())


class _Output:
    """Collects either text lines or one JSON object per invocation."""

    def __init__(self, as_json: bool):
        self.as_json = as_json
        self.lines = []
        self.data = {}

    def line(self, text: str):
        self.lines.append(text)

    def field(self, key: str, value):
        self.data[key] = value

    def emit(self):
        if self.as_json:
            print(json.dumps(self.data, indent=2, sort_keys=False))
        else:
            for line in self.lines:
                print(line)


def _caps_from_env() -> dict:
    caps = {"group-order": None, "stage-size": belyi.DEFAULT_STAGE_CAP}
    raw = os.environ.get("DESSINKIT_CAPS", "")
    for item in filter(None, (part.strip() for part in raw.split(","))):
        key, eq, value = item.partition("=")
        if not eq or key.strip() not in caps or not value.strip().isdigit():
            raise ParseError(f"bad DESSINKIT_CAPS entry {item!r}")
        caps[key.strip()] = int(value.strip())
    return caps


def _resolve_caps(args) -> dict:
    caps = _caps_from_env()
    if getattr(args, "cap_group_order", None) is not None:
        caps["group-order"] = args.cap_group_order
    if getattr(args, "cap_stage_size", None) is not None:
        caps["stage-size"] = args.cap_stage_size
    return caps


def _guard_group_order(dessin: Dessin, cap) -> None:
    if cap is not None and dessin.cartographic_group.order_exceeds(cap):
        raise ResourceLimit(f"cartographic group order exceeds cap {cap}")


# ---------------------------------------------------------------------------
# dessin subcommands
# ---------------------------------------------------------------------------


def _cmd_dessin_info(args, out: _Output) -> int:
    d = _load_source(args.source)
    caps = _resolve_caps(args)
    _guard_group_order(d, caps["group-order"])
    passport = passport_of(d)
    genus = genus_of(d)
    reg = regular_descriptor(d)
    out.line(f"degree: {d.degree}")
    out.line(
        "passport: "
        f"[{_fmt_cycle_type(passport.black)} | {_fmt_cycle_type(passport.white)}"
        f" | {_fmt_cycle_type(passport.faces)}]"
    )
    out.line(f"genus: {genus}")
    out.line(f"group order: {reg.group_order}")
    out.line(
        f"regular closure: orders ({reg.ord_x}, {reg.ord_y}, {reg.ord_xy}), "
        f"euler characteristic {reg.euler_characteristic}, genus {reg.genus}"
    )
    out.field("degree", d.degree)
    out.field(
        "passport",
        {
            "black": list(passport.black),
            "white": list(passport.white),
            "faces": list(passport.faces),
        },
    )
    out.field("genus", genus)
    out.field("group_order", reg.group_order)
    out.field(
        "regular",
        {
            "orders": [reg.ord_x, reg.ord_y, reg.ord_xy],
            "euler_characteristic": reg.euler_characteristic,
            "genus": reg.genus,
        },
    )
    return EXIT_OK


def _cmd_dessin_iso(args, out: _Output) -> int:
    d1 = _load_source(args.first)
    d2 = _load_source(args.second)
    witness = dessins_isomorphic(d1, d2)
    if witness is None:
        out.line("not isomorphic")
        out.field("isomorphic", False)
        return EXIT_FALSE
    out.line(f"isomorphic via {witness}")
    out.field("isomorphic", True)
    out.field("witness", str(witness))
    return EXIT_OK


def _cmd_dessin_reg_iso(args, out: _Output) -> int:
    d1 = _load_source(args.first)
    d2 = _load_source(args.second)
    caps = _resolve_caps(args)
    _guard_group_order(d1, caps["group-order"])
    _guard_group_order(d2, caps["group-order"])
    n1 = d1.cartographic_group.order()
    n2 = d2.cartographic_group.order()
    result = regular_closures_isomorphic(d1, d2)
    out.field("isomorphic_closures", result)
    if result:
        out.line("regular closures isomorphic")
        return EXIT_OK
    reason = (
        "component orders differ"
        if n1 != n2
        else "diagonal order exceeds component order"
    )
    out.line(f"regular closures not isomorphic: {reason}")
    out.field("reason", reason)
    return EXIT_FALSE


def _cmd_dessin_witness(args, out: _Output) -> int:
    d1 = _load_source(args.first)
    d2 = _load_source(args.second)
    w = parse_word(args.word)
    v = parse_word(args.with_word) if args.with_word else None
    verdict = distinguish_by_witness(d1, d2, w, v)
    out.field("separation", verdict.separation.value)
    if verdict.separation is Separation.KERNEL:
        out.line("separates by kernel membership")
    elif verdict.separation is Separation.COMMUTATION:
        out.line(f"separates by commutation with {verdict.commutator_with}")
        out.field("commutator_with", str(verdict.commutator_with))
    else:
        out.line("no separation")
        return EXIT_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# word subcommands
# ---------------------------------------------------------------------------


def _cmd_word_eval(args, out: _Output) -> int:
    d = _load_source(args.source)
    w = parse_word(args.word)
    value = d.evaluate(w)
    out.line(str(value))
    out.field("word", str(w))
    out.field("value", str(value))
    out.field("is_identity", value.is_identity)
    return EXIT_OK


def _cmd_word_commutes(args, out: _Output) -> int:
    d = _load_source(args.source)
    w = parse_word(args.word)
    v = parse_word(args.with_word)
    a, b = d.evaluate(w), d.evaluate(v)
    commutes = a * b == b * a
    out.line(f"commutes: {str(commutes).lower()}")
    out.field("commutes", commutes)
    if not commutes:
        return EXIT_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# gallery subcommands
# ---------------------------------------------------------------------------


def _cmd_gallery_list(args, out: _Output) -> int:
    entries = []
    for k in range(1, models.GALLERY_SIZE + 1):
        d = models.gallery_dessin(k)
        value = d.evaluate(models.witness_word())
        out.line(f"gallery:{k} degree {d.degree} witness {value}")
        entries.append({"name": f"gallery:{k}", "degree": d.degree,
                        "witness_value": str(value)})
    out.field("gallery", entries)
    return EXIT_OK


def _cmd_gallery_export(args, out: _Output) -> int:
    if args.k is not None:
        text = models.gallery_text(args.k)
        if args.out_path:
            with open(args.out_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            out.line(f"wrote {args.out_path}")
            out.field("written", [args.out_path])
        elif out.as_json:
            out.field("name", f"gallery:{args.k}")
            out.field("content", text)
        else:
            sys.stdout.write(text)  # byte-exact export
        return EXIT_OK
    if not args.out_path:
        raise ParseError("export of the whole gallery needs --out DIR")
    os.makedirs(args.out_path, exist_ok=True)
    written = []
    for k in range(1, models.GALLERY_SIZE + 1):
        path = os.path.join(args.out_path, f"gallery{k}.txt")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(models.gallery_text(k))
        written.append(path)
        out.line(f"wrote {path}")
    out.field("written", written)
    return EXIT_OK


# ---------------------------------------------------------------------------
# model subcommands
# ---------------------------------------------------------------------------


def _model_report(model: models.LocalModel, trace: bool, out: _Output) -> int:
    commutes = models.commutes_with_y2(model)
    out.line(f"points: {model.point_count}")
    out.line(f"omega: {model.omega}")
    out.line(f"commutes with y^2: {str(commutes).lower()}")
    out.field("points", model.point_count)
    out.field("omega", str(model.omega))
    out.field("commutes_with_y2", commutes)
    if trace:
        start, via_omega, via_y2 = model.trace()
        out.line(f"trace: {start}^(omega y^2) = {via_omega}")
        out.line(f"trace: {start}^(y^2 omega) = {via_y2}")
        out.field(
            "trace",
            {"start": start, "omega_then_y2": via_omega, "y2_then_omega": via_y2},
        )
    return EXIT_OK


def _cmd_model_24(args, out: _Output) -> int:
    return _model_report(models.local_model_24(args.k), args.trace, out)


def _cmd_model_8p(args, out: _Output) -> int:
    variant = "j" if args.variant == "j" else "plain"
    model = models.local_model_8p(args.p, args.k, variant)
    return _model_report(model, args.trace, out)


# ---------------------------------------------------------------------------
# belyi subcommands
# ---------------------------------------------------------------------------


def _cmd_belyi_bmn(args, out: _Output) -> int:
    params = belyi.BmnParams(args.m, args.n)
    poly = belyi.bmn(params)
    profile = belyi.finite_critical_values(poly)
    out.line(str(poly))
    out.line(f"critical values: {profile}")
    out.field("polynomial", str(poly))
    out.field("critical_values", [_fmt_rational(v) for v in profile.sorted_finite()])
    out.field("ramified_at_infinity", profile.includes_infinity)
    return EXIT_OK


def _cmd_belyi_crit(args, out: _Output) -> int:
    f = belyi.parse_map(args.map)
    profile = belyi.finite_critical_values(f)
    out.line(f"finite critical values: {profile}")
    out.field("finite_critical_values",
              [_fmt_rational(v) for v in profile.sorted_finite()])
    out.field("includes_infinity", profile.includes_infinity)
    return EXIT_OK


def _cmd_belyi_reduce(args, out: _Output) -> int:
    points = [_parse_rational(p) for p in args.points.split(",") if p.strip()]
    caps = _resolve_caps(args)
    chain = belyi.belyi_reduce(points, stage_cap=caps["stage-size"])
    report = belyi.verify_reduction(chain, points)
    stage_strs = [str(s) for s in chain.stages]
    for idx, stage in enumerate(stage_strs, 1):
        out.line(f"stage {idx}: {stage}")
    out.line(f"critical profile: {chain.current_profile}")
    value = ("certified in (0, 1)" if report.value_at_zero is None
             else _fmt_rational(report.value_at_zero))
    out.line(f"value at 0: {value}")
    out.line(f"verified: {str(report.ok).lower()}")
    out.field("stages", stage_strs)
    out.field("critical_profile", {
        "finite": [_fmt_rational(v) for v in chain.current_profile.sorted_finite()],
        "includes_infinity": chain.current_profile.includes_infinity,
    })
    out.field("value_at_zero",
              None if report.value_at_zero is None
              else _fmt_rational(report.value_at_zero))
    out.field("verified", report.ok)
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_belyi_sturm(args, out: _Output) -> int:
    poly = belyi.parse_poly(args.poly)
    count = belyi.sturm_count(poly, _parse_rational(args.lo), _parse_rational(args.hi))
    out.line(f"roots in ({args.lo}, {args.hi}]: {count}")
    out.field("count", count)
    return EXIT_OK


def _cmd_belyi_increasing(args, out: _Output) -> int:
    poly = belyi.parse_poly(args.poly)
    ok = belyi.certify_increasing(
        poly, _parse_rational(args.lo), _parse_rational(args.hi)
    )
    out.line(f"strictly increasing on [{args.lo}, {args.hi}]: {str(ok).lower()}")
    out.field("increasing", ok)
    if not ok:
        return EXIT_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# tower subcommands
# ---------------------------------------------------------------------------


def _cmd_tower_jinv(args, out: _Output) -> int:
    field = tower.TowerField(args.p, _parse_rational(args.q))
    gamma = _parse_rational(args.gamma)
    triple = tower.CurveTriple(
        field.zero(), field.one() - field.zeta(), field.root() * gamma
    )
    j = tower.j_invariant_of_triple(triple)
    out.line(f"j = {j}")
    out.field("j", str(j))
    return EXIT_OK


def _cmd_tower_distinct(args, out: _Output) -> int:
    field = tower.TowerField(args.p, _parse_rational(args.q))
    ok, report = tower.conjugate_triples_distinct(field, _parse_rational(args.gamma))
    out.line(f"conjugates: {report.count}")
    out.line(f"pairwise distinct: {str(ok).lower()}")
    out.field("conjugates", report.count)
    out.field("distinct", ok)
    if not ok:
        for first, second in report.collisions:
            out.line(f"collision: {first} vs {second}")
        out.field("collisions", [list(map(list, c)) for c in report.collisions])
        return EXIT_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma subcommands
# ---------------------------------------------------------------------------


def _cmd_lemma_two_adic(args, out: _Output) -> int:
    poly = belyi.parse_poly(args.poly)
    inst = models.TwoAdicInstance(
        poly, args.c, args.p, _parse_rational(args.q), _parse_rational(args.gamma)
    )
    report = models.two_adic_verify(inst)
    # m, n and friends can be huge; keep every field printable
    a, b, m, n, e = (brief(getattr(report, k), _PRINT_BITS) for k in "abmne")
    out.line(f"alpha: {report.alpha}")
    out.line(f"nu: {report.nu}")
    out.line(f"odd part: {a}/{b}")
    out.line(f"(m, n): ({m}, {n})")
    out.line(f"e: {e if e is not None else 'inconsistent'}")
    bound = "=" if report.v2_s_is_exact else ">="
    out.line(f"v2(s) {bound} {report.v2_s}, required >= {report.required}")
    out.line(f"certified: {str(report.ok).lower()}")
    for key in ("alpha", "nu", "a", "b", "c0", "m", "n", "e",
                "congruences_consistent", "v2_s", "v2_s_is_exact", "required"):
        out.field(key, brief(getattr(report, key), _PRINT_BITS))
    out.field("r", report.r)
    out.field("s", report.s)
    out.field("certified", report.ok)
    if not report.ok:
        return EXIT_FALSE
    return EXIT_OK


def _cmd_lemma_delta_tilde(args, out: _Output) -> int:
    blocks = [int(v) for v in args.d.split(",") if v.strip()]
    report = models.delta_tilde_check(blocks, args.c0, args.c, args.alpha_minus_nu)
    out.line(f"partial sums: {' '.join(map(str, report.partial_sums))}")
    out.line(f"total: {report.total}")
    out.line(f"all nonzero mod {report.modulus}: {str(report.ok).lower()}")
    out.field("partial_sums", list(report.partial_sums))
    out.field("total", report.total)
    out.field("modulus", report.modulus)
    out.field("ok", report.ok)
    if not report.ok:
        return EXIT_FALSE
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured output")
    common.add_argument("--cap-group-order", type=int, default=None,
                        help="refuse cartographic groups larger than this")
    common.add_argument("--cap-stage-size", type=int, default=None,
                        help="cap on m+n for one reduction stage")

    parser = argparse.ArgumentParser(
        prog="dessinkit",
        description="exact computations with dessins d'enfants",
    )
    top = parser.add_subparsers(dest="group", required=True)

    dessin = top.add_parser("dessin", help="dessin invariants and comparisons")
    sub = dessin.add_subparsers(dest="command", required=True)
    p = sub.add_parser("info", parents=[common])
    p.add_argument("source", help="dessin file path or gallery:k")
    p.set_defaults(func=_cmd_dessin_info)
    p = sub.add_parser("iso", parents=[common])
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_dessin_iso)
    p = sub.add_parser("reg-iso", parents=[common])
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=_cmd_dessin_reg_iso)
    p = sub.add_parser("witness", parents=[common])
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--word", required=True)
    p.add_argument("--with", dest="with_word", default=None,
                   help="comparison word for the commutation test (default y^2)")
    p.set_defaults(func=_cmd_dessin_witness)

    word = top.add_parser("word", help="free-group words and evaluation")
    sub = word.add_subparsers(dest="command", required=True)
    p = sub.add_parser("eval", parents=[common])
    p.add_argument("source")
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_word_eval)
    p = sub.add_parser("commutes", parents=[common])
    p.add_argument("source")
    p.add_argument("--word", required=True)
    p.add_argument("--with", dest="with_word", default="y^2")
    p.set_defaults(func=_cmd_word_commutes)

    gallery = top.add_parser("gallery", help="the embedded degree-36 gallery")
    sub = gallery.add_subparsers(dest="command", required=True)
    p = sub.add_parser("list", parents=[common])
    p.set_defaults(func=_cmd_gallery_list)
    p = sub.add_parser("export", parents=[common])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", dest="out_path", default=None)
    p.set_defaults(func=_cmd_gallery_export)

    model = top.add_parser("model", help="local action models")
    sub = model.add_subparsers(dest="command", required=True)
    p = sub.add_parser("sec31", parents=[common],
                       help="24-edge model, conjugates k = 1..6")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_model_24)
    p = sub.add_parser("sec32", parents=[common],
                       help="8p-edge model, conjugates k = 1..2p")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--variant", choices=["plain", "j"], default="plain")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_model_8p)

    bel = top.add_parser("belyi", help="exact polynomial calculus")
    sub = bel.add_subparsers(dest="command", required=True)
    p = sub.add_parser("bmn", parents=[common])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_belyi_bmn)
    p = sub.add_parser("crit", parents=[common])
    p.add_argument("--map", required=True)
    p.set_defaults(func=_cmd_belyi_crit)
    p = sub.add_parser("reduce", parents=[common])
    p.add_argument("--points", required=True,
                   help="comma-separated nonzero rationals, e.g. 1,2/3,-27")
    p.set_defaults(func=_cmd_belyi_reduce)
    p = sub.add_parser("sturm", parents=[common])
    p.add_argument("--poly", required=True)
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.set_defaults(func=_cmd_belyi_sturm)
    p = sub.add_parser("increasing", parents=[common])
    p.add_argument("--poly", required=True)
    p.add_argument("--lo", required=True)
    p.add_argument("--hi", required=True)
    p.set_defaults(func=_cmd_belyi_increasing)

    tw = top.add_parser("tower", help="cyclotomic-Kummer tower fields")
    sub = tw.add_subparsers(dest="command", required=True)
    p = sub.add_parser("jinv", parents=[common])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--gamma", default="1")
    p.set_defaults(func=_cmd_tower_jinv)
    p = sub.add_parser("distinct", parents=[common])
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--gamma", default="1")
    p.set_defaults(func=_cmd_tower_distinct)

    lemma = top.add_parser("lemma", help="2-adic certificates")
    sub = lemma.add_subparsers(dest="command", required=True)
    p = sub.add_parser("two-adic", parents=[common])
    p.add_argument("--poly", required=True, help="integer-coefficient numerator")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--gamma", required=True)
    p.set_defaults(func=_cmd_lemma_two_adic)
    p = sub.add_parser("delta-tilde", parents=[common])
    p.add_argument("--d", required=True, help="comma-separated block degrees")
    p.add_argument("--c0", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--alpha-minus-nu", type=int, required=True)
    p.set_defaults(func=_cmd_lemma_delta_tilde)

    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    out = _Output(getattr(args, "json", False))
    try:
        code = args.func(args, out)
    except (ResourceLimit, SizeGuard, Cancelled) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (DessinkitError, ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    out.emit()
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
