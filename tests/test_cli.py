"""CLI behavior: exit codes, deterministic output, structured mode."""

import hashlib
import json
import math
import os
import random
import sys
import time
from pathlib import Path

import pytest

from fractions import Fraction

from dessinkit import PermGroup, Permutation, RatPoly, dessins, load_dessin, parse_cycles
from dessinkit._exact import MAX_NESTING, PRINT_BITS
from dessinkit.cli import run_cli
from dessinkit.errors import ParseError
from dessinkit.models import gallery_text, local_model_24

GOLDEN_TOUR = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "tour.json"


def invoke(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDessinCommands:
    def test_info_gallery(self, capsys):
        code, out, _ = invoke(capsys, "dessin", "info", "gallery:1")
        assert code == 0
        assert "degree: 36" in out
        assert "genus: 1" in out
        assert "group order: 42467328" in out
        assert "genus 14155777" in out

    def test_info_json_stable(self, capsys):
        code, out1, _ = invoke(capsys, "dessin", "info", "gallery:2", "--json")
        assert code == 0
        data = json.loads(out1)
        assert data["degree"] == 36
        assert data["group_order"] == 42467328
        assert list(data) == ["degree", "passport", "genus", "group_order", "regular"]
        _, out2, _ = invoke(capsys, "dessin", "info", "gallery:2", "--json")
        assert out1 == out2

    def test_info_from_file(self, capsys, tmp_path):
        path = tmp_path / "one.dessin"
        path.write_text("degree 1\nsigma0 = ()\nsigma1 = ()\n")
        code, out, _ = invoke(capsys, "dessin", "info", str(path))
        assert code == 0 and "degree: 1" in out

    def test_iso_negative(self, capsys):
        code, out, _ = invoke(capsys, "dessin", "iso", "gallery:1", "gallery:2")
        assert code == 1 and "not isomorphic" in out

    def test_iso_positive(self, capsys):
        code, out, _ = invoke(capsys, "dessin", "iso", "gallery:3", "gallery:3")
        assert code == 0 and "isomorphic via" in out

    def test_reg_iso_negative_reason(self, capsys):
        code, out, _ = invoke(capsys, "dessin", "reg-iso", "gallery:1", "gallery:4")
        assert code == 1
        assert "diagonal order exceeds component order" in out

    def test_reg_iso_positive(self, capsys):
        code, out, _ = invoke(capsys, "dessin", "reg-iso", "gallery:5", "gallery:5")
        assert code == 0

    def test_witness(self, capsys):
        code, out, _ = invoke(
            capsys,
            "dessin", "witness", "gallery:1", "gallery:6",
            "--word", "[x^-1 y^2 x, x y]",
        )
        assert code == 0 and "kernel" in out

    def test_witness_no_separation(self, capsys):
        code, out, _ = invoke(
            capsys,
            "dessin", "witness", "gallery:2", "gallery:2",
            "--word", "[x^-1 y^2 x, x y]",
        )
        assert code == 1 and "no separation" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = invoke(capsys, "dessin", "info", "no-such-file.dessin")
        assert code == 2 and "error:" in err

    def test_group_order_cap(self, capsys):
        code, _, err = invoke(
            capsys, "dessin", "info", "gallery:1", "--cap-group-order", "1000"
        )
        assert code == 3 and "error:" in err

    @pytest.mark.parametrize("n", [1000, 1500])
    def test_info_on_a_large_giant(self, capsys, tmp_path, n):
        # a random transitive pair generates A_n or S_n; its chain would pass
        # the transversal cap, the Jordan certificate takes milliseconds
        rng = random.Random(n)
        while True:
            pair = []
            for _ in range(2):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                pair.append(Permutation(images))
            if PermGroup(pair).is_transitive():
                break
        path = tmp_path / "giant.dessin"
        path.write_text(f"degree {n}\nsigma0 = {pair[0]}\nsigma1 = {pair[1]}\n")
        start = time.perf_counter()
        code, out, err = invoke(capsys, "dessin", "info", str(path), "--json")
        assert time.perf_counter() - start < 10
        assert (code, err) == (0, "")
        odd = any(sum(len(c) - 1 for c in p.cycles()) % 2 for p in pair)
        order = math.factorial(n) // (1 if odd else 2)
        printed = json.loads(out)["group_order"]
        if order.bit_length() <= PRINT_BITS:
            assert printed == order
        else:  # past the interpreter's int-to-decimal limit
            assert printed == f"<{order.bit_length()}-bit integer>"
            code, out, err = invoke(capsys, "dessin", "info", str(path))
            assert (code, err) == (0, "") and f"group order: {printed}\n" in out


class TestWordCommands:
    def test_eval(self, capsys):
        code, out, _ = invoke(
            capsys, "word", "eval", "gallery:3", "--word", "[x^-1 y^2 x, x y]"
        )
        assert code == 0 and out.strip() == "(17,29)(21,33)"

    def test_commutes_true(self, capsys):
        code, out, _ = invoke(
            capsys, "word", "commutes", "gallery:1", "--word", "[x^-1 y^2 x, x y]"
        )
        assert code == 0 and "commutes: true" in out

    def test_commutes_false(self, capsys):
        code, out, _ = invoke(
            capsys, "word", "commutes", "gallery:2", "--word", "x"
        )
        assert code == 1 and "commutes: false" in out

    def test_bad_word(self, capsys):
        code, _, err = invoke(capsys, "word", "eval", "gallery:1", "--word", "z")
        assert code == 2

    def test_split_exponent_rejected(self, capsys):
        code, out, err = invoke(capsys, "word", "eval", "gallery:1", "--word", "x^1 2")
        assert code == 2 and out == ""
        assert err.startswith("error: unexpected '2'")


class TestGalleryCommands:
    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "gallery", "list")
        assert code == 0
        assert out.count("gallery:") == 6

    def test_export_single_stdout(self, capsys):
        code, out, _ = invoke(capsys, "gallery", "export", "--k", "4")
        assert code == 0 and out == gallery_text(4)

    def test_export_all(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "gallery", "export", "--out", str(tmp_path))
        assert code == 0
        for k in range(1, 7):
            assert (tmp_path / f"gallery{k}.txt").read_text() == gallery_text(k)

    def test_export_without_target(self, capsys):
        code, _, err = invoke(capsys, "gallery", "export")
        assert code == 2


class TestModelCommands:
    def test_trace_lines(self, capsys):
        code, out, _ = invoke(capsys, "model", "sec31", "--k", "2", "--trace")
        assert code == 0
        assert "4^(omega y^2) = 17" in out
        assert "4^(y^2 omega) = 5" in out

    def test_commutation_flag(self, capsys):
        _, out1, _ = invoke(capsys, "model", "sec31", "--k", "1")
        assert "commutes with y^2: true" in out1
        _, out3, _ = invoke(capsys, "model", "sec31", "--k", "3")
        assert "commutes with y^2: false" in out3

    def test_8p_variant(self, capsys):
        _, out, _ = invoke(capsys, "model", "sec32", "--p", "3", "--k", "1")
        assert "commutes with y^2: true" in out
        _, out_j, _ = invoke(
            capsys, "model", "sec32", "--p", "3", "--k", "1", "--variant", "j"
        )
        assert "commutes with y^2: false" in out_j

    def test_bad_k(self, capsys):
        code, _, err = invoke(capsys, "model", "sec31", "--k", "9")
        assert code == 2

    def test_huge_p_is_an_input_error(self, capsys):
        code, _, err = invoke(capsys, "model", "sec32", "--p", str(10**400 + 1), "--k", "1")
        assert code == 2
        assert err.startswith("error: p must be an odd prime")
        assert "Traceback" not in err


class TestBelyiCommands:
    def test_bmn(self, capsys):
        code, out, _ = invoke(capsys, "belyi", "bmn", "--m", "1", "--n", "1")
        assert code == 0 and "-4*X^2 + 4*X" in out

    def test_bmn_not_coprime(self, capsys):
        code, _, err = invoke(capsys, "belyi", "bmn", "--m", "2", "--n", "4")
        assert code == 2

    def test_crit(self, capsys):
        code, out, _ = invoke(
            capsys, "belyi", "crit", "--map", "(X+27)^3 / (243*(X-9)^2)"
        )
        assert code == 0 and "{0, 1, inf}" in out

    @pytest.mark.parametrize("bits", [8000, 1000000])
    def test_crit_prints_big_values_briefly(self, capsys, bits):
        # the one finite critical value is -2^(2 bits - 2)
        placeholder = f"<rational with {2 * bits - 1}-bit numerator and 1-bit denominator>"
        expr = f"2^{bits}*X+X^2"
        code, out, err = invoke(capsys, "belyi", "crit", "--map", expr)
        assert (code, err) == (0, "")
        assert out == f"finite critical values: {{{placeholder}, inf}}\n"
        code, out, err = invoke(capsys, "belyi", "crit", "--map", expr, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"finite_critical_values": [placeholder],
                                   "includes_infinity": True}

    def test_reduce(self, capsys):
        code, out, _ = invoke(capsys, "belyi", "reduce", "--points", "1")
        assert code == 0
        assert "B[5,3]" in out and "verified: true" in out

    def test_reduce_size_guard(self, capsys):
        code, _, err = invoke(
            capsys,
            "belyi", "reduce", "--points=-27,9", "--cap-stage-size", "100",
        )
        assert code == 3 and "error:" in err

    def test_sturm(self, capsys):
        code, out, _ = invoke(
            capsys,
            "belyi", "sturm", "--poly", "X^2-2", "--lo", "-2", "--hi", "2",
        )
        assert code == 0 and "2" in out

    def test_increasing(self, capsys):
        code, out, _ = invoke(
            capsys,
            "belyi", "increasing", "--poly", "4*X-4*X^2", "--lo", "0", "--hi", "1/4",
        )
        assert code == 0 and "true" in out
        code, out, _ = invoke(
            capsys,
            "belyi", "increasing", "--poly", "4*X-4*X^2", "--lo", "0", "--hi", "3/4",
        )
        assert code == 1

    def test_split_integer_rejected(self, capsys):
        code, out, err = invoke(
            capsys, "belyi", "sturm", "--poly", "X - 1 2", "--lo", "0", "--hi", "20"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: trailing input")

    @pytest.mark.parametrize("argv", [
        ("belyi", "sturm", "--poly", "X^2-2", "--lo", "-3/2", "--hi", "2"),
        ("belyi", "increasing", "--poly", "X^3", "--lo", "-7/3", "--hi", "-1/5"),
        ("tower", "jinv", "--p", "3", "--q", "7/3", "--gamma", "-3/5"),
        ("belyi", "reduce", "--points", "-27,9", "--cap-stage-size", "100"),
    ])
    def test_negative_rationals_as_separate_arguments(self, capsys, argv):
        joined = []
        for arg in argv:
            if arg.startswith("-") and not arg.startswith("--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        assert invoke(capsys, *argv) == invoke(capsys, *joined)
        assert invoke(capsys, *argv)[0] in (0, 1, 3)

    def test_dash_before_a_letter_is_still_an_option(self, capsys):
        code, out, err = invoke(
            capsys, "belyi", "sturm", "--poly", "X", "--lo", "-x", "--hi", "2"
        )
        assert (code, out) == (2, "") and "expected one argument" in err

    def test_float_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "belyi", "sturm", "--poly", "X", "--lo", "0.5", "--hi", "2"
        )
        assert code == 2


class TestTowerCommands:
    def test_jinv(self, capsys):
        code, out, _ = invoke(capsys, "tower", "jinv", "--p", "3", "--q", "3")
        assert code == 0 and out.startswith("j = ")

    def test_distinct(self, capsys):
        code, out, _ = invoke(capsys, "tower", "distinct", "--p", "3", "--q", "3")
        assert code == 0 and "pairwise distinct: true" in out

    def test_distinct_rational_q(self, capsys):
        code, out, _ = invoke(
            capsys, "tower", "distinct", "--p", "3", "--q", "8/9", "--gamma", "2/17"
        )
        assert code == 0

    def test_pth_power_rejected(self, capsys):
        code, _, err = invoke(capsys, "tower", "distinct", "--p", "3", "--q", "8")
        assert code == 2


class TestLemmaCommands:
    def test_two_adic(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lemma", "two-adic",
            "--poly", "X+1", "--c", "32", "--p", "3", "--q", "4", "--gamma", "1",
        )
        assert code == 0
        assert "(m, n): (17, 15)" in out and "certified: true" in out

    def test_two_adic_hypothesis(self, capsys):
        code, _, err = invoke(
            capsys,
            "lemma", "two-adic",
            "--poly", "X+1", "--c", "32", "--p", "3", "--q", "1", "--gamma", "1",
        )
        assert code == 2

    def test_delta_tilde(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lemma", "delta-tilde",
            "--d", "1,1,1", "--c0", "1", "--c", "4", "--alpha-minus-nu", "4",
        )
        assert code == 0 and "total: 10" in out

    def test_delta_tilde_false(self, capsys):
        code, out, _ = invoke(
            capsys,
            "lemma", "delta-tilde",
            "--d", "1,1,1", "--c0", "1", "--c", "2", "--alpha-minus-nu", "1",
        )
        assert code == 1


class TestLoadGuards:
    def test_degree_cap_checked_before_parsing(self, capsys, monkeypatch, tmp_path):
        def refuse(*args):
            raise AssertionError("cycles parsed before the degree cap was checked")

        monkeypatch.setattr(dessins, "parse_cycles", refuse)
        path = tmp_path / "huge.dessin"
        path.write_text("degree 10000000000\nsigma0 = ()\nsigma1 = ()\n")
        assert invoke(capsys, "dessin", "info", str(path)) == (
            3, "", "error: degree 10000000000 exceeds cap 100000\n"
        )

    def test_non_decimal_digits_are_parse_errors(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "square.dessin"
        path.write_text("degree \u00b2\nsigma0 = ()\nsigma1 = ()\n", encoding="utf-8")
        assert invoke(capsys, "dessin", "info", str(path)) == (
            2, "", "error: bad degree line: 'degree \u00b2'\n"
        )
        assert invoke(capsys, "dessin", "info", "gallery:\u00b2") == (
            2, "", "error: bad gallery index in 'gallery:\u00b2'\n"
        )
        monkeypatch.setenv("DESSINKIT_CAPS", "group-order=\u00b2")
        assert invoke(capsys, "dessin", "info", "gallery:1") == (
            2, "", "error: bad DESSINKIT_CAPS entry 'group-order=\u00b2'\n"
        )

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_degree_zero_is_refused(self, capsys, tmp_path, json_flag):
        path = tmp_path / "empty.dessin"
        path.write_text("degree 0\nsigma0 = ()\nsigma1 = ()\n")
        assert invoke(capsys, "dessin", "info", str(path), *json_flag) == (
            2, "", "error: a dessin needs at least one edge, got degree 0\n"
        )


class TestCapsEnv:
    def test_env_var_caps(self, capsys, monkeypatch):
        monkeypatch.setenv("DESSINKIT_CAPS", "group-order=1000")
        code, _, err = invoke(capsys, "dessin", "info", "gallery:1")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DESSINKIT_CAPS", "group-order=1000")
        code, _, _ = invoke(
            capsys,
            "dessin", "info", "gallery:1", "--cap-group-order", "100000000",
        )
        assert code == 0

    def test_bad_env_entry(self, capsys, monkeypatch):
        monkeypatch.setenv("DESSINKIT_CAPS", "bogus=12")
        code, _, err = invoke(capsys, "dessin", "info", "gallery:1")
        assert code == 2

    @pytest.mark.parametrize("flag", ["--cap-group-order", "--cap-stage-size"])
    def test_negative_cap_flags_are_input_errors(self, capsys, flag):
        for argv in (("dessin", "info", "gallery:1"),
                     ("belyi", "reduce", "--points", "1,2/3")):
            assert invoke(capsys, *argv, flag, "-5") == (
                2, "", f"error: {flag} must be nonnegative, got -5\n"
            )

    def test_zero_caps_stay_valid(self, capsys):
        code, _, err = invoke(
            capsys, "dessin", "info", "gallery:1", "--cap-group-order", "0"
        )
        assert (code, err) == (3, "error: cartographic group order exceeds cap 0\n")
        code, _, err = invoke(
            capsys, "belyi", "reduce", "--points", "1,2/3", "--cap-stage-size", "0"
        )
        assert code == 3 and err.endswith("over the cap 0\n")


DELTA_TILDE = ("lemma", "delta-tilde", "--c0", "1", "--c", "4", "--alpha-minus-nu", "4")


class TestOutsideIntegers:
    """Every integer read from outside input ends in a ParseError (exit 2)."""

    def test_block_degrees_are_signed_decimal_runs(self, capsys):
        assert invoke(capsys, *DELTA_TILDE, "--d", "1,x") == (
            2, "", "error: expected an integer in --d, got 'x'\n"
        )
        assert invoke(capsys, *DELTA_TILDE, "--d", "1,-1,1") == (
            2, "", "error: block degrees must be positive\n"
        )
        code, out, _ = invoke(capsys, *DELTA_TILDE, "--d", "+1, 1 ,1")
        assert code == 0 and out.startswith("partial sums: 1 4 6 9\n")

    @pytest.mark.parametrize("argv, flag", [
        (("belyi", "bmn", "--m", "1_0", "--n", "3"), "--m"),
        (("belyi", "bmn", "--m", "10", "--n", "3_0"), "--n"),
        (("model", "sec32", "--p", "1_3", "--k", "1"), "--p"),
        (("model", "sec31", "--k", "0_1"), "--k"),
        (("gallery", "export", "--k", "0_1"), "--k"),
        (("lemma", "two-adic", "--poly", "X+1", "--c", "3_2", "--p", "3",
          "--q", "4", "--gamma", "1"), "--c"),
        (("lemma", "delta-tilde", "--d", "1,1,1", "--c0", "1_0", "--c", "40",
          "--alpha-minus-nu", "4"), "--c0"),
        (DELTA_TILDE[:-1] + ("4_0", "--d", "1,1,1"), "--alpha-minus-nu"),
        (("dessin", "info", "gallery:1", "--cap-group-order", "1_0"), "--cap-group-order"),
        (("belyi", "bmn", "--m", "2", "--n", "3", "--cap-stage-size", "1_0"),
         "--cap-stage-size"),
    ])
    def test_integer_flags_are_decimal_runs(self, capsys, argv, flag):
        code, out, err = invoke(capsys, *argv)
        value = argv[argv.index(flag) + 1]
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: '{value}'\n")

    def test_rationals_are_decimal_runs(self, capsys):
        assert invoke(
            capsys, "belyi", "sturm", "--poly", "X^2-2", "--lo", "1_0", "--hi", "2_0"
        ) == (2, "", "error: expected an integer in rational '1_0', got '1_0'\n")
        assert invoke(capsys, "belyi", "reduce", "--points", "1,1/2_7") == (
            2, "", "error: expected an integer in rational '1/2_7', got '2_7'\n"
        )
        assert invoke(capsys, "tower", "jinv", "--p", "3", "--q", "7_0/3") == (
            2, "", "error: expected an integer in rational '7_0/3', got '7_0'\n"
        )
        # signs, surrounding blanks and refusals are as before
        code, out, _ = invoke(
            capsys, "belyi", "sturm", "--poly", "X^2-2", "--lo", " -3/2 ", "--hi", "+2"
        )
        assert (code, out) == (0, "roots in (-3/2, 2]: 2\n")
        assert invoke(capsys, "belyi", "reduce", "--points", "1/-2") == (
            2, "", "error: bad rational '1/-2': Invalid literal for Fraction: '1/-2'\n"
        )

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts decimal strings of any length",
    )
    def test_over_the_digit_limit(self, capsys, monkeypatch, tmp_path):
        n = sys.get_int_max_str_digits() + 1
        big = "7" * n

        def too_long(where):
            return 2, "", f"error: integer of {n} digits {where} is too long\n"

        assert invoke(capsys, *DELTA_TILDE, "--d", f"1,{big},1") == too_long("in --d")
        assert invoke(capsys, "dessin", "info", f"gallery:{big}") == (
            too_long("in the gallery index")
        )
        degree_line = tmp_path / "degree.dessin"
        degree_line.write_text(f"degree {big}\nsigma0 = ()\nsigma1 = ()\n")
        assert invoke(capsys, "dessin", "info", str(degree_line)) == (
            too_long("on the degree line")
        )
        point = tmp_path / "point.dessin"
        point.write_text(f"degree 3\nsigma0 = (1,{big})\nsigma1 = ()\n")
        assert invoke(capsys, "dessin", "info", str(point)) == (
            too_long("in cycle notation")
        )
        monkeypatch.setenv("DESSINKIT_CAPS", f"group-order={big}")
        assert invoke(capsys, "dessin", "info", "gallery:1") == (
            too_long("in DESSINKIT_CAPS")
        )
        # the same rule through the library
        with pytest.raises(ParseError, match=f"{n} digits on the degree line"):
            load_dessin(degree_line.read_text())
        with pytest.raises(ParseError, match=f"{n} digits in cycle notation"):
            parse_cycles(f"(1,{big})", 3)


class TestSizeGuards:
    def test_word_over_the_syllable_cap(self, capsys):
        code, out, err = invoke(
            capsys, "word", "eval", "gallery:1", "--word", "(x y)^1000000000"
        )
        assert (code, out) == (3, "") and "syllables is over the cap" in err

    def test_map_over_the_degree_cap(self, capsys):
        assert invoke(capsys, "belyi", "crit", "--map", "(X+1)^2001") == (
            3, "", "error: map of degree 2001 before position 10 in expression "
            "is over the degree cap 2000\n"
        )

    @pytest.mark.parametrize("expr, bits, position", [
        ("3^100000000", 200000004, 11),
        ("(X+3^1000)^2000", 6343172004, 15),
        ("(X+2^600)^1000", 601602004, 14),
        ("(X+2^100)^1000", 101102004, 14),
        ("(7*X+13)^2000", 20012004, 13),
    ])
    def test_power_over_the_size_cap(self, capsys, monkeypatch, expr, bits, position):
        expand = RatPoly.__pow__

        def small_only(self, exponent):  # the base may hold a power itself
            assert exponent <= 1000, "power expanded before the size cap was checked"
            return expand(self, exponent)

        monkeypatch.setattr(RatPoly, "__pow__", small_only)
        start = time.perf_counter()
        assert invoke(capsys, "belyi", "crit", "--map", expr) == (
            3, "", f"error: map of up to {bits} bits before position {position} in "
            "expression is over the size cap 6000000\n"
        )
        assert time.perf_counter() - start < 1


class TestNesting:
    @pytest.mark.parametrize("argv, atom, times", [
        (("word", "eval", "gallery:1", "--word"), "x", " "),
        (("belyi", "crit", "--map"), "X", "*"),
    ])
    def test_the_limit_is_answered_and_one_more_is_an_input_error(
        self, capsys, argv, atom, times
    ):
        n = MAX_NESTING
        code, out, _ = invoke(capsys, *argv, "(" * n + atom + ")" * n)
        assert code == 0 and out
        siblings = times.join(["(" + atom + ")"] * (n + 1))
        assert invoke(capsys, *argv, siblings)[0] == 0  # depths do not add up
        for depth in (n + 1, 300, 2000):
            code, out, err = invoke(capsys, *argv, "(" * depth + atom + ")" * depth)
            assert (code, out) == (2, "")
            assert err.startswith(
                f"error: brackets nested deeper than {n} at position {n + 1}"
            )
            assert "Traceback" not in err

    def test_commutator_brackets_count_too(self, capsys):
        n = MAX_NESTING + 1
        code, out, err = invoke(
            capsys, "word", "eval", "gallery:1", "--word", "[" * n + "x,y]" * n
        )
        assert (code, out) == (2, "")
        assert err == (f"error: brackets nested deeper than {n - 1} at position "
                       f"{n} in word\n")


class TestTwoAdicAndDeltaTildeSizes:
    """Oversized lemma inputs end in an answer or a typed error, at once."""

    @pytest.mark.parametrize("p, bits", [("10007", 20014), ("1000000007", 2000000014)])
    def test_two_adic_point_over_the_cap(self, capsys, monkeypatch, p, bits):
        def refuse(self, exponent, *args):
            raise AssertionError(f"power {exponent} computed past the guard")

        monkeypatch.setattr(Fraction, "__pow__", refuse)
        start = time.perf_counter()
        assert invoke(capsys, "lemma", "two-adic", "--poly", "X+1", "--c", "32",
                      "--p", p, "--q", "4", "--gamma", "2/3") == (
            3, "", f"error: gamma^(2p) has more than {bits} bits at p = {p}, "
            "over the cap 4096\n"
        )
        assert time.perf_counter() - start < 1

    def test_two_adic_below_the_cap_answers_as_before(self, capsys):
        code, out, _ = invoke(capsys, "lemma", "two-adic", "--poly", "X+1", "--c", "32",
                              "--p", "1009", "--q", "4", "--gamma", "2/3")
        assert code == 0 and out.endswith("certified: true\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "698cc0dacceea7191ca40a253bdd5b2b0a555a62bea8197d006217aa1c3304cb")

    @pytest.mark.parametrize("k", ["100000000", "10000000000", "10" + "0" * 20])
    def test_delta_tilde_huge_window(self, capsys, k):
        start = time.perf_counter()
        argv = DELTA_TILDE[:-1] + (k, "--d", "1,1,1")
        assert invoke(capsys, *argv) == (
            0, f"partial sums: 1 4 6 9\ntotal: 10\nall nonzero mod 2^{k}: true\n", ""
        )
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0 and json.loads(out)["modulus"] is None
        assert time.perf_counter() - start < 1

    def test_delta_tilde_long_entries(self, capsys):
        big = "7" * 3000
        argv = ("lemma", "delta-tilde", "--d", f"{big},1,{big}", "--c0", big,
                "--c", "1" + big, "--alpha-minus-nu", "4")
        low, high = "<19931-bit integer>", "<19933-bit integer>"
        assert invoke(capsys, *argv) == (
            0, f"partial sums: {low} {low} {high} {high}\ntotal: {high}\n"
            "all nonzero mod 16: true\n", ""
        )
        code, out, _ = invoke(capsys, *argv, "--json")
        assert code == 0 and json.loads(out) == {
            "partial_sums": [low, low, high, high], "total": high, "modulus": 16,
            "ok": True,
        }


class TestPlaceholders:
    """Coefficients and exponents over PRINT_BITS bits print as placeholders."""

    def test_bmn_at_the_expansion_cap(self, capsys):
        coefficient = "<rational with 21932-bit numerator and 21920-bit denominator>"
        assert invoke(capsys, "belyi", "bmn", "--m", "1999", "--n", "1") == (
            0, f"-{coefficient}*X^2000 + {coefficient}*X^1999\n"
            "critical values: {0, 1, inf}\n", ""
        )

    def test_tower_jinv_with_a_long_q(self, capsys):
        code, out, err = invoke(capsys, "tower", "jinv", "--p", "3", "--q", "3" * 2000)
        assert (code, err) == (0, "")
        # a placeholder keeps the sign of its coordinate
        assert out.startswith(
            "j = <rational with 26569-bit numerator and 26559-bit denominator> - "
            "<rational with 26568-bit numerator and 26561-bit denominator>*t + ")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "eba2a55500924414ef3b56e9d31fd71a43a84b6af6e9a8ea97bbe8999f5fad4e")

    def test_word_with_a_long_exponent(self, capsys):
        n = "9" * 3000
        code, out, _ = invoke(capsys, "word", "eval", "gallery:1",
                              "--word", f"(x^{n})^{n} (y^{n})^-{n}", "--json")
        assert code == 0 and json.loads(out)["word"] == (
            "x^<19932-bit integer> y^-<19932-bit integer>")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("dessin", "info", "gallery:1"),
            ("gallery", "list"),
            ("model", "sec32", "--p", "5", "--k", "3", "--trace"),
            ("belyi", "reduce", "--points", "1,1/3"),
            ("tower", "distinct", "--p", "3", "--q", "5"),
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = invoke(capsys, *argv)
        code2, out2, _ = invoke(capsys, *argv)
        assert code1 == code2 and out1 == out2

    def test_no_floats_in_output(self, capsys):
        for argv in (
            ("dessin", "info", "gallery:1"),
            ("belyi", "reduce", "--points", "1"),
            ("lemma", "two-adic", "--poly", "X+1", "--c", "32", "--p", "3",
             "--q", "4", "--gamma", "1"),
        ):
            _, out, _ = invoke(capsys, *argv)
            import re

            assert not re.search(r"\d\.\d", out)


def _golden_cases():
    with open(GOLDEN_TOUR, encoding="utf-8") as fh:
        return json.load(fh)


class TestGoldenTour:
    """The README tour, replayed in process against its recorded output."""

    @pytest.mark.parametrize(
        "case", _golden_cases(), ids=lambda case: " ".join(case["argv"])
    )
    def test_replay(self, capsys, monkeypatch, tmp_path, case):
        monkeypatch.chdir(tmp_path)
        assert invoke(capsys, *case["argv"]) == (
            case["exit"], case["stdout"], case["stderr"]
        )


def _as_json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


_SEC32_OMEGA = (
    "(1,30)(2,29)(3,4)(5,34)(6,33)(7,8)(9,10)(11,12)(13,14)(15,16)(17,18)"
    "(19,20)(21,22)(23,24)(25,26)(27,28)(31,32)(35,36)(37,38)(39,40)(41,42)"
    "(43,44)(45,46)(47,48)(49,50)(51,52)(53,54)(55,56)"
)
_REDUCE_5_VALUE = (
    "4722366482869645213696/"
    "10555134955777783414078330085995832946127396083370199442517"
)

# Branches the tour does not reach: argv, exit code, text output, JSON output.
PINNED = [
    (
        ["dessin", "iso", "gallery:3", "gallery:3"], 0,
        "isomorphic via ()\n",
        {"isomorphic": True, "witness": "()"},
    ),
    (
        ["dessin", "reg-iso", "gallery:5", "gallery:5"], 0,
        "regular closures isomorphic\n",
        {"isomorphic_closures": True},
    ),
    (
        ["dessin", "reg-iso", "gallery:1", "one.dessin"], 1,
        "regular closures not isomorphic: component orders differ\n",
        {"isomorphic_closures": False, "reason": "component orders differ"},
    ),
    (
        ["dessin", "witness", "gallery:2", "gallery:2", "--word", "[x^-1 y^2 x, x y]"], 1,
        "no separation\n",
        {"separation": "none"},
    ),
    (
        ["dessin", "witness", "m1.dessin", "m2.dessin", "--word", "x", "--with", "y^2"], 0,
        "separates by commutation with y^2\n",
        {"separation": "commutation", "commutator_with": "y^2"},
    ),
    (
        ["gallery", "export", "--k", "3", "--out", "g3.txt"], 0,
        "wrote g3.txt\n",
        {"written": ["g3.txt"]},
    ),
    (
        ["model", "sec32", "--p", "7", "--k", "3", "--trace"], 0,
        f"points: 56\nomega: {_SEC32_OMEGA}\ncommutes with y^2: false\n"
        "trace: 1^(omega y^2) = 32\ntrace: 1^(y^2 omega) = 4\n",
        {
            "points": 56,
            "omega": _SEC32_OMEGA,
            "commutes_with_y2": False,
            "trace": {"start": 1, "omega_then_y2": 32, "y2_then_omega": 4},
        },
    ),
    (
        ["belyi", "reduce", "--points", "5"], 0,
        "stage 1: 1/36*X^2 + 1/18*X + 1/36\nstage 2: B[37,35]\n"
        f"critical profile: {{0, 1, inf}}\nvalue at 0: {_REDUCE_5_VALUE}\n"
        "verified: true\n",
        {
            "stages": ["1/36*X^2 + 1/18*X + 1/36", "B[37,35]"],
            "critical_profile": {"finite": ["0", "1"], "includes_infinity": True},
            "value_at_zero": _REDUCE_5_VALUE,
            "verified": True,
        },
    ),
    (
        ["lemma", "delta-tilde", "--d", "1,1,1", "--c0", "1", "--c", "2",
         "--alpha-minus-nu", "1"], 1,
        "partial sums: 1 2 4 5\ntotal: 6\nall nonzero mod 2: false\n",
        {"partial_sums": [1, 2, 4, 5], "total": 6, "modulus": 2, "ok": False},
    ),
]


class TestPinnedBranches:
    """Exact text and JSON output of the branches outside the tour."""

    @pytest.fixture
    def workdir(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "one.dessin").write_text("degree 1\nsigma0 = ()\nsigma1 = ()\n")
        for k in (1, 2):
            model = local_model_24(k)
            (tmp_path / f"m{k}.dessin").write_text(
                f"degree {model.y.degree}\nsigma0 = {model.omega}\nsigma1 = {model.y}\n"
            )
        return tmp_path

    @pytest.mark.parametrize(
        "argv, code, text, data", PINNED, ids=[" ".join(pin[0]) for pin in PINNED]
    )
    def test_text_and_json(self, capsys, workdir, argv, code, text, data):
        assert invoke(capsys, *argv) == (code, text, "")
        assert invoke(capsys, *argv, "--json") == (code, _as_json(data), "")

    def test_export_to_file_writes_exact_bytes(self, capsys, workdir):
        invoke(capsys, "gallery", "export", "--k", "3", "--out", "g3.txt")
        with open(workdir / "g3.txt", encoding="utf-8", newline="") as fh:
            assert fh.read() == gallery_text(3)
