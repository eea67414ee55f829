"""CLI behavior: exit codes, deterministic output, structured mode."""

import hashlib
import io
import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fractions import Fraction

from dessinkit import PermGroup, Permutation, RatPoly, cli, dessins, load_dessin, parse_cycles
from dessinkit._exact import MAX_NESTING, PRINT_BITS
from dessinkit.cli import run_cli
from dessinkit.errors import ParseError
from dessinkit.models import gallery_text, local_model_24

import child
import cli_pins

README = Path(__file__).resolve().parents[1] / "README.md"


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

    def test_witness_no_separation(self, capsys):
        code, out, _ = invoke(
            capsys,
            "dessin", "witness", "gallery:2", "gallery:2",
            "--word", "[x^-1 y^2 x, x y]",
        )
        assert code == 1 and "no separation" in out

    def test_info_from_file(self, capsys, tmp_path):
        path = tmp_path / "one.dessin"
        path.write_text("degree 1\nsigma0 = ()\nsigma1 = ()\n")
        code, out, _ = invoke(capsys, "dessin", "info", str(path))
        assert code == 0 and "degree: 1" in out

    def test_non_utf8_file_is_input_error(self, capsys, tmp_path):
        data = b"degree 1\nsigma0 = ()\nsigma1 = ()\n\xff\n"
        path = tmp_path / "latin1.dessin"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as decoding:
            data.decode("utf-8")
        assert invoke(capsys, "dessin", "info", str(path)) == (
            2, "", f"error: {decoding.value}\n"
        )

    def test_untyped_error_propagates(self, monkeypatch):
        # only typed errors and OSError are exit codes; a bare ValueError is
        # a bug, and must not read as bad input
        def broken(d):
            raise ValueError("not a typed error")

        monkeypatch.setattr(cli, "passport_of", broken)
        with pytest.raises(ValueError, match="not a typed error"):
            run_cli(["dessin", "info", "gallery:1"])

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


class TestGalleryCommands:
    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "gallery", "list")
        assert code == 0
        assert out.count("gallery:") == 6

    def test_export_all(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "gallery", "export", "--out", str(tmp_path))
        assert code == 0
        for k in range(1, 7):
            assert (tmp_path / f"gallery{k}.txt").read_text() == gallery_text(k)


class TestModelCommands:
    def test_trace_lines(self, capsys):
        code, out, _ = invoke(capsys, "model", "sec31", "--k", "2", "--trace")
        assert code == 0
        assert "4^(omega y^2) = 17" in out
        assert "4^(y^2 omega) = 5" in out

    def test_huge_p_is_an_input_error(self, capsys):
        code, _, err = invoke(capsys, "model", "sec32", "--p", str(10**400 + 1), "--k", "1")
        assert code == 2
        assert err.startswith("error: p must be an odd prime")
        assert "Traceback" not in err


class TestBelyiCommands:
    def test_crit(self, capsys):
        code, out, _ = invoke(
            capsys, "belyi", "crit", "--map", "(X+27)^3 / (243*(X-9)^2)"
        )
        assert code == 0 and "{0, 1, inf}" in out

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


class TestTowerCommands:
    def test_jinv(self, capsys):
        code, out, _ = invoke(capsys, "tower", "jinv", "--p", "3", "--q", "3")
        assert code == 0 and out.startswith("j = ")

    def test_distinct(self, capsys):
        code, out, _ = invoke(capsys, "tower", "distinct", "--p", "3", "--q", "3")
        assert code == 0 and "pairwise distinct: true" in out

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

    def test_non_decimal_digits_are_parse_errors(self, capsys, tmp_path):
        path = tmp_path / "square.dessin"
        path.write_text("degree \u00b2\nsigma0 = ()\nsigma1 = ()\n", encoding="utf-8")
        assert invoke(capsys, "dessin", "info", str(path)) == (
            2, "", "error: bad degree line: 'degree \u00b2'\n"
        )
        assert invoke(capsys, "dessin", "info", "gallery:\u00b2") == (
            2, "", "error: bad gallery index in 'gallery:\u00b2'\n"
        )

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_degree_zero_is_refused(self, capsys, tmp_path, json_flag):
        path = tmp_path / "empty.dessin"
        path.write_text("degree 0\nsigma0 = ()\nsigma1 = ()\n")
        assert invoke(capsys, "dessin", "info", str(path), *json_flag) == (
            2, "", "error: a dessin needs at least one edge, got degree 0\n"
        )


class TestCapsEnv:
    def test_env_var_is_not_read(self, capsys, monkeypatch):
        plain = invoke(capsys, "dessin", "info", "gallery:1")
        monkeypatch.setenv("DESSINKIT_CAPS", "group-order=1000")
        assert invoke(capsys, "dessin", "info", "gallery:1") == plain
        assert plain[0] == 0

    @pytest.mark.parametrize("flag", ["--cap-group-order", "--cap-stage-size"])
    def test_negative_cap_flags_are_input_errors(self, capsys, flag):
        commands = {
            "--cap-group-order": [("dessin", "info", "gallery:1"),
                                  ("dessin", "reg-iso", "gallery:1", "gallery:2")],
            "--cap-stage-size": [("belyi", "reduce", "--points", "1,2/3")],
        }
        for argv in commands[flag]:
            assert invoke(capsys, *argv, flag, "-5") == (
                2, "", f"error: {flag} must be nonnegative, got -5\n"
            )

    @pytest.mark.parametrize("argv", [
        ("belyi", "bmn", "--m", "2", "--n", "3", "--cap-stage-size", "5"),
        ("gallery", "list", "--cap-group-order", "5"),
    ])
    def test_cap_flags_only_on_the_commands_that_read_them(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err


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
        (("belyi", "reduce", "--points", "1", "--cap-stage-size", "1_0"),
         "--cap-stage-size"),
    ])
    def test_integer_flags_are_decimal_runs(self, capsys, argv, flag):
        code, out, err = invoke(capsys, *argv)
        value = argv[argv.index(flag) + 1]
        assert (code, out) == (2, "")
        assert err.endswith(f"error: argument {flag}: invalid int value: '{value}'\n")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this interpreter converts decimal strings of any length",
    )
    def test_over_the_digit_limit(self, capsys, tmp_path):
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
        # the same rule through the library
        with pytest.raises(ParseError, match=f"{n} digits on the degree line"):
            load_dessin(degree_line.read_text())
        with pytest.raises(ParseError, match=f"{n} digits in cycle notation"):
            parse_cycles(f"(1,{big})", 3)


class TestSizeGuards:
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


class TestClosedStdout:
    """A reader that closed stdout early ends the run with 141 and no
    traceback, as a shell reports for `yes | head -1`."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("gallery", "list"),
            ("belyi", "bmn", "--m", "3", "--n", "1"),
            ("dessin", "info", "gallery:1", "--json"),
        ],
    )
    def test_exit_141_and_silent_stderr(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = child.run(["-m", "dessinkit.cli", *argv], stdout=write_end,
                             stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")

    @pytest.mark.parametrize("broken", [False, True])
    def test_main_in_process(self, capsys, monkeypatch, tmp_path, broken):
        # the console script's entry point, with a stdout whose descriptor is
        # a file this test opened, so that its dup2 never touches fd 1
        code, out, _ = invoke(capsys, "gallery", "list")

        class Stdout(io.StringIO):
            def fileno(self):
                return fh.fileno()

            def flush(self):
                if broken:
                    raise BrokenPipeError
                super().flush()

        monkeypatch.setattr(sys, "argv", ["dessinkit", "gallery", "list"])
        with open(tmp_path / "stdout", "w", encoding="utf-8") as fh:
            monkeypatch.setattr(sys, "stdout", Stdout())
            with pytest.raises(SystemExit) as done:
                cli.main()
            written = sys.stdout.getvalue()
            on_devnull = os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
        assert (done.value.code, written, on_devnull) == (
            (141, out, True) if broken else (code, out, False))


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


@pytest.fixture
def workdir(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def replay_pin(capsys, workdir, case):
    """Run one pinned case in process, beside the table's input files."""
    cli_pins.load(workdir)
    assert invoke(capsys, *case["argv"]) == (
        case["exit"], case["stdout"], case["stderr"]
    )


def argv_id(case):
    return " ".join(case["argv"])


class TestGoldenTour:
    """The README tour, ``perfbench/golden/tour.json``, in text and --json."""

    @pytest.mark.parametrize("case", cli_pins.tour_cases(), ids=argv_id)
    def test_replay(self, capsys, workdir, case):
        replay_pin(capsys, workdir, case)

    def test_readme_tour_is_the_pinned_tour(self):
        text = README.read_text(encoding="utf-8")
        block = text.split("## CLI tour\n\n```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [argv for argv in commands if argv]
        assert {argv[0] for argv in commands} == {"dessinkit"}
        assert [argv[1:] for argv in commands] == [
            case["argv"] for case in cli_pins.tour_cases() if "--json" not in case["argv"]
        ]


class TestPinnedBranches:
    """Every pinned CLI output of the table ``cli_pins.json``, text and --json.

    CI replays the same cases, and the tour's, through the installed console
    script with ``tests/cli_pins.py``, so a new pin is one more case in the
    table.
    """

    @pytest.mark.parametrize("case", cli_pins.table_cases(), ids=argv_id)
    def test_text_and_json(self, capsys, workdir, case):
        replay_pin(capsys, workdir, case)

    def test_export_to_file_writes_exact_bytes(self, capsys, workdir):
        invoke(capsys, "gallery", "export", "--k", "3", "--out", "g3.txt")
        with open(workdir / "g3.txt", encoding="utf-8", newline="") as fh:
            assert fh.read() == gallery_text(3)

    def test_input_files_are_the_dessins_they_stand_for(self, workdir):
        cli_pins.load(workdir)
        expected = {}
        for n in (256, 257):
            # sigma0 the n-cycle, sigma1 the reflection (i, n+2-i)
            sigma0 = "(" + ",".join(map(str, range(1, n + 1))) + ")"
            sigma1 = "".join(
                f"({i},{n + 2 - i})" for i in range(2, n // 2 + 2) if i < n + 2 - i
            )
            expected[f"dihedral{n}.txt"] = f"degree {n}\nsigma0 = {sigma0}\nsigma1 = {sigma1}\n"
        for k in (1, 2):
            model = local_model_24(k)
            expected[f"m{k}.dessin"] = (
                f"degree {model.y.degree}\nsigma0 = {model.omega}\nsigma1 = {model.y}\n"
            )
        for name, text in expected.items():
            with open(workdir / name, encoding="utf-8", newline="") as fh:
                assert fh.read() == text, name

    def test_runner_reports_exactly_the_changed_case(self, monkeypatch, workdir):
        monkeypatch.setenv("PYTHONPATH", child.SRC)
        [case] = [c for c in cli_pins.load(workdir)
                  if c["argv"] == ["dessin", "iso", "cover1.txt", "cover2.txt"]]
        changed = dict(case, stdout=case["stdout"].replace("5)", "6)"))
        failures = cli_pins.replay(
            [sys.executable, "-m", "dessinkit.cli"], [case, changed], workdir
        )
        assert failures == [(changed, {"exit": 0, "stdout": case["stdout"], "stderr": ""})]
