"""Seeded fuzzing of the CLI's text inputs: maps and polynomials, words,
rationals and integer flags, and dessin files, generated from a small grammar
of each, run in text and ``--json`` through ``cli.run_cli`` in one child
process under a timeout.  Every run must end with exit 0-3, no traceback on
stderr, and, with ``--json``, stdout that parses (or nothing, for a refusal).

The grammars reach past every cap: brackets nested up to and past
``MAX_NESTING``, unary-minus chains thousands long, exponents and integers
far past the degree caps and the interpreter's digit limit, signs, ``_`` and
non-ASCII decimal digits, dessin degrees at and past ``MAX_DEGREE``, and
random characters dropped into the text.  Exponents below the caps stay
small, so that no one case runs into the seconds that a map near the degree
cap takes by design; for the same reason a dessin whose group needs a
stabilizer chain (one not certified A_n or S_n) has at most 40 edges.
"""

import json
import random
import subprocess
from pathlib import Path

import pytest

from dessinkit._exact import MAX_NESTING, is_prime
from dessinkit.perms import MAX_DEGREE

import child

SEED = 20

#: Reads one JSON argv per line, runs it, and prints [exit, stdout, stderr]
#: per line as it finishes, so a hang names its case.  An exception that
#: escapes run_cli is printed as the interpreter would print it.
_CHILD = r"""
import contextlib, io, json, sys, traceback
from dessinkit.cli import run_cli
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run_cli(json.loads(line))
        except BaseException:
            traceback.print_exc()
            code = None
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""

#: Characters dropped into an input to break its grammar.
_NOISE = "()[]^*/+-, xyXz_.٣７"


class _Grammar:
    def __init__(self, rng: random.Random, directory: Path):
        self.rng = rng
        self.directory = directory
        self.files = 0

    def file(self, data: bytes) -> str:
        """The path of a new file under the test's directory holding data."""
        self.files += 1
        path = self.directory / f"{self.files}.txt"
        path.write_bytes(data)
        return str(path)

    def digits(self) -> str:
        rng, r = self.rng, self.rng.random()
        if r < 0.6:
            return str(rng.randint(0, 40))
        if r < 0.72:
            return str(rng.getrandbits(rng.choice((64, 200, 2000))))
        if r < 0.75:  # past the interpreter's limit on decimal digits
            return str(rng.randint(1, 9)) * rng.choice((4301, 6000))
        if r < 0.78:
            return "".join(rng.choice("0123456789") for _ in range(rng.randint(300, 4300)))
        if r < 0.83:
            return rng.choice(("1_000", "1__0", "_1", "1_"))
        # Arabic-Indic, fullwidth and Devanagari digits
        return rng.choice(("٣", "١٢", "７", "१०"))

    def integer(self) -> str:
        return self.rng.choice(("", "", "", "", "", "-", "+", "--", " ")) + self.digits()

    def rational(self) -> str:
        r = self.rng.random()
        if r < 0.6:
            return self.integer()
        if r < 0.9:
            return f"{self.integer()}/{self.digits()}"
        return self.rng.choice(("1/0", "0/0", "1.5", "1e3", "", "/", "1//2", "x",
                                " 1 / 2 ", "nan", "-0/7"))

    def exponent(self) -> str:
        big = ("2001", "99999999999", str(2**64), "-" + str(10**40), self.integer())
        return str(self.rng.randint(-2, 4)) if self.rng.random() < 0.7 else self.rng.choice(big)

    def nesting(self, inner: str) -> str:
        n = self.rng.choice((MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1, 1000, 5000))
        return "(" * n + inner + ")" * n

    def map(self, depth: int = 0) -> str:
        text = self._term(depth)
        for _ in range(self.rng.randint(0, 2)):
            text += self.rng.choice((" + ", " - ", "+", "-")) + self._term(depth)
        return text

    def _term(self, depth: int) -> str:
        text = self._factor(depth)
        for _ in range(self.rng.randint(0, 2)):
            text += self.rng.choice(("*", " * ", "/")) + self._factor(depth)
        return text

    def _factor(self, depth: int) -> str:
        rng, r = self.rng, self.rng.random()
        minus = "-" * rng.choice((0, 0, 0, 0, 1, 2, rng.randint(3, 3000)))
        if depth > 2 or r < 0.45:
            primary = rng.choice(("X", "x", self.digits()))
        elif r < 0.55:
            primary = self.nesting(rng.choice(("X", "X+1", "2*X^2-1", "-X")))
        else:
            primary = f"({self.map(depth + 1)})"
        if rng.random() < 0.3:
            primary += "^" + self.exponent()
        return minus + primary

    def word(self, depth: int = 0) -> str:
        return " ".join(self._word_factor(depth) for _ in range(self.rng.randint(0, 4)))

    def _word_factor(self, depth: int) -> str:
        rng, r = self.rng, self.rng.random()
        if depth > 3 or r < 0.5:
            atom = rng.choice("xy")
        elif r < 0.6:
            atom = self.nesting(rng.choice(("x y", "x^-1", "")))
        elif r < 0.8:
            atom = f"({self.word(depth + 1)})"
        else:
            atom = f"[{self.word(depth + 1)}, {self.word(depth + 1)}]"
        if rng.random() < 0.3:
            atom += "^" + self.exponent()
        return atom

    def prime(self) -> str:
        return self.rng.choice(("3", "5", "7", "2", "1", "0", "-3", "9", "11", "29",
                                "1009", self.integer()))

    def garble(self, text: str) -> str:
        """text, now and then with a character dropped in or taken out."""
        rng = self.rng
        for _ in range(rng.choice((0, 0, 0, 1, 3))):
            at = rng.randint(0, len(text))
            if text and rng.random() < 0.4:
                text = text[:at] + text[at + 1:]
            else:
                text = text[:at] + rng.choice(_NOISE) + text[at:]
        return text

    def option(self, name: str, value: str) -> list:
        # --flag=value reaches the command even when value starts with "-"
        return [f"{name}={value}"] if self.rng.random() < 0.5 else [name, value]


def _belyi_crit(g):
    return ["belyi", "crit", *g.option("--map", g.garble(g.map()))]


def _interval(command):
    def argv(g):
        return ["belyi", command, *g.option("--poly", g.garble(g.map())),
                *g.option("--lo", g.rational()), *g.option("--hi", g.rational())]
    return argv


def _word_eval(g):
    return ["word", "eval", "gallery:1", *g.option("--word", g.garble(g.word()))]


def _tower_jinv(g):
    argv = ["tower", "jinv", *g.option("--p", g.prime()), *g.option("--q", g.rational())]
    return argv + (g.option("--gamma", g.rational()) if g.rng.random() < 0.7 else [])


def _cycle(points) -> str:
    return "(" + ",".join(map(str, points)) + ")"


def _cycles_of(images) -> str:
    """Disjoint-cycle text of a permutation given by its 1-based images."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        if start not in seen:
            orbit = [start]
            while images[orbit[-1] - 1] != start:
                orbit.append(images[orbit[-1] - 1])
            seen.update(orbit)
            if len(orbit) > 1:
                out.append(_cycle(orbit))
    return "".join(out) or "()"


def _sigmas(g, n: int):
    """sigma0 and sigma1 on n points: a pair of some kind, valid or not."""
    rng = g.rng
    kinds = ["giant", "giant", "intransitive", "out of range", "repeated", "overlap"]
    if n <= 40:  # groups that may need a stabilizer chain stay this small
        kinds += ["random"] * 6 + ["cyclic", "dihedral", "syntax"]
    kind = rng.choice(kinds)
    if kind == "giant" and n >= 8:
        # a prime cycle of length l, n/2 < l < n - 2, certifies A_n or S_n
        l = next((l for l in range(n - 3, n // 2, -1) if is_prime(l)), None)
        if l:
            return _cycle(range(1, l + 1)), _cycle(range(1, n + 1))
    if kind == "cyclic":
        return _cycle(range(1, n + 1)), rng.choice(("()", ""))
    if kind == "dihedral":
        return _cycle(range(1, n + 1)), _cycles_of([n + 1 - k for k in range(1, n + 1)])
    if kind == "intransitive":
        return _cycle(range(1, max(n, 2))), "()"
    if kind == "out of range":
        return _cycle([1, rng.choice((n + 1, 0, 10**30))]), "()"
    if kind == "repeated":
        return _cycle([1, 2, 1]), "()"
    if kind == "overlap":  # two cycles that share a point are no permutation
        return "(1,2)(2,3)", _cycle(range(1, n + 1))
    if kind == "syntax":
        return rng.choice(("(1 2 3)", "(1,,2)", "1,2", "(1,2", "((1,2))", "(a,b)",
                           "(1,２)", "(1;2)")), "()"
    images = list(range(1, n + 1))
    rng.shuffle(images)
    other = list(range(1, n + 1))
    rng.shuffle(other)
    return _cycles_of(images), _cycles_of(other)


def _dessin_info(g):
    rng, r = g.rng, g.rng.random()
    n = rng.randint(1, 40)
    if r < 0.12:
        n = MAX_DEGREE
    degree = str(n)
    if r >= 0.85:  # refused before any cycle is read, or a mismatched degree
        degree = rng.choice((str(MAX_DEGREE + 1), str(10**40), "0", "-3", "3.0",
                             "", "0x10", g.digits()))
    lines = [f"degree {degree}", *(f"sigma{k} = {s}" for k, s in enumerate(_sigmas(g, n)))]
    r = rng.random()
    if r < 0.05:
        del lines[rng.randrange(3)]
    elif r < 0.1:
        rng.shuffle(lines)
    elif r < 0.13:
        lines.append(rng.choice(lines))
    elif r < 0.18:
        lines[rng.randrange(3)] = rng.choice((
            "sigma0 (1,2)", "Degree 3", "degree 3 4", "degree:3", "sigma2 = ()",
            "sigma0 = sigma1 = ()", "degree"))
    for _ in range(rng.choice((0, 0, 1, 3))):
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(("# a comment", "", "   ", "#", "  # indented", "\t")))
    eol = rng.choice(("\n", "\n", "\r\n", "\r"))
    text = eol.join(lines) + rng.choice((eol, ""))
    data = (g.garble(text) if rng.random() < 0.4 else text).encode()
    if rng.random() < 0.03:
        at = rng.randint(0, len(data))
        data = data[:at] + b"\xff" + data[at:]  # not UTF-8
    cap = g.option("--cap-group-order", g.integer()) if rng.random() < 0.2 else []
    return ["dessin", "info", g.file(data), *cap]


#: (command, argv generator, cases); each case runs in text and with --json,
#: and each command draws from its own seeded generator
_COMMANDS = [
    ("belyi crit", _belyi_crit, 40),
    ("belyi sturm", _interval("sturm"), 30),
    ("belyi increasing", _interval("increasing"), 30),
    ("word eval", _word_eval, 40),
    ("tower jinv", _tower_jinv, 30),
    ("dessin info", _dessin_info, 60),
]


def _run_batch(argvs, timeout):
    stdin = "".join(json.dumps(argv) + "\n" for argv in argvs)
    try:
        done = child.run(["-c", _CHILD], input=stdin, capture_output=True, text=True,
                         timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        out = exc.stdout or b""  # bytes, even in text mode
        finished = (out.decode() if isinstance(out, bytes) else out).count("\n")
        pytest.fail(f"timed out after {finished} cases, on {argvs[finished]!r:.300}")
    assert done.returncode == 0, done.stderr[-2000:]
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_every_input_ends_in_an_answer_or_a_typed_error(tmp_path):
    argvs = []
    for name, make, cases in _COMMANDS:
        directory = tmp_path / name.replace(" ", "-")
        directory.mkdir()
        g = _Grammar(random.Random(f"{SEED} {name}"), directory)
        for _ in range(cases):
            argv = make(g)
            argvs += [argv, argv + ["--json"]]
    results = _run_batch(argvs, timeout=120)
    assert len(results) == len(argvs)
    codes = set()
    for argv, (code, out, err) in zip(argvs, results):
        case = f"{argv!r:.300}"
        assert code in (0, 1, 2, 3), (case, code, err[-2000:])
        assert "Traceback" not in err, (case, err[-2000:])
        if argv[-1] == "--json":
            if code in (0, 1):
                json.loads(out)
            else:
                assert out == "", case
        codes.add(code)
    assert {0, 2, 3} <= codes  # the grammars reach answers and both refusals
