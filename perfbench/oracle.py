"""Expected answers derived without the library code paths the benchmark times.

Permutations here are 0-based image tuples, composed with the same right
action as the library (``mul(a, b)`` applies ``a`` first).  Polynomials are
lists of ``Fraction`` coefficients, lowest degree first.  Tower-field
elements are checked through ring homomorphisms into prime fields, which
share no code with the library's exact arithmetic.
"""

import math
from fractions import Fraction

# -- permutations --------------------------------------------------------------


def mul(a, b):
    return tuple(b[i] for i in a)


def inv(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def power(a, e):
    if e < 0:
        a, e = inv(a), -e
    out = tuple(range(len(a)))
    for _ in range(e):
        out = mul(out, a)
    return out


def conj(a, pi):
    """pi^-1 a pi under the right action: the image of pi[i] is pi[a[i]]."""
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[pi[i]] = pi[v]
    return tuple(out)


def random_perm(rng, n):
    images = list(range(n))
    rng.shuffle(images)
    return tuple(images)


def is_transitive(gens):
    n = len(gens[0])
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for g in gens:
            if g[a] not in seen:
                seen.add(g[a])
                stack.append(g[a])
    return len(seen) == n


def cycle_type(a):
    seen = [False] * len(a)
    lengths = []
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        lengths.append(length)
    return sorted(lengths, reverse=True)


def cycles_text(a):
    """Disjoint-cycle notation with 1-based points, fixed points omitted."""
    seen = [False] * len(a)
    parts = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            continue
        cycle = []
        j = start
        while not seen[j]:
            seen[j] = True
            cycle.append(str(j + 1))
            j = a[j]
        parts.append("(" + ",".join(cycle) + ")")
    return "".join(parts) or "()"


def parse_cycles_text(text, n):
    images = list(range(n))
    for body in text.replace(")", "").split("(")[1:]:
        pts = [int(t) - 1 for t in body.split(",") if t.strip()]
        for x, y in zip(pts, pts[1:] + pts[:1]):
            images[x] = y
    return tuple(images)


def dessin_text(s0, s1):
    return f"degree {len(s0)}\nsigma0 = {cycles_text(s0)}\nsigma1 = {cycles_text(s1)}\n"


def eval_word(syllables, x, y):
    out = tuple(range(len(x)))
    for g, e in syllables:
        out = mul(out, power(x if g == "x" else y, e))
    return out


def random_syllables(rng, length):
    out = []
    for k in range(length):
        e = rng.choice((-3, -2, -1, 1, 2, 3, 4, 5))
        out.append(("x" if k % 2 == 0 else "y", e))
    return out


def word_text(syllables):
    return " ".join(f"{g}^{e}" for g, e in syllables)


def images0(p):
    """0-based image tuple of a library Permutation, read through its public API."""
    return tuple(v - 1 for v in p.images)


# -- polynomials over Q --------------------------------------------------------


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def antiderivative(a):
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(a)]


def bmn_numerator(m, n):
    """Coefficients of (m+n)^(m+n)/(m^m n^n) X^m (1-X)^n by the binomial theorem."""
    scale = Fraction((m + n) ** (m + n), m**m * n**n)
    out = [Fraction(0)] * (m + n + 1)
    for k in range(n + 1):
        out[m + k] = scale * math.comb(n, k) * (-1) ** k
    return out


# -- tower fields through homomorphisms to prime fields --------------------------


def _is_prime(n):
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeImage:
    """A ring map Q(zeta_p, q^(1/p)) -> F_l sending zeta to a primitive pth root
    of unity w and t to a pth root r of q.

    Defined on elements whose coordinate denominators are prime to l; the
    prime is chosen with l = 1 mod p, l != 1 mod p^2 and q a pth power mod l,
    so r = q^(p^-1 mod (l-1)/p).
    """

    def __init__(self, p, q, start):
        q = Fraction(q)
        ell = start - start % p + 1
        while True:
            ell += p
            if not _is_prime(ell) or (ell - 1) % (p * p) == 0:
                continue
            if q.numerator % ell == 0 or q.denominator % ell == 0:
                continue
            qm = q.numerator * pow(q.denominator, -1, ell) % ell
            cofactor = (ell - 1) // p
            if pow(qm, cofactor, ell) != 1:
                continue
            break
        self.p, self.ell = p, ell
        g = 2
        while pow(g, cofactor, ell) == 1:
            g += 1
        self.w = pow(g, cofactor, ell)
        self.r = pow(qm, pow(p, -1, cofactor), ell)
        assert pow(self.r, p, ell) == qm and self.w != 1 and pow(self.w, p, ell) == 1

    def image(self, coords, shift=0, unit=1):
        """Image of sum c * zeta^a t^b, precomposed with the automorphism
        zeta -> zeta^unit, t -> zeta^shift t."""
        ell = self.ell
        acc = 0
        for (a, b), c in coords.items():
            c = Fraction(c)
            term = c.numerator * pow(c.denominator, -1, ell)
            term = term * pow(self.w, (unit * a + shift * b) % self.p, ell)
            acc += term * pow(self.r, b, ell)
        return acc % ell


def random_tower_coords(rng, p, count):
    """``count`` nonzero small rational coordinates at seeded basis positions."""
    basis = [(i, j) for i in range(p - 1) for j in range(p)]
    return {key: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
            for key in rng.sample(basis, count)}


def is_pth_power(q, p):
    """Whether the positive rational q is the pth power of a rational."""
    return all(_integer_root(x, p) is not None for x in (q.numerator, q.denominator))


def _integer_root(x, k):
    r = round(x ** (1.0 / k))
    for c in (r - 1, r, r + 1):
        if c >= 0 and c**k == x:
            return c
    return None


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items
