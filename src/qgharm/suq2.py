"""Exact symbolic quantum SU(2) at a rational deformation parameter.

Words in the generators a, a*, c, c* are brought to the normal form
a^k c*^m c^n one letter at a time, with exact Laurent-polynomial
coefficients in the parameter mu, kept symbolic throughout. On top of the
normal form: the Haar state as an exact rational function of mu, the
comultiplication, both antipodes, the compact-type convolution
x * y = ((x phi) S^{-1} (x) id) Delta(y), and the certified lower bound
showing that no finite constant C satisfies ||x * y|| <= C ||x||_1 ||y||
on this algebra. Delta(g^p) is a q-binomial sum, as the two terms of a
generator's Delta q-commute (q = mu^2 for a and c, mu^-2 for a* and c*).
The relations are Z^2-graded, a[k,m,n] in degree (k, n - m), and phi
vanishes off degree (0, 0), so the convolution skips pairs it cannot read.

A rational function of mu is kept in the one shape the certificate builds:
a Laurent numerator over 1 or over a polynomial with constant term 1 and
no negative power, as given, with no gcd. Equality cross-multiplies. Any
other denominator raises QgharmError.

Letters: 'a' and 'c' are the generators, 'A' and 'C' their adjoints.
"""

from __future__ import annotations

import functools
import operator
import sys
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Tuple

from .errors import AxiomFailure, QgharmError
from .report import Check

__all__ = [
    "Laurent",
    "MuRational",
    "Monomial",
    "PolyElement",
    "normalize",
    "haar",
    "counit",
    "comultiply",
    "antipode",
    "convolve_compact",
    "certified_bound",
    "counterexample_report",
]

# each letter of a word with the exponents (k, m, n) of its first power
LETTERS = {"a": (1, 0, 0), "A": (-1, 0, 0), "c": (0, 0, 1), "C": (0, 1, 0)}


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

class Laurent:
    """Laurent polynomial in mu with exact coefficients, canonical: no zero
    coefficient is stored, and each one is an int when it is integral and
    a Fraction with denominator other than 1 otherwise. Nothing mutates a
    Laurent once built, so a product by the unit returns the other
    operand."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Dict[int, Fraction] = None):
        clean = {}
        for k, v in (coeffs or {}).items():
            if type(v) is not int:
                # exact for a float too; an integral value becomes an int
                v = Fraction(v)
                if v.denominator == 1:
                    v = v.numerator
            if v:
                clean[int(k)] = v
        self.coeffs = clean

    @staticmethod
    def const(value) -> "Laurent":
        return Laurent({0: value})

    @staticmethod
    def mu_power(k: int, value=1) -> "Laurent":
        return Laurent({k: value})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return _settled(out)

    def __mul__(self, other: "Laurent") -> "Laurent":
        if other.coeffs == _UNIT:
            return self
        if self.coeffs == _UNIT:
            return other
        out: Dict[int, Fraction] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return _settled(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            term = str(v) if e == 0 else (
                f"{v}*mu" if e == 1 else f"{v}*mu^{e}")
            parts.append(term)
        return " + ".join(parts)


_UNIT = {0: 1}
ONE = Laurent.const(1)


def _settled(out: Dict[int, Fraction]) -> Laurent:
    """The Laurent sum of out[e] mu^e, for int counts or for a sum or
    product of canonical coefficients: zeros are dropped and integral
    Fractions become ints, so __init__'s checks are not run again."""
    result = object.__new__(Laurent)
    result.coeffs = {k: v if type(v) is int or v.denominator != 1
                     else v.numerator for k, v in out.items() if v}
    return result


class MuRational:
    """Exact rational function of mu in the one shape the certificate
    builds: a Laurent numerator over 1, or over a polynomial with constant
    term 1 and no negative power. The pair is kept as given, with no gcd
    and no rescaling, so equal values may be stored as different pairs;
    equality cross-multiplies. Any other denominator is refused."""

    __slots__ = ("num", "den")

    def __init__(self, num: Laurent, den: Laurent = ONE):
        if den is not ONE and (den.coeffs.get(0) != 1 or
                               min(den.coeffs) < 0):
            raise QgharmError(f"denominator {den!r} is not a polynomial in "
                              "mu with constant term 1")
        self.num, self.den = num, (ONE if num.is_zero() else den)

    @staticmethod
    def from_laurent(p: Laurent) -> "MuRational":
        return MuRational(p, ONE)

    @staticmethod
    def const(value) -> "MuRational":
        return MuRational(Laurent.const(value), ONE)

    def __add__(self, other: "MuRational") -> "MuRational":
        return MuRational(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __mul__(self, other) -> "MuRational":
        if isinstance(other, Laurent):
            return MuRational(self.num * other, self.den)
        return MuRational(self.num * other.num, self.den * other.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, Laurent):
            other = MuRational.from_laurent(other)
        if not isinstance(other, MuRational):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __repr__(self) -> str:
        if self.den == ONE:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


_MU_ONE = MuRational(ONE)   # every generator's coefficient


# ---------------------------------------------------------------------------
# words and normal form
# ---------------------------------------------------------------------------

class Monomial(NamedTuple):
    """Normal-form basis word a^k c*^m c^n (a*^{-k} when k < 0)."""
    k: int
    m: int
    n: int

    def word(self) -> Tuple[str, ...]:
        a_part = ("a",) * self.k if self.k >= 0 else ("A",) * (-self.k)
        return a_part + ("C",) * self.m + ("c",) * self.n

    def __repr__(self) -> str:
        return f"a[{self.k},{self.m},{self.n}]"


UNIT_MONOMIAL = Monomial(0, 0, 0)

def _times_letter(mono: Monomial, letter: str):
    """mono * letter in normal form, as at most two (monomial, mu power,
    sign) terms. Moving a or a* left past c*^m c^n costs mu^-(m+n) or
    mu^(m+n) (ac = mu ca, ac* = mu c* a and their adjoints); a*a = 1 - c*c
    and aa* = 1 - mu^2 c*c cancel a letter against a^k of the other sign;
    cc* = c*c."""
    k, m, n = mono
    if letter == "c":
        return ((Monomial(k, m, n + 1), 0, 1),)
    if letter == "C":
        return ((Monomial(k, m + 1, n), 0, 1),)
    if letter == "a":
        e = -(m + n)
        if k >= 0:
            return ((Monomial(k + 1, m, n), e, 1),)
        return ((Monomial(k + 1, m, n), e, 1),
                (Monomial(k + 1, m + 1, n + 1), e, -1))
    e = m + n
    if k <= 0:
        return ((Monomial(k - 1, m, n), e, 1),)
    return ((Monomial(k - 1, m, n), e, 1),
            (Monomial(k - 1, m + 1, n + 1), e + 2, -1))


def _accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    cur = out.get(key)
    total = value if cur is None else cur + value
    if total.is_zero():
        out.pop(key, None)
    else:
        out[key] = total


def _add_powers(out: Dict[int, int], powers: Dict[int, int], shift: int,
                sign: int) -> Dict[int, int]:
    """out += sign * mu^shift * powers; returns out."""
    for e, s in powers.items():
        e += shift
        out[e] = out.get(e, 0) + sign * s
    return out


def _fold(counts: dict, word: Iterable[str]) -> dict:
    """counts times the letters of word in turn. Counts map each monomial
    (or pair of them) to its powers, {mu power: signed int count}; a letter
    product only shifts a monomial's powers and flips their signs, so it
    costs one _times_letter per monomial, whatever its number of powers."""
    for letter in word:
        nxt: Dict[Monomial, Dict[int, int]] = {}
        for mono, powers in counts.items():
            for mono2, de, ds in _times_letter(mono, letter):
                _add_powers(nxt.setdefault(mono2, {}), powers, de, ds)
        counts = nxt
    return counts


def _add_counts(out: dict, counts: dict, coeff: MuRational) -> None:
    """out[key] += coeff * (sum over e of powers[e] mu^e), per key."""
    for key, powers in counts.items():
        _accumulate(out, key, coeff * _settled(powers))


class PolyElement:
    """Exact linear combination of normal-form monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, MuRational] = None):
        clean = {}
        for mono, coeff in (terms or {}).items():
            if isinstance(coeff, Laurent):
                coeff = MuRational.from_laurent(coeff)
            elif not isinstance(coeff, MuRational):
                coeff = MuRational.const(coeff)
            if not coeff.is_zero():
                clean[mono] = coeff
        self.terms = clean

    @staticmethod
    def generator(letter: str, power: int = 1) -> "PolyElement":
        if letter not in LETTERS:
            raise QgharmError(f"unknown letter {letter!r}")
        if not isinstance(power, int) or power < 0:
            raise QgharmError(f"power must be an int >= 0, got {power!r}")
        k, m, n = LETTERS[letter]
        mono = Monomial(power * k, power * m, power * n)
        return PolyElement({mono: _MU_ONE})   # one monomial

    def __add__(self, other: "PolyElement") -> "PolyElement":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _accumulate(out, mono, coeff)
        return PolyElement(out)

    def __mul__(self, other) -> "PolyElement":
        if isinstance(other, (int, Fraction, Laurent, MuRational)):
            return self.scaled(other)
        out: Dict[Monomial, MuRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                # m1 is in normal form already: only m2's letters are folded
                _add_counts(out, _fold({m1: {0: 1}}, m2.word()), c1 * c2)
        return PolyElement(out)

    def scaled(self, value) -> "PolyElement":
        if isinstance(value, Laurent):
            value = MuRational.from_laurent(value)
        elif not isinstance(value, MuRational):
            value = MuRational.const(value)
        return PolyElement({m: c * value for m, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyElement) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [f"({coeff!r})*{mono!r}"
                 for mono, coeff in sorted(self.terms.items())]
        return " + ".join(parts)


def normalize(word: Iterable[str]) -> PolyElement:
    """Normal form of a word over {a, A, c, C} as a PolyElement."""
    word = tuple(word)
    for letter in word:
        if letter not in LETTERS:
            raise QgharmError(f"unknown letter {letter!r}")
    counts = _fold({UNIT_MONOMIAL: {0: 1}}, word)
    return PolyElement({mono: _settled(p) for mono, p in counts.items()})


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

def _haar_diagonal(m: int) -> MuRational:
    """phi(a[0,m,m]) = (1-mu^2)/(1-mu^{2m+2}) = 1/(1 + mu^2 + ... + mu^{2m}),
    written over a denominator with constant term 1, the shape kept."""
    return MuRational(ONE, Laurent(dict.fromkeys(range(0, 2 * m + 1, 2), 1)))


def haar(x: PolyElement) -> MuRational:
    """Haar state: a[k,m,n] -> delta_{k,0} delta_{m,n} (1-mu^2)/(1-mu^{2m+2}).

    convolve_compact applies the same values to its int counts, once per
    output monomial and m."""
    total = MuRational.const(0)
    for mono, coeff in x.terms.items():
        if mono.k == 0 and mono.m == mono.n:
            total = total + coeff * _haar_diagonal(mono.m)
    return total


def counit(x: PolyElement) -> MuRational:
    """Counit: 1 on powers of a and a*, 0 on anything containing c or c*."""
    total = MuRational.const(0)
    for mono, coeff in x.terms.items():
        if mono.m == 0 and mono.n == 0:
            total = total + coeff
    return total


# T2^j T1^i in normal form as (left, right, mu power, sign), where Delta(g)
# = T1 + T2 with T1 T2 = q T2 T1: a -> a (x) a - mu c* (x) c and
# c -> c (x) a + a* (x) c, and their adjoints
_DELTA_POWER = {
    "a": lambda j, i: (Monomial(i, j, 0), Monomial(i, 0, j), j - 2 * i * j,
                       (-1) ** j),
    "c": lambda j, i: (Monomial(-j, 0, i), Monomial(i, 0, j), -i * j, 1),
    "A": lambda j, i: (Monomial(-i, 0, j), Monomial(-i, j, 0), j + 2 * i * j,
                       (-1) ** j),
    "C": lambda j, i: (Monomial(j, i, 0), Monomial(-i, j, 0), i * j, 1),
}


def _gaussian_row(p: int) -> list:
    """The Gaussian binomials [p choose j]_q, j = 0..p, each a dense row of
    int counts per power of q, by Pascal's rule [i, j] = [i-1, j-1] +
    q^j [i-1, j], of which the shifted term is the longer row. As
    [i, j] = [i, i-j], only j <= i/2 is summed."""
    row = [[1]]
    for i in range(1, p + 1):
        half = [[1]]
        for j in range(1, i // 2 + 1):
            low, high = row[j - 1], [0] * j + row[j]
            high[:len(low)] = map(operator.add, low, high)
            half.append(high)
        row = half + half[(i - 1) // 2::-1]
    return row


def _power_counts(g: str, p: int) -> dict:
    """Delta(g^p) = sum_j [p choose j]_q T2^j T1^{p-j} (q-binomial theorem),
    as counts per pair, q = mu^2 for a and c and mu^-2 for a* and c*."""
    q = 2 if g in "ac" else -2
    legs = map(_DELTA_POWER[g], range(p + 1), range(p, -1, -1))
    return {(lm, rm): {de + q * t: ds * s for t, s in enumerate(counts)}
            for (lm, rm, de, ds), counts in zip(legs, _gaussian_row(p))}


def _times_pairs(partial: dict, factor: dict) -> dict:
    """The product of two sums of pair counts, leg by leg."""
    out: Dict[Tuple[Monomial, Monomial], Dict[int, int]] = {}
    for (l1, r1), p1 in partial.items():
        for (l2, r2), p2 in factor.items():
            right = _fold({r1: p2}, r2.word())
            for lm, lp in _fold({l1: p1}, l2.word()).items():
                for rm, rp in right.items():
                    for e, s in rp.items():
                        _add_powers(out.setdefault((lm, rm), {}), lp, e, s)
    return out


def comultiply(x: PolyElement) -> Dict[Tuple[Monomial, Monomial], MuRational]:
    """Comultiplication as a dictionary over pairs of normal-form monomials.

    Delta(g^p) of a generator is p + 1 pairs in closed form (_power_counts).
    A monomial a^k c*^m c^n multiplies at most three such sums, c^0 being
    the unit pair, and c^k makes no letter product. Each output pair gets
    one Laurent coefficient from its counts, times x's.
    """
    out: Dict[Tuple[Monomial, Monomial], MuRational] = {}
    for mono, coeff in x.terms.items():
        sums = [_power_counts(g, p) for g, p in (
            ("a" if mono.k >= 0 else "A", abs(mono.k)), ("C", mono.m)) if p]
        sums.append(_power_counts("c", mono.n))
        _add_counts(out, functools.reduce(_times_pairs, sums), coeff)
    return out


# S and S^{-1} of each letter as (letter, mu power, sign); both reverse
# products: S(c) = -mu c, S(c*) = -mu^{-1} c*, and S^{-1} is S with mu
# replaced by 1/mu
_ANTIPODE = {"a": ("A", 0, 1), "A": ("a", 0, 1),
             "c": ("c", 1, -1), "C": ("C", -1, -1)}
_ANTIPODE_INV = {k: (image, -e, s) for k, (image, e, s) in _ANTIPODE.items()}


def _antimultiplicative_counts(mono: Monomial, table) -> dict:
    """The image of mono, as counts, under the antimultiplicative map that
    sends each letter to table's signed power of mu times a letter."""
    word, e, s = [], 0, 1
    for letter in reversed(mono.word()):
        image, de, ds = table[letter]
        word.append(image)
        e, s = e + de, s * ds
    return _fold({UNIT_MONOMIAL: {e: s}}, word)


def _apply_antimultiplicative(x: PolyElement, table) -> PolyElement:
    out: Dict[Monomial, MuRational] = {}
    for mono, coeff in x.terms.items():
        _add_counts(out, _antimultiplicative_counts(mono, table), coeff)
    return PolyElement(out)


def antipode(x: PolyElement) -> PolyElement:
    """S: a -> a*, a* -> a, c -> -mu c, c* -> -mu^{-1} c*, antimultiplicative."""
    return _apply_antimultiplicative(x, _ANTIPODE)


def convolve_compact(x: PolyElement, y: PolyElement) -> PolyElement:
    """x * y = ((x phi) S^{-1} (x) id) Delta(y), with (x phi)(z) = phi(z x).

    phi vanishes off degree (0, 0), and S^{-1} negates the a-degree and
    keeps the c-degree, so a pair (l, r) of Delta(y) and a monomial of x
    are skipped unless their degrees cancel. Otherwise S^{-1}(l), once per
    pair, and the letters of x's monomial are folded into int counts, and
    phi reads their diagonal monomials a[0,m,m]. Those Laurent terms are
    summed per (r, m) with the pair's and x's coefficients, and one
    rational per (r, m) is made at the end: phi(a[0,m,m]) times the sum.
    """
    sums: Dict[Tuple[Monomial, int], MuRational] = {}
    for (lm, rm), coeff in comultiply(y).items():
        s_inv = None
        for xm, xc in x.terms.items():
            if xm.k != lm.k or (xm.n - xm.m) + (lm.n - lm.m) != 0:
                continue
            s_inv = s_inv or _antimultiplicative_counts(lm, _ANTIPODE_INV)
            scale = coeff * xc
            for mono, powers in _fold(s_inv, xm.word()).items():
                if mono.k == 0 and mono.m == mono.n:
                    _accumulate(sums, (rm, mono.m), scale * _settled(powers))
    out: Dict[Monomial, MuRational] = {}
    for (rm, m), total in sums.items():
        _accumulate(out, rm, total * _haar_diagonal(m))
    return PolyElement(out)


# ---------------------------------------------------------------------------
# the unbounded-ratio certificate
# ---------------------------------------------------------------------------

# the float range, exact, so that no bound converts it per call
_FLOAT_MAX = Fraction(sys.float_info.max)


def certified_bound(n: int, mu: Fraction) -> Fraction:
    """L(n, mu) = mu^{-2n} (1 - mu^{2n+2}) / (1 - mu^{4n+2}), exact.

    With mu = p/q, L = q^{4n} (q^{2n+2} - p^{2n+2}) over
    p^{2n} (q^{4n+2} - p^{4n+2}): one Fraction of two ints."""
    mu = Fraction(mu)
    if not isinstance(n, int) or n < 1 or n > 4:
        raise QgharmError("n must be an integer in [1, 4]")
    p, q = mu.numerator, mu.denominator   # q > 0
    if not 0 < abs(p) < q:
        raise QgharmError("mu must satisfy 0 < |mu| < 1")
    return Fraction(q ** (4 * n) * (q ** (2 * n + 2) - p ** (2 * n + 2)),
                    p ** (2 * n) * (q ** (4 * n + 2) - p ** (4 * n + 2)))


def counterexample_report(n: int, mu) -> Check:
    """Exact certificate that convolution is unbounded from L^1 x L^inf.

    Computes c*^{2n} * c^{2n} symbolically, asserts it equals
    (-1/mu)^{2n} phi(c^{2n} c*^{2n}) a^{2n} exactly, and evaluates the
    certified lower bound L(n, mu) for the ratio ||x*y|| / (||x||_1 ||y||),
    using ||a^{2n}|| = 1 and ||c|| <= 1. L grows like mu^{-2n}, so the
    supremum of the ratio is infinite.

    The check has no residuals, since the identity is exact, and lhs is L
    as a float; details hold n, mu, the exact bound, the convolution and
    the expected element.
    """
    bound = certified_bound(n, mu)
    mu = Fraction(mu)
    if bound > _FLOAT_MAX:
        raise QgharmError(f"the certified bound at n = {n}, mu = {mu} is "
                          "above the float range")

    x = PolyElement.generator("C", 2 * n)
    y = PolyElement.generator("c", 2 * n)
    conv = convolve_compact(x, y)

    phi_val = _haar_diagonal(2 * n)   # phi(c^{2n} c*^{2n}), cc* = c*c
    sign_scale = MuRational.from_laurent(Laurent.mu_power(-2 * n))
    expected = PolyElement.generator("a", 2 * n).scaled(sign_scale * phi_val)

    if conv != expected:
        raise AxiomFailure(
            "symbolic convolution identity failed: "
            f"got {conv!r}, expected {expected!r}",
            claim="exact-lower-bound")

    return Check("convolution-unbounded-certificate", "exact-lower-bound",
                 {}, None, holds=True, lhs=float(bound),
                 details={"n": n, "mu": mu, "bound": bound,
                          "convolution": conv, "expected": expected})
