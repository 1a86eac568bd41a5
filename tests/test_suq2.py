import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qgharm import suq2
from qgharm.errors import QgharmError
from qgharm.suq2 import (
    Laurent,
    Monomial,
    MuRational,
    PolyElement,
    antipode,
    certified_bound,
    comultiply,
    convolve_compact,
    counit,
    counterexample_report,
    haar,
    normalize,
)
from reference import _calls_to

HALF = Fraction(1, 2)


def gen(letter, power=1):
    return PolyElement.generator(letter, power)


def mono(m):
    return PolyElement({m: MuRational.const(1)})


# ---------------------------------------------------------------------------
# scalar arithmetic
# ---------------------------------------------------------------------------

def test_laurent_arithmetic():
    x = Laurent.mu_power(2)            # mu^2
    y = Laurent.const(Fraction(1, 3))
    z = x * y + Laurent.mu_power(-1)
    assert z == Laurent({-1: 1, 2: Fraction(1, 3)})
    assert Laurent.const(0).is_zero()
    assert (x + Laurent.mu_power(2, -1)).is_zero()


def test_mu_rational_reduction_and_equality():
    # no reduction: (1 - mu^4) / (1 - mu^2) keeps its pair, and equals
    # 1 + mu^2 by cross-multiplication
    num = Laurent({0: 1, 4: -1})
    den = Laurent({0: 1, 2: -1})
    frac = MuRational(num, den)
    assert frac.num is num and frac.den is den
    plain = MuRational.from_laurent(Laurent({0: 1, 2: 1}))
    assert frac == plain
    assert frac != MuRational.from_laurent(Laurent({0: 1, 2: -1}))


def test_mu_rational_cross_multiplication_equality():
    a = MuRational(Laurent.mu_power(1), Laurent({0: 1, 2: 1}))
    # the same value over (1 + mu^2)^2
    b = MuRational(Laurent({1: 1, 3: 1}), Laurent({0: 1, 2: 2, 4: 1}))
    assert a == b and a * Laurent.const(2) != b
    # over mu^2 + mu^4 it would be a third pair, but that denominator is
    # refused
    with pytest.raises(QgharmError, match=_REFUSED):
        MuRational(Laurent.mu_power(3), Laurent({2: 1, 4: 1}))


_REFUSED = "^denominator .* is not a polynomial in mu with constant term 1$"


def test_a_denominator_outside_the_kept_shape_is_refused():
    # a monomial factor (mu^2 + mu^4), a constant term other than 1
    # (2 + mu), a negative power (mu^-1 + 1), and zero
    for den in (Laurent({2: 1, 4: 1}), Laurent({0: 2, 1: 1}),
                Laurent({-1: 1, 0: 1}), Laurent()):
        for num in (Laurent.mu_power(3), Laurent()):
            with pytest.raises(QgharmError, match=_REFUSED):
                MuRational(num, den)
    # sums and products of kept values keep the shape
    a = MuRational(Laurent.mu_power(-1), Laurent({0: 1, 3: Fraction(1, 2)}))
    b = MuRational(Laurent.const(2), Laurent({0: 1, 1: -1}))
    for value in (a + b, a * b, a * a + b * b):
        assert value.den.coeffs[0] == 1 and min(value.den.coeffs) == 0


def test_certificates_never_refuse(monkeypatch):
    for mu in (HALF, Fraction(8, 13), Fraction(-2, 3)):
        for n in (1, 2, 3, 4):
            assert counterexample_report(n, mu).holds, (n, mu)
    # past the cap of n, with the bound bypassed
    monkeypatch.setattr(suq2, "certified_bound", lambda n, mu: Fraction(1))
    for n in (6, 8):
        assert counterexample_report(n, HALF).holds, n


_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_nonzero_fractions = _small_fractions.filter(bool)


@st.composite
def _polynomials(draw, constant):
    """A polynomial of degree <= 4 with the given constant term."""
    tail = draw(st.lists(_small_fractions, max_size=4))
    return Laurent({0: constant, **dict(enumerate(tail, start=1))})


@seed(20261019)
@settings(database=None, max_examples=150, deadline=None)
@given(k=st.integers(-6, 6), c=_nonzero_fractions,
       den=_polynomials(1), cofactor=_polynomials(1),
       shift=st.integers(-3, 3), scale=_nonzero_fractions,
       unit_constant=st.booleans())
def test_a_monomial_over_a_unit_constant_denominator_is_canonical(
        k, c, den, cofactor, shift, scale, unit_constant):
    num = Laurent.mu_power(k, c)
    rule = MuRational(num, den)
    assert rule.num is num and rule.den is den
    # a common cofactor is not cancelled: the pair is kept as given, and
    # equality cross-multiplies
    widened = MuRational(num * cofactor, den * cofactor)
    assert widened.den.coeffs == (den * cofactor).coeffs
    assert widened == rule
    assert widened != MuRational(num * Laurent.const(2), den)
    # a denominator with a negative power, or with a constant term other
    # than 1, is refused
    moved = den * Laurent.mu_power(shift, scale)
    if unit_constant:
        moved = moved + Laurent.const(1 - moved.coeffs.get(0, 0))
    if moved.coeffs.get(0) == 1 and min(moved.coeffs) == 0:
        assert MuRational(num, moved).den is moved
    else:
        with pytest.raises(QgharmError, match=_REFUSED):
            MuRational(num, moved)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------

def test_normal_form_of_short_words():
    assert normalize("ac").terms == {Monomial(1, 0, 1): MuRational.const(1)}
    ca = normalize("ca")
    assert ca.terms == {Monomial(1, 0, 1):
                        MuRational.from_laurent(Laurent.mu_power(-1))}
    # the defining relations in both orders
    aa = normalize("Aa")
    assert aa.terms[Monomial(0, 0, 0)] == MuRational.const(1)
    assert aa.terms[Monomial(0, 1, 1)] == MuRational.const(-1)
    aA = normalize("aA")
    assert aA.terms[Monomial(0, 1, 1)] == \
        MuRational.from_laurent(Laurent.mu_power(2, -1))


def test_c_letters_commute_up_to_nothing():
    assert normalize("cC") == normalize("Cc")


def test_unknown_letter_rejected():
    with pytest.raises(QgharmError, match="^unknown letter 'x'$"):
        normalize("ax")


def test_monomial_repr():
    assert repr(Monomial(1, 0, 2)) == "a[1,0,2]"


def test_product_is_associative_on_sample_words():
    words = ["a", "A", "c", "C", "ac", "Ca"]
    for u in words:
        for v in words:
            for w in words:
                x, y, z = normalize(u), normalize(v), normalize(w)
                assert (x * y) * z == x * (y * z), (u, v, w)


# every non-normal adjacent pair and its rewrites (letters, mu exponent,
# sign): a-letters move left of c-letters by ac = mu ca, ac* = mu c* a and
# their adjoints, a*a = 1 - c*c, aa* = 1 - mu^2 c*c, and cc* = c*c
_REWRITE = {
    ("c", "a"): ((("a", "c"), -1, 1),),
    ("C", "a"): ((("a", "C"), -1, 1),),
    ("c", "A"): ((("A", "c"), 1, 1),),
    ("C", "A"): ((("A", "C"), 1, 1),),
    ("A", "a"): (((), 0, 1), (("C", "c"), 0, -1)),
    ("a", "A"): (((), 0, 1), (("C", "c"), 2, -1)),
    ("c", "C"): ((("C", "c"), 0, 1),),
}


def _reduce_word_reference(word):
    """Normal form of a word by the rewrite system above, as a dictionary of
    Laurent coefficients: the first non-normal pair is rewritten until none
    is left, each branch carrying its mu power and sign."""
    counts = {}
    stack = [(tuple(word), 0, 1)]
    while stack:
        w, e, s = stack.pop()
        for i in range(len(w) - 1):
            rule = _REWRITE.get(w[i:i + 2])
            if rule is not None:
                for sub, de, ds in rule:
                    stack.append((w[:i] + sub + w[i + 2:], e + de, s * ds))
                break
        else:
            key = Monomial(w.count("a") - w.count("A"), w.count("C"),
                           w.count("c"))
            per_power = counts.setdefault(key, {})
            per_power[e] = per_power.get(e, 0) + s
    out = {key: Laurent(per_power) for key, per_power in counts.items()}
    return {key: lc for key, lc in out.items() if not lc.is_zero()}


def test_normal_form_equals_the_rewrite_system_on_every_short_word():
    # 5461 words of length <= 6, compared exactly
    for length in range(7):
        for word in itertools.product("aAcC", repeat=length):
            terms = normalize(word).terms
            assert all(c.den == Laurent.const(1) for c in terms.values())
            got = {key: c.num for key, c in terms.items()}
            assert got == _reduce_word_reference(word), word


def test_one_letter_product_equals_the_rewrite_system():
    for k, m, n in itertools.product(range(-3, 4), range(4), range(4)):
        start = Monomial(k, m, n)
        for letter in "aAcC":
            got = {}
            for key, e, sign in suq2._times_letter(start, letter):
                assert key not in got
                got[key] = Laurent.mu_power(e, sign)
            assert got == _reduce_word_reference(start.word() + (letter,)), \
                (start, letter)


# ---------------------------------------------------------------------------
# Hopf structure
# ---------------------------------------------------------------------------

def test_haar_closed_form():
    assert haar(normalize("")) == MuRational.const(1)
    assert haar(gen("a")).is_zero()
    # haar(C^m c^m) = (1 - mu^2) / (1 - mu^{2m+2})
    got = haar(normalize("Cc"))
    expect = MuRational(Laurent.const(1), Laurent({0: 1, 2: 1}))
    assert got == expect
    assert haar(normalize("CCcc")) == \
        MuRational(Laurent({0: 1, 2: -1}), Laurent({0: 1, 6: -1}))
    # unbalanced words integrate to zero
    assert haar(normalize("Ccc")).is_zero()


def test_haar_diagonal_equals_its_closed_form():
    for m in range(17):
        closed = suq2._haar_diagonal(m)
        # 1 / (1 + mu^2 + ... + mu^{2m}), as written
        assert closed.num == Laurent.const(1), m
        assert closed.den.coeffs == dict.fromkeys(range(0, 2 * m + 1, 2), 1)
        # haar(C^m c^m) = (1 - mu^2) / (1 - mu^{2m+2}), cross-multiplied
        quotient = MuRational(Laurent({0: 1, 2: -1}),
                              Laurent({0: 1, 2 * m + 2: -1}))
        assert closed == quotient, m
        assert haar(normalize("C" * m + "c" * m)) == quotient, m


def test_counit_kills_off_diagonal_letters():
    assert counit(gen("a")) == MuRational.const(1)
    assert counit(gen("A", 3)) == MuRational.const(1)
    assert counit(gen("c")).is_zero()
    assert counit(normalize("aCc")).is_zero()


def test_antipode_on_generators():
    assert antipode(gen("a")).terms == {Monomial(-1, 0, 0): MuRational.const(1)}
    sc = antipode(gen("c"))
    assert sc.terms[Monomial(0, 0, 1)] == \
        MuRational.from_laurent(Laurent.mu_power(1, -1))
    sC = antipode(gen("C"))
    assert sC.terms[Monomial(0, 1, 0)] == \
        MuRational.from_laurent(Laurent.mu_power(-1, -1))


def antipode_inverse(x):
    """S^{-1} by the count-level table that convolve_compact folds."""
    return suq2._apply_antimultiplicative(x, suq2._ANTIPODE_INV)


def test_antipode_inverse_really_inverts():
    for word in ("a", "c", "C", "Ac", "caC"):
        x = normalize(word)
        assert antipode_inverse(antipode(x)) == x
        assert antipode(antipode_inverse(x)) == x


def test_antipode_axiom_on_generators():
    # m(S x id)Delta = eps(.) 1 = m(id x S)Delta, exactly
    for letter in ("a", "A", "c", "C"):
        x = gen(letter)
        eps = counit(x)
        left = PolyElement()
        right = PolyElement()
        for (m1, m2), coeff in comultiply(x).items():
            left = left + antipode(mono(m1)).__mul__(mono(m2)).scaled(coeff)
            right = right + mono(m1).__mul__(antipode(mono(m2))).scaled(coeff)
        target = normalize("").scaled(eps)
        assert left == target, letter
        assert right == target, letter


def test_comultiplication_is_an_algebra_map_on_samples():
    # Delta(xy) = Delta(x) Delta(y) checked through the pair expansion
    def pair_mul(d1, d2):
        out = {}
        for (a1, b1), c1 in d1.items():
            for (a2, b2), c2 in d2.items():
                left = mono(a1) * mono(a2)
                right = mono(b1) * mono(b2)
                for ma, ca in left.terms.items():
                    for mb, cb in right.terms.items():
                        key = (ma, mb)
                        add = c1 * c2 * ca * cb
                        out[key] = out[key] + add if key in out else add
        return {k: v for k, v in out.items() if not v.is_zero()}

    for u, v in (("a", "c"), ("c", "C"), ("A", "a")):
        lhs = comultiply(normalize(u + v))
        rhs = pair_mul(comultiply(normalize(u)), comultiply(normalize(v)))
        assert set(lhs) == set(rhs), (u, v)
        for key in lhs:
            assert lhs[key] == rhs[key], (u, v, key)


# Delta on the generators: a -> a (x) a - mu c* (x) c, c -> c (x) a + a* (x) c,
# and their adjoints
_DELTA_OF_LETTER = {
    "a": (("a", "a", Laurent.const(1)), ("C", "c", Laurent.mu_power(1, -1))),
    "A": (("A", "A", Laurent.const(1)), ("c", "C", Laurent.mu_power(1, -1))),
    "c": (("c", "a", Laurent.const(1)), ("A", "c", Laurent.const(1))),
    "C": (("C", "A", Laurent.const(1)), ("a", "C", Laurent.const(1))),
}


def expanded_comultiply(combination):
    """Delta of sum coeff * word by the expansion in the tensor algebra: the
    2^k word pairs of a word of length k, each side normalized at the end."""
    out = {}
    for word, coeff in combination:
        paths = [("", "", Laurent.const(1))]
        for letter in word:
            paths = [(lw + dl, rw + dr, lc * dc) for lw, rw, lc in paths
                     for dl, dr, dc in _DELTA_OF_LETTER[letter]]
        terms = {}   # Laurent sums: normal forms of words have den 1
        for lw, rw, lc in paths:
            for lm, lcf in normalize(lw).terms.items():
                for rm, rcf in normalize(rw).terms.items():
                    add = lcf.num * rcf.num * lc
                    key = (lm, rm)
                    terms[key] = terms[key] + add if key in terms else add
        for key, total in terms.items():
            add = coeff * total
            out[key] = out[key] + add if key in out else add
    return {k: v for k, v in out.items() if not v.is_zero()}


def _random_word(rng, length):
    return "".join(rng.choice("aAcC") for _ in range(length))


def _random_coefficient(rng):
    num = Laurent({e: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for e in range(rng.randint(-2, 0), rng.randint(1, 3))})
    den = Laurent({0: 1, rng.randint(1, 3): Fraction(rng.randint(1, 3), 4)})
    return MuRational(num, den)


def test_comultiply_equals_the_word_expansion():
    rng = random.Random(8)
    one = MuRational.const(1)
    for length in range(9):
        for _ in range(3):
            word = _random_word(rng, length)
            assert comultiply(normalize(word)) == \
                expanded_comultiply([(word, one)]), word
    for _ in range(6):
        combination = [(_random_word(rng, rng.randint(0, 5)),
                        _random_coefficient(rng)) for _ in range(3)]
        x = PolyElement()
        for word, coeff in combination:
            x = x + normalize(word).scaled(coeff)
        assert comultiply(x) == expanded_comultiply(combination), combination


def _q_binomial(k, j, q):
    """[k choose j] at mu^q, q = 2 or -2: prod_{i<j} (1-mu^{2(k-i)}) /
    (1-mu^{2(i+1)}), times mu^{-2j(k-j)} at q = -2, since
    [k choose j]_{1/q} = q^{-j(k-j)} [k choose j]_q."""
    out = MuRational.from_laurent(Laurent.mu_power(min(q, 0) * j * (k - j)))
    for i in range(j):
        out = out * MuRational(Laurent({0: 1, 2 * (k - i): -1}),
                               Laurent({0: 1, 2 * (i + 1): -1}))
    return out


def test_comultiply_of_generator_powers_is_the_q_binomial_sum():
    # with Delta(g) = X + Y (X first in _DELTA_OF_LETTER), XY = q YX in
    # normal form, q = mu^2 for a and c and mu^-2 for a* and c*, and
    # Delta(g^k) = sum_j [k choose j]_q Y^j X^{k-j}
    for letter, q in (("a", 2), ("c", 2), ("A", -2), ("C", -2)):
        (l1, r1, c1), (l2, r2, c2) = _DELTA_OF_LETTER[letter]
        for k in range(9):
            expected = {}
            for j in range(k + 1):
                scale = _q_binomial(k, j, q)
                for _ in range(j):
                    scale = scale * c2
                for _ in range(k - j):
                    scale = scale * c1
                left = normalize(l2 * j + l1 * (k - j))
                right = normalize(r2 * j + r1 * (k - j))
                for lm, lc in left.terms.items():
                    for rm, rc in right.terms.items():
                        expected[lm, rm] = scale * lc * rc
            assert comultiply(gen(letter, k)) == expected, (letter, k)


def test_comultiply_of_c_powers_makes_no_letter_product(monkeypatch):
    def no_letter_products(*args):
        raise AssertionError("a letter product in Delta(c^k)")
    monkeypatch.setattr(suq2, "_times_letter", no_letter_products)
    monkeypatch.setattr(suq2, "_fold", no_letter_products)
    for k in range(1, 13):
        x = PolyElement({Monomial(0, 0, k): MuRational.const(1)})
        # the k + 1 pairs a*^j c^(k-j) (x) a^(k-j) c^j, in closed form
        pairs = comultiply(x)
        assert sorted(pairs) == [
            (Monomial(-j, 0, k - j), Monomial(k - j, 0, j))
            for j in range(k, -1, -1)], k


# Delta of each letter as (left letter, right letter, mu power, sign)
_DELTA = {
    "a": (("a", "a", 0, 1), ("C", "c", 1, -1)),
    "c": (("c", "a", 0, 1), ("A", "c", 0, 1)),
    "A": (("A", "A", 0, 1), ("c", "C", 1, -1)),
    "C": (("C", "A", 0, 1), ("a", "C", 0, 1)),
}


def _comultiply_reference(x):
    """Delta with its running sum keyed by (pair, mu power), signed int
    counts per key, and one Laurent per pair built at the end."""
    out = {}
    for m, coeff in x.terms.items():
        unit = Monomial(0, 0, 0)
        partial = {((unit, unit), 0): 1}
        for letter in m.word():
            nxt = {}
            for ((lm, rm), e), s in partial.items():
                for dl, dr, de, ds in _DELTA[letter]:
                    right = suq2._times_letter(rm, dr)
                    for lm2, le, ls in suq2._times_letter(lm, dl):
                        for rm2, re, rs in right:
                            key = ((lm2, rm2), e + de + le + re)
                            nxt[key] = nxt.get(key, 0) + s * ds * ls * rs
            partial = nxt
        per_pair = {}
        for (pair, e), s in partial.items():
            per_pair.setdefault(pair, {})[e] = s
        for pair, powers in per_pair.items():
            add = coeff * Laurent(powers)
            out[pair] = out[pair] + add if pair in out else add
    return {k: v for k, v in out.items() if not v.is_zero()}


# S^{-1} of each letter as its image and a Laurent factor
_ANTIPODE_INV_OF_LETTER = {
    "a": ("A", Laurent.const(1)),
    "A": ("a", Laurent.const(1)),
    "c": ("c", Laurent.mu_power(-1, -1)),
    "C": ("C", Laurent.mu_power(1, -1)),
}


def _antipode_inverse_reference(x):
    """S^{-1} word by word: the reversed image word, normalized, times the
    product of the letter factors."""
    out = PolyElement()
    for m, coeff in x.terms.items():
        word, factor = "", Laurent.const(1)
        for letter in reversed(m.word()):
            image, c = _ANTIPODE_INV_OF_LETTER[letter]
            word, factor = word + image, factor * c
        out = out + normalize(word).scaled(coeff * factor)
    return out


def _convolve_reference(x, y):
    """x * y term by term in PolyElement arithmetic: for each pair (l, r)
    of Delta(y), phi(S^{-1}(l) x) times the pair's coefficient on r."""
    out = PolyElement()
    for (lm, rm), coeff in _comultiply_reference(y).items():
        weight = haar(_antipode_inverse_reference(mono(lm)) * x)
        if not weight.is_zero():
            out = out + PolyElement({rm: weight * coeff})
    return out


def _assert_same(got, ref):
    """Equal as values and equal in print, term for term."""
    if isinstance(got, PolyElement):
        got, ref = got.terms, ref.terms
    assert got == ref
    assert sorted(map(repr, got.items())) == sorted(map(repr, ref.items()))


def _random_element(rng):
    """A sum of up to 3 normal forms of words of length <= 3, each scaled by
    an int or by a rational function with a non-unit denominator."""
    x = PolyElement()
    for _ in range(rng.randint(1, 3)):
        coeff = (_random_coefficient(rng) if rng.random() < 0.5
                 else MuRational.const(rng.choice((-3, -1, 1, 2))))
        x = x + normalize(_random_word(rng, rng.randint(0, 3))).scaled(coeff)
    return x


def test_comultiply_and_convolution_equal_their_second_routes():
    for n in range(1, 5):
        x, y = gen("C", 2 * n), gen("c", 2 * n)
        _assert_same(comultiply(x), _comultiply_reference(x))
        _assert_same(comultiply(y), _comultiply_reference(y))
        _assert_same(convolve_compact(x, y), _convolve_reference(x, y))
        _assert_same(convolve_compact(y, x), _convolve_reference(y, x))
    rng = random.Random(20)
    reached = 0
    for _ in range(40):
        x, y = _random_element(rng), _random_element(rng)
        # values only: the routes group terms differently, and a pair is
        # kept as built, so equal values may print apart
        assert comultiply(y) == _comultiply_reference(y)
        got = convolve_compact(x, y)
        assert got == _convolve_reference(x, y)
        reached += not got.is_zero() and any(
            c.den != Laurent.const(1) for c in x.terms.values())
    # nonzero weights reached through x coefficients with a denominator
    assert reached >= 5, reached


def test_comultiply_equals_its_second_route_on_every_short_word():
    # 341 words of length <= 4, in value and in print
    for length in range(5):
        for word in itertools.product("aAcC", repeat=length):
            x = normalize(word)
            _assert_same(comultiply(x), _comultiply_reference(x))


# a[k,m,n] with a run of a or a*, a run of c* and a run of c
_mixed_monomials = st.builds(Monomial, st.integers(-2, 2), st.integers(0, 2),
                             st.integers(0, 2))


@st.composite
def _mixed_coefficients(draw):
    """A Laurent numerator over 1 or over 1 + r mu^d, r a proper fraction."""
    powers = draw(st.sets(st.integers(-2, 2), min_size=1, max_size=2))
    num = Laurent({e: draw(_nonzero_fractions) for e in powers})
    if draw(st.booleans()):
        return MuRational(num)
    r = draw(st.sampled_from((Fraction(1, 2), Fraction(-1, 3),
                              Fraction(3, 4))))
    return MuRational(num, Laurent({0: 1, draw(st.integers(1, 3)): r}))


_mixed_elements = st.dictionaries(_mixed_monomials, _mixed_coefficients(),
                                  min_size=1, max_size=3).map(PolyElement)


@seed(20261020)
@settings(database=None, max_examples=60, deadline=None)
@given(x=_mixed_elements, y=_mixed_elements)
def test_closed_forms_equal_their_second_routes_on_mixed_monomials(x, y):
    # products of the q-binomial sums of a^k or a*^k, c*^m and c^n, and the
    # degree filter on pairs whose left leg has a- and c-degree
    assert comultiply(y) == _comultiply_reference(y)
    assert convolve_compact(x, y) == _convolve_reference(x, y)


def test_the_certificate_forms_one_antipode_image(monkeypatch):
    calls = []
    counts = suq2._antimultiplicative_counts

    def counted(mono, table):
        calls.append(mono)
        return counts(mono, table)
    monkeypatch.setattr(suq2, "_antimultiplicative_counts", counted)
    for n in range(1, 5):
        calls.clear()
        assert counterexample_report(n, HALF).holds, n
        # of the 2n + 1 pairs a*^j c^(2n-j) (x) a^(2n-j) c^j, only j = 0
        # has a left leg whose degree cancels that of c*^{2n}
        assert calls == [Monomial(0, 0, 2 * n)], n


def test_haar_invariance_on_sample_words():
    # (id x haar)Delta(x) = haar(x) 1
    for word in ("a", "Cc", "aCc", "CCcc"):
        x = normalize(word)
        total = PolyElement()
        for (m1, m2), coeff in comultiply(x).items():
            h2 = haar(mono(m2))
            total = total + mono(m1).scaled(coeff * h2)
        assert total == normalize("").scaled(haar(x)), word


# ---------------------------------------------------------------------------
# convolution and the unbounded-operator certificate
# ---------------------------------------------------------------------------

def test_convolving_with_the_unit_projects_onto_the_haar_value():
    for word in ("a", "Cc", "cC"):
        y = normalize(word)
        got = convolve_compact(normalize(""), y)
        assert got == normalize("").scaled(haar(y)), word


def test_convolution_of_conjugate_generators():
    got = convolve_compact(gen("C"), gen("c"))
    coeff = got.terms[Monomial(1, 0, 0)]
    expect = MuRational(Laurent.mu_power(-1, -1), Laurent({0: 1, 2: 1}))
    assert coeff == expect
    assert convolve_compact(gen("c"), gen("c")).is_zero()


def test_certified_bound_values_at_mu_half():
    assert certified_bound(1, HALF) == Fraction(80, 21)
    assert certified_bound(2, HALF) == Fraction(5376, 341)
    assert certified_bound(3, HALF) == Fraction(348160, 5461)
    assert certified_bound(4, HALF) == Fraction(22347776, 87381)


def test_certified_bound_values_at_mu_three_quarters():
    mu = Fraction(3, 4)
    assert certified_bound(1, mu) == Fraction(6400, 4329)
    assert certified_bound(2, mu) == Fraction(31522816, 11450241)
    assert certified_bound(3, mu) == Fraction(141348044800, 27457523289)
    assert certified_bound(4, mu) == Fraction(607140871929856, 64046660148081)


def test_bounds_increase_without_limit_in_n():
    for mu in (HALF, Fraction(3, 4)):
        vals = [certified_bound(n, mu) for n in range(1, 5)]
        assert all(a < b for a, b in zip(vals, vals[1:])), mu
    assert certified_bound(2, HALF) > 10


def test_counterexample_identity_is_exact():
    start = time.monotonic()
    for mu in (HALF, Fraction(3, 4), Fraction(-2, 3)):
        for n in (1, 2, 3, 4):
            rep = counterexample_report(n, mu)
            assert rep.holds, (n, mu)
            assert rep.details["bound"] == certified_bound(n, mu)
            assert rep.details["convolution"] == rep.details["expected"]
    assert time.monotonic() - start < 30.0


def test_bad_parameters_are_rejected():
    n_range = r"^n must be an integer in \[1, 4\]$"
    mu_range = r"^mu must satisfy 0 < \|mu\| < 1$"
    with pytest.raises(QgharmError, match=n_range):
        certified_bound(0, HALF)
    with pytest.raises(QgharmError, match=n_range):
        certified_bound(5, HALF)
    with pytest.raises(QgharmError, match=mu_range):
        certified_bound(1, Fraction(1))
    with pytest.raises(QgharmError, match=mu_range):
        certified_bound(1, Fraction(3, 2))
    with pytest.raises(QgharmError, match=mu_range):
        counterexample_report(2, Fraction(0))


def test_tiny_mu_is_refused_before_any_symbolic_work(monkeypatch):
    def no_letter_products(*args):
        raise AssertionError("symbolic work started")
    monkeypatch.setattr(suq2, "_times_letter", no_letter_products)
    # the bound is about |mu|^{-2n}: 10^400 here, above the float range
    for n, mu in ((1, Fraction(1, 10 ** 200)), (4, Fraction(1, 10 ** 50))):
        for sign in (1, -1):
            with pytest.raises(QgharmError, match="above the float range$"):
                counterexample_report(n, sign * mu)


def test_a_small_mu_inside_the_float_range_still_certifies():
    # |mu| = 10^-38 at n = 4 gives a bound near 10^304, inside the range
    rep = counterexample_report(4, Fraction(-1, 10 ** 38))
    assert rep.holds and rep.lhs > 1e303


def test_negative_or_fractional_generator_powers_are_refused():
    for power in (-1, -4, 1.5):
        with pytest.raises(QgharmError,
                           match=f"^power must be an int >= 0, got {power}$"):
            gen("a", power)
    assert gen("a", 0) == normalize("")


def test_a_generator_power_is_its_folded_word():
    """letter^p is written as one monomial; it equals the word folded
    letter by letter, in value and repr. Since cc* = c*c, phi(c^{2n} c*^{2n})
    is the diagonal Haar value that counterexample_report reads."""
    for letter in suq2.LETTERS:
        for p in range(9):
            got, want = gen(letter, p), normalize((letter,) * p)
            assert got == want and repr(got) == repr(want), (letter, p)
    for n in (1, 2, 3, 4):
        assert haar(gen("c", 2 * n) * gen("C", 2 * n)) == \
            suq2._haar_diagonal(2 * n), n


# ---------------------------------------------------------------------------
# integer coefficients
# ---------------------------------------------------------------------------

def test_laurent_coefficients_are_canonical():
    # an integral value is stored as an int, whatever it came in as; a
    # float converts exactly
    p = Laurent({0: Fraction(4, 2), 1: 2.0, 2: 0.25, 3: Fraction(0), 4: 0.0})
    assert p.coeffs == {0: 2, 1: 2, 2: Fraction(1, 4)}
    assert [type(v) for v in p.coeffs.values()] == [int, int, Fraction]
    assert type(Laurent.const(Fraction(6, 3)).coeffs[0]) is int
    # products and sums stay canonical
    assert type((p * Laurent.const(4)).coeffs[2]) is int
    half = Laurent.const(Fraction(1, 2))
    assert type((half * Laurent.const(Fraction(2))).coeffs[0]) is int
    assert type((half + half).coeffs[0]) is int


def test_a_unit_denominator_keeps_the_numerator():
    num = Laurent({-2: 3, 1: Fraction(1, 2)})
    frac = MuRational(num, Laurent.const(1))
    assert frac.num is num and frac.den == Laurent.const(1)


def _scalars(value):
    """Every stored coefficient of a Laurent, a MuRational, a PolyElement
    or a comultiplication dictionary."""
    if isinstance(value, Laurent):
        return list(value.coeffs.values())
    if isinstance(value, MuRational):
        return _scalars(value.num) + _scalars(value.den)
    if isinstance(value, PolyElement):
        return _scalars(value.terms)
    return [v for c in value.values() for v in _scalars(c)]


def _canonical(values):
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1)
               for v in values)


def test_every_computed_coefficient_is_an_int_or_a_proper_fraction():
    for word in ("a", "ca", "aA", "CCcc", "AacC", "cCaaC"):
        x = normalize(word)
        assert _canonical(_scalars(x)), word
        assert _canonical(_scalars(comultiply(x))), word
        assert _canonical(_scalars(haar(x))), word
    for n in (1, 2, 3, 4):
        y = gen("c", 2 * n)
        assert _canonical(_scalars(comultiply(y))), n
        assert _canonical(_scalars(haar(y * gen("C", 2 * n)))), n
        assert _canonical(_scalars(convolve_compact(gen("C", 2 * n), y))), n
        for mu in (HALF, Fraction(-2, 3), Fraction(7, 8)):
            rep = counterexample_report(n, mu)
            assert _canonical(_scalars(rep.details["convolution"]) +
                              _scalars(rep.details["expected"])), (n, mu)


def test_a_certificate_makes_few_fractions():
    # 8,055 Fraction constructions at n = 4 when every coefficient was one
    _, calls = _calls_to(Fraction.__new__,
                         lambda: counterexample_report(4, HALF))
    assert len(calls) <= 1000


# repr of c*^{2n} * c^{2n}, as printed when every coefficient was a Fraction
_CONVOLUTION_REPR = {
    1: "((1*mu^-2) / (1 + 1*mu^2 + 1*mu^4))*a[2,0,0]",
    2: "((1*mu^-4) / (1 + 1*mu^2 + 1*mu^4 + 1*mu^6 + 1*mu^8))*a[4,0,0]",
    3: "((1*mu^-6) / (1 + 1*mu^2 + 1*mu^4 + 1*mu^6 + 1*mu^8 + 1*mu^10"
       " + 1*mu^12))*a[6,0,0]",
    4: "((1*mu^-8) / (1 + 1*mu^2 + 1*mu^4 + 1*mu^6 + 1*mu^8 + 1*mu^10"
       " + 1*mu^12 + 1*mu^14 + 1*mu^16))*a[8,0,0]",
}


def test_convolution_repr_is_unchanged():
    for n, text in _CONVOLUTION_REPR.items():
        rep = counterexample_report(n, HALF)
        assert repr(rep.details["convolution"]) == text, n
