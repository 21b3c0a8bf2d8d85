##
## the product kernels behind eval_word, the elementary updates of
## word_partials and their exact form on numerators, checked against a
## naive full 2x2 product that this file writes out as its own oracle
##

from fractions import Fraction
from itertools import chain
from math import gcd
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

import mpmath

from sl2factor import exact_algebra, word_core
from sl2factor.errors import VerificationError
from sl2factor.exact_algebra import (EC_ONE, EC_ZERO, ExactComplex, MultiPoly,
                                     poly_det_is_one)
from sl2factor.factorizer import factor_constant
from sl2factor.submersion_spray import sl2_jacobian
from sl2factor.word_core import (DRIFT_CAP, LOWER, SL2, UPPER,
                                 ElementaryFactor, PhiTemplate, Word,
                                 eval_word, expand_phi, middle_Q,
                                 middle_Q_brute, word_inverse, word_partials,
                                 word_product)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 9))
exacts = st.builds(ExactComplex, fractions, fractions)
complexes = st.complex_numbers(max_magnitude=1.5, allow_nan=False,
                               allow_infinity=False)
polys = st.builds(lambda c0, c1, i: MultiPoly.constant(2, c0)
                  + MultiPoly.constant(2, c1) * MultiPoly.variable(2, i),
                  exacts, exacts, st.integers(0, 1))
sides = st.lists(st.sampled_from([LOWER, UPPER]), min_size=1, max_size=10)


def naive_product(factors, one, zero):
    """Identity times each factor in turn, as full 2x2 matrices."""
    m = (one, zero, zero, one)
    for side, x in factors:
        f = (one, zero, x, one) if side == LOWER else (one, x, zero, one)
        a, b, c, d = m
        e, g, h, k = f
        m = (a * e + b * h, a * g + b * k, c * e + d * h, c * g + d * k)
    return m


def _word(pairs):
    return Word(ElementaryFactor(s, x) for s, x in pairs)


@settings(max_examples=60, deadline=None)
@given(sides, st.data())
def test_exact_words_equal_the_naive_product(ss, data):
    vals = data.draw(st.lists(exacts, min_size=len(ss), max_size=len(ss)))
    pairs = list(zip(ss, vals))
    m = eval_word(_word(pairs))
    assert m.entries == naive_product(pairs, EC_ONE, EC_ZERO)
    assert all(type(x) is ExactComplex for x in m.entries)


@settings(max_examples=60, deadline=None)
@given(sides, st.data())
def test_complex_words_match_the_naive_product(ss, data):
    vals = data.draw(st.lists(complexes, min_size=len(ss), max_size=len(ss)))
    pairs = list(zip(ss, vals))
    m = eval_word(_word(pairs))
    expected = naive_product(pairs, 1 + 0j, 0j)
    scale = max(1.0, *(abs(y) for y in expected))
    assert all(type(x) is complex for x in m.entries)
    assert all(abs(x - y) <= 1e-12 * scale
               for x, y in zip(m.entries, expected))


@settings(max_examples=20, deadline=None)
@given(sides, st.data())
def test_polynomial_words_equal_the_naive_product(ss, data):
    vals = data.draw(st.lists(polys, min_size=len(ss), max_size=len(ss)))
    pairs = list(zip(ss, vals))
    m = eval_word(_word(pairs))
    assert m.entries == naive_product(pairs, MultiPoly.one(2),
                                      MultiPoly.zero(2))


@pytest.mark.parametrize("first", [LOWER, UPPER])
@pytest.mark.parametrize("length", range(1, 11))
def test_alternating_words_of_each_length(first, length):
    other = UPPER if first == LOWER else LOWER
    pairs = [(first if j % 2 == 0 else other,
              ExactComplex(Fraction(j + 2, 3), j - 1)) for j in range(length)]
    assert eval_word(_word(pairs)).entries == naive_product(pairs, EC_ONE,
                                                            EC_ZERO)


def _middle_word(n, values):
    # M_2 ... M_{n-1}: upper at even positions of the full word
    return Word(ElementaryFactor(UPPER if j % 2 == 0 else LOWER, x)
                for j, x in zip(range(2, n), values))


@settings(max_examples=10, deadline=None)
@given(st.integers(3, 9), st.data())
def test_exact_middle_product_equals_recursion_at_a_point(n, data):
    point = data.draw(st.lists(exacts, min_size=n - 2, max_size=n - 2))
    m = eval_word(_middle_word(n, point))
    assert list(m.entries) == [q.eval(point) for q in middle_Q(n)]


def test_float_word_with_drifting_determinant_raises():
    # w followed by its inverse is the identity, but the float product
    # passes through entries near 1e15 and keeps only their rounding
    w = Word.of((LOWER, 12345.678), (UPPER, -98765.4321), (LOWER, 54321.5))
    ww = Word(w.factors + word_inverse(w).factors)
    with pytest.raises(VerificationError, match="determinant is not 1"):
        eval_word(ww)
    exact = Word.of((LOWER, Fraction(12345678, 1000)),
                    (UPPER, Fraction(-987654321, 10000)),
                    (LOWER, Fraction(108643, 2)))
    prod = eval_word(Word(exact.factors + word_inverse(exact).factors))
    assert prod.entries == (EC_ONE, EC_ZERO, EC_ZERO, EC_ONE)


def test_float_product_of_a_large_factorization_passes():
    # the word replays to 2.3e-17, but d's rounding of about 1e-16 times
    # a = 1e7 moves det - 1 to 2.3e-10, above 1e-10 (|ad| + |bc|) = 2e-10;
    # eval_word's bound also grows with the largest |entry|, SL2's does not
    m = eval_word(factor_constant(SL2(1e7, 0.5, 1, 1.5e-7)).word)
    assert 2e-10 < abs(m.det() - 1) < 3e-10
    with pytest.raises(VerificationError, match="determinant is not 1"):
        SL2(*m.entries)


def test_float_product_drift_above_the_cap_raises():
    # det - 1 = 2.2e-5 is below 1e-10 times a = 1e12, but above DRIFT_CAP
    f = factor_constant(SL2(1e12, 0.5, 1, 1.5e-12))
    assert f.verified
    assert DRIFT_CAP < abs(word_core._product(f.word).det() - 1) < 1e-4
    with pytest.raises(VerificationError, match="determinant is not 1"):
        eval_word(f.word)


@pytest.mark.parametrize("entries", [(1e11, 0, 0, 0), (1e10, 0, 0, 1.9e-10)])
def test_float_matrix_far_from_sl2_is_refused(entries):
    # the SL2 boundary measures det - 1 against |ad| + |bc| only, so a
    # large entry does not widen it to a singular or det-1.9 matrix
    with pytest.raises(VerificationError, match="determinant is not 1"):
        SL2(*entries)


def _scaled_pairs():
    # (a, b, c) at each scale: one row scaled by s up to 1e8, or both rows
    # by t up to 1e6 (|ad| + |bc| up to 6e12), real and complex
    for k in range(9):
        s = 10.0 ** k
        yield s, 3 * s, 1.0
        yield (1 + 2j) * s, 3 * s, 1j
    for k in range(7):
        t = 10.0 ** k
        yield 3 * t, t, 3 * t
        yield 3 * t, (1 - 1j) * t, (2 + 1j) * t


@pytest.mark.parametrize("a,b,c", list(_scaled_pairs()))
def test_float_sl2_boundary_is_scaled_to_rounding(a, b, c):
    # det 0 is refused at every scale; a det-1 matrix at the same scale,
    # its d rounded once, is accepted
    with pytest.raises(VerificationError, match="determinant is not 1"):
        SL2(a, b, c, b * c / a)
    SL2(a, b, c, (1 + b * c) / a)


# The kernel applies only unimodular updates, so eval_word does not check
# exact or polynomial products; these tests carry that guarantee instead.

@settings(max_examples=60, deadline=None)
@given(sides, st.data())
def test_exact_kernel_products_have_determinant_one(ss, data):
    vals = data.draw(st.lists(exacts, min_size=len(ss), max_size=len(ss)))
    a, b, c, d = word_product(ss, vals)
    assert a * d - b * c == EC_ONE


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 9), sides, st.data())
def test_polynomial_kernel_products_have_determinant_one(n, ss, data):
    phi = PhiTemplate(n).word_symbolic()
    vals = data.draw(st.lists(polys, min_size=len(ss), max_size=len(ss)))
    for sides_, vals_, nvars in [([f.side for f in phi],
                                  [f.entry for f in phi], n),
                                 (ss, vals, 2)]:
        a, b, c, d = word_product(sides_, vals_)
        assert poly_det_is_one(a, b, c, d)
        assert a * d - b * c == MultiPoly.one(nvars)


def test_eval_word_checks_only_approximate_products(monkeypatch):
    def refuse(*args):
        raise AssertionError("determinant checked")

    monkeypatch.setattr(word_core, "_check_det", refuse)
    # nor the polynomial check that expand and criterion 1 call
    monkeypatch.setattr(exact_algebra, "poly_det_is_one", refuse)
    exact = Word.of((LOWER, Fraction(1, 3)), (UPPER, ExactComplex(2, 1)),
                    (LOWER, 5))
    assert eval_word(exact).det() == EC_ONE
    assert eval_word(Word()).entries == (EC_ONE, EC_ZERO, EC_ZERO, EC_ONE)
    assert expand_phi(PhiTemplate(7)).det() == MultiPoly.one(7)
    assert list(middle_Q_brute(8)) == list(middle_Q(8))
    for approx in (0.5, mpmath.mpf("0.5")):
        with pytest.raises(AssertionError, match="determinant checked"):
            eval_word(Word.of((LOWER, approx), (UPPER, 2)))


# Exact products run on Gaussian-integer numerators over one denominator
# and reduce each entry once; word_partials, which reduces after every
# operation, is their oracle here, as middle_Q_brute is middle_Q's.

big_fractions = st.builds(Fraction, st.integers(-10 ** 10, 10 ** 10),
                          st.integers(1, 10 ** 10))
# small and 10-digit parts, about half of the entries real
exact_entries = st.builds(
    ExactComplex, st.one_of(fractions, big_fractions),
    st.one_of(st.just(0), st.one_of(fractions, big_fractions)))


def assert_canonical(x):
    p, q, d = x._pqd
    assert type(x) is ExactComplex
    assert d > 0 and gcd(p, q, d) == 1


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([LOWER, UPPER]),
       st.lists(exact_entries, min_size=1, max_size=40), st.booleans())
def test_exact_kernel_equals_naive_and_reduced_products(first, vals,
                                                        alternate):
    other = UPPER if first == LOWER else LOWER
    ss = [other if alternate and j % 2 else first for j in range(len(vals))]
    pairs = list(zip(ss, vals))
    expected = naive_product(pairs, EC_ONE, EC_ZERO)
    *_, last = word_partials(ss, vals)
    product = word_product(ss, vals)
    for entries in (product, eval_word(_word(pairs)).entries):
        assert tuple(entries) == expected == last
        for x in entries:
            assert_canonical(x)


def ad_columns(sides_, prefixes):
    # A e21 A^-1 and A e12 A^-1 in (e21, e12, d12) coordinates
    return [(d * d, -(b * b), b * d) if side == LOWER
            else (-(c * c), a * a, -(a * c))
            for side, (a, b, c, d) in zip(sides_, prefixes)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_exact_jacobian_columns_equal_the_ad_formula(n, data):
    point = data.draw(st.lists(exact_entries, min_size=n, max_size=n))
    t = PhiTemplate(n)
    sides_ = [t.side_of(j) for j in range(1, n + 1)]
    prefixes = chain([(EC_ONE, EC_ZERO, EC_ZERO, EC_ONE)],
                     word_partials(sides_, point))
    frame = sl2_jacobian(t, point)
    assert frame.exact
    assert list(frame.columns) == ad_columns(sides_, prefixes)
    for col in frame.columns:
        for x in col:
            assert_canonical(x)


def test_long_exact_word_multiplies_out_quickly():
    # reducing after every operation, as word_partials does, runs gcds on
    # ever larger integers and took about 48 s for this word (2 cores,
    # Python 3.11.7); one reduction per entry takes a fraction of a second
    vals = [ExactComplex(Fraction(7_368_120_943 * (-1) ** j + j,
                                  9_871_236_541 + 3 * j),
                         Fraction(1_234_567_891 - j, 4_567_891_237 + j))
            for j in range(1000)]
    t0 = perf_counter()
    m = eval_word(Word(ElementaryFactor(UPPER if j % 2 else LOWER, x)
                       for j, x in enumerate(vals)))
    assert perf_counter() - t0 < 2.0
    assert m.det() == EC_ONE
