##
## the elementary-update product kernel behind eval_word, checked against
## a naive full 2x2 product that this file writes out as its own oracle
##

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mpmath

from sl2factor import word_core
from sl2factor.errors import VerificationError
from sl2factor.exact_algebra import (EC_ONE, EC_ZERO, ExactComplex, MultiPoly,
                                     poly_det_is_one)
from sl2factor.factorizer import factor_constant
from sl2factor.word_core import (DRIFT_CAP, LOWER, SL2, UPPER,
                                 ElementaryFactor, PhiTemplate, Word,
                                 eval_word, expand_phi, middle_Q,
                                 middle_Q_brute, word_inverse, word_product)

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
    monkeypatch.setattr(word_core, "poly_det_is_one", refuse)
    exact = Word.of((LOWER, Fraction(1, 3)), (UPPER, ExactComplex(2, 1)),
                    (LOWER, 5))
    assert eval_word(exact).det() == EC_ONE
    assert eval_word(Word()).entries == (EC_ONE, EC_ZERO, EC_ZERO, EC_ONE)
    assert expand_phi(PhiTemplate(7)).det() == MultiPoly.one(7)
    assert list(middle_Q_brute(8)) == list(middle_Q(8))
    for approx in (0.5, mpmath.mpf("0.5")):
        with pytest.raises(AssertionError, match="determinant checked"):
            eval_word(Word.of((LOWER, approx), (UPPER, 2)))
