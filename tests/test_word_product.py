##
## the elementary-update product kernel behind eval_word, checked against
## a naive full 2x2 product that this file writes out as its own oracle
##

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2factor.errors import VerificationError
from sl2factor.exact_algebra import EC_ONE, EC_ZERO, ExactComplex, MultiPoly
from sl2factor.word_core import (LOWER, UPPER, ElementaryFactor, Word,
                                 eval_word, middle_Q, word_inverse)

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
