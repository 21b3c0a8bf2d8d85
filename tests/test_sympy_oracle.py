##
## The exact determinant check and the exact replay decide against
## sympy's Gaussian rationals, an oracle that shares no code with the
## library: near-misses one unit of a 10-digit denominator away from the
## truth must be refused, and the truth accepted
##

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from sl2factor.errors import PreconditionError, VerificationError
from sl2factor.scalars import ExactComplex
from sl2factor.word_core import LOWER, SL2, UPPER, Word, _sl2, replay

QQ, QQ_I = sympy.QQ, sympy.QQ_I
I = QQ_I(0, 1)
BIG = 10 ** 10


def _gauss(re_num, re_den, im_num, im_den):
    return QQ_I(QQ(re_num, re_den), QQ(im_num, im_den))


small = st.builds(_gauss, st.integers(-3, 3), st.integers(1, 4),
                  st.integers(-3, 3), st.integers(1, 4))
ten_digit = st.builds(_gauss, st.integers(-BIG + 1, BIG - 1),
                      st.integers(1, BIG - 1), st.integers(-BIG + 1, BIG - 1),
                      st.integers(1, BIG - 1))
gaussians = st.one_of(small, ten_digit)


def _exact(x) -> ExactComplex:
    return ExactComplex(Fraction(int(x.x.numerator), int(x.x.denominator)),
                        Fraction(int(x.y.numerator), int(x.y.denominator)))


@given(gaussians, gaussians, gaussians, st.integers(BIG // 10, BIG - 1),
       st.sampled_from([1, -1, I, -I, 0]))
@settings(max_examples=200, deadline=None)
def test_sl2_accepts_exactly_det_one(a, b, c, den, miss):
    assume(a)
    # d is chosen so that ad - bc = 1 + miss/den
    d = (QQ_I.one + b * c + miss * QQ_I(QQ(1, den), 0)) / a
    unimodular = a * d - b * c == QQ_I.one
    try:
        SL2(*map(_exact, (a, b, c, d)))
        accepted = True
    except PreconditionError:
        accepted = False
    assert accepted == unimodular
    assert unimodular == (miss == 0)


def _canonical(x):
    """(p, q, d) with x = (p + q i)/d, d > 0 the least common denominator."""
    d = sympy.ilcm(x.x.denominator, x.y.denominator)
    return (int(x.x.numerator * (d // x.x.denominator)),
            int(x.y.numerator * (d // x.y.denominator)), int(d))


def _times(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


@given(st.lists(gaussians, min_size=1, max_size=5), st.booleans(),
       st.integers(0, 3), st.sampled_from(["re", "im", "den"]),
       st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_replay_refuses_a_target_one_unit_off(entries, lower_first, which,
                                              part, step):
    sides = [(LOWER if (i % 2 == 0) == lower_first else UPPER)
             for i in range(len(entries))]
    one, zero = QQ_I.one, QQ_I.zero
    m = (one, zero), (zero, one)
    for side, g in zip(sides, entries):
        m = _times(m, ((one, zero), (g, one)) if side == LOWER
                   else ((one, g), (zero, one)))
    truth = [*m[0], *m[1]]
    word = Word.of(*zip(sides, map(_exact, entries)))

    p, q, d = _canonical(truth[which])
    if part == "re":
        p += step
    elif part == "im":
        q += step
    else:
        d = d + step or 2  # a denominator of 1 moves up, not to 0
    moved = list(truth)
    moved[which] = QQ_I(QQ(p, d), QQ(q, d))
    # one moved entry breaks det = 1, so the target is built unchecked
    target = _sl2(*map(_exact, moved))
    same = truth == moved
    try:
        replay(word, target)
        accepted = True
    except VerificationError:
        accepted = False
    assert accepted == same
    # the true product itself always replays
    assert replay(word, _sl2(*map(_exact, truth))) == 0
