##
## elementary words, SL2 products, middle polynomial recursion
##

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2factor.errors import PreconditionError, VerificationError
from sl2factor.exact_algebra import ExactComplex, MultiPoly
from sl2factor.word_core import (
    LOWER, UPPER, ElementaryFactor, PhiTemplate, SL2, Word, eval_word,
    expand_phi, factor_to_json, in_singular_set, middle_Q, middle_Q_brute,
    negligible, on_level, replay, sl2_from_json, sl2_to_json,
    word_from_json, word_inverse, word_to_json)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 8))
exacts = st.builds(ExactComplex, fractions, fractions)


def test_elementary_shapes():
    g = ExactComplex(5)
    low = SL2.lower(g)
    up = SL2.upper(g)
    assert (low.a, low.b, low.c, low.d) == (ExactComplex(1), ExactComplex(0),
                                            g, ExactComplex(1))
    assert (up.a, up.b, up.c, up.d) == (ExactComplex(1), g, ExactComplex(0),
                                        ExactComplex(1))


def test_det_gate():
    SL2(2, 3, 1, 2)  # det 1
    # an exact det != 1 is bad input, not a failed computation
    with pytest.raises(PreconditionError, match="determinant is not 1$"):
        SL2(2, 0, 0, 2)
    with pytest.raises(VerificationError):
        SL2(1.0, 0.5, 0.0, 1.001)


def test_det_gate_refuses_non_finite_approximate_entries():
    from sl2factor.factorizer import cohn_eval
    # inf, nan, or entries whose products overflow: bad input (exit 2)
    for make in (lambda: SL2(float("inf"), 0, 0, 1),
                 lambda: SL2(float("nan"), 0, 0, 1),
                 lambda: cohn_eval(1e200, 1e200)):
        with pytest.raises(PreconditionError, match="not finite"):
            make()
    # a finite det-4 matrix is still a failed check, not bad input
    with pytest.raises(VerificationError, match="numeric instability"):
        SL2(2.0, 0.0, 0.0, 2.0)
    # an mpmath value past the double range is finite
    import mpmath
    big = mpmath.mpf("1e400")
    assert SL2(big, 0, 0, 1 / big).a == big


def test_matmul_and_inverse():
    m = SL2(2, 3, 1, 2)
    assert m @ m.inverse() == SL2.identity()
    assert m.inverse() @ m == SL2.identity()
    assert m.det() == ExactComplex(1)


@given(st.lists(exacts, min_size=1, max_size=7))
@settings(max_examples=50)
def test_word_products_are_unimodular(entries):
    word = Word(ElementaryFactor(LOWER if i % 2 == 0 else UPPER, e)
                for i, e in enumerate(entries))
    m = eval_word(word)
    assert m.det() == ExactComplex(1)
    assert m @ eval_word(word_inverse(word)) == SL2.identity()


def test_word_alternating_flag():
    w = Word.of((LOWER, 1), (UPPER, 2), (LOWER, 3))
    assert w.is_alternating
    assert not Word.of((LOWER, 1), (LOWER, 2)).is_alternating


def test_phi_template_sides():
    t = PhiTemplate(5)
    assert [t.side_of(j) for j in range(1, 6)] == [LOWER, UPPER, LOWER,
                                                   UPPER, LOWER]


def test_phi_word_at_matches_manual():
    t = PhiTemplate(4)
    vals = tuple(ExactComplex(v) for v in (2, -1, 3, 5))
    manual = (SL2.lower(vals[0]) @ SL2.upper(vals[1])
              @ SL2.lower(vals[2]) @ SL2.upper(vals[3]))
    assert eval_word(t.word_at(vals)) == manual


def test_expand_phi_symbolic_entries():
    m = expand_phi(PhiTemplate(3))
    # b entry of L(z1) U(z2) L(z3) is z2
    assert m.b == MultiPoly.variable(3, 1)
    point = (ExactComplex(1), ExactComplex(2), ExactComplex(3))
    direct = eval_word(PhiTemplate(3).word_at(point))
    assert m.a.eval(point) == direct.a
    assert m.d.eval(point) == direct.d


_FIBONACCI = {0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}


def _continuant_terms(built, oracle):
    """The builder's entries equal the oracle's, term order included; each
    coefficient is 1 and each term count a Fibonacci number."""
    for p, q in zip(built, oracle):
        assert list(p.terms.items()) == list(q.terms.items())
        assert all(c == 1 for c in p.terms.values())
        assert len(p.terms) in _FIBONACCI


@pytest.mark.parametrize("n", range(3, 15))
def test_middle_recursion_vs_brute(n):
    assert list(middle_Q(n)) == list(middle_Q_brute(n))
    _continuant_terms(middle_Q(n), middle_Q_brute(n))


@pytest.mark.parametrize("n", range(1, 13))
def test_expand_phi_vs_eval_word(n):
    t = PhiTemplate(n)
    _continuant_terms(expand_phi(t).entries,
                      eval_word(t.word_symbolic()).entries)


@pytest.mark.parametrize("n", range(3, 9))
def test_middle_unimodular(n):
    q1, q2, q3, q4 = middle_Q(n)
    assert q1 * q4 - q2 * q3 == MultiPoly.one(n - 2)


def test_middle_known_values():
    q1, q2, q3, q4 = middle_Q(4)
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    assert q1 == MultiPoly.one(2) + x * y
    assert q2 == x
    assert q3 == y
    assert q4 == MultiPoly.one(2)


def test_boundary_expansion_identity():
    # Phi_N entries in terms of the middle polynomials, even length
    n = 6
    q1, q2, q3, q4 = middle_Q(n)
    full = expand_phi(PhiTemplate(n))
    from sl2factor.exact_algebra import poly_embed
    e = [poly_embed(q, n, offset=1) for q in (q1, q2, q3, q4)]
    z1 = MultiPoly.variable(n, 0)
    zn = MultiPoly.variable(n, n - 1)
    assert full.a == e[0]
    assert full.b == e[1] + e[0] * zn
    assert full.c == e[2] + e[0] * z1
    assert full.d == e[3] + e[1] * z1 + e[2] * zn + e[0] * z1 * zn


def test_in_singular_set():
    assert in_singular_set((5, 0, 0, 7), 4)
    assert not in_singular_set((5, 1, 0, 7), 4)
    assert in_singular_set((ExactComplex(0),) * 4, 4)
    with pytest.raises(PreconditionError):
        in_singular_set((1, 2, 3), 4)


def test_sl2_refuses_deletion():
    m = SL2(2, 3, 1, 2)
    for name in "abcd":
        with pytest.raises(AttributeError, match="immutable"):
            delattr(m, name)
    assert m.entries == (ExactComplex(2), ExactComplex(3), ExactComplex(1),
                         ExactComplex(2))


def test_sl2_json_roundtrip():
    m = SL2(ExactComplex(Fraction(1, 2)), ExactComplex(0, Fraction(3, 4)),
            ExactComplex(Fraction(-4, 3), Fraction(2, 3)),
            (ExactComplex(1) + ExactComplex(0, Fraction(3, 4))
             * ExactComplex(Fraction(-4, 3), Fraction(2, 3)))
            / ExactComplex(Fraction(1, 2)))
    assert sl2_from_json(sl2_to_json(m)) == m


def test_word_json_roundtrip():
    w = Word.of((LOWER, ExactComplex(2)), (UPPER, ExactComplex(Fraction(1, 3))))
    assert word_from_json(word_to_json(w)) == w
    sym = Word.of((LOWER, MultiPoly.variable(2, 0)),
                  (UPPER, MultiPoly.variable(2, 1)))
    assert word_from_json(word_to_json(sym)) == sym


def test_replay_polynomial_products():
    # polynomial words are replayed literally, as exact ones are
    x = MultiPoly.variable(1, 0)
    m = eval_word(Word.of((LOWER, x), (UPPER, ExactComplex(2))))
    padded = Word.of((LOWER, x + 1), (UPPER, ExactComplex(0)),
                     (LOWER, ExactComplex(-1)), (UPPER, ExactComplex(2)))
    assert replay(padded, m) == 0
    other = Word.of((LOWER, x), (UPPER, ExactComplex(3)))
    with pytest.raises(VerificationError, match="does not reproduce"):
        replay(other, m)


def test_replay_of_the_empty_word():
    assert replay(Word(()), SL2.identity()) == 0
    with pytest.raises(VerificationError, match="does not reproduce"):
        replay(Word(()), SL2.upper(ExactComplex(Fraction(1, 10 ** 10))))


def test_exact_replay_compares_unreduced_numerators():
    # L(1/D) U(0) L(-1/D) is the identity, but its numerators run over the
    # common denominator D^2, so numerators and denominator share D^2
    big = 10 ** 10
    word = Word.of((LOWER, ExactComplex(Fraction(1, big))),
                   (UPPER, ExactComplex(0)),
                   (LOWER, ExactComplex(Fraction(-1, big))))
    assert replay(word, SL2.identity()) == 0
    # U(1/D) L(D + i) U(1/D), against its product and against a matrix of
    # det 1 whose b is moved by i/D^2
    word = Word.of((UPPER, ExactComplex(Fraction(1, big))),
                   (LOWER, ExactComplex(big, 1)),
                   (UPPER, ExactComplex(Fraction(1, big))))
    m = eval_word(word)
    assert replay(word, m) == 0
    eps = ExactComplex(0, Fraction(1, big * big))
    off = SL2(m.a, m.b + eps, m.c, m.d + eps * m.c / m.a)
    with pytest.raises(VerificationError, match="does not reproduce"):
        replay(word, off)


def test_exact_word_against_approximate_target_takes_the_residual():
    word = Word.of((LOWER, ExactComplex(2)), (UPPER, ExactComplex(1, 1)))
    m = eval_word(word)
    approx = SL2(*map(complex, m.entries))
    residual = replay(word, approx)
    assert type(residual) is float and residual == 0.0
    nudged = SL2(approx.a, approx.b + 1e-6, approx.c, approx.d + 2e-6)
    with pytest.raises(VerificationError, match="residual"):
        replay(word, nudged)


def test_polynomial_word_against_exact_target_is_literal():
    # a polynomial word is compared as polynomials, even where its product
    # is constant and the target exact
    x = MultiPoly.variable(1, 0)
    assert replay(Word.of((LOWER, x), (LOWER, -x)), SL2.identity()) == 0
    assert replay(Word.of((LOWER, x), (LOWER, 1 - x)),
                  SL2.lower(ExactComplex(1))) == 0
    with pytest.raises(VerificationError, match="does not reproduce"):
        replay(Word.of((LOWER, x), (LOWER, 1 - x)), SL2.identity())


def test_exact_replay_and_det_check_reduce_nothing(monkeypatch):
    from sl2factor import scalars, word_core
    word = Word.of((UPPER, ExactComplex(Fraction(1, 7), 3)),
                   (LOWER, ExactComplex(Fraction(2, 9))),
                   (UPPER, ExactComplex(-5, Fraction(1, 11))))
    m = eval_word(word)
    calls = []

    def counting(p, q, d, reduced=scalars._reduced):
        calls.append((p, q, d))
        return reduced(p, q, d)

    monkeypatch.setattr(scalars, "_reduced", counting)
    monkeypatch.setattr(word_core, "_reduced", counting)
    assert replay(word, m) == 0
    assert SL2(*m.entries) == m
    assert calls == []
    # the counter does count: a product reduces each entry once
    eval_word(word)
    assert len(calls) == 4


def test_negligible_is_literal_or_relative():
    assert negligible(ExactComplex(0))
    assert not negligible(ExactComplex(Fraction(1, 10 ** 30)))
    assert negligible(MultiPoly.zero(2)) and not negligible(MultiPoly.one(2))
    assert negligible(5e-11) and not negligible(5e-10)
    # the bound grows with the values compared, and never shrinks below 1
    assert negligible(5e-4 + 1e-4j, 1e7) and not negligible(5e-3, 1e7)
    assert negligible(5e-4, 2.0, -1e7j) and not negligible(5e-4, 2.0, 1e6)
    assert not negligible(5e-10, 1e-3)


def test_exact_level_test_reduces_nothing(monkeypatch):
    # 10-digit Gaussian rationals: == compares the canonical triples, where
    # the difference would take a gcd
    from sl2factor import scalars
    level = ExactComplex(Fraction(12345678901, 7), Fraction(-2718281828,
                                                            3141592653))
    same = ExactComplex(Fraction(24691357802, 14), level.im)
    near = level + ExactComplex(Fraction(1, 10 ** 10))
    calls = []

    def counting(p, q, d, reduced=scalars._reduced):
        calls.append((p, q, d))
        return reduced(p, q, d)

    monkeypatch.setattr(scalars, "_reduced", counting)
    assert on_level(same, level) and not on_level(near, level)
    assert calls == []
    # the counter does count: a difference reduces once
    assert negligible(same - level, level)
    assert len(calls) == 1


def test_on_level_is_literal_or_relative():
    x = MultiPoly.variable(2, 0)
    assert on_level(x + 1, 1 + x) and not on_level(x, x + 1)
    assert on_level(ExactComplex(3), 3) and not on_level(ExactComplex(3), 4)
    # approximate values keep negligible's rule: within 1e-10 max(1, |level|)
    assert on_level(1 + 5e-11, 1.0) and not on_level(1 + 5e-10, 1.0)
    assert on_level(1e7 + 5e-4j, 1e7) and not on_level(1e7 + 5e-3, 1e7)


def test_factor_json_shape():
    f = ElementaryFactor(LOWER, ExactComplex(2))
    assert factor_to_json(f) == {"side": "L", "entry": "2"}


def test_bad_side_rejected():
    with pytest.raises(PreconditionError):
        ElementaryFactor("X", 1)


@pytest.mark.parametrize("entry", ["x", None, [1], b"1", object()],
                         ids=["str", "None", "list", "bytes", "object"])
def test_entry_of_no_scalar_kind_rejected(entry):
    # refused where the word is built, not as a bare TypeError in the first
    # product or padding that touches the entry
    with pytest.raises(PreconditionError, match="not a scalar"):
        ElementaryFactor(LOWER, entry)
    with pytest.raises(PreconditionError, match="not a scalar"):
        Word.of((UPPER, 2), (LOWER, entry))


def test_polynomial_matrix_is_exact():
    # is_exact means "replays compare literally", which polynomials do
    x = MultiPoly.variable(1, 0)
    assert eval_word(Word.of((LOWER, x), (UPPER, ExactComplex(2)))).is_exact
    assert SL2.lower(ExactComplex(2)).is_exact
    assert not SL2.lower(0.5).is_exact
