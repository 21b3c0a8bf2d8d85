##
## scalar field and polynomial ring tests
##

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sl2factor.exact_algebra import (
    EC_I, EC_ONE, EC_ZERO, ExactComplex, MultiPoly, compile_approx,
    format_exact, is_exact_scalar, is_exact_text, parse_exact, poly_embed,
    poly_from_json, poly_to_json, scalar_from_json, scalar_to_json,
    unify_scalars)
from sl2factor.errors import PreconditionError

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
exacts = st.builds(ExactComplex, fractions, fractions)


def test_construction_and_coerce():
    assert ExactComplex(3).re == 3
    assert ExactComplex.coerce(Fraction(1, 2)) == ExactComplex(Fraction(1, 2))
    assert ExactComplex.coerce(7) == ExactComplex(7)
    x = ExactComplex(1, 2)
    assert ExactComplex.coerce(x) is x
    assert EC_ZERO.is_zero and not EC_ONE.is_zero
    assert complex(EC_I) == 1j


def test_immutable():
    with pytest.raises(AttributeError):
        ExactComplex(1).re = Fraction(2)


def test_exact_complex_refuses_deletion():
    x = ExactComplex(1, 2)
    with pytest.raises(AttributeError, match="immutable"):
        del x._pqd
    assert x == ExactComplex(1, 2) and x + 1 == ExactComplex(2, 2)


def test_poly_refuses_deletion_and_term_writes():
    p = MultiPoly(2, {(1, 0): 3, (0, 1): ExactComplex(0, 1)})
    for name in ("nvars", "terms", "_terms"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(p, name)
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = ExactComplex(0)
    with pytest.raises(AttributeError):
        p.terms.clear()
    assert p.terms == {(1, 0): ExactComplex(3), (0, 1): EC_I}
    assert (0, 0) not in p.terms and p.nvars == 2
    assert p == MultiPoly(2, {(1, 0): 3, (0, 1): EC_I})


@given(exacts, exacts, exacts)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + EC_ZERO == a
    assert a * EC_ONE == a
    assert a - a == EC_ZERO


@given(exacts, exacts)
def test_division_inverts(a, b):
    if b.is_zero:
        with pytest.raises(ZeroDivisionError):
            a / b
    else:
        assert (a / b) * b == a


@given(exacts)
def test_parse_format_roundtrip(a):
    assert parse_exact(format_exact(a)) == a


def test_parse_forms():
    assert parse_exact("5") == ExactComplex(5)
    assert parse_exact("-3/4") == ExactComplex(Fraction(-3, 4))
    assert parse_exact("1/2+5/3 i") == ExactComplex(Fraction(1, 2),
                                                    Fraction(5, 3))
    assert parse_exact("i") == EC_I
    with pytest.raises(PreconditionError):
        parse_exact("0.5")


@pytest.mark.parametrize("text", ["1/0", "-3/0", "1/0+2 i", "3+2/0 i",
                                  "-5/0 i"])
def test_parse_zero_denominator_is_a_precondition(text):
    with pytest.raises(PreconditionError):
        parse_exact(text)
    assert is_exact_text(text)


@pytest.mark.parametrize("text", ["0.5", "1e3", "2j", "1/2/3", "", "i i"])
def test_other_shapes_are_not_exact_text(text):
    assert not is_exact_text(text)


def test_zero_denominator_strings_refused():
    with pytest.raises(PreconditionError):
        ExactComplex("1/0")
    with pytest.raises(PreconditionError):
        ExactComplex(0, "2/0")
    with pytest.raises(PreconditionError):
        scalar_from_json("1/0")
    for re in ("1/0", float("inf")):
        with pytest.raises(PreconditionError):
            poly_from_json({"nvars": 1,
                            "terms": [{"exp": [1], "re": re, "im": "0"}]})


def test_powers():
    a = ExactComplex(Fraction(2, 3), Fraction(-1, 5))
    assert a ** 0 == EC_ONE
    assert a ** 3 == a * a * a
    assert a ** -2 == EC_ONE / (a * a)
    assert EC_I ** 2 == ExactComplex(-1)


def test_scalar_json():
    assert scalar_to_json(ExactComplex(Fraction(1, 2))) == "1/2"
    assert scalar_from_json("1/2") == ExactComplex(Fraction(1, 2))
    assert scalar_from_json([1.5, 0.5]) == 1.5 + 0.5j
    assert scalar_from_json(3) == ExactComplex(3)
    back = scalar_from_json(scalar_to_json(2.5 + 1j))
    assert back == 2.5 + 1j


def test_is_exact_scalar():
    assert is_exact_scalar(ExactComplex(1))
    assert is_exact_scalar(Fraction(1, 2))
    assert is_exact_scalar(4)
    assert not is_exact_scalar(0.5)
    assert not is_exact_scalar(1 + 2j)


@pytest.mark.parametrize("v", [float("nan"), float("inf"), [1e400, 0],
                               [0, float("-inf")]])
def test_scalar_json_refuses_non_finite(v):
    with pytest.raises(PreconditionError, match="non-finite"):
        scalar_from_json(v)


@pytest.mark.parametrize("v", [["x", 0], [None, 1], [10 ** 400, 0], [1],
                               {"re": 1}, ["1", "0.5"], [" 2 ", 0],
                               ["1/2", 0]])
def test_scalar_json_refuses_malformed(v):
    with pytest.raises(PreconditionError, match="not a scalar encoding"):
        scalar_from_json(v)


## one scalar kind per call

X = MultiPoly.variable(2, 0)
Y = MultiPoly.variable(2, 1)


def test_unify_scalars_priority():
    import mpmath
    half = Fraction(1, 2)
    exact = unify_scalars([ExactComplex(1), 2, half, True])
    assert exact == [ExactComplex(1), ExactComplex(2), ExactComplex(half),
                     ExactComplex(1)]
    assert {type(x) for x in exact} == {ExactComplex}
    approx = unify_scalars([ExactComplex(1, 2), 2, half, 0.25])
    assert approx == [1 + 2j, 2 + 0j, 0.5 + 0j, 0.25 + 0j]
    assert {type(x) for x in approx} == {complex}
    mp = unify_scalars([ExactComplex(1), 0.5, mpmath.mpf(2)])
    assert [type(x) for x in mp] == [mpmath.mpc, mpmath.mpc, mpmath.mpf]
    poly = unify_scalars([X, half, ExactComplex(0, 1)])
    assert poly == [X, MultiPoly.constant(2, half),
                    MultiPoly.constant(2, ExactComplex(0, 1))]
    assert unify_scalars([]) == []


def test_unify_scalars_keeps_exact_objects():
    x = ExactComplex(3, 4)
    assert unify_scalars([x])[0] is x


@pytest.mark.parametrize("vals,match", [
    (["1/2"], "not a scalar"),
    ([ExactComplex(1), None], "not a scalar"),
    ([object()], "not a scalar"),
    ([X, 0.5], "cannot mix approximate scalars with polynomials"),
    ([X, MultiPoly.variable(3, 0)], "mixed variable counts"),
])
def test_unify_scalars_refuses(vals, match):
    with pytest.raises(PreconditionError, match=match):
        unify_scalars(vals)


def test_poly_truth_and_mixed_eval():
    assert not MultiPoly.zero(2)
    assert X and MultiPoly.one(2)
    p = X * Y + 1
    # a mixed point evaluates in floats, not with a TypeError
    assert p.eval((ExactComplex(2), 0.5)) == 2 + 0j
    assert p.eval((2, Fraction(1, 2))) == ExactComplex(2)


## polynomials


def test_poly_basics():
    one = MultiPoly.one(2)
    assert (X + Y) * (X - Y) == X * X - Y * Y
    assert (X + one) ** 2 == X * X + 2 * X + one
    assert MultiPoly.zero(2).is_zero
    assert (X - X).is_zero
    assert X.total_degree() == 1
    assert ((X * Y) ** 3).total_degree() == 6


def test_poly_canonical_sorted():
    p = X * Y ** 2 + X + Y + MultiPoly.one(2)
    exps = [e for e, _ in p.sorted_terms()]
    # graded lexicographic, highest first
    assert exps == [(1, 2), (1, 0), (0, 1), (0, 0)]


def test_poly_diff():
    p = X ** 3 * Y + 2 * Y
    assert p.diff(0) == 3 * X * X * Y
    assert p.diff(1) == X ** 3 + MultiPoly.constant(2, 2)
    with pytest.raises(PreconditionError):
        p.diff(2)


def test_poly_eval_exact_and_approx():
    p = X * X + Y
    val = p.eval((ExactComplex(2), ExactComplex(Fraction(1, 2))))
    assert val == ExactComplex(Fraction(9, 2))
    approx = p.eval((2.0, 0.5))
    assert abs(approx - 4.5) < 1e-14
    fn = compile_approx(p)
    assert abs(fn((2.0, 0.5)) - 4.5) < 1e-14


@given(st.lists(st.tuples(fractions, fractions), min_size=1, max_size=5))
def test_poly_eval_matches_horner_free_sum(coeffs):
    # sum of c_k x^k evaluated exactly equals the direct sum
    p = MultiPoly.zero(1)
    x = MultiPoly.variable(1, 0)
    for k, (re, im) in enumerate(coeffs):
        p = p + MultiPoly.constant(1, ExactComplex(re, im)) * x ** k
    at = ExactComplex(Fraction(3, 7), Fraction(-1, 2))
    direct = sum((ExactComplex(re, im) * at ** k
                  for k, (re, im) in enumerate(coeffs)), EC_ZERO)
    assert p.eval((at,)) == direct


def test_poly_json_roundtrip():
    p = X * Y ** 2 - 3 * X + MultiPoly.constant(2, ExactComplex(0, 1))
    assert poly_from_json(poly_to_json(p)) == p


def test_poly_embed():
    p = X + 2 * Y
    q = poly_embed(p, 4, offset=1)
    v = [MultiPoly.variable(4, i) for i in range(4)]
    assert q == v[1] + 2 * v[2]


def test_poly_ring_ops_and_equal():
    assert (X + Y).terms == {(1, 0): EC_ONE, (0, 1): EC_ONE}
    assert (X * Y).terms == {(1, 1): EC_ONE}
    assert X - X == MultiPoly.zero(2)
    assert (X * Y).eval((2.0, 3.0)) == pytest.approx(6.0)
    # operands and points on another variable count are refused
    z = MultiPoly.variable(3, 0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(PreconditionError):
            op(X, z)
    with pytest.raises(PreconditionError):
        (X * Y).eval((2.0,))


def test_poly_var_count_mismatch_rejected():
    with pytest.raises(PreconditionError):
        X + MultiPoly.variable(3, 0)


def test_poly_to_str():
    p = X * Y + MultiPoly.one(2)
    s = p.to_str(("z2", "z3"))
    assert "z2" in s and "z3" in s


@pytest.mark.parametrize("nvars,terms", [
    (2, {(1.5, 0): 1}),         # a float exponent is not truncated
    (2, {(1.0, 0): 1}),
    (2, {("1", 0): 1}),         # nor is a string one parsed
    (2, {(True, 0): 1}),
    (2, {(1, -1): 1}),
    (2, {(1,): 1}),
    (2, {(1, 0): 0.5}),         # approximate coefficients are refused
    (2, {(1, 0): "1"}),
    (2.7, {}),                  # nvars is an int
    ("2", {}),
    (-1, {}),
])
def test_poly_constructor_refuses_bad_input(nvars, terms):
    with pytest.raises(PreconditionError):
        MultiPoly(nvars, terms)


def _term(exp, re="1"):
    return {"exp": exp, "re": re, "im": "0"}


@pytest.mark.parametrize("data", [
    {"nvars": 2, "terms": [_term([1.5, 0])]},
    {"nvars": 2, "terms": [_term(["1", 0])]},
    {"nvars": 2, "terms": [_term("10")]},
    {"nvars": 2.7, "terms": []},
    {"nvars": 2, "terms": [_term([1, 0]), _term([1, 0], "2")]},
    {"nvars": 2, "terms": [_term([1, 0]), _term([0, 1]), _term([1, 0])]},
])
def test_poly_from_json_refuses_bad_input(data):
    with pytest.raises(PreconditionError):
        poly_from_json(data)


@pytest.mark.parametrize("v", [True, False, [True, 0], [0, False]])
def test_scalar_json_refuses_booleans(v):
    # a JSON true is not the exact 1, nor false the exact 0
    with pytest.raises(PreconditionError, match="not a scalar encoding"):
        scalar_from_json(v)


@pytest.mark.parametrize("re,im", [(0.1, "0"), ("1", 0.5), (1.0, 0),
                                   ("0", True), (False, "1")])
def test_poly_from_json_refuses_inexact_coefficient_parts(re, im):
    # a JSON float or boolean must not turn into an exact coefficient
    data = {"nvars": 1, "terms": [{"exp": [1], "re": re, "im": im}]}
    with pytest.raises(PreconditionError, match="exact string or int"):
        poly_from_json(data)
    data["terms"][0].update(re="1/10", im=3)
    assert poly_from_json(data) == MultiPoly(1, [((1,), ExactComplex(
        Fraction(1, 10), 3))])
