##
## MultiPoly ring operations against a naive reference: a dict from exponent
## tuples to (re, im) Fraction pairs, with every operation written out
## term by term.  Every result must also be in canonical form.
##

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2factor import exact_algebra
from sl2factor.errors import PreconditionError
from sl2factor.exact_algebra import (ExactComplex, MultiPoly,
                                     poly_det_is_one, poly_embed,
                                     poly_to_json)
from sl2factor.word_core import SL2, PhiTemplate, expand_phi, middle_Q

# Gaussian rationals with denominators 1-12, plain integers, pure imaginaries
_frac = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
_ints = st.integers(-20, 20)
coeffs = st.one_of(
    st.tuples(_frac, _frac),
    st.tuples(_ints.map(Fraction), st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), _frac),
)


def _naive_norm(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != (0, 0)}


def _naive_add(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, (re, im) in q.items():
        r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
        out[e] = (r0 + sign * re, i0 + sign * im)
    return _naive_norm(out)


def _naive_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, (a, b) in p.items():
        for e2, (c, d) in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            r0, i0 = out.get(e, (Fraction(0), Fraction(0)))
            out[e] = (r0 + a * c - b * d, i0 + a * d + b * c)
    return _naive_norm(out)


def _naive_pow(p: dict, n: int, nvars: int) -> dict:
    out = {(0,) * nvars: (Fraction(1), Fraction(0))}
    for _ in range(n):
        out = _naive_mul(out, p)
    return out


def _naive_diff(p: dict, var: int) -> dict:
    out = {}
    for e, (re, im) in p.items():
        if e[var]:
            f = list(e)
            f[var] -= 1
            out[tuple(f)] = (re * e[var], im * e[var])
    return _naive_norm(out)


def _naive_embed(p: dict, nvars: int, offset: int) -> dict:
    return {(0,) * offset + e + (0,) * (nvars - len(e) - offset): c
            for e, c in p.items()}


def _to_poly(nvars: int, p: dict) -> MultiPoly:
    return MultiPoly(nvars, {e: ExactComplex(re, im)
                             for e, (re, im) in p.items()})


def _check(result: MultiPoly, nvars: int, expected: dict) -> None:
    """result equals the reference and is canonical."""
    assert result.nvars == nvars
    for e, c in result.terms.items():
        assert type(e) is tuple and len(e) == nvars
        assert all(type(k) is int and k >= 0 for k in e)
        assert type(c) is ExactComplex and c
        # the triple must be the reduced one the validating constructor makes
        assert c._pqd == ExactComplex(c.re, c.im)._pqd
    assert {e: (c.re, c.im) for e, c in result.terms.items()} == expected


@st.composite
def poly_pairs(draw):
    """(nvars, p, q) as reference dicts; q is often built from p so that
    sums, differences and products cancel, down to the zero polynomial."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    p = _naive_norm(draw(st.dictionaries(exps, coeffs, max_size=6)))
    shape = draw(st.sampled_from(["free", "neg", "partial", "same"]))
    if shape == "free":
        q = _naive_norm(draw(st.dictionaries(exps, coeffs, max_size=6)))
    elif shape == "neg":
        q = {e: (-re, -im) for e, (re, im) in p.items()}
    elif shape == "partial":
        # cancel some terms of p, keep or add others
        keep = draw(st.lists(st.booleans(), min_size=len(p),
                             max_size=len(p)))
        q = {e: ((-re, -im) if k else (im, re))
             for (e, (re, im)), k in zip(p.items(), keep)}
        q = _naive_add(q, draw(st.dictionaries(exps, coeffs, max_size=2)))
    else:
        q = dict(p)
    return nvars, p, q


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_ring_ops_match_reference(case):
    nvars, p, q = case
    a, b = _to_poly(nvars, p), _to_poly(nvars, q)
    _check(a + b, nvars, _naive_add(p, q))
    _check(a - b, nvars, _naive_add(p, q, -1))
    _check(a * b, nvars, _naive_mul(p, q))
    _check(-a, nvars, _naive_add({}, p, -1))
    _check(a - a, nvars, {})
    assert (a - a).terms == {}


## Sums merge on coefficient triples, and a one-term factor shifts
## exponents: both against coefficient-wise ExactComplex arithmetic, which
## also fixes the term order (the left operand's terms, then new ones).


def _ec_sum(a: MultiPoly, b: MultiPoly, sign: int) -> list:
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, ExactComplex(0)) + sign * c
    return [(e, c) for e, c in out.items() if c]


def _ec_shift(a: MultiPoly, e1: tuple, c1: ExactComplex) -> list:
    return [(tuple(x + y for x, y in zip(e, e1)), c * c1)
            for e, c in a.terms.items()]


def _same_terms(result: MultiPoly, expected: list) -> None:
    """Equal terms in equal order, every coefficient canonical and nonzero."""
    assert list(result.terms.items()) == expected
    for c in result.terms.values():
        assert c and c._pqd == ExactComplex(c.re, c.im)._pqd


_ONE_TERM_COEFFS = [ExactComplex(1), ExactComplex(-1),
                    ExactComplex(Fraction(1, 2), 1)]


@settings(max_examples=200, deadline=None)
@given(poly_pairs())
def test_sums_match_exact_complex_arithmetic(case):
    nvars, p, q = case
    a, b = _to_poly(nvars, p), _to_poly(nvars, q)
    _same_terms(a + b, _ec_sum(a, b, 1))
    _same_terms(a - b, _ec_sum(a, b, -1))
    _same_terms(b - a, _ec_sum(b, a, -1))


@settings(max_examples=200, deadline=None)
@given(poly_pairs(), st.one_of(st.sampled_from(_ONE_TERM_COEFFS),
                               coeffs.map(lambda c: ExactComplex(*c))),
       st.data())
def test_one_term_products_match_exact_complex_arithmetic(case, c1, data):
    nvars, p, _ = case
    a = _to_poly(nvars, p)
    e1 = data.draw(st.tuples(*[st.integers(0, 2)] * nvars))
    if not c1:
        c1 = ExactComplex(1)
    t = MultiPoly(nvars, {e1: c1})
    want = _ec_shift(a, e1, c1)
    _same_terms(a * t, want)
    _same_terms(t * a, want)
    if c1 == 1:
        # the other factor's coefficient objects are reused
        assert all(x is y for x, y in zip((a * t).terms.values(),
                                          a.terms.values()))


def test_sum_cases():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    zero = MultiPoly.zero(2)
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [
        (x * half, x * third),                       # unequal denominators
        (x * ExactComplex(1, 2) + y, x * ExactComplex(half, -2)),  # Gaussian
        (x + y * half, y * half),                    # equal denominators
        (x * half + y, -(x * half)),                 # a term cancels
        (x * ExactComplex(half, 1), -(x * ExactComplex(half, 1))),
        (zero, x * half + 3),                        # zero on either side
        (x * half + 3, zero),
        (zero, zero),
    ]
    for a, b in cases:
        _same_terms(a + b, _ec_sum(a, b, 1))
        _same_terms(a - b, _ec_sum(a, b, -1))
        _same_terms(b - a, _ec_sum(b, a, -1))
    assert x * half + x * third == x * Fraction(5, 6)
    assert (x * ExactComplex(half, 1) + x * ExactComplex(half, -1)) == x
    assert (x * half + y) + -(x * half) == y
    assert (x * half + y * 3) - (x * half + y * 3) == zero
    assert ((x * half + y) - (x * half + y)).terms == {}
    assert zero + x == x + zero == x and zero - x == -x


def test_one_term_product_cases():
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    a = x * Fraction(1, 3) + y * ExactComplex(2, -1) + 5
    for c1 in _ONE_TERM_COEFFS:
        for e1 in ((0, 0), (1, 0), (2, 1)):
            t = MultiPoly(2, {e1: c1})
            _same_terms(a * t, _ec_shift(a, e1, c1))
            _same_terms(t * a, _ec_shift(a, e1, c1))
            assert a * t == t * a == a * MultiPoly(2, {e1: 1}) * c1
    zero = MultiPoly.zero(2)
    assert (zero * x).terms == (x * zero).terms == {}
    assert a * 1 == a and a * -1 == -a and 0 * a == zero


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), st.integers(0, 3), st.data())
def test_pow_diff_embed_match_reference(case, n, data):
    nvars, p, _ = case
    a = _to_poly(nvars, p)
    _check(a ** n, nvars, _naive_pow(p, n, nvars))
    var = data.draw(st.integers(0, nvars - 1))
    _check(a.diff(var), nvars, _naive_diff(p, var))
    wide = data.draw(st.integers(nvars, nvars + 2))
    offset = data.draw(st.integers(0, wide - nvars))
    _check(poly_embed(a, wide, offset), wide, _naive_embed(p, wide, offset))


@settings(max_examples=100, deadline=None)
@given(poly_pairs(), st.integers(-6, 6), coeffs)
def test_scalar_operands_match_reference(case, k, c):
    # ints and ExactComplex on either side become constant polynomials
    nvars, p, _ = case
    a = _to_poly(nvars, p)
    const = _naive_norm({(0,) * nvars: c})
    x = ExactComplex(*c)
    _check(a + x, nvars, _naive_add(p, const))
    _check(x - a, nvars, _naive_add(const, p, -1))
    _check(k * a, nvars, _naive_mul(p, _naive_norm(
        {(0,) * nvars: (Fraction(k), Fraction(0))})))


## The product kernel: packed exponents, Gaussian-integer numerators and
## the first-seen term order, against _naive_mul.  Exponents reach past
## one byte, so both packing widths run.

_narrow_exps = st.integers(0, 9)
_wide_exps = st.one_of(_narrow_exps, st.integers(120, 136))
_gauss_ints = st.tuples(_ints.map(Fraction), _ints.map(Fraction))
_dens = st.sampled_from([1, 2, 3, 4, 6, 9])


@st.composite
def kernel_polys(draw, nvars, kind, size, exps):
    """A reference dict whose coefficients are integers, Gaussian
    integers, or rationals over one drawn denominator."""
    den = draw(_dens) if kind == "rational" else 1
    coeff = {"int": st.tuples(_ints.map(Fraction), st.just(Fraction(0))),
             "gauss": _gauss_ints,
             "rational": _gauss_ints.map(lambda c: (c[0] / den, c[1] / den)),
             }[kind]
    return _naive_norm(draw(st.dictionaries(
        st.tuples(*[exps] * nvars), coeff, max_size=size)))


@st.composite
def kernel_cases(draw, count, size):
    nvars = draw(st.integers(0, 4))
    kinds = st.sampled_from(["int", "gauss", "rational"])
    exps = draw(st.sampled_from([_narrow_exps, _wide_exps]))
    return nvars, [draw(kernel_polys(nvars, draw(kinds), size, exps))
                   for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(kernel_cases(2, 9))
def test_product_kernel_matches_naive_terms_and_order(case):
    nvars, (p, q) = case
    result = _to_poly(nvars, p) * _to_poly(nvars, q)
    expected = _naive_mul(p, q)
    _check(result, nvars, expected)
    assert list(result.terms) == list(expected)


def test_product_kernel_wide_exponents():
    # exponent sums far past eight bytes still pack without a carry
    big = 2 ** 70
    f = Fraction
    p = {(big, 1): (f(1), f(0)), (0, 2): (f(2), f(0)), (1, 0): (f(0), f(1)),
         (3, 3): (f(1, 2), f(0))}
    q = {(big, 0): (f(5), f(0)), (1, 1): (f(1), f(0)), (0, 0): (f(-1), f(0)),
         (2, 9): (f(1), f(3))}
    result = _to_poly(2, p) * _to_poly(2, q)
    _check(result, 2, _naive_mul(p, q))
    assert list(result.terms) == list(_naive_mul(p, q))


def _naive_det(a, b, c, d):
    return _naive_add(_naive_mul(a, d), _naive_mul(b, c), -1)


def _unimodular(nvars, entries):
    """Reference entries of L(x1) U(x2) L(x3) ...: det 1 by construction."""
    one = {(0,) * nvars: (Fraction(1), Fraction(0))}
    a, b, c, d = one, {}, {}, one
    for i, x in enumerate(entries):
        if i % 2 == 0:
            a = _naive_add(a, _naive_mul(b, x))
            c = _naive_add(c, _naive_mul(d, x))
        else:
            b = _naive_add(b, _naive_mul(a, x))
            d = _naive_add(d, _naive_mul(c, x))
    return [a, b, c, d]


@settings(max_examples=100, deadline=None)
@given(kernel_cases(4, 5), st.data())
def test_poly_det_is_one_matches_the_reference(case, data):
    # unimodular quadruples from words, then sometimes one entry moved
    nvars, polys = case
    entries = _unimodular(nvars, polys[:data.draw(st.integers(0, 4))])
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, 3))
        entries[i] = _naive_add(entries[i], polys[3])
    one = {(0,) * nvars: (Fraction(1), Fraction(0))}
    want = _naive_det(*entries) == one
    a, b, c, d = (_to_poly(nvars, e) for e in entries)
    assert poly_det_is_one(a, b, c, d) is want
    assert (a * d - b * c == 1) is want


def test_poly_det_is_one_mixed_denominators():
    # a d has denominator 10 and b c has 15: one table over 30
    x, y = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    a = x + y * Fraction(3, 5) + Fraction(1, 2)
    b = x * Fraction(1, 3) + y * Fraction(1, 5)
    c, d = MultiPoly.constant(2, 6), MultiPoly.constant(2, 2)
    assert poly_det_is_one(a, b, c, d)
    assert not poly_det_is_one(a, b, c, d + x * Fraction(1, 7))
    assert not poly_det_is_one(a, b, c * 2, d * 2)


@pytest.mark.parametrize("n", range(3, 13))
def test_poly_det_is_one_on_middle_polynomials(n):
    assert poly_det_is_one(*middle_Q(n))


@pytest.mark.parametrize("n", range(1, 10))
def test_poly_det_is_one_on_full_expansions(n):
    assert poly_det_is_one(*expand_phi(PhiTemplate(n)).entries)


@pytest.mark.parametrize("n", [4, 7, 10])
def test_poly_det_is_one_fails_on_one_extra_term(n):
    q = list(middle_Q(n))
    extra = MultiPoly.variable(n - 2, 0) ** 2
    for i in range(4):
        moved = q[:i] + [q[i] + extra] + q[i + 1:]
        assert not poly_det_is_one(*moved)
        with pytest.raises(PreconditionError):
            SL2(*moved)


def test_poly_det_is_one_refuses_other_operands():
    x = MultiPoly.variable(1, 0)
    with pytest.raises(PreconditionError):
        poly_det_is_one(x, x, x, MultiPoly.variable(2, 0))
    with pytest.raises(PreconditionError):
        poly_det_is_one(x, x, x, 1)


## Deferred products: a product of two factors with at least two terms
## each is pending until its terms are first read, and sums of pending
## products run one product table.  Against sums built term by term
## through the validating constructor, in the first-seen order of the
## pairs; when no product cancels a term of its own, that is also the
## order of merging the products one by one.


def _pairs(sign: int, l: MultiPoly, r: MultiPoly) -> list:
    return [(tuple(x + y for x, y in zip(e1, e2)), sign * c1 * c2)
            for e1, c1 in l.terms.items() for e2, c2 in r.terms.items()]


def _term_by_term(nvars: int, *products) -> tuple:
    """The sum of sign * l * r over products, built pair by pair, and the
    first-seen order of the exponents that survive."""
    pairs = [t for p in products for t in _pairs(*p)]
    built = MultiPoly(nvars, pairs)
    order = [e for e in dict.fromkeys(e for e, _ in pairs)
             if e in built.terms]
    return built, order


def _is_pending(p: MultiPoly) -> bool:
    return bool(p._products)


_nonzero_coeffs = coeffs.filter(lambda c: c != (0, 0))


@st.composite
def multi_term_quads(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    return nvars, [_to_poly(nvars, draw(st.dictionaries(
        exps, _nonzero_coeffs, min_size=2, max_size=7)))
        for _ in range(4)]


@settings(max_examples=150, deadline=None)
@given(multi_term_quads())
def test_deferred_products_match_term_by_term_sums(case):
    nvars, (a, b, c, d) = case
    assert _is_pending(a * d) and _is_pending(a * d - b * c)
    cases = [
        (a * d - b * c, [(1, a, d), (-1, b, c)]),
        (a * d + b * c, [(1, a, d), (1, b, c)]),
        (-(a * d), [(-1, a, d)]),
        ((a * d) * b, [(1, a * d, b)]),
        ((a * d) ** 2, [(1, a * d, a * d)]),
        (a * d - d * a, [(1, a, d), (-1, d, a)]),
    ]
    for result, products in cases:
        built, order = _term_by_term(nvars, *products)
        assert result == built
        _same_terms(result, [(e, built.terms[e]) for e in order])
    assert (a * d - d * a).terms == {} and not a * d - d * a
    # one product merged with the other, term by term: the same order,
    # wherever no product cancels a term of its own
    ad, bc = a * d, b * c
    if all(len(p.terms) == len(dict.fromkeys(e for e, _ in _pairs(1, l, r)))
           for p, l, r in ((ad, a, d), (bc, b, c))):
        _same_terms(a * d - b * c, _ec_sum(ad, bc, -1))
        _same_terms(a * d + b * c, _ec_sum(ad, bc, 1))


def _dense_det_inputs():
    for q in [middle_Q(n) for n in range(8, 12)] + [
            expand_phi(PhiTemplate(n)).entries for n in range(4, 8)]:
        q = list(q)
        yield q
        x = MultiPoly.variable(q[0].nvars, 0)
        for i in range(4):
            yield q[:i] + [q[i] + x ** 2] + q[i + 1:]
            yield q[:i] + [q[i] * ExactComplex(1, 1)] + q[i + 1:]


def test_poly_det_is_one_agrees_with_the_eager_check():
    seen = set()
    for a, b, c, d in _dense_det_inputs():
        eager = _term_by_term(a.nvars, (1, a, d), (-1, b, c))[0]
        want = eager == MultiPoly.one(a.nvars)
        seen.add(want)
        assert poly_det_is_one(a, b, c, d) is want
    assert seen == {True, False}


def test_pending_polynomial_pickles():
    a, b, c, d = middle_Q(9)
    p = a * d + b * c
    assert _is_pending(p)
    q = pickle.loads(pickle.dumps(p))
    built, order = _term_by_term(a.nvars, (1, a, d), (1, b, c))
    assert q == p == built and list(q.terms) == list(p.terms) == order
    assert not _is_pending(q)


_READS = {
    "terms": lambda p: dict(p.terms),
    "eq": lambda p: p == MultiPoly.one(p.nvars),
    "bool": bool,
    "json": poly_to_json,
    "eval": lambda p: p.eval([ExactComplex(k, 1) for k in range(p.nvars)]),
    "diff": lambda p: p.diff(0),
    "pickle": lambda p: pickle.loads(pickle.dumps(p)),
    "factor": lambda p: p * p,
    "str": str,
}


@pytest.mark.parametrize("read", sorted(_READS))
def test_each_read_builds_the_terms_once(read, monkeypatch):
    a, b, c, d = middle_Q(10)
    eager = _term_by_term(a.nvars, (1, a, d), (-1, b, c), (1, b, d))[0]
    p = a * d - b * c + b * d
    calls = []
    real = exact_algebra._product_table
    monkeypatch.setattr(exact_algebra, "_product_table",
                        lambda products: calls.append(products) or
                        real(products))
    assert _READS[read](p) == _READS[read](eager)
    assert len(calls[0]) == 3 and not _is_pending(p)
    count = len(calls)
    _READS[read](p)
    assert len(calls) == count


def test_sum_of_dense_products_runs_one_table(monkeypatch):
    q = middle_Q(11)
    calls = []
    real = exact_algebra._product_table
    monkeypatch.setattr(exact_algebra, "_product_table",
                        lambda products: calls.append(len(products)) or
                        real(products))
    k = 5
    total = q[0] * q[3]
    for i in range(1, k):
        total = total - q[i % 4] * q[(i + 1) % 4] if i % 2 else \
            total + q[i % 4] * q[(i + 1) % 4]
    assert calls == []
    products = [(1, q[0], q[3])] + [
        (-1 if i % 2 else 1, q[i % 4], q[(i + 1) % 4]) for i in range(1, k)]
    built, order = _term_by_term(q[0].nvars, *products)
    assert calls == []
    assert list(total.terms) == order and total == built
    assert calls == [k]
    assert total == built and total and poly_to_json(total)
    assert calls == [k]


def test_two_by_three_term_product_runs_one_table_on_first_read(monkeypatch):
    # no second kernel for small factors: the product is deferred like any
    # other, and its first read runs the product table once
    f = Fraction
    p = {(1, 0): (f(1), f(0)), (0, 2): (f(1, 2), f(3))}
    q = {(1, 0): (f(-1), f(0)), (0, 1): (f(2, 3), f(0)), (0, 0): (f(0), f(1))}
    calls = []
    real = exact_algebra._product_table
    monkeypatch.setattr(exact_algebra, "_product_table",
                        lambda products: calls.append(products) or
                        real(products))
    result = _to_poly(2, p) * _to_poly(2, q)
    assert calls == [] and _is_pending(result)
    _check(result, 2, _naive_mul(p, q))
    assert list(result.terms) == list(_naive_mul(p, q))
    assert len(calls) == 1 and len(calls[0]) == 1
