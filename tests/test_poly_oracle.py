##
## MultiPoly ring operations against a naive reference: a dict from exponent
## tuples to (re, im) Fraction pairs, with every operation written out
## term by term.  Every result must also be in canonical form.
##

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from sl2factor.exact_algebra import ExactComplex, MultiPoly, poly_embed

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
