##
## ExactComplex against a Fraction-pair reference: every operation, the
## canonical form of every result, and the public surface (==, hash, .re,
## .im, string forms, complex())
##

import random
import struct
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sl2factor._random import random_exact
from sl2factor.errors import PreconditionError
from sl2factor.scalars import (ExactComplex, format_exact, is_exact_text,
                                parse_exact)


class PairComplex:
    """Reference Gaussian rational: a Fraction real part and a Fraction
    imaginary part, each operation done with Fraction arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("PairComplex is immutable")

    @staticmethod
    def coerce(x):
        return x if isinstance(x, PairComplex) else PairComplex(x)

    def conjugate(self):
        return PairComplex(self.re, -self.im)

    def norm2(self):
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = PairComplex.coerce(other)
        return PairComplex(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = PairComplex.coerce(other)
        return PairComplex(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return PairComplex.coerce(other) - self

    def __mul__(self, other):
        o = PairComplex.coerce(other)
        return PairComplex(self.re * o.re - self.im * o.im,
                           self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = PairComplex.coerce(other)
        n = o.norm2()
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        num = self * o.conjugate()
        return PairComplex(num.re / n, num.im / n)

    def __rtruediv__(self, other):
        return PairComplex.coerce(other) / self

    def __neg__(self):
        return PairComplex(-self.re, -self.im)

    def __pow__(self, n):
        if n < 0:
            return (PairComplex(1) / self) ** (-n)
        out, base, k = PairComplex(1), self, n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(self.re) + 1j * complex(self.im)


def _fmt_frac(x):
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def ref_format(x):
    if x.im == 0:
        return _fmt_frac(x.re)
    sign = "+" if x.im > 0 else "-"
    return f"{_fmt_frac(x.re)}{sign}{_fmt_frac(abs(x.im))} i"


def bits(z):
    return struct.pack("<dd", z.real, z.imag)


def assert_canonical(x):
    p, q, d = x._pqd
    assert type(p) is int and type(q) is int and type(d) is int
    assert d > 0 and gcd(p, q, d) == 1


def assert_same(x, ref):
    assert isinstance(x, ExactComplex)
    assert_canonical(x)
    assert x.re == ref.re and x.im == ref.im
    assert type(x.re) is Fraction and type(x.im) is Fraction


small = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
big = st.builds(Fraction, st.integers(-10 ** 10, 10 ** 10),
                st.integers(1, 10 ** 10))
rationals = st.one_of(small, big, st.just(Fraction(0)))
# (re, im): general, real, pure imaginary and zero values
parts = st.one_of(
    st.tuples(rationals, rationals),
    st.tuples(rationals, st.just(Fraction(0))),
    st.tuples(st.just(Fraction(0)), rationals),
    st.just((Fraction(0), Fraction(0))),
)
plain = st.one_of(st.integers(-10 ** 10, 10 ** 10), rationals)


def pair(re_im):
    return ExactComplex(*re_im), PairComplex(*re_im)


@given(parts)
def test_construction_matches_reference(re_im):
    x, ref = pair(re_im)
    assert_same(x, ref)
    assert x.norm2() == ref.norm2() and type(x.norm2()) is Fraction
    assert x.is_zero == (ref.re == 0 and ref.im == 0) == (not x)
    assert x.is_real == (ref.im == 0)
    assert repr(x) == f"ExactComplex({ref.re!r}, {ref.im!r})"
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    with pytest.raises(AttributeError):
        x._pqd = (1, 0, 1)


@given(parts, parts)
def test_binary_ops_match_reference(u, v):
    (x, xr), (y, yr) = pair(u), pair(v)
    assert_same(x + y, xr + yr)
    assert_same(x - y, xr - yr)
    assert_same(x * y, xr * yr)
    if yr.re == 0 and yr.im == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert_same(x / y, xr / yr)
    assert (x == y) == (xr.re == yr.re and xr.im == yr.im)
    assert (x != y) == (not x == y)


@given(parts, plain)
def test_mixed_ops_with_int_and_fraction(u, k):
    x, xr = pair(u)
    assert_same(x + k, xr + k)
    assert_same(k + x, k + xr)
    assert_same(x - k, xr - k)
    assert_same(k - x, k - xr)
    assert_same(x * k, xr * k)
    assert_same(k * x, k * xr)
    if k == 0:
        with pytest.raises(ZeroDivisionError):
            x / k
    else:
        assert_same(x / k, xr / k)
    if xr.re == 0 and xr.im == 0:
        with pytest.raises(ZeroDivisionError):
            k / x
    else:
        assert_same(k / x, k / xr)
    assert (x == k) == (k == x) == (xr.im == 0 and xr.re == k)
    assert_same(ExactComplex.coerce(k), PairComplex(k))


@given(parts, st.integers(-4, 6))
def test_unary_ops_and_powers(u, n):
    x, xr = pair(u)
    assert_same(-x, -xr)
    assert_same(x.conjugate(), xr.conjugate())
    if n < 0 and xr.re == 0 and xr.im == 0:
        with pytest.raises(ZeroDivisionError):
            x ** n
    else:
        assert_same(x ** n, xr ** n)


@given(parts)
def test_hash_matches_reference(u):
    x, xr = pair(u)
    assert hash(x) == hash(xr)
    if xr.im == 0:
        assert hash(x) == hash(xr.re)
        if xr.re.denominator == 1:
            assert hash(x) == hash(int(xr.re))
    assert len({x, ExactComplex(*u), ExactComplex.coerce(x)}) == 1


@given(parts, parts)
def test_complex_is_bit_identical(u, v):
    # products carry numerators and denominators past 2**53
    (x, xr), (y, yr) = pair(u), pair(v)
    for a, b in ((x, xr), (x * y, xr * yr), (x * y * y, xr * yr * yr)):
        assert bits(complex(a)) == bits(complex(b))
        assert abs(a) == abs(complex(b))


@given(parts)
def test_string_forms_match_reference(u):
    x, xr = pair(u)
    s = format_exact(x)
    assert s == ref_format(xr) == str(x)
    back = parse_exact(s)
    assert_canonical(back)
    assert back == x


def test_not_an_exact_operand():
    x = ExactComplex(1, 2)
    assert (x == 1.0) is False
    assert x != "1+2 i"
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        ExactComplex.coerce(1j)
    with pytest.raises(TypeError):
        ExactComplex(0.5)


def _fraction_draw(rng, num, den):
    # the Fraction-based draw random_exact replaced: imaginary part first
    def fraction():
        return Fraction(rng.randint(-num, num), rng.randint(1, den))
    im = fraction() if rng.random() < 0.5 else Fraction(0)
    return ExactComplex(fraction(), im)


@pytest.mark.parametrize("num,den", [(6, 4), (4, 3), (10 ** 10, 10 ** 10)])
def test_random_exact_matches_the_fraction_draw(num, den):
    # same values from the same rng calls, so seeded sweeps stay the same
    rng, ref = random.Random(2024), random.Random(2024)
    for _ in range(5000):
        x = random_exact(rng, num, den)
        assert_canonical(x)
        assert x == _fraction_draw(ref, num, den)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("num,den", [(6, 4), (4, 3)])
def test_random_exact_draws_as_randint_does(num, den):
    # random_exact draws its integers by rejection on getrandbits; 10^5
    # draws against randint's, and the generators go on alike
    rng, ref = random.Random(7), random.Random(7)
    draws = [random_exact(rng, num, den) for _ in range(10 ** 5)]
    assert draws == [_fraction_draw(ref, num, den) for _ in range(10 ** 5)]
    assert rng.random() == ref.random()


# Exact text is parsed straight to integer triples.  The reference is the
# Fraction route: ExactComplex(Fraction(re), Fraction(im)) of the parts the
# text was drawn from.

LIMIT = sys.get_int_max_str_digits()
naturals = st.one_of(
    st.integers(0, 99),
    st.integers(10 ** 9, 10 ** 10 - 1),  # 10-digit integers
    # integers of exactly LIMIT digits
    st.builds(lambda lead, tail: lead * 10 ** (LIMIT - 1) + tail,
              st.integers(1, 9), st.integers(0, 10 ** 12)))
denominators = st.one_of(st.integers(1, 99), st.integers(10 ** 9, 10 ** 10))
spaces = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def digits(draw, n):
    """n in decimal, with leading zeros up to the digit limit."""
    text = str(n)
    return "0" * draw(st.integers(0, min(2, LIMIT - len(text)))) + text


@st.composite
def ratio_tokens(draw, signs):
    """(tokens, value) of one part: an optional sign, digits, and an
    optional denominator."""
    sign = draw(st.sampled_from(signs))
    n = draw(naturals)
    tokens, value = [sign, draw(digits(n))], Fraction(-n if sign == "-" else n)
    if draw(st.booleans()):
        d = draw(denominators)
        tokens += ["/", draw(digits(d))]
        value /= d
    return tokens, value


@st.composite
def exact_texts(draw):
    """(text, re, im): a real, a complex or a pure imaginary form, with
    whitespace between its tokens and around it."""
    form = draw(st.sampled_from(["real", "complex", "imaginary"]))
    re_tokens, re = ([], Fraction(0)) if form == "imaginary" else \
        draw(ratio_tokens(["", "+", "-"]))
    tokens, im = re_tokens, Fraction(0)
    if form != "real":
        sign = draw(st.sampled_from(
            ["+", "-"] if form == "complex" else ["", "+", "-"]))
        if draw(st.booleans()):
            im_tokens, im = draw(ratio_tokens([""]))
        else:  # "i" alone
            im_tokens, im = [], Fraction(1)
        tokens = tokens + [sign, *im_tokens, "i"]
        if sign == "-":
            im = -im
    text = "".join(draw(spaces) + t for t in tokens if t) + draw(spaces)
    return text, re, im


@settings(max_examples=300, deadline=None)
@given(exact_texts())
def test_parse_matches_the_fraction_route(case):
    text, re, im = case
    assert is_exact_text(text)
    x = parse_exact(text)
    assert_canonical(x)
    assert x == ExactComplex(Fraction(re), Fraction(im))
    assert (x.re, x.im) == (re, im)


@settings(deadline=None)
@given(ratio_tokens(["", "+", "-"]))
def test_constructor_text_matches_the_fraction_route(case):
    tokens, value = case
    text = "".join(tokens)
    assert ExactComplex(text) == ExactComplex(value)
    assert ExactComplex(0, text) == ExactComplex(0, value)
    assert_canonical(ExactComplex(text, text))


# the refusals quote the part as written, as Fraction's route did
@pytest.mark.parametrize("text,part", [
    ("1/0", "1/0"), ("-3/0", "-3/0"), ("+0/0", "+0/0"),
    ("1/0+2 i", "1/0"), ("3+2/0 i", "2/0"), ("-5/0 i", "-5/0"),
    ("0/0 i", "0/0"), ("1/0-0/0 i", "1/0"),
])
def test_parse_zero_denominator_message(text, part):
    with pytest.raises(PreconditionError) as exc:
        parse_exact(text)
    assert str(exc.value) == f"zero denominator in {part!r}"


def test_constructor_zero_denominator_message():
    for args, part in ((("1/0",), "1/0"), ((0, "2/0"), "2/0"),
                       ((" 1/0 ",), " 1/0 ")):
        with pytest.raises(PreconditionError) as exc:
            ExactComplex(*args)
        assert str(exc.value) == f"zero denominator in {part!r}"


DIGIT_LIMIT_MESSAGE = (f"exact scalar has an integer of more than {LIMIT} "
                       f"digits, the limit of one int/str conversion")


@pytest.mark.parametrize("text", [
    "1" * (LIMIT + 1), "-" + "0" * (LIMIT + 1), "1/" + "2" * (LIMIT + 1),
    "3+" + "1" * (LIMIT + 1) + " i", "1" * (LIMIT + 1) + "/0",
], ids=["integer", "zeros", "denominator", "imaginary", "before-zero"])
def test_parse_digit_limit_message(text):
    with pytest.raises(PreconditionError) as exc:
        parse_exact(text)
    assert str(exc.value) == DIGIT_LIMIT_MESSAGE
    if "i" not in text:
        with pytest.raises(PreconditionError) as exc:
            ExactComplex(text)
        assert str(exc.value) == DIGIT_LIMIT_MESSAGE


def test_other_inputs_keep_the_fraction_route():
    # text given to the constructor goes through Fraction, as before
    assert ExactComplex("0.5") == ExactComplex(Fraction(1, 2))
    assert ExactComplex(" 3/4 ") == ExactComplex(Fraction(3, 4))
    assert ExactComplex("1e3") == ExactComplex("1_000") == ExactComplex(1000)
    third = ExactComplex(Fraction(1, 3))
    assert third._pqd == (1, 0, 3)
    assert hash(third) == hash(Fraction(1, 3))
    assert repr(third) == "ExactComplex(Fraction(1, 3), Fraction(0, 1))"
    assert repr(ExactComplex(True, False)) == \
        "ExactComplex(Fraction(1, 1), Fraction(0, 1))"
    assert hash(ExactComplex(7, 2)) == hash((Fraction(7), Fraction(2)))
    assert hash(ExactComplex(-7)) == hash(-7) == hash(Fraction(-7))
