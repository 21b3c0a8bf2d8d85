"""The benchmark's own reference arithmetic, independent of sl2factor.

Gaussian rationals are (re, im) pairs of Fractions and 2x2 matrices are
4-tuples (a, b, c, d).  Inputs are generated with these and results are
checked against them, so a check never trusts a value that the code under
measurement produced.  The float helpers do the same for complex and
mpmath entries.
"""

from __future__ import annotations

from fractions import Fraction

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))
IDENTITY = (ONE, ZERO, ZERO, ONE)


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def gneg(x):
    return (-x[0], -x[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ginv(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def gdiv(x, y):
    return gmul(x, ginv(y))


def is_zero(x) -> bool:
    return x[0] == 0 and x[1] == 0


def mat_mul(p, q):
    a, b, c, d = p
    e, f, h, k = q
    return (gadd(gmul(a, e), gmul(b, h)), gadd(gmul(a, f), gmul(b, k)),
            gadd(gmul(c, e), gmul(d, h)), gadd(gmul(c, f), gmul(d, k)))


def elementary(side: str, x):
    return (ONE, ZERO, x, ONE) if side == "L" else (ONE, x, ZERO, ONE)


def word_product(factors) -> tuple:
    """Product of (side, entry) pairs, left to right."""
    out = IDENTITY
    for side, x in factors:
        out = mat_mul(out, elementary(side, x))
    return out


def alternating(first: str, entries) -> list:
    other = "U" if first == "L" else "L"
    return [(first if j % 2 == 0 else other, x) for j, x in enumerate(entries)]


def cohn(z, w) -> tuple:
    """C(z, w) = [[1 + zw, z^2], [-w^2, 1 - zw]]."""
    zw = gmul(z, w)
    return (gadd(ONE, zw), gmul(z, z), gneg(gmul(w, w)), gsub(ONE, zw))


def _fmt_frac(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 \
        else f"{x.numerator}/{x.denominator}"


def fmt(x) -> str:
    """Canonical exact string: "p/q" when real, else "p/q+r/s i"."""
    re, im = x
    if im == 0:
        return _fmt_frac(re)
    sign = "+" if im > 0 else "-"
    return f"{_fmt_frac(re)}{sign}{_fmt_frac(abs(im))} i"


def parse(s: str):
    """Inverse of fmt, for reading CLI reports."""
    t = "".join(s.split())
    if not t.endswith("i"):
        return (Fraction(t), Fraction(0))
    body = t[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    return (Fraction(body[:cut]), Fraction(body[cut:]))


# ---------------------------------------------------------------------------
# complex and mpmath entries


def cmat_mul(p, q):
    a, b, c, d = p
    e, f, h, k = q
    return (a * e + b * h, a * f + b * k, c * e + d * h, c * f + d * k)


def cword_product(factors, one=1.0, zero=0.0):
    out = (one, zero, zero, one)
    for side, x in factors:
        m = (one, zero, x, one) if side == "L" else (one, x, zero, one)
        out = cmat_mul(out, m)
    return out


def ccohn(z, w):
    zw = z * w
    return (1 + zw, z * z, -(w * w), 1 - zw)


def residual(p, q) -> float:
    return float(max(abs(x - y) for x, y in zip(p, q)))
