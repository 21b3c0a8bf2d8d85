"""Exact scalars, their text and JSON forms, and one scalar kind per call.

Scalars are Gaussian rationals.  An ExactComplex stores three Python ints
(p, q, d) and stands for (p + q i)/d.  The triple is canonical: d > 0 and
gcd(p, q, d) == 1, so zero is (0, 0, 1) and equality is a comparison of
triples.  Each operation does its integer arithmetic and then divides out
one gcd(p, q, d), which is skipped when d == 1 (integer coefficients, the
common case in polynomial work).  Sums, products and quotients of matrix
entries never leave the field, so every algebraic identity in the package
(unimodularity, tangency, graph formulas) can be tested as literal
equality with no tolerance.

parse_exact reads exact text ("3/4", "1/2+5/3 i") straight to integer
triples.  The fractions module (which imports decimal) is imported only
where a Fraction is built or received: the .re and .im parts, norm2, the
hash and repr of a non-integer, text given to the ExactComplex
constructor (which Fraction parses, so "0.5" is accepted there), and a
Fraction argument, which can exist only once fractions is loaded.

Approximate scalars are Python complex or mpmath numbers.  unify_scalars
brings the scalar arguments of each public call to one kind, once, by a
lookup in the kind table KINDS, which records the kind of each type
classified so far.  Two kinds are recognised without importing their
module: a Fraction (exact) and a MultiPoly (a polynomial, the highest
kind).  A value of either class exists only once its module is loaded,
so _is_fraction and is_poly look the class up in sys.modules; this
module never imports exact_algebra, and a call that meets no polynomial
never compiles the polynomial code.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from collections.abc import Sequence
from math import gcd

from .errors import PreconditionError, _Frozen

_FRAC = r"\d+(?:/\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_FRAC}$")
_RE_COMPLEX = re.compile(rf"^(?P<re>[+-]?{_FRAC})?(?P<sign>[+-])(?P<im>(?:{_FRAC})?)i$")
_RE_PURE_IM = re.compile(rf"^(?P<sign>[+-]?)(?P<im>(?:{_FRAC})?)i$")


def digit_limit_error(what: str) -> PreconditionError:
    """Bad input: an integer above Python's limit on the digits of one
    int/str conversion, which bounds a conversion of quadratic cost."""
    return PreconditionError(
        f"{what} has an integer of more than {sys.get_int_max_str_digits()} "
        f"digits, the limit of one int/str conversion")


def _is_fraction(x) -> bool:
    # a Fraction exists only once fractions is imported, so this check
    # never imports it
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


def is_poly(x) -> bool:
    """Whether x is a MultiPoly; like _is_fraction, never imports its
    module, since a MultiPoly exists only once exact_algebra is loaded."""
    ea = sys.modules.get("sl2factor.exact_algebra")
    return ea is not None and isinstance(x, ea.MultiPoly)


def _Fraction(*args):
    """fractions.Fraction, imported on first use: the first call rebinds
    this name to the class, so later calls cost what a module-level
    import would."""
    global _Fraction
    from fractions import Fraction as _Fraction
    return _Fraction(*args)


def _fraction(x):
    """Fraction(x), refusing a zero denominator or an integer above the
    digit limit as bad input."""
    try:
        return _Fraction(x)
    except ZeroDivisionError:
        raise PreconditionError(f"zero denominator in {x!r}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and re.search(rf"\d{{{limit + 1}}}", x):
            raise digit_limit_error("exact scalar") from None
        raise


def _ratio(text: str) -> tuple:
    """(n, d) of one exact part "[+-]digits[/digits]", refused as
    Fraction(text) would refuse it."""
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # int of digits fails only above the digit limit
        raise digit_limit_error("exact scalar") from None
    if not d:
        raise PreconditionError(f"zero denominator in {text!r}")
    return n, d


def _rational(x) -> tuple:
    """(numerator, denominator) of an int, a Fraction or the text of one."""
    # type(x) is _Fraction holds for a Fraction once _Fraction is resolved
    if type(x) is _Fraction or isinstance(x, int) or _is_fraction(x):
        return x.numerator, x.denominator
    if isinstance(x, str):
        f = _fraction(x)
        return f.numerator, f.denominator
    raise TypeError(f"not an exact rational: {x!r}")


def _triple(x):
    """The canonical (p, q, d) of an exact scalar, or None."""
    if isinstance(x, ExactComplex):
        return x._pqd
    if isinstance(x, int):
        return (int(x), 0, 1)
    if _is_fraction(x):
        return (x.numerator, 0, x.denominator)
    return None


_ZERO = (0, 0, 1)
_new = object.__new__


class ExactComplex(_Frozen):
    """Gaussian rational (p + q i)/d with exact field arithmetic.

    The triple (p, q, d) is private and canonical (d > 0, gcd 1).
    """

    __slots__ = ("_pqd",)

    def __init__(self, re=0, im=0):
        n1, d1 = _rational(re)
        n2, d2 = _rational(im)
        p, q, d = n1 * d2, n2 * d1, d1 * d2
        g = gcd(p, q, d)
        object.__setattr__(self, "_pqd", (p // g, q // g, d // g))

    @staticmethod
    def coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        t = _triple(x)
        if t is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")
        return _ec(*t)

    @property
    def re(self):
        p, _, d = self._pqd
        return _Fraction(p, d)

    @property
    def im(self):
        _, q, d = self._pqd
        return _Fraction(q, d)

    @property
    def is_zero(self) -> bool:
        return self._pqd == _ZERO

    @property
    def is_real(self) -> bool:
        return self._pqd[1] == 0

    def conjugate(self) -> "ExactComplex":
        p, q, d = self._pqd
        return _ec(p, -q, d)

    def norm2(self):
        # |x|^2, stays rational
        p, q, d = self._pqd
        return _Fraction(p * p + q * q, d * d)

    def __add__(self, other):
        o = other._pqd if type(other) is ExactComplex else _triple(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._pqd
        p2, q2, d2 = o
        return _reduced(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        o = other._pqd if type(other) is ExactComplex else _triple(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._pqd
        p2, q2, d2 = o
        return _reduced(p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2)

    def __rsub__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _ec(*o) - self

    def __mul__(self, other):
        o = other._pqd if type(other) is ExactComplex else _triple(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._pqd
        p2, q2, d2 = o
        return _reduced(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other._pqd if type(other) is ExactComplex else _triple(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._pqd
        p2, q2, d2 = o
        n2 = p2 * p2 + q2 * q2
        if not n2:
            raise ZeroDivisionError("division by exact zero")
        # (p1 + q1 i)(p2 - q2 i) d2 / (d1 (p2^2 + q2^2))
        return _reduced((p1 * p2 + q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2,
                        d1 * n2)

    def __rtruediv__(self, other):
        o = _triple(other)
        if o is None:
            return NotImplemented
        return _ec(*o) / self

    def __neg__(self):
        p, q, d = self._pqd
        return _ec(-p, -q, d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (EC_ONE / self) ** (-n)
        # square-and-multiply on the Gaussian integer p + q i, one gcd at
        # the end against d^n
        p, q, d = self._pqd
        rp, rq = 1, 0
        k = n
        while k:
            if k & 1:
                rp, rq = rp * p - rq * q, rp * q + rq * p
            k >>= 1
            if k:
                p, q = p * p - q * q, 2 * p * q
        return _reduced(rp, rq, d ** n)

    def __eq__(self, other):
        o = other._pqd if type(other) is ExactComplex else _triple(other)
        if o is None:
            return NotImplemented
        return self._pqd == o

    def __hash__(self):
        p, q, d = self._pqd
        if d == 1:  # an int hashes like the Fraction equal to it
            return hash(p) if q == 0 else hash((p, q))
        if q == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        # int / int is correctly rounded, so this equals complex(re) + 1j *
        # complex(im) of the Fraction parts bit for bit
        p, q, d = self._pqd
        return complex(p / d, q / d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __bool__(self) -> bool:
        return self._pqd != _ZERO

    def __str__(self) -> str:
        return format_exact(self)

    def __repr__(self) -> str:
        return f"ExactComplex({self.re!r}, {self.im!r})"

    def __reduce__(self):
        return _ec, self._pqd


def _ec(p: int, q: int, d: int) -> ExactComplex:
    """ExactComplex from a triple already in canonical form; skips __init__."""
    x = _new(ExactComplex)
    object.__setattr__(x, "_pqd", (p, q, d))
    return x


def _reduced(p: int, q: int, d: int) -> ExactComplex:
    """ExactComplex (p + q i)/d for d > 0, after one gcd (none when d == 1).
    Builds the value itself, as _ec does, which saves a call per exact
    operation."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    x = _new(ExactComplex)
    object.__setattr__(x, "_pqd", (p, q, d))
    return x


class _Raw(tuple, _Frozen):
    """(p + q i)/d for d > 0, kept as the triple (p, q, d) with no gcd taken:
    _Raw((p, q, d)).  Exact fiber solves run their formulas on it and reduce
    (_reduced) only the values they return; the exact replay and SL2 check
    compare on it and reduce nothing.  The right operand may be any triple,
    an ExactComplex's _pqd included.  == cross-multiplies, so it holds
    between any two triples of one value; bool is nonzero.  Numerators grow
    with every operation, so it serves short formulas, not loops."""

    __slots__ = ()
    __hash__ = None

    def __add__(x, y):
        (p1, q1, d1), (p2, q2, d2) = x, y
        return _Raw((p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2))

    def __sub__(x, y):
        (p1, q1, d1), (p2, q2, d2) = x, y
        return _Raw((p1 * d2 - p2 * d1, q1 * d2 - q2 * d1, d1 * d2))

    def __mul__(x, y):
        (p1, q1, d1), (p2, q2, d2) = x, y
        return _Raw((p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2))

    def __truediv__(x, y):
        # as ExactComplex.__truediv__ computes it before its gcd
        (p1, q1, d1), (p2, q2, d2) = x, y
        n2 = p2 * p2 + q2 * q2
        if not n2:
            raise ZeroDivisionError("division by exact zero")
        return _Raw(((p1 * p2 + q1 * q2) * d2, (q1 * p2 - p1 * q2) * d2,
                     d1 * n2))

    def __neg__(x):
        p, q, d = x
        return _Raw((-p, -q, d))

    def __eq__(x, y):
        (p1, q1, d1), (p2, q2, d2) = x, y
        return p1 * d2 == p2 * d1 and q1 * d2 == q2 * d1

    def __ne__(x, y):
        return not x == y

    def __bool__(x):
        return x[0] != 0 or x[1] != 0


EC_ZERO = ExactComplex(0)
EC_ONE = ExactComplex(1)
EC_I = ExactComplex(0, 1)


def _fmt_ratio(n: int, d: int) -> str:
    g = gcd(n, d)
    try:
        return str(n // g) if d == g else f"{n // g}/{d // g}"
    except ValueError:  # str of an int fails only above the digit limit
        raise digit_limit_error("exact result") from None


def format_exact(x: ExactComplex) -> str:
    """Canonical string form: "p/q" when real, else "p/q+r/s i"."""
    p, q, d = ExactComplex.coerce(x)._pqd
    if q == 0:
        return _fmt_ratio(p, d)
    sign = "+" if q > 0 else "-"
    return f"{_fmt_ratio(p, d)}{sign}{_fmt_ratio(abs(q), d)} i"


def _imag_text(m: re.Match) -> str:
    im = m.group("im") or "1"
    return "-" + im if m.group("sign") == "-" else im


def _exact_parts(s: str):
    """The (re, im) texts of an exact scalar string, or None if not one."""
    t = "".join(s.split())
    if _RE_REAL.match(t):
        return t, "0"
    m = _RE_COMPLEX.match(t)
    if m and m.group("re") is not None:
        return m.group("re"), _imag_text(m)
    m = _RE_PURE_IM.match(t)
    if m:
        return "0", _imag_text(m)
    return None


def is_exact_text(s: str) -> bool:
    """True if s has the shape of an exact scalar; denominators may be 0."""
    return _exact_parts(s) is not None


def parse_exact(s: str) -> ExactComplex:
    """Parse "p/q" or "p/q+r/s i" (whitespace tolerated) into an ExactComplex.

    A zero denominator is refused with PreconditionError, like any other
    string that is not an exact scalar.
    """
    parts = _exact_parts(s)
    if parts is None:
        raise PreconditionError(f"not an exact scalar: {s!r}")
    (n1, d1), (n2, d2) = map(_ratio, parts)
    return _reduced(n1 * d2, n2 * d1, d1 * d2)


_BEYOND_DOUBLE = ("exact scalar beyond the double range; it has no "
                  "approximate value")


def require_finite(x: complex) -> complex:
    """Reject NaN/Inf before they leak into results, and an exact value
    beyond the double range, which complex() cannot convert."""
    try:
        z = complex(x)
    except OverflowError:
        raise PreconditionError(_BEYOND_DOUBLE) from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PreconditionError(f"non-finite approximate scalar: {z!r}")
    return z


def to_complex(vals) -> list:
    """complex(v) of each value; an exact value beyond the double range
    is refused as require_finite refuses it."""
    try:
        return list(map(complex, vals))
    except OverflowError:
        raise PreconditionError(_BEYOND_DOUBLE) from None


def require_all_finite(vals: Sequence) -> list:
    """require_finite of each value, checked in one pass of builtins; a
    value it refuses is refused with require_finite's error for the first
    such value."""
    try:
        zs = list(map(complex, vals))
    except (ArithmeticError, TypeError, ValueError):
        zs = None
    if zs is not None and all(map(cmath.isfinite, zs)):
        return zs
    # value by value, so the error raised is the one the first value
    # require_finite refuses would raise
    return [require_finite(x) for x in vals]


# ---------------------------------------------------------------------------
# one scalar kind per call

# kinds by priority: a call is brought to the highest kind among its values
EXACT, APPROX, MP, POLY = 1, 2, 3, 4
# the kind of each type, looked up by type(v).  A type not in it
# (subclasses, polynomials, mpmath numbers, Fractions) is classified once
# by _kind_of, which records the kind here: a memo of this module's own
# rules, so its contents never depend on which modules are loaded.  A
# _Raw is exact too, so negligible tests it literally.
_BASE_KINDS = ((ExactComplex, EXACT), (_Raw, EXACT), (int, EXACT),
               (float, APPROX), (complex, APPROX))
KINDS = dict(_BASE_KINDS)


def _is_mp_number(x) -> bool:
    return type(x).__module__.startswith("mpmath")


def _kind_of(v) -> int:
    """The kind of v, 0 if it has none; a kind found is recorded in KINDS
    for type(v)."""
    if is_poly(v):
        kind = POLY
    elif _is_mp_number(v):
        kind = MP
    else:
        kind = next((k for cls, k in _BASE_KINDS if isinstance(v, cls)),
                    EXACT if _is_fraction(v) else 0)
    if kind:
        KINDS[type(v)] = kind
    return kind


def _kind_rank(v) -> int:
    kind = _kind_of(v)
    if not kind:
        raise PreconditionError(f"not a scalar: {v!r}")
    return kind


def is_exact_scalar(x) -> bool:
    """Whether x is an ExactComplex, an int or a Fraction."""
    kind = KINDS.get(type(x))
    if kind is not None:
        return kind == EXACT
    return isinstance(x, (ExactComplex, int)) or _is_fraction(x)


def is_literal(x) -> bool:
    """Whether x is exact or a polynomial: a value compared literally,
    with no tolerance."""
    kind = KINDS.get(type(x)) or _kind_of(x)
    return kind == EXACT or kind == POLY


def require_scalar(v) -> None:
    """Refuse, with PreconditionError, a value of a kind unify_scalars
    does not accept."""
    KINDS.get(type(v)) or _kind_rank(v)


def unify_scalars(vals: Sequence) -> list:
    """The scalar arguments of one call, brought to one kind.

    Priority: any MultiPoly -> polynomials; any mpmath number -> mpmath;
    any float/complex -> complex; otherwise ExactComplex.  Anything else,
    an approximate scalar next to a polynomial, or an exact scalar beyond
    the double range next to an approximate one, is refused with
    PreconditionError.
    """
    rank = EXACT
    for v in vals:
        r = KINDS.get(type(v)) or _kind_rank(v)
        if r > rank:
            rank = r
    if rank == EXACT:
        return [v if type(v) is ExactComplex else ExactComplex.coerce(v)
                for v in vals]
    if rank == APPROX:
        return to_complex(vals)
    if rank == MP:
        import mpmath as mp
        try:
            return [v if _is_mp_number(v) else mp.mpc(complex(v))
                    for v in vals]
        except OverflowError:
            raise PreconditionError(_BEYOND_DOUBLE) from None
    # a polynomial is among vals, so exact_algebra is loaded
    from .exact_algebra import MultiPoly
    nvars = {v.nvars for v in vals if isinstance(v, MultiPoly)}
    if len(nvars) != 1:
        raise PreconditionError("mixed variable counts in one call")
    if not all(isinstance(v, MultiPoly) or is_exact_scalar(v) for v in vals):
        raise PreconditionError(
            "cannot mix approximate scalars with polynomials")
    return [v if isinstance(v, MultiPoly) else MultiPoly.constant(*nvars, v)
            for v in vals]


# ---------------------------------------------------------------------------
# JSON


def scalar_to_json(x):
    """Exact scalars -> canonical string; approximate -> [re, im] floats."""
    if is_exact_scalar(x):
        return format_exact(ExactComplex.coerce(x))
    z = complex(x)
    return [z.real, z.imag]


def scalar_from_json(v):
    if isinstance(v, str):
        return parse_exact(v)
    if type(v) is int:  # a JSON true or false is not a scalar
        return ExactComplex(v)
    if type(v) is float:
        return require_finite(v)
    # an [re, im] pair holds two JSON numbers; a JSON true is not one
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(type(x) in (int, float) for x in v)):
        try:
            z = complex(float(v[0]), float(v[1]))
        except OverflowError:
            raise PreconditionError(f"not a scalar encoding: {v!r}") from None
        return require_finite(z)
    raise PreconditionError(f"not a scalar encoding: {v!r}")
