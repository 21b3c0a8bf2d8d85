"""Exact scalars and sparse multivariate polynomials.

Scalars are Gaussian rationals.  An ExactComplex stores three Python ints
(p, q, d) and stands for (p + q i)/d.  The triple is canonical: d > 0 and
gcd(p, q, d) == 1, so zero is (0, 0, 1) and equality is a comparison of
triples.  Each operation does its integer arithmetic and then divides out
one gcd(p, q, d), which is skipped when d == 1 (integer coefficients, the
common case in polynomial work).  The real and imaginary parts are still
available as Fractions (.re, .im).  Sums, products and quotients of matrix
entries never leave the field, so every algebraic identity in the package
(unimodularity, tangency, graph formulas) can be tested as literal
equality with no tolerance.

A MultiPoly is a sparse polynomial over that field: a map from exponent
tuples (one entry per variable) to nonzero ExactComplex coefficients.
The constructor validates and canonicalizes (zeros dropped), so
structural equality is mathematical equality; ring operations build
their results through the trusted _poly.  Serialization
orders terms graded-lexicographically, highest first, which keeps JSON
output byte-stable.  Products and the determinant check poly_det_is_one
share one kernel (_product_table): exponents packed into one int per
term, coefficients summed as Gaussian-integer numerators, terms in the
first-seen order of the pair loop.

Approximate scalars are Python complex or mpmath numbers; unify_scalars
brings the scalar arguments of each public call to one kind, once.
"""

from __future__ import annotations

import math
import re
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add as _add

from .errors import PreconditionError

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


def _fraction(x) -> Fraction:
    """Fraction(x), refusing a zero denominator or an integer above the
    digit limit as bad input."""
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise PreconditionError(f"zero denominator in {x!r}") from None
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and re.search(rf"\d{{{limit + 1}}}", x):
            raise digit_limit_error("exact scalar") from None
        raise


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return _fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _triple(x):
    """The canonical (p, q, d) of an exact scalar, or None."""
    if isinstance(x, ExactComplex):
        return x._pqd
    if isinstance(x, int):
        return (int(x), 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    return None


_ZERO = (0, 0, 1)
_new = object.__new__


class ExactComplex:
    """Gaussian rational (p + q i)/d with exact field arithmetic.

    The triple (p, q, d) is private and canonical (d > 0, gcd 1).
    """

    __slots__ = ("_pqd",)

    def __init__(self, re=0, im=0):
        a, b = _as_fraction(re), _as_fraction(im)
        p, q = a.numerator * b.denominator, b.numerator * a.denominator
        d = a.denominator * b.denominator
        g = gcd(p, q, d)
        _set_pqd(self, (p // g, q // g, d // g))

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    @staticmethod
    def coerce(x) -> "ExactComplex":
        if isinstance(x, ExactComplex):
            return x
        t = _triple(x)
        if t is None:
            raise TypeError(f"cannot coerce {type(x).__name__} to ExactComplex")
        return _ec(*t)

    @property
    def re(self) -> Fraction:
        p, _, d = self._pqd
        return Fraction(p, d)

    @property
    def im(self) -> Fraction:
        _, q, d = self._pqd
        return Fraction(q, d)

    @property
    def is_zero(self) -> bool:
        return self._pqd == _ZERO

    @property
    def is_real(self) -> bool:
        return self._pqd[1] == 0

    def conjugate(self) -> "ExactComplex":
        p, q, d = self._pqd
        return _ec(p, -q, d)

    def norm2(self) -> Fraction:
        # |x|^2, stays rational
        p, q, d = self._pqd
        return Fraction(p * p + q * q, d * d)

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
        if self._pqd[1] == 0:
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


_set_pqd = ExactComplex._pqd.__set__


def _ec(p: int, q: int, d: int) -> ExactComplex:
    """ExactComplex from a triple already in canonical form; skips __init__."""
    x = _new(ExactComplex)
    _set_pqd(x, (p, q, d))
    return x


def _reduced(p: int, q: int, d: int) -> ExactComplex:
    """ExactComplex (p + q i)/d for d > 0, after one gcd (none when d == 1)."""
    if d != 1:
        g = gcd(p, q, d)
        if g != 1:
            p //= g
            q //= g
            d //= g
    return _ec(p, q, d)


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
    return ExactComplex(*parts)


def is_exact_scalar(x) -> bool:
    return isinstance(x, (ExactComplex, int, Fraction))


def require_finite(x: complex) -> complex:
    """Reject NaN/Inf before they leak into results, and an exact value
    beyond the double range, which complex() cannot convert."""
    try:
        z = complex(x)
    except OverflowError:
        raise PreconditionError("exact scalar beyond the double range; "
                                "it has no approximate value") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise PreconditionError(f"non-finite approximate scalar: {z!r}")
    return z


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


# ---------------------------------------------------------------------------
# polynomials


def _grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def _check_nvars(nvars) -> None:
    if type(nvars) is not int or nvars < 0:
        raise PreconditionError(f"nvars must be a nonnegative int: {nvars!r}")


class MultiPoly:
    """Sparse polynomial over ExactComplex in a fixed number of variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, object] | Iterable = ()):
        _check_nvars(nvars)
        clean: dict[tuple, ExactComplex] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exp, coeff in items:
            exp = tuple(exp)
            if len(exp) != nvars:
                raise PreconditionError(
                    f"exponent length {len(exp)} != nvars {nvars}")
            if not all(type(e) is int and e >= 0 for e in exp):
                raise PreconditionError(
                    f"exponents must be nonnegative ints: {exp!r}")
            t = _triple(coeff)
            if t is None:
                raise PreconditionError(
                    f"coefficient {coeff!r} is not an exact scalar")
            c = _ec(*t)
            if exp in clean:
                c = clean[exp] + c
            if c.is_zero:
                clean.pop(exp, None)
            else:
                clean[exp] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # constructors -----------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def one(nvars: int) -> "MultiPoly":
        return MultiPoly.constant(nvars, 1)

    @staticmethod
    def constant(nvars: int, c) -> "MultiPoly":
        _check_nvars(nvars)
        return _poly(nvars, {(0,) * nvars: ExactComplex.coerce(c)})

    @staticmethod
    def variable(nvars: int, index: int) -> "MultiPoly":
        if not 0 <= index < nvars:
            raise PreconditionError(f"variable index {index} out of range")
        exp = tuple(1 if i == index else 0 for i in range(nvars))
        return _poly(nvars, {exp: EC_ONE})

    # predicates -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]),
                      reverse=True)

    # ring operations --------------------------------------------------------

    def _coerce_operand(self, other):
        if isinstance(other, MultiPoly):
            if other.nvars != self.nvars:
                raise PreconditionError(
                    f"variable-count mismatch: {self.nvars} vs {other.nvars}")
            return other
        if is_exact_scalar(other):
            return MultiPoly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        merged = dict(self.terms)
        for exp, c in o.terms.items():
            c0 = merged.get(exp)
            merged[exp] = c if c0 is None else c0 + c
        return _poly(self.nvars, merged)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        merged = dict(self.terms)
        for exp, c in o.terms.items():
            c0 = merged.get(exp)
            merged[exp] = -c if c0 is None else c0 - c
        return _poly(self.nvars, merged)

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        # terms keep the first-seen order of the pair loop, so float
        # evaluation sums in a fixed order
        if len(self.terms) >= _PACK_MIN and len(o.terms) >= _PACK_MIN:
            table, den, unpack = _product_table(((1, self, o),))
            made = {}  # one ExactComplex per distinct numerator
            for v in set(table.values()):
                p, q, _ = _triple(v)
                made[v] = _reduced(p, q, den)
            keys = [k for k, v in table.items() if v]
            return _poly_nonzero(self.nvars, dict(zip(
                unpack(keys), [made[table[k]] for k in keys])))
        # a small factor: tuple exponents and raw (p, q, d) sums, one
        # _reduced per output term
        right = [(e2, c2._pqd) for e2, c2 in o.terms.items()]
        acc = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            p1, q1, d1 = c1._pqd
            for e2, (p2, q2, d2) in right:
                e = tuple(map(_add, e1, e2))
                p, q, d = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2
                s = get(e)
                if s is not None:
                    sp, sq, sd = s
                    p, q, d = sp * d + p * sd, sq * d + q * sd, sd * d
                acc[e] = (p, q, d)
        return _poly(self.nvars, {e: _reduced(*t) for e, t in acc.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = MultiPoly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._coerce_operand(other) if not isinstance(other, MultiPoly) \
            else other
        if o is None or not isinstance(o, MultiPoly):
            return NotImplemented
        return self.nvars == o.nvars and self.terms == o.terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self.terms)

    # calculus / evaluation --------------------------------------------------

    def diff(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise PreconditionError(f"variable index {var} out of range")
        out: dict[tuple, ExactComplex] = {}
        for exp, c in self.terms.items():
            k = exp[var]
            if k:
                out[exp[:var] + (k - 1,) + exp[var + 1:]] = c * k
        return _poly(self.nvars, out)

    def eval(self, point: Sequence):
        if len(point) != self.nvars:
            raise PreconditionError(
                f"point length {len(point)} != nvars {self.nvars}")
        pt = unify_scalars(point)
        exact = not pt or type(pt[0]) is ExactComplex
        acc = EC_ZERO if exact else 0
        for exp, c in self.terms.items():
            term = c if exact else complex(c)
            for x, e in zip(pt, exp):
                if e:
                    term = term * x ** e
            acc = acc + term
        return acc

    def to_str(self, names: Sequence[str] | None = None) -> str:
        if self.is_zero:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(exp) if e)
            cs = format_exact(c)
            if mono:
                parts.append(mono if cs == "1" else
                             f"-{mono}" if cs == "-1" else
                             f"({cs})*{mono}" if (c.im != 0 or c.re < 0)
                             else f"{cs}*{mono}")
            else:
                parts.append(f"({cs})" if c.im != 0 else cs)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_str()})"

    def __reduce__(self):
        return _poly, (self.nvars, self.terms)


_set_nvars = MultiPoly.nvars.__set__
_set_terms = MultiPoly.terms.__set__


def _poly(nvars: int, terms: dict) -> MultiPoly:
    """Trusted MultiPoly from canonical exponents and ExactComplex
    coefficients: skips __init__, only drops zeros."""
    x = _new(MultiPoly)
    _set_nvars(x, nvars)
    _set_terms(x, {e: c for e, c in terms.items() if c._pqd != _ZERO})
    return x


def _poly_nonzero(nvars: int, terms: dict) -> MultiPoly:
    """Trusted MultiPoly whose coefficients are already all nonzero."""
    x = _new(MultiPoly)
    _set_nvars(x, nvars)
    _set_terms(x, terms)
    return x


# ---------------------------------------------------------------------------
# the polynomial product kernel


# MultiPoly.__mul__ packs exponents only when both factors have at least
# this many terms; below that most pairs make a term of their own, and
# packing each term and unpacking each result costs more than it saves
_PACK_MIN = 4


def _max_exponent(p: MultiPoly) -> int:
    return max(map(max, p.terms), default=0) if p.nvars else 0


def _numerators(p: MultiPoly, pack) -> tuple:
    """(den, [(key, numerator)]): the lcm den of p's denominators and, per
    term, its packed exponent and its coefficient times den, an int when p
    is real and otherwise an ExactComplex with denominator 1."""
    if not p.terms:
        return 1, []
    ps, qs, ds = zip(*[c._pqd for c in p.terms.values()])
    den = lcm(*ds)
    if any(qs):
        vals = [_ec(x * (den // d), q * (den // d), 1)
                for x, q, d in zip(ps, qs, ds)]
    else:
        vals = ps if den == 1 else [x * (den // d) for x, d in zip(ps, ds)]
    from_bytes = int.from_bytes
    return den, [(from_bytes(pack(e), "little"), v)
                 for e, v in zip(p.terms, vals)]


def _product_table(products) -> tuple:
    """The sum of sign * l * r over (sign, l, r) in products, in one table.

    Returns (table, den, unpack).  table maps packed exponents to the
    numerators of the sum over the one denominator den, in the first-seen
    order of the pair loop; unpack turns a list of keys back into their
    exponent tuples, so each tuple is built once per output term.  Every
    exponent field is w bytes wide, w enough for the largest exponent sum,
    so adding two keys adds the exponents with no carry.  Each factor
    enters as Gaussian-integer numerators over its own common denominator,
    scaled to den once per left term, so the pair loop carries no
    denominators.
    """
    top = max(_max_exponent(l) + _max_exponent(r) for _, l, r in products)
    width = max(1, (top.bit_length() + 7) // 8)
    size = width * products[0][1].nvars
    if width == 1:
        pack = bytes

        def unpack(keys: list) -> list:
            return [tuple(k.to_bytes(size, "little")) for k in keys]
    else:
        def pack(e):
            return b"".join(x.to_bytes(width, "little") for x in e)

        def unpack(keys: list) -> list:
            return [tuple(int.from_bytes(b[i:i + width], "little")
                          for i in range(0, size, width))
                    for b in (k.to_bytes(size, "little") for k in keys)]

    factors = [(sign, _numerators(l, pack), _numerators(r, pack))
               for sign, l, r in products]
    den = lcm(*(dl * dr for _, (dl, _), (dr, _) in factors))
    table = {}
    get = table.get
    for sign, (dl, left), (dr, right) in factors:
        scale = sign * (den // (dl * dr))
        for k1, c1 in left:
            c1 *= scale
            for k2, c2 in right:
                k = k1 + k2
                table[k] = get(k, 0) + c1 * c2
    return table, den, unpack


def poly_det_is_one(a: MultiPoly, b: MultiPoly, c: MultiPoly,
                    d: MultiPoly) -> bool:
    """Whether a d - b c is literally the constant polynomial 1.

    The products a d and -b c are summed into one table of the product
    kernel, with one packing width; no ad, bc or difference polynomial is
    built.  The test is exact: every non-constant term must cancel and the
    constant term must be 1.
    """
    if (not all(isinstance(p, MultiPoly) for p in (a, b, c, d))
            or len({a.nvars, b.nvars, c.nvars, d.nvars}) != 1):
        raise PreconditionError(
            "poly_det_is_one needs four polynomials in one variable set")
    table, den, _ = _product_table(((1, a, d), (-1, b, c)))
    # the zero exponent packs to key 0
    return table.pop(0, 0) == den and not any(table.values())


# ---------------------------------------------------------------------------
# one scalar kind per call


def _is_mp_number(x) -> bool:
    return type(x).__module__.startswith("mpmath")


# kind ranks by priority; subclasses and mpmath numbers go to _kind_rank
_RANK = {ExactComplex: 1, int: 1, Fraction: 1, float: 2, complex: 2,
         MultiPoly: 4}


def _kind_rank(v) -> int:
    if isinstance(v, MultiPoly):
        return 4
    if _is_mp_number(v):
        return 3
    if isinstance(v, (float, complex)):
        return 2
    if is_exact_scalar(v):
        return 1
    raise PreconditionError(f"not a scalar: {v!r}")


def require_scalar(v) -> None:
    """Refuse, with PreconditionError, a value of a kind unify_scalars
    does not accept."""
    _RANK.get(type(v)) or _kind_rank(v)


def unify_scalars(vals: Sequence) -> list:
    """The scalar arguments of one call, brought to one kind.

    Priority: any MultiPoly -> polynomials; any mpmath number -> mpmath;
    any float/complex -> complex; otherwise ExactComplex.  Anything else,
    or an approximate scalar next to a polynomial, is refused with
    PreconditionError.
    """
    rank = 1
    for v in vals:
        r = _RANK.get(type(v)) or _kind_rank(v)
        if r > rank:
            rank = r
    if rank == 1:
        return [v if type(v) is ExactComplex else ExactComplex.coerce(v)
                for v in vals]
    if rank == 2:
        return [complex(v) for v in vals]
    if rank == 3:
        import mpmath as mp
        return [v if _is_mp_number(v) else mp.mpc(complex(v)) for v in vals]
    nvars = {v.nvars for v in vals if isinstance(v, MultiPoly)}
    if len(nvars) != 1:
        raise PreconditionError("mixed variable counts in one call")
    if not all(isinstance(v, MultiPoly) or is_exact_scalar(v) for v in vals):
        raise PreconditionError(
            "cannot mix approximate scalars with polynomials")
    return [v if isinstance(v, MultiPoly) else MultiPoly.constant(*nvars, v)
            for v in vals]


def poly_embed(p: MultiPoly, nvars: int, offset: int = 0) -> MultiPoly:
    """Reindex variable i to i+offset inside a wider variable set."""
    if offset < 0 or p.nvars + offset > nvars:
        raise PreconditionError("embedding does not fit")
    pad_hi = nvars - p.nvars - offset
    out = {}
    for exp, c in p.terms.items():
        out[(0,) * offset + exp + (0,) * pad_hi] = c
    return _poly(nvars, out)


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [{"exp": list(exp), "re": _fmt_ratio(c._pqd[0], c._pqd[2]),
                   "im": _fmt_ratio(c._pqd[1], c._pqd[2])}
                  for exp, c in p.sorted_terms()],
    }


def _coefficient_part(x) -> Fraction:
    if type(x) is not int and not isinstance(x, str):
        raise PreconditionError("polynomial coefficient part must be an "
                                f"exact string or int: {x!r}")
    return _fraction(x)


def poly_from_json(data: Mapping) -> MultiPoly:
    try:
        terms = [(t["exp"], ExactComplex(_coefficient_part(t["re"]),
                                         _coefficient_part(t["im"])))
                 for t in data["terms"]]
        p = MultiPoly(data["nvars"], terms)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise PreconditionError(f"malformed polynomial JSON: {exc}") from exc
    if len({tuple(e) for e, _ in terms}) != len(terms):
        raise PreconditionError("repeated exponent in polynomial JSON")
    return p


def compile_approx(p: MultiPoly) -> Callable[[Sequence[complex]], complex]:
    """Bake a polynomial into a fast float evaluator (flow_rk4 measures
    its drift with it)."""
    data = [(complex(c), exp) for exp, c in p.terms.items()]

    def run(point: Sequence[complex]) -> complex:
        acc = 0j
        for c, exp in data:
            t = c
            for x, e in zip(point, exp):
                if e == 1:
                    t *= x
                elif e:
                    t *= x ** e
            acc += t
        return acc

    return run
