"""Sparse multivariate polynomials over the exact scalars.

A MultiPoly is a sparse polynomial over the Gaussian rationals
(scalars.ExactComplex): a map from exponent tuples (one entry per
variable) to nonzero coefficients.  The constructor validates and
canonicalizes (zeros dropped), so structural equality is mathematical
equality; ring operations build their results through the trusted _poly.
The term map is private; .terms is a read-only view of it.  Serialization
orders terms graded-lexicographically, highest first, which keeps JSON
output byte-stable.  Products and the determinant check poly_det_is_one
share one kernel (_product_table): exponents packed into one int per
term, coefficients summed as Gaussian-integer numerators, terms in the
first-seen order of the pair loop.

The scalars live in their own module, which a call that builds no
polynomial loads alone; it recognises a MultiPoly (scalars.is_poly)
without importing this one.  The public scalar names are re-exported,
so they stay importable from here.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from math import lcm
from operator import add as _add
from types import MappingProxyType

from .errors import PreconditionError
# the scalar names are re-exported, so they stay importable from here
from .scalars import (  # noqa: F401
    EC_I, EC_ONE, EC_ZERO, ExactComplex, _ZERO, _ec, _fmt_ratio,
    _fraction, _new, _reduced, _triple, digit_limit_error, format_exact,
    is_exact_scalar, is_exact_text, parse_exact, require_finite,
    require_scalar, scalar_from_json, scalar_to_json, unify_scalars)

# ---------------------------------------------------------------------------
# polynomials


def _grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def _check_nvars(nvars) -> None:
    if type(nvars) is not int or nvars < 0:
        raise PreconditionError(f"nvars must be a nonnegative int: {nvars!r}")


class MultiPoly:
    """Sparse polynomial over ExactComplex in a fixed number of variables."""

    __slots__ = ("nvars", "_terms")

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
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("MultiPoly is immutable")

    @property
    def terms(self) -> Mapping:
        """Exponent tuple -> nonzero ExactComplex coefficient, read-only."""
        return MappingProxyType(self._terms)

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
        return not self._terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

    def sorted_terms(self):
        return sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]),
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
        merged = dict(self._terms)
        for exp, c in o._terms.items():
            c0 = merged.get(exp)
            merged[exp] = c if c0 is None else c0 + c
        return _poly(self.nvars, merged)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        merged = dict(self._terms)
        for exp, c in o._terms.items():
            c0 = merged.get(exp)
            merged[exp] = -c if c0 is None else c0 - c
        return _poly(self.nvars, merged)

    def __rsub__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return _poly(self.nvars, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        o = self._coerce_operand(other)
        if o is None:
            return NotImplemented
        # terms keep the first-seen order of the pair loop, so float
        # evaluation sums in a fixed order
        if len(self._terms) >= _PACK_MIN and len(o._terms) >= _PACK_MIN:
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
        right = [(e2, c2._pqd) for e2, c2 in o._terms.items()]
        acc = {}
        get = acc.get
        for e1, c1 in self._terms.items():
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
        return self.nvars == o.nvars and self._terms == o._terms

    __hash__ = None

    def __bool__(self) -> bool:
        return bool(self._terms)

    # calculus / evaluation --------------------------------------------------

    def diff(self, var: int) -> "MultiPoly":
        if not 0 <= var < self.nvars:
            raise PreconditionError(f"variable index {var} out of range")
        out: dict[tuple, ExactComplex] = {}
        for exp, c in self._terms.items():
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
        for exp, c in self._terms.items():
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
            re_num, im_num, _ = c._pqd
            if mono:
                parts.append(mono if cs == "1" else
                             f"-{mono}" if cs == "-1" else
                             f"({cs})*{mono}" if (im_num or re_num < 0)
                             else f"{cs}*{mono}")
            else:
                parts.append(f"({cs})" if im_num else cs)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"MultiPoly({self.nvars}, {self.to_str()})"

    def __reduce__(self):
        return _poly, (self.nvars, self._terms)


_set_nvars = MultiPoly.nvars.__set__
_set_terms = MultiPoly._terms.__set__


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
    return max(map(max, p._terms), default=0) if p.nvars else 0


def _numerators(p: MultiPoly, pack) -> tuple:
    """(den, [(key, numerator)]): the lcm den of p's denominators and, per
    term, its packed exponent and its coefficient times den, an int when p
    is real and otherwise an ExactComplex with denominator 1."""
    if not p._terms:
        return 1, []
    ps, qs, ds = zip(*[c._pqd for c in p._terms.values()])
    den = lcm(*ds)
    if any(qs):
        vals = [_ec(x * (den // d), q * (den // d), 1)
                for x, q, d in zip(ps, qs, ds)]
    else:
        vals = ps if den == 1 else [x * (den // d) for x, d in zip(ps, ds)]
    from_bytes = int.from_bytes
    return den, [(from_bytes(pack(e), "little"), v)
                 for e, v in zip(p._terms, vals)]


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


def poly_embed(p: MultiPoly, nvars: int, offset: int = 0) -> MultiPoly:
    """Reindex variable i to i+offset inside a wider variable set."""
    if offset < 0 or p.nvars + offset > nvars:
        raise PreconditionError("embedding does not fit")
    pad_hi = nvars - p.nvars - offset
    out = {}
    for exp, c in p._terms.items():
        out[(0,) * offset + exp + (0,) * pad_hi] = c
    return _poly(nvars, out)


def poly_to_json(p: MultiPoly) -> dict:
    return {
        "nvars": p.nvars,
        "terms": [{"exp": list(exp), "re": _fmt_ratio(c._pqd[0], c._pqd[2]),
                   "im": _fmt_ratio(c._pqd[1], c._pqd[2])}
                  for exp, c in p.sorted_terms()],
    }


def _coefficient_part(x):
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
    data = [(complex(c), exp) for exp, c in p._terms.items()]

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
