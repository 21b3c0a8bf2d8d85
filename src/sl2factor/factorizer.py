"""Factorization of SL2 matrices into unipotent triangular factors.

Constant matrices factor into at most four elementary factors, with the
branch chosen by which entries vanish:

    c != 0:        U((a-1)/c) L(c) U((d-1)/c)
    c = 0, b != 0: L((d-1)/b) U(b) L((a-1)/b)
    b = c = 0:     U(a-1) L(1) U(1/a - 1) L(-a)

When b and c are both nonzero in approximate input, the branch divides by
the larger of them in modulus.

The holomorphic-family content is the Cohn matrix

    C(z, w) = [[1 + zw, z^2], [-w^2, 1 - zw]],

which admits an entire five-factor factorization built from h3 = e^{zw} -
1, h1 = (h3 - zw)/w^2, h2 = -(1 + w^2) e^{-zw}, h4 = 1, with the final
upper entry H2 read off from the first row of the prefix inverse
L(-h4) U(-h3) L(-h2) U(-h1) times the second column of C, and a
four-factor pointwise family on {zw != 1} parametrized by a free h3.
The five-factor word builds C unchecked (det C = 1 identically) and
checks it by replaying the whole word against it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import PreconditionError, VerificationError
from .exact_algebra import unify_scalars
from .word_core import (APPROX_TOL, ElementaryFactor, LOWER, SL2, UPPER,
                        Word, _one_zero_like, _sl2, negligible, replay,
                        sl2_to_json, word_product, word_to_json)

SERIES_CUTOFF = 1e-3
SERIES_TERMS = 12


@dataclass(frozen=True)
class Factorization:
    """A word of triangular factors together with its replayed product."""

    word: Word
    target: SL2
    verified: bool
    residual: object = 0

    @property
    def factor_count(self) -> int:
        return len(self.word)

    def to_json(self) -> dict:
        return {
            "word": word_to_json(self.word),
            "target": sl2_to_json(self.target),
            "factor_count": self.factor_count,
            "verified": self.verified,
            "residual": float(abs(self.residual)),
        }


def factor_constant(m: SL2) -> Factorization:
    """At most four triangular factors for any single SL2 matrix."""
    one, a, b, c, d = unify_scalars([1, *m.entries])
    if not b and not c:
        if negligible(a - one):
            word = Word(())  # identity
        else:
            word = Word.of((UPPER, a - one), (LOWER, one),
                           (UPPER, one / a - one), (LOWER, -a))
    # exact input needs only a nonzero pivot; rounding needs the larger
    elif bool(c) if m.is_exact else abs(c) >= abs(b):
        word = Word.of((UPPER, (a - one) / c), (LOWER, c),
                       (UPPER, (d - one) / c))
    else:
        word = Word.of((LOWER, (d - one) / b), (UPPER, b),
                       (LOWER, (a - one) / b))
    return Factorization(word, m, True, replay(word, m))


def can_factor_three(m: SL2, pattern: str) -> bool:
    """Whether m admits the given three-factor pattern.

    "ULU" works exactly when c != 0, or m is itself upper elementary;
    "LUL" when b != 0, or m is lower elementary.  Nontrivial diagonal
    matrices fail both.
    """
    a, b, c, d = m.entries
    if pattern == "ULU":
        return bool(c) or (a == 1 and d == 1)
    if pattern == "LUL":
        return bool(b) or (a == 1 and d == 1)
    raise PreconditionError("pattern must be 'ULU' or 'LUL'")


def factor_unit_corner(b, c, d) -> Factorization:
    """Length-4 lower-first word for [[1, b], [c, d]] with d = 1 + bc."""
    zero, one, b, c, d = unify_scalars([0, 1, b, c, d])
    try:
        target = SL2(one, b, c, d)
    except (PreconditionError, VerificationError):
        raise PreconditionError("unit corner needs d = 1 + bc") from None
    word = Word.of((LOWER, c - one), (UPPER, zero), (LOWER, one), (UPPER, b))
    return Factorization(word, target, True, replay(word, target))


def factor_offdiag_zero(a, c) -> Factorization:
    """Length-4 lower-first word for [[a, 0], [c, 1/a]], a != 0."""
    zero, one, a, c = unify_scalars([0, 1, a, c])
    if not a:
        raise PreconditionError("needs a != 0")
    target = SL2(a, zero, c, one / a)
    word = Word.of((LOWER, (c - one) / a), (UPPER, a - one), (LOWER, one),
                   (UPPER, one / a - one))
    return Factorization(word, target, True, replay(word, target))


def pad_avoid_singular(word: Word) -> Word:
    """Same product, two more factors, interior entries not all zero.

    The first factor M(g) is rewritten as M(g + 1) Mbar(0) M(g' = -1),
    using that same-side factors multiply additively and Mbar(0) is the
    identity.  The new third entry -1 sits among the interior slots of
    the longer word, so the padded point avoids the all-zero-interior
    singular set.
    """
    if len(word) == 0:
        raise PreconditionError("cannot pad an empty word")
    if not word.is_alternating:
        raise PreconditionError("padding expects an alternating word")
    first = word.factors[0]
    g = first.entry
    side = first.side
    other = UPPER if side == LOWER else LOWER
    zero, neg_one = g - g, g - g - 1
    padded = Word((ElementaryFactor(side, g + 1),
                   ElementaryFactor(other, zero),
                   ElementaryFactor(side, neg_one)) + word.factors[1:])
    return padded


def factor_count_bound(n: int, counts) -> int:
    """Composite bound 1 + sum_{i=2..n} (K(i) + 3) on factor counts.

    counts may be a callable i -> K(i) or a mapping/sequence indexed by i.
    """
    if n < 2:
        raise PreconditionError("need n >= 2")
    def k_of(i):
        try:
            value = counts(i) if callable(counts) else counts[i]
        except (KeyError, IndexError) as exc:
            raise PreconditionError(f"missing factor count for i = {i}") \
                from exc
        if not isinstance(value, int) or value < 0:
            raise PreconditionError("factor counts must be nonnegative ints")
        return value
    return 1 + sum(k_of(i) + 3 for i in range(2, n + 1))


# ---------------------------------------------------------------------------
# Cohn matrices


def cohn_eval(z, w) -> SL2:
    """C(z, w) = [[1 + zw, z^2], [-w^2, 1 - zw]]; det is 1 identically."""
    z, w = unify_scalars([z, w])
    zw = z * w
    return SL2(1 + zw, z * z, -(w * w), 1 - zw)


def _h1_series(z, zw):
    # (e^{zw} - 1 - zw)/w^2 = z^2 * sum_k (zw)^k / (k+2)!
    acc = 0 * z
    fact = 2
    power = 1 + 0 * z
    for k in range(SERIES_TERMS):
        acc = acc + power / fact
        power = power * zw
        fact = fact * (k + 3)
    return z * z * acc


def _cohn5_full(z, w, exp: Callable):
    """h values with the closing entry, target and residual."""
    # zw, w^2 and e^{zw} - 1 once each, shared by the h values and the target
    zw, w2 = z * w, w * w
    h3 = exp(zw) - 1
    if abs(complex(zw)) < SERIES_CUTOFF:
        h1 = _h1_series(z, zw)
    else:
        h1 = (h3 - zw) / w2
    h2 = -(1 + w2) * exp(-zw)
    h4 = 1 + 0 * z
    # det C = 1 identically; rounding moves it by a few units of |ad| + |bc|
    target = _sl2(1 + zw, z * z, -w2, 1 - zw)
    traw = target.entries  # callers pass complex or mpc, never exact
    # H2 is the first row of the prefix inverse L(-h4) U(-h3) L(-h2) U(-h1)
    # times the second column of C; word_partials' updates, a and b only
    a, b = _one_zero_like(h4)
    b += a * -h3
    a += b * -h2
    b += a * -h1
    big_h2 = a * traw[1] + b * traw[3]
    prod = word_product("ULULU", (h1, h2, h3, h4, big_h2))
    diffs = [float(abs(x - y)) for x, y in zip(prod, traw)]
    # NaN compares false both ways, so max can pass over one; a sum cannot
    total = sum(diffs)
    residual = max(diffs) if total == total else math.nan
    return (h1, h2, h3, h4, big_h2), target, residual


def cohn_holo_5(z, w, dps: int | None = None) -> Factorization:
    """Entire five-factor word U(h1) L(h2) U(h3) L(h4) U(H2) for C(z, w).

    With dps set, every entry is evaluated in mpmath working precision;
    otherwise in double precision, where the intermediate products grow
    like e^{2|Re(zw)|} and swamp the result for large |Re(zw)|.  The
    verified flag is strict (residual < 1e-10).  An unverified word is
    returned with its residual, never raised, at any precision; only a
    value leaving the double range (zw, or e^{+-zw} once |Re(zw)| passes
    about 709, w^2 underflowing to 0, a target entry or its determinant
    overflowing, a word entry or replay difference that is not finite) is
    a VerificationError, which points to dps (--dps on the command line).
    A dps that is not an int of at least 15 (double precision) is refused:
    the residual is computed at the working precision, so a lower one
    could call a wrong word verified.
    """
    if dps is not None:
        if type(dps) is not int or dps < 15:
            raise PreconditionError(
                f"dps must be an int of at least 15: {dps!r}")
        import mpmath
        with mpmath.workdps(dps):
            zm, wm = mpmath.mpc(complex(z)), mpmath.mpc(complex(w))
            hs, target, residual = _cohn5_full(zm, wm, mpmath.exp)
    else:
        # cmath.exp raises OverflowError, or ValueError on an infinite zw;
        # w^2 underflowing to 0 divides by zero under h1.  Near |Re zw| =
        # 700 H2 can come out as inf - inf = NaN: a non-finite entry stays
        # in the replayed product, whose updates only add to an entry, so
        # the residual is finite only when every entry is
        try:
            hs, target, residual = _cohn5_full(complex(z), complex(w),
                                               cmath.exp)
            a, b, c, d = target.entries
            if not (math.isfinite(residual)
                    and cmath.isfinite(a * d - b * c)):
                raise OverflowError
        except (OverflowError, ValueError, ZeroDivisionError):
            raise VerificationError("five-factor word overflows double "
                                    "precision; rerun with --dps") from None
    h1, h2, h3, h4, big_h2 = hs
    word = Word.of((UPPER, h1), (LOWER, h2), (UPPER, h3), (LOWER, h4),
                   (UPPER, big_h2))
    # absolute, unlike word_core.negligible: the flag is documented as
    # strict, and criterion 7 bounds the residual by 1e-10 absolutely
    return Factorization(word, target, residual < APPROX_TOL, residual)


def cohn_family_relations(z, w, h: Sequence) -> tuple:
    """Residuals of the four relations equivalent to the product being C."""
    z, w, h1, h2, h3, h4 = unify_scalars([z, w, *h])
    zw = z * w
    u = 1 - zw
    return (h2 * h3 + zw,
            u * h1 + h3 - z * z,
            h2 + u * h4 + w * w,
            h1 * h2 + u * h1 * h4 + h3 * h4 - zw)


def cohn_family_4(z, w, h3) -> Factorization:
    """Four-factor words for C(z, w) away from zw = 1, one per h3 != 0:

    h2 = -zw/h3, h1 = (z^2 - h3)/(1 - zw), h4 = (-w^2 - h2)/(1 - zw).
    """
    z, w, h3 = unify_scalars([z, w, h3])
    zw = z * w
    if not 1 - zw:
        raise PreconditionError("family needs zw != 1")
    if not h3:
        raise PreconditionError("family needs h3 != 0")
    h2 = -zw / h3
    h1 = (z * z - h3) / (1 - zw)
    h4 = (-(w * w) - h2) / (1 - zw)
    word = Word.of((UPPER, h1), (LOWER, h2), (UPPER, h3), (LOWER, h4))
    target = cohn_eval(z, w)
    return Factorization(word, target, True, replay(word, target))
