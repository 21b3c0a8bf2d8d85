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
checks it by replaying the whole word against it.  In double precision it
runs on Python complex operators (_cohn5_full); at dps on mpmath's libmp
tuples (_cohn5_mp), with the calls and rounding of the mpc operators, so
the bits of an mpc evaluation, and only the returned values become mpc.

Every word built here goes through word_core._word, which checks no
factor: its entries were computed here from already-checked input.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import PreconditionError, VerificationError
from .scalars import require_finite, unify_scalars
from .word_core import (APPROX_TOL, LOWER, SL2, Word, _sl2, _word,
                        negligible, replay, sl2_to_json, word_to_json)

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
            word = _word("ULUL", (a - one, one, one / a - one, -a))
    # exact input needs only a nonzero pivot; rounding needs the larger
    elif bool(c) if m.is_exact else abs(c) >= abs(b):
        word = _word("ULU", ((a - one) / c, c, (d - one) / c))
    else:
        word = _word("LUL", ((d - one) / b, b, (a - one) / b))
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
    word = _word("LULU", (c - one, zero, one, b))
    return Factorization(word, target, True, replay(word, target))


def factor_offdiag_zero(a, c) -> Factorization:
    """Length-4 lower-first word for [[a, 0], [c, 1/a]], a != 0."""
    zero, one, a, c = unify_scalars([0, 1, a, c])
    if not a:
        raise PreconditionError("needs a != 0")
    target = SL2(a, zero, c, one / a)
    word = _word("LULU", ((c - one) / a, a - one, one, one / a - one))
    return Factorization(word, target, True, replay(word, target))


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


def _cohn5_full(z: complex, w: complex):
    """h values with the closing entry, target and residual, in double
    precision."""
    # zw, w^2 and e^{zw} - 1 once each, shared by the h values and the target
    zw, w2 = z * w, w * w
    h3 = cmath.exp(zw) - 1
    if abs(zw) < SERIES_CUTOFF:
        h1 = _h1_series(z, zw)
    else:
        h1 = (h3 - zw) / w2
    h2 = -(1 + w2) * cmath.exp(-zw)
    h4 = 1 + 0 * z
    # det C = 1 identically; rounding moves it by a few units of |ad| + |bc|
    target = _sl2(1 + zw, z * z, -w2, 1 - zw)
    traw = target.entries
    # H2 is the first row of the prefix inverse L(-h4) U(-h3) L(-h2) U(-h1)
    # times the second column of C; word_partials' updates, a and b only
    a, b = 1 + 0j, 0j
    b += a * -h3
    a += b * -h2
    b += a * -h1
    big_h2 = a * traw[1] + b * traw[3]
    # the replay U(h1) L(h2) U(h3) L(h4) U(H2), word_partials' updates
    a, b, c, d = 1 + 0j, h1, 0j, 1 + 0j
    a, c = a + b * h2, c + d * h2
    b, d = b + a * h3, d + c * h3
    a, c = a + b * h4, c + d * h4
    b, d = b + a * big_h2, d + c * big_h2
    diffs = [abs(x - y) for x, y in zip((a, b, c, d), traw)]
    # NaN compares false both ways, so max can pass over one; a sum cannot
    total = sum(diffs)
    residual = max(diffs) if total == total else math.nan
    return (h1, h2, h3, h4, big_h2), target, residual


def _cohn5_mp(z: complex, w: complex, dps: int):
    """_cohn5_full at dps decimal digits, on mpmath's libmp tuples.

    Each step is the libmp call, with the same precision and rounding,
    that the mpc operators make for the same expression evaluated on mpc
    values inside mpmath.workdps(dps), so the bits are those of that
    evaluation; only the nine values returned become mpc objects.
    """
    import mpmath
    from mpmath import libmp
    prec, rnd = libmp.dps_to_prec(dps), libmp.round_nearest
    add, sub, mul = libmp.mpc_add, libmp.mpc_sub, libmp.mpc_mul
    neg, exp = libmp.mpc_neg, libmp.mpc_exp
    add_f, sub_f = libmp.mpc_add_mpf, libmp.mpc_sub_mpf
    fone, fzero = libmp.fone, libmp.fzero
    one, zero = (fone, fzero), (fzero, fzero)
    z = (libmp.from_float(z.real), libmp.from_float(z.imag))
    w = (libmp.from_float(w.real), libmp.from_float(w.imag))
    zw, w2 = mul(z, w, prec, rnd), mul(w, w, prec, rnd)
    zz = mul(z, z, prec, rnd)
    # 0 * z and 1 + 0 * z, which are _h1_series' first terms and h4
    zero_z = libmp.mpc_mul_int(z, 0, prec, rnd)
    h4 = add_f(zero_z, fone, prec, rnd)
    h3 = sub_f(exp(zw, prec, rnd), fone, prec, rnd)
    if abs(libmp.mpc_to_complex(zw, rnd=rnd)) < SERIES_CUTOFF:
        # _h1_series
        acc, power, fact = zero_z, h4, 2
        for k in range(SERIES_TERMS):
            acc = add(acc, libmp.mpc_div_mpf(power, libmp.from_int(fact),
                                             prec, rnd), prec, rnd)
            power = mul(power, zw, prec, rnd)
            fact = fact * (k + 3)
        h1 = mul(zz, acc, prec, rnd)
    else:
        h1 = libmp.mpc_div(sub(h3, zw, prec, rnd), w2, prec, rnd)
    h2 = mul(neg(add_f(w2, fone, prec, rnd), prec, rnd),
             exp(neg(zw, prec, rnd), prec, rnd), prec, rnd)
    target = (add_f(zw, fone, prec, rnd), zz, neg(w2, prec, rnd),
              sub(one, zw, prec, rnd))
    # the prefix-inverse row, then the replay, as in _cohn5_full
    a, b = one, zero
    b = add(b, mul(a, neg(h3, prec, rnd), prec, rnd), prec, rnd)
    a = add(a, mul(b, neg(h2, prec, rnd), prec, rnd), prec, rnd)
    b = add(b, mul(a, neg(h1, prec, rnd), prec, rnd), prec, rnd)
    big_h2 = add(mul(a, target[1], prec, rnd), mul(b, target[3], prec, rnd),
                 prec, rnd)
    a, b, c, d = one, h1, zero, one
    for side, x in zip("LULU", (h2, h3, h4, big_h2)):
        if side == LOWER:
            a = add(a, mul(b, x, prec, rnd), prec, rnd)
            c = add(c, mul(d, x, prec, rnd), prec, rnd)
        else:
            b = add(b, mul(a, x, prec, rnd), prec, rnd)
            d = add(d, mul(c, x, prec, rnd), prec, rnd)
    diffs = [libmp.to_float(libmp.mpc_abs(sub(x, y, prec, rnd), prec, rnd),
                            rnd=rnd)
             for x, y in zip((a, b, c, d), target)]
    total = sum(diffs)
    residual = max(diffs) if total == total else math.nan
    mpc = mpmath.mp.make_mpc
    return (tuple(map(mpc, (h1, h2, h3, h4, big_h2))),
            _sl2(*map(mpc, target)), residual)


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
    A non-finite z or w is refused, and so is a dps that is not an int of
    at least 15 (double precision): the residual is computed at the
    working precision, so a lower one could call a wrong word verified.
    """
    if dps is not None and (type(dps) is not int or dps < 15):
        raise PreconditionError(f"dps must be an int of at least 15: {dps!r}")
    z, w = require_finite(z), require_finite(w)
    if dps is not None:
        hs, target, residual = _cohn5_mp(z, w, dps)
    else:
        # cmath.exp raises OverflowError, or ValueError on an infinite zw;
        # w^2 underflowing to 0 divides by zero under h1.  Near |Re zw| =
        # 700 H2 can come out as inf - inf = NaN: a non-finite entry stays
        # in the replayed product, whose updates only add to an entry, so
        # the residual is finite only when every entry is
        try:
            hs, target, residual = _cohn5_full(z, w)
            a, b, c, d = target.entries
            if not (math.isfinite(residual)
                    and cmath.isfinite(a * d - b * c)):
                raise OverflowError
        except (OverflowError, ValueError, ZeroDivisionError):
            raise VerificationError("five-factor word overflows double "
                                    "precision; rerun with --dps") from None
    word = _word("ULULU", hs)
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
    word = _word("ULUL", (h1, h2, h3, h4))
    target = cohn_eval(z, w)
    return Factorization(word, target, True, replay(word, target))
