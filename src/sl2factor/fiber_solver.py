"""Closed-form fiber completions of Phi_N over a target SL2 matrix.

Writing Phi_N = L(z_1) * Q * U(z_N) for even N (Q the middle product)
and multiplying out gives the fiber equations

    a = Q1,  b = Q2 + Q1 z_N,  c = Q3 + Q1 z_1,
    d = Q4 + Q2 z_1 + Q3 z_N + Q1 z_1 z_N.

Generically (a != 0) the fiber is a graph over the interior level set
{Q1 = a}: z_1 = (c - Q3)/a and z_N = (b - Q2)/a, with the d-equation
automatic by unimodularity.  When a = 0 (so bc = -1), the interior
satisfies Q1 = 0, Q2 = b, the next-to-boundary variable is determined by
the shorter prefix R = M_2...M_{N-2} via z_{N-1} = -R1/b, and z_1 runs
free with z_N = (d - Q4 - b z_1)/c.

For odd N the word ends with a lower factor, Phi_N = L(z_1) * Q * L(z_N),
and the same elimination gives b = Q2; generically (b != 0) the fiber is a
graph over {Q2 = b} with z_1 = (d - Q4)/b, z_N = (a - Q1)/b, and in the
non-generic branch (b = 0, hence ad = 1) the interior satisfies Q1 = a and
Q2 = 0 with z_1 free and z_N = a (c - Q3 - a z_1).

Every completion is verified by multiplying the word back out
(word_core.replay); exact inputs verify by literal equality.  Exact solves
run on the middle product's Gaussian-integer numerators over one common
denominator (word_core._exact_partials), kept as unreduced triples: each
level and zero test is a cross-multiplication, and each coordinate or
residual they return is reduced once.  Approximate
level and pivot tests use the one tolerance rule of word_core.negligible:
a middle-product entry is on its level when it is within APPROX_TOL
max(1, |level|), and a pivot counts as zero below APPROX_TOL max(1,
largest |entry| of the target).
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (PreconditionError, SamplingBudgetError,
                     VerificationError, _Record)
from .scalars import ExactComplex, _reduced, unify_scalars
from ._random import random_exact, rng_from_seed
from .word_core import (SL2, _exact_product, _raw_add, _raw_div, _raw_eq,
                        _raw_is_zero, _raw_mul, _raw_sub, _word, negligible,
                        replay, word_product)

MAX_SAMPLE_TRIES = 64
_WRONG_LEVEL = "interior solve produced wrong level"
_RAW_IDENTITY = (1, 0, 1), (0, 0, 1), (0, 0, 1), (1, 0, 1)


def _middle_product(values: Sequence) -> tuple:
    """Entries of M_2(v_1) M_3(v_2) ... (values of one kind), upper factor
    first; the identity, in ints that combine with any kind, for none."""
    if not values:
        return 1, 0, 0, 1
    return word_product("UL" * len(values), values)


def _middle(values: Sequence, exact: bool) -> tuple:
    """_middle_product, as raw triples (word_core) for exact values."""
    if not exact:
        return _middle_product(values)
    return _exact_product("UL" * len(values), values) if values \
        else _RAW_IDENTITY


def _on_level(x, level, exact: bool) -> bool:
    """Whether the entry x is on its level: equal as raw triples when
    exact, else within negligible's tolerance at the level's scale."""
    return _raw_eq(x, level) if exact else negligible(x - level, level)


def _exact_interior(draws: list, level: tuple, even: bool, generic: bool):
    """interior_sample's solve and level check for exact draws, on raw
    triples: the values, or None when the linear coefficient vanishes."""
    r1, r2, _, _ = _middle(draws, True)
    # the solved entry of R, and the rest of its level equation
    lin, rest = (r2, r1) if even == generic else (r1, r2)
    if _raw_is_zero(lin):
        return None
    s = _reduced(*_raw_div(_raw_sub(level, rest), lin))
    # R's row after the solved factors: on = rest + lin s, off = lin + on t
    on = _raw_add(rest, _raw_mul(lin, s._pqd))
    values = (*draws, s)
    if not generic:
        t = -_reduced(*_raw_div(lin, level))
        values += (t,)
        off = _raw_add(lin, _raw_mul(on, t._pqd))
    if not (_raw_eq(on, level) and (generic or _raw_is_zero(off))):
        raise VerificationError(_WRONG_LEVEL)
    return values


def pivot_is_zero(target: SL2, n: int) -> bool:
    """Whether Phi_N^{-1}(target) takes the non-generic branch: whether its
    pivot, a for even N and b for odd N, is zero.  Exact targets test it
    literally; approximate ones count a pivot negligible relative to the
    largest |entry| as zero, since dividing by a pivot that small swamps
    the completion."""
    pivot = target.a if n % 2 == 0 else target.b
    return negligible(pivot, *target.entries)


def _replay_phi(point: tuple, target: SL2) -> None:
    """Replay Phi_N at a completed point against its target.  The solver
    computed every coordinate in one kind, so the word is built unchecked
    (word_core._word); lower factor first, alternating."""
    replay(_word("LU" * len(point), point), target)


class InteriorPoint(_Record):
    """Values of z_2..z_{N-1} lying exactly on a Q-level set."""

    __slots__ = _fields = ("n", "stratum", "level", "values")

    def __init__(self, n: int, stratum: str, level: object, values: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "stratum", stratum)  # "Q1" or "Q2"
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "values", values)

    def q_entries(self):
        return _middle_product(unify_scalars(self.values))


class FiberCompletion(_Record):
    """A full point of Phi_N^{-1}(target), with the verification replayed."""

    __slots__ = _fields = ("n", "branch", "point", "target", "verified",
                           "eq4_residual", "z1_free")

    def __init__(self, n: int, branch: str, point: tuple, target: SL2,
                 verified: bool, eq4_residual: object = None,
                 z1_free: object = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "verified", verified)
        object.__setattr__(self, "eq4_residual", eq4_residual)
        object.__setattr__(self, "z1_free", z1_free)

    @property
    def interior(self) -> tuple:
        return self.point[1:-1]


def interior_sample(n: int, level, stratum: str = "Q1", seed=None,
                    rng=None) -> InteriorPoint:
    """Random interior point solving the requested Q-level constraint.

    The last one or two interior variables are solved linearly through the
    trailing factor of the middle word; draws whose linear coefficient
    vanishes are rejected (at most MAX_SAMPLE_TRIES redraws).  Stratum
    semantics depend on parity, mirroring the fiber branches:

      N even, "Q1": Q1 = level           (generic branch)
      N even, "Q2": Q1 = 0, Q2 = level   (non-generic, level != 0)
      N odd,  "Q2": Q2 = level           (generic branch)
      N odd,  "Q1": Q1 = level, Q2 = 0   (non-generic, level != 0)
    """
    if n < 4:
        raise PreconditionError("fibers need N >= 4")
    if stratum not in ("Q1", "Q2"):
        raise PreconditionError("stratum must be 'Q1' or 'Q2'")
    level = unify_scalars([level])[0]
    rng = rng_from_seed(seed) if rng is None else rng
    even = n % 2 == 0
    generic = (stratum == "Q1") if even else (stratum == "Q2")
    if not generic and not level:
        raise PreconditionError(
            "non-generic stratum needs a nonzero level (unimodularity)")
    n_draws = n - 3 if generic else n - 4
    exact = type(level) is ExactComplex
    for _ in range(MAX_SAMPLE_TRIES):
        draws = [random_exact(rng) for _ in range(n_draws)]
        if exact:
            values = _exact_interior(draws, level._pqd, even, generic)
            if values is None:
                continue
            return InteriorPoint(n, stratum, level, values)
        # exact draws, in the level's kind
        *draws, _ = unify_scalars([*draws, level])
        if generic:
            r1, r2, _, _ = _middle_product(draws)
            if even:
                # append L(t): Q1 = R1 + t R2
                if not r2:
                    continue
                t = (level - r1) / r2
            else:
                # append U(t): Q2 = R1 t + R2
                if not r1:
                    continue
                t = (level - r2) / r1
            values = tuple(draws) + (t,)
        else:
            rp1, rp2, _, _ = _middle_product(draws)
            if even:
                # solve z_{N-2} (upper): R2 = R'1 s + R'2 = level
                if not rp1:
                    continue
                s = (level - rp2) / rp1
                t = -rp1 / level  # then Q1 = R1 + t level = 0
            else:
                # solve z_{N-2} (lower): R1 = R'1 + s R'2 = level
                if not rp2:
                    continue
                s = (level - rp1) / rp2
                t = -rp2 / level  # then Q2 = level t + R2 = 0
            values = tuple(draws) + (s, t)
        q1, q2, _, _ = _middle_product(values)
        # the zero level of a non-generic stratum is checked at the scale
        # of its nonzero one
        if generic:
            target_ok = negligible((q1 if even else q2) - level, level)
        elif even:
            target_ok = negligible(q1, level) and negligible(q2 - level, level)
        else:
            target_ok = negligible(q1 - level, level) and negligible(q2, level)
        if not target_ok:
            raise VerificationError(_WRONG_LEVEL)
        return InteriorPoint(n, stratum, level, values)
    raise SamplingBudgetError(
        f"no usable draw in {MAX_SAMPLE_TRIES} tries (N={n}, {stratum})")


def complete_generic_even(target: SL2, interior: InteriorPoint
                          ) -> FiberCompletion:
    """Graph formula over {Q1 = a}: z_1 = (c - Q3)/a, z_N = (b - Q2)/a."""
    n = interior.n
    if n % 2 != 0:
        raise PreconditionError("even-length branch")
    a, b, c, d, *values = unify_scalars([*target.entries, *interior.values])
    if pivot_is_zero(target, n):
        raise PreconditionError("generic branch needs a != 0")
    exact = type(a) is ExactComplex
    if exact:
        a, b, c, d = a._pqd, b._pqd, c._pqd, d._pqd
    q1, q2, q3, q4 = _middle(values, exact)
    if not _on_level(q1, a, exact):
        raise PreconditionError("interior is off the level set Q1 = a")
    if exact:
        z1 = _reduced(*_raw_div(_raw_sub(c, q3), a))
        zn = _reduced(*_raw_div(_raw_sub(b, q2), a))
        x1, xn = z1._pqd, zn._pqd
        sum4 = _raw_add(_raw_add(q4, _raw_mul(q2, x1)),
                        _raw_add(_raw_mul(q3, xn),
                                 _raw_mul(_raw_mul(q1, x1), xn)))
        eq4 = _reduced(*_raw_mul(a, _raw_sub(sum4, d)))
    else:
        z1 = (c - q3) / a
        zn = (b - q2) / a
        # the d-equation comes for free; its cleared residual must vanish
        eq4 = a * (q4 + q2 * z1 + q3 * zn + q1 * z1 * zn - d)
    point = (z1, *values, zn)
    _replay_phi(point, target)
    return FiberCompletion(n, "generic", point, target, True, eq4_residual=eq4)


def complete_nongeneric_even(target: SL2, z1, prefix: Sequence
                             ) -> FiberCompletion:
    """Non-generic branch (a = 0): z_{N-1} = -R1/b, z_1 free,
    z_N = (d - Q4 - b z_1)/c."""
    n = len(prefix) + 3
    if n % 2 != 0 or n < 4:
        raise PreconditionError("prefix must cover z_2..z_{N-2}, N even")
    # one scalar kind for all: a float free z1 makes an exact target float
    a, b, c, d, z1, *prefix = unify_scalars([*target.entries, z1, *prefix])
    if not pivot_is_zero(target, n):
        raise PreconditionError("non-generic branch needs a = 0")
    if not b:
        raise PreconditionError("a = 0 forces b != 0")
    exact = type(a) is ExactComplex
    if exact:
        b, c, d = b._pqd, c._pqd, d._pqd
    # appending L(z_{N-1}) leaves R's second column alone: Q4 = R4
    r1, r2, _, q4 = _middle(prefix, exact)
    if not _on_level(r2, b, exact):
        raise PreconditionError("prefix is off the level set R2 = b")
    if exact:
        interior = (*prefix, -_reduced(*_raw_div(r1, b)))
        zn = _reduced(*_raw_div(
            _raw_sub(_raw_sub(d, q4), _raw_mul(b, z1._pqd)), c))
    else:
        interior = (*prefix, -r1 / b)
        zn = (d - q4 - b * z1) / c
    point = (z1, *interior, zn)
    _replay_phi(point, target)
    return FiberCompletion(n, "nongeneric", point, target, True, z1_free=z1)


def complete_odd(target: SL2, interior: InteriorPoint, branch: str,
                 z1=0) -> FiberCompletion:
    """Odd-length analogs: graph over {Q2 = b} when b != 0, else z_1 free
    on the {Q1 = a, Q2 = 0} interior."""
    n = interior.n
    if n % 2 == 0 or n < 5:
        raise PreconditionError("odd-length branch needs N odd >= 5")
    # one scalar kind for all: a float free z1 makes an exact target float
    a, b, c, d, z1, *values = unify_scalars([*target.entries, z1,
                                             *interior.values])
    exact = type(a) is ExactComplex
    if exact:
        a, b, c, d = a._pqd, b._pqd, c._pqd, d._pqd
    q1, q2, q3, q4 = _middle(values, exact)
    if branch == "generic":
        if pivot_is_zero(target, n):
            raise PreconditionError("generic branch needs b != 0")
        if not _on_level(q2, b, exact):
            raise PreconditionError("interior is off the level set Q2 = b")
        if exact:
            z1s = _reduced(*_raw_div(_raw_sub(d, q4), b))
            zn = _reduced(*_raw_div(_raw_sub(a, q1), b))
        else:
            z1s = (d - q4) / b
            zn = (a - q1) / b
        point = (z1s, *values, zn)
        _replay_phi(point, target)
        return FiberCompletion(n, "generic", point, target, True)
    if branch == "nongeneric":
        if not pivot_is_zero(target, n):
            raise PreconditionError("non-generic branch needs b = 0")
        if not (_on_level(q1, a, exact) and (
                _raw_is_zero(q2) if exact else negligible(q2, a))):
            raise PreconditionError(
                "interior must satisfy Q1 = a and Q2 = 0")
        if exact:
            zn = _reduced(*_raw_mul(a, _raw_sub(_raw_sub(c, q3),
                                                _raw_mul(a, z1._pqd))))
        else:
            zn = a * (c - q3 - a * z1)
        point = (z1, *values, zn)
        _replay_phi(point, target)
        return FiberCompletion(n, "nongeneric", point, target, True,
                               z1_free=z1)
    raise PreconditionError(f"unknown branch {branch!r}")


def fiber_transport_dim1(p: Sequence, alpha, beta) -> tuple:
    """(z1, z2) -> (z1, beta/alpha * z2), carrying {z1 z2 = alpha} levels
    onto {z1 z2 = beta} levels."""
    if len(p) != 2:
        raise PreconditionError("dimension-1 transport takes a pair")
    z1, z2, alpha, beta = unify_scalars([*p, alpha, beta])
    if not alpha or not beta:
        raise PreconditionError("transport scalars must be nonzero")
    return (z1, (beta / alpha) * z2)


def fiber_transport_dim2(p: Sequence, alpha) -> tuple:
    """(z1, z2, z3) -> (alpha z1, z2/alpha, alpha z3); scales the level of
    P2 = z1 + z3 + z1 z2 z3 by alpha."""
    if len(p) != 3:
        raise PreconditionError("dimension-2 transport takes a triple")
    z1, z2, z3, al = unify_scalars([*p, alpha])
    if not al:
        raise PreconditionError("transport scalar must be nonzero")
    return (al * z1, z2 / al, al * z3)


def f5_param(z1, c) -> tuple:
    """Graph chart (z1, c) -> (z1, c, (c-1)/z1, (1-z1)/c) whose last-two
    coordinates put (z1, *, *) on the level set z1 + z3 + z1 z2 z3 = 1."""
    z1, c = unify_scalars([z1, c])
    if not z1 or not c:
        raise PreconditionError("chart needs z1 != 0 and c != 0")
    return (z1, c, (c - 1) / z1, (1 - z1) / c)
