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
(word_core.replay); exact inputs verify by literal equality.  Each formula
is written once and runs on the unified values as they are (exact,
complex or mpmath), the middle product coming from word_core.word_product;
nothing here tells the kinds apart.  Level and zero tests use the one rule
of word_core.negligible: literal for exact values; for approximate ones a
middle-product entry is on its level when it is within APPROX_TOL
max(1, |level|), and a pivot counts as zero below APPROX_TOL
max(1, largest |entry| of the target).
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import (PreconditionError, SamplingBudgetError,
                     VerificationError, _Record)
from .scalars import unify_scalars
from ._random import random_exact, rng_from_seed
from .word_core import SL2, _word, negligible, replay, word_product

MAX_SAMPLE_TRIES = 64
_WRONG_LEVEL = "interior solve produced wrong level"


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
    """Values of z_2..z_{N-1} lying exactly on a Q-level set; stratum is
    "Q1" or "Q2"."""

    __slots__ = _fields = ("n", "stratum", "level", "values")

    def __init__(self, n: int, stratum: str, level: object, values: tuple):
        self._set(n, stratum, level, values)

    def q_entries(self):
        vals = unify_scalars(self.values)
        return word_product("UL" * len(vals), vals)


class FiberCompletion(_Record):
    """A full point of Phi_N^{-1}(target), with the verification replayed."""

    __slots__ = _fields = ("n", "branch", "point", "target", "verified",
                           "eq4_residual", "z1_free")

    def __init__(self, n: int, branch: str, point: tuple, target: SL2,
                 verified: bool, eq4_residual: object = None,
                 z1_free: object = None):
        self._set(n, branch, point, target, verified, eq4_residual, z1_free)

    @property
    def interior(self) -> tuple:
        return self.point[1:-1]


def interior_sample(n: int, level, stratum: str = "Q1",
                    seed=None) -> InteriorPoint:
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
    rng = rng_from_seed(seed)
    even = n % 2 == 0
    generic = (stratum == "Q1") if even else (stratum == "Q2")
    if not generic and not level:
        raise PreconditionError(
            "non-generic stratum needs a nonzero level (unimodularity)")
    n_draws = n - 3 if generic else n - 4
    for _ in range(MAX_SAMPLE_TRIES):
        draws = [random_exact(rng) for _ in range(n_draws)]
        # exact draws, in the level's kind
        *draws, _ = unify_scalars([*draws, level])
        r1, r2, _, _ = word_product("UL" * n_draws, draws)
        # the solved entry of R = M_2 ..., and the rest of its level equation
        lin, rest = (r2, r1) if even == generic else (r1, r2)
        if not lin:
            continue
        s = (level - rest) / lin
        # R's row after the solved factors: on = rest + lin s, off = lin + on t
        on = rest + lin * s
        values = (*draws, s)
        if not generic:
            t = -lin / level
            values += (t,)
            off = lin + on * t
        # a zero level is measured at the scale of the nonzero one
        if not (negligible(on - level, level)
                and (generic or negligible(off, level))):
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
    q1, q2, q3, q4 = word_product("UL" * len(values), values)
    if not negligible(q1 - a, a):
        raise PreconditionError("interior is off the level set Q1 = a")
    z1 = (c - q3) / a
    zn = (b - q2) / a
    # the d-equation comes for free; its cleared residual must vanish
    eq4 = a * (q4 + q2 * z1 + q3 * zn + q1 * z1 * zn - d)
    point = (z1, *values, zn)
    _replay_phi(point, target)
    return FiberCompletion(n, "generic", point, target, True, eq4_residual=eq4)


def complete_nongeneric_even(target: SL2, z1=None, prefix: Sequence = ()
                             ) -> FiberCompletion:
    """Non-generic branch (a = 0): z_{N-1} = -R1/b, z_1 free,
    z_N = (d - Q4 - b z_1)/c.  z1=None (centred) takes z_1 = (d - Q4)/b,
    so that z_N = 0 and no coordinate grows like a product of entries."""
    n = len(prefix) + 3
    if n % 2 != 0 or n < 4:
        raise PreconditionError("prefix must cover z_2..z_{N-2}, N even")
    # one scalar kind for all: a float free z1 makes an exact target float
    centred = z1 is None
    a, b, c, d, z1, *prefix = unify_scalars([*target.entries,
                                             0 if centred else z1, *prefix])
    if not pivot_is_zero(target, n):
        raise PreconditionError("non-generic branch needs a = 0")
    if not b:
        raise PreconditionError("a = 0 forces b != 0")
    # appending L(z_{N-1}) leaves R's second column alone: Q4 = R4
    r1, r2, _, q4 = word_product("UL" * len(prefix), prefix)
    if not negligible(r2 - b, b):
        raise PreconditionError("prefix is off the level set R2 = b")
    if centred:
        z1 = (d - q4) / b
    interior = (*prefix, -r1 / b)
    zn = (d - q4 - b * z1) / c
    point = (z1, *interior, zn)
    _replay_phi(point, target)
    return FiberCompletion(n, "nongeneric", point, target, True, z1_free=z1)


def complete_odd(target: SL2, interior: InteriorPoint, branch: str,
                 z1=None) -> FiberCompletion:
    """Odd-length analogs: graph over {Q2 = b} when b != 0, else z_1 free
    on the {Q1 = a, Q2 = 0} interior, z_N = a (c - Q3 - a z_1); there
    z1=None (centred) takes z_1 = (c - Q3)/a, so that z_N = 0."""
    n = interior.n
    if n % 2 == 0 or n < 5:
        raise PreconditionError("odd-length branch needs N odd >= 5")
    # one scalar kind for all: a float free z1 makes an exact target float
    centred = z1 is None
    a, b, c, d, z1, *values = unify_scalars([*target.entries,
                                             0 if centred else z1,
                                             *interior.values])
    q1, q2, q3, q4 = word_product("UL" * len(values), values)
    if branch == "generic":
        if pivot_is_zero(target, n):
            raise PreconditionError("generic branch needs b != 0")
        if not negligible(q2 - b, b):
            raise PreconditionError("interior is off the level set Q2 = b")
        point = ((d - q4) / b, *values, (a - q1) / b)
        _replay_phi(point, target)
        return FiberCompletion(n, "generic", point, target, True)
    if branch == "nongeneric":
        if not pivot_is_zero(target, n):
            raise PreconditionError("non-generic branch needs b = 0")
        if not (negligible(q1 - a, a) and negligible(q2, a)):
            raise PreconditionError(
                "interior must satisfy Q1 = a and Q2 = 0")
        if centred:
            z1 = (c - q3) / a
        point = (z1, *values, a * (c - q3 - a * z1))
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
