"""Jacobian frames for Phi_N and conserved-quantity vector field flows.

The derivative of Phi_N at a point, right-translated back to the identity,
has j-th column A_j E_j A_j^{-1} where A_j is the prefix product
M_1...M_{j-1} and E_j is e21 for a lower factor, e12 for an upper one
(the trailing factor of the derivative cancels because e21*L(x) = e21 and
e12*U(x) = e12).  Columns are stored in sl2 coordinates (e21, e12, d12):
the element [[p, q], [r, -p]] has coordinates (r, q, p).

Phi_N is submersive exactly where some interior coordinate is nonzero; the
rank computations here make that a checkable statement, exactly by a
fraction-free elimination on Gaussian-integer numerators, or numerically:
minors on consecutive columns (the 3x3 ones are z_j) bound the singular
values and prove rank 3 off S_N, rank 2 on it, with a factor 2 to spare
over rounding; a one-sided Jacobi sweep in pure Python does the rest.

Vector fields V = P_l d/dz_k - P_k d/dz_l (P_j the partial of P) are
tangent to every level set of P, which makes P a conserved quantity of
their flows; flow_rk4 integrates them with the classical fixed-step
fourth-order scheme and reports the drift in P.  Such a field moves only
z_k and z_l, so flow_rk4 substitutes the fixed coordinates into P_k and
P_l once per flow and integrates the two moving ones; the drift is
measured on the full P.  The float coefficients of P_k and P_l, and the
nonzero exponents each term multiplies in, are worked out once per field
(VectorFieldSpec.float_partials).  Every entry of an alternating product
is affine in each coordinate separately, so for the fields built here the
folded P_l is C + D z_k and the folded P_k is B + D z_l: two decoupled
linear ODEs, on which one RK4 step is a single increment per coordinate.
A P that does not fold that way runs the four stage evaluations per step.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from functools import cached_property
from itertools import chain
from operator import mul

from .errors import PreconditionError, _Record
from .scalars import (ExactComplex, _reduced, is_poly, require_all_finite,
                      require_finite, unify_scalars)
from .word_core import (
    LOWER,
    PhiTemplate,
    _exact_partials,
    _one_zero_like,
    expand_phi,
    in_singular_set,
    middle_Q,
    word_partials,
)

# Numerical rank counts sigma_k > APPROX_RANK_TOL * sigma_1.  This is a
# ratio of singular values, not a residual like word_core.APPROX_TOL, and
# needs more headroom above the Jacobi sweep's rounding noise (about 1e-15
# of sigma_1), so it stays separate.
APPROX_RANK_TOL = 1e-8
# A Jacobi rotation is skipped once its row pair is orthogonal to this
# relative accuracy, or one of its rows is negligible; three rows converge
# within a few sweeps, and the cap only bounds the loop.
JACOBI_TOL = 1e-15
JACOBI_MAX_SWEEPS = 30
# One RK4 step of the affine path, which every v and w field takes, costs
# about 0.4 us; one step of the four-stage loop kept for other P costs
# 3.4-5 us on the v fields at N = 4-10 and up to 6.5 us on a busier
# machine (2 cores, Python 3.11.7), so a flow at this ceiling takes 0.04 s
# or up to 0.7 s.  The ceiling also keeps `remaining -= h` moving, since
# step stays far above the spacing of floats near t.
MAX_FLOW_STEPS = 100_000


class TangentFrame(_Record):
    """N tangent columns of Phi_N in the (e21, e12, d12) basis.  An exact
    frame from sl2_jacobian keeps them unreduced (_exact_columns) until
    the first read of `columns`."""

    __slots__ = ("_columns", "exact", "_numerators")
    _fields = ("columns", "exact")

    def __init__(self, columns: tuple, exact: bool):
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "_numerators", None)

    @property
    def columns(self) -> tuple:
        if self._columns is None:
            object.__setattr__(self, "_columns", tuple(
                (_reduced(*u, den), _reduced(*v, den), _reduced(*w, den))
                for den, u, v, w in self._numerators))
        return self._columns


def sl2_jacobian(t: PhiTemplate, point: Sequence) -> TangentFrame:
    """Right-translated Jacobian columns of Phi_N at a point.

    Accepts exact, approximate, or polynomial coordinates; the symbolic
    case returns columns with MultiPoly entries.
    """
    if len(point) != t.n:
        raise PreconditionError(f"expected {t.n} coordinates")
    vals = unify_scalars(point)
    sides = [t.side_of(j) for j in range(1, t.n + 1)]
    if type(vals[0]) is ExactComplex:
        frame = TangentFrame(None, True)
        object.__setattr__(frame, "_numerators", _exact_columns(sides, vals))
        return frame
    approx = not is_poly(vals[0])
    if approx:
        vals = require_all_finite(vals)
    one, zero = _one_zero_like(vals[0])
    # A_1 is the identity, A_{j+1} the j-th partial product; the last
    # partial (the whole word) is never needed, so zip stops before it
    prefixes = chain([(one, zero, zero, one)], word_partials(sides, vals))
    cols = []
    for side, (al, be, ga, de) in zip(sides, prefixes):
        if side == LOWER:
            # A e21 A^{-1} = [[bd, -b^2], [d^2, -bd]]
            cols.append((de * de, -(be * be), be * de))
        else:
            # A e12 A^{-1} = [[-ac, a^2], [-c^2, ac]]
            cols.append((-(ga * ga), al * al, -(al * ga)))
    # finite coordinates can still overflow in the squares; the rank must
    # never see inf or nan
    if approx and not all(map(cmath.isfinite, chain.from_iterable(cols))):
        raise PreconditionError(
            "approximate Jacobian entries overflow double precision")
    return TangentFrame(tuple(cols), False)


def _exact_columns(sides: Sequence[str], vals: Sequence) -> tuple:
    """sl2_jacobian's columns at an exact point, unreduced: the same Ad
    formulas on the prefix numerators of _exact_partials, each column as
    (D^2, u, v, w), u, v and w its entries' numerators (re, im) over D^2."""
    prefixes = chain([(1, 0, 0, 0, 0, 0, 1, 0, 1)],
                     _exact_partials(sides, vals))
    cols = []
    for side, (ar, ai, br, bi, cr, ci, dr, di, den) in zip(sides, prefixes):
        if side == LOWER:
            # (d^2, -b^2, bd)
            u = (dr * dr - di * di, 2 * dr * di)
            v = (bi * bi - br * br, -2 * br * bi)
            w = (br * dr - bi * di, br * di + bi * dr)
        else:
            # (-c^2, a^2, -ac)
            u = (ci * ci - cr * cr, -2 * cr * ci)
            v = (ar * ar - ai * ai, 2 * ar * ai)
            w = (ai * ci - ar * cr, -(ar * ci + ai * cr))
        cols.append((den * den, u, v, w))
    return tuple(cols)


def frame_minor_det(f: TangentFrame, js: tuple[int, int, int]):
    """Determinant of the 3x3 minor on columns js (0-based); any ring."""
    c = [f.columns[j] for j in js]
    return (c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
            - c[1][0] * (c[0][1] * c[2][2] - c[0][2] * c[2][1])
            + c[2][0] * (c[0][1] * c[1][2] - c[0][2] * c[1][1]))


def _column_numerators(col: Sequence) -> tuple:
    """A hand-built exact column as (den, u, v, w), den the lcm."""
    pqds = [ExactComplex.coerce(x)._pqd for x in col]
    den = math.lcm(*[d for _, _, d in pqds])
    return (den, *[(p * (den // d), q * (den // d)) for p, q, d in pqds])


def _numerator_rank(columns) -> int:
    """Rank of numerator columns (den, u, v, w) by fraction-free
    elimination: a pivot p in row k turns each row r with x != 0 in the
    pivot column into p row_r - x row_k, no division and no gcd, applied
    to each column as it is reached, so it stops once the rank is 3."""
    steps, free = [], [0, 1, 2]  # free: the rows without a pivot
    for _, *col in columns:
        for k, (pr, pi), xs in steps:
            br, bi = col[k]
            for r, (xr, xi) in xs:
                ar, ai = col[r]
                col[r] = (pr * ar - pi * ai - xr * br + xi * bi,
                          pr * ai + pi * ar - xr * bi - xi * br)
        for k in free:
            if col[k] != (0, 0):
                free.remove(k)
                if not free:
                    return 3
                steps.append((k, col[k], [(r, col[r]) for r in free
                                          if col[r] != (0, 0)]))
                break
    return 3 - len(free)


def _norm(row: list[complex]) -> float:
    return math.hypot(*map(abs, row))


def _singular_values(rows: list[list[complex]]) -> list[float]:
    """Singular values of a small complex matrix, largest first, divided
    by the largest real or imaginary part of an entry (all zero for the
    zero matrix).

    One-sided (Hestenes) Jacobi: complex rotations of row pairs until
    every pair is orthogonal to JACOBI_TOL relative, or one row of it is
    negligible; the singular values are then the row norms.  Each row's
    norm is computed once at the start and again after each rotation of
    that row, never at a visit that leaves the row as it is.  Scaling
    first, as LAPACK does, keeps every entry near or below 1 and sigma_1
    at least 1, so squared norms cannot overflow, and the rows that take
    part in a rotation are too large for their inner products to
    underflow.  Entries must be finite.
    """
    # the largest real or imaginary part: a modulus can overflow
    scale = max((max(abs(x.real), abs(x.imag)) for row in rows for x in row),
                default=0.0)
    if scale == 0.0:
        return [0.0] * len(rows)
    rows = [[x / scale for x in row] for row in rows]
    # each row's norm, kept from its last rotation
    norms = list(map(_norm, rows))
    pairs = [(p, q) for p in range(len(rows)) for q in range(p + 1, len(rows))]
    for _ in range(JACOBI_MAX_SWEEPS):
        rotated = False
        for p, q in pairs:
            nx, ny = norms[p], norms[q]
            # a row below JACOBI_TOL of the other, or of sigma_1 >= 1,
            # moves no singular value beyond JACOBI_TOL sigma_1; rotating
            # it would chase the rounding noise that a rank-deficient
            # frame leaves, sweep after sweep
            if min(nx, ny) <= JACOBI_TOL * max(nx, ny, 1.0):
                continue
            x, y = rows[p], rows[q]
            cos = sum(map(mul, x, map(complex.conjugate, y))) / (nx * ny)
            g = abs(cos)
            if g <= JACOBI_TOL:
                continue
            rotated = True
            # x and e y, e = cos/|cos|, have the real inner product
            # nx ny |cos|; rotating them by tan(theta) = t zeroes it
            zeta = (ny / nx - nx / ny) / (2.0 * g)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            se = (c * t / g) * cos
            sec = se.conjugate()
            x, y = ([c * u - se * v for u, v in zip(x, y)],
                    [sec * u + c * v for u, v in zip(x, y)])
            rows[p], rows[q] = x, y
            norms[p], norms[q] = _norm(x), _norm(y)
        if not rotated:
            break
    return sorted(norms, reverse=True)


def _certified_rank(rows: list[list[complex]]) -> int | None:
    """3 or 2 when bounds on the singular values of the 3 x n matrix A
    with these rows clear tol sigma_1 (tol = APPROX_RANK_TOL) by a factor
    2 or more; else None.  Rank 3: sigma_3 >= 2 |det M| / |M|_F^2 for
    columns M (interlacing; sigma_1 sigma_2 <= |M|_F^2 / 2 on M) and
    sigma_1 <= |A|_F.  Rank 2: sigma_2 >= |u x v| / |(u, v)|_F for columns
    u, v, and sigma_3 <= |x^H A|, x = conj(u x v) / |u x v|, while sigma_1
    is at least each column norm.  Consecutive columns are tried.  After
    scaling by the largest column norm, with norms from math.hypot, an
    underflow can only shrink det M or u x v; rounding moves the bounds by
    about 10u/tol (1e-7) relative, far inside the factor 2."""
    norms = [math.hypot(a.real, a.imag, b.real, b.imag, c.real, c.imag)
             for a, b, c in zip(*rows)]
    scale = max(norms, default=0.0)
    if not 0.0 < scale < math.inf:
        return None
    cols = [(a / scale, b / scale, c / scale) for a, b, c in zip(*rows)]
    norms = [x / scale for x in norms]  # the largest is 1
    limit = 2.0 * APPROX_RANK_TOL * math.hypot(*norms)
    crosses = []  # of columns (j, j + 1)
    for j, ((a, b, c), (d, e, f)) in enumerate(zip(cols, cols[1:])):
        if crosses:  # the triple (j - 1, j, j + 1)
            p, q, r = crosses[-1]
            det = p * d + q * e + r * f
            if det and 2.0 * abs(det) / math.hypot(*norms[j - 1:j + 2]) ** 2 \
                    > limit:
                return 3
        crosses.append((b * f - c * e, c * d - a * f, a * e - b * d))
    for j, y in enumerate(crosses):
        ny = _norm(y)
        if ny and ny / math.hypot(*norms[j:j + 2]) > limit:
            p, q, r = [t / ny for t in y]
            xa = math.hypot(*[abs(p * a + q * b + r * c) for a, b, c in cols])
            return 2 if xa < 0.5 * APPROX_RANK_TOL else None
    return None


def frame_rank(f: TangentFrame) -> int:
    """Rank of the frame: _numerator_rank (a column scaled by its
    denominator keeps the rank), or the count of singular values above
    APPROX_RANK_TOL sigma_1: _certified_rank's, else _singular_values'."""
    if f.exact:
        return _numerator_rank(f._numerators
                               or map(_column_numerators, f.columns))
    if f.columns and is_poly(f.columns[0][0]):
        raise PreconditionError("rank needs a numeric point")
    n = len(f.columns)
    flat = require_all_finite([col[i] for i in range(3) for col in f.columns])
    rows = [flat[:n], flat[n:2 * n], flat[2 * n:]]
    rank = _certified_rank(rows)
    if rank is not None:
        return rank
    sv = _singular_values(rows)
    if sv[0] == 0.0:
        return 0
    return sum(1 for s in sv if s > APPROX_RANK_TOL * sv[0])


def check_lemma_submersive(n: int, samples: int, seed: int = 0) -> dict:
    """Sample rank behaviour: 3 off the singular set, < 3 on it.

    Random points are exact Gaussian rationals with at least one interior
    coordinate forced nonzero; singular probes run over (z1, 0, .., 0, zN)
    corners.  Returns a report dict; an empty "violations" list is the
    expected outcome.
    """
    if n < 4:
        raise PreconditionError("submersivity testing needs N >= 4")
    if samples < 0:
        raise PreconditionError(f"sample count must be nonnegative, got {samples}")
    from ._random import random_exact, random_exact_nonzero, rng_from_seed
    rng = rng_from_seed(seed)
    t = PhiTemplate(n)
    violations = []
    for i in range(samples):
        pt = [random_exact(rng) for _ in range(n)]
        # force a nonzero interior coordinate so the point avoids S_N
        idx = rng.randrange(1, n - 1)
        pt[idx] = random_exact_nonzero(rng)
        rank = frame_rank(sl2_jacobian(t, pt))
        if rank != 3:
            violations.append({"index": i, "rank": rank})
    singular_ranks = []
    probes = [(0, 0), (1, 0), (0, 1), (5, 7), (-3, 2)]
    for z1, zn in probes:
        pt = [ExactComplex(z1)] + [ExactComplex(0)] * (n - 2) + [ExactComplex(zn)]
        assert in_singular_set(pt, n)
        rank = frame_rank(sl2_jacobian(t, pt))
        singular_ranks.append(rank)
        if rank >= 3:
            violations.append({"singular_probe": [z1, zn], "rank": rank})
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "violations": violations,
        "singular_ranks": singular_ranks,
    }


class VectorFieldSpec(_Record):
    """Field P_l d/dz_k - P_k d/dz_l on the variables of the polynomial P.

    k and l are 0-based indices into P's variables.  Instances come from
    v_field_spec (interior variables, P = Q1 of the middle word) or
    w_field_spec (leading variables, P the upper-right entry of the
    truncated word); arbitrary P is allowed.  The derived polynomials
    are computed once, on first use, into the instance __dict__.
    """

    __slots__ = ("p", "k", "l", "__dict__")
    _fields = ("p", "k", "l")

    def __init__(self, p: MultiPoly, k: int, l: int):
        if k == l:
            raise PreconditionError("field indices must differ")
        for idx in (k, l):
            if not 0 <= idx < p.nvars:
                raise PreconditionError(f"index {idx} out of range")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)

    @cached_property
    def pk(self) -> MultiPoly:
        return self.p.diff(self.k)

    @cached_property
    def pl(self) -> MultiPoly:
        return self.p.diff(self.l)

    @cached_property
    def pfun(self):
        """Float evaluator of P, which flow_rk4 measures its drift with."""
        from .exact_algebra import compile_approx
        return compile_approx(self.p)

    @cached_property
    def float_partials(self) -> tuple:
        """P_l and P_k as flow_rk4 folds them: per term, the key (exponent
        of z_k, exponent of z_l), the complex coefficient, and the nonzero
        (index, exponent) pairs of the other variables."""
        from .exact_algebra import approx_terms
        k, l = self.k, self.l

        def fold_input(q: MultiPoly) -> list:
            return [((exp[k], exp[l]), c,
                     tuple(f for f in factors if f[0] != k and f[0] != l))
                    for exp, c, factors in approx_terms(q)]
        return fold_input(self.pl), fold_input(self.pk)


def v_field_spec(n: int, k: int, l: int, level_var: bool = False
                 ) -> VectorFieldSpec:
    """Interior field on z_2..z_{N-1} conserving Q1 (k, l are z-indices).

    With level_var=True the polynomial becomes Q1 - a in one extra
    variable, the form used for the symbolic tangency identity.
    """
    from .exact_algebra import MultiPoly, poly_embed
    if not 2 <= k < l <= n - 1:
        raise PreconditionError("need 2 <= k < l <= N-1")
    q1 = middle_Q(n)[0]
    p = q1
    if level_var:
        m = q1.nvars
        p = poly_embed(q1, m + 1, 0) - MultiPoly.variable(m + 1, m)
    return VectorFieldSpec(p, k - 2, l - 2)


def w_field_spec(n: int, k: int, l: int) -> VectorFieldSpec:
    """Field on z_1..z_{N-2} conserving the upper-right entry of the
    truncated product M_1(z_1)...M_{N-2}(z_{N-2})."""
    if not 1 <= k < l <= n - 2:
        raise PreconditionError("need 1 <= k < l <= N-2")
    # setting the last two coordinates of Phi_N to zero just drops the
    # last two factors, so the entry is Phi_{N-2}^{12}; the first factor
    # is lower triangular, so z_1 never appears in it
    p = expand_phi(PhiTemplate(n - 2)).b
    return VectorFieldSpec(p, k - 1, l - 1)


def vfield_apply(spec: VectorFieldSpec, q: MultiPoly) -> MultiPoly:
    """Apply the derivation: P_l * dq/dz_k - P_k * dq/dz_l."""
    if q.nvars != spec.p.nvars:
        raise PreconditionError("variable-count mismatch")
    return spec.pl * q.diff(spec.k) - spec.pk * q.diff(spec.l)


class FlowResult(_Record):
    __slots__ = _fields = ("end", "p_start", "p_end")

    def __init__(self, end: tuple, p_start: complex, p_end: complex):
        self._set(end, p_start, p_end)

    @property
    def drift(self) -> complex:
        return self.p_end - self.p_start


def _fold(terms: list, point: Sequence[complex]) -> dict:
    """A partial from VectorFieldSpec.float_partials with every coordinate
    but z_k and z_l fixed at point: a dict from (exponent of z_k, exponent
    of z_l) to the folded coefficient."""
    folded: dict[tuple[int, int], complex] = {}
    for key, v, factors in terms:
        for j, e in factors:
            x = point[j]
            v *= x if e == 1 else x ** e
        folded[key] = folded.get(key, 0j) + v
    return folded


def _folded_value(terms: dict, a: complex, b: complex) -> complex:
    acc = 0j
    for (ek, el), c in terms.items():
        if ek == 1:
            c *= a
        elif ek:
            c *= a ** ek
        if el == 1:
            c *= b
        elif el:
            c *= b ** el
        acc += c
    return acc


def _affine_pair(pl: dict, pk: dict):
    """(C, D_k, B, D_l) when the folded P_l is C + D_k z_k and the folded
    P_k is B + D_l z_l, else None."""
    if pl.keys() <= {(0, 0), (1, 0)} and pk.keys() <= {(0, 0), (0, 1)}:
        return (pl.get((0, 0), 0j), pl.get((1, 0), 0j),
                pk.get((0, 0), 0j), pk.get((0, 1), 0j))
    return None


def _rk4_gain(h: float, lam: complex) -> complex:
    """g with one classical RK4 step of y' = lam y + mu equal to
    y + g (lam y + mu): h (1 + x/2 + x^2/6 + x^3/24), x = h lam."""
    x = h * lam
    return h * (1 + x * (0.5 + x * (1 / 6 + x / 24)))


def flow_rk4(spec: VectorFieldSpec, start: Sequence, t: float, step: float,
             direction: complex = 1.0) -> FlowResult:
    """Integrate the field with classical fixed-step RK4.

    Only z_k and z_l move.  The other coordinates of `start` are
    substituted into P_k and P_l once, which leaves two polynomials in
    (z_k, z_l), and the scheme runs on those two scalars.  `p_start` and
    `p_end` evaluate the full P, so the drift checks the folded field
    independently.

    Every field that v_field_spec and w_field_spec build folds to an
    affine pair, P_l = C + D_k z_k and P_k = B + D_l z_l: then z_k and z_l
    follow two decoupled linear ODEs, and one RK4 step of y' = lam y + mu
    is exactly y + g (lam y + mu) with g from the step alone.  That
    increment is computed once per step and coordinate, with g computed
    once per flow (again for a partial last step).  Any other P runs the
    four stage evaluations of the folded polynomials.

    `direction` multiplies the field by a unit scalar (i gives the
    imaginary-time flow, useful for long-time runs of fields whose
    real-time orbits grow exponentially); the conserved quantity is
    unaffected because the field kills P either way.  t, step and
    direction must be finite, and ceil(t/step) at most MAX_FLOW_STEPS.
    """
    if not (math.isfinite(t) and math.isfinite(step)):
        raise PreconditionError("flow time and step must be finite")
    if step <= 0:
        raise PreconditionError("step must be positive")
    if t < 0:
        raise PreconditionError("nonnegative time only")
    if t / step > MAX_FLOW_STEPS:
        raise PreconditionError(f"t/step = {t / step:.6g} steps is above "
                                f"the ceiling {MAX_FLOW_STEPS} of one flow")
    d = require_finite(direction)
    state = require_all_finite(start)
    if len(state) != spec.p.nvars:
        raise PreconditionError("start point has wrong length")
    k, l = spec.k, spec.l
    # dz_k/dt = d P_l and dz_l/dt = -d P_k, on the moving pair alone
    fl, fk = spec.float_partials
    pl, pk = _fold(fl, state), _fold(fk, state)
    nd = -d
    pfun = spec.pfun
    p_start = pfun(state)
    a, b = state[k], state[l]
    remaining = float(t)
    affine = _affine_pair(pl, pk)
    if affine is not None:
        c, dk, bb, dl = affine
        # z_k' = lam_k z_k + mu_k and z_l' = lam_l z_l + mu_l
        lam_k, mu_k, lam_l, mu_l = d * dk, d * c, nd * dl, nd * bb
        gk, gl = _rk4_gain(step, lam_k), _rk4_gain(step, lam_l)
        while remaining > 1e-15:
            if remaining >= step:
                h = step
            else:
                h = remaining
                gk, gl = _rk4_gain(h, lam_k), _rk4_gain(h, lam_l)
            a += gk * (lam_k * a + mu_k)
            b += gl * (lam_l * b + mu_l)
            remaining -= h
        # inf and nan never turn finite again, so one check at the end
        # catches an overflow at any step
        a, b = require_finite(a), require_finite(b)
    else:
        while remaining > 1e-15:
            h = step if remaining >= step else remaining
            half = 0.5 * h
            a1, b1 = d * _folded_value(pl, a, b), nd * _folded_value(pk, a, b)
            x, y = a + half * a1, b + half * b1
            a2, b2 = d * _folded_value(pl, x, y), nd * _folded_value(pk, x, y)
            x, y = a + half * a2, b + half * b2
            a3, b3 = d * _folded_value(pl, x, y), nd * _folded_value(pk, x, y)
            x, y = a + h * a3, b + h * b3
            a4, b4 = d * _folded_value(pl, x, y), nd * _folded_value(pk, x, y)
            a = require_finite(a + h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4))
            b = require_finite(b + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4))
            remaining -= h
    state[k], state[l] = a, b
    return FlowResult(tuple(state), p_start, pfun(state))
