##
## The exact determinant check, the exact replay, the exact fiber solves,
## the exact frame rank, the ExactComplex arithmetic and the polynomial
## kernel decide against sympy's Gaussian rationals, an oracle that shares
## no code with the library: near-misses one unit of a 10-digit
## denominator away from the truth must be refused, the truth accepted,
## every solved fiber point must satisfy the fiber equations, every rank
## must be sympy's, the frame's minor on consecutive columns must be the
## middle coordinate, every sum, difference, product and quotient must be
## sympy's value, and every MultiPoly sum, difference, product, derivative
## and middle polynomial must be sympy.Poly's, in canonical coefficients
##

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix

from sl2factor.errors import PreconditionError, VerificationError
from sl2factor.exact_algebra import MultiPoly
from sl2factor.fiber_solver import (complete_generic_even,
                                    complete_nongeneric_even, complete_odd,
                                    interior_sample)
from sl2factor.scalars import ExactComplex
from sl2factor.submersion_spray import TangentFrame, frame_rank, sl2_jacobian
from sl2factor.word_core import (LOWER, SL2, UPPER, PhiTemplate, Word, _sl2,
                                 middle_Q, replay)

QQ, QQ_I = sympy.QQ, sympy.QQ_I
I = QQ_I(0, 1)
BIG = 10 ** 10


def _gauss(re_num, re_den, im_num, im_den):
    return QQ_I(QQ(re_num, re_den), QQ(im_num, im_den))


small = st.builds(_gauss, st.integers(-3, 3), st.integers(1, 4),
                  st.integers(-3, 3), st.integers(1, 4))
ten_digit = st.builds(_gauss, st.integers(-BIG + 1, BIG - 1),
                      st.integers(1, BIG - 1), st.integers(-BIG + 1, BIG - 1),
                      st.integers(1, BIG - 1))
gaussians = st.one_of(small, ten_digit)


def _exact(x) -> ExactComplex:
    return ExactComplex(Fraction(int(x.x.numerator), int(x.x.denominator)),
                        Fraction(int(x.y.numerator), int(x.y.denominator)))


@given(gaussians, gaussians, gaussians, st.integers(BIG // 10, BIG - 1),
       st.sampled_from([1, -1, I, -I, 0]))
@settings(max_examples=200, deadline=None)
def test_sl2_accepts_exactly_det_one(a, b, c, den, miss):
    assume(a)
    # d is chosen so that ad - bc = 1 + miss/den
    d = (QQ_I.one + b * c + miss * QQ_I(QQ(1, den), 0)) / a
    unimodular = a * d - b * c == QQ_I.one
    try:
        SL2(*map(_exact, (a, b, c, d)))
        accepted = True
    except PreconditionError:
        accepted = False
    assert accepted == unimodular
    assert unimodular == (miss == 0)


def _canonical(x):
    """(p, q, d) with x = (p + q i)/d, d > 0 the least common denominator."""
    d = sympy.ilcm(x.x.denominator, x.y.denominator)
    return (int(x.x.numerator * (d // x.x.denominator)),
            int(x.y.numerator * (d // x.y.denominator)), int(d))


def _times(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


@given(st.lists(gaussians, min_size=1, max_size=5), st.booleans(),
       st.integers(0, 3), st.sampled_from(["re", "im", "den"]),
       st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_replay_refuses_a_target_one_unit_off(entries, lower_first, which,
                                              part, step):
    sides = [(LOWER if (i % 2 == 0) == lower_first else UPPER)
             for i in range(len(entries))]
    one, zero = QQ_I.one, QQ_I.zero
    m = (one, zero), (zero, one)
    for side, g in zip(sides, entries):
        m = _times(m, ((one, zero), (g, one)) if side == LOWER
                   else ((one, g), (zero, one)))
    truth = [*m[0], *m[1]]
    word = Word.of(*zip(sides, map(_exact, entries)))

    p, q, d = _canonical(truth[which])
    if part == "re":
        p += step
    elif part == "im":
        q += step
    else:
        d = d + step or 2  # a denominator of 1 moves up, not to 0
    moved = list(truth)
    moved[which] = QQ_I(QQ(p, d), QQ(q, d))
    # one moved entry breaks det = 1, so the target is built unchecked
    target = _sl2(*map(_exact, moved))
    same = truth == moved
    try:
        replay(word, target)
        accepted = True
    except VerificationError:
        accepted = False
    assert accepted == same
    # the true product itself always replays
    assert replay(word, _sl2(*map(_exact, truth))) == 0


def _sympy(x) -> "QQ_I":
    return QQ_I(QQ(x.re.numerator, x.re.denominator),
                QQ(x.im.numerator, x.im.denominator))


nonzero = gaussians.filter(bool)


@given(st.sampled_from(["generic even", "nongeneric even", "generic odd",
                        "nongeneric odd"]),
       st.integers(2, 4), nonzero, gaussians, gaussians, gaussians,
       st.integers(0, 2 ** 16))
@settings(max_examples=200, deadline=None)
def test_exact_fiber_points_satisfy_the_fiber_equations(branch, half, x, y,
                                                        w, z1, seed):
    even = branch.endswith("even")
    n = 2 * half + (0 if even else 1)
    # a target of the branch with det 1, its pivot x when generic
    if branch == "generic even":
        a, b, c = x, y, w
        d = (1 + b * c) / a
    elif branch == "nongeneric even":
        a, b, c, d = QQ_I.zero, x, -1 / x, w
    elif branch == "generic odd":
        a, b, d = y, x, w
        c = (a * d - 1) / b
    else:
        a, b, c, d = x, QQ_I.zero, w, 1 / x
    target = SL2(*map(_exact, (a, b, c, d)))
    generic = branch.startswith("generic")
    level = (a if even else b) if generic else (b if even else a)
    stratum = "Q1" if even == generic else "Q2"
    ip = interior_sample(n, _exact(level), stratum, seed=seed)
    if branch == "generic even":
        fc = complete_generic_even(target, ip)
    elif branch == "nongeneric even":
        fc = complete_nongeneric_even(target, _exact(z1), ip.values[:-1])
    else:
        fc = complete_odd(target, ip, branch.split()[0], z1=_exact(z1))
    point = [_sympy(v) for v in fc.point]
    assert len(point) == n and fc.verified
    if not generic:
        assert point[0] == z1
    # Q = M_2(z_2) ... M_{N-1}(z_{N-1}), upper factor first
    one, zero = QQ_I.one, QQ_I.zero
    m = (one, zero), (zero, one)
    for j, g in enumerate(point[1:-1]):
        m = _times(m, ((one, g), (zero, one)) if j % 2 == 0
                   else ((one, zero), (g, one)))
    (q1, q2), (q3, q4) = m
    first, last = point[0], point[-1]
    if even:  # Phi_N = L(z_1) Q U(z_N)
        assert (a, b, c, d) == (q1, q2 + q1 * last, q3 + q1 * first,
                                q4 + q2 * first + q3 * last
                                + q1 * first * last)
    else:  # Phi_N = L(z_1) Q L(z_N)
        assert (a, b, c, d) == (q1 + q2 * last, q2,
                                q3 + q1 * first + (q4 + q2 * first) * last,
                                q4 + q2 * first)
    if branch == "generic even":
        assert _sympy(fc.eq4_residual) == zero
    else:
        assert fc.eq4_residual is None


def _oracle_rank(columns) -> int:
    """sympy's rank of the 3 x N matrix with these QQ_I columns."""
    matrix = sympy.Matrix([[QQ_I.to_sympy(col[i]) for col in columns]
                           for i in range(3)])
    return matrix.rank()


@given(st.integers(4, 8), st.lists(gaussians, min_size=8, max_size=8),
       st.sampled_from(["off", "on", "sparse"]), st.data())
@settings(max_examples=150, deadline=None)
def test_exact_frame_rank_is_sympys(n, coords, where, data):
    point = coords[:n]
    if where == "on":  # S_N: every interior coordinate zero
        point[1:-1] = [QQ_I.zero] * (n - 2)
    elif where == "sparse":  # off S_N unless every interior one is zero
        zeros = data.draw(st.sets(st.integers(0, n - 1)))
        point = [QQ_I.zero if j in zeros else x for j, x in enumerate(point)]
    # column j is A_j E_j A_j^-1 in (e21, e12, d12), A_j = M_1...M_{j-1}
    one, zero = QQ_I.one, QQ_I.zero
    (a, b), (c, d) = (one, zero), (zero, one)
    columns = []
    for j, x in enumerate(point):
        if j % 2 == 0:  # lower factor
            columns.append((d * d, -b * b, b * d))
            (a, b), (c, d) = _times(((a, b), (c, d)), ((one, zero), (x, one)))
        else:
            columns.append((-c * c, a * a, -a * c))
            (a, b), (c, d) = _times(((a, b), (c, d)), ((one, x), (zero, one)))
    frame = sl2_jacobian(PhiTemplate(n), [_exact(x) for x in point])
    rank = _oracle_rank(columns)
    assert frame_rank(frame) == rank
    assert rank == (2 if all(x == zero for x in point[1:-1]) else 3)
    assert [tuple(map(_sympy, col)) for col in frame.columns] == columns


@given(st.integers(0, 3), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_hand_built_exact_frame_rank_is_sympys(rank, n, data):
    # columns drawn from the span of `rank` vectors: mixed denominators
    # within a column and across columns
    basis = data.draw(st.lists(st.lists(gaussians, min_size=3, max_size=3),
                               min_size=rank, max_size=rank))
    columns = []
    for _ in range(n):
        weights = data.draw(st.lists(st.one_of(st.just(QQ_I.zero), small),
                                     min_size=rank, max_size=rank))
        columns.append(tuple(sum((w * v[i] for w, v in zip(weights, basis)),
                                 QQ_I.zero) for i in range(3)))
    frame = TangentFrame(tuple(tuple(map(_exact, col)) for col in columns),
                         True)
    expected = _oracle_rank(columns)
    assert frame_rank(frame) == expected <= min(rank, n)


@pytest.mark.parametrize("n", range(4, 9))
def test_consecutive_minor_is_the_middle_coordinate(n):
    # the submersion lemma's identity, from sympy's own matrices: column j
    # is A_j E_j A_j^-1, read as (e21, e12, d12), with A_j the prefix
    # product; the minor on columns (j-1, j, j+1) is z_j
    z = sympy.symbols(f"z1:{n + 1}")
    ring = sympy.ZZ.poly_ring(*z)
    e21, e12 = sympy.Matrix([[0, 0], [1, 0]]), sympy.Matrix([[0, 1], [0, 0]])
    prefix, columns = sympy.eye(2), []
    for j, x in enumerate(z):
        lower = j % 2 == 0
        ad = prefix * (e21 if lower else e12) * prefix.adjugate()  # det 1
        columns.append([ad[1, 0], ad[0, 1], ad[0, 0]])
        prefix = prefix * (sympy.Matrix([[1, 0], [x, 1]]) if lower
                           else sympy.Matrix([[1, x], [0, 1]]))
    for j in range(1, n - 1):
        minor = DomainMatrix.from_Matrix(sympy.Matrix(
            [columns[j - 1], columns[j], columns[j + 1]])).convert_to(ring)
        assert minor.det() == ring.from_sympy(z[j])


# ranks 0 to 3, each entry over its own denominator, ints and Fractions
# among them (frame_rank coerces a hand-built frame's entries)
F = Fraction
HAND_BUILT = {
    0: [(0, F(0), ExactComplex(0))] * 3,
    1: [(F(1, 3), ExactComplex(F(2, 7)), ExactComplex(0, 5)),
        (F(-1, 6), ExactComplex(F(-1, 7)), ExactComplex(0, F(-5, 2))),
        (0, 0, 0)],
    2: [(F(1, 3), 0, ExactComplex(F(1, 2))),
        (0, ExactComplex(F(5, 9), 1), 0),
        (F(2, 3), ExactComplex(F(5, 9), 1), 1)],
    3: [(ExactComplex(F(10 ** 10 + 1, 7)), 0, 0),
        (F(1, 11), ExactComplex(0, F(3, 13)), 0),
        (1, F(2, 17), ExactComplex(F(-4, 19), 1))],
}


@pytest.mark.parametrize("rank", sorted(HAND_BUILT))
def test_hand_built_frames_of_each_rank(rank):
    columns = HAND_BUILT[rank]
    frame = TangentFrame(tuple(columns), True)
    oracle = [tuple(_sympy(ExactComplex.coerce(x)) for x in col)
              for col in columns]
    assert frame_rank(frame) == _oracle_rank(oracle) == rank


# the four field operations on ExactComplex, whose result must be the
# canonical triple of sympy's value

OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
       "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@given(st.sampled_from(sorted(OPS)), gaussians, gaussians)
@settings(max_examples=300, deadline=None)
def test_exact_complex_arithmetic_is_sympys(op, x, y):
    assume(op != "/" or y)
    got = OPS[op](_exact(x), _exact(y))
    assert got._pqd == _canonical(OPS[op](x, y))


# MultiPoly against sympy.Poly over QQ_I: 1-3 variables, exponents up to 3,
# at least two terms a factor so that every product is deferred, and the
# coefficients of each result compared as canonical triples


def _terms(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), nonzero,
                           min_size=2, max_size=5)


def _pair(terms, nvars):
    """The MultiPoly and the sympy.Poly of an {exponent: QQ_I} dict."""
    gens = sympy.symbols(f"x0:{nvars}")
    return (MultiPoly(nvars, {e: _exact(c) for e, c in terms.items()}),
            sympy.Poly.from_dict(terms, *gens, domain=QQ_I))


def _assert_same(got: MultiPoly, want) -> None:
    assert {e: c._pqd for e, c in got.terms.items()} == \
        {e: _canonical(c) for e, c in want.as_dict(native=True).items()}


POLY_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
            "*": lambda x, y: x * y}


@given(st.sampled_from(sorted(POLY_OPS)), st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_poly_ring_operations_are_sympys(op, nvars, data):
    (x, sx), (y, sy) = (_pair(data.draw(_terms(nvars)), nvars)
                        for _ in range(2))
    _assert_same(POLY_OPS[op](x, y), POLY_OPS[op](sx, sy))


@given(st.integers(1, 3), st.data())
@settings(max_examples=75, deadline=None)
def test_poly_determinant_sum_is_sympys(nvars, data):
    (a, sa), (b, sb), (c, sc), (d, sd) = (
        _pair(data.draw(_terms(nvars)), nvars) for _ in range(4))
    _assert_same(a * d - b * c, sa * sd - sb * sc)


@given(st.integers(1, 3), st.data())
@settings(max_examples=75, deadline=None)
def test_poly_derivative_is_sympys(nvars, data):
    x, sx = _pair(data.draw(_terms(nvars)), nvars)
    var = data.draw(st.integers(0, nvars - 1))
    _assert_same(x.diff(var), sx.diff(sx.gens[var]))


@pytest.mark.parametrize("n", range(3, 11))
def test_middle_polynomials_are_sympys(n):
    # M_2(z_2) ... M_{N-1}(z_{N-1}), upper factor first
    gens = sympy.symbols(f"z2:{n}")
    m = sympy.eye(2)
    for j, z in enumerate(gens):
        m = m * (sympy.Matrix([[1, z], [0, 1]]) if j % 2 == 0
                 else sympy.Matrix([[1, 0], [z, 1]]))
    for got, entry in zip(middle_Q(n), m):
        _assert_same(got, sympy.Poly(entry, *gens, domain=QQ_I))
