##
## Jacobian frames, rank checks, tangent vector fields and their flows
##

import cmath
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sl2factor
from sl2factor import submersion_spray
from sl2factor.errors import PreconditionError
from sl2factor.exact_algebra import ExactComplex, MultiPoly, compile_approx
from sl2factor.submersion_spray import (
    APPROX_RANK_TOL, MAX_FLOW_STEPS, TangentFrame, VectorFieldSpec,
    _affine_pair, _certified_rank, _fold, _singular_values,
    check_lemma_submersive, flow_rk4, frame_minor_det, frame_rank,
    sl2_jacobian, v_field_spec, vfield_apply, w_field_spec)
from sl2factor.word_core import PhiTemplate, middle_Q


def test_known_columns_on_singular_point():
    frame = sl2_jacobian(PhiTemplate(4), [ExactComplex(v)
                                          for v in (5, 0, 0, 7)])
    cols = [[c for c in col] for col in frame.columns]
    expect = [(1, 0, 0), (-25, 1, -5), (1, 0, 0), (-25, 1, -5)]
    for col, exp in zip(cols, expect):
        assert col == [ExactComplex(x) for x in exp]
    assert frame.exact
    assert frame_rank(frame) == 2


def test_rank_three_off_singular_set():
    frame = sl2_jacobian(PhiTemplate(4), [ExactComplex(v)
                                          for v in (1, 1, 1, 1)])
    assert frame_rank(frame) == 3


# a 10-digit point off S_6, and one on it
BIG_POINTS = [
    [ExactComplex(12345678901, 7), ExactComplex(3, 11) + ExactComplex(0, 2),
     ExactComplex(-2718281828, 3141592653), ExactComplex(0, 9876543211),
     ExactComplex(5, 1234567891), ExactComplex(-1, 3)],
    [ExactComplex(12345678901, 7)] + [ExactComplex(0)] * 4
    + [ExactComplex(-2718281828, 3141592653) + ExactComplex(0, 1)],
]


def _count_reductions(monkeypatch) -> list:
    from sl2factor import scalars, word_core
    calls = []

    def counting(p, q, d, reduced=scalars._reduced):
        calls.append((p, q, d))
        return reduced(p, q, d)

    for module in (scalars, word_core, submersion_spray):
        monkeypatch.setattr(module, "_reduced", counting)
    return calls


@pytest.mark.parametrize("point,rank", zip(BIG_POINTS, (3, 2)),
                         ids=["off", "on"])
def test_exact_frame_reduces_only_when_its_columns_are_read(
        monkeypatch, point, rank):
    calls = _count_reductions(monkeypatch)
    frame = sl2_jacobian(PhiTemplate(6), point)
    assert frame_rank(frame) == rank and frame.exact
    assert calls == []
    columns = frame.columns
    assert len(calls) == 3 * 6
    assert frame.columns is columns and len(calls) == 3 * 6
    assert frame_rank(frame) == rank and len(calls) == 3 * 6


@pytest.mark.parametrize("point", BIG_POINTS, ids=["off", "on"])
def test_lazy_exact_frame_keeps_the_record_contract(point):
    lazy = sl2_jacobian(PhiTemplate(6), point)
    built = TangentFrame(sl2_jacobian(PhiTemplate(6), point).columns, True)
    assert repr(lazy) == repr(built)
    assert lazy == built and built == lazy and hash(lazy) == hash(built)
    for frame in (sl2_jacobian(PhiTemplate(6), point), built):
        copied = pickle.loads(pickle.dumps(frame))
        assert copied == lazy and hash(copied) == hash(lazy)
        assert copied.columns == built.columns and copied.exact
    with pytest.raises(AttributeError, match="immutable"):
        lazy.columns = built.columns


def test_symbolic_minor_det():
    z2 = MultiPoly.variable(1, 0)
    zero = MultiPoly.zero(1)
    frame = sl2_jacobian(PhiTemplate(3), (zero, z2, zero))
    assert frame_minor_det(frame, (0, 1, 2)) == z2


def test_approx_rank():
    frame = sl2_jacobian(PhiTemplate(5), [0.3, 1.1, -0.7, 0.2, 0.9])
    assert not frame.exact
    assert frame_rank(frame) == 3
    singular = sl2_jacobian(PhiTemplate(5), [2.0, 0.0, 0.0, 0.0, 3.0])
    assert frame_rank(singular) < 3


@pytest.mark.parametrize("columns,rank", [
    ((), 0),
    (((0j, 0j, 0j),), 0),
    (((1.0, 2j, -0.5),), 1),
    (((1.0, 2j, -0.5), (-2.0, -4j, 1.0)), 1),
    (((1.0, 2j, -0.5), (0.5j, 3.0, 1.0)), 2),
], ids=["empty", "zero column", "one column", "parallel", "two columns"])
def test_frames_of_fewer_than_three_columns(columns, rank):
    frame = TangentFrame(columns, False)
    assert frame_rank(frame) == rank
    if rank:
        assert _oracle_rank(frame)[0] == rank
    # the bounds decide only the independent pair; the rest is Jacobi's
    rows = [[col[i] for col in columns] for i in range(3)]
    assert _certified_rank(rows) == (2 if rank == 2 else None)
    exact = TangentFrame(tuple(tuple(ExactComplex(Fraction(x.real),
                                                  Fraction(x.imag))
                                     for x in map(complex, col))
                               for col in columns), True)
    assert frame_rank(exact) == rank


def _oracle_rank(frame) -> tuple[int, bool]:
    """Rank by LAPACK's SVD, the reference for the pure-Python Jacobi, and
    whether a singular value lies within a relative 1e-6 of the threshold,
    where rounding decides the rank in either implementation."""
    np = pytest.importorskip("numpy")
    mat = np.array([[complex(col[i]) for col in frame.columns]
                    for i in range(3)])
    sv = np.linalg.svd(mat, compute_uv=False)
    near = any(abs(s / sv[0] / APPROX_RANK_TOL - 1) <= 1e-6 for s in sv)
    return int(np.sum(sv > APPROX_RANK_TOL * sv[0])), near


def _svd_matrix(n: int, seed: int, sigma: list[float], scale: float):
    """U diag(sigma) V^H times scale, with a random unitary U (3 x 3)
    and orthonormal V (N x 3), and sigma sorted largest first."""
    np = pytest.importorskip("numpy")
    rng = np.random.default_rng(seed)

    def orthonormal(rows):
        z = rng.normal(size=(rows, 3)) + 1j * rng.normal(size=(rows, 3))
        return np.linalg.qr(z)[0]

    sigma = np.array(sorted(sigma, reverse=True))
    return orthonormal(3) @ np.diag(sigma * scale) @ orthonormal(n).conj().T


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**32 - 1),
       log_s2=st.floats(-10, 0), log_s3=st.floats(-10, -6),
       log_scale=st.floats(-100, 100))
def test_rank_matches_svd_near_threshold(n, seed, log_s2, log_s3, log_scale):
    # sigma_3/sigma_1 spans the threshold 1e-8
    np = pytest.importorskip("numpy")
    sigma = [1.0, 10 ** log_s2, 10 ** log_s3]
    mat = _svd_matrix(n, seed, sigma, 10 ** log_scale)
    frame = TangentFrame(tuple(tuple(complex(x) for x in mat[:, j])
                               for j in range(n)), False)
    oracle, near = _oracle_rank(frame)
    assume(not near)
    assert frame_rank(frame) == oracle \
        == sum(s > APPROX_RANK_TOL for s in sigma)
    ref = np.linalg.svd(mat, compute_uv=False)
    got = _singular_values([list(row) for row in mat.tolist()])
    assert max(abs(g / got[0] - r / ref[0]) for g, r in zip(got, ref)) < 1e-13


# log10 of sigma_k / sigma_1 within a factor 8 of the threshold, where the
# bounds must leave the rank to the Jacobi sweep or agree with it
NEAR = st.floats(math.log10(APPROX_RANK_TOL / 8),
                 math.log10(8 * APPROX_RANK_TOL))


@settings(max_examples=400, deadline=None)
@given(n=st.integers(3, 9), seed=st.integers(0, 2**32 - 1),
       log_s2=st.one_of(st.floats(-10, 0), NEAR),
       log_s3=st.one_of(st.floats(-12, -6), NEAR),
       log_scale=st.sampled_from([-100, 0, 100]), spread=st.booleans())
def test_certified_rank_is_the_jacobi_count(n, seed, log_s2, log_s3,
                                            log_scale, spread):
    mat = _svd_matrix(n, seed, [1.0, 10 ** log_s2, 10 ** log_s3],
                      10.0 ** log_scale)
    rows = [[complex(x) for x in row] for row in mat.tolist()]
    if spread:  # column norms far apart, as in frames of Phi_N
        exps = random.Random(seed).choices(range(-3, 4), k=n)
        rows = [[x * 10.0 ** k for x, k in zip(row, exps)] for row in rows]
    rank = _certified_rank(rows)
    if rank is not None:
        sv = _singular_values(rows)
        assert rank == sum(s > APPROX_RANK_TOL * sv[0] for s in sv)


def _unit_complex(rng, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def test_bounds_decide_frames_away_from_the_threshold(monkeypatch):
    # frames of Phi_N off S_N and on it never run the sweep; one with
    # sigma_3 / sigma_1 at 1.5 tol, inside the factor 2, must
    swept = []

    def counted(rows):
        swept.append(rows)
        return _singular_values(rows)

    monkeypatch.setattr(submersion_spray, "_singular_values", counted)
    rng = random.Random(11)
    for n in range(4, 10):
        t = PhiTemplate(n)
        for _ in range(50):
            point = [_unit_complex(rng, 0.2, 2.0) for _ in range(n)]
            assert frame_rank(sl2_jacobian(t, point)) == 3
            point[1:-1] = [0j] * (n - 2)
            assert frame_rank(sl2_jacobian(t, point)) == 2
    assert swept == []
    mat = _svd_matrix(6, 5, [1.0, 0.5, 1.5 * APPROX_RANK_TOL], 1.0)
    frame = TangentFrame(tuple(tuple(complex(x) for x in mat[:, j])
                               for j in range(6)), False)
    assert frame_rank(frame) == 3 and len(swept) == 1
    # columns far apart in norm, sigma_3 / sigma_1 = 0.35 tol: the bound
    # of a minor must count the norm of each of its columns
    skew = TangentFrame(((1.0, 0.0, 0.0), (0.0, 1e-3, 0.0),
                         (1e-3, 1e-3, 5e-9)), False)
    assert frame_rank(skew) == _oracle_rank(skew)[0] == 2 and len(swept) == 2


coords = st.one_of(st.floats(-4, 4), st.complex_numbers(max_magnitude=4))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(4, 9), data=st.data())
def test_jacobian_rank_matches_svd(n, data):
    ends = data.draw(st.lists(coords, min_size=2, max_size=2))
    if data.draw(st.booleans()):
        interior = [0.0] * (n - 2)  # on S_N
    else:
        interior = data.draw(st.lists(coords, min_size=n - 2,
                                      max_size=n - 2))
    frame = sl2_jacobian(PhiTemplate(n), [ends[0], *interior, ends[1]])
    oracle, near = _oracle_rank(frame)
    assume(not near)
    assert frame_rank(frame) == oracle


@pytest.mark.parametrize("scale", [1e150, 1e-150])
def test_rank_at_extreme_scales(scale):
    # squared norms of these entries overflow or underflow unless the
    # rows are scaled first
    for point in ([0.3, 1.1, -0.7, 0.2, 0.9], [2.0, 0.0, 0.0, 0.0, 3.0],
                  [5.0, 1e-5, 0.0, 7.0], [5.0, 1e-9, 0.0, 7.0]):
        base = sl2_jacobian(PhiTemplate(len(point)), point)
        frame = TangentFrame(tuple(tuple(scale * x for x in col)
                                   for col in base.columns), False)
        assert frame_rank(frame) == frame_rank(base) \
            == _oracle_rank(frame)[0]
    assert frame_rank(TangentFrame(((0j, 0j, 0j),) * 4, False)) == 0
    # two rows far below the first: their inner product underflows
    cols = ((1, 2, 1j), (2j, -1, 3), (3, 1j, 1), (-1, 5, 2))
    tiny = TangentFrame(tuple((x, 1e-170 * y, 1e-170 * z)
                              for x, y, z in cols), False)
    assert frame_rank(tiny) == _oracle_rank(tiny)[0] == 1


def test_singular_frame_converges_in_a_few_sweeps(monkeypatch):
    # on S_N the third row becomes rounding noise that stays nearly
    # parallel to the others; chasing it would run to the sweep cap.
    # frame_rank decides these frames without the sweep, so it runs here
    # on the frame's rows
    norms = []
    norm = submersion_spray._norm

    def counted(row):
        norms.append(row)
        return norm(row)

    monkeypatch.setattr(submersion_spray, "_norm", counted)
    for n in (4, 6, 9):
        for ends in ((2.0, 3.0), (0.5 - 1.5j, 1.2 + 0.3j), (7j, -1.0)):
            point = [ends[0]] + [0.0] * (n - 2) + [ends[1]]
            columns = sl2_jacobian(PhiTemplate(n), point).columns
            rows = [[complex(col[i]) for col in columns] for i in range(3)]
            norms.clear()
            sv = _singular_values(rows)
            assert sum(s > APPROX_RANK_TOL * sv[0] for s in sv) == 2
            # three norms to start, then two per rotation: at most three
            # rotations a sweep, in four sweeps
            assert len(norms) <= 3 + 2 * 3 * 4


def test_rank_near_overflow():
    # these moduli exceed the largest double, so only a frame scaled by
    # its largest real or imaginary part can be measured at all; LAPACK
    # reports an infinite sigma_1 here
    big = 1.2e308 + 1.2e308j
    full = TangentFrame(((big, 1e308, 0j), (0j, big, 1e308),
                         (1e308, 0j, big), (big, big, 0j)), False)
    assert frame_rank(full) == 3
    line = TangentFrame(tuple((x * big, x * big / 2, 0j)
                              for x in (1, 0.5, -1, 1j)), False)
    assert frame_rank(line) == 1


def test_nonfinite_approx_jacobian_is_refused():
    with pytest.raises(PreconditionError):
        sl2_jacobian(PhiTemplate(4), [1e150, 1e150, 2.0, 3.0])
    with pytest.raises(PreconditionError):
        frame_rank(TangentFrame(((math.nan, 1.0, 0.0),) * 4, False))


def test_symbolic_frame_rank_is_refused():
    point = [MultiPoly.variable(4, i) for i in range(4)]
    with pytest.raises(PreconditionError, match="rank needs a numeric point"):
        frame_rank(sl2_jacobian(PhiTemplate(4), point))


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(sl2factor.__file__))
    code = "import sys, sl2factor.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=60,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"


def test_lemma_check_clean():
    rep = check_lemma_submersive(4, 25, seed=1)
    assert rep["violations"] == []
    assert all(r < 3 for r in rep["singular_ranks"])
    rep6 = check_lemma_submersive(6, 10, seed=2)
    assert rep6["violations"] == []


def test_lemma_check_refuses_negative_samples():
    with pytest.raises(PreconditionError):
        check_lemma_submersive(5, -5)
    assert check_lemma_submersive(5, 0)["violations"] == []


def test_field_spec_bounds():
    v_field_spec(5, 2, 4)
    with pytest.raises(PreconditionError):
        v_field_spec(5, 2, 5)  # l must stay interior
    with pytest.raises(PreconditionError):
        v_field_spec(5, 3, 3)  # k < l
    w_field_spec(5, 1, 3)
    with pytest.raises(PreconditionError):
        w_field_spec(5, 1, 4)


@pytest.mark.parametrize("n", range(4, 7))
def test_tangency_all_pairs(n):
    for k in range(2, n):
        for l in range(k + 1, n):
            spec = v_field_spec(n, k, l)
            assert vfield_apply(spec, spec.p).is_zero
            lifted = v_field_spec(n, k, l, level_var=True)
            assert vfield_apply(lifted, lifted.p).is_zero


@pytest.mark.parametrize("n", range(4, 7))
def test_w_field_tangency(n):
    for k in range(1, n - 1):
        for l in range(k + 1, n - 1):
            spec = w_field_spec(n, k, l)
            assert vfield_apply(spec, spec.p).is_zero


def test_level_var_spec_shape():
    spec = v_field_spec(4, 2, 3, level_var=True)
    # one extra variable for the level; P = Q1 - a
    assert spec.p.nvars == 3
    q1 = middle_Q(4)[0]
    at = (ExactComplex(2), ExactComplex(3), ExactComplex(0))
    assert spec.p.eval(at) == q1.eval(at[:2])


def test_flow_conserves_q1():
    spec = v_field_spec(4, 2, 3)
    res = flow_rk4(spec, [0.4 + 0.1j, -0.8 + 0.2j], t=1.0, step=1e-3)
    assert abs(res.drift) < 1e-8
    assert res.p_start == pytest.approx(res.p_end, abs=1e-8)


def test_flow_matches_linear_closed_form():
    # For N=4, P = 1 + z2 z3: dz2/dt = z2, dz3/dt = -z3
    spec = v_field_spec(4, 2, 3)
    z20, z30 = 0.3 + 0.2j, -0.5 + 0.1j
    res = flow_rk4(spec, [z20, z30], t=1.0, step=1e-3)
    assert abs(res.end[0] - z20 * math.e) < 1e-10
    assert abs(res.end[1] - z30 / math.e) < 1e-10


def test_flow_imaginary_direction_bounded():
    # rotating time keeps the linear flow on a torus; drift stays tiny
    spec = v_field_spec(4, 2, 3)
    res = flow_rk4(spec, [0.7, 0.6], t=5.0, step=1e-3, direction=1j)
    assert abs(res.end[0]) < 10
    assert abs(res.drift) < 1e-6
    # e^{it} closed form
    assert abs(res.end[0] - 0.7 * cmath.exp(5j)) < 1e-8


def test_flow_partial_last_step():
    spec = v_field_spec(4, 2, 3)
    a = flow_rk4(spec, [0.3, 0.4], t=0.0015, step=1e-3)
    b = flow_rk4(spec, [0.3, 0.4], t=0.0015, step=5e-4)
    assert abs(a.end[0] - b.end[0]) < 1e-12


def test_higher_n_flow():
    spec = v_field_spec(6, 3, 5)
    start = [0.2, -0.3, 0.15, 0.4]
    res = flow_rk4(spec, start, t=1.0, step=1e-3)
    assert abs(res.drift) < 1e-8


@pytest.mark.parametrize("kwargs", [
    {"t": math.inf, "step": 1e-3, "direction": 1j},
    {"t": math.nan, "step": 1e-3},
    {"t": -math.inf, "step": 1e-3}, {"t": 1.0, "step": math.nan},
    {"t": 1.0, "step": math.inf},
    {"t": 1.0, "step": 1e-3, "direction": complex(math.nan, 1.0)},
    {"t": 1.0, "step": 1e-3, "direction": math.inf},
])
def test_flow_refuses_nonfinite_time_step_and_direction(kwargs):
    # refused before the first step: an infinite t on a bounded orbit
    # never ran out, a nan t returned the start, and a nan or infinite
    # step took one step of length t
    with pytest.raises(PreconditionError):
        flow_rk4(v_field_spec(4, 2, 3), [0.3, 0.4], **kwargs)


def test_flow_step_ceiling():
    spec = v_field_spec(4, 2, 3)
    # 1e23 steps: `remaining -= h` no longer moved, so this never returned
    t0 = perf_counter()
    with pytest.raises(PreconditionError):
        flow_rk4(spec, [0.3, 0.4], t=1e20, step=1e-3, direction=1j)
    assert perf_counter() - t0 < 0.5
    # exactly at the ceiling (t/step is exact for step = 0.5) it runs; a
    # step of 0.5 keeps RK4 stable on this rotation
    res = flow_rk4(spec, [0.3, 0.4], t=MAX_FLOW_STEPS * 0.5, step=0.5,
                   direction=1j)
    assert all(cmath.isfinite(x) for x in res.end)
    with pytest.raises(PreconditionError):
        flow_rk4(spec, [0.3, 0.4], t=(MAX_FLOW_STEPS + 1) * 0.5, step=0.5,
                 direction=1j)


def _reference_rk4(spec, start, t, step, direction=1.0):
    """Classical RK4 on every coordinate with the full compiled P_k and
    P_l, the integrator flow_rk4 must reproduce."""
    state = [complex(x) for x in start]
    pk = compile_approx(spec.p.diff(spec.k))
    pl = compile_approx(spec.p.diff(spec.l))
    pfun = compile_approx(spec.p)
    k_idx, l_idx = spec.k, spec.l
    d = complex(direction)

    def deriv(s):
        return d * pl(s), -d * pk(s)

    remaining = float(t)
    while remaining > 1e-15:
        h = step if remaining >= step else remaining
        s0 = state
        a1, b1 = deriv(s0)
        s1 = list(s0); s1[k_idx] += 0.5 * h * a1; s1[l_idx] += 0.5 * h * b1
        a2, b2 = deriv(s1)
        s2 = list(s0); s2[k_idx] += 0.5 * h * a2; s2[l_idx] += 0.5 * h * b2
        a3, b3 = deriv(s2)
        s3 = list(s0); s3[k_idx] += h * a3; s3[l_idx] += h * b3
        a4, b4 = deriv(s3)
        state = list(s0)
        state[k_idx] += h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
        state[l_idx] += h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
        remaining -= h
    return state, pfun(state)


def _assert_matches_reference(spec, start, **kwargs):
    end, p_end = _reference_rk4(spec, start, **kwargs)
    res = flow_rk4(spec, start, **kwargs)
    for got, want in zip(res.end, end):
        assert abs(got - want) <= 1e-12 * (1 + abs(want))
    assert abs(res.p_end - p_end) <= 1e-12 * (1 + abs(p_end))
    assert res.p_start == compile_approx(spec.p)([complex(x) for x in start])


def _oracle_specs():
    for n in range(4, 9):
        for k in range(2, n):
            for l in range(k + 1, n):
                yield f"v{n}-{k}-{l}", (v_field_spec, n, k, l)
    for n in range(5, 10):
        for k in range(1, n - 1):
            for l in range(k + 1, n - 1):
                yield f"w{n}-{k}-{l}", (w_field_spec, n, k, l)


ORACLE_SPECS = dict(_oracle_specs())


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_flow_matches_full_polynomial_rk4(name):
    make, *args = ORACLE_SPECS[name]
    spec = make(*args)
    rng = random.Random(name)
    for _ in range(3):
        start = [cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(-3.2, 3.2))
                 for _ in range(spec.p.nvars)]
        _assert_matches_reference(spec, start, t=1.0, step=1e-2)
        _assert_matches_reference(spec, start, t=1.0, step=1e-2,
                                  direction=1j)


def test_flow_matches_reference_on_a_field_not_affine_in_its_pair():
    # P = z0^2 z1^2 + z0^3 + z1 z2: both partials keep powers of the
    # moving pair, and z2 is folded into P_l
    z = [MultiPoly.variable(3, i) for i in range(3)]
    p = z[0] ** 2 * z[1] ** 2 + z[0] ** 3 + z[1] * z[2]
    rng = random.Random(5)
    for k, l in ((0, 1), (0, 2), (2, 1)):
        spec = VectorFieldSpec(p, k, l)
        for _ in range(3):
            start = [cmath.rect(rng.uniform(0.0, 0.5), rng.uniform(-3.2, 3.2))
                     for _ in range(3)]
            for direction in (1.0, 1j):
                _assert_matches_reference(spec, start, t=0.5, step=1e-2,
                                          direction=direction)
                res = flow_rk4(spec, start, t=0.5, step=1e-3,
                               direction=direction)
                assert abs(res.drift) < 1e-8


def _folded_pair(spec, start):
    pl, pk = spec.float_partials
    return _affine_pair(_fold(pl, start), _fold(pk, start))


def _library_fields():
    for n in range(4, 11):
        for k in range(2, n):
            for l in range(k + 1, n):
                yield v_field_spec(n, k, l)
    for n in range(5, 11):
        for k in range(1, n - 1):
            for l in range(k + 1, n - 1):
                yield w_field_spec(n, k, l)


def test_every_library_field_takes_the_affine_path():
    # each entry of an alternating product is affine in every coordinate
    # separately, so P_l folds to C + D z_k and P_k to B + D z_l
    rng = random.Random(3)
    specs = list(_library_fields())
    assert len(specs) == 167
    for spec in specs:
        start = [cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(-3.2, 3.2))
                 for _ in range(spec.p.nvars)]
        pair = _folded_pair(spec, start)
        assert pair is not None
        c, dk, b, dl = pair
        assert abs(dk - dl) <= 1e-12 * (1 + abs(dk))
    # the polynomial of the non-affine reference test keeps the stage loop
    z = [MultiPoly.variable(3, i) for i in range(3)]
    p = z[0] ** 2 * z[1] ** 2 + z[0] ** 3 + z[1] * z[2]
    assert _folded_pair(VectorFieldSpec(p, 0, 1), [0.3, 0.4, 0.5]) is None


def test_flow_refuses_exact_start_beyond_double_range():
    spec = v_field_spec(6, 2, 4)
    with pytest.raises(PreconditionError, match="beyond the double range"):
        flow_rk4(spec, [ExactComplex(10 ** 400), 0, 0, 0], t=0.1, step=0.01)


def test_affine_flow_overflow_is_refused():
    # real time grows z2 like e^t: 1,600 steps of 0.5 overflow, as the
    # stage loop's per-step check refused them
    spec = v_field_spec(4, 2, 3)
    assert _folded_pair(spec, [1.0, 1.0]) is not None
    with pytest.raises(PreconditionError, match="non-finite"):
        flow_rk4(spec, [1, 1], t=800.0, step=0.5)


def test_affine_flow_partial_last_step():
    # t = 1.5 steps: one full step and one half step with its own gain,
    # against three full half steps
    spec = v_field_spec(7, 3, 5)
    start = [0.3 - 0.1j, 0.4, -0.2 + 0.5j, 0.1j, 0.6]
    assert _folded_pair(spec, start) is not None
    for direction in (1.0, 1j):
        a = flow_rk4(spec, start, t=0.0015, step=1e-3, direction=direction)
        b = flow_rk4(spec, start, t=0.0015, step=5e-4, direction=direction)
        for x, y in zip(a.end, b.end):
            assert abs(x - y) < 1e-12
        assert a.end[spec.k] != start[spec.k]


def test_field_partials_are_computed_once():
    spec = v_field_spec(6, 2, 4)
    assert spec.pk is spec.pk and spec.pl is spec.pl
    assert spec.pk == spec.p.diff(spec.k) and spec.pl == spec.p.diff(spec.l)
    assert spec.pfun is spec.pfun
