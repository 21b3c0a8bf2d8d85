##
## Jacobian frames, rank checks, tangent vector fields and their flows
##

import cmath
import math

import pytest

from sl2factor.errors import PreconditionError
from sl2factor.exact_algebra import ExactComplex, MultiPoly
from sl2factor.submersion_spray import (
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


def test_symbolic_minor_det():
    z2 = MultiPoly.variable(1, 0)
    zero = MultiPoly.zero(1)
    frame = sl2_jacobian(PhiTemplate(3), (zero, z2, zero))
    det = frame_minor_det(frame, (0, 1, 2))
    assert det == z2 or det == -1 * z2


def test_approx_rank():
    frame = sl2_jacobian(PhiTemplate(5), [0.3, 1.1, -0.7, 0.2, 0.9])
    assert not frame.exact
    assert frame_rank(frame) == 3
    singular = sl2_jacobian(PhiTemplate(5), [2.0, 0.0, 0.0, 0.0, 3.0])
    assert frame_rank(singular) < 3


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
