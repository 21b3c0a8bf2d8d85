##
## Fiber completions over a target matrix: graph branches, free-variable
## branches, transports between levels, and the 5-factor chart
##

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor.errors import PreconditionError
from sl2factor.exact_algebra import ExactComplex, is_exact_scalar
from sl2factor.factorizer import factor_constant
from sl2factor.fiber_solver import (
    FiberCompletion, InteriorPoint, complete_generic_even,
    complete_nongeneric_even, complete_odd, f5_param, fiber_transport_dim1,
    fiber_transport_dim2, interior_sample, pivot_is_zero)
from sl2factor.word_core import PhiTemplate, SL2, eval_word

EC = ExactComplex


def _target(*entries):
    return SL2(*(EC(x) for x in entries))


def test_generic_even_hand_example():
    comp = complete_generic_even(_target(2, 3, 1, 2),
                                 InteriorPoint(4, "Q1", EC(2), (EC(1), EC(1))))
    assert comp.point == (EC(0), EC(1), EC(1), EC(1))
    assert comp.verified
    assert comp.eq4_residual.is_zero
    assert is_exact_scalar(comp.eq4_residual)


def test_generic_even_identity_like():
    comp = complete_generic_even(_target(1, 0, 5, 1),
                                 InteriorPoint(4, "Q1", EC(1), (EC(0), EC(0))))
    assert comp.point == (EC(5), EC(0), EC(0), EC(0))
    assert comp.interior == (EC(0), EC(0))


def test_nongeneric_even_z1_runs_free():
    target = _target(0, 1, -1, 0)
    seen = set()
    for z1 in range(10):
        comp = complete_nongeneric_even(target, EC(z1), (EC(1),))
        assert comp.verified
        assert comp.z1_free == EC(z1)
        assert comp.point[0] == EC(z1)
        seen.add(comp.point)
    assert len(seen) == 10
    # the two small cases worked out by hand
    assert complete_nongeneric_even(target, EC(0), (EC(1),)).point \
        == (EC(0), EC(1), EC(-1), EC(1))
    assert complete_nongeneric_even(target, EC(1), (EC(1),)).point \
        == (EC(1), EC(1), EC(-1), EC(2))


def test_odd_generic_roundtrip():
    orig = tuple(EC(v) for v in (1, 2, 3, 4, 5))
    target = eval_word(PhiTemplate(5).word_at(orig))
    q2 = InteriorPoint(5, "Q2", None, orig[1:-1]).q_entries()[1]
    comp = complete_odd(target, InteriorPoint(5, "Q2", q2, orig[1:-1]),
                        "generic")
    assert comp.point == orig


def test_odd_nongeneric_z1_free():
    interior = interior_sample(5, EC(2), stratum="Q1", seed=11)
    target = _target(2, 0, 3, Fraction(1, 2))
    pts = {complete_odd(target, interior, "nongeneric", z1=EC(k)).point
           for k in range(5)}
    assert len(pts) == 5
    for p in pts:
        assert eval_word(PhiTemplate(5).word_at(p)) == target


@pytest.mark.parametrize("n,stratum", [(6, "Q1"), (6, "Q2"),
                                       (5, "Q2"), (5, "Q1")])
def test_interior_sample_strata(n, stratum):
    level = EC(Fraction(3, 2))
    pt = interior_sample(n, level, stratum=stratum, seed=5)
    q1, q2, _, _ = pt.q_entries()
    even = n % 2 == 0
    generic = (stratum == "Q1") if even else (stratum == "Q2")
    if generic:
        assert (q1 if even else q2) == level
    elif even:
        assert q1.is_zero and q2 == level
    else:
        assert q1 == level and q2.is_zero


def test_interior_sample_deterministic():
    a = interior_sample(6, EC(2), seed=42)
    b = interior_sample(6, EC(2), seed=42)
    assert a.values == b.values


def test_interior_sample_preconditions():
    with pytest.raises(PreconditionError):
        interior_sample(3, EC(1))
    with pytest.raises(PreconditionError):
        interior_sample(6, EC(1), stratum="Q3")
    with pytest.raises(PreconditionError):
        interior_sample(6, EC(0), stratum="Q2")  # non-generic level nonzero


def test_branch_preconditions():
    even_int = InteriorPoint(4, "Q1", EC(2), (EC(1), EC(1)))
    with pytest.raises(PreconditionError):
        complete_generic_even(_target(0, 1, -1, 0), even_int)  # a = 0
    with pytest.raises(PreconditionError):
        complete_generic_even(_target(3, 1, 2, 1), even_int)  # off level
    odd_int = InteriorPoint(5, "Q1", EC(2), (EC(1), EC(1), EC(1)))
    with pytest.raises(PreconditionError):
        complete_generic_even(_target(2, 3, 1, 2), odd_int)  # parity
    with pytest.raises(PreconditionError):
        complete_nongeneric_even(_target(2, 3, 1, 2), EC(0), (EC(1),))
    with pytest.raises(PreconditionError):
        complete_nongeneric_even(_target(0, 2, Fraction(-1, 2), 0),
                                 EC(0), (EC(1),))  # prefix off R2 = b
    with pytest.raises(PreconditionError):
        complete_odd(_target(2, 0, 3, Fraction(1, 2)),
                     InteriorPoint(5, "Q2", EC(1), (EC(1), EC(0), EC(1))),
                     "generic")  # b = 0
    with pytest.raises(PreconditionError):
        complete_odd(_target(1, 2, 0, 1),
                     InteriorPoint(5, "Q2", EC(2), (EC(1), EC(1), EC(1))),
                     "sideways")


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.tuples(fractions, fractions, fractions, fractions))
def test_generic_even_roundtrip(vals):
    point = tuple(EC(v) for v in vals)
    target = eval_word(PhiTemplate(4).word_at(point))
    interior = InteriorPoint(4, "Q1", target.a, point[1:-1])
    if target.a.is_zero:
        with pytest.raises(PreconditionError):
            complete_generic_even(target, interior)
        return
    comp = complete_generic_even(target, interior)
    assert comp.point == point
    assert comp.eq4_residual.is_zero


def _solve_as_the_cli_does(target, n):
    even = n % 2 == 0
    a, b = target.a, target.b
    if not pivot_is_zero(target, n):
        ip = interior_sample(n, a if even else b, "Q1" if even else "Q2",
                             seed=n)
        return complete_generic_even(target, ip) if even \
            else complete_odd(target, ip, "generic")
    ip = interior_sample(n, b if even else a, "Q2" if even else "Q1", seed=n)
    # the free z_1 at its CLI default, 0
    return complete_nongeneric_even(target, 0.0, ip.values[:-1]) if even \
        else complete_odd(target, ip, "nongeneric")


moduli = st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 8), moduli, moduli, moduli)
def test_float_targets_verify_at_every_scale(k, x, y, v):
    # rounding in a replay grows with the entries, so a target whose a is
    # scaled by 10^k (d = (1 + bc)/a keeps det 1) must verify as the
    # unscaled one does
    a = x * 10.0 ** k
    target = SL2(a, y, v, (1 + y * v) / a)
    assert factor_constant(target).verified
    for n in range(4, 8):
        assert _solve_as_the_cli_does(target, n).verified


def test_transport_dim1_carries_level():
    p = (EC(2), EC(3))
    q = fiber_transport_dim1(p, EC(6), EC(12))
    assert q == (EC(2), EC(6))
    assert q[0] * q[1] == EC(12)
    with pytest.raises(PreconditionError):
        fiber_transport_dim1(p, EC(0), EC(1))
    with pytest.raises(PreconditionError):
        fiber_transport_dim1((EC(1),), EC(1), EC(2))


def test_transport_dim2_scales_level():
    p = (EC(1), EC(2), EC(3))

    def level(q):
        return q[0] + q[2] + q[0] * q[1] * q[2]

    q = fiber_transport_dim2(p, EC(2))
    assert q == (EC(2), EC(1), EC(6))
    assert level(q) == EC(2) * level(p)
    with pytest.raises(PreconditionError):
        fiber_transport_dim2(p, EC(0))
    with pytest.raises(PreconditionError):
        fiber_transport_dim2((EC(1), EC(2)), EC(1))


def test_f5_param_membership():
    p = f5_param(EC(3), EC(5))
    assert p == (EC(3), EC(5), EC(Fraction(4, 3)), EC(Fraction(-2, 5)))
    # the chart triple (p0, p2, p3) sits on the level set P2 = 1
    for z1v, cv in ((3, 5), (Fraction(1, 2), 7), (-2, Fraction(3, 4))):
        p = f5_param(EC(z1v), EC(cv))
        assert p[0] + p[3] + p[0] * p[2] * p[3] == EC(1)
    with pytest.raises(PreconditionError):
        f5_param(EC(0), EC(1))
    with pytest.raises(PreconditionError):
        f5_param(EC(1), EC(0))


def test_completion_dataclass_surface():
    comp = complete_generic_even(_target(2, 3, 1, 2),
                                 InteriorPoint(4, "Q1", EC(2), (EC(1), EC(1))))
    assert isinstance(comp, FiberCompletion)
    assert comp.n == 4 and comp.branch == "generic"
    with pytest.raises(AttributeError):
        comp.verified = False
