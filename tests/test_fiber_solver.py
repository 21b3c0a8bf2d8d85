##
## Fiber completions over a target matrix: graph branches, free-variable
## branches, transports between levels, and the 5-factor chart
##

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor.errors import PreconditionError, VerificationError
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


# 10-digit targets, one per branch (even N: a != 0, a = 0; odd N: b != 0,
# b = 0), built with det 1 from three free entries
BIG_A = EC(Fraction(12345678901, 7), Fraction(-3, 9876543211))
BIG_B = EC(Fraction(9876543211, 1234567890), Fraction(2, 3))
BIG_C = EC(Fraction(-2718281828, 3141592653), 1)
Z1 = EC(Fraction(5555555557, 3333333331), Fraction(-1, 7))


def _generic_even(a, b=BIG_B, c=BIG_C):
    return SL2(a, b, c, (1 + b * c) / a)


def _nongeneric_even(b, d=BIG_C):
    return SL2(EC(0), b, -1 / b, d)


def _generic_odd(b, a=BIG_A, d=BIG_C):
    return SL2(a, b, (a * d - 1) / b, d)


def _nongeneric_odd(a, c=BIG_C):
    return SL2(a, EC(0), c, 1 / a)


def _solve(target, n, seed, z1=None):
    """interior_sample and the completion of target's branch at N = n, as
    the CLI runs them; the free z_1 defaults to the CLI's centred one."""
    even = n % 2 == 0
    a, b = target.a, target.b
    if not pivot_is_zero(target, n):
        ip = interior_sample(n, a if even else b, "Q1" if even else "Q2",
                             seed=seed)
        return complete_generic_even(target, ip) if even \
            else complete_odd(target, ip, "generic")
    ip = interior_sample(n, b if even else a, "Q2" if even else "Q1",
                         seed=seed)
    return complete_nongeneric_even(target, z1, ip.values[:-1]) if even \
        else complete_odd(target, ip, "nongeneric", z1=z1)


def _one_unit_off(x, part):
    """x = (p + q i)/d moved by one unit of p, of q or of d."""
    p, q, d = x._pqd
    dp, dq, dd = {"re": (1, 0, 0), "im": (0, 1, 0), "den": (0, 0, 1)}[part]
    moved = EC(Fraction(p + dp, d + dd), Fraction(q + dq, d + dd))
    assert moved != x
    return moved


@pytest.mark.parametrize("part", ["re", "im", "den"])
@pytest.mark.parametrize("n,make,level,message", [
    (8, _generic_even, BIG_A, "interior is off the level set Q1 = a"),
    (8, _nongeneric_even, BIG_B, "prefix is off the level set R2 = b"),
    (7, _generic_odd, BIG_B, "interior is off the level set Q2 = b"),
    (7, _nongeneric_odd, BIG_A, "interior must satisfy Q1 = a and Q2 = 0"),
])
def test_exact_solvers_refuse_an_interior_one_unit_off_its_level(
        n, make, level, message, part):
    # the interior is solved on `level`, the target's pivot-side entry is
    # one unit away from it
    assert _solve(make(level), n, seed=5, z1=Z1).verified
    moved = make(_one_unit_off(level, part))
    even = n % 2 == 0
    generic = make in (_generic_even, _generic_odd)
    stratum = "Q1" if even == generic else "Q2"
    ip = interior_sample(n, level, stratum, seed=5)
    with pytest.raises(PreconditionError) as info:
        if make is _nongeneric_even:
            complete_nongeneric_even(moved, Z1, ip.values[:-1])
        elif even:
            complete_generic_even(moved, ip)
        else:
            complete_odd(moved, ip, "generic" if generic else "nongeneric",
                         z1=Z1)
    assert str(info.value) == message


@pytest.mark.parametrize("unit", [EC(Fraction(1, 10 ** 10)),
                                  EC(0, Fraction(1, 10 ** 10))])
def test_exact_odd_nongeneric_refuses_q2_one_unit_off_zero(unit):
    # an interior with Q2 = unit and Q1 = a: on the a-level, off Q2 = 0
    ip = interior_sample(7, unit, "Q2", seed=5)
    a = ip.q_entries()[0]
    assert a
    with pytest.raises(PreconditionError,
                       match=r"^interior must satisfy Q1 = a and Q2 = 0$"):
        complete_odd(_nongeneric_odd(a), ip, "nongeneric", z1=Z1)


@pytest.mark.parametrize("n,stratum,moved", [
    (8, "Q1", 0), (7, "Q2", 0), (8, "Q2", 0), (8, "Q2", 1), (7, "Q1", 0),
    (7, "Q1", 1), (4, "Q2", 0), (4, "Q2", 1), (5, "Q1", 1)])
def test_exact_interior_sample_checks_its_solved_level(monkeypatch, n,
                                                       stratum, moved):
    # one solved coordinate (t, or s then t on a non-generic stratum)
    # moved by one unit must fail the level check, the zero level included
    divide, solved = ExactComplex.__truediv__, []

    def solving(x, y):
        solved.append(None)
        return divide(x, y) + (len(solved) == moved + 1)

    monkeypatch.setattr(ExactComplex, "__truediv__", solving)
    with pytest.raises(VerificationError,
                       match="interior solve produced wrong level"):
        interior_sample(n, BIG_A, stratum, seed=5)
    assert len(solved) > moved


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
        assert _solve(target, n, seed=n).verified
    # so must a = 0 and b = 0 targets with entries scaled by 10^k, with the
    # default z_1: with z_1 = 0 the point holds z_N ~ 10^(2k), and from
    # about 10^6 on its replay misses by rounding alone
    b, d = y * 10.0 ** k, v * 10.0 ** k
    for target in (SL2(0, b, -1 / b, d), SL2(b, 0, d, 1 / b)):
        for n in range(4, 8):
            comp = _solve(target, n, seed=n)
            assert comp.verified and comp.z1_free in (None, comp.point[0])


@pytest.mark.parametrize("n,entries,residual", [
    (6, (0, 2e6, -5e-7, 1), "6.061e-04"),
    (5, (2e6, 0, 3e6, 5e-7), "5.703e-03")])
def test_centred_z1_verifies_where_z1_zero_fails(n, entries, residual):
    target = SL2(*entries)
    assert _solve(target, n, seed=1).verified
    with pytest.raises(VerificationError, match=f"residual {residual}"):
        _solve(target, n, seed=1, z1=0)


@pytest.mark.parametrize("n,make,level", [
    (4, _nongeneric_even, BIG_B), (8, _nongeneric_even, BIG_B),
    (5, _nongeneric_odd, BIG_A), (7, _nongeneric_odd, BIG_A)])
def test_exact_centred_z1_makes_zn_zero(n, make, level):
    comp = _solve(make(level), n, seed=5)
    assert comp.branch == "nongeneric" and comp.point[-1] == EC(0)
    assert comp.z1_free == comp.point[0] != EC(0)
    # the default is None, and an explicit z_1 is kept
    assert _solve(make(level), n, seed=5, z1=Z1).point[0] == Z1
    if n % 2:
        ip = interior_sample(n, level, "Q1", seed=5)
        assert complete_odd(make(level), ip, "nongeneric") == comp


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
