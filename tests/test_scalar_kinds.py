##
## One scalar kind per call: every public scalar-taking function accepts
## any mix of ExactComplex, int, Fraction, float and complex arguments and
## answers with a result of one kind, a PreconditionError or a
## VerificationError, never a TypeError
##

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor.errors import PreconditionError, VerificationError
from sl2factor.exact_algebra import ExactComplex
from sl2factor.factorizer import (
    Factorization, cohn_eval, cohn_family_4, cohn_family_relations,
    factor_offdiag_zero, factor_unit_corner)
from sl2factor.fiber_solver import (
    FiberCompletion, InteriorPoint, complete_generic_even,
    complete_nongeneric_even, complete_odd, f5_param, fiber_transport_dim1,
    fiber_transport_dim2, interior_sample)
from sl2factor.obstruction import section_near_D1
from sl2factor.submersion_spray import TangentFrame, sl2_jacobian
from sl2factor.word_core import SL2, PhiTemplate, in_singular_set

EC = ExactComplex
KINDS = ("exact", "int", "fraction", "float", "complex")

# dyadic parts, so a float cast keeps the exact value and exact identities
# such as d = 1 + bc survive it
parts = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 4]))
values = st.builds(EC, parts, parts)
units = st.builds(lambda k, s: EC(s * Fraction(2) ** k),
                  st.integers(-2, 2), st.sampled_from([1, -1]))


def cast(x: EC, kind: str):
    """x in the requested kind; a kind that cannot hold x falls back to
    the nearest one that can (int -> Fraction -> ExactComplex, float ->
    complex)."""
    real = x.im == 0
    if kind == "int" and real and x.re.denominator == 1:
        return int(x.re)
    if kind in ("int", "fraction") and real:
        return x.re
    if kind == "float" and real:
        return float(x.re)
    if kind in ("float", "complex"):
        return complex(x)
    return x


def scalars_of(result) -> list:
    """The scalars a call computed (echoed input targets excluded)."""
    if isinstance(result, SL2):
        return list(result.entries)
    if isinstance(result, Factorization):
        return [f.entry for f in result.word] + list(result.target.entries)
    if isinstance(result, InteriorPoint):
        return [result.level, *result.values]
    if isinstance(result, FiberCompletion):
        extra = [x for x in (result.eq4_residual, result.z1_free)
                 if x is not None]
        return [*result.point, *extra]
    if isinstance(result, TangentFrame):
        return [x for col in result.columns for x in col]
    if isinstance(result, bool):
        return []
    return list(result)


def check(call):
    try:
        result = call()
    except (PreconditionError, VerificationError):
        return
    kinds = {type(x) for x in scalars_of(result)}
    assert len(kinds) <= 1, kinds


def draw(data, strategy=values):
    x = data.draw(strategy)
    return cast(x, data.draw(st.sampled_from(KINDS)))


def _sl2(data, a, b, c, d):
    return SL2(*(cast(x, data.draw(st.sampled_from(KINDS)))
                 for x in (a, b, c, d)))


def case_factor_unit_corner(data):
    b, c = data.draw(values), data.draw(values)
    k = [data.draw(st.sampled_from(KINDS)) for _ in range(3)]
    return lambda: factor_unit_corner(cast(b, k[0]), cast(c, k[1]),
                                      cast(1 + b * c, k[2]))


def case_factor_offdiag_zero(data):
    a, c = draw(data, units), draw(data)
    return lambda: factor_offdiag_zero(a, c)


def case_cohn_eval(data):
    z, w = draw(data), draw(data)
    return lambda: cohn_eval(z, w)


def case_cohn_family_4(data):
    z, w, h3 = draw(data), draw(data), draw(data)
    return lambda: cohn_family_4(z, w, h3)


def case_cohn_family_relations(data):
    z, w = draw(data), draw(data)
    h = [draw(data) for _ in range(4)]
    return lambda: cohn_family_relations(z, w, h)


def case_fiber_transport_dim1(data):
    p = [draw(data) for _ in range(2)]
    alpha, beta = draw(data), draw(data)
    return lambda: fiber_transport_dim1(p, alpha, beta)


def case_fiber_transport_dim2(data):
    p = [draw(data) for _ in range(3)]
    alpha = draw(data)
    return lambda: fiber_transport_dim2(p, alpha)


def case_f5_param(data):
    z1, c = draw(data), draw(data)
    return lambda: f5_param(z1, c)


def case_sl2(data):
    # d = (1 + bc)/a stays dyadic for a power of two
    a, b, c = data.draw(units), data.draw(values), data.draw(values)
    return lambda: _sl2(data, a, b, c, (1 + b * c) / a)


def case_interior_sample(data):
    n = data.draw(st.integers(4, 7))
    level = draw(data)
    stratum = data.draw(st.sampled_from(["Q1", "Q2"]))
    return lambda: interior_sample(n, level, stratum, seed=n)


def case_complete_generic_even(data):
    n = data.draw(st.sampled_from([4, 6]))
    a, b, c = data.draw(units), data.draw(values), data.draw(values)
    ip = interior_sample(n, a, "Q1", seed=n)
    interior = InteriorPoint(n, "Q1", a, tuple(draw(data, st.just(x))
                                               for x in ip.values))
    return lambda: complete_generic_even(
        _sl2(data, a, b, c, (1 + b * c) / a), interior)


def case_complete_nongeneric_even(data):
    n = data.draw(st.sampled_from([4, 6]))
    b, d = data.draw(units), data.draw(values)
    ip = interior_sample(n, b, "Q2", seed=n)
    prefix = [draw(data, st.just(x)) for x in ip.values[:-1]]
    z1 = draw(data)
    return lambda: complete_nongeneric_even(
        _sl2(data, EC(0), b, -1 / b, d), z1, prefix)


def case_complete_odd(data):
    n = data.draw(st.sampled_from([5, 7]))
    z1 = draw(data)
    if data.draw(st.booleans()):
        b, a, d = data.draw(units), data.draw(values), data.draw(values)
        ip = interior_sample(n, b, "Q2", seed=n)
        target = (a, b, (a * d - 1) / b, d)
        branch = "generic"
    else:
        a, c = data.draw(units), data.draw(values)
        ip = interior_sample(n, a, "Q1", seed=n)
        target = (a, EC(0), c, 1 / a)
        branch = "nongeneric"
    interior = InteriorPoint(n, ip.stratum, ip.level,
                             tuple(draw(data, st.just(x)) for x in ip.values))
    return lambda: complete_odd(_sl2(data, *target), interior, branch, z1=z1)


def case_in_singular_set(data):
    n = data.draw(st.integers(2, 6))
    zero = data.draw(st.booleans())
    point = [draw(data, st.just(EC(0)) if zero and 0 < j < n - 1 else values)
             for j in range(n)]
    return lambda: in_singular_set(point, n)


def case_sl2_jacobian(data):
    n = data.draw(st.integers(2, 6))
    point = [draw(data) for _ in range(n)]
    return lambda: sl2_jacobian(PhiTemplate(n), point)


def case_section_near_D1(data):
    z, w = draw(data), draw(data)
    return lambda: section_near_D1(z, w)


CASES = {name[len("case_"):]: fn for name, fn in globals().items()
         if name.startswith("case_")}


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mixed_kinds_never_type_error(name, data):
    check(CASES[name](data))


REPORTED_MIXES = {
    "factor_unit_corner": lambda: factor_unit_corner(0.5, EC(2), EC(2)),
    "factor_offdiag_zero": lambda: factor_offdiag_zero(EC(2), 0.5),
    "cohn_eval": lambda: cohn_eval(EC(1, 2), 0.5),
    "cohn_family_4_float_z": lambda: cohn_family_4(0.5, 0.5, EC(1)),
    "cohn_family_4_float_h3": lambda: cohn_family_4(EC(1, 2), EC(1, 2), 0.5),
    "cohn_family_relations": lambda: cohn_family_relations(
        0.5, EC(1), [EC(1), 2, 0.5, 1j]),
    "fiber_transport_dim1": lambda: fiber_transport_dim1([EC(1), 2.0],
                                                         EC(2), 3),
    "fiber_transport_dim2": lambda: fiber_transport_dim2(
        [EC(1), 2.0, Fraction(1, 3)], EC(2)),
    "f5_param": lambda: f5_param(0.5, EC(2)),
}


@pytest.mark.parametrize("name", sorted(REPORTED_MIXES))
def test_reported_mixes_return_one_kind(name):
    # each of these raised TypeError before the scalars of a call were
    # unified at entry
    scalars = scalars_of(REPORTED_MIXES[name]())
    assert {type(x) for x in scalars} == {complex}


def test_exact_arguments_stay_exact():
    f = cohn_family_4(EC(1, 2), 2, Fraction(1, 3))
    assert {type(x) for x in scalars_of(f)} == {EC}
    assert {type(x) for x in scalars_of(factor_unit_corner(1, 2, 3))} == {EC}
    quarter = EC(Fraction(1, 4))
    assert section_near_D1(2, Fraction(1, 2)) == (EC(0), -quarter, EC(4),
                                                  quarter)
    assert {type(x) for x in section_near_D1(2, Fraction(1, 2))} == {EC}


def test_interior_sample_keeps_an_mpmath_level_kind():
    import mpmath
    for n, stratum in ((5, "Q1"), (5, "Q2"), (6, "Q1"), (6, "Q2")):
        ip = interior_sample(n, mpmath.mpc(2), stratum, seed=1)
        assert {type(x) for x in scalars_of(ip)} == {mpmath.mpc}
