##
## Triangular factor words: constant matrices, padding, factor-count
## arithmetic, and the Cohn five- and four-factor constructions
##

import cmath
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor import factorizer
from sl2factor._random import random_exact, rng_from_seed
from sl2factor.errors import PreconditionError, VerificationError
from sl2factor.exact_algebra import ExactComplex
from sl2factor.factorizer import (
    Factorization, can_factor_three, cohn_eval, cohn_family_4,
    cohn_family_relations, cohn_holo_5, factor_constant, factor_count_bound,
    factor_offdiag_zero, factor_unit_corner, pad_avoid_singular)
from sl2factor.word_core import (
    APPROX_TOL, LOWER, SL2, UPPER, Word, eval_word, word_product)

EC = ExactComplex


def _sl2(*entries):
    return SL2(*(EC(x) for x in entries))


def test_constant_identity_is_empty_word():
    f = factor_constant(_sl2(1, 0, 0, 1))
    assert f.factor_count == 0
    assert f.verified


def test_constant_diagonal_takes_four():
    f = factor_constant(_sl2(2, 0, 0, Fraction(1, 2)))
    assert f.factor_count == 4
    sides = [fac.side for fac in f.word.factors]
    assert sides == [UPPER, LOWER, UPPER, LOWER]
    assert eval_word(f.word) == _sl2(2, 0, 0, Fraction(1, 2))


def test_constant_three_factor_branches():
    f = factor_constant(_sl2(2, 3, 1, 2))
    assert f.factor_count == 3
    assert [fac.side for fac in f.word.factors] == [UPPER, LOWER, UPPER]
    g = factor_constant(_sl2(1, 5, 0, 1))
    assert g.factor_count == 3
    assert [fac.side for fac in g.word.factors] == [LOWER, UPPER, LOWER]


def test_float_constant_pivots_on_the_larger_off_diagonal():
    # c = 1e-17 is nonzero but tiny: dividing by it leaves a residual of
    # about 8e-2, dividing by b = 1e6 replays to rounding
    m = SL2(1, 1e6, 1e-17, 1 + 1e-11)
    f = factor_constant(m)
    assert [fac.side for fac in f.word.factors] == [LOWER, UPPER, LOWER]
    assert f.verified and f.residual < 1e-20
    g = factor_constant(SL2(1, 1e-17, 1e6, 1 + 1e-11))
    assert [fac.side for fac in g.word.factors] == [UPPER, LOWER, UPPER]


def test_float_constant_large_entry_verifies():
    # the replay misses by about 2e-9, rounding relative to |a| = 1e7
    a, b, c = 1e7 + 0.3j, 2 - 0.7j, 1 + 0.25j
    f = factor_constant(SL2(a, b, c, (1 + b * c) / a))
    assert f.verified and f.factor_count == 3
    assert f.residual < 1e-8


def test_constant_random_exact_roundtrip():
    rng = rng_from_seed(3)
    for _ in range(100):
        m = SL2.identity()
        for j in range(4):
            g = ExactComplex.coerce(random_exact(rng))
            m = m @ (SL2.lower(g) if j % 2 else SL2.upper(g))
        f = factor_constant(m)
        assert f.verified and f.factor_count <= 4
        assert eval_word(f.word) == m


def test_can_factor_three():
    diag = _sl2(2, 0, 0, Fraction(1, 2))
    assert not can_factor_three(diag, "ULU")
    assert not can_factor_three(diag, "LUL")
    m = _sl2(2, 3, 1, 2)
    assert can_factor_three(m, "ULU") and can_factor_three(m, "LUL")
    upper = _sl2(1, 5, 0, 1)
    assert can_factor_three(upper, "ULU")  # elementary, despite c = 0
    lower = _sl2(1, 0, 5, 1)
    assert can_factor_three(lower, "LUL")  # elementary, despite b = 0
    with pytest.raises(PreconditionError):
        can_factor_three(m, "UUL")


def test_unit_corner():
    f = factor_unit_corner(EC(2), EC(3), EC(7))
    assert f.factor_count == 4
    assert f.target == _sl2(1, 2, 3, 7)
    assert [fac.side for fac in f.word.factors] == [LOWER, UPPER, LOWER, UPPER]
    with pytest.raises(PreconditionError):
        factor_unit_corner(EC(2), EC(3), EC(6))
    # SL2 judges d: one float step off 1 + bc is rounding, 1e-8 is not
    d = math.nextafter(1 + 0.1 * 0.2, 2)
    f = factor_unit_corner(0.1, 0.2, d)
    assert f.verified and f.target.d == d
    with pytest.raises(PreconditionError, match="unit corner needs"):
        factor_unit_corner(1e6, 1e-6, 2 + 1e-8)


def test_offdiag_zero():
    f = factor_offdiag_zero(EC(2), EC(3))
    assert f.factor_count == 4
    assert f.target == _sl2(2, 0, 3, Fraction(1, 2))
    with pytest.raises(PreconditionError):
        factor_offdiag_zero(EC(0), EC(1))


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@settings(max_examples=30, deadline=None)
@given(fractions, fractions)
def test_unit_corner_family(b, c):
    f = factor_unit_corner(EC(b), EC(c), EC(1 + b * c))
    assert f.verified


def test_pad_known_examples():
    padded = pad_avoid_singular(Word.of((UPPER, EC(3)), (LOWER, EC(2))))
    entries = [fac.entry for fac in padded.factors]
    sides = [fac.side for fac in padded.factors]
    assert entries == [EC(4), EC(0), EC(-1), EC(2)]
    assert sides == [UPPER, LOWER, UPPER, LOWER]
    single = pad_avoid_singular(Word.of((LOWER, EC(0))))
    assert [fac.entry for fac in single.factors] == [EC(1), EC(0), EC(-1)]


def test_pad_preserves_product_and_leaves_singular_set():
    rng = rng_from_seed(9)
    for _ in range(25):
        values = [ExactComplex.coerce(random_exact(rng)) for _ in range(4)]
        word = Word.of(*(((LOWER if j % 2 == 0 else UPPER), v)
                         for j, v in enumerate(values)))
        padded = pad_avoid_singular(word)
        assert len(padded) == len(word) + 2
        assert eval_word(padded) == eval_word(word)
        interior = [fac.entry for fac in padded.factors][1:-1]
        assert not all(e.is_zero for e in interior)


def test_pad_rejections():
    with pytest.raises(PreconditionError):
        pad_avoid_singular(Word(()))
    with pytest.raises(PreconditionError):
        pad_avoid_singular(Word.of((UPPER, EC(1)), (UPPER, EC(2))))
    # an entry of no scalar kind is refused before it reaches g + 1
    with pytest.raises(PreconditionError, match="not a scalar"):
        pad_avoid_singular(Word.of((LOWER, "x")))


def test_factor_count_bound():
    assert factor_count_bound(2, {2: 4}) == 8
    assert factor_count_bound(2, {2: 0}) == 4
    assert factor_count_bound(3, {2: 4, 3: 5}) == 16
    assert factor_count_bound(4, lambda i: 0) == 10
    with pytest.raises(PreconditionError):
        factor_count_bound(1, {})
    with pytest.raises(PreconditionError):
        factor_count_bound(3, {2: 4})  # missing K(3)
    with pytest.raises(PreconditionError):
        factor_count_bound(2, {2: -1})


def test_cohn_eval():
    m = cohn_eval(EC(1), EC(2))
    assert m == _sl2(3, 1, -4, -1)
    # determinant identically 1 also off the rationals
    approx = cohn_eval(0.3 + 0.4j, -1.1 + 0.2j)
    det = approx.a * approx.d - approx.b * approx.c
    assert abs(complex(det) - 1) < 1e-12


def test_cohn5_at_w_zero():
    f = cohn_holo_5(2.0, 0.0)
    assert f.verified
    h = [complex(fac.entry) for fac in f.word.factors]
    # (z^2/2, -1, 0, 1, z^2/2) at w = 0
    assert abs(h[0] - 2.0) < 1e-12
    assert abs(h[1] + 1.0) < 1e-12
    assert abs(h[2]) < 1e-12
    assert abs(h[3] - 1.0) < 1e-12
    assert abs(h[4] - 2.0) < 1e-12


def test_cohn5_series_direct_continuity():
    # h1 from the series branch must agree with the direct formula across
    # the |zw| = 1e-3 switch
    z = 1.0
    for w in (0.999e-3, 1.001e-3):
        f = cohn_holo_5(z, w)
        direct = (cmath.exp(z * w) - 1 - z * w) / (w * w)
        assert abs(complex(f.word.factors[0].entry) - direct) < 1e-9


def test_cohn5_residual_small_generic():
    for z, w in ((0.5 + 0.5j, -0.25 + 1j), (2 + 1j, -2 + 1j), (1.7, 1.3)):
        f = cohn_holo_5(z, w)
        assert f.residual < 1e-10
        assert f.verified


def test_cohn5_high_precision():
    f = cohn_holo_5(2 + 2j, 2 - 2j, dps=40)
    assert f.verified
    assert f.residual < 1e-20


def test_cohn5_conditioning_gate():
    # large real zw overflows double headroom: either the gate trips or
    # the result is flagged unverified, never silently "verified"
    try:
        f = cohn_holo_5(6.0, 6.0)
    except VerificationError:
        return
    assert not f.verified
    g = cohn_holo_5(6.0, 6.0, dps=60)
    assert g.verified


@pytest.mark.parametrize("z", [5.0, -5.0])
def test_cohn5_unverified_double_is_returned(z):
    # zw = +-50 is beyond double precision: one policy for both signs
    f = cohn_holo_5(z, 10.0)
    assert not f.verified
    assert f.residual > 1
    assert cohn_holo_5(z, 10.0, dps=40).verified


def test_cohn_family_exact_example():
    f = cohn_family_4(EC(1), EC(2), EC(1))
    h = [fac.entry for fac in f.word.factors]
    assert h == [EC(0), EC(-2), EC(1), EC(2)]
    assert f.target == _sl2(3, 1, -4, -1)
    assert f.verified


def test_cohn_family_degenerate_w():
    f = cohn_family_4(EC(3), EC(0), EC(9))
    assert eval_word(f.word) == cohn_eval(EC(3), EC(0))
    assert [fac.entry for fac in f.word.factors] == [EC(0), EC(0), EC(9),
                                                     EC(0)]


def test_cohn_family_rejections():
    with pytest.raises(PreconditionError):
        cohn_family_4(EC(1), EC(1), EC(1))  # zw = 1
    with pytest.raises(PreconditionError):
        cohn_family_4(EC(1), EC(2), EC(0))  # h3 = 0


@settings(max_examples=30, deadline=None)
@given(fractions, fractions, fractions)
def test_cohn_family_relations_iff_product(z, w, h3):
    zc, wc, h3c = EC(z), EC(w), EC(h3)
    if (EC(1) - zc * wc).is_zero or h3c.is_zero:
        return
    f = cohn_family_4(zc, wc, h3c)
    h = [fac.entry for fac in f.word.factors]
    rels = cohn_family_relations(zc, wc, h)
    assert all(r.is_zero for r in rels)
    # perturbing one entry must break some relation
    h[0] = h[0] + 1
    assert not all(r.is_zero for r in cohn_family_relations(zc, wc, h))


def test_cohn_holo_5_word_multiplies_out_to_cohn():
    for z, w in ((0.3 - 0.2j, 1.1 + 0.4j), (-0.7 + 0.1j, 0.25 - 0.6j)):
        prod = eval_word(cohn_holo_5(z, w).word)
        target = cohn_eval(z, w)
        assert max(abs(x - y) for x, y in
                   zip(prod.entries, target.entries)) < 1e-10


def test_cohn_eval_large_entries_pass_the_relative_det_check():
    # det is 1 identically, but ad and bc are about 1e16 in floats
    m = cohn_eval(1e4, 1e4)
    assert m.b == 1e8 and m.c == -1e8
    m = cohn_eval(-3e5 + 2e5j, 1e5 - 4e5j)
    assert not m.is_exact


def test_factorization_to_json():
    f = factor_constant(_sl2(2, 3, 1, 2))
    j = f.to_json()
    assert j["factor_count"] == 3
    assert j["verified"] is True
    assert j["residual"] == 0.0
    assert len(j["word"]) == 3


@pytest.mark.parametrize("z,w", [(100.0, 100.0), (-30.0, 30.0),
                                 (30 + 1j, 30.0), (1e200, 1e-200),
                                 (1e155, 1e-154), (1e200j, 1e200)])
def test_cohn5_double_overflow_is_verification_error(z, w):
    # e^{+-zw} leaves the float range once |Re zw| passes about 709; at
    # (1e200, 1e-200) w^2 underflows to 0 under h1, at (1e155, 1e-154) the
    # target's z^2 overflows, and at (1e200j, 1e200) zw itself does
    with pytest.raises(VerificationError, match="--dps"):
        cohn_holo_5(z, w)
    assert cohn_holo_5(z, w, dps=15).factor_count == 5


def test_cohn5_nan_closing_entry_is_out_of_range():
    # zw = -702.72: h2 is about -1.6e307 and H2 comes out as inf - inf =
    # NaN, which max over the replay differences could pass over
    with pytest.raises(VerificationError, match="--dps"):
        cohn_holo_5(-70.272, 10.0)
    assert math.isnan(factorizer._cohn5_full(-70.272 + 0j, 10.0 + 0j)[2])
    assert cohn_holo_5(-70.272, 10.0, dps=15).factor_count == 5


def test_cohn5_real_zw_sweep_returns_only_finite_words():
    # zw from -720 to 720 in steps of 0.05, with w = 10: a word returned
    # in double precision has finite entries and residual, so its report
    # is strict JSON; the rest are refused with a pointer to --dps
    for k in range(-14400, 14401):
        try:
            f = cohn_holo_5(k * 0.05 / 10, 10.0)
        except VerificationError as exc:
            assert "--dps" in str(exc)
            continue
        json.dumps(f.to_json(), allow_nan=False)


@pytest.mark.parametrize("dps", [1, 0, -5, 14, 40.0, "40", True])
def test_cohn5_refuses_precision_below_double(dps):
    # the residual is computed at the working precision, so at dps 1 a
    # word that misses C(1, 1) by 3e-3 would report residual 0
    with pytest.raises(PreconditionError, match="at least 15"):
        cohn_holo_5(1.0, 1.0, dps=dps)
    assert cohn_holo_5(1.0, 1.0, dps=15).verified


def _cohn5_reference(z, w, dps):
    # the five-factor word as first built: the whole four-entry prefix
    # inverse, and a target built by cohn_eval, so checked by SL2
    def build(z, w, exp):
        zw, w2 = z * w, w * w
        e_zw = exp(zw)
        if abs(complex(zw)) < factorizer.SERIES_CUTOFF:
            h1 = factorizer._h1_series(z, zw)
        else:
            h1 = (e_zw - 1 - zw) / w2
        h2 = -(1 + w2) * exp(-zw)
        h3 = e_zw - 1
        h4 = 1 + 0 * z
        target = cohn_eval(z, w)
        pre = word_product("LULU", (-h4, -h3, -h2, -h1))
        big_h2 = pre[0] * target.b + pre[1] * target.d
        prod = word_product("ULULU", (h1, h2, h3, h4, big_h2))
        residual = float(max(abs(x - y)
                             for x, y in zip(prod, target.entries)))
        word = Word.of((UPPER, h1), (LOWER, h2), (UPPER, h3), (LOWER, h4),
                       (UPPER, big_h2))
        return Factorization(word, target, residual < APPROX_TOL, residual)

    if dps is None:
        return build(complex(z), complex(w), cmath.exp)
    import mpmath
    with mpmath.workdps(dps):
        return build(mpmath.mpc(complex(z)), mpmath.mpc(complex(w)),
                     mpmath.exp)


def _oracle_points():
    grid = [-2 + 4 * k / 40 for k in range(0, 41, 2)]
    points = [(t * (1 + 1j), s * (1 - 1j)) for t in grid for s in grid]
    rng = random.Random(5)
    for scale in (1e-4, 1.0, 10.0):  # 1e-4: the series region |zw| < 1e-3
        points += [(complex(rng.gauss(0, scale), rng.gauss(0, scale)),
                    complex(rng.gauss(0, 1), rng.gauss(0, 1)))
                   for _ in range(40)]
    points += [(1e-4, 1e-4 + 2e-4j), (0.999e-3, 1.0), (1.001e-3, 1.0)]
    zeros = (0.0, -0.0, 0j, complex(-0.0, -0.0), complex(0.0, -0.0))
    points += [(x, y) for x in zeros for y in (*zeros, 1j, 2.0 - 1j)]
    points += [(2.0 - 1j, x) for x in zeros]
    # unverified in double, or past its range (both refuse at dps None)
    points += [(1e200, 1e-200), (1e155, 1e-154), (1e150, 1e100j),
               (1e100, 1e100j), (1e-200j, 1e200), (100.0, 100.0), (5.0, 10.0)]
    return points


@pytest.mark.parametrize("dps", [None, 40, 80])
def test_cohn5_bits_match_the_full_prefix_inverse(dps):
    # same machine, two algorithms: H2 from the first row only and a target
    # built unchecked must give byte-identical reports
    for z, w in _oracle_points():
        try:
            ref = json.dumps(_cohn5_reference(z, w, dps).to_json())
        except (ArithmeticError, ValueError, VerificationError):
            with pytest.raises(VerificationError, match="--dps"):
                cohn_holo_5(z, w, dps)
        else:
            assert json.dumps(cohn_holo_5(z, w, dps).to_json()) == ref, (z, w)


@pytest.mark.parametrize("dps", [15, 40, 80])
def test_cohn5_mp_entries_match_mpc_operators_to_the_last_bit(dps):
    # the reports show entries rounded to double; the kernel on libmp
    # tuples must also give the reference's mpc values bit for bit
    for z, w in _oracle_points():
        f, ref = cohn_holo_5(z, w, dps), _cohn5_reference(z, w, dps)
        got = [x._mpc_ for x in (*(g.entry for g in f.word),
                                 *f.target.entries)]
        want = [x._mpc_ for x in (*(g.entry for g in ref.word),
                                  *ref.target.entries)]
        assert got == want, (z, w)
        assert f.verified == ref.verified, (z, w)


@pytest.mark.parametrize("dps", [None, 40])
@pytest.mark.parametrize("z,w", [(math.inf, 1.0), (1.0, complex(0, -math.inf)),
                                 (math.nan, 1.0), (2.0, complex(math.nan, 1))])
def test_cohn5_refuses_non_finite_input(z, w, dps):
    # at dps such input used to come back as a word of NaN entries
    with pytest.raises(PreconditionError, match="non-finite"):
        cohn_holo_5(z, w, dps)
