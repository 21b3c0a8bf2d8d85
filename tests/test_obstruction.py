##
## Sampled winding numbers, fiber degrees of candidate sections, and the
## degree-gap certificate
##

import cmath
import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2factor import obstruction
from sl2factor.errors import (InadequateSamplingError, PreconditionError,
                              VerificationError)
from sl2factor.scalars import ExactComplex, parse_exact
from sl2factor.factorizer import cohn_eval, cohn_family_relations
from sl2factor.obstruction import (
    CLAIM_NO_HOLO_4, CONTINUOUS_SECTION_EXPONENTS, Certificate,
    DIVISOR_EXPONENTS, DIVISOR_OPTIONS, LoopSamples, SAMPLE_CAP, TWO_PI,
    UNIT_E_ZW_EXPONENTS,
    _fiber_degree_z_param, axis_continuation_degrees, certificate_from_json,
    circle_winding, cohn_continuous_section, continuous_section_h3,
    divisor_degrees, fiber_degree, holo_obstruction_certificate, sample_loop,
    section_degree_on_fiber, section_near_D1, shrinking_circle_degrees,
    winding_number)
from sl2factor.word_core import SL2, eval_word, Word, UPPER, LOWER

EC = ExactComplex


def test_winding_basic_maps():
    assert circle_winding(lambda w: 3 + 0j, 1.0) == 0
    assert circle_winding(lambda w: w, 1.0) == 1
    assert circle_winding(lambda w: w * w, 2.0) == 2
    assert circle_winding(lambda w: 1 / w, 0.5) == -1
    assert circle_winding(lambda w: w * w / abs(w) ** 1.5, 4.0) == 2


@pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
def test_continuous_h3_degree_radius_independent(r):
    assert circle_winding(lambda w: continuous_section_h3(0, w), r) == 2


def test_loop_samples_rejections():
    with pytest.raises(PreconditionError):
        LoopSamples((1 + 0j,))
    with pytest.raises(PreconditionError):
        LoopSamples((1 + 0j, 0j, -1 + 0j))
    # two antipodal samples: each step is pi, inadequate
    with pytest.raises(InadequateSamplingError):
        LoopSamples((1 + 0j, -1 + 0j))
    loop = LoopSamples(tuple(cmath.exp(2j * math.pi * k / 8)
                             for k in range(8)))
    assert winding_number(loop) == 1


@pytest.mark.parametrize("bad", [
    complex(math.nan, 0.0), complex(math.inf, 1.0), complex(0.0, -math.inf),
    complex(math.inf, -math.inf)])
def test_loop_samples_refuse_non_finite_values(bad):
    # inf + 1j between unit samples gave finite phases, and a nan one a
    # nan winding that round() could not convert
    vals = [cmath.exp(2j * math.pi * k / 8) for k in range(8)]
    vals[3] = bad
    with pytest.raises(PreconditionError, match="non-finite"):
        LoopSamples(tuple(vals))


def test_loop_samples_accept_finite_values_whose_sum_overflows():
    loop = LoopSamples(tuple(1e308 * cmath.exp(2j * math.pi * k / 8)
                             for k in (0, 0, 1, 1, 2, 3, 4, 5, 6, 7)))
    assert winding_number(loop) == 1


def test_loop_samples_immutable():
    loop = LoopSamples(tuple(cmath.exp(2j * math.pi * k / 8)
                             for k in range(8)))
    with pytest.raises(AttributeError):
        loop.values = ()


def test_sample_loop_adaptive_doubling():
    # w^5 on 8 samples steps by 5 * 2pi/8 > pi/2; doubling must rescue it
    loop = sample_loop(lambda th: cmath.exp(5j * th), samples=8)
    assert winding_number(loop) == 5
    assert len(loop.values) >= 16


def test_sample_loop_converts_each_sample_once():
    import mpmath

    conversions = []

    class Sample:
        def __init__(self, th):
            self.value = cmath.exp(5j * th)

        def __complex__(self):
            conversions.append(self)
            return self.value

    # w^5 steps by 5 * 2pi/16 > pi/2 on 16 samples, so one doubling to
    # 32, which keeps the 16 values it has and samples the 16 between them
    loop = sample_loop(Sample, samples=16)
    assert winding_number(loop) == 5
    assert len(loop.values) == 32
    assert len(conversions) == 16 + 16
    for f in (lambda th: 1, lambda th: mpmath.mpc(cmath.exp(1j * th))):
        loop = sample_loop(f, samples=8)
        assert all(type(v) is complex for v in loop.values)


@pytest.mark.parametrize("start", [3, 5, 7, 16, 100, 256, 1000, 4096])
def test_doubled_grid_holds_the_old_one_bit_for_bit(start):
    # what lets a doubling keep its samples: k/n and 2k/2n give one angle
    n = start
    while 2 * n <= SAMPLE_CAP:
        assert all(TWO_PI * k / n == TWO_PI * (2 * k) / (2 * n)
                   for k in range(n))
        n *= 2


def test_sample_loop_doubling_matches_fresh_sampling():
    angles = []

    def f(th):
        angles.append(th)
        return cmath.exp(5j * th)

    loop = sample_loop(f, samples=7)  # 7 -> 14 -> 28 samples
    assert len(loop.values) == 28 and winding_number(loop) == 5
    assert loop.values == tuple(cmath.exp(5j * (TWO_PI * k / 28))
                                for k in range(28))
    # every angle is sampled once
    assert sorted(angles) == [TWO_PI * k / 28 for k in range(28)]


def test_sample_loop_clipped_last_step_samples_afresh(monkeypatch):
    # w^11 needs more than 32 samples: 16 and 32 fail, and the cap of 48
    # is no doubling of 32, so all 48 are sampled anew
    angles = []

    def f(th):
        angles.append(th)
        return cmath.exp(11j * th)

    monkeypatch.setattr(obstruction, "SAMPLE_CAP", 48)
    loop = sample_loop(f, samples=16)
    assert len(loop.values) == 48 and winding_number(loop) == 11
    assert len(angles) == 16 + 16 + 48
    assert angles[-48:] == [TWO_PI * k / 48 for k in range(48)]
    assert loop.values == tuple(map(f, angles[-48:]))


def test_sample_loop_doubling_onto_the_cap_keeps_its_samples(monkeypatch):
    # w^9 fails at 16 and 32 samples and passes at 64: the doubling from
    # 32 lands exactly on the cap, so it samples only the 32 new angles
    angles = []

    def f(th):
        angles.append(th)
        return cmath.exp(9j * th)

    monkeypatch.setattr(obstruction, "SAMPLE_CAP", 64)
    loop = sample_loop(f, samples=16)
    assert len(loop.values) == 64 and winding_number(loop) == 9
    assert len(angles) == 16 + 16 + 32


def test_sample_loop_cap_exhaustion(monkeypatch):
    # a phase jump no refinement can fix
    def jumpy(th):
        return cmath.exp(1j * (th + math.pi * (th > 3)))
    monkeypatch.setattr(obstruction, "SAMPLE_CAP", 64)
    # the cap is named, not "refine the sampling", which cannot help here
    with pytest.raises(InadequateSamplingError,
                       match="from 16 to 64: no sample count up to the cap "
                             "of 64 resolved the loop") as info:
        sample_loop(jumpy, samples=16)
    assert "refine" not in str(info.value)
    # a user loop that is too coarse still asks for finer sampling
    with pytest.raises(InadequateSamplingError, match="refine the sampling"):
        LoopSamples(tuple(jumpy(2 * math.pi * k / 64) for k in range(64)))
    with pytest.raises(PreconditionError):
        sample_loop(lambda th: 1 + 0j, samples=1)


def test_sample_loop_needs_three_samples():
    # the two increments of a two-sample loop are opposite, so it reads
    # degree 0 even for w^2; supplied values are not refused
    with pytest.raises(PreconditionError, match="three"):
        sample_loop(lambda th: cmath.exp(2j * th), samples=2)
    assert winding_number(LoopSamples((1, 1 + 0.1j))) == 0
    assert winding_number(sample_loop(lambda th: cmath.exp(2j * th),
                                      samples=3)) == 2


def test_exact_value_beyond_double_range_is_refused():
    # complex() of this value overflows; it is refused as require_finite
    # refuses it, not left to raise OverflowError
    big = EC(10 ** 400)
    with pytest.raises(PreconditionError, match="beyond the double range"):
        LoopSamples((big, 1, -1))
    with pytest.raises(PreconditionError, match="beyond the double range"):
        sample_loop(lambda th: big)
    # a value beyond the range that only a doubling samples
    with pytest.raises(PreconditionError, match="beyond the double range"):
        sample_loop(lambda th: big if th == TWO_PI * 5 / 32
                    else cmath.exp(5j * th), samples=16)


_BIG = EC(10 ** 400)


@pytest.mark.parametrize("call", [
    lambda: section_degree_on_fiber(continuous_section_h3, _BIG),
    lambda: _fiber_degree_z_param(continuous_section_h3, _BIG, 1.0, 16),
    lambda: axis_continuation_degrees([0.1, _BIG]),
    lambda: cohn_continuous_section(_BIG, 0.5),
    lambda: cohn_continuous_section(0.5, _BIG),
    lambda: continuous_section_h3(0, _BIG),
], ids=["section_degree_on_fiber", "_fiber_degree_z_param",
        "axis_continuation_degrees", "cohn_continuous_section_z",
        "cohn_continuous_section_w", "continuous_section_h3"])
def test_winding_helpers_refuse_exact_values_beyond_double_range(call):
    # each converts its scalar arguments with complex(), which overflows
    with pytest.raises(PreconditionError, match="beyond the double range"):
        call()


def test_zero_sample_propagates_not_retried():
    with pytest.raises(PreconditionError):
        sample_loop(lambda th: cmath.exp(1j * th) - cmath.exp(2j * math.pi
                                                             * 64 / 256))


monomials = st.integers(min_value=-3, max_value=3)


@settings(max_examples=25, deadline=None)
@given(monomials, monomials)
def test_winding_additive_on_products(p, q):
    f = lambda w: w ** p
    g = lambda w: w ** q
    fg = lambda w: f(w) * g(w)
    r = 1.3
    assert circle_winding(fg, r) == circle_winding(f, r) + circle_winding(g, r)


def test_section_degree_examples():
    # h3(z, w) = z^2 pulled to the w-loop is (D/w)^2: degree -2
    assert section_degree_on_fiber(lambda z, w: z * z, 1.0) == -2
    assert section_degree_on_fiber(lambda z, w: 1.0, 2.5) == 0
    assert section_degree_on_fiber(continuous_section_h3, 0.7) == 2
    with pytest.raises(PreconditionError):
        section_degree_on_fiber(lambda z, w: w, 0)


def test_divisor_degrees():
    assert divisor_degrees(0.5) == [0, -1, 1, 0]
    assert divisor_degrees(2 + 1j, radius=2.0) == [0, -1, 1, 0]
    assert DIVISOR_OPTIONS == ("1", "z", "w", "zw")


def test_continuous_section_values():
    assert cohn_continuous_section(2.0, 0.0) == (4 + 0j, 0j, 0j, 0j)
    h = cohn_continuous_section(0.0, 2.0)
    root2 = math.sqrt(2)
    assert abs(h[0] + root2) < 1e-12
    assert abs(h[1]) < 1e-12
    assert abs(h[2] - root2) < 1e-12
    assert abs(h[3] + 4.0) < 1e-12
    with pytest.raises(PreconditionError):
        cohn_continuous_section(1.0, 1.0)


def _section_mp(z, w):
    # the section's defining formulas in mpmath, whose exponent range
    # is unbounded
    z, w = mpmath.mpc(z), mpmath.mpc(w)
    h3 = w * w / abs(w) ** 1.5
    h2 = -z * w / h3
    return ((z * z - h3) / (1 - z * w), h2, h3,
            (-(w * w) - h2) / (1 - z * w))


@pytest.mark.parametrize("w", [1e-320, 1e-300j, 1e210, -3e250j])
def test_sections_keep_the_double_range(w):
    # w^2 and |w|^(3/2) leave double precision here, (w/|w|)^2 |w|^(1/2)
    # does not: |h3| = |w|^(1/2), arg h3 = 2 arg w, and h2 = -zw/h3
    z = 0.5
    root = math.sqrt(abs(w))
    h3 = continuous_section_h3(0, w)
    h = cohn_continuous_section(z, w)
    assert h[2] == h3
    assert abs(abs(h3) / root - 1) < 1e-15
    assert abs(cmath.phase(h3 / (w / abs(w)) ** 2)) < 1e-15
    assert abs(abs(h[1]) / (z * root) - 1) < 1e-15
    assert abs(cmath.phase(h[1] * (w / abs(w)) / -z)) < 1e-15
    # every component is finite and, relative to its size, the value the
    # formulas give without rounding of range
    with mpmath.workdps(40):
        for got, want in zip(h, _section_mp(z, w)):
            assert cmath.isfinite(got)
            assert abs(got - complex(want)) <= 1e-14 * abs(complex(want))


@pytest.mark.parametrize("z,w", [(1e200, 1e200), (1e200, 0.0),
                                  (0.0, 1e200)])
def test_section_outside_double_range_is_refused(z, w):
    # zw, h1 = z^2 or h4 = -w^2 leave double precision: a refusal, not
    # inf or nan (nor a 0 from an infinite 1 - zw)
    with pytest.raises(PreconditionError, match="double precision"):
        cohn_continuous_section(z, w)


def test_sections_refuse_w_whose_modulus_overflows():
    w = complex(1.5e308, 1.5e308)
    with pytest.raises(PreconditionError, match="double precision"):
        continuous_section_h3(0, w)
    with pytest.raises(PreconditionError, match="double precision"):
        cohn_continuous_section(0.5, w)


def test_section_h3_matches_the_direct_formula():
    # within double range the rewrite changes only the last bits of
    # w^2/|w|^(3/2)
    rng = random.Random(5)
    for _ in range(2000):
        w = cmath.rect(10 ** rng.uniform(-100, 100),
                       rng.uniform(-math.pi, math.pi))
        direct = w * w / abs(w) ** 1.5
        assert abs(continuous_section_h3(0, w) - direct) \
            <= 1e-15 * abs(direct)


def test_continuous_section_satisfies_relations():
    for z, w in ((1.1, 0.3), (0.5 - 0.2j, 1.5 + 0.1j), (2.0, -0.7)):
        h = cohn_continuous_section(z, w)
        rels = cohn_family_relations(z, w, h)
        assert max(abs(complex(r)) for r in rels) < 1e-10
        word = Word.of((UPPER, h[0]), (LOWER, h[1]), (UPPER, h[2]),
                       (LOWER, h[3]))
        prod = eval_word(word)
        target = cohn_eval(z, w)
        assert max(abs(complex(x) - complex(y))
                   for x, y in zip(prod.entries, target.entries)) < 1e-10


def test_section_near_D1_exact():
    for z, w in ((EC(1), EC(1)), (EC(2), parse_exact("1/2")), (EC(1), EC(0))):
        h = section_near_D1(z, w)
        rels = cohn_family_relations(z, w, h)
        assert all(r.is_zero for r in rels)
    assert section_near_D1(EC(1), EC(1)) == (EC(0), EC(-1), EC(1), EC(1))
    assert section_near_D1(EC(1), EC(0)) == (EC(0), EC(0), EC(1), EC(0))
    with pytest.raises(PreconditionError):
        section_near_D1(EC(0), EC(1))
    # float path agrees
    hf = section_near_D1(2.0, 0.5)
    exact = section_near_D1(EC(2), parse_exact("1/2"))
    assert max(abs(complex(a) - complex(b))
               for a, b in zip(hf, exact)) < 1e-12


def test_axis_continuation_stable_pair():
    pair = axis_continuation_degrees([0.1, 0.01])
    assert pair == (2, -2)
    assert sum(pair) == 0
    flat = axis_continuation_degrees([0.5], h3=lambda z, w: 1.0)
    assert flat == (0, 0)
    with pytest.raises(PreconditionError):
        axis_continuation_degrees([])
    with pytest.raises(PreconditionError):
        axis_continuation_degrees([0.1, 0])


def test_axis_continuation_instability_detected():
    # z on the w-loop has degree -1, but the z-loop degree of z is +1;
    # mixing parametrization-dependent maps across scales stays stable,
    # so force instability with an explicitly D-dependent section
    def fickle(z, w):
        return w if abs(z * w - 0.1) < 1e-9 else w * w
    with pytest.raises(VerificationError):
        axis_continuation_degrees([0.1, 0.2], h3=fickle)


def test_shrinking_circles():
    zeros = shrinking_circle_degrees(lambda p: 1 + p)
    assert zeros == [0, 0, 0, 0]
    assert shrinking_circle_degrees(lambda p: p, radii=(0.3,)) == [1]
    with pytest.raises(PreconditionError):
        shrinking_circle_degrees(lambda p: 1 + p, radii=())


def test_certificate_verdicts():
    cert = holo_obstruction_certificate(0.5)
    assert cert.verdict is True
    assert cert.claim == CLAIM_NO_HOLO_4
    assert cert.achieved == (0, -1, 1, 0)
    assert cert.evidence["unit_degree_e_zw"] == 0
    assert cert.evidence["continuous_section_degree"] == 2
    off_axis = holo_obstruction_certificate(2 + 1j)
    assert off_axis.verdict is True
    weak = holo_obstruction_certificate(0.5, required_degree=1)
    assert weak.verdict is False  # degree 1 IS achieved, by h3 = w
    with pytest.raises(PreconditionError):
        holo_obstruction_certificate(0)


def test_certificate_invariant_enforced():
    with pytest.raises(VerificationError):
        Certificate("c", 2, (0, 2), True, {})
    # consistent by construction
    Certificate("c", 2, (0, 2), False, {})
    Certificate("c", 2, (0, 1), True, {})


def test_certificate_json_roundtrip():
    cert = holo_obstruction_certificate(0.5)
    again = certificate_from_json(cert.to_json())
    assert again == cert


# each h3 with its exponents (a, b), evaluated independently of the table
SYMBOLIC_CASES = [
    (lambda z, w: 1 + 0j, DIVISOR_EXPONENTS["1"]),
    (lambda z, w: z, DIVISOR_EXPONENTS["z"]),
    (lambda z, w: w, DIVISOR_EXPONENTS["w"]),
    (lambda z, w: z * w, DIVISOR_EXPONENTS["zw"]),
    (lambda z, w: cmath.exp(z * w), UNIT_E_ZW_EXPONENTS),
    (continuous_section_h3, CONTINUOUS_SECTION_EXPONENTS),
]


@pytest.mark.parametrize("D", [0.5, 2 + 1j, -0.3j, 1e-3])
@pytest.mark.parametrize("radius", [0.25, 1.0, 2.0, 4.0])
def test_fiber_degree_matches_sampled(D, radius):
    for h3, (a, b) in SYMBOLIC_CASES:
        assert section_degree_on_fiber(h3, D, radius) \
            == fiber_degree((a, b)) == b - a
        assert _fiber_degree_z_param(h3, D, radius, 256) == a - b
    assert divisor_degrees(D, radius) == list(
        holo_obstruction_certificate(D).achieved)


@pytest.mark.parametrize("probe", [float("nan"), complex("inf"), 0])
def test_certificate_refuses_bad_probe(probe):
    with pytest.raises(PreconditionError):
        holo_obstruction_certificate(probe)


def test_certificate_takes_no_samples(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the certificate path sampled a loop")
    monkeypatch.setattr(obstruction, "sample_loop", refuse)
    cert = holo_obstruction_certificate(2 + 1j)
    assert cert.verdict is True
    assert cert.achieved == (0, -1, 1, 0)
    assert cert.evidence["method"] == "symbolic"


def test_certificate_replay_recomputes_degrees():
    data = holo_obstruction_certificate(0.5).to_json()
    data["achieved"] = [0, -1, 2, 0]
    data["verdict"] = False
    with pytest.raises(VerificationError):
        certificate_from_json(data)
    data = holo_obstruction_certificate(0.5).to_json()
    data["evidence"]["h3_options"] = ["1", "z", "w", "z^2"]
    with pytest.raises(PreconditionError):
        certificate_from_json(data)
    # without evidence only the verdict is checked against the degrees
    bare = {"claim": "c", "required_degree": 2, "achieved": [0, 2],
            "verdict": False}
    assert certificate_from_json(bare).evidence == {}
    with pytest.raises(VerificationError):
        certificate_from_json(dict(bare, verdict=True))
