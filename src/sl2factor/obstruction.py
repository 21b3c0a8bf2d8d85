"""Winding-number degrees obstructing holomorphic 4-factor words for Cohn.

Over the punctured fiber {zw = D}, any continuous 4-factor section of the
Cohn family is pinned by its h3 component, a map C* -> C*.  A continuous
section of degree 2 exists (h3 = w^2/|w|^{3/2}), but a holomorphic h3
would extend across the axes, forcing it into the divisor options
{1, z, w, zw} up to units.  Their fiber degrees are 0, -1, +1, 0, never
2, so no holomorphic 4-factor factorization exists; five factors do.

The certificate is exact: it reads each degree off exponents, with no
sampling.  Sampled winding numbers cross-check it: the sum of principal-
branch angular increments over a closed loop, divided by 2 pi, is exact
once every increment stays below pi/2.  The fiber orientation convention
is the w-parametrization (z = D/w) with counterclockwise loops; the
z-parametrization degree is its orientation reverse.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Sequence
from math import sqrt

from .errors import InadequateSamplingError, PreconditionError, \
    VerificationError, _Record
from .scalars import require_finite, unify_scalars

TWO_PI = 2.0 * math.pi
DEFAULT_SAMPLES = 256
SAMPLE_CAP = 2 ** 16
CLAIM_NO_HOLO_4 = "no-holo-4-factorization"


class LoopSamples(_Record):
    """Closed loop of nonzero values; construction enforces adequacy.
    The principal-branch angular increments are kept too, but only the
    values are fields."""

    __slots__ = ("values", "increments")
    _fields = ("values",)

    def __init__(self, values: tuple):
        vals = tuple(map(complex, values))
        if len(vals) < 2:
            raise PreconditionError("a loop needs at least two samples")
        if not all(map(cmath.isfinite, vals)):
            raise PreconditionError("non-finite loop value; winding undefined")
        if 0 in vals:
            raise PreconditionError("loop value vanishes; winding undefined")
        incs = tuple(cmath.phase(b / a)
                     for a, b in zip(vals, vals[1:] + vals[:1]))
        if any(abs(t) >= math.pi / 2 for t in incs):
            raise InadequateSamplingError(
                "angular step >= pi/2; refine the sampling")
        _set_loop_values(self, vals)
        _set_increments(self, incs)


_set_loop_values = LoopSamples.values.__set__
_set_increments = LoopSamples.increments.__set__


def winding_number(loop: LoopSamples) -> int:
    """Degree of the sampled loop around 0; exact once adequacy holds."""
    return round(sum(loop.increments) / TWO_PI)


def sample_loop(f: Callable[[float], complex],
                samples: int = DEFAULT_SAMPLES) -> LoopSamples:
    """Sample f on [0, 2pi), doubling the count up to SAMPLE_CAP until
    adequacy holds.  At least three samples: the two increments of a
    two-sample loop are opposite, so its degree would read 0 whatever f
    is."""
    if samples < 3:
        raise PreconditionError("need at least three samples")
    n = samples
    while True:
        # LoopSamples converts each value to complex, once
        vals = tuple(f(TWO_PI * k / n) for k in range(n))
        try:
            return LoopSamples(vals)
        except InadequateSamplingError:
            if n >= SAMPLE_CAP:
                raise
            n = min(2 * n, SAMPLE_CAP)


def circle_winding(f: Callable[[complex], complex], radius: float,
                   samples: int = DEFAULT_SAMPLES) -> int:
    """Winding of f around the counterclockwise circle of given radius."""
    if radius <= 0:
        raise PreconditionError("radius must be positive")
    loop = sample_loop(lambda th: f(radius * cmath.exp(1j * th)), samples)
    return winding_number(loop)


def section_degree_on_fiber(h3: Callable[[complex, complex], complex], D,
                            radius: float = 1.0,
                            samples: int = DEFAULT_SAMPLES) -> int:
    """Winding of theta -> h3(D/w, w) along w = radius e^{i theta}."""
    Dc = complex(D)
    if Dc == 0:
        raise PreconditionError("fiber parameter D must be nonzero")
    return circle_winding(lambda w: h3(Dc / w, w), radius, samples)


def _fiber_degree_z_param(h3, D, radius: float, samples: int) -> int:
    Dc = complex(D)
    return circle_winding(lambda z: h3(z, Dc / z), radius, samples)


def cohn_continuous_section(z, w) -> tuple:
    """Continuous (not holomorphic) 4-factor section on {zw != 1}.

    h3 = w^2/|w|^{3/2} extends by 0 across w = 0, and h2 = -zw/h3
    simplifies to -z |w|^{3/2}/w, which also vanishes there; h1 and h4
    follow from the family relations.  At w = 0 the tuple is
    (z^2, 0, 0, 0).  h2 is computed as -z (conj(w)/|w|^{1/2}), and h1,
    h4 divide by 1 - zw before they multiply (z (z/(1 - zw)), w (w/(1 -
    zw))), so no intermediate leaves double range before the component
    does.  A section with a component (or 1 - zw) outside double range
    is refused, not returned as inf or nan.
    """
    zc, wc = complex(z), complex(w)
    zw = zc * wc
    if zw == 1:
        raise PreconditionError("section needs zw != 1")
    if wc == 0:
        h3 = 0j
        h2 = 0j
    else:
        h3 = continuous_section_h3(zc, wc)
        h2 = -zc * (wc.conjugate() / sqrt(abs(wc)))
    t = 1 - zw
    h = (zc * (zc / t) - h3 / t, h2, h3, -(wc * (wc / t)) - h2 / t)
    if not (cmath.isfinite(t) and all(map(cmath.isfinite, h))):
        raise PreconditionError(f"section leaves double precision at "
                                f"z = {zc!r}, w = {wc!r}")
    return h


def continuous_section_h3(z, w) -> complex:
    """Just the h3 = w^2/|w|^{3/2} component, the degree carrier.

    It is computed as (w/|w|)^2 |w|^{1/2}, which stays in double range
    wherever w does; w^2 underflows below |w| = 1e-162 and overflows
    above 1e154.  A w whose modulus overflows is refused.
    """
    wc = complex(w)
    if wc == 0:
        return 0j
    try:
        r = abs(wc)
    except OverflowError:
        raise PreconditionError(f"|w| overflows double precision at w = "
                                f"{wc!r}") from None
    u = wc / r
    return u * u * sqrt(r)


def section_near_D1(z, w) -> tuple:
    """Section (0, -w/z, z^2, w/z) for z != 0, exact on {zw = 1}.

    The four family relations hold identically in (z, w), so the product
    equals C(z, w) wherever z != 0, not only near zw = 1.
    """
    zero, z, w = unify_scalars([0, z, w])
    if not z:
        raise PreconditionError("section needs z != 0")
    return (zero, -w / z, z * z, w / z)


DIVISOR_OPTIONS = ("1", "z", "w", "zw")
# exponents (a, b) of h3 = c z^a w^b |w|^r u(zw) for each candidate
DIVISOR_EXPONENTS = {"1": (0, 0), "z": (1, 0), "w": (0, 1), "zw": (1, 1)}
UNIT_E_ZW_EXPONENTS = (0, 0)
CONTINUOUS_SECTION_EXPONENTS = (0, 2)  # w^2/|w|^{3/2}


def fiber_degree(exponents) -> int:
    """Degree of h3 = c z^a w^b |w|^r u(zw) on the fiber {zw = D != 0}.

    On the w-loop z = D/w, so h3 = c D^a u(D) |w|^r w^(b - a).  The
    factor |w|^r is a positive real and u(zw) = u(D) is constant on the
    fiber, so neither turns the argument: the degree is b - a.
    """
    a, b = exponents
    return b - a


def _option_degrees(names) -> tuple:
    unknown = [n for n in names if n not in DIVISOR_EXPONENTS]
    if unknown:
        raise PreconditionError(f"unknown h3 options {unknown}")
    return tuple(fiber_degree(DIVISOR_EXPONENTS[n]) for n in names)


def _divisor_evaluator(name: str) -> Callable[[complex, complex], complex]:
    a, b = DIVISOR_EXPONENTS[name]
    return lambda z, w: z ** a * w ** b


def divisor_degrees(D, radius: float = 1.0,
                    samples: int = DEFAULT_SAMPLES) -> list:
    """Fiber degrees of the divisor options {1, z, w, zw}: [0, -1, 1, 0]."""
    return [section_degree_on_fiber(_divisor_evaluator(name), D, radius,
                                    samples)
            for name in DIVISOR_OPTIONS]


def axis_continuation_degrees(d_values: Sequence, radius: float = 1.0,
                              samples: int = DEFAULT_SAMPLES,
                              h3: Callable = None) -> tuple:
    """Degrees of the continuous section in both fiber parametrizations.

    For every D in the sequence (all nonzero, typically shrinking toward
    0) the winding is measured with the loop running in w (z = D/w) and
    again with the loop running in z (w = D/z).  A stable answer across
    the sequence is required; orientation reversal makes the pair sum to
    zero.  The default section gives (+2, -2).
    """
    if not d_values:
        raise PreconditionError("need at least one fiber parameter")
    fn = continuous_section_h3 if h3 is None else h3
    pairs = set()
    for D in d_values:
        if complex(D) == 0:
            raise PreconditionError("fiber parameters must be nonzero")
        pairs.add((section_degree_on_fiber(fn, D, radius, samples),
                   _fiber_degree_z_param(fn, D, radius, samples)))
    if len(pairs) != 1:
        raise VerificationError(
            f"continuation degrees unstable across the sequence: {pairs}")
    return pairs.pop()


def shrinking_circle_degrees(f: Callable[[complex], complex],
                             radii: Sequence = (0.5, 0.25, 0.125, 0.0625),
                             samples: int = DEFAULT_SAMPLES) -> list:
    """Windings of f on circles shrinking toward 0 inside the D = 0 axis.

    A map continuous and nonvanishing at the origin gives all zeros; this
    is the degree a holomorphic section would be forced to have.
    """
    if not radii:
        raise PreconditionError("need at least one radius")
    return [circle_winding(f, r, samples) for r in radii]


class Certificate(_Record):
    """Machine-checkable verdict with the evidence its degrees rest on."""

    __slots__ = _fields = ("claim", "required_degree", "achieved", "verdict",
                           "evidence")

    def __init__(self, claim: str, required_degree: int, achieved: tuple,
                 verdict: bool, evidence: dict):
        if verdict != (required_degree not in achieved):
            raise VerificationError(
                "certificate verdict contradicts its own degree lists")
        _set_claim(self, claim)
        _set_required_degree(self, required_degree)
        _set_achieved(self, achieved)
        _set_verdict(self, verdict)
        _set_evidence(self, evidence)

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "required_degree": self.required_degree,
            "achieved": list(self.achieved),
            "verdict": self.verdict,
            "evidence": dict(self.evidence),
        }


_set_claim = Certificate.claim.__set__
_set_required_degree = Certificate.required_degree.__set__
_set_achieved = Certificate.achieved.__set__
_set_verdict = Certificate.verdict.__set__
_set_evidence = Certificate.evidence.__set__


def certificate_from_json(data: dict) -> Certificate:
    """Rebuild a certificate; degrees of named h3 options are recomputed."""
    evidence = dict(data.get("evidence", {}))
    achieved = tuple(data["achieved"])
    if "h3_options" in evidence:
        expected = _option_degrees(evidence["h3_options"])
        if achieved != expected:
            raise VerificationError(
                f"achieved degrees {list(achieved)} differ from the "
                f"exponent table's {list(expected)}")
    return Certificate(data["claim"], data["required_degree"], achieved,
                       data["verdict"], evidence)


def holo_obstruction_certificate(d_probe,
                                 required_degree: int = 2) -> Certificate:
    """Certificate that no holomorphic 4-factor Cohn factorization exists.

    A holomorphic section's h3 restricts on the fiber {zw = D} to a unit
    times one of the divisor options {1, z, w, zw}; units contribute no
    degree (e^{zw} is checked).  The achieved degrees [0, -1, 1, 0] miss
    the degree 2 that the continuous section realizes and that the
    restriction h3 = z^2 on {zw = 1} forces.  Every degree is exact, the
    `fiber_degree` of its exponents.
    """
    Dc = require_finite(d_probe)
    if Dc == 0:
        raise PreconditionError("probe fiber must be off the axes (D != 0)")
    achieved = _option_degrees(DIVISOR_OPTIONS)
    evidence = {
        "h3_options": list(DIVISOR_OPTIONS),
        "method": "symbolic",
        "probe": [Dc.real, Dc.imag],
        "unit_degree_e_zw": fiber_degree(UNIT_E_ZW_EXPONENTS),
        "continuous_section_degree": fiber_degree(
            CONTINUOUS_SECTION_EXPONENTS),
    }
    verdict = required_degree not in achieved
    return Certificate(CLAIM_NO_HOLO_4, required_degree, achieved, verdict,
                       evidence)
