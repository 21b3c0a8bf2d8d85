"""float-analysis: the approximate track, with no exact work after set-up.

Why: this exercises the float, mpmath and numpy paths.  It is the bypass
for exact-layer changes, where the prediction is no change.

Requests: cohn_holo_5 in double precision and at dps 40 over criterion 7's
box (z = t(1+i), w = t'(1-i) with t, t' on the 41-point grid of [-2, 2]);
flow_rk4 of v-fields built during set-up; holo_obstruction_certificate at
seeded probes D; sample_loop and winding_number of the continuous section;
the approximate Jacobian with its SVD rank.  A double-precision Cohn
request asks for a verified word: where the library flags the double-
precision word as unverified (26 of the 1,681 grid points, all with
zw <= -6.4), it asks again at dps 40, as criterion 7 does on the whole
grid.  The request fails only if that word is unverified too; it is
never redrawn.

Checks use values the library did not produce: the Cohn residual is
recomputed with the benchmark's own product, the conserved quantity of a
flow is evaluated from the polynomial's JSON form, and degrees and ranks
are compared with their known values.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

from . import gauss
from .harness import FAILED, FRACTION_REF, OK, WRONG, Tracer

NAME = "float-analysis"
TAIL_Q = 0.99
IN_PROCESS = True
REFERENCE = FRACTION_REF
POOL_DECKS = 6000
TRACED_DECKS_PER_S = 35

# one deck of 32: (kind, slot parameter: samples, N or field index).
# Loops of 16 samples fill ranks 1-9 and double-precision Cohn words ranks
# 10-21, so the median falls inside one pure-Python class (a median in the
# numpy SVD class moved more between runs); the flow on the N = 8 field is
# the tail class.  A loop of 4 samples must double, one of 64 need not.
DECK = ([("winding", 16)] * 9 + [("cohn5_float", None)] * 12
        + [("winding", 4), ("winding", 64), ("jacobian", 6),
           ("jacobian_probe", 6)]
        + [("cohn5_dps40", None)] * 2 + [("flow", i) for i in range(3)]
        + [("certificate", None)] * 2)

GRID = [(k - 20) / 10 for k in range(41)]
# (N, k, l) of the fields whose flows are integrated
FIELDS = ((6, 2, 4), (7, 3, 5), (8, 2, 6))
FLOW_T = 0.25
FLOW_STEP = 0.005
COHN_TOL = 1e-10
ESCALATE_DPS = 40


def _unit_complex(rng, lo: float, hi: float) -> complex:
    return cmath.rect(rng.uniform(lo, hi), rng.uniform(-math.pi, math.pi))


def _request(rng: random.Random, kind: str, n):
    if kind.startswith("cohn5"):
        return (rng.choice(GRID), rng.choice(GRID))
    if kind == "flow":
        return (n, [_unit_complex(rng, 0.0, 0.5)
                    for _ in range(FIELDS[n][0] - 2)])
    if kind == "certificate":
        return _unit_complex(rng, 0.2, 2.0)
    if kind == "winding":
        return (rng.uniform(0.3, 3.0), _unit_complex(rng, 0.2, 2.0), n)
    if kind == "jacobian":
        return (n, [_unit_complex(rng, 0.2, 2.0) for _ in range(n)])
    return (n, [_unit_complex(rng, 0.2, 2.0)] + [0j] * (n - 2)
            + [_unit_complex(rng, 0.2, 2.0)])


def generate(seed: int, decks: int = POOL_DECKS) -> list:
    rng = random.Random(f"{NAME}:{seed}")
    out = []
    for _ in range(decks):
        deck = [(kind, _request(rng, kind, n)) for kind, n in DECK]
        rng.shuffle(deck)
        out.append(deck)
    return out


def compile_json_poly(data: dict):
    """Complex evaluator of a poly_to_json record, independent of the
    library's compile_approx."""
    terms = [(complex(Fraction(t["re"]), Fraction(t["im"])), t["exp"])
             for t in data["terms"]]

    def value(point):
        acc = 0j
        for c, exp in terms:
            for x, e in zip(point, exp):
                c *= x ** e
            acc += c
        return acc
    return value


class Context:
    def __init__(self):
        import mpmath
        import sl2factor
        from sl2factor.exact_algebra import poly_to_json
        self.lib = sl2factor
        self.mp = mpmath
        self.fields = []
        for n, k, l in FIELDS:
            spec = sl2factor.v_field_spec(n, k, l)
            self.fields.append((spec, compile_json_poly(poly_to_json(spec.p))))


def _cohn_residual(ctx, f, z, w, dps) -> float:
    factors = [(fac.side, fac.entry) for fac in f.word]
    if dps is None:
        return gauss.residual(gauss.cword_product(factors),
                              gauss.ccohn(z, w))
    mp = ctx.mp
    with mp.workdps(dps):
        prod = gauss.cword_product(factors, mp.mpc(1), mp.mpc(0))
        return gauss.residual(prod, gauss.ccohn(mp.mpc(z), mp.mpc(w)))


def execute(ctx, kind: str, payload, tr) -> str:
    lib = ctx.lib
    if kind.startswith("cohn5"):
        t, t2 = payload
        z, w = complex(t, t), complex(t2, -t2)
        if kind == "cohn5_float":
            dps, site = None, "factorizer.cohn_holo_5.float"
        else:
            dps, site = 40, "factorizer.cohn_holo_5.dps40"
        f = tr.call(site, lib.cohn_holo_5, z, w, dps=dps)
        tr.count(site + ".results")
        tr.count(site + ".verified", f.verified)
        if not f.verified and dps is None:
            dps, site = ESCALATE_DPS, "factorizer.cohn_holo_5.escalate"
            f = tr.call(site, lib.cohn_holo_5, z, w, dps=dps)
        if not f.verified:
            tr.flag(site)
            return FAILED
        if _cohn_residual(ctx, f, z, w, dps) >= COHN_TOL:
            tr.flag(site)
            return WRONG
        return OK
    if kind == "flow":
        i, start = payload
        spec, p = ctx.fields[i]
        fr = tr.call("submersion_spray.flow_rk4", lib.flow_rk4, spec, start,
                     FLOW_T, FLOW_STEP)
        tr.count("submersion_spray.flow_rk4.flows")
        tr.count("submersion_spray.flow_rk4.steps",
                 math.ceil(FLOW_T / FLOW_STEP))
        p0, p1 = p(start), p(fr.end)
        ok = (abs(p1 - p0) <= 1e-8 * (1 + abs(p0))
              and abs(fr.p_start - p0) <= 1e-9 * (1 + abs(p0)))
        if not ok:
            tr.flag("submersion_spray.flow_rk4")
        return OK if ok else WRONG
    if kind == "certificate":
        cert = tr.call("obstruction.holo_obstruction_certificate",
                       lib.holo_obstruction_certificate, payload)
        ev = cert.evidence
        ok = (list(cert.achieved) == [0, -1, 1, 0] and cert.verdict is True
              and ev["unit_degree_e_zw"] == 0
              and ev["continuous_section_degree"] == 2)
        if not ok:
            tr.flag("obstruction.holo_obstruction_certificate")
        return OK if ok else WRONG
    if kind == "winding":
        radius, d, samples = payload
        h3 = lib.continuous_section_h3

        def section(theta):
            w = radius * cmath.exp(1j * theta)
            return h3(d / w, w)
        loop = tr.call("obstruction.sample_loop", lib.sample_loop, section,
                       samples)
        degree = tr.call("obstruction.winding_number", lib.winding_number,
                         loop)
        tr.count("obstruction.sample_loop.requested", samples)
        tr.count("obstruction.sample_loop.used", len(loop.values))
        if degree != 2:
            tr.flag("obstruction.sample_loop")
            return WRONG
        return OK
    if kind in ("jacobian", "jacobian_probe"):
        n, point = payload
        frame = tr.call("submersion_spray.sl2_jacobian.approx",
                        lib.sl2_jacobian, lib.PhiTemplate(n), point)
        rank = tr.call("submersion_spray.frame_rank.approx", lib.frame_rank,
                       frame)
        ok = not frame.exact and (rank == 3 if kind == "jacobian"
                                  else rank < 3)
        if not ok:
            tr.flag("submersion_spray.frame_rank.approx")
        return OK if ok else WRONG
    raise ValueError(kind)


def setup(root, decks=()) -> Context:
    """Import sl2factor and mpmath, build the fields, and run one request
    of every kind (the first SVD loads numpy's linear algebra)."""
    ctx = Context()
    rng = random.Random(0)
    for kind, n in DECK:
        payload = _request(rng, kind, n)
        if kind.startswith("cohn5"):
            payload = (0.5, 0.5)
        if execute(ctx, kind, payload, Tracer()) != OK:
            raise RuntimeError(f"warm-up request {kind} failed")
    return ctx


def trace_counters(counters: dict) -> dict:
    def share(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) \
            else 0.0
    return {
        "factorizer.cohn_holo_5.float.verified_share": share(
            "factorizer.cohn_holo_5.float.verified",
            "factorizer.cohn_holo_5.float.results"),
        "obstruction.sample_loop.samples_per_loop": share(
            "obstruction.sample_loop.used",
            "obstruction.sample_loop.requested"),
        "submersion_spray.flow_rk4.steps": share(
            "submersion_spray.flow_rk4.steps",
            "submersion_spray.flow_rk4.flows"),
    }
