"""One-shot verification suite aggregating every module's core checks.

Each criterion returns pass/fail plus a deterministic detail record;
failures carry a machine-readable code.  Every check entry also records
its wall-clock time as timing_ms which, like the CLI report's own
timing_ms, is not byte-stable.  Scale "quick" trims sample counts to
finish fast, "full" runs the complete battery.
"""

from __future__ import annotations

import cmath
from time import perf_counter

from .exact_algebra import MultiPoly, poly_det_is_one
from .factorizer import (can_factor_three, cohn_family_4,
                         cohn_family_relations, cohn_holo_5, factor_constant)
from .fiber_solver import (complete_generic_even, complete_nongeneric_even,
                           complete_odd, interior_sample)
from .obstruction import (axis_continuation_degrees, circle_winding,
                          continuous_section_h3, divisor_degrees,
                          holo_obstruction_certificate,
                          section_degree_on_fiber, shrinking_circle_degrees)
from ._random import (random_alternating_word, random_exact,
                      random_exact_nonzero, random_sl2, rng_from_seed)
from .submersion_spray import (check_lemma_submersive, flow_rk4,
                               v_field_spec, vfield_apply)
from .scalars import ExactComplex
from .word_core import (SL2, PhiTemplate, eval_word, in_singular_set,
                        middle_Q, middle_Q_brute, pad_avoid_singular)

COHN_DPS = 40


def _crit_q_unimodular(rng, full: bool):
    t0 = perf_counter()
    lengths = list(range(4, 11)) if full else list(range(4, 8))
    for n in lengths:
        q = middle_Q(n)
        if list(q) != list(middle_Q_brute(n)):
            return False, {"n": n, "reason": "recursion != brute force"}
        if not poly_det_is_one(*q):
            return False, {"n": n, "reason": "Q1 Q4 - Q2 Q3 != 1"}
    within = perf_counter() - t0 < 10.0
    return within, {"lengths": lengths, "within_budget": within}


def _crit_paper_polys(rng, full: bool):
    q4 = middle_Q(4)
    v2 = [MultiPoly.variable(2, i) for i in range(2)]
    ok4 = (q4[0] == MultiPoly.one(2) + v2[0] * v2[1] and q4[1] == v2[0])
    q5 = middle_Q(5)
    v3 = [MultiPoly.variable(3, i) for i in range(3)]
    ok5 = q5[1] == v3[0] + v3[2] + v3[0] * v3[1] * v3[2]
    return ok4 and ok5, {"q1_n4": ok4, "q2_n5": ok5}


def _crit_submersive(rng, full: bool):
    lengths = range(4, 8) if full else range(4, 6)
    samples = 1000 if full else 100
    summary = {}
    ok = True
    for n in lengths:
        rep = check_lemma_submersive(n, samples, seed=rng.randrange(2 ** 32))
        summary[str(n)] = {"violations": len(rep["violations"]),
                           "singular_ranks": rep["singular_ranks"]}
        ok = ok and not rep["violations"] \
            and all(r < 3 for r in rep["singular_ranks"])
    return ok, {"samples": samples, "per_n": summary}


def _sl2_a_zero(rng) -> SL2:
    # a = 0 forces bc = -1; d stays free
    b = random_exact_nonzero(rng)
    return SL2(0, b, -1 / b, random_exact(rng))


def _sl2_b_zero(rng) -> SL2:
    # b = 0 forces ad = 1; c stays free
    a = random_exact_nonzero(rng)
    return SL2(a, 0, random_exact(rng), 1 / a)


def _crit_fiber(rng, full: bool):
    n_gen, n_non = (100, 50) if full else (20, 10)
    counts = {"generic_even": 0, "nongeneric_even": 0, "generic_odd": 0,
              "nongeneric_odd": 0}
    for _ in range(n_gen):
        n = rng.choice((4, 6, 8))
        target = random_sl2(rng)
        while not target.a:
            target = random_sl2(rng)
        fc = complete_generic_even(
            target, interior_sample(n, target.a, "Q1", rng=rng))
        if not (fc.verified and fc.eq4_residual.is_zero):
            return False, {"branch": "generic_even", "reason": "residual"}
        counts["generic_even"] += 1
    for i in range(n_non):
        n = rng.choice((4, 6))
        target = _sl2_a_zero(rng)
        prefix = interior_sample(n, target.b, "Q2", rng=rng).values[:-1]
        fc = complete_nongeneric_even(target, random_exact(rng), prefix)
        if not fc.verified:
            return False, {"branch": "nongeneric_even"}
        if i < 5:
            # the free boundary coordinate moves the point, not the product
            other = complete_nongeneric_even(target, fc.point[0] + 1, prefix)
            if not other.verified or other.point == fc.point:
                return False, {"branch": "nongeneric_even", "reason": "z1"}
        counts["nongeneric_even"] += 1
    for _ in range(n_gen):
        n = rng.choice((5, 7))
        target = random_sl2(rng)
        while not target.b:
            target = random_sl2(rng)
        fc = complete_odd(target, interior_sample(n, target.b, "Q2", rng=rng),
                          "generic")
        if not fc.verified:
            return False, {"branch": "generic_odd"}
        counts["generic_odd"] += 1
    for _ in range(n_non):
        n = rng.choice((5, 7))
        target = _sl2_b_zero(rng)
        fc = complete_odd(target, interior_sample(n, target.a, "Q1", rng=rng),
                          "nongeneric", z1=random_exact(rng))
        if not fc.verified:
            return False, {"branch": "nongeneric_odd"}
        counts["nongeneric_odd"] += 1
    return True, counts


def _crit_factor_const(rng, full: bool):
    count = 1000 if full else 100
    for _ in range(count):
        m = eval_word(random_alternating_word(rng, rng.randrange(2, 9)))
        f = factor_constant(m)
        if not (f.verified and f.factor_count <= 4):
            return False, {"reason": "count or residual"}
    diag = SL2(2, 0, 0, ExactComplex.coerce(1) / 2)
    rejected = (not can_factor_three(diag, "ULU")
                and not can_factor_three(diag, "LUL"))
    at_four = factor_constant(diag).factor_count == 4
    return rejected and at_four, {
        "count": count, "diag_rejected_at_3": rejected,
        "diag_factored_at_4": at_four}


def _crit_padding(rng, full: bool):
    count = 200 if full else 50
    for _ in range(count):
        w = random_alternating_word(rng, rng.randrange(2, 9))
        p = pad_avoid_singular(w)
        point = [f.entry for f in p.factors]
        if not (len(p) == len(w) + 2
                and eval_word(p) == eval_word(w)
                and p.factors[2].entry == -1
                and not in_singular_set(point, len(p))):
            return False, {"reason": "padding contract"}
    return True, {"count": count}


def _cohn_grid(points: int):
    # z on the diagonal t(1+i), w on the anti-diagonal t(1-i); then
    # zw = 2 t t' is real with |zw| up to 8 at the corners, and the
    # middle row is the exact w = 0 line
    half = (points - 1) // 2
    ts = [(k - half) * 2.0 / half for k in range(points)]
    worst = 0.0
    for tk in ts:
        z = complex(tk, tk)
        for tj in ts:
            f = cohn_holo_5(z, complex(tj, -tj), dps=COHN_DPS)
            worst = max(worst, float(f.residual))
            if not f.verified:
                return worst, False
    return worst, True


def _crit_cohn5(rng, full: bool):
    t0 = perf_counter()
    points = 41 if full else 11
    worst, verified = _cohn_grid(points)
    within = perf_counter() - t0 < 5.0
    ok = verified and worst < 1e-10 and within
    return ok, {"grid": points, "worst_residual": worst,
                "within_budget": within}


def _crit_cohn_family(rng, full: bool):
    count = 200 if full else 50
    for _ in range(count):
        z = random_exact(rng)
        w = random_exact(rng)
        while (z * w - 1).is_zero:
            w = random_exact(rng)
        f = cohn_family_4(z, w, random_exact_nonzero(rng))
        hs = [fac.entry for fac in f.word.factors]
        rels = cohn_family_relations(z, w, hs)
        if not (f.verified and f.target.is_exact
                and all(r.is_zero for r in rels)):
            return False, {"reason": "family relations"}
    return True, {"count": count}


def _crit_degree(rng, full: bool):
    radii_ok = all(
        circle_winding(lambda w: w * w / abs(w) ** 1.5, r) == 2
        for r in (0.25, 1.0, 4.0))
    divisors = divisor_degrees(0.5)
    divisors_ok = divisors == [0, -1, 1, 0] \
        and divisor_degrees(2 + 1j) == divisors
    cert = holo_obstruction_certificate(0.5)
    cert_ok = cert.verdict and cert.required_degree == 2
    continuation = axis_continuation_degrees([0.1, 0.01])
    shrink = shrinking_circle_degrees(cmath.exp) \
        + shrinking_circle_degrees(lambda p: 1 + p)
    unit_ok = section_degree_on_fiber(
        lambda z, w: cmath.exp(z * w), 0.5) == 0
    section_ok = section_degree_on_fiber(continuous_section_h3, 0.5) == 2
    ok = (radii_ok and divisors_ok and cert_ok and continuation == (2, -2)
          and all(d == 0 for d in shrink) and unit_ok and section_ok)
    return ok, {"winding_radii_ok": radii_ok, "divisors": divisors,
                "certificate_verdict": cert.verdict,
                "continuation": list(continuation),
                "shrink_all_zero": all(d == 0 for d in shrink),
                "unit_degree_zero": unit_ok}


def _crit_flow(rng, full: bool):
    for n in range(4, 9):
        for k in range(2, n):
            for l in range(k + 1, n):
                spec = v_field_spec(n, k, l)
                if not vfield_apply(spec, spec.p).is_zero:
                    return False, {"n": n, "k": k, "l": l,
                                   "reason": "tangency"}
    starts = 50 if full else 10
    worst = 0.0
    for _ in range(starts):
        n = rng.choice((4, 5, 6, 7, 8))
        k = rng.randrange(2, n - 1)
        l = rng.randrange(k + 1, n)
        spec = v_field_spec(n, k, l)
        start = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                 for _ in range(n - 2)]
        res = flow_rk4(spec, start, t=1.0, step=1e-3)
        worst = max(worst, abs(res.drift))
    return worst < 1e-8, {"starts": starts, "worst_drift": worst}


CRITERIA = (
    (1, "symbolic-unimodularity", "Q_UNIMODULAR", _crit_q_unimodular),
    (2, "middle-polynomial-values", "Q_VALUES", _crit_paper_polys),
    (3, "submersive-rank", "SUBMERSIVE_RANK", _crit_submersive),
    (4, "fiber-completions", "FIBER_COMPLETION", _crit_fiber),
    (5, "constant-factorization", "FACTOR_CONST", _crit_factor_const),
    (6, "padding", "PADDING", _crit_padding),
    (7, "cohn-five-factor", "COHN_RESIDUAL", _crit_cohn5),
    (8, "cohn-four-family", "COHN_FAMILY", _crit_cohn_family),
    (9, "degree-facts", "DEGREE_FACTS", _crit_degree),
    (10, "flow-conservation", "FLOW_CONSERVATION", _crit_flow),
)


def verify_suite(seed: int = 7, scale: str = "quick") -> dict:
    """Run every criterion at the requested scale; report, don't raise."""
    if scale not in ("quick", "full"):
        from .errors import PreconditionError
        raise PreconditionError("scale must be 'quick' or 'full'")
    full = scale == "full"
    master = rng_from_seed(seed)
    checks = []
    for number, name, code, fn in CRITERIA:
        rng = rng_from_seed(master.randrange(2 ** 32))
        t0 = perf_counter()
        try:
            ok, details = fn(rng, full)
        except Exception as exc:  # failures are report content
            ok, details = False, {"exception": f"{type(exc).__name__}: {exc}"}
        checks.append({
            "criterion": number,
            "name": name,
            "pass": bool(ok),
            "code": None if ok else code,
            "details": details,
            "timing_ms": round((perf_counter() - t0) * 1000.0, 3),
        })
    return {
        "scale": scale,
        "seed": seed,
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
