"""exact-solve: a seeded mix of exact requests over the Gaussian rationals.

Why: Gaussian-rational arithmetic with division and the 2x2 product do
nearly all the work here, while MultiPoly, numpy and mpmath sit idle.
Entries come in two bands, the battery's small rationals and rationals
with about 10-digit numerators and denominators, so that a scalar change
whose cost depends on integer size shows.

Every request's inputs are drawn fresh, so no two are alike.  Targets are
built with the benchmark's own arithmetic (gauss.py); each returned word
or point is replayed through eval_word and compared literally with that
target, its determinant is checked, and its entries are serialised with
format_exact and compared with the benchmark's own formatting.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import gauss
from .harness import FRACTION_REF, OK, WRONG, Tracer

NAME = "exact-solve"
TAIL_Q = 0.99
IN_PROCESS = True
REFERENCE = FRACTION_REF
POOL_DECKS = 800
TRACED_DECKS_PER_S = 4

# one deck: (kind, size band, word length or N).  Every deck holds exactly
# this mix, so the heaviest class (fibers at N = 8, 2 of 27) and the
# median stay in the same place whatever the seed.
DECK = ([("factor", "sbsbsbs"[i], n) for i, n in enumerate(range(2, 9))]
        + [("fiber_ge", b, n) for b, n in zip("sbs", (4, 6, 8))]
        + [("fiber_ne", b, n) for b, n in zip("bsb", (4, 6, 8))]
        + [("fiber_go", b, n) for b, n in zip("sb", (5, 7))]
        + [("fiber_no", b, n) for b, n in zip("bs", (5, 7))]
        + [("jacobian", "sbsbs"[i], n) for i, n in enumerate(range(4, 9))]
        + [("jacobian_probe", "b", 6)]
        + [("pad", b, n) for b, n in zip("sb", (3, 6))]
        + [("cohn4", b, 0) for b in "bs"])


def _rational(rng: random.Random, big: bool) -> Fraction:
    if big:
        return Fraction(rng.randint(-10 ** 10, 10 ** 10),
                        rng.randint(1, 10 ** 10))
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def _scalar(rng, big):
    # half the draws stay real, as in the library's own battery
    im = _rational(rng, big) if rng.random() < 0.5 else Fraction(0)
    return (_rational(rng, big), im)


def _nonzero(rng, big):
    while True:
        x = _scalar(rng, big)
        if not gauss.is_zero(x):
            return x


def _word(rng, big, length):
    first = rng.choice("LU")
    return gauss.alternating(first, [_scalar(rng, big)
                                     for _ in range(length)])


def _target_a_nonzero(rng, big):
    a, b, c = _nonzero(rng, big), _scalar(rng, big), _scalar(rng, big)
    return (a, b, c, gauss.gdiv(gauss.gadd(gauss.ONE, gauss.gmul(b, c)), a))


def _target_b_nonzero(rng, big):
    a, b, d = _scalar(rng, big), _nonzero(rng, big), _scalar(rng, big)
    # c = (ad - 1)/b
    return (a, b, gauss.gdiv(gauss.gsub(gauss.gmul(a, d), gauss.ONE), b), d)


def _request(rng: random.Random, kind: str, band: str, n: int):
    big = band == "b"
    seed = rng.randrange(2 ** 31)
    if kind in ("factor", "pad"):
        word = _word(rng, big, n)
        return (word, gauss.word_product(word))
    if kind == "fiber_ge":
        return (n, _target_a_nonzero(rng, big), seed)
    if kind == "fiber_ne":
        b = _nonzero(rng, big)
        target = (gauss.ZERO, b, gauss.gneg(gauss.ginv(b)), _scalar(rng, big))
        return (n, target, _scalar(rng, big), seed)
    if kind == "fiber_go":
        return (n, _target_b_nonzero(rng, big), seed)
    if kind == "fiber_no":
        a = _nonzero(rng, big)
        target = (a, gauss.ZERO, _scalar(rng, big), gauss.ginv(a))
        return (n, target, _scalar(rng, big), seed)
    if kind == "jacobian":
        point = [_scalar(rng, big) for _ in range(n)]
        point[rng.randrange(1, n - 1)] = _nonzero(rng, big)
        return (n, point)
    if kind == "jacobian_probe":
        return (n, [_scalar(rng, big)] + [gauss.ZERO] * (n - 2)
                + [_scalar(rng, big)])
    if kind == "cohn4":
        z = _scalar(rng, big)
        w = _scalar(rng, big)
        while gauss.gmul(z, w) == gauss.ONE:
            w = _scalar(rng, big)
        return (z, w, _nonzero(rng, big), gauss.cohn(z, w))
    raise ValueError(kind)


def generate(seed: int, decks: int = POOL_DECKS) -> list:
    rng = random.Random(f"{NAME}:{seed}")
    out = []
    for _ in range(decks):
        deck = [(kind, _request(rng, kind, band, n)) for kind, band, n in DECK]
        rng.shuffle(deck)
        out.append(deck)
    return out


# ---------------------------------------------------------------------------
# execution


class Context:
    def __init__(self):
        import sl2factor
        self.lib = sl2factor


def _ec(lib, x):
    return lib.ExactComplex(x[0], x[1])


def _sl2(lib, m):
    return lib.SL2(*(_ec(lib, x) for x in m))


def _pairs(m) -> tuple:
    return tuple((x.re, x.im) for x in m.entries)


def det_is_one(m) -> bool:
    return m.a * m.d - m.b * m.c == 1


def format_entries(lib, entries) -> list:
    return [lib.format_exact(x) for x in entries]


def check_replay(ctx, tr, site, word, target) -> bool:
    """Replay a returned word; compare literally with the benchmark's own
    target, check det = 1 and the serialised entries."""
    lib = ctx.lib
    prod = tr.call("word_core.eval_word", lib.eval_word, word)
    ok = _pairs(prod) == tuple(target)
    ok = tr.call("exact_algebra.det_check", det_is_one, prod) and ok
    entries = [f.entry for f in word]
    text = tr.call("exact_algebra.format_exact", format_entries, lib, entries)
    ok = ok and text == [gauss.fmt((x.re, x.im)) for x in entries]
    if not ok:
        tr.flag(site)
    return ok


def _fiber(ctx, tr, site, n, target, fc, z1=None) -> str:
    word = ctx.lib.PhiTemplate(n).word_at(fc.point)
    ok = (fc.verified and len(fc.point) == n
          and (z1 is None or (fc.point[0].re, fc.point[0].im) == z1))
    return OK if check_replay(ctx, tr, site, word, target) and ok else WRONG


def execute(ctx, kind: str, payload, tr) -> str:
    lib = ctx.lib
    if kind == "factor":
        word, target = payload
        m = _sl2(lib, target)
        f = tr.call("factorizer.factor_constant", lib.factor_constant, m)
        ulu = tr.call("factorizer.can_factor_three", lib.can_factor_three,
                      m, "ULU")
        lul = tr.call("factorizer.can_factor_three", lib.can_factor_three,
                      m, "LUL")
        tr.count("factorizer.factor_constant.results")
        tr.count("factorizer.factor_constant.three_factor",
                 f.factor_count <= 3)
        a, b, c, d = target
        unit_diag = a == gauss.ONE and d == gauss.ONE
        ok = (ulu == (not gauss.is_zero(c) or unit_diag)
              and lul == (not gauss.is_zero(b) or unit_diag)
              and f.factor_count <= 4)
        ok = check_replay(ctx, tr, "factorizer.factor_constant", f.word,
                          target) and ok
        return OK if ok else WRONG
    if kind == "pad":
        factors, target = payload
        word = lib.Word(lib.ElementaryFactor(s, _ec(lib, x))
                        for s, x in factors)
        padded = tr.call("factorizer.pad_avoid_singular",
                         lib.pad_avoid_singular, word)
        interior = [(f.entry.re, f.entry.im) for f in padded][1:-1]
        ok = (len(padded) == len(factors) + 2
              and interior[1] == (-1, 0)
              and not all(gauss.is_zero(x) for x in interior))
        ok = check_replay(ctx, tr, "factorizer.pad_avoid_singular", padded,
                          target) and ok
        return OK if ok else WRONG
    if kind == "cohn4":
        z, w, h3, target = payload
        f = tr.call("factorizer.cohn_family_4", lib.cohn_family_4,
                    _ec(lib, z), _ec(lib, w), _ec(lib, h3))
        ok = f.verified and f.factor_count == 4
        ok = check_replay(ctx, tr, "factorizer.cohn_family_4", f.word,
                          target) and ok
        return OK if ok else WRONG
    if kind in ("jacobian", "jacobian_probe"):
        n, point = payload
        frame = tr.call("submersion_spray.sl2_jacobian.exact",
                        lib.sl2_jacobian, lib.PhiTemplate(n),
                        [_ec(lib, x) for x in point])
        rank = tr.call("submersion_spray.frame_rank.exact", lib.frame_rank,
                       frame)
        ok = frame.exact and (rank == 3 if kind == "jacobian" else rank < 3)
        if not ok:
            tr.flag("submersion_spray.frame_rank.exact")
        return OK if ok else WRONG
    if kind in ("fiber_ge", "fiber_go"):
        n, target, seed = payload
        m = _sl2(lib, target)
        if kind == "fiber_ge":
            level, stratum = m.a, "Q1"
            site, solve = ("fiber_solver.complete_generic_even",
                           lib.complete_generic_even)
        else:
            level, stratum = m.b, "Q2"
            site, solve = "fiber_solver.complete_odd", lib.complete_odd
        ip = tr.call("fiber_solver.interior_sample", lib.interior_sample,
                     n, level, stratum, seed=seed)
        extra = () if kind == "fiber_ge" else ("generic",)
        fc = tr.call(site, solve, m, ip, *extra)
        return _fiber(ctx, tr, site, n, target, fc)
    if kind in ("fiber_ne", "fiber_no"):
        n, target, z1, seed = payload
        m = _sl2(lib, target)
        if kind == "fiber_ne":
            ip = tr.call("fiber_solver.interior_sample", lib.interior_sample,
                         n, m.b, "Q2", seed=seed)
            site = "fiber_solver.complete_nongeneric_even"
            fc = tr.call(site, lib.complete_nongeneric_even, m,
                         _ec(lib, z1), ip.values[:-1])
        else:
            ip = tr.call("fiber_solver.interior_sample", lib.interior_sample,
                         n, m.a, "Q1", seed=seed)
            site = "fiber_solver.complete_odd"
            fc = tr.call(site, lib.complete_odd, m, ip, "nongeneric",
                         z1=_ec(lib, z1))
        return _fiber(ctx, tr, site, n, target, fc, z1)
    raise ValueError(kind)


def setup(root, decks=()) -> Context:
    """Import sl2factor and run one request of every kind."""
    ctx = Context()
    deck = generate(0, decks=1)[0]
    for kind, payload in deck:
        if execute(ctx, kind, payload, Tracer()) != OK:
            raise RuntimeError(f"warm-up request {kind} failed")
    return ctx


def trace_counters(counters: dict) -> dict:
    results = counters.get("factorizer.factor_constant.results", 0)
    return {"factorizer.factor_constant.three_factor_share":
            counters.get("factorizer.factor_constant.three_factor", 0)
            / results if results else 0.0}
