"""Command-line front end: JSON in, one JSON report out, typed exit codes.

Exit codes: 0 success, 2 precondition violation (a malformed command line
included), 3 verification failure (adequacy violations included), 4 I/O
trouble.  Every run prints exactly one JSON line; only -h/--help prints
usage instead.  Reports are byte-stable for identical inputs and seeds,
except the timing_ms fields (verify-suite adds one per criterion).  Exact
scalars travel as strings like "3/4" or "1/2+5/3 i".  Float syntax on the
command line needs --approx (jacobian, fiber-solve's --z1, cohn).  --input
files (jacobian, fiber-solve, factor-const, pad, winding) carry their own
kind: strings and ints are exact, floats and [re, im] pairs approximate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from time import perf_counter

# only what every subcommand needs is imported here; each _cmd_* function
# imports the rest, so a cold call loads just the modules it runs
from .errors import PreconditionError, VerificationError
from .scalars import (digit_limit_error, is_exact_scalar, is_exact_text,
                      parse_exact, require_finite, scalar_from_json,
                      scalar_to_json, unify_scalars)


def _parse_scalar(text: str, approx: bool = False):
    text = text.strip()
    if is_exact_text(text):
        # a zero denominator is refused here; --approx would not help
        return parse_exact(text)
    if not approx:
        raise PreconditionError(
            f"scalar {text!r} is not exact; pass --approx to allow floats")
    try:
        # only the imaginary unit of "1+2i" becomes "j", not the i of "inf"
        value = complex(re.sub(r"(?<![A-Za-z])i(?![A-Za-z])", "j",
                               text.replace(" ", "")))
    except ValueError as exc:
        raise PreconditionError(f"unreadable scalar {text!r}") from exc
    return require_finite(value)


def _json_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # a JSON integer fails only above the digit limit
        raise digit_limit_error("--input") from None


def _load_input(args, key: str):
    """The JSON of --input, unwrapped when it is an object holding key."""
    with open(args.input) as fh:
        data = json.load(fh, parse_int=_json_int)
    return data[key] if isinstance(data, dict) and key in data else data


# Ceilings on the size of one call, set from its cost (2 cores, Python
# 3.11.7).  expand's literal unimodularity check grows like phi^(2N): a cold
# `expand --n 18` takes 0.9 s and N = 20 would take 6.6 s.  lemma-check
# ranks one exact Jacobian per sample, about 0.1 ms each at N = 4 and
# 1.1 ms at N = 32, where the default 1,000 samples take 0.7 s; the
# product --n x --samples bounds both together, and at its ceiling
# (--n 4 --samples 10000) one call takes 1.1 s.  winding and certificate
# sample loops of --samples values, up to obstruction.SAMPLE_CAP, the count
# sample_loop doubles up to; it is repeated here so that --help can name it
# without importing obstruction.  At that ceiling a cold `winding` takes
# 0.19 s and a cold `certificate`, which samples eight loops, 1.1 s;
# `certificate --samples 1000000` took 12 s before the ceiling.
# fiber-solve evaluates middle products of --n factors at exact random
# points: a cold call takes 0.8 s at its ceiling --n 1024, and 2.3 s at
# N = 1,600 in process, where its coordinates near the digit limit.
MAX_EXPAND_N = 18
MAX_FIBER_N = 1024
MAX_LEMMA_N = 32
MAX_LEMMA_SAMPLES = 10_000
MAX_LEMMA_WORK = 40_000
MAX_LOOP_SAMPLES = 2 ** 16


def _refuse_above(what: str, size: int, ceiling: int) -> None:
    if size > ceiling:
        raise PreconditionError(f"{what} is above the ceiling {ceiling} of "
                                f"one call")


def _cmd_expand(args):
    from .exact_algebra import poly_det_is_one, poly_to_json
    from .word_core import middle_Q
    if args.n < 3:
        raise PreconditionError("middle polynomials need N >= 3")
    _refuse_above(f"--n {args.n}", args.n, MAX_EXPAND_N)
    q = middle_Q(args.n)
    unimodular = poly_det_is_one(*q)
    if not unimodular:
        raise VerificationError("middle product lost unimodularity")
    return {
        "n": args.n,
        "nvars": args.n - 2,
        "vars": [f"z{j}" for j in range(2, args.n)],
        "Q": [poly_to_json(p) for p in q],
        "unimodular": unimodular,
        "exact": True,
    }, 0


def _cmd_jacobian(args):
    from .submersion_spray import frame_rank, sl2_jacobian
    from .word_core import (PhiTemplate, format_point, in_singular_set,
                            parse_point)
    if args.point is not None:
        point = [_parse_scalar(t, args.approx) for t in args.point.split(",")]
    else:
        point = parse_point(_load_input(args, "point"))
    # echo the point in the one kind sl2_jacobian computes in
    point = unify_scalars(point)
    if len(point) != args.n:
        raise PreconditionError(
            f"point length {len(point)} does not match --n {args.n}")
    frame = sl2_jacobian(PhiTemplate(args.n), point)
    return {
        "n": args.n,
        "point": format_point(point),
        "rank": frame_rank(frame),
        "singular": in_singular_set(point, args.n),
        "exact": frame.exact,
        "columns": [[scalar_to_json(x) for x in col]
                    for col in frame.columns],
    }, 0


def _cmd_lemma_check(args):
    from .submersion_spray import check_lemma_submersive
    _refuse_above(f"--n {args.n}", args.n, MAX_LEMMA_N)
    _refuse_above(f"--samples {args.samples}", args.samples,
                  MAX_LEMMA_SAMPLES)
    _refuse_above(f"--n {args.n} x --samples {args.samples}",
                  args.n * args.samples, MAX_LEMMA_WORK)
    rep = check_lemma_submersive(args.n, args.samples, seed=args.seed)
    ok = not rep["violations"] and all(r < 3 for r in rep["singular_ranks"])
    rep["verified"] = ok
    rep["exact"] = True
    return rep, 0 if ok else 3


def _cmd_fiber_solve(args):
    from .fiber_solver import (complete_generic_even,
                               complete_nongeneric_even, complete_odd,
                               interior_sample, pivot_is_zero)
    from .word_core import format_point, sl2_from_json, sl2_to_json
    _refuse_above(f"--n {args.n}", args.n, MAX_FIBER_N)
    target = sl2_from_json(_load_input(args, "target"))
    n = args.n
    z1 = _parse_scalar(args.z1, args.approx) if args.z1 is not None else 0
    a, b = target.a, target.b
    if n % 2 == 0:
        if not pivot_is_zero(target, n):
            ip = interior_sample(n, a, "Q1", seed=args.seed)
            fc = complete_generic_even(target, ip)
        else:
            ip = interior_sample(n, b, "Q2", seed=args.seed)
            fc = complete_nongeneric_even(target, z1, ip.values[:-1])
    else:
        if not pivot_is_zero(target, n):
            ip = interior_sample(n, b, "Q2", seed=args.seed)
            fc = complete_odd(target, ip, "generic")
        else:
            ip = interior_sample(n, a, "Q1", seed=args.seed)
            fc = complete_odd(target, ip, "nongeneric", z1=z1)
    return {
        "n": n,
        "branch": fc.branch,
        "target": sl2_to_json(target),
        "interior": format_point(fc.interior),
        "point": format_point(fc.point),
        "verified": fc.verified,
        "exact": is_exact_scalar(fc.point[0]),  # one kind per point
        "eq4_residual": None if fc.eq4_residual is None
        else scalar_to_json(fc.eq4_residual),
        "z1_free": None if fc.z1_free is None else scalar_to_json(fc.z1_free),
    }, 0


def _cmd_factor_const(args):
    from .factorizer import can_factor_three, factor_constant
    from .word_core import sl2_from_json
    target = sl2_from_json(_load_input(args, "target"))
    f = factor_constant(target)
    payload = f.to_json()
    payload["exact"] = target.is_exact
    payload["three_factor"] = {p: can_factor_three(target, p)
                               for p in ("ULU", "LUL")}
    return payload, 0


def _cmd_pad(args):
    from .word_core import (Word, eval_word, pad_avoid_singular, replay,
                            word_from_json, word_to_json)
    word = word_from_json(_load_input(args, "word"))
    # echo both words in the one kind their product is computed in
    word = Word.of(*zip([f.side for f in word],
                        unify_scalars([f.entry for f in word])))
    padded = pad_avoid_singular(word)
    before = eval_word(word)
    replay(padded, before)
    return {
        "original": word_to_json(word),
        "padded": word_to_json(padded),
        "length": len(padded),
        "product_match": True,
        "exact": before.is_exact,
    }, 0


def _cmd_cohn(args):
    from .factorizer import cohn_family_4, cohn_family_relations, cohn_holo_5
    z = _parse_scalar(args.z, args.approx)
    w = _parse_scalar(args.w, args.approx)
    if args.factors == 5:
        # cohn_holo_5 takes the double value of an exact z or w, and
        # refuses one beyond the double range
        f = cohn_holo_5(z, w, dps=args.dps)
        if not f.verified:
            hint = ("rerun with --dps 40" if args.dps is None
                    else f"rerun with --dps above {args.dps}")
            raise VerificationError(f"five-factor word unverified (residual "
                                    f"{f.residual:.3e}); {hint}")
        payload = f.to_json()
        payload["mode"] = "holo5"
        payload["dps"] = args.dps
        payload["exact"] = False
        return payload, 0
    if args.h3 is None:
        raise PreconditionError("the 4-factor family needs --h3")
    h3 = _parse_scalar(args.h3, args.approx)
    f = cohn_family_4(z, w, h3)
    payload = f.to_json()
    payload["mode"] = "family4"
    payload["exact"] = f.target.is_exact
    hs = [fac.entry for fac in f.word.factors]
    rels = cohn_family_relations(z, w, hs)
    payload["relation_residuals"] = [scalar_to_json(r) if f.target.is_exact
                                     else abs(complex(r)) for r in rels]
    return payload, 0


def _cmd_winding(args):
    import cmath
    from .obstruction import (LoopSamples, continuous_section_h3,
                              sample_loop, winding_number)
    require_finite(args.radius)
    if args.radius <= 0:
        raise PreconditionError("radius must be positive")
    if args.input:
        data = _load_input(args, "values")
        if not isinstance(data, list):
            raise PreconditionError("loop values must be a JSON list")
        loop = LoopSamples(tuple(scalar_from_json(v) for v in data))
        source = "input"
    else:
        _refuse_above(f"--samples {args.samples}", args.samples,
                      MAX_LOOP_SAMPLES)
        loop = sample_loop(
            lambda th: continuous_section_h3(0, args.radius *
                                             cmath.exp(1j * th)),
            args.samples)
        source = "w^2/|w|^(3/2)"
    return {
        "winding": winding_number(loop),
        "samples_used": len(loop.values),
        "source": source,
        "radius": args.radius if not args.input else None,
    }, 0


def _cmd_certificate(args):
    import cmath
    from .obstruction import (axis_continuation_degrees,
                              holo_obstruction_certificate,
                              shrinking_circle_degrees)
    require_finite(args.radius)
    _refuse_above(f"--samples {args.samples}", args.samples,
                  MAX_LOOP_SAMPLES)
    d_probe = require_finite(_parse_scalar(args.d, approx=True))
    cert = holo_obstruction_certificate(d_probe, args.required)
    continuation = axis_continuation_degrees([d_probe, d_probe / 10],
                                             args.radius, args.samples)
    shrink = shrinking_circle_degrees(cmath.exp, samples=args.samples)
    payload = cert.to_json()
    # the certificate's degrees are exact; these two drive the sampled ones
    payload["evidence"]["radius"] = float(args.radius)
    payload["evidence"]["samples"] = int(args.samples)
    payload["evidence"]["continuation_degrees"] = list(continuation)
    payload["evidence"]["shrink_degrees"] = shrink
    return payload, 0


def _cmd_bound(args):
    from itertools import islice
    from .word_core import factor_count_bound
    counts = {}
    for part in args.k.split(","):
        try:
            key, value = part.split("=")
            counts[int(key)] = int(value)
        except ValueError as exc:
            raise PreconditionError(
                f"malformed --k entry {part!r}; expected i=Ki") from exc
    # count the gaps first: a huge --n must not build a huge list
    n_missing = args.n - 1 - sum(1 for i in counts if 2 <= i <= args.n)
    if n_missing > 0:
        first = list(islice((i for i in range(2, args.n + 1)
                             if i not in counts), 10))
        more = (f" (the first {len(first)} of {n_missing})"
                if n_missing > len(first) else "")
        raise PreconditionError(f"--k misses indices {first}{more}")
    value = factor_count_bound(args.n, counts)
    # each K(i) is within the digit limit, but their sum can carry past it
    try:
        str(value)
    except ValueError:
        raise digit_limit_error("the bound") from None
    return {
        "n": args.n,
        "k": {str(i): counts[i] for i in sorted(counts)},
        "bound": value,
    }, 0


def _cmd_verify_suite(args):
    from ._verify import verify_suite
    rep = verify_suite(seed=args.seed, scale=args.scale)
    return rep, 0 if rep["all_pass"] else 3


# argparse echoes a bad argument whole; one longer than this is echoed as
# its first ECHO_CHARS characters and its length
ECHO_CHARS = 40
_ECHOED_ARG = re.compile(r"(['\"]?)(\S+?)\1(?!\S)")


def _cut_long_arg(m: re.Match) -> str:
    quote, arg = m.groups()
    if len(arg) <= ECHO_CHARS:
        return m[0]
    return f"{quote}{arg[:ECHO_CHARS]}{quote}... ({len(arg)} characters)"


class _Parser(argparse.ArgumentParser):
    """Sends a malformed command line down the one JSON error path."""

    def error(self, message):
        raise PreconditionError(_ECHOED_ARG.sub(_cut_long_arg, message))


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser with every subcommand and its help registered, but only
    the subcommand named command given its arguments: a call runs one."""
    parser = _Parser(prog="sl2factor", description="Exact unipotent "
                     "factorization toolkit for SL2")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p if name == command else None

    # --input and --approx only where the handler reads them: JSON input
    # carries its own scalar kind, --approx governs command-line scalars
    if p := add("expand", _cmd_expand, help="middle polynomials Q1..Q4"):
        p.add_argument("--n", type=int, required=True,
                       help=f"word length, 3 to {MAX_EXPAND_N}")

    if p := add("jacobian", _cmd_jacobian, help="tangent frame and rank"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--approx", action="store_true", help="allow floats")
        g = p.add_mutually_exclusive_group(required=True)
        g.add_argument("--point", help="comma-separated scalars z1..zN")
        g.add_argument("--input", help="JSON point file")

    if p := add("lemma-check", _cmd_lemma_check,
                help="rank 3 off the singular set, lower on it"):
        p.add_argument("--n", type=int, required=True,
                       help=f"word length, 4 to {MAX_LEMMA_N}")
        p.add_argument("--samples", type=int, default=1000,
                       help=f"at most {MAX_LEMMA_SAMPLES}, and --n x "
                       f"--samples at most {MAX_LEMMA_WORK}")
        p.add_argument("--seed", type=int, default=0)

    if p := add("fiber-solve", _cmd_fiber_solve,
                help="closed-form fiber completion over a target"):
        p.add_argument("--n", type=int, required=True,
                       help=f"word length, 4 to {MAX_FIBER_N}")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--z1", help="free boundary coordinate (non-generic)")
        p.add_argument("--approx", action="store_true",
                       help="allow a float --z1")
        p.add_argument("--input", required=True, help="JSON target file")

    if p := add("factor-const", _cmd_factor_const,
                help="at most four factors for one matrix"):
        p.add_argument("--input", required=True, help="JSON matrix file")

    if p := add("pad", _cmd_pad,
                help="length +2 padding off the singular set"):
        p.add_argument("--input", required=True, help="JSON word file")

    if p := add("cohn", _cmd_cohn, help="Cohn matrix factorizations"):
        p.add_argument("--z", required=True)
        p.add_argument("--w", required=True)
        p.add_argument("--factors", type=int, choices=(4, 5), default=5)
        p.add_argument("--h3", help="free parameter of the 4-factor family")
        p.add_argument("--dps", type=int,
                       help="mpmath working precision, >= 15")
        p.add_argument("--approx", action="store_true", help="allow floats")

    if p := add("winding", _cmd_winding, help="winding number of a loop"):
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--samples", type=int, default=256,
                       help=f"3 to {MAX_LOOP_SAMPLES}")
        p.add_argument("--input", help="JSON file of loop values")

    if p := add("certificate", _cmd_certificate,
                help="no holomorphic 4-factor Cohn word"):
        p.add_argument("--d", default="1/2", help="fiber probe zw = D")
        p.add_argument("--radius", type=float, default=1.0)
        p.add_argument("--samples", type=int, default=256,
                       help=f"per sampled loop, 3 to {MAX_LOOP_SAMPLES}")
        p.add_argument("--required", type=int, default=2)

    if p := add("bound", _cmd_bound, help="composite factor-count bound"):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", required=True, help="comma list i=Ki")

    if p := add("verify-suite", _cmd_verify_suite,
                help="run the whole acceptance battery"):
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--scale", choices=("quick", "full"), default="quick")

    return parser


def _emit(payload: dict, command: str | None, t0: float) -> bool:
    """Print the report as one line of strict JSON.  A report holding a
    non-finite float has no such line: print nothing and return False."""
    payload["command"] = command
    payload["timing_ms"] = round((perf_counter() - t0) * 1000.0, 3)
    try:
        line = json.dumps(payload, sort_keys=True, allow_nan=False)
    except ValueError:
        json.dumps(payload, sort_keys=True)  # re-raises any other fault
        return False
    print(line)
    return True


def main(argv=None) -> int:
    t0 = perf_counter()
    # argparse sets command on a known subcommand, so parse errors name it
    args = argparse.Namespace(command=None)
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser takes no option values, so the subcommand that
    # can run is the first argument not starting with "-"; argparse refuses
    # any earlier one it reads as a command ("-5", "-x y") as unknown
    named = next((a for a in argv if not a.startswith("-")), "")
    try:
        build_parser(named).parse_args(argv, args)
        payload, code = args.fn(args)
    except PreconditionError as exc:
        payload, code = {"error": {"code": "precondition",
                                   "message": str(exc)}}, 2
    except VerificationError as exc:
        payload, code = {"error": {"code": "verification",
                                   "message": str(exc)}}, 3
    except (OSError, json.JSONDecodeError) as exc:
        payload, code = {"error": {"code": "io", "message": str(exc)}}, 4
    if not _emit(payload, args.command, t0):
        code = 3
        _emit({"error": {"code": "verification", "message":
                         "report holds a non-finite value"}},
              args.command, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
