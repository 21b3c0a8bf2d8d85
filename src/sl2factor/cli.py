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
A well-formed command line is parsed directly against the one option table,
SUBCOMMANDS; argparse, built from the same table, is imported only for
-h/--help and for a line the direct parse declines, so it alone writes help
text and parse-error messages.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter
from types import SimpleNamespace

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
    import re
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


# Every subcommand once: its help, its handler, its options and the options
# of which exactly one must be given.  Each option maps its flag to the
# keywords of argparse's add_argument.  parse_direct reads a well-formed
# command line against this table; build_parser hands it to argparse, which
# writes the help text and the message for every other line.  --input and
# --approx only where the handler reads them: JSON input carries its own
# scalar kind, --approx governs command-line scalars.
SUBCOMMANDS = {
    "expand": ("middle polynomials Q1..Q4", _cmd_expand, {
        "--n": dict(type=int, required=True,
                    help=f"word length, 3 to {MAX_EXPAND_N}"),
    }, ()),
    "jacobian": ("tangent frame and rank", _cmd_jacobian, {
        "--n": dict(type=int, required=True),
        "--approx": dict(action="store_true", help="allow floats"),
        "--point": dict(help="comma-separated scalars z1..zN"),
        "--input": dict(help="JSON point file"),
    }, ("--point", "--input")),
    "lemma-check": ("rank 3 off the singular set, lower on it",
                    _cmd_lemma_check, {
        "--n": dict(type=int, required=True,
                    help=f"word length, 4 to {MAX_LEMMA_N}"),
        "--samples": dict(type=int, default=1000,
                          help=f"at most {MAX_LEMMA_SAMPLES}, and --n x "
                          f"--samples at most {MAX_LEMMA_WORK}"),
        "--seed": dict(type=int, default=0),
    }, ()),
    "fiber-solve": ("closed-form fiber completion over a target",
                    _cmd_fiber_solve, {
        "--n": dict(type=int, required=True,
                    help=f"word length, 4 to {MAX_FIBER_N}"),
        "--seed": dict(type=int, default=0),
        "--z1": dict(help="free boundary coordinate (non-generic)"),
        "--approx": dict(action="store_true", help="allow a float --z1"),
        "--input": dict(required=True, help="JSON target file"),
    }, ()),
    "factor-const": ("at most four factors for one matrix",
                     _cmd_factor_const, {
        "--input": dict(required=True, help="JSON matrix file"),
    }, ()),
    "pad": ("length +2 padding off the singular set", _cmd_pad, {
        "--input": dict(required=True, help="JSON word file"),
    }, ()),
    "cohn": ("Cohn matrix factorizations", _cmd_cohn, {
        "--z": dict(required=True),
        "--w": dict(required=True),
        "--factors": dict(type=int, choices=(4, 5), default=5),
        "--h3": dict(help="free parameter of the 4-factor family"),
        "--dps": dict(type=int, help="mpmath working precision, >= 15"),
        "--approx": dict(action="store_true", help="allow floats"),
    }, ()),
    "winding": ("winding number of a loop", _cmd_winding, {
        "--radius": dict(type=float, default=1.0),
        "--samples": dict(type=int, default=256,
                          help=f"3 to {MAX_LOOP_SAMPLES}"),
        "--input": dict(help="JSON file of loop values"),
    }, ()),
    "certificate": ("no holomorphic 4-factor Cohn word", _cmd_certificate, {
        "--d": dict(default="1/2", help="fiber probe zw = D"),
        "--radius": dict(type=float, default=1.0),
        "--samples": dict(type=int, default=256,
                          help=f"per sampled loop, 3 to {MAX_LOOP_SAMPLES}"),
        "--required": dict(type=int, default=2),
    }, ()),
    "bound": ("composite factor-count bound", _cmd_bound, {
        "--n": dict(type=int, required=True),
        "--k": dict(required=True, help="comma list i=Ki"),
    }, ()),
    "verify-suite": ("run the whole acceptance battery", _cmd_verify_suite, {
        "--seed": dict(type=int, default=7),
        "--scale": dict(choices=("quick", "full"), default="quick"),
    }, ()),
}


def parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse would build from argv, parsed without it, or
    None.  Only this shape is parsed: a subcommand, then options that match
    one of its flags exactly, each "--name value", "--name=value" or a bare
    store-true flag, where a separate value does not start with "-", every
    value converts and meets its choices, the required options are given,
    and a repeated option keeps its last value.  Any other line (help, an
    abbreviation, "--", an extra word, a bad value) is argparse's to parse,
    so that it alone writes help text and error messages."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    _, fn, options, one_of = SUBCOMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        kw = options.get(flag)
        if kw is None:
            return None
        if kw.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:  # a missing value reads as "-", and is refused
                value = next(tokens, "-")
                if value.startswith("-"):
                    return None
            try:
                value = kw.get("type", str)(value)
            except (TypeError, ValueError):
                return None
            if "choices" in kw and value not in kw["choices"]:
                return None
        given[flag] = value
    if any(kw.get("required") and flag not in given
           for flag, kw in options.items()):
        return None
    if one_of and sum(flag in given for flag in one_of) != 1:
        return None
    args = SimpleNamespace(command=argv[0], fn=fn)
    for flag, kw in options.items():
        default = False if kw.get("action") == "store_true" else None
        setattr(args, flag[2:].replace("-", "_"),
                given.get(flag, kw.get("default", default)))
    return args


# argparse echoes a bad argument whole; one longer than this is echoed as
# its first ECHO_CHARS characters and its length
ECHO_CHARS = 40
_ECHOED_ARG = r"(['\"]?)(\S+?)\1(?!\S)"


def _cut_long_arg(m: re.Match) -> str:
    quote, arg = m.groups()
    if len(arg) <= ECHO_CHARS:
        return m[0]
    return f"{quote}{arg[:ECHO_CHARS]}{quote}... ({len(arg)} characters)"


def build_parser(command: str) -> argparse.ArgumentParser:
    """The argparse parser of SUBCOMMANDS, with every subcommand and its help
    registered, but only the subcommand named command given its arguments:
    a call runs one.  Its errors raise PreconditionError, so a malformed
    command line takes the one JSON error path."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise PreconditionError(re.sub(_ECHOED_ARG, _cut_long_arg,
                                           message))

    parser = _Parser(prog="sl2factor", description="Exact unipotent "
                     "factorization toolkit for SL2")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, options, one_of) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        if name != command:
            continue
        if one_of:
            group = p.add_mutually_exclusive_group(required=True)
        for flag, kw in options.items():
            (group if flag in one_of else p).add_argument(flag, **kw)
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
    if argv is None:
        argv = sys.argv[1:]
    args = parse_direct(argv)
    try:
        if args is None:
            # argparse sets command on a known subcommand, so parse errors
            # name it.  The top-level parser takes no option values, so the
            # subcommand that can run is the first argument not starting
            # with "-"; argparse refuses any earlier one it reads as a
            # command ("-5", "-x y") as unknown
            args = SimpleNamespace(command=None)
            named = next((a for a in argv if not a.startswith("-")), "")
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
