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
Every command line is read against one option table, SUBCOMMANDS, which
also gives the --help text and the message of each refusal; an option's
value is the next word whatever its first character ("--w -1/2")."""

from __future__ import annotations

import json
import re
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
    z1 = None if args.z1 is None else _parse_scalar(args.z1, args.approx)
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
    # an option of the other family would be dropped without a word
    if args.factors == 5 and args.h3 is not None:
        raise PreconditionError("--h3 applies to the 4-factor family only")
    if args.factors == 4 and args.dps is not None:
        raise PreconditionError("--dps applies to the 5-factor word only")
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
            i, k = int(key), int(value)
        except ValueError as exc:
            raise PreconditionError(
                f"malformed --k entry {part!r}; expected i=Ki") from exc
        if i in counts:
            raise PreconditionError(f"--k repeats index {i}")
        counts[i] = k
    # count the gaps first: a huge --n must not build a huge list
    n_missing = args.n - 1 - sum(1 for i in counts if 2 <= i <= args.n)
    if n_missing > 0:
        first = list(islice((i for i in range(2, args.n + 1)
                             if i not in counts), 10))
        more = (f" (the first {len(first)} of {n_missing})"
                if n_missing > len(first) else "")
        raise PreconditionError(f"--k misses indices {first}{more}")
    value = factor_count_bound(args.n, counts)
    stray = next((i for i in counts if not 2 <= i <= args.n), None)
    if stray is not None:
        raise PreconditionError(f"--k index {stray} is outside 2..{args.n}")
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
# keywords argparse's add_argument would take (type, choices, default,
# required, help, action="store_true"); parse_direct reads a command line
# and _print_help writes --help against this table.  --input and --approx
# only where the handler reads them: JSON input carries its own scalar
# kind, --approx governs command-line scalars.
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
        "--z1": dict(help="free boundary coordinate (non-generic; "
                     "default: the one that makes z_N = 0)"),
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


# -h and --help, wherever an option is read
HELP = ("-h", "--help")
ECHO_CHARS = 40


def _refuse(message: str):
    """Refuse the command line with message, where an argument longer than
    ECHO_CHARS shows as its first ECHO_CHARS characters and its length."""
    def cut(m: re.Match) -> str:
        quote, arg = m.groups()
        if len(arg) <= ECHO_CHARS:
            return m[0]
        return f"{quote}{arg[:ECHO_CHARS]}{quote}... ({len(arg)} characters)"
    raise PreconditionError(re.sub(r"(['\"]?)(\S+?)\1(?!\S)", cut, message))


def _flag(token: str, flags) -> str | None:
    """The one of flags that token names: itself, or the only flag that
    token abbreviates (every flag but -h starts with "--")."""
    if token in flags:
        return token
    hits = [f for f in flags if len(token) > 2 and f.startswith(token)]
    if len(hits) > 1:
        _refuse(f"ambiguous option: {token} could match {', '.join(hits)}")
    return hits[0] if hits else None


def _value(name: str, kw: dict, text: str):
    """text converted to the type of option name, which kw declares, and
    checked against its choices."""
    kind = kw.get("type", str)
    try:
        value = kind(text)
    except ValueError:
        _refuse(f"argument {name}: invalid {kind.__name__} value: {text!r}")
    if "choices" in kw and value not in kw["choices"]:
        _refuse(f"argument {name}: invalid choice: {value!r} (choose from "
                f"{', '.join(map(repr, kw['choices']))})")
    return value


def parse_direct(argv: list[str]) -> SimpleNamespace:
    """The namespace of a command line: its subcommand, handler and one
    attribute per option of that subcommand, the value given or the
    default.  An option is "--name value" or "--name=value", the value
    taken whatever its first character, or a bare store-true flag; a name
    may be cut to a prefix no other name shares, and a repeated option
    keeps its last value.  -h or --help, before the subcommand or among its
    options, prints its help and exits 0; any other line is refused with
    one PreconditionError."""
    if not argv:
        _refuse("the following arguments are required: command")
    if _flag(argv[0], HELP):
        _print_help(None)
    command = _value("command", {"choices": SUBCOMMANDS}, argv[0])
    _, fn, options, one_of = SUBCOMMANDS[command]
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        flag = _flag(name, (*HELP, *options))
        if flag in HELP:
            _print_help(command)
        kw = options.get(flag)
        if kw is None or eq and "action" in kw:
            _refuse(f"unrecognized arguments: {token}")
        if not eq and "action" not in kw:
            value = next(tokens, None)
            if value is None:
                _refuse(f"argument {flag}: expected one argument")
        given[flag] = True if "action" in kw else _value(flag, kw, value)
    missing = [f for f, kw in options.items()
               if kw.get("required") and f not in given]
    if missing:
        _refuse(f"the following arguments are required: {', '.join(missing)}")
    chosen = [f for f in given if f in one_of]
    if one_of and len(chosen) != 1:
        _refuse(f"argument {chosen[1]}: not allowed with argument "
                f"{chosen[0]}" if chosen else
                f"one of the arguments {' '.join(one_of)} is required")
    args = SimpleNamespace(command=command, fn=fn)
    for flag, kw in options.items():
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, kw.get(
            "default", False if "action" in kw else None)))
    return args


def _print_help(command: str | None):
    """Print the --help text of the program (command None) or of one
    subcommand, and exit 0."""
    if command is None:
        about = "Exact unipotent factorization toolkit for SL2\n\ncommands:"
        rows = {name: entry[0] for name, entry in SUBCOMMANDS.items()}
    else:
        about, _, options, one_of = SUBCOMMANDS[command]
        about += "\n\noptions:"
        rows = {"-h, --help": "show this help"}
        for flag, kw in options.items():
            metavar = ("{%s}" % ",".join(map(str, kw["choices"]))
                       if "choices" in kw else flag[2:].upper())
            text = kw.get("help", "")
            if kw.get("required"):
                text += " (required)"
            elif flag in one_of:
                text += f" (one of {' '.join(one_of)} is required)"
            rows[flag if "action" in kw else f"{flag} {metavar}"] = text
    width = max(map(len, rows)) + 2
    print(f"usage: sl2factor {command or 'COMMAND'} [options]\n\n{about}")
    for spelled, text in rows.items():
        print(f"  {spelled:<{width}}{text.strip()}".rstrip())
    raise SystemExit(0)


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
    command = argv[0] if argv and argv[0] in SUBCOMMANDS else None
    try:
        args = parse_direct(argv)
        payload, code = args.fn(args)
    except PreconditionError as exc:
        payload, code = {"error": {"code": "precondition",
                                   "message": str(exc)}}, 2
    except VerificationError as exc:
        payload, code = {"error": {"code": "verification",
                                   "message": str(exc)}}, 3
    except (OSError, json.JSONDecodeError) as exc:
        payload, code = {"error": {"code": "io", "message": str(exc)}}, 4
    if not _emit(payload, command, t0):
        code = 3
        _emit({"error": {"code": "verification", "message":
                         "report holds a non-finite value"}}, command, t0)
    return code


if __name__ == "__main__":
    sys.exit(main())
