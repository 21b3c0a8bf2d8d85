##
## The CLI boundary under generated input: whatever the command line and
## whatever the --input file, main returns 0, 2, 3 or 4 and prints exactly
## one JSON object line, never a traceback or a usage text; and wherever
## argparse, built from the same option table, accepts a command line, the
## parser builds argparse's namespace from it
##

import argparse
import contextlib
import io
import json
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sl2factor.cli import SUBCOMMANDS, main, parse_direct
from sl2factor.errors import PreconditionError

COMMANDS = ["expand", "jacobian", "lemma-check", "fiber-solve",
            "factor-const", "pad", "cohn", "winding", "certificate", "bound"]
# every option any subcommand declares, options removed from some of them,
# and options none has; -h is left out, since help exits through SystemExit
FLAGS = ["--point", "--input", "--approx", "--seed", "--z1", "--z", "--w",
         "--factors", "--h3", "--dps", "--radius", "--d", "--required",
         "--k", "--scale", "--bogus", "--input="]
VALUES = ["-1", "0", "1", "2", "3", "4", "15", "16", "40", "60", "abc", "",
          "nan", "inf", "-inf", "1e400", "1/0", "2+1/0 i", "1/2", "-3/4+2 i",
          "1+i", "0.5", "1e-3", "2.5+1j", "100", "1,2", "1,2,3,4", "5,0,0,7",
          "0.5,1,1,1", "1/0,1,1,1", "1,nan,1,1", "2=4,3=5", "2=4", "oops",
          "quick"]
# the options that size the work get small values only: --n <= 8 and
# --samples <= 64 (--dps <= 60 above)
SIZE_FLAGS = ["--n", "--n=", "--samples"]
SIZES = ["-1", "0", "1", "2", "3", "4", "5", "8", "16", "64", "abc", "",
         "nan", "1e400", "1/2", "0.5"]
options = st.lists(st.one_of(
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.tuples(st.sampled_from(SIZE_FLAGS), st.sampled_from(SIZES))),
    max_size=4)

# a well-formed call of each subcommand, kept cheap; generated options are
# appended, so they add to it or, repeated, override it ("{input}" is the
# generated input file)
BASE = {"expand": ["--n", "4"],
        "jacobian": ["--n", "4", "--point", "1,2,1/3,1+i"],
        "lemma-check": ["--n", "4", "--samples", "16"],
        "fiber-solve": ["--n", "4", "--input", "{input}"],
        "factor-const": ["--input", "{input}"],
        "pad": ["--input", "{input}"],
        "cohn": ["--z", "1/2", "--w", "1/4"],
        "winding": ["--samples", "32"],
        "certificate": ["--samples", "32"],
        "bound": ["--n", "3", "--k", "2=4,3=5"]}

good_scalars = st.one_of(
    st.sampled_from(["1", "0", "2", "3", "1/2", "-3/4+2 i", "1+i"]),
    st.integers(-5, 5),
    st.floats(-10, 10),
    st.lists(st.floats(-10, 10), min_size=2, max_size=2),
)
bad_scalars = st.one_of(
    st.sampled_from(["1/0", "2+1/0 i", "x", "1.5", "i", ""]),
    # exact, but beyond the double range next to a float
    st.just("1" + "0" * 400),
    st.integers(-10 ** 30, 10 ** 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.lists(st.one_of(st.floats(), st.integers(-5, 5), st.booleans(),
                       st.text(max_size=3)), max_size=3),
)
scalars = st.one_of(good_scalars, good_scalars, bad_scalars)
coefficient_parts = st.one_of(
    st.sampled_from(["1", "0", "-2/3", "1/0", "x"]), st.integers(-5, 5),
    st.integers(-5, 5), st.floats(), st.booleans(), st.none())
polynomials = st.fixed_dictionaries({
    "nvars": st.one_of(st.integers(0, 2), st.integers(-1, 3), st.floats(0, 3),
                       st.just("2")),
    "terms": st.lists(st.fixed_dictionaries({
        "exp": st.one_of(st.lists(st.integers(0, 2), min_size=1, max_size=1),
                         st.lists(st.integers(-1, 3), max_size=3),
                         st.lists(st.floats(0, 3), max_size=2),
                         st.just("10")),
        "re": coefficient_parts, "im": coefficient_parts}), max_size=3)})
matrices = st.one_of(
    st.fixed_dictionaries({k: scalars for k in "abcd"}),
    st.sampled_from([
        {"a": "2", "b": "3", "c": "1", "d": "2"},
        {"a": "1", "b": "0", "c": "0", "d": "1"},
        {"a": "2", "b": "0", "c": "3", "d": "1/2"},
        {"a": "0", "b": "3", "c": "-1/3", "d": "5"},
        {"a": [2, 0.5], "b": [3, 0], "c": [1, -1],
         "d": [1.5294117647058822, -1.8823529411764706]},
        {"a": [1e-17, 0], "b": [3, 0], "c": [-1 / 3, 0], "d": [0, 0]}]),
)
words = st.lists(st.fixed_dictionaries({
    "side": st.sampled_from(["U", "L", "U", "L", "X", 1]),
    "entry": st.one_of(scalars, polynomials)}), max_size=4)
points = st.lists(scalars, min_size=3, max_size=8)
payloads = st.one_of(
    scalars, matrices, words, polynomials, points,
    st.dictionaries(st.sampled_from(["target", "word", "point", "values",
                                     "x"]),
                    st.one_of(scalars, matrices, words, points), max_size=2),
)
# mostly well-formed input for each subcommand, bare or in its wrapper key
WELL_FORMED = {
    "jacobian": ("point", st.lists(good_scalars, min_size=4, max_size=4)),
    "fiber-solve": ("target", matrices),
    "factor-const": ("target", matrices),
    "pad": ("word", st.lists(st.one_of(good_scalars, polynomials),
                             min_size=1, max_size=4).map(
        lambda entries: [{"side": "UL"[i % 2], "entry": e}
                         for i, e in enumerate(entries)])),
    "winding": ("values", st.lists(good_scalars, min_size=3, max_size=16)),
}
# text that json.dumps does not write: a literal 1e400, malformed JSON
RAW = ['{"a": [1e400, 0], "b": 0, "c": 0, "d": 1}', "[1e400, 0]",
       '{"values": [[1, 0], [0, 1], [-1, 0], [1e400, -1]]}', "not json", ""]
input_texts = st.one_of(payloads.map(json.dumps), st.sampled_from(RAW))


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the help exit: usage text, no JSON
            pytest.fail(f"{argv} raised SystemExit({exc.code})")
    assert not err.getvalue(), (argv, err.getvalue())
    lines = out.getvalue().splitlines()
    assert code in (0, 2, 3, 4), (argv, code)
    assert len(lines) == 1, (argv, lines)
    # strict JSON: no NaN, Infinity or -Infinity, in any report
    report = json.loads(lines[0], parse_constant=_refuse_constant)
    assert isinstance(report, dict)
    return code, report


# the explain phase traces every line main runs for each failing example,
# which makes a failure take minutes and a gigabyte to report
PHASES = [phase for phase in Phase if phase is not Phase.explain]


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_fuzz") / "in.json"


@settings(max_examples=300, deadline=None, phases=PHASES)
@given(command=st.sampled_from(COMMANDS * 3 +
                               ["verify", "Expand", "--n", "", None]),
       use_base=st.booleans(), options=options, text=input_texts)
def test_generated_command_line_gives_one_json_line(input_path, command,
                                                    use_base, options, text):
    input_path.write_text(text)
    argv = [] if command is None else [command]
    if command in BASE and use_base:
        argv += [a.format(input=input_path) for a in BASE[command]]
    elif command == "lemma-check":  # its default is 1000 exact ranks
        argv += ["--samples", "16"]
    for flag, value in options:
        if flag == "--approx":
            argv.append(flag)
        elif flag.endswith("="):
            argv.append(flag + (str(input_path) if flag == "--input="
                                else value))
        else:
            argv += [flag, str(input_path) if flag == "--input" else value]
    code, report = _run(argv)
    assert report["command"] == (command if command in COMMANDS else None)
    if code:
        assert set(report["error"]) == {"code", "message"}


@settings(max_examples=300, deadline=None, phases=PHASES)
@given(command=st.sampled_from(sorted(WELL_FORMED)),
       n=st.sampled_from([3, 4, 4, 4, 5, 8]), approx=st.booleans(),
       data=st.data())
def test_generated_input_file_gives_one_json_line(input_path, command, n,
                                                  approx, data):
    key, payload = WELL_FORMED[command]
    text = data.draw(st.one_of(input_texts, payload.map(json.dumps),
                               payload.map(lambda v: json.dumps({key: v}))))
    input_path.write_text(text)
    argv = [command, "--input", str(input_path)]
    if command in ("jacobian", "fiber-solve"):
        argv += ["--n", str(n)] + (["--approx"] if approx else [])
    _, report = _run(argv)
    assert report["command"] == command


# each generated option written as "--f v", "--f=v" or a bare "--f"
# (the "--input=" and "--n=" flags are always joined to their value)
FORMS = ["--f v", "--f=v", "--f"]


class _Refused(Exception):
    """argparse's refusal of a command line, with its message."""


class _Oracle(argparse.ArgumentParser):
    def error(self, message):
        raise _Refused(message)


@cache
def argparse_oracle() -> argparse.ArgumentParser:
    """argparse's reading of SUBCOMMANDS, the reference the parser is
    checked against: every option maps its flag to add_argument's
    keywords, and the options of one_of form a required exclusive group."""
    parser = _Oracle(prog="sl2factor")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fn, options, one_of) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        group = p.add_mutually_exclusive_group(required=True) if one_of \
            else None
        for flag, kw in options.items():
            (group if flag in one_of else p).add_argument(flag, **kw)
    return parser


def _argparse(argv) -> SimpleNamespace:
    return argparse_oracle().parse_args(argv, SimpleNamespace(command=None))


def _comparable(args) -> dict:
    # a NaN --radius is not equal to itself
    return {k: "nan" if isinstance(v, float) and v != v else v
            for k, v in vars(args).items()}


@settings(max_examples=1000, deadline=None, phases=PHASES)
@given(command=st.sampled_from(COMMANDS + ["verify-suite"]),
       use_base=st.booleans(), data=st.data())
def test_direct_parse_is_argparse_or_declines(command, use_base, data):
    # mostly the subcommand's own flags, so that many lines parse
    own = sorted(SUBCOMMANDS[command][2])
    flags = st.one_of(st.sampled_from(own), st.sampled_from(own),
                      st.sampled_from(FLAGS + SIZE_FLAGS))
    options = data.draw(st.lists(st.tuples(
        flags, st.sampled_from(VALUES + SIZES), st.sampled_from(FORMS)),
        max_size=5))
    argv = [command]
    if use_base:
        argv += [a.format(input="in.json")
                 for a in BASE.get(command, ["--scale", "quick"])]
    for flag, value, form in options:
        if flag.endswith("="):
            argv.append(flag + value)
        elif form == "--f":
            argv.append(flag)
        elif form == "--f=v":
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    try:
        expected = _argparse(argv)
    except _Refused as exc:
        # argparse declines the line.  The parser refuses it too, unless it
        # takes as a value what argparse reads as an option: a "-1/2", a
        # "-inf" or a flag after an option that wants a value, where
        # argparse's first refusal says no value came or names a flag as
        # ambiguous
        try:
            parse_direct(argv)
        except PreconditionError:
            return
        message = str(exc)
        assert (message.endswith("expected one argument")
                or message.startswith("ambiguous option")), (argv, message)
        return
    # argparse is the reference wherever it accepts the line
    assert _comparable(parse_direct(argv)) == _comparable(expected), argv


def test_direct_parse_accepts_each_well_formed_call():
    for command in COMMANDS + ["verify-suite"]:
        base = BASE.get(command, ["--scale", "quick"])
        for argv in ([command, *base],
                     [command, *(f"{a}={b}" for a, b in zip(base[::2],
                                                            base[1::2]))]):
            argv = [a.format(input="in.json") for a in argv]
            assert parse_direct(argv) == _argparse(argv), argv
