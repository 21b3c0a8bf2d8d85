#!/usr/bin/env python3
"""Compare the CLI reports of two source trees, byte for byte, or write
the golden reports that tests/test_golden.py checks.

    python3 tools/report_diff.py OLD_SRC NEW_SRC
    python3 tools/report_diff.py --write-golden SRC

OLD_SRC, NEW_SRC and SRC are `src` directories (the ones holding the
`sl2factor` package), for instance a checkout of the parent commit and the
working tree.  Every command of COMMANDS runs once under each tree, as
`python -m sl2factor.cli ...` with PYTHONPATH set to that tree,
PYTHONDONTWRITEBYTECODE=1 (so no tree gains __pycache__ files) and
COLUMNS=80 (so help text wraps the same everywhere).  Its record (see
record) holds the argv, the exit code, stdout and stderr, with the
`timing_ms` values and the input directory masked.

The first form compares the records of the two trees; for each command
that differs, the differing lines of its pretty-printed record are shown.
It exits 1 on any difference, 0 otherwise.  The second form rewrites
tests/golden/, one file per command (golden_path), from SRC's records; an
intended report change then shows as a diff of those files.  Standard
library only; input files go to a temporary directory.
"""

from __future__ import annotations

import difflib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

BIG = "1" + "0" * 400  # an exact integer past the largest double

# JSON files the commands read, by name.
INPUTS = {
    "generic": {"target": {"a": "2", "b": "3", "c": "1", "d": "2"}},
    "generic_big": {"a": "12345678901/7", "b": "3/11+2 i", "c": "5-1/3 i",
                    "d": "700/407407403733+763/135802467911 i"},
    "a_zero": {"a": "0", "b": "3", "c": "-1/3", "d": "2+i"},
    "b_zero": {"a": "2", "b": "0", "c": "3", "d": "1/2"},
    # the non-generic branches on 10-digit entries
    "a_zero_big": {"a": "0", "b": "9876543211/1234567890+2/3 i",
                   "c": "-12193263112498094790/98223509298758658121"
                        "+1016105250012701400/98223509298758658121 i",
                   "d": "5555555557/3333333331-1/7 i"},
    "b_zero_big": {"a": "8765432101/3579111317-4 i", "b": "0",
                   "c": "-2718281828/3141592653+1 i",
                   "d": "31372457231084187017/281793405028880866025"
                        "+51240151277909897956/281793405028880866025 i"},
    # float non-generic targets whose point, with z_1 = 0, holds a z_N
    # too large for its replay in doubles
    "a_zero_float": {"a": 0, "b": 2e6, "c": -5e-7, "d": 1},
    "b_zero_float": {"a": 2e6, "b": 0, "c": 3e6, "d": 5e-7},
    "m_lower_pivot": {"a": "2", "b": "3", "c": "1", "d": "2"},
    "m_upper_pivot": {"a": "2", "b": "1/3", "c": "0", "d": "1/2"},
    "m_diagonal": {"a": "3+i", "b": "0", "c": "0", "d": "3/10-1/10 i"},
    "m_identity": {"a": "1", "b": "0", "c": "0", "d": "1"},
    "m_float": {"a": 2.0, "b": 3.0, "c": 1.0, "d": 2.0},
    "m_singular": {"a": 3e5, "b": 1e5, "c": 3e5, "d": 1e5},
    "word_exact": {"word": [{"side": "U", "entry": "3"},
                            {"side": "L", "entry": "2"}]},
    "word_mixed": [{"side": "L", "entry": "1/2+i"},
                   {"side": "U", "entry": 0.5}, {"side": "L", "entry": "-3"}],
    "loop": {"values": [[1, 0], [0.5, 0.8], [-0.6, 0.7], [-1, 0],
                        [-0.5, -0.8], [0.6, -0.7]]},
    # an exact value beyond the double range where the call needs complex
    # values: in a loop, or next to a float
    "loop_big": {"values": [BIG, "1", "-1"]},
    "point_big": {"point": [BIG, 0.5, 1, 2]},
    "m_big": {"a": BIG, "b": 0.5, "c": "1", "d": "2"},
    "target_big": {"target": {"a": BIG, "b": 0.5, "c": "1", "d": "2"}},
    "word_big": [{"side": "L", "entry": BIG}, {"side": "U", "entry": 0.5}],
    "word_poly": {"word": [
        {"side": "U", "entry": {"nvars": 2, "terms": [
            {"exp": [1, 0], "re": "1", "im": "0"},
            {"exp": [0, 2], "re": "-1/2", "im": "3"}]}},
        {"side": "L", "entry": "2"}]},
}

# The five-factor Cohn word at the corners of criterion 7's box,
# z = t(1 + i), w = t'(1 - i) with t, t' = +-2, in double and at dps 40.
COHN_CORNERS = [
    ["cohn", f"--z={z}", f"--w={w}", *dps]
    for z in ("2+2i", "-2-2i") for w in ("2-2i", "-2+2i")
    for dps in ((), ("--dps", "40"))
]

COMMANDS = [
    ["expand", "--n", "4"],
    # products with a factor of two or three terms (for N = 5, Q1 Q4 is
    # two terms by two)
    ["expand", "--n", "5"],
    ["expand", "--n", "6"],
    ["expand", "--n", "7"],
    # the largest middle polynomials the benchmark requests
    ["expand", "--n", "12"],
    ["jacobian", "--n", "4", "--point", "5,0,0,7"],
    ["jacobian", "--n", "4", "--point", "1,2,3,4"],
    ["jacobian", "--n", "5", "--point", "1/2,0,-3,2+i,1"],
    ["jacobian", "--n", "6", "--point", "1/3+2/5 i,7,0,0,-1,9/4"],
    ["jacobian", "--n", "4", "--point", "0.5,1,1,1", "--approx"],
    # approximate ranks: a generic point off S_6 (rank 3), a point on S_6
    # (rank 2), and an N = 4 point whose sigma_3 is small enough to leave
    # the rank to the singular values
    ["jacobian", "--n", "6", "--point", "0.3,1.1,-0.7+0.4i,0.2,2i,0.9",
     "--approx"],
    ["jacobian", "--n", "6", "--point", "2,0,0,0,0,3", "--approx"],
    ["jacobian", "--n", "4", "--point", "5,1e-5,0,7", "--approx"],
    ["lemma-check", "--n", "4", "--samples", "200", "--seed", "1"],
    ["lemma-check", "--n", "7", "--samples", "100", "--seed", "2"],
    # the exact frame and its rank on 10-digit points off S_6 (rank 3) and
    # on it (rank 2), and the lemma check one past criterion 3's largest N
    ["jacobian", "--n", "6", "--point",
     "12345678901/7,3/11+2 i,-2718281828/3141592653,9876543211/13 i,"
     "5/1234567891,-1/3+8765432101/3579111317 i"],
    ["jacobian", "--n", "6", "--point",
     "12345678901/7,0,0,0,0,-2718281828/3141592653+i"],
    ["lemma-check", "--n", "8", "--samples", "100", "--seed", "3"],
    *(["fiber-solve", "--n", str(n), "--input", "{generic}"]
      for n in range(4, 9)),
    *(["fiber-solve", "--n", str(n), "--input", "{a_zero}", "--seed", "3"]
      for n in range(4, 9)),
    ["fiber-solve", "--n", "4", "--input", "{b_zero}", "--z1", "7"],
    ["fiber-solve", "--n", "5", "--input", "{b_zero}", "--z1", "7"],
    ["fiber-solve", "--n", "6", "--input", "{b_zero}"],
    ["fiber-solve", "--n", "1024", "--input", "{generic_big}", "--seed", "5"],
    # every exact branch on 10-digit entries: generic odd, and the free z_1
    # of the non-generic ones
    ["fiber-solve", "--n", "7", "--input", "{generic_big}", "--seed", "5"],
    *(["fiber-solve", "--n", str(n), "--input", "{%s}" % name, "--seed", "9",
       "--z1", "2718281828/3141592653-1 i"]
      for name, ns in (("a_zero_big", (6, 8)), ("b_zero_big", (5, 7)))
      for n in ns),
    # the default z_1 makes z_N = 0 and verifies; --z1 0 exits 3
    *(["fiber-solve", "--approx", "--n", str(n), "--input", "{%s}" % name,
       "--seed", "1", *z1]
      for n, name in ((6, "a_zero_float"), (5, "b_zero_float"))
      for z1 in ((), ("--z1", "0"))),
    *(["factor-const", "--input", "{%s}" % name]
      for name in ("m_lower_pivot", "m_upper_pivot", "m_diagonal",
                   "m_identity", "m_float", "m_singular")),
    ["pad", "--input", "{word_exact}"],
    ["pad", "--input", "{word_mixed}"],
    ["cohn", "--z", "1", "--w", "2", "--factors", "4", "--h3", "3"],
    ["cohn", "--z", "1/2", "--w", "1/4"],
    ["cohn", "--z", "1/2", "--w", "1/4", "--dps", "40"],
    ["winding", "--radius", "4"],
    ["winding", "--input", "{loop}"],
    ["certificate"],
    ["certificate", "--d", "2+i", "--required", "2"],
    ["bound", "--n", "5", "--k", "2=3,3=4,4=3,5=4"],
    ["verify-suite", "--scale", "quick"],
    ["verify-suite", "--scale", "full"],
    *COHN_CORNERS,
    # the corner where double precision fails (zw = -8), at dps 80, and
    # the series branch for h1 (|zw| < 1e-3) at dps 40
    ["cohn", "--approx", "--z=-2-2i", "--w=2-2i", "--dps", "80"],
    ["cohn", "--approx", "--z=1e-4+2e-4i", "--w=0.5", "--dps", "40"],
    # past the double range: refused with exit 3 and a pointer to --dps
    ["cohn", "--approx", "--z", "1e200", "--w", "1e-200"],
    ["cohn", "--approx", "--z", "1e155", "--w", "1e-154"],
    ["cohn", "--approx", "--z", "1e200i", "--w", "1e200"],
    # a four-factor word whose entries overflow to inf: refused with exit 2
    ["cohn", "--approx", "--factors", "4", "--z", "1e200", "--w", "1e200",
     "--h3", "1"],
    # H2 = inf - inf = NaN near |Re zw| = 700: refused the same way
    ["cohn", "--approx", "--z=-70.272", "--w=10"],
    # verified at dps 820, but h1 is past the double range: a report that
    # is not strict JSON, refused with exit 3
    ["cohn", "--approx", "--z", "30", "--w", "30", "--dps", "820"],
    # an exact z, or probe D, beyond the double range: refused with exit 2
    ["cohn", "--z", BIG, "--w", "1"],
    ["certificate", "--d", BIG],
    # the same in a loop or next to a float, where the call needs complex
    # values: refused with exit 2, not an OverflowError
    ["winding", "--input", "{loop_big}"],
    ["jacobian", "--n", "4", "--approx", "--point", BIG + ",0.5,1,2"],
    ["jacobian", "--n", "4", "--input", "{point_big}"],
    ["factor-const", "--input", "{m_big}"],
    ["pad", "--input", "{word_big}"],
    ["fiber-solve", "--n", "4", "--input", "{target_big}"],
    # two samples read degree 0 whatever the loop, so fewer than three are
    # refused with exit 2; three still read the section's degree 2
    ["winding", "--samples", "2"],
    ["winding", "--samples", "3"],
    ["certificate", "--samples", "2"],
    # w^2 underflows (|w| = 1e-170) or overflows (|w| = 1e160), while the
    # section h3 = (w/|w|)^2 |w|^(1/2) keeps degree 2
    ["winding", "--radius", "1e-170"],
    ["winding", "--radius", "1e160"],
    ["certificate", "--d", "1e-170"],
    # exact text: signs, leading zeros and whitespace; a zero denominator
    ["cohn", "--z", " -007/014 + 2 i ", "--w", "+1/04", "--factors", "4",
     "--h3", "- 3 i"],
    ["cohn", "--z", "1/0", "--w", "1"],
    # padding a polynomial word; a bound whose --k misses an index
    ["pad", "--input", "{word_poly}"],
    ["bound", "--n", "4", "--k", "2=1,4=2"],
    # a --k that names an index twice
    ["bound", "--n", "4", "--k", "2=1,3=2,4=2,4=3"],
    # a --k index outside 2..n
    ["bound", "--n", "3", "--k", "2=1,3=1,9=-5"],
    # usage text, and the errors argparse raises before a handler runs:
    # cli adds the arguments of the named subcommand only
    ["--help"],
    ["expand", "--help"],
    ["cohn", "--help"],
    ["no-such-command", "--n", "4"],
    ["factor-const"],
    # command lines at the edge of what cli parses without argparse: the
    # accepted ones must report as argparse's parse would, and the others
    # (a missing option, a bad value, an option given as "=" or abbreviated,
    # a value starting with "-", a clash, an extra word, a leading flag)
    # keep argparse's message or help text
    ["expand"],
    ["expand", "--n", "x"],
    ["expand", "--n", "-1"],
    ["cohn", "--z=-1/2", "--w=1/4"],
    ["cohn", "--z", "1/2", "--w", "1/4", "--factors", "6"],
    ["cohn", "--approx=1", "--z", "1", "--w", "1"],
    ["jacobian", "--n", "4"],
    ["jacobian", "--n", "4", "--point", "1,2,3,4", "--input", "x.json"],
    ["winding", "--samp", "32"],
    ["winding", "--approx"],
    ["bound", "--n", "3", "--k", "2=4,3=5", "extra"],
    ["verify-suite", "--scale", "medium"],
    ["certificate", "--radius="],
    ["--help", "cohn"],
]

_TIMING = re.compile(r'"timing_ms": [-+0-9.eE]+')
GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def write_inputs(tmp: str) -> None:
    """Write each of INPUTS to tmp as NAME.json."""
    for name, data in INPUTS.items():
        Path(tmp, f"{name}.json").write_text(json.dumps(data))


def argv_of(command: list[str], tmp: str) -> list[str]:
    """command with each {NAME} replaced by the path of tmp/NAME.json."""
    paths = {name: str(Path(tmp, f"{name}.json")) for name in INPUTS}
    return [arg.format(**paths) for arg in command]


def record(command: list[str], code: int, stdout: str, stderr: str,
           tmp: str) -> str:
    """What a run of command is compared by: its argv (with {NAME}
    unexpanded), exit code, stdout and stderr, with every timing_ms value
    and the input directory tmp masked."""
    text = (f"argv: {json.dumps(command)}\nexit: {code}\n"
            f"stdout:\n{stdout}stderr:\n{stderr}")
    return _TIMING.sub('"timing_ms": "*"', text).replace(tmp, "{tmp}")


def run(src: Path, command: list[str], tmp: str) -> str:
    """The record of command run under the tree src, in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               COLUMNS="80")
    done = subprocess.run(
        [sys.executable, "-m", "sl2factor.cli", *argv_of(command, tmp)],
        env=env, capture_output=True, timeout=600)
    return record(command, done.returncode, done.stdout.decode("utf-8"),
                  done.stderr.decode("utf-8"), tmp)


def golden_path(command: list[str]) -> Path:
    """The golden file of command: its words, each run of characters other
    than letters, digits and ".+=-" (spaces included) made one "_", cut to
    60 characters.  tests/test_golden.py checks that the names differ."""
    name = re.sub(r"[^\w.+=-]+", "_", " ".join(command)).strip("_-")
    return GOLDEN / f"{name[:60]}.txt"


def _readable(text: str) -> list[str]:
    # one JSON line per report: spread it out so a diff names the field
    lines = []
    for line in text.splitlines():
        if line.startswith("{"):
            try:
                line = json.dumps(json.loads(line), indent=1)
            except ValueError:
                pass
        lines += line.splitlines()
    return lines


def write_golden(src: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.glob("*.txt"):
            stale.unlink()
        for command in COMMANDS:
            golden_path(command).write_bytes(
                run(src, command, tmp).encode("utf-8"))
    print(f"wrote {len(COMMANDS)} golden reports to {GOLDEN}")
    return 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--write-golden":
        return write_golden(Path(argv[1]).resolve())
    if len(argv) != 2:
        print("usage: report_diff.py OLD_SRC NEW_SRC\n"
              "       report_diff.py --write-golden SRC", file=sys.stderr)
        return 2
    old, new = (Path(a).resolve() for a in argv)
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp)
        for command in COMMANDS:
            before, after = run(old, command, tmp), run(new, command, tmp)
            shown = " ".join(command)
            if before == after:
                print(f"same  {shown}")
                continue
            differing += 1
            print(f"DIFF  {shown}")
            for line in difflib.unified_diff(_readable(before),
                                             _readable(after), "old", "new",
                                             n=0, lineterm=""):
                print(f"      {line}")
    print(f"{differing} of {len(COMMANDS)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
