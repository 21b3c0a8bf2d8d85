"""cli-cold: one fresh `python -m sl2factor.cli` process per request.

Why: the time goes to interpreter start and imports (numpy among them,
and sl2factor itself, compiled from source on every call because the
benchmark sets PYTHONDONTWRITEBYTECODE=1 for its children).  This is the
only workload where dropping numpy or importing lazily would show, and
the only one that measures the cli layer.

Requests run one at a time and cycle through ten subcommands on small
seeded inputs.  Each must exit 0 and print exactly one JSON line whose
fields, apart from timing_ms, equal the report of the same command run in
process during set-up; a second check per subcommand compares the report
with a value the library did not produce.  Latencies are wall-clock times
of the whole child process, scaled by a reference process run after every
request (harness.PROCESS_REF); a reference loop inside this process would
not track process start-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
from fractions import Fraction

from . import gauss
from .exact_solve import _nonzero, _scalar, _target_a_nonzero, \
    _target_b_nonzero, _word
from .harness import FAILED, OK, PROCESS_REF, WRONG, child_env

NAME = "cli-cold"
TAIL_Q = 0.75
IN_PROCESS = False
POOL_DECKS = 16
TRACED_DECKS_PER_S = 0.1
TIMEOUT_S = 60

SUBCOMMANDS = ("expand", "jacobian", "lemma-check", "fiber-solve",
               "factor-const", "pad", "cohn", "winding", "certificate",
               "bound")
LAYER_PROBES = (("cli.interpreter", "pass"),
                ("cli.import_sl2factor", "import sl2factor"),
                ("cli.import_numpy", "import numpy"))
PROBE_REPEATS = 5
REFERENCE = PROCESS_REF

# `python -m sl2factor.cli`, run through runpy as -m does, which then
# writes its own peak resident memory (VmHWM) to standard error.  The
# ru_maxrss that wait4 reports would not do: exec carries over the peak of
# the memory it replaces, and that is this process's.
RSS_TAG = "sl2bench-peak-rss-kb"
CLI_CODE = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('sl2factor.cli', run_name='__main__',\n"
    "                     alter_sys=True)\n"
    "finally:\n"
    "    with open('/proc/self/status') as status:\n"
    "        hwm = [s.split()[1] for s in status if s.startswith('VmHWM:')]\n"
    f"    sys.stderr.write('{RSS_TAG} ' + hwm[0] + '\\n')\n")


def _target_json(m) -> dict:
    return {"target": dict(zip("abcd", (gauss.fmt(x) for x in m)))}


def _request(rng: random.Random, sub: str):
    """(argv after the subcommand, JSON input or None, expectation)."""
    if sub == "expand":
        return (["--n", str(rng.randint(4, 7))], None, None)
    if sub == "jacobian":
        n = rng.randint(4, 6)
        point = [_scalar(rng, False) for _ in range(n)]
        point[rng.randrange(1, n - 1)] = _nonzero(rng, False)
        return (["--n", str(n), "--point=" + ",".join(map(gauss.fmt, point))],
                None, None)
    if sub == "lemma-check":
        return (["--n", str(rng.randint(4, 5)), "--samples", "5", "--seed",
                 str(rng.randrange(1000))], None, None)
    if sub == "fiber-solve":
        branch = rng.choice(("ge", "ne", "go", "no"))
        argv = ["--seed", str(rng.randrange(1000))]
        if branch == "ge":
            n, m = rng.choice((4, 6)), _target_a_nonzero(rng, False)
        elif branch == "go":
            n, m = 5, _target_b_nonzero(rng, False)
        elif branch == "ne":
            b = _nonzero(rng, False)
            n, m = 4, (gauss.ZERO, b, gauss.gneg(gauss.ginv(b)),
                       _scalar(rng, False))
        else:
            a = _nonzero(rng, False)
            n, m = 5, (a, gauss.ZERO, _scalar(rng, False), gauss.ginv(a))
        if branch in ("ne", "no"):
            argv += ["--z1=" + gauss.fmt(_scalar(rng, False))]
        return (["--n", str(n)] + argv, _target_json(m), m)
    if sub == "factor-const":
        m = gauss.word_product(_word(rng, False, rng.randint(2, 8)))
        return ([], _target_json(m), m)
    if sub == "pad":
        word = _word(rng, False, rng.randint(2, 8))
        data = {"word": [{"side": s, "entry": gauss.fmt(x)} for s, x in word]}
        return ([], data, gauss.word_product(word))
    if sub == "cohn":
        z, w = (Fraction(rng.randint(-4, 4), 4) for _ in range(2))
        return ([f"--z={z}", f"--w={w}"], None, (float(z), float(w)))
    if sub == "winding":
        return (["--samples", str(rng.choice((16, 32, 64))), "--radius",
                 str(rng.choice((0.5, 1.0, 2.0)))], None, None)
    if sub == "certificate":
        d = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        return (["--d", str(d), "--samples", "64"], None, None)
    if sub == "bound":
        n = rng.randint(3, 6)
        k = {i: rng.randint(1, 5) for i in range(2, n + 1)}
        return (["--n", str(n), "--k", ",".join(f"{i}={v}"
                                                for i, v in k.items())],
                None, 1 + sum(v + 3 for v in k.values()))
    raise ValueError(sub)


def generate(seed: int, decks: int = POOL_DECKS) -> list:
    rng = random.Random(f"{NAME}:{seed}")
    return [[(sub, _request(rng, sub)) for sub in SUBCOMMANDS]
            for _ in range(decks)]


def _point(values) -> list:
    return [gauss.parse(x) for x in values]


def independent_check(sub: str, report: dict, expect) -> bool:
    """Compare a report with a value sl2factor did not compute."""
    if sub == "expand":
        return report["unimodular"] is True
    if sub == "jacobian":
        return report["rank"] == 3 and report["singular"] is False
    if sub == "lemma-check":
        return report["verified"] is True and report["violations"] == []
    if sub == "fiber-solve":
        point = _point(report["point"])
        return (report["verified"] is True
                and gauss.word_product(gauss.alternating("L", point))
                == tuple(expect))
    if sub == "factor-const":
        word = [(f["side"], gauss.parse(f["entry"])) for f in report["word"]]
        return report["factor_count"] <= 4 and \
            gauss.word_product(word) == tuple(expect)
    if sub == "pad":
        word = [(f["side"], gauss.parse(f["entry"])) for f in report["padded"]]
        return report["product_match"] is True and \
            gauss.word_product(word) == tuple(expect)
    if sub == "cohn":
        word = [(f["side"], complex(*f["entry"])) for f in report["word"]]
        z, w = expect
        return report["verified"] is True and gauss.residual(
            gauss.cword_product(word), gauss.ccohn(z, w)) < 1e-10
    if sub == "winding":
        return report["winding"] == 2
    if sub == "certificate":
        return report["achieved"] == [0, -1, 1, 0] and report["verdict"]
    if sub == "bound":
        return report["bound"] == expect
    raise ValueError(sub)


def _strip(report: dict) -> dict:
    report = dict(report)
    report.pop("timing_ms", None)
    return report


class Context:
    def __init__(self, root):
        import sl2factor.cli
        self.cli = sl2factor.cli
        self.root = root
        self.inputs = root / ".bench_out" / "cli"
        self.cmd = [sys.executable, "-c", CLI_CODE]
        self.env = child_env(root)
        self.stderr = self.inputs / "stderr.txt"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.expected: dict[int, dict] = {}
        self.argv: dict[int, list] = {}
        self.peak_rss_kb = 0

    def in_process(self, argv: list) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"in-process {argv} exited {code}")
        return _strip(json.loads(out.getvalue()))

    def prepare(self, sub: str, payload) -> None:
        """Write the request's input file and record the in-process report."""
        args, data, expect = payload
        argv = [sub] + args
        if data is not None:
            path = self.inputs / f"{len(self.argv)}.json"
            path.write_text(json.dumps(data))
            argv += ["--input", str(path)]
        self.argv[id(payload)] = argv
        self.expected[id(payload)] = self.in_process(argv)
        if not independent_check(sub, self.expected[id(payload)], expect):
            raise RuntimeError(f"in-process {argv} failed its check")


def run_child(cmd: list, env: dict, cwd, stderr_path) -> tuple:
    """Run one child to the end.  Returns its exit code, its standard output
    and the peak resident memory in KiB that it wrote to standard error
    (0 if it wrote none)."""
    with open(stderr_path, "w+") as err, subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=cwd,
            text=True) as proc:
        try:
            out = proc.communicate(timeout=TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        err.seek(0)
        rss = [line.split()[1] for line in err
               if line.startswith(RSS_TAG + " ")]
    return proc.returncode, out, int(rss[-1]) if rss else 0


def execute(ctx, kind: str, payload, tr) -> str:
    key = id(payload)
    code, out, rss_kb = tr.call("cli." + kind, run_child,
                                ctx.cmd + ctx.argv[key], ctx.env, ctx.root,
                                ctx.stderr)
    ctx.peak_rss_kb = max(ctx.peak_rss_kb, rss_kb)
    if code != 0:
        tr.flag("cli." + kind)
        return FAILED
    lines = out.splitlines()
    try:
        report = json.loads(lines[0]) if len(lines) == 1 else None
    except json.JSONDecodeError:
        report = None
    ok = (isinstance(report, dict)
          and _strip(report) == ctx.expected[key]
          and independent_check(kind, report, payload[2]))
    if not ok:
        tr.flag("cli." + kind)
    return OK if ok else WRONG


def setup(root, decks=()) -> Context:
    """Import the CLI in process and prepare every request's inputs."""
    ctx = Context(root)
    for deck in decks:
        for sub, payload in deck:
            ctx.prepare(sub, payload)
    return ctx


def layer_probes(ctx, tr, run) -> None:
    """Spans for a bare interpreter start and the two large imports,
    scaled by the run's median reference time."""
    scale = REFERENCE.nominal_s / statistics.median(run.ref_s)
    tr.on = True
    for _ in range(PROBE_REPEATS):
        for name, code in LAYER_PROBES:
            tr.request = len(run.req_scale)
            run.req_scale.append(scale)
            proc = tr.call(name, subprocess.run, [sys.executable, "-c", code],
                           capture_output=True, env=ctx.env, cwd=ctx.root,
                           timeout=TIMEOUT_S)
            if proc.returncode != 0:
                tr.flag(name)
    tr.on = False


def trace_counters(counters: dict) -> dict:
    return {}
