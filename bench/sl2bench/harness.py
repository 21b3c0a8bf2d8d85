"""Closed-loop runner, reference-loop scaling, span tracer and statistics.

A run sends one request at a time and waits for it (closed loop, one
client).  Requests are grouped into batches, and a reference workload that
runs no sl2factor code is timed between batches.  Each batch's times are
multiplied by the reference's nominal time over the mean of the reference
times just before and after the batch.  On a shared machine this removes
most of the drift in machine speed between runs; the raw times are kept
alongside.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

OK, FAILED, WRONG = "ok", "failed", "wrong"


def child_env(root) -> dict:
    """Environment for child interpreters: the checkout's sources first, and
    no bytecode written, so every child compiles sl2factor from source."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def memory_kb(field: str = "VmHWM") -> int:
    """A memory figure of this process in KiB from /proc/self/status:
    VmHWM is the peak resident memory since the process started its
    program, VmRSS the current one.  getrusage's ru_maxrss does not do for
    a child, because exec carries over the peak of the memory it
    replaces, which is the parent's."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


def ref_loop() -> Fraction:
    """Fixed Fraction workload; its speed tracks the interpreter's."""
    acc = Fraction(0)
    for k in range(1, 300):
        x = Fraction(k, k + 2) * Fraction(2 * k + 1, 3 * k + 1)
        acc = (acc + x) / 2 - Fraction(1, k)
        acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
    return acc


def time_ref() -> float:
    t0 = perf_counter()
    ref_loop()
    return perf_counter() - t0


@dataclass(frozen=True)
class Reference:
    """How a workload's times are scaled: `measure()` returns seconds and
    runs after every batch of at least `batch_s` seconds of requests."""

    measure: Callable[[], float]
    nominal_s: float
    batch_s: float


# a fresh interpreter that imports numpy, compiles a generated module and
# runs Fraction arithmetic: process start, imports and compilation, with
# no sl2factor code
REF_PROCESS_CODE = (
    "import numpy\n"
    "from fractions import Fraction\n"
    "compile(''.join(f'def f{i}(x):\\n    return x * {i} + {i}\\n'"
    " for i in range(1000)), 'ref', 'exec')\n"
    "acc = Fraction(0)\n"
    "for k in range(1, 1000):\n"
    "    acc = (acc + Fraction(k, k + 2)) / 2\n"
    "    acc = Fraction(acc.numerator % 1000003,\n"
    "                   acc.denominator % 1000003 or 1)\n")


def time_process_ref() -> float:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", REF_PROCESS_CODE], check=True,
                   env=env, timeout=60)
    return perf_counter() - t0


# in-process workloads: a Fraction loop after every 0.05 s of requests
FRACTION_REF = Reference(time_ref, 0.005, 0.05)
# child processes: a reference process after every request
PROCESS_REF = Reference(time_process_ref, 0.19, 0.0)


class Tracer:
    """Spans around the benchmark's calls into sl2factor, kept in memory.

    When `on` is false a call site costs one attribute test.  A span is
    [name, start, end, parent index, request id, failed].
    """

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.request = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kw):
        if not self.on:
            return fn(*args, **kw)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.request, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            return fn(*args, **kw)
        except Exception:
            span[5] = True
            raise
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.on:
            self.counters[name] = self.counters.get(name, 0) + value

    def flag(self, site: str) -> None:
        """A check rejected the output of `site`."""
        self.count(site + ".fail")


class Run:
    """Everything one closed-loop run measured."""

    def __init__(self):
        self.latency_raw: list[float] = []
        self.latency: list[float] = []   # scaled
        self.kinds: list[str] = []
        self.traced: list[bool] = []
        self.req_scale: list[float] = []
        self.ref_s: list[float] = []
        # (first request, request count, seconds); ref_s[i] was measured
        # just before batch i and ref_s[i + 1] just after it
        self.batches: list[tuple[int, int, float]] = []
        self.busy_raw = 0.0
        self.busy = 0.0                  # scaled
        self.outcomes = {OK: 0, FAILED: 0, WRONG: 0}
        self.errors: dict[str, int] = {}
        self.pool_wraps = 0

    @property
    def attempted(self) -> int:
        return len(self.latency_raw)

    def scale(self, nominal_s: float) -> None:
        """Scale each batch by the mean of the reference times measured
        just before and just after it.  The machine's speed changes within
        a second, so nearer references track it better than wider ones."""
        for i, (first, count, seconds) in enumerate(self.batches):
            scale = nominal_s / ((self.ref_s[i] + self.ref_s[i + 1]) / 2)
            self.busy_raw += seconds
            self.busy += seconds * scale
            self.latency += [x * scale
                             for x in self.latency_raw[first:first + count]]
            self.req_scale += [scale] * count


def _attempt(execute, kind, payload, tr: Tracer, run: Run) -> str:
    try:
        status = tr.call("request." + kind, execute, kind, payload, tr)
    except Exception as exc:  # the run goes on; the failure is counted
        key = f"{kind}: {type(exc).__name__}: {exc}"[:200]
        if key not in run.errors:
            traceback.print_exc(file=sys.stderr)
        run.errors[key] = run.errors.get(key, 0) + 1
        return FAILED
    return status


def closed_loop(decks, execute, seconds: float, tr: Tracer,
                ref: Reference = FRACTION_REF, paired: bool = False,
                deck_count: int | None = None) -> Run:
    """Run whole decks of requests until `seconds` have passed, or with
    `deck_count`, run exactly the first `deck_count` decks.

    `execute(kind, payload, tr)` returns OK, FAILED (the library refused
    or flagged its own result) or WRONG (a check contradicted a result the
    library returned as good); an exception counts as FAILED.  With
    `paired`, every deck runs twice, untraced and traced, in alternating
    order, so that the tracing overhead is measured on identical work.
    """
    run = Run()
    run.ref_s.append(ref.measure())
    t_begin = batch_t0 = perf_counter()
    first = 0
    deck_no = 0
    while True:
        if deck_no and deck_no % len(decks) == 0:
            run.pool_wraps += 1
        deck = decks[deck_no % len(decks)]
        passes = ((deck_no % 2 == 1, deck_no % 2 == 0) if paired
                  else (False,))
        for traced in passes:
            tr.on = traced
            for kind, payload in deck:
                tr.request = len(run.latency_raw)
                t0 = perf_counter()
                status = _attempt(execute, kind, payload, tr, run)
                t1 = perf_counter()
                run.latency_raw.append(t1 - t0)
                run.kinds.append(kind)
                run.traced.append(traced)
                run.outcomes[status] += 1
                if t1 - batch_t0 >= ref.batch_s:
                    run.batches.append((first, len(run.latency_raw) - first,
                                        t1 - batch_t0))
                    run.ref_s.append(ref.measure())
                    first = len(run.latency_raw)
                    batch_t0 = perf_counter()
        tr.on = False
        deck_no += 1
        if deck_count is not None:
            if deck_no >= deck_count:
                break
        elif perf_counter() - t_begin >= seconds:
            break
    if first < len(run.latency_raw):
        run.batches.append((first, len(run.latency_raw) - first,
                            t1 - batch_t0))
        run.ref_s.append(ref.measure())
    run.scale(ref.nominal_s)
    return run


# ---------------------------------------------------------------------------
# statistics


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of unsorted values (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def span_summary(tr: Tracer, req_scale: list[float]) -> dict:
    """Per call site: calls, p50 and total self time (scaled ms), fails."""
    child_time = [0.0] * len(tr.spans)
    for name, start, end, parent, _, _ in tr.spans:
        if parent >= 0:
            child_time[parent] += end - start
    sites: dict[str, dict] = {}
    for i, (name, start, end, _, req, failed) in enumerate(tr.spans):
        s = sites.setdefault(name, {"durations": [], "self": 0.0, "fail": 0})
        scale = req_scale[req]
        s["durations"].append((end - start) * scale)
        s["self"] += (end - start - child_time[i]) * scale
        s["fail"] += failed
    out = {}
    for name, s in sites.items():
        out[name] = {
            "calls": len(s["durations"]),
            "p50_ms": statistics.median(s["durations"]) * 1e3,
            "self_ms": s["self"] * 1e3,
            "fail": s["fail"] + int(tr.counters.get(name + ".fail", 0)),
        }
    return out


def trace_overhead(run: Run) -> float:
    """Scaled time of the traced passes over the untraced ones, minus 1."""
    on = sum(x for x, t in zip(run.latency, run.traced) if t)
    off = sum(x for x, t in zip(run.latency, run.traced) if not t)
    return on / off - 1.0
