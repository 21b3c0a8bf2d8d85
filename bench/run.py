"""Benchmark of sl2factor: one workload, one seed, one run.

    python3 bench/run.py --workload exact-solve --seed 1 --seconds 20 --trace 0

Workloads: exact-solve, symbolic-expand, float-analysis, cli-cold (see
bench/README.md).  All inputs are generated from the seed before timing
starts.  With --trace 0 the run is untraced and reports the end-to-end
metrics; with --trace 1 a fixed number of decks, set by --seconds, runs
twice each, untraced and traced, and the run reports the per-layer metrics
and the tracing overhead.  Peak memory is that of a fresh interpreter that
sets up and serves one deck, so the input pool does not count.

Output: a metric table, a context line, and as the last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  The full record,
with the spans of a traced run, goes to .bench_out/ in the checkout.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from functools import partial  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from sl2bench import (CLI_SITES, END_TO_END, MODULES, PER_LAYER,  # noqa: E402
                      SITE_STATS, SITES, workload)
from sl2bench.harness import (FAILED, PROCESS_REF, WRONG,  # noqa: E402
                              Tracer, child_env, closed_loop, memory_kb,
                              quantile, span_summary, trace_overhead)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def measure_setup(name: str, repeats: int) -> tuple:
    """Seconds from starting a fresh interpreter to the end of the
    workload's set-up, once per repeat, and the reference process times
    measured before the first probe and after each one."""
    env = child_env(ROOT)
    times, refs = [], [PROCESS_REF.measure()]
    for _ in range(repeats):
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), name],
                              stdout=subprocess.PIPE, text=True, env=env,
                              cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
        times.append(t1 - t0)
        refs.append(PROCESS_REF.measure())
    return times, refs


def measure_peak_rss(name: str, seed: int) -> int:
    """Peak resident memory in KiB of a fresh interpreter that sets up the
    workload and serves the first deck of the seed's inputs."""
    with subprocess.Popen([sys.executable, str(BENCH / "probe.py"), name,
                           str(seed)], stdout=subprocess.PIPE, text=True,
                          env=child_env(ROOT), cwd=ROOT) as proc:
        lines = proc.communicate(timeout=PROBE_TIMEOUT_S)[0].split()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
        raise RuntimeError(f"memory probe for {name} failed")
    return int(lines[1])


def git_revision(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(package: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_context(seed: int, ref_ms: float, nominal_ms: float) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(SRC / "sl2factor"),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "children_PYTHONDONTWRITEBYTECODE": "1",
        "sl2factor_bytecode_cached": (SRC / "sl2factor"
                                      / "__pycache__").is_dir(),
        "seed": seed,
        "ref_loop_ms": ref_ms,
        "nominal_ref_ms": nominal_ms,
    }


def end_to_end(mod, run, setup_times: list, setup_refs: list,
               rss_kb: int) -> tuple:
    """The end-to-end metrics, and details printed beside them."""
    tail = quantile(run.latency, mod.TAIL_Q)
    failed = run.outcomes[FAILED] + run.outcomes[WRONG]
    setup_scaled = [t * PROCESS_REF.nominal_s / ((a + b) / 2)
                    for t, a, b in zip(setup_times, setup_refs,
                                       setup_refs[1:])]
    metrics = {
        "throughput_rps": run.attempted / run.busy,
        "latency_p50_ms": quantile(run.latency, 0.5) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss_kb / 1024,
    }
    details = {
        "error_rate": failed / run.attempted,
        "tail_percentile": mod.TAIL_Q * 100,
        "tail_samples_beyond": sum(x > tail for x in run.latency),
        "requests": run.attempted,
        "wrong": run.outcomes[WRONG],
        "raw_throughput_rps": run.attempted / run.busy_raw,
        "raw_latency_p50_ms": quantile(run.latency_raw, 0.5) * 1e3,
        "raw_latency_tail_ms": quantile(run.latency_raw, mod.TAIL_Q) * 1e3,
        "raw_setup_s": statistics.median(setup_times),
        "setup_s_all": setup_times,
        "setup_ref_s_all": setup_refs,
        "pool_wraps": run.pool_wraps,
        "errors": run.errors,
    }
    return metrics, details


def per_layer(mod, run, tr) -> tuple:
    """The per-layer metrics, and the summary of every span name."""
    sites = span_summary(tr, run.req_scale)
    metrics = {}
    for site in SITES:
        for stat, _, _ in SITE_STATS:
            metrics[f"{site}.{stat}"] = sites.get(site, {}).get(stat, 0)
    for site in CLI_SITES:
        metrics[f"{site}.p50_ms"] = sites.get(site, {}).get("p50_ms", 0)
    metrics["cli.fail"] = sum(sites.get(s, {}).get("fail", 0)
                              for s in CLI_SITES)
    metrics.update(mod.trace_counters(tr.counters))
    metrics["bench.ref_loop_ms"] = statistics.median(run.ref_s) * 1e3
    metrics["bench.trace_overhead"] = trace_overhead(run)
    return {name: metrics.get(name, 0) for name in PER_LAYER}, sites


def main(argv=None, setup_repeats: int = SETUP_REPEATS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sl2factor" / "__init__.py").is_file():
        print(f"no sl2factor sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    mod = workload(args.workload)
    rss_before_pool = memory_kb("VmRSS")
    decks = mod.generate(args.seed)
    pool_kb = memory_kb("VmRSS") - rss_before_pool
    if args.trace:
        deck_count = max(1, round(args.seconds * mod.TRACED_DECKS_PER_S))
    else:
        deck_count = None
        setup_times, setup_refs = measure_setup(args.workload, setup_repeats)
        if mod.IN_PROCESS:
            rss_kb = measure_peak_rss(args.workload, args.seed)
    ctx = mod.setup(ROOT, decks)
    # the input pool lives for the whole run; keep the collector from
    # rescanning it, so its cost does not depend on the pool's size
    gc.collect()
    gc.freeze()
    tr = Tracer()
    run = closed_loop(decks, partial(mod.execute, ctx), args.seconds, tr,
                      mod.REFERENCE, paired=bool(args.trace),
                      deck_count=deck_count)
    if args.trace and hasattr(mod, "layer_probes"):
        mod.layer_probes(ctx, tr, run)

    if args.trace:
        metrics, detail = per_layer(mod, run, tr)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        if not mod.IN_PROCESS:
            rss_kb = ctx.peak_rss_kb
        metrics, detail = end_to_end(mod, run, setup_times, setup_refs,
                                     rss_kb)
        detail["bench_process_rss_mb"] = memory_kb() / 1024
        detail["input_pool_rss_mb"] = pool_kb / 1024
        units = {k: u for k, (u, _, _) in END_TO_END.items()}
    context = run_context(args.seed, statistics.median(run.ref_s) * 1e3,
                          mod.REFERENCE.nominal_s * 1e3)
    record = {"workload": args.workload, "trace": args.trace,
              "context": context, "metrics": metrics, "detail": detail,
              "outcomes": run.outcomes}
    if args.trace:
        record["spans"] = tr.spans
        record["counters"] = tr.counters
    else:
        record["raw"] = {"latency_s": run.latency_raw, "kinds": run.kinds,
                         "batches": run.batches, "ref_s": run.ref_s}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"{'error_rate':52s} {detail['error_rate']:14.6g} ratio")
        print(f"{'latency_tail_ms percentile':52s} "
              f"{detail['tail_percentile']:14g} "
              f"({detail['tail_samples_beyond']} of {run.attempted} beyond)")
    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": run.outcomes[WRONG] == 0,
        "attempted": run.attempted,
        "failed": run.outcomes[FAILED] + run.outcomes[WRONG],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
