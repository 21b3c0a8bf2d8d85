"""Benchmark of sl2factor: four closed-loop, single-client workloads.

MODULES maps each workload name to its module, which workload(name)
imports.  A module provides
generate(seed) -> decks of (kind, payload) requests, setup(root, decks)
-> context, execute(context, kind, payload, tracer) -> status, TAIL_Q,
IN_PROCESS, REFERENCE, TRACED_DECKS_PER_S and trace_counters(counters).

A traced run covers a fixed number of decks, round(seconds *
TRACED_DECKS_PER_S) and at least one, however fast the code is, so that
per-layer totals count the same work on every commit.  The rate is about
what fits into `seconds` at the baseline.

END_TO_END and PER_LAYER name every metric with its unit and direction;
BENCHMARK.json at the repository root lists the same metrics.
"""

import importlib

MODULES = {
    "exact-solve": "exact_solve",
    "symbolic-expand": "symbolic_expand",
    "float-analysis": "float_analysis",
    "cli-cold": "cli_cold",
}


def workload(name: str):
    return importlib.import_module(f"{__name__}.{MODULES[name]}")


# name -> (unit, better, bound); error_rate is printed but not listed in
# BENCHMARK.json, which takes only metrics that are never 0
END_TO_END = {
    "throughput_rps": ("1/s", "higher", 0.15),
    "latency_p50_ms": ("ms", "lower", 0.2),
    "latency_tail_ms": ("ms", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# call sites timed in process; each gets .calls, .p50_ms, .self_ms, .fail
SITES = (
    "exact_algebra.det_check",
    "exact_algebra.format_exact",
    "exact_algebra.MultiPoly.mul",
    "exact_algebra.MultiPoly.eq",
    "word_core.eval_word",
    "word_core.middle_Q",
    "word_core.middle_Q_brute",
    "word_core.expand_phi",
    "submersion_spray.sl2_jacobian.exact",
    "submersion_spray.frame_rank.exact",
    "submersion_spray.sl2_jacobian.approx",
    "submersion_spray.frame_rank.approx",
    "submersion_spray.vfield_apply",
    "submersion_spray.flow_rk4",
    "fiber_solver.interior_sample",
    "fiber_solver.complete_generic_even",
    "fiber_solver.complete_nongeneric_even",
    "fiber_solver.complete_odd",
    "factorizer.factor_constant",
    "factorizer.pad_avoid_singular",
    "factorizer.cohn_family_4",
    "factorizer.cohn_holo_5.float",
    "factorizer.cohn_holo_5.dps40",
    "obstruction.sample_loop",
    "obstruction.holo_obstruction_certificate",
)
SITE_STATS = (("calls", "count", "higher"), ("p50_ms", "ms", "lower"),
              ("self_ms", "ms", "lower"), ("fail", "count", "lower"))

CLI_SITES = ("cli.expand", "cli.jacobian", "cli.lemma-check",
             "cli.fiber-solve", "cli.factor-const", "cli.pad", "cli.cohn",
             "cli.winding", "cli.certificate", "cli.bound", "cli.interpreter",
             "cli.import_sl2factor", "cli.import_numpy")

PER_LAYER = {}
for _site in SITES:
    for _stat, _unit, _better in SITE_STATS:
        PER_LAYER[f"{_site}.{_stat}"] = (_unit, _better)
PER_LAYER.update({
    "submersion_spray.flow_rk4.steps": ("steps/flow", "lower"),
    "factorizer.factor_constant.three_factor_share": ("ratio", "higher"),
    "factorizer.cohn_holo_5.float.verified_share": ("ratio", "higher"),
    "obstruction.sample_loop.samples_per_loop": ("ratio", "lower"),
})
for _site in CLI_SITES:
    PER_LAYER[f"{_site}.p50_ms"] = ("ms", "lower")
PER_LAYER.update({
    "cli.fail": ("count", "lower"),
    "bench.ref_loop_ms": ("ms", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
})
