"""Tests of the benchmark itself.

    python3 -m pytest -q bench/tests

A minimal run of every workload must print every metric with its unit, and
a planted wrong result must be counted as a failure.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import sl2factor  # noqa: E402
from sl2bench import END_TO_END, MODULES, PER_LAYER, workload  # noqa: E402
from sl2bench.harness import (FAILED, OK, WRONG, Tracer,  # noqa: E402
                              closed_loop, span_summary)


def _main(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv), setup_repeats=1) == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(MODULES))
def test_minimal_run_emits_every_metric(name, trace):
    result = _main("--workload", name, "--seed", "3", "--seconds", "0.3",
                   "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = PER_LAYER if trace else END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == expected[metric][0]
        assert isinstance(entry["value"], (int, float))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_lists_the_same_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(MODULES)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["per_layer"]} == PER_LAYER


def test_inputs_depend_only_on_the_seed():
    for name in MODULES:
        mod = workload(name)
        assert mod.generate(5, decks=2) == mod.generate(5, decks=2)
        assert mod.generate(5, decks=2) != mod.generate(6, decks=2)


class _PlantedLibrary:
    """sl2factor with factor_constant returning one entry changed."""

    def __getattr__(self, name):
        return getattr(sl2factor, name)

    @staticmethod
    def factor_constant(m):
        f = sl2factor.factor_constant(m)
        first, *rest = f.word.factors
        bad = sl2factor.ElementaryFactor(first.side, first.entry + 1)
        return dataclasses.replace(f, word=sl2factor.Word([bad, *rest]))


def test_planted_wrong_word_is_counted_as_failure():
    mod = workload("exact-solve")
    ctx = mod.setup(ROOT)
    deck = [r for r in mod.generate(1, decks=1)[0] if r[0] == "factor"]
    assert mod.execute(ctx, *deck[0], Tracer()) == OK
    ctx.lib = _PlantedLibrary()
    run_ = closed_loop([deck], lambda k, p, tr: mod.execute(ctx, k, p, tr),
                       0.0, Tracer())
    assert run_.outcomes[WRONG] == len(deck) == run_.attempted


def test_replay_check_rejects_a_changed_entry():
    mod = workload("exact-solve")
    ctx = mod.setup(ROOT)
    word, target = next(p for k, p in mod.generate(2, decks=1)[0]
                        if k == "pad")
    lib_word = sl2factor.Word(
        sl2factor.ElementaryFactor(s, sl2factor.ExactComplex(*x))
        for s, x in word)
    assert mod.check_replay(ctx, Tracer(), "site", lib_word, target)
    changed = list(lib_word.factors)
    changed[-1] = sl2factor.ElementaryFactor(changed[-1].side,
                                             changed[-1].entry * 2 + 1)
    assert not mod.check_replay(ctx, Tracer(), "site",
                                sl2factor.Word(changed), target)


def test_unverified_double_precision_cohn_is_asked_again_at_dps_40():
    mod = workload("float-analysis")
    ctx = mod.setup(ROOT)
    # a corner of criterion 7's box, where zw = -8
    assert not sl2factor.cohn_holo_5(complex(-2, -2), complex(2, -2)).verified
    tr = Tracer()
    tr.on = True
    assert mod.execute(ctx, "cohn5_float", (-2.0, 2.0), tr) == OK
    assert [s[0] for s in tr.spans] == ["factorizer.cohn_holo_5.float",
                                        "factorizer.cohn_holo_5.escalate"]
    assert tr.counters["factorizer.cohn_holo_5.float.verified"] == 0


def test_cohn_word_unverified_at_dps_40_is_a_failure():
    mod = workload("float-analysis")
    ctx = mod.setup(ROOT)

    def unverified(z, w, dps=None):
        f = sl2factor.cohn_holo_5(z, w, dps=dps)
        return dataclasses.replace(f, verified=False)
    ctx.lib = type("Lib", (), {"cohn_holo_5": staticmethod(unverified)})
    tr = Tracer()
    tr.on = True
    assert mod.execute(ctx, "cohn5_float", (0.5, 0.5), tr) == FAILED
    assert tr.counters["factorizer.cohn_holo_5.escalate.fail"] == 1


@pytest.mark.parametrize("stub, status", [
    ("import sys; print('{}'); sys.exit(3)", FAILED),
    ("print('{}'); print('{}')", WRONG),
    ("print('{\"bound\": 1}')", WRONG),
])
def test_cli_stub_results_are_failures(stub, status):
    mod = workload("cli-cold")
    deck = [r for r in mod.generate(1, decks=1)[0] if r[0] == "bound"]
    ctx = mod.setup(ROOT, [deck])
    assert mod.execute(ctx, *deck[0], Tracer()) == OK
    assert ctx.peak_rss_kb > 0
    ctx.cmd = [sys.executable, "-c", stub]
    ctx.argv = {k: [] for k in ctx.argv}
    assert mod.execute(ctx, *deck[0], Tracer()) == status


def test_traced_run_covers_a_fixed_number_of_decks():
    decks = [[("a", i), ("b", i)] for i in range(5)]
    run_ = closed_loop(decks, lambda kind, payload, tr: OK, 60.0, Tracer(),
                       paired=True, deck_count=3)
    assert run_.attempted == 12
    assert sum(run_.traced) == 6


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    tr.spans = [["parent", 0.0, 0.010, -1, 0, False],
                ["child", 0.002, 0.005, 0, 0, True]]
    summary = span_summary(tr, [2.0])
    assert summary["parent"]["self_ms"] == pytest.approx(14.0)
    assert summary["child"]["p50_ms"] == pytest.approx(6.0)
    assert summary["child"]["fail"] == 1


def test_exits_nonzero_without_the_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact-solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
