"""Run-to-run spread of the benchmark, and the committed baseline.

    python3 bench/spread.py --workloads exact-solve --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --held-out 1009 --baseline bench/BENCH_1.json

Runs bench/run.py once per seed and workload, one run at a time, for
run_seconds from BENCHMARK.json, and prints for every end-to-end metric
the median, the quartiles from statistics.quantiles(values, n=4) and their
distance as a share of the median, next to the metric's bound.  It exits 1
if a spread exceeds its bound or a run returned a wrong answer.  With
--held-out, that seed is run three times and its median is compared with
the main median, within the bound.  With --baseline, one traced run per
workload adds the per-layer metrics, and everything is written to the
given file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from sl2bench import END_TO_END, MODULES

BENCH = Path(__file__).resolve().parent
HELD_OUT_RUNS = 3


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of one run.py run, with the run's wall time added."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = perf_counter() - t0
    return result


def spread(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(MODULES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--held-out", type=int)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((BENCH.parent / "BENCHMARK.json")
                         .read_text())["run_seconds"]

    report = {"seconds": seconds, "seeds": seed_list(args.seeds),
              "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, seconds, 0)
                   for s in report["seeds"]]
        entry = {"attempted": [r["attempted"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "wall_s": [round(r["wall_s"], 1) for r in results],
                 "correct": all(r["correct"] for r in results),
                 "end_to_end": {}}
        ok = ok and entry["correct"]
        print(f"{workload}: wall {entry['wall_s']} s, attempted "
              f"{entry['attempted']}, failed {entry['failed']}, "
              f"correct {entry['correct']}")
        for name, (unit, _, bound) in END_TO_END.items():
            s = spread([r["metrics"][name]["value"] for r in results])
            s["unit"], s["bound"] = unit, bound
            s["within_third_of_bound"] = s["spread"] < bound / 3
            entry["end_to_end"][name] = s
            ok = ok and s["spread"] <= bound
            print(f"  {name:16s} median {s['median']:12.5g} {unit:5s} "
                  f"spread {s['spread']:7.2%} bound {bound:5.0%}")
        if args.held_out is not None:
            held = [run_once(workload, args.held_out, seconds, 0)
                    for _ in range(HELD_OUT_RUNS)]
            entry["held_out"] = {"seed": args.held_out, "metrics": {}}
            for name, (_, _, bound) in END_TO_END.items():
                med = statistics.median(r["metrics"][name]["value"]
                                        for r in held)
                share = med / entry["end_to_end"][name]["median"] - 1
                entry["held_out"]["metrics"][name] = {
                    "median": med, "vs_main": share,
                    "agrees": abs(share) <= bound}
                print(f"  held-out {name:16s} {share:+7.2%} "
                      f"{'agrees' if abs(share) <= bound else 'DISAGREES'}")
        if args.baseline:
            traced = run_once(workload, report["seeds"][0], seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
