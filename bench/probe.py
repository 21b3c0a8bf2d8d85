"""Set-up probe: a fresh interpreter runs one workload's set-up, then
prints "ready".  run.py times each probe from its start to that line.

Given a seed, the probe then serves the first deck of that seed's inputs
and prints its own peak resident memory in KiB: the memory of the library
at work, without the benchmark's input pool.

    python3 bench/probe.py <workload> [<seed>]
"""

import sys

sys.dont_write_bytecode = True

from functools import partial  # noqa: E402
from pathlib import Path  # noqa: E402

from sl2bench import workload  # noqa: E402
from sl2bench.harness import Tracer, closed_loop, memory_kb  # noqa: E402

if __name__ == "__main__":
    mod = workload(sys.argv[1])
    ctx = mod.setup(Path(__file__).resolve().parents[1])
    print("ready", flush=True)
    if len(sys.argv) > 2:
        decks = mod.generate(int(sys.argv[2]), decks=1)
        closed_loop(decks, partial(mod.execute, ctx), 0.0, Tracer(),
                    mod.REFERENCE, deck_count=1)
        print(memory_kb(), flush=True)
