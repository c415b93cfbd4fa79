"""Time of count-only, fuel and cost runs over plain runs, per corpus-cost
program, on the benchmark's recorded inputs of one seed.

    python tools/cost_ratios.py [--seed 1] [--repeats 20]

Each input runs in the four modes in turn, `repeats` times; a program's time
in a mode is the sum over its inputs of the best time.  A count-only run is
a metered run with an empty watch set: it counts slots and sizes nothing.
"""

import argparse
import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

from polyc import run_program  # noqa: E402

MODES = {"plain": {}, "count": {"watch": {}}, "fuel": {"fuel": 10 ** 9},
         "cost": {"cost_mode": True}}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--repeats", type=int, default=20)
    args = p.parse_args()
    rng, pool = random.Random(args.seed), workloads.load_costs()
    print(f"{'program':12}" + "".join(f"{m:>8}" for m in MODES if m != "plain"))
    for program in sorted(pool):  # the op list's order, so the same inputs
        prog, _ = workloads.load_checked(workloads.read_corpus(program))
        total = dict.fromkeys(MODES, 0.0)
        for entry in workloads.pick(rng, pool[program], workloads.COST_PER_CLASS):
            best = dict.fromkeys(MODES, float("inf"))
            for _ in range(args.repeats):
                for mode, options in MODES.items():
                    values = workloads.program_args(prog, entry["args"])
                    start = time.perf_counter()
                    run_program(prog, values, **options)
                    best[mode] = min(best[mode], time.perf_counter() - start)
            for mode in MODES:
                total[mode] += best[mode]
        print(f"{program:12}" + "".join(f"{total[m] / total['plain']:8.2f}"
                                        for m in MODES if m != "plain"))


if __name__ == "__main__":
    main()
