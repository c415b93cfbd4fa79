"""Write costs.json: the input pool of the corpus-cost workload, with the
cost of each input recorded by the current interpreter.

    python3 bench/record_costs.py

The pool holds four size classes of 24 inputs for each of fastmul.pc,
sort.pc, knapsack.pc and path.pc, drawn from a fixed seed.  corpus-cost
checks every cost-mode run against the ``ic``, ``max_value_size`` and
``rule_counts`` recorded here, so a change to the cost semantics shows as a
failed op.  Re-record only when such a change is intended.
"""

import json
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polyc import run_program  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 20250725
PER_CLASS = 24


def gen_args(program, cls, rng):
    if program == "fastmul.pc":
        bits = (16, 32, 64, 128)[cls]
        return [rng.randrange(1 << (bits - 1), 1 << bits) for _ in range(2)]
    if program == "sort.pc":
        n = (4, 8, 12, 16)[cls]
        return [[rng.randrange(-999, 999) for _ in range(n)], (1 << n) - 1]
    if program == "knapsack.pc":
        n = (3, 4, 5, 6)[cls]
        ws = [rng.randint(1, 4) for _ in range(n)]
        vs = [rng.randint(1, 9) for _ in range(n)]
        return [ws, vs, (1 << (2 * n)) - 1, (1 << n) - 1]
    if program == "path.pc":
        m = (3, 4, 5, 6)[cls]
        adj = "".join(rng.choice("01") for _ in range(m * m))
        return [m, rng.randrange(m), rng.randrange(m), adj]
    raise KeyError(program)


def record():
    rng = random.Random(POOL_SEED)
    pool = {}
    for program in ("fastmul.pc", "knapsack.pc", "path.pc", "sort.pc"):
        prog, mode = workloads.load_checked(workloads.read_corpus(program))
        entries = pool[program] = []
        for cls in range(4):
            for _ in range(PER_CLASS):
                raw = gen_args(program, cls, rng)
                rep = run_program(prog, workloads.program_args(prog, raw),
                                  cost_mode=True, mode=mode)
                entries.append({
                    "id": len(entries), "cls": cls, "args": raw,
                    "ic": rep.ic, "max_value_size": rep.max_value_size,
                    "rule_counts": dict(sorted(rep.rule_counts.items())),
                })
    return pool


def dump(pool):
    """One entry per line, so that a re-recording diffs by input."""
    blocks = []
    for program, entries in pool.items():
        lines = ",\n".join("  " + json.dumps(e) for e in entries)
        blocks.append(f"{json.dumps(program)}: [\n{lines}\n ]")
    return "{\n " + ",\n ".join(blocks) + "\n}\n"


if __name__ == "__main__":
    workloads.COSTS_FILE.write_text(dump(record()), encoding="utf-8")
