"""Self-test of the benchmark: same seed, same work; another seed, other
inputs that pass every gate; output that matches BENCHMARK.json.

    python3 -m pytest bench/test_bench.py
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = ("interp.steps", "lexer.tokens", "transform.stab_runs",
                "analysis.rounds", "printer.bytes")
# the checker names declaration, parameter and counter sites by id(node)
SITE_ID = re.compile(r"(\('(?:decl|param|counter)', '[^']*', (?:\d+, )?)\d+\)")


def fingerprint(out):
    return SITE_ID.sub(r"\1<id>)", repr(out))


def traced_pass(workload, seed):
    """Set up and run one traced pass; returns the op names, the outputs'
    fingerprints, the failure count and the per-layer metrics."""
    tracer = tracing.Tracer(run.clock)
    tracer.install([workloads])
    try:
        ops = workloads.WORKLOADS[workload](seed)
        tracer.replay()
        tracer.phase = "op"
        runner = run.Runner(ops, tracer)
        outputs = [fingerprint(runner.run_op(i)) for i in range(len(ops))]
    finally:
        tracer.uninstall()
    return ([op.name for op in ops], outputs, runner.failed,
            tracing.layer_metrics(tracer.spans, 1))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_work_other_seed_other_inputs(workload):
    names, outputs, failed, metrics = traced_pass(workload, 1)
    names2, outputs2, failed2, metrics2 = traced_pass(workload, 1)
    assert failed == failed2 == 0
    assert names == names2
    assert outputs == outputs2
    for key in EXACT_COUNTS:
        assert metrics[key][0] == metrics2[key][0], key

    names3, outputs3, failed3, _ = traced_pass(workload, 2)
    assert failed3 == 0
    assert len(names3) == len(names)
    assert (names3, outputs3) != (names, outputs)


def test_layers_separate():
    """The traced run attributes each workload's time where it should."""
    tm = traced_pass("tm-sim", 3)[3]
    assert tm["interp.op_share"][0] >= 0.9
    fe = traced_pass("frontend", 3)[3]
    assert fe["interp.runs"][0] == 0
    assert sum(fe[f"{layer}.op_share"][0]
               for layer in ("lexer", "parser", "typecheck")) > 0.5
    tc = traced_pass("toolchain", 3)[3]
    assert tc["interp.runs_per_op"][0] > 1


def run_bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)
    return done


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_result_line_matches_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    done = run_bench("--workload", "corpus-cost", "--seed", "4",
                       "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout.splitlines()[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    assert got == want


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = run_bench("--workload", "tm-sim", "--seed", "1",
                       "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
