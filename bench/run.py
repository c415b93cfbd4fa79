"""polyc benchmark driver.

    python3 bench/run.py --workload tm-sim --seed 1 --seconds 30 --trace 0

Runs one workload in a single-threaded closed loop: one client, each op
starting after the previous one has finished.  It passes over the workload's
fixed op list again and again until --seconds have elapsed, always
finishing the pass it is in.  Every output is checked outside the timed
span.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1.  See README.md in this directory.
"""

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"

# fresh interpreters whose set-up time gives the setup_s median
SETUP_PROBES = 9
# fastest repeats of each op that the timing metrics use
BEST_OF = 8
# names of failed ops kept for the metadata
FAILURES_SHOWN = 5
PROBE_TIMEOUT_S = 60

clock = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["tm-sim", "corpus-cost", "frontend", "toolchain"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print the monotonic time, exit")
    return p.parse_args(argv)


def setup(workload, seed):
    """Import polyc and build the op list; returns (ops, import seconds,
    workloads module)."""
    t0 = clock()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports every polyc module
    import_s = clock() - t0
    return workloads.WORKLOADS[workload](seed), import_s, workloads


def probe_setup_seconds(args):
    """Time from starting a fresh interpreter to the end of set-up."""
    cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    return float(done.stdout.split()[-1]) - t0


class Runner:
    """Runs passes over the op list and keeps every op's times and the
    failures."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.times = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run_op(self, i):
        op = self.ops[i]
        tracer = self.tracer
        self.attempted += 1
        span = tracer.begin("bench", "op") if tracer else None
        t0 = clock()
        try:
            out = op.run()
            ok = True
        except Exception as e:  # a crash is a failed op, not a stop
            out, ok = repr(e), False
        self.times[i].append(clock() - t0)
        if tracer:
            tracer.end(span)
            tracer.phase = "check"
            ok = tracer.replay() and ok
        try:
            ok = ok and op.check(out) is True
        except Exception:
            ok = False
        if tracer:
            tracer.phase = "op"
        if not ok:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(op.name)
        return out

    def run_for(self, seconds):
        """Whole passes until --seconds have elapsed and every op has run
        at least BEST_OF times."""
        deadline = clock() + seconds
        self.passes = 0
        while self.passes < BEST_OF or clock() < deadline:
            for i in range(len(self.ops)):
                self.run_op(i)
            self.passes += 1

    def best_times(self):
        """Each op's BEST_OF fastest times in the run.

        On a shared virtual machine the CPU can run up to 2x slower for
        seconds at a time, so a median or a mean over all repeats mostly
        measures how much of the run fell in slow periods.  An op's fastest
        repeats do not depend on that, as long as the run repeats each op
        well over BEST_OF times.
        """
        return [sorted(t)[:BEST_OF] for t in self.times]


def best_total(runner):
    return sum(statistics.fmean(op) for op in runner.best_times())


def end_to_end(runner, setup_samples):
    best = runner.best_times()
    samples_ms = sorted(1000 * t for op in best for t in op)
    return {
        "ops_per_s": (len(best) / best_total(runner), "1/s"),
        "op_ms_p50": (statistics.median(samples_ms), "ms"),
        "op_ms_p95": (statistics.quantiles(samples_ms, n=20)[18], "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def git_sha():
    """HEAD of the checkout, read without running git; None outside a
    repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args, runner):
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src" / "polyc").glob("*.py"))
    samples = sorted(t for op in runner.best_times() for t in op)
    p95 = statistics.quantiles(samples, n=20)[18]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "ops": len(runner.ops), "passes": runner.passes,
        "executions": sum(len(t) for t in runner.times),
        "latency_samples": len(samples),
        "samples_beyond_p95": sum(1 for t in samples if t > p95),
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures,
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "src_polyc_lines": lines,
        "note": "no machine setting was tuned and no cache was dropped; "
                "only this process and its set-up probes were measured",
    }


def traced_run(args, ops, import_s, workloads):
    """Half the time untraced, then set-up and the other half traced; the
    ratio of the two halves' best-time totals is the tracing overhead."""
    import tracing

    untraced = Runner(ops)
    untraced.run_for(args.seconds / 2)

    tracer = tracing.Tracer(clock)
    tracer.install([workloads])
    try:
        # set-up again, under the tracer
        ops = workloads.WORKLOADS[args.workload](args.seed)
        tracer.replay()
        tracer.phase = "op"
        runner = Runner(ops, tracer)
        runner.run_for(args.seconds / 2)
    finally:
        tracer.uninstall()
    runner.attempted += untraced.attempted
    runner.failed += untraced.failed
    runner.failures = (untraced.failures + runner.failures)[:FAILURES_SHOWN]
    metrics = tracing.layer_metrics(tracer.spans, runner.passes)
    metrics["setup.import_ms"] = (1000 * import_s, "ms")
    metrics["trace.overhead"] = (
        best_total(runner) / best_total(untraced) - 1, "ratio")
    metrics["trace.spans_per_pass"] = (
        sum(1 for s in tracer.spans if s[tracing.PHASE] == "op")
        / runner.passes, "count")
    return runner, metrics, tracer.spans


def write_trace(args, meta, metrics, spans):
    """Spans of set-up and of the first traced pass, with the metrics."""
    import tracing

    RESULTS.mkdir(exist_ok=True)
    first = []
    ops_seen = 0
    for s in spans:
        if s[tracing.FUNC] == "op":
            ops_seen += 1
            if ops_seen > meta["ops"]:
                break
        first.append(s[:tracing.INFO])
    doc = {"meta": meta, "metrics": metrics,
           "span_fields": ["layer", "func", "start", "end", "parent",
                           "child_s", "phase"],
           "spans": first}
    path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(time.monotonic())
        return 0

    if args.trace:
        ops, import_s, workloads = setup(args.workload, args.seed)
        runner, metrics, spans = traced_run(args, ops, import_s, workloads)
    else:
        setup_samples = [probe_setup_seconds(args)
                         for _ in range(SETUP_PROBES)]
        ops, _, _ = setup(args.workload, args.seed)
        runner = Runner(ops)
        runner.run_for(args.seconds)
        metrics = end_to_end(runner, setup_samples)
    meta = metadata(args, runner)
    if args.trace:
        write_trace(args, meta, metrics, spans)
    for name, (value, unit) in metrics.items():
        print(f"{name:<32} {value:>16.6g} {unit}")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
