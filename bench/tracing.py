"""Spans around calls into polyc's layers, recorded from outside.

The tracer replaces every binding of a layer's public functions in the
loaded polyc modules (and in the benchmark's own modules) with a wrapper
that records a span: layer, function, start, end, parent and phase.  Calls
that polyc makes internally, such as ``cli.main`` calling ``run_program``,
go through the same bindings, so they nest under their caller.  Nothing in
``src/polyc`` is edited.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its child spans.
"""

import copy
import sys

from polyc.values import VArray

# layer -> (module, public functions); ast, values and errors do work only
# inside these modules and get no spans of their own
LAYERS = {
    "lexer": ("polyc.lexer", ("tokenize",)),
    "parser": ("polyc.parser", ("parse_source", "parse_program")),
    "desugar": ("polyc.desugar", ("desugar",)),
    "typecheck": ("polyc.typecheck", ("check_program",)),
    "printer": ("polyc.printer", ("pretty_print",)),
    "interp": ("polyc.interp", ("run_program",)),
    "tm": ("polyc.tm", ("parse_tm", "compile_tm", "clock_program", "tm_run")),
    "transform": ("polyc.transform", (
        "normalize_simple", "stabilization_search", "t1_max_tracker",
        "t2_cost_tracker", "bounded_equiv")),
    "analysis": ("polyc.analysis", ("poly_check", "erase_annotations")),
    "cli": ("polyc.cli", ("main",)),
}

# span fields
LAYER, FUNC, T0, T1, PARENT, CHILD, PHASE, INFO = range(8)


class Tracer:
    """Records spans while installed; ``phase`` tags each new span as
    set-up, op or check work."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self.replays = []  # plain runs of the current op, to re-run
        self.patched = []  # (module, attribute, original) to restore
        self.run_program = None  # the unwrapped run_program

    # -- installation ------------------------------------------------------

    def install(self, extra_modules):
        """Wrap every public layer function wherever it is bound."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "polyc" or name.startswith("polyc.")]
        modules += list(extra_modules)
        for layer, (module_name, funcs) in LAYERS.items():
            home = sys.modules[module_name]
            for func in funcs:
                orig = getattr(home, func)
                if func == "run_program":
                    self.run_program = orig
                    wrapper = self._wrap_run(orig)
                else:
                    wrapper = self._wrap(layer, func, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self.patched.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self.patched):
            setattr(mod, attr, orig)
        self.patched = []

    # -- spans ---------------------------------------------------------------

    def begin(self, layer, func):
        span = [layer, func, self.clock(), None,
                self.stack[-1] if self.stack else -1, 0.0, self.phase, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span):
        span[T1] = self.clock()
        self.stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += span[T1] - span[T0]

    def _wrap(self, layer, func, fn):
        def wrapper(*args, **kwargs):
            span = self.begin(layer, func)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if func in ("tokenize", "pretty_print"):
                span[INFO] = len(result)
            return result

        return wrapper

    def _wrap_run(self, fn):
        def run_program(prog, args, cost_mode=False, mode="core", fuel=None,
                        watch=None):
            if not cost_mode:
                # replayed in cost mode after the op, outside every span, to
                # count the steps of this plain run
                replay_args = (copy.deepcopy(args) if any(
                    isinstance(a, VArray) for a in args) else list(args))
            span = self.begin("interp", "run_program")
            try:
                rep = fn(prog, args, cost_mode, mode, fuel, watch)
            finally:
                self.end(span)
            if cost_mode:
                span[INFO] = {"cost": True, "ic": rep.ic,
                              "mvs": rep.max_value_size, "out": rep.output}
            else:
                span[INFO] = {"cost": False, "out": rep.output}
                self.replays.append((span, prog, replay_args, mode, fuel))
            return rep

        return run_program

    def replay(self):
        """Re-run the plain runs of the last op in cost mode; returns False
        if a cost-mode run disagrees with its plain run."""
        agree = True
        for span, prog, args, mode, fuel in self.replays:
            rep = self.run_program(prog, args, cost_mode=True, mode=mode,
                                   fuel=fuel)
            span[INFO]["ic"] = rep.ic
            span[INFO]["mvs"] = rep.max_value_size
            agree = agree and rep.output == span[INFO]["out"]
        self.replays = []
        return agree


def self_time(span):
    return span[T1] - span[T0] - span[CHILD]


def parent_func(spans, span):
    return spans[span[PARENT]][FUNC] if span[PARENT] >= 0 else None


def layer_metrics(spans, passes):
    """Per-layer metrics of one set-up plus one pass over the op set.

    Set-up spans count once; op spans are summed over the traced passes and
    divided by their number; check spans count only in tm.oracle_ms.
    """
    setup = {"ms": {}, "n": {}}
    ops = {"ms": {}, "n": {}}

    def add(acc, key, value):
        acc[key] = acc.get(key, 0) + value

    op_total = 0.0
    max_value_size = 0
    oracle_s = 0.0
    stab = {}  # stabilization span index -> outputs of its runs
    for s in spans:
        phase = s[PHASE]
        if phase == "check":
            if s[FUNC] == "tm_run":
                oracle_s += s[T1] - s[T0]
            continue
        acc = setup if phase == "setup" else ops
        layer, func, info = s[LAYER], s[FUNC], s[INFO]
        dur = s[T1] - s[T0]
        if layer == "bench":
            op_total += dur
        add(acc["ms"], layer, self_time(s))
        add(acc["n"], func, 1)
        if func == "tokenize":
            add(acc["n"], "tokens", info)
        elif func == "pretty_print":
            add(acc["n"], "bytes", info)
        elif func in ("compile_tm", "normalize_simple", "stabilization_search",
                      "bounded_equiv", "poly_check"):
            add(acc["ms"], func, dur)
        elif func == "check_program" and parent_func(spans, s) == "poly_check":
            add(acc["n"], "rounds", 1)
        elif func == "run_program":
            mode = "cost" if info["cost"] else "plain"
            add(acc["ms"], mode, dur)
            add(acc["n"], mode + "_steps", info["ic"])
            max_value_size = max(max_value_size, info["mvs"])
            parent = parent_func(spans, s)
            if parent == "bounded_equiv":
                add(acc["n"], "equiv_runs", 1)
            elif parent == "stabilization_search":
                add(acc["n"], "stab_runs", 1)
                stab.setdefault(s[PARENT], []).append(info["out"])

    def ms(key):
        return 1000 * (setup["ms"].get(key, 0) + ops["ms"].get(key, 0) / passes)

    def n(key):
        return setup["n"].get(key, 0) + ops["n"].get(key, 0) / passes

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def share(layer):
        return ops["ms"].get(layer, 0) / op_total if op_total > 0 else 0.0

    # a stabilization search's first run computes the target; the runs after
    # it are budget trials, useful when they reproduce the target
    trials = useful = 0
    for outs in stab.values():
        trials += len(outs) - 1
        useful += sum(1 for o in outs[1:] if o == outs[0])

    runs = n("run_program")
    plain_s, cost_s = ms("plain") / 1000, ms("cost") / 1000
    lexer_s, parser_s = ms("lexer") / 1000, ms("parser") / 1000
    m = {
        "interp.ms": (ms("plain"), "ms"),
        "interp.cost_ms": (ms("cost"), "ms"),
        "interp.runs": (runs, "count"),
        "interp.runs_per_op": (
            ops["n"].get("run_program", 0) / ops["n"]["op"], "count"),
        "interp.ms_per_run": (
            1000 * (plain_s + cost_s) / runs if runs else 0.0, "ms"),
        "interp.steps": (n("plain_steps") + n("cost_steps"), "count"),
        "interp.steps_per_s": (rate(n("plain_steps"), plain_s), "1/s"),
        "interp.cost_steps_per_s": (rate(n("cost_steps"), cost_s), "1/s"),
        "interp.max_value_size": (max_value_size, "bits"),
        "lexer.ms": (ms("lexer"), "ms"),
        "lexer.tokens": (n("tokens"), "count"),
        "lexer.tokens_per_s": (rate(n("tokens"), lexer_s), "1/s"),
        "parser.ms": (ms("parser"), "ms"),
        "parser.tokens_per_s": (rate(n("tokens"), parser_s), "1/s"),
        "desugar.ms": (ms("desugar"), "ms"),
        "typecheck.ms": (ms("typecheck"), "ms"),
        "typecheck.calls": (n("check_program"), "count"),
        "printer.ms": (ms("printer"), "ms"),
        "printer.bytes": (n("bytes"), "bytes"),
        "tm.compile_ms": (ms("compile_tm"), "ms"),
        "tm.oracle_ms": (1000 * oracle_s / passes, "ms"),
        "transform.normalize_ms": (ms("normalize_simple"), "ms"),
        "transform.stab_ms": (ms("stabilization_search"), "ms"),
        "transform.stab_runs": (n("stab_runs"), "count"),
        "transform.stab_useful_ratio": (
            useful / trials if trials else 0.0, "ratio"),
        "transform.equiv_ms": (ms("bounded_equiv"), "ms"),
        "transform.equiv_runs": (n("equiv_runs"), "count"),
        "analysis.ms": (ms("poly_check"), "ms"),
        "analysis.rounds": (n("rounds"), "count"),
        "cli.self_ms": (ms("cli"), "ms"),
        "cli.calls": (n("main"), "count"),
    }
    for layer in list(LAYERS) + ["bench"]:
        m[f"{layer}.op_share"] = (share(layer), "ratio")
    return m
