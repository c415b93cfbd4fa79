"""The benchmark's four workloads.

Each workload turns a seed into a fixed list of ops.  An op is one
user-level request: ``run()`` performs it and returns its output, and
``check(output)`` returns True when the output is right.  Checks call
oracles that do not share code with the stage under test, and the driver
runs them outside the timed span.

Inputs are drawn in fixed size classes with a fixed count per class, so the
work in one pass over the ops hardly depends on the seed; the seed picks
which inputs of each class are used.
"""

import contextlib
import io
import itertools
import json
import pathlib
import random
from dataclasses import dataclass
from typing import Callable

from polyc import (
    check_program, desugar, load_program, parse_source, pretty_print,
    run_program,
)
from polyc.analysis import erase_annotations, poly_check
from polyc.ast import ArrayT
from polyc.cli import main as cli_main
from polyc.parser import detect_mode
from polyc.tm import (
    compile_tm, decode_output, encode_input, parse_tm, tm_run,
)
from polyc.transform import (
    normalize_simple, simple_form_shape_ok, stabilization_search,
)
from polyc.values import VArray, size_of_value

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
CORPUS = ROOT / "corpus"
COSTS_FILE = BENCH / "costs.json"

MACHINES = ("bitflip.tm", "successor.tm")
BADMUL_KINDS = {"iterable-assignment-in-loop", "non-iterable-loop-bound"}
# core corpus programs criterion 10 normalizes; the extended ones use array
# constructors, which the normalizer rejects
NORMALIZABLE = ("fastmul.pc", "double_loop.pc", "single_step.pc",
                "identity.pc", "sum_counters.pc", "branchy.pc")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def read_corpus(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def load_checked(source):
    """The CLI's order: load, then type-check, then (later) run."""
    prog, mode = load_program(source)
    res = check_program(prog, mode)
    if not res.ok:
        raise ValueError(f"benchmark input is ill-typed: {res.errors[0].message}")
    return prog, mode


def load_costs():
    """Inputs of corpus-cost with the costs recorded for them (see
    record_costs.py)."""
    return json.loads(COSTS_FILE.read_text(encoding="utf-8"))


def pick(rng, entries, per_class):
    """``per_class[c]`` entries of size class c, for every class, in class
    order."""
    out = []
    for cls, count in enumerate(per_class):
        out.extend(rng.sample([e for e in entries if e["cls"] == cls], count))
    return out


def program_args(prog, raw):
    """JSON arguments to runtime values; arrays are rebuilt on every call
    because programs such as sort.pc mutate them."""
    return [VArray(list(v), t.elem) if isinstance(t, ArrayT) else v
            for (t, _), v in zip(prog.params, raw)]


# ---------------------------------------------------------------------------
# Python oracles


def knapsack_oracle(ws, vs, cap):
    best = 0
    for mask in range(1 << len(ws)):
        tw = sum(w for i, w in enumerate(ws) if mask >> i & 1)
        tv = sum(v for i, v in enumerate(vs) if mask >> i & 1)
        if tw <= cap and tv > best:
            best = tv
    return best


def reachable_oracle(n, adj, s, t):
    seen = {s}
    frontier = [s]
    while frontier:
        u = frontier.pop()
        for j in range(n):
            if adj[u * n + j] == "1" and j not in seen:
                seen.add(j)
                frontier.append(j)
    return 1 if t in seen else 0


def output_oracle(program, raw):
    """Expected output of a corpus-cost program, from Python."""
    if program == "fastmul.pc":
        return raw[0] * raw[1]
    if program == "sort.pc":
        return sorted(raw[0])
    if program == "knapsack.pc":
        ws, vs, cap, _ = raw
        return knapsack_oracle(ws, vs, cap.bit_length())
    if program == "path.pc":
        m, s, t, adj = raw
        return reachable_oracle(m, adj, s, t)
    raise KeyError(program)


def clock_law(d, v):
    return 2 ** (d * size_of_value(v) ** d - 1)


def double_loop_oracle(x, y):
    return x * 2 ** size_of_value(y) + y


def sum_counters_oracle(x, y):
    n = size_of_value(x + y)
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# tm-sim: compiled Turing machines in plain mode

# every word up to this length is an op, whatever the seed.  These words
# are the faster half of the op list, so op_ms_p50 falls among ops that are
# the same in every run; it would jump from run to run if it fell on the
# edge between two seeded ops of different length and content
ALL_WORDS_UP_TO = 3
# one seeded word of each of these lengths per machine
SEEDED_LENGTHS = range(ALL_WORDS_UP_TO + 1, 8)


def tm_words(rng):
    words = [
        "".join(bits) for n in range(ALL_WORDS_UP_TO + 1)
        for bits in itertools.product("01", repeat=n)]
    return words + ["".join(rng.choice("01") for _ in range(n))
                    for n in SEEDED_LENGTHS]


def tm_sim(seed):
    """Compiled bitflip.tm and successor.tm (degree 2) on binary words of
    length up to 7: every word of length up to 3 and one seeded word of each
    length 4 to 7, for each machine."""
    rng = random.Random(seed)
    ops = []
    for name in MACHINES:
        machine = parse_tm(read_corpus(name), name=name)
        # a user compiles the machine to source and runs that source
        prog, mode = load_checked(pretty_print(compile_tm(machine, 2)))
        for w in tm_words(rng):
            ops.append(Op(
                f"{name}:{w or '-'}",
                lambda p=prog, m=mode, x=encode_input(w):
                    run_program(p, [x], mode=m).output,
                lambda out, mc=machine, w=w:
                    decode_output(out) == tm_run(mc, w)))
    return ops


# ---------------------------------------------------------------------------
# corpus-cost: corpus programs in cost mode

# inputs per size class 0..3.  The cost of a path.pc input varies
# widely within its class, and op_ms_p50 falls among such inputs; many
# inputs per class keep the share of them on each side of it steady
COST_PER_CLASS = (6, 6, 10, 10)


def corpus_cost(seed):
    """fastmul, sort, knapsack and path in cost mode on recorded inputs:
    six from each of the two smaller size classes and ten from each of the
    two larger ones, per program."""
    rng = random.Random(seed)
    pool = load_costs()
    ops = []
    for program in sorted(pool):
        prog, mode = load_checked(read_corpus(program))
        for e in pick(rng, pool[program], COST_PER_CLASS):
            ops.append(Op(
                f"{program}:{e['cls']}:{e['id']}",
                lambda p=prog, m=mode, e=e: cost_run(p, m, e["args"]),
                lambda got, program=program, e=e:
                    check_cost(program, e, got)))
    return ops


def cost_run(prog, mode, raw):
    args = program_args(prog, raw)
    rep = run_program(prog, args, cost_mode=True, mode=mode)
    return rep, args


def check_cost(program, entry, got):
    rep, args = got
    out = args[0].items if program == "sort.pc" else rep.output
    return (out == output_oracle(program, entry["args"])
            and rep.ic == entry["ic"]
            and rep.max_value_size == entry["max_value_size"]
            and rep.rule_counts == entry["rule_counts"])


# ---------------------------------------------------------------------------
# frontend: lex, parse, desugar, check and print, no execution

# (declarations, programs); the largest class holds more than 5% of the
# sources, so op_ms_p95 falls inside it
STRAIGHT_LINE = ((50, 2), (100, 2), (200, 2), (400, 2))


def straight_line_source(n, rng):
    """A well-typed core program of n declarations, each followed by one
    assignment from earlier variables.  The declarations' kinds repeat in a
    fixed cycle, so every program of n declarations has the same shape and
    about the same cost to check; the seed picks the operands."""
    lines = ["int main(int x,int y){"]
    names = ["x", "y"]
    for i in range(n):
        a, b = rng.choice(names), rng.choice(names)
        v = f"v{i}"
        kind = i % 4
        if kind == 0:
            lines += [f"    int {v};", f"    {v}={a}+{b};"]
        elif kind == 1:
            lines += [f"    int {v};", f"    {v}={a}-{rng.randrange(100)};"]
        elif kind == 2:
            lines += [f"    iint {v};", f"    {v}={a}/2+{b}%3;"]
        else:
            lines += [f"    bool {v};", f"    {v}={a}<{b}&&!({a}=={b});"]
        if kind != 3:
            names.append(v)
    lines += [f"    return {names[-1]};", "}"]
    return "\n".join(lines) + "\n"


def frontend(seed):
    """The .pc corpus, compiled TMs for d = 1..3, the normalized core corpus
    and seeded straight-line programs of 50 to 400 declarations."""
    rng = random.Random(seed)
    sources = []  # (name, text, expected diagnostic kinds; empty = ok)
    for path in sorted(CORPUS.glob("*.pc")):
        kinds = BADMUL_KINDS if path.name == "badmul.pc" else set()
        sources.append((path.name, read_corpus(path.name), kinds))
    for name in MACHINES:
        machine = parse_tm(read_corpus(name), name=name)
        for d in (1, 2, 3):
            text = pretty_print(compile_tm(machine, d))
            sources.append((f"{name}:d{d}", text, set()))
    for name in NORMALIZABLE:
        prog, mode = load_checked(read_corpus(name))
        sf = normalize_simple(prog, mode)
        sources.append((f"normalized:{name}",
                        pretty_print(sf.program, mode_marker="extended"),
                        set()))
    for n, count in STRAIGHT_LINE:
        for k in range(count):
            sources.append((f"straight:{n}:{k}",
                            straight_line_source(n, rng), set()))
    return [Op(name, lambda t=text: front_end(t),
               lambda got, kinds=kinds, seen=[]:
                   check_front_end(got, kinds, seen))
            for name, text, kinds in sources]


def front_end(source):
    mode = detect_mode(source)
    prog = desugar(parse_source(source, mode))
    res = check_program(prog, mode)
    marker = "extended" if mode == "extended" else None
    return mode, prog, res, pretty_print(prog, mode_marker=marker)


def check_front_end(got, kinds, seen):
    """Verdict as expected, and the printed text re-parses to the same AST.
    ``seen`` holds the last printed text that passed; the same text again
    needs no second re-parse, which would cost as much as the op itself.
    Only the text is kept: a kept AST would make every later garbage
    collection slower."""
    mode, prog, res, text = got
    if {d.kind for d in res.errors} != kinds:
        return False
    if seen and seen[0] == (mode, text):
        return True
    if detect_mode(text) != mode or parse_source(text, mode) != prog:
        return False
    seen[:] = [(mode, text)]
    return True


# ---------------------------------------------------------------------------
# toolchain: many short requests through the CLI and the library

EQUIV_BOUND = 4


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def corpus_path(name):
    return str(CORPUS / name)


def toolchain(seed):
    """The README's CLI commands, criterion 10's normalize + stabilization
    cases and criterion 11's verdicts, with seeded arguments."""
    rng = random.Random(seed)
    pool = load_costs()
    ops = []

    def add(name, run, check):
        ops.append(Op(name, run, check))

    def expect(code, out):
        return lambda got: got[0] == code and got[1] == out

    fm = rng.choice([e for e in pool["fastmul.pc"] if e["cls"] == 1])
    x, y = fm["args"]
    fmul = corpus_path("fastmul.pc")
    add("run fastmul", lambda: cli("run", fmul, x, y), expect(0, f"{x * y}\n"))
    add("run fastmul --cost", lambda: cli("run", fmul, x, y, "--cost"),
        expect(0, f"{x * y}\nic: {fm['ic']}\n"
                  f"max value size: {fm['max_value_size']}\n"))
    add("cost fastmul --json", lambda: cli("cost", fmul, x, y, "--json"),
        lambda got: got[0] == 0 and json.loads(got[1]) == {
            "output": str(x * y), "ic": fm["ic"],
            "max_value_size": fm["max_value_size"]})
    add("check fastmul", lambda: cli("check", fmul),
        expect(0, "well-typed: int\n"))
    add("check badmul", lambda: cli("check", corpus_path("badmul.pc")),
        lambda got: got[0] == 1 and got[1] == ""
        and all(k in got[2] for k in BADMUL_KINDS))

    ks = rng.choice([e for e in pool["knapsack.pc"] if e["cls"] == 1])
    ws, vs, cap, items = ks["args"]
    add("run knapsack",
        lambda: cli("run", corpus_path("knapsack.pc"), json.dumps(ws),
                    json.dumps(vs), bin(cap), bin(items)),
        expect(0, f"{output_oracle('knapsack.pc', ks['args'])}\n"))
    pt = rng.choice([e for e in pool["path.pc"] if e["cls"] == 1])
    m, s, t, adj = pt["args"]
    add("run path",
        lambda: cli("run", corpus_path("path.pc"), m, s, t, f'"{adj}"'),
        expect(0, f"{output_oracle('path.pc', pt['args'])}\n"))

    for d in (1, 2, 3):
        v = rng.randrange(1, 64)
        add(f"clock {d}", lambda d=d: cli("clock", d),
            lambda got, d=d, v=v: got[0] == 0
            and run_source(got[1], [v]) == clock_law(d, v))
    for name in MACHINES:
        w = "".join(rng.choice("01") for _ in range(rng.randrange(6)))
        machine = parse_tm(read_corpus(name), name=name)
        add(f"compile-tm {name}",
            lambda name=name: cli("compile-tm", corpus_path(name),
                                  "--degree", 2),
            lambda got, w=w, mc=machine: got[0] == 0
            and decode_output(run_source(got[1], [encode_input(w)]))
            == tm_run(mc, w))

    tx, ty = rng.randrange(1, 256), rng.randrange(1, 256)
    for name in ("fastmul.pc", "double_loop.pc"):
        add(f"transform t1 {name}",
            lambda name=name: cli("transform", "t1", corpus_path(name)),
            lambda got: got[0] == 0 and t1_claim(got[1], [tx, ty]))
    # the step-count tracker declares z inside a block and assigns it in the
    # next one, so its output runs unchecked, as criterion 9 runs it
    add("transform t2 double_loop",
        lambda: cli("transform", "t2", corpus_path("double_loop.pc")),
        lambda got: got[0] == 0 and run_program(
            load_program(got[1])[0], [tx, ty]).output
        == double_loop_oracle(tx, ty))
    add("transform normalize fastmul",
        lambda: cli("transform", "normalize", fmul),
        lambda got: got[0] == 0 and got[2].startswith("// budget variable")
        and normalized_claim(got[1], [tx, ty], tx * ty))
    add("analyze fastmul", lambda: cli("analyze", fmul),
        lambda got: got[0] == 0 and got[1].startswith("poly\n")
        and check_program(*load_program(got[1][5:])).ok)
    add("analyze badmul", lambda: cli("analyze", corpus_path("badmul.pc")),
        expect(0, "unknown\n"))
    add("equiv fastmul fastmul",
        lambda: cli("equiv", fmul, fmul, EQUIV_BOUND), expect(0, "true\n"))
    witness = next(
        (a, b) for a, b in itertools.product(
            range(-EQUIV_BOUND, EQUIV_BOUND + 1), repeat=2)
        if double_loop_oracle(a, b) != sum_counters_oracle(a, b))
    add("equiv double_loop sum_counters",
        lambda: cli("equiv", corpus_path("double_loop.pc"),
                    corpus_path("sum_counters.pc"), EQUIV_BOUND),
        expect(0, f"false\nwitness: {witness[0]} {witness[1]}\n"))

    for name in NORMALIZABLE:
        prog, mode = load_checked(read_corpus(name))
        args = [rng.randrange(64, 256) for _ in prog.params]
        add(f"normalize+stabilize {name}",
            lambda p=prog, m=mode, a=args: normalize_and_stabilize(p, m, a),
            lambda got, p=prog, m=mode, a=args:
                check_normalized(got, p, m, a))

    # criterion 11: the witness for fastmul makes exactly z iterable
    for name, verdict, iterable in (
            ("fastmul.pc", "poly", {"z"}), ("badmul.pc", "unknown", None),
            ("double_loop.pc", "poly", None), ("sum_counters.pc", "poly", None),
            ("branchy.pc", "poly", None)):
        prog, _ = load_program(read_corpus(name))
        erased = erase_annotations(prog)
        add(f"poly_check {name}", lambda p=erased: poly_check(p),
            lambda got, verdict=verdict, iterable=iterable:
                check_verdict(got, verdict, iterable))
    return ops


def run_source(text, args):
    prog, mode = load_checked(text)
    return run_program(prog, args, mode=mode).output


def t1_claim(text, args):
    """Criterion 9: the max-value tracker returns a value whose size is the
    run's maximum value size."""
    prog, mode = load_checked(text)
    rep = run_program(prog, args, cost_mode=True, mode=mode)
    return size_of_value(rep.output) == rep.max_value_size


def normalized_claim(text, args, want):
    """Criterion 10 on CLI output: some budget reproduces the original
    output and stays stable at twice that budget."""
    prog, _ = load_checked(text)
    t = 1
    while t <= 1 << 20:
        if all(run_program(prog, args + [b], mode="extended").output == want
               for b in (t, 2 * t)):
            return True
        t *= 2
    return False


def normalize_and_stabilize(prog, mode, args):
    sf = normalize_simple(prog, mode)
    return sf, stabilization_search(sf, prog, list(args), mode=mode)


def check_normalized(got, prog, mode, args):
    sf, t_star = got
    if not simple_form_shape_ok(sf) or not check_program(
            sf.program, "extended").ok:
        return False
    want = run_program(prog, list(args), mode=mode).output
    return run_program(sf.program, list(args) + [t_star],
                       mode="extended").output == want


def check_verdict(got, verdict, iterable):
    if got.verdict != verdict:
        return False
    if iterable is not None and iterable != {
            site[1] for site in got.state.iterable_sites()
            if site[0] == "decl"}:
        return False
    return verdict != "poly" or check_program(got.witness, "extended").ok


WORKLOADS = {
    "tm-sim": tm_sim,
    "corpus-cost": corpus_cost,
    "frontend": frontend,
    "toolchain": toolchain,
}
