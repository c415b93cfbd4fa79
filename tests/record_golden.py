"""Golden digests of the front end, the engine and the command line, so
that a change that alters any outcome shows up in `test_golden.py`.

frontend.json: what `load_program` makes of a fixed set of inputs.  Each
input is stored as the hash of its source and a digest of its outcome: the
mode, the tree with every node's `pos`, and the `pretty_print` text; or,
for an input that fails, the error's class, text and position.

engine.json: what `run_program` makes of fixed programs on fixed inputs.
Each program is stored as the hash of its source and one digest per
observation, a run in one mode on one input: the output, `ic`,
`max_value_size`, `rule_counts` and the array arguments after the run; or,
for a run that fails, the error's class, text and position.  A "partial"
observation digests a sweep of cost runs over every fuel up to the first
that completes: the steps and rule counts each run leaves on its `Interp`,
failed or not.

tokens.json: what `tokenize` makes of the corpus, of fixed lexer strings
and of seeded token edits of the corpus files: each input is stored as the
hash of its source and a digest of its (kind, lexeme, line, col) list, or,
for an input that fails, of the error's class, text and position.

cli.json: what `polyc` makes of fixed command lines, each run in a
directory holding a copy of the corpus and a few failing inputs, so that
every path it prints is relative.  Each command line is stored as the
digest of its exit code, stdout and stderr.

Rewrite the four files after an intended change with

    PYTHONPATH=src python tests/record_golden.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import shutil
import sys
import tempfile
from unittest import mock

import fuzzgen
from conftest import CORPUS, SUGARED, corpus_source

from polyc import VArray, check_program, format_value, load_program, \
    pretty_print, run_program
from polyc import cli
from polyc.ast import ArrayT, is_string_type
from polyc.errors import PolycError
from polyc.interp import Interp
from polyc.lexer import tokenize
from polyc.tm import clock_program, compile_tm, encode_input, parse_tm

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "frontend.json"
ENGINE = GOLDEN.parent / "engine.json"
TOKENS = GOLDEN.parent / "tokens.json"
CLI = GOLDEN.parent / "cli.json"

_MAIN = "// mode: {mode}\nint main(int x, int y) {{\n{body}\n    return x;\n}}\n"

# statements around the sugar forms that the parser lowers by itself, and
# their errors; each runs in extended mode unless its name says core
EDGE_CASES = {
    "init-as-branch": """
    if (x > 0) int a = x; else int b = 2*y;
    for (i < 3) int c = i+1;
    if (y > 0) { int d = 1, e; } else if (x < y) int f = 0;""",
    "nested-else-less-if": """
    if (x > 0) if (y > 0) x = 1;
    if (x > 1) if (y > 1) x = 2; else x = 3;
    if (x > 2) { if (y > 2) x = 4; } else x = 5;
    for (i < 2) if (x > i) for (j < 2) if (y > j) x++;""",
    "increment": """
    array<int> r;
    r = array(2);
    x++;
    r[x % 2]++;
    if (x > y) y++;""",
    "minus-scaled": "    x -= 1*y;",
    "plus-zero-scaled": "    x += 0*y;\n    y += 2*x+1;",
    "multi-declarator-branch": "    if (x > 0) int a = 1, b;",
    "mul-error-in-else": "    if (x > 0) x = x*y; else { int a = y*x; }",
    "mul-error-in-initializer": "    int a = 1;\n    int b = a*x;",
    "core-initializer": "    int a = 1;",
    "core-plus-assign": "    x += 1;",
    "core-minus-assign": "    x -= 2*y;",
    "core-increment": "    x++;",
    "core-else-less-if": "    if (x > 0) x = 1;",
    "core-declarators": "    int a, b;",
    "core-void": "    void f() { }",
}


def _hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def inputs():
    """(name, source) of every input, in a fixed order."""
    for path in sorted(CORPUS.glob("*.pc")):
        yield f"corpus/{path.name}", corpus_source(path.name)
    for d in (1, 2, 3):
        yield f"clock-{d}", pretty_print(clock_program(d))
    for name in ("bitflip.tm", "successor.tm"):
        machine = parse_tm(corpus_source(name), name=name)
        for d in (1, 2, 3):
            yield f"tm/{name}-{d}", pretty_print(compile_tm(machine, d))
    yield "sugared", SUGARED
    for name, body in EDGE_CASES.items():
        mode = "core" if name.startswith("core-") else "extended"
        yield f"edge/{name}", _MAIN.format(mode=mode, body=body)
    for seed in range(300):
        yield f"fuzz-{seed}", pretty_print(fuzzgen.gen_program(seed))


def outcome(source):
    """The digest of what `load_program` makes of `source`."""
    try:
        prog, mode = load_program(source)
    except PolycError as e:
        text = f"{type(e).__name__}|{e.label}|{e.message}|{e.pos!r}"
    else:
        text = f"{mode}|{prog!r}|{pretty_print(prog)}"
    return _hash(text)


def digests():
    return {name: {"source": _hash(src), "digest": outcome(src)}
            for name, src in inputs()}


# -- the tokens ---------------------------------------------------------------

# every token kind and lexical error, and the text skipped between tokens
LEXER_CASES = [
    "", " \t\r\n", "// only a comment", "x// comment\ny", "a\r\nb\n\n  c",
    "0", "007", "0b0", "0b1011", "0b", "0b2", "0b12", "12ab", "_x x_1 iint1",
    '"" "01" "a b"', '"unterminated', '"line\nbreak"', 'x "', "/ /",
    "&&||++ += -= == != <= >= + - * / % ! < > =", "==== =!= <<= >>= &|",
    "(){}[];,", "$", "x @ y", "a\tb\t$", "\u00e9t\u00e9", "\u0663", "x\u00b2",
    "if else for return size true false array string istring void break "
    "continue iint int bool", "int main(int x){\n\treturn x;\n}",
    "// a\n// b\n\tx // c", "x\n\n\n    \ty$",
]

# what a token edit puts at a token: tokens, errors and skipped text
_SNIPPETS = ["", " ", "\n", "\t", "// c\n", "$", '"', '"s"', "0b", "0b1",
             "9", "x", "==", "=", "&&", "\u00e9"]
_MUTANTS = 16  # per corpus file


def token_mutants(name, source):
    """Seeded token edits of source: a snippet in place of, or before, a
    token, found by a pattern of its own so the inputs do not depend on the
    lexer under test."""
    rng = random.Random(name)
    spans = [m.span() for m in re.finditer(r"\w+|[^\w\s]", source)]
    for k in range(_MUTANTS):
        start, end = rng.choice(spans)
        end = end if rng.random() < 0.5 else start
        yield f"mutant/{name}/{k}", source[:start] + rng.choice(_SNIPPETS) + source[end:]


def token_inputs():
    """(name, source) of every tokenize input, in a fixed order."""
    for path in sorted(CORPUS.glob("*.pc")):
        yield f"corpus/{path.name}", corpus_source(path.name)
    for k, source in enumerate(LEXER_CASES):
        yield f"lex/{k}", source
    for path in sorted(CORPUS.glob("*.pc")):
        yield from token_mutants(path.name, corpus_source(path.name))


def token_outcome(source):
    try:
        text = repr(tokenize(source))
    except PolycError as e:
        text = f"{type(e).__name__}|{e.message}|{e.pos!r}"
    return _hash(text)


def token_digests():
    return {name: {"source": _hash(src), "digest": token_outcome(src)}
            for name, src in token_inputs()}


# -- the engine ---------------------------------------------------------------

_EXT = "// mode: extended\n"

# small programs for what the corpus and the generated programs do not reach:
# runtime errors and their positions, calls, aliasing, `&&`/`||` around impure
# operands and unchecked programs (a name starting with "unchecked-")
ENGINE_CASES = {
    "index": (_EXT + "int main(int x){array<int> a; a=array(3); a[1]=x; "
              "return a[x]+a[1];}", [[1], [3], [-1]]),
    "nested-write": (_EXT + "int main(int x){array<array<int>> a; a=array(2); "
                     "array<int> b; b=array(2); a[0]=b; a[0][x]=5; a[1][0]=x; "
                     "return b[1];}", [[1], [2]]),
    "string-index": (_EXT + 'int main(int x, istring s){int o; if(s[x]=="1")'
                     "{o=1;} else {o=2;} return o;}", [[0, "10"], [2, "10"]]),
    "array-length": (_EXT + "int main(int x, iint n){array<int> a; "
                     "a=array(x); array<bool> b; b=array(size(n)); "
                     "return size(n);}", [[2, 5], [-2, 5]]),
    "calls": (_EXT + "int main(int x, array<int> r){int k; k=x+1; "
              "int f(array<int> p, int a){p[0]=a+k; a=a+a; return a;} "
              "k=7; int g; g=f(r, x); int h; h=max(g, f(r, k)); "
              "return g+h+x+r[0];}", [[3, [0, 1]], [2 ** 40, [5]]]),
    "loops": (_EXT + "int main(iint n){int o; for(i<size(n)){ "
              "for(j<size(n)){ if(j>i){break;} else {} o=o+j; } "
              "if(i%2==0){continue;} else {} o=o+100; } return o;}",
              [[0], [5], [300]]),
    "short-circuit": (_EXT + "int main(int x){array<int> a; a=array(2); "
                      "bool f(int y){int z; z=y+y; return y>1;} bool b; "
                      "b=false&&f(x); b=b||true||f(x); b=x>2&&a[x]==0; "
                      "return x;}", [[1], [3]]),
    "unchecked-ctor": (_EXT + "int main(int x){array<int> a; a=array(x); "
                       "return x;}", [[2]]),
    "unchecked-break": (_EXT + "int main(int x){int f(int a){break; return a;} "
                        "return f(x);}", [[1]]),
    "unchecked-unbound": ("int main(int x){int o; o=x+y; return x;}", [[1]]),
    "unchecked-assign": ("int main(int x){o=x; return x;}", [[1]]),
    "unchecked-watch": ("int main(int x){iint z; z=x; int o; "
                        "for(i<size(z)){o=o+1; z=o;} return o;}", [[0], [5]]),
    # early exits at the first, a middle and the last position of a loop
    # body, a branch and a function body
    **{f"{kind}-in-loop": (_EXT + f"int main(int x){{int o; for(i<3){{{kind}; o=o+1; "
                           f"o=o+2;}} for(i<3){{o=o+1; {kind}; o=o+2;}} "
                           f"for(i<3){{o=o+1; o=o+2; {kind};}} return o;}}", [[0]])
       for kind in ("break", "continue")},
    **{f"{kind}-in-branch": (
        _EXT + f"int main(int x){{int o; for(i<4){{if(x==0&&i==1){{{kind}; o=o+1; "
        f"o=o+2;}} else {{}} if(x==1&&i==1){{o=o+1; {kind}; o=o+2;}} else {{}} "
        f"if(x==2&&i==1){{o=o+1; o=o+2; {kind};}} else {{}} o=o+10;}} return o;}}",
        [[0], [1], [2], [3]]) for kind in ("break", "continue")},
    "index-in-loop": (_EXT + "int main(int x){array<int> a; a=array(1); int o; "
                      "for(i<2){o=a[min(x/100, i)]; o=o+i; o=a[min(x/10%10, i)]; o=o+i; "
                      "o=a[min(x%10, i)];} return o;}", [[0], [1], [10], [100]]),
    "index-in-branch": (_EXT + "int main(int x){array<int> a; a=array(1); "
                        "int o; if(x>=0){o=a[x/100]; o=o+1; o=a[x/10%10]; "
                        "o=o+1; o=a[x%10];} else {} return o;}",
                        [[0], [1], [10], [100]]),
    "index-in-function": (_EXT + "int main(int x){array<int> a; a=array(1); "
                          "int f(int y){int z; z=a[y/100]; z=z+1; "
                          "z=a[y/10%10]; z=z+1; z=a[y%10]; return z;} int o; "
                          "o=f(x); return o;}", [[0], [1], [10], [100]]),
    "unchecked-exit-in-function": (
        _EXT + "int main(int x){int f(int a){break; a=a+1; return a;} "
        "int g(int a){a=a+1; continue; a=a+2; return a;} "
        "int h(int a){a=a+1; a=a+2; break; return a;} int o; "
        "if(x==0){o=f(x);} else {} if(x==1){o=g(x);} else {} "
        "if(x==2){o=h(x);} else {} return o;}", [[0], [1], [2]]),
}


def _run(prog, mode, args, **options):
    """The digest of one run: its report and the array arguments after it,
    or the error's class, text and position."""
    try:
        rep = run_program(prog, args, mode=mode, **options)
    except PolycError as e:
        text = f"{type(e).__name__}|{e.message}|{e.pos!r}"
    else:
        arrays = [format_value(a) for a in args if isinstance(a, VArray)]
        text = (f"{format_value(rep.output)}|{rep.ic}|{rep.max_value_size}|"
                f"{sorted(rep.rule_counts.items())}|{arrays}")
    return _hash(text)


_SWEEP_MAX = 200  # the largest fuel of a sweep


def _sweep(prog, raw, watch=None):
    """The digest of cost runs at every fuel from 0 up to the first that
    does not run out, at most _SWEEP_MAX, each taken through `Interp`: the
    steps and rule counts a run leaves, and its output or error."""
    texts = []
    for fuel in range(_SWEEP_MAX + 1):
        it = Interp(cost_mode=True, fuel=fuel, watch=watch)
        try:
            end = format_value(it.run(prog, _arguments(prog, raw)).output)
        except PolycError as e:
            end = f"{type(e).__name__}|{e.message}|{e.pos!r}"
        texts.append(f"{fuel}|{it.steps}|{sorted(it.rule_counts.items())}|{end}")
        if not end.startswith("FuelExhausted|"):
            break
    return _hash("\n".join(texts))


def _arguments(prog, raw):
    """Fresh argument values, so that no run sees another's array writes."""
    return [VArray(list(v), t.elem) if isinstance(t, ArrayT) else v
            for (t, _), v in zip(prog.params, raw)]


def _corpus_args(prog, rng):
    """Random values of the program's parameter types, small enough that
    loops budgeted by them stay short and at times out of an index range."""
    raw = []
    for t, _ in prog.params:
        if isinstance(t, ArrayT):
            raw.append([rng.randrange(-9, 9) for _ in range(rng.randrange(6))])
        elif is_string_type(t):
            raw.append("".join(rng.choice("01") for _ in range(rng.randrange(10))))
        else:
            raw.append(rng.choice([rng.randrange(-3, 40), 2 ** 70 + 5,
                                   rng.randrange(1 << 12)]))
    return raw


def _words(n):
    return ["".join(b) for k in range(n + 1) for b in itertools.product("01", repeat=k)]


def engine_programs():
    """(name, source, program, mode, runs) of every program, in a fixed
    order; runs holds (observation, raw arguments, options) triples."""
    for path in sorted(CORPUS.glob("*.pc")):
        src = corpus_source(path.name)
        prog, mode = load_program(src)
        check_program(prog, mode)
        rng = random.Random(path.name)
        runs = []
        for k in range(8):
            raw = _corpus_args(prog, rng)
            runs += [(f"plain/{k}", raw, {}), (f"cost/{k}", raw, {"cost_mode": True})]
        runs.append(("partial/0", runs[0][1], {"sweep": True}))
        yield f"corpus/{path.name}", src, prog, mode, runs
    for name in ("bitflip.tm", "successor.tm"):
        machine = parse_tm(corpus_source(name), name=name)
        for d in (1, 2, 3):
            src = pretty_print(compile_tm(machine, d))
            prog, mode = load_program(src)
            check_program(prog, mode)
            runs = [(f"plain/{w or '-'}", [encode_input(w)], {})
                    for w in _words(7 if d < 3 else 4)]
            runs += [(f"cost/{w or '-'}", [encode_input(w)], {"cost_mode": True})
                     for w in _words(4)]
            yield f"tm/{name}-{d}", src, prog, mode, runs
    for name, (src, arg_lists) in ENGINE_CASES.items():
        prog, mode = load_program(src)
        if not name.startswith("unchecked-"):
            check_program(prog, mode)
        watch = fuzzgen.watch_sets(prog)
        runs = []
        for k, raw in enumerate(arg_lists):
            runs += [(f"plain/{k}", raw, {"watch": watch}),
                     (f"cost/{k}", raw, {"cost_mode": True, "watch": watch}),
                     (f"fuel-5/{k}", raw, {"fuel": 5, "watch": watch}),
                     (f"partial/{k}", raw, {"sweep": True, "watch": watch})]
        yield f"case/{name}", src, prog, mode, runs
    for seed in range(1000):
        prog = fuzzgen.gen_program(seed)
        rng = random.Random(seed)
        raw = [rng.randrange(-2 ** 12, 2 ** 12) for _ in prog.params]
        watch = fuzzgen.watch_sets(prog)
        runs = [("plain", raw, {"watch": watch}),
                ("cost", raw, {"cost_mode": True, "watch": watch})]
        runs += [(f"fuel-{f}", raw, {"fuel": f, "watch": watch}) for f in (0, 7, 40)]
        yield f"fuzz-{seed}", pretty_print(prog), prog, "core", runs


def engine_digests():
    return {name: {"source": _hash(src), **{
        obs: _sweep(prog, raw, options.get("watch")) if "sweep" in options
        else _run(prog, mode, _arguments(prog, raw), **options)
        for obs, raw, options in runs}}
        for name, src, prog, mode, runs in engine_programs()}


# -- the command line ---------------------------------------------------------

# the arguments each corpus program runs on; the others take "6 7"
CORPUS_ARGS = {
    "branchy.pc": ["9"], "identity.pc": ["9"], "single_step.pc": ["9"],
    "knapsack.pc": ["[1,2,2,3,1]", "[1,2,3,4,5]", "0b11111", "0b11111"],
    "path.pc": ["3", "0", "2", '"010001000"'],
    "sort.pc": ["[3,-1,2]", "0b111"],
}

# the inputs that fail, in cases/ beside the corpus
CASES = {
    "lexical.pc": b"int main(int x){ return x $ 1; }\n",
    "syntax.pc": b"int main(int x){ return x }\n",
    "core.pc": b"// mode: core\nint main(int x){ x += 1; return x; }\n",
    "desugar.pc": b"// mode: extended\nint main(int x){ int a = 1; "
                  b"int b = a*x; return b; }\n",
    "runtime.pc": b"// mode: extended\nint main(int x){ array<int> a; "
                  b"a = array(2); return a[x]; }\n",
    "ill-typed.pc": b"int main(int x){ bool b; b = x; return x; }\n",
    "latin1.pc": b"int main(int x){ return x; } // \xff\n",
    "bad.tm": b"states: x\n",
}


def cli_lines():
    """(environment, argv) of every command line, in a fixed order: each
    command on each corpus file, then one line for each way to fail."""
    for path in sorted(CORPUS.glob("*.pc")):
        f = f"corpus/{path.name}"
        args = CORPUS_ARGS.get(path.name, ["6", "7"])
        for argv in (
                ["run", f, *args], ["run", f, *args, "--cost"],
                ["cost", f, *args, "--json"], ["check", f],
                ["check", f, "--json"], ["transform", "t1", f],
                ["transform", "t2", f], ["transform", "normalize", f],
                ["analyze", f], ["equiv", f, f, "1"]):
            yield {}, argv
    for d in (1, 2, 3):
        yield {}, ["clock", str(d)]
    for name in ("bitflip.tm", "successor.tm"):
        yield {}, ["compile-tm", f"corpus/{name}"]
    fastmul, identity = "corpus/fastmul.pc", "corpus/identity.pc"
    for name in ("lexical", "syntax", "core", "desugar", "latin1"):
        yield {}, ["run", f"cases/{name}.pc", "1"]
    yield {}, ["equiv", "cases/syntax.pc", identity, "1"]
    yield {}, ["equiv", identity, "cases/desugar.pc", "1"]
    yield {}, ["run", "cases/runtime.pc", "5"]
    yield {}, ["equiv", "cases/runtime.pc", identity, "1"]
    yield {}, ["equiv", identity, "cases/runtime.pc", "1"]
    yield {"POLYC_FUEL": "1"}, ["run", fastmul, "6", "7"]
    yield {"POLYC_FUEL": "1"}, ["cost", fastmul, "6", "7", "--json"]
    yield {"POLYC_FUEL": "1"}, ["equiv", fastmul, fastmul, "1"]
    yield {"POLYC_FUEL": "1_0"}, ["run", fastmul, "6", "7"]
    yield {}, ["run", fastmul, "6"]
    yield {}, ["run", fastmul, "6", "seven"]
    yield {}, ["run", "cases/missing.pc", "1"]
    yield {}, ["clock", "0"]
    yield {}, ["compile-tm", "corpus/bitflip.tm", "--degree", "0"]
    yield {}, ["equiv", fastmul, fastmul, "-1"]
    yield {}, ["equiv", fastmul, identity, "1"]
    yield {}, ["compile-tm", "cases/bad.tm"]
    yield {}, ["analyze", "cases/ill-typed.pc"]


def _cli(env, argv):
    """The digest of one command line: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        if "POLYC_FUEL" not in env:
            os.environ.pop("POLYC_FUEL", None)
        code = cli.main(argv)
    return _hash(f"{code}|{out.getvalue()}|{err.getvalue()}")


def cli_digests():
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(CORPUS, pathlib.Path(tmp, "corpus"))
        pathlib.Path(tmp, "cases").mkdir()
        for name, data in CASES.items():
            pathlib.Path(tmp, "cases", name).write_bytes(data)
        os.chdir(tmp)
        try:
            return {" ".join([*(f"{k}={v}" for k, v in env.items()), *argv]):
                    _cli(env, argv) for env, argv in cli_lines()}
        finally:
            os.chdir(here)


def _write(path, table):
    lines = [f"{json.dumps(name)}: {json.dumps(table[name], sort_keys=True)}"
             for name in sorted(table)]
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} entries to {path}", file=sys.stderr)


def main():
    GOLDEN.parent.mkdir(exist_ok=True)
    _write(GOLDEN, digests())
    _write(TOKENS, token_digests())
    _write(ENGINE, engine_digests())
    _write(CLI, cli_digests())


if __name__ == "__main__":
    main()
