"""Front-end golden digests: what `load_program` makes of a fixed set of
inputs, so that a change to the lexer or parser that alters any tree,
position, printed text or error shows up in `test_golden.py`.

Each input is stored as the hash of its source and a digest of its
outcome: the mode, the tree with every node's `pos`, and the
`pretty_print` text; or, for an input that fails, the error's class, text
and position.  Rewrite the file after an intended change with

    PYTHONPATH=src python tests/record_golden.py
"""

import hashlib
import json
import pathlib
import sys

import fuzzgen
from conftest import CORPUS, SUGARED, corpus_source

from polyc import load_program, pretty_print
from polyc.errors import PolycError
from polyc.tm import clock_program, compile_tm, parse_tm

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "frontend.json"

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


def main():
    GOLDEN.parent.mkdir(exist_ok=True)
    table = digests()
    lines = [f"{json.dumps(name)}: {json.dumps(table[name], sort_keys=True)}"
             for name in sorted(table)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
