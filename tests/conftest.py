import pathlib

import pytest

from polyc import check_program, load_program, parse_source, pretty_print

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# every sugar form, in blocks, branches, a loop and a function
SUGARED = """// mode: extended
int main(int x, int y) {
    int a = 2*x;
    array<int> r;
    r = array(3);
    r[0] += y;
    void f(array<int> p) { p[1]++; }
    f(r);
    for (i < 3) { if (x > i) int b = x*3; a -= (y+1); }
    if (y < 2) { a++; }
    if (x == y) { a = y; } else { a = a+x*2; }
    return a + 0b10*y - r[0];
}
"""


# the core corpus programs the normalizer accepts, with inputs
NORMALIZE_CASES = [
    ("fastmul.pc", [(6, 7), (3, 1), (0, 0), (123, 456), (31, 17)]),
    ("double_loop.pc", [(3, 5), (0, 0), (7, 1), (100, 100), (2, 63)]),
    ("single_step.pc", [(0,), (5,), (-3,), (100,), (2 ** 20,)]),
    ("identity.pc", [(0,), (7,), (-7,), (123456,), (-1,)]),
    ("sum_counters.pc", [(6, 7), (0, 0), (255, 1), (9, 9), (1, 0)]),
    ("branchy.pc", [(9,), (-9,), (0,), (1,), (255,)]),
]


def corpus_source(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def load(name):
    """Parse and mode-detect a corpus program."""
    return load_program(corpus_source(name))


def load_checked(name):
    prog, mode = load(name)
    res = check_program(prog, mode)
    assert res.ok, [d.render(name) for d in res.errors]
    return prog, mode


def compile_src(src, mode="core"):
    return parse_source(src, mode)


def load_printed(tree):
    """What `load_program` makes of a generated tree's printed text: the
    code generators still write `m*a`, which the parser lowers."""
    return load_program(pretty_print(tree))[0]


def doubling_calls(k):
    """A program of k+1 functions, each but the first calling the previous
    one twice, so that expanding its one call copies 2**k bodies."""
    funs = ["int f0(int a){return a+1;}"] + [
        f"int f{j}(int a){{return f{j - 1}(f{j - 1}(a));}}"
        for j in range(1, k + 1)]
    return ("// mode: extended\nint main(int x){" + "".join(funs)
            + f" return f{k}(x);}}\n")


def call_chain(k):
    """A program of k functions, each passing its parameter to the previous
    one, the last fed a variable that a loop assigns: a demotion travels the
    whole chain, one function per round of the old demote-and-recheck."""
    funs = ["int f0(int a){return a;}"] + [
        f"int f{j}(int a){{return f{j - 1}(a);}}" for j in range(1, k)]
    return ("// mode: extended\nint main(int x){" + "".join(funs)
            + f" int o; o=0; for(i<size(x)){{ o=f{k - 1}(o); }} return o;}}\n")


@pytest.fixture
def fastmul():
    return load_checked("fastmul.pc")[0]
