"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time and asserting the stated budget and tolerances."""

import itertools
import random
import time

import fuzzgen
import pytest

from conftest import CORPUS, compile_src, load_checked, load_printed

from polyc import check_program, parse_source, run_program
from polyc.ast import Block, For, If, INT
from polyc.interp import Interp
from polyc.tm import (
    clock_program, compile_tm, decode_output, encode_input, parse_tm, tm_run,
)
from polyc.transform import (
    normalize_simple, simple_form_shape_ok, stabilization_search,
    t1_max_tracker, t2_cost_tracker,
)
from polyc.analysis import erase_annotations, poly_check
from polyc.values import VArray, size_of_value


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.name}: {elapsed:.1f}s exceeds {self.seconds}s"
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        return False


def test_c01_cost_semantics_exactness():
    with Budget("criterion 1: cost exactness, 4n+6 and x=2^(n+1)", 1.0):
        prog = compile_src("int main(int z, int x){for(i<size(z)) x=x+x; "
                           "return 0;}")
        for n in range(1, 17):
            it = Interp(cost_mode=True)
            it.run(prog, [2 ** n, 1])
            assert it.steps - 1 == 4 * n + 6  # `return 0;` takes one step
            assert it.store["x"] == 2 ** (n + 1)


def test_c02_type_checker_discrimination():
    with Budget("criterion 2: accepts fast-mul, rejects its broken twin", 1.0):
        good, mode = load_checked("fastmul.pc")
        assert check_program(good, mode).ok
        from conftest import load

        bad, mode = load("badmul.pc")
        res = check_program(bad, mode)
        assert not res.ok
        kinds = {d.kind for d in res.errors}
        assert kinds == {"iterable-assignment-in-loop",
                         "non-iterable-loop-bound"}


def test_c03_fast_multiplication_correctness():
    with Budget("criterion 3: 200 random products up to 2^128", 5.0):
        prog, _ = load_checked("fastmul.pc")
        rng = random.Random(128)
        for _ in range(200):
            x = rng.randrange(1, 2 ** 128)
            y = rng.randrange(1, 2 ** 128)
            assert run_program(prog, [x, y]).output == x * y


def test_c04_tm_encoding_fixed_point():
    with Budget("criterion 4: ternary encoding worked example", 1.0):
        assert encode_input("10010") == 514
        assert decode_output(514) == "10010"


def test_c05_tm_differential_simulation():
    with Budget("criterion 5: compiled machines match the oracle, len<=8", 60.0):
        for name in ["bitflip.tm", "successor.tm"]:
            machine = parse_tm((CORPUS / name).read_text(), name=name)
            prog = load_printed(compile_tm(machine, 2))
            assert check_program(prog, "core").ok
            loop = prog.body[-1]
            assert isinstance(loop, For)
            guarded = [s for s in loop.body.stmts if isinstance(s, If)]
            assert len(guarded) <= 3 * machine.n_states
            for n in range(0, 9):
                for bits in itertools.product("01", repeat=n):
                    w = "".join(bits)
                    got = decode_output(
                        run_program(prog, [encode_input(w)]).output)
                    assert got == tm_run(machine, w), (name, w)


def test_c06_clock_law():
    with Budget("criterion 6: clock output has bit size d*size(v)^d", 30.0):
        for d in (1, 2, 3):
            prog = load_printed(clock_program(d))
            assert check_program(prog, "core").ok
            for v in range(1, 65):
                out = run_program(prog, [v]).output
                n = size_of_value(v)
                assert out == 2 ** (d * n ** d - 1), (d, v)
                assert size_of_value(out) == d * n ** d, (d, v)


def _knapsack_oracle(ws, vs, cap):
    best = 0
    for mask in range(1 << len(ws)):
        tw = sum(w for i, w in enumerate(ws) if mask >> i & 1)
        tv = sum(v for i, v in enumerate(vs) if mask >> i & 1)
        if tw <= cap and tv > best:
            best = tv
    return best


def _bfs_reachable(n, adj, s, t):
    seen = {s}
    frontier = [s]
    while frontier:
        u = frontier.pop()
        for j in range(n):
            if adj[u * n + j] == "1" and j not in seen:
                seen.add(j)
                frontier.append(j)
    return t in seen


def test_c07_paper_corpus_golden_outputs():
    with Budget("criterion 7: knapsack, reachability and sort vs oracles",
                60.0):
        # knapsack
        prog, mode = load_checked("knapsack.pc")
        ws, vs = [1, 2, 2, 3, 1], [1, 2, 3, 4, 5]
        out = run_program(prog, [VArray(list(ws), INT), VArray(list(vs), INT),
                                 0b11111, 0b11111], mode=mode).output
        assert out == 10
        assert _knapsack_oracle(ws, vs, 5) == 10

        # reachability: every digraph on up to 4 nodes, one (s,t) per graph,
        # then 50 random 6-node digraphs with random endpoints
        path, pmode = load_checked("path.pc")

        def check(n, adj, s, t):
            got = run_program(path, [n, s, t, adj], mode=pmode).output
            want = 1 if _bfs_reachable(n, adj, s, t) else 0
            assert got == want, (n, adj, s, t)

        for n in range(1, 5):
            for bits in itertools.product("01", repeat=n * n):
                check(n, "".join(bits), 0, n - 1)
        rng = random.Random(6)
        for _ in range(50):
            n = 6
            adj = "".join(rng.choice("01") for _ in range(n * n))
            check(n, adj, rng.randrange(n), rng.randrange(n))

        # sorting
        sprog, smode = load_checked("sort.pc")
        rng = random.Random(16)
        for _ in range(100):
            length = rng.randrange(0, 17)
            items = [rng.randrange(-999, 999) for _ in range(length)]
            arr = VArray(list(items), INT)
            run_program(sprog, [arr, (1 << length) - 1], mode=smode)
            assert arr.items == sorted(items)


def test_c08_type_safety_and_loop_invariant_fuzz():
    with Budget("criterion 8: 200 random programs, 5 runs each, fuel 10^7",
                120.0):
        rng = random.Random(2024)
        for seed in range(200):
            prog = fuzzgen.gen_program(seed)
            assert check_program(prog, "core").ok, f"seed {seed}"
            watch = fuzzgen.watch_sets(prog)
            for _ in range(5):
                args = [rng.randrange(-2 ** 16, 2 ** 16) for _ in prog.params]
                rep = run_program(prog, args, fuel=10 ** 7, watch=watch)
                out = rep.output
                assert isinstance(out, int) and not isinstance(out, bool)


T_SOURCE = """int main(int x,int y){
    iint z;
    z=y;
    for(i<size(z)) x=x+x;
    return x+y;
}"""

T1_EXPECTED = """int main(int x,int y){
    iint z;
    int o;
    {z=y; if(z>o){o=z;}else{} if(-z>o){o=-z;}else{}}
    for(i<size(z)){x=x+x; if(x>o){o=x;}else{} if(-x>o){o=-x;}else{}}
    if(x+y>o){o=x+y;}else{}
    if(-(x+y)>o){o=-(x+y);}else{}
    return o;
}"""

T2_EXPECTED = """int main(int x,int y){
    int o;
    o=1;
    {iint z; o=o+o;}
    {z=y; o=o+o;}
    for(i<size(z)){x=x+x; o=o+o;}
    return x+y;
}"""


def test_c09_transform_claims():
    with Budget("criterion 9: tracker transforms, golden and counting claims",
                30.0):
        prog = compile_src(T_SOURCE)
        assert t1_max_tracker(prog) == parse_source(T1_EXPECTED, "core")
        assert t2_cost_tracker(prog) == parse_source(T2_EXPECTED, "core")

        corpus = [("fastmul.pc", [(6, 7), (3, 1), (19, 23)]),
                  ("double_loop.pc", [(3, 5), (7, 9)]),
                  ("single_step.pc", [(5,), (0,)]),
                  ("identity.pc", [(12,), (-9,)]),
                  ("sum_counters.pc", [(6, 7), (100, 3)]),
                  ("branchy.pc", [(9,), (1,)])]
        for name, inputs in corpus:
            p, _ = load_checked(name)
            t1 = t1_max_tracker(p)
            assert check_program(t1, "core").ok
            for args in inputs:
                it = Interp(cost_mode=True)
                rep = it.run(t1, list(args))
                assert size_of_value(rep.output) == rep.max_value_size, \
                    (name, args)

        t2 = t2_cost_tracker(prog)
        for n in range(1, 11):
            args = [3, 2 ** n]
            base = run_program(prog, list(args), cost_mode=True)
            sites = (base.rule_counts.get("Decl", 0)
                     + base.rule_counts.get("Asgmt", 0)
                     + base.rule_counts.get("EmptyBlock", 0))
            it = Interp(cost_mode=True)
            it.run(t2, list(args))
            assert size_of_value(it.store["o"]) - 1 == sites
            assert base.ic / 8 <= sites <= base.ic * 8


def test_c10_normalizer():
    with Budget("criterion 10: single-loop normal form stabilizes", 120.0):
        cases = [("fastmul.pc", [(6, 7), (3, 1), (0, 0), (123, 456), (31, 17)]),
                 ("double_loop.pc", [(3, 5), (0, 0), (7, 1), (100, 100),
                                     (2, 63)]),
                 ("single_step.pc", [(0,), (5,), (-3,), (100,), (65536,)]),
                 ("identity.pc", [(0,), (7,), (-7,), (123456,), (-1,)]),
                 ("sum_counters.pc", [(6, 7), (0, 0), (255, 1), (9, 9),
                                      (1, 0)]),
                 ("branchy.pc", [(9,), (-9,), (0,), (1,), (255,)])]
        assert len(cases) >= 5
        for name, inputs in cases:
            prog, _ = load_checked(name)
            sf = normalize_simple(prog)
            assert simple_form_shape_ok(sf), name
            assert check_program(sf.program, "extended").ok, name
            for args in inputs:
                t_star = stabilization_search(sf, prog, list(args),
                                              t_max=1 << 20)
                assert t_star <= 1 << 20
                got = run_program(sf.program, list(args) + [t_star],
                                  mode="extended").output
                assert got == run_program(prog, list(args)).output, \
                    (name, args)


def test_c11_analysis_verdicts():
    with Budget("criterion 11: iterable inference verdicts", 5.0):
        from conftest import load

        right, _ = load("fastmul.pc")
        v = poly_check(erase_annotations(right))
        assert v.verdict == "poly"
        z_sites = {s[1] for s in v.state.iterable_sites() if s[0] == "decl"}
        assert z_sites == {"z"}
        assert check_program(v.witness, "extended").ok

        left, _ = load("badmul.pc")
        v2 = poly_check(erase_annotations(left))
        assert v2.verdict == "unknown"
