import itertools
import time

import pytest

from conftest import (
    NORMALIZE_CASES, compile_src, doubling_calls, load_checked, load_printed,
)

from polyc import check_program, pretty_print, run_program
from polyc.interp import Interp
from polyc.parser import parse_source
from polyc.transform import (
    TransformError, bounded_equiv, normalize_simple,
    simple_form_shape_ok, stabilization_search, t1_max_tracker,
    t2_cost_tracker,
)
from polyc.values import size_of_value

T_SOURCE = """int main(int x,int y){
    iint z;
    z=y;
    for(i<size(z)) x=x+x;
    return x+y;
}"""

T1_EXPECTED = """int main(int x,int y){
    iint z;
    int o;
    {
        z=y;
        if(z>o){o=z;}else{}
        if(-z>o){o=-z;}else{}
    }
    for(i<size(z)){
        x=x+x;
        if(x>o){o=x;}else{}
        if(-x>o){o=-x;}else{}
    }
    if(x+y>o){o=x+y;}else{}
    if(-(x+y)>o){o=-(x+y);}else{}
    return o;
}"""

T2_EXPECTED = """int main(int x,int y){
    int o;
    o=1;
    {iint z; o=o+o;}
    {z=y; o=o+o;}
    for(i<size(z)){
        x=x+x;
        o=o+o;
    }
    return x+y;
}"""

# (program, positive input tuples) pairs for the instrumentation claims
TRACKER_CASES = [
    ("fastmul.pc", [(6, 7), (3, 1), (19, 23), (1, 1)]),
    ("double_loop.pc", [(3, 5), (7, 9), (1, 2)]),
    ("single_step.pc", [(5,), (0,)]),
    ("identity.pc", [(12,), (0,), (-9,)]),
    ("sum_counters.pc", [(6, 7), (100, 3)]),
    ("branchy.pc", [(9,), (1,)]),
]


def run_with_store(prog, args, mode="core"):
    it = Interp(cost_mode=True, mode=mode)
    report = it.run(prog, list(args))
    return report, it.store


class TestT1:
    def test_golden_structure(self):
        prog = compile_src(T_SOURCE)
        expected = parse_source(T1_EXPECTED, "core")
        assert t1_max_tracker(prog) == expected

    def test_output_typechecks(self):
        for name, _ in TRACKER_CASES:
            prog, mode = load_checked(name)
            assert check_program(t1_max_tracker(prog), mode).ok

    def test_identity_program_returns_absolute_input(self):
        prog = compile_src("int main(int x){return x;}")
        t1 = t1_max_tracker(prog)
        for v in (5, -5, 0, -123456):
            assert run_program(t1, [v]).output == abs(v)

    def test_max_claim_on_corpus(self):
        for name, inputs in TRACKER_CASES:
            prog, mode = load_checked(name)
            t1 = t1_max_tracker(prog)
            for args in inputs:
                rep, _ = run_with_store(t1, args)
                assert size_of_value(rep.output) == rep.max_value_size, \
                    (name, args)
                plain = run_program(prog, list(args), cost_mode=True)
                assert rep.max_value_size >= plain.max_value_size

    def test_fresh_name_when_o_taken(self):
        prog, _ = load_checked("fastmul.pc")  # already uses o
        t1 = t1_max_tracker(prog)
        assert check_program(t1, "core").ok
        assert run_program(t1, [6, 7]).output == 48  # largest doubled x

    def test_rejects_extended_constructs(self):
        prog, _ = load_checked("knapsack.pc")
        with pytest.raises(TransformError):
            t1_max_tracker(prog)


class TestT2:
    def test_golden_structure(self):
        prog = compile_src(T_SOURCE)
        expected = parse_source(T2_EXPECTED, "core")
        assert t2_cost_tracker(prog) == expected

    def executed_sites(self, prog, args):
        rep = run_program(prog, list(args), cost_mode=True)
        rc = rep.rule_counts
        return (rc.get("Decl", 0) + rc.get("Asgmt", 0)
                + rc.get("EmptyBlock", 0)), rep.ic

    def test_count_claim_and_band(self):
        prog = compile_src(T_SOURCE)
        t2 = t2_cost_tracker(prog)
        o_name = "o"
        for n in range(1, 11):
            args = [3, 2 ** n]
            sites, ic = self.executed_sites(prog, args)
            _, store = run_with_store(t2, args)
            assert size_of_value(store[o_name]) - 1 == sites
            assert ic / 8 <= sites <= ic * 8

    def test_empty_block_sites_counted(self):
        prog, _ = load_checked("fastmul.pc")
        t2 = t2_cost_tracker(prog)
        # with y even somewhere, the else {} branch executes
        args = [5, 10]
        sites, _ = self.executed_sites(prog, args)
        _, store = run_with_store(t2, args)
        o_name = next(n for n in store if n.startswith("o") and n != "o")
        assert size_of_value(store[o_name]) - 1 == sites

    def test_output_unchanged(self):
        prog = compile_src(T_SOURCE)
        t2 = t2_cost_tracker(prog)
        for args in [(3, 5), (0, 0), (2, 9)]:
            assert run_program(t2, list(args)).output == \
                   run_program(prog, list(args)).output

    def test_decl_free_output_typechecks(self):
        prog = compile_src("int main(int x){x=x+1; return x;}")
        assert check_program(t2_cost_tracker(prog), "core").ok

    def test_block_wrapped_decl_scoping_caveat(self):
        # wrapping a declaration in a block hides it from later statements
        # under the block-scoped typing rule; the paper's own example
        # trips this, so the instrumented program runs but does not check
        prog = compile_src(T_SOURCE)
        res = check_program(t2_cost_tracker(prog), "core")
        assert not res.ok
        assert {d.kind for d in res.errors} == {"unbound-variable"}


class TestNormalize:
    def test_shape_and_types(self):
        for name, _ in NORMALIZE_CASES:
            prog, _ = load_checked(name)
            sf = normalize_simple(prog)
            assert simple_form_shape_ok(sf), name
            res = check_program(sf.program, "extended")
            assert res.ok, (name, [d.render() for d in res.errors])

    def test_stabilization_matches_original(self):
        for name, inputs in NORMALIZE_CASES:
            prog, _ = load_checked(name)
            sf = normalize_simple(prog)
            for args in inputs:
                t = stabilization_search(sf, prog, list(args), t_max=1 << 20)
                assert t <= 1 << 20
                got = run_program(sf.program, list(args) + [t],
                                  mode="extended").output
                want = run_program(prog, list(args)).output
                assert got == want, (name, args, t)

    def test_single_assignment_budget_is_one(self):
        prog, _ = load_checked("single_step.pc")
        sf = normalize_simple(prog)
        assert stabilization_search(sf, prog, [7]) == 1

    def test_identity_agrees_for_any_budget(self):
        prog, _ = load_checked("identity.pc")
        sf = normalize_simple(prog)
        for t in (0, 1, 5, 1 << 30):
            assert run_program(sf.program, [42, t],
                               mode="extended").output == 42

    def test_symbolic_bound_is_descriptor(self):
        prog, _ = load_checked("fastmul.pc")
        sf = normalize_simple(prog)
        assert sf.symbolic_bound.startswith("O(n^(")
        assert "^" in sf.symbolic_bound

    def test_break_and_continue_supported(self):
        src = ("// mode: extended\n"
               "int main(iint n){int seen; "
               "for(i<size(n)){ if(i==2) {continue;} else {} "
               "if(i==4) {break;} else {} seen=seen+1; } return seen;}")
        prog = compile_src(src, "extended")
        sf = normalize_simple(prog)
        assert simple_form_shape_ok(sf)
        t = stabilization_search(sf, prog, [2 ** 9], mode="extended")
        assert run_program(sf.program, [2 ** 9, t], mode="extended").output == 3

    def test_nested_loops(self):
        from polyc.tm import clock_program

        prog = load_printed(clock_program(2))
        sf = normalize_simple(prog)
        assert simple_form_shape_ok(sf)
        # every original loop iteration costs one budget tick, so the three
        # nested loops need a budget with d*size(v)^d + overhead bits
        for v in (1, 2, 5):
            t = stabilization_search(sf, prog, [v], t_max=1 << 40)
            assert run_program(sf.program, [v, t], mode="extended").output == \
                   run_program(prog, [v]).output

    def test_broken_simple_form_diagnosed(self):
        prog, _ = load_checked("fastmul.pc")
        sf = normalize_simple(prog)
        # sabotage: swap the output variable for a constant zero
        from polyc.ast import Const

        sf.program.ret_expr = Const("1234567")
        with pytest.raises(TransformError):
            stabilization_search(sf, prog, [6, 7], t_max=1 << 12)

    def test_functions_inlined_first(self):
        src = ("// mode: extended\n"
               "int main(int x){int twice(int a){return a+a;} "
               "return twice(twice(x));}")
        prog = compile_src(src, "extended")
        sf = normalize_simple(prog)
        assert simple_form_shape_ok(sf)
        t = stabilization_search(sf, prog, [5], mode="extended")
        assert run_program(sf.program, [5, t], mode="extended").output == 20

    def test_index_assignment_in_flat_if_rejected(self):
        src = ("// mode: extended\n"
               "int main(array<int> a, int x){"
               "if(x>0){a[0]=1;}else{a[1]=1;} return x;}")
        prog = compile_src(src, "extended")
        with pytest.raises(TransformError,
                           match="normalizer supports scalar assignments only"):
            normalize_simple(prog)

    def test_string_local_in_flat_if_rejected(self):
        src = ("// mode: extended\n"
               "int main(int x){"
               "if(x>0){string s; s=\"ab\";}else{} return x;}")
        prog = compile_src(src, "extended")
        with pytest.raises(TransformError, match="integer and boolean locals, "
                                                 "not string"):
            normalize_simple(prog)


def assert_stabilized_output_matches(prog, inputs):
    """Normalize `prog` and compare its output at the stabilized budget with
    the original's on each input tuple."""
    sf = normalize_simple(prog)
    assert simple_form_shape_ok(sf)
    for args in inputs:
        t = stabilization_search(sf, prog, list(args), mode="extended")
        got = run_program(sf.program, list(args) + [t], mode="extended").output
        assert got == run_program(prog, list(args), mode="extended").output, \
            (args, t)


CALL_CASES = {
    "call_in_if_condition": ("""int main(int x,iint n){
        bool big(int a,iint m){int s; for(i<size(m)) s=s+a; return s>10;}
        int r;
        if(big(x,n)){r=x;}else{r=-x;}
        return r;}""", [(3, 1), (3, 16), (-2, 8), (0, 0), (11, 1), (5, 255)]),
    "call_in_loop_bound": ("""int main(int x){
        iint twice(iint a){return a+a;}
        iint z;
        z=x;
        int s;
        for(i<size(twice(z))) s=s+i;
        return s;}""", [(0,), (1,), (5,), (-9,), (100,), (4095,)]),
    "void_call_stmt": ("""int main(int x,iint n){
        void spin(iint m){int k; for(i<size(m)) k=k+1;}
        spin(n);
        x=x+1;
        spin(n);
        return x;}""", [(0, 0), (1, 1), (5, 7), (-9, 64), (100, 3), (7, 1023)]),
    "same_function_twice": ("""int main(int x,iint n){
        int mul(int a,iint m){int s; for(i<size(m)) s=s+a; return s;}
        return mul(x,n)-mul(x+1,n)*2;}""",
        [(0, 0), (1, 1), (5, 7), (-9, 15), (100, 3), (7, 31)]),
    "break_continue_in_callee": ("""int main(int x,iint n){
        int count(iint m,int stop){int seen;
            for(i<size(m)){
                if(i==2){continue;}else{}
                if(i==stop){break;}else{}
                seen=seen+1;
            }
            return seen;}
        return count(n,x)+count(n,x+1);}""",
        [(0, 0), (1, 1), (4, 255), (3, 64), (9, 31), (-1, 7)]),
    "function_in_nested_block": ("""int main(int x){
        int r;
        if(x>0){int inc(int a){return a+1;} r=inc(inc(x));}else{r=0;}
        return r;}""", [(0,), (1,), (5,), (-9,), (100,), (-1,)]),
    "uncalled_capturing_function": ("""int main(int x){
        int g;
        g=x;
        int f(int a){return a+g;}
        return x+1;}""", [(0,), (1,), (5,), (-9,), (100,), (-1,)]),
}


class TestInline:
    """The normalizer expands each call to a user function where it occurs."""

    def test_nested_calls(self):
        src = ("// mode: extended\n"
               "int main(int x,int y){int add(int a,int b){return a+b;} "
               "return add(add(x,y),add(y,1));}")
        prog = compile_src(src, "extended")
        sf = normalize_simple(prog)
        from polyc.ast import Call, walk_exprs, walk_stmts, stmt_exprs

        exprs = [sf.program.ret_expr]
        for s in walk_stmts(sf.program.body):
            exprs.extend(stmt_exprs(s))
        assert not any(isinstance(e, Call)
                       for x in exprs for e in walk_exprs(x))
        t = stabilization_search(sf, prog, [3, 4], mode="extended")
        assert run_program(sf.program, [3, 4, t], mode="extended").output == 12

    def test_calls_in_loops(self):
        src = ("// mode: extended\n"
               "int main(int x,iint n){int inc(int a){return a+1;} "
               "for(i<size(n)) x=inc(x); return x;}")
        prog = compile_src(src, "extended")
        sf = normalize_simple(prog)
        t = stabilization_search(sf, prog, [10, 2 ** 4], mode="extended")
        assert run_program(sf.program, [10, 2 ** 4, t],
                           mode="extended").output == 15

    def test_captured_variable_rejected(self):
        src = ("// mode: extended\n"
               "int main(int x){int g; int f(int a){return a+g;} "
               "return f(x);}")
        prog = compile_src(src, "extended")
        with pytest.raises(TransformError, match="function 'f' reads captured "
                                                 "variable 'g'; cannot inline"
                           ) as info:
            normalize_simple(prog)
        assert (info.value.pos.line, info.value.pos.col) == (2, 46)

    def test_builtin_call_rejected(self):
        src = ("// mode: extended\n"
               "int main(int x){int f(int a){return a+1;} "
               "return f(max(x,1));}")
        prog = compile_src(src, "extended")
        assert check_program(prog, "extended").ok
        with pytest.raises(TransformError, match="normalizer cannot handle "
                                                 "expression Call"):
            normalize_simple(prog)

    @pytest.mark.parametrize("loop", ["", "for(i<size(n)) "])
    def test_break_outside_callee_loop_rejected(self, loop):
        # the checker rejects a break at a function body's top level; in an
        # unchecked program it escapes the function, so the caller's loop
        # must not take it
        src = ("// mode: extended\n"
               "int main(int x,iint n){int f(int a){break; return a;} "
               f"{loop}x=f(x)+1; return x;}}")
        prog = compile_src(src, "extended")
        assert [d.kind for d in check_program(prog, "extended").errors] == \
            ["misplaced-break"]
        with pytest.raises(TransformError, match="break escapes the body of "
                                                 "function 'f'"):
            normalize_simple(prog)

    @pytest.mark.parametrize("stmt", ["break", "continue"])
    def test_jump_in_program_body_rejected(self, stmt):
        # the checker rejects it too (misplaced-break); unchecked, the
        # normalizer names the program body as the engine does
        prog = compile_src(f"int main(int x){{{stmt}; return x;}}", "extended")
        assert [d.kind for d in check_program(prog, "extended").errors] == \
            ["misplaced-break"]
        with pytest.raises(TransformError, match=f"^{stmt} escapes the "
                                                 "program body$"):
            normalize_simple(prog)

    def test_call_expansion_is_bounded(self):
        prog = compile_src(doubling_calls(15), "extended")
        assert check_program(prog, "extended").ok
        start = time.perf_counter()
        with pytest.raises(TransformError, match="expanding calls copies "
                                                 "more than 65536 statements"):
            normalize_simple(prog)
        assert time.perf_counter() - start < 2
        small = compile_src(doubling_calls(3), "extended")
        assert_stabilized_output_matches(small, [(0,), (5,), (-9,)])

    @pytest.mark.parametrize("name", list(CALL_CASES))
    def test_expanded_call_matches_original(self, name):
        src, inputs = CALL_CASES[name]
        prog = compile_src("// mode: extended\n" + src, "extended")
        assert check_program(prog, "extended").ok
        assert_stabilized_output_matches(prog, inputs)


NAIVE_TWIN = """int main(int x,int y){
    int acc;
    iint w;
    w=y;
    for(k<size(w)){
        if(y%2==1){ acc=acc+x; } else {}
        x=x+x;
        y=y/2;
    }
    int r;
    r=acc+0;
    return r;
}"""


class TestBoundedEquiv:
    def test_equivalent_pair(self, fastmul):
        twin = compile_src(NAIVE_TWIN)
        assert check_program(twin, "core").ok
        same, witness = bounded_equiv(fastmul, twin, 10)
        assert same and witness is None
        # on non-negative inputs both match actual multiplication
        for x in range(0, 8):
            for y in range(0, 8):
                assert run_program(twin, [x, y]).output == x * y

    def test_inequivalent_pair(self, fastmul):
        addp = compile_src("int main(int x,int y){return x+y;}")
        same, witness = bounded_equiv(fastmul, addp, 3)
        assert not same
        a = run_program(fastmul, list(witness)).output
        b = run_program(addp, list(witness)).output
        assert a != b
        # the worked counterexample: 2*3 = 6 but 2+3 = 5
        assert run_program(fastmul, [2, 3]).output == 6
        assert run_program(addp, [2, 3]).output == 5

    def test_reflexive_and_symmetric(self, fastmul):
        same, _ = bounded_equiv(fastmul, fastmul, 2)
        assert same
        addp = compile_src("int main(int x,int y){return x+y;}")
        r1, _ = bounded_equiv(fastmul, addp, 2)
        r2, _ = bounded_equiv(addp, fastmul, 2)
        assert r1 == r2

    @pytest.mark.parametrize("bound", [-1, 0, 1, 2])
    def test_witness_is_the_first_in_lexicographic_order(self, bound):
        picky = compile_src("int main(int x,int y,int z){int o; "
                            "if(y>0){if(z<0){o=1;}else{o=0;}}else{o=0;} "
                            "return o;}")
        zero = compile_src("int main(int x,int y,int z){return 0;}")
        box = itertools.product(range(-bound, bound + 1), repeat=3)
        first = next((t for t in box if t[1] > 0 > t[2]), None)
        assert bounded_equiv(picky, zero, bound) == (first is None, first)
        none = compile_src("int main(){return 0;}")
        assert bounded_equiv(none, none, bound) == (True, None)

    def test_arity_mismatch(self, fastmul):
        single = compile_src("int main(int x){return x;}")
        from polyc.errors import ArgumentError

        with pytest.raises(ArgumentError):
            bounded_equiv(fastmul, single, 1)
