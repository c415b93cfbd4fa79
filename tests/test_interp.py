import gc
import itertools
import json
import random
import weakref

import pytest

import fuzzgen
import record_golden
from conftest import NORMALIZE_CASES, ROOT, compile_src, load, load_checked

from polyc import check_program, load_program, pretty_print, run_program
from polyc.ast import (
    ArrayT, Arrow, Assign, Block, BOOL, Break, Call, Const, Decl, For, IINT,
    If, INT, ISTRING, OpApp, Paren, Pos, Program, STRING, Stmt, Var, clone,
    walk,
)
from polyc import interp
from polyc.errors import (
    ArgumentError, FuelExhausted, InternalError, PolycError, PolyRuntimeError,
)
from polyc.interp import Interp, apply_op
from polyc.lexer import tokenize
from polyc.ops import BUILTIN_NAMES, OPS, PRECEDENCE, TABLE, Op
from polyc.parser import Parser
from polyc.printer import expr_str
from polyc.transform import normalize_simple
from polyc.typecheck import op_signature
from polyc.values import (
    Closure, VArray, decimal_to_int, default_value, int_to_decimal,
    literal_value, parse_value, size_of_value,
)


def expr_of(src, mode="core"):
    return Parser(tokenize(src), mode).expr()


class TestValues:
    def test_literal_value(self):
        assert literal_value("514") == 514
        assert literal_value("0b11111") == 31
        assert literal_value("true") is True

    def test_decimal_codec_matches_int_and_str(self):
        rng = random.Random(11)
        values = [0, 1, 9, 10, 10 ** 571, 10 ** 572 - 1, 2 ** 1900, 2 ** 1901,
                  *(rng.getrandbits(rng.randrange(1, 14000)) for _ in range(200))]
        for v in values:  # all under Python's default limit of 4300 digits
            assert int_to_decimal(v) == str(v)
            assert int_to_decimal(-v) == str(-v)
            assert decimal_to_int(str(v)) == v == literal_value(str(v))
            assert decimal_to_int("0" * 700 + str(v)) == v

    def test_decimal_codec_past_the_limit(self):
        text = "1" + "0" * 20000
        assert decimal_to_int(text) == 10 ** 20000
        assert int_to_decimal(10 ** 20000 - 1) == "9" * 20000
        assert int_to_decimal(decimal_to_int(text[:-1] + "7")) == text[:-1] + "7"

    def test_default_value(self):
        assert default_value(IINT) == 0
        assert default_value(BOOL) is False
        assert default_value(ArrayT(INT)).items == []

    def test_size_of_value(self):
        assert size_of_value(0) == 0
        assert size_of_value(-8) == 4
        for n in range(0, 40):
            assert size_of_value(2 ** n) == n + 1
        assert size_of_value(True) == 1
        assert size_of_value(False) == 1
        assert size_of_value("10010") == 5
        assert size_of_value(VArray([1, 200, 3], INT)) == 8
        assert size_of_value(VArray([], INT)) == 0


class TestApplyOp:
    def test_division_by_zero_is_total(self):
        assert apply_op("/", [7, 0]) == 0
        assert apply_op("%", [7, 0]) == 0

    def test_truncation_toward_zero(self):
        assert apply_op("/", [-7, 2]) == -3
        assert apply_op("/", [7, -2]) == -3
        assert apply_op("%", [-7, 2]) == -1
        assert apply_op("%", [7, -2]) == 1

    def test_negation_subtraction(self):
        assert apply_op("-", [3]) == -3
        assert apply_op("-", [2, 5]) == -3

    def test_connectives(self):
        assert apply_op("&&", [True, False]) is False
        assert apply_op("||", [False, True]) is True
        assert apply_op("!", [False]) is True

    def test_size(self):
        assert apply_op("size", [514]) == 10

    def test_operator_size_bound(self):
        # result size <= max operand size + 1 for arithmetic, exactly 1 for
        # comparisons and connectives, and size(size(v)) <= size(v)
        rng = random.Random(7)
        for _ in range(3000):
            a = rng.randrange(-2 ** 64, 2 ** 64)
            b = rng.randrange(-2 ** 64, 2 ** 64)
            bound = max(size_of_value(a), size_of_value(b)) + 1
            for op in ["+", "-", "/", "%"]:
                assert size_of_value(apply_op(op, [a, b])) <= bound
            for op in ["<", "<=", ">", ">=", "==", "!="]:
                assert size_of_value(apply_op(op, [a, b])) == 1
            assert size_of_value(apply_op("size", [a])) <= max(
                size_of_value(a), 1)
            assert size_of_value(apply_op("-", [a])) <= size_of_value(a)
        for p, q in [(True, True), (True, False), (False, True),
                     (False, False)]:
            for op in ["&&", "||"]:
                assert size_of_value(apply_op(op, [p, q])) == 1


def run_expr(src, store):
    """Run `src` as the return expression of a program whose int parameters
    are the store; returns the output and ic, the expression's steps."""
    prog = Program([(INT, n) for n in store], [], expr_of(src))
    rep = run_program(prog, list(store.values()), cost_mode=True)
    return rep.output, rep.ic


class TestCostSemantics:
    def run_stmt(self, src, store):
        """Run `src; return 0;` with the store's names as int parameters;
        returns the run and the steps of `src`."""
        params = ",".join(f"int {n}" for n in store)
        it = Interp(cost_mode=True)
        it.run(compile_src(f"int main({params}){{{src} return 0;}}"),
               list(store.values()))
        return it, it.steps - 1  # `return 0;` takes one step

    def test_variable_and_const_cost_one(self):
        assert run_expr("x", {"x": 1}) == (1, 1)
        assert run_expr("514", {}) == (514, 1)

    def test_addition_cost(self):
        assert run_expr("x+x", {"x": 1}) == (2, 3)

    def test_size_cost(self):
        for n in (0, 1, 9):
            assert run_expr("size(z)", {"z": 2 ** n}) == (n + 1, 2)

    def test_paren_cost(self):
        assert run_expr("(x)", {"x": 5}) == (5, 2)

    def test_decl_cost(self):
        it, steps = self.run_stmt("iint z;", {})
        assert it.store["z"] == 0 and steps == 1

    def test_loop_cost_is_4n_plus_6(self):
        for n in range(0, 17):
            it, steps = self.run_stmt("for(i<size(z)) x=x+x;",
                                      {"z": 2 ** n, "x": 1})
            assert steps == 4 * n + 6
            assert it.store["x"] == 2 ** (n + 1)

    def test_zero_iteration_loop(self):
        it, steps = self.run_stmt("for(i<size(z)) x=x+x;", {"z": 0, "x": 1})
        assert steps == 2 and it.store["x"] == 1

    def test_negative_bound_runs_zero_iterations(self):
        # size() is never negative, so drive the loop rule directly
        loop = For("i", Var("n"), Assign(Var("x"),
                                         OpApp("+", [Var("x"), Const("1")])))
        it = Interp()
        it.run(Program([(INT, "n"), (INT, "x")], [loop], Const("0")), [-3, 0])
        assert it.store["x"] == 0 and it.store == {"n": -3, "x": 0}

    def test_loop_bound_evaluated_once(self):
        # bound cost (2) charged once; body cost 4 per iteration
        _, steps = self.run_stmt("for(i<size(z)) x=x+x;", {"z": 2 ** 4, "x": 1})
        assert steps == 2 + 4 * 5

    def test_counter_not_charged(self):
        _, steps = self.run_stmt("for(i<size(z)) {}", {"z": 2 ** 3})
        # bound 2 + per-iteration block cost 1
        assert steps == 2 + 4


class TestRunProgram:
    def test_fastmul(self, fastmul):
        assert run_program(fastmul, [6, 7]).output == 42
        assert run_program(fastmul, [0, 9]).output == 0

    def test_fastmul_random_bignum(self, fastmul):
        rng = random.Random(3)
        for _ in range(25):
            x = rng.randrange(1, 2 ** 128)
            y = rng.randrange(1, 2 ** 128)
            assert run_program(fastmul, [x, y]).output == x * y

    def test_determinism(self, fastmul):
        a = run_program(fastmul, [11, 13], cost_mode=True)
        b = run_program(fastmul, [11, 13], cost_mode=True)
        assert (a.output, a.ic, a.max_value_size, a.rule_counts) == \
               (b.output, b.ic, b.max_value_size, b.rule_counts)

    def test_cost_mode_does_not_change_output(self, fastmul):
        assert run_program(fastmul, [9, 31]).output == \
               run_program(fastmul, [9, 31], cost_mode=True).output

    def test_arity_mismatch(self, fastmul):
        with pytest.raises(ArgumentError):
            run_program(fastmul, [1])

    def test_argument_consistency(self, fastmul):
        with pytest.raises(ArgumentError):
            run_program(fastmul, [True, 2])

    def test_ic_at_least_one(self):
        rep = run_program(compile_src("int main(){return 0;}"), [],
                          cost_mode=True)
        assert rep.ic >= 1

    def test_max_value_size_covers_inputs_and_output(self, fastmul):
        rep = run_program(fastmul, [2 ** 40, 3], cost_mode=True)
        assert rep.max_value_size >= 41
        assert rep.max_value_size >= size_of_value(rep.output)

    def test_report_json(self, fastmul):
        rep = run_program(fastmul, [6, 7], cost_mode=True)
        doc = rep.to_json()
        assert set(doc) == {"output", "ic", "max_value_size"}
        assert doc["output"] == "42"

    def test_fuel_exhaustion(self, fastmul):
        with pytest.raises(FuelExhausted):
            run_program(fastmul, [2 ** 64, 2 ** 64], fuel=50)

    def test_consistency_with_types(self):
        # int-typed names hold ints, bool-typed hold bools after execution
        src = ("int main(int x){int a; bool b; iint z; z=x; "
               "for(i<size(z)) {a=a+i; b=a>2;} return a;}")
        prog = compile_src(src)
        assert check_program(prog, "core").ok
        it = Interp()
        it.run(prog, [13])
        assert isinstance(it.store["a"], int) and not isinstance(
            it.store["a"], bool)
        assert isinstance(it.store["b"], bool)
        assert isinstance(it.store["z"], int)


class TestExtendedRuntime:
    def test_closure_captures_definition_store(self):
        src = ("// mode: extended\n"
               "int main(){int x; x=1; int f(){return x;} x=2; return f();}")
        prog = compile_src(src, "extended")
        assert check_program(prog, "extended").ok
        assert run_program(prog, [], mode="extended").output == 1

    def test_arrays_alias_through_calls(self):
        src = ("// mode: extended\n"
               "int main(iint n){array<int> a; a=array(size(n)); "
               "void poke(array<int> q){q[0]=7; return 0;} "
               "poke(a); return a[0];}")
        prog = compile_src(src, "extended")
        assert check_program(prog, "extended").ok
        assert run_program(prog, [7], mode="extended").output == 7

    def test_scalars_pass_by_value(self):
        src = ("// mode: extended\n"
               "int main(int x){void bump(int a){a=a+1; return 0;} "
               "bump(x); return x;}")
        prog = compile_src(src, "extended")
        assert run_program(prog, [5], mode="extended").output == 5

    def test_index_out_of_range(self):
        src = ("// mode: extended\n"
               "int main(iint n){array<int> a; a=array(size(n)); "
               "return a[size(n)];}")
        prog = compile_src(src, "extended")
        assert check_program(prog, "extended").ok
        with pytest.raises(PolyRuntimeError):
            run_program(prog, [3], mode="extended")

    def test_string_index_yields_one_char_string(self):
        src = ('// mode: extended\n'
               'int main(istring s){int r; r=0; if(s[1]=="0"){r=1;} else {} '
               'return r;}')
        prog = compile_src(src, "extended")
        assert run_program(prog, ["10"], mode="extended").output == 1

    def test_break_and_continue(self):
        src = ("// mode: extended\n"
               "int main(iint n){int seen; int c; "
               "for(i<size(n)){ if(i==2) {continue;} else {} "
               "if(i==4) {break;} else {} seen=seen+1; c=i; } return seen;}")
        prog = compile_src(src, "extended")
        # iterations 0,1,3 count; loop stops at i == 4
        assert run_program(prog, [2 ** 9], mode="extended").output == 3

    def test_builtin_min_max(self):
        src = ("// mode: extended\n"
               "int main(int a,int b){return min(a,b)+max(a,b);}")
        prog = compile_src(src, "extended")
        assert run_program(prog, [3, 9], mode="extended").output == 12

    @pytest.mark.parametrize("src,want", [
        # the function's scope ends with the branch that defines it
        ("int main(int x){ if(x>0){ int max(int a,int b){return 0;} "
         "x=max(x,1); } else {} return max(x,5); }", 5),
        # the first iteration's definition is out of scope in the second
        ("int main(iint z){ int x; x=7; for(i<size(z)){ x=max(x,5); "
         "int max(int a,int b){return 0;} } return x; }", 7),
        ("int main(int x){ { int min(int a,int b){return 0;} } "
         "return min(x,5); }", 3),
    ], ids=["branch", "loop-body", "block"])
    def test_builtin_shadowed_in_an_ended_scope(self, src, want):
        # the store is flat: the user function stays bound after its scope
        # ends, but a call there reaches the builtin, as the checker says
        prog = compile_src("// mode: extended\n" + src, "extended")
        assert check_program(prog, "extended").ok
        for cost in (False, True):
            assert run_program(prog, [3], cost_mode=cost,
                               mode="extended").output == want

    def test_store_holds_no_builtins(self):
        it = Interp()
        prog = compile_src("// mode: extended\n"
                           "int main(int a){int f(int b){return max(a,b);} "
                           "return f(1);}", "extended")
        assert it.run(prog, [4]).output == 4
        assert set(it.store) == {"a", "f"}
        assert set(it.store["f"].def_store) == {"a"}


class TestStatementSurface:
    """Expressions and statements run as parts of a whole program."""

    def test_eval_expr_surface(self):
        assert run_expr("x+x", {"x": 1}) == (2, 3)

    def test_exec_stmt_surface(self):
        it = Interp(cost_mode=True)
        rep = it.run(Program([], [Decl(IINT, "z")], Const("0")), [])
        assert it.store == {"z": 0} and rep.ic == 1 + 1  # and `return 0;`

    def test_exec_stmt_signal(self):
        # unchecked, a top-level break reaches the end of the program body
        prog = Program([], [Break()], Const("0"))
        for cost in (False, True):
            with pytest.raises(InternalError,
                               match="break escaped the program body"):
                run_program(prog, [], cost_mode=cost)


class TestCompiledEngine:
    """Traps of an engine that compiles each program once and caches it."""

    def test_cache_keeps_no_program_alive(self):
        # with the collector off, a reference cycle through the code kept on
        # the program would keep it alive
        enabled = gc.isenabled()
        gc.disable()
        try:
            prog = compile_src("int main(int x){return x+1;}")
            for cost in (False, True):
                assert run_program(prog, [1], cost_mode=cost).output == 2
            ref = weakref.ref(prog)
            del prog
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
        # a new program may reuse a dead one's id(); it must not reuse its code
        for k in range(50):
            prog = compile_src(f"int main(int x){{return x+{k};}}")
            assert run_program(prog, [1]).output == 1 + k
            del prog

    def test_clone_compiles_its_own_code(self, fastmul):
        prog = clone(fastmul)
        for metered in (False, True):
            assert run_program(prog, [6, 7], cost_mode=metered).output == 42
            copy = clone(prog)
            assert copy == prog
            assert (interp._program(copy, metered)
                    is not interp._program(prog, metered))
            assert run_program(copy, [6, 7], cost_mode=metered).output == 42

    def test_engine_ignores_the_mode(self):
        # the checker alone decides which builtins are in scope; a core
        # program calling `min`, which the checker rejects, runs it too
        runs = []
        for path in sorted((ROOT / "corpus").glob("*.pc")):
            prog, mode = load(path.name)
            check_program(prog, mode)  # which fills in the array types
            runs.append((prog, record_golden.CORPUS_ARGS.get(path.name, ["6", "7"])))
        for seed in range(50):
            prog = fuzzgen.gen_program(seed)
            rng = random.Random(seed)
            runs.append((prog, [str(rng.randrange(-2 ** 12, 2 ** 12))
                                for _ in prog.params]))
        runs.append((Program([(INT, "x")], [], Call("min", [Var("x"), Const("2")])),
                     ["5"]))
        for prog, raw in runs:
            for cost in (False, True):
                core, extended = (
                    run_program(prog, [parse_value(v, t) for v, (t, _) in
                                       zip(raw, prog.params)],
                                cost_mode=cost, mode=mode)
                    for mode in ("core", "extended"))
                assert core == extended, (pretty_print(prog), raw, cost)
        assert core.output == 2

    def test_array_element_type_is_read_when_run(self):
        # the checker fills in ArrayCtor.elem in place, after a first run
        # may already have compiled the program
        prog = compile_src("// mode: extended\n"
                           "int main(iint n){array<int> a; a=array(size(n)); "
                           "a[1]=7; return a[1];}", "extended")
        with pytest.raises(InternalError, match="not type-checked"):
            run_program(prog, [5], mode="extended")
        assert check_program(prog, "extended").ok
        assert run_program(prog, [5], mode="extended").output == 7

    def test_array_declaration_is_fresh_every_time(self):
        prog = compile_src("// mode: extended\n"
                           "int main(iint n){array<int> first; "
                           "for(i<size(n)){array<int> a; "
                           "if(i==0){first=a;} else {}} return 0;}",
                           "extended")
        assert check_program(prog, "extended").ok
        stores = []
        for _ in range(2):
            it = Interp()
            it.run(prog, [6])
            stores.append(it.store)
        for st in stores:
            assert st["a"].items == [] and st["first"].items == []
            assert st["a"] is not st["first"]  # iterations 0 and 2
        assert stores[0]["a"] is not stores[1]["a"]  # two runs

    def test_fuel_counts_executed_statements(self, fastmul):
        for cost in (False, True):
            with pytest.raises(FuelExhausted):
                run_program(fastmul, [6, 7], cost_mode=cost, fuel=21)
            assert run_program(fastmul, [6, 7], cost_mode=cost,
                               fuel=22).output == 42

    def test_unknown_operator_fails_when_evaluated(self):
        bad = OpApp("^", [Var("x"), Const("1")])
        prog = Program([(INT, "x")], [
            If(Const("false"), Assign(Var("x"), bad), Block([]))], Var("x"))
        for cost in (False, True):
            assert run_program(prog, [4], cost_mode=cost).output == 4
        with pytest.raises(InternalError, match=r"unknown operator '\^'"):
            run_program(Program([(INT, "x")], [], bad), [1])

    def test_ic_sums_the_step_rules(self):
        # every rule charges one step except these four, which only count
        free = {"Cond", "Loop", "EmptyBlock", "Prog"}
        rng = random.Random(17)
        for seed in range(200):
            prog = fuzzgen.gen_program(seed)
            args = [rng.randrange(-2 ** 16, 2 ** 16) for _ in prog.params]
            rep = run_program(prog, args, cost_mode=True, fuel=10 ** 7)
            assert rep.ic == sum(n for rule, n in rep.rule_counts.items()
                                 if rule not in free), seed
            assert all(n > 0 for n in rep.rule_counts.values()), seed


class TestSlotTable:
    """Cost mode counts into a per-run list of slot counts; the compiled code
    it shares between runs holds none."""

    COSTS = json.loads((ROOT / "bench" / "costs.json").read_text("utf-8"))

    @staticmethod
    def args_of(prog, raw):
        return [VArray(list(v), t.elem) if isinstance(t, ArrayT) else v
                for (t, _), v in zip(prog.params, raw)]

    @pytest.mark.parametrize("name", sorted(COSTS))
    def test_failed_run_leaves_no_counts(self, name):
        prog, mode = load_checked(name)
        for entry in self.COSTS[name][::12]:
            with pytest.raises(FuelExhausted):
                run_program(prog, self.args_of(prog, entry["args"]),
                            cost_mode=True, mode=mode, fuel=10)
            rep = run_program(prog, self.args_of(prog, entry["args"]),
                              cost_mode=True, mode=mode)
            assert (rep.ic, rep.max_value_size, rep.rule_counts) == (
                entry["ic"], entry["max_value_size"], entry["rule_counts"])

    def test_nested_run_of_the_same_program(self, monkeypatch):
        # a run started while another run of the same program is in progress
        # must not count into the outer run
        src = "int main(int a,int b){int m; m=min(a,b); return m+a;}"
        prog = compile_src(src, "extended")
        assert check_program(prog, "extended").ok
        want = run_program(prog, [3, 9], cost_mode=True, mode="extended")
        nested = []

        def apply(name, vals):
            if not nested:
                nested.append(None)
                nested[0] = run_program(prog, [5, 2], cost_mode=True,
                                        mode="extended")
            return apply_op(name, vals)
        monkeypatch.setattr("polyc.interp.apply_op", apply)
        got = run_program(prog, [3, 9], cost_mode=True, mode="extended")
        assert (got.output, got.ic, got.rule_counts) == (
            want.output, want.ic, want.rule_counts)
        assert (nested[0].output, nested[0].ic) == (7, want.ic)

    def test_closure_argument_is_rejected(self):
        # every closure comes from a FunDef of the program that runs it; no
        # source program declares a function-typed parameter
        inline = compile_src("int main(int x){int f(int a){int b; b=a+1; "
                             "return b;} int g; g=f(x); return g;}",
                             "extended")
        assert check_program(inline, "extended").ok
        it = Interp()
        assert it.run(inline, [4]).output == 5
        prog = Program([(Arrow((INT,), INT), "f"), (INT, "x")], [],
                       Call("f", [Var("x")]))
        for f in (it.store["f"], BUILTIN_NAMES["min"]):
            assert isinstance(f, (Closure, Op))
            with pytest.raises(ArgumentError, match="argument 'f' must be"):
                run_program(prog, [f, 4], mode="extended")

    def test_run_folds_its_counts(self):
        it = Interp(cost_mode=True)
        prog = Program([], [Decl(IINT, "z")], Const("0"))
        for n in (1, 2):
            assert it.run(prog, []).output == 0
            assert (it.steps, it.rule_counts) == (
                2 * n, {"Decl": n, "Const": n, "Prog": n})
        assert it.store == {"z": 0}

    def test_cost_mode_does_not_change_output(self):
        rng = random.Random(23)
        for seed in range(200):
            prog = fuzzgen.gen_program(seed)
            args = [rng.randrange(-2 ** 12, 2 ** 12) for _ in prog.params]
            watch = fuzzgen.watch_sets(prog)
            plain = run_program(prog, args, fuel=10 ** 7, watch=watch)
            cost = run_program(prog, args, cost_mode=True, fuel=10 ** 7,
                               watch=watch)
            assert plain.output == cost.output, seed

    def test_fuel_fails_at_the_same_statement(self):
        rng = random.Random(29)
        for seed in range(200):
            prog = fuzzgen.gen_program(seed)
            args = [rng.randrange(-2 ** 12, 2 ** 12) for _ in prog.params]
            for fuel in (0, 1, 7, 40):
                seen = []
                for cost in (False, True):
                    it = Interp(cost_mode=cost, fuel=fuel)
                    try:
                        seen.append(("output", it.run(prog, list(args)).output))
                    except FuelExhausted as e:
                        seen.append(("fuel", str(e), dict(it.store)))
                assert seen[0] == seen[1], (seed, fuel)


class TestValueSizes:
    """An array is measured when made, passed in or written; binding it
    again costs nothing."""

    def run(self, src, args):
        prog = compile_src("// mode: extended\n" + src, "extended")
        assert check_program(prog, "extended").ok
        return run_program(prog, args, cost_mode=True, mode="extended")

    def test_new_bool_array_has_size_one(self):
        src = "int main(iint n){array<bool> b; b=array(N); return 0;}"
        assert self.run(src.replace("N", "1"), [0]).max_value_size == 1
        assert self.run(src.replace("N", "0"), [0]).max_value_size == 0

    def test_argument_array_is_measured_whole(self):
        rep = self.run("int main(array<int> a){return a[0];}",
                       [VArray([1, 2 ** 40, 3], INT)])
        assert (rep.output, rep.max_value_size) == (1, 41)

    def test_inner_array_written_before_it_is_stored(self):
        rep = self.run("int main(iint n){array<array<int>> d; d=array(2); "
                       "array<int> r; r=array(3); r[1]=1000000; d[0]=r; "
                       "return 0;}", [0])
        assert rep.max_value_size == 20

    def test_array_passed_many_times_is_measured_once(self, monkeypatch):
        calls = []

        def counting(v, original=size_of_value):
            calls.append(v)
            return original(v)
        monkeypatch.setattr("polyc.values.size_of_value", counting)
        monkeypatch.setattr("polyc.interp.size_of_value", counting)
        src = ("int main(array<int> a, iint m){int f(array<int> b)"
               "{return b[0];} int s; for(i<size(m)) s=f(a); return s;}")
        n, m = 1000, 300
        rep = self.run(src, [VArray([7] * (n - 1) + [2 ** 30], INT),
                             2 ** m - 1])
        assert (rep.output, rep.max_value_size) == (7, 300)
        assert len(calls) <= 2 * (n + m)  # the parent measured it m times


class TestOperatorChains:
    @staticmethod
    def chain(n):
        """x+x+...+x with n terms, nested to the left as the parser does."""
        e = Var("x")
        for _ in range(n - 1):
            e = OpApp("+", [e, Var("x")])
        return e

    def test_long_chain_needs_no_frame_per_term(self):
        prog = Program([(INT, "x")], [], self.chain(5000))
        for cost in (False, True):
            assert run_program(prog, [3], cost_mode=cost).output == 15000
        rep = run_program(prog, [3], cost_mode=True)
        assert rep.rule_counts == {"Var": 5000, "Op": 4999, "Prog": 1}
        assert (rep.output, rep.ic) == (15000, 9999)

    def test_scalar_multiple_keeps_its_cost(self):
        # 450 reads of x and 449 additions; with (x+1), each of the 450
        # terms is a Paren, a Var, a Const and an Op, plus 449 additions
        for body, out, ic in (("450*x", 3150, 899), ("450*(x+1)", 3600, 2249)):
            prog, mode = load_program(f"int main(int x){{return {body};}}")
            assert check_program(prog, mode).ok
            rep = run_program(prog, [7], cost_mode=True)
            assert (rep.output, rep.ic) == (out, ic)


class TestShortCircuit:
    """`&&` and `||` stop at the operand that decides them only when every
    later operand is pure and its variables are bound, so a run counts,
    sizes and fails as full evaluation does."""

    @staticmethod
    def run(src, arg, cost):
        prog, mode = load_program(src)
        assert check_program(prog, mode).ok
        it = Interp(cost_mode=cost)
        return it.run(prog, [arg]), it.store

    def test_skipping_keeps_the_cost_of_full_evaluation(self):
        # b and c skip their pure operands; f(x) runs both times, so its
        # statements count and z=2^41 is sized
        src = ("// mode: extended\nint main(int x){\n"
               "    bool f(int y){int z; z=y+y; return true;}\n"
               "    bool b;\n    b=false&&x>1&&x<9;\n"
               "    bool c;\n    c=true||x==0||x!=3;\n"
               "    b=b||false&&f(x);\n    c=c&&(true||f(x));\n"
               "    return x;\n}")
        for cost in (False, True):
            rep, st = self.run(src, 2 ** 40, cost)
            assert (rep.output, st["b"], st["c"]) == (2 ** 40, False, True)
        assert (rep.ic, rep.max_value_size) == (51, 42)
        assert rep.rule_counts == {
            "Fun": 1, "Decl": 4, "Op": 14, "Var": 13, "Asgmt": 6,
            "Const": 10, "App": 2, "Paren": 1, "Prog": 1}

    def test_index_after_the_deciding_operand_fails(self):
        src = ("// mode: extended\nint main(int x){\n    array<int> a;\n"
               "    a=array(2);\n    bool b;\n    b=false&&a[x]==1;\n"
               "    return x;\n}")
        for cost in (False, True):
            with pytest.raises(PolyRuntimeError, match=r"index 9 out of range") \
                    as exc:
                self.run(src, 9, cost)
            assert exc.value.pos == Pos(6, 15)

    @pytest.mark.parametrize("src,pos", [
        ("int main(int x){bool b; b=x>9&&y>1; return x;}", Pos(1, 32)),
        ("int main(int x){bool b; b=x<9||(x+y)>1; return x;}", Pos(1, 35)),
    ])
    def test_unbound_variable_in_a_skipped_operand_fails(self, src, pos):
        # only an unchecked program can read an unbound variable
        for cost in (False, True):
            with pytest.raises(InternalError, match="'y' unbound") as exc:
                run_program(compile_src(src), [5], cost_mode=cost)
            assert exc.value.pos == pos

    @pytest.mark.parametrize("op,first", [("&&", "false"), ("||", "true")])
    def test_unknown_operator_in_a_skipped_operand_fails(self, op, first):
        bad = OpApp("^", [Var("x"), Const("1")], Pos(2, 7))
        prog = Program([(INT, "x")], [], OpApp(op, [Const(first), bad]))
        for cost in (False, True):
            with pytest.raises(InternalError, match=r"unknown operator '\^'") \
                    as exc:
                run_program(prog, [1], cost_mode=cost)
            assert exc.value.pos == Pos(2, 7)


class TestGeneratedExpressions:
    """Each statement and expression runs as one generated function; a
    bounded cache keeps one compiled factory per shape, with names and
    constants as parameters."""

    SRC = ("int main(int {x}){{int {o}; {o}={x}+{k}; for({i}<{k}){{{o}={o}+{i};}} "
           "if({o}>{k}&&{x}!=1){{{o}={o}-{k};}}else{{}} return {o}*2;}}")

    def test_names_and_constants_add_no_shapes(self, monkeypatch):
        monkeypatch.setattr(interp, "_SHAPES", {})
        first = compile_src(self.SRC.format(x="x", o="o", i="i", k="3"))
        for cost in (False, True):  # the plain and the metered variant
            assert run_program(first, [5], cost_mode=cost).output == 16
        shapes = list(interp._SHAPES)
        statements = [text for *_, text in shapes if not text.startswith("return")]
        assert len(statements) >= 10
        second = compile_src(self.SRC.format(x="n", o="acc", i="j", k="40"))
        for cost in (False, True):
            assert run_program(second, [1], cost_mode=cost).output == 1642
        assert list(interp._SHAPES) == shapes

    def test_metered_variant_is_compiled_lazily_once(self, monkeypatch):
        metered = []
        unit = interp._unit

        def counting(t, *rest):
            metered.append(t is not None)
            return unit(t, *rest)
        monkeypatch.setattr(interp, "_unit", counting)
        prog = compile_src(self.SRC.format(x="x", o="o", i="i", k="3"))
        for _ in range(3):
            assert run_program(prog, [5]).output == 16
        assert metered == [False]
        for options in ({"cost_mode": True}, {"fuel": 100}, {"watch": {}},
                        {"cost_mode": True}, {"fuel": 100}):
            assert run_program(prog, [5], **options).output == 16
        # the metered variant, then the one that also spends fuel
        assert metered == [False, True, True]

    @pytest.mark.parametrize("name", sorted(TestSlotTable.COSTS))
    def test_programs_run_while_their_shapes_are_evicted(self, monkeypatch,
                                                         name):
        # with room for one shape, compiling a program evicts its own shapes
        monkeypatch.setattr(interp, "_SHAPES", {})
        monkeypatch.setattr(interp, "SHAPES_MAX", 1)
        prog, mode = load_checked(name)
        for entry in TestSlotTable.COSTS[name][::12]:
            def run(**options):
                args = TestSlotTable.args_of(prog, entry["args"])
                return run_program(prog, args, mode=mode, **options), args
            (rep, args), (plain, plain_args) = run(cost_mode=True), run()
            assert (rep.ic, rep.max_value_size, rep.rule_counts) == (
                entry["ic"], entry["max_value_size"], entry["rule_counts"])
            assert (plain.output, plain_args) == (rep.output, args)
            with pytest.raises(FuelExhausted):
                run(fuel=10)
            assert len(interp._SHAPES) <= 1

    def test_cache_stays_bounded(self, monkeypatch):
        monkeypatch.setattr(interp, "_SHAPES", {})
        monkeypatch.setattr(interp, "SHAPES_MAX", 4)
        # x, x+x, x+x+x, ... each a shape of its own; the first ones come
        # back after they were evicted
        for n in [*range(1, 13), 1, 2]:
            prog = compile_src(f"int main(int x){{return {'+'.join('x' * n)};}}")
            assert run_program(prog, [3]).output == 3 * n
            assert len(interp._SHAPES) <= 4

    @pytest.mark.parametrize("src,mode,args,message,pos", [
        ("int main(int x){int o; o=x*2+(x-y); return o;}", "core", [1],
         "variable 'y' unbound at runtime", Pos(1, 33)),
        ("// mode: extended\nint main(array<int> a){int o; o=a[1+y]; return o;}",
         "extended", [VArray([1, 2], INT)],
         "variable 'y' unbound at runtime", Pos(2, 37)),
        ("// mode: extended\nint main(int x){int f(int a){return a;} int o; "
         "o=f(x+y); return o;}", "extended", [1],
         "variable 'y' unbound at runtime", Pos(2, 54)),
        ("// mode: extended\nint main(int x){int o; o=g(x+y); return o;}",
         "extended", [1], "function 'g' unbound at runtime", Pos(2, 26)),
        # the store holds no builtins
        ("// mode: extended\nint main(int x){return min;}", "extended", [1],
         "variable 'min' unbound at runtime", Pos(2, 24)),
    ], ids=["arithmetic", "index", "argument", "callee", "builtin-name"])
    def test_unbound_name_fails_where_it_is_read(self, src, mode, args,
                                                 message, pos):
        # only an unchecked program can read an unbound name
        for cost in (False, True):
            with pytest.raises(InternalError) as exc:
                run_program(compile_src(src, mode), args, cost_mode=cost,
                            mode=mode)
            assert (exc.value.message, exc.value.pos) == (message, pos)


def outcome(prog, args, **options):
    """A run's output and cost report, or its error and the store it left."""
    it = Interp(**options)
    try:
        rep = it.run(prog, list(args))
    except PolycError as e:  # closures compare by identity
        return type(e).__name__, e.message, e.pos, {
            k: v for k, v in it.store.items() if not isinstance(v, Closure)}
    return rep.output, rep.ic, rep.max_value_size, rep.rule_counts


def options_of(prog):
    """Plain, cost, fuel at several limits, and watch runs."""
    return [{}, {"cost_mode": True}, *({"fuel": n} for n in (0, 1, 7, 40)),
            {"cost_mode": True, "fuel": 40},
            {"watch": fuzzgen.watch_sets(prog), "fuel": 10 ** 6}]


def statement_lists(prog):
    return [prog.body] + [s.stmts for s in walk(prog.body, Stmt)
                          if s.__class__ is Block]


class TestRepeatedStatements:
    """A statement node that one list holds at several positions is compiled
    once and runs at each of them as a copy of it would."""

    def assert_same_runs(self, shared, copied, arg_lists):
        for args in arg_lists:
            for a, b in zip(options_of(shared), options_of(copied)):
                assert outcome(shared, args, **a) == outcome(
                    copied, args, **b), (args, a)

    @staticmethod
    def compiled(prog, monkeypatch):
        """How many statements compiling prog's metered variant compiles."""
        seen, stmt = [], interp._stmt
        monkeypatch.setattr(interp, "_stmt", lambda s, *rest: seen.append(s)
                            or stmt(s, *rest))
        interp._program(prog, True)
        monkeypatch.setattr(interp, "_stmt", stmt)
        return len(seen)

    @staticmethod
    def repeat(src, mode, *moves):
        """Two copies of src's program, each (k, i, j) move replacing the
        j-th statement of the k-th statement list by its i-th, in one by
        identity and in the other by a clone: both run the same statements."""
        progs = [compile_src(src, mode), compile_src(src, mode)]
        for prog, copy in zip(progs, (lambda s: s, clone)):
            lists = statement_lists(prog)
            for k, i, j in moves:
                lists[k][j] = copy(lists[k][i])
        return progs

    def test_fuzzed_block_with_a_repeated_statement(self, monkeypatch):
        rng = random.Random(31)
        for seed in range(200):
            progs = [fuzzgen.gen_program(seed) for _ in range(2)]
            lists = [statement_lists(p) for p in progs]
            k = rng.choice([k for k, s in enumerate(lists[0]) if s])
            i = rng.randrange(len(lists[0][k]))
            j = rng.randint(i + 1, len(lists[0][k]))
            node = lists[0][k][i]
            lists[0][k].insert(j, node)
            lists[1][k].insert(j, clone(node))
            shared, copied = progs
            # the copy compiles the node's statements over again
            counts = [self.compiled(p, monkeypatch) for p in (copied, shared)]
            assert counts[0] - counts[1] == sum(1 for _ in walk([node], Stmt))
            args = [rng.randrange(-2 ** 12, 2 ** 12) for _ in shared.params]
            self.assert_same_runs(shared, copied, [args])

    @pytest.mark.parametrize("name,inputs", NORMALIZE_CASES,
                             ids=[name for name, _ in NORMALIZE_CASES])
    def test_normalized_corpus_shares_its_halving_step(self, name, inputs):
        prog, mode = load_checked(name)
        shared = normalize_simple(prog, mode).program
        self.assert_same_runs(shared, clone(shared), [
            [*args, t] for args in inputs for t in (1, 3, 40, 4096)])

    def test_normalized_fastmul_compiles_each_node_once(self, fastmul,
                                                         monkeypatch):
        shared = normalize_simple(fastmul).program
        copied = clone(shared)
        # 69 distinct statements; the clone shares no node, so each of its
        # 32 copies of a halving step is compiled
        assert [self.compiled(p, monkeypatch) for p in (shared, copied)] == [
            69, 224]
        reports = [run_program(p, [37, 91, 4096], cost_mode=True, mode="extended")
                   for p in (shared, copied)]
        assert reports[0].output == 37 * 91
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("src,moves", [
        # the first copy reads v, still undeclared when it is compiled; it
        # fails unbound when o starts positive
        ("int main(int x){int o; o=x%2; if(o>0){o=o+v;}else{o=1;} int v; v=x; "
         "if(o>0){o=o+v;}else{o=1;} return o;}", [(0, 2, 5)]),
        ("int main(int x){int v; v=x; int v; v=v+1; return v;}", [(0, 0, 2)]),
        # an escaping break, on the second run of the shared if
        ("// mode: extended\nint main(int x){int o; o=x; if(o>3){break;}else{} "
         "o=o+4; if(o>3){break;}else{} return o;}", [(0, 2, 4)]),
        # lists: 1 the loop body, 6 the then-branch `break; break;`
        ("// mode: extended\nint main(int x){int o; o=0; for(i<size(x)){ "
         "if(i==2){continue;}else{} o=o+1; if(i==2){continue;}else{} "
         "if(i==5){break; break;}else{} o=o+2; if(i==5){break; break;}else{} } "
         "return o;}", [(6, 0, 1), (1, 0, 2), (1, 3, 5)]),
        ("// mode: extended\nint main(int x){int o; o=x; int f(int a){return o+a;} "
         "o=o+1; int f(int a){return o+a;} int r; r=f(x); return r;}",
         [(0, 2, 4)]),
    ], ids=["decl-between", "decl", "escaping-break", "break-continue", "fundef"])
    def test_handwritten_repeats(self, src, moves):
        mode = "extended" if src.startswith("//") else "core"
        shared, copied = self.repeat(src, mode, *moves)
        assert shared == copied
        lists = statement_lists(shared)
        assert all(lists[k][i] is lists[k][j] for k, i, j in moves)
        self.assert_same_runs(shared, copied, [[0], [1], [2], [6], [300]])


# -- the operator table: one case per row ------------------------------------

INTS = [-7, -2, -1, 0, 1, 2, 7, 2 ** 70 + 3]
VALUE_TYPE = {int: INT, bool: BOOL, str: STRING}
BOOLS = [False, True]
STRS = ["", "0", "110"]


def pairs(*domains):
    return [p for d in domains for p in itertools.product(d, repeat=2)]


def singles(*domains):
    return [(v,) for d in domains for v in d]


def trunc_div(a, b):
    """Division truncating toward zero; a zero divisor yields 0."""
    if b == 0:
        return 0
    q = a // b
    return q + 1 if q < 0 and q * b != a else q


def bit_size(v):
    if isinstance(v, str):
        return len(v)
    return len(format(abs(v), "b")) if v else 0


# (lexeme, arity) -> (oracle, argument tuples); rows that evaluate only
ORACLES = {
    ("||", 2): (lambda a, b: a or b, pairs(BOOLS)),
    ("&&", 2): (lambda a, b: a and b, pairs(BOOLS)),
    ("==", 2): (lambda a, b: a == b, pairs(INTS, BOOLS, STRS)),
    ("!=", 2): (lambda a, b: a != b, pairs(INTS, BOOLS, STRS)),
    ("<", 2): (lambda a, b: a < b, pairs(INTS)),
    ("<=", 2): (lambda a, b: a <= b, pairs(INTS)),
    (">", 2): (lambda a, b: a > b, pairs(INTS)),
    (">=", 2): (lambda a, b: a >= b, pairs(INTS)),
    ("+", 2): (lambda a, b: a + b, pairs(INTS)),
    ("-", 2): (lambda a, b: a - b, pairs(INTS)),
    ("/", 2): (trunc_div, pairs(INTS)),
    ("%", 2): (lambda a, b: a - b * trunc_div(a, b) if b else 0, pairs(INTS)),
    ("!", 1): (lambda a: not a, singles(BOOLS)),
    ("-", 1): (lambda a: 0 - a, singles(INTS)),
    ("size", 1): (bit_size, singles(INTS, STRS)),
    ("min", 2): (lambda a, b: sorted([a, b])[0], pairs(INTS)),
    ("max", 2): (lambda a, b: sorted([a, b])[1], pairs(INTS)),
    ("concat", 2): (lambda a, b: a + b, pairs(STRS)),
}

# (lexeme, arity) -> [(operand types, core result, extended result)]
_BOOL_SIG = [((BOOL, BOOL), BOOL, BOOL), ((BOOL, INT), None, None)]
_EQ_SIG = [((IINT, INT), BOOL, BOOL), ((STRING, ISTRING), None, BOOL),
           ((BOOL, BOOL), None, BOOL), ((INT, BOOL), None, None)]
_CMP_SIG = [((IINT, INT), BOOL, BOOL), ((STRING, STRING), None, None),
            ((BOOL, BOOL), None, None)]
_ARITH_SIG = [((IINT, IINT), IINT, IINT), ((IINT, INT), INT, INT),
              ((INT, BOOL), None, None)]
_MINMAX_SIG = [((IINT, IINT), None, IINT), ((INT, IINT), None, INT),
               ((STRING, STRING), None, None)]
SIGNATURES = {
    ("||", 2): _BOOL_SIG,
    ("&&", 2): _BOOL_SIG,
    ("==", 2): _EQ_SIG,
    ("!=", 2): _EQ_SIG,
    ("<", 2): _CMP_SIG,
    ("<=", 2): _CMP_SIG,
    (">", 2): _CMP_SIG,
    (">=", 2): _CMP_SIG,
    ("+", 2): _ARITH_SIG,
    ("-", 2): _ARITH_SIG,
    ("*", 2): [((INT, INT), None, None)],
    ("/", 2): _ARITH_SIG,
    ("%", 2): _ARITH_SIG,
    ("!", 1): [((BOOL,), BOOL, BOOL), ((INT,), None, None)],
    ("-", 1): [((IINT,), IINT, IINT), ((INT,), INT, INT), ((BOOL,), None, None)],
    ("size", 1): [((IINT,), IINT, IINT), ((INT,), None, None),
                  ((ISTRING,), None, IINT), ((STRING,), None, None)],
    ("min", 2): _MINMAX_SIG,
    ("max", 2): _MINMAX_SIG,
    ("concat", 2): [((STRING, ISTRING), None, STRING),
                    ((ISTRING, ISTRING), None, STRING),
                    ((STRING, STRING), None, None)],
}

# the binary precedence levels of the grammar, loosest first
GRAMMAR_LEVELS = [["||"], ["&&"], ["==", "!="], ["<", "<=", ">", ">="],
                  ["+", "-"], ["*", "/", "%"]]
LEVEL_OF = {op: lv for lv, ops in enumerate(GRAMMAR_LEVELS) for op in ops}


def row_id(row):
    return f"{row.lexeme}/{row.arity}"


def strip_parens(e):
    if isinstance(e, Paren):
        return strip_parens(e.inner)
    if isinstance(e, OpApp):
        return OpApp(e.op, [strip_parens(a) for a in e.args])
    return e


class TestOperatorTable:
    def test_every_row_has_a_case(self):
        keys = {(row.lexeme, row.arity) for row in TABLE}
        assert set(SIGNATURES) == keys
        assert set(ORACLES) == {k for k in keys if OPS[k].fn is not None}
        assert PRECEDENCE == LEVEL_OF

    @pytest.mark.parametrize("row", TABLE, ids=row_id)
    def test_evaluation_agrees_with_oracle(self, row):
        names = ["a", "b"][:row.arity]
        args = [Var(n) for n in names]
        # builtins are called by name; the others are operator applications
        expr = Call(row.lexeme, args) if row.extended else OpApp(row.lexeme, args)
        if row.fn is None:  # the parser lowers `*`, which never runs
            with pytest.raises(InternalError):
                apply_op(row.lexeme, [2, 3])
            with pytest.raises(InternalError):
                run_program(Program([(INT, n) for n in names], [], expr),
                            [2, 3][:row.arity])
            return
        # builtins are bound in extended mode; the operands are parameters
        mode = "extended" if row.extended else "core"
        oracle, cases = ORACLES[row.lexeme, row.arity]
        for vals in cases:
            want = oracle(*vals)
            got = apply_op(row.lexeme, list(vals))
            assert (got, type(got)) == (want, type(want)), vals
            prog = Program([(VALUE_TYPE[type(v)], n)
                            for n, v in zip(names, vals)], [], expr)
            got = run_program(prog, list(vals), mode=mode).output
            assert (got, type(got)) == (want, type(want)), vals
            cost = run_program(prog, list(vals), cost_mode=True, mode=mode)
            assert cost.output == want, vals
            # one step per operand read and one for the operator itself
            assert cost.ic == row.arity + 1
            rule = "App" if row.extended else "Op"
            assert cost.rule_counts == {"Var": row.arity, rule: 1, "Prog": 1}

    @pytest.mark.parametrize("row", TABLE, ids=row_id)
    def test_signature(self, row):
        for types, core, extended in SIGNATURES[row.lexeme, row.arity]:
            assert op_signature(row.lexeme, list(types)) is core, types
            assert op_signature(row.lexeme, list(types), extended=True) \
                is extended, types

    @pytest.mark.parametrize("op1", LEVEL_OF)
    def test_precedence_pairs_round_trip(self, op1):
        a, b, c = Var("a"), Var("b"), Var("c")
        for op2 in LEVEL_OF:
            src = f"a{op1}b{op2}c"
            left = OpApp(op2, [OpApp(op1, [a, b]), c])
            right = OpApp(op1, [a, OpApp(op2, [b, c])])
            parsed = expr_of(src)
            # equal levels associate to the left
            assert parsed == (left if LEVEL_OF[op1] >= LEVEL_OF[op2] else right)
            assert expr_str(parsed) == src
            # trees without Paren nodes print with the parentheses they need
            for tree in (left, right):
                assert strip_parens(expr_of(expr_str(tree))) == tree, src
