import pytest

from conftest import compile_src, load

from polyc import check_program
from polyc.ast import (
    ArrayT, Assign, Const, Decl, Index, Paren, Pos, Program, Var,
    BOOL, IINT, INT, ISTRING, STRING, is_iterable_type,
)
from polyc.typecheck import (
    asg_predicate, const_type, initial_env, op_signature, sup_type,
    type_equiv,
)


class TestAuxiliary:
    def test_const_type(self):
        assert const_type("42") is IINT
        assert const_type("true") is BOOL
        assert const_type("false") is BOOL
        assert const_type("0b101") is IINT
        assert const_type('"abc"') is ISTRING

    def test_sup_type(self):
        assert sup_type([IINT, IINT]) is IINT
        assert sup_type([IINT, INT]) is INT
        assert sup_type([INT]) is INT
        with pytest.raises(ValueError):
            sup_type([BOOL])

    def test_type_equiv(self):
        assert type_equiv(IINT, INT)
        assert not type_equiv(INT, BOOL)
        assert type_equiv(BOOL, BOOL)
        assert type_equiv(STRING, ISTRING)

    def test_asg_predicate(self):
        assert asg_predicate(True, IINT) is False
        assert asg_predicate(True, INT) is True
        assert asg_predicate(False, IINT) is True
        assert asg_predicate(True, ISTRING) is False
        assert asg_predicate(True, BOOL) is True

    def test_op_signature_core(self):
        assert op_signature("+", [IINT, INT]) is INT
        assert op_signature("+", [IINT, IINT]) is IINT
        assert op_signature("==", [IINT, INT]) is BOOL
        assert op_signature("size", [IINT]) is IINT
        assert op_signature("size", [INT]) is None
        assert op_signature("&&", [BOOL, BOOL]) is BOOL
        assert op_signature("&&", [IINT, BOOL]) is None
        assert op_signature("-", [INT]) is INT
        assert op_signature("!", [BOOL]) is BOOL

    def test_op_signature_extended(self):
        assert op_signature("size", [ISTRING], extended=True) is IINT
        assert op_signature("size", [ISTRING]) is None
        assert op_signature("concat", [STRING, ISTRING], extended=True) is STRING
        assert op_signature("concat", [ISTRING, ISTRING], extended=True) is STRING
        assert op_signature("concat", [STRING, STRING], extended=True) is None
        assert op_signature("==", [ISTRING, STRING], extended=True) is BOOL
        assert op_signature("min", [IINT, IINT], extended=True) is IINT
        assert op_signature("max", [INT, IINT], extended=True) is INT

    def test_package_exports_resolve(self):
        import polyc

        assert "TypingEnv" not in polyc.__all__
        for name in polyc.__all__:
            assert getattr(polyc, name) is not None, name


def errors_of(src, mode="core"):
    return check_program(compile_src(src, mode), mode).errors


def kinds_of(src, mode="core"):
    return [d.kind for d in errors_of(src, mode)]


class TestExprJudgments:
    def test_int_plus_int(self):
        assert errors_of("int main(int x){x=x+x; return x;}") == []

    def test_size_of_iterable(self):
        assert errors_of(
            "int main(){iint z; int s; s=size(z); return s;}") == []

    def test_unbound_variable(self):
        assert kinds_of("int main(){return y;}") == ["unbound-variable"]


class TestOperatorChains:
    """A left-nested chain of one operator is checked in one loop; its
    diagnostics, their order and positions are those of the recursion."""

    @pytest.mark.parametrize("body, want", [
        ("bool b; int o; o=x+x+b+x+x;",
         [("operand-type-mismatch", "operator '+' not defined on (int,bool)",
           "1:37", ("b", "x"))]),
        ("bool b; int o; o=b+x+(b+x)+y+b;",
         [("operand-type-mismatch", "operator '+' not defined on (bool,int)",
           "1:35", ("b", "x")),
          ("operand-type-mismatch", "operator '+' not defined on (bool,int)",
           "1:40", ("b", "x")),
          ("unbound-variable", "variable 'y' is not declared", "1:44",
           ("y",))]),
        ("bool b; b=x<x<x;",
         [("operand-type-mismatch", "operator '<' not defined on (bool,int)",
           "1:30", ("x",))]),
        ("int o; o=(x+x)+(x+z)+w+4*x;",
         [("unbound-variable", "variable 'z' is not declared", "1:35",
           ("z",)),
          ("unbound-variable", "variable 'w' is not declared", "1:38",
           ("w",))]),
    ])
    def test_diagnostics(self, body, want):
        errs = errors_of(f"int main(int x){{{body} return x;}}")
        assert [(d.kind, d.message, str(d.pos), d.names)
                for d in errs] == want

    def test_long_chain(self):
        assert errors_of("int main(int x){int o; o=65536*x; return o;}") == []
        errs = errors_of("int main(int x){bool b; int o; o=3000*x+b; "
                         "return o;}")
        assert [d.message for d in errs] == [
            "operator '+' not defined on (int,bool)"]


class TestStmtJudgments:
    def test_assign_int_in_loop_ok(self):
        src = "int main(int x){iint z; for(i<size(z)) x=x+x; return x;}"
        assert errors_of(src) == []

    def test_assign_iterable_in_loop_rejected(self):
        src = "int main(){iint z; iint x; for(i<size(z)) x=x+x; return x;}"
        assert kinds_of(src) == ["iterable-assignment-in-loop"]

    def test_declare_iterable_in_loop_rejected(self):
        src = "int main(){iint z; for(i<size(z)) {iint w;} return 0;}"
        assert kinds_of(src) == ["iterable-decl-in-loop"]

    def test_non_iterable_loop_bound(self):
        src = "int main(int x){for(i<size(x)) {} return 0;}"
        assert kinds_of(src) == ["non-iterable-loop-bound"]

    def test_iterable_assignment_outside_loop_ok(self):
        assert errors_of("int main(int x){iint z; z=x; return z;}") == []

    def test_assignment_class_mismatch(self):
        assert kinds_of("int main(int x){x=true; return x;}") == [
            "operand-type-mismatch"]

    def test_guard_must_be_bool(self):
        assert kinds_of("int main(int x){if(x){} else {} return x;}") == [
            "operand-type-mismatch"]

    def test_redeclaration(self):
        assert kinds_of("int main(){int a; int a; return 0;}") == [
            "redeclaration"]

    def test_counter_shadowing_rejected(self):
        src = "int main(){iint z; int i; for(i<size(z)) {} return 0;}"
        assert kinds_of(src) == ["redeclaration"]

    def test_sequential_counter_reuse_ok(self):
        src = ("int main(){iint z; for(i<size(z)) {} for(i<size(z)) {} "
               "return 0;}")
        assert errors_of(src) == []

    def test_nested_counter_reuse_rejected(self):
        src = ("int main(){iint z; for(i<size(z)) {for(i<size(z)) {}} "
               "return 0;}")
        assert kinds_of(src) == ["redeclaration"]

    def test_block_scoping(self):
        src = "int main(){ {int a; a=1;} int a; return a;}"
        assert errors_of(src) == []
        src2 = "int main(){ {int a;} return a;}"
        assert kinds_of(src2) == ["unbound-variable"]

    def test_counter_readable_inside_body(self):
        src = ("int main(int x){iint z; for(i<size(z)) x=x+i; return x;}")
        assert errors_of(src) == []

    def test_counter_gone_after_loop(self):
        src = "int main(){iint z; for(i<size(z)) {} return i;}"
        assert kinds_of(src) == ["unbound-variable"]


class TestProgramJudgments:
    def test_fastmul_accepted(self):
        prog, mode = load("fastmul.pc")
        res = check_program(prog, mode)
        assert res.ok and res.type is INT

    def test_badmul_rejected_with_both_kinds(self):
        prog, mode = load("badmul.pc")
        res = check_program(prog, mode)
        got = {d.kind for d in res.errors}
        assert got == {"non-iterable-loop-bound", "iterable-assignment-in-loop"}
        by_kind = {d.kind: d for d in res.errors}
        assert by_kind["iterable-assignment-in-loop"].names == ("o",)
        assert "y" in by_kind["non-iterable-loop-bound"].names

    def test_empty_program(self):
        assert errors_of("int main(){return 0;}") == []

    def test_bool_return_rejected(self):
        assert kinds_of("int main(){return true;}") == ["bad-return-type"]

    def test_checking_is_deterministic(self):
        prog, mode = load("badmul.pc")
        a = check_program(prog, mode).errors
        b = check_program(prog, mode).errors
        assert a == b

    def test_multiple_diagnostics_collected(self):
        src = ("int main(){iint z; iint a; iint b; "
               "for(i<size(z)) {a=a+1; b=b+1;} return 0;}")
        assert kinds_of(src) == ["iterable-assignment-in-loop"] * 2


class TestExtendedJudgments:
    def test_function_and_call(self):
        src = ("// mode: extended\n"
               "int main(int x){int inc(int a){return a+1;} return inc(x);}")
        assert errors_of(src, "extended") == []

    def test_recursion_impossible(self):
        src = ("// mode: extended\n"
               "int main(){int f(int a){return f(a);} return 0;}")
        assert kinds_of(src, "extended") == ["recursion-attempt"]

    def test_arity_mismatch(self):
        src = ("// mode: extended\n"
               "int main(){int f(int a){return a;} return f(1,2);}")
        assert kinds_of(src, "extended") == ["arity-mismatch"]

    def test_iterable_arg_for_int_param_ok(self):
        src = ("// mode: extended\n"
               "int main(){iint z; int f(int a){return a;} return f(z);}")
        assert errors_of(src, "extended") == []

    def test_int_arg_for_iterable_param_rejected(self):
        src = ("// mode: extended\n"
               "int main(int x){int f(iint a){return size(a);} return f(x);}")
        assert kinds_of(src, "extended") == ["param-subtype-violation"]

    def test_function_body_checked_as_loop(self):
        src = ("// mode: extended\n"
               "int main(){int f(int a){iint w; return a;} return 0;}")
        assert kinds_of(src, "extended") == ["iterable-decl-in-loop"]

    def test_misplaced_break(self):
        src = "// mode: extended\nint main(){break; return 0;}"
        assert kinds_of(src, "extended") == ["misplaced-break"]

    @pytest.mark.parametrize("body", [
        "int f(int a){break; return a;}",
        "void f(){continue;}",
        "iint z; for(i<size(z)) {int f(int a){break; return a;}}",
    ])
    def test_jump_at_function_top_level_is_misplaced(self, body):
        # a function body sets the loop indicator but is not inside a loop
        src = f"// mode: extended\nint main(int x){{{body} return x;}}"
        assert kinds_of(src, "extended") == ["misplaced-break"]

    def test_break_inside_loop_ok(self):
        src = ("// mode: extended\n"
               "int main(){iint z; for(i<size(z)) {break;} return 0;}")
        assert errors_of(src, "extended") == []

    def test_array_element_assignment_in_loop(self):
        src = ("// mode: extended\n"
               "int main(iint n){array<int> a; a=array(size(n)); "
               "for(i<size(n)) a[i]=i; return a[0];}")
        assert errors_of(src, "extended") == []

    def test_istring_is_iterable_for_asg(self):
        src = ("// mode: extended\n"
               'int main(istring s){iint z; for(i<size(z)) {s=s;} return 0;}')
        assert kinds_of(src, "extended") == ["iterable-assignment-in-loop"]

    def test_string_indexing_and_equality(self):
        src = ("// mode: extended\n"
               'int main(istring s){int r; r=0; '
               'if(s[0]=="1"){r=1;} else {} return r;}')
        assert errors_of(src, "extended") == []

    def test_size_operand_guard_holds_on_accepted_programs(self):
        for name in ["fastmul.pc", "knapsack.pc", "path.pc", "sort.pc"]:
            prog, mode = load(name)
            assert check_program(prog, mode).ok

    def test_builtin_shadowing(self):
        src = ("// mode: extended\n"
               "int main(){int min(int a,int b){return a;} return min(9,1);}")
        assert errors_of(src, "extended") == []

    def test_builtins_prebound(self):
        env = initial_env("extended")
        assert "min" in env and "max" in env and "concat" in env
        assert "min" not in initial_env("core")


_ELEM = ("cannot assign to an iterable element of {!r} inside a loop or "
         "function body")


def pinned(errs):
    return [(d.kind, d.message, str(d.pos), d.names) for d in errs]


class TestElementWrites:
    """Asg judges a write on the type it writes as well as on the target
    variable's own type: an iterable array element is an iterable variable."""

    def test_doubling_an_iterable_element_in_a_loop_rejected(self):
        errs = errors_of(
            "int main(iint n){ array<iint> a; a=array(1); a[0]=n; "
            "for(i<size(n)){ for(j<size(a[0])) { a[0]=a[0]+a[0]; } } "
            "return size(a[0]); }", "extended")
        assert pinned(errs) == [("iterable-assignment-in-loop",
                                 _ELEM.format("a"), "1:94", ("a",))]
        assert [s[:2] for s in errs[0].sites] == [("decl", "a")]

    def test_istring_element_in_loop_rejected(self):
        errs = errors_of(
            'int main(iint n){ array<istring> a; a=array(1); '
            'for(i<size(n)) { a[0]="x"; } return 0; }', "extended")
        assert pinned(errs) == [("iterable-assignment-in-loop",
                                 _ELEM.format("a"), "1:70", ("a",))]

    def test_iterable_parameter_element_in_function_body_rejected(self):
        errs = errors_of("int main(){ int f(array<iint> p){ p[0]=1; return 0; } "
                         "return 0; }", "extended")
        assert pinned(errs) == [("iterable-assignment-in-loop",
                                 _ELEM.format("p"), "1:39", ("p",))]
        assert [s[:3] for s in errs[0].sites] == [("param", "f", 0)]

    def test_only_the_iterable_element_type_is_rejected(self):
        head = ("int main(iint n){ array<array<iint>> a; a=array(1); "
                "for(i<size(n)) { ")
        assert errors_of(head + "a[0]=array(1); } return 0; }",
                         "extended") == []
        assert pinned(errors_of(head + "a[0][0]=n; } return 0; }",
                                "extended")) == [
            ("iterable-assignment-in-loop", _ELEM.format("a"), "1:77",
             ("a",))]

    def test_iterable_element_written_outside_loops_ok(self):
        src = ("int main(iint n){ array<iint> a; a=array(1); a[0]=n; "
               "int o; o=0; for(j<size(a[0])) { o=o+1; } return o; }")
        assert errors_of(src, "extended") == []


class TestScopes:
    """What a block, an if branch, a loop body and a function body bind is
    dropped at their end, and what they hid comes back."""

    def test_branch_declaration_invisible_in_other_branch(self):
        assert pinned(errors_of(
            "int main(){if(true) int a; else a=1; return 0;}")) == [
            ("unbound-variable", "assignment to undeclared variable 'a'",
             "1:34", ("a",))]
        assert pinned(errors_of(
            "int main(){if(true) {int a;} else {a=1;} return 0;}")) == [
            ("unbound-variable", "assignment to undeclared variable 'a'",
             "1:37", ("a",))]
        assert kinds_of("int main(){if(true) {} else int a; a=1; return 0;}") \
            == ["unbound-variable"]
        assert kinds_of("int main(){iint z; for(i<size(z)) int a; a=1; "
                        "return 0;}") == ["unbound-variable"]

    def test_block_shadowing_restores_outer_binding(self):
        redecl = ("redeclaration", "variable 'x' already declared", "1:26",
                  ("x",))
        assert pinned(errors_of(
            "int main(){int x; { bool x; } x=1; return x;}")) == [redecl]
        assert pinned(errors_of(
            "int main(){int x; { bool x; } x=true; return x;}")) == [
            redecl, ("operand-type-mismatch",
                     "cannot assign bool to 'x' of type int", "1:32", ("x",))]

    def test_function_locals_invisible_after_definition(self):
        assert pinned(errors_of(
            "int main(){int f(int p){int q; q=p; return q;} p=1; q=1; "
            "return f(1);}", "extended")) == [
            ("unbound-variable", "assignment to undeclared variable 'p'",
             "1:49", ("p",)),
            ("unbound-variable", "assignment to undeclared variable 'q'",
             "1:54", ("q",))]


_F = "int f(int a){return a;} "
_G = "int f(iint a, iint b){return a;} "
_PSV = "argument {} of 'f' must be iint, got non-iterable int"
_OWN = "cannot assign to iterable variable {!r} inside a loop or function body"
_CTOR = ("array constructor is only allowed as the right-hand side of an "
         "assignment to an array variable")


def _paren_target():
    """`(o) = y;`, which the parser cannot produce."""
    return Program([], [Decl(INT, "o", Pos(1, 12)),
                        Assign(Paren(Var("o")), Var("y"), Pos(1, 19))],
                   Const("0"))


def _paren_indexed_target():
    """`(a)[true] = y;`, which the parser cannot produce."""
    target = Index(Paren(Var("a")), Const("true"), Pos(1, 20))
    return Program([], [Decl(ArrayT(INT), "a", Pos(1, 12)),
                        Assign(target, Var("y"), Pos(1, 25))], Const("0"))


def _bool_main_param_twice():
    """`int main(bool b, int b)` checked in core mode, which the core
    parser rejects before the checker sees it."""
    return Program([(BOOL, "b"), (INT, "b")], [], Const("0"), Pos(1, 1))


class TestPinnedDiagnostics:
    """Each diagnostic of an assignment, an index, a call, a function
    definition and the program's parameters: kind, message, position and
    names, in the order they are reported."""

    @pytest.mark.parametrize("src, mode, want", [
        ("int main(){" + _F + "int o; o=f; return 0;}", "extended",
         [("operand-type-mismatch", "function 'f' used as a value", "1:45",
           ("f",))]),
        ("int main(){" + _F + "f=1; return 0;}", "extended",
         [("operand-type-mismatch", "cannot assign to function 'f'", "1:37",
           ("f",))]),
        ("int main(){min=y; return 0;}", "extended",
         [("operand-type-mismatch", "cannot assign to function 'min'",
           "1:15", ("min",)),
          ("unbound-variable", "variable 'y' is not declared", "1:16",
           ("y",))]),
        ("int main(){array<int> a; int o; o=a[true]; return 0;}", "extended",
         [("operand-type-mismatch", "index must be an integer", "1:36", ())]),
        ("int main(){array<int> a; a[true]=1; return 0;}", "extended",
         [("operand-type-mismatch", "index must be an integer", "1:27", ())]),
        ("int main(){b[0]=1; return 0;}", "extended",
         [("unbound-variable", "assignment to undeclared variable 'b'",
           "1:16", ("b",))]),
        ("int main(){b[true]=array(true); return 0;}", "extended",
         [("operand-type-mismatch", "index must be an integer", "1:13", ()),
          ("unbound-variable", "assignment to undeclared variable 'b'",
           "1:19", ("b",)),
          ("operand-type-mismatch", "array length must be an integer",
           "1:20", ())]),
        ("int main(){q=y; return 0;}", "extended",
         [("unbound-variable", "assignment to undeclared variable 'q'",
           "1:13", ("q",)),
          ("unbound-variable", "variable 'y' is not declared", "1:14",
           ("y",))]),
        ('int main(istring s){iint z; for(i<size(z)) {s[0]="a";} return 0;}',
         "extended",
         [("iterable-assignment-in-loop", _OWN.format("s"), "1:49", ("s",)),
          ("operand-type-mismatch",
           "strings are immutable, cannot assign to an index", "1:49",
           ("s",))]),
        ("int main(){iint z; for(i<size(z)) {z=true;} return 0;}", "core",
         [("iterable-assignment-in-loop", _OWN.format("z"), "1:37", ("z",)),
          ("operand-type-mismatch", "cannot assign bool to 'z' of type iint",
           "1:37", ("z",))]),
        ("int main(){int o; o[y]=z; return 0;}", "extended",
         [("unbound-variable", "variable 'y' is not declared", "1:21",
           ("y",)),
          ("operand-type-mismatch", "cannot index into int", "1:23",
           ("o",)),
          ("unbound-variable", "variable 'z' is not declared", "1:24",
           ("z",))]),
        ("int main(){" + _F + "f[0]=1; return 0;}", "extended",
         [("operand-type-mismatch", "cannot index into (int)->int", "1:40",
           ("f",))]),
        ("int main(){min[0]=1; return 0;}", "extended",
         [("operand-type-mismatch", "cannot index into <builtin min>",
           "1:18", ("min",))]),
        ("int main(){array<int> a; a[y][true]=z; return 0;}", "extended",
         [("operand-type-mismatch", "index must be an integer", "1:30", ()),
          ("unbound-variable", "variable 'y' is not declared", "1:28",
           ("y",)),
          ("operand-type-mismatch", "cannot index into int", "1:36",
           ("a",)),
          ("unbound-variable", "variable 'z' is not declared", "1:37",
           ("z",))]),
        ("int main(){int o; o=o[0]; return 0;}", "extended",
         [("operand-type-mismatch", "cannot index into int", "1:22", ())]),
        ("int main(){array<int> a; a[0]=true; return 0;}", "extended",
         [("operand-type-mismatch",
           "cannot assign bool to element of type int", "1:30", ("a",))]),
        ("int main(){array<array<int>> a; a[0][1]=true; return 0;}",
         "extended",
         [("operand-type-mismatch",
           "cannot assign bool to element of type int", "1:40", ("a",))]),
        ("int main(){array<int> a; int o; o=1+array(2); return 0;}",
         "extended",
         [("operand-type-mismatch", _CTOR, "1:37", ())]),
        ("int main(){array<int> a; a=array(true); return 0;}", "extended",
         [("operand-type-mismatch", "array length must be an integer",
           "1:28", ())]),
        ("int main(){int o; o=array(2); return 0;}", "extended",
         [("operand-type-mismatch",
           "array constructor assigned to non-array type int", "1:21", ())]),
        ("int main(){q=array(true); return 0;}", "extended",
         [("unbound-variable", "assignment to undeclared variable 'q'",
           "1:13", ("q",)),
          ("operand-type-mismatch", "array length must be an integer",
           "1:14", ())]),
        ("int main(){int o; o=min(true,1); return 0;}", "extended",
         [("operand-type-mismatch", "builtin 'min' not defined on (bool,iint)",
           "1:21", ())]),
        ("int main(){int o; o=g(1); return 0;}", "extended",
         [("unbound-variable", "function 'g' is not defined", "1:21",
           ("g",))]),
        ("int main(){int o; o=o(1); return 0;}", "extended",
         [("operand-type-mismatch", "'o' is not a function", "1:21",
           ("o",))]),
        ("int main(){" + _F + "int o; o=f(1,2); return 0;}", "extended",
         [("arity-mismatch", "'f' expects 1 arguments, got 2", "1:45",
           ("f",))]),
        ("int main(){" + _F + "int o; o=f(true); return 0;}", "extended",
         [("operand-type-mismatch", "argument 1 of 'f' must be int, got bool",
           "1:45", ("f",))]),
        ("int main(){" + _F + "int f(int b){return b;} return 0;}", "extended",
         [("redeclaration", "function name 'f' already bound", "1:36",
           ("f",))]),
        ("int main(){int g(int a, bool a){return 1;} return 0;}", "extended",
         [("redeclaration", "duplicate parameter 'a' in function 'g'",
           "1:12", ("a",))]),
        ("int main(){bool g(int a){return a;} return 0;}", "extended",
         [("bad-return-type",
           "function 'g' declares return type bool but returns int", "1:12",
           ("g",))]),
        ("int main(int x, int x){return x;}", "core",
         [("redeclaration", "duplicate parameter 'x'", "1:1", ("x",))]),
        (_bool_main_param_twice, "core",
         [("operand-type-mismatch", "main parameters must be int in core mode",
           "1:1", ("b",)),
          ("redeclaration", "duplicate parameter 'b'", "1:1", ("b",))]),
        (_paren_target, "core",
         [("operand-type-mismatch",
           "assignment target must be a variable or an index chain", "1:19",
           ()),
          # the helper builds y without a position
          ("unbound-variable", "variable 'y' is not declared", "0:0",
           ("y",))]),
        (_paren_indexed_target, "extended",
         [("operand-type-mismatch", "index must be an integer", "1:20", ()),
          ("operand-type-mismatch", "assignment target must be a variable or "
           "an index chain over a variable", "1:25", ()),
          ("unbound-variable", "variable 'y' is not declared", "0:0",
           ("y",))]),
        # every argument is judged, and a call nested in an argument too
        ("int main(int x){" + _G + "int o; o=f(x, x); return 0;}", "extended",
         [("param-subtype-violation", _PSV.format(1), "1:59", ("f",)),
          ("param-subtype-violation", _PSV.format(2), "1:59", ("f",))]),
        ("int main(int x){" + _G + "int o; o=f(f(1, x), 1); return 0;}",
         "extended",
         [("param-subtype-violation", _PSV.format(2), "1:61", ("f",)),
          ("param-subtype-violation", _PSV.format(1), "1:59", ("f",))]),
        # an argument only not iterable enough keeps the call's type; one of
        # the wrong class leaves the call untyped
        ("int main(int x){" + _G + "bool o; o=f(x, 1); return 0;}", "extended",
         [("param-subtype-violation", _PSV.format(1), "1:60", ("f",)),
          ("operand-type-mismatch", "cannot assign int to 'o' of type bool",
           "1:59", ("o",))]),
        ("int main(int x){" + _G + "bool o; o=f(x, true); return 0;}",
         "extended",
         [("param-subtype-violation", _PSV.format(1), "1:60", ("f",)),
          ("operand-type-mismatch", "argument 2 of 'f' must be iint, got bool",
           "1:60", ("f",))]),
    ])
    def test_diagnostics(self, src, mode, want):
        prog = compile_src(src, mode) if isinstance(src, str) else src()
        assert [(d.kind, d.message, str(d.pos), d.names)
                for d in check_program(prog, mode).errors] == want


class TestEnvMonotonicity:
    def test_domains_grow_along_sequences(self):
        import fuzzgen
        from polyc.typecheck import Checker

        for seed in range(40):
            prog = fuzzgen.gen_program(seed)
            checker = Checker("core")
            for i, (t, n) in enumerate(prog.params):
                checker.bind(n, t, None)
            env = checker.env
            dom = set(env)
            for s in prog.body:
                checker.stmt(False, s)
                assert dom <= set(env)
                for name in dom:
                    assert checker.lookup(name) is not None
                dom = set(env)
            assert not checker.errors


class TestIterableDomainPreservation:
    def test_no_accepted_loop_body_declares_iterables(self):
        # item 1 of the loop invariant: checking with the indicator set
        # cannot extend the iterable domain
        import fuzzgen
        from polyc.ast import Decl, For, walk_stmts
        from polyc.ast import IINT, ISTRING

        for seed in range(60):
            prog = fuzzgen.gen_program(seed)
            assert check_program(prog, "core").ok
            for s in walk_stmts(prog.body):
                if isinstance(s, For):
                    for inner in walk_stmts([s.body]):
                        if isinstance(inner, Decl):
                            assert inner.annot not in (IINT, ISTRING)

    def test_checked_with_indicator_preserves_iterable_domain(self):
        from polyc.typecheck import Checker

        def iterable_domain(env):
            return {n for n, (t, _) in env.items() if is_iterable_type(t)}

        checker = Checker("core")
        checker.bind("z", IINT, None)
        checker.bind("a", INT, None)
        before = iterable_domain(checker.env)
        checker.stmt(True, compile_src(
            "int main(){int b; b=1; return b;}").body[0])
        assert not checker.errors
        assert iterable_domain(checker.env) == before == {"z"}


class TestOneLoadedTree:
    """The checker writes each `array(n)` element type into the loaded tree
    itself; checking that tree again, and running it, sees the same."""

    SOURCE = """// mode: extended
int main(int x) {
    array<array<int>> a;
    a = array(2);
    a[1] = array(3);
    a[1][2] = x;
    a[1][0] += a[1][2] + 1;
    return a[1][0];
}
"""

    def test_check_twice_then_run(self):
        from polyc import load_program, run_program
        from polyc.ast import ArrayCtor, walk

        prog, mode = load_program(self.SOURCE)
        ctors = [n for n in walk(prog.body) if isinstance(n, ArrayCtor)]
        assert [c.elem for c in ctors] == [None, None]
        first = check_program(prog, mode)
        elems = [c.elem for c in ctors]
        assert first.ok and elems == [ArrayT(INT), INT]
        second = check_program(prog, mode)
        assert second == first and [c.elem for c in ctors] == elems
        runs = [run_program(prog, [5], mode=mode, cost_mode=True)
                for _ in range(2)]
        assert [r.output for r in runs] == [6, 6]
        assert runs[0].ic == runs[1].ic
