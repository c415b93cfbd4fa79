import decimal
import errno
import functools
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import CORPUS, corpus_source, doubling_calls

from polyc import parse_source
from polyc import cli
from polyc.cli import build_parser, main
from polyc.errors import ParseError
from polyc.parser import MAX_NESTING
from polyc.tm import MAX_DEGREE


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def corpus(name):
    return str(CORPUS / name)


NESTED = {
    "parentheses": lambda n: "int main(int x){return " + "(" * n + "x"
    + ")" * n + ";}",
    "ifs": lambda n: "int main(int x){" + "if(x>0){" * n + "x=1;"
    + "}else{x=2;}" * n + " return x;}",
}


@functools.cache
def deepest(shape):
    """The largest n for which NESTED[shape](n) parses."""
    n = 1
    while True:
        try:
            parse_source(NESTED[shape](n + 1))
        except ParseError:
            return n
        n += 1


class TestRun:
    def test_fastmul(self, capsys):
        code, out, _ = run_cli(capsys, "run", corpus("fastmul.pc"), "6", "7")
        assert code == 0 and out.strip() == "42"

    def test_type_error_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "run", corpus("badmul.pc"), "6", "7")
        assert code == 1
        assert "iterable-assignment-in-loop" in err
        assert "non-iterable-loop-bound" in err

    def test_usage_error_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "run", corpus("fastmul.pc"), "6")
        assert code == 3 and "expects 2 arguments" in err

    def test_bad_literal_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "run", corpus("fastmul.pc"), "6", "seven")
        assert code == 3
        # arguments use the language's numerals, not Python's int()
        for arg in ["1_0", "\u0663", "0b1_1"]:
            code, _, err = run_cli(capsys, "run", corpus("fastmul.pc"), arg, "3")
            assert code == 3
            assert err.strip() == (
                f"argument 'x': expected an integer literal, got {arg!r}")

    def test_missing_file_exit_3(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "run", "no_such_file.pc", "1")
        assert code == 3
        code, _, err = run_cli(capsys, "compile-tm", "no_such_file.tm")
        assert code == 3
        assert err.startswith("cannot read no_such_file.tm")
        bad = tmp_path / "bad.pc"
        bad.write_bytes(b"\xff")
        code, _, err = run_cli(capsys, "run", bad, "1")
        assert code == 3
        assert err.startswith(f"cannot read {bad}")

    def test_negative_and_binary_literals(self, capsys):
        code, out, _ = run_cli(capsys, "run", corpus("fastmul.pc"),
                               "-6", "0b111")
        assert code == 0 and out.strip() == "-42"

    def test_knapsack_defaults_to_extended(self, capsys):
        code, out, _ = run_cli(capsys, "run", corpus("knapsack.pc"),
                               "[1,2,2,3,1]", "[1,2,3,4,5]", "0b11111",
                               "0b11111")
        assert code == 0 and out.strip() == "10"

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", corpus("fastmul.pc"),
                               "6", "7", "--json", "--cost")
        assert code == 0
        doc = json.loads(out)
        assert doc["output"] == "42"
        assert doc["ic"] > 0 and doc["max_value_size"] >= 6

    def test_cost_flag_same_output(self, capsys):
        _, plain, _ = run_cli(capsys, "run", corpus("fastmul.pc"), "9", "31")
        _, costed, _ = run_cli(capsys, "run", corpus("fastmul.pc"), "9", "31",
                               "--cost")
        assert costed.splitlines()[0] == plain.strip()
        assert "ic:" in costed

    def test_runtime_error_exit_2(self, capsys, tmp_path):
        src = ("// mode: extended\n"
               "int main(iint n){array<int> a; a=array(size(n)); "
               "return a[99];}\n")
        f = tmp_path / "oob.pc"
        f.write_text(src)
        code, _, err = run_cli(capsys, "run", f, "1")
        assert code == 2 and "out of range" in err

    @pytest.mark.parametrize("stmt, text", [
        ("o=a[N];", "array index N out of range (length 2)"),
        ("a[N]=1;", "array index N out of range (length 2)"),
        ("a=array(0-N);", "array length -N is negative"),
    ])
    def test_runtime_error_prints_huge_ints(self, capsys, tmp_path, stmt,
                                            text):
        nines = "9" * 5000  # past Python's int/str digit limit
        f = tmp_path / "huge.pc"
        f.write_text("// mode: extended\nint main(){array<int> a; a=array(2); "
                     "int o; " + stmt.replace("N", nines) + " return o;}\n")
        code, _, err = run_cli(capsys, "run", f)
        assert code == 2 and "internal error" not in err
        assert "runtime error: " + text.replace("N", nines) in err

    def test_fuel_env(self, capsys, monkeypatch):
        monkeypatch.setenv("POLYC_FUEL", "30")
        code, _, err = run_cli(capsys, "run", corpus("fastmul.pc"),
                               "100", "100")
        assert code == 2 and "fuel" in err.lower()

    def test_fuel_counts_statements(self, capsys, monkeypatch):
        # fastmul 6 7 executes 22 statements; its ic is 64
        path = corpus("fastmul.pc")
        for fuel, code, out in (("21", 2, ""), ("22", 0, "42\n"),
                                ("0", 2, "")):
            monkeypatch.setenv("POLYC_FUEL", fuel)
            err = (f"{path}:0:0: fuel exhausted: interpreter fuel limit of "
                   f"{fuel} statements exceeded\n") if code else ""
            assert run_cli(capsys, "run", path, "6", "7") == (code, out, err)

    def test_fuel_counts_statements_in_cost_mode(self, capsys, monkeypatch):
        # the same statement exhausts the fuel, whether or not cost is metered
        path = corpus("fastmul.pc")
        for fuel in ("21", "22"):
            monkeypatch.setenv("POLYC_FUEL", fuel)
            code, out, err = run_cli(capsys, "run", path, "6", "7")
            assert run_cli(capsys, "run", path, "6", "7", "--cost") == (
                code, out + "ic: 64\nmax value size: 6\n" if out else "", err)

    @pytest.mark.parametrize("m", [999, 65536])
    def test_scalar_multiple_chain(self, capsys, tmp_path, m):
        # the parser turns m*x into a chain of m terms, which the checker
        # handles in one loop: `return m*x;` costs m Vars and m-1 Ops
        f = tmp_path / "mul.pc"
        f.write_text(f"int main(int x){{int o; o={m}*x; return o;}}")
        assert run_cli(capsys, "check", f) == (0, "well-typed: int\n", "")
        assert run_cli(capsys, "run", f, "3") == (0, f"{3 * m}\n", "")
        f.write_text(f"int main(int x){{return {m}*x;}}")
        code, out, err = run_cli(capsys, "run", f, "3", "--cost")
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == [str(3 * m), f"ic: {2 * m - 1}"]

    @pytest.mark.parametrize("raw", ["-5", "1_000", "\u0663\u0660\u0660",
                                     " 30", "+30", "3e2", "0x1e"])
    def test_fuel_env_takes_decimal_digits_only(self, capsys, monkeypatch,
                                                raw):
        monkeypatch.setenv("POLYC_FUEL", raw)
        code, out, err = run_cli(capsys, "run", corpus("fastmul.pc"), "6", "7")
        assert (code, out) == (3, "") and "POLYC_FUEL" in err

    def test_large_decimal_argument_and_fuel(self, capsys, monkeypatch):
        digits = "9" * 20000
        monkeypatch.setenv("POLYC_FUEL", digits)
        assert run_cli(capsys, "run", corpus("identity.pc"), digits) == (
            0, digits + "\n", "")

    @pytest.mark.parametrize("error", [
        BrokenPipeError(errno.EPIPE, "Broken pipe"),
        OSError(errno.ENOSPC, "No space left on device"),
    ], ids=["closed", "full"])
    def test_unwritable_stdout_exits_3(self, capsys, monkeypatch, error):
        class Unwritable(io.StringIO):
            def write(self, text):
                raise error
        monkeypatch.setattr(sys, "stdout", Unwritable())
        code = main(["check", corpus("fastmul.pc")])
        assert (code, capsys.readouterr().err) == (
            3, f"error: cannot write output: {error}\n")

    def test_python_dash_m(self):
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "polyc", "run", corpus("fastmul.pc"), "6",
             "7"], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=path))
        assert (proc.returncode, proc.stdout) == (0, "42\n"), proc.stderr

    def test_string_array_argument_with_comma(self, capsys, tmp_path):
        f = tmp_path / "strs.pc"
        f.write_text("// mode: extended\nint main(array<string> a, istring s)"
                     "{int r; if(a[0]==\"a,b\"){r=1;}else{r=2;} return r;}\n")
        code, out, _ = run_cli(capsys, "run", f, '["a,b","c"]', "x")
        assert code == 0 and out.strip() == "1"
        code, out, _ = run_cli(capsys, "run", f, '["a","b,c"]', "x")
        assert code == 0 and out.strip() == "2"

    def test_mode_flag_overrides(self, capsys, tmp_path):
        f = tmp_path / "ext.pc"
        f.write_text("int main(int x){x+=1; return x;}\n")
        code, _, _ = run_cli(capsys, "run", f, "1")
        assert code == 1  # core by default: += rejected
        code, out, _ = run_cli(capsys, "run", f, "1", "--mode", "extended")
        assert code == 0 and out.strip() == "2"


class TestCheck:
    def test_well_typed(self, capsys):
        code, out, _ = run_cli(capsys, "check", corpus("fastmul.pc"))
        assert code == 0 and out.strip() == "well-typed: int"

    def test_diagnostics_rendering(self, capsys):
        code, _, err = run_cli(capsys, "check", corpus("badmul.pc"))
        assert code == 1
        line = err.splitlines()[0]
        assert line.startswith(corpus("badmul.pc") + ":")
        parts = line.split(":")
        assert int(parts[1]) > 0 and int(parts[2]) > 0

    def test_break_in_function_body_exit_1(self, capsys, tmp_path):
        f = tmp_path / "jump.pc"
        f.write_text("// mode: extended\n"
                     "int main(int x){int f(int a){break; return a;} return f(x);}\n")
        code, out, err = run_cli(capsys, "check", f)
        assert code == 1 and out == ""
        assert "misplaced-break: break outside of any loop" in err

    def test_json_diagnostics(self, capsys):
        code, out, _ = run_cli(capsys, "check", corpus("badmul.pc"), "--json")
        assert code == 1
        doc = json.loads(out)
        kinds = {d["kind"] for d in doc["diagnostics"]}
        assert "iterable-assignment-in-loop" in kinds


    @pytest.mark.parametrize("source", [
        "int main(int x){return " + "(" * 400 + "x" + ")" * 400 + ";}",
        "int main(int x){" + "if(x>0){" * 300 + "x=1;" + "}else{x=2;}" * 300
        + " return x;}",
    ], ids=["parentheses-400", "ifs-300"])
    def test_deep_nesting_is_a_syntax_error(self, capsys, tmp_path, source):
        f = tmp_path / "deep.pc"
        f.write_text(source)
        code, out, err = run_cli(capsys, "check", f)
        assert code == 1 and out == ""
        assert "syntax error: program nests too deeply" in err
        assert "internal error" not in err

    def test_nesting_limit_is_one_constant(self):
        # the return expression is the outermost level
        assert deepest("parentheses") == MAX_NESTING - 1
        assert 128 <= deepest("ifs") < 300

    @pytest.mark.parametrize("shape", sorted(NESTED))
    @pytest.mark.parametrize("argv", [
        ["check", "FILE"], ["run", "FILE", "5", "--cost"], ["cost", "FILE", "5"],
        ["transform", "t1", "FILE"], ["transform", "t2", "FILE"],
        ["transform", "normalize", "FILE"], ["analyze", "FILE"],
    ], ids=lambda argv: "-".join(a for a in argv if a != "FILE"))
    def test_every_command_accepts_the_limit(self, capsys, tmp_path, argv,
                                             shape):
        f = tmp_path / "deep.pc"
        f.write_text(NESTED[shape](deepest(shape)))
        code, _, err = run_cli(capsys, *[f if a == "FILE" else a for a in argv])
        assert "internal error" not in err
        assert code == 0, err

    @pytest.mark.parametrize("shape", sorted(NESTED))
    @pytest.mark.parametrize("argv", [["cost", "5"], ["run", "5", "--cost"]],
                             ids=["cost", "run-cost"])
    def test_one_past_the_limit_fails_alike(self, capsys, tmp_path, argv,
                                            shape):
        f = tmp_path / "deep.pc"
        f.write_text(NESTED[shape](deepest(shape) + 1))
        code, out, err = run_cli(capsys, argv[0], f, *argv[1:])
        assert code == 1 and out == ""
        assert "syntax error: program nests too deeply" in err


class TestCost:
    def test_loop_fixture_matches_accounting(self, capsys, tmp_path):
        # program wrapper around the counted loop: constant overhead on top
        # of the 4n+6 loop cost
        f = tmp_path / "loop.pc"
        f.write_text("int main(int z0){int x; x=1; iint z; z=z0;\n"
                     "for(i<size(z)) x=x+x;\nreturn x;}\n")
        n = 5
        code, out, _ = run_cli(capsys, "cost", f, str(2 ** n), "--json")
        assert code == 0
        doc = json.loads(out)
        # decl(1)+asgmt(2)+decl(1)+asgmt(2) + loop(4n+6) + return var(1)
        assert doc["ic"] == (4 * n + 6) + 7
        assert doc["output"] == str(2 ** (n + 1))


class TestCodegen:
    def test_clock_emits_checkable_program(self, capsys):
        code, out, _ = run_cli(capsys, "clock", "2")
        assert code == 0
        from polyc import check_program, parse_source, run_program

        prog = parse_source(out, "core")
        assert check_program(prog, "core").ok
        assert run_program(prog, [2]).output == 128

    def test_clock_bad_degree(self, capsys):
        for degree in (-5, 0, MAX_DEGREE + 1, 1000):
            for argv in (["clock", degree],
                         ["compile-tm", corpus("bitflip.tm"), "--degree", degree]):
                assert run_cli(capsys, *argv) == (
                    3, "", f"degree must be between 1 and {MAX_DEGREE}\n")

    def test_every_accepted_degree_reads_back(self, capsys, tmp_path):
        f = tmp_path / "clock.pc"
        for degree in range(1, MAX_DEGREE + 1):
            code, out, _ = run_cli(capsys, "clock", degree)
            f.write_text(out)
            assert (code, run_cli(capsys, "check", f)) == (
                0, (0, "well-typed: int\n", ""))
        code, out, _ = run_cli(capsys, "compile-tm", corpus("bitflip.tm"),
                               "--degree", MAX_DEGREE)
        f.write_text(out)
        assert (code, run_cli(capsys, "check", f)) == (
            0, (0, "well-typed: int\n", ""))

    def test_large_output_prints_in_decimal(self, capsys, tmp_path):
        # 2^29281: more digits than Python's default int-to-str limit
        f = tmp_path / "clock.pc"
        f.write_text(run_cli(capsys, "clock", 2)[1])
        with decimal.localcontext() as ctx:
            ctx.prec = 10000
            want = str(decimal.Decimal(2) ** (2 * 121 ** 2 - 1))
        assert run_cli(capsys, "run", f, 2 ** 120) == (0, want + "\n", "")

    def test_compile_tm(self, capsys):
        code, out, err = run_cli(capsys, "compile-tm", corpus("bitflip.tm"))
        assert code == 0
        assert "defaulting to 2" in err
        from polyc import check_program, parse_source, run_program
        from polyc.tm import decode_output, encode_input

        prog = parse_source(out, "core")
        assert check_program(prog, "core").ok
        got = run_program(prog, [encode_input("1010")]).output
        assert decode_output(got) == "0101"


class TestTransformCmd:
    def test_t1(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "t1",
                               corpus("double_loop.pc"))
        assert code == 0 and "if(-(x+y)>o)" in out.replace(" ", "")

    def test_t2(self, capsys):
        code, out, _ = run_cli(capsys, "transform", "t2",
                               corpus("double_loop.pc"))
        assert code == 0 and "o=o+o;" in out

    def test_normalize(self, capsys):
        code, out, err = run_cli(capsys, "transform", "normalize",
                                 corpus("fastmul.pc"))
        assert code == 0
        assert "budget variable" in err
        from polyc import check_program, parse_source, run_program

        prog = parse_source(out, "extended")
        assert check_program(prog, "extended").ok
        assert run_program(prog, [6, 7, 1 << 10], mode="extended").output == 42

    def test_normalize_names_the_array_constructor(self, capsys):
        code, out, err = run_cli(capsys, "transform", "normalize",
                                 corpus("sort.pc"))
        assert code == 3 and out == ""
        assert ("error: normalizer supports integer and boolean locals, "
                "not array<int>") in err
        assert "Pos(" not in err


    def test_normalize_bounds_call_expansion(self, capsys, tmp_path):
        f = tmp_path / "doubling.pc"
        f.write_text(doubling_calls(15))
        code, out, err = run_cli(capsys, "transform", "normalize", f)
        assert code == 3 and out == ""
        assert "error: expanding calls copies more than 65536 statements" in err


class TestAnalyze:
    def test_poly_with_witness(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", corpus("fastmul.pc"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "poly"
        assert "iint z;" in out

    @pytest.mark.parametrize("name", sorted(
        f.name for f in CORPUS.glob("*.pc") if f.name != "badmul.pc"))
    def test_witness_rechecks(self, capsys, tmp_path, name):
        code, out, _ = run_cli(capsys, "analyze", corpus(name))
        assert code == 0 and out.startswith("poly\n")
        f = tmp_path / "witness.pc"
        f.write_text(out.split("\n", 1)[1])
        code, out, err = run_cli(capsys, "check", f)
        assert (code, out, err) == (0, "well-typed: int\n", "")

    def test_unknown(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", corpus("badmul.pc"))
        assert code == 0 and out.strip() == "unknown"

    def test_ill_typed_beyond_iterability(self, capsys, tmp_path):
        # a variable whose name contains "size" is no size() operand error
        for name in ["mysize", "mysiz"]:
            f = tmp_path / f"{name}.pc"
            f.write_text(f"int main(int x){{int {name}; {name}=x<1; return 0;}}")
            code, out, err = run_cli(capsys, "analyze", f)
            assert (code, out) == (3, "")
            assert "program is ill-typed for reasons unrelated to " \
                "iterability" in err

    def test_iterable_element_doubled_in_a_loop(self, capsys, tmp_path):
        # a[0] doubles once per inner step and bounds the next inner loop
        f = tmp_path / "elem.pc"
        f.write_text("// mode: extended\n"
                     "int main(iint n){ array<iint> a; a=array(1); a[0]=n; "
                     "for(i<size(n)){ for(j<size(a[0])) { a[0]=a[0]+a[0]; } } "
                     "return size(a[0]); }\n")
        code, out, err = run_cli(capsys, "check", f)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == (
            f"{f}:2:94: iterable-assignment-in-loop: cannot assign to an "
            "iterable element of 'a' inside a loop or function body")
        code, out, _ = run_cli(capsys, "analyze", f)
        assert code == 0 and out.strip() == "unknown"

    @pytest.mark.parametrize("shape,depth", [("parentheses", 250),
                                             ("ifs", 128)])
    def test_deep_nesting(self, capsys, tmp_path, shape, depth):
        f = tmp_path / "deep.pc"
        f.write_text(NESTED[shape](depth))
        code, out, err = run_cli(capsys, "analyze", f)
        assert code == 0 and err == ""
        assert out.startswith("poly\n")


class TestEquiv:
    def test_reflexive(self, capsys):
        code, out, _ = run_cli(capsys, "equiv", corpus("fastmul.pc"),
                               corpus("fastmul.pc"), "2")
        assert code == 0 and out.strip() == "true"

    def test_witness_printed(self, capsys, tmp_path):
        f = tmp_path / "addp.pc"
        f.write_text("int main(int x,int y){return x+y;}\n")
        code, out, _ = run_cli(capsys, "equiv", corpus("fastmul.pc"), f, "3")
        assert code == 0
        assert out.splitlines()[0] == "false"
        assert out.splitlines()[1].startswith("witness: ")

    def test_core_file_first_runs_extended_file(self, capsys, tmp_path):
        core = tmp_path / "core.pc"
        core.write_text("int main(int x,int y){int o; "
                        "if(x>y){o=x;}else{o=y;} return o;}\n")
        ext = tmp_path / "ext.pc"
        ext.write_text("// mode: extended\n"
                       "int main(int x,int y){return max(x,y);}\n")
        for first, second in ((core, ext), (ext, core)):
            code, out, err = run_cli(capsys, "equiv", first, second, "2")
            assert (code, out.strip(), err) == (0, "true", "")


class TestExitCodeTotality:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3
        capsys.readouterr()

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_arguments(self, capsys):
        assert main(["run"]) == 3
        capsys.readouterr()


# the levels of `-(`, `!(` or `x-(` one assignment holds: two nesting levels
# each, and one for the assigned expression
LEVELS = (MAX_NESTING - 1) // 2
# shapes that lowering m*a or a long sum make deep, with output and ic at x = 2
DEEP = {
    "65536x": ("o=65536*x;", 131072, 131074),
    "999(x+1)": ("o=999*(x+1);", 2997, 4997),
    "sum20000": ("o=" + "+".join(["x"] * 20000) + ";", 40000, 40002),
    # chains that alternate the operators of one precedence level
    "plusminus3000": ("o=x" + "".join(
        "-x" if k % 2 else "+x" for k in range(2999)) + ";", 4, 6002),
    "divmod3000": ("o=x" + "".join(
        "%9" if k % 2 else "/1" for k in range(2999)) + ";", 2, 6002),
    # nests to the parser's limit: each level is an operator and a parenthesis
    "neg-nest": ("o=" + "-(" * LEVELS + "x" + ")" * LEVELS + ";", -2, 262),
    "not-nest": ("bool b; b=" + "!(" * LEVELS + "x>0" + ")" * LEVELS
                 + "; if(b){o=1;}else{o=2;}", 2, 269),
    "sub-nest": ("o=" + "x-(" * LEVELS + "x" + ")" * LEVELS + ";", 0, 391),
    "and20000": ("bool b; b=x>0; b=" + "&&".join(["b"] * 20000)
                 + "; if(b){o=1;}else{o=2;}", 1, 40011),
}
DEEP_COMMANDS = [["check"], ["run"], ["run", "--cost"], ["cost", "--json"],
                 ["analyze"], ["transform", "t1"], ["transform", "t2"],
                 ["transform", "normalize"], ["equiv"]]


class TestDeepShapes:
    """Every pass walks a chain of one precedence level in one loop, so no
    command needs a Python frame per term."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("deep")
        paths = {}
        for shape, (stmt, _, _) in DEEP.items():
            paths[shape] = root / f"{shape}.pc"
            paths[shape].write_text(f"int main(int x){{int o; {stmt} return o;}}")
        return paths

    def test_nests_reach_the_parser_limit(self):
        for shape, level in (("neg-nest", "-("), ("not-nest", "!("),
                             ("sub-nest", "x-(")):
            stmt = DEEP[shape][0].replace(level, 2 * level, 1).replace(
                ")", "))", 1)
            with pytest.raises(ParseError, match="nests too deeply"):
                parse_source(f"int main(int x){{int o; {stmt} return o;}}")

    @pytest.mark.parametrize("command", DEEP_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("shape", DEEP)
    def test_command_succeeds(self, capsys, files, shape, command):
        f = files[shape]
        args = ([f, f, 1] if command == ["equiv"]
                else [f, 2] if command[0] in ("run", "cost") else [f])
        code, out, err = run_cli(capsys, *command, *args)
        assert code == 0 and "internal error:" not in err, err
        _, output, ic = DEEP[shape]
        if command == ["run"]:
            assert out == f"{output}\n"
        elif command == ["run", "--cost"]:
            assert out.splitlines()[:2] == [str(output), f"ic: {ic}"]
        elif command == ["cost", "--json"]:
            doc = json.loads(out)
            assert (doc["output"], doc["ic"]) == (str(output), ic)


class TestCachedParser:
    """main() parses with one argparse tree per process."""

    def test_cost_flag_does_not_leak_into_run(self, capsys):
        fastmul = corpus("fastmul.pc")
        assert run_cli(capsys, "cost", fastmul, "6", "7")[1].startswith(
            "42\nic: ")
        assert run_cli(capsys, "run", fastmul, "6", "7") == (0, "42\n", "")

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"],
                                      ["run", "--mode", "fast", "f.pc"]])
    def test_same_bytes_as_a_fresh_tree(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        code = 3 if exc.value.code else 0
        fresh = (code,) + tuple(capsys.readouterr())
        cli._parser.cache_clear()
        calls = [run_cli(capsys, *argv) for _ in range(3)]
        assert calls[0] == calls[2] == fresh

    def test_bad_mode_choice_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "check", corpus("fastmul.pc"),
                                 "--mode", "fast")
        assert (code, out) == (3, "") and "invalid choice: 'fast'" in err
