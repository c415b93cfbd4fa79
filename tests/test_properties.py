"""Executable shadows of the metatheory: every well-typed program terminates
with an integer output, loop bodies preserve the stores of iterable
variables, and runs are deterministic.  Every CLI command answers every
input with a documented exit code."""

import contextlib
import io
import random
from fractions import Fraction

import fuzzgen
import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, corpus_source
from polyc import (
    check_program, parse_source, pretty_print, run_program, tokenize,
)
from polyc.ast import (
    ArrayT, Assign, BOOL, Block, Const, Decl, For, If, INT, OpApp, STRING, Var,
)
from polyc.cli import main
from polyc.ops import _div, _mod
from polyc.parser import detect_mode
from polyc.values import VArray, format_value, parse_value, size_of_value

FUEL = 10 ** 7


def run_all(seed_count, runs_per_program, rng_seed=0):
    rng = random.Random(rng_seed)
    for seed in range(seed_count):
        prog = fuzzgen.gen_program(seed)
        assert check_program(prog, "core").ok, f"generator broke typing @{seed}"
        watch = fuzzgen.watch_sets(prog)
        for _ in range(runs_per_program):
            args = [rng.randrange(-2 ** 16, 2 ** 16) for _ in prog.params]
            report = run_program(prog, args, fuel=FUEL, watch=watch)
            out = report.output
            assert isinstance(out, int) and not isinstance(out, bool)
            yield prog, args, out


class TestTypeSafety:
    def test_termination_and_integer_outputs(self):
        total = 0
        for _ in run_all(60, 3):
            total += 1
        assert total == 180

    def test_determinism(self):
        rng = random.Random(9)
        for seed in range(25):
            prog = fuzzgen.gen_program(seed)
            args = [rng.randrange(-2 ** 16, 2 ** 16) for _ in prog.params]
            a = run_program(prog, args, cost_mode=True, fuel=FUEL)
            b = run_program(prog, args, cost_mode=True, fuel=FUEL)
            assert (a.output, a.ic, a.max_value_size) == \
                   (b.output, b.ic, b.max_value_size)
            assert a.rule_counts == b.rule_counts

    def test_cost_mode_output_invariant(self):
        rng = random.Random(11)
        for seed in range(25):
            prog = fuzzgen.gen_program(seed)
            args = [rng.randrange(-2 ** 12, 2 ** 12) for _ in prog.params]
            assert run_program(prog, args, fuel=FUEL).output == \
                   run_program(prog, args, cost_mode=True, fuel=FUEL).output

    def test_round_trip_through_printer(self):
        for seed in range(40):
            prog = fuzzgen.gen_program(seed)
            text = pretty_print(prog)
            again = parse_source(text, "core")
            assert again == prog

    def test_max_value_size_dominates_output(self):
        rng = random.Random(13)
        for seed in range(25):
            prog = fuzzgen.gen_program(seed)
            args = [rng.randrange(-2 ** 16, 2 ** 16) for _ in prog.params]
            rep = run_program(prog, args, cost_mode=True, fuel=FUEL)
            assert rep.max_value_size >= size_of_value(rep.output)
            assert all(rep.max_value_size >= size_of_value(v) for v in args)
            assert rep.ic >= 1


# small, word-sized and beyond-64-bit magnitudes of either sign, zero included
OPERANDS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 64, 2 ** 64),
                     st.integers(2 ** 64, 2 ** 200).flatmap(
                         lambda n: st.sampled_from([n, -n])))


class TestTruncatingDivision:
    @settings(derandomize=True, max_examples=500)
    @given(OPERANDS, OPERANDS)
    def test_div_and_mod_truncate_toward_zero(self, a, b):
        # a Fraction is exact at any size and int() truncates it toward zero
        q = int(Fraction(a, b)) if b else 0
        assert _div(a, b) == q
        assert _mod(a, b) == (a - b * q if b else 0)


# a parameter type, arrays nested up to three deep, and values of it
ARG_TYPES = st.recursive(st.sampled_from([INT, BOOL, STRING]),
                         lambda elem: elem.map(ArrayT), max_leaves=4)


def values_of(annot):
    if annot is INT:
        return st.one_of(OPERANDS, st.integers(10 ** 4400, 10 ** 4500).flatmap(
            lambda n: st.sampled_from([n, -n])))
    if annot is BOOL:
        return st.booleans()
    if annot is STRING:  # an argument string holds no quote and no newline
        return st.text(st.characters(blacklist_characters='"\n'))
    return st.lists(values_of(annot.elem), max_size=3).map(
        lambda items: VArray(items, annot.elem))


class TestArgumentText:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ARG_TYPES.flatmap(lambda t: st.tuples(st.just(t), values_of(t))))
    def test_parse_value_inverts_format_value(self, typed):
        annot, v = typed
        assert parse_value(format_value(v), annot) == v


# -- the CLI on fuzzgen programs with long chains and deep nests spliced in --

COMMANDS = [["check"], ["run"], ["run", "--cost"], ["cost", "--json"],
            ["analyze"], ["transform", "t1"], ["transform", "t2"],
            ["transform", "normalize"], ["equiv"]]


def spliced(seed, shape, n, at):
    """fuzzgen program `seed` with, before its statement `at`, an int chain
    of n terms mixing + - / %, a bool chain of n comparisons mixing && ||,
    or an if or for nest n deep, all over the parameter x0.  The chains are
    spliced into the printed text, so only the command under test parses
    and prints them."""
    prog, rng = fuzzgen.gen_program(seed), random.Random(seed)
    chain = None
    if shape == "ints":
        chain = "x0" + "".join(rng.choice("+-/%") + rng.choice(["x0", "3"])
                               for _ in range(n))
    elif shape == "bools":
        chain = "true" + "".join(
            rng.choice(["&&", "||"]) + "x0" + rng.choice(["<", ">=", "!="])
            + str(rng.randrange(9)) for _ in range(n))
    if chain:
        stmts = [Decl(INT if shape == "ints" else BOOL, "w"),
                 Assign(Var("w"), Var("w"))]
    else:
        body = Assign(Var("x0"), OpApp("+", [Var("x0"), Const("1")]))
        for d in range(n):
            body = Block([If(OpApp(">", [Var("x0"), Const(str(d))]), body,
                             Block([])) if shape == "if" else
                          For(f"n{d}", Const(str(rng.randrange(2))), body)])
        stmts = [body]
    prog.body[at:at] = stmts
    text = pretty_print(prog)
    return text.replace("w=w;", f"w={chain};") if chain else text, len(
        prog.params)


CORPUS_PROGRAMS = sorted(p.name for p in CORPUS.glob("*.pc"))
# every lexeme of the corpus, the replacements a token edit draws from
LEXEMES = sorted({t[1] for name in CORPUS_PROGRAMS
                  for t in tokenize(corpus_source(name))[:-1]})
EDITS = st.tuples(st.sampled_from(["delete", "duplicate", "swap", "replace"]),
                  st.integers(0, 10 ** 4), st.integers(0, 10 ** 4))


def token_edited(name, edits):
    """Corpus program `name` with each edit applied to its token list: delete
    token i, duplicate it, swap it with token j, or replace it with corpus
    lexeme j.  The tokens are joined by spaces under the mode line."""
    source = corpus_source(name)
    lexemes = [t[1] for t in tokenize(source)[:-1]]
    for op, i, j in edits:
        i, j = i % len(lexemes), j % len(lexemes)
        if op == "delete":
            del lexemes[i]
        elif op == "duplicate":
            lexemes.insert(i, lexemes[i])
        elif op == "swap":
            lexemes[i], lexemes[j] = lexemes[j], lexemes[i]
        else:
            lexemes[i] = LEXEMES[j % len(LEXEMES)]
    arity = len(parse_source(source).params)
    return f"// mode: {detect_mode(source)}\n" + " ".join(lexemes) + "\n", arity


@pytest.fixture(scope="module")
def source_file(tmp_path_factory):
    return tmp_path_factory.mktemp("spliced") / "p.pc"


class TestCliNeverCrashes:
    # a nest takes two levels of the parser's limit per if or for, so depths
    # up to 150 land on both sides of it
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(st.integers(0, 10 ** 6),
           st.sampled_from(["ints", "bools", "if", "for"]),
           st.integers(1, 4000), st.integers(0, 20), st.sampled_from(COMMANDS))
    def test_exit_code_is_documented(self, source_file, seed, shape, n, at,
                                     command):
        if shape in ("if", "for"):
            n %= 150
        assert_documented_exit(source_file, *spliced(seed, shape, n, at),
                               command)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.sampled_from(CORPUS_PROGRAMS), st.lists(EDITS, min_size=1,
                                                       max_size=3),
           st.sampled_from(COMMANDS))
    def test_token_edits_of_the_corpus(self, source_file, name, edits,
                                       command):
        assert_documented_exit(source_file, *token_edited(name, edits),
                               command)


def assert_documented_exit(source_file, text, arity, command):
    source_file.write_text(text, encoding="utf-8")
    f = str(source_file)
    args = ([f, f, "1"] if command == ["equiv"] else
            [f] + ["2"] * arity if command[0] in ("run", "cost") else [f])
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(command + args)
    assert code in (0, 1, 2, 3), (command, code)
    assert "internal error:" not in err.getvalue(), (command, err.getvalue())
