import itertools
import random

import pytest

from conftest import CORPUS, load_printed

from polyc import check_program, run_program
from polyc.ast import Block, For, If
from polyc.tm import (
    TmError, TuringMachine, clock_program, compile_tm, decode_output,
    encode_input, parse_tm, tm_run,
)
from polyc.values import size_of_value


def load_machine(name):
    return parse_tm((CORPUS / name).read_text(), name=name)


# two-state flipper: flips while scanning right, halts at the first blank
# (fine for the direct oracle; it does not home the head for the compiler)
FLIP2 = TuringMachine(2, {
    (0, "0"): (0, "1", "R"),
    (0, "1"): (0, "0", "R"),
    (0, "B"): (1, "B", "L"),
}, "flip2")

LOOPER = TuringMachine(2, {
    (0, "0"): (0, "0", "R"),
    (0, "1"): (0, "1", "R"),
    (0, "B"): (0, "B", "L"),
}, "looper")


class TestOracle:
    def test_bit_flip(self):
        assert tm_run(FLIP2, "1010") == "0101"

    def test_empty_input_halts_immediately(self):
        halter = TuringMachine(2, {
            (0, "0"): (1, "0", "L"),
            (0, "1"): (1, "1", "L"),
            (0, "B"): (1, "B", "L"),
        })
        assert tm_run(halter, "") == ""

    def test_fuel_exhausted(self):
        with pytest.raises(TmError):
            tm_run(LOOPER, "1", fuel=100)

    def test_rejects_non_binary_input(self):
        with pytest.raises(TmError):
            tm_run(FLIP2, "102")


class TestEncoding:
    def test_worked_example(self):
        assert encode_input("10010") == 514
        assert decode_output(514) == "10010"

    def test_empty(self):
        assert encode_input("") == 2
        assert decode_output(2) == ""

    def test_single_bit(self):
        assert encode_input("1") == 7
        assert decode_output(25) == "1"  # trailing blank stripped

    def test_malformed(self):
        with pytest.raises(TmError):
            decode_output(1)
        with pytest.raises(TmError):
            decode_output(int("1201", 3))  # most significant digit not 2
        with pytest.raises(TmError):
            decode_output(int("2021", 3))  # interior blank

    def test_round_trip_exhaustive_short(self):
        for n in range(0, 9):
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                assert decode_output(encode_input(w)) == w

    def test_round_trip_random_longer(self):
        rng = random.Random(5)
        for _ in range(200):
            w = "".join(rng.choice("01") for _ in range(rng.randint(9, 12)))
            assert decode_output(encode_input(w)) == w


class TestSpecFormat:
    def test_parse_corpus_machines(self):
        flip = load_machine("bitflip.tm")
        assert flip.n_states == 6
        assert len(flip.transitions) == 15
        succ = load_machine("successor.tm")
        assert succ.n_states == 4

    def test_partial_transition_function_rejected(self):
        with pytest.raises(TmError):
            parse_tm("states: 3\nhalt: 1\nq0 0 -> q2 1 R\n")

    @pytest.mark.parametrize("text,message", [
        ("states: two\nhalt: 1\n", "line 1: malformed state count"),
        ("states: 2\nhalt: 1\nq0 0 -> q1 0 R -> x\n",
         "line 3: malformed transition"),
        # int() accepts each of these; a .tm file takes ASCII digits only
        ("states: \u0662\nhalt: 1\n", "line 1: malformed state count"),
        ("states: 0_2\nhalt: 1\n", "line 1: malformed state count"),
        ("states: +2\nhalt: 1\n", "line 1: malformed state count"),
        ("states: 2\nhalt: 1\nqq0 0 -> q1 0 R\n",
         "line 3: malformed transition"),
        ("states: 2\nhalt: 1\n0 0 -> q1 0 R\n",
         "line 3: malformed transition"),
        ("states: 2\nhalt: 1\nq0 0 -> q+1 0 R\n",
         "line 3: malformed transition"),
        ("states: 2\nhalt: 1\nq\u0660 0 -> q1 0 R\n",
         "line 3: malformed transition"),
    ], ids=["state-count", "two-arrows", "arabic-indic-count",
            "underscore-count", "signed-count", "double-q", "bare-state",
            "signed-state", "arabic-indic-state"])
    def test_malformed_line(self, text, message):
        with pytest.raises(TmError, match=message):
            parse_tm(text)

    def test_halt_state_fixed(self):
        with pytest.raises(TmError):
            parse_tm("states: 2\nhalt: 0\n")

    def test_halt_state_must_not_transition(self):
        with pytest.raises(TmError):
            parse_tm("states: 2\nhalt: 1\n"
                     + "".join(f"q0 {a} -> q0 {a} R\n" for a in "01B")
                     + "q1 0 -> q0 0 R\n")


class TestClock:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_clock_law(self, d):
        prog = load_printed(clock_program(d))
        assert check_program(prog, "core").ok
        for v in [1, 2, 7, 13, 64]:
            out = run_program(prog, [v]).output
            n = size_of_value(v)
            assert out == 2 ** (d * n ** d - 1)
            assert size_of_value(out) == d * n ** d

    def test_worked_values(self):
        assert run_program(load_printed(clock_program(1)), [7]).output == 4
        assert run_program(load_printed(clock_program(2)), [2]).output == 128
        assert run_program(load_printed(clock_program(1)), [1]).output == 1

    def test_size_grows_mildly_with_degree(self):
        from polyc.printer import pretty_print

        lens = [len(pretty_print(clock_program(d))) for d in (1, 2, 4, 8)]
        assert lens == sorted(lens)
        # O(d log d): doubling d must not quadruple the size
        assert lens[3] < 4 * lens[2]

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            clock_program(0)


def transition_blocks(prog):
    """Top-level guarded blocks in the simulation loop body."""
    sim_loop = prog.body[-1]
    assert isinstance(sim_loop, For)
    body = sim_loop.body
    assert isinstance(body, Block)
    return [s for s in body.stmts if isinstance(s, If)]


class TestCompiler:
    @pytest.mark.parametrize("name,maxlen", [("bitflip.tm", 6),
                                             ("successor.tm", 6)])
    def test_differential(self, name, maxlen):
        machine = load_machine(name)
        prog = load_printed(compile_tm(machine, 2))
        assert check_program(prog, "core").ok
        for n in range(0, maxlen + 1):
            for bits in itertools.product("01", repeat=n):
                w = "".join(bits)
                got = decode_output(run_program(prog, [encode_input(w)]).output)
                assert got == tm_run(machine, w)

    @pytest.mark.parametrize("name", ["bitflip.tm", "successor.tm"])
    def test_tree_is_the_parsed_tree(self, name):
        # the checker and the engine take the compiled tree as it is
        machine = load_machine(name)
        prog = compile_tm(machine, 2)
        assert prog == load_printed(prog)
        assert check_program(prog, "core").ok
        for w in ["", "1", "0110"]:
            got = decode_output(run_program(prog, [encode_input(w)]).output)
            assert got == tm_run(machine, w)

    def test_block_count_bound(self):
        for name in ["bitflip.tm", "successor.tm"]:
            machine = load_machine(name)
            prog = compile_tm(machine, 2)
            assert len(transition_blocks(prog)) <= 3 * machine.n_states

    def test_compiler_rejects_halt_transitions(self):
        bad = TuringMachine(2, {(1, "0"): (0, "0", "R")})
        with pytest.raises(TmError):
            compile_tm(bad, 2)

    def test_emitted_source_parses_in_core_mode(self):
        from polyc import parse_source, pretty_print

        machine = load_machine("bitflip.tm")
        prog = compile_tm(machine, 2)
        text = pretty_print(prog)
        again = parse_source(text, "core")
        assert check_program(again, "core").ok
