"""Executable shadows of the metatheory: every well-typed program terminates
with an integer output, loop bodies preserve the stores of iterable
variables, and runs are deterministic."""

import random
from fractions import Fraction

import fuzzgen
from hypothesis import given, settings, strategies as st

from polyc import check_program, parse_source, pretty_print, run_program
from polyc.ops import _div, _mod
from polyc.values import size_of_value

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
