"""Command line front end.

Every failure is a `PolycError`; its class in `polyc.errors`, the one place
that assigns exit codes, says what is printed on stderr and the code: 1 for
lexical, syntax, core-mode, desugar and type errors; 2 for runtime errors
and exhausted fuel; 3 for unreadable files, bad arguments, bad `.tm` files,
transforms that do not apply and programs `analyze` finds ill-typed.  Output
that cannot be written (a closed pipe, a full disk) exits with 3 too, and
any other exception is an internal error with 2.
POLYC_FUEL caps the number of statements a run executes (absent = unlimited).
"""

import argparse
import contextlib
import functools
import gc
import json
import os
import sys

from . import load_program
from .analysis import poly_check
from .errors import CheckError, InternalError, PolycError, ShapeError, \
    UsageError
from .interp import run_program
from .printer import pretty_print
from .tm import MAX_DEGREE, clock_program, compile_tm, parse_tm
from .transform import (
    bounded_equiv, normalize_simple, simple_form_shape_ok, t1_max_tracker,
    t2_cost_tracker,
)
from .typecheck import check_program
from .values import format_value, int_to_decimal, numeral, parse_value, \
    signed_numeral


def main(argv=None):
    """Run one command; the cyclic collector is off while it runs, since no
    stage makes cycles that must be freed before it ends, and its rescans of
    a large program's nodes cost up to half of a command."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _command(argv)
    finally:
        if enabled:
            gc.enable()


def _command(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits on its own for bad usage or --help
        return 0 if e.code in (0, None) else UsageError.exit_code
    try:
        args.handler(args)
        sys.stdout.flush()  # a closed or full stdout fails here, not at exit
        return 0
    except OSError as e:  # files are read in _read: this is a stdout write
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return UsageError.exit_code
    except PolycError as e:
        print(e.render(), file=sys.stderr)
        return e.exit_code
    except Exception as e:  # total exit-code contract for scripted use
        print(f"internal error: {e}", file=sys.stderr)
        return InternalError.exit_code


def build_parser():
    p = argparse.ArgumentParser(
        prog="polyc",
        description="Toolchain for a typed imperative language whose "
                    "well-typed programs terminate in polynomial time.")
    sub = p.add_subparsers(dest="command", required=True)

    # the arguments several subcommands share, by name
    common = {"--mode": dict(choices=["core", "extended"]),
              "--json": dict(action="store_true")}

    def add(name, handler, help, *arguments, **defaults):
        """A subcommand; each argument is a name, with the keywords in
        `common` or none, or a (name, add_argument keywords) pair."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(handler=handler, **defaults)
        for arg in arguments:
            if not isinstance(arg, tuple):
                arg = (arg, common.get(arg, {}))
            sp.add_argument(arg[0], **arg[1])

    add("run", cmd_run, "type-check and run a program", "file",
        ("args", dict(nargs="*", help="program arguments")), "--mode",
        ("--cost", dict(action="store_true", help="print the cost report")),
        "--json")
    add("check", cmd_check, "type-check a program", "file", "--mode", "--json")
    add("cost", cmd_run, "run with cost accounting", "file",
        ("args", dict(nargs="*")), "--mode", "--json", cost=True)
    add("clock", cmd_clock, "emit the degree-d clock program",
        ("degree", dict(type=signed_numeral)))
    add("compile-tm", cmd_compile_tm,
        "compile a Turing machine spec to a core program", "tmfile",
        ("--degree", dict(type=signed_numeral, default=None,
                          help="polynomial degree of the step budget "
                               "(default 2)")))
    add("transform", cmd_transform, "source-to-source transforms",
        ("kind", dict(choices=["t1", "t2", "normalize"])), "file", "--mode")
    add("analyze", cmd_analyze, "infer iterable annotations; verdict poly "
        "or unknown", "file", "--mode")
    add("equiv", cmd_equiv,
        "exhaustively compare two programs on a bounded input box",
        "file1", "file2", ("bound", dict(type=signed_numeral)), "--mode")
    return p


# parse_args leaves the tree as it was, so one tree serves every main() call
_parser = functools.cache(build_parser)


def _fuel():
    """The number of statements a run may execute: POLYC_FUEL as a numeral,
    or None (unlimited) when unset or empty."""
    raw = os.environ.get("POLYC_FUEL")
    if not raw:
        return None
    fuel = numeral(raw)
    if fuel is None:
        raise UsageError("POLYC_FUEL must be a non-negative integer numeral, "
                         f"got {raw!r}")
    return fuel


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}")


@contextlib.contextmanager
def _in_file(path):
    """Name `path` as the file of the errors raised inside."""
    try:
        yield
    except PolycError as e:
        e.where = path
        raise


def _checked(path, mode_flag, json_mode=False):
    with _in_file(path):
        prog, mode = load_program(_read(path), mode_flag)
        res = check_program(prog, mode)
        if not res.ok:
            if json_mode:
                print(json.dumps({"diagnostics": [d.to_json()
                                                  for d in res.errors]}))
            raise CheckError(f"{len(res.errors)} type error(s)",
                             diags=res.errors)
    return prog, mode


def _program_args(prog, raw_args):
    if len(raw_args) != len(prog.params):
        raise UsageError(f"program expects {len(prog.params)} arguments, "
                         f"got {len(raw_args)}")
    vals = []
    for (annot, name), raw in zip(prog.params, raw_args):
        try:
            vals.append(parse_value(raw, annot))
        except PolycError as e:
            raise UsageError(f"argument {name!r}: {e.message}")
    return vals


def cmd_run(args):
    prog, _ = _checked(args.file, args.mode, args.json)
    vals = _program_args(prog, args.args)
    with _in_file(args.file):
        report = run_program(prog, vals, cost_mode=args.cost, fuel=_fuel())
    if args.json:
        print(json.dumps(report.to_json()))
        return
    print(format_value(report.output))
    if args.cost:
        print(f"ic: {report.ic}")
        print(f"max value size: {report.max_value_size}")


def cmd_check(args):
    _checked(args.file, args.mode, args.json)
    print(json.dumps({"diagnostics": []}) if args.json else "well-typed: int")


def _degree(d):
    """A degree whose clock loops the parser reads back."""
    if not 1 <= d <= MAX_DEGREE:
        raise UsageError(f"degree must be between 1 and {MAX_DEGREE}")
    return d


def cmd_clock(args):
    print(pretty_print(clock_program(_degree(args.degree))), end="")


def cmd_compile_tm(args):
    machine = parse_tm(_read(args.tmfile), name=args.tmfile)
    degree = args.degree
    if degree is None:
        degree = 2
        print("note: no --degree given; defaulting to 2. A degree below the "
              "machine's polynomial running time truncates the simulation.",
              file=sys.stderr)
    prog = compile_tm(machine, _degree(degree))
    print(pretty_print(prog), end="")


def cmd_transform(args):
    prog, mode = _checked(args.file, args.mode)
    if args.kind == "normalize":
        sf = normalize_simple(prog)
        if not simple_form_shape_ok(sf):
            raise ShapeError("normalizer produced a bad shape")
        print(f"// budget variable: {sf.bound_var}; "
              f"bound {sf.symbolic_bound}", file=sys.stderr)
        prog, mode = sf.program, "extended"
    else:
        prog = (t1_max_tracker if args.kind == "t1" else t2_cost_tracker)(prog)
    print(pretty_print(prog, mode_marker=mode if mode == "extended" else None),
          end="")


def cmd_analyze(args):
    with _in_file(args.file):
        verdict = poly_check(*load_program(_read(args.file), args.mode))
    print(verdict.verdict)
    if verdict.verdict == "poly":
        print(pretty_print(verdict.witness, mode_marker="extended"), end="")


def cmd_equiv(args):
    p1, _ = _checked(args.file1, args.mode)
    p2, _ = _checked(args.file2, args.mode)
    if args.bound < 0:
        raise UsageError("bound must be non-negative")
    same, witness = bounded_equiv(p1, p2, args.bound, fuel=_fuel(),
                                  names=(args.file1, args.file2))
    print("true" if same else "false")
    if not same:
        print("witness: " + " ".join(map(int_to_decimal, witness)))


if __name__ == "__main__":
    sys.exit(main())
