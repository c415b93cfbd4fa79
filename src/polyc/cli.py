"""Command line front end.

Exit codes: 0 success, 1 type error, 2 runtime error, 3 usage error; output
that cannot be written (a closed pipe, a full disk) is a usage error too.
POLYC_FUEL caps the number of statements a run executes (absent = unlimited).
"""

import argparse
import functools
import json
import os
import sys

from . import load_program
from .analysis import IllTypedError, poly_check
from .errors import ArgumentError, LexError, ParseError, DesugarError, \
    PolyRuntimeError, PolycError
from .interp import run_program
from .lexer import tokenize
from .printer import pretty_print
from .tm import MAX_DEGREE, TmError, clock_program, compile_tm, parse_tm
from .transform import (
    TransformError, bounded_equiv, normalize_simple, simple_form_shape_ok,
    t1_max_tracker, t2_cost_tracker,
)
from .typecheck import check_program
from .values import VArray, decimal_to_int, format_value, literal_value
from .ast import ArrayT, BOOL, is_int_type, is_string_type

EXIT_OK = 0
EXIT_TYPE = 1
EXIT_RUNTIME = 2
EXIT_USAGE = 3


class CliFailure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits on its own for bad usage or --help
        return EXIT_OK if e.code in (0, None) else EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed or full stdout fails here, not at exit
        return code
    except OSError as e:  # files are read in _read: this is a stdout write
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return EXIT_USAGE
    except CliFailure as e:
        print(e.message, file=sys.stderr)
        return e.code
    except (LexError, ParseError, DesugarError) as e:
        print(e.render(getattr(args, "file", "<input>")), file=sys.stderr)
        return EXIT_TYPE
    except (PolyRuntimeError,) as e:
        print(e.render(getattr(args, "file", "<input>")), file=sys.stderr)
        return EXIT_RUNTIME
    except (ArgumentError, TmError, TransformError, IllTypedError) as e:
        print(f"error: {e.message}", file=sys.stderr)
        return EXIT_USAGE
    except PolycError as e:
        print(f"error: {e.message}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:  # total exit-code contract for scripted use
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


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
        ("degree", dict(type=int)))
    add("compile-tm", cmd_compile_tm,
        "compile a Turing machine spec to a core program", "tmfile",
        ("--degree", dict(type=int, default=None, help="polynomial degree of "
                          "the step budget (default 2)")))
    add("transform", cmd_transform, "source-to-source transforms",
        ("kind", dict(choices=["t1", "t2", "normalize"])), "file", "--mode")
    add("analyze", cmd_analyze, "infer iterable annotations; verdict poly "
        "or unknown", "file", "--mode")
    add("equiv", cmd_equiv,
        "exhaustively compare two programs on a bounded input box",
        "file1", "file2", ("bound", dict(type=int)), "--mode")
    return p


# parse_args leaves the tree as it was, so one tree serves every main() call
_parser = functools.cache(build_parser)


def _fuel():
    """The number of statements a run may execute: POLYC_FUEL in ASCII
    decimal digits, or None (unlimited) when unset or empty."""
    raw = os.environ.get("POLYC_FUEL")
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise CliFailure(EXIT_USAGE, "POLYC_FUEL must be a non-negative "
                                     f"decimal integer, got {raw!r}")
    return decimal_to_int(raw)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliFailure(EXIT_USAGE, f"cannot read {path}: {e}")


def _load(path, mode_flag):
    return load_program(_read(path), mode_flag)


def _checked(path, mode_flag, json_mode=False):
    prog, mode = _load(path, mode_flag)
    res = check_program(prog, mode)
    if not res.ok:
        if json_mode:
            print(json.dumps({"diagnostics": [d.to_json() for d in res.errors]}))
        for d in res.errors:
            print(d.render(path), file=sys.stderr)
        raise CliFailure(EXIT_TYPE, f"{len(res.errors)} type error(s)")
    return prog, mode


def parse_arg_literal(text, annot, mode):
    """Surface syntax of program inputs: signed decimal, 0b binary,
    true/false, [v,...] arrays, double-quoted strings."""
    text = text.strip()
    if is_int_type(annot):
        neg = text.startswith("-")
        body = text[1:] if neg else text
        # the language's own numerals: one decimal or binary literal token
        try:
            kind, lexeme, _, _ = tokenize(body)[0]
        except LexError:
            kind = lexeme = None
        if lexeme != body or kind not in ("decimal-literal", "binary-literal"):
            raise ArgumentError(f"expected an integer literal, got {text!r}")
        v = literal_value(body)
        return -v if neg else v
    if annot is BOOL:
        if text in ("true", "false"):
            return text == "true"
        raise ArgumentError(f"expected true or false, got {text!r}")
    if is_string_type(annot):
        if mode != "extended":
            raise ArgumentError("string arguments require extended mode")
        if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
            return text[1:-1]
        return text  # unquoted convenience form
    if isinstance(annot, ArrayT):
        if mode != "extended":
            raise ArgumentError("array arguments require extended mode")
        if not (text.startswith("[") and text.endswith("]")):
            raise ArgumentError(f"expected a bracketed list, got {text!r}")
        inner = text[1:-1].strip()
        items = []
        if inner:
            for piece in _split_top(inner):
                items.append(parse_arg_literal(piece, annot.elem, mode))
        return VArray(items, annot.elem)
    raise ArgumentError(f"cannot build a value of type {annot}")


def _split_top(text):
    """Split at the commas outside brackets and double-quoted strings."""
    parts, depth, cur, quoted = [], 0, [], False
    for ch in text:
        if ch == '"':
            quoted = not quoted
        elif ch == "[" and not quoted:
            depth += 1
        elif ch == "]" and not quoted:
            depth -= 1
        if ch == "," and depth == 0 and not quoted:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _program_args(prog, raw_args, mode):
    if len(raw_args) != len(prog.params):
        raise CliFailure(
            EXIT_USAGE,
            f"program expects {len(prog.params)} arguments, got {len(raw_args)}")
    vals = []
    for (annot, name), raw in zip(prog.params, raw_args):
        try:
            vals.append(parse_arg_literal(raw, annot, mode))
        except ArgumentError as e:
            raise CliFailure(EXIT_USAGE, f"argument {name!r}: {e.message}")
    return vals


def cmd_run(args):
    prog, mode = _checked(args.file, args.mode, args.json)
    vals = _program_args(prog, args.args, mode)
    report = run_program(prog, vals, cost_mode=args.cost, mode=mode,
                         fuel=_fuel())
    if args.json:
        doc = report.to_json() if args.cost else {"output": format_value(
            report.output).strip('"')}
        print(json.dumps(doc))
        return EXIT_OK
    print(format_value(report.output))
    if args.cost:
        print(f"ic: {report.ic}")
        print(f"max value size: {report.max_value_size}")
    return EXIT_OK


def cmd_check(args):
    _checked(args.file, args.mode, args.json)
    print(json.dumps({"diagnostics": []}) if args.json else "well-typed: int")
    return EXIT_OK


def _degree(d):
    """A degree whose clock loops the parser reads back."""
    if not 1 <= d <= MAX_DEGREE:
        raise CliFailure(EXIT_USAGE, f"degree must be between 1 and {MAX_DEGREE}")
    return d


def cmd_clock(args):
    print(pretty_print(clock_program(_degree(args.degree))), end="")
    return EXIT_OK


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
    return EXIT_OK


def cmd_transform(args):
    prog, mode = _checked(args.file, args.mode)
    if args.kind == "t1":
        print(pretty_print(t1_max_tracker(prog)), end="")
    elif args.kind == "t2":
        print(pretty_print(t2_cost_tracker(prog)), end="")
    else:
        sf = normalize_simple(prog, mode)
        if not simple_form_shape_ok(sf):
            raise CliFailure(EXIT_RUNTIME, "normalizer produced a bad shape")
        print(f"// budget variable: {sf.bound_var}; "
              f"bound {sf.symbolic_bound}", file=sys.stderr)
        print(pretty_print(sf.program, mode_marker="extended"), end="")
    return EXIT_OK


def cmd_analyze(args):
    prog, _ = _load(args.file, args.mode)
    verdict = poly_check(prog)
    print(verdict.verdict)
    if verdict.verdict == "poly":
        print(pretty_print(verdict.witness, mode_marker="extended"), end="")
    return EXIT_OK


def cmd_equiv(args):
    p1, mode1 = _checked(args.file1, args.mode)
    p2, mode2 = _checked(args.file2, args.mode)
    if args.bound < 0:
        raise CliFailure(EXIT_USAGE, "bound must be non-negative")
    # extended mode only adds the builtin bindings, so it runs core programs too
    mode = "extended" if "extended" in (mode1, mode2) else "core"
    same, witness = bounded_equiv(p1, p2, args.bound, mode=mode, fuel=_fuel())
    print("true" if same else "false")
    if not same:
        print("witness: " + " ".join(str(v) for v in witness))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
